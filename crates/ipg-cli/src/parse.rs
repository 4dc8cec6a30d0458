//! `ipg parse` — parse a file (or stdin, streamed through a VM session)
//! with any registry grammar and dump the tree; `--extract` switches to
//! the typed extractor view for corpus formats.

use crate::{extract, resolve, CmdResult, Failure};
use ipg_core::check::Grammar;
use ipg_core::interp::vm::{Outcome, VmParser};
use ipg_core::tree::Tree;
use std::io::{Read, Write as _};
use std::rc::Rc;

const USAGE: &str = "usage: ipg parse <grammar> [FILE | -] [--depth N] [--extract [DIR]]";

pub fn run(args: &[String]) -> CmdResult {
    let mut grammar_arg = None;
    let mut input_arg = None;
    let mut depth = 4usize;
    let mut extract_to: Option<Option<String>> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--depth" => {
                depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| Failure::usage("--depth needs a number"))?;
            }
            "--extract" => {
                // An optional directory operand may follow (zip extraction).
                let dir = it.peek().filter(|v| !v.starts_with('-')).map(|v| (*v).clone());
                if dir.is_some() {
                    it.next();
                }
                extract_to = Some(dir);
            }
            other if grammar_arg.is_none() => grammar_arg = Some(other.to_owned()),
            other if input_arg.is_none() => input_arg = Some(other.to_owned()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let Some(grammar_arg) = grammar_arg else {
        return Err(Failure::usage(USAGE));
    };
    let entry = resolve::entry(&grammar_arg)?;

    // The typed lane: corpus extractors over a fully materialized input.
    if let Some(dir) = extract_to {
        let input = read_input(&entry.name, input_arg.as_deref())?;
        return extract::dump(&entry.name, &input, dir.as_deref());
    }

    // The tree lane: one-shot for files, a chunked streaming session for
    // stdin (exactly the parse a server runs as bytes arrive off the wire).
    let (tree, suspends, bytes, source) = match input_arg.as_deref() {
        Some("-") => {
            let (tree, suspends, bytes) = parse_stdin(entry.vm())?;
            (tree, suspends, bytes, "stdin (streamed)".to_owned())
        }
        Some(path) => {
            let input = std::fs::read(path)
                .map_err(|e| Failure::runtime(format!("cannot read {path}: {e}")))?;
            (one_shot(entry.vm(), &input)?, 0, input.len(), path.to_owned())
        }
        None => {
            let input = resolve::default_input(&entry.name).ok_or_else(|| {
                Failure::usage(format!(
                    "`{}` has no self-generated sample; pass FILE or -",
                    entry.name
                ))
            })?;
            (
                one_shot(entry.vm(), &input)?,
                0,
                input.len(),
                "self-generated corpus input".to_owned(),
            )
        }
    };

    // Write-based so a downstream `| head` closing the pipe ends the
    // dump quietly instead of panicking on EPIPE.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let dump = writeln!(
        out,
        "{}: parsed {bytes} bytes from {source} ({}, {suspends} suspensions)",
        entry.name,
        entry.vm().anchor()
    )
    .and_then(|()| print_tree(&mut out, &tree, entry.grammar(), 0, depth))
    .and_then(|()| out.flush());
    match dump {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(Failure::runtime(format!("cannot write output: {e}")))
        }
        _ => Ok(()),
    }
}

/// Materializes the input for the typed-extractor lane (which needs the
/// full byte slice): file, buffered stdin, or the self-generated sample.
fn read_input(name: &str, input_arg: Option<&str>) -> Result<Vec<u8>, Failure> {
    match input_arg {
        Some("-") => {
            let mut buf = Vec::new();
            std::io::stdin()
                .lock()
                .read_to_end(&mut buf)
                .map_err(|e| Failure::runtime(format!("cannot read stdin: {e}")))?;
            Ok(buf)
        }
        Some(path) => {
            std::fs::read(path).map_err(|e| Failure::runtime(format!("cannot read {path}: {e}")))
        }
        None => resolve::default_input(name).ok_or_else(|| {
            Failure::usage(format!("`{name}` has no self-generated sample; pass FILE or -"))
        }),
    }
}

fn one_shot(vm: &VmParser, input: &[u8]) -> Result<Rc<Tree>, Failure> {
    match vm.parse(input) {
        Ok(tree) => Ok(tree.root().to_tree()),
        Err(e) => Err(Failure::runtime(format!("parse failed: {e}"))),
    }
}

/// Streams stdin through a [`ipg_core::interp::vm::Session`] in 4 KiB
/// chunks, reporting the suspension count the parse accumulated.
fn parse_stdin(vm: &VmParser) -> Result<(Rc<Tree>, u64, usize), Failure> {
    let mut session = vm.streaming();
    let mut stdin = std::io::stdin().lock();
    let mut buf = [0u8; 4096];
    loop {
        let n = stdin.read(&mut buf).map_err(|e| Failure::runtime(format!("read stdin: {e}")))?;
        if n == 0 {
            break;
        }
        if let Outcome::Error(e) = session.feed(&buf[..n]) {
            return Err(Failure::runtime(format!("parse failed mid-stream: {e}")));
        }
    }
    let buffered = session.buffered();
    let suspends = session.suspends();
    match session.finish() {
        Outcome::Done(tree) => Ok((tree.root().to_tree(), suspends, buffered)),
        Outcome::Error(e) => Err(Failure::runtime(format!("parse failed: {e}"))),
        Outcome::NeedInput { .. } => unreachable!("finish never needs input"),
    }
}

/// Depth- and width-limited tree dump: nonterminals with their user
/// attributes and spans, arrays summarized, leaves as byte spans.
fn print_tree(
    out: &mut impl std::io::Write,
    tree: &Tree,
    g: &Grammar,
    indent: usize,
    max_depth: usize,
) -> std::io::Result<()> {
    const MAX_CHILDREN: usize = 8;
    let pad = "  ".repeat(indent);
    if indent >= max_depth {
        return writeln!(out, "{pad}…");
    }
    match tree {
        Tree::Node(n) => {
            let attrs: Vec<String> = n
                .env
                .iter()
                .filter(|(sym, _)| g.attr_name(*sym) != "EOI")
                .map(|(sym, v)| format!("{}={v}", g.attr_name(sym)))
                .collect();
            writeln!(
                out,
                "{pad}{} [{}..{}] {{{}}}",
                n.name,
                n.base,
                n.base + n.input_len,
                attrs.join(", ")
            )?;
            for child in n.children.iter().take(MAX_CHILDREN) {
                print_tree(out, child, g, indent + 1, max_depth)?;
            }
            if n.children.len() > MAX_CHILDREN {
                writeln!(out, "{pad}  … {} more children", n.children.len() - MAX_CHILDREN)?;
            }
        }
        Tree::Array(a) => {
            writeln!(out, "{pad}{}[] ({} elements)", a.name, a.elems.len())?;
            for elem in a.elems.iter().take(MAX_CHILDREN) {
                print_tree(out, elem, g, indent + 1, max_depth)?;
            }
            if a.elems.len() > MAX_CHILDREN {
                writeln!(out, "{pad}  … {} more elements", a.elems.len() - MAX_CHILDREN)?;
            }
        }
        Tree::Leaf(l) => {
            writeln!(out, "{pad}\"…\" [{}..{}]", l.start, l.end)?;
        }
        Tree::Blackbox(b) => {
            writeln!(
                out,
                "{pad}{} (blackbox, {} bytes decoded) [{}..{}]",
                b.name,
                b.data.len(),
                b.base,
                b.base + b.input_len
            )?;
        }
    }
    Ok(())
}
