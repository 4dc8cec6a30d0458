//! `ipg parse` — parse a file (or stdin, streamed through a VM session)
//! with any registry grammar and dump the tree; `--extract` switches to
//! the typed extractor view for corpus formats.

use crate::{extract, resolve, CmdResult, Failure};
use ipg_core::analysis::anchor_requirement;
use ipg_core::arena::TreeRef;
use ipg_core::check::Grammar;
use ipg_core::interp::vm::{Outcome, ParseTree, VmParser};
use std::io::{Read, Write as _};

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
        let input = resolve::read_input(&entry.name, input_arg.as_deref())?;
        return extract::dump(&entry.name, &input, dir.as_deref());
    }

    // The tree lane: one-shot for files, a chunked streaming session for
    // stdin (exactly the parse a server runs as bytes arrive off the wire).
    let (tree, suspends, bytes, source) = match input_arg.as_deref() {
        Some("-") => {
            let (tree, suspends, bytes) = parse_stdin(entry.vm())?;
            (tree, suspends, bytes, "stdin (streamed)")
        }
        arg => {
            let input = resolve::read_input(&entry.name, arg)?;
            let tree = one_shot(entry.vm(), &input)?;
            (tree, 0, input.len(), arg.unwrap_or("self-generated corpus input"))
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
        anchor_requirement(entry.grammar())
    )
    .and_then(|()| print_tree(&mut out, tree.root(), entry.grammar(), depth))
    .and_then(|()| out.flush());
    match dump {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(Failure::runtime(format!("cannot write output: {e}")))
        }
        _ => Ok(()),
    }
}

fn one_shot(vm: &VmParser, input: &[u8]) -> Result<ParseTree, Failure> {
    vm.parse(input).map_err(|e| Failure::runtime(format!("parse failed: {e}")))
}

/// Streams stdin through a [`ipg_core::interp::vm::Session`] in 4 KiB
/// chunks, reporting the suspension count the parse accumulated.
fn parse_stdin(vm: &VmParser) -> Result<(ParseTree, u64, usize), Failure> {
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
        Outcome::Done(tree) => Ok((tree, suspends, buffered)),
        Outcome::Error(e) => Err(Failure::runtime(format!("parse failed: {e}"))),
        Outcome::NeedInput { .. } => unreachable!("finish never needs input"),
    }
}

/// A line of the dump still to be written.
enum Pending<'a> {
    /// A subtree, at its indent.
    Tree(TreeRef<'a>, usize),
    /// The count of a node's children (or an array's elements) beyond
    /// the ones printed, at the node's indent.
    More(usize, usize, &'static str),
}

/// Depth- and width-limited tree dump, read straight from the parse's
/// arena: nonterminals with their user attributes and spans, arrays
/// summarized, leaves as byte spans. An explicit stack walks the tree, so
/// a right-recursive list as deep as its input prints in constant stack.
fn print_tree(
    out: &mut impl std::io::Write,
    root: TreeRef<'_>,
    g: &Grammar,
    max_depth: usize,
) -> std::io::Result<()> {
    const MAX_CHILDREN: usize = 8;
    let mut stack = vec![Pending::Tree(root, 0)];
    while let Some(pending) = stack.pop() {
        let (tree, indent) = match pending {
            Pending::Tree(tree, indent) => (tree, indent),
            Pending::More(indent, n, what) => {
                writeln!(out, "{}  … {n} more {what}", "  ".repeat(indent))?;
                continue;
            }
        };
        let pad = "  ".repeat(indent);
        if indent >= max_depth {
            writeln!(out, "{pad}…")?;
            continue;
        }
        let (kids, n_kids, what): (Vec<TreeRef<'_>>, usize, _) = if let Some(n) = tree.as_node() {
            let attrs: Vec<String> = n
                .bindings()
                .filter(|&(sym, _)| g.attr_name(sym) != "EOI")
                .map(|(sym, v)| format!("{}={v}", g.attr_name(sym)))
                .collect();
            let (start, end) = n.span();
            writeln!(out, "{pad}{} [{start}..{end}] {{{}}}", n.name(), attrs.join(", "))?;
            (n.children().take(MAX_CHILDREN).collect(), n.children().count(), "children")
        } else if let Some(a) = tree.as_array() {
            writeln!(out, "{pad}{}[] ({} elements)", a.name(), a.len())?;
            (a.elems().take(MAX_CHILDREN).collect(), a.len(), "elements")
        } else if let Some(b) = tree.as_blackbox() {
            let (start, end) = b.span();
            let decoded = b.data().len();
            writeln!(
                out,
                "{pad}{} (blackbox, {decoded} bytes decoded) [{start}..{end}]",
                b.name()
            )?;
            continue;
        } else {
            let l = tree.as_leaf().expect("a tree is a node, an array, a blackbox or a leaf");
            writeln!(out, "{pad}\"…\" [{}..{}]", l.start, l.end)?;
            continue;
        };
        // Last pushed, first printed: the children in order, then the
        // count of those cut.
        if n_kids > MAX_CHILDREN {
            stack.push(Pending::More(indent, n_kids - MAX_CHILDREN, what));
        }
        stack.extend(kids.into_iter().rev().map(|kid| Pending::Tree(kid, indent + 1)));
    }
    Ok(())
}
