//! `ipg profile` — run one instrumented parse and report where the VM
//! spent its time: a per-rule table (calls, memo hit/miss, completions,
//! failures, self time) or `--folded` flamegraph-ready stacks keyed by
//! the grammar's static call graph.
//!
//! Only this command pays the profiler cost — the sink is a generic
//! parameter on the VM session, so `ipg parse` and the serve path
//! monomorphize with the no-op sink and stay uninstrumented.

use crate::{resolve, CmdResult, Failure};
use std::io::Write as _;

const USAGE: &str = "usage: ipg profile <grammar> [FILE | -] [--top N] [--folded]";

pub fn run(args: &[String]) -> CmdResult {
    let mut grammar_arg = None;
    let mut input_arg = None;
    let mut top = 0usize;
    let mut folded = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--folded" => folded = true,
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| Failure::usage("--top needs a number"))?;
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
    let input = resolve::read_input(&entry.name, input_arg.as_deref())?;

    let (result, stats, report) = entry.vm().parse_profiled(&input);
    // A failed parse still profiles — where time went before the error
    // is exactly what the user came for — but the failure is reported
    // (on stderr, so folded output stays pipeable) and exits nonzero.
    let failure = result.err().map(|e| Failure::runtime(format!("parse failed: {e}")));

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let dump = if folded {
        out.write_all(report.folded().as_bytes())
    } else {
        writeln!(
            out,
            "{}: {} bytes, {} steps, {} suspensions profiled",
            entry.name,
            input.len(),
            stats.steps,
            report.suspends(),
        )
        .and_then(|()| {
            let table = report.table();
            let rendered: String = if top > 0 {
                // Keep the header row plus the N hottest rules (the
                // table is already sorted by self time) and the two
                // footer lines.
                let lines: Vec<&str> = table.lines().collect();
                let body = lines.len().saturating_sub(3); // header + footer
                let keep = top.min(body);
                let mut picked: Vec<&str> = Vec::with_capacity(keep + 3);
                picked.push(lines[0]);
                picked.extend(&lines[1..1 + keep]);
                picked.extend(&lines[1 + body..]);
                picked.join("\n") + "\n"
            } else {
                table
            };
            out.write_all(rendered.as_bytes())
        })
    }
    .and_then(|()| out.flush());
    if let Err(e) = dump {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(Failure::runtime(format!("cannot write output: {e}")));
        }
    }
    match failure {
        Some(f) => Err(f),
        None => Ok(()),
    }
}
