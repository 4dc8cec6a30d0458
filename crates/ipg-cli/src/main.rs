//! `ipg` — the unified command-line driver for the IPG toolchain.
//!
//! One binary fronts every workflow the repository's former examples
//! covered, routed through the shared [`ipg_formats::Registry`] so
//! built-in corpus grammars and user `.ipg` sources are interchangeable
//! everywhere a `<grammar>` is accepted:
//!
//! ```text
//! ipg check <spec.ipg>                          # frontend + §5 termination
//! ipg compile <grammar>                         # source hash, anchor, start
//! ipg disasm <grammar>                          # bytecode listing
//! ipg parse <grammar> [FILE | -] [--depth N] [--extract [DIR]]
//! ipg profile <grammar> [FILE | -] [--top N] [--folded]
//! ipg gen <grammar> [--seed N] [--count N] [--out DIR]
//! ipg serve --socket PATH [--max-queue N] [--watch DIR] [--metrics-addr HOST:PORT]
//!           [--trace-log PATH] [--grammar PATH]...
//! ipg bench-info                                # corpus summary
//! ```
//!
//! `<grammar>` is a corpus name (`ipg bench-info` lists them) or a path
//! to an `.ipg` source. Grammars are compiled from source in memory on
//! every run; nothing is written to disk unless a command is asked to
//! (`gen --out`, `parse --extract DIR`, ...).

mod bench_info;
mod check;
mod compile;
mod disasm;
mod extract;
mod gen;
mod parse;
mod profile;
mod resolve;
mod serve;

use std::process::ExitCode;

const USAGE: &str = "\
usage: ipg <command> [args]

commands:
  check <spec.ipg>
      Parse a grammar, run attribute checking, the termination checker,
      and the streamability analysis.
  compile <grammar>
      Compile a grammar and report its source hash, anchor and start
      rule.
  disasm <grammar>
      Print the compiled bytecode listing.
  parse <grammar> [FILE | -] [--depth N] [--extract [DIR]]
      Parse a file (- streams stdin through a session) and dump the tree;
      --extract prints the typed extractor view for corpus formats
      (for zip, an extraction directory may follow).
  profile <grammar> [FILE | -] [--top N] [--folded]
      Run one instrumented parse and report per-rule counts (calls,
      memo hit/miss, ok/fail, self instructions), nothing timed; --top N
      keeps the N rules with the most self instructions; --folded emits
      flamegraph-ready stacks keyed by the grammar's static call graph.
  gen <grammar> [--seed N] [--count N] [--out DIR]
      Generate grammar-valid inputs (VM-verified); --out writes them.
  serve --socket PATH [--max-queue N] [--watch DIR] [--metrics-addr HOST:PORT]
        [--trace-log PATH] [--grammar PATH]...
      Serve the framed parse protocol on a Unix socket; --watch hot
      reloads the .ipg sources in DIR, keeping the last good generation
      of any that stops compiling;
      --metrics-addr exposes a Prometheus scrape endpoint over HTTP;
      --trace-log streams per-request span events as JSON lines.
  bench-info
      Summarize the corpus registry.

<grammar> is a corpus name or a .ipg source path. Grammars are
compiled from source in memory; nothing is cached on disk.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    // `ipg <command> --help` asks for the usage; no command takes `--help`
    // or `-h` as an argument.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match cmd.as_str() {
        "check" => check::run(rest),
        "compile" => compile::run(rest),
        "disasm" => disasm::run(rest),
        "parse" => parse::run(rest),
        "profile" => profile::run(rest),
        "gen" => gen::run(rest),
        "serve" => serve::run(rest),
        "bench-info" => bench_info::run(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("ipg: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("ipg {cmd}: {msg}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(msg)) => {
            eprintln!("ipg {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A command failure: usage errors exit 2, everything else exits 1.
pub enum Failure {
    /// Bad invocation (wrong arguments); reported with exit code 2.
    Usage(String),
    /// The command ran and failed; reported with exit code 1.
    Runtime(String),
}

impl Failure {
    fn usage(msg: impl Into<String>) -> Failure {
        Failure::Usage(msg.into())
    }

    fn runtime(msg: impl std::fmt::Display) -> Failure {
        Failure::Runtime(msg.to_string())
    }
}

type CmdResult = Result<(), Failure>;
