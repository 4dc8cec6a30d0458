//! `ipg` — the unified command-line driver for the IPG toolchain.
//!
//! One binary fronts every workflow the repository's former examples
//! covered, routed through the shared [`ipg_formats::Registry`] so
//! built-in corpus grammars, user `.ipg` sources, and persisted `.ipgc`
//! artifacts are interchangeable everywhere a `<grammar>` is accepted:
//!
//! ```text
//! ipg check <spec.ipg> [--emit-rust OUT.rs]     # frontend + §5 termination
//! ipg compile <grammar> [-o OUT.ipgc [--sign]]
//! ipg verify <artifact.ipgc>                    # staged artifact audit
//! ipg disasm <grammar>                          # bytecode listing
//! ipg parse <grammar> [FILE | -] [--depth N] [--extract [DIR]]
//! ipg profile <grammar> [FILE | -] [--top N] [--folded]
//! ipg gen <grammar> [--seed N] [--count N] [--out DIR]
//! ipg serve --socket PATH [--workers N] [--watch DIR] [--metrics-addr HOST:PORT]
//!           [--trace-log PATH] [--grammar PATH]...
//! ipg bench-info                                # corpus summary
//! ```
//!
//! `<grammar>` is a corpus name (`ipg bench-info` lists them), a path to
//! an `.ipg` source, or a path to an `.ipgc` artifact. Grammars are
//! compiled from source in memory on every run; nothing is written to
//! disk unless a command is asked to (`compile -o`, `gen --out`, ...).
//! `IPG_ARTIFACT_KEY` arms artifact signing and provenance enforcement
//! (see [`ipg_core::ipgc`]).

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
mod verify;

use std::process::ExitCode;

const USAGE: &str = "\
usage: ipg <command> [args]

commands:
  check <spec.ipg> [--emit-rust OUT.rs]
      Parse a grammar, run attribute checking, the termination checker,
      and the streamability analysis; optionally emit a Rust parser.
  compile <grammar> [-o OUT.ipgc [--sign]]
      Compile a grammar and report its source hash, anchor and start
      rule; -o writes a standalone .ipgc artifact (--sign adds the keyed
      provenance MAC, needs IPG_ARTIFACT_KEY).
  verify <artifact.ipgc>
      Audit an artifact end to end. Exit codes are stable: 0 valid,
      3 structural, 4 version skew, 5 provenance, 6 grammar mismatch.
  disasm <grammar>
      Print the compiled bytecode listing.
  parse <grammar> [FILE | -] [--depth N] [--extract [DIR]]
      Parse a file (- streams stdin through a session) and dump the tree;
      --extract prints the typed extractor view for corpus formats
      (for zip, an extraction directory may follow).
  profile <grammar> [FILE | -] [--top N] [--folded]
      Run one instrumented parse and report per-rule time attribution
      (calls, memo hit/miss, self time); --folded emits flamegraph-ready
      stacks keyed by the grammar's static call graph.
  gen <grammar> [--seed N] [--count N] [--out DIR]
      Generate grammar-valid inputs (VM-verified); --out writes them.
  serve --socket PATH [--workers N] [--watch DIR] [--metrics-addr HOST:PORT]
        [--trace-log PATH] [--grammar PATH]...
      Serve the framed parse protocol on a Unix socket; --watch hot
      reloads grammars from DIR, quarantining invalid artifacts;
      --metrics-addr exposes a Prometheus scrape endpoint over HTTP;
      --trace-log streams per-request span events as JSON lines.
  bench-info
      Summarize the corpus registry.

<grammar> is a corpus name, a .ipg source path, or a .ipgc artifact path.
Grammars are compiled from source in memory; nothing is cached on disk.
Environment: IPG_ARTIFACT_KEY signs written artifacts and enforces
provenance.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "check" => check::run(rest),
        "compile" => compile::run(rest),
        "verify" => verify::run(rest),
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
        Err(Failure::Coded(code, msg)) => {
            eprintln!("ipg {cmd}: {msg}");
            ExitCode::from(code)
        }
    }
}

/// A command failure: usage errors exit 2, everything else exits 1 —
/// except commands with documented per-failure exit codes (`ipg verify`),
/// which carry theirs explicitly.
pub enum Failure {
    /// Bad invocation (wrong arguments); reported with exit code 2.
    Usage(String),
    /// The command ran and failed; reported with exit code 1.
    Runtime(String),
    /// The command ran and failed with a command-specific, stable exit
    /// code (scripts branch on these; see the command's usage text).
    Coded(u8, String),
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
