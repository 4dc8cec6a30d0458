//! `ipg check` — the grammar toolchain driver: frontend, attribute
//! checking, the §5 termination checker and the streamability analysis.

use crate::{CmdResult, Failure};
use ipg_core::frontend::{interval_stats, parse_grammar, parse_surface};
use ipg_core::termination::check_termination;

pub fn run(args: &[String]) -> CmdResult {
    let path = match args {
        [path] => path,
        [_, other, ..] => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        [] => return Err(Failure::usage("usage: ipg check <spec.ipg>")),
    };
    let src = std::fs::read_to_string(path)
        .map_err(|e| Failure::runtime(format!("cannot read {path}: {e}")))?;

    let surface = parse_surface(&src).map_err(Failure::runtime)?;
    let stats = interval_stats(&surface);
    println!(
        "{path}: {} rules, {} intervals ({} fully inferred, {} length-only, {} explicit)",
        surface.rules.len(),
        stats.total,
        stats.fully_inferred,
        stats.length_only,
        stats.explicit()
    );

    let grammar = parse_grammar(&src).map_err(Failure::runtime)?;
    println!("attribute checking: ok (start nonterminal `{}`)", grammar.start_nt_name());

    let report = check_termination(&grammar);
    println!(
        "termination: {} — {} elementary cycle(s) in {:.2?}",
        if report.ok { "proved" } else { "NOT proved" },
        report.cycle_count(),
        report.elapsed
    );
    for cycle in &report.cycles {
        println!(
            "  cycle {}: {}",
            cycle.nonterminals.join(" → "),
            if cycle.decreasing { "decreasing" } else { "not refuted" }
        );
    }

    let stream = ipg_core::analysis::stream_analysis(&grammar);
    println!(
        "streamability: {}",
        if stream.streamable { "single-pass parser possible" } else { "needs random access" }
    );
    for rule in stream.rules.iter().filter(|r| !r.streamable).take(5) {
        println!("  {} blocked: {}", rule.name, rule.blockers.join("; "));
    }

    Ok(())
}
