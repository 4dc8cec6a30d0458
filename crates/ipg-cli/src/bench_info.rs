//! `ipg bench-info` — the corpus registry summary: per grammar, its
//! streaming classification and the sizes the bench suite's workloads
//! are built around.

use crate::{CmdResult, Failure};
use ipg_formats::Registry;

pub fn run(args: &[String]) -> CmdResult {
    if !args.is_empty() {
        return Err(Failure::usage("usage: ipg bench-info"));
    }
    let registry = Registry::corpus();
    println!("{:<12} {:>6} {:>9} anchor", "grammar", "rules", "listing");
    for e in registry.entries() {
        let listing = e.vm().program().disassemble(e.grammar());
        println!(
            "{:<12} {:>6} {:>8}L {}",
            e.name,
            e.grammar().rules().len(),
            listing.lines().count(),
            e.vm().anchor()
        );
    }
    Ok(())
}
