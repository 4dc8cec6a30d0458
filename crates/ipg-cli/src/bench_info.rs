//! `ipg bench-info` — the corpus registry summary: per grammar, how its
//! program was obtained this process, its streaming classification, and
//! the sizes the bench suite's workloads are built around.

use crate::{CmdResult, Failure};
use ipg_formats::{Origin, Registry};

pub fn run(args: &[String]) -> CmdResult {
    if !args.is_empty() {
        return Err(Failure::usage("usage: ipg bench-info"));
    }
    let registry = Registry::corpus();
    println!("{:<12} {:>6} {:>9} {:<13} anchor", "grammar", "rules", "listing", "origin");
    for e in registry.entries() {
        let listing = e.vm().program().disassemble(e.grammar());
        let origin = match e.origin {
            Origin::Memory => "memory",
            Origin::ArtifactFile => "artifact file",
        };
        println!(
            "{:<12} {:>6} {:>8}L {:<13} {}",
            e.name,
            e.grammar().rules().len(),
            listing.lines().count(),
            origin,
            e.vm().anchor()
        );
    }
    Ok(())
}
