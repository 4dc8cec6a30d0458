//! `ipg compile` — compile a grammar in memory and report its source
//! hash, streaming anchor and start rule. Nothing is written: the `.ipg`
//! source is the deploy unit.

use crate::{resolve, CmdResult, Failure};
use ipg_core::analysis::anchor_requirement;

pub fn run(args: &[String]) -> CmdResult {
    let [grammar_arg] = args else {
        return Err(Failure::usage("usage: ipg compile <grammar>"));
    };
    let entry = resolve::entry(grammar_arg)?;
    println!(
        "{}: compiled (source hash {:016x}, anchor {}, start `{}`)",
        entry.name,
        entry.handle().source_hash(),
        anchor_requirement(entry.grammar()),
        entry.grammar().start_nt_name()
    );
    Ok(())
}
