//! `ipg disasm` — print the compiled bytecode listing for a grammar (the
//! same [`ipg_core::bytecode::Program::disassemble`] output the snapshot
//! suite pins).

use crate::{resolve, CmdResult};

pub fn run(args: &[String]) -> CmdResult {
    let [grammar_arg] = args else {
        return Err(crate::Failure::usage("usage: ipg disasm <grammar>"));
    };
    let entry = resolve::entry(grammar_arg)?;
    print!("{}", entry.vm().program().disassemble(entry.grammar()));
    Ok(())
}
