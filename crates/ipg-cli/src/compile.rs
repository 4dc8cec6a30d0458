//! `ipg compile` — compile a grammar in memory and report the result,
//! optionally writing it as a standalone `.ipgc` artifact (signed with
//! `--sign`).

use crate::{resolve, CmdResult, Failure};
use ipg_core::ipgc::{artifact_key_from_env, encode, encode_signed, CachedProgram};

pub fn run(args: &[String]) -> CmdResult {
    let mut grammar_arg = None;
    let mut out = None;
    let mut sign = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => {
                out = Some(
                    it.next().cloned().ok_or_else(|| Failure::usage("-o needs an output path"))?,
                );
            }
            "--sign" => sign = true,
            other if grammar_arg.is_none() => grammar_arg = Some(other.to_owned()),
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let Some(grammar_arg) = grammar_arg else {
        return Err(Failure::usage("usage: ipg compile <grammar> [-o OUT.ipgc [--sign]]"));
    };
    if sign && out.is_none() {
        return Err(Failure::usage("--sign signs the artifact written by -o OUT.ipgc; pass -o"));
    }
    let key = if sign { artifact_key_from_env() } else { None };
    if sign && key.is_none() {
        return Err(Failure::usage("--sign needs IPG_ARTIFACT_KEY in the environment"));
    }
    let (name, spec, blackboxes) = resolve::source(&grammar_arg)?;
    let cached = CachedProgram::compile(&spec, blackboxes).map_err(Failure::runtime)?;

    println!(
        "{name}: compiled (source hash {:016x}, anchor {}, start `{}`)",
        cached.source_hash,
        cached.anchor,
        cached.grammar.start_nt_name()
    );

    if let Some(out) = out {
        let bytes = match &key {
            Some(key) => encode_signed(
                &spec,
                &cached.grammar,
                &cached.program,
                cached.anchor,
                cached.hints,
                key,
            ),
            None => encode(&spec, &cached.grammar, &cached.program, cached.anchor, cached.hints),
        };
        std::fs::write(&out, &bytes)
            .map_err(|e| Failure::runtime(format!("cannot write {out}: {e}")))?;
        println!("wrote {out} ({} bytes{})", bytes.len(), if sign { ", signed" } else { "" });
    }
    Ok(())
}
