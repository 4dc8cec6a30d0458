//! The `.ipgc` round-trip gate over the full corpus: for every one of the
//! nine grammars, compile → encode → decode → rebind must reproduce the
//! program *exactly* (byte-identical disassembly, identical anchor and
//! hints), the loaded VM must stay in lockstep with the reference
//! interpreter, and damaged artifacts must fail with a typed
//! [`ipg_core::error::Error::Artifact`] — never a panic.
//!
//! The per-field serialization tests live with the codec
//! (`ipg_core::ipgc`); this suite is the corpus-wide integration gate the
//! acceptance criteria name.

mod common;

use ipg_core::error::Error;
use ipg_core::interp::Parser;
use ipg_core::ipgc::{decode, encode, CachedProgram, FORMAT_VERSION, HEADER_LEN};
use ipg_formats::{corpus_descriptors, Registry};

/// Compile a corpus descriptor in memory.
fn compiled(name: &str) -> (CachedProgram, &'static str) {
    let d = corpus_descriptors().into_iter().find(|d| d.name == name).expect("corpus name");
    (CachedProgram::compile(d.spec, (d.blackboxes)()).expect("corpus spec compiles"), d.spec)
}

#[test]
fn every_corpus_grammar_disassembles_identically_from_its_artifact() {
    for d in corpus_descriptors() {
        let (cached, spec) = compiled(d.name);
        let direct = cached.program.disassemble(&cached.grammar);

        let bytes = encode(spec, &cached.grammar, &cached.program, cached.anchor, cached.hints);
        let artifact = decode(&bytes).unwrap_or_else(|e| panic!("{}: decode failed: {e}", d.name));
        assert_eq!(artifact.anchor, cached.anchor, "{}: anchor drifted", d.name);
        assert_eq!(artifact.hints, cached.hints, "{}: size hints drifted", d.name);

        let grammar = artifact
            .reconstruct_grammar((d.blackboxes)())
            .unwrap_or_else(|e| panic!("{}: reconstruct failed: {e}", d.name));
        artifact
            .validate_against(&grammar)
            .unwrap_or_else(|e| panic!("{}: validation failed: {e}", d.name));
        let loaded = artifact.program.disassemble(&grammar);
        assert_eq!(loaded, direct, "{}: loaded disassembly is not byte-identical", d.name);
    }
}

#[test]
fn loaded_programs_agree_with_the_interpreter_on_corpus_inputs() {
    for d in corpus_descriptors() {
        let (cached, spec) = compiled(d.name);
        let bytes = encode(spec, &cached.grammar, &cached.program, cached.anchor, cached.hints);
        let artifact = decode(&bytes).expect("fresh artifact decodes");
        let grammar = artifact.reconstruct_grammar((d.blackboxes)()).expect("rebinds");
        let vm = artifact.into_parser(&grammar).expect("artifact becomes a parser");

        let parser = Parser::new(&grammar).max_steps(common::AGREE_FUEL);
        let input = common::default_corpus_input(d.name);
        match Registry::compare_engines(&parser, &vm, &input) {
            Ok(accepted) => assert!(accepted, "{}: corpus input must parse", d.name),
            Err(msg) => panic!("{}: loaded VM diverges from the interpreter: {msg}", d.name),
        }
    }
}

#[test]
fn corrupt_artifacts_fail_with_typed_errors_for_every_grammar() {
    for d in corpus_descriptors() {
        let (cached, spec) = compiled(d.name);
        let bytes = encode(spec, &cached.grammar, &cached.program, cached.anchor, cached.hints);

        // Bit flips across the artifact (sampled; the per-byte sweep runs
        // in the codec's unit tests). Bytes 8..16 hold the source hash,
        // which decode alone cannot check — it is verified against the
        // reconstructed grammar instead.
        for pos in (0..bytes.len()).step_by(97) {
            if (8..16).contains(&pos) {
                continue;
            }
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            match decode(&bad) {
                Err(Error::Artifact(_)) => {}
                Err(other) => {
                    panic!("{}: flip at {pos} gave a non-artifact error: {other}", d.name)
                }
                Ok(artifact) => {
                    // A flip inside the embedded spec keeps the payload
                    // checksum-consistent only if decode recomputed it —
                    // it cannot; reaching here means the flip must be
                    // caught by the grammar cross-check instead.
                    let grammar = match artifact.reconstruct_grammar((d.blackboxes)()) {
                        Ok(g) => g,
                        Err(_) => continue,
                    };
                    artifact.validate_against(&grammar).expect_err(&format!(
                        "{}: flip at {pos} survived decode AND validation",
                        d.name
                    ));
                }
            }
        }

        // Every truncation boundary around the header plus sampled payload
        // cuts must be typed errors.
        for len in (0..HEADER_LEN.min(bytes.len())).chain((HEADER_LEN..bytes.len()).step_by(211)) {
            match decode(&bytes[..len]) {
                Err(Error::Artifact(_)) => {}
                Err(other) => {
                    panic!("{}: truncation to {len} gave a non-artifact error: {other}", d.name)
                }
                Ok(_) => panic!("{}: truncation to {len} decoded", d.name),
            }
        }

        // Version skew: a future format version must be refused up front.
        let mut skewed = bytes.clone();
        skewed[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match decode(&skewed) {
            Err(Error::Artifact(msg)) => {
                assert!(
                    msg.contains("version"),
                    "{}: skew error should name the version: {msg}",
                    d.name
                );
            }
            other => panic!("{}: version skew not refused: {other:?}", d.name),
        }
    }
}
