//! Cross-engine conformance fuzzing: grammar-driven generation + mutation.
//!
//! The paper validates IPG semantics against nine hand-curated inputs
//! (§7). This harness inverts each format grammar with `ipg-gen` and runs
//! the oracle matrix on the synthesized inputs:
//!
//! * **generation lane** — per grammar, ≥ 64 seeded generations must parse
//!   with identical trees, step counts and spans on the interpreter, the
//!   one-shot VM and a session fed the input in two halves (the oracle,
//!   [`common::assert_engines_agree`]);
//! * **mutation lane** — per grammar, ≥ 256 seeded mutants (bit flips,
//!   byte sets, truncations, extensions, length-field skew) must produce
//!   identical accept/reject outcomes and identical deepest errors across
//!   the engines;
//! * **baseline lane** — the handwritten/Kaitai/Nail baselines run on every
//!   generated input and mutant as probes: they must terminate without
//!   panicking (grammar-valid fuzz inputs are intentionally wilder than
//!   the corpus the baselines strictly agree on — see `agreement.rs`);
//! * **semantic lane** — generated `zip_inflate` archives, after the
//!   `ipg-gen` CRC fix-up, must survive full extraction (DEFLATE blackbox +
//!   CRC-32 check) and still keep the engines in agreement.
//!
//! Set `IPG_CONFORM_QUICK=1` for a reduced sweep: CI's conform-smoke job
//! runs it so in release, and its test job runs the full sweep in debug.
//!
//! Every lane is deterministic per seed, so a divergence names the input
//! that caused it — `zip seed 7 mutant 2 (LengthSkew)` is
//! `generate_valid(7)` then `mutate(&mut bytes, 7, 2)` — and needs no
//! saved corpus to reproduce.

mod common;

use ipg_gen::{mutate::mutate as gen_mutate, GenConfig, Generator};

/// `(generations, mutants per generation)` — full mode meets the
/// acceptance floor of 64 generations and 256 mutants per grammar.
fn params() -> (u64, u64) {
    if std::env::var_os("IPG_CONFORM_QUICK").is_some() {
        (12, 4)
    } else {
        (64, 4)
    }
}

fn conformance_for(name: &str) {
    let f = common::format(name);
    let (n_gens, n_mutants) = params();
    let generator = Generator::new(f.grammar).with_config(GenConfig::default());
    let mut gen_accepted = 0u64;
    let mut mutants_checked = 0u64;
    let mut baseline_accepts = 0u64;
    for seed in 0..n_gens {
        let bytes = generator
            .generate_valid(seed)
            .unwrap_or_else(|| panic!("{name}: generation failed for seed {seed}"));
        // Generation lane: both engines accept with identical trees/steps.
        let label = format!("{name} seed {seed}");
        assert!(
            common::assert_engines_agree(&label, f.grammar, f.vm, &bytes),
            "{label}: generated input was rejected"
        );
        gen_accepted += 1;
        // Baseline lane: probes terminate; record the accept matrix.
        baseline_accepts +=
            ipg_baselines::probe::run(name, &bytes).iter().filter(|o| o.accepted).count() as u64;
        // Mutation lane: engines react identically to every corruption.
        for m in 0..n_mutants {
            let mut mutant = bytes.clone();
            let kind = gen_mutate(&mut mutant, seed, m);
            let label = format!("{name} seed {seed} mutant {m} ({kind:?})");
            common::assert_engines_agree(&label, f.grammar, f.vm, &mutant);
            for o in ipg_baselines::probe::run(name, &mutant) {
                let _ = o.accepted; // termination without panic is the assertion
            }
            mutants_checked += 1;
        }
    }
    assert_eq!(gen_accepted, n_gens, "{name}: not all generations were accepted");
    assert_eq!(mutants_checked, n_gens * n_mutants, "{name}: mutation sweep incomplete");
    // `baseline_accepts` is informational (permissive grammar vs strict
    // baselines); it is asserted strictly on corpus inputs in agreement.rs.
    let _ = baseline_accepts;
}

macro_rules! conformance {
    ($test:ident, $name:expr) => {
        #[test]
        fn $test() {
            conformance_for($name);
        }
    };
}

conformance!(conform_zip, "zip");
conformance!(conform_zip_inflate, "zip_inflate");
conformance!(conform_dns, "dns");
conformance!(conform_png, "png");
conformance!(conform_gif, "gif");
conformance!(conform_elf, "elf");
conformance!(conform_ipv4udp, "ipv4udp");
conformance!(conform_pe, "pe");
conformance!(conform_pdf, "pdf");

/// Semantic lane: a generated archive is not just grammar-valid — after
/// the CRC fix-up it decompresses and passes the CRC-32 integrity check of
/// the full extraction pipeline (and the fix-up keeps engine agreement).
#[test]
fn conform_zip_inflate_extracts_after_crc_fixup() {
    let f = common::format("zip_inflate");
    let generator = Generator::new(f.grammar);
    let n = if std::env::var_os("IPG_CONFORM_QUICK").is_some() { 4u64 } else { 16 };
    for seed in 0..n {
        let mut bytes = generator
            .generate_valid(seed)
            .unwrap_or_else(|| panic!("zip_inflate: generation failed for seed {seed}"));
        ipg_gen::hooks::zip_fixup_crcs(&mut bytes);
        let label = format!("zip_inflate seed {seed} (CRC fix-up)");
        assert!(
            common::assert_engines_agree(&label, f.grammar, f.vm, &bytes),
            "{label}: archive rejected"
        );
        let files = ipg_formats::zip::extract(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: extraction failed: {e}"));
        assert!(!files.is_empty(), "seed {seed}: archive extracted no entries");
    }
}

/// The generator is deterministic: same grammar, same seed, same bytes.
#[test]
fn generation_is_deterministic() {
    for f in common::formats() {
        let generator = Generator::new(f.grammar);
        let a = generator.generate_valid(1234);
        let b = generator.generate_valid(1234);
        assert_eq!(a, b, "{}: generation is not deterministic", f.name);
        assert!(a.is_some(), "{}: seed 1234 failed", f.name);
    }
}

/// Distinct seeds explore distinct inputs (not a fixed template).
#[test]
fn seeds_diversify_generated_inputs() {
    for f in common::formats() {
        let generator = Generator::new(f.grammar);
        let inputs: Vec<Vec<u8>> =
            (0..8u64).filter_map(|seed| generator.generate_valid(seed)).collect();
        assert!(inputs.len() >= 8, "{}: seeds failed", f.name);
        let distinct: std::collections::HashSet<&Vec<u8>> = inputs.iter().collect();
        assert!(
            distinct.len() >= 4,
            "{}: only {} distinct inputs out of 8 seeds",
            f.name,
            distinct.len()
        );
    }
}
