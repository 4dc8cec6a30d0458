//! Chunk-size invariance of streaming VM sessions.
//!
//! The contract: for every corpus grammar and every chunking of the input
//! — one chunk, 1-byte, 7-byte, and seeded random splits — a `Session`
//! fed the chunks and then finished yields *exactly* the interpreter's and
//! the one-shot VM's result: the same tree (node for node, attribute for
//! attribute, via `to_tree`), the same step count, and the same deepest
//! error on rejection; an early rejection is the error `finish` replays,
//! and a closed session takes no more steps. Each chunking is a list of
//! cut offsets handed to the one oracle,
//! `ipg_formats::Registry::compare_engines` ([`common::assert_oracle`]),
//! which runs all three engines and checks all of this.
//!
//! Inputs come from the grammar-driven generator (`ipg-gen`) plus the
//! deterministic corpus lane and truncated/corrupted mutants, so both the
//! accept and reject paths are exercised.
//!
//! Set `IPG_CONFORM_QUICK=1` to reduce the sweep for CI smoke jobs.

mod common;

use common::{default_corpus_input, formats, mutate, Format, AGREE_FUEL};
use ipg_core::interp::Parser;

fn quick() -> bool {
    std::env::var_os("IPG_CONFORM_QUICK").is_some()
}

/// SplitMix64, the repo's standard seeded generator for test sweeps.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Where a session's feeds are cut, for an input of length `len`: nowhere
/// (one chunk), after every byte, after every 7th, and three seeded random
/// splits into chunks of 1 to 41 bytes.
fn cut_patterns(len: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut out = vec![vec![], (1..len).collect(), (7..len).step_by(7).collect()];
    for round in 0..3u64 {
        let mut cuts = Vec::new();
        let mut at = 0;
        let mut x = mix(seed ^ mix(round + 1));
        loop {
            x = mix(x);
            at += (x % 41 + 1) as usize;
            if at >= len {
                break;
            }
            cuts.push(at);
        }
        out.push(cuts);
    }
    out
}

/// The invariance assertion for one (grammar, input) pair: the oracle
/// under every cut pattern.
fn assert_chunk_invariant(f: &Format, input: &[u8], seed: u64) {
    let parser = Parser::new(f.grammar).max_steps(AGREE_FUEL);
    for (i, cuts) in cut_patterns(input.len(), seed).iter().enumerate() {
        let label = format!("{}, chunking #{i} of seed {seed}", f.name);
        common::assert_oracle(&label, &parser, f.vm, input, cuts);
    }
}

#[test]
fn corpus_inputs_parse_identically_under_any_chunking() {
    for f in formats() {
        let input = default_corpus_input(f.name);
        assert_chunk_invariant(&f, &input, 1);
    }
}

#[test]
fn generated_inputs_parse_identically_under_any_chunking() {
    let n_seeds = if quick() { 2 } else { 6 };
    for f in formats() {
        let generator = ipg_gen::Generator::new(f.grammar);
        for seed in 0..n_seeds {
            let Some(input) = generator.generate_valid(seed) else {
                panic!("{}: generation failed for seed {seed}", f.name)
            };
            assert_chunk_invariant(&f, &input, seed);
        }
    }
}

#[test]
fn mutated_inputs_reject_identically_under_any_chunking() {
    let n_mutants = if quick() { 4 } else { 12 };
    for f in formats() {
        let base = default_corpus_input(f.name);
        for m in 0..n_mutants {
            let mut input = base.clone();
            let x = mix(0xfeed ^ mix(m));
            mutate(&mut input, (x >> 8) as u8, (x >> 16) as usize, x as u8);
            assert_chunk_invariant(&f, &input, m);
        }
    }
}

#[test]
fn empty_and_tiny_inputs_are_chunk_invariant() {
    for f in formats() {
        for input in [&b""[..], &b"\x00"[..], &b"PK"[..]] {
            assert_chunk_invariant(&f, input, 99);
        }
    }
}

/// The per-grammar anchor classification that `ipg compile`, `ipg parse`
/// and `ipg bench-info` print. No session reads it: a session suspends
/// wherever its parse reads past the buffered bytes, and the
/// classification says how much of the input that holds back. This
/// doubles as documentation: it is the table in the README. A
/// classification change (e.g. a spec edit making a format EOI-free) is a
/// deliberate, reviewable event.
#[test]
fn corpus_anchor_requirements_are_pinned() {
    use ipg_core::analysis::{anchor_requirement, AnchorRequirement};
    // The suffix constants are the formats' trailer sizes: ZIP's
    // end-of-central-directory record is 22 bytes, PDF's `%%EOF` plus the
    // startxref digits span the last 10, and DNS/GIF only use plain
    // rest-of-input intervals (k = 0, i.e. they just need the length).
    let expected: &[(&str, AnchorRequirement)] = &[
        ("zip", AnchorRequirement::Suffix { k: 22 }),
        ("zip_inflate", AnchorRequirement::Suffix { k: 22 }),
        ("dns", AnchorRequirement::Suffix { k: 0 }),
        ("png", AnchorRequirement::FullLength),
        ("gif", AnchorRequirement::Suffix { k: 0 }),
        ("elf", AnchorRequirement::FullLength),
        ("ipv4udp", AnchorRequirement::FullLength),
        ("pe", AnchorRequirement::Prefix),
        ("pdf", AnchorRequirement::Suffix { k: 10 }),
    ];
    for f in formats() {
        let anchor = anchor_requirement(f.grammar);
        let (_, want) = expected.iter().find(|(n, _)| *n == f.name).expect("all nine pinned");
        assert_eq!(anchor, *want, "{}: anchor classification changed (spec edit?)", f.name);
    }
}
