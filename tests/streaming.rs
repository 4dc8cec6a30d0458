//! Chunk-size invariance of streaming VM sessions.
//!
//! The contract: for every corpus grammar and every chunking of the input
//! — 1-byte, 7-byte, and seeded random splits — a [`Session`] fed the
//! chunks and then finished yields *exactly* the one-shot result: the
//! same tree (node for node, attribute for attribute, via `to_tree`), the
//! same step count, and the same deepest error on rejection, on both the
//! VM and (through the one-shot cross-engine contract) the reference
//! interpreter.
//!
//! Inputs come from the grammar-driven generator (`ipg-gen`) plus the
//! deterministic corpus lane and truncated/corrupted mutants, so both the
//! accept and reject paths are exercised.
//!
//! Set `IPG_STREAM_QUICK=1` to reduce the sweep for CI smoke jobs.

mod common;

use common::{default_corpus_input, formats, mutate, Format};
use ipg_core::interp::vm::{Outcome, VmParser};
use ipg_core::tree::Tree;
use ipg_core::Error;
use std::rc::Rc;

fn quick() -> bool {
    std::env::var("IPG_STREAM_QUICK").is_ok_and(|v| v != "0")
}

/// SplitMix64, the repo's standard seeded generator for test sweeps.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Feeds `input` to a fresh session in the given chunk pattern and
/// finishes. Returns the final outcome plus the session's step count.
fn run_chunked(vm: &VmParser, input: &[u8], chunks: &[usize]) -> (Result<Rc<Tree>, Error>, u64) {
    let mut session = vm.streaming();
    let mut off = 0;
    let mut early: Option<Error> = None;
    for &sz in chunks {
        let end = (off + sz).min(input.len());
        if off >= end {
            break;
        }
        if let Outcome::Error(e) = session.feed(&input[off..end]) {
            // A determined rejection mid-stream: it must equal the
            // one-shot error, and finish must replay it cleanly.
            early = Some(e);
            break;
        }
        off = end;
    }
    let steps_at_rejection = early.is_some().then(|| session.stats().steps);
    match session.finish() {
        Outcome::Done(tree) => (Ok(tree.root().to_tree()), session.stats().steps),
        Outcome::Error(e) => {
            if let Some(early) = early {
                assert_eq!(early, e, "finish after an early rejection must replay the error");
                // A closed session does no further work.
                assert_eq!(Some(session.stats().steps), steps_at_rejection);
            }
            (Err(e), session.stats().steps)
        }
        Outcome::NeedInput { .. } => panic!("finish never returns NeedInput"),
    }
}

/// Chunk patterns for an input of length `len`: one-shot-as-one-chunk,
/// 1-byte, 7-byte, and three seeded random splits.
fn chunkings(len: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut out = vec![vec![len.max(1)], vec![1; len.max(1)], vec![7; len / 7 + 1]];
    for round in 0..3u64 {
        let mut sizes = Vec::new();
        let mut covered = 0;
        let mut x = mix(seed ^ mix(round + 1));
        while covered < len {
            x = mix(x);
            let sz = (x % 41 + 1) as usize;
            sizes.push(sz);
            covered += sz;
        }
        if sizes.is_empty() {
            sizes.push(1);
        }
        out.push(sizes);
    }
    out
}

/// The invariance assertion for one (grammar, input) pair.
fn assert_chunk_invariant(f: &Format, input: &[u8], seed: u64) {
    let (one_shot, stats) = f.vm.parse_with_stats(input);
    let one_shot = one_shot.map(|t| t.root().to_tree());
    for (i, chunks) in chunkings(input.len(), seed).into_iter().enumerate() {
        let (streamed, steps) = run_chunked(f.vm, input, &chunks);
        assert_eq!(
            steps,
            stats.steps,
            "{}: chunking #{i} diverges from one-shot step count ({} bytes)",
            f.name,
            input.len()
        );
        match (&one_shot, &streamed) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{}: chunking #{i} built a different tree", f.name),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{}: chunking #{i} reported a different error", f.name)
            }
            (a, b) => panic!(
                "{}: chunking #{i} disagrees on acceptance: one-shot {:?} vs streamed {:?}",
                f.name,
                a.is_ok(),
                b.is_ok()
            ),
        }
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

/// The per-grammar anchor classification the streaming layer relies on.
/// This doubles as documentation: it is the table in the README. A
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
        assert_eq!(f.vm.anchor(), anchor, "{}: VmParser caches the analysis", f.name);
        let (_, want) = expected.iter().find(|(n, _)| *n == f.name).expect("all nine pinned");
        assert_eq!(anchor, *want, "{}: anchor classification changed (spec edit?)", f.name);
    }
}
