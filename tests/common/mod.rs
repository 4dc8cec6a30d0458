//! Helpers shared by the cross-engine and cross-implementation test
//! suites (`agreement.rs`, `vm_differential.rs`, `properties.rs`,
//! `conformance.rs`, `regressions.rs`) and the CLI expect-tests: the
//! nine-grammar format table, default corpus inputs, the seeded input
//! mutator, the one oracle assertion (interpreter, one-shot VM and a
//! session agree on trees, step counts and errors), and the one
//! `UPDATE_SNAPSHOTS=1` expect-file helper every snapshot suite blesses
//! through.

#![allow(dead_code)] // each integration-test binary uses a subset

use ipg_core::check::Grammar;
use ipg_core::interp::vm::VmParser;
use ipg_core::interp::Parser;
use ipg_core::tree::{Node, Tree};
use ipg_formats::Registry;
use std::path::Path;
use std::sync::OnceLock;

/// Step fuel for every engine run in the test suites: orders of magnitude
/// above any real parse of these grammars, so a pathological loop (e.g. a
/// termination-checker regression surfaced by a mutant) fails cleanly with
/// both engines reporting the identical "step limit of N exhausted" error
/// instead of hanging the test binary.
pub const AGREE_FUEL: u64 = 50_000_000;

/// One corpus-backed format grammar with its compiled VM.
pub struct Format {
    /// `ipg-formats` module name (also the `ipg_baselines::probe` key).
    pub name: &'static str,
    /// The checked grammar (tree-walking interpreter side).
    pub grammar: &'static Grammar,
    /// The compiled bytecode parser.
    pub vm: &'static VmParser,
}

/// Fuel-bounded VM per grammar, compiled once per test binary (grammars
/// come from the shared pinned corpus, compiled from source in memory).
fn fueled_vms() -> &'static [(String, &'static Grammar, VmParser)] {
    static VMS: OnceLock<Vec<(String, &'static Grammar, VmParser)>> = OnceLock::new();
    VMS.get_or_init(|| {
        ipg_formats::pinned_corpus()
            .iter()
            .map(|e| (e.name.clone(), e.grammar(), e.vm().clone().max_steps(AGREE_FUEL)))
            .collect()
    })
}

/// All nine format grammars under differential test (the registry lives in
/// [`ipg_formats::Registry::corpus`]; this view carries the fuel-bounded
/// VMs).
pub fn formats() -> Vec<Format> {
    fueled_vms().iter().map(|e| Format { name: e.0.as_str(), grammar: e.1, vm: &e.2 }).collect()
}

/// Looks up a format by name.
pub fn format(name: &str) -> Format {
    formats().into_iter().find(|f| f.name == name).unwrap_or_else(|| panic!("no format {name}"))
}

/// A default-config corpus input for the named format (the deterministic
/// "known-realistic" lane; `zip_inflate` shares the ZIP corpus).
pub fn default_corpus_input(name: &str) -> Vec<u8> {
    match name {
        "zip" | "zip_inflate" => ipg_corpus::zip::generate(&Default::default()).bytes,
        "dns" => ipg_corpus::dns::generate(&Default::default()).bytes,
        "png" => ipg_corpus::png::generate(&Default::default()).bytes,
        "gif" => ipg_corpus::gif::generate(&Default::default()).bytes,
        "elf" => ipg_corpus::elf::generate(&Default::default()).bytes,
        "ipv4udp" => ipg_corpus::ipv4udp::generate(&Default::default()).bytes,
        "pe" => ipg_corpus::pe::generate(&Default::default()).bytes,
        "pdf" => ipg_corpus::pdf::generate(&Default::default()).bytes,
        other => panic!("no corpus generator for {other}"),
    }
}

/// The nodes of `tree` parsed with the rule `name`, in input order.
pub fn nodes_named<'t>(tree: &'t Tree, name: &'t str) -> impl Iterator<Item = &'t Node> {
    tree.preorder().filter_map(Tree::as_node).filter(move |n| *n.name == *name)
}

/// A deterministic input mutation, driven by externally chosen parameters
/// (proptest strategies or seeded loops).
pub fn mutate(bytes: &mut Vec<u8>, kind: u8, pos: usize, value: u8) {
    if bytes.is_empty() {
        return;
    }
    match kind % 4 {
        0 => {}                                 // pristine
        1 => bytes.truncate(pos % bytes.len()), // truncation
        2 => {
            let p = pos % bytes.len();
            bytes[p] ^= value | 1; // guaranteed change
        }
        _ => {
            // Splice: overwrite a short run, simulating a corrupted field.
            let p = pos % bytes.len();
            let end = (p + 4).min(bytes.len());
            for b in &mut bytes[p..end] {
                *b = value;
            }
        }
    }
}

/// Runs the oracle, [`Registry::compare_engines`]: the interpreter
/// `parser`, the one-shot VM `vm` and a session of `vm` fed `input` cut at
/// `cuts` must agree on steps, trees and deepest errors, and the session
/// must keep its early-rejection contract. Returns whether the input was
/// accepted. `label` names the input in the panic message: a grammar
/// name, or, in the conformance lanes, the grammar, seed and mutant that
/// rebuild it, plus whatever settings the lane varies.
pub fn assert_oracle(
    label: &str,
    parser: &Parser<'_>,
    vm: &VmParser,
    input: &[u8],
    cuts: &[usize],
) -> bool {
    match Registry::compare_engines(parser, vm, input, cuts) {
        Ok(accepted) => accepted,
        Err(msg) => panic!("{label} ({} bytes): {msg}", input.len()),
    }
}

/// The oracle at the suites' defaults: step limit [`AGREE_FUEL`] on the
/// interpreter (`vm` carries its own), memoization on, and the session's
/// input cut at its midpoint.
pub fn assert_engines_agree(label: &str, g: &Grammar, vm: &VmParser, input: &[u8]) -> bool {
    let parser = Parser::new(g).max_steps(AGREE_FUEL);
    assert_oracle(label, &parser, vm, input, &[input.len() / 2])
}

/// The oracle on `f`'s engines at step limit `fuel`, memoizing or not.
pub fn assert_oracle_with(
    f: &Format,
    input: &[u8],
    fuel: u64,
    memoize: bool,
    cuts: &[usize],
) -> bool {
    let label = format!("{}, fuel {fuel}, memoize {memoize}", f.name);
    let parser = Parser::new(f.grammar).max_steps(fuel).memoize(memoize);
    assert_oracle(&label, &parser, &f.vm.clone().max_steps(fuel).memoize(memoize), input, cuts)
}

/// The one expect-file helper every snapshot suite shares: compares
/// `actual` against the golden file at `dir/name`, or rewrites it when
/// `UPDATE_SNAPSHOTS=1` is set. Used by the bytecode-listing snapshots
/// and the CLI stdout/stderr expect-tests — one blessing flow for all of
/// them:
///
/// ```text
/// UPDATE_SNAPSHOTS=1 cargo test --workspace
/// ```
pub fn check_snapshot(dir: &Path, name: &str, actual: &str) {
    let path = dir.join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {path:?} ({e}); run with UPDATE_SNAPSHOTS=1"));
    assert!(
        actual == expected,
        "snapshot {name} changed.\n\
         If intentional, regenerate with `UPDATE_SNAPSHOTS=1 cargo test`\n\
         and review the diff.\n\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}
