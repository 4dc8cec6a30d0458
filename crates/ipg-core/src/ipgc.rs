//! In-memory grammar compilation.
//!
//! The checked grammar and its flat [`Program`] pools are a pure function
//! of the grammar source and the blackbox declarations it was checked
//! against.
//! [`CachedProgram::compile`] computes them from source in memory; every
//! registry load goes through it, and nothing is persisted. The `.ipg`
//! source is the only deploy unit.
//!
//! [`source_hash`] names that function's input: two loads with the same
//! hash produce the same program.

use crate::blackbox::Blackbox;
use crate::bytecode::{compile, Program};
use crate::check::Grammar;
use crate::error::Result;

// ---------------------------------------------------------------------------
// Hashing (FNV-1a, 64-bit): no dependency, stable across platforms.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher: the source hash, the serve watcher's change
/// confirmation, and the benchmark's input seeding.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// A digest of everything the compiled program is a function of: the
/// grammar source and the blackbox declarations (name and attribute
/// list; the *implementations* are runtime-bound and do not affect
/// compilation).
pub fn source_hash(spec: &str, blackboxes: &[Blackbox]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&(spec.len() as u64).to_le_bytes());
    h.update(spec.as_bytes());
    h.update(&(blackboxes.len() as u64).to_le_bytes());
    for bb in blackboxes {
        h.update(&(bb.name.len() as u64).to_le_bytes());
        h.update(bb.name.as_bytes());
        h.update(&(bb.attrs.len() as u64).to_le_bytes());
        for a in &bb.attrs {
            h.update(&(a.len() as u64).to_le_bytes());
            h.update(a.as_bytes());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// In-memory compilation
// ---------------------------------------------------------------------------

/// A compiled grammar: the checked grammar plus the program, ready for
/// [`VmParser::from_compiled`](crate::interp::vm::VmParser::from_compiled).
#[derive(Debug)]
pub struct CachedProgram {
    /// The checked grammar.
    pub grammar: Grammar,
    /// The bytecode program.
    pub program: Program,
    /// The [`source_hash`] of the spec and blackboxes compiled.
    pub source_hash: u64,
}

impl CachedProgram {
    /// Compiles `spec` in memory.
    pub fn compile(spec: &str, blackboxes: Vec<Blackbox>) -> Result<CachedProgram> {
        let grammar = crate::frontend::parse_grammar_with(spec, blackboxes)?;
        let program = compile(&grammar);
        let source_hash = source_hash(spec, grammar.blackboxes());
        Ok(CachedProgram { grammar, program, source_hash })
    }
}

/// Hit and miss counts of the former on-disk artifact cache. Grammars
/// are compiled from source in memory, so both always read 0; they
/// remain only for the benchmark's registry layer, which still reports
/// `registry.cache_hits`/`registry.cache_misses`, until the benchmark
/// drops those columns.
pub mod cache_totals {
    /// Always 0 (there is no artifact cache).
    pub fn hits() -> u64 {
        0
    }

    /// Always 0 (there is no artifact cache).
    pub fn misses() -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"
        S -> H[0, 8] Data[H.offset, H.offset + H.length];
        H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
        Int := u32le;
        Data := bytes;
    "#;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn spec_or_blackbox_change_changes_the_source_hash() {
        let a = source_hash(FIG2, &[]);
        let b = source_hash(r#"S -> "x"[0, 1];"#, &[]);
        assert_ne!(a, b);
        let bb = Blackbox::new("inflate", |_| Ok(Default::default()));
        assert_ne!(source_hash(FIG2, &[]), source_hash(FIG2, std::slice::from_ref(&bb)));
    }

    #[test]
    fn compile_records_the_source_hash_of_its_input() {
        let c = CachedProgram::compile(FIG2, Vec::new()).unwrap();
        assert_eq!(c.source_hash, source_hash(FIG2, &[]));
        assert_eq!(c.program.rules.len(), c.grammar.nt_count());
    }
}
