//! # ipg-gen — grammar-driven input generation
//!
//! Runs a checked Interval Parsing Grammar *backwards*: instead of parsing
//! bytes into a tree, it synthesizes random-but-valid byte inputs that the
//! grammar's parsers accept. Every format specification thereby becomes its
//! own test-input generator, and the repository's two engines (tree-walking
//! interpreter and bytecode VM) plus the handwritten/Kaitai/Nail baselines
//! can be cross-validated on inputs far beyond the hand-curated corpus —
//! the conformance-fuzzing move of the Nail/Kaitai lineage, applied to the
//! paper's §7 validation.
//!
//! ## How it works
//!
//! The walker (the `walk` module) mirrors the interpreter's big-step semantics, but
//! each *read* becomes a *choice or constraint*:
//!
//! 1. builtins allocate unknowns and write back-patchable field segments;
//! 2. interval expressions stay **symbolic** (linear forms over the
//!    unknowns, built on [`ipg_core::solver::LinExpr`]), so content may be
//!    placed before the offsets and sizes that position it are decided —
//!    exactly the inverse of backward/random-access parsing;
//! 3. predicates, switch guards, and counted-loop bounds become equations
//!    and inequalities in a journaled constraint store ([`lin`]);
//! 4. blackboxes invert through [`hooks::GenHooks`] (DEFLATE bodies are
//!    produced by compressing a random payload with `ipg-flate`);
//! 5. resolution pins the remaining unknowns — tightened sizes go tight,
//!    pointer-like unknowns are packed after the current layout, digits of
//!    backward-parsed numbers are decomposed greedily — and the sheet
//!    ([`sheet`]) is materialized into bytes.
//!
//! Generation is seeded and deterministic: same grammar, same
//! [`GenConfig`], same seed ⇒ same bytes.
//!
//! ```
//! use ipg_core::frontend::parse_grammar;
//! use ipg_gen::Generator;
//!
//! // Fig. 2 of the paper: a header stores the offset/length of the data.
//! let g = parse_grammar(
//!     r#"
//!     S -> H[0, 8] Data[H.offset, H.offset + H.length];
//!     H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
//!     Int := u32le;
//!     Data := bytes;
//!     "#,
//! )?;
//! let input = Generator::new(&g).generate_valid(7).expect("generable");
//! assert!(ipg_core::interp::Parser::new(&g).parse(&input).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod hooks;
pub mod lin;
pub mod mutate;
pub mod sheet;
mod walk;

pub use hooks::{BlackboxPiece, GenHooks};

/// Murmur3-style avalanche. The RNG stand-in is SplitMix64, whose streams
/// for seeds `k·γ` (γ = its gamma constant) are shifted copies of each
/// other — so seeds must be *hashed*, never multiplied, into RNG states.
pub(crate) fn mix(mut z: u64) -> u64 {
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

use ipg_core::check::Grammar;
use ipg_core::interp::Parser;

/// Generation limits and sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Soft cap on the generated input length (hard cap for the root
    /// slice).
    pub max_len: usize,
    /// Cap on chosen repetition counts (array lengths, chain depths, star
    /// repetitions).
    pub max_items: usize,
    /// Recursion depth limit of the walk.
    pub max_depth: usize,
    /// Attempts per seed before giving up (each attempt re-randomizes).
    pub attempts: usize,
    /// Step fuel for the verification parse in
    /// [`Generator::generate_valid`].
    pub verify_fuel: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_len: 4096,
            max_items: 4,
            max_depth: 80,
            attempts: 48,
            verify_fuel: 5_000_000,
        }
    }
}

/// A configured generator for one checked grammar.
#[derive(Debug)]
pub struct Generator<'g> {
    g: &'g Grammar,
    hooks: GenHooks,
    cfg: GenConfig,
}

impl<'g> Generator<'g> {
    /// A generator with the standard hooks and default configuration.
    pub fn new(g: &'g Grammar) -> Self {
        Generator { g, hooks: GenHooks::standard(), cfg: GenConfig::default() }
    }

    /// Replaces the blackbox hook registry.
    pub fn with_hooks(mut self, hooks: GenHooks) -> Self {
        self.hooks = hooks;
        self
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, cfg: GenConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The grammar this generator targets.
    pub fn grammar(&self) -> &'g Grammar {
        self.g
    }

    /// One raw generation attempt per configured retry: walk, solve,
    /// materialize. The result is *intended* to parse but not yet checked
    /// against an engine — use [`Generator::generate_valid`] for the
    /// checked variant.
    pub fn generate(&self, seed: u64) -> Option<Vec<u8>> {
        for attempt in 0..self.cfg.attempts as u64 {
            let rng_seed = mix(seed ^ mix(attempt.wrapping_add(1)));
            let mut walker = walk::Walker::new(self.g, &self.hooks, self.cfg, rng_seed);
            if let Some(bytes) = walker.generate() {
                return Some(bytes);
            }
        }
        None
    }

    /// Generates until the reference interpreter accepts the input (within
    /// the configured fuel), discarding the rare attempt where a heuristic
    /// in the walker (an undecidable touched-region comparison, a
    /// biased-choice overlap) produced a non-parsing candidate.
    pub fn generate_valid(&self, seed: u64) -> Option<Vec<u8>> {
        let parser = Parser::new(self.g).max_steps(self.cfg.verify_fuel);
        for attempt in 0..self.cfg.attempts as u64 {
            let rng_seed = mix(seed ^ mix(attempt.wrapping_add(1)));
            let mut walker = walk::Walker::new(self.g, &self.hooks, self.cfg, rng_seed);
            if let Some(bytes) = walker.generate() {
                if parser.parse(&bytes).is_ok() {
                    return Some(bytes);
                }
            }
        }
        None
    }
}
