//! # Interval Parsing Grammars (IPG)
//!
//! A Rust implementation of the grammar formalism from *"Interval Parsing
//! Grammars for File Format Parsing"* (Zhang, Morrisett, Tan — PLDI 2023).
//!
//! An IPG looks like a context-free grammar with attributes, except that
//! every nonterminal and terminal occurrence carries an **interval** — a pair
//! of integer expressions selecting the slice of the current input that the
//! symbol must describe. Because intervals may mention attributes computed
//! from previously parsed data, IPGs express the context-sensitive patterns
//! that pervade binary file formats — random access, type-length-value,
//! backward parsing, and multi-pass parsing — while remaining declarative
//! and statically checkable.
//!
//! ## Crate layout
//!
//! * [`syntax`] — the abstract syntax of IPGs (grammars, rules, alternatives,
//!   terms, expressions) plus [`syntax::GrammarBuilder`] for programmatic
//!   construction.
//! * [`frontend`] — a concrete textual notation for IPGs (`.ipg` files),
//!   including the implicit-interval auto-completion of §3.4 of the paper.
//! * [`check`] — attribute checking: definedness of every attribute
//!   reference and acyclicity of per-alternative dependency graphs, followed
//!   by the topological reordering the parsing semantics assumes.
//! * [`interp`] — the big-step parsing semantics (Fig. 8/15 of the paper) as
//!   a memoizing interpreter producing [`tree::Tree`] parse trees; it is the
//!   executable *reference* semantics.
//! * [`bytecode`] — the production pipeline's next stage: [`bytecode::compile`]
//!   lowers a checked grammar into a flat, `NtId`-indexed program (dense
//!   instruction/expression pools, pre-resolved result slots) with a
//!   disassembler for snapshot-pinned listings.
//! * [`interp::vm`] — the bytecode execution engine: an explicit work stack
//!   instead of recursion, parse trees bump-allocated into an
//!   [`arena::TreeArena`], observably identical to [`interp`] (same trees,
//!   step counts, and errors — enforced by differential tests).
//! * `layout` — static attribute layouts: every attribute resolved to a
//!   fixed per-rule slot when a VM parser is built, so VM frames and arena
//!   nodes hold `i64` slots instead of an [`env::Env`].
//! * [`arena`] — arena parse trees (`u32` ids, contiguous child ranges, one
//!   shared attribute pool) with zero-copy views mirroring the [`tree`]
//!   accessors.
//! * [`ipgc`] — [`ipgc::CachedProgram::compile`], the in-memory compile
//!   every registry load uses (grammar, program, anchor classification,
//!   size hints), and the [`ipgc::source_hash`] that identifies its input.
//! * [`profile`] — grammar-level VM profiling: per-rule cycle
//!   attribution, memo hit/miss counts, pc-indexed instruction hits,
//!   and a folded-stack export keyed by the static call graph. Disabled
//!   parses pay nothing (the hooks monomorphize away).
//! * [`termination`] — the static termination checker of §5: elementary
//!   cycles of the nonterminal dependency graph are refuted with a small
//!   built-in linear-arithmetic solver ([`solver`]) standing in for Z3.
//! * [`combinators`] — the interval parser combinator library from the
//!   paper's appendix, ported from OCaml to Rust.
//! * [`builtin`] — specialized leaf parsers (`btoi` in the paper): binary
//!   integers of fixed width and endianness, ASCII integers, raw bytes.
//! * [`blackbox`] — reuse of opaque legacy parsers (e.g. a DEFLATE
//!   decompressor) on interval-confined slices of the input.
//!
//! ## Quick start
//!
//! ```
//! use ipg_core::frontend::parse_grammar;
//! use ipg_core::interp::Parser;
//!
//! // The random-access pattern from Fig. 2 of the paper: an 8-byte header
//! // stores the offset and length of a data region.
//! let g = parse_grammar(
//!     r#"
//!     S -> H[0, 8] Data[H.offset, H.offset + H.length];
//!     H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
//!     Int := u32le;
//!     Data := bytes;
//!     "#,
//! )?;
//! let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0]; // offset = 8, length = 4
//! input.extend_from_slice(b"DATA");
//! let tree = Parser::new(&g).parse(&input)?;
//! let h = tree.child_node_sym(g.nt_sym("H").expect("H is a rule")).expect("header parsed");
//! assert_eq!(h.attr(&g, "offset"), Some(8));
//! assert_eq!(h.attr(&g, "length"), Some(4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod arena;
pub mod blackbox;
pub mod builtin;
pub mod bytecode;
pub mod check;
pub mod combinators;
pub mod env;
pub mod error;
pub mod frontend;
pub mod intern;
pub mod interp;
pub mod ipgc;
pub(crate) mod layout;
pub mod profile;
pub mod solver;
pub mod syntax;
pub mod termination;
pub mod tree;

pub use error::{Error, Result};
pub use interp::vm::{ParseTree, VmParser};
pub use syntax::{Grammar, GrammarBuilder};
pub use tree::Tree;
