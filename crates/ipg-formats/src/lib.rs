//! IPG specifications and typed extractors for real file formats.
//!
//! One module per case-study format of the paper (§4, §7): [`elf`],
//! [`zip`], [`gif`], [`pe`], [`pdf`] (subset), [`dns`], [`ipv4udp`]. Each
//! module embeds its `.ipg` specification (the source lives under
//! `specs/`, where the Table 1 line counts come from), exposes the checked
//! grammar as a lazily-built static, and provides a `parse` function that
//! turns the raw parse tree into an idiomatic Rust struct.
//!
//! Extraction runs on the bytecode VM ([`ipg_core::interp::vm`]): each
//! module also exposes its compiled parser as a `vm()` static, and the
//! extractors read arena-backed [`NodeRef`] views through a *field
//! table*: the children and attribute slots ([`AttrSlot`]) they read,
//! resolved once per corpus entry on first use. A child is read by its
//! position among its parent's children, which the grammar fixes
//! ([`Program::child_index`]), with its nonterminal checked. A parse then
//! does no name lookup, no string hashing and no search among children.
//! The tree-walking interpreter remains available through the `grammar()`
//! statics and is held to byte-identical behavior by the repository's
//! differential tests.
//!
//! [`Program::child_index`]: ipg_core::bytecode::Program::child_index
//!
//! All grammar resolution goes through [`registry::Registry`]: the
//! per-module `grammar()`/`vm()` statics are views of the shared corpus
//! registry, whose entries are compiled from their `.ipg` source in
//! memory, so every consumer (tests, benches, `ipg-serve`, the `ipg` CLI)
//! exercises the same load pipeline as user-supplied grammars.
//!
//! ```
//! let file = ipg_corpus::elf::generate(&ipg_corpus::elf::Config::default());
//! let parsed = ipg_formats::elf::parse(&file.bytes)?;
//! assert_eq!(parsed.shnum, file.summary.shnum as u64);
//! # Ok::<(), ipg_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod combinator_impls;
pub mod dns;
pub mod elf;
pub mod gif;
pub mod ipv4udp;
pub mod pdf;
pub mod pe;
pub mod png;
pub mod registry;
pub mod zip;

pub use registry::{
    corpus_descriptors, corpus_entry, pinned_corpus, Compiled, Entry, FormatDescriptor, Registry,
};

use ipg_core::arena::{ArrayRef, AttrSlot, NodeRef, TreeRef};
use ipg_core::check::NtId;
use ipg_core::error::{Error, Result};
use std::sync::OnceLock;

/// All embedded specifications, as `(format name, spec source)` — the
/// input to the Table 1 and Table 2 harnesses. PNG is kept out of this
/// list because the paper's tables do not have a PNG row; it lives in
/// [`png`] as an extra chunk-based case study exercising the `star`
/// extension.
pub fn all_specs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("ZIP", zip::SPEC),
        ("GIF", gif::SPEC),
        ("PE", pe::SPEC),
        ("ELF", elf::SPEC),
        ("PDF", pdf::SPEC),
        ("IPv4+UDP", ipv4udp::SPEC),
        ("DNS", dns::SPEC),
    ]
}

/// Iterates the chunk-style recursion `List -> Item List / Item` as its
/// item nodes, in order. `list` is the outermost list node.
pub(crate) fn flatten_chain(list: NodeRef<'_>, chain: Chain) -> impl Iterator<Item = NodeRef<'_>> {
    std::iter::successors(Some(list), move |cur| chain.next.node(*cur))
        .filter_map(move |cur| chain.item.node(cur))
}

/// Reads a NUL-terminated string out of `bytes` starting at `offset`.
pub(crate) fn cstr_at(bytes: &[u8], offset: usize) -> Option<String> {
    let rest = bytes.get(offset..)?;
    let len = rest.iter().position(|&b| b == 0)?;
    Some(lossy(&rest[..len]))
}

/// `bytes` as an owned string, invalid UTF-8 replaced as by
/// [`String::from_utf8_lossy`]; valid bytes, the usual case, take the
/// faster check of [`std::str::from_utf8`].
#[inline]
pub(crate) fn lossy(bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(s) => s.to_owned(),
        Err(_) => String::from_utf8_lossy(bytes).into_owned(),
    }
}

/// Fetches a field-table attribute from a node, reporting a structured
/// error when the node is not of the attribute's nonterminal (which would
/// be a bug in the extractor, not in user input).
#[inline]
pub(crate) fn need(node: NodeRef<'_>, attr: AttrSlot) -> Result<i64> {
    node.get(attr).ok_or_else(|| {
        Error::Grammar(format!("extractor: node `{}` lacks attribute {attr:?}", node.name()))
    })
}

/// Resolves the names an extractor reads against its registry entry:
/// nonterminals to [`NtId`]s, attributes to [`AttrSlot`]s. Each fails with
/// a structured error if the spec no longer defines the name.
pub(crate) struct Names<'a> {
    entry: &'a Entry,
}

impl Names<'_> {
    /// The nonterminal `name`.
    pub(crate) fn nt(&self, name: &str) -> Result<NtId> {
        self.entry
            .grammar()
            .nt_id(name)
            .ok_or_else(|| Error::Grammar(format!("extractor: grammar lacks nonterminal `{name}`")))
    }

    /// The child of nonterminal `nt` in nodes of `parent`, whose position
    /// among their children the grammar must fix
    /// ([`Program::child_index`]).
    ///
    /// [`Program::child_index`]: ipg_core::bytecode::Program::child_index
    pub(crate) fn child(&self, parent: &str, nt: &str) -> Result<Child> {
        let (parent_id, nt_id) = (self.nt(parent)?, self.nt(nt)?);
        let index = self.entry.vm().program().child_index(parent_id, nt_id).ok_or_else(|| {
            Error::Grammar(format!(
                "extractor: `{nt}` has no fixed place among `{parent}`'s children"
            ))
        })?;
        Ok(Child { nt: nt_id, index })
    }

    /// The list `list -> item list / …` (see [`flatten_chain`]).
    pub(crate) fn chain(&self, list: &str, item: &str) -> Result<Chain> {
        Ok(Chain { item: self.child(list, item)?, next: self.child(list, list)? })
    }

    /// Attribute `attr` of nonterminal `nt`, which every `nt` node must
    /// carry.
    pub(crate) fn attr(&self, nt: &str, attr: &str) -> Result<AttrSlot> {
        self.entry.vm().attr_slot(self.nt(nt)?, attr).ok_or_else(|| {
            Error::Grammar(format!("extractor: not every `{nt}` node carries attribute `{attr}`"))
        })
    }
}

/// A child of a fixed position ([`Names::child`]): read by index, with its
/// nonterminal checked.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Child {
    nt: NtId,
    index: usize,
}

impl Child {
    /// The child node of `parent`, if it has one of this nonterminal.
    #[inline]
    pub(crate) fn node<'a>(self, parent: NodeRef<'a>) -> Option<NodeRef<'a>> {
        parent.child_at(self.index, self.nt)
    }

    /// The array of this nonterminal's elements among `parent`'s children.
    pub(crate) fn array<'a>(self, parent: NodeRef<'a>) -> Option<ArrayRef<'a>> {
        parent.child(self.index)?.as_array().filter(|a| a.nt() == self.nt)
    }

    /// The blackbox result of this nonterminal among `parent`'s children.
    pub(crate) fn blackbox<'a>(self, parent: NodeRef<'a>) -> Option<TreeRef<'a>> {
        parent.child(self.index).filter(|c| c.as_blackbox().is_some_and(|b| b.nt() == self.nt))
    }
}

/// A list `List -> Item List / Item` read by [`flatten_chain`]: each
/// level's item and the level below it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Chain {
    item: Child,
    next: Child,
}

/// A format module's field table: resolved by `resolve` against the
/// corpus entry `format` on first use, then shared by every parse.
pub(crate) fn field_table<T>(
    cell: &'static OnceLock<Result<T>>,
    format: &str,
    resolve: fn(&Names<'_>) -> Result<T>,
) -> Result<&'static T> {
    cell.get_or_init(|| resolve(&Names { entry: corpus_entry(format) }))
        .as_ref()
        .map_err(Clone::clone)
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_specs_parse_and_pass_termination_checking() {
        // The §7 claim: every format grammar passes termination checking
        // with at most a handful of elementary cycles.
        for (name, spec) in super::all_specs() {
            let g =
                ipg_core::frontend::parse_grammar(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = ipg_core::termination::check_termination(&g);
            assert!(report.ok, "{name} failed termination: {report:?}");
            assert!(
                report.cycle_count() <= 6,
                "{name}: unexpectedly many cycles ({})",
                report.cycle_count()
            );
        }
    }
}
