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
//! extractors read arena-backed [`NodeRef`] views with nonterminal ids
//! resolved once per parse instead of name-compared per child. The
//! tree-walking interpreter remains available through the `grammar()`
//! statics and is held to byte-identical behavior by the repository's
//! differential tests.
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
    corpus_descriptors, corpus_entry, pinned_corpus, Compiled, DirReload, Entry, FormatDescriptor,
    Origin, Registry,
};

use ipg_core::arena::NodeRef;
use ipg_core::check::{Grammar, NtId};
use ipg_core::error::{Error, Result};

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

/// Flattens the chunk-style recursion `List -> Item List / Item` into the
/// item nodes, in order. `list` is the outermost list node; `item_nt` is
/// the item nonterminal and `list_nt` the list's own (resolve both once
/// with [`nt_of`]).
pub(crate) fn flatten_chain(list: NodeRef<'_>, list_nt: NtId, item_nt: NtId) -> Vec<NodeRef<'_>> {
    let mut out = Vec::new();
    let mut cur = list;
    loop {
        if let Some(it) = cur.child_node_nt(item_nt) {
            out.push(it);
        }
        match cur.child_node_nt(list_nt) {
            Some(next) => cur = next,
            None => break,
        }
    }
    out
}

/// Reads a NUL-terminated string out of `bytes` starting at `offset`.
pub(crate) fn cstr_at(bytes: &[u8], offset: usize) -> Option<String> {
    let rest = bytes.get(offset..)?;
    let len = rest.iter().position(|&b| b == 0)?;
    Some(String::from_utf8_lossy(&rest[..len]).into_owned())
}

/// Fetches a required attribute from a node, reporting a structured error
/// when the tree does not have the expected shape (which would be a bug in
/// the spec or extractor, not in user input).
pub(crate) fn need(g: &Grammar, node: NodeRef<'_>, attr: &str) -> Result<i64> {
    node.attr(g, attr).ok_or_else(|| {
        Error::Grammar(format!("extractor: node `{}` lacks attribute `{attr}`", node.name()))
    })
}

/// Resolves a nonterminal the extractor depends on, reporting a structured
/// error if the spec no longer defines it.
pub(crate) fn nt_of(g: &Grammar, name: &str) -> Result<NtId> {
    g.nt_id(name)
        .ok_or_else(|| Error::Grammar(format!("extractor: grammar lacks nonterminal `{name}`")))
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
