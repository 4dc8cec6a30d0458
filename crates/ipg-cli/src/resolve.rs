//! Resolving a `<grammar>` argument to a [`Registry`] entry.
//!
//! Every subcommand accepts the same three spellings — a corpus name, an
//! `.ipg` source path, or an `.ipgc` artifact path — and all three land
//! in the one shared registry, so the rest of the CLI never distinguishes
//! built-in from user-supplied grammars.

use crate::Failure;
use ipg_formats::{corpus_descriptors, Entry, Registry};
use std::path::Path;

/// Resolves `arg` to a registry entry: a known corpus name is served from
/// the shared per-process corpus (compiled once from source); anything that
/// looks like a path is loaded through [`Registry::load_path`].
pub fn entry(arg: &str) -> Result<Entry, Failure> {
    let corpus = Registry::corpus();
    if let Some(e) = corpus.get(arg) {
        return Ok(e);
    }
    let path = Path::new(arg);
    if path.exists() {
        return corpus.load_path(path).map_err(Failure::runtime);
    }
    Err(Failure::usage(format!(
        "`{arg}` is neither a corpus grammar nor an existing file\ncorpus grammars: {}",
        corpus_names().join(", ")
    )))
}

/// The corpus grammar names, in registry order.
pub fn corpus_names() -> Vec<&'static str> {
    corpus_descriptors().iter().map(|d| d.name).collect()
}

/// The `.ipg` source and blackbox bindings behind `arg`: a corpus name
/// maps to its embedded descriptor, a path is read from disk (no
/// blackboxes — user sources cannot name ones we don't ship).
pub fn source(arg: &str) -> Result<(String, String, Vec<ipg_core::blackbox::Blackbox>), Failure> {
    if let Some(d) = corpus_descriptors().into_iter().find(|d| d.name == arg) {
        return Ok((d.name.to_owned(), d.spec.to_owned(), (d.blackboxes)()));
    }
    let path = Path::new(arg);
    if path.extension().is_some_and(|e| e == "ipgc") {
        return Err(Failure::usage(format!(
            "`{arg}` is already a compiled artifact; pass a corpus name or a .ipg source"
        )));
    }
    if path.exists() {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| Failure::usage(format!("cannot derive a grammar name from `{arg}`")))?
            .to_owned();
        let spec = std::fs::read_to_string(path)
            .map_err(|e| Failure::runtime(format!("cannot read {arg}: {e}")))?;
        return Ok((name, spec, Vec::new()));
    }
    Err(Failure::usage(format!(
        "`{arg}` is neither a corpus grammar nor an existing file\ncorpus grammars: {}",
        corpus_names().join(", ")
    )))
}

/// A small self-generated corpus input for the named format, so `ipg
/// parse <corpus-name>` runs standalone (mirrors the test suites'
/// default-input lane; `zip_inflate` shares the ZIP corpus).
pub fn default_input(name: &str) -> Option<Vec<u8>> {
    Some(match name {
        "zip" | "zip_inflate" => ipg_corpus::zip::generate(&Default::default()).bytes,
        "dns" => ipg_corpus::dns::generate(&Default::default()).bytes,
        "png" => ipg_corpus::png::generate(&Default::default()).bytes,
        "gif" => ipg_corpus::gif::generate(&Default::default()).bytes,
        "elf" => ipg_corpus::elf::generate(&Default::default()).bytes,
        "ipv4udp" => ipg_corpus::ipv4udp::generate(&Default::default()).bytes,
        "pe" => ipg_corpus::pe::generate(&Default::default()).bytes,
        "pdf" => ipg_corpus::pdf::generate(&Default::default()).bytes,
        _ => return None,
    })
}
