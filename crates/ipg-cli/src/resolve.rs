//! Resolving a `<grammar>` argument to a [`Registry`] entry.
//!
//! Every subcommand accepts the same two spellings — a corpus name or an
//! `.ipg` source path — and both land in the one shared registry, so the
//! rest of the CLI never distinguishes built-in from user-supplied
//! grammars.

use crate::Failure;
use ipg_formats::{corpus_descriptors, Entry, Registry};
use std::io::Read as _;
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

/// Materializes a command's input whole: the file `input_arg` names,
/// stdin read to its end for `-`, or, with no operand, the format's
/// self-generated sample ([`default_input`]).
pub fn read_input(name: &str, input_arg: Option<&str>) -> Result<Vec<u8>, Failure> {
    match input_arg {
        Some("-") => {
            let mut buf = Vec::new();
            std::io::stdin()
                .lock()
                .read_to_end(&mut buf)
                .map_err(|e| Failure::runtime(format!("cannot read stdin: {e}")))?;
            Ok(buf)
        }
        Some(path) => {
            std::fs::read(path).map_err(|e| Failure::runtime(format!("cannot read {path}: {e}")))
        }
        None => default_input(name).ok_or_else(|| {
            Failure::usage(format!("`{name}` has no self-generated sample; pass FILE or -"))
        }),
    }
}
