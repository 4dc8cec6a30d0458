//! `ipg verify` — audit a `.ipgc` artifact end to end without loading it
//! into a registry: envelope and provenance trailer, structural payload
//! decode, and cross-validation against the grammar reconstructed from
//! the embedded source.
//!
//! The exit code is the interface — deploy scripts and CI gates branch
//! on it, so each failure stage has a stable number:
//!
//! | code | meaning                                         |
//! |------|-------------------------------------------------|
//! | 0    | valid                                           |
//! | 2    | usage error                                     |
//! | 3    | structural (bad magic, truncation, checksum)    |
//! | 4    | version skew (artifact outside supported range) |
//! | 5    | provenance (digest/MAC failure, unsigned+key)   |
//! | 6    | artifact/grammar mismatch                       |
//!
//! With `IPG_ARTIFACT_KEY` set the provenance policy is strict, exactly
//! as at load time: unsigned artifacts fail with code 5.

use crate::{CmdResult, Failure};
use ipg_core::ipgc::{artifact_key_from_env, verify, VerifyError};
use ipg_formats::corpus_descriptors;
use std::path::Path;

/// Maps each verification stage to its documented exit code.
fn exit_code(err: &VerifyError) -> u8 {
    match err {
        VerifyError::Structural(_) => 3,
        VerifyError::VersionSkew { .. } => 4,
        VerifyError::Provenance(_) => 5,
        VerifyError::Mismatch(_) => 6,
    }
}

/// Blackbox bindings for reconstruction: artifacts are named
/// `<grammar>.ipgc` or `<grammar>-<suffix>.ipgc`, so a corpus grammar's
/// bindings can be recovered from the file stem. Unknown stems get none
/// (correct for user grammars, which cannot name blackboxes we don't
/// ship).
fn blackboxes_for(path: &Path) -> Vec<ipg_core::blackbox::Blackbox> {
    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
        return Vec::new();
    };
    corpus_descriptors()
        .into_iter()
        .find(|d| stem == d.name || stem.strip_prefix(d.name).is_some_and(|r| r.starts_with('-')))
        .map_or_else(Vec::new, |d| (d.blackboxes)())
}

pub fn run(args: &[String]) -> CmdResult {
    let [artifact_arg] = args else {
        return Err(Failure::usage("usage: ipg verify <artifact.ipgc>"));
    };
    let path = Path::new(artifact_arg);
    let bytes = std::fs::read(path)
        .map_err(|e| Failure::runtime(format!("cannot read {artifact_arg}: {e}")))?;
    let key = artifact_key_from_env();
    match verify(&bytes, key.as_deref(), blackboxes_for(path)) {
        Ok(report) => {
            let provenance = match (report.signed, report.mac_checked) {
                (true, true) => "signed, MAC verified",
                (true, false) => "signed, MAC not checked (no key configured)",
                (false, _) => "unsigned, digest verified",
            };
            println!(
                "{artifact_arg}: valid (v{}, source hash {:016x}, {} payload bytes, \
                 {} rules, {} symbols; {provenance})",
                report.version,
                report.source_hash,
                report.payload_len,
                report.rules,
                report.symbols
            );
            Ok(())
        }
        Err(e) => Err(Failure::Coded(exit_code(&e), format!("{artifact_arg}: {e}"))),
    }
}
