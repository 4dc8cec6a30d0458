//! Inverse blackbox hooks.
//!
//! A blackbox rule runs an opaque parser on an interval-confined slice; the
//! generator therefore needs the *inverse*: a producer of bytes the blackbox
//! will accept. Hooks are registered by blackbox name. The contract: when
//! the blackbox runs on the returned bytes (possibly followed by unrelated
//! trailing bytes), it must succeed, consume exactly the returned bytes,
//! and report the returned attribute values.
//!
//! [`GenHooks::standard`] registers the workspace's one real blackbox — the
//! `inflate` DEFLATE decompressor — inverted via [`ipg_flate::compress`]
//! over a compressible random payload.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// What an inverse blackbox produced.
#[derive(Clone, Debug, Default)]
pub struct BlackboxPiece {
    /// Bytes to place on the blackbox's interval.
    pub bytes: Vec<u8>,
    /// Values for the attributes the blackbox declares, in declaration
    /// order.
    pub attr_values: Vec<i64>,
}

/// An inverse blackbox: `(rng, byte budget) → piece`.
pub type HookFn = dyn Fn(&mut StdRng, usize) -> Option<BlackboxPiece> + Send + Sync;

/// The hook registry, keyed by blackbox name.
#[derive(Clone, Default)]
pub struct GenHooks {
    map: HashMap<String, Arc<HookFn>>,
}

impl GenHooks {
    /// An empty registry (grammars without blackbox rules need none).
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard registry: `inflate` ↦ DEFLATE compression of a
    /// compressible random payload.
    pub fn standard() -> Self {
        Self::new().with("inflate", |rng: &mut StdRng, budget: usize| {
            let len = rng.random_range(1..=budget.clamp(1, 512) as u64) as usize;
            let payload = ipg_corpus::text_bytes(rng, len);
            Some(BlackboxPiece { bytes: ipg_flate::compress(&payload), attr_values: vec![] })
        })
    }

    /// Registers `f` under `name`.
    pub fn with<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(&mut StdRng, usize) -> Option<BlackboxPiece> + Send + Sync + 'static,
    {
        self.map.insert(name.to_owned(), Arc::new(f));
        self
    }

    /// Looks up the hook for `name`.
    pub fn get(&self, name: &str) -> Option<Arc<HookFn>> {
        self.map.get(name).cloned()
    }
}

impl std::fmt::Debug for GenHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("GenHooks").field("names", &names).finish()
    }
}

/// Recomputes the CRC-32 field of every ZIP local file header so that a
/// *grammar-valid* generated archive also passes the semantic CRC check of
/// `ipg_formats::zip::extract` and the `unzip` baselines. The grammar never
/// constrains the CRC (it is free fuzz content there); this fix-up supplies
/// the dependent-field semantics via [`ipg_flate::crc32()`].
///
/// Walks the local-file-header chain structurally (magic, length fields,
/// method dispatch) and leaves anything malformed untouched.
pub fn zip_fixup_crcs(bytes: &mut [u8]) {
    let mut pos = 0usize;
    while pos + 30 <= bytes.len() && bytes[pos..pos + 4] == [0x50, 0x4b, 0x03, 0x04] {
        let at = |o: usize| pos + o;
        let method = u16::from_le_bytes([bytes[at(8)], bytes[at(9)]]);
        let csize = u32::from_le_bytes([bytes[at(18)], bytes[at(19)], bytes[at(20)], bytes[at(21)]])
            as usize;
        let nlen = u16::from_le_bytes([bytes[at(26)], bytes[at(27)]]) as usize;
        let elen = u16::from_le_bytes([bytes[at(28)], bytes[at(29)]]) as usize;
        let body_start = pos + 30 + nlen + elen;
        let Some(body_end) = body_start.checked_add(csize) else { return };
        if body_end > bytes.len() {
            return;
        }
        let data: Option<Vec<u8>> = match method {
            0 => Some(bytes[body_start..body_end].to_vec()),
            8 => ipg_flate::inflate_with_limit(&bytes[body_start..body_end], 1 << 24)
                .ok()
                .map(|(data, _)| data),
            _ => None,
        };
        if let Some(data) = data {
            let crc = ipg_flate::crc32(&data);
            bytes[at(14)..at(18)].copy_from_slice(&crc.to_le_bytes());
        }
        pos = body_end;
    }
}
