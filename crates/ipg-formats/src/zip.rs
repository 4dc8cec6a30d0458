//! ZIP: grammar access, typed extraction, and blackbox-driven extraction
//! (the paper's zlib-as-blackbox pattern, §3.4/§7).

use crate::{field_table, flatten_chain, lossy, need, Chain, Child, Names};
use ipg_core::arena::{AttrSlot, NodeRef, TreeId};
use ipg_core::blackbox::{Blackbox, BlackboxResult};
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The zero-copy ZIP specification (entry bodies stay raw byte spans).
pub const SPEC: &str = include_str!("../specs/zip.ipg");

/// The decompressing variant: bodies go through a DEFLATE blackbox.
pub const SPEC_INFLATE: &str = include_str!("../specs/zip_inflate.ipg");

/// The blackbox bindings of the decompressing grammar: `ipg-flate` as the
/// `inflate` blackbox. Blackboxes are runtime function pointers, so the
/// registry binds the implementations through this constructor on every
/// load of the grammar.
pub fn inflate_blackboxes() -> Vec<Blackbox> {
    vec![Blackbox::new("inflate", |input| {
        let (data, consumed) =
            ipg_flate::inflate_with_limit(input, 1 << 30).map_err(|e| e.to_string())?;
        Ok(BlackboxResult { consumed, data, attr_values: vec![] })
    })]
}

/// The checked zero-copy grammar (shared corpus registry entry).
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("zip").grammar()
}

/// The checked decompressing grammar, with `ipg-flate` registered as the
/// `inflate` blackbox (shared corpus registry entry).
pub fn grammar_inflate() -> &'static Grammar {
    crate::registry::corpus_entry("zip_inflate").grammar()
}

/// The compiled bytecode parser for the zero-copy grammar.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("zip").vm()
}

/// The compiled bytecode parser for the decompressing grammar.
pub fn vm_inflate() -> &'static VmParser {
    crate::registry::corpus_entry("zip_inflate").vm()
}

/// A parsed archive (zero-copy: bodies are spans into the input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZipArchive {
    /// Entries in local-file-header order.
    pub entries: Vec<ZipEntry>,
    /// Central directory offset (from the end record).
    pub cd_offset: u32,
    /// Entry count (from the end record).
    pub entry_count: u16,
}

/// One archive entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZipEntry {
    /// Stored file name.
    pub name: String,
    /// Compression method (0 stored, 8 DEFLATE).
    pub method: u16,
    /// CRC-32 of the uncompressed data.
    pub crc32: u32,
    /// Compressed size.
    pub compressed_size: u32,
    /// Uncompressed size.
    pub uncompressed_size: u32,
    /// Absolute span of the (compressed) body in the input.
    pub body: (usize, usize),
}

/// What [`parse`] reads of the zero-copy grammar's trees.
struct Fields {
    eocd: Child,
    lfhs: Child,
    chain: Chain,
    name: Child,
    body: Child,
    cdofs: AttrSlot,
    n: AttrSlot,
    method: AttrSlot,
    crc: AttrSlot,
    csize: AttrSlot,
    usize: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "zip", |r: &Names<'_>| {
            Ok(Fields {
                eocd: r.child("ZIP", "EOCD")?,
                lfhs: r.child("ZIP", "LFHs")?,
                chain: r.chain("LFHs", "LFH")?,
                name: r.child("LFH", "Name")?,
                body: r.child("LFH", "Body")?,
                cdofs: r.attr("EOCD", "cdofs")?,
                n: r.attr("EOCD", "n")?,
                method: r.attr("LFH", "method")?,
                crc: r.attr("LFH", "crc")?,
                csize: r.attr("LFH", "csize")?,
                usize: r.attr("LFH", "usize")?,
            })
        })
    }
}

/// What [`extract`] reads of the decompressing grammar's trees.
struct InflateFields {
    lfhs: Child,
    chain: Chain,
    name: Child,
    deflated: Child,
    stored: Child,
    crc: AttrSlot,
}

impl InflateFields {
    fn get() -> Result<&'static InflateFields> {
        static TABLE: OnceLock<Result<InflateFields>> = OnceLock::new();
        field_table(&TABLE, "zip_inflate", |r: &Names<'_>| {
            Ok(InflateFields {
                lfhs: r.child("ZIP", "LFHs")?,
                chain: r.chain("LFHs", "LFH")?,
                name: r.child("LFH", "Name")?,
                deflated: r.child("LFH", "Deflated")?,
                stored: r.child("LFH", "Stored")?,
                crc: r.attr("LFH", "crc")?,
            })
        })
    }
}

/// The stored name of the entry whose header is `lfh`.
fn entry_name(input: &[u8], name: Child, lfh: NodeRef<'_>) -> Result<String> {
    let (lo, hi) = name
        .node(lfh)
        .ok_or_else(|| Error::Grammar("extractor: missing entry name".into()))?
        .span();
    Ok(lossy(&input[lo..hi]))
}

/// Parses an archive zero-copy.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not a valid archive per the grammar.
pub fn parse(input: &[u8]) -> Result<ZipArchive> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let eocd =
        f.eocd.node(root).ok_or_else(|| Error::Grammar("extractor: missing end record".into()))?;
    let cd_offset = need(eocd, f.cdofs)? as u32;
    let entry_count = need(eocd, f.n)? as u16;

    let mut entries = Vec::with_capacity(usize::from(entry_count));
    if let Some(lfhs) = f.lfhs.node(root) {
        for lfh in flatten_chain(lfhs, f.chain) {
            let body = f
                .body
                .node(lfh)
                .ok_or_else(|| Error::Grammar("extractor: missing entry body".into()))?;
            entries.push(ZipEntry {
                name: entry_name(input, f.name, lfh)?,
                method: need(lfh, f.method)? as u16,
                crc32: need(lfh, f.crc)? as u32,
                compressed_size: need(lfh, f.csize)? as u32,
                uncompressed_size: need(lfh, f.usize)? as u32,
                body: body.span(),
            });
        }
    }
    Ok(ZipArchive { entries, cd_offset, entry_count })
}

/// Where an entry's uncompressed bytes are.
enum Body {
    /// Inflated: the blackbox result's output, moved out of the tree.
    Inflated(TreeId),
    /// Stored: a span of the input.
    Stored(usize, usize),
}

/// Extracts all entries, decompressing DEFLATE bodies through the
/// blackbox grammar — the `unzip` replacement of Fig. 12a/b.
///
/// # Errors
///
/// [`Error::Parse`] on malformed archives; [`Error::Blackbox`] when a
/// body fails to decompress; [`Error::Grammar`] on CRC mismatch.
pub fn extract(input: &[u8]) -> Result<Vec<(String, Vec<u8>)>> {
    let f = InflateFields::get()?;
    let mut tree = vm_inflate().parse(input)?;
    // Read every entry, then move each inflated body out of the tree: no
    // two entries share a body, since each header starts at or past the
    // previous entry's body.
    let mut entries = Vec::new();
    let root = tree.root().as_node().expect("root is a node");
    if let Some(lfhs) = f.lfhs.node(root) {
        for lfh in flatten_chain(lfhs, f.chain) {
            let body = if let Some(bb) = f.deflated.blackbox(lfh) {
                Body::Inflated(bb.id())
            } else if let Some(stored) = f.stored.node(lfh) {
                let (lo, hi) = stored.span();
                Body::Stored(lo, hi)
            } else {
                return Err(Error::Grammar("extractor: entry has no body".into()));
            };
            entries.push((entry_name(input, f.name, lfh)?, body, need(lfh, f.crc)? as u32));
        }
    }
    let mut out = Vec::with_capacity(entries.len());
    for (name, body, expected) in entries {
        let data = match body {
            Body::Inflated(id) => tree.take_blackbox_data(id).expect("a blackbox result"),
            Body::Stored(lo, hi) => input[lo..hi].to_vec(),
        };
        if ipg_flate::crc32(&data) != expected {
            return Err(Error::Grammar(format!("crc mismatch for `{name}`")));
        }
        out.push((name, data));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::zip as gen;

    #[test]
    fn parses_deflated_archive() {
        let a = gen::generate(&gen::Config::default());
        let parsed = parse(&a.bytes).unwrap();
        assert_eq!(parsed.entries.len(), a.entries.len());
        assert_eq!(parsed.cd_offset, a.cd_offset);
        for (p, e) in parsed.entries.iter().zip(&a.entries) {
            assert_eq!(p.name, e.name);
            assert_eq!(p.crc32, e.crc32);
            assert_eq!(p.compressed_size, e.compressed_size);
            assert_eq!(p.uncompressed_size, e.uncompressed_size);
            assert_eq!(p.method, 8);
        }
    }

    #[test]
    fn body_spans_are_zero_copy_and_correct() {
        let a = gen::generate(&gen::Config { n_entries: 3, ..Default::default() });
        let parsed = parse(&a.bytes).unwrap();
        for p in &parsed.entries {
            let body = &a.bytes[p.body.0..p.body.1];
            assert_eq!(ipg_flate::inflate(body).unwrap(), a.payload);
        }
    }

    #[test]
    fn extract_decompresses_and_checks_crc() {
        let a = gen::generate(&gen::Config { n_entries: 2, ..Default::default() });
        let files = extract(&a.bytes).unwrap();
        assert_eq!(files.len(), 2);
        for (name, data) in &files {
            assert!(name.starts_with("file_"));
            assert_eq!(data, &a.payload);
        }
    }

    #[test]
    fn extract_handles_stored_entries() {
        let a = gen::generate(&gen::Config {
            method: gen::Method::Stored,
            n_entries: 2,
            ..Default::default()
        });
        let files = extract(&a.bytes).unwrap();
        assert_eq!(files[0].1, a.payload);
    }

    #[test]
    fn corrupted_body_fails_crc() {
        let mut a = gen::generate(&gen::Config {
            method: gen::Method::Stored,
            n_entries: 1,
            payload_len: 64,
            ..Default::default()
        });
        // Flip a byte inside the stored body.
        let body_start = 30 + a.entries[0].name.len();
        a.bytes[body_start + 5] ^= 0xff;
        assert!(extract(&a.bytes).is_err());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse(b"this is not a zip file at all.........").is_err());
        assert!(parse(b"").is_err());
    }

    #[test]
    fn unsupported_method_fails_via_invalid_default_interval() {
        // The inflate grammar's switch default is `Unsupported[1, 0]` —
        // the paper's always-invalid-interval idiom. Patch an entry's
        // method to 99 (both LFH and CD copies) and extraction must fail
        // while the zero-copy grammar (which doesn't dispatch) still
        // parses.
        let mut a = gen::generate(&gen::Config {
            method: gen::Method::Stored,
            n_entries: 1,
            payload_len: 10,
            ..Default::default()
        });
        // LFH method at offset 8; CD method at cd_offset + 10.
        a.bytes[8] = 99;
        let cd = a.cd_offset as usize;
        a.bytes[cd + 10] = 99;
        assert!(parse(&a.bytes).is_ok(), "structure is still valid");
        assert!(extract(&a.bytes).is_err(), "method 99 must not extract");
    }

    #[test]
    fn crc_is_validated_for_deflated_entries_too() {
        let mut a = gen::generate(&gen::Config { n_entries: 1, ..Default::default() });
        // Corrupt the stored CRC in the local header (offset 14).
        a.bytes[14] ^= 0xff;
        assert!(extract(&a.bytes).is_err());
    }
}
