//! PNG: grammar access and typed extraction. An extra chunk-based case
//! study (the paper names PNG alongside GIF in §4) whose chunk list uses
//! the `star` repetition extension instead of the recursive list idiom.

use crate::{field_table, lossy, need, Child, Names};
use ipg_core::arena::AttrSlot;
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/png.ipg");

/// The checked PNG grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("png").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("png").vm()
}

/// A parsed image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PngImage {
    /// IHDR width.
    pub width: u32,
    /// IHDR height.
    pub height: u32,
    /// IHDR bit depth.
    pub bit_depth: u8,
    /// Chunks between IHDR and IEND: `(type fourcc, data span)`.
    pub chunks: Vec<(String, (usize, usize))>,
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    ihdr: Child,
    chunk: Child,
    ty: Child,
    data: Child,
    w: AttrSlot,
    h: AttrSlot,
    depth: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "png", |r: &Names<'_>| {
            Ok(Fields {
                ihdr: r.child("PNG", "IHDR")?,
                chunk: r.child("PNG", "Chunk")?,
                ty: r.child("Chunk", "Type")?,
                data: r.child("Chunk", "Data")?,
                w: r.attr("IHDR", "w")?,
                h: r.attr("IHDR", "h")?,
                depth: r.attr("IHDR", "depth")?,
            })
        })
    }
}

/// Parses a PNG with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not valid PNG per the grammar.
pub fn parse(input: &[u8]) -> Result<PngImage> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let ihdr = f.ihdr.node(root).ok_or_else(|| Error::Grammar("extractor: missing IHDR".into()))?;

    let mut chunks = Vec::new();
    if let Some(arr) = f.chunk.array(root) {
        for chunk in arr.nodes() {
            let ty =
                f.ty.node(chunk)
                    .ok_or_else(|| Error::Grammar("extractor: chunk without type".into()))?;
            let fourcc = lossy(&input[ty.span().0..ty.span().1]);
            let data = f
                .data
                .node(chunk)
                .ok_or_else(|| Error::Grammar("extractor: chunk without data".into()))?;
            chunks.push((fourcc, data.span()));
        }
    }

    Ok(PngImage {
        width: need(ihdr, f.w)? as u32,
        height: need(ihdr, f.h)? as u32,
        bit_depth: need(ihdr, f.depth)? as u8,
        chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::png as gen;

    #[test]
    fn parses_default_corpus_image() {
        let f = gen::generate(&gen::Config::default());
        let parsed = parse(&f.bytes).unwrap();
        assert_eq!(parsed.width, f.summary.width);
        assert_eq!(parsed.height, f.summary.height);
        assert_eq!(parsed.bit_depth, 8);
        // Chunks exclude IHDR and IEND.
        let expected: Vec<&String> =
            f.summary.chunk_types.iter().filter(|t| *t != "IHDR" && *t != "IEND").collect();
        let got: Vec<&String> = parsed.chunks.iter().map(|(t, _)| t).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn chunk_data_spans_match_lengths() {
        let f = gen::generate(&gen::Config { n_idat: 2, idat_len: 333, ..Default::default() });
        let parsed = parse(&f.bytes).unwrap();
        for (ty, (lo, hi)) in &parsed.chunks {
            if ty == "IDAT" {
                assert_eq!(hi - lo, 333);
            }
        }
    }

    #[test]
    fn minimal_image_without_middle_chunks() {
        let f = gen::generate(&gen::Config { n_idat: 0, with_text: false, ..Default::default() });
        let parsed = parse(&f.bytes).unwrap();
        assert!(parsed.chunks.is_empty());
    }

    #[test]
    fn corrupt_signature_rejected() {
        let mut f = gen::generate(&gen::Config::default()).bytes;
        f[1] = b'Q';
        assert!(parse(&f).is_err());
    }

    #[test]
    fn missing_iend_rejected() {
        let f = gen::generate(&gen::Config::default());
        assert!(parse(&f.bytes[..f.bytes.len() - 12]).is_err());
    }

    #[test]
    fn grammar_passes_termination_checking() {
        let report = ipg_core::termination::check_termination(grammar());
        assert!(report.ok, "{report:?}");
    }
}
