//! PDF subset: grammar access and typed extraction (§4.3 case study:
//! backward parsing + xref random access + /Length-driven streams).

use crate::{field_table, need, Child, Names};
use ipg_core::arena::AttrSlot;
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/pdf.ipg");

/// The checked PDF grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("pdf").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("pdf").vm()
}

/// A parsed document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PdfDocument {
    /// Offset of the xref table (parsed *backward* from the trailer).
    pub xref_offset: usize,
    /// Number of xref entries (including the free entry 0).
    pub xref_count: usize,
    /// The indirect objects.
    pub objects: Vec<PdfObject>,
}

/// One indirect object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PdfObject {
    /// Object id.
    pub id: usize,
    /// Absolute offset of the object header.
    pub offset: usize,
    /// Declared `/Length`.
    pub stream_len: usize,
    /// Absolute span of the stream payload.
    pub stream: (usize, usize),
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    obj: Child,
    stream: Child,
    xref: AttrSlot,
    n: AttrSlot,
    id: AttrSlot,
    len: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "pdf", |r: &Names<'_>| {
            Ok(Fields {
                obj: r.child("PDF", "Obj")?,
                stream: r.child("Obj", "Stream")?,
                xref: r.attr("PDF", "xref")?,
                n: r.attr("PDF", "n")?,
                id: r.attr("Obj", "id")?,
                len: r.attr("Obj", "len")?,
            })
        })
    }
}

/// Parses a document with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not in the supported PDF subset.
pub fn parse(input: &[u8]) -> Result<PdfDocument> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let xref_offset = need(root, f.xref)? as usize;
    let xref_count = need(root, f.n)? as usize;
    let objs =
        f.obj.array(root).ok_or_else(|| Error::Grammar("extractor: missing objects".into()))?;
    let objects = objs
        .nodes()
        .map(|o| {
            let stream = f
                .stream
                .node(o)
                .ok_or_else(|| Error::Grammar("extractor: object without stream".into()))?;
            Ok(PdfObject {
                id: need(o, f.id)? as usize,
                offset: o.span().0,
                stream_len: need(o, f.len)? as usize,
                stream: stream.span(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(PdfDocument { xref_offset, xref_count, objects })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::pdf as gen;

    #[test]
    fn backward_parsing_finds_the_xref() {
        let f = gen::generate(&gen::Config::default());
        let parsed = parse(&f.bytes).unwrap();
        assert_eq!(parsed.xref_offset, f.summary.xref_offset);
        assert_eq!(parsed.xref_count, f.summary.objects.len() + 1);
    }

    #[test]
    fn objects_match_ground_truth() {
        let f = gen::generate(&gen::Config { n_objects: 5, stream_len: 99, ..Default::default() });
        let parsed = parse(&f.bytes).unwrap();
        assert_eq!(parsed.objects.len(), 5);
        for (p, &(id, offset, len)) in parsed.objects.iter().zip(&f.summary.objects) {
            assert_eq!(p.id, id);
            assert_eq!(p.offset, offset);
            assert_eq!(p.stream_len, len);
            assert_eq!(p.stream.1 - p.stream.0, len);
        }
    }

    #[test]
    fn single_object_document() {
        let f = gen::generate(&gen::Config { n_objects: 1, ..Default::default() });
        let parsed = parse(&f.bytes).unwrap();
        assert_eq!(parsed.objects.len(), 1);
    }

    #[test]
    fn corrupt_startxref_rejected() {
        let f = gen::generate(&gen::Config::default());
        let mut bytes = f.bytes.clone();
        // Overwrite the startxref digits with letters.
        let pos = bytes.len() - 7;
        bytes[pos] = b'q';
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn missing_eof_marker_rejected() {
        let f = gen::generate(&gen::Config::default());
        assert!(parse(&f.bytes[..f.bytes.len() - 1]).is_err());
    }
}
