//! PE: grammar access and typed extraction.

use crate::{field_table, need, Child, Names};
use ipg_core::arena::AttrSlot;
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/pe.ipg");

/// The checked PE grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("pe").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("pe").vm()
}

/// A parsed PE file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeFile {
    /// Offset of the PE signature (`e_lfanew`).
    pub pe_offset: u32,
    /// COFF machine id.
    pub machine: u16,
    /// Optional header magic (0x20b for PE32+).
    pub opt_magic: u16,
    /// Sections: `(virtual address, raw offset, raw size)`.
    pub sections: Vec<(u32, u32, u32)>,
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    dos: Child,
    coff: Child,
    opt: Child,
    sec_hdr: Child,
    lfanew: AttrSlot,
    machine: AttrSlot,
    magic: AttrSlot,
    vaddr: AttrSlot,
    rawptr: AttrSlot,
    rawsize: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "pe", |r: &Names<'_>| {
            Ok(Fields {
                dos: r.child("PE", "DOS")?,
                coff: r.child("PE", "COFF")?,
                opt: r.child("PE", "OPT")?,
                sec_hdr: r.child("PE", "SecHdr")?,
                lfanew: r.attr("DOS", "lfanew")?,
                machine: r.attr("COFF", "machine")?,
                magic: r.attr("OPT", "magic")?,
                vaddr: r.attr("SecHdr", "vaddr")?,
                rawptr: r.attr("SecHdr", "rawptr")?,
                rawsize: r.attr("SecHdr", "rawsize")?,
            })
        })
    }
}

/// Parses a PE file with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not valid PE per the grammar.
pub fn parse(input: &[u8]) -> Result<PeFile> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let dos =
        f.dos.node(root).ok_or_else(|| Error::Grammar("extractor: missing DOS header".into()))?;
    let coff =
        f.coff.node(root).ok_or_else(|| Error::Grammar("extractor: missing COFF header".into()))?;
    let opt = f
        .opt
        .node(root)
        .ok_or_else(|| Error::Grammar("extractor: missing optional header".into()))?;
    let hdrs = f
        .sec_hdr
        .array(root)
        .ok_or_else(|| Error::Grammar("extractor: missing section table".into()))?;
    let sections = hdrs
        .nodes()
        .map(|h| {
            Ok((need(h, f.vaddr)? as u32, need(h, f.rawptr)? as u32, need(h, f.rawsize)? as u32))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(PeFile {
        pe_offset: need(dos, f.lfanew)? as u32,
        machine: need(coff, f.machine)? as u16,
        opt_magic: need(opt, f.magic)? as u16,
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::pe as gen;

    #[test]
    fn parses_default_corpus_file() {
        let f = gen::generate(&gen::Config::default());
        let parsed = parse(&f.bytes).unwrap();
        assert_eq!(parsed.pe_offset, f.summary.pe_offset);
        assert_eq!(parsed.machine, 0x8664);
        assert_eq!(parsed.opt_magic, 0x20b);
        assert_eq!(parsed.sections.len(), f.summary.n_sections as usize);
    }

    #[test]
    fn section_pointers_match_ground_truth() {
        let f = gen::generate(&gen::Config { n_sections: 6, ..Default::default() });
        let parsed = parse(&f.bytes).unwrap();
        for (p, (_, ptr, size)) in parsed.sections.iter().zip(&f.summary.sections) {
            assert_eq!(p.1, *ptr);
            assert_eq!(p.2, *size);
        }
    }

    #[test]
    fn missing_mz_rejected() {
        let mut f = gen::generate(&gen::Config::default()).bytes;
        f[0] = b'N';
        assert!(parse(&f).is_err());
    }

    #[test]
    fn bad_optional_magic_rejected() {
        let mut f = gen::generate(&gen::Config::default()).bytes;
        let opt = gen::PE_SIG_OFFSET as usize + 4 + gen::COFF_SIZE;
        f[opt] = 0x0c; // 0x20c is neither PE32 nor PE32+
        assert!(parse(&f).is_err());
    }

    #[test]
    fn truncated_section_data_rejected() {
        let f = gen::generate(&gen::Config::default());
        assert!(parse(&f.bytes[..f.bytes.len() - 100]).is_err());
    }
}
