//! ELF: grammar access and typed extraction (§4.1 case study).

use crate::{cstr_at, field_table, flatten_chain, lossy, need, Chain, Child, Names};
use ipg_core::arena::{ArrayRef, AttrSlot, NodeRef};
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/elf.ipg");

/// The checked ELF grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("elf").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("elf").vm()
}

/// A parsed ELF file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElfFile {
    /// Section header table offset (`e_shoff`).
    pub shoff: u64,
    /// Number of section headers.
    pub shnum: u64,
    /// Index of the section-name string table.
    pub shstrndx: u64,
    /// All sections, in section-header-table order (index 0 is the null
    /// section).
    pub sections: Vec<ElfSection>,
}

/// One section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElfSection {
    /// Name, resolved through `.shstrtab`.
    pub name: Option<String>,
    /// `sh_type`.
    pub sh_type: u32,
    /// `sh_offset`.
    pub offset: u64,
    /// `sh_size`.
    pub size: u64,
    /// `sh_link`.
    pub link: u32,
    /// Typed content.
    pub kind: SectionKind,
}

/// Typed section content, per the grammar's switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// The null section (index 0).
    Null,
    /// `.dynamic` entries `(d_tag, d_val)`.
    Dynamic(Vec<(u64, u64)>),
    /// Symbol table entries.
    Symbols(Vec<ElfSymbol>),
    /// A string table's strings, in order.
    Strings(Vec<String>),
    /// Anything else: raw byte span `(offset, len)` into the file.
    Other(u64, u64),
}

/// One symbol-table entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElfSymbol {
    /// Offset of the name in the linked string table.
    pub name_offset: u32,
    /// Resolved name (via the linked string table).
    pub name: Option<String>,
    /// `st_value`.
    pub value: u64,
    /// `st_size`.
    pub size: u64,
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    h: Child,
    sh: Child,
    sec: Child,
    dyn_sec: Child,
    dyn_entry: Child,
    sym_sec: Child,
    sym: Child,
    str_sec: Child,
    strings: Child,
    chain: Chain,
    shoff: AttrSlot,
    shnum: AttrSlot,
    shstrndx: AttrSlot,
    sh_name: AttrSlot,
    sh_type: AttrSlot,
    sh_ofs: AttrSlot,
    sh_sz: AttrSlot,
    sh_link: AttrSlot,
    dyn_tag: AttrSlot,
    dyn_value: AttrSlot,
    sym_name: AttrSlot,
    sym_value: AttrSlot,
    sym_size: AttrSlot,
    str_len: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "elf", |r: &Names<'_>| {
            Ok(Fields {
                h: r.child("ELF", "H")?,
                sh: r.child("ELF", "SH")?,
                sec: r.child("ELF", "Sec")?,
                dyn_sec: r.child("Sec", "DynSec")?,
                dyn_entry: r.child("DynSec", "DynEntry")?,
                sym_sec: r.child("Sec", "SymSec")?,
                sym: r.child("SymSec", "Sym")?,
                str_sec: r.child("Sec", "StrSec")?,
                strings: r.child("StrSec", "Strings")?,
                chain: r.chain("Strings", "Str")?,
                shoff: r.attr("H", "shoff")?,
                shnum: r.attr("H", "shnum")?,
                shstrndx: r.attr("H", "shstrndx")?,
                sh_name: r.attr("SH", "name")?,
                sh_type: r.attr("SH", "type")?,
                sh_ofs: r.attr("SH", "ofs")?,
                sh_sz: r.attr("SH", "sz")?,
                sh_link: r.attr("SH", "link")?,
                dyn_tag: r.attr("DynEntry", "tag")?,
                dyn_value: r.attr("DynEntry", "value")?,
                sym_name: r.attr("Sym", "name")?,
                sym_value: r.attr("Sym", "value")?,
                sym_size: r.attr("Sym", "size")?,
                str_len: r.attr("Str", "len")?,
            })
        })
    }
}

/// Parses an ELF file with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not valid ELF per the grammar.
pub fn parse(input: &[u8]) -> Result<ElfFile> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    extract(f, input, tree.root().as_node().expect("root is a node"))
}

fn extract(f: &Fields, input: &[u8], root: NodeRef<'_>) -> Result<ElfFile> {
    let h = f.h.node(root).ok_or_else(|| Error::Grammar("extractor: missing ELF header".into()))?;
    let shoff = need(h, f.shoff)? as u64;
    let shnum = need(h, f.shnum)? as u64;
    let shstrndx = need(h, f.shstrndx)? as u64;

    let sh =
        f.sh.array(root)
            .ok_or_else(|| Error::Grammar("extractor: missing section header table".into()))?;
    let secs =
        f.sec.array(root).ok_or_else(|| Error::Grammar("extractor: missing sections".into()))?;

    // Locate .shstrtab to resolve section names.
    let shstr = sh.node(shstrndx as usize).map(|n| table_span(f, n));

    let mut sections = Vec::with_capacity(sh.len());
    for (i, hdr) in sh.nodes().enumerate() {
        let sh_type = need(hdr, f.sh_type)? as u32;
        let offset = need(hdr, f.sh_ofs)? as u64;
        let size = need(hdr, f.sh_sz)? as u64;
        let link = need(hdr, f.sh_link)? as u32;
        let name_off = need(hdr, f.sh_name)? as usize;
        let name =
            shstr.and_then(
                |(ofs, sz)| {
                    if name_off < sz {
                        cstr_at(input, ofs + name_off)
                    } else {
                        None
                    }
                },
            );
        // Sec array index i-1 corresponds to SH index i (the grammar skips
        // the null section).
        let kind = if i == 0 {
            SectionKind::Null
        } else {
            let sec = secs.node(i - 1).ok_or_else(|| {
                Error::Grammar(format!("extractor: missing Sec node for section {i}"))
            })?;
            extract_section_kind(f, input, sh, sec, link, offset, size)?
        };
        sections.push(ElfSection { name, sh_type, offset, size, link, kind });
    }

    Ok(ElfFile { shoff, shnum, shstrndx, sections })
}

/// The `(offset, size)` of the string table a section header describes.
fn table_span(f: &Fields, hdr: NodeRef<'_>) -> (usize, usize) {
    (hdr.get(f.sh_ofs).unwrap_or(0) as usize, hdr.get(f.sh_sz).unwrap_or(0) as usize)
}

fn extract_section_kind(
    f: &Fields,
    input: &[u8],
    sh: ArrayRef<'_>,
    sec: NodeRef<'_>,
    link: u32,
    offset: u64,
    size: u64,
) -> Result<SectionKind> {
    if let Some(dyn_sec) = f.dyn_sec.node(sec) {
        let entries = f
            .dyn_entry
            .array(dyn_sec)
            .map(|arr| {
                arr.nodes()
                    .map(|e| {
                        (
                            e.get(f.dyn_tag).unwrap_or(0) as u64,
                            e.get(f.dyn_value).unwrap_or(0) as u64,
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        return Ok(SectionKind::Dynamic(entries));
    }
    if let Some(sym_sec) = f.sym_sec.node(sec) {
        // The linked string table resolves symbol names.
        let strtab = sh.node(link as usize).map(|n| table_span(f, n));
        let symbols = f
            .sym
            .array(sym_sec)
            .map(|arr| {
                arr.nodes()
                    .map(|s| {
                        let name_offset = s.get(f.sym_name).unwrap_or(0) as u32;
                        let name = strtab.and_then(|(ofs, sz)| {
                            if (name_offset as usize) < sz {
                                cstr_at(input, ofs + name_offset as usize)
                            } else {
                                None
                            }
                        });
                        ElfSymbol {
                            name_offset,
                            name,
                            value: s.get(f.sym_value).unwrap_or(0) as u64,
                            size: s.get(f.sym_size).unwrap_or(0) as u64,
                        }
                    })
                    .collect()
            })
            .unwrap_or_default();
        return Ok(SectionKind::Symbols(symbols));
    }
    if let Some(str_sec) = f.str_sec.node(sec) {
        // Collect Str nodes from the recursive Strings chain.
        let mut strings = Vec::new();
        if let Some(top) = f.strings.node(str_sec) {
            for s in flatten_chain(top, f.chain) {
                let (lo, _) = s.span();
                let len = need(s, f.str_len)? as usize;
                strings.push(lossy(&input[lo..lo + len]));
            }
        }
        return Ok(SectionKind::Strings(strings));
    }
    Ok(SectionKind::Other(offset, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::elf as gen;

    #[test]
    fn parses_default_corpus_file() {
        let file = gen::generate(&gen::Config::default());
        let parsed = parse(&file.bytes).unwrap();
        assert_eq!(parsed.shoff, file.summary.shoff);
        assert_eq!(parsed.shnum, file.summary.shnum as u64);
        assert_eq!(parsed.shstrndx, file.summary.shstrndx as u64);
        assert_eq!(parsed.sections.len(), file.summary.sections.len());
    }

    #[test]
    fn section_types_offsets_sizes_match_ground_truth() {
        let file = gen::generate(&gen::Config::default());
        let parsed = parse(&file.bytes).unwrap();
        for (sec, &(ty, ofs, sz)) in parsed.sections.iter().zip(&file.summary.sections) {
            assert_eq!(sec.sh_type, ty);
            assert_eq!(sec.offset, ofs);
            assert_eq!(sec.size, sz);
        }
    }

    #[test]
    fn section_names_resolve_via_shstrtab() {
        let file = gen::generate(&gen::Config::default());
        let parsed = parse(&file.bytes).unwrap();
        let names: Vec<Option<String>> = parsed.sections.iter().map(|s| s.name.clone()).collect();
        for (i, expected) in file.summary.section_names.iter().enumerate().skip(1) {
            assert_eq!(names[i].as_deref(), Some(expected.as_str()), "section {i}");
        }
    }

    #[test]
    fn symbols_and_names_match() {
        let file = gen::generate(&gen::Config { n_symbols: 5, ..Default::default() });
        let parsed = parse(&file.bytes).unwrap();
        let syms = parsed
            .sections
            .iter()
            .find_map(|s| match &s.kind {
                SectionKind::Symbols(v) => Some(v),
                _ => None,
            })
            .expect("symtab present");
        assert_eq!(syms.len(), 5);
        for (sym, expected) in syms.iter().zip(&file.summary.symbol_names) {
            assert_eq!(sym.name.as_deref(), Some(expected.as_str()));
        }
    }

    #[test]
    fn dynamic_entries_match() {
        let file = gen::generate(&gen::Config { n_dyn: 6, ..Default::default() });
        let parsed = parse(&file.bytes).unwrap();
        let dynamic = parsed
            .sections
            .iter()
            .find_map(|s| match &s.kind {
                SectionKind::Dynamic(v) => Some(v),
                _ => None,
            })
            .expect("dynamic present");
        assert_eq!(dynamic.len(), 6);
        assert_eq!(dynamic[3].0, 3, "d_tag cycles 0..30 in the corpus");
    }

    #[test]
    fn string_table_contents_match() {
        let file = gen::generate(&gen::Config { n_symbols: 4, ..Default::default() });
        let parsed = parse(&file.bytes).unwrap();
        // .strtab: leading empty string then the four names.
        let strtabs: Vec<&Vec<String>> = parsed
            .sections
            .iter()
            .filter_map(|s| match &s.kind {
                SectionKind::Strings(v) => Some(v),
                _ => None,
            })
            .collect();
        assert!(strtabs
            .iter()
            .any(|strings| { file.summary.symbol_names.iter().all(|n| strings.contains(n)) }));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let file = gen::generate(&gen::Config::default());
        let cut = &file.bytes[..file.bytes.len() - 7];
        assert!(parse(cut).is_err());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut file = gen::generate(&gen::Config::default()).bytes;
        file[1] = b'X';
        assert!(parse(&file).is_err());
    }
}
