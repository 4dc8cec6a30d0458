//! DNS: grammar access and typed extraction. Compression pointers are
//! *recognized* by the grammar and *resolved* here — name decompression is
//! a semantic property, like the paper's post-parse validation passes.

use crate::{field_table, flatten_chain, lossy, need, Chain, Child, Names};
use ipg_core::arena::{AttrSlot, NodeRef};
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/dns.ipg");

/// The checked DNS grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("dns").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("dns").vm()
}

/// A parsed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// Header flags.
    pub flags: u16,
    /// Question section.
    pub questions: Vec<DnsQuestion>,
    /// Answer section.
    pub answers: Vec<DnsRecord>,
}

/// One question.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsQuestion {
    /// Dotted name (pointers resolved).
    pub name: String,
    /// QTYPE.
    pub qtype: u16,
    /// QCLASS.
    pub qclass: u16,
}

/// One resource record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsRecord {
    /// Dotted name (pointers resolved).
    pub name: String,
    /// TYPE.
    pub rtype: u16,
    /// TTL.
    pub ttl: u32,
    /// Absolute span of the RDATA.
    pub rdata: (usize, usize),
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    hdr: Child,
    qs: Child,
    questions: Chain,
    answers: Child,
    records: Chain,
    q_name: Child,
    a_name: Child,
    rdata: Child,
    ptr: Child,
    label: Child,
    text: Child,
    name: Child,
    id: AttrSlot,
    flags: AttrSlot,
    qtype: AttrSlot,
    qclass: AttrSlot,
    atype: AttrSlot,
    ttl: AttrSlot,
    target: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "dns", |r: &Names<'_>| {
            Ok(Fields {
                hdr: r.child("DNS", "Hdr")?,
                qs: r.child("DNS", "Qs")?,
                questions: r.chain("Qs", "Q")?,
                answers: r.child("DNS", "As")?,
                records: r.chain("As", "A")?,
                q_name: r.child("Q", "Name")?,
                a_name: r.child("A", "Name")?,
                rdata: r.child("A", "RData")?,
                ptr: r.child("Name", "Ptr")?,
                label: r.child("Name", "Label")?,
                text: r.child("Label", "Text")?,
                name: r.child("Name", "Name")?,
                id: r.attr("Hdr", "id")?,
                flags: r.attr("Hdr", "flags")?,
                qtype: r.attr("Q", "qtype")?,
                qclass: r.attr("Q", "qclass")?,
                atype: r.attr("A", "atype")?,
                ttl: r.attr("A", "ttl")?,
                target: r.attr("Ptr", "target")?,
            })
        })
    }
}

/// Parses a message with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] on malformed messages; [`Error::Grammar`] on
/// unresolvable compression pointers.
pub fn parse(input: &[u8]) -> Result<DnsMessage> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let hdr = f.hdr.node(root).ok_or_else(|| Error::Grammar("extractor: missing header".into()))?;

    let mut questions = Vec::new();
    if let Some(qs) = f.qs.node(root) {
        for q in flatten_chain(qs, f.questions) {
            let name_node = f
                .q_name
                .node(q)
                .ok_or_else(|| Error::Grammar("extractor: question without name".into()))?;
            questions.push(DnsQuestion {
                name: resolve_name(f, input, name_node)?,
                qtype: need(q, f.qtype)? as u16,
                qclass: need(q, f.qclass)? as u16,
            });
        }
    }

    let mut answers = Vec::new();
    if let Some(asx) = f.answers.node(root) {
        for a in flatten_chain(asx, f.records) {
            let name_node = f
                .a_name
                .node(a)
                .ok_or_else(|| Error::Grammar("extractor: answer without name".into()))?;
            let rdata = f
                .rdata
                .node(a)
                .ok_or_else(|| Error::Grammar("extractor: answer without rdata".into()))?;
            answers.push(DnsRecord {
                name: resolve_name(f, input, name_node)?,
                rtype: need(a, f.atype)? as u16,
                ttl: need(a, f.ttl)? as u32,
                rdata: rdata.span(),
            });
        }
    }

    Ok(DnsMessage {
        id: need(hdr, f.id)? as u16,
        flags: need(hdr, f.flags)? as u16,
        questions,
        answers,
    })
}

/// Resolves a parsed `Name` node to a dotted string, chasing compression
/// pointers through the raw message (with a hop limit against pointer
/// loops — the semantic check the grammar itself cannot express).
fn resolve_name(f: &Fields, input: &[u8], name: NodeRef<'_>) -> Result<String> {
    let mut labels: Vec<String> = Vec::new();
    // Walk the in-tree part: Label children chain until NUL or pointer.
    let mut cur = name;
    let pointer_target: Option<usize> = loop {
        if let Some(ptr) = f.ptr.node(cur) {
            break Some(need(ptr, f.target)? as usize);
        }
        if let Some(label) = f.label.node(cur) {
            let text = f
                .text
                .node(label)
                .ok_or_else(|| Error::Grammar("extractor: label without text".into()))?;
            let (lo, hi) = text.span();
            labels.push(lossy(&input[lo..hi]));
            match f.name.node(cur) {
                Some(next) => cur = next,
                None => break None,
            }
        } else {
            break None; // NUL terminator
        }
    };

    // Chase pointers in the raw message.
    if let Some(mut offset) = pointer_target {
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > 64 {
                return Err(Error::Grammar("compression pointer loop".into()));
            }
            let &len = input
                .get(offset)
                .ok_or_else(|| Error::Grammar("pointer past end of message".into()))?;
            if len == 0 {
                break;
            }
            if len & 0xc0 == 0xc0 {
                let lo = *input
                    .get(offset + 1)
                    .ok_or_else(|| Error::Grammar("truncated pointer".into()))?;
                offset = ((len as usize & 0x3f) << 8) | lo as usize;
                continue;
            }
            let end = offset + 1 + len as usize;
            let bytes = input
                .get(offset + 1..end)
                .ok_or_else(|| Error::Grammar("label past end of message".into()))?;
            labels.push(lossy(bytes));
            offset = end;
        }
    }
    Ok(labels.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::dns as gen;

    #[test]
    fn parses_compressed_message() {
        let m = gen::generate(&gen::Config::default());
        let parsed = parse(&m.bytes).unwrap();
        assert_eq!(parsed.id, m.summary.id);
        assert_eq!(parsed.questions.len(), m.summary.questions.len());
        assert_eq!(parsed.answers.len(), m.summary.answers.len());
        for (q, expected) in parsed.questions.iter().zip(&m.summary.questions) {
            assert_eq!(&q.name, expected);
        }
        for (a, (name, _)) in parsed.answers.iter().zip(&m.summary.answers) {
            assert_eq!(&a.name, name, "pointer resolution");
        }
    }

    #[test]
    fn parses_uncompressed_message() {
        let m = gen::generate(&gen::Config { compress: false, ..Default::default() });
        let parsed = parse(&m.bytes).unwrap();
        for (a, (name, _)) in parsed.answers.iter().zip(&m.summary.answers) {
            assert_eq!(&a.name, name);
        }
    }

    #[test]
    fn rdata_spans_hold_the_addresses() {
        let m = gen::generate(&gen::Config::default());
        let parsed = parse(&m.bytes).unwrap();
        for (a, (_, ip)) in parsed.answers.iter().zip(&m.summary.answers) {
            assert_eq!(&m.bytes[a.rdata.0..a.rdata.1], ip);
        }
    }

    #[test]
    fn multiple_questions() {
        let m = gen::generate(&gen::Config { n_questions: 3, n_answers: 2, ..Default::default() });
        let parsed = parse(&m.bytes).unwrap();
        assert_eq!(parsed.questions.len(), 3);
        assert_eq!(parsed.answers.len(), 2);
    }

    #[test]
    fn wrong_counts_are_rejected() {
        let mut m = gen::generate(&gen::Config::default()).bytes;
        m[5] = 9; // claim 9 questions
        assert!(parse(&m).is_err());
    }

    #[test]
    fn truncated_message_rejected() {
        let m = gen::generate(&gen::Config::default());
        assert!(parse(&m.bytes[..m.bytes.len() - 3]).is_err());
    }
}
