//! IPv4+UDP: grammar access and typed extraction.

use crate::{field_table, need, Child, Names};
use ipg_core::arena::AttrSlot;
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::VmParser;
use std::sync::OnceLock;

/// The embedded `.ipg` specification.
pub const SPEC: &str = include_str!("../specs/ipv4udp.ipg");

/// The checked IPv4+UDP grammar.
pub fn grammar() -> &'static Grammar {
    crate::registry::corpus_entry("ipv4udp").grammar()
}

/// The compiled bytecode parser.
pub fn vm() -> &'static VmParser {
    crate::registry::corpus_entry("ipv4udp").vm()
}

/// A parsed datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ipv4UdpPacket {
    /// IPv4 header length in bytes.
    pub ihl: usize,
    /// IPv4 total length.
    pub total_len: u16,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// UDP source port.
    pub sport: u16,
    /// UDP destination port.
    pub dport: u16,
    /// UDP length field.
    pub udp_len: u16,
    /// Absolute span of the UDP payload.
    pub payload: (usize, usize),
}

/// What the extractor reads of the grammar's trees.
struct Fields {
    udp: Child,
    payload: Child,
    src: Child,
    dst: Child,
    ihl: AttrSlot,
    tot: AttrSlot,
    sport: AttrSlot,
    dport: AttrSlot,
    len: AttrSlot,
}

impl Fields {
    fn get() -> Result<&'static Fields> {
        static TABLE: OnceLock<Result<Fields>> = OnceLock::new();
        field_table(&TABLE, "ipv4udp", |r: &Names<'_>| {
            Ok(Fields {
                udp: r.child("Pkt", "UDP")?,
                payload: r.child("UDP", "Payload")?,
                src: r.child("Pkt", "Src")?,
                dst: r.child("Pkt", "Dst")?,
                ihl: r.attr("Pkt", "ihl")?,
                tot: r.attr("Pkt", "tot")?,
                sport: r.attr("UDP", "sport")?,
                dport: r.attr("UDP", "dport")?,
                len: r.attr("UDP", "len")?,
            })
        })
    }
}

/// Parses a datagram with the IPG grammar and extracts a typed view.
///
/// # Errors
///
/// [`Error::Parse`] when the input is not an IPv4+UDP datagram per the
/// grammar (wrong version, non-UDP protocol, inconsistent lengths).
pub fn parse(input: &[u8]) -> Result<Ipv4UdpPacket> {
    let f = Fields::get()?;
    let tree = vm().parse(input)?;
    let root = tree.root().as_node().expect("root is a node");
    let udp =
        f.udp.node(root).ok_or_else(|| Error::Grammar("extractor: missing UDP header".into()))?;
    let payload =
        f.payload.node(udp).ok_or_else(|| Error::Grammar("extractor: missing payload".into()))?;
    let src_node = f
        .src
        .node(root)
        .ok_or_else(|| Error::Grammar("extractor: missing source address".into()))?;
    let dst_node = f
        .dst
        .node(root)
        .ok_or_else(|| Error::Grammar("extractor: missing destination address".into()))?;
    let src: [u8; 4] = input[src_node.span().0..src_node.span().1].try_into().expect("4 bytes");
    let dst: [u8; 4] = input[dst_node.span().0..dst_node.span().1].try_into().expect("4 bytes");
    Ok(Ipv4UdpPacket {
        ihl: need(root, f.ihl)? as usize,
        total_len: need(root, f.tot)? as u16,
        src,
        dst,
        sport: need(udp, f.sport)? as u16,
        dport: need(udp, f.dport)? as u16,
        udp_len: need(udp, f.len)? as u16,
        payload: payload.span(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_corpus::ipv4udp as gen;

    #[test]
    fn parses_default_packet() {
        let p = gen::generate(&gen::Config::default());
        let parsed = parse(&p.bytes).unwrap();
        assert_eq!(parsed.ihl, p.summary.ihl_bytes);
        assert_eq!(parsed.total_len, p.summary.total_len);
        assert_eq!(parsed.src, p.summary.src);
        assert_eq!(parsed.dst, p.summary.dst);
        assert_eq!(parsed.sport, p.summary.sport);
        assert_eq!(parsed.dport, p.summary.dport);
        assert_eq!(parsed.payload.1 - parsed.payload.0, p.summary.payload_len);
    }

    #[test]
    fn options_shift_the_udp_header() {
        let p = gen::generate(&gen::Config { options_words: 4, ..Default::default() });
        let parsed = parse(&p.bytes).unwrap();
        assert_eq!(parsed.ihl, 20 + 16);
    }

    #[test]
    fn non_udp_protocol_rejected() {
        let mut p = gen::generate(&gen::Config::default()).bytes;
        p[9] = 6; // TCP
        assert!(parse(&p).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut p = gen::generate(&gen::Config::default()).bytes;
        p[0] = 0x65; // version 6
        assert!(parse(&p).is_err());
    }

    #[test]
    fn truncated_packet_rejected() {
        let p = gen::generate(&gen::Config::default());
        assert!(parse(&p.bytes[..20]).is_err());
    }
}
