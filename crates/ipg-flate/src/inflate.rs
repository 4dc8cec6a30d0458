//! DEFLATE decoding (RFC 1951).
//!
//! Two separate implementations:
//!
//! * the **fast path** ([`inflate`], [`inflate_with_limit`]) decodes via
//!   [`TableDecoder`] — two-level tables over a 64-bit refill, packed
//!   extra-bits, pre-reserved output, and chunked back-reference copies;
//! * the **slow path** ([`inflate_slow`], [`inflate_with_limit_slow`]) runs
//!   the frozen seed decoder (`src/seed.rs`), with its own bit reader,
//!   per-bit canonical Huffman walk and block, stored and header logic.
//!   It shares only the RFC's tables, the back-reference copy and the
//!   output capacity heuristic with this module, and is kept as the
//!   validation baseline (`tests/parity.rs` pins the two to byte-identical
//!   outputs, consumed counts, and errors; the bench crate's
//!   `inflate_speedup` test gates the gap at 3x).

use crate::bits::BitReader;
use crate::huffman::{
    entry_extra_bits, entry_symbol, fixed_distance_lengths, fixed_literal_lengths, TableDecoder,
};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;

/// Errors produced by [`inflate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InflateError {
    /// The bit stream ended prematurely.
    UnexpectedEof,
    /// Reserved block type 3.
    BadBlockType,
    /// Stored block length check (`LEN != !NLEN`).
    BadStoredLength,
    /// Invalid Huffman table description.
    BadHuffmanTable,
    /// A back-reference pointed before the start of output.
    BadDistance,
    /// Invalid literal/length or distance symbol.
    BadSymbol,
    /// Output exceeded the caller's limit.
    TooLarge,
}

impl fmt::Display for InflateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of deflate stream",
            InflateError::BadBlockType => "reserved deflate block type",
            InflateError::BadStoredLength => "stored block length mismatch",
            InflateError::BadHuffmanTable => "invalid huffman table",
            InflateError::BadDistance => "back-reference before output start",
            InflateError::BadSymbol => "invalid symbol",
            InflateError::TooLarge => "output exceeds size limit",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

/// Length-code base values and extra bits (codes 257..=285).
pub(crate) const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
pub(crate) const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];

/// Distance-code base values and extra bits (codes 0..=29).
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Order in which code-length code lengths are stored (RFC 1951 §3.2.7).
pub(crate) const CLCL_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// The litlen-table extra-bits mapping packed into [`TableDecoder`]
/// entries: length codes carry their RFC 1951 extra-bits count, literals
/// and end-of-block carry zero.
fn litlen_extra(sym: u16) -> u8 {
    match sym {
        257..=285 => LENGTH_EXTRA[(sym - 257) as usize],
        _ => 0,
    }
}

/// The distance-table extra-bits mapping.
fn dist_extra(sym: u16) -> u8 {
    if (sym as usize) < DIST_EXTRA.len() {
        DIST_EXTRA[sym as usize]
    } else {
        0
    }
}

/// The fixed-Huffman table pair, built once (the slow path rebuilds its
/// canonical decoders per block, exactly as the seed implementation did).
fn fixed_tables() -> &'static (TableDecoder, TableDecoder) {
    static TABLES: OnceLock<(TableDecoder, TableDecoder)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let lit = TableDecoder::from_lengths(&fixed_literal_lengths(), litlen_extra)
            .expect("fixed table is well-formed");
        let dist = TableDecoder::from_lengths(&fixed_distance_lengths(), dist_extra)
            .expect("fixed table is well-formed");
        (lit, dist)
    })
}

/// Decompresses a complete raw DEFLATE stream.
///
/// # Errors
///
/// See [`InflateError`].
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    inflate_with_limit(data, usize::MAX).map(|(out, _)| out)
}

/// Decompresses with an output size limit; returns the output and the
/// number of *input* bytes consumed (so ZIP entries without a trailing
/// marker can locate the next header).
///
/// # Errors
///
/// See [`InflateError`]; [`InflateError::TooLarge`] when the output would
/// exceed `limit`.
pub fn inflate_with_limit(data: &[u8], limit: usize) -> Result<(Vec<u8>, usize), InflateError> {
    let mut r = BitReader::new(data);
    let mut out: Vec<u8> = Vec::with_capacity(initial_capacity(data.len(), limit));
    loop {
        let bfinal = r.bit().ok_or(InflateError::UnexpectedEof)?;
        let btype = r.bits(2).ok_or(InflateError::UnexpectedEof)?;
        match btype {
            0 => inflate_stored(&mut r, &mut out, limit)?,
            1 => {
                let (lit, dist) = fixed_tables();
                inflate_block_fast(&mut r, lit, dist, &mut out, limit)?;
            }
            2 => {
                let (lengths, hlit) = read_dynamic_lengths(&mut r)?;
                let tables = dynamic_tables(&lengths, hlit)?;
                inflate_block_fast(&mut r, &tables.0, &tables.1, &mut out, limit)?;
            }
            _ => return Err(InflateError::BadBlockType),
        }
        if bfinal == 1 {
            break;
        }
    }
    Ok((out, r.bytes_consumed().min(data.len())))
}

/// Slow-path counterpart of [`inflate`]: the frozen seed decoder (see
/// `src/seed.rs`), kept as the validation baseline and the benchmark
/// reference.
///
/// # Errors
///
/// See [`InflateError`].
pub fn inflate_slow(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    inflate_with_limit_slow(data, usize::MAX).map(|(out, _)| out)
}

/// Slow-path counterpart of [`inflate_with_limit`].
///
/// # Errors
///
/// See [`InflateError`].
pub fn inflate_with_limit_slow(
    data: &[u8],
    limit: usize,
) -> Result<(Vec<u8>, usize), InflateError> {
    crate::seed::inflate_with_limit(data, limit)
}

/// A sane starting capacity: DEFLATE rarely exceeds ~4:1 on the corpora we
/// decode, and the cap at `limit` keeps hostile tiny-input/huge-limit
/// combinations from over-allocating.
pub(crate) fn initial_capacity(input_len: usize, limit: usize) -> usize {
    limit.min(4 * input_len)
}

/// How many dynamic table pairs to keep per thread.
const TABLE_CACHE_SIZE: usize = 8;

/// One cache slot: the length profile and its `hlit` split, plus the
/// tables built from them.
type CachedTables = (Vec<u8>, usize, Rc<(TableDecoder, TableDecoder)>);

thread_local! {
    /// Recently built dynamic table pairs, keyed by the *exact* code-length
    /// profile. ZIP archives routinely hold many members compressed with
    /// identical tables (the synthetic corpus's identical-payload entries
    /// are the extreme case), so re-decoding skips the table build
    /// entirely. Keys are compared in full — a lookup can never pair a
    /// stream with the wrong tables.
    static TABLE_CACHE: RefCell<Vec<CachedTables>> = const { RefCell::new(Vec::new()) };
}

/// The table pair for a dynamic block's length profile, from cache or
/// freshly built.
fn dynamic_tables(
    lengths: &[u8],
    hlit: usize,
) -> Result<Rc<(TableDecoder, TableDecoder)>, InflateError> {
    TABLE_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(hit) =
            cache.iter().find(|(k, kh, _)| *kh == hlit && k[..] == *lengths).map(|(_, _, t)| t)
        {
            return Ok(Rc::clone(hit));
        }
        let lit = TableDecoder::from_lengths(&lengths[..hlit], litlen_extra)
            .ok_or(InflateError::BadHuffmanTable)?;
        let dist = TableDecoder::from_lengths(&lengths[hlit..], dist_extra)
            .ok_or(InflateError::BadHuffmanTable)?;
        let tables = Rc::new((lit, dist));
        if cache.len() == TABLE_CACHE_SIZE {
            cache.remove(0);
        }
        cache.push((lengths.to_vec(), hlit, Rc::clone(&tables)));
        Ok(tables)
    })
}

/// A stored block: `LEN`/`NLEN` after byte alignment, then raw bytes
/// bulk-copied into `out`.
fn inflate_stored(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), InflateError> {
    r.align_byte();
    let len = r.bits(16).ok_or(InflateError::UnexpectedEof)?;
    let nlen = r.bits(16).ok_or(InflateError::UnexpectedEof)?;
    if len != !nlen & 0xffff {
        return Err(InflateError::BadStoredLength);
    }
    let len = len as usize;
    if out.len() + len > limit {
        return Err(InflateError::TooLarge);
    }
    if !r.copy_aligned_bytes(len, out) {
        return Err(InflateError::UnexpectedEof);
    }
    Ok(())
}

/// Reads the dynamic-table header (RFC 1951 §3.2.7), returning the
/// combined code-length vector and the literal/length count `hlit` (so
/// both decoder flavours can be built from one parse).
fn read_dynamic_lengths(r: &mut BitReader<'_>) -> Result<(Vec<u8>, usize), InflateError> {
    let hlit = r.bits(5).ok_or(InflateError::UnexpectedEof)? as usize + 257;
    let hdist = r.bits(5).ok_or(InflateError::UnexpectedEof)? as usize + 1;
    let hclen = r.bits(4).ok_or(InflateError::UnexpectedEof)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadHuffmanTable);
    }

    let mut clcl = [0u8; 19];
    for &idx in CLCL_ORDER.iter().take(hclen) {
        clcl[idx] = r.bits(3).ok_or(InflateError::UnexpectedEof)? as u8;
    }
    // Code-length codes are at most 7 bits, so this builds a tiny
    // single-level table; it accepts exactly what `Decoder` accepts.
    let cl_dec = TableDecoder::from_lengths(&clcl, |_| 0).ok_or(InflateError::BadHuffmanTable)?;

    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let sym = cl_dec.decode(r).ok_or(InflateError::UnexpectedEof)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let &prev = lengths.last().ok_or(InflateError::BadHuffmanTable)?;
                let n = 3 + r.bits(2).ok_or(InflateError::UnexpectedEof)?;
                lengths.extend(std::iter::repeat_n(prev, n as usize));
            }
            17 => {
                let n = 3 + r.bits(3).ok_or(InflateError::UnexpectedEof)?;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            18 => {
                let n = 11 + r.bits(7).ok_or(InflateError::UnexpectedEof)?;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(InflateError::BadHuffmanTable);
    }
    Ok((lengths, hlit))
}

/// Appends a length-`len` back-reference at `distance`.
///
/// Three regimes, cheapest first: matches short enough that a `memcpy`
/// call costs more than the moved bytes go byte-by-byte; distance-1 runs
/// are a `resize` (memset); everything else bulk-copies via
/// `extend_from_within`, with the careful overlapping fallback — when
/// `distance < len` the copied window doubles each round, so even long
/// small-period runs need only O(log len) copies.
#[inline]
pub(crate) fn copy_match(out: &mut Vec<u8>, distance: usize, len: usize) {
    debug_assert!(distance >= 1 && distance <= out.len());
    let start = out.len() - distance;
    if len <= 8 && distance >= len {
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    } else if distance == 1 {
        let b = out[out.len() - 1];
        let n = out.len();
        out.resize(n + len, b);
    } else {
        let mut remaining = len;
        while remaining > 0 {
            let chunk = (out.len() - start).min(remaining);
            out.extend_from_within(start..start + chunk);
            remaining -= chunk;
        }
    }
}

/// The table-driven hot loop, with libdeflate's refill discipline: one
/// [`BitReader::refill`] per outer iteration guarantees 56 buffered bits
/// (input permitting), enough for `56 / max_code_len` literal codes — or
/// one literal/length code plus, after a second refill in the match arm,
/// its extra bits, the distance code, and the distance extra bits (at most
/// 5 + 15 + 13 = 33 bits). All decoding below therefore uses raw
/// (refill-free) peeks; packed entries carry the extra-bits count so the
/// `LENGTH_EXTRA`/`DIST_EXTRA` tables are never consulted. Every error
/// maps exactly as the seed decoder's block loop does.
fn inflate_block_fast(
    r: &mut BitReader<'_>,
    lit: &TableDecoder,
    dist: &TableDecoder,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), InflateError> {
    // How many literal code words one refill is guaranteed to cover
    // (`max(1)` keeps the degenerate empty table from dividing by zero —
    // its decode fails immediately anyway).
    let batch_max = 56 / lit.max_code_len().max(1);
    loop {
        r.refill();
        let mut batch = 0;
        loop {
            let entry = lit.decode_entry(r).ok_or(InflateError::UnexpectedEof)?;
            let sym = entry_symbol(entry);
            if sym <= 255 {
                if out.len() >= limit {
                    return Err(InflateError::TooLarge);
                }
                out.push(sym as u8);
                batch += 1;
                if batch == batch_max {
                    break;
                }
                continue;
            }
            if sym == 256 {
                return Ok(());
            }
            if sym > 285 {
                return Err(InflateError::BadSymbol);
            }
            r.refill();
            let extra = entry_extra_bits(entry);
            let len = LENGTH_BASE[(sym - 257) as usize] as usize
                + take_raw(r, extra).ok_or(InflateError::UnexpectedEof)? as usize;
            let dentry = dist.decode_entry(r).ok_or(InflateError::UnexpectedEof)?;
            let dsym = entry_symbol(dentry) as usize;
            if dsym >= 30 {
                return Err(InflateError::BadSymbol);
            }
            let dextra = entry_extra_bits(dentry);
            let distance = DIST_BASE[dsym] as usize
                + take_raw(r, dextra).ok_or(InflateError::UnexpectedEof)? as usize;
            if distance > out.len() {
                return Err(InflateError::BadDistance);
            }
            if out.len() + len > limit {
                return Err(InflateError::TooLarge);
            }
            copy_match(out, distance, len);
            break;
        }
    }
}

/// Reads `count` bits under the hot loop's refill contract (no refill
/// branch; the caller refilled within the last 48 bits).
#[inline]
fn take_raw(r: &mut BitReader<'_>, count: u32) -> Option<u32> {
    let v = r.peek_raw(count);
    if r.consume(count) {
        Some(v)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stored block of "abc" assembled by hand:
    /// BFINAL=1, BTYPE=00, align, LEN=3, NLEN=!3, bytes.
    #[test]
    fn stored_block_by_hand() {
        let data = [0x01, 0x03, 0x00, 0xfc, 0xff, b'a', b'b', b'c'];
        assert_eq!(inflate(&data).unwrap(), b"abc");
    }

    #[test]
    fn stored_length_check_detects_corruption() {
        let data = [0x01, 0x03, 0x00, 0xfd, 0xff, b'a', b'b', b'c'];
        assert_eq!(inflate(&data).unwrap_err(), InflateError::BadStoredLength);
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        let data = [0b0000_0111];
        assert_eq!(inflate(&data).unwrap_err(), InflateError::BadBlockType);
    }

    #[test]
    fn empty_input_is_eof() {
        assert_eq!(inflate(&[]).unwrap_err(), InflateError::UnexpectedEof);
    }

    #[test]
    fn fixed_block_empty_stream() {
        // BFINAL=1, BTYPE=01, end-of-block (code 256 = 7 zero bits).
        use crate::bits::BitWriter;
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(1, 2);
        w.huffman_code(0, 7); // symbol 256 in the fixed table
        let data = w.finish();
        assert_eq!(inflate(&data).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn back_reference_before_start_rejected() {
        use crate::bits::BitWriter;
        use crate::huffman::codes_from_lengths;
        let codes = codes_from_lengths(&crate::huffman::fixed_literal_lengths());
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(1, 2);
        // length code 257 (len 3) with distance 1 — but output is empty.
        let (c, l) = codes[257];
        w.huffman_code(c, l as u32);
        w.huffman_code(0, 5); // distance code 0 = distance 1
        let data = w.finish();
        assert_eq!(inflate(&data).unwrap_err(), InflateError::BadDistance);
    }

    #[test]
    fn output_limit_enforced() {
        let data = [0x01, 0x03, 0x00, 0xfc, 0xff, b'a', b'b', b'c'];
        assert_eq!(inflate_with_limit(&data, 2).unwrap_err(), InflateError::TooLarge);
    }

    #[test]
    fn consumed_bytes_reported() {
        let mut data = vec![0x01, 0x03, 0x00, 0xfc, 0xff, b'a', b'b', b'c'];
        data.extend_from_slice(b"TRAILING");
        let (out, consumed) = inflate_with_limit(&data, usize::MAX).unwrap();
        assert_eq!(out, b"abc");
        assert_eq!(consumed, 8);
    }

    #[test]
    fn multiple_blocks() {
        // Two stored blocks: "ab" (not final) then "c" (final).
        let data = [
            0x00, 0x02, 0x00, 0xfd, 0xff, b'a', b'b', // BFINAL=0
            0x01, 0x01, 0x00, 0xfe, 0xff, b'c', // BFINAL=1
        ];
        assert_eq!(inflate(&data).unwrap(), b"abc");
    }
}
