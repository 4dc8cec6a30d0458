//! The frozen *seed decoder*: the DEFLATE decoder exactly as it stood
//! before the table-driven fast path landed — a byte-at-a-time bit-buffer
//! refill feeding a per-bit canonical Huffman walk.
//!
//! It is deliberately **not** shared with the fast path's plumbing: an
//! independent bit reader and decoder mean the differential and parity
//! suites compare two genuinely separate implementations, and the
//! bench crate's `inflate_speedup` timing gate measures the fast path
//! against the real seed rather than against a seed that silently
//! inherits the new 64-bit refill. The only deviations from the seed
//! source are two fixes that apply to both paths: output is pre-reserved
//! via [`crate::inflate`]'s capacity heuristic, and back-references copy
//! in chunks instead of byte-at-a-time pushes.
//!
//! Observable behaviour (outputs, consumed counts, error values) is
//! identical to the fast path; `tests/parity.rs` pins this.

use crate::huffman::{fixed_distance_lengths, fixed_literal_lengths};
use crate::inflate::{
    copy_match, initial_capacity, InflateError, CLCL_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE,
    LENGTH_EXTRA,
};

/// The seed's LSB-first bit reader: byte-at-a-time refill, mask-per-call
/// reads.
struct SeedBitReader<'a> {
    data: &'a [u8],
    pos: usize,
    buf: u64,
    n: u32,
}

impl<'a> SeedBitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        SeedBitReader { data, pos: 0, buf: 0, n: 0 }
    }

    fn refill(&mut self) {
        while self.n <= 56 && self.pos < self.data.len() {
            self.buf |= (self.data[self.pos] as u64) << self.n;
            self.pos += 1;
            self.n += 8;
        }
    }

    fn bits(&mut self, count: u32) -> Option<u32> {
        debug_assert!(count <= 32);
        if self.n < count {
            self.refill();
            if self.n < count {
                return None;
            }
        }
        let v = (self.buf & ((1u64 << count) - 1)) as u32;
        let v = if count == 0 { 0 } else { v };
        self.buf >>= count;
        self.n -= count;
        Some(v)
    }

    fn bit(&mut self) -> Option<u32> {
        self.bits(1)
    }

    fn align_byte(&mut self) {
        let drop = self.n % 8;
        self.buf >>= drop;
        self.n -= drop;
    }

    fn bytes(&mut self, count: usize) -> Option<Vec<u8>> {
        self.align_byte();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.bits(8)? as u8);
        }
        Some(out)
    }

    fn bytes_consumed(&self) -> usize {
        self.pos - (self.n / 8) as usize
    }
}

/// The seed's canonical Huffman decoder: per-bit first-code walk.
struct SeedDecoder {
    first_code: [u32; 16],
    first_index: [u32; 16],
    count: [u32; 16],
    symbols: Vec<u16>,
}

impl SeedDecoder {
    fn from_lengths(lengths: &[u8]) -> Option<SeedDecoder> {
        let mut count = [0u32; 16];
        for &l in lengths {
            if l > 15 {
                return None;
            }
            count[l as usize] += 1;
        }
        count[0] = 0;

        let mut available = 1u32;
        for &n in &count[1..16] {
            available = available.checked_mul(2)?;
            if n > available {
                return None;
            }
            available -= n;
        }

        let mut first_code = [0u32; 16];
        let mut first_index = [0u32; 16];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..16 {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }

        let mut symbols = vec![0u16; index as usize];
        let mut next = first_index;
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize] as usize] = sym as u16;
                next[l as usize] += 1;
            }
        }
        Some(SeedDecoder { first_code, first_index, count, symbols })
    }

    fn decode(&self, r: &mut SeedBitReader<'_>) -> Option<u16> {
        let mut code = 0u32;
        for len in 1..16usize {
            code = (code << 1) | r.bit()?;
            let rel = code.wrapping_sub(self.first_code[len]);
            if rel < self.count[len] {
                return Some(self.symbols[(self.first_index[len] + rel) as usize]);
            }
        }
        None
    }
}

/// The seed decompressor (see [`crate::inflate_with_limit_slow`]).
pub(crate) fn inflate_with_limit(
    data: &[u8],
    limit: usize,
) -> Result<(Vec<u8>, usize), InflateError> {
    let mut r = SeedBitReader::new(data);
    let mut out: Vec<u8> = Vec::with_capacity(initial_capacity(data.len(), limit));
    loop {
        let bfinal = r.bit().ok_or(InflateError::UnexpectedEof)?;
        let btype = r.bits(2).ok_or(InflateError::UnexpectedEof)?;
        match btype {
            0 => {
                let len = {
                    r.align_byte();
                    let len = r.bits(16).ok_or(InflateError::UnexpectedEof)?;
                    let nlen = r.bits(16).ok_or(InflateError::UnexpectedEof)?;
                    if len != !nlen & 0xffff {
                        return Err(InflateError::BadStoredLength);
                    }
                    len as usize
                };
                if out.len() + len > limit {
                    return Err(InflateError::TooLarge);
                }
                let bytes = r.bytes(len).ok_or(InflateError::UnexpectedEof)?;
                out.extend_from_slice(&bytes);
            }
            1 => {
                let lit = SeedDecoder::from_lengths(&fixed_literal_lengths())
                    .expect("fixed table is well-formed");
                let dist = SeedDecoder::from_lengths(&fixed_distance_lengths())
                    .expect("fixed table is well-formed");
                inflate_block(&mut r, &lit, &dist, &mut out, limit)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out, limit)?;
            }
            _ => return Err(InflateError::BadBlockType),
        }
        if bfinal == 1 {
            break;
        }
    }
    Ok((out, r.bytes_consumed().min(data.len())))
}

fn read_dynamic_tables(
    r: &mut SeedBitReader<'_>,
) -> Result<(SeedDecoder, SeedDecoder), InflateError> {
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
    let cl_dec = SeedDecoder::from_lengths(&clcl).ok_or(InflateError::BadHuffmanTable)?;

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
    let lit = SeedDecoder::from_lengths(&lengths[..hlit]).ok_or(InflateError::BadHuffmanTable)?;
    let dist = SeedDecoder::from_lengths(&lengths[hlit..]).ok_or(InflateError::BadHuffmanTable)?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut SeedBitReader<'_>,
    lit: &SeedDecoder,
    dist: &SeedDecoder,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r).ok_or(InflateError::UnexpectedEof)?;
        match sym {
            0..=255 => {
                if out.len() >= limit {
                    return Err(InflateError::TooLarge);
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let idx = (sym - 257) as usize;
                let extra = LENGTH_EXTRA[idx] as u32;
                let len = LENGTH_BASE[idx] as usize
                    + r.bits(extra).ok_or(InflateError::UnexpectedEof)? as usize;
                let dsym = dist.decode(r).ok_or(InflateError::UnexpectedEof)? as usize;
                if dsym >= 30 {
                    return Err(InflateError::BadSymbol);
                }
                let dextra = DIST_EXTRA[dsym] as u32;
                let distance = DIST_BASE[dsym] as usize
                    + r.bits(dextra).ok_or(InflateError::UnexpectedEof)? as usize;
                if distance > out.len() {
                    return Err(InflateError::BadDistance);
                }
                if out.len() + len > limit {
                    return Err(InflateError::TooLarge);
                }
                copy_match(out, distance, len);
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}
