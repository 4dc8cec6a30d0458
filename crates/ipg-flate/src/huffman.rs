//! Canonical Huffman codes as used by DEFLATE (RFC 1951 §3.2.2).
//!
//! Two decoders are provided: [`TableDecoder`], a libdeflate-style table
//! decoder (a root table sized to the profile's longest code, capped at 11
//! bits, plus overflow subtables for deeper codes) used by the fast
//! inflate path, and [`Decoder`], the per-bit canonical walk, which no
//! inflate path uses: it is the tests' reference (the seed decoder behind
//! `inflate_slow` has its own). Both are built from the same validated
//! length profiles and must agree symbol-for-symbol;
//! `tests/differential.rs` checks this on randomized profiles.

use crate::bits::BitReader;

/// A canonical Huffman decoder built from code lengths.
#[derive(Clone, Debug)]
pub struct Decoder {
    /// `first_code[len]` — the first canonical code of each length.
    first_code: [u32; 16],
    /// `first_index[len]` — index into `symbols` of that code.
    first_index: [u32; 16],
    /// `count[len]` — number of codes of each length.
    count: [u32; 16],
    /// Symbols ordered by (length, symbol).
    symbols: Vec<u16>,
}

impl Decoder {
    /// Builds a decoder from per-symbol code lengths (0 = unused).
    ///
    /// Returns `None` for over-subscribed length profiles (more codes of
    /// some length than the prefix space allows). Incomplete codes are
    /// accepted, matching zlib's behaviour for the degenerate one-symbol
    /// distance trees real encoders emit.
    pub fn from_lengths(lengths: &[u8]) -> Option<Decoder> {
        let count = validated_length_counts(lengths)?;

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
        Some(Decoder { first_code, first_index, count, symbols })
    }

    /// Decodes one symbol from the bit stream (`None` on exhausted input
    /// or invalid code).
    pub fn decode(&self, r: &mut BitReader<'_>) -> Option<u16> {
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

/// Per-length code counts, validated: no length above 15, no
/// over-subscribed prefix space. Incomplete codes are accepted (see
/// [`Decoder::from_lengths`]). Shared by both decoder builders so they
/// accept exactly the same profiles.
fn validated_length_counts(lengths: &[u8]) -> Option<[u32; 16]> {
    let mut count = [0u32; 16];
    for &l in lengths {
        if l > 15 {
            return None;
        }
        count[l as usize] += 1;
    }
    count[0] = 0;

    // Over-subscription check.
    let mut available = 1u32;
    for &n in &count[1..16] {
        available = available.checked_mul(2)?;
        if n > available {
            return None;
        }
        available -= n;
    }
    Some(count)
}

/// Reverses the low `len` bits of `code` (DEFLATE stores Huffman codes
/// MSB-first within the LSB-first bit stream).
#[inline]
fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// A packed decode table: a root table indexed by the next `root_bits`
/// input bits, with codes longer than that spilling into per-prefix
/// subtables appended after the root. `root_bits` adapts to the profile
/// (the longest code, capped at [`TableDecoder::MAX_ROOT_BITS`]), so
/// typical dynamic blocks decode every symbol with a *single* table load
/// and no subtable branch.
///
/// Entry layout (`u32`):
///
/// * bits 0–4 — bits to consume: the full code length for symbol entries,
///   the subtable's index width for pointer entries. `0` marks an entry no
///   code maps to (invalid / incomplete-code hole).
/// * bits 5–8 — the symbol's DEFLATE *extra bits* count, pre-resolved at
///   build time so the hot loop never touches the length/distance
///   extra-bits tables.
/// * bit 15 — set on root entries that point at a subtable.
/// * bits 16–31 — the decoded symbol, or the subtable's start index for
///   pointer entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDecoder {
    table: Vec<u32>,
    root_bits: u32,
    max_len: u32,
}

const ENTRY_CONSUME_MASK: u32 = 0x1f;
const ENTRY_EXTRA_SHIFT: u32 = 5;
const ENTRY_EXTRA_MASK: u32 = 0xf;
const ENTRY_SUBTABLE: u32 = 1 << 15;

#[inline]
fn pack_entry(sym: u16, consume: u32, extra: u8) -> u32 {
    debug_assert!((1..=15).contains(&consume));
    debug_assert!(extra <= 13);
    ((sym as u32) << 16) | ((extra as u32) << ENTRY_EXTRA_SHIFT) | consume
}

impl TableDecoder {
    /// Upper bound on the root index width. 11 bits keeps the root table
    /// at 8 KiB while covering the longest codes zlib emits in practice,
    /// so subtables only appear for unusually deep dynamic profiles.
    pub const MAX_ROOT_BITS: u32 = 11;

    /// Builds a table decoder from per-symbol code lengths, accepting and
    /// rejecting exactly the profiles [`Decoder::from_lengths`] does.
    /// `extra_bits(sym)` supplies the pre-resolved extra-bits count packed
    /// into each entry (zero for tables without extra bits).
    ///
    /// The build is allocation-lean — one table allocation, canonical
    /// codes computed in-place from the length histogram — because dynamic
    /// blocks pay it per block.
    pub fn from_lengths(lengths: &[u8], extra_bits: impl Fn(u16) -> u8) -> Option<TableDecoder> {
        let count = validated_length_counts(lengths)?;
        let max_len = (1..16).rev().find(|&l| count[l] > 0).unwrap_or(0) as u32;
        let root_bits = max_len.clamp(1, Self::MAX_ROOT_BITS);
        let root_size = 1usize << root_bits;

        let mut next_code = [0u32; 16];
        let mut code = 0u32;
        for len in 1..16 {
            code = (code + count[len - 1]) << 1;
            next_code[len] = code;
        }

        if max_len <= root_bits {
            // Single-level table (the common case): one pass, replicating
            // each code across all root indices sharing its low bits.
            let mut table = vec![0u32; root_size];
            let mut nc = next_code;
            for (sym, &l) in lengths.iter().enumerate() {
                if l == 0 {
                    continue;
                }
                let len = l as u32;
                let c = nc[l as usize];
                nc[l as usize] += 1;
                let entry = pack_entry(sym as u16, len, extra_bits(sym as u16));
                let mut i = reverse_bits(c, len) as usize;
                let step = 1usize << len;
                while i < root_size {
                    table[i] = entry;
                    i += step;
                }
            }
            return Some(TableDecoder { table, root_bits, max_len });
        }

        // Deep profiles: size every subtable first (one per root prefix in
        // use, sized for the longest code sharing that prefix), then fill
        // into a single allocation.
        let mut sub_bits_of = vec![0u8; root_size];
        let mut nc = next_code;
        for &l in lengths {
            if l == 0 {
                continue;
            }
            let len = l as u32;
            let c = nc[l as usize];
            nc[l as usize] += 1;
            if len > root_bits {
                let prefix = (reverse_bits(c, len) as usize) & (root_size - 1);
                sub_bits_of[prefix] = sub_bits_of[prefix].max((len - root_bits) as u8);
            }
        }
        let total: usize = sub_bits_of.iter().map(|&b| if b > 0 { 1usize << b } else { 0 }).sum();
        let mut table = vec![0u32; root_size + total];
        let mut offset = root_size;
        for (prefix, &sub_bits) in sub_bits_of.iter().enumerate() {
            if sub_bits > 0 {
                debug_assert!(offset < (1 << 16), "deflate tables stay well under 2^16 entries");
                table[prefix] = ((offset as u32) << 16) | ENTRY_SUBTABLE | sub_bits as u32;
                offset += 1 << sub_bits;
            }
        }
        let mut nc = next_code;
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let len = l as u32;
            let c = nc[l as usize];
            nc[l as usize] += 1;
            let entry = pack_entry(sym as u16, len, extra_bits(sym as u16));
            let rev = reverse_bits(c, len);
            if len <= root_bits {
                let mut i = rev as usize;
                let step = 1usize << len;
                while i < root_size {
                    table[i] = entry;
                    i += step;
                }
            } else {
                let prefix = (rev as usize) & (root_size - 1);
                let sub_bits = sub_bits_of[prefix] as u32;
                let sub_offset = (table[prefix] >> 16) as usize;
                let mut i = (rev >> root_bits) as usize;
                let step = 1usize << (len - root_bits);
                while i < (1 << sub_bits) {
                    table[sub_offset + i] = entry;
                    i += step;
                }
            }
        }

        Some(TableDecoder { table, root_bits, max_len })
    }

    /// Decodes one code word, returning its packed entry with the code's
    /// bits consumed; `None` on exhausted input or a code no symbol maps
    /// to. Extract fields with [`entry_symbol`] and [`entry_extra_bits`].
    ///
    /// Refill contract: the caller must [`BitReader::refill`] beforehand
    /// (code words are at most 15 bits); this keeps the refill branch out
    /// of the decode itself so the hot loop refills once per iteration.
    #[inline]
    pub fn decode_entry(&self, r: &mut BitReader<'_>) -> Option<u32> {
        let root_bits = self.root_bits;
        let root = &self.table[..1usize << root_bits];
        // `idx & (len - 1)` is never ≥ len, so the indexing below is
        // bounds-check-free in the common single-level case.
        let mut entry = root[(r.peek_raw(root_bits) as usize) & (root.len() - 1)];
        if entry & ENTRY_SUBTABLE != 0 {
            let sub_bits = entry & ENTRY_CONSUME_MASK;
            let offset = (entry >> 16) as usize;
            let idx = (r.peek_raw(root_bits + sub_bits) >> root_bits) as usize;
            entry = self.table[offset + idx];
        }
        let consume = entry & ENTRY_CONSUME_MASK;
        if consume == 0 || !r.consume(consume) {
            return None;
        }
        Some(entry)
    }

    /// The longest code in the table (0 for an empty table); callers use
    /// it to bound how many code words one refill can cover.
    #[inline]
    pub fn max_code_len(&self) -> u32 {
        self.max_len
    }

    /// Decodes one symbol (the table-driven equivalent of
    /// [`Decoder::decode`]); refills internally.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Option<u16> {
        r.refill();
        self.decode_entry(r).map(entry_symbol)
    }
}

/// The symbol of a packed entry returned by [`TableDecoder::decode_entry`].
#[inline]
pub fn entry_symbol(entry: u32) -> u16 {
    (entry >> 16) as u16
}

/// The pre-resolved extra-bits count of a packed entry.
#[inline]
pub fn entry_extra_bits(entry: u32) -> u32 {
    (entry >> ENTRY_EXTRA_SHIFT) & ENTRY_EXTRA_MASK
}

/// The canonical (code, length) for each symbol — the encoder-side view.
pub fn codes_from_lengths(lengths: &[u8]) -> Vec<(u32, u8)> {
    let mut count = [0u32; 16];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next_code = [0u32; 16];
    let mut code = 0u32;
    for len in 1..16 {
        code = (code + count[len - 1]) << 1;
        next_code[len] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c, l)
            }
        })
        .collect()
}

/// The fixed literal/length code lengths of RFC 1951 §3.2.6.
pub fn fixed_literal_lengths() -> Vec<u8> {
    let mut lengths = vec![8u8; 288];
    for l in lengths.iter_mut().take(256).skip(144) {
        *l = 9;
    }
    for l in lengths.iter_mut().take(280).skip(256) {
        *l = 7;
    }
    lengths
}

/// The fixed distance code lengths (all 5 bits).
pub fn fixed_distance_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    #[test]
    fn canonical_assignment_matches_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = codes_from_lengths(&lengths);
        let expected = [
            (0b010, 3),
            (0b011, 3),
            (0b100, 3),
            (0b101, 3),
            (0b110, 3),
            (0b00, 2),
            (0b1110, 4),
            (0b1111, 4),
        ];
        for (i, &(c, l)) in expected.iter().enumerate() {
            assert_eq!(codes[i], (c, l as u8), "symbol {i}");
        }
    }

    #[test]
    fn decoder_roundtrips_all_symbols() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let codes = codes_from_lengths(&lengths);
        for sym in 0..8u16 {
            let (c, l) = codes[sym as usize];
            let mut w = BitWriter::new();
            w.huffman_code(c, l as u32);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(dec.decode(&mut r), Some(sym));
        }
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three codes of length 1 cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_none());
        assert!(Decoder::from_lengths(&[16]).is_none());
    }

    #[test]
    fn incomplete_code_accepted() {
        // A single 1-bit code (zlib accepts this for distance trees).
        let dec = Decoder::from_lengths(&[1]).unwrap();
        let mut w = BitWriter::new();
        w.huffman_code(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r), Some(0));
    }

    #[test]
    fn fixed_tables_have_rfc_shape() {
        let lit = fixed_literal_lengths();
        assert_eq!(lit.len(), 288);
        assert_eq!(lit[0], 8);
        assert_eq!(lit[144], 9);
        assert_eq!(lit[255], 9);
        assert_eq!(lit[256], 7);
        assert_eq!(lit[279], 7);
        assert_eq!(lit[280], 8);
        assert_eq!(fixed_distance_lengths(), vec![5u8; 30]);
    }

    #[test]
    fn decode_fails_on_truncated_input() {
        let dec = Decoder::from_lengths(&[2, 2, 2, 2]).unwrap();
        let mut r = BitReader::new(&[]);
        assert_eq!(dec.decode(&mut r), None);
    }

    fn table(lengths: &[u8]) -> Option<TableDecoder> {
        TableDecoder::from_lengths(lengths, |_| 0)
    }

    #[test]
    fn table_decoder_roundtrips_all_symbols() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let dec = table(&lengths).unwrap();
        let codes = codes_from_lengths(&lengths);
        for sym in 0..8u16 {
            let (c, l) = codes[sym as usize];
            let mut w = BitWriter::new();
            w.huffman_code(c, l as u32);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(dec.decode(&mut r), Some(sym));
        }
    }

    #[test]
    fn table_decoder_uses_subtables_for_long_codes() {
        // A skewed profile with codes longer than the 9-bit root.
        let mut lengths = vec![1u8];
        for l in 2..=12u8 {
            lengths.push(l);
        }
        lengths.push(12); // complete the code space
        let dec = table(&lengths).unwrap();
        let codes = codes_from_lengths(&lengths);
        for (sym, &(c, l)) in codes.iter().enumerate() {
            let mut w = BitWriter::new();
            w.huffman_code(c, l as u32);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(dec.decode(&mut r), Some(sym as u16), "symbol {sym} (len {l})");
        }
    }

    #[test]
    fn table_decoder_rejects_what_canonical_rejects() {
        assert!(table(&[1, 1, 1]).is_none());
        assert!(table(&[16]).is_none());
        // …and accepts the degenerate one-symbol code, like zlib.
        let dec = table(&[1]).unwrap();
        let mut r = BitReader::new(&[0b0]);
        assert_eq!(dec.decode(&mut r), Some(0));
        // The unassigned half of the code space is an invalid code.
        let mut r = BitReader::new(&[0b1]);
        assert_eq!(dec.decode(&mut r), None);
    }

    #[test]
    fn table_entries_carry_extra_bits() {
        let dec = TableDecoder::from_lengths(&[2, 2, 2, 2], |sym| sym as u8).unwrap();
        let codes = codes_from_lengths(&[2, 2, 2, 2]);
        for sym in 0..4u16 {
            let (c, l) = codes[sym as usize];
            let mut w = BitWriter::new();
            w.huffman_code(c, l as u32);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            r.refill();
            let entry = dec.decode_entry(&mut r).unwrap();
            assert_eq!(entry_symbol(entry), sym);
            assert_eq!(entry_extra_bits(entry), sym as u32);
        }
    }
}
