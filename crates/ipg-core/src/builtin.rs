//! Execution of builtin leaf parsers.
//!
//! The paper replaces the bit-by-bit `Int` grammar of Fig. 3 with a
//! specialized `btoi` function in generated parsers (§7). These are the
//! corresponding Rust primitives: each takes the interval-confined local
//! input and returns the decoded `val` plus the number of bytes consumed,
//! or `None` on failure.

use crate::syntax::Builtin;

/// Runs builtin `b` on the local input slice.
///
/// Returns `(val, consumed)` on success. Fixed-width integers fail when the
/// input is shorter than their width; [`Builtin::AsciiInt`] fails when the
/// input does not start with an ASCII digit (or the value overflows `i64`);
/// [`Builtin::Bytes`] always succeeds, consuming everything.
#[inline]
pub fn run_builtin(b: Builtin, input: &[u8]) -> Option<(i64, usize)> {
    match b {
        Builtin::U8 => input.first().map(|&v| (v as i64, 1)),
        Builtin::U16Le => fixed(input, 2, |s| u16::from_le_bytes(s.try_into().unwrap()) as i64),
        Builtin::U16Be => fixed(input, 2, |s| u16::from_be_bytes(s.try_into().unwrap()) as i64),
        Builtin::U32Le => fixed(input, 4, |s| u32::from_le_bytes(s.try_into().unwrap()) as i64),
        Builtin::U32Be => fixed(input, 4, |s| u32::from_be_bytes(s.try_into().unwrap()) as i64),
        Builtin::U64Le => fixed(input, 8, |s| i64::from_le_bytes(s.try_into().unwrap())),
        Builtin::U64Be => fixed(input, 8, |s| i64::from_be_bytes(s.try_into().unwrap())),
        Builtin::AsciiInt => ascii_int(input),
        Builtin::Bytes => Some((input.len() as i64, input.len())),
    }
}

fn fixed(input: &[u8], width: usize, decode: impl Fn(&[u8]) -> i64) -> Option<(i64, usize)> {
    if input.len() < width {
        None
    } else {
        Some((decode(&input[..width]), width))
    }
}

fn ascii_int(input: &[u8]) -> Option<(i64, usize)> {
    let digits = input.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let mut val: i64 = 0;
    for &b in &input[..digits] {
        val = val.checked_mul(10)?.checked_add((b - b'0') as i64)?;
    }
    Some((val, digits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_reads_one_byte() {
        assert_eq!(run_builtin(Builtin::U8, &[0xff, 1]), Some((255, 1)));
        assert_eq!(run_builtin(Builtin::U8, &[]), None);
    }

    #[test]
    fn little_and_big_endian_disagree() {
        let bytes = [0x01, 0x02, 0x03, 0x04];
        assert_eq!(run_builtin(Builtin::U32Le, &bytes), Some((0x0403_0201, 4)));
        assert_eq!(run_builtin(Builtin::U32Be, &bytes), Some((0x0102_0304, 4)));
        assert_eq!(run_builtin(Builtin::U16Le, &bytes), Some((0x0201, 2)));
        assert_eq!(run_builtin(Builtin::U16Be, &bytes), Some((0x0102, 2)));
    }

    #[test]
    fn fixed_width_requires_enough_input() {
        assert_eq!(run_builtin(Builtin::U32Le, &[1, 2, 3]), None);
        assert_eq!(run_builtin(Builtin::U64Be, &[0; 7]), None);
        assert_eq!(run_builtin(Builtin::U64Le, &[0; 9]), Some((0, 8)));
    }

    #[test]
    fn u64_decodes_as_i64() {
        let bytes = 0x1234_5678_9abc_def0u64.to_le_bytes();
        assert_eq!(run_builtin(Builtin::U64Le, &bytes), Some((0x1234_5678_9abc_def0, 8)));
    }

    #[test]
    fn ascii_int_consumes_digit_prefix() {
        assert_eq!(run_builtin(Builtin::AsciiInt, b"123abc"), Some((123, 3)));
        assert_eq!(run_builtin(Builtin::AsciiInt, b"0"), Some((0, 1)));
        assert_eq!(run_builtin(Builtin::AsciiInt, b"abc"), None);
        assert_eq!(run_builtin(Builtin::AsciiInt, b""), None);
    }

    #[test]
    fn ascii_int_rejects_overflow() {
        assert_eq!(run_builtin(Builtin::AsciiInt, b"99999999999999999999"), None);
    }

    #[test]
    fn bytes_consumes_everything() {
        assert_eq!(run_builtin(Builtin::Bytes, b"abcd"), Some((4, 4)));
        assert_eq!(run_builtin(Builtin::Bytes, b""), Some((0, 0)));
    }
}
