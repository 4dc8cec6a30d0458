//! A failing VM parse allocates nothing but the error it returns: its
//! working storage (frames, memo table, arena) is recycled from the
//! thread's previous parse, and the deepest failure is rendered only when
//! the parse returns it, into exactly two `String`s: the nonterminal and
//! the message. The tests build both in release too, where the optimizer
//! could drop an allocation that a debug build keeps.
//!
//! `ipg_baselines::alloc_meter` counts per thread, so the test harness's
//! own threads cannot disturb the counts.

use ipg_baselines::alloc_meter::{measure, CountingAllocator};
use ipg_core::error::{Error, ParseError};
use ipg_core::frontend::parse_grammar;
use ipg_core::interp::vm::VmParser;
use ipg_core::interp::Parser;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Parses `input` once to warm the thread's workspace, then again counting
/// allocations, and checks that the second parse allocated exactly its
/// error's two strings and that the error reads `(nt, msg)`, as the
/// interpreter words it.
fn assert_fails_with_only_its_error(src: &str, input: &[u8], expected: (&str, &str)) {
    let g = parse_grammar(src).unwrap();
    let parser = VmParser::new(&g);
    parser.parse(input).unwrap_err(); // warm-up: fills the thread's workspace
    let (result, stats) = measure(|| parser.parse(input));
    let Err(Error::Parse(ParseError { nonterminal: Some(nt), msg, .. })) = result else {
        panic!("expected a parse error, got {result:?}")
    };
    assert_eq!((nt.as_str(), msg.as_str()), expected, "error of {input:?}");
    assert_eq!(
        (stats.allocations, stats.bytes_allocated),
        (2, (nt.capacity() + msg.capacity()) as u64),
        "a failing parse of {input:?} allocated more than its error ({nt}: {msg})"
    );
    let Err(Error::Parse(reference)) = Parser::new(&g).parse(input) else {
        panic!("the interpreter accepts {input:?}")
    };
    assert_eq!(
        (reference.nonterminal.as_deref(), reference.msg.as_str()),
        (Some(nt.as_str()), msg.as_str())
    );
}

/// Figure 2 of the paper: a header, then data at the offset it names.
const FIGURE_2: &str = r#"
    S -> H[0, 8] Data[H.offset, H.offset + H.length];
    H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
    Int := u32le;
    Data := bytes;
"#;

#[test]
fn a_failing_parse_allocates_only_its_error() {
    // Empty input has no room for `H`; the second input parses `H` and
    // then claims a 100-byte `Data` that is not there.
    assert_fails_with_only_its_error(FIGURE_2, b"", ("S", "invalid interval for `H`"));
    assert_fails_with_only_its_error(
        FIGURE_2,
        &[8, 0, 0, 0, 100, 0, 0, 0],
        ("S", "invalid interval for `Data`"),
    );
}

#[test]
fn a_hex_literal_mismatch_allocates_only_its_error() {
    // zip's end-of-central-directory magic, which is not printable.
    let src = r#"
        S -> Eocd[0, EOI];
        Eocd -> x"504b0506"[0, 4] N[4, 6];
        N := u16le;
    "#;
    assert_fails_with_only_its_error(
        src,
        b"PK\x03\x04\x00\x00",
        ("Eocd", "terminal mismatch (expected x\"504b0506\")"),
    );
}

#[test]
fn a_literal_mismatch_inside_a_record_allocates_only_its_error() {
    // A literal and a builtin field with a set: one record.
    let src = r#"
        S -> Lfh[0, EOI];
        Lfh -> x"504b0304"[0, 4] U16[4, 6] {method = U16.val};
        U16 := u16le;
    "#;
    assert_fails_with_only_its_error(
        src,
        b"PK\x01\x02\x08\x00",
        ("Lfh", "terminal mismatch (expected x\"504b0304\")"),
    );
}

#[test]
fn a_printable_literal_mismatch_allocates_only_its_error() {
    let src = r#"
        S -> Body[0, EOI - 5] Trailer[EOI - 5, EOI];
        Body := bytes;
        Trailer -> "%%EOF"[0, 5];
    "#;
    assert_fails_with_only_its_error(
        src,
        b"1 0 obj\n%%EOX",
        ("Trailer", "terminal mismatch (expected \"%%EOF\")"),
    );
}

#[test]
fn a_failing_builtin_allocates_only_its_error() {
    let src = r#"
        S -> Len[0, 2] Body[2, EOI];
        Len := u32be;
        Body := bytes;
    "#;
    assert_fails_with_only_its_error(src, b"\x00\x04ab", ("Len", "builtin `u32be` failed"));
}

#[test]
fn a_failing_predicate_allocates_only_its_error() {
    let src = r#"
        S -> Version[0, 1] assert(Version.val < 16) Rest[1, EOI];
        Version := u8;
        Rest := bytes;
    "#;
    assert_fails_with_only_its_error(src, b"\x20rest", ("S", "predicate failed"));
}
