//! Interpreter tests built directly from the paper's running examples.

use super::*;
use crate::blackbox::{Blackbox, BlackboxResult};
use crate::syntax::{AltBuilder, Builtin, Expr, GrammarBuilder};

fn num(n: i64) -> Expr {
    Expr::num(n)
}
fn eoi() -> Expr {
    Expr::eoi()
}

/// Fig. 1: `S -> A[0,2] B[EOI-2,EOI]` accepts `"aa…bb"`.
fn fig1() -> Grammar {
    GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .symbol("A", num(0), num(2))
                .symbol("B", eoi() - num(2), eoi())
                .build()],
        )
        .rule("A", vec![AltBuilder::new().terminal(b"aa", num(0), num(2)).build()])
        .rule("B", vec![AltBuilder::new().terminal(b"bb", num(0), num(2)).build()])
        .build()
        .unwrap()
}

#[test]
fn fig1_accepts_aa_anything_bb() {
    let g = fig1();
    let p = Parser::new(&g);
    assert!(p.parse(b"aabb").is_ok());
    assert!(p.parse(b"aaXYZbb").is_ok());
    assert!(p.parse(b"aabb junk bb").is_ok());
    assert!(p.parse(b"aab").is_err(), "intervals overlap: EOI-2 < 2 is fine, but b mismatch");
    assert!(p.parse(b"xxbb").is_err());
    assert!(p.parse(b"aaxx").is_err());
}

#[test]
fn fig1_rejects_too_short_input() {
    let g = fig1();
    let p = Parser::new(&g);
    // len 3: A[0,2] ok only if "aa"; B[1,3] needs "bb" at offset 1.
    assert!(p.parse(b"aab").is_err());
    assert!(p.parse(b"a").is_err());
    assert!(p.parse(b"").is_err());
}

/// Fig. 2: random access — header stores offset and length of the data.
fn fig2() -> Grammar {
    GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .symbol("H", num(0), num(8))
                .symbol(
                    "Data",
                    Expr::attr("H", "offset"),
                    Expr::attr("H", "offset") + Expr::attr("H", "length"),
                )
                .build()],
        )
        .rule(
            "H",
            vec![AltBuilder::new()
                .symbol("Int", num(0), num(4))
                .attr("offset", Expr::attr("Int", "val"))
                .symbol("Int", num(4), num(8))
                .attr("length", Expr::attr("Int", "val"))
                .build()],
        )
        .builtin("Int", Builtin::U32Le)
        .builtin("Data", Builtin::Bytes)
        .build()
        .unwrap()
}

#[test]
fn fig2_random_access_follows_header_offsets() {
    let g = fig2();
    let mut input = Vec::new();
    input.extend_from_slice(&10u32.to_le_bytes()); // offset = 10
    input.extend_from_slice(&4u32.to_le_bytes()); // length = 4
    input.extend_from_slice(b"..DATAxx"); // data at 10..14 = "DATA"
    let tree = Parser::new(&g).parse(&input).unwrap();
    let h = tree.child_node_nt(g.nt_id("H").unwrap()).unwrap();
    assert_eq!(h.attr(&g, "offset"), Some(10));
    assert_eq!(h.attr(&g, "length"), Some(4));
    let data = tree.child_node_nt(g.nt_id("Data").unwrap()).unwrap();
    assert_eq!(data.span(), (10, 14));
}

#[test]
fn fig2_rejects_out_of_bounds_offset() {
    let g = fig2();
    let mut input = Vec::new();
    input.extend_from_slice(&100u32.to_le_bytes()); // offset beyond input
    input.extend_from_slice(&4u32.to_le_bytes());
    input.extend_from_slice(b"short");
    assert!(Parser::new(&g).parse(&input).is_err());
}

/// Fig. 3: the binary number parser — left recursion bounded by shrinking
/// intervals.
fn fig3() -> Grammar {
    GrammarBuilder::new()
        .start("Int")
        .rule(
            "Int",
            vec![
                AltBuilder::new()
                    .symbol("Int", num(0), eoi() - num(1))
                    .symbol("Digit", eoi() - num(1), eoi())
                    .attr("val", num(2) * Expr::attr("Int", "val") + Expr::attr("Digit", "val"))
                    .build(),
                AltBuilder::new()
                    .symbol("Digit", num(0), num(1))
                    .attr("val", Expr::attr("Digit", "val"))
                    .build(),
            ],
        )
        .rule(
            "Digit",
            vec![
                AltBuilder::new().terminal(b"0", num(0), num(1)).attr("val", num(0)).build(),
                AltBuilder::new().terminal(b"1", num(0), num(1)).attr("val", num(1)).build(),
            ],
        )
        .build()
        .unwrap()
}

#[test]
fn fig3_binary_number_value() {
    let g = fig3();
    let p = Parser::new(&g);
    let val_of = |s: &[u8]| {
        let tree = p.parse(s).unwrap();
        tree.as_node().unwrap().attr(&g, "val").unwrap()
    };
    assert_eq!(val_of(b"0"), 0);
    assert_eq!(val_of(b"1"), 1);
    assert_eq!(val_of(b"101"), 5);
    assert_eq!(val_of(b"1111"), 15);
    assert_eq!(val_of(b"10000000"), 128);
}

#[test]
fn fig3_left_recursion_terminates_on_bad_input() {
    let g = fig3();
    let p = Parser::new(&g);
    assert!(p.parse(b"").is_err());
    assert!(p.parse(b"2").is_err());
    // Prefix behaviour per T-Ter: on "1x" the recursive alternative fails
    // (the last byte is not a digit), but the second alternative
    // `Digit[0,1]` matches the leading "1" — the parse *succeeds* touching
    // only a prefix, exactly as the formal semantics dictates.
    let tree = p.parse(b"1x").unwrap();
    assert_eq!(tree.as_node().unwrap().attr(&g, "val"), Some(1));
}

/// Fig. 4: special attributes — `S -> "1"[0,1] O[1,EOI] "stop"[O.end,EOI]`.
fn fig4() -> Grammar {
    GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .terminal(b"1", num(0), num(1))
                .symbol("O", num(1), eoi())
                .terminal(b"stop", Expr::end_of("O"), eoi())
                .build()],
        )
        .rule(
            "O",
            vec![
                AltBuilder::new().terminal(b"0", num(0), num(1)).symbol("O", num(1), eoi()).build(),
                AltBuilder::new().terminal(b"0", num(0), num(1)).build(),
            ],
        )
        .build()
        .unwrap()
}

#[test]
fn fig4_end_attribute_positions_the_stop_marker() {
    let g = fig4();
    let p = Parser::new(&g);
    assert!(p.parse(b"10stop").is_ok());
    assert!(p.parse(b"1000stop").is_ok());
    assert!(p.parse(b"1stop").is_err(), "O must consume at least one 0");
    assert!(p.parse(b"100stip").is_err());
    let tree = p.parse(b"1000stop").unwrap();
    let o = tree.child_node_nt(g.nt_id("O").unwrap()).unwrap();
    // O touched offsets 1..4 of S's input.
    assert_eq!(o.touched_start(), 1);
    assert_eq!(o.touched_end(), 4);
}

/// Fig. 6: arrays, element references, and predicates.
fn fig6() -> Grammar {
    GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .symbol("H", num(0), num(4))
                .attr("size", num(4))
                .array(
                    "i",
                    num(0),
                    Expr::attr("H", "num"),
                    "A",
                    num(4) + Expr::local("size") * Expr::local("i"),
                    num(4) + Expr::local("size") * (Expr::local("i") + num(1)),
                )
                .attr("a0", Expr::elem("A", num(0), "val"))
                .pred(Expr::local("a0").gt(num(0)).and(Expr::local("a0").lt(num(10))))
                .build()],
        )
        .rule(
            "H",
            vec![AltBuilder::new()
                .symbol("Int", num(0), num(4))
                .attr("num", Expr::attr("Int", "val"))
                .build()],
        )
        .rule(
            "A",
            vec![AltBuilder::new()
                .symbol("Int", num(0), num(4))
                .attr("val", Expr::attr("Int", "val"))
                .build()],
        )
        .builtin("Int", Builtin::U32Le)
        .build()
        .unwrap()
}

fn fig6_input(values: &[u32]) -> Vec<u8> {
    let mut input = Vec::new();
    input.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        input.extend_from_slice(&v.to_le_bytes());
    }
    input
}

#[test]
fn fig6_array_parses_each_element() {
    let g = fig6();
    let p = Parser::new(&g);
    let tree = p.parse(&fig6_input(&[5, 7, 9])).unwrap();
    let arr = tree.child_array_nt(g.nt_id("A").unwrap()).unwrap();
    assert_eq!(arr.len(), 3);
    let vals: Vec<i64> = arr.nodes().map(|n| n.attr(&g, "val").unwrap()).collect();
    assert_eq!(vals, vec![5, 7, 9]);
}

#[test]
fn fig6_predicate_rejects_a0_out_of_range() {
    let g = fig6();
    let p = Parser::new(&g);
    assert!(p.parse(&fig6_input(&[5])).is_ok());
    assert!(p.parse(&fig6_input(&[0])).is_err(), "a0 must be > 0");
    assert!(p.parse(&fig6_input(&[10])).is_err(), "a0 must be < 10");
}

#[test]
fn fig6_empty_array_when_count_is_zero() {
    let g = fig6();
    // num = 0 → array imposes no constraint, but a0 = A(0).val fails to
    // evaluate → the alternative fails (σ undefined).
    assert!(Parser::new(&g).parse(&fig6_input(&[])).is_err());
}

/// §3.5: `{aⁿbⁿcⁿ | n > 0}` — not context-free, but an IPG.
fn anbncn() -> Grammar {
    let letter_rule = |name: &str, ch: &[u8]| {
        vec![
            AltBuilder::new().terminal(ch, num(0), num(1)).symbol(name, num(1), eoi()).build(),
            AltBuilder::new().terminal(ch, num(0), num(1)).build(),
        ]
    };
    GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .pred(eoi().rem(num(3)).eq(num(0)))
                .attr("n", eoi() / num(3))
                .symbol("A", num(0), Expr::local("n"))
                .symbol("B", Expr::local("n"), num(2) * Expr::local("n"))
                .symbol("C", num(2) * Expr::local("n"), num(3) * Expr::local("n"))
                .build()],
        )
        .rule("A", letter_rule("A", b"a"))
        .rule("B", letter_rule("B", b"b"))
        .rule("C", letter_rule("C", b"c"))
        .build()
        .unwrap()
}

#[test]
fn anbncn_accepts_the_language() {
    let g = anbncn();
    let p = Parser::new(&g);
    assert!(p.parse(b"abc").is_ok());
    assert!(p.parse(b"aabbcc").is_ok());
    assert!(p.parse(b"aaabbbccc").is_ok());
}

#[test]
fn anbncn_rejects_wrong_shapes() {
    let g = anbncn();
    let p = Parser::new(&g);
    assert!(p.parse(b"").is_err(), "n > 0 required");
    assert!(p.parse(b"ab").is_err(), "length not divisible by 3");
    assert!(p.parse(b"abcc").is_err());
    assert!(p.parse(b"cbaabc").is_err());
    assert!(p.parse(b"bbbccc").is_err());
    // Note: alternatives like "a"[0,1] match a *prefix* of their slice, so
    // inputs such as "abbccc" (where each third starts with the right
    // letter) are accepted — exactly as the formal T-Ter rule dictates.
}

#[test]
fn biased_choice_takes_first_matching_alternative() {
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![
                AltBuilder::new().terminal(b"a", num(0), num(1)).attr("which", num(1)).build(),
                AltBuilder::new().terminal(b"a", num(0), num(1)).attr("which", num(2)).build(),
            ],
        )
        .build()
        .unwrap();
    let tree = Parser::new(&g).parse(b"a").unwrap();
    let node = tree.as_node().unwrap();
    assert_eq!(node.attr(&g, "which"), Some(1));
    assert_eq!(node.alt_index, 0);
}

#[test]
fn switch_selects_by_guard_with_default() {
    // A type-length-value toy: tag byte selects the payload parser.
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .symbol("Tag", num(0), num(1))
                .switch(
                    vec![
                        (Expr::attr("Tag", "val").eq(num(1)), "Ints", num(1), eoi()),
                        (Expr::attr("Tag", "val").eq(num(2)), "Text", num(1), eoi()),
                    ],
                    ("Raw", num(1), eoi()),
                )
                .build()],
        )
        .builtin("Tag", Builtin::U8)
        .rule("Ints", vec![AltBuilder::new().symbol("Int", num(0), num(4)).build()])
        .builtin("Int", Builtin::U32Le)
        .rule("Text", vec![AltBuilder::new().terminal(b"hi", num(0), num(2)).build()])
        .builtin("Raw", Builtin::Bytes)
        .build()
        .unwrap();
    let p = Parser::new(&g);

    let t1 = p.parse(&[1, 0xaa, 0, 0, 0]).unwrap();
    assert!(t1.child_node_nt(g.nt_id("Ints").unwrap()).is_some());

    let t2 = p.parse(&[2, b'h', b'i']).unwrap();
    assert!(t2.child_node_nt(g.nt_id("Text").unwrap()).is_some());
    assert!(p.parse(&[2, b'h', b'o']).is_err(), "selected case must parse");

    let t3 = p.parse(&[9, 1, 2, 3]).unwrap();
    assert!(t3.child_node_nt(g.nt_id("Raw").unwrap()).is_some(), "default case");
}

#[test]
fn local_rule_sees_invoking_alternative_attributes() {
    // §3.4: S -> A[0,1] D[0,EOI] where D -> B[A.val,EOI] C[B.end,EOI].
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new().symbol("A", num(0), num(1)).symbol("D", num(0), eoi()).build()],
        )
        .rule(
            "A",
            vec![AltBuilder::new().terminal(b"x", num(0), num(1)).attr("val", num(2)).build()],
        )
        .local_rule(
            "D",
            vec![AltBuilder::new()
                .symbol("B", Expr::attr("A", "val"), eoi())
                .symbol("C", Expr::attr("B", "end"), eoi())
                .build()],
        )
        .rule("B", vec![AltBuilder::new().terminal(b"b", num(0), num(1)).build()])
        .rule("C", vec![AltBuilder::new().terminal(b"c", num(0), num(1)).build()])
        .build()
        .unwrap();
    let p = Parser::new(&g);
    // A.val = 2 → B at offset 2; B.end = 3 → C at offset 3.
    assert!(p.parse(b"x.bc").is_ok());
    assert!(p.parse(b"xb.c").is_err());
}

#[test]
fn backward_parsing_bnum() {
    // §4.3: parse a decimal number that *ends* at EOI, scanning backward.
    let digit_alts = (0..=9u8)
        .map(|d| {
            AltBuilder::new().terminal(&[b'0' + d], num(0), num(1)).attr("v", num(d as i64)).build()
        })
        .collect();
    let g = GrammarBuilder::new()
        .start("BNum")
        .rule(
            "BNum",
            vec![
                AltBuilder::new()
                    .symbol("BNum", num(0), eoi() - num(1))
                    .symbol("Digit", eoi() - num(1), eoi())
                    .attr("v", Expr::attr("BNum", "v") * num(10) + Expr::attr("Digit", "v"))
                    .build(),
                AltBuilder::new()
                    .symbol("Digit", eoi() - num(1), eoi())
                    .attr("v", Expr::attr("Digit", "v"))
                    .build(),
            ],
        )
        .rule("Digit", digit_alts)
        .build()
        .unwrap();
    let p = Parser::new(&g);
    let tree = p.parse(b"1024").unwrap();
    assert_eq!(tree.as_node().unwrap().attr(&g, "v"), Some(1024));
    // The whole point of backward parsing: a non-digit prefix is fine as
    // long as the digits run to the end (the second alternative anchors at
    // EOI-1, not at 0).
    let tree = p.parse(b"xx42").unwrap();
    assert_eq!(tree.as_node().unwrap().attr(&g, "v"), Some(42));
}

#[test]
fn two_pass_parsing_with_existential() {
    // §4.3 (PDF): object lengths live in *other* objects' headers; parse
    // headers first, then re-parse the overlapping object regions.
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .symbol("H", num(0), num(8))
                .array(
                    "i",
                    num(0),
                    Expr::attr("H", "num"),
                    "SH",
                    Expr::attr("H", "ofs") + num(8) * Expr::local("i"),
                    Expr::attr("H", "ofs") + num(8) * (Expr::local("i") + num(1)),
                )
                .array(
                    "i",
                    num(0),
                    Expr::attr("H", "num"),
                    "OH",
                    Expr::elem("SH", Expr::local("i"), "ofs"),
                    Expr::elem("SH", Expr::local("i"), "ofs") + num(8),
                )
                .array(
                    "i",
                    num(0),
                    Expr::attr("H", "num"),
                    "Obj",
                    Expr::elem("SH", Expr::local("i"), "ofs"),
                    Expr::elem("SH", Expr::local("i"), "ofs")
                        + Expr::exists(
                            "j",
                            "OH",
                            Expr::elem("OH", Expr::local("j"), "link").eq(Expr::local("i")),
                            Expr::elem("OH", Expr::local("j"), "len"),
                            num(-1),
                        ),
                )
                .build()],
        )
        .rule(
            "H",
            vec![AltBuilder::new()
                .symbol("Int", num(0), num(4))
                .attr("num", Expr::attr("Int", "val"))
                .symbol("Int", num(4), num(8))
                .attr("ofs", Expr::attr("Int", "val"))
                .build()],
        )
        .rule(
            "SH",
            vec![AltBuilder::new()
                .symbol("Int", num(0), num(4))
                .attr("ofs", Expr::attr("Int", "val"))
                .symbol("Int", num(4), num(8))
                .attr("pad", Expr::attr("Int", "val"))
                .build()],
        )
        .rule(
            "OH",
            vec![AltBuilder::new()
                .symbol("Int", num(0), num(4))
                .attr("link", Expr::attr("Int", "val"))
                .symbol("Int", num(4), num(8))
                .attr("len", Expr::attr("Int", "val"))
                .build()],
        )
        .builtin("Int", Builtin::U32Le)
        .builtin("Obj", Builtin::Bytes)
        .build()
        .unwrap();

    // Layout: header (num=2, ofs=8), SH table at 8..24, two objects.
    // Object 0 at offset 24, its header says link=1 (stores *object 1's*
    // length = 10). Object 1 at offset 32, link=0 (stores object 0's
    // length = 9).
    let mut input = Vec::new();
    let push = |v: u32, out: &mut Vec<u8>| out.extend_from_slice(&v.to_le_bytes());
    push(2, &mut input); // H.num
    push(8, &mut input); // H.ofs
    push(24, &mut input); // SH(0).ofs
    push(0, &mut input);
    push(32, &mut input); // SH(1).ofs
    push(0, &mut input);
    push(1, &mut input); // OH(0).link = 1
    push(9, &mut input); // OH(0).len  = 9  (length of object *1*)
    push(0, &mut input); // OH(1).link = 0
    push(8, &mut input); // OH(1).len  = 8  (length of object *0*)
    input.resize(42, 0xee);

    let tree = Parser::new(&g).parse(&input).unwrap();
    let objs = tree.child_array_nt(g.nt_id("Obj").unwrap()).unwrap();
    assert_eq!(objs.len(), 2);
    // Obj(0): exists j with OH(j).link = 0 → j = 1, len = 8 → span 24..32.
    assert_eq!(objs.node(0).unwrap().span(), (24, 32));
    // Obj(1): j = 0, len = 9 → span 32..41.
    assert_eq!(objs.node(1).unwrap().span(), (32, 41));
}

#[test]
fn blackbox_parser_gets_the_confined_slice() {
    let bb = Blackbox::with_attrs("sum", &["total"], |input| {
        Ok(BlackboxResult {
            consumed: input.len(),
            data: input.to_vec(),
            attr_values: vec![input.iter().map(|&b| b as i64).sum()],
        })
    });
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .terminal(b"hdr", num(0), num(3))
                .symbol("Body", num(3), eoi())
                .build()],
        )
        .blackbox_rule("Body", "sum")
        .register_blackbox(bb)
        .build()
        .unwrap();
    let tree = Parser::new(&g).parse(b"hdr\x01\x02\x03").unwrap();
    let body = tree.child_blackbox_nt(g.nt_id("Body").unwrap()).unwrap();
    assert_eq!(&body.data[..], &[1, 2, 3]);
    assert_eq!(body.env.get(g.attr_sym("total").unwrap()), Some(6));
    assert_eq!(body.base, 3);
}

#[test]
fn blackbox_failure_fails_the_alternative() {
    let bb = Blackbox::new("never", |_| Err("always fails".to_owned()));
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![
                AltBuilder::new().symbol("Body", num(0), eoi()).build(),
                AltBuilder::new().terminal(b"ok", num(0), num(2)).build(),
            ],
        )
        .blackbox_rule("Body", "never")
        .register_blackbox(bb)
        .build()
        .unwrap();
    // Biased choice recovers via the second alternative.
    assert!(Parser::new(&g).parse(b"ok").is_ok());
    assert!(Parser::new(&g).parse(b"xx").is_err());
}

#[test]
fn memoization_does_not_change_results() {
    let g = fig3();
    let with = Parser::new(&g).memoize(true);
    let without = Parser::new(&g).memoize(false);
    for input in [&b"1011"[..], b"0", b"111111111111", b"", b"10x1"] {
        let a = with.parse(input);
        let b = without.parse(input);
        assert_eq!(a.is_ok(), b.is_ok(), "input {input:?}");
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b, "trees differ on {input:?}");
        }
    }
}

#[test]
fn nonterminating_grammar_hits_the_step_limit() {
    // §5's non-terminating example: A -> B[0,EOI] / "s"[0,1];
    //                               B -> A[0,EOI] / "s"[0,1].
    let g = GrammarBuilder::new()
        .rule(
            "A",
            vec![
                AltBuilder::new().symbol("B", num(0), eoi()).build(),
                AltBuilder::new().terminal(b"s", num(0), num(1)).build(),
            ],
        )
        .rule(
            "B",
            vec![
                AltBuilder::new().symbol("A", num(0), eoi()).build(),
                AltBuilder::new().terminal(b"s", num(0), num(1)).build(),
            ],
        )
        .build()
        .unwrap();
    // Memoization OFF: the loop really spins; the fuel bound catches it.
    let p = Parser::new(&g).memoize(false).max_steps(400);
    let err = p.parse(b"x").unwrap_err();
    assert!(err.to_string().contains("step limit"), "got: {err}");
    // With memoization the cycle hits the in-progress/immediately-cached
    // entry and... the left recursion A→B→A on identical (nt, base, len)
    // still recurses before any entry is written, so fuel is needed too.
    let p = Parser::new(&g).max_steps(400);
    assert!(p.parse(b"x").is_err());
}

#[test]
fn empty_interval_zero_zero_is_valid() {
    let g = GrammarBuilder::new()
        .rule(
            "S",
            vec![AltBuilder::new()
                .terminal(b"", num(0), num(0))
                .terminal(b"x", num(0), num(1))
                .build()],
        )
        .build()
        .unwrap();
    assert!(Parser::new(&g).parse(b"x").is_ok());
}

#[test]
fn invalid_interval_fails_cleanly() {
    // [0, EOI+1] is always invalid.
    let g = GrammarBuilder::new()
        .rule("S", vec![AltBuilder::new().symbol("A", num(0), eoi() + num(1)).build()])
        .rule("A", vec![AltBuilder::new().build()])
        .build()
        .unwrap();
    assert!(Parser::new(&g).parse(b"abc").is_err());
}

#[test]
fn deepest_failure_is_reported() {
    let g = fig1();
    let err = Parser::new(&g).parse(b"aaxyzbX").unwrap_err();
    let Error::Parse(pe) = err else { panic!("expected parse error") };
    assert_eq!(pe.offset, 5, "failure at the b-mismatch, not at offset 0");
    assert_eq!(pe.nonterminal.as_deref(), Some("B"));
}

#[test]
fn terminal_prefix_matching_per_t_ter() {
    // T-Ter only requires r - l ≥ |s1| and a prefix match.
    let g = GrammarBuilder::new()
        .rule("S", vec![AltBuilder::new().terminal(b"ab", num(0), eoi()).build()])
        .build()
        .unwrap();
    let p = Parser::new(&g);
    assert!(p.parse(b"ab").is_ok());
    assert!(p.parse(b"abXXX").is_ok(), "terminal matches a prefix of its interval");
    assert!(p.parse(b"a").is_err(), "interval shorter than the literal");
}

#[test]
fn counted_list_via_shadowing_local_rule() {
    // The DNS-style pattern: a recursive local rule parses exactly
    // `H.count` elements by shadowing an inherited counter.
    let g = crate::frontend::parse_grammar(
        r#"
        S -> H[0, 1] {left = H.val} Items[1, EOI] Rest[Items.end, EOI]
          where {
            Items -> {left = left - 1} assert(left >= 0) Item[0, 1] Items[1, EOI]
                   / assert(left = 0) ""[0, 0];
          };
        H := u8;
        Item -> "x"[0, 1];
        Rest := bytes;
        "#,
    )
    .unwrap();
    let p = Parser::new(&g);
    // Count 3: exactly three 'x's are consumed; the rest is Rest.
    let tree = p.parse(b"\x03xxxrest").unwrap();
    let items = tree.child_node_nt(g.nt_id("Items").unwrap()).unwrap();
    assert_eq!(items.touched_end(), 4, "three items end at offset 4");
    // Too few items: the counter cannot reach zero.
    assert!(p.parse(b"\x03xxyz").is_err());
    // Count 0: no items.
    assert!(p.parse(b"\x00rest").is_ok());
}

#[test]
fn self_referential_attr_in_non_local_rule_is_rejected() {
    let err = crate::frontend::parse_grammar(r#"S -> {x = x + 1} ""[0, 0];"#).unwrap_err();
    assert!(err.to_string().contains("itself"), "got: {err}");
}

#[test]
fn nested_where_rules_chain_environments() {
    // A local rule invoking another local rule: the inner one sees
    // attributes from *both* enclosing alternatives through the context
    // chain.
    let g = crate::frontend::parse_grammar(
        r#"
        S -> Tag[0, 1] {base = Tag.val} Outer[1, EOI]
          where {
            Outer -> {mid = base + 1} Inner[0, EOI]
              where {
                Inner -> Len[0, 1] assert(Len.val = base + mid) Rest[1, EOI];
              };
          };
        Tag := u8;
        Len := u8;
        Rest := bytes;
        "#,
    )
    .unwrap();
    let p = Parser::new(&g);
    // base = 3, mid = 4, Len must equal 7.
    assert!(p.parse(&[3, 7, 0, 0]).is_ok());
    assert!(p.parse(&[3, 8, 0, 0]).is_err());
}

#[test]
fn switch_default_with_invalid_interval_is_the_fail_idiom() {
    // §3.4: "The default branch must fail because of its always-invalid
    // interval" — switch(cond : A / Fail[1, 0]).
    let g = crate::frontend::parse_grammar(
        r#"
        S -> T[0, 1] switch(T.val = 1 : Ok[1, EOI] / Fail[1, 0]);
        T := u8;
        Ok := bytes;
        Fail := bytes;
        "#,
    )
    .unwrap();
    let p = Parser::new(&g);
    assert!(p.parse(&[1, 0xaa]).is_ok());
    assert!(p.parse(&[2, 0xaa]).is_err(), "default [1,0] always fails");
}

#[test]
fn child_start_attribute_is_observable() {
    let g = crate::frontend::parse_grammar(
        r#"
        S -> A[2, 6] {s = A.start} {e = A.end} assert(s = 3) assert(e = 5);
        A -> Pad[0, 1] "xy"[1, 3];
        Pad -> ""[0, 0];
        "#,
    )
    .unwrap();
    // A's slice is [2,6); inside, "xy" touches [1,3) → start/end 3/5 in
    // S's coordinates after the T-NTSucc adjustment.
    let p = Parser::new(&g);
    assert!(p.parse(b"..?xy.").is_ok());
}

#[test]
fn all_builtin_kinds_parse_through_grammars() {
    let g = crate::frontend::parse_grammar(
        r#"
        S -> A[0, 1] B[1, 3] C[3, 7] D[7, 15] E[15, EOI] {n = E.val}
             F[15 + (E.end - 15), EOI];
        A := u8;
        B := u16be;
        C := u32le;
        D := u64be;
        E := ascii_int;
        F := bytes;
        "#,
    )
    .unwrap();
    let mut input = vec![0x01];
    input.extend_from_slice(&0x0203u16.to_be_bytes());
    input.extend_from_slice(&0x0607_0809u32.to_le_bytes());
    input.extend_from_slice(&0x1122_3344_5566_7788u64.to_be_bytes());
    input.extend_from_slice(b"451rest");
    let tree = Parser::new(&g).parse(&input).unwrap();
    let node = tree.as_node().unwrap();
    assert_eq!(node.attr(&g, "n"), Some(451));
    assert_eq!(tree.child_node_nt(g.nt_id("A").unwrap()).unwrap().attr(&g, "val"), Some(1));
    assert_eq!(tree.child_node_nt(g.nt_id("B").unwrap()).unwrap().attr(&g, "val"), Some(0x0203));
    assert_eq!(
        tree.child_node_nt(g.nt_id("C").unwrap()).unwrap().attr(&g, "val"),
        Some(0x0607_0809)
    );
    assert_eq!(
        tree.child_node_nt(g.nt_id("D").unwrap()).unwrap().attr(&g, "val"),
        Some(0x1122_3344_5566_7788)
    );
}

#[test]
fn parse_stats_reflect_memoization() {
    let g = fig3();
    let p_on = Parser::new(&g).memoize(true);
    let p_off = Parser::new(&g).memoize(false);
    let input = b"10110111";
    let (r1, s1) = p_on.parse_with_stats(input);
    let (r2, s2) = p_off.parse_with_stats(input);
    assert!(r1.is_ok() && r2.is_ok());
    assert!(s1.memo_entries > 0);
    assert_eq!(s2.memo_entries, 0);
    assert_eq!(s2.memo_hits, 0);
    assert!(s1.steps <= s2.steps, "memoization never increases steps");
}

#[test]
fn star_term_parses_one_or_more_iteratively() {
    // The Kleene-star future-work extension (§7): equivalent to the
    // recursive Blocks idiom but without recursion depth.
    let g = crate::frontend::parse_grammar(
        r#"
        S -> star Item x"3b"[Item.end, Item.end + 1];
        Item -> "R" Len {len = Len.val} Data[len];
        Len := u8;
        Data := bytes;
        "#,
    )
    .unwrap();
    let p = Parser::new(&g);
    // Two items: R <len=2> ab, R <len=0>, then the 0x3b trailer.
    let input = b"R\x02abR\x00;";
    let tree = p.parse(input).unwrap();
    let items = tree.child_array_nt(g.nt_id("Item").unwrap()).unwrap();
    assert_eq!(items.len(), 2);
    assert_eq!(items.node(0).unwrap().attr(&g, "len"), Some(2));
    assert_eq!(items.node(1).unwrap().attr(&g, "len"), Some(0));
    // Zero items: star is one-or-more.
    assert!(p.parse(b";").is_err());
    // Wrong trailer position.
    assert!(p.parse(b"R\x01x.;").is_err());
}

#[test]
fn star_agrees_with_recursive_chunk_idiom() {
    let star = crate::frontend::parse_grammar(
        r#"
        S -> star Item;
        Item -> "x" Len {len = Len.val} Data[len];
        Len := u8;
        Data := bytes;
        "#,
    )
    .unwrap();
    let rec = crate::frontend::parse_grammar(
        r#"
        S -> Items[0, EOI];
        Items -> Item[0, EOI] Items[Item.end, EOI] / Item[0, EOI];
        Item -> "x" Len {len = Len.val} Data[len];
        Len := u8;
        Data := bytes;
        "#,
    )
    .unwrap();
    let ps = Parser::new(&star);
    let pr = Parser::new(&rec);
    for input in [
        &b"x\x00"[..],
        b"x\x01ax\x02bc",
        b"x\x03abcx\x00x\x00",
        b"",
        b"y\x00",
        b"x\x05ab", // truncated payload
    ] {
        assert_eq!(ps.parse(input).is_ok(), pr.parse(input).is_ok(), "disagreement on {input:?}");
    }
    // Element count agreement on a valid input.
    let input = b"x\x01ax\x02bcx\x00";
    let s_items = ps.parse(input).unwrap();
    let s_count = s_items.child_array_nt(star.nt_id("Item").unwrap()).unwrap().len();
    assert_eq!(s_count, 3);
}

#[test]
fn star_does_not_spin_on_empty_matches() {
    // An element that can succeed consuming nothing must not loop forever.
    let g = crate::frontend::parse_grammar(
        r#"
        S -> star E;
        E -> ""[0, 0];
        "#,
    )
    .unwrap();
    let tree = Parser::new(&g).max_steps(10_000).parse(b"abc").unwrap();
    assert_eq!(
        tree.child_array_nt(g.nt_id("E").unwrap()).unwrap().len(),
        1,
        "stopped after one empty match"
    );
}

#[test]
fn star_supports_element_references() {
    // star registers an Array occurrence, so A(i).attr works.
    let g = crate::frontend::parse_grammar(
        r#"
        S -> star Item {first = Item(0).len};
        Item -> Len {len = Len.val} Data[len];
        Len := u8;
        Data := bytes;
        "#,
    )
    .unwrap();
    let tree = Parser::new(&g).parse(b"\x02ab\x01c").unwrap();
    assert_eq!(tree.as_node().unwrap().attr(&g, "first"), Some(2));
}

#[test]
fn start_nonterminal_override() {
    let g = fig3();
    let p = Parser::new(&g);
    let tree = p.parse_from_name("Digit", b"1").unwrap();
    assert_eq!(tree.as_node().unwrap().attr(&g, "val"), Some(1));
    assert!(p.parse_from_name("NoSuch", b"1").is_err());
}
