//! Quickstart: the paper's running examples in a few lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ipg_core::frontend::parse_grammar;
use ipg_core::interp::Parser;
use ipg_core::termination::check_termination;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 2 of the paper: the random access pattern. A header stores the
    // offset and length of a data region; the grammar follows them.
    let grammar = parse_grammar(
        r#"
        S -> H[0, 8] Data[H.offset, H.offset + H.length];
        H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
        Int := u32le;
        Data := bytes;
        "#,
    )?;

    // A little input file: offset = 10, length = 4, data at 10..14.
    let mut input = Vec::new();
    input.extend_from_slice(&10u32.to_le_bytes());
    input.extend_from_slice(&4u32.to_le_bytes());
    input.extend_from_slice(b"..DATA++");

    let tree = Parser::new(&grammar).parse(&input)?;
    // Child lookups go by nonterminal id: resolve the name once, then
    // compare ids (the only lookup API the tree exposes).
    let h = grammar.nt_id("H").expect("H is a rule");
    let data = grammar.nt_id("Data").expect("Data is a rule");
    let header = tree.child_node_nt(h).expect("header parsed");
    let data = tree.child_node_nt(data).expect("data parsed");
    println!("H.offset = {:?}", header.attr(&grammar, "offset"));
    println!("H.length = {:?}", header.attr(&grammar, "length"));
    println!("Data spans input[{}..{}]", data.span().0, data.span().1);
    println!("Data bytes = {:?}", String::from_utf8_lossy(&input[data.span().0..data.span().1]));

    // Fig. 3: the binary number parser — left recursion bounded by
    // shrinking intervals, so plain recursive descent terminates.
    let binary = parse_grammar(
        r#"
        start Int;
        Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
             / Digit[0, 1] {val = Digit.val};
        Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1};
        "#,
    )?;
    let tree = Parser::new(&binary).parse(b"101101")?;
    println!("binary 101101 = {:?}", tree.as_node().expect("node").attr(&binary, "val"));

    // And the static termination check of §5.
    let report = check_termination(&binary);
    println!(
        "termination: {} ({} elementary cycle(s), checked in {:.2?})",
        if report.ok { "proved" } else { "unknown" },
        report.cycle_count(),
        report.elapsed
    );
    Ok(())
}
