//! The paper's complexity claims as exact VM step counts. Steps are term
//! evaluations, which both engines count at the same points and which do
//! not vary between runs, so these pins hold on any machine and in any
//! build. The timed side of the comparison (IPG against the baselines,
//! Fig. 12/13) is perfbench's.
//!
//! * Memoizing on `(nonterminal, interval)` keeps parsing polynomial
//!   (§3.3): a grammar that re-parses every suffix twice is linear with
//!   the memo and exponential without it.
//! * Fig. 13's size axis: the VM's work grows with the input. It is
//!   exactly affine in the element count on zip, pe and dns, and constant
//!   on IPv4+UDP, whose payload is a span the parser never reads.
//! * Fig. 13d's recursion discussion: a recursive chunk list against a
//!   counted `for` array and the `star` extension.

use ipg_core::check::Grammar;
use ipg_core::frontend::parse_grammar;
use ipg_core::interp::vm::VmParser;
use ipg_core::interp::{ParseStats, Parser};

/// Every suffix is parsed twice: once by the failing first alternative
/// and again by the second, at the same interval.
const TWICE: &str = r#"A -> A[1, EOI] "z"[0, 1] / A[1, EOI] "a"[0, 1] / "e"[0, 1];"#;

/// `a^(n-1) e`: the input `TWICE` accepts with `n` nested calls.
fn twice_input(n: usize) -> Vec<u8> {
    let mut input = vec![b'a'; n - 1];
    input.push(b'e');
    input
}

/// `(interpreter, VM)` statistics of one successful parse.
fn both_engines(g: &Grammar, memoize: bool, input: &[u8]) -> (ParseStats, ParseStats) {
    let (tree, interp) = Parser::new(g).memoize(memoize).parse_with_stats(input);
    tree.expect("the interpreter accepts the input");
    let (tree, vm) = VmParser::new(g).memoize(memoize).parse_with_stats(input);
    tree.expect("the VM accepts the input");
    (interp, vm)
}

#[test]
fn memoization_keeps_a_twice_reparsing_grammar_linear() {
    let g = parse_grammar(TWICE).expect("valid grammar");
    for n in [1, 2, 4, 8, 12, 16, 64] {
        let (interp, vm) = both_engines(&g, true, &twice_input(n));
        let n = n as u64;
        assert_eq!((interp.steps, interp.memo_hits), (6 * n + 3, n), "interpreter, n = {n}");
        assert_eq!((vm.steps, vm.memo_hits), (6 * n + 3, n), "VM, n = {n}");
    }
}

#[test]
fn without_memoization_the_same_grammar_is_exponential() {
    let g = parse_grammar(TWICE).expect("valid grammar");
    for (n, steps) in [(4, 131), (8, 2171), (12, 34_811)] {
        let (interp, vm) = both_engines(&g, false, &twice_input(n));
        assert_eq!((interp.steps, interp.memo_hits), (steps, 0), "interpreter, n = {n}");
        assert_eq!((vm.steps, vm.memo_hits), (steps, 0), "VM, n = {n}");
    }
}

/// VM steps of the corpus grammar `name` on each input of a size sweep.
fn sweep<const N: usize>(
    name: &str,
    sizes: [usize; N],
    input: fn(usize) -> Vec<u8>,
) -> [(usize, u64); N] {
    let vm = ipg_formats::corpus_entry(name).vm();
    sizes.map(|n| {
        let (tree, stats) = vm.parse_with_stats(&input(n));
        tree.unwrap_or_else(|e| panic!("{name} rejects its size-{n} input: {e}"));
        (n, stats.steps)
    })
}

#[test]
fn fig13_steps_are_affine_in_the_element_count() {
    let affine = [
        ("zip", sweep("zip", bench::ZIP_SIZES, bench::zip_with_entries), 31, 46),
        ("pe", sweep("pe", bench::SECTION_SIZES, bench::pe_with_sections), 27, 13),
        ("dns", sweep("dns", bench::DNS_ANSWERS, bench::dns_with_answers), 95, 29),
    ];
    for (name, rows, fixed, per_element) in affine {
        for (n, steps) in rows {
            assert_eq!(steps, fixed + per_element * n as u64, "{name} at size {n}");
        }
    }
}

#[test]
fn fig13_ipv4udp_steps_do_not_grow_with_the_payload() {
    for (n, steps) in sweep("ipv4udp", bench::UDP_PAYLOADS, bench::udp_with_payload) {
        assert_eq!(steps, 36, "payload of {n} bytes");
    }
}

#[test]
fn fig13_elf_and_gif_steps_are_pinned_per_size() {
    assert_eq!(
        sweep("elf", bench::SECTION_SIZES, bench::elf_with_sections),
        [(2, 1908), (8, 5484), (32, 21_126), (128, 85_296)]
    );
    assert_eq!(
        sweep("gif", bench::GIF_FRAMES, bench::gif_with_frames),
        [(1, 180), (4, 677), (16, 2609), (64, 10_337)]
    );
}

#[test]
fn recursion_vs_array_step_counts() {
    let item = r#"
        Item -> "R"[0, 1] Payload[1, 8];
        Payload := bytes;
    "#;
    let grammar = |start: &str| parse_grammar(&format!("{start}{item}")).expect("valid grammar");
    let recursive = grammar(
        "S -> Items[0, EOI];
         Items -> Item[0, EOI] Items[Item.end, EOI] / Item[0, EOI];",
    );
    let array = grammar(
        "S -> assert(EOI % 8 = 0) {n = EOI / 8}
              for i = 0 to n do Item[8 * i, 8 * (i + 1)];",
    );
    let star = grammar("S -> star Item;");
    for (n, want) in [(64, [458, 324, 325]), (512, [3594, 2564, 2565])] {
        let records: Vec<u8> = (0..n as u32)
            .flat_map(|i| [[b'R'].as_slice(), &i.to_le_bytes(), &[0, 0, 0]].concat())
            .collect();
        let got = [&recursive, &array, &star].map(|g| {
            let (tree, stats) = VmParser::new(g).parse_with_stats(&records);
            tree.expect("the VM accepts the records");
            stats.steps
        });
        assert_eq!(got, want, "recursive list, for array and star at {n} records");
    }
}
