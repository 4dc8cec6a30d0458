//! Differential tests: the bytecode VM against the reference tree-walking
//! interpreter, over corpus-generated inputs for every format grammar —
//! including truncated and corrupted mutants.
//!
//! The agreement contract (step counts, trees, deepest errors) is
//! implemented by [`common::assert_engines_agree`]; this file contributes
//! the proptest-driven corpus configurations and mutation sweeps.

mod common;

use common::mutate;
use proptest::prelude::*;

/// Engine agreement for the named format, via the shared fuel-bounded
/// engine table in `common`.
fn assert_agreement(name: &str, input: &[u8]) {
    let f = common::format(name);
    common::assert_engines_agree(f.name, f.grammar, f.vm, input);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zip_vm_agrees(
        n_entries in 1usize..8,
        payload_len in 1usize..600,
        deflate in any::<bool>(),
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let method = if deflate {
            ipg_corpus::zip::Method::Deflate
        } else {
            ipg_corpus::zip::Method::Stored
        };
        let mut bytes =
            ipg_corpus::zip::generate(&ipg_corpus::zip::Config { n_entries, payload_len, method, seed }).bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("zip", &bytes);
    }

    #[test]
    fn zip_inflate_vm_agrees(
        n_entries in 1usize..6,
        payload_len in 1usize..600,
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::zip::generate(&ipg_corpus::zip::Config {
            n_entries,
            payload_len,
            method: ipg_corpus::zip::Method::Deflate,
            seed,
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("zip_inflate", &bytes);
    }

    #[test]
    fn dns_vm_agrees(
        n_questions in 0usize..4,
        n_answers in 0usize..8,
        compress in any::<bool>(),
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::dns::generate(&ipg_corpus::dns::Config {
            n_questions, n_answers, compress, seed,
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("dns", &bytes);
    }

    #[test]
    fn png_vm_agrees(
        n_idat in 0usize..6,
        idat_len in 1usize..500,
        with_text in any::<bool>(),
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::png::generate(&ipg_corpus::png::Config {
            n_idat, idat_len, with_text, seed, ..Default::default()
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("png", &bytes);
    }

    #[test]
    fn gif_vm_agrees(
        n_frames in 0usize..6,
        data_per_frame in 1usize..800,
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::gif::generate(&ipg_corpus::gif::Config {
            n_frames, data_per_frame, seed, ..Default::default()
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("gif", &bytes);
    }

    #[test]
    fn elf_vm_agrees(
        n_sections in 0usize..6,
        n_symbols in 0usize..16,
        n_dyn in 0usize..6,
        section_size in 1usize..300,
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::elf::generate(&ipg_corpus::elf::Config {
            n_sections, n_symbols, n_dyn, section_size, seed,
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("elf", &bytes);
    }

    #[test]
    fn ipv4udp_vm_agrees(
        payload_len in 0usize..2000,
        options_words in 0usize..8,
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::ipv4udp::generate(&ipg_corpus::ipv4udp::Config {
            payload_len, options_words, seed,
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("ipv4udp", &bytes);
    }

    #[test]
    fn pe_vm_agrees(
        n_sections in 1usize..8,
        section_size in 1usize..2000,
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::pe::generate(&ipg_corpus::pe::Config {
            n_sections, section_size, seed,
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("pe", &bytes);
    }

    #[test]
    fn pdf_vm_agrees(
        n_objects in 1usize..6,
        stream_len in 1usize..600,
        seed in 0u64..1000,
        kind in 0u8..4, pos in 0usize..1 << 16, value in 0u8..=255,
    ) {
        let mut bytes = ipg_corpus::pdf::generate(&ipg_corpus::pdf::Config {
            n_objects, stream_len, seed,
        })
        .bytes;
        mutate(&mut bytes, kind, pos, value);
        assert_agreement("pdf", &bytes);
    }
}

/// Fixed (non-proptest) smoke checks: pristine corpus defaults for every
/// grammar plus a systematic truncation sweep on one format, so agreement
/// failures show up even with a single test filter.
#[test]
fn vm_agrees_on_pristine_corpus_defaults() {
    for f in common::formats() {
        assert_agreement(f.name, &common::default_corpus_input(f.name));
    }
}

#[test]
fn vm_agrees_on_every_truncation_of_a_dns_message() {
    let bytes = ipg_corpus::dns::generate(&ipg_corpus::dns::Config {
        n_questions: 1,
        n_answers: 2,
        compress: true,
        seed: 42,
    })
    .bytes;
    for cut in 0..bytes.len() {
        assert_agreement("dns", &bytes[..cut]);
    }
}

/// Interpreter ≡ one-shot VM ≡ a session fed `input` split at `split`,
/// each with step limit `fuel` and memoization on or off: the same tree,
/// steps and deepest error.
fn assert_oracle(f: &common::Format, input: &[u8], fuel: u64, split: usize, memoize: bool) {
    use ipg_core::interp::vm::Outcome;
    use ipg_core::interp::Parser;
    let ctx = format!(
        "{}: {} bytes, fuel {fuel}, split at {split}, memoize {memoize}",
        f.name,
        input.len()
    );
    let parser = Parser::new(f.grammar).max_steps(fuel).memoize(memoize);
    let (reference, ref_stats) = parser.parse_with_stats(input);
    let vm = f.vm.clone().max_steps(fuel).memoize(memoize);
    let (one_shot, stats) = vm.parse_with_stats(input);
    assert_eq!(stats.steps, ref_stats.steps, "one-shot steps, {ctx}");
    assert_eq!(one_shot.map(|t| t.root().to_tree()), reference, "one-shot, {ctx}");

    let mut session = vm.streaming();
    let (head, tail) = input.split_at(split.min(input.len()));
    let early = [head, tail].into_iter().find_map(|chunk| session.feed(chunk).err().cloned());
    let streamed = match (early, session.finish()) {
        (Some(e), _) | (None, Outcome::Error(e)) => Err(e),
        (None, Outcome::Done(tree)) => Ok(tree.root().to_tree()),
        (None, Outcome::NeedInput { .. }) => panic!("finish never needs input, {ctx}"),
    };
    assert_eq!(session.stats().steps, stats.steps, "streamed steps, {ctx}");
    // A session words fuel exhaustion like `parse`, not like
    // `parse_with_stats`.
    let reference = if stats.steps > fuel { parser.parse(input) } else { reference };
    assert_eq!(streamed, reference, "streamed, {ctx}");
}

/// The fallback edges of field runs (`fields` in a bytecode listing): a
/// run decodes its whole record at once only when all of it is in bounds,
/// the fuel lasts to its end, its literal matches and the frame is not an
/// open streaming root; anything else runs the general instructions. For
/// every corpus grammar with a run, on a small valid input, each case
/// below must leave the interpreter, the one-shot VM and a streamed
/// session agreeing on the tree, the steps and the deepest error:
///
/// * the input truncated at every byte of each record's first 64 bytes;
/// * each of a record's first 8 bytes flipped (every literal a run starts
///   with lies there);
/// * the step limit set to every step count up to the whole parse's;
/// * the session's input split at every byte of each record's first 64.
mod field_run_edges {
    use super::assert_oracle;
    use super::common::{self, Format, AGREE_FUEL};
    use ipg_core::interp::Parser;
    use ipg_core::tree::Tree;
    use std::rc::Rc;

    /// A small valid input of each grammar with field runs.
    pub(super) fn small_input(name: &str) -> Option<Vec<u8>> {
        use ipg_corpus::*;
        let zip = |method| zip::Config { n_entries: 2, payload_len: 24, method, seed: 7 };
        Some(match name {
            "zip" => zip::generate(&zip(zip::Method::Stored)).bytes,
            "zip_inflate" => zip::generate(&zip(zip::Method::Deflate)).bytes,
            "dns" => {
                let config = dns::Config { n_questions: 1, n_answers: 2, compress: true, seed: 7 };
                dns::generate(&config).bytes
            }
            "elf" => {
                let config =
                    elf::Config { n_sections: 1, section_size: 8, n_symbols: 2, n_dyn: 2, seed: 7 };
                elf::generate(&config).bytes
            }
            "gif" => {
                let config = gif::Config {
                    n_frames: 1,
                    width: 4,
                    height: 4,
                    gct_bits: Some(1),
                    data_per_frame: 8,
                    seed: 7,
                };
                gif::generate(&config).bytes
            }
            "png" => {
                let config = png::Config {
                    n_idat: 1,
                    idat_len: 8,
                    width: 4,
                    height: 4,
                    with_text: true,
                    seed: 7,
                };
                png::generate(&config).bytes
            }
            "pe" => pe::generate(&pe::Config { n_sections: 2, section_size: 16, seed: 7 }).bytes,
            "ipv4udp" => ipv4udp::generate(&Default::default()).bytes,
            _ => return None,
        })
    }

    /// The rules of `f` whose listing has a field run.
    fn rules_with_runs(f: &Format) -> Vec<String> {
        let listing = f.vm.program().disassemble(f.grammar);
        let (mut rule, mut rules) = ("", Vec::new());
        for line in listing.lines() {
            if let Some(header) = line.strip_prefix("rule ") {
                rule = header.split_whitespace().nth(1).unwrap_or("").trim_end_matches(':');
            } else if line.trim_start().contains("  fields ") && !rules.iter().any(|r| r == rule) {
                rules.push(rule.to_owned());
            }
        }
        rules
    }

    /// The absolute spans of every node of `rules` in `tree`.
    fn records(tree: &Rc<Tree>, rules: &[String], out: &mut Vec<(usize, usize)>) {
        match &**tree {
            Tree::Node(n) => {
                if rules.iter().any(|r| **r == *n.name) {
                    out.push((n.base, n.base + n.input_len));
                }
                n.children.iter().for_each(|c| records(c, rules, out));
            }
            Tree::Array(a) => a.elems.iter().for_each(|c| records(c, rules, out)),
            Tree::Leaf(_) | Tree::Blackbox(_) => {}
        }
    }

    #[test]
    fn every_fallback_edge_agrees_across_engines() {
        let mut covered = Vec::new();
        for f in common::formats() {
            let rules = rules_with_runs(&f);
            let Some(input) = small_input(f.name) else {
                assert!(rules.is_empty(), "{}: field runs but no small input", f.name);
                continue;
            };
            if rules.is_empty() {
                continue;
            }
            let reference = Parser::new(f.grammar).parse(&input).expect("small input parses");
            let mut spans = Vec::new();
            records(&reference, &rules, &mut spans);
            assert!(!spans.is_empty(), "{}: no record of {rules:?} parsed", f.name);
            for &(start, end) in &spans {
                let reach = end.min(start + 64);
                for cut in start..=reach {
                    assert_oracle(&f, &input[..cut], AGREE_FUEL, cut / 2, true);
                    assert_oracle(&f, &input, AGREE_FUEL, cut, true);
                }
                for at in start..end.min(start + 8) {
                    let mut flipped = input.clone();
                    flipped[at] ^= 0xff;
                    assert_oracle(&f, &flipped, AGREE_FUEL, at, true);
                }
            }
            let steps = f.vm.parse_with_stats(&input).1.steps;
            for fuel in 0..=steps {
                assert_oracle(&f, &input, fuel, input.len() / 2, true);
            }
            covered.push(f.name);
        }
        assert_eq!(covered.len(), 8, "grammars with field runs: {covered:?}");
    }
}

/// The fallback edges of byte scans (`scan` in a bytecode listing): a
/// scan runs its rule's whole recursion at once only when the terminator
/// lies past the frame's first byte inside its interval, the fuel lasts to
/// it, no nested level is memoized yet and the terminator's literal
/// matches; anything else runs the general instructions. Each case below
/// must leave the interpreter, the one-shot VM and a session fed in two
/// chunks agreeing on the tree, the steps and the deepest error, with
/// memoization on and off:
///
/// * each string table's section ending at every byte of the table (a
///   string with no terminator, a terminator on the section's last byte);
/// * each byte of the table set to NUL (an empty string, a string cut
///   short) and to a letter (two strings joined, a missing terminator);
/// * the session's input split at every byte of the table;
/// * the step limit set to every step count up to the whole parse's;
/// * a grammar whose earlier calls memoize a scan's nested levels.
///
/// elf's `Str` is the one corpus rule of the scan shape; the section's
/// end moves through its header's `sz` field, since cutting the file
/// inside a table would cut off the section headers that follow it.
mod scan_edges {
    use super::assert_oracle;
    use super::common::{self, AGREE_FUEL};
    use ipg_core::frontend::parse_grammar;
    use ipg_core::interp::vm::VmParser;
    use ipg_core::interp::Parser;
    use ipg_core::tree::{Node, Tree};

    /// Every node named `name` in `tree`.
    fn nodes<'t>(tree: &'t Tree, name: &str, out: &mut Vec<&'t Node>) {
        match tree {
            Tree::Node(n) => {
                if *n.name == *name {
                    out.push(n);
                }
                n.children.iter().for_each(|c| nodes(c, name, out));
            }
            Tree::Array(a) => a.elems.iter().for_each(|c| nodes(c, name, out)),
            Tree::Leaf(_) | Tree::Blackbox(_) => {}
        }
    }

    /// `input` with the `sz` of the section header at `sh` set to `sz`.
    fn with_size(input: &[u8], sh: usize, sz: usize) -> Vec<u8> {
        let mut out = input.to_vec();
        out[sh + 32..sh + 40].copy_from_slice(&(sz as u64).to_le_bytes());
        out
    }

    #[test]
    fn every_fallback_edge_agrees_across_engines() {
        let with_scans: Vec<_> = common::formats()
            .into_iter()
            .filter(|f| f.vm.program().disassemble(f.grammar).contains("  scan "))
            .collect();
        let names: Vec<_> = with_scans.iter().map(|f| f.name).collect();
        assert_eq!(names, ["elf"], "a new grammar with a scan needs its own edge cases here");
        let f = &with_scans[0];
        let input = super::field_run_edges::small_input("elf").expect("elf has a small input");
        let reference = Parser::new(f.grammar).parse(&input).expect("small input parses");
        let (mut tables, mut headers) = (Vec::new(), Vec::new());
        nodes(&reference, "StrSec", &mut tables);
        nodes(&reference, "SH", &mut headers);
        assert_eq!(tables.len(), 2, "the small input has .strtab and .shstrtab");
        for table in tables {
            let (start, end) = table.span();
            let sh = headers
                .iter()
                .find(|h| h.attr(f.grammar, "ofs") == Some(start as i64))
                .expect("a string table has a section header")
                .base;
            for memoize in [true, false] {
                for sz in 0..=end - start {
                    assert_oracle(f, &with_size(&input, sh, sz), AGREE_FUEL, start + sz, memoize);
                }
                for at in start..end {
                    for byte in [0, b'x'] {
                        let mut changed = input.clone();
                        changed[at] = byte;
                        assert_oracle(f, &changed, AGREE_FUEL, at, memoize);
                    }
                    assert_oracle(f, &input, AGREE_FUEL, at, memoize);
                }
            }
        }
        let steps = f.vm.parse_with_stats(&input).1.steps;
        for fuel in 0..=steps {
            assert_oracle(f, &input, fuel, input.len() / 2, false);
        }
    }

    /// Rules of the scan shape beyond elf's, on inputs that reach each
    /// fallback edge: two guards, the second undefined on `Z`; sets that
    /// read the byte, the nested rule's `end` and a conditional, in
    /// another order in each alternative; a terminator at an offset, or
    /// longer than one byte, that does not match or does not fit; a
    /// failing parse whose deepest error is the terminator's guard; and
    /// earlier calls that memoize a scan's nested levels, so it must fall
    /// back and the general instructions hit the memo at level 2, or that
    /// searched a suffix of its interval, past a terminator it has.
    #[test]
    fn other_scan_shapes_agree_across_engines() {
        let cases: [(&str, &[&[u8]]); 4] = [
            (
                r#"
                S -> W[0, EOI] {n = W.len};
                W -> C[0, 1] assert(C.val >= 65) assert((C.val - 90) / (C.val - 90) = 1)
                       W[C.end, EOI]
                       {len = 1 + W.len} {sum = W.sum * 3 + C.val + W.end}
                       {big = W.len > 2 ? 1 : 0}
                   / "Z!"[0, 2] {big = 0} {sum = 7} {len = 0};
                C := u8;
                "#,
                &[b"ABCZ!", b"Z!", b"AZ!xx", b"ABC.!", b"ABC", b"ABCZ", b"", b"Z", b"QRSTUVZ!"],
            ),
            (
                r#"
                S -> L[0, EOI];
                L -> B[0, 1] assert(B.val != 0) L[1, EOI] {n = L.n + 1}
                   / "ab"[1, 3] {n = 0};
                B := u8;
                "#,
                &[b"xy\0ab", b"xy\0a", b"\0ab", b"xy\0ba", b"xy", b"xyz\0abc"],
            ),
            (
                r#"
                S -> W[0, EOI] "%"[0, 1];
                W -> C[0, 1] assert(C.val >= 65) assert((C.val - 90) / (C.val - 90) = 1)
                       W[1, EOI] {len = 1 + W.len}
                   / "Z"[0, 1] {len = 0};
                C := u8;
                "#,
                &[b"ABZ", b"AB.", b"%"],
            ),
            (
                r#"
                S -> Str[2, EOI] Str[0, EOI] {n = Str.len};
                Str -> Ch[0, 1] assert(Ch.val > 0) Str[1, EOI] {len = 1 + Str.len}
                     / x"00"[0, 1] {len = 0};
                Ch := u8;
                "#,
                &[b"abcdef\0rest", b"ab\0", b"abc", b"a\0cdef\0"],
            ),
        ];
        for (spec, inputs) in cases {
            let g = parse_grammar(spec).unwrap();
            let vm: &'static VmParser = Box::leak(Box::new(VmParser::new(&g)));
            let listing = vm.program().disassemble(&g);
            assert!(listing.contains("  scan "), "no scan in\n{listing}");
            let f = common::Format { name: "scan shape", grammar: vm.grammar(), vm };
            for input in inputs {
                for memoize in [true, false] {
                    for split in 0..=input.len() {
                        assert_oracle(&f, input, AGREE_FUEL, split, memoize);
                    }
                    let steps = vm.clone().memoize(memoize).parse_with_stats(input).1.steps;
                    for fuel in 0..=steps {
                        assert_oracle(&f, input, fuel, input.len() / 2, memoize);
                    }
                }
            }
        }
    }
}
