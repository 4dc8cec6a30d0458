//! Differential tests: the bytecode VM against the reference tree-walking
//! interpreter, over corpus-generated inputs for every format grammar —
//! including truncated and corrupted mutants.
//!
//! Every case goes through the one oracle,
//! `ipg_formats::Registry::compare_engines` (via [`common::assert_oracle`]
//! and its wrappers): the interpreter, the one-shot VM and a fresh session
//! fed the input cut at the lane's offsets must take the same steps and
//! build the same tree or report the same deepest error, and the session
//! must replay an early rejection at `finish` without taking more steps.
//! The cut points are the lane's input to the oracle: the proptest
//! corpus configurations and fixed sweeps cut at the midpoint
//! ([`common::assert_engines_agree`]); the edge lanes below cut where
//! their edge lies (each record's and list element's bytes, a section's
//! end) as well as at the midpoint, under step limits up to the whole
//! parse's and with memoization on and off.

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

/// Fuel exhaustion reads alike on every entry point: at a step limit
/// below a parse's steps, the interpreter's `parse` and, through the
/// oracle, its `parse_with_stats`, the VM's `parse_with_stats` and a
/// session fed the whole input, and the VM's `parse` and `parse_bounded`
/// return the identical error.
#[test]
fn fuel_exhaustion_reads_alike_on_every_entry_point() {
    use ipg_core::interp::Parser;
    for f in common::formats() {
        let input = common::default_corpus_input(f.name);
        let steps = f.vm.parse_with_stats(&input).1.steps;
        for fuel in [1, steps / 2, steps - 1] {
            let ctx = format!("{}: fuel {fuel} of {steps} steps", f.name);
            let parser = Parser::new(f.grammar).max_steps(fuel);
            let want = parser.parse(&input).expect_err(&ctx);
            let limit =
                format!("step limit of {fuel} exhausted (possible non-terminating grammar)");
            assert!(
                matches!(&want, ipg_core::Error::Parse(pe) if pe.msg == limit),
                "{ctx}: {want}"
            );
            let vm = f.vm.clone().max_steps(fuel);
            assert!(!common::assert_oracle(&ctx, &parser, &vm, &input, &[]));
            let got = [
                ("parse", vm.parse(&input).err()),
                ("parse_bounded", f.vm.parse_bounded(&input, fuel).0.err()),
            ];
            for (entry, err) in got {
                assert_eq!(err.as_ref(), Some(&want), "{entry}, {ctx}");
            }
        }
    }
}

/// The edges of records (`record` in a bytecode listing): a record
/// decodes its run in one pass where the run succeeds or fails, and runs
/// the general instructions only when the fuel might run out inside it,
/// a sibling's attribute it reads is undefined, or its frame is an open
/// streaming root. For every corpus grammar with a record, on a small
/// valid input, each case below must leave the interpreter, the one-shot
/// VM and a streamed session agreeing on the tree, the steps and the
/// deepest error:
///
/// * the input truncated at every byte of each record's first 64 bytes;
/// * each of a record's first 8 bytes flipped (every literal a record
///   starts with lies there, and elf's `Cls` and `Enc` bytes, whose
///   guards then fail in place);
/// * the step limit set to every step count up to the whole parse's;
/// * the session's input split at every byte of each record's first 64.
mod record_edges {
    use super::common::{self, Format, AGREE_FUEL};
    use ipg_core::frontend::parse_grammar;
    use ipg_core::interp::vm::VmParser;
    use ipg_core::interp::Parser;
    use ipg_core::tree::Tree;

    /// A small valid input of each grammar with records.
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
            "pdf" => pdf::generate(&pdf::Config { n_objects: 2, stream_len: 8, seed: 7 }).bytes,
            "ipv4udp" => ipv4udp::generate(&Default::default()).bytes,
            _ => return None,
        })
    }

    /// The rules of `f` whose listing has a record.
    fn rules_with_records(f: &Format) -> Vec<String> {
        let listing = f.vm.program().disassemble(f.grammar);
        let (mut rule, mut rules) = ("", Vec::new());
        for line in listing.lines() {
            if let Some(header) = line.strip_prefix("rule ") {
                rule = header.split_whitespace().nth(1).unwrap_or("").trim_end_matches(':');
            } else if line.ends_with("  record") && !rules.iter().any(|r| r == rule) {
                rules.push(rule.to_owned());
            }
        }
        rules
    }

    #[test]
    fn every_fallback_edge_agrees_across_engines() {
        let mut covered = Vec::new();
        for f in common::formats() {
            let rules = rules_with_records(&f);
            let Some(input) = small_input(f.name) else {
                assert!(rules.is_empty(), "{}: records but no small input", f.name);
                continue;
            };
            if rules.is_empty() {
                continue;
            }
            let reference = Parser::new(f.grammar).parse(&input).expect("small input parses");
            let spans: Vec<_> = reference
                .preorder()
                .filter_map(Tree::as_node)
                .filter(|n| rules.iter().any(|r| **r == *n.name))
                .map(|n| (n.base, n.base + n.input_len))
                .collect();
            assert!(!spans.is_empty(), "{}: no record of {rules:?} parsed", f.name);
            for &(start, end) in &spans {
                let reach = end.min(start + 64);
                for cut in start..=reach {
                    common::assert_oracle_with(&f, &input[..cut], AGREE_FUEL, true, &[cut / 2]);
                    common::assert_oracle_with(&f, &input, AGREE_FUEL, true, &[cut]);
                }
                for at in start..end.min(start + 8) {
                    let mut flipped = input.clone();
                    flipped[at] ^= 0xff;
                    common::assert_oracle_with(&f, &flipped, AGREE_FUEL, true, &[at]);
                }
            }
            let steps = f.vm.parse_with_stats(&input).1.steps;
            for fuel in 0..=steps {
                common::assert_oracle_with(&f, &input, fuel, true, &[input.len() / 2]);
            }
            covered.push(f.name);
        }
        assert_eq!(covered.len(), 9, "grammars with records: {covered:?}");
    }

    /// elf's header is one record from its magic to `shstrndx`, guards
    /// included: each class and encoding byte its guards reject fails the
    /// record in place, at the guard, with memoization on and off.
    #[test]
    fn elf_header_guards_fail_in_place() {
        let f = common::format("elf");
        let listing = f.vm.program().disassemble(f.grammar);
        assert!(listing.contains("    0003  record\n"), "{listing}");
        assert!(listing.contains("            guard s1:Cls.val = 2\n"), "{listing}");
        let input = small_input("elf").expect("elf has a small input");
        for (at, byte) in [(4, 1), (4, 3), (4, 0xfd), (5, 0), (5, 2), (5, 0xfe)] {
            let mut changed = input.clone();
            changed[at] = byte;
            assert!(Parser::new(f.grammar).parse(&changed).is_err(), "byte {at} = {byte}");
            for memoize in [true, false] {
                for split in [0, at, at + 1, 64] {
                    common::assert_oracle_with(&f, &changed, AGREE_FUEL, memoize, &[split]);
                }
                let steps = f.vm.clone().memoize(memoize).parse_with_stats(&changed).1.steps;
                for fuel in 0..=steps {
                    common::assert_oracle_with(&f, &changed, fuel, memoize, &[32]);
                }
            }
        }
    }

    /// A record's endpoints must be affine: a field whose left endpoint is
    /// `Len.val * Len.val` ends every run at it, so the first grammar
    /// below compiles to no record at all and runs the general
    /// instructions.
    /// In the second, the same product is a `bytes` field's endpoint, and
    /// the run after it is a record that loads that sibling's `end`. Both
    /// agree across engines at every split and step limit, with
    /// memoization on and off.
    #[test]
    fn runs_whose_base_is_not_affine() {
        let cases = [
            (
                r#"
                S -> Len[0, 1] U16[Len.val * Len.val, Len.val * Len.val + 2] {a = U16.val}
                     U8[Len.val * Len.val + 2, Len.val * Len.val + 3] {c = U8.val};
                Len := u8;
                U16 := u16be;
                U8 := u8;
                "#,
                None,
            ),
            (
                r#"
                S -> Len[0, 1] Pad[1, 1 + Len.val * Len.val]
                     U16[Pad.end, Pad.end + 2] {a = U16.val} U16[2] {b = U16.val};
                Len := u8;
                Pad := bytes;
                U16 := u16be;
                "#,
                Some("call U16[s1:Pad.end, 2 + s1:Pad.end] -> s2"),
            ),
        ];
        let inputs: [&[u8]; 7] = [
            &[0, 1, 2, 3],
            &[1, 9, 1, 2, 3, 4, 5],
            &[2, 1, 2, 3, 4, 5, 6, 7, 8],
            &[2, 1, 2, 3, 4, 5],
            &[3, 1, 2],
            &[0x80, 1, 2, 3, 4, 5],
            &[],
        ];
        for (spec, op) in cases {
            let g = parse_grammar(spec).unwrap();
            let vm: &'static VmParser = Box::leak(Box::new(VmParser::new(&g)));
            let listing = vm.program().disassemble(&g);
            match op {
                None => assert!(!listing.contains("  record"), "a record in\n{listing}"),
                Some(op) => assert!(listing.contains(op), "no `{op}` in\n{listing}"),
            }
            let f = Format { name: "non-affine base", grammar: vm.grammar(), vm };
            for input in inputs {
                for memoize in [true, false] {
                    for split in 0..=input.len() {
                        common::assert_oracle_with(&f, input, AGREE_FUEL, memoize, &[split]);
                    }
                    let steps = vm.clone().memoize(memoize).parse_with_stats(input).1.steps;
                    for fuel in 0..=steps {
                        common::assert_oracle_with(&f, input, fuel, memoize, &[input.len() / 2]);
                    }
                }
            }
        }
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
    use super::common::{self, AGREE_FUEL};
    use ipg_core::frontend::parse_grammar;
    use ipg_core::interp::vm::VmParser;
    use ipg_core::interp::Parser;

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
        let input = super::record_edges::small_input("elf").expect("elf has a small input");
        let reference = Parser::new(f.grammar).parse(&input).expect("small input parses");
        let tables: Vec<_> = common::nodes_named(&reference, "StrSec").collect();
        let headers: Vec<_> = common::nodes_named(&reference, "SH").collect();
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
                    common::assert_oracle_with(
                        f,
                        &with_size(&input, sh, sz),
                        AGREE_FUEL,
                        memoize,
                        &[start + sz],
                    );
                }
                for at in start..end {
                    for byte in [0, b'x'] {
                        let mut changed = input.clone();
                        changed[at] = byte;
                        common::assert_oracle_with(f, &changed, AGREE_FUEL, memoize, &[at]);
                    }
                    common::assert_oracle_with(f, &input, AGREE_FUEL, memoize, &[at]);
                }
            }
        }
        let steps = f.vm.parse_with_stats(&input).1.steps;
        for fuel in 0..=steps {
            common::assert_oracle_with(f, &input, fuel, false, &[input.len() / 2]);
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
                        common::assert_oracle_with(&f, input, AGREE_FUEL, memoize, &[split]);
                    }
                    let steps = vm.clone().memoize(memoize).parse_with_stats(input).1.steps;
                    for fuel in 0..=steps {
                        common::assert_oracle_with(&f, input, fuel, memoize, &[input.len() / 2]);
                    }
                }
            }
        }
    }

    /// A scan's sets must be affine forms, comparisons of two, or
    /// conditionals choosing between two (`bytecode::Form`): a rule of the
    /// scan shape whose set puts a comparison inside arithmetic, in its
    /// first alternative or only in its terminator's, is not a scan at all
    /// and runs the general instructions with the same results.
    #[test]
    fn sets_that_are_not_forms_run_the_general_instructions() {
        let specs = [
            r#"
            S -> Str[0, EOI] {n = Str.len};
            Str -> Ch[0, 1] assert(Ch.val > 0) Str[1, EOI] {len = 1 + (Ch.val > 96) + Str.len}
                 / x"00"[0, 1] {len = 0};
            Ch := u8;
            "#,
            r#"
            S -> Str[0, EOI] {n = Str.len};
            Str -> Ch[0, 1] assert(Ch.val > 0) Str[1, EOI] {len = 1 + Str.len}
                 / x"00"[0, 1] {len = (1 > 0) * 5};
            Ch := u8;
            "#,
        ];
        let inputs: [&[u8]; 5] = [b"abC\0rest", b"\0", b"aB", b"", b"xyz\0\0"];
        for spec in specs {
            let g = parse_grammar(spec).unwrap();
            let vm: &'static VmParser = Box::leak(Box::new(VmParser::new(&g)));
            let listing = vm.program().disassemble(&g);
            assert!(!listing.contains("  scan "), "a scan in\n{listing}");
            let f = common::Format { name: "non-form scan set", grammar: vm.grammar(), vm };
            for input in inputs {
                for memoize in [true, false] {
                    for split in 0..=input.len() {
                        common::assert_oracle_with(&f, input, AGREE_FUEL, memoize, &[split]);
                    }
                    let steps = vm.clone().memoize(memoize).parse_with_stats(input).1.steps;
                    for fuel in 0..=steps {
                        common::assert_oracle_with(&f, input, fuel, memoize, &[input.len() / 2]);
                    }
                }
            }
        }
    }
}

/// The edges of chains (`chain` in a bytecode listing): a chain runs a
/// right-recursive list's levels in its rule's frame and decodes a record
/// element in place, where it succeeds or fails; only an element whose
/// steps the fuel might not cover runs in a frame of its own, as does an
/// element that is not a record, and the level whose element or list
/// call fails runs the rule's second alternative in one. Each case
/// below must leave the interpreter, the one-shot VM and a session fed in
/// two chunks agreeing on the tree, the steps and the deepest error, with
/// memoization on and off:
///
/// * zip's local headers and central directory cut at every byte of each
///   element (the region ends early, the file stays well-formed around
///   it), and gif's file cut at every byte of each sub-block;
/// * element lengths that point past the end of their list (zip's `csize`
///   and `nlen`, gif's sub-block length);
/// * a gif sub-block list without its `0x00` terminator;
/// * a zip list whose last (or first) element has a broken signature;
/// * grammars whose earlier calls memoize a level in mid-list, whose list
///   is the streamed root, or whose elements are not records;
/// * a list 512 records deep, whole and cut mid-record;
/// * every split point and every step limit of a small input.
mod chain_edges {
    use super::common::{self, Format, AGREE_FUEL};
    use ipg_core::frontend::parse_grammar;
    use ipg_core::interp::vm::VmParser;
    use ipg_core::interp::Parser;

    /// The nodes named `name` in a parse of `input`, as `(start, end)`
    /// of the bytes they span (an element's node spans the rest of its
    /// list: its end is the next element's start, or the list's end).
    fn elements(f: &Format, input: &[u8], name: &str) -> Vec<(usize, usize)> {
        let tree = Parser::new(f.grammar).parse(input).expect("small input parses");
        let mut out: Vec<_> = common::nodes_named(&tree, name).map(|n| n.span()).collect();
        out.sort();
        assert!(!out.is_empty(), "{}: no `{name}` parsed", f.name);
        out
    }

    /// `input` checked with memoization on and off, split at `split`.
    fn check(f: &Format, input: &[u8], split: usize) {
        for memoize in [true, false] {
            common::assert_oracle_with(f, input, AGREE_FUEL, memoize, &[split]);
        }
    }

    /// Every split point and every step limit of `input`.
    fn check_all(f: &Format, input: &[u8]) {
        for memoize in [true, false] {
            for split in 0..=input.len() {
                common::assert_oracle_with(f, input, AGREE_FUEL, memoize, &[split]);
            }
            let steps = f.vm.clone().memoize(memoize).parse_with_stats(input).1.steps;
            for fuel in 0..=steps {
                common::assert_oracle_with(f, input, fuel, memoize, &[input.len() / 2]);
            }
        }
    }

    fn u32_at(input: &[u8], at: usize) -> usize {
        u32::from_le_bytes(input[at..at + 4].try_into().unwrap()) as usize
    }

    #[test]
    fn zip_lists_agree_at_every_edge() {
        let f = common::format("zip");
        assert!(f.vm.program().disassemble(f.grammar).contains("  chain LFH"));
        let input = super::record_edges::small_input("zip").expect("zip has a small input");
        let eocd = input.len() - 22;
        let cdofs = u32_at(&input, eocd + 16);
        let lfhs: Vec<_> =
            elements(&f, &input, "LFH").into_iter().filter(|e| e.0 < cdofs).collect();
        let cdes = elements(&f, &input, "CDE");
        // The local headers end at `cut`: the central directory follows,
        // and the end record's `cdofs` points at it.
        for &(start, _) in &lfhs {
            let end = lfhs.iter().map(|e| e.0).find(|&s| s > start).unwrap_or(cdofs);
            for cut in start..=end {
                let mut cut_input = input[..cut].to_vec();
                cut_input.extend_from_slice(&input[cdofs..]);
                let at = cut_input.len() - 22 + 16;
                cut_input[at..at + 4].copy_from_slice(&(cut as u32).to_le_bytes());
                check(&f, &cut_input, cut);
            }
        }
        // The central directory ends at `cut`, the end record after it.
        for &(start, _) in &cdes {
            let end = cdes.iter().map(|e| e.0).find(|&s| s > start).unwrap_or(eocd);
            for cut in start..=end {
                let mut cut_input = input[..cut].to_vec();
                cut_input.extend_from_slice(&input[eocd..]);
                check(&f, &cut_input, cut);
            }
        }
        // Lengths past the list's end, and broken signatures.
        let last = lfhs.last().expect("zip has local headers").0;
        for (at, value) in [
            (last + 18, u32::MAX),
            (last + 18, cdofs as u32),
            (lfhs[0].0 + 18, u32::MAX - 29),
            (cdes[0].0 + 28, 0xffff),
            (cdes.last().unwrap().0 + 28, 0x0100),
        ] {
            let mut changed = input.clone();
            let bytes = value.to_le_bytes();
            let width = if at == last + 18 || at == lfhs[0].0 + 18 { 4 } else { 2 };
            changed[at..at + width].copy_from_slice(&bytes[..width]);
            check(&f, &changed, at);
        }
        for at in [last, last + 3, lfhs[0].0 + 1, cdes.last().unwrap().0 + 2] {
            let mut changed = input.clone();
            changed[at] ^= 0xff;
            check(&f, &changed, at);
        }
        check_all(&f, &input);
    }

    #[test]
    fn gif_lists_agree_at_every_edge() {
        let f = common::format("gif");
        let listing = f.vm.program().disassemble(f.grammar);
        assert!(listing.contains("  chain SB") && listing.contains("  chain Block"));
        let config = ipg_corpus::gif::Config {
            n_frames: 2,
            width: 4,
            height: 4,
            gct_bits: Some(1),
            data_per_frame: 300,
            seed: 7,
        };
        let input = ipg_corpus::gif::generate(&config).bytes;
        let subs = elements(&f, &input, "SubBlocks");
        // A sub-block list's node spans to the end of the file: its
        // elements are the length-prefixed runs from its start.
        let mut blocks = Vec::new();
        for &(start, _) in &subs {
            let len = usize::from(input[start]);
            if len > 0 {
                blocks.push((start, start + 1 + len));
            }
        }
        blocks.dedup();
        for &(start, end) in &blocks {
            for cut in start..=end {
                check(&f, &input[..cut], cut / 2);
            }
            // The length points past the end of the file.
            let mut changed = input.clone();
            changed[start] = 0xff;
            check(&f, &changed, start);
            changed.truncate(end + 3);
            check(&f, &changed, start);
            // No terminator: the list runs into the next block.
            if input.get(end) == Some(&0) {
                let mut unterminated = input.clone();
                unterminated.remove(end);
                check(&f, &unterminated, end);
            }
        }
        check_all(&f, &input);
    }

    /// A right-recursive list 512 records deep, whole and cut mid-record.
    /// The VM runs the list in one frame, but the interpreter recurses
    /// once per level and overflows a default 2 MiB test thread, so the
    /// case runs on one thread with its own stack. On x86-64 Linux a
    /// debug build needed between 2.25 and 2.5 MiB for it, and a release
    /// build between 512 KiB and 1 MiB; 8 MiB leaves over 3x headroom.
    #[test]
    fn deep_recursive_lists_agree_across_engines() {
        const STACK: usize = 8 << 20;
        let spec = r#"
            S -> Items[0, EOI];
            Items -> Item[0, EOI] Items[Item.end, EOI] / Item[0, EOI];
            Item -> "R"[0, 1] Payload[1, 8];
            Payload := bytes;
        "#;
        let records: Vec<u8> = (0..512u32)
            .flat_map(|i| [[b'R'].as_slice(), &i.to_le_bytes(), &[0, 0, 0]].concat())
            .collect();
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn(move || {
                let g = parse_grammar(spec).unwrap();
                let vm: &'static VmParser = Box::leak(Box::new(VmParser::new(&g)));
                assert!(vm.program().disassemble(&g).contains("  chain Item["));
                let f = Format { name: "deep list", grammar: vm.grammar(), vm };
                for input in [&records[..], &records[..records.len() - 4]] {
                    check(&f, input, input.len() / 2);
                }
            })
            .expect("spawn the deep-list thread")
            .join()
            .expect("the engines agree on a deep list");
    }

    /// A right-recursive string 1,000,000 levels deep, on a default test
    /// thread: the VM parses it in its own frame stack, and `to_tree`,
    /// `==` and drop walk the tree with explicit stacks, so none of them
    /// recurses once per level. (The interpreter does, so it is not run
    /// here.) Each level is one node, which holds each tree to about
    /// 215 MB in a release build on x86-64; a level with a leaf of its
    /// own would double that.
    #[test]
    fn a_million_level_tree_converts_compares_and_drops_on_a_default_thread() {
        const LEVELS: usize = 1_000_000;
        let g = parse_grammar(
            r#"
            S -> L[0, EOI];
            L -> L[1, EOI] / "."[0, 1];
            "#,
        )
        .unwrap();
        let vm = VmParser::new(&g).memoize(false);
        let mut input = vec![b'a'; LEVELS];
        input.push(b'.');
        let parsed = vm.parse(&input).expect("the string parses");
        let (a, b) = (parsed.root().to_tree(), parsed.root().to_tree());
        assert!(a == b, "two conversions of one parse differ");
        let l = g.nt_id("L").unwrap();
        let mut depth = 0;
        let mut level = a.child_node_nt(l);
        while let Some(node) = level {
            depth += 1;
            level = node.child_node_nt(l);
        }
        assert_eq!(depth, LEVELS + 1);
        drop((a, b));
    }

    /// List shapes beyond the corpus: a record element with guards, sets
    /// and a conditional; the list as the start rule (streamed, it runs
    /// the general instructions); an earlier call that memoizes a level
    /// in mid-list, so the chain's look-up hits, or a later call that hits
    /// a level in mid-list; a second alternative that re-parses the element, or
    /// fails, or lies at offsets from the level's end that can be
    /// negative; elements that are not records; a record's failed guard, a
    /// fixed-width field on too short an interval (once more at the same
    /// key, where it records nothing), and a second alternative's literal
    /// too short for its interval, as the deepest error.
    #[test]
    fn other_list_shapes_agree_across_engines() {
        let cases: [(&str, &[&[u8]]); 10] = [
            (
                r#"
                S -> L[3, EOI] L[0, EOI] {n = L.end};
                L -> I[0, EOI] L[I.end, EOI]
                   / "."[0, 1];
                I -> Len[0, 1] assert(Len.val > 0) assert(Len.val < 9) {n = Len.val * 2 - 1}
                     {big = n > 5 ? n : 0 - n} Data[1, 1 + Len.val] Tag[Data.end, Data.end + 1];
                Len := u8;
                Data := bytes;
                Tag := u8;
                "#,
                &[
                    b"\x01a!\x02bc!\x01d!.",
                    b"\x01a!\x02bc!\x01d!",
                    b"\x01a!\x02bc!\x09d!.",
                    b"\x01a!\x02bc!\x00.",
                    b"\x01a!\x03bc!.",
                    b"\x01a!.",
                    b".",
                    b"",
                ],
            ),
            (
                r#"
                L -> I[0, EOI] L[I.end, EOI]
                   / I[0, EOI];
                I -> "<"[0, 1] N[1, 2] {n = N.val} Body[2, 2 + n];
                N := u8;
                Body := bytes;
                "#,
                &[b"<\x01a<\x00<\x02bc", b"<\x01a<\x00<\x02b", b"<\x01a>\x00", b"<", b""],
            ),
            (
                r#"
                S -> L[0, EOI] / B[0, EOI];
                L -> E[0, EOI] L[E.end, EOI]
                   / "$"[0, 1];
                E -> A[0, EOI] / C[0, EOI];
                A -> "a"[0, 1] N[1, 2];
                C -> "c"[0, 1];
                B -> N[0, 1] B[1, EOI] / N[0, EOI];
                N := u8;
                "#,
                &[b"a1cca2$", b"a1cca2", b"a1cXa2$", b"$", b"ca", b""],
            ),
            (
                r#"
                S -> L[0, EOI] L[2, EOI] {n = L.end};
                L -> I[0, EOI] L[I.end, EOI]
                   / "."[0, 1];
                I -> Len[0, 1] assert(Len.val > 0) Data[1, 1 + Len.val];
                Len := u8;
                Data := bytes;
                "#,
                &[b"\x01a\x02bc\x01d.", b"\x01a\x02bc\x01d", b"\x01a\x02bc."],
            ),
            (
                r##"
                S -> L[0, EOI] "#"[0, 1];
                L -> I[0, EOI] L[I.end, EOI]
                   / "."[0, 1];
                I -> Len[0, 1] assert(Len.val > 0) assert(Len.val < 9) Data[1, 1 + Len.val];
                Len := u8;
                Data := bytes;
                "##,
                &[b"\x01a.", b"\x01a\x02bc.", b"\x01a", b"."],
            ),
            (
                r#"
                S -> L[0, EOI];
                L -> I[0, EOI] L[I.end, EOI]
                   / "xy"[1, 2];
                I -> K[0, 1] assert(K.val = 1) P[1, 2];
                K := u8;
                P := u8;
                "#,
                &[b"\x01a\x01b\x02zz", b"\x01a\x02z", b"\x01axy", b"\x01"],
            ),
            (
                r#"
                S -> L[0, EOI];
                L -> I[0, EOI] L[I.end, EOI]
                   / I[0, EOI];
                I -> N[0, 1] V[1, 1 + N.val] {v = V.val};
                N := u8;
                V := u16be;
                "#,
                &[b"\x02ab\x02cd", b"\x02ab\x01cd", b"\x01ab", b"\x02ab\x03cd", b"\x02a"],
            ),
            (
                r#"
                S -> L[0, EOI];
                L -> I[0, EOI] L[I.end, EOI]
                   / J[0, EOI];
                I -> N[0, 1] V[1, 1 + N.val];
                J -> N[0, 1] K[1, EOI]
                   / N[0, 1] V[1, 1 + N.val] assert(N.val = 9);
                K -> "?"[0, 1];
                N := u8;
                V := u16be;
                "#,
                &[b"\x02ab\x01c", b"\x02ab\x01?", b"\x09ab\x01c"],
            ),
            (
                r#"
                S -> L[0, EOI];
                L -> I[0, EOI] L[I.end, EOI]
                   / "z"[EOI - 2, EOI - 1];
                I -> "+"[0, 1] P[1, 2];
                P := u8;
                "#,
                &[b"+a+bz.", b"+a+bz", b"+a+b", b"+az", b"z"],
            ),
            (
                r#"
                S -> W[0, EOI];
                W -> V[0, EOI] W[V.end, EOI]
                   / V[0, EOI] {v = 1};
                V -> U16[0, 2] {v = U16.val} U16[2] {w = U16.val + v};
                U16 := u16be;
                "#,
                &[b"\x00\x01\x00\x02\x00\x03\x00\x04", b"\x00\x01\x00\x02\x00", b"\x00\x01", b""],
            ),
        ];
        let mut chains = 0;
        for (spec, inputs) in cases {
            let g = parse_grammar(spec).unwrap();
            let vm: &'static VmParser = Box::leak(Box::new(VmParser::new(&g)));
            chains += vm.program().disassemble(&g).matches("  chain ").count();
            let f = Format { name: "list shape", grammar: vm.grammar(), vm };
            for input in inputs {
                check_all(&f, input);
            }
        }
        // The last case sets an attribute in its second alternative, so
        // its list is not a chain.
        assert_eq!(chains, 9, "chains in the list shapes");
    }
}
