//! Minimized regression inputs from conformance-fuzzing development.
//!
//! **Engine divergences found so far: none.** The development sweep behind
//! this PR ran 256 grammar-driven generations × 16 mutants for each of the
//! nine corpus grammars (36 864 mutants total) through both engines with
//! tree/step/error comparison and found zero interpreter-vs-VM divergences
//! and zero panics. When the harness (or a future fuzzing session) does
//! find one, the protocol is: minimize the input, add it here as a byte
//! literal with a comment naming the root cause, and keep it forever.
//!
//! Until then this file pins (a) the deterministic degenerate inputs that
//! exercise the rejection path through every engine pairing, and (b) the
//! two *generator-infrastructure* bugs development did find — both are the
//! kind of silent-degradation bug that only a pinned regression keeps dead.

mod common;

#[test]
fn degenerate_inputs_agree_across_engines() {
    // Empty input, one byte, and a filler-only buffer: every grammar must
    // reject (none accepts the empty string) and both engines must agree
    // on the exact deepest error. These are the minimal members of every
    // mutation orbit (truncation to zero), so they stay pinned explicitly.
    for f in common::formats() {
        for input in [&b""[..], &b"\x00"[..], &[b'.'; 64][..]] {
            let accepted = common::assert_engines_agree(f.name, f.grammar, f.vm, input);
            assert!(!accepted, "{}: degenerate input unexpectedly accepted", f.name);
        }
    }
}

/// Regression (generator infrastructure, found 2026-07): seeding the
/// SplitMix64-backed `StdRng` with `seed * 0x9e3779b97f4a7c15` — the
/// generator's own gamma constant — made the streams of consecutive seeds
/// shifted copies of each other, collapsing seeds 0..=3 of the GIF grammar
/// onto byte-identical outputs. Seeds are now hashed through a murmur-style
/// finalizer. This pins the observable symptom.
#[test]
fn regression_seed_aliasing_produces_distinct_inputs() {
    let f = common::format("gif");
    let generator = ipg_gen::Generator::new(f.grammar);
    let a = generator.generate_valid(0).expect("seed 0");
    let b = generator.generate_valid(1).expect("seed 1");
    let c = generator.generate_valid(2).expect("seed 2");
    assert!(a != b || b != c, "consecutive seeds collapsed onto one input");
}

/// Session-abuse coverage: every way a caller (or a hostile peer behind
/// `ipg-serve`) can misuse a streaming session must produce a clean
/// [`ipg_core::Error`], never a panic and never a wedged session.
mod session_abuse {
    use ipg_core::interp::vm::Outcome;
    use ipg_core::interp::Parser;
    use ipg_core::Error;

    /// Fuel exhaustion mid-stream and at finish reports the same "step
    /// limit" error the one-shot engines report, and the session stays
    /// closed (poisoned) afterwards.
    #[test]
    fn fuel_exhaustion_is_a_clean_terminal_error() {
        let f = super::common::format("zip");
        let input = super::common::default_corpus_input("zip");
        let mut session = f.vm.streaming().max_steps(3);
        for chunk in input.chunks(16) {
            if let Outcome::Error(e) = session.feed(chunk) {
                panic!("fuel cannot run out while suspended pre-finish: {e}");
            }
        }
        match session.finish() {
            Outcome::Error(Error::Parse(pe)) => {
                assert!(pe.msg.contains("step limit"), "unexpected message: {}", pe.msg)
            }
            other => panic!("expected a fuel error, got {other:?}"),
        }
        // Poisoned: further use replays a clean error.
        assert!(matches!(session.feed(b"more"), Outcome::Error(_)));
        assert!(matches!(session.finish(), Outcome::Error(_)));
    }

    /// Byte budgets poison the session exactly at the cap.
    #[test]
    fn byte_budget_is_enforced_at_the_cap() {
        let f = super::common::format("dns");
        let mut session = f.vm.streaming().max_bytes(8);
        assert!(matches!(session.feed(&[0u8; 8]), Outcome::NeedInput { .. }));
        match session.feed(&[0u8; 1]) {
            Outcome::Error(Error::Session(msg)) => {
                assert!(msg.contains("byte budget"), "unexpected message: {msg}")
            }
            other => panic!("expected a byte-budget error, got {other:?}"),
        }
        assert!(matches!(session.finish(), Outcome::Error(_)));
    }

    /// Feeding or finishing after `Done` returns a session error and does
    /// not disturb the delivered result.
    #[test]
    fn use_after_done_is_a_clean_error() {
        let f = super::common::format("dns");
        let input = super::common::default_corpus_input("dns");
        let mut session = f.vm.streaming();
        assert!(!matches!(session.feed(&input), Outcome::Error(_)));
        let Outcome::Done(tree) = session.finish() else { panic!("corpus input parses") };
        assert!(!tree.arena().is_empty());
        assert!(session.is_closed());
        for _ in 0..2 {
            match session.feed(b"late") {
                Outcome::Error(Error::Session(msg)) => {
                    assert!(msg.contains("delivered"), "unexpected message: {msg}")
                }
                other => panic!("expected a session error, got {other:?}"),
            }
        }
        assert!(matches!(session.finish(), Outcome::Error(Error::Session(_))));
    }

    /// Feeding after a determined rejection replays the same parse error.
    #[test]
    fn use_after_error_replays_the_rejection() {
        let f = super::common::format("gif");
        let mut session = f.vm.streaming();
        // A GIF must start with "GIF8"; this prefix is a determined
        // rejection long before end-of-input.
        let first = match session.feed(b"definitely-not-a-gif-header") {
            Outcome::Error(e) => e,
            other => panic!("expected a determined rejection, got {other:?}"),
        };
        match (session.feed(b"more"), session.finish()) {
            (Outcome::Error(a), Outcome::Error(b)) => {
                assert_eq!(a, first);
                assert_eq!(b, first);
            }
            other => panic!("expected replayed errors, got {other:?}"),
        }
    }

    /// Truncation at *every* boundary of real `dns` and `zip` corpus
    /// inputs: on each prefix, a session fed the whole prefix and then
    /// finished must agree with the one-shot VM and the interpreter
    /// (the oracle) — no panics, no divergence, no wedged state. (This is
    /// the streaming analogue of the truncation orbit in the conformance
    /// sweep.)
    #[test]
    fn truncation_at_every_boundary_is_clean() {
        for name in ["dns", "zip"] {
            let f = super::common::format(name);
            let parser = Parser::new(f.grammar).max_steps(super::common::AGREE_FUEL);
            let input = super::common::default_corpus_input(name);
            for cut in 0..=input.len() {
                let label = format!("{name} cut at {cut}");
                super::common::assert_oracle(&label, &parser, f.vm, &input[..cut], &[]);
            }
        }
    }

    /// Deadline eviction lives in the service layer: an evicted session's
    /// id answers with a clean session error (covered end-to-end in
    /// `crates/ipg-serve/tests/serve.rs`); this pins the error type it
    /// relies on.
    #[test]
    fn session_error_variant_displays_cleanly() {
        let e = Error::Session("evicted".into());
        assert_eq!(e.to_string(), "session error: evicted");
        assert_eq!(e.clone(), e);
    }
}

/// Regression (mutator, found 2026-07 while writing the harness): the
/// mutation driver must actually perturb — a seed/index pairing that maps
/// overwhelmingly onto the `pristine` arm turns the 256-mutant acceptance
/// floor into a no-op sweep. Pinned: across 64 mutants of a fixed buffer,
/// at least three quarters must differ from the original.
#[test]
fn regression_mutation_sweep_is_not_a_noop() {
    let base = common::default_corpus_input("dns");
    let mut changed = 0;
    for m in 0..64u64 {
        let mut mutant = base.clone();
        ipg_gen::mutate::mutate(&mut mutant, 99, m);
        if mutant != base {
            changed += 1;
        }
    }
    assert!(changed >= 48, "only {changed}/64 mutants differed from the base input");
}

/// Regression (hostile input): a `for` loop whose bounds lie more than
/// `i64::MAX` apart overflowed the element-vector reservation of both
/// engines into a "capacity overflow" panic. Under a step limit both must
/// now report the same clean step-limit error.
#[test]
fn for_loop_bounds_beyond_i64_range_hit_the_step_limit_cleanly() {
    use ipg_core::interp::{vm::VmParser, Parser};
    let g = ipg_core::frontend::parse_grammar(
        r#"
        S -> A[0, 8] B[8, 16] for i = A.val to B.val do X[16, 16];
        A := u64le;
        B := u64le;
        X := bytes;
        "#,
    )
    .unwrap();
    let mut input = (i64::MIN + 1).to_le_bytes().to_vec();
    input.extend_from_slice(&i64::MAX.to_le_bytes());
    let interp = Parser::new(&g).max_steps(1000).parse(&input).unwrap_err();
    let vm = VmParser::new(&g).max_steps(1000).parse(&input).unwrap_err();
    assert_eq!(interp, vm);
    assert!(
        matches!(&vm, ipg_core::Error::Parse(pe) if pe.msg.contains("step limit of 1000")),
        "expected a step-limit error, got {vm}"
    );
}

/// Integer semantics at the edges: attribute arithmetic is wrapping `i64`
/// (`interp::eval_binop`), and a `u64` builtin reads as the two's-complement
/// `i64` of its bytes, so a hostile length field can wrap an interval
/// bound. Each case aims one length or offset field at an edge of its range
/// and requires the interpreter, the one-shot VM and a session fed in two
/// chunks to agree on the outcome and the steps, with memoization on and
/// off, and none of them to panic; the cases that break the first element
/// of a list, or a header, must be rejected with a typed error. (A broken
/// last element of a zip list is not: the level before it re-parses its
/// own element alone, over the rest of the list.) The zip cases run
/// through the record elements of its chains, which fold endpoints into
/// affine forms of their own.
mod integer_wrapping {
    use ipg_core::interp::Parser;
    use ipg_core::Error;

    /// `input` with `value`'s low `width` bytes written little-endian at `at`.
    fn with(input: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
        let mut out = input.to_vec();
        out[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        out
    }

    /// Every engine parses `input` alike (the oracle, memoizing and not,
    /// the session fed two halves); returns whether it was rejected, with
    /// a typed error.
    fn assert_alike(name: &str, input: &[u8]) -> bool {
        let f = super::common::format(name);
        for memoize in [true, false] {
            let cuts = [input.len() / 2];
            super::common::assert_oracle_with(&f, input, super::common::AGREE_FUEL, memoize, &cuts);
        }
        let rejection = f.vm.parse(input).err();
        if let Some(e) = &rejection {
            assert!(matches!(e, Error::Parse(_)), "a typed rejection, {name}: {e}");
        }
        rejection.is_some()
    }

    #[test]
    fn zip_length_fields_at_their_maximum() {
        let input = super::common::default_corpus_input("zip");
        let tree = Parser::new(super::common::format("zip").grammar).parse(&input).unwrap();
        let bases = |name| super::common::nodes_named(&tree, name).map(|n| n.base).collect();
        let (lfhs, cdes): (Vec<usize>, Vec<usize>) = (bases("LFH"), bases("CDE"));
        let mut cases = Vec::new();
        for (lfh, first) in [(lfhs[0], true), (lfhs[lfhs.len() - 1], false)] {
            // `csize` (u32) and `nlen` (u16) at the top of their range,
            // alone and together: `30 + nlen + elen + csize` runs past EOI.
            cases.push((with(&input, lfh + 18, 4, u64::from(u32::MAX)), first));
            cases.push((with(&input, lfh + 26, 2, u64::from(u16::MAX)), first));
            let both = with(&with(&input, lfh + 18, 4, u64::from(u32::MAX)), lfh + 26, 2, 0xffff);
            cases.push((both, first));
        }
        for (cde, first) in [(cdes[0], true), (cdes[cdes.len() - 1], false)] {
            cases.push((with(&input, cde + 28, 2, u64::from(u16::MAX)), first));
            cases.push((with(&with(&input, cde + 28, 2, 0xffff), cde + 32, 2, 0xffff), first));
        }
        // The end record's `cdofs` at the top of its range.
        cases.push((with(&input, input.len() - 22 + 16, 4, u64::from(u32::MAX)), true));
        for (case, rejected) in &cases {
            assert!(assert_alike("zip", case) || !rejected, "a broken first element is rejected");
        }
    }

    #[test]
    fn elf_offsets_whose_sum_wraps() {
        let input = super::common::default_corpus_input("elf");
        let tree = Parser::new(super::common::format("elf").grammar).parse(&input).unwrap();
        let headers: Vec<usize> = super::common::nodes_named(&tree, "SH").map(|n| n.base).collect();
        let top = 1u64 << 63;
        let max = i64::MAX as u64;
        let mut cases = Vec::new();
        // `SH(1)` is the first section header whose section is parsed.
        for &sh in &headers[1..] {
            for (ofs, sz) in [
                (top, 16),      // `ofs` reads as i64::MIN
                (top + 5, top), // both negative, the sum wraps to 5
                (max - 2, 10),  // `ofs + sz` wraps past i64::MAX
                (16, u64::MAX), // `sz` reads as -1: the end precedes the start
                (16, max),      // the end wraps to a negative offset
                (u64::MAX, 1),  // `ofs` reads as -1, the sum as 0
            ] {
                cases.push(with(&with(&input, sh + 24, 8, ofs), sh + 32, 8, sz));
            }
        }
        // The header's `shoff` at the edges: the section headers' intervals wrap.
        for shoff in [top, max - 63, u64::MAX - 63] {
            cases.push(with(&input, 40, 8, shoff));
        }
        for case in &cases {
            assert!(assert_alike("elf", case), "a wrapped section or header is rejected");
        }
    }
}

/// Static attribute layouts: the VM keeps attributes in slots fixed per
/// rule when a parser is built, not in a per-alternative environment.
/// Each case below is an edge of that layout; on every input the VM's
/// `to_tree` must equal the interpreter's tree (environments compared in
/// order), with identical steps and deepest error, one-shot and streamed
/// in 1-byte and whole-input chunks.
mod attribute_layouts {
    use ipg_core::frontend::parse_grammar;
    use ipg_core::interp::vm::VmParser;
    use ipg_core::interp::Parser;
    use ipg_core::tree::Tree;

    /// Checks `spec` on `inputs` through the oracle, the session fed
    /// 1-byte chunks and then the whole input; returns how many inputs it
    /// accepted.
    fn assert_layout_agrees(spec: &str, inputs: &[&[u8]]) -> usize {
        let g = parse_grammar(spec).unwrap();
        let parser = Parser::new(&g).max_steps(super::common::AGREE_FUEL);
        let vm = VmParser::new(&g);
        let mut accepted = 0;
        for &input in inputs {
            let label = format!("layout, {input:?}");
            let bytes: Vec<usize> = (1..input.len()).collect();
            accepted +=
                usize::from(super::common::assert_oracle(&label, &parser, &vm, input, &bytes));
            super::common::assert_oracle(&label, &parser, &vm, input, &[]);
        }
        accepted
    }

    /// The attribute names of `tree`'s first node of `nt`, in env order.
    fn env_order(g: &ipg_core::check::Grammar, tree: &Tree, nt: &str) -> Option<Vec<String>> {
        let node = super::common::nodes_named(tree, nt).next()?;
        Some(node.env.iter().map(|(s, _)| g.attr_name(s).to_owned()).collect())
    }

    #[test]
    fn alternatives_setting_the_same_attributes_in_different_orders() {
        // `x` and `y` share a slot across both alternatives; `z` is set by
        // the first only, so the second's nodes must not list it.
        let spec = r#"
            S -> A[0, EOI] {s = A.x * 10 + A.y};
            A -> U8[0, 1] assert(U8.val = 0) {x = 1} {y = 2} {z = 3}
               / U8[0, 1] {y = 3} {x = 4};
            U8 := u8;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[0], &[1], &[]]), 2);
        let g = parse_grammar(spec).unwrap();
        let first = VmParser::new(&g).parse(&[0]).unwrap().root().to_tree();
        let second = VmParser::new(&g).parse(&[1]).unwrap().root().to_tree();
        let names = |v: &[&str]| Some(v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(env_order(&g, &first, "A"), names(&["EOI", "start", "end", "x", "y", "z"]));
        assert_eq!(env_order(&g, &second, "A"), names(&["EOI", "start", "end", "y", "x"]));
    }

    #[test]
    fn one_alternative_binding_a_name_twice() {
        // A second `Set` of one attribute in one alternative is a check
        // error, for both engines alike.
        let err = parse_grammar("S -> {x = 1} {x = 2};").unwrap_err();
        assert!(err.to_string().contains("defined twice"), "{err}");
        // What one alternative can do is bind a name twice over: as an
        // attribute and as a `for` or `exists` variable. Inside its term
        // the variable shadows the attribute; after it, the attribute is
        // back.
        let spec = r#"
            S -> {i = 7} for i = 0 to 3 do B[i, i + 1] {j = i}
                 {k = exists i in B . B(i).val = 2 ? i : i};
            B := u8;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[0, 2, 0], &[1, 1, 1], &[1]]), 2);
    }

    #[test]
    fn local_rule_reading_what_it_sets_itself_later() {
        // `L` reads `x` before binding its own: the read is the invoking
        // alternative's `x`, the later reads (and `M`, invoked by `L`) see
        // `L`'s own.
        let spec = r#"
            S -> U8[0, 1] {x = U8.val} L[1, EOI];
            local L -> U8[0, 1] {x = x + U8.val} {y = x} M[1, EOI];
            local M -> U8[0, 1] {z = x * 100 + U8.val};
            U8 := u8;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[3, 4, 5], &[3, 4], &[]]), 1);
        // An attribute the invoking alternative binds only after the call
        // is not visible to it: `T`'s first alternative fails and the
        // second, which binds `x` first, succeeds.
        let spec = r#"
            S -> T[0, EOI];
            T -> L[0, EOI] {x = 9}
               / {x = 1} L[0, EOI];
            local L -> U8[0, 1] {y = x + U8.val};
            U8 := u8;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[5], &[]]), 1);
    }

    #[test]
    fn for_and_exists_variables_read_inside_their_terms() {
        // The loop variable is read by the element intervals and by a
        // local element rule; the `exists` variable by its condition and
        // its `then` branch, never by `else`.
        let spec = r#"
            S -> N[0, 1] for j = 0 to N.val do E[1 + j, 2 + j]
                 for k = 0 to N.val do L[1 + k, 2 + k]
                 {hit = exists m in E . E(m).val = N.val ? m * 10 : 99};
            local L -> U8[0, 1] {pos = k} {sum = k + U8.val};
            E := u8;
            N := u8;
            U8 := u8;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[2, 5, 2], &[2, 5, 6], &[3, 1, 2], &[0]]), 3);
    }

    #[test]
    fn streamed_open_root_reads_eoi_before_it_is_sealed() {
        // The root reads `EOI` and a local rule of the root reads `start`
        // and its own `EOI`; streamed, the root's reads wait for the end
        // of input, after which its `EOI`/`start` slots are sealed.
        let spec = r#"
            S -> U8[0, 1] {n = EOI - 1} Body[1, EOI] L[EOI - 1, EOI];
            local L -> U8[0, 1] {s = start} {e = EOI + n};
            U8 := u8;
            Body := bytes;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[1, 2, 3, 4], &[9], &[]]), 2);
        // A local start rule reads its own `start` as a plain attribute
        // before any term has touched the input: the unsealed placeholder
        // must not leak into the value.
        let spec = r#"
            start S;
            local S -> {s = start} U8[0, 1] {t = start} Body[1, EOI];
            U8 := u8;
            Body := bytes;
        "#;
        assert_eq!(assert_layout_agrees(spec, &[&[1, 2, 3], &[]]), 1);
    }
}

/// Builtin leaf calls run in place inside the calling instruction. Each
/// case below puts a builtin at one kind of call site (symbol term, switch
/// case, `for` element, `star` element) and at zero and non-zero offsets;
/// on every input the VM must agree with the interpreter on `to_tree`,
/// steps and deepest error, with memoization on and off, one-shot and
/// streamed in 1-byte chunks.
mod leaf_calls {
    use ipg_core::frontend::parse_grammar;
    use ipg_core::interp::vm::VmParser;
    use ipg_core::interp::Parser;
    use std::path::Path;

    /// Checks `spec` on `inputs` through the oracle, memoizing and not,
    /// the session fed 1-byte chunks; returns how many inputs it accepted.
    fn assert_leaf_calls_agree(spec: &str, inputs: &[&[u8]]) -> usize {
        let g = parse_grammar(spec).unwrap();
        let mut accepted = 0;
        for memoize in [true, false] {
            let parser = Parser::new(&g).memoize(memoize);
            let vm = VmParser::new(&g).memoize(memoize);
            accepted = 0;
            for &input in inputs {
                let label = format!("{input:?}, memoize {memoize}");
                let bytes: Vec<usize> = (1..input.len()).collect();
                accepted +=
                    usize::from(super::common::assert_oracle(&label, &parser, &vm, input, &bytes));
            }
        }
        accepted
    }

    #[test]
    fn builtin_symbol_terms_at_zero_and_non_zero_offsets() {
        // `A` sits at offset 0 (its node needs no re-basing), `B` and `C`
        // at non-zero offsets; the caller reads their re-based
        // `start`/`end` as well as their values.
        let spec = r#"
            S -> A[0, 2] B[2, 4] C[4, EOI]
                 {v = A.val + B.val} {s = B.start * 100 + B.end} {c = C.start - C.end};
            A := u16le;
            B := u16be;
            C := u8;
        "#;
        let inputs: [&[u8]; 4] = [&[1, 0, 0, 2, 9], &[1, 0, 0, 2, 9, 9], &[1, 0, 0, 2], &[1, 0]];
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 2);
    }

    #[test]
    fn builtin_switch_cases() {
        let spec = r#"
            S -> K[0, 1]
                 switch(K.val = 1 : A[1, 3] / K.val = 2 : B[2, EOI] / C[0, 1])
                 {k = K.val};
            A := u16le;
            B := u32be;
            C := u8;
            K := u8;
        "#;
        let inputs: [&[u8]; 5] = [&[1, 7, 0], &[2, 0, 0, 0, 0, 5], &[2, 0, 0], &[3], &[1, 7]];
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 3);
    }

    #[test]
    fn builtin_for_elements() {
        // The first element is at offset 1, so every element is re-based;
        // `E.val` reads the last element.
        let spec = r#"
            S -> N[0, 1] for i = 0 to N.val do E[1 + 2 * i, 3 + 2 * i]
                 {last = E.val} {first = E(0).start};
            E := u16le;
            N := u8;
        "#;
        let inputs: [&[u8]; 4] = [&[2, 1, 0, 2, 0], &[1, 5, 0], &[2, 1, 0, 2], &[0]];
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 2);
    }

    #[test]
    fn builtin_star_elements() {
        // A star at offset 0 and one at offset 1: each repetition starts
        // where the previous one ended.
        let spec = r#"
            S -> star B[0, EOI] {n = B.end};
            B := u16be;
        "#;
        let inputs: [&[u8]; 4] = [&[0, 1, 0, 2], &[0, 1, 0], &[0], &[]];
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 2);
        let spec = r#"
            S -> H[0, 1] star D[1, EOI] {last = D.val} {at = D.start};
            H := u8;
            D := ascii_int;
        "#;
        let inputs: [&[u8]; 3] = [b"x12", b"x", b"xab"];
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 1);
    }

    #[test]
    fn builtin_on_an_empty_interval() {
        // `bytes` on an empty interval consumes nothing: its `start` is
        // its `EOI` (0), re-based by the caller's offset, and it does not
        // widen the caller's touched region. As a star element it ends the
        // star after one repetition.
        let spec = r#"
            S -> N[0, 1] Body[1, 1 + N.val] {s = Body.start} {e = Body.end}
                 Tail[EOI, EOI] {t = Tail.start};
            N := u8;
            Body := bytes;
            Tail := bytes;
        "#;
        let inputs: [&[u8]; 4] = [&[0], &[0, 5], &[2, 5, 6], &[3, 5]];
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 3);
        let spec = r#"
            S -> star Body[0, EOI] {n = Body.end};
            Body := bytes;
        "#;
        assert_eq!(assert_leaf_calls_agree(spec, &[&[], &[1, 2]]), 2);
    }

    #[test]
    fn failing_builtin_retried_at_the_same_key() {
        // `Int` fails at `(0, 2)` three times over: directly, under `A`
        // and under `B`. With memoization on, the interpreter's repeats
        // are silent memo hits, so `T`'s terminal failure (recorded in
        // between, at the same offset) is the deepest error; with it off,
        // every repeat records again.
        let spec = r#"
            S -> Int[0, EOI] / A[0, EOI] / T[0, EOI] / B[0, EOI] / Int[0, EOI];
            A -> Int[0, EOI];
            T -> "abc"[0, EOI];
            B -> Int[0, EOI];
            Int := u32le;
        "#;
        assert_eq!(assert_leaf_calls_agree(spec, &[&[0, 1], &[], &[1, 2, 3, 4]]), 1);
    }

    #[test]
    fn field_runs_at_constant_offsets() {
        // A literal-headed run in the start rule (an open root while
        // streamed: it falls back there) and the same run in a rule
        // below it. Truncations end the record at every byte of its
        // reach, and the last input breaks the literal.
        let inputs: [&[u8]; 7] = [
            b"AB\x01\x00\x00\x00\x00\x02xyz",
            b"AB\x01\x00\x00\x00\x00\x02",
            b"AB\x01\x00\x00\x00\x00",
            b"AB\x01\x00\x00",
            b"AB\x01",
            b"AB",
            b"AC\x01\x00\x00\x00\x00\x02",
        ];
        let run = r#"
            "AB"[0, 2] U16[2, 4] {a = U16.val} U32[4, 8] {b = U32.val} Rest[8, EOI];
            U16 := u16le;
            U32 := u32be;
            Rest := bytes;
        "#;
        for spec in [format!("S -> {run}"), format!("S -> R[0, EOI] {{r = R.b}}; R -> {run}")] {
            assert_record(&spec, &["match \"AB\"[0, 2] -> s0", "call U32[4, 8] -> s3"]);
            assert_eq!(assert_leaf_calls_agree(&spec, &inputs), 2, "{spec}");
        }
    }

    #[test]
    fn field_runs_from_a_computed_base() {
        // The record's endpoints are offsets from `Pad.end`, a `bytes`
        // field of the same record: the `U16[2]` sugar chains each field
        // to the previous one's `end`. A negative-length pad, a pad past
        // the input and a record cut short all fail where the general
        // instructions fail.
        let spec = r#"
            S -> Len[0, 1] Pad[1, 1 + Len.val]
                 U16[Pad.end, Pad.end + 2] {a = U16.val} U16[2] {b = U16.val} U8[1] {c = U8.val};
            Len := u8;
            Pad := bytes;
            U16 := u16be;
            U8 := u8;
        "#;
        let inputs: [&[u8]; 6] = [
            &[0, 1, 2, 3, 4, 5],
            &[2, 9, 9, 1, 2, 3, 4, 5, 6],
            &[2, 9, 9, 1, 2, 3, 4],
            &[2, 9, 9, 1],
            &[9, 1, 2],
            &[0, 1, 2, 3, 4],
        ];
        let ops =
            ["call U16[s1:Pad.end, 2 + s1:Pad.end] -> s2", "call U8[s4:U16.end, 1 + s4:U16.end]"];
        assert_record(spec, &ops);
        assert_eq!(assert_leaf_calls_agree(spec, &inputs), 2);
        let nested = format!("S -> T[0, EOI] {{t = T.c}}; T -> {}", &spec.trim()[5..]);
        assert_record(&nested, &ops);
        assert_eq!(assert_leaf_calls_agree(&nested, &inputs), 2);
    }

    /// Asserts that `spec` compiles to a listing with a record that has
    /// each of `ops`.
    fn assert_record(spec: &str, ops: &[&str]) {
        let g = parse_grammar(spec).unwrap();
        let listing = VmParser::new(&g).program().disassemble(&g);
        assert!(listing.contains("  record\n"), "no record in\n{listing}");
        for op in ops {
            assert!(listing.contains(&format!("            {op}")), "no `{op}` in\n{listing}");
        }
    }

    /// Per-rule calls, memo hits and misses, completions, failures and
    /// self instructions of every rule invoked in one profiled parse of
    /// each corpus file. Running builtins in place, and records, scans and
    /// chains in bulk, must not move them; the self instructions account
    /// for every instruction hit.
    #[test]
    fn profile_counts_on_the_corpus_are_pinned() {
        let mut out = String::new();
        for f in super::common::formats() {
            let input = super::common::default_corpus_input(f.name);
            let (result, _, report) = f.vm.parse_profiled(&input);
            assert!(result.is_ok(), "{}: corpus file rejected", f.name);
            let self_instrs: u64 = report.rules.iter().map(|r| r.self_instrs).sum();
            assert_eq!(self_instrs, report.instr_hits.iter().sum::<u64>(), "{}", f.name);
            let mut rows: Vec<_> = report
                .rules
                .iter()
                .map(|r| {
                    let c = r.counters;
                    format!(
                        "{} {}: calls {} memo-hit {} memo-miss {} ok {} fail {} self-instr {}\n",
                        f.name,
                        r.name,
                        c.calls,
                        c.memo_hits,
                        c.memo_misses,
                        c.completions,
                        c.failures,
                        r.self_instrs
                    )
                })
                .collect();
            rows.sort();
            out.extend(rows);
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
        super::common::check_snapshot(&dir, "profile_counts.txt", &out);
    }

    /// Instruction hits per pc of one profiled parse of the zip corpus
    /// file, as the general instructions counted them before field runs
    /// existed: a record fires the hooks of every instruction it covers,
    /// and one that fails (the fifth `LFH` and `CDE`, on an empty
    /// interval) those of the instructions up to the one that fails.
    #[test]
    fn field_runs_keep_the_zip_pc_hits() {
        let f = super::common::format("zip");
        let input = super::common::default_corpus_input("zip");
        let (result, stats, report) = f.vm.parse_profiled(&input);
        assert!(result.is_ok(), "zip corpus file rejected");
        let expected: [u64; 41] = [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 4, 2, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5,
            4, 2, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4,
        ];
        assert_eq!(report.instr_hits, expected);
        assert_eq!(stats.steps, 215);
        assert!(f.vm.program().disassemble(f.grammar).contains("  record\n"), "zip has records");
    }

    /// Instruction hits per pc and the steps of one profiled parse of the
    /// dns corpus file, as the general instructions counted them before
    /// records existed: `Q` and `A` run records that read `Name.end`, a
    /// sibling before them, and `Ptr` and `Label` records whose guards
    /// fail in place (four of the eight `Ptr` calls meet a label, and one
    /// `Label` call meets a pointer).
    #[test]
    fn records_keep_the_dns_pc_hits() {
        let f = super::common::format("dns");
        let input = super::common::default_corpus_input("dns");
        let (result, stats, report) = f.vm.parse_profiled(&input);
        assert!(result.is_ok(), "dns corpus file rejected");
        let expected: [u64; 57] = [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5,
            5, 4, 4, 1, 1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 8, 4, 3, 1, 8, 8, 8, 4, 4, 4, 3, 3, 3,
        ];
        assert_eq!(report.instr_hits, expected);
        assert_eq!(stats.steps, 228);
        let listing = f.vm.program().disassemble(f.grammar);
        assert!(listing.contains("call U16[s0:Name.end, 2 + s0:Name.end]"), "{listing}");
    }

    /// Instruction hits per pc and the steps of one profiled parse of the
    /// elf corpus file, as the general instructions counted them before
    /// byte scans existed: a scan fires the hooks of every level's
    /// instructions, and one that falls back (`Str` on the empty interval
    /// after a section's last string) fires its head's.
    #[test]
    fn scans_keep_the_elf_pc_hits() {
        let f = super::common::format("elf");
        let input = super::common::default_corpus_input("elf");
        let (result, stats, report) = f.vm.parse_profiled(&input);
        assert!(result.is_ok(), "elf corpus file rejected");
        let expected: [u64; 52] = [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 8, 1,
            8, 8, 8, 8, 1, 16, 16, 16, 16, 16, 16, 2, 2, 0, 26, 24, 4, 415, 413, 389, 389, 26, 24,
        ];
        assert_eq!(report.instr_hits, expected);
        assert_eq!(stats.steps, 3024);
        assert!(f.vm.program().disassemble(f.grammar).contains("  scan "), "elf has a scan");
    }

    /// Instruction hits per pc and the steps of one profiled parse of the
    /// gif benchmark file (`files`, seed 1), as the general instructions
    /// counted them before chains existed: a chain fires the hooks of
    /// every level's instructions and a record element those of its own.
    /// The `SB` that ends each `SubBlocks` chain (its length byte is 0)
    /// fails its guard in place, and the level's second alternative runs
    /// in a frame.
    #[test]
    fn chains_keep_the_gif_pc_hits() {
        let f = super::common::format("gif");
        let config = ipg_corpus::gif::Config {
            n_frames: 8,
            data_per_frame: 2048,
            seed: 1,
            ..Default::default()
        };
        let input = ipg_corpus::gif::generate(&config).bytes;
        let (result, stats, report) = f.vm.parse_profiled(&input);
        assert!(result.is_ok(), "gif benchmark file rejected");
        let expected: [u64; 39] = [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 21, 20, 1, 21, 9, 1, 21, 12, 12, 12, 9, 8, 8, 8,
            8, 8, 8, 8, 8, 104, 84, 20, 104, 104, 84, 84,
        ];
        assert_eq!(report.instr_hits, expected);
        assert_eq!(stats.steps, 1321);
        assert!(f.vm.program().disassemble(f.grammar).contains("  chain "), "gif has chains");
    }
}

/// Memoization across overlapping instances: two elf symbol tables whose
/// bytes overlap call `Sym` at the same absolute intervals, and the
/// second table's calls are memo hits of the first's. A static argument
/// that a rule with one call site never repeats a key would skip those
/// entries; the memo must serve them, on both engines, with and without
/// memoization alike.
#[test]
fn elf_symbol_tables_over_overlapping_bytes_share_sym_results() {
    use ipg_core::interp::Parser;
    let f = common::format("elf");
    let mut input = common::default_corpus_input("elf");
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let (shoff, shnum) = (u64_at(&input, 40) as usize, usize::from(input[60]));
    let header = |j: usize| shoff + 64 * j;
    let sym_type = |b: &[u8], j: usize| b[header(j) + 4];
    let symtab = (1..shnum).find(|&j| sym_type(&input, j) == 2).expect("a symbol table");
    let other = (1..shnum).find(|&j| j != symtab && sym_type(&input, j) == 3).expect("a strtab");
    // The other section becomes a symbol table over the first's bytes from
    // its second symbol on.
    let (ofs, sz) = (u64_at(&input, header(symtab) + 24), u64_at(&input, header(symtab) + 32));
    let shared = sz / 24 - 1;
    input[header(other) + 4] = 2;
    input[header(other) + 24..][..8].copy_from_slice(&(ofs + 24).to_le_bytes());
    input[header(other) + 32..][..8].copy_from_slice(&(sz - 24).to_le_bytes());

    assert!(common::assert_engines_agree("elf", f.grammar, f.vm, &input), "still an elf");
    let sym = f.grammar.nt_id("Sym").unwrap();
    let sym_hits = |vm: &ipg_core::interp::vm::VmParser| {
        let (tree, _, report) = vm.parse_profiled(&input);
        let tree = tree.expect("parses").root().to_tree();
        let hits = report.rules.iter().find(|r| r.nt == sym).map_or(0, |r| r.counters.memo_hits);
        (tree, hits)
    };
    let (tree, hits) = sym_hits(f.vm);
    assert_eq!(hits, shared, "every symbol of the second table is a hit");
    let (unshared, no_hits) = sym_hits(&f.vm.clone().memoize(false));
    assert_eq!((unshared, no_hits), (tree.clone(), 0));
    for memoize in [true, false] {
        let (reference, ref_stats) =
            Parser::new(f.grammar).memoize(memoize).parse_with_stats(&input);
        let (vm_tree, vm_stats) = f.vm.clone().memoize(memoize).parse_with_stats(&input);
        assert_eq!(vm_tree.unwrap().root().to_tree(), reference.unwrap());
        assert_eq!(vm_stats.steps, ref_stats.steps, "memoize {memoize}");
    }
    // The overlap moves both engines' hits alike: the shared `Sym`s come,
    // the retyped string table's list repeats go. (The interpreter also
    // memoizes builtin leaves, so the totals themselves may differ.)
    let original = common::default_corpus_input("elf");
    let hits = |input: &[u8]| {
        let (_, reference) = Parser::new(f.grammar).parse_with_stats(input);
        let (_, vm) = f.vm.parse_with_stats(input);
        (reference.memo_hits, vm.memo_hits)
    };
    let ((ref_before, vm_before), (ref_after, vm_after)) = (hits(&original), hits(&input));
    assert!(vm_after > vm_before, "the overlap adds hits");
    assert_eq!(ref_after - ref_before, vm_after - vm_before);
}
