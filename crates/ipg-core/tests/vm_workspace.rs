//! The VM recycles its working storage (frames, memo table, a failed
//! parse's arena) through one workspace per thread. Nothing may leak from
//! one parse into the next: interleaved on one thread — two grammars of
//! different sizes, failing and successful parses, memoization on and
//! off, step limits, and a streaming session left open across one-shot
//! parses — every result must equal the interpreter's and the same parse's
//! on a fresh thread.

use ipg_core::error::Error;
use ipg_core::frontend::parse_grammar;
use ipg_core::interp::vm::{Outcome, VmParser};
use ipg_core::interp::{ParseStats, Parser};

/// Figure 2 of the paper: four rules.
const SMALL: &str = r#"
    S -> H[0, 8] Data[H.offset, H.offset + H.length];
    H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
    Int := u32le;
    Data := bytes;
"#;

/// Ten rules, with a `for` loop, a predicate and a `star`.
const LARGE: &str = r#"
    S -> Magic[0, 2] Count[2, 3] {n = Count.val}
         for i = 0 to n do Item[3 + 2 * i, 5 + 2 * i]
         Tail[3 + 2 * n, EOI];
    Magic -> "IP"[0, 2];
    Count := u8;
    Item -> Hi[0, 1] Lo[1, 2] assert(Hi.val < 16);
    Hi := u8;
    Lo := u8;
    Tail -> star Chunk[0, EOI];
    Chunk -> Len[0, 1] Body[1, 1 + Len.val];
    Len := u8;
    Body := bytes;
"#;

const GRAMMARS: [&str; 2] = [SMALL, LARGE];

struct Case {
    grammar: usize,
    memoize: bool,
    max_steps: Option<u64>,
    input: Vec<u8>,
}

/// A parse result in a form that crosses threads: the tree's debug dump
/// (node names, spans, attributes) or the error, plus the VM's statistics.
type Observed = (Result<String, Error>, ParseStats);

fn vm_parser(g: &ipg_core::check::Grammar, case: &Case) -> VmParser {
    VmParser::new(g).memoize(case.memoize)
}

fn run_vm(parser: &VmParser, case: &Case) -> Observed {
    let (result, stats) = match case.max_steps {
        Some(n) => parser.parse_bounded(&case.input, n),
        None => parser.parse_with_stats(&case.input),
    };
    (result.map(|t| format!("{:?}", t.root().to_tree())), stats)
}

/// The interpreter's tree or error and its step count for `case`.
fn run_interp(case: &Case) -> (Result<String, Error>, u64) {
    let g = parse_grammar(GRAMMARS[case.grammar]).unwrap();
    let parser = Parser::new(&g).memoize(case.memoize);
    let parser = match case.max_steps {
        Some(n) => parser.max_steps(n),
        None => parser,
    };
    let (result, stats) = parser.parse_with_stats(&case.input);
    (result.map(|t| format!("{t:?}")), stats.steps)
}

fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// Feeds `input` in `chunks` to a session of `parser` and finishes it.
fn stream(parser: &VmParser, input: &[u8], chunk: usize) -> Observed {
    let mut session = parser.streaming();
    for c in input.chunks(chunk) {
        session.feed(c);
    }
    observed(session.finish(), session.stats())
}

fn observed(outcome: Outcome, stats: ParseStats) -> Observed {
    let result = match outcome {
        Outcome::Done(t) => Ok(format!("{:?}", t.root().to_tree())),
        Outcome::Error(e) => Err(e),
        Outcome::NeedInput { hint } => panic!("finish asked for more input: {hint:?}"),
    };
    (result, stats)
}

fn small_input(length: u8) -> Vec<u8> {
    let mut input = vec![8, 0, 0, 0, length, 0, 0, 0];
    input.extend_from_slice(b"DATA");
    input
}

fn large_input(second_hi: u8, tail: &[u8]) -> Vec<u8> {
    let mut input = b"IP".to_vec();
    input.extend_from_slice(&[2, 1, 2, second_hi, 4]);
    input.extend_from_slice(tail);
    input
}

fn cases() -> Vec<Case> {
    let case = |grammar, memoize, max_steps, input| Case { grammar, memoize, max_steps, input };
    let tail = [2, 0xaa, 0xbb, 1, 0xcc];
    vec![
        case(0, true, None, small_input(4)),
        case(1, true, None, large_input(3, &tail)),
        case(0, true, None, small_input(100)), // `Data` beyond the input
        case(1, true, None, large_input(16, &tail)), // predicate fails
        case(0, false, None, small_input(4)),
        case(1, true, None, b"IQ".to_vec()), // terminal mismatch
        case(0, true, Some(3), small_input(4)),
        case(1, false, None, large_input(3, &tail)),
        case(0, true, None, Vec::new()),
        case(1, true, Some(12), large_input(3, &tail)),
        case(1, false, None, large_input(3, &[9, 1])), // star matches nothing
        case(0, false, Some(5), small_input(100)),
        case(1, true, None, large_input(3, &[1, 7, 9, 1])),
        case(0, true, None, small_input(4)),
    ]
}

#[test]
fn interleaved_parses_on_one_thread_match_fresh_threads_and_the_interpreter() {
    let grammars: Vec<_> = GRAMMARS.iter().map(|src| parse_grammar(src).unwrap()).collect();
    let streamed = [large_input(3, &[2, 0xaa, 0xbb]), large_input(20, &[1, 0])];
    let stream_parser = VmParser::new(&grammars[1]);
    let cases = cases();

    for (s, stream_input) in streamed.iter().enumerate() {
        // The session stays open, fed a chunk at a time, while the
        // one-shot parses run on the same thread.
        let mut session = stream_parser.streaming();
        let mut chunks = stream_input.chunks(2);
        for (k, case) in cases.iter().enumerate() {
            if let Some(chunk) = chunks.next() {
                session.feed(chunk);
            }
            let got = run_vm(&vm_parser(&grammars[case.grammar], case), case);
            let fresh = on_fresh_thread(|| {
                let g = parse_grammar(GRAMMARS[case.grammar]).unwrap();
                run_vm(&vm_parser(&g, case), case)
            });
            assert_eq!(got, fresh, "pass {s}, case {k}: differs from a fresh thread");
            let (result, steps) = run_interp(case);
            assert_eq!(got.0, result, "pass {s}, case {k}: differs from the interpreter");
            assert_eq!(got.1.steps, steps, "pass {s}, case {k}: step count");
        }
        for chunk in chunks {
            session.feed(chunk);
        }
        let got = observed(session.finish(), session.stats());
        let fresh = on_fresh_thread(|| {
            let g = parse_grammar(LARGE).unwrap();
            stream(&VmParser::new(&g), stream_input, 2)
        });
        assert_eq!(got, fresh, "stream {s}: differs from a fresh thread");
        let (result, steps) = run_interp(&Case {
            grammar: 1,
            memoize: true,
            max_steps: None,
            input: stream_input.clone(),
        });
        assert_eq!(got.0, result, "stream {s}: differs from the interpreter");
        assert_eq!(got.1.steps, steps, "stream {s}: step count");
        assert_eq!(got.0.is_ok(), s == 0, "stream {s}: unexpected verdict");
    }

    // The cases cover both verdicts and the step limit.
    let verdicts: Vec<_> = cases.iter().map(|c| run_interp(c).0).collect();
    assert!(verdicts.iter().any(Result::is_ok));
    assert!(verdicts
        .iter()
        .any(|r| matches!(r, Err(Error::Parse(pe)) if pe.msg.contains("step limit"))));
    assert!(verdicts
        .iter()
        .any(|r| matches!(r, Err(Error::Parse(pe)) if pe.msg.contains("predicate"))));
    assert!(verdicts.iter().any(|r| matches!(r, Err(Error::Parse(pe)) if pe.msg.contains("star"))));
}
