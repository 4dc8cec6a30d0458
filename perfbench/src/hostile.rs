//! `hostile`: one-shot VM parses of seeded mutants of the `files` and
//! packet inputs, each kept only if the frozen interpreter rejects it, so
//! every op runs the failure path to its deepest error. Short, failing
//! parses: per-parse set-up and failure recording dominate.

use crate::inputs::{self, Format, FUEL};
use crate::measure::{Run, Tracer};
use crate::{
    baselines, closed_loop, load_corpus, measure_segments, overhead_pct, registry_layers,
    time_load, Args, Budget, Report, VmCounts,
};
use ipg_core::interp::vm::ParseTree;
use ipg_core::interp::ParseStats;
use ipg_core::Error;
use ipg_formats::corpus_entry;
use std::time::{Duration, Instant};

/// Rejected mutants kept per pass, by source format. Rejection costs fall
/// in two clusters: a few µs for zip, zip_inflate, elf, pdf and ipv4udp,
/// ten µs and more for gif, pe, png and dns. The fast cluster holds 77% of
/// a pass, so the median op falls inside it rather than in the sparse gap
/// between the clusters, and gif's long tail holds the p99.
const MIX: [(Format, usize); 9] = [
    (Format::ZipInflate, 176),
    (Format::Zip, 176),
    (Format::Elf, 176),
    (Format::Pdf, 176),
    (Format::Ipv4Udp, 176),
    (Format::Gif, 64),
    (Format::Pe, 64),
    (Format::Png, 64),
    (Format::Dns, 64),
];

/// Candidates drawn per kept mutant. Mutants differ widely in how far a
/// parse gets before it fails. Of the candidates ordered by the
/// interpreter's step count, the deepest quarter is dropped — this
/// workload is about short failing parses, and those few deep ones would
/// set its totals — and every third of the rest is kept, which gives every
/// seed the same spread of depths.
const POOL: usize = 4;

/// Source files per format that mutants are drawn from.
const SOURCES: usize = 4;

/// One mutant and the interpreter's exact error for it.
pub struct Case {
    pub format: Format,
    pub bytes: Vec<u8>,
    pub expect: Error,
}

/// The mutants in the shuffled op order of one pass.
pub fn build(seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    for (fi, &(format, kept)) in MIX.iter().enumerate() {
        let sources: Vec<Vec<u8>> = (0..SOURCES)
            .map(|k| {
                inputs::generate(format, inputs::mix(seed, 0x4057 + fi as u64, k as u64)).bytes
            })
            .collect();
        let mutant = |index: u64| {
            let mut bytes = sources[index as usize % SOURCES].clone();
            ipg_gen::mutate::mutate(&mut bytes, inputs::mix(seed, 0xbad, fi as u64), index);
            bytes
        };
        // (interpreter steps, mutation index, error) of rejected candidates.
        let mut pool = Vec::new();
        let mut index = 0u64;
        while pool.len() < kept * POOL {
            assert!(
                index < 100 * (kept * POOL) as u64,
                "too few rejected mutants of {}",
                format.name()
            );
            if let Some((Err(expect), steps)) = inputs::interpreter_run(format, &mutant(index)) {
                pool.push((steps, index, expect));
            }
            index += 1;
        }
        pool.sort_by_key(|&(steps, index, _)| (steps, index));
        pool.truncate(kept * (POOL - 1));
        cases.extend(
            pool.into_iter()
                .skip((POOL - 1) / 2)
                .step_by(POOL - 1)
                .map(|(_, index, expect)| Case { format, bytes: mutant(index), expect }),
        );
    }
    inputs::shuffle(&mut cases, inputs::mix(seed, 0x5eed, 1));
    cases
}

fn exec(c: &Case) -> (ipg_core::Result<ParseTree>, ParseStats) {
    corpus_entry(c.format.name()).vm().parse_bounded(&c.bytes, FUEL)
}

fn check(c: &Case, r: (ipg_core::Result<ParseTree>, ParseStats)) -> bool {
    matches!(r.0, Err(e) if e == c.expect)
}

/// Exact per-pass VM counts.
pub fn counts(cases: &[Case]) -> VmCounts {
    let mut vm = VmCounts::default();
    for c in cases {
        let (tree, stats) = exec(c);
        vm.add(&stats, tree.map_or(0, |t| t.arena().len()));
    }
    vm
}

pub fn run(args: &Args, budget: &Budget) -> Report {
    let cases = build(args.seed);
    let bytes_of = |c: &Case| c.bytes.len() as u64;
    // Rejection costs are heavy-tailed: a few mutants that one side
    // parses nearly to the end would set a ratio of totals, so the gap is
    // the median over mutants of each mutant's own ratio.
    let groups: Vec<(Format, Vec<&[u8]>)> = cases
        .iter()
        .filter(|c| baselines::covered(c.format))
        .map(|c| (c.format, vec![c.bytes.as_slice()]))
        .collect();
    drop(load_corpus());
    closed_loop(&mut Run::default(), &cases, Duration::ZERO, bytes_of, exec, check, None);
    let (run, gap, setups) = measure_segments(
        budget,
        |run, d| closed_loop(run, &cases, d, bytes_of, exec, check, None),
        |gap, d| {
            gap.measure(&groups, baselines::Combine::Median, d, |f, b| {
                std::hint::black_box(corpus_entry(f.name()).vm().parse_bounded(b, FUEL).0.is_ok());
            })
        },
        time_load,
    );
    let bytes: usize = cases.iter().map(|c| c.bytes.len()).sum();
    let mut notes = vec![
        format!(
            "inputs: {} rejected mutants per pass ({}), {bytes} bytes, reject share 1.0",
            cases.len(),
            MIX.iter().map(|(f, n)| format!("{} {n}", f.name())).collect::<Vec<_>>().join(", ")
        ),
        format!("baseline_gap_x: median per-mutant ratio over the mutants of zip, zip_inflate, elf, gif, pe, dns, ipv4udp: {} rounds", gap.rounds()),
    ];
    let mut layers = Vec::new();
    if args.trace {
        let mut tracer = Tracer::new(1 << 18);
        let mut both = Run::default();
        closed_loop(&mut both, &cases, budget.traced, bytes_of, exec, check, Some(&mut tracer));
        layers.push(("trace.overhead_pct", overhead_pct(&both)));
        layers.extend(registry_layers(&mut tracer));
        let deadline = Instant::now() + budget.replay;
        let mut ops = 0u64;
        while ops == 0 || (Instant::now() < deadline && !tracer.is_full()) {
            for c in &cases {
                tracer.span("vm", ops, None, || exec(c).0.is_ok());
                ops += 1;
            }
        }
        let vm_ns = tracer.self_times().get("vm").map_or(0, |s| s.0) as f64;
        layers.push(("vm.busy_us", vm_ns / ops as f64 / 1e3));
        layers.extend(counts(&cases).layers(vm_ns / ops as f64 * cases.len() as f64));
        layers.push(("baseline.busy_us", gap.baseline_us()));
        let path = args.work.join(format!("trace-hostile-{}.tsv", args.seed));
        tracer.write(&path).expect("write spans");
        notes.push(format!("spans written to {}", path.display()));
    }
    Report { run, setups, gap, layers, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_matches_the_interpreter_and_a_planted_wrong_reference_fails() {
        crate::init_test_cache();
        let mut cases = build(3);
        let mut run = Run::default();
        closed_loop(&mut run, &cases, Duration::ZERO, |c| c.bytes.len() as u64, exec, check, None);
        assert_eq!((run.failed, run.attempted), (0, cases.len() as u64));
        cases[0].expect = Error::Session("planted wrong reference".into());
        let mut run = Run::default();
        closed_loop(&mut run, &cases, Duration::ZERO, |c| c.bytes.len() as u64, exec, check, None);
        assert_eq!(run.failed, 1, "a wrong reference must raise error_rate");
    }

    #[test]
    fn counts_repeat_exactly_and_seeds_draw_different_mutants() {
        crate::init_test_cache();
        let (a, b) = (build(8), build(8));
        assert_eq!(counts(&a), counts(&b));
        assert!(counts(&a).steps > 0);
        let c = build(9);
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
    }
}
