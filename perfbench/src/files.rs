//! `files`: typed extraction in-process of seeded whole files — the
//! paper's own use case (Fig. 12/13). `vm`, `flate` and `extract` do the
//! work; the serve tier does none.

use crate::inputs::{self, digest_output, Format};
use crate::measure::{Run, Tracer};
use crate::{
    baselines, closed_loop, load_corpus, measure_segments, overhead_pct, registry_layers,
    time_load, Args, Budget, Layer, Report, VmCounts,
};
use ipg_formats::corpus_entry;
use std::time::{Duration, Instant};

/// Distinct files per format.
const DISTINCT: usize = 8;

/// Times each distinct file is extracted per pass, by format. The counts
/// place clusters of per-format latency so both reported percentiles fall
/// inside one cluster rather than between two: `zip` holds ranks 35–65%
/// of a pass, centred on the median, and `zip_inflate`, the slowest
/// format, holds the top 2.5%, so p99 sits inside it.
const MIX: [(Format, usize); 7] = [
    (Format::Pe, 5),
    (Format::Png, 5),
    (Format::Pdf, 4),
    (Format::Zip, 12),
    (Format::Gif, 6),
    (Format::Elf, 7),
    (Format::ZipInflate, 1),
];

/// One seeded file with its ground truth.
pub struct Case {
    pub format: Format,
    pub bytes: Vec<u8>,
    pub digest: u64,
    pub payload: Vec<u8>,
    /// zip_inflate: the DEFLATE body spans the `inflate` blackbox decodes.
    pub bodies: Vec<(usize, usize)>,
}

/// The distinct files and the shuffled op order of one pass.
pub struct Inputs {
    pub cases: Vec<Case>,
    pub order: Vec<usize>,
}

pub fn build(seed: u64) -> Inputs {
    let mut cases = Vec::new();
    let mut order = Vec::new();
    for (fi, &(format, per_pass)) in MIX.iter().enumerate() {
        let first = cases.len();
        for k in 0..DISTINCT {
            let g = inputs::generate(format, inputs::mix(seed, fi as u64, k as u64));
            let bodies = if format == Format::ZipInflate {
                let z = ipg_formats::zip::parse(&g.bytes).expect("generated zip");
                z.entries.iter().filter(|e| e.method == 8).map(|e| e.body).collect()
            } else {
                Vec::new()
            };
            cases.push(Case {
                format,
                bytes: g.bytes,
                digest: g.digest,
                payload: g.payload,
                bodies,
            });
        }
        order.extend((first..first + DISTINCT).flat_map(|i| std::iter::repeat_n(i, per_pass)));
    }
    inputs::shuffle(&mut order, inputs::mix(seed, 0xf11e, 0));
    Inputs { cases, order }
}

fn check(case: &Case, out: ipg_core::Result<inputs::Output>) -> bool {
    matches!(out, Ok(o) if digest_output(&o, &case.payload) == case.digest)
}

/// Exact per-pass counts: VM stats of every op and inflated bytes.
pub fn counts(inp: &Inputs) -> (VmCounts, u64) {
    let mut vm = VmCounts::default();
    let mut flate_out = 0u64;
    for &i in &inp.order {
        let c = &inp.cases[i];
        let (tree, stats) = corpus_entry(c.format.name()).vm().parse_with_stats(&c.bytes);
        vm.add(&stats, tree.map_or(0, |t| t.arena().len()));
        for &(lo, hi) in &c.bodies {
            let (data, _) =
                ipg_flate::inflate_with_limit(&c.bytes[lo..hi], 1 << 30).expect("inflates");
            flate_out += data.len() as u64;
        }
    }
    (vm, flate_out)
}

pub fn run(args: &Args, budget: &Budget) -> Report {
    let inp = build(args.seed);
    let ops: Vec<&Case> = inp.order.iter().map(|&i| &inp.cases[i]).collect();
    let bytes_of = |c: &&Case| c.bytes.len() as u64;
    let exec = |c: &&Case| inputs::extract(c.format, &c.bytes);
    let chk = |c: &&Case, out| check(c, out);
    let groups = baselines::by_format(inp.cases.iter().map(|c| (c.format, c.bytes.as_slice())));
    // Warm-up: fills the artifact cache on a first run, lazy statics.
    drop(load_corpus());
    closed_loop(&mut Run::default(), &ops, Duration::ZERO, bytes_of, exec, chk, None);
    let (run, gap, setups) = measure_segments(
        budget,
        |run, d| closed_loop(run, &ops, d, bytes_of, exec, chk, None),
        |gap, d| {
            gap.measure(&groups, baselines::Combine::Total, d, |f, b| {
                std::hint::black_box(inputs::extract(f, b).is_ok());
            })
        },
        time_load,
    );

    let mut notes = vec![
        format!(
            "inputs: {} ops per pass over {} distinct files; {}",
            ops.len(),
            inp.cases.len(),
            mix_note(&inp)
        ),
        format!("baseline_gap_x over zip, zip_inflate, elf, gif, pe: {} rounds", gap.rounds()),
    ];
    let mut layers = Vec::new();
    if args.trace {
        let mut tracer = Tracer::new(1 << 18);
        let mut both = Run::default();
        closed_loop(&mut both, &ops, budget.traced, bytes_of, exec, chk, Some(&mut tracer));
        layers.push(("trace.overhead_pct", overhead_pct(&both)));
        layers.extend(registry_layers(&mut tracer));
        layers.extend(replay(&inp, &mut tracer, budget.replay));
        layers.push(("baseline.busy_us", gap.baseline_us()));
        let path = args.work.join(format!("trace-files-{}.tsv", args.seed));
        tracer.write(&path).expect("write spans");
        notes.push(format!("spans written to {}", path.display()));
    }
    Report { run, setups, gap, layers, notes }
}

/// Per format: ops per pass and bytes per file.
fn mix_note(inp: &Inputs) -> String {
    MIX.iter()
        .map(|&(f, n)| {
            let sizes: Vec<usize> =
                inp.cases.iter().filter(|c| c.format == f).map(|c| c.bytes.len()).collect();
            format!("{} {}x{}B", f.name(), n * DISTINCT, sizes.iter().sum::<usize>() / sizes.len())
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Replays each op through the nested public entry points — extractor,
/// VM, inflate — each in a span whose parent is the enclosing layer, so
/// self times are differences over the same inputs.
fn replay(inp: &Inputs, tracer: &mut Tracer, dur: Duration) -> Vec<Layer> {
    let deadline = Instant::now() + dur;
    let mut ops = 0u64;
    while ops == 0 || (Instant::now() < deadline && !tracer.is_full()) {
        for &i in &inp.order {
            let c = &inp.cases[i];
            let (_, ex) =
                tracer.span("extract", ops, None, || inputs::extract(c.format, &c.bytes).is_ok());
            let (_, vm) = tracer.span("vm", ops, Some(ex), || {
                corpus_entry(c.format.name()).vm().parse(&c.bytes).is_ok()
            });
            for &(lo, hi) in &c.bodies {
                tracer.span("flate", ops, Some(vm), || {
                    ipg_flate::inflate_with_limit(&c.bytes[lo..hi], 1 << 30).is_ok()
                });
            }
            ops += 1;
        }
    }
    let st = tracer.self_times();
    let per_op = |layer: &str| st.get(layer).map_or(0.0, |&(ns, _)| ns as f64 / ops as f64 / 1e3);
    let (vm, flate_out) = counts(inp);
    let vm_ns_per_pass = per_op("vm") * 1e3 * inp.order.len() as f64;
    let mut out = vec![
        ("vm.busy_us", per_op("vm")),
        ("flate.busy_us", per_op("flate")),
        ("flate.bytes_out", flate_out as f64),
        ("extract.self_us", per_op("extract")),
    ];
    out.extend(vm.layers(vm_ns_per_pass));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_match_their_ground_truth_and_a_planted_wrong_reference_fails() {
        crate::init_test_cache();
        let mut inp = build(11);
        let ops: Vec<&Case> = inp.order.iter().map(|&i| &inp.cases[i]).collect();
        let mut run = Run::default();
        closed_loop(
            &mut run,
            &ops,
            Duration::ZERO,
            |c| c.bytes.len() as u64,
            |c| inputs::extract(c.format, &c.bytes),
            |c, out| check(c, out),
            None,
        );
        assert_eq!((run.failed, run.attempted), (0, ops.len() as u64));

        inp.cases[0].digest ^= 1;
        let planted = inp.order.iter().filter(|&&i| i == 0).count() as u64;
        let ops: Vec<&Case> = inp.order.iter().map(|&i| &inp.cases[i]).collect();
        let mut run = Run::default();
        closed_loop(
            &mut run,
            &ops,
            Duration::ZERO,
            |c| c.bytes.len() as u64,
            |c| inputs::extract(c.format, &c.bytes),
            |c, out| check(c, out),
            None,
        );
        assert!(planted > 0);
        assert_eq!(run.failed, planted, "a wrong reference must raise error_rate");
    }

    #[test]
    fn counts_repeat_exactly_and_seeds_draw_different_inputs() {
        crate::init_test_cache();
        let (a, b) = (build(5), build(5));
        assert_eq!(counts(&a), counts(&b));
        assert!(counts(&a).0.steps > 0 && counts(&a).1 > 0);
        let c = build(6);
        assert_ne!(a.order, c.order);
        assert!(a.cases.iter().zip(&c.cases).all(|(x, y)| x.bytes != y.bytes));
    }
}
