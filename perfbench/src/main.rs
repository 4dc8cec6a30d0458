//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload files|hostile|wire --seed N --seconds S --trace 0|1 --work DIR
//! ```
//!
//! Each workload is a closed loop from one thread, in a process pinned to
//! one CPU together with every thread it starts (the wire workload's
//! in-process server included). Inputs come from `--seed`; every op is
//! checked against a reference computed at set-up without the VM under
//! test. With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` a separate run over the same
//! inputs reports per-layer metrics measured from outside the program and
//! writes its spans to `DIR`. `perfbench/run.py` builds this binary,
//! pins it, and passes `--work`; see `perfbench/README.md`.

mod baselines;
mod files;
mod hostile;
mod inputs;
mod measure;
mod wire;

use ipg_formats::{corpus_descriptors, Registry};
use measure::{median, ns_since, reference_ns, Run, Tracer, REFERENCE_NS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    /// Recorded only: CPUs online before pinning, and the source revision.
    pub nproc: String,
    pub rev: String,
    /// The one CPU the process is pinned to, once checked.
    pub cpu: std::sync::OnceLock<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key.to_owned(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let args = Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
        },
        work: PathBuf::from(get("work")?),
        nproc: kv.get("nproc").cloned().unwrap_or_else(|| "unknown".into()),
        rev: kv.get("rev").cloned().unwrap_or_else(|| "unknown".into()),
        cpu: std::sync::OnceLock::new(),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A `Key:` line of `/proc/<path>`.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_owned()))
}

/// The single CPU this process may run on, or why it is not pinned.
fn pinned_cpu() -> Result<String, String> {
    let list = proc_field("/proc/self/status", "Cpus_allowed_list:")
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    if list.is_empty() || list.contains(',') || list.contains('-') {
        return Err(format!("process is not pinned to one CPU (allowed: {list})"));
    }
    Ok(list)
}

/// Fails unless every thread of the process is pinned to `cpu`; returns
/// the thread count.
pub fn check_threads_pinned(cpu: &str) -> Result<usize, String> {
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut n = 0;
    for t in tasks.flatten() {
        let path = t.path().join("status");
        let list = proc_field(&path.to_string_lossy(), "Cpus_allowed_list:");
        if list.as_deref() != Some(cpu) {
            return Err(format!("thread {:?} runs on CPUs {list:?}, not {cpu}", t.file_name()));
        }
        n += 1;
    }
    Ok(n)
}

/// Loads the nine corpus grammars into a fresh registry through the
/// artifact cache — the set-up every workload pays.
pub fn load_corpus() -> Registry {
    let reg = Registry::new();
    for d in corpus_descriptors() {
        reg.load_spec(d.name, d.spec, (d.blackboxes)()).expect("corpus grammars load");
    }
    reg
}

/// Repetitions of corpus loading in the traced run's registry layer.
pub const SETUP_REPS: usize = 21;

/// Segments per run. Each times the main loop, the baseline gap and
/// [`SETUPS_PER_SEGMENT`] set-ups in turn, so every statistic samples the
/// whole run rather than one stretch of machine time.
pub const SEGMENTS: usize = 10;

/// Set-ups timed per segment.
pub const SETUPS_PER_SEGMENT: usize = 4;

/// A per-layer metric: name and value (units live in [`LAYER_METRICS`]).
pub type Layer = (&'static str, f64);

/// What a workload reports.
pub struct Report {
    pub run: Run,
    /// Set-up times, s.
    pub setups: Vec<f64>,
    pub gap: baselines::Gap,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Layer>,
    /// Extra lines for the human-readable header.
    pub notes: Vec<String>,
}

/// The closed loop: passes over `ops` until `dur` has elapsed. `exec`
/// is the timed call; `check` compares its result with the op's
/// reference, untimed. With a tracer, every second pass runs each op
/// inside a span, so traced and untraced passes share the same stretch
/// of machine time.
pub fn closed_loop<O, R>(
    run: &mut Run,
    ops: &[O],
    dur: Duration,
    bytes_of: impl Fn(&O) -> u64,
    mut exec: impl FnMut(&O) -> R,
    mut check: impl FnMut(&O, R) -> bool,
    mut tracer: Option<&mut Tracer>,
) {
    let deadline = Instant::now() + dur;
    let mut latencies = Vec::with_capacity(ops.len());
    let mut passes = 0usize;
    while passes < 1 + usize::from(tracer.is_some()) || Instant::now() < deadline {
        let traced = tracer.is_some() && passes % 2 == 1;
        let reference = if traced { 0 } else { reference_ns() };
        let mut bytes = 0u64;
        latencies.clear();
        for op in ops {
            let t = Instant::now();
            let r = match tracer.as_deref_mut() {
                Some(tr) if traced && !tr.is_full() => {
                    tr.span("op", run.attempted, None, || exec(op)).0
                }
                _ => exec(op),
            };
            latencies.push(ns_since(t));
            run.attempted += 1;
            if !check(op, r) {
                run.failed += 1;
            }
            bytes += bytes_of(op);
        }
        run.end_pass(&latencies, bytes, reference, traced);
        passes += 1;
    }
}

/// The registry layer, measured from outside: repeated corpus loads
/// through the warm artifact cache and, for comparison, compiling the
/// nine specs from source. Returns per-layer metrics.
pub fn registry_layers(tracer: &mut Tracer) -> Vec<Layer> {
    use ipg_core::ipgc::{cache_totals, CachedProgram};
    let (hits, misses) = (cache_totals::hits(), cache_totals::misses());
    let mut load_ms = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        drop(tracer.span("registry.load", rep as u64, None, load_corpus));
        load_ms.push(ns_since(t) as f64 / 1e6);
    }
    let (hits, misses) = (cache_totals::hits() - hits, cache_totals::misses() - misses);
    let mut compile_ms = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        tracer.span("registry.compile", rep as u64, None, || {
            for d in corpus_descriptors() {
                CachedProgram::compile(d.spec, (d.blackboxes)()).expect("corpus grammars compile");
            }
        });
        compile_ms.push(ns_since(t) as f64 / 1e6);
    }
    vec![
        ("registry.load_ms", median(&load_ms)),
        ("registry.compile_ms", median(&compile_ms)),
        ("registry.cache_hits", hits as f64),
        ("registry.cache_misses", misses as f64),
    ]
}

/// One timed corpus load, s as measured.
pub fn time_load() -> f64 {
    let t = Instant::now();
    drop(std::hint::black_box(load_corpus()));
    ns_since(t) as f64 / 1e9
}

/// The end-to-end measurement: [`SEGMENTS`] rounds of the main loop, the
/// baseline gap and set-ups. Returns the run, the gap and the set-up times
/// at reference speed.
pub fn measure_segments(
    budget: &Budget,
    mut main: impl FnMut(&mut Run, Duration),
    mut gap: impl FnMut(&mut baselines::Gap, Duration),
    mut setup: impl FnMut() -> f64,
) -> (Run, baselines::Gap, Vec<f64>) {
    let (mut run, mut g, mut setups) = (Run::default(), baselines::Gap::default(), Vec::new());
    for _ in 0..SEGMENTS {
        main(&mut run, budget.main);
        gap(&mut g, budget.gap);
        // Each set-up is scaled to reference speed by a reference
        // computation timed just before it.
        setups.extend((0..SETUPS_PER_SEGMENT).map(|_| {
            let speed = REFERENCE_NS / reference_ns() as f64;
            setup() * speed
        }));
    }
    run.finish();
    (run, g, setups)
}

/// Every per-layer metric name, with its unit, in report order. Layers a
/// workload does not exercise report 0.
pub const LAYER_METRICS: [(&str, &str); 24] = [
    ("registry.load_ms", "ms"),
    ("registry.compile_ms", "ms"),
    ("registry.cache_hits", "count"),
    ("registry.cache_misses", "count"),
    ("vm.busy_us", "us"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("vm.nodes", "count"),
    ("vm.memo_entries", "count"),
    ("vm.memo_hits", "count"),
    ("vm.memo_hit_ratio", "ratio"),
    ("flate.busy_us", "us"),
    ("flate.bytes_out", "bytes"),
    ("extract.self_us", "us"),
    ("session.self_us", "us"),
    ("session.suspends", "count"),
    ("pool.self_us", "us"),
    ("pool.shed", "count"),
    ("pool.failed", "count"),
    ("proto.self_us", "us"),
    ("proto.frames", "count"),
    ("proto.bytes", "bytes"),
    ("baseline.busy_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Exact per-pass VM counts, summed over one pass of the op set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmCounts {
    pub steps: u64,
    pub nodes: u64,
    pub memo_entries: u64,
    pub memo_hits: u64,
}

impl VmCounts {
    pub fn add(&mut self, stats: &ipg_core::interp::ParseStats, nodes: usize) {
        self.steps += stats.steps;
        self.nodes += nodes as u64;
        self.memo_entries += stats.memo_entries as u64;
        self.memo_hits += stats.memo_hits;
    }

    /// The count metrics, plus `vm.ns_per_step` from `vm_ns_per_pass`.
    pub fn layers(&self, vm_ns_per_pass: f64) -> Vec<Layer> {
        let lookups = self.memo_hits + self.memo_entries;
        vec![
            ("vm.steps", self.steps as f64),
            ("vm.ns_per_step", vm_ns_per_pass / self.steps.max(1) as f64),
            ("vm.nodes", self.nodes as f64),
            ("vm.memo_entries", self.memo_entries as f64),
            ("vm.memo_hits", self.memo_hits as f64),
            ("vm.memo_hit_ratio", self.memo_hits as f64 / lookups.max(1) as f64),
        ]
    }
}

/// Time split of one run. The end-to-end measurement takes the whole run
/// in the plain run; the traced run gives part of it to alternating
/// traced and untraced passes and to replaying ops through nested entry
/// points. `main` and `gap` are per segment.
pub struct Budget {
    pub main: Duration,
    pub gap: Duration,
    pub traced: Duration,
    pub replay: Duration,
}

impl Budget {
    fn new(seconds: f64, trace: bool) -> Budget {
        let d = |share: f64| Duration::from_secs_f64(seconds * share);
        let e2e = if trace { 0.35 } else { 1.0 };
        Budget {
            main: d(e2e * 0.8 / SEGMENTS as f64),
            gap: d(e2e * 0.2 / SEGMENTS as f64),
            traced: if trace { d(0.2) } else { Duration::ZERO },
            replay: if trace { d(0.45) } else { Duration::ZERO },
        }
    }
}

/// `trace.overhead_pct`: how much slower the traced passes of `run` ran
/// than the untraced passes interleaved with them (medians over passes).
pub fn overhead_pct(run: &Run) -> f64 {
    (median(&run.pass_rates) / median(&run.traced_rates) - 1.0) * 100.0
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn peak_rss_mb() -> f64 {
    let hwm = proc_field("/proc/self/status", "VmHWM:").expect("VmHWM in /proc/self/status");
    let kib: f64 = hwm.trim_end_matches("kB").trim().parse().expect("VmHWM is a number of kB");
    kib / 1024.0
}

fn run(args: &Args) -> Result<(), String> {
    let cpu = pinned_cpu()?;
    args.cpu.set(cpu.clone()).expect("cpu recorded once");
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let cache = args.work.join("ipg-cache");
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("IPG_CACHE_DIR", &cache);
    std::env::remove_var("IPG_NO_CACHE");
    std::env::remove_var("IPG_ARTIFACT_KEY");

    let budget = Budget::new(args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "files" => files::run(args, &budget),
        "hostile" => hostile::run(args, &budget),
        "wire" => wire::run(args, &budget),
        w => return Err(format!("unknown workload `{w}` (files, hostile, wire)")),
    };
    // The wire workload checks its server threads while they run.
    let threads = check_threads_pinned(&cpu)?;
    let rss = peak_rss_mb();

    let (p50, p99) = report.run.percentiles_us();
    let error_rate = report.run.failed as f64 / report.run.attempted as f64;
    println!("# workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    println!(
        "# pinned to cpu {cpu} ({threads} threads); nproc {}; revision {}",
        args.nproc, args.rev
    );
    println!(
        "# closed loop, 1 load thread; {} ops timed in {} windows of whole passes, {} set-ups; machine speed {} of reference (timings below are at reference speed)",
        report.run.timed(),
        report.run.windows.len(),
        report.setups.len(),
        report.run.speed(),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# error_rate {error_rate} fraction ({} of {} ops failed)",
        report.run.failed, report.run.attempted
    );
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&report.setups), "s"),
        ("ops_per_s", report.run.ops_per_s(), "1/s"),
        ("mb_per_s", report.run.mb_per_s(), "MB/s"),
        ("latency_p50_us", p50, "us"),
        ("latency_p99_us", p99, "us"),
        ("baseline_gap_x", report.gap.ratio(), "x"),
        ("peak_rss_mb", rss, "MB"),
    ];
    let metrics = if args.trace {
        for (name, _) in &report.layers {
            assert!(LAYER_METRICS.iter().any(|m| m.0 == *name), "unlisted layer metric {name}");
        }
        let mut layers: Vec<(&str, f64, &str)> = Vec::new();
        for (name, unit) in LAYER_METRICS {
            let value = report.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
            layers.push((name, value, unit));
        }
        for (name, value, unit) in &e2e {
            println!("# untraced {name} {value} {unit}");
        }
        layers
    } else {
        e2e
    };
    for (name, value, unit) in &metrics {
        println!("# {name} {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.run.failed == 0,
        report.run.attempted,
        report.run.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// Points the artifact cache of a test process at the build directory
/// instead of the user's cache.
#[cfg(test)]
pub fn init_test_cache() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-ipg-cache");
        std::env::set_var("IPG_CACHE_DIR", dir);
    });
}
