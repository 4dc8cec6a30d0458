//! Emits `BENCH_serve.json`: the streaming/service perf record — per
//! grammar, the overhead of chunked streaming sessions versus one-shot VM
//! parses, and the aggregate throughput scaling of the `ipg-serve` worker
//! pool from 1 to 4 workers on a mixed batch workload.
//!
//! Usage: `cargo run --release -p bench --bin bench_serve [-- --quick] [-- --out PATH]
//! [-- --chunk N]`
//!
//! * `--quick` — CI-smoke scale (smaller budgets and batches).
//! * `--out PATH` — report path (default `BENCH_serve.json`).
//! * `--chunk N` — streaming chunk size in bytes (default 4096,
//!   wire-realistic).
//!
//! Schema (`ipg-bench-serve/1`): one result per grammar with one-shot and
//! chunked MB/s plus the derived overhead percentage and suspension
//! counts, then the batch-scaling block. Gates (full mode only, warnings
//! in quick mode):
//!
//! * bytes-weighted *aggregate* streaming overhead ≤ 25% versus the
//!   one-shot VM (per-grammar rows are recorded but not individually
//!   gated — µs-scale parses carry a fixed per-session cost that
//!   dominates their individual ratios);
//! * ≥ 3x aggregate throughput from 1 to 4 workers — enforced only when
//!   the machine has enough cores to make that physically possible
//!   (recorded in the `scaling_enforced` field either way).

use bench::harness::{measure_best, Cli, Report};
use ipg_core::interp::vm::{Outcome, VmParser};
use ipg_serve::{Config, Response, Server};
use std::time::Instant;

struct GrammarRow {
    grammar: &'static str,
    inputs: usize,
    bytes: usize,
    oneshot_mb_per_s: f64,
    chunked_mb_per_s: f64,
    overhead_pct: f64,
    suspends_per_parse: f64,
}

/// Streams every input through a fresh session in `chunk`-byte pieces.
fn parse_chunked(vm: &VmParser, input: &[u8], chunk: usize) -> u64 {
    let mut session = vm.streaming();
    for piece in input.chunks(chunk.max(1)) {
        match session.feed(piece) {
            Outcome::NeedInput { .. } => {}
            Outcome::Error(e) => panic!("benchmark input rejected mid-stream: {e}"),
            Outcome::Done(_) => unreachable!("feed never completes"),
        }
    }
    match session.finish() {
        Outcome::Done(tree) => {
            std::hint::black_box(&tree);
            session.suspends()
        }
        Outcome::Error(e) => panic!("benchmark input rejected: {e}"),
        Outcome::NeedInput { .. } => unreachable!("finish never needs input"),
    }
}

/// Wall-clock seconds to complete `jobs` batch parses on a pool with
/// `workers` workers, plus the final stats snapshot (latency percentiles
/// and the admission ledger).
fn batch_run(
    workers: usize,
    jobs: &[(&'static str, Vec<u8>)],
) -> (f64, ipg_serve::stats::StatsSnapshot) {
    let server = Server::start(Config { workers, ..Config::default() });
    // Warm: one pass primes queues, caches, and thread startup.
    for (name, input) in jobs.iter().take(workers.max(4)) {
        server.parse(name, input.clone()).expect("warmup parse");
    }
    let start = Instant::now();
    let pending: Vec<_> = jobs
        .iter()
        .map(|(name, input)| server.parse_async(name, input.clone()).expect("submit"))
        .collect();
    for rx in pending {
        match rx.recv().expect("worker answers") {
            Response::Done(_) => {}
            other => panic!("batch job failed: {other:?}"),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    (elapsed, stats)
}

/// A fault-injected soak over the pool (the chaos-smoke record): valid
/// and mutated inputs under injected panics and stalls against a small
/// queue bound. Exits non-zero unless the admission ledger reconciles
/// exactly and every injected panic was recovered — that is a
/// correctness gate, enforced in quick mode too.
fn chaos_run(quick: bool, workloads: &[(&'static str, Vec<u8>)]) -> String {
    use ipg_serve::fault::FaultPlan;
    use std::sync::Arc;
    use std::time::Duration;

    let plan = Arc::new(FaultPlan::new(0xBE7C).panic_per_mille(60).stall_per_mille(60, 2));
    let server = Server::start(Config {
        workers: 2,
        max_queue: 8,
        retry_after: Duration::from_millis(2),
        faults: Some(plan.clone()),
        ..Config::default()
    });
    let rounds = if quick { 6 } else { 16 };
    for round in 0..rounds {
        let pending: Vec<_> = workloads
            .iter()
            .enumerate()
            .flat_map(|(i, (name, input))| {
                let valid = server.parse_async(name, input.clone()).expect("submit");
                let mut mutant = input.clone();
                ipg_gen::mutate::mutate(&mut mutant, 0xBE7C ^ round as u64, i as u64);
                let mutated = server.parse_async(name, mutant).expect("submit");
                [valid, mutated]
            })
            .collect();
        for rx in pending {
            match rx.recv_timeout(Duration::from_secs(60)).expect("no reply may be lost") {
                Response::Done(_) | Response::Busy { .. } | Response::Error(_) => {}
                other => panic!("unexpected chaos reply: {other:?}"),
            }
        }
    }
    let stats = server.stats();
    server.shutdown();
    // Full reconciliation: the admission ledger, every injected panic
    // recovered, AND the watcher counters — no watcher runs here, so any
    // nonzero reload count means a counter leaked.
    let reconciled = stats.reconciles()
        && stats.panics_recovered == plan.panics_injected()
        && stats.reconciles_reloads(0, 0);
    println!(
        "chaos x{rounds}: {} submitted = {} completed + {} shed + {} failed; \
         {} panics recovered, {} faults injected, reloads ok/rejected {}/{}, \
         reconciled: {reconciled}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.failed,
        stats.panics_recovered,
        plan.injected(),
        stats.reloads_ok,
        stats.reloads_rejected,
    );
    if !reconciled {
        eprintln!(
            "ERROR: chaos ledger failed to reconcile \
             ({} != {} + {} + {}, panics {} vs injected {}, \
             reloads {}/{})",
            stats.submitted,
            stats.completed,
            stats.shed,
            stats.failed,
            stats.panics_recovered,
            plan.panics_injected(),
            stats.reloads_ok,
            stats.reloads_rejected,
        );
        std::process::exit(1);
    }
    format!(
        "{{\"submitted\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \
         \"panics_recovered\": {}, \"faults_injected\": {}, \"reloads_ok\": {}, \
         \"reloads_rejected\": {}, \"reconciled\": {}}}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.failed,
        stats.panics_recovered,
        plan.injected(),
        stats.reloads_ok,
        stats.reloads_rejected,
        reconciled,
    )
}

/// The observability soak: the same batch workload run bare and then
/// with the full observability surface armed (trace ring + a Prometheus
/// scrape taken mid-traffic), recording what instrumentation costs and
/// asserting the scrape itself reconciles. Reconciliation is a
/// correctness gate (quick mode included); the overhead number is
/// recorded, not gated — shared runners are too noisy.
fn obs_run(quick: bool, workloads: &[(&'static str, Vec<u8>)]) -> String {
    use ipg_serve::trace::TraceLog;
    use std::sync::Arc;

    let reps = if quick { 4 } else { 16 };
    let jobs: Vec<(&'static str, Vec<u8>)> = workloads
        .iter()
        .flat_map(|(name, input)| (0..reps).map(|_| (*name, input.clone())))
        .collect();
    let (t_bare, _) = batch_run(2, &jobs);

    let trace = Arc::new(TraceLog::new(ipg_serve::trace::DEFAULT_CAPACITY));
    let server =
        Server::start(Config { workers: 2, trace: Some(Arc::clone(&trace)), ..Config::default() });
    for (name, input) in jobs.iter().take(4) {
        server.parse(name, input.clone()).expect("warmup parse");
    }
    let start = Instant::now();
    let pending: Vec<_> = jobs
        .iter()
        .map(|(name, input)| server.parse_async(name, input.clone()).expect("submit"))
        .collect();
    // Scrape mid-traffic: the exposition must be parseable and its
    // ledger must reconcile while requests are still in flight.
    let scrape = server.metrics_text();
    for rx in pending {
        match rx.recv().expect("worker answers") {
            Response::Done(_) => {}
            other => panic!("obs job failed: {other:?}"),
        }
    }
    let t_obs = start.elapsed().as_secs_f64();
    server.shutdown();

    let value = |name: &str| -> u64 {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse::<f64>().ok()))
            .unwrap_or_else(|| panic!("metric `{name}` missing from the mid-traffic scrape"))
            as u64
    };
    let (submitted, completed, shed, failed, in_flight) = (
        value("ipg_requests_submitted_total "),
        value("ipg_requests_completed_total "),
        value("ipg_requests_shed_total "),
        value("ipg_requests_failed_total "),
        value("ipg_requests_in_flight "),
    );
    if submitted != completed + shed + failed + in_flight {
        eprintln!(
            "ERROR: mid-traffic scrape failed to reconcile \
             ({submitted} != {completed} + {shed} + {failed} + {in_flight})"
        );
        std::process::exit(1);
    }
    let obs_overhead_pct = (t_obs / t_bare - 1.0) * 100.0;
    println!(
        "obs x{}: bare {:.3}s, traced+scraped {:.3}s ({:+.2}%); \
         scrape reconciled mid-traffic; {} trace events, {} dropped",
        jobs.len(),
        t_bare,
        t_obs,
        obs_overhead_pct,
        trace.emitted(),
        trace.dropped(),
    );
    format!(
        "{{\"jobs\": {}, \"obs_overhead_pct\": {:.2}, \"scrape_reconciled\": true, \
         \"trace_events\": {}, \"trace_dropped\": {}}}",
        jobs.len(),
        obs_overhead_pct,
        trace.emitted(),
        trace.dropped(),
    )
}

fn main() {
    let cli = Cli::parse("BENCH_serve.json", &["--chunk"]);
    let chunk: usize = cli.value("--chunk").map_or(4096, |s| s.parse().expect("chunk usize"));
    let budget = cli.budget(40, 500);

    // Built once: the corpus generators behind these fixtures are
    // startup cost, not measurement.
    let workloads = bench::grammar_workloads();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Per-grammar streaming overhead: the heavy shared workload plus
    // generated inputs, all parsed one-shot and in chunked sessions.
    let n_gen: u64 = if cli.quick { 2 } else { 6 };
    let mut rows = Vec::new();
    let mut worst_overhead = f64::MIN;
    let mut total_oneshot_s = 0.0f64;
    let mut total_chunked_s = 0.0f64;
    for (name, workload) in &workloads {
        let name = *name;
        let entry = ipg_formats::corpus_entry(name);
        let (vm, grammar) = (entry.vm(), entry.grammar());
        let mut inputs: Vec<Vec<u8>> = vec![workload.clone()];
        let generator = ipg_gen::Generator::new(grammar);
        for seed in 0..n_gen {
            inputs.push(
                generator
                    .generate_valid(seed)
                    .unwrap_or_else(|| panic!("{name}: generation failed for seed {seed}")),
            );
        }
        let bytes: usize = inputs.iter().map(Vec::len).sum();

        // Best-of-3: the overhead ratio of two µs-scale means is noise on
        // a shared box; minima compare true costs.
        let rounds = 3;
        let t_oneshot = measure_best(rounds, budget, || {
            for input in &inputs {
                std::hint::black_box(vm.parse(std::hint::black_box(input)).expect("valid input"));
            }
        });
        let mut suspends = 0u64;
        let t_chunked = measure_best(rounds, budget, || {
            suspends = 0;
            for input in &inputs {
                suspends += parse_chunked(vm, std::hint::black_box(input), chunk);
            }
        });
        let overhead_pct = (t_chunked / t_oneshot - 1.0) * 100.0;
        worst_overhead = worst_overhead.max(overhead_pct);
        total_oneshot_s += t_oneshot;
        total_chunked_s += t_chunked;
        let row = GrammarRow {
            grammar: name,
            inputs: inputs.len(),
            bytes,
            oneshot_mb_per_s: bytes as f64 / t_oneshot / 1e6,
            chunked_mb_per_s: bytes as f64 / t_chunked / 1e6,
            overhead_pct,
            suspends_per_parse: suspends as f64 / inputs.len() as f64,
        };
        println!(
            "{name:<12} one-shot {:>8.1} MB/s  chunked({chunk}B) {:>8.1} MB/s  \
             overhead {:>6.2}%  suspends/parse {:>5.1}",
            row.oneshot_mb_per_s, row.chunked_mb_per_s, row.overhead_pct, row.suspends_per_parse
        );
        rows.push(row);
    }

    // Pool scaling: a mixed batch of every grammar's heavy workload,
    // repeated until the batch is long enough to saturate four workers.
    let reps = if cli.quick { 4 } else { 16 };
    let jobs: Vec<(&'static str, Vec<u8>)> = workloads
        .iter()
        .flat_map(|(name, input)| (0..reps).map(|_| (*name, input.clone())))
        .collect();
    let (t1, _) = batch_run(1, &jobs);
    let (t4, stats4) = batch_run(4, &jobs);
    let jobs_per_s_1 = jobs.len() as f64 / t1;
    let jobs_per_s_4 = jobs.len() as f64 / t4;
    let scaling = t1 / t4;
    // 4 workers plus the submitting thread need 5 hardware threads to
    // show real scaling; below that the number measures the machine, not
    // the pool.
    let scaling_enforced = !cli.quick && cores >= 5;
    println!(
        "batch x{}: 1 worker {:>7.1} jobs/s, 4 workers {:>7.1} jobs/s, scaling {:.2}x \
         ({} cores{})",
        jobs.len(),
        jobs_per_s_1,
        jobs_per_s_4,
        scaling,
        cores,
        if scaling_enforced { "" } else { ", scaling gate not enforced" }
    );

    let mut report = Report::new("ipg-bench-serve/1", cli.quick);
    report.field("chunk_bytes", chunk);
    report.field("cores", cores);
    report.results(rows.iter().map(|r| {
        format!(
            "{{\"grammar\": \"{}\", \"inputs\": {}, \"bytes\": {}, \
             \"oneshot_mb_per_s\": {:.2}, \"chunked_mb_per_s\": {:.2}, \
             \"overhead_pct\": {:.2}, \"suspends_per_parse\": {:.1}}}",
            r.grammar,
            r.inputs,
            r.bytes,
            r.oneshot_mb_per_s,
            r.chunked_mb_per_s,
            r.overhead_pct,
            r.suspends_per_parse,
        )
    }));
    report.field(
        "batch",
        format!(
            "{{\"jobs\": {}, \"workers_1_jobs_per_s\": {:.1}, \"workers_4_jobs_per_s\": {:.1}, \
             \"scaling_x\": {:.2}, \"latency_p50_us\": {}, \"latency_p99_us\": {}, \
             \"shed\": {}, \"panics_recovered\": {}}}",
            jobs.len(),
            jobs_per_s_1,
            jobs_per_s_4,
            scaling,
            stats4.latency_p50_us,
            stats4.latency_p99_us,
            stats4.shed,
            stats4.panics_recovered,
        ),
    );
    report.field("chaos", chaos_run(cli.quick, &workloads));
    report.field("observability", obs_run(cli.quick, &workloads));
    let aggregate_overhead = (total_chunked_s / total_oneshot_s - 1.0) * 100.0;
    report.field("worst_overhead_pct", format!("{worst_overhead:.2}"));
    report.field("aggregate_overhead_pct", format!("{aggregate_overhead:.2}"));
    report.field("scaling_enforced", scaling_enforced);
    report.write(&cli.out);

    let mut failed = false;
    if aggregate_overhead > 25.0 {
        eprintln!(
            "WARNING: aggregate streaming overhead {aggregate_overhead:.2}% exceeds the 25% budget"
        );
        failed = !cli.quick;
    }
    if scaling < 3.0 {
        eprintln!("WARNING: 1→4 worker scaling {scaling:.2}x is below the 3x target");
        failed = failed || scaling_enforced;
    }
    if failed {
        std::process::exit(1);
    }
}
