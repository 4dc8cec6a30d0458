//! Emits `BENCH_interp.json`: steps/s and MB/s for the tree-walking
//! interpreter and the bytecode VM over every corpus grammar, measured
//! fresh each run so VM-vs-interpreter ratios always come from the same
//! machine and build.
//!
//! Usage: `cargo run --release -p bench --bin bench_interp [-- --quick] [-- --out PATH]
//! [-- --profile]`
//!
//! * `--quick` — CI-smoke timings (tens of milliseconds per measurement).
//! * `--out PATH` — where to write the JSON (default `BENCH_interp.json`
//!   in the current directory).
//! * `--profile` — additionally run each grammar once under the VM
//!   profiler and attach its top-3 hottest rules (plus the measured
//!   instrumentation overhead, `profiler_overhead_pct`) to the row. The
//!   headline ≥3x speedup gate always comes from *uninstrumented*
//!   timings — instrumented and uninstrumented numbers are never mixed.
//!
//! Schema (`ipg-bench-interp/1`): one result per grammar with both
//! engines' steps/s and MB/s plus the derived speedup. The `zip_inflate`
//! row is the headline perf gate: the VM must be ≥3x the interpreter's
//! steps/s (enforced in full runs; quick mode only warns, as shared CI
//! runners time too noisily to gate on).
//!
//! Both engines report tick-for-tick identical step counts (asserted here
//! and in the differential test suite), so the steps/s ratio is exactly
//! the wall-clock ratio on the same work.

use bench::harness::{measure, Cli, Report};
use ipg_core::interp::Parser;

struct Row {
    grammar: &'static str,
    steps: u64,
    bytes: usize,
    interp_steps_per_s: f64,
    interp_mb_per_s: f64,
    vm_steps_per_s: f64,
    vm_mb_per_s: f64,
    speedup: f64,
    /// `--profile` only: top-3 hot rules as pre-rendered JSON objects,
    /// and the measured instrumented-vs-plain overhead.
    profile: Option<(Vec<String>, f64)>,
}

fn main() {
    let cli = Cli::parse_with_switches("BENCH_interp.json", &[], &["--profile"]);
    let budget = cli.budget(40, 700);
    let profiling = cli.switch("--profile");

    // The shared engine-bound workload per corpus grammar (see
    // `bench::grammar_workloads`); `zip_inflate` uses the
    // many-small-entries archive, where per entry the grammar walks
    // headers, chains, and attribute arithmetic while the DEFLATE
    // blackbox adds a small fixed cost.
    let workloads: Vec<(&'static str, Vec<u8>)> = bench::grammar_workloads();

    let mut rows: Vec<Row> = Vec::new();
    for (name, input) in &workloads {
        let entry = ipg_formats::corpus_entry(name);
        let interp = Parser::new(entry.grammar());
        let vm = entry.vm();
        let (ri, si) = interp.parse_with_stats(input);
        ri.unwrap_or_else(|e| panic!("{name}: interpreter rejects its workload: {e}"));
        let (rv, sv) = vm.parse_with_stats(input);
        rv.unwrap_or_else(|e| panic!("{name}: VM rejects its workload: {e}"));
        assert_eq!(si.steps, sv.steps, "{name}: engines must count identical steps");

        let ti = measure(budget, || {
            std::hint::black_box(interp.parse(std::hint::black_box(input)).expect("valid input"));
        });
        let tv = measure(budget, || {
            std::hint::black_box(vm.parse(std::hint::black_box(input)).expect("valid input"));
        });
        // The profiled lane is measured separately and never feeds the
        // speedup/gate numbers above — it only reports where the VM's
        // time goes and what the instrumentation itself costs.
        let profile = profiling.then(|| {
            let (r, _, report) = vm.parse_profiled(input);
            r.expect("valid input");
            let tp = measure(budget, || {
                let (r, _, _) = vm.parse_profiled(std::hint::black_box(input));
                std::hint::black_box(r.expect("valid input"));
            });
            let top: Vec<String> = report
                .top(3)
                .iter()
                .map(|r| {
                    format!(
                        "{{\"rule\": \"{}\", \"calls\": {}, \"memo_hits\": {}, \
                         \"memo_misses\": {}, \"self_us\": {:.1}, \"self_pct\": {:.1}}}",
                        r.name,
                        r.counters.calls,
                        r.counters.memo_hits,
                        r.counters.memo_misses,
                        r.counters.self_ns as f64 / 1000.0,
                        r.self_pct,
                    )
                })
                .collect();
            (top, (tp / tv - 1.0) * 100.0)
        });
        let row = Row {
            grammar: name,
            steps: si.steps,
            bytes: input.len(),
            interp_steps_per_s: si.steps as f64 / ti,
            interp_mb_per_s: input.len() as f64 / ti / 1e6,
            vm_steps_per_s: si.steps as f64 / tv,
            vm_mb_per_s: input.len() as f64 / tv / 1e6,
            speedup: ti / tv,
            profile,
        };
        println!(
            "{name:<12} steps={:<6} interp {:>6.2}M steps/s  vm {:>6.2}M steps/s  {:>5.2}x",
            row.steps,
            row.interp_steps_per_s / 1e6,
            row.vm_steps_per_s / 1e6,
            row.speedup
        );
        rows.push(row);
    }

    let zip_inflate_speedup =
        rows.iter().find(|r| r.grammar == "zip_inflate").expect("zip_inflate row").speedup;

    let mut report = Report::new("ipg-bench-interp/1", cli.quick);
    report.results(rows.iter().map(|r| {
        let profile_block = match &r.profile {
            Some((top, overhead_pct)) => format!(
                ", \"profile\": {{\"hot_rules\": [{}], \"profiler_overhead_pct\": {:.1}}}",
                top.join(", "),
                overhead_pct,
            ),
            None => String::new(),
        };
        format!(
            "{{\"grammar\": \"{}\", \"steps\": {}, \"bytes\": {}, \
             \"interp\": {{\"steps_per_s\": {:.0}, \"mb_per_s\": {:.2}}}, \
             \"vm\": {{\"steps_per_s\": {:.0}, \"mb_per_s\": {:.2}}}, \
             \"speedup\": {:.2}{profile_block}}}",
            r.grammar,
            r.steps,
            r.bytes,
            r.interp_steps_per_s,
            r.interp_mb_per_s,
            r.vm_steps_per_s,
            r.vm_mb_per_s,
            r.speedup,
        )
    }));
    report.field("zip_inflate_speedup", format!("{zip_inflate_speedup:.2}"));
    report.field("profiled", if profiling { "true" } else { "false" }.to_owned());
    report.write(&cli.out);

    if zip_inflate_speedup < 3.0 {
        eprintln!(
            "WARNING: zip_inflate VM speedup {zip_inflate_speedup:.2}x is below the 3x target"
        );
        // Only full runs enforce the target; quick mode is a smoke test
        // and shared CI runners time too noisily to gate on.
        if !cli.quick {
            std::process::exit(1);
        }
    }
}
