//! The engine gate: per corpus grammar, the shared engine workload parsed
//! by the tree-walking interpreter and by the bytecode VM. Both engines
//! count identical steps (asserted first), so the time ratio is a
//! steps/s ratio on the same work. The VM must run the `zip_inflate`
//! workload at least 3x as fast as the interpreter; every grammar's row
//! is printed, with the profiler's overhead over an uninstrumented VM
//! parse beside it (the gate never uses instrumented timings).
//!
//! A timing gate, so it is `#[ignore]`d and meant for a release build on
//! a quiet machine:
//!
//! ```sh
//! cargo test --release -p bench --test vm_speedup -- --ignored --nocapture
//! ```

use bench::harness::measure_best;
use ipg_core::interp::Parser;
use std::hint::black_box;
use std::time::Duration;

#[test]
#[ignore = "timing gate: run in release on a quiet machine"]
fn the_vm_runs_zip_inflate_at_least_3x_the_interpreter() {
    let budget = Duration::from_millis(300);
    let mut zip_inflate = None;
    for (name, input) in bench::grammar_workloads() {
        let entry = ipg_formats::corpus_entry(name);
        let interp = Parser::new(entry.grammar());
        let vm = entry.vm();
        let (ri, si) = interp.parse_with_stats(&input);
        ri.unwrap_or_else(|e| panic!("{name}: interpreter rejects its workload: {e}"));
        let (rv, sv) = vm.parse_with_stats(&input);
        rv.unwrap_or_else(|e| panic!("{name}: VM rejects its workload: {e}"));
        assert_eq!(si.steps, sv.steps, "{name}: engines must count identical steps");

        let t_interp = measure_best(3, budget, || {
            black_box(interp.parse(black_box(&input)).expect("valid input"));
        });
        let t_vm = measure_best(3, budget, || {
            black_box(vm.parse(black_box(&input)).expect("valid input"));
        });
        let t_profiled = measure_best(3, budget, || {
            black_box(vm.parse_profiled(black_box(&input)).0.expect("valid input"));
        });
        let speedup = t_interp / t_vm;
        println!(
            "{name:<12} steps={:<6} interp {:>6.2}M steps/s  vm {:>6.2}M steps/s  {speedup:>5.2}x  \
             profiler overhead {:>6.1}%",
            si.steps,
            si.steps as f64 / t_interp / 1e6,
            si.steps as f64 / t_vm / 1e6,
            (t_profiled / t_vm - 1.0) * 100.0,
        );
        if name == "zip_inflate" {
            zip_inflate = Some(speedup);
        }
    }
    let speedup = zip_inflate.expect("a zip_inflate workload");
    assert!(speedup >= 3.0, "zip_inflate VM speedup {speedup:.2}x is below 3x");
}
