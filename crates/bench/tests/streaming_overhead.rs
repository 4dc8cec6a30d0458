//! The streaming-overhead gate: per corpus grammar, the shared engine
//! workload plus six generated inputs, parsed one-shot and through a
//! fresh VM session fed in 4 KiB chunks. The bytes-weighted aggregate —
//! total chunked time over total one-shot time, each the best of three
//! timed rounds — must stay within 25%. Per-grammar ratios are printed
//! but not gated: µs-scale parses carry a fixed per-session cost that
//! dominates their individual ratios.
//!
//! A timing gate, so it is `#[ignore]`d and meant for a release build on
//! a quiet machine:
//!
//! ```sh
//! cargo test --release -p bench --test streaming_overhead -- --ignored --nocapture
//! ```

use bench::harness::measure_best;
use std::time::Duration;

#[test]
#[ignore = "timing gate: run in release on a quiet machine"]
fn aggregate_streaming_overhead_is_within_25_percent() {
    let budget = Duration::from_millis(500);
    let (mut total_oneshot_s, mut total_chunked_s) = (0.0f64, 0.0f64);
    for (name, workload) in bench::grammar_workloads() {
        let entry = ipg_formats::corpus_entry(name);
        let vm = entry.vm();
        let generator = ipg_gen::Generator::new(entry.grammar());
        let mut inputs = vec![workload];
        inputs.extend((0..6).map(|seed| {
            generator
                .generate_valid(seed)
                .unwrap_or_else(|| panic!("{name}: generation failed for seed {seed}"))
        }));
        let t_oneshot = measure_best(3, budget, || {
            for input in &inputs {
                std::hint::black_box(vm.parse(std::hint::black_box(input)).expect("valid input"));
            }
        });
        let mut suspends = 0u64;
        let t_chunked = measure_best(3, budget, || {
            suspends = inputs
                .iter()
                .map(|input| std::hint::black_box(bench::parse_chunked(vm, input)).1)
                .sum();
        });
        println!(
            "{name:<12} overhead {:>7.2}%  suspends/parse {:>5.1}",
            (t_chunked / t_oneshot - 1.0) * 100.0,
            suspends as f64 / inputs.len() as f64
        );
        total_oneshot_s += t_oneshot;
        total_chunked_s += t_chunked;
    }
    let aggregate = (total_chunked_s / total_oneshot_s - 1.0) * 100.0;
    println!("aggregate streaming overhead {aggregate:.2}%");
    assert!(aggregate <= 25.0, "aggregate streaming overhead {aggregate:.2}% exceeds 25%");
}
