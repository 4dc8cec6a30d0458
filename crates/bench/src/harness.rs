//! The warmup-then-batch timing loop shared by the `#[ignore]`d release
//! timing gates (`tests/vm_speedup.rs`, `tests/inflate_speedup.rs`,
//! `tests/streaming_overhead.rs`).

use std::time::{Duration, Instant};

/// Mean seconds per call: warm up for a quarter of the budget, then batch
/// calls until the budget elapses.
fn measure<F: FnMut()>(budget: Duration, mut f: F) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < budget / 4 || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// `measure`, repeated `rounds` times, keeping the fastest mean — the
/// robust statistic on noisy shared machines (delays only ever add time,
/// so the minimum is the closest estimate of the true cost).
pub fn measure_best<F: FnMut()>(rounds: u32, budget: Duration, mut f: F) -> f64 {
    (0..rounds.max(1)).map(|_| measure(budget, &mut f)).fold(f64::INFINITY, f64::min)
}
