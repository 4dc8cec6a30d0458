//! The inflate gate: the table-driven DEFLATE decoder must inflate the
//! zlib-produced `golden_2048` fixture (dynamic Huffman) at least 3x as
//! fast as the frozen seed decoder (`ipg_flate::seed`). Both decoders
//! must produce byte-identical output first, so the ratio compares the
//! same work.
//!
//! A timing gate, so it is `#[ignore]`d and meant for a release build on
//! a quiet machine:
//!
//! ```sh
//! cargo test --release -p bench --test inflate_speedup -- --ignored --nocapture
//! ```

use bench::harness::measure_best;
use std::hint::black_box;
use std::time::Duration;

#[test]
#[ignore = "timing gate: run in release on a quiet machine"]
fn the_fast_decoder_inflates_golden_2048_at_least_3x_the_seed() {
    let stream = include_bytes!("../../ipg-flate/tests/golden/golden_2048.bin");
    let out = ipg_flate::inflate(stream).expect("the fast decoder inflates the fixture");
    assert_eq!(
        out,
        ipg_flate::inflate_slow(stream).expect("the seed decoder inflates the fixture"),
        "the decoders must produce byte-identical output"
    );

    let budget = Duration::from_millis(300);
    let t_fast = measure_best(3, budget, || {
        black_box(ipg_flate::inflate(black_box(stream)).expect("valid stream"));
    });
    let t_seed = measure_best(3, budget, || {
        black_box(ipg_flate::inflate_slow(black_box(stream)).expect("valid stream"));
    });
    let speedup = t_seed / t_fast;
    println!(
        "golden_2048 ({} bytes out): fast {:.1} MB/s  seed {:.1} MB/s  {speedup:.2}x",
        out.len(),
        out.len() as f64 / t_fast / 1e6,
        out.len() as f64 / t_seed / 1e6,
    );
    assert!(speedup >= 3.0, "golden_2048 inflate speedup {speedup:.2}x is below 3x");
}
