//! Fig. 14 — heap memory consumption for packet parsing (DNS and
//! IPv4+UDP), IPG vs the Nail-style baseline.
//!
//! The paper measures with Valgrind; here a counting global allocator
//! records allocation counts, total bytes, and peak live bytes per parse.
//! The reproduction target is the *ordering*: IPG parsers consume less
//! heap than Nail's arena parsers (which pre-size an arena from the input
//! length and copy all variable-size fields into it).

use ipg_baselines::alloc_meter::{measure, AllocStats, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn report(label: &str, stats: &AllocStats) {
    println!(
        "  {label:<24} allocs {:>6}  bytes {:>9}  peak {:>9}",
        stats.allocations, stats.bytes_allocated, stats.peak_bytes
    );
}

fn main() {
    // Warm the grammar statics outside the measured region.
    let _ = ipg_formats::dns::grammar();
    let _ = ipg_formats::ipv4udp::grammar();

    println!("Fig. 14a — DNS heap consumption per parse");
    for n in bench::DNS_ANSWERS {
        let msg = bench::dns_with_answers(n);
        println!("answers = {n} ({} bytes)", msg.len());
        let (_, ipg) = measure(|| ipg_formats::dns::parse(&msg).expect("valid message"));
        report("IPG", &ipg);
        let (_, nail) =
            measure(|| ipg_baselines::nail_style::parse_dns(&msg).expect("valid message"));
        report("Nail-style", &nail);
    }

    println!();
    println!("Fig. 14b — IPv4+UDP heap consumption per parse");
    for n in [64usize, 1024, 8192, 65_535 - 28] {
        let pkt = bench::udp_with_payload(n);
        println!("payload = {n} ({} bytes)", pkt.len());
        let (_, ipg) = measure(|| ipg_formats::ipv4udp::parse(&pkt).expect("valid packet"));
        report("IPG", &ipg);
        let (_, nail) =
            measure(|| ipg_baselines::nail_style::parse_ipv4_udp(&pkt).expect("valid packet"));
        report("Nail-style", &nail);
    }

    println!();
    println!(
        "(paper: IPG parsers consume less heap than Nail parsers on both formats; \n\
         here the IPG side is a tree-building parser that records a node per \n\
         field, so the shape holds only where zero-copy dominates — large payloads)"
    );
}
