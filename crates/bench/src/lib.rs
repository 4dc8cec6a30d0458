//! Shared workloads for the benchmark harness.
//!
//! The per-table/per-figure entry points are:
//!
//! | Paper artifact | Regenerate with |
//! |---|---|
//! | Table 1 (spec line counts)        | `cargo run -p bench --bin table1` |
//! | Table 2 (implicit intervals)      | `cargo run -p bench --bin table2` |
//! | Fig. 12/13 (IPG vs the baselines) | `python3 perfbench/run.py --workload files` |
//! | Fig. 13 size axis, memo bound     | `cargo test -p bench --test paper_counts` |
//! | Fig. 14a/b (heap consumption)     | `cargo run -p bench --bin fig14_memory --release` |
//! | §7 termination timing             | `cargo run -p bench --bin termination_report` |
//! | Session allocations vs one-shot   | `cargo test -p bench --test session_allocations` |
//! | VM ÷ interpreter ≥ 3x gate        | `cargo test --release -p bench --test vm_speedup -- --ignored` |
//! | Fast ÷ seed inflate ≥ 3x gate     | `cargo test --release -p bench --test inflate_speedup -- --ignored` |
//!
//! `paper_counts` pins exact VM step counts, which do not vary between
//! runs; the timed side of the paper's comparison is perfbench's, whose
//! JSON record is the repository's one benchmark record. Nothing in this
//! crate writes a report file: the binaries print to stdout, and the
//! conformance sweep is the umbrella crate's `tests/conformance.rs`.
//!
//! Every IPG series runs the bytecode VM behind `ipg_formats` (the
//! paper's generator emits compiled C++ instead; this repository has no
//! generated-code engine).

use ipg_core::interp::vm::{Outcome, ParseTree, VmParser};
use ipg_corpus::{dns, elf, gif, ipv4udp, pdf, pe, zip};

pub mod harness;

/// Entry-count sweep for the ZIP workloads (the paper archives 1..K
/// copies of the same file).
pub const ZIP_SIZES: [usize; 4] = [1, 4, 16, 64];

/// Section-count sweep for ELF/PE.
pub const SECTION_SIZES: [usize; 4] = [2, 8, 32, 128];

/// Frame-count sweep for GIF.
pub const GIF_FRAMES: [usize; 4] = [1, 4, 16, 64];

/// Answer-count sweep for DNS.
pub const DNS_ANSWERS: [usize; 4] = [1, 4, 16, 64];

/// Payload sweep for IPv4+UDP.
pub const UDP_PAYLOADS: [usize; 4] = [64, 256, 1024, 8192];

/// A ZIP archive with `n` deflated entries.
pub fn zip_with_entries(n: usize) -> Vec<u8> {
    zip::generate(&zip::Config { n_entries: n, payload_len: 4096, ..Default::default() }).bytes
}

/// An ELF file with `n` progbits sections and `4 * n` symbols.
pub fn elf_with_sections(n: usize) -> Vec<u8> {
    elf::generate(&elf::Config {
        n_sections: n,
        section_size: 512,
        n_symbols: 4 * n,
        n_dyn: 16,
        seed: 7,
    })
    .bytes
}

/// A PE file with `n` sections.
pub fn pe_with_sections(n: usize) -> Vec<u8> {
    pe::generate(&pe::Config { n_sections: n, section_size: 2048, seed: 7 }).bytes
}

/// A GIF with `n` frames.
pub fn gif_with_frames(n: usize) -> Vec<u8> {
    gif::generate(&gif::Config { n_frames: n, data_per_frame: 2048, ..Default::default() }).bytes
}

/// A DNS response with one question and `n` answers.
pub fn dns_with_answers(n: usize) -> Vec<u8> {
    dns::generate(&dns::Config { n_questions: 1, n_answers: n, compress: true, seed: 7 }).bytes
}

/// An IPv4+UDP datagram with an `n`-byte payload.
pub fn udp_with_payload(n: usize) -> Vec<u8> {
    ipv4udp::generate(&ipv4udp::Config { payload_len: n, options_words: 0, seed: 7 }).bytes
}

/// A PDF with `n` objects. Its grammar reads each object once: a parse
/// makes no memo hits, so it cannot show what memoization buys.
pub fn pdf_with_objects(n: usize) -> Vec<u8> {
    pdf::generate(&pdf::Config { n_objects: n, stream_len: 1024, seed: 7 }).bytes
}

/// A PNG with `n` IDAT chunks (the `star`-repetition workload).
pub fn png_with_chunks(n: usize) -> Vec<u8> {
    ipg_corpus::png::generate(&ipg_corpus::png::Config { n_idat: n, ..Default::default() }).bytes
}

/// A ZIP archive of many small deflated entries — the interpreter-bound
/// `zip_inflate` workload of the engine gate: grammar evaluation (headers,
/// chains, attribute arithmetic) dominates and the DEFLATE blackbox is a
/// small fixed cost per entry.
pub fn zip_many_small_entries(n: usize) -> Vec<u8> {
    zip::generate(&zip::Config { n_entries: n, payload_len: 128, ..Default::default() }).bytes
}

/// One engine-bound workload per corpus grammar, keyed by the
/// `ipg_formats::Registry::corpus` entry names. Sized so grammar
/// evaluation (not fixture setup) dominates; shared by the engine gate
/// (`tests/vm_speedup.rs`), the streaming-overhead test
/// (`tests/streaming_overhead.rs`) and the session allocation pins
/// (`tests/session_allocations.rs`) so their numbers describe the same
/// work.
pub fn grammar_workloads() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("zip", zip_with_entries(16)),
        ("dns", dns_with_answers(16)),
        ("png", png_with_chunks(16)),
        ("gif", gif_with_frames(8)),
        ("elf", elf_with_sections(8)),
        ("ipv4udp", udp_with_payload(1024)),
        ("pe", pe_with_sections(8)),
        ("pdf", pdf_with_objects(8)),
        ("zip_inflate", zip_many_small_entries(64)),
    ]
}

/// FEED chunk size of the session tests (wire-realistic).
pub const CHUNK: usize = 4096;

/// `input` streamed through a fresh VM session in [`CHUNK`]-byte pieces:
/// the tree, and the suspensions the session took.
///
/// # Panics
///
/// If the session rejects the input.
pub fn parse_chunked(vm: &VmParser, input: &[u8]) -> (ParseTree, u64) {
    let mut session = vm.streaming();
    for piece in input.chunks(CHUNK) {
        match session.feed(piece) {
            Outcome::NeedInput { .. } => {}
            Outcome::Error(e) => panic!("input rejected mid-stream: {e}"),
            Outcome::Done(_) => unreachable!("feed never completes"),
        }
    }
    match session.finish() {
        Outcome::Done(tree) => (tree, session.suspends()),
        Outcome::Error(e) => panic!("input rejected: {e}"),
        Outcome::NeedInput { .. } => unreachable!("finish never needs input"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_parse_with_the_ipg_grammars() {
        assert!(ipg_formats::zip::parse(&zip_with_entries(2)).is_ok());
        assert!(ipg_formats::elf::parse(&elf_with_sections(2)).is_ok());
        assert!(ipg_formats::pe::parse(&pe_with_sections(2)).is_ok());
        assert!(ipg_formats::gif::parse(&gif_with_frames(2)).is_ok());
        assert!(ipg_formats::dns::parse(&dns_with_answers(2)).is_ok());
        assert!(ipg_formats::ipv4udp::parse(&udp_with_payload(64)).is_ok());
        assert!(ipg_formats::pdf::parse(&pdf_with_objects(2)).is_ok());
    }
}
