//! The count gate for streaming sessions: per corpus grammar, the shared
//! engine workload parsed one-shot and through a fresh VM session fed in
//! 4 KiB chunks, each on a warm thread. The allocations and bytes each
//! path asks of the allocator are pinned exactly. The timed
//! `streaming_overhead` gate cannot resolve a change this small, but these
//! counts do not vary between runs.
//!
//! `ipg_baselines::alloc_meter` counts per thread, so the test harness's
//! own threads cannot disturb the counts. A growing reallocation counts
//! as an allocation of the bytes it adds.

use ipg_baselines::alloc_meter::{measure, CountingAllocator};
use ipg_core::interp::vm::ParseTree;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `(allocations, bytes requested)`.
type Counts = (usize, usize);

/// What `parse` asks of the allocator on this thread. The tree drops after
/// counting, so the next parse recycles its arena as the last one did.
fn count(parse: impl FnOnce() -> ParseTree) -> Counts {
    let (tree, stats) = measure(parse);
    drop(tree);
    (stats.allocations as usize, stats.bytes_allocated as usize)
}

/// Per grammar: the counts of the one-shot parse, then of the chunked
/// session. A session copies its input into a buffer of its own, which
/// it takes over from the thread's previous session, so on a warm thread
/// the copy allocates nothing; a one-shot parse borrows the input.
const PINNED: [(&str, Counts, Counts); 9] = [
    ("zip", (0, 0), (0, 0)),
    ("dns", (0, 0), (0, 0)),
    ("png", (4, 128), (4, 128)),
    ("gif", (0, 0), (0, 0)),
    ("elf", (4, 292), (8, 320)),
    ("ipv4udp", (0, 0), (0, 0)),
    ("pe", (2, 64), (4, 64)),
    ("pdf", (2, 68), (2, 68)),
    ("zip_inflate", (64, 16_384), (64, 16_384)),
];

#[test]
fn session_allocations_are_pinned_against_the_one_shot_parse() {
    let mut got = Vec::new();
    for (name, input) in bench::grammar_workloads() {
        let vm = ipg_formats::corpus_entry(name).vm();
        // Warm the compiled grammar and this thread's workspace on both
        // paths, so neither count includes a one-time cost.
        drop(vm.parse(&input).expect("valid input"));
        drop(bench::parse_chunked(vm, &input));
        let one_shot = count(|| vm.parse(&input).expect("valid input"));
        let session = count(|| bench::parse_chunked(vm, &input).0);
        got.push((name, one_shot, session));
    }
    assert_eq!(got, PINNED, "(grammar, one-shot, session) as (allocations, bytes)");
}
