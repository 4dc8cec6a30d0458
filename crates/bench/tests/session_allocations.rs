//! The count gate for streaming sessions: per corpus grammar, the shared
//! engine workload parsed one-shot and through a fresh VM session fed in
//! 4 KiB chunks, each on a warm thread. The allocations and bytes each
//! path asks of the allocator are pinned exactly. The timed
//! `streaming_overhead` gate cannot resolve a change this small, but these
//! counts do not vary between runs.
//!
//! The counting allocator below counts per thread, so the test harness's
//! own threads cannot disturb the counts.

use ipg_core::interp::vm::ParseTree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// `(allocations, bytes requested)` on this thread. A growing
    /// reallocation counts as an allocation of the bytes it adds, as in
    /// `ipg_baselines::alloc_meter`.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialized thread-local counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size - layout.size());
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `(allocations, bytes requested)`.
type Counts = (usize, usize);

/// What `parse` asks of the allocator on this thread. The tree drops after
/// counting, so the next parse recycles its arena as the last one did.
fn count(parse: impl FnOnce() -> ParseTree) -> Counts {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let tree = parse();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    drop(tree);
    (n1 - n0, b1 - b0)
}

/// Per grammar: the counts of the one-shot parse, then of the chunked
/// session. A session copies its input into a buffer of its own,
/// which grows by doubling; a one-shot parse borrows the input.
const PINNED: [(&str, Counts, Counts); 9] = [
    ("zip", (0, 0), (3, 16_384)),
    ("dns", (0, 0), (1, 284)),
    ("png", (4, 128), (9, 65_664)),
    ("gif", (0, 0), (4, 32_768)),
    ("elf", (4, 292), (10, 8512)),
    ("ipv4udp", (0, 0), (1, 1052)),
    ("pe", (2, 64), (8, 32_832)),
    ("pdf", (2, 68), (5, 16_452)),
    ("zip_inflate", (128, 25_600), (131, 41_984)),
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
