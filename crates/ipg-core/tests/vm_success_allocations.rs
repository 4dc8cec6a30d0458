//! A successful VM parse allocates its tree's arena pools and the element
//! lists of its `for`/`star` terms, nothing per node: attribute values go
//! to the arena's shared attribute pool, and every other piece of working
//! storage is recycled from the thread's previous parse.
//!
//! The counting allocator below counts per thread, so the test harness's
//! own threads cannot disturb the counts.

use ipg_core::frontend::parse_grammar;
use ipg_core::interp::vm::VmParser;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// `(allocations, live bytes)` on this thread: growing reallocations
    /// count as allocations, and live bytes follow every allocation,
    /// reallocation and deallocation.
    static ALLOCATED: Cell<(usize, isize)> = const { Cell::new((0, 0)) };
}

fn note(allocations: usize, bytes: isize) {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + allocations, b + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialized thread-local counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(usize::from(new_size > layout.size()), new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One successful parse of `input` on a warm thread (the same parse runs
/// once first to fill the thread's workspace): the allocations it made,
/// and the bytes it holds while its tree is alive — the tree's footprint
/// plus whatever working storage the parse kept growing.
fn warm_parse_allocations(parser: &VmParser<'_>, input: &[u8]) -> (usize, isize) {
    drop(parser.parse(input).expect("warm-up parse succeeds"));
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let tree = parser.parse(input).expect("parse succeeds");
    let (n1, b1) = ALLOCATED.with(Cell::get);
    drop(tree);
    (n1 - n0, b1 - b0)
}

/// The arena's record pools: nodes, arrays, leaves, blackboxes, shifts,
/// children and attribute values.
const ARENA_POOLS: usize = 7;

#[test]
fn a_zip_parse_does_not_allocate_per_entry() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/zip.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let archive = |n_entries| {
        let config = ipg_corpus::zip::Config { n_entries, payload_len: 64, ..Default::default() };
        ipg_corpus::zip::generate(&config).bytes
    };
    let (small, _) = warm_parse_allocations(&parser, &archive(16));
    let (large, _) = warm_parse_allocations(&parser, &archive(64));
    // Four times the records is two doublings of each arena pool at most.
    assert!(
        large <= small + 2 * ARENA_POOLS,
        "16 entries: {small} allocations, 64 entries: {large}"
    );
}

#[test]
fn an_elf_parse_holds_less_than_150_kb() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/elf.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let file = ipg_corpus::elf::generate(&ipg_corpus::elf::Config::default()).bytes;
    let (allocations, bytes) = warm_parse_allocations(&parser, &file);
    // Half of what the parse held with every node's attribute environment
    // stored inline in its record.
    assert!(
        bytes <= 150 * 1024,
        "a {}-byte elf parse made {allocations} allocations and holds {bytes} bytes",
        file.len()
    );
}
