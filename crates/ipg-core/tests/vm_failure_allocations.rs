//! A failing VM parse allocates nothing but the error it returns: its
//! working storage (frames, memo table, arena) is recycled from the
//! thread's previous parse, and the deepest failure is rendered into
//! `String`s only when the parse returns it.
//!
//! The counting allocator below counts per thread, so the test harness's
//! own threads cannot disturb the counts.

use ipg_core::error::{Error, ParseError};
use ipg_core::frontend::parse_grammar;
use ipg_core::interp::vm::VmParser;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// `(allocations, bytes requested)` on this thread; growing
    /// reallocations count as allocations.
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
            note(new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the `(allocations, bytes)` it made on
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (usize, usize)) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let r = f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (r, (n1 - n0, b1 - b0))
}

#[test]
fn a_failing_parse_allocates_only_its_error() {
    let g = parse_grammar(
        r#"
        S -> H[0, 8] Data[H.offset, H.offset + H.length];
        H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
        Int := u32le;
        Data := bytes;
        "#,
    )
    .unwrap();
    let parser = VmParser::new(&g);
    // Empty input fails at once; the second input parses `H` and then
    // claims a 100-byte `Data` that is not there.
    let inputs: [&[u8]; 2] = [b"", &[8, 0, 0, 0, 100, 0, 0, 0]];
    for input in inputs {
        parser.parse(input).unwrap_err(); // warm-up: fills the thread's workspace
        let (result, (allocations, bytes)) = counted(|| parser.parse(input));
        let Err(Error::Parse(ParseError { nonterminal: Some(nt), msg, .. })) = result else {
            panic!("expected a parse error, got {result:?}")
        };
        assert_eq!(
            (allocations, bytes),
            (2, nt.capacity() + msg.capacity()),
            "a failing parse of {input:?} allocated more than its error ({nt}: {msg})"
        );
    }
}
