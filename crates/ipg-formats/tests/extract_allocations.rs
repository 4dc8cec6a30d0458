//! The count gate for typed extraction: per format, what one warm call of
//! its public extractor (`zip::parse`, `zip::extract`, `gif::parse`, …)
//! asks of the allocator, pinned exactly. The call parses with the VM
//! and builds the typed output, so the count is the VM's recycled
//! working storage (nothing, on a warm thread) plus what extraction
//! itself allocates: the output's vectors and owned names, and, for
//! `zip::extract`, the inflated bodies.
//!
//! The counting allocator below counts per thread, so the test harness's
//! own threads cannot disturb the counts.

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

/// What `extract` asks of the allocator on this thread once the extractor,
/// its grammar and the thread's workspace are warm. The output drops after
/// counting.
fn count<T>(extract: impl Fn() -> T) -> Counts {
    drop(extract());
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let out = extract();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    drop(out);
    (n1 - n0, b1 - b0)
}

/// Per format, the counts of its extractor over the input below.
const PINNED: [(&str, Counts); 9] = [
    ("zip", (17, 1104)),
    ("zip_inflate", (101, 163_744)),
    ("gif", (2, 128)),
    ("elf", (63, 3134)),
    ("pe", (3, 80)),
    ("png", (6, 192)),
    ("pdf", (4, 388)),
    ("dns", (27, 1020)),
    ("ipv4udp", (0, 0)),
];

#[test]
fn extraction_allocations_are_pinned() {
    use ipg_corpus as gen;
    use ipg_formats as fmt;
    // The `files` benchmark's shapes: 16 DEFLATE entries of 4 KiB for
    // `zip::parse`, 32 for `zip::extract`; the generators' defaults
    // elsewhere.
    let zip = |n_entries| {
        gen::zip::generate(&gen::zip::Config { n_entries, payload_len: 4096, ..Default::default() })
            .bytes
    };
    let (zip16, zip32) = (zip(16), zip(32));
    let gif = gen::gif::generate(&Default::default()).bytes;
    let elf = gen::elf::generate(&Default::default()).bytes;
    let pe = gen::pe::generate(&Default::default()).bytes;
    let png = gen::png::generate(&Default::default()).bytes;
    let pdf = gen::pdf::generate(&Default::default()).bytes;
    let dns = gen::dns::generate(&Default::default()).bytes;
    let udp = gen::ipv4udp::generate(&Default::default()).bytes;
    let got = [
        ("zip", count(|| fmt::zip::parse(&zip16).unwrap())),
        ("zip_inflate", count(|| fmt::zip::extract(&zip32).unwrap())),
        ("gif", count(|| fmt::gif::parse(&gif).unwrap())),
        ("elf", count(|| fmt::elf::parse(&elf).unwrap())),
        ("pe", count(|| fmt::pe::parse(&pe).unwrap())),
        ("png", count(|| fmt::png::parse(&png).unwrap())),
        ("pdf", count(|| fmt::pdf::parse(&pdf).unwrap())),
        ("dns", count(|| fmt::dns::parse(&dns).unwrap())),
        ("ipv4udp", count(|| fmt::ipv4udp::parse(&udp).unwrap())),
    ];
    assert_eq!(got, PINNED, "(format, (allocations, bytes requested))");
}
