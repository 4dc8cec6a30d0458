//! The counting global allocator — the offline substitute for the paper's
//! Valgrind heap measurements (Fig. 14), and the one allocation meter of
//! every allocation gate in the workspace.
//!
//! A binary or test binary that wants heap numbers installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ipg_baselines::alloc_meter::CountingAllocator =
//!     ipg_baselines::alloc_meter::CountingAllocator;
//! ```
//!
//! and then wraps the code under measurement in [`measure`]. Counters are
//! kept per thread, so a test harness's other threads cannot disturb a
//! measurement; a measured section counts only what its own thread asks
//! of the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `#[global_allocator]` that counts, per thread, allocations, bytes
/// requested, live bytes and the largest request.
pub struct CountingAllocator;

/// One thread's running totals.
#[derive(Clone, Copy)]
struct Counters {
    allocations: u64,
    bytes: u64,
    live: i64,
    peak: i64,
    largest: usize,
}

thread_local! {
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { allocations: 0, bytes: 0, live: 0, peak: 0, largest: 0 })
    };
}

fn note(update: impl FnOnce(&mut Counters)) {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down.
    let _ = COUNTERS.try_with(|c| {
        let mut counters = c.get();
        update(&mut counters);
        c.set(counters);
    });
}

/// One allocation call that asks for a block of `requested` bytes, of
/// which `added` are new (all of them, except for a growing realloc).
fn note_alloc(requested: usize, added: usize) {
    note(|c| {
        c.allocations += 1;
        c.bytes += added as u64;
        c.live += added as i64;
        c.peak = c.peak.max(c.live);
        c.largest = c.largest.max(requested);
    });
}

fn note_free(freed: usize) {
    note(|c| c.live -= freed as i64);
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialized thread-local counter and has no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size(), layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size(), layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note_alloc(new_size, new_size - layout.size());
        } else {
            note_free(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap statistics over a measured region, on the measuring thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation calls (allocs and growing reallocs).
    pub allocations: u64,
    /// Total bytes requested: an allocation's size, and the bytes a
    /// growing realloc adds.
    pub bytes_allocated: u64,
    /// Peak live bytes *above* the level at the start of the measurement.
    pub peak_bytes: u64,
    /// Live bytes at the end less those at the start: what the region
    /// left allocated (negative when it freed more than it allocated).
    pub live_bytes: i64,
    /// The largest single request: an allocation's size or a growing
    /// realloc's new size.
    pub largest: usize,
}

/// Runs `f` and reports the allocation activity it caused on this thread.
/// Measurements do not nest: an inner one restarts the outer one's peak
/// and largest request.
///
/// Only meaningful when [`CountingAllocator`] is installed as the global
/// allocator; otherwise all counters read zero.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let start = COUNTERS.with(|c| {
        let mut counters = c.get();
        counters.peak = counters.live;
        counters.largest = 0;
        c.set(counters);
        counters
    });
    let r = f();
    let end = COUNTERS.with(Cell::get);
    let stats = AllocStats {
        allocations: end.allocations - start.allocations,
        bytes_allocated: end.bytes - start.bytes,
        peak_bytes: (end.peak - start.live).max(0) as u64,
        live_bytes: end.live - start.live,
        largest: end.largest,
    };
    (r, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the test binary does not install the allocator, so only the
    // bookkeeping arithmetic is testable here; end-to-end behaviour is
    // exercised by the fig14 binary and the allocation gates.

    #[test]
    fn measure_without_installed_allocator_reads_zero() {
        let (v, stats) = measure(|| vec![0u8; 1024].len());
        assert_eq!(v, 1024);
        assert_eq!(stats, AllocStats::default());
    }

    #[test]
    fn bookkeeping_counts_a_growing_realloc_by_the_bytes_it_adds() {
        let ((), stats) = measure(|| {
            note_alloc(100, 100);
            note_alloc(160, 60); // a realloc from 100 to 160 bytes
            note_free(40); // a shrink to 120
            note_free(120);
        });
        let want = AllocStats {
            allocations: 2,
            bytes_allocated: 160,
            peak_bytes: 160,
            live_bytes: 0,
            largest: 160,
        };
        assert_eq!(stats, want);
    }
}
