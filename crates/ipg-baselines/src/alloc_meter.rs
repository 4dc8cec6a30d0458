//! A counting global allocator — the offline substitute for the paper's
//! Valgrind heap measurements (Fig. 14).
//!
//! Binaries that want heap numbers install it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ipg_baselines::alloc_meter::CountingAllocator =
//!     ipg_baselines::alloc_meter::CountingAllocator;
//! ```
//!
//! and then wrap the code under measurement in [`measure`]. Counters are
//! process-global; measurements of concurrent allocations interleave, so
//! keep measured sections single-threaded (as the benchmarks do).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// A `#[global_allocator]` that counts allocations and bytes.
pub struct CountingAllocator;

// SAFETY: delegates directly to `System`; the bookkeeping has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            record_alloc(new_size - layout.size());
        } else {
            LIVE_BYTES.fetch_sub((layout.size() - new_size) as i64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn record_alloc(size: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Heap statistics over a measured region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation calls (allocs + growing reallocs).
    pub allocations: u64,
    /// Total bytes requested.
    pub bytes_allocated: u64,
    /// Peak live bytes *above* the level at the start of the measurement.
    pub peak_bytes: u64,
}

/// Runs `f` and reports the allocation activity it caused.
///
/// Only meaningful when [`CountingAllocator`] is installed as the global
/// allocator; otherwise all counters read zero.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let count0 = ALLOC_COUNT.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live0, Ordering::Relaxed);
    let r = f();
    let stats = AllocStats {
        allocations: ALLOC_COUNT.load(Ordering::Relaxed) - count0,
        bytes_allocated: ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
        peak_bytes: (PEAK_BYTES.load(Ordering::Relaxed) - live0).max(0) as u64,
    };
    (r, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the test binary does not install the allocator, so only the
    // bookkeeping arithmetic is testable here; end-to-end behaviour is
    // exercised by the fig14 binary.

    /// Serializes the tests that touch the process-global counters: a
    /// `fetch_sub` landing inside `measure`'s window would show up as a
    /// spurious count (or underflow its `u64` subtraction).
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_counters() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn measure_without_installed_allocator_reads_zero() {
        let _guard = lock_counters();
        let (v, stats) = measure(|| vec![0u8; 1024].len());
        assert_eq!(v, 1024);
        assert_eq!(stats.allocations, 0);
    }

    #[test]
    fn record_alloc_updates_peak() {
        let _guard = lock_counters();
        let live0 = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(live0, Ordering::Relaxed);
        record_alloc(100);
        assert!(PEAK_BYTES.load(Ordering::Relaxed) >= live0 + 100);
        LIVE_BYTES.fetch_sub(100, Ordering::Relaxed);
        ALLOC_COUNT.fetch_sub(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_sub(100, Ordering::Relaxed);
    }
}
