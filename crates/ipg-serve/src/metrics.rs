//! The central metrics registry: every counter the service maintains —
//! request ledger, parse/session telemetry, reload/quarantine counts,
//! latency histogram, queue depths — registered once under a stable name
//! and exposed in Prometheus text format (version 0.0.4).
//!
//! Two registration shapes cover every producer in the tree:
//!
//! * **owned handles** ([`Registry::counter`], [`Registry::gauge`]) —
//!   new metrics created by the registry itself (the trace subsystem
//!   uses these);
//! * **closures** ([`Registry::counter_fn`] / [`Registry::gauge_fn`] /
//!   [`Registry::histogram_fn`] / [`Registry::gauge_vec_fn`]) — values
//!   computed at scrape time from state the registry cannot own (the
//!   pool's [`crate::stats::Counters`], per-worker queue depths, the
//!   in-flight derivation `submitted − completed − shed − failed`).
//!
//! Scraping never takes a producer-side lock: counters are relaxed
//! atomic loads and the histogram is copied bucket-by-bucket, so a
//! scrape under full traffic observes a consistent-enough snapshot
//! without stalling a single request. The admission-ledger identity is
//! checked *at scrape time* by [`Registry::gather`]'s callers: the
//! exported `ipg_requests_in_flight` gauge is exactly the reconciliation
//! gap, so `submitted == completed + shed + failed + in_flight` holds on
//! every scrape, not just at quiescence.

use crate::histo::{self, BUCKET_COUNT};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotone counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed; the scrape is observational).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A set-to-current-value gauge handle. Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Where one family's sample values come from at scrape time.
enum Source {
    Counter(Arc<AtomicU64>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Arc<AtomicU64>),
    GaugeFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Bucket counts (exclusive log₂ upper bounds per [`crate::histo`])
    /// plus the running sum of observed values.
    HistogramFn(Box<dyn Fn() -> ([u64; BUCKET_COUNT], u64) + Send + Sync>),
    /// One gauge sample per label value (e.g. per-worker queue depth).
    GaugeVecFn {
        label: &'static str,
        read: Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>,
    },
}

impl Source {
    fn type_name(&self) -> &'static str {
        match self {
            Source::Counter(_) | Source::CounterFn(_) => "counter",
            Source::Gauge(_) | Source::GaugeFn(_) | Source::GaugeVecFn { .. } => "gauge",
            Source::HistogramFn(_) => "histogram",
        }
    }
}

struct Family {
    name: String,
    help: String,
    source: Source,
}

/// The registry: a set of named metric families gathered into one
/// Prometheus text document. Registration happens at server startup;
/// duplicate names are a programming error and panic immediately rather
/// than producing an invalid exposition later.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// `true` for a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, source: Source) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!families.iter().any(|f| f.name == name), "metric `{name}` registered twice");
        families.push(Family { name: name.to_owned(), help: help.to_owned(), source });
    }

    /// Creates and registers a new counter, returning its handle.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let cell = Arc::new(AtomicU64::new(0));
        self.register(name, help, Source::Counter(Arc::clone(&cell)));
        Counter(cell)
    }

    /// Registers a counter whose value is computed at scrape time.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, Source::CounterFn(Box::new(read)));
    }

    /// Creates and registers a new gauge, returning its handle.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let cell = Arc::new(AtomicU64::new(0));
        self.register(name, help, Source::Gauge(Arc::clone(&cell)));
        Gauge(cell)
    }

    /// Registers a gauge whose value is computed at scrape time.
    pub fn gauge_fn(&self, name: &str, help: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register(name, help, Source::GaugeFn(Box::new(read)));
    }

    /// Registers a labeled gauge family: `read` returns one
    /// `(label_value, sample)` pair per series, re-evaluated every
    /// scrape.
    pub fn gauge_vec_fn(
        &self,
        name: &str,
        help: &str,
        label: &'static str,
        read: impl Fn() -> Vec<(String, u64)> + Send + Sync + 'static,
    ) {
        self.register(name, help, Source::GaugeVecFn { label, read: Box::new(read) });
    }

    /// Registers a histogram over the shared log₂ buckets
    /// ([`crate::histo`]): `read` returns the bucket counts and the
    /// running sum, typically copied from a
    /// [`crate::histo::LogHistogram`].
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        read: impl Fn() -> ([u64; BUCKET_COUNT], u64) + Send + Sync + 'static,
    ) {
        self.register(name, help, Source::HistogramFn(Box::new(read)));
    }

    /// Renders every family as Prometheus text format 0.0.4: `# HELP` /
    /// `# TYPE` headers followed by the samples, histograms as
    /// cumulative `_bucket{le="..."}` series plus `_sum` / `_count`.
    pub fn gather(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for f in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.source.type_name());
            match &f.source {
                Source::Counter(cell) | Source::Gauge(cell) => {
                    let _ = writeln!(out, "{} {}", f.name, cell.load(Ordering::Relaxed));
                }
                Source::CounterFn(read) | Source::GaugeFn(read) => {
                    let _ = writeln!(out, "{} {}", f.name, read());
                }
                Source::GaugeVecFn { label, read } => {
                    for (value, sample) in read() {
                        let _ = writeln!(out, "{}{{{}=\"{}\"}} {}", f.name, label, value, sample);
                    }
                }
                Source::HistogramFn(read) => {
                    let (counts, sum) = read();
                    let mut cumulative = 0u64;
                    for (i, n) in counts.iter().enumerate() {
                        cumulative += n;
                        // `le` is the bucket's upper bound; the shared
                        // buckets are half-open `[2^i, 2^(i+1))`, so the
                        // exported bound is `2^(i+1) - 1` to keep the
                        // cumulative counts exact under Prometheus's
                        // inclusive-`le` convention.
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            f.name,
                            histo::bucket_hi(i) - 1,
                            cumulative
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", f.name, cumulative);
                    let _ = writeln!(out, "{}_sum {}", f.name, sum);
                    let _ = writeln!(out, "{}_count {}", f.name, cumulative);
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Registry").field("families", &families.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::LogHistogram;

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let r = Registry::new();
        let c = r.counter("t_requests_total", "Requests seen.");
        c.add(3);
        let g = r.gauge("t_depth", "Current depth.");
        g.set(7);
        let text = r.gather();
        assert!(text.contains("# HELP t_requests_total Requests seen.\n"));
        assert!(text.contains("# TYPE t_requests_total counter\n"));
        assert!(
            text.contains("\nt_requests_total 3\n") || text.starts_with("t_requests_total 3\n")
        );
        assert!(text.contains("# TYPE t_depth gauge\n"));
        assert!(text.contains("t_depth 7\n"));
    }

    #[test]
    fn fn_sources_read_live_values() {
        let r = Registry::new();
        let cell = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&cell);
        r.counter_fn("t_shared_total", "Shared cell.", move || c.load(Ordering::Relaxed));
        r.counter_fn("t_derived_total", "Derived.", || 42);
        cell.fetch_add(5, Ordering::Relaxed);
        let text = r.gather();
        assert!(text.contains("t_shared_total 5\n"));
        assert!(text.contains("t_derived_total 42\n"));
        // A later scrape observes later increments: the registry reads,
        // never snapshots at registration.
        cell.fetch_add(1, Ordering::Relaxed);
        assert!(r.gather().contains("t_shared_total 6\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let r = Registry::new();
        let h = Arc::new(LogHistogram::default());
        let hh = Arc::clone(&h);
        r.histogram_fn("t_latency_us", "Latency.", move || (hh.counts(), hh.sum_us()));
        h.record_us(1); // bucket 0 (le="1")
        h.record_us(3); // bucket 1 (le="3")
        h.record_us(100); // bucket 6 (le="127")
        let text = r.gather();
        assert!(text.contains("# TYPE t_latency_us histogram\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"127\"} 3\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("t_latency_us_sum 104\n"));
        assert!(text.contains("t_latency_us_count 3\n"));
    }

    #[test]
    fn gauge_vec_emits_one_series_per_label_value() {
        let r = Registry::new();
        r.gauge_vec_fn("t_queue_depth", "Depth per worker.", "worker", || {
            vec![("0".into(), 4), ("1".into(), 9)]
        });
        let text = r.gather();
        assert!(text.contains("t_queue_depth{worker=\"0\"} 4\n"));
        assert!(text.contains("t_queue_depth{worker=\"1\"} 9\n"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let r = Registry::new();
        r.counter("t_dup_total", "First.");
        r.counter("t_dup_total", "Second.");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let r = Registry::new();
        r.counter("0starts_with_digit", "Bad.");
    }
}
