//! The Prometheus exposition (text format 0.0.4): every counter of the
//! table in [`crate::stats`], the admission ledger's in-flight gap, the
//! shared-bucket latency histogram and, when tracing is on, the trace
//! ring's two counters — rendered straight from the server's state, in
//! that order, on each scrape.
//!
//! Scraping never takes a producer-side lock: counters are atomic loads
//! and the histogram is copied bucket-by-bucket, so a scrape under full
//! traffic observes a consistent-enough snapshot without stalling a
//! single request. The ledger is read once per scrape
//! ([`crate::stats::Counters::ledger`]): the exported
//! `ipg_requests_in_flight` gauge is exactly the reconciliation gap of
//! the values exported beside it, so `submitted == completed + shed +
//! failed + in_flight` holds on every scrape, mid-traffic too.

use crate::histo::{self, LogHistogram};
use crate::pool::Shared;
use crate::stats::{Role, TABLE};
use std::fmt::Write as _;

/// One scrape of the server's telemetry.
pub(crate) fn gather(shared: &Shared) -> String {
    let mut out = String::new();
    let (values, in_flight) = shared.counters.ledger();
    for (i, (row, value)) in TABLE.iter().zip(values).enumerate() {
        family(&mut out, row.metric, row.help, row.kind.name(), value);
        // The gap follows the ledger block it reconciles.
        if row.role != Role::Info && TABLE.get(i + 1).is_none_or(|next| next.role == Role::Info) {
            family(
                &mut out,
                "ipg_requests_in_flight",
                "Submitted requests not yet classified (the live reconciliation gap).",
                "gauge",
                in_flight,
            );
        }
    }
    histogram(
        &mut out,
        "ipg_request_latency_us",
        "Admission-to-reply latency, microseconds (shared log2 buckets).",
        &shared.counters.latency,
    );
    if let Some(t) = &shared.trace {
        family(
            &mut out,
            "ipg_trace_events_total",
            "Trace events accepted into the ring.",
            "counter",
            t.emitted(),
        );
        family(
            &mut out,
            "ipg_trace_dropped_total",
            "Trace events lost to ring overflow or contention.",
            "counter",
            t.dropped(),
        );
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// A single-sample counter or gauge family.
fn family(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    header(out, name, help, kind);
    let _ = writeln!(out, "{name} {value}");
}

/// A histogram family: cumulative `_bucket{le="..."}` series plus
/// `_sum` / `_count`.
fn histogram(out: &mut String, name: &str, help: &str, h: &LogHistogram) {
    header(out, name, help, "histogram");
    let (counts, sum) = (h.counts(), h.sum_us());
    let mut cumulative = 0u64;
    for (i, n) in counts.iter().enumerate() {
        cumulative += n;
        // `le` is the bucket's upper bound; the shared buckets are
        // half-open `[2^i, 2^(i+1))`, so the exported bound is
        // `2^(i+1) - 1` to keep the cumulative counts exact under
        // Prometheus's inclusive-`le` convention.
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", histo::bucket_hi(i) - 1);
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{name}_sum {sum}");
    let _ = writeln!(out, "{name}_count {cumulative}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let h = LogHistogram::default();
        h.record_us(1); // bucket 0 (le="1")
        h.record_us(3); // bucket 1 (le="3")
        h.record_us(100); // bucket 6 (le="127")
        let mut text = String::new();
        histogram(&mut text, "t_latency_us", "Latency.", &h);
        assert!(text.contains("# TYPE t_latency_us histogram\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"127\"} 3\n"));
        assert!(text.contains("t_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("t_latency_us_sum 104\n"));
        assert!(text.contains("t_latency_us_count 3\n"));
    }
}
