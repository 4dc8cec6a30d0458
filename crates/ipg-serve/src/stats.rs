//! Service telemetry: lock-free counters bumped by whichever thread runs
//! a request, read as a consistent-enough snapshot by
//! [`crate::Server::stats`].
//!
//! Two counter families coexist:
//!
//! * **parse-level** (`parses_ok`/`parses_err`, sessions, steps) — what
//!   the VM actually did;
//! * **request-level** (`submitted`/`completed`/`shed`/`failed`) — the
//!   admission-control ledger. Every admitted request is classified into
//!   exactly one terminal bucket, so at quiescence the books reconcile:
//!   `submitted == completed + shed + failed`. The chaos harness asserts
//!   this identity under injected faults — a panic, stall, or drain that
//!   loses a reply shows up as a reconciliation gap.

use crate::histo::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic counters shared by every request. Increments are relaxed —
/// the snapshot is observational, not a synchronization point — except
/// the ledger's terminal buckets (see [`Counters::ledger`]).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub parses_ok: AtomicU64,
    pub parses_err: AtomicU64,
    pub sessions_opened: AtomicU64,
    pub sessions_closed: AtomicU64,
    pub sessions_evicted: AtomicU64,
    /// Sessions sealed with GOAWAY during a drain (subset of closings).
    pub sessions_sealed: AtomicU64,
    pub bytes_in: AtomicU64,
    pub steps: AtomicU64,
    pub suspends: AtomicU64,
    pub live_sessions: AtomicU64,
    /// Requests admitted past grammar lookup (the reconciliation domain).
    pub requests_submitted: AtomicU64,
    /// Requests answered Done/Opened/NeedInput.
    pub requests_completed: AtomicU64,
    /// Requests answered BUSY (in-flight bound) or GOAWAY (draining).
    pub requests_shed: AtomicU64,
    /// Requests answered with a typed error (including caught panics).
    pub requests_failed: AtomicU64,
    /// Panics caught at the request boundary and converted to
    /// [`ipg_core::Error::WorkerPanic`] replies.
    pub panics_recovered: AtomicU64,
    /// Hot reloads that validated and swapped a new grammar generation in.
    pub reloads_ok: AtomicU64,
    /// Hot reloads refused (a source that does not compile); the
    /// previous generation remained current.
    pub reloads_rejected: AtomicU64,
    /// Admission→reply latency (shared log₂ bucketing; see
    /// [`crate::histo`]).
    pub latency: LogHistogram,
}

impl Counters {
    #[inline]
    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// The admission ledger `[submitted, completed, shed, failed,
    /// in_flight]`, read so that it balances exactly even under traffic:
    /// the terminal buckets are bumped with `Release` after `submitted`,
    /// and are read here (`Acquire`) before it, so `submitted` never
    /// trails the answers it read; `in_flight` is the gap.
    pub(crate) fn ledger(&self) -> [u64; 5] {
        let completed = self.requests_completed.load(Ordering::Acquire);
        let shed = self.requests_shed.load(Ordering::Acquire);
        let failed = self.requests_failed.load(Ordering::Acquire);
        let submitted = self.requests_submitted.load(Ordering::Acquire);
        [submitted, completed, shed, failed, submitted.saturating_sub(completed + shed + failed)]
    }
}

/// A point-in-time view of the service (the `STATS` protocol op returns
/// this as JSON; see the README for the field meanings).
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Completed parses (one-shot parses plus finished sessions).
    pub parses_ok: u64,
    /// Failed parses (rejections, fuel/byte-budget kills, misuse).
    pub parses_err: u64,
    /// Streaming sessions opened.
    pub sessions_opened: u64,
    /// Streaming sessions that ran to Done/Error.
    pub sessions_closed: u64,
    /// Sessions dropped by deadline eviction.
    pub sessions_evicted: u64,
    /// Sessions sealed with GOAWAY during drain.
    pub sessions_sealed: u64,
    /// Sessions currently live across all connections and handles.
    pub live_sessions: u64,
    /// Input bytes accepted (one-shot inputs plus streamed chunks).
    pub bytes_in: u64,
    /// VM steps executed by completed work.
    pub steps: u64,
    /// Suspensions taken by streaming sessions.
    pub suspends: u64,
    /// Requests submitted (run, or refused at admission).
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests refused at admission with BUSY/GOAWAY.
    pub shed: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// Request panics caught and converted to typed error replies.
    pub panics_recovered: u64,
    /// Hot reloads that swapped a new grammar generation in.
    pub reloads_ok: u64,
    /// Hot reloads refused with the previous generation kept current.
    pub reloads_rejected: u64,
    /// Median admission→reply latency, microseconds (log-bucketed).
    pub latency_p50_us: u64,
    /// 99th-percentile admission→reply latency, microseconds.
    pub latency_p99_us: u64,
    /// Seconds since the server started.
    pub elapsed_s: f64,
    /// Completed parses per second since start.
    pub parses_per_s: f64,
    /// Input bytes per second since start.
    pub bytes_per_s: f64,
}

impl StatsSnapshot {
    pub(crate) fn collect(c: &Counters, started: Instant) -> Self {
        let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
        let parses_ok = c.parses_ok.load(Ordering::Relaxed);
        let bytes_in = c.bytes_in.load(Ordering::Relaxed);
        StatsSnapshot {
            parses_ok,
            parses_err: c.parses_err.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: c.sessions_closed.load(Ordering::Relaxed),
            sessions_evicted: c.sessions_evicted.load(Ordering::Relaxed),
            sessions_sealed: c.sessions_sealed.load(Ordering::Relaxed),
            live_sessions: c.live_sessions.load(Ordering::Relaxed),
            bytes_in,
            steps: c.steps.load(Ordering::Relaxed),
            suspends: c.suspends.load(Ordering::Relaxed),
            submitted: c.requests_submitted.load(Ordering::Relaxed),
            completed: c.requests_completed.load(Ordering::Relaxed),
            shed: c.requests_shed.load(Ordering::Relaxed),
            failed: c.requests_failed.load(Ordering::Relaxed),
            panics_recovered: c.panics_recovered.load(Ordering::Relaxed),
            reloads_ok: c.reloads_ok.load(Ordering::Relaxed),
            reloads_rejected: c.reloads_rejected.load(Ordering::Relaxed),
            latency_p50_us: c.latency.percentile(0.50),
            latency_p99_us: c.latency.percentile(0.99),
            elapsed_s,
            parses_per_s: parses_ok as f64 / elapsed_s,
            bytes_per_s: bytes_in as f64 / elapsed_s,
        }
    }

    /// `true` when the admission ledger balances: every admitted request
    /// reached exactly one terminal bucket. Only meaningful at quiescence
    /// (in-flight requests are submitted but not yet classified).
    ///
    /// The body destructures the snapshot exhaustively (no `..`): adding
    /// a counter to [`StatsSnapshot`] fails compilation here until the
    /// new field is explicitly classified as part of the ledger identity
    /// or as informational — a counter can never be *silently* ignored
    /// by the reconciliation check again.
    pub fn reconciles(&self) -> bool {
        let StatsSnapshot {
            // The ledger identity.
            submitted,
            completed,
            shed,
            failed,
            // Informational: parse/session/VM telemetry, not admission
            // ledger entries.
            parses_ok: _,
            parses_err: _,
            sessions_opened: _,
            sessions_closed: _,
            sessions_evicted: _,
            sessions_sealed: _,
            live_sessions: _,
            bytes_in: _,
            steps: _,
            suspends: _,
            panics_recovered: _,
            // Reload counters: checked against the watcher's ground
            // truth by [`StatsSnapshot::reconciles_reloads`].
            reloads_ok: _,
            reloads_rejected: _,
            // Derived/latency fields.
            latency_p50_us: _,
            latency_p99_us: _,
            elapsed_s: _,
            parses_per_s: _,
            bytes_per_s: _,
        } = self;
        *submitted == completed + shed + failed
    }

    /// `true` when the reload counters match the expected ground truth
    /// (e.g. the number of source rewrites a test actually performed).
    /// Split from [`StatsSnapshot::reconciles`] because reloads are
    /// watcher events, not admission-ledger entries.
    pub fn reconciles_reloads(&self, expected_ok: u64, expected_rejected: u64) -> bool {
        self.reloads_ok == expected_ok && self.reloads_rejected == expected_rejected
    }

    /// Renders the snapshot as a single JSON object (the wire format of
    /// the `STATS` op).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"parses_ok\": {}, \"parses_err\": {}, \"sessions_opened\": {}, \
             \"sessions_closed\": {}, \"sessions_evicted\": {}, \"sessions_sealed\": {}, \
             \"live_sessions\": {}, \"bytes_in\": {}, \"steps\": {}, \"suspends\": {}, \
             \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \
             \"panics_recovered\": {}, \"reloads_ok\": {}, \"reloads_rejected\": {}, \
             \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"elapsed_s\": {:.3}, \
             \"parses_per_s\": {:.1}, \"bytes_per_s\": {:.0}}}",
            self.parses_ok,
            self.parses_err,
            self.sessions_opened,
            self.sessions_closed,
            self.sessions_evicted,
            self.sessions_sealed,
            self.live_sessions,
            self.bytes_in,
            self.steps,
            self.suspends,
            self.submitted,
            self.completed,
            self.shed,
            self.failed,
            self.panics_recovered,
            self.reloads_ok,
            self.reloads_rejected,
            self.latency_p50_us,
            self.latency_p99_us,
            self.elapsed_s,
            self.parses_per_s,
            self.bytes_per_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> StatsSnapshot {
        let c = Counters::default();
        StatsSnapshot::collect(&c, Instant::now())
    }

    #[test]
    fn ledger_reconciles_exactly() {
        let mut s = snapshot();
        s.submitted = 10;
        s.completed = 7;
        s.shed = 2;
        s.failed = 1;
        assert!(s.reconciles());
        // One lost reply breaks the identity in either direction.
        s.failed = 0;
        assert!(!s.reconciles());
        s.failed = 2;
        assert!(!s.reconciles());
    }

    #[test]
    fn reload_reconciliation_checks_every_watcher_counter() {
        let mut s = snapshot();
        s.reloads_ok = 2;
        s.reloads_rejected = 1;
        assert!(s.reconciles_reloads(2, 1));
        // A mismatch in either counter fails the check — neither can be
        // silently ignored.
        assert!(!s.reconciles_reloads(3, 1));
        assert!(!s.reconciles_reloads(2, 0));
    }

    #[test]
    fn json_snapshot_names_every_reconciled_counter() {
        let j = snapshot().to_json();
        for key in ["submitted", "completed", "shed", "failed", "reloads_ok", "reloads_rejected"] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key} in {j}");
        }
    }
}
