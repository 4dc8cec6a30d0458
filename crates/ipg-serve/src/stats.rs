//! Service telemetry: lock-free counters bumped by whichever thread runs
//! a request, read as a consistent-enough snapshot by
//! [`crate::Server::stats`] and rendered by every scrape.
//!
//! Each counter is declared once, as one row of the `counter_table!`
//! below: its field name, its kind, its ledger role, its metric name and
//! its help text. The table generates the `Counters` atomics, the
//! [`StatsSnapshot`] fields, the snapshot's read, the reconciliation
//! identity and the Prometheus exposition; adding a counter is adding a
//! row, and a row without a role does not compile.
//!
//! Two counter families coexist:
//!
//! * **informational** (`parses_ok`/`parses_err`, sessions, steps,
//!   reloads) — what the VM and the watcher actually did;
//! * **the admission ledger** (`submitted`, and the terminal buckets
//!   `completed`/`shed`/`failed`). Every admitted request is classified
//!   into exactly one terminal bucket, so at quiescence the books
//!   reconcile: `submitted == completed + shed + failed`. The chaos
//!   harness asserts this identity under injected faults — a panic,
//!   stall, or drain that loses a reply shows up as a reconciliation gap.

use crate::histo::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter is exported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Monotone: only ever added to.
    Counter,
    /// A current level (goes up and down).
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE` word.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// Where a counter stands in the admission ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Requests admitted past grammar lookup: the ledger's domain.
    Submitted,
    /// A bucket every admitted request lands in exactly once. Bumped with
    /// `Release` after `submitted` (see [`Counters::ledger`]).
    Terminal,
    /// Telemetry outside the ledger identity.
    Info,
}

/// One declared counter, as the exposition sees it.
pub(crate) struct Row {
    pub metric: &'static str,
    pub help: &'static str,
    pub kind: Kind,
    pub role: Role,
}

/// Generates everything per-counter from one row each:
/// `field: Kind, Role, "metric_name", "Help text.";`, optionally
/// preceded by doc lines that add to the help text.
macro_rules! counter_table {
    ($($(#[$doc:meta])* $field:ident: $kind:ident, $role:ident, $metric:literal, $help:literal;)*) => {
        /// Monotonic counters shared by every request, one atomic per
        /// table row. Increments are relaxed — the snapshot is
        /// observational, not a synchronization point — except the
        /// ledger's terminal buckets (see [`Counters::ledger`]).
        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $(#[doc = $help] $(#[$doc])* pub $field: AtomicU64,)*
            /// Admission→reply latency (shared log₂ bucketing; see
            /// [`crate::histo`]).
            pub latency: LogHistogram,
        }

        /// A point-in-time view of the service, from
        /// [`crate::Server::stats`]: one field per counter, plus the
        /// latency percentiles.
        #[derive(Clone, Debug)]
        pub struct StatsSnapshot {
            $(#[doc = $help] $(#[$doc])* pub $field: u64,)*
            /// Median admission→reply latency, microseconds (log-bucketed).
            pub latency_p50_us: u64,
            /// 99th-percentile admission→reply latency, microseconds.
            pub latency_p99_us: u64,
        }

        /// The counter table, in exposition order.
        pub(crate) const TABLE: &[Row] = &[$(Row {
            metric: $metric,
            help: $help,
            kind: Kind::$kind,
            role: Role::$role,
        },)*];

        impl Counters {
            fn cells(&self) -> [&AtomicU64; TABLE.len()] {
                [$(&self.$field),*]
            }
        }

        impl StatsSnapshot {
            pub(crate) fn collect(c: &Counters) -> Self {
                StatsSnapshot {
                    $($field: c.$field.load(Ordering::Relaxed),)*
                    latency_p50_us: c.latency.percentile(0.50),
                    latency_p99_us: c.latency.percentile(0.99),
                }
            }

            fn values(&self) -> [u64; TABLE.len()] {
                [$(self.$field),*]
            }
        }
    };
}

counter_table! {
    parses_ok: Counter, Info, "ipg_parses_ok_total", "Completed parses.";
    /// One-shot rejections, fuel/byte-budget kills, misuse, and caught
    /// panics.
    parses_err: Counter, Info, "ipg_parses_err_total", "Failed parses.";
    sessions_opened: Counter, Info, "ipg_sessions_opened_total", "Streaming sessions opened.";
    /// Those that ran to Done/Error.
    sessions_closed: Counter, Info, "ipg_sessions_closed_total", "Streaming sessions closed.";
    sessions_evicted: Counter, Info, "ipg_sessions_evicted_total",
        "Sessions dropped by deadline eviction.";
    sessions_sealed: Counter, Info, "ipg_sessions_sealed_total",
        "Sessions sealed with GOAWAY during drain.";
    /// One-shot inputs plus streamed chunks.
    bytes_in: Counter, Info, "ipg_bytes_in_total", "Input bytes accepted.";
    steps: Counter, Info, "ipg_vm_steps_total", "VM steps executed by completed work.";
    suspends: Counter, Info, "ipg_suspends_total", "Suspensions taken by streaming sessions.";
    /// Each became an [`ipg_core::Error::WorkerPanic`] reply.
    panics_recovered: Counter, Info, "ipg_panics_recovered_total",
        "Request panics converted to typed replies.";
    reloads_ok: Counter, Info, "ipg_reloads_ok_total", "Hot reloads that swapped a generation in.";
    /// A source that does not compile; the previous generation remained
    /// current.
    reloads_rejected: Counter, Info, "ipg_reloads_rejected_total",
        "Hot reloads refused (previous generation kept).";
    /// Run, or refused at admission.
    submitted: Counter, Submitted, "ipg_requests_submitted_total",
        "Requests submitted (the ledger domain).";
    /// Answered Done/Opened/NeedInput.
    completed: Counter, Terminal, "ipg_requests_completed_total", "Requests answered successfully.";
    /// BUSY (in-flight bound) or GOAWAY (draining).
    shed: Counter, Terminal, "ipg_requests_shed_total", "Requests shed with BUSY/GOAWAY.";
    /// Including caught panics.
    failed: Counter, Terminal, "ipg_requests_failed_total", "Requests answered with a typed error.";
    /// Across all connections and handles.
    live_sessions: Gauge, Info, "ipg_live_sessions", "Sessions currently live.";
}

/// `(submitted, answered)`: a table-ordered value array summed by
/// ledger role.
fn ledger_sums(values: &[u64]) -> (u64, u64) {
    TABLE.iter().zip(values).fold((0, 0), |(submitted, answered), (row, &v)| match row.role {
        Role::Submitted => (submitted + v, answered),
        Role::Terminal => (submitted, answered + v),
        Role::Info => (submitted, answered),
    })
}

impl Counters {
    #[inline]
    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Every counter in table order, plus the admission ledger's
    /// in-flight gap, read so that the ledger balances exactly even under
    /// traffic: the terminal buckets are bumped with `Release` after
    /// `submitted`, and are read here (`Acquire`) before it, so
    /// `submitted` never trails the answers it read; the gap is
    /// `submitted − answered`. Informational counters are relaxed reads.
    pub(crate) fn ledger(&self) -> ([u64; TABLE.len()], u64) {
        let cells = self.cells();
        let mut values = [0; TABLE.len()];
        for role in [Role::Terminal, Role::Submitted, Role::Info] {
            let order = if role == Role::Info { Ordering::Relaxed } else { Ordering::Acquire };
            for (i, row) in TABLE.iter().enumerate() {
                if row.role == role {
                    values[i] = cells[i].load(order);
                }
            }
        }
        let (submitted, answered) = ledger_sums(&values);
        (values, submitted.saturating_sub(answered))
    }
}

impl StatsSnapshot {
    /// `true` when the admission ledger balances: every admitted request
    /// reached exactly one terminal bucket. Only meaningful at quiescence
    /// (in-flight requests are submitted but not yet classified). Every
    /// table row declares its role, so no counter is silently left out.
    pub fn reconciles(&self) -> bool {
        let (submitted, answered) = ledger_sums(&self.values());
        submitted == answered
    }

    /// `true` when the reload counters match the expected ground truth
    /// (e.g. the number of source rewrites a test actually performed).
    /// Split from [`StatsSnapshot::reconciles`] because reloads are
    /// watcher events, not admission-ledger entries.
    pub fn reconciles_reloads(&self, expected_ok: u64, expected_rejected: u64) -> bool {
        self.reloads_ok == expected_ok && self.reloads_rejected == expected_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> StatsSnapshot {
        StatsSnapshot::collect(&Counters::default())
    }

    #[test]
    fn table_names_are_valid_unique_and_typed() {
        let mut seen = std::collections::HashSet::new();
        for row in TABLE {
            let mut chars = row.metric.chars();
            assert!(
                chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                    && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "invalid metric name `{}`",
                row.metric
            );
            assert!(seen.insert(row.metric), "metric `{}` declared twice", row.metric);
            assert!(!row.help.is_empty() && !row.help.contains('\n'), "`{}` help", row.metric);
            assert_eq!(
                row.kind == Kind::Counter,
                row.metric.ends_with("_total"),
                "`{}`: counters and only counters end in `_total`",
                row.metric
            );
        }
    }

    #[test]
    fn the_ledger_is_one_contiguous_block_of_counters() {
        let ledger: Vec<usize> =
            (0..TABLE.len()).filter(|&i| TABLE[i].role != Role::Info).collect();
        assert_eq!(TABLE.iter().filter(|r| r.role == Role::Submitted).count(), 1);
        assert!(ledger.len() > 1, "a ledger needs terminal buckets");
        // The exposition renders the in-flight gap right after the block.
        assert_eq!(ledger.last().unwrap() - ledger[0] + 1, ledger.len(), "contiguous");
        assert!(ledger.iter().all(|&i| TABLE[i].kind == Kind::Counter));
    }

    #[test]
    fn ledger_read_reports_the_gap() {
        let c = Counters::default();
        Counters::add(&c.submitted, 5);
        c.completed.fetch_add(2, Ordering::Release);
        c.failed.fetch_add(1, Ordering::Release);
        Counters::add(&c.parses_ok, 9);
        let (values, in_flight) = c.ledger();
        assert_eq!(in_flight, 2);
        assert_eq!(values, StatsSnapshot::collect(&c).values());
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
}
