//! Admission and panic isolation. There is no pool of worker threads:
//! every request runs to completion on the thread that received it — a
//! connection thread for the wire, the caller's thread in process — so a
//! reply never waits on another thread. What requests share is
//! bookkeeping, and [`Shared::run`] is the one path through it:
//!
//! * **Admission** — a request is refused with `GOAWAY` once
//!   [`Shared::draining`] is set, and a one-shot PARSE is shed with
//!   `BUSY` when the in-flight count would pass `max_queue`. Session
//!   requests are never shed: a session's owner sends one request at a
//!   time, and letting them through keeps "session traffic degrades
//!   last". Every request, refused or run, is classified exactly once,
//!   which keeps the ledger `submitted = completed + shed + failed +
//!   in_flight` exact.
//! * **Panic isolation** — every request body runs under
//!   `catch_unwind`; a panicking parse (or an injected fault) costs
//!   exactly that request, which is answered with a typed
//!   [`Error::WorkerPanic`], and the session it touched is discarded.
//!   The panic hook stays quiet for panics caught here and only here
//!   (a thread-local flag marks the guarded body), so any other panic
//!   still reaches the previously installed hook.

use crate::fault::{Fault, FaultPlan};
use crate::stats::Counters;
use crate::trace::{self, TraceLog};
use crate::{Config, Response};
use ipg_core::Error;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// State shared by the server handle, its connections and its stream
/// handles.
pub(crate) struct Shared {
    pub(crate) counters: Counters,
    pub(crate) shutdown: AtomicBool,
    /// Graceful-drain mode: every new request is refused with GOAWAY and
    /// sessions are sealed.
    pub(crate) draining: AtomicBool,
    /// Requests admitted and not yet classified; [`crate::Server::drain`]
    /// waits for it to reach zero.
    in_flight: AtomicUsize,
    pub(crate) next_session: AtomicU64,
    pub(crate) max_steps: u64,
    pub(crate) max_bytes: usize,
    pub(crate) session_deadline: Duration,
    /// In-flight bound; a PARSE that would pass it is shed.
    max_queue: usize,
    /// Retry hint carried in BUSY responses.
    retry_after_ms: u64,
    /// Frame payload cap for the wire front end.
    pub(crate) max_frame: usize,
    /// Per-read inactivity timeout and whole-frame deadline on the wire
    /// (the slow-loris guard).
    pub(crate) io_timeout: Duration,
    /// Fault-injection schedule (chaos harness); `None` in production.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Structured trace ring (`ipg serve --trace-log`); `None` disables
    /// event emission entirely (one branch per event site).
    pub(crate) trace: Option<Arc<TraceLog>>,
}

thread_local! {
    /// Set while this thread runs a request body under `catch_unwind`.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

/// Suppresses the default panic-hook spew (message + backtrace) for
/// panics that [`Shared::execute`] catches and converts to typed replies.
/// Installed once per process; a panic outside a guarded request body
/// still reaches the previous hook untouched.
pub(crate) fn install_quiet_request_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDED.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

impl Shared {
    pub(crate) fn new(cfg: Config) -> Shared {
        Shared {
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
            max_steps: cfg.max_steps,
            max_bytes: cfg.max_bytes,
            session_deadline: cfg.session_deadline,
            max_queue: cfg.max_queue.max(1),
            retry_after_ms: cfg.retry_after.as_millis().max(1) as u64,
            max_frame: cfg.max_frame,
            io_timeout: cfg.io_timeout,
            faults: cfg.faults,
            trace: cfg.trace,
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Runs one request on the calling thread: admission, then `body`
    /// under fault injection and `catch_unwind`, then classification and
    /// the trace's `admit`/`done` events. `op` names the request in the
    /// trace; only a `sheddable` request is shed with BUSY.
    ///
    /// The in-flight count goes up before the drain flag is read and
    /// down only after classification (both sequentially consistent), so
    /// once a drain has set the flag and seen zero in flight, every
    /// request admitted before it has been answered and counted.
    pub(crate) fn run(
        &self,
        op: &'static str,
        sheddable: bool,
        body: impl FnOnce() -> Response,
    ) -> Response {
        let accepted = Instant::now();
        let span = self.trace.as_ref().map_or(0, |t| {
            let span = trace::next_span();
            t.admit(span, op);
            span
        });
        Counters::add(&self.counters.submitted, 1);
        let ahead = self.in_flight.fetch_add(1, Ordering::SeqCst);
        let resp = if self.is_draining() {
            Response::GoAway
        } else if sheddable && ahead >= self.max_queue {
            Response::Busy { retry_after_ms: self.retry_after_ms }
        } else {
            self.execute(span, body)
        };
        self.classify(&resp, accepted);
        if let Some(t) = &self.trace {
            t.done(span, outcome_name(&resp), accepted.elapsed());
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        resp
    }

    /// Fault injection, then `body` under `catch_unwind`. The fault is
    /// decided before execution so a `Panic` takes exactly the recovery
    /// path a real VM or session panic would.
    fn execute(&self, span: u64, body: impl FnOnce() -> Response) -> Response {
        let fault = self.faults.as_ref().map_or(Fault::None, |plan| plan.next_request_fault());
        match (&self.trace, fault) {
            (Some(t), Fault::Panic) => t.fault(span, "panic"),
            (Some(t), Fault::Stall(_)) => t.fault(span, "stall"),
            _ => {}
        }
        if let Fault::Stall(d) = fault {
            std::thread::sleep(d);
        }
        // AssertUnwindSafe: on Err the callers discard every value the
        // body could have left half-mutated — the session it touched is
        // dropped rather than reused.
        GUARDED.with(|g| g.set(true));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault == Fault::Panic {
                panic!("injected fault: request panic");
            }
            body()
        }));
        GUARDED.with(|g| g.set(false));
        outcome.unwrap_or_else(|payload| {
            let c = &self.counters;
            Counters::add(&c.panics_recovered, 1);
            Counters::add(&c.parses_err, 1);
            Response::Error(Error::WorkerPanic(panic_message(payload.as_ref())))
        })
    }

    /// Classifies a terminal response into the request-level ledger and
    /// records its admission→reply latency. Every admitted request passes
    /// through here exactly once. The terminal counters are bumped with
    /// `Release` so a scrape that reads them (`Acquire`) before
    /// `submitted` never sees more answers than requests.
    fn classify(&self, resp: &Response, accepted: Instant) {
        let c = &self.counters;
        let bucket = match resp {
            Response::Done(_) | Response::Opened { .. } | Response::NeedInput { .. } => {
                &c.completed
            }
            Response::Busy { .. } | Response::GoAway => &c.shed,
            Response::Error(_) => &c.failed,
        };
        bucket.fetch_add(1, Ordering::Release);
        c.latency.record(accepted.elapsed());
    }
}

/// The trace-log name of a terminal response.
fn outcome_name(resp: &Response) -> &'static str {
    match resp {
        Response::Done(_) => "done",
        Response::Opened { .. } => "opened",
        Response::NeedInput { .. } => "need_input",
        Response::Error(_) => "error",
        Response::Busy { .. } => "busy",
        Response::GoAway => "goaway",
    }
}

/// Renders a caught panic payload for the typed reply.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}
