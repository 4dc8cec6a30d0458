//! `ipg-serve` — a batch/streaming parse service over the IPG bytecode
//! VM, built for the "heavy parse traffic" end of the roadmap.
//!
//! Architecture (bottom up):
//!
//! * **Program registry** — the shared [`ipg_formats::Registry`] maps
//!   grammar names to refcounted [`Compiled`] *generations*.
//!   [`Registry::corpus`] pre-loads all nine corpus grammars, compiled
//!   from source in memory, and user-supplied grammars
//!   ([`Registry::load_path`]: `.ipg` sources or `.ipgc` artifacts) land
//!   in the same table.
//! * **Hot reload** — [`Server::watch_dir`] polls a grammar directory
//!   ([`watch`]) and atomically swaps changed grammars into the live
//!   registry; every admitted job pins the generation it resolved, so
//!   in-flight parses and sessions are never torn by a swap. Invalid
//!   artifacts are quarantined (`*.bad`), healed from sibling `.ipg`
//!   source when possible, and counted in the stats snapshot
//!   (`reloads_ok` / `reloads_rejected` / `artifacts_quarantined`).
//! * **Sharded worker pool** — one queue per worker plus work stealing
//!   for one-shot jobs ([`pool`]); streaming sessions are pinned to their
//!   owning worker so the suspended frame stack never crosses threads.
//! * **Isolation** — every parse carries a step budget, every session a
//!   byte budget and a rolling deadline; an input that stalls, balloons,
//!   or loops is killed with a clean error and the worker moves on. Every
//!   job body runs under `catch_unwind`: a panicking parse (or an
//!   injected fault, [`fault`]) costs exactly that job — answered with a
//!   typed [`ipg_core::Error::WorkerPanic`] — never the worker.
//! * **Admission control** — one-shot queues are bounded; over the bound
//!   new jobs are shed immediately with [`Response::Busy`] (a typed
//!   `BUSY { retry_after_ms }` on the wire) instead of queued, while
//!   pinned session traffic degrades last.
//! * **Drain** — [`Server::drain`] (wired to SIGTERM/ctrl-c in
//!   `ipg serve`) stops admitting, flushes queued one-shot work, seals
//!   open sessions, and answers everything else `GOAWAY`, so a restart
//!   never tears a frame mid-connection.
//! * **Front ends** — an in-process API ([`Server::parse`],
//!   [`Server::open`]) and a length-framed Unix-socket protocol
//!   ([`proto`], [`Server::serve_unix`]).
//!
//! ```no_run
//! use ipg_serve::{Config, Server};
//!
//! let server = Server::start(Config { workers: 4, ..Config::default() });
//! let archive = ipg_corpus::zip::generate(&Default::default()).bytes;
//! let summary = server.parse("zip", archive).expect("valid archive");
//! assert!(summary.nodes > 0);
//!
//! // Streaming: bytes arrive as they come off the wire.
//! let mut stream = server.open("dns").unwrap();
//! stream.feed(&[0x12, 0x34]);
//! let outcome = stream.finish();
//! # let _ = outcome;
//! ```

pub mod fault;
pub mod histo;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod stats;
pub mod trace;
pub mod watch;

use fault::FaultPlan;
use ipg_core::interp::vm::Hint;
use ipg_core::Error;
use pool::{Job, JobKind, Shard, Shared};
use stats::{Counters, StatsSnapshot};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration. The defaults are production-lean: parallelism
/// from the machine, 50M-step fuel (the repo's standard "pathological
/// loop" bound), 64 MiB per-session buffers, 30 s session deadlines,
/// 1024-deep one-shot queues with BUSY shedding beyond that, and a 10 s
/// per-request reply deadline.
#[derive(Clone, Debug)]
pub struct Config {
    /// Worker threads (0 = `std::thread::available_parallelism`).
    pub workers: usize,
    /// Step budget per parse/session.
    pub max_steps: u64,
    /// Byte budget per streaming session.
    pub max_bytes: usize,
    /// Rolling inactivity deadline after which a session is evicted.
    pub session_deadline: Duration,
    /// Per-shard bound on queued one-shot jobs; beyond it new jobs are
    /// shed with `BUSY { retry_after_ms }` instead of queued.
    pub max_queue: usize,
    /// The retry hint carried in BUSY responses.
    pub retry_after: Duration,
    /// How long a caller waits for its reply before receiving a typed
    /// deadline error (the job itself still completes server-side).
    pub request_deadline: Duration,
    /// Hard cap on a wire frame payload (see [`proto::MAX_FRAME`]).
    pub max_frame: usize,
    /// Wire inactivity timeout and whole-frame deadline: a connection
    /// that stalls mid-frame longer than this is answered with a typed
    /// error and closed (the slow-loris guard).
    pub io_timeout: Duration,
    /// Fault-injection schedule for the chaos harness; `None` (the
    /// default) injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
    /// Structured trace ring (`ipg serve --trace-log`); `None` (the
    /// default) disables span event emission entirely.
    pub trace: Option<Arc<trace::TraceLog>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 0,
            max_steps: 50_000_000,
            max_bytes: 64 << 20,
            session_deadline: Duration::from_secs(30),
            max_queue: 1024,
            retry_after: Duration::from_millis(25),
            request_deadline: Duration::from_secs(10),
            max_frame: proto::MAX_FRAME,
            io_timeout: Duration::from_secs(5),
            faults: None,
            trace: None,
        }
    }
}

pub use ipg_formats::{Compiled, Registry};

/// Completion summary of a successful parse (what crosses the wire; the
/// in-process API returns it too, keeping both front ends honest about
/// the same contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSummary {
    /// VM steps executed.
    pub steps: u64,
    /// Suspensions taken (0 for one-shot jobs).
    pub suspends: u64,
    /// Parse-tree records allocated.
    pub nodes: usize,
    /// Input bytes consumed.
    pub bytes: usize,
}

/// A worker's answer to one job.
#[derive(Debug)]
pub enum Response {
    /// Parse completed.
    Done(ParseSummary),
    /// Session opened under this id.
    Opened {
        /// The session id to use in subsequent `Feed`/`Finish` calls.
        id: u64,
    },
    /// A streaming session wants more input.
    NeedInput {
        /// What would unlock progress.
        hint: Hint,
    },
    /// The parse failed or the request was invalid.
    Error(Error),
    /// Shed at admission: the one-shot queue is over its bound. The job
    /// was never queued; retry after the hinted delay.
    Busy {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The server is draining: no new work is admitted and the session
    /// this request addressed (if any) has been sealed.
    GoAway,
}

/// The running service: worker threads plus the shared state. Dropping
/// the server shuts the pool down (abandoning live sessions).
pub struct Server {
    shared: Arc<Shared>,
    registry: Registry,
    metrics: Arc<metrics::Registry>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    watcher: Mutex<Option<watch::Watcher>>,
    started: Instant,
    rr: AtomicU64,
}

/// Suppresses default panic-hook spew (message + backtrace) for panics
/// that the worker pool catches and converts to typed replies. Installed
/// once per process; panics on any non-`ipg-serve-` thread still reach
/// the previous hook untouched.
fn install_quiet_worker_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let caught = std::thread::current().name().is_some_and(|n| n.starts_with("ipg-serve-"));
            if !caught {
                prev(info);
            }
        }));
    });
}

/// Builds the server's metrics registry: every stats counter, the
/// admission ledger with its scrape-time in-flight derivation, the
/// reload/quarantine counters, the shared-bucket latency histogram,
/// per-worker queue depths, and — when tracing is on — the trace ring's
/// emit/drop counters. This is the single exposition point: a counter
/// that exists but is not registered here is invisible to every scraper,
/// so the registration list is deliberately exhaustive over
/// [`stats::Counters`].
/// One registration row: metric name, help text, and the accessor
/// picking the backing cell out of [`stats::Counters`].
type CounterSpec = (&'static str, &'static str, fn(&stats::Counters) -> &AtomicU64);

fn build_metrics(shared: &Arc<Shared>) -> Arc<metrics::Registry> {
    let reg = metrics::Registry::new();
    let counters: [CounterSpec; 18] = [
        ("ipg_parses_ok_total", "Completed parses.", |c| &c.parses_ok),
        ("ipg_parses_err_total", "Failed parses.", |c| &c.parses_err),
        ("ipg_sessions_opened_total", "Streaming sessions opened.", |c| &c.sessions_opened),
        ("ipg_sessions_closed_total", "Streaming sessions closed.", |c| &c.sessions_closed),
        ("ipg_sessions_evicted_total", "Sessions dropped by deadline eviction.", |c| {
            &c.sessions_evicted
        }),
        ("ipg_sessions_sealed_total", "Sessions sealed with GOAWAY during drain.", |c| {
            &c.sessions_sealed
        }),
        ("ipg_bytes_in_total", "Input bytes accepted.", |c| &c.bytes_in),
        ("ipg_vm_steps_total", "VM steps executed by completed work.", |c| &c.steps),
        ("ipg_suspends_total", "Suspensions taken by streaming sessions.", |c| &c.suspends),
        ("ipg_steals_total", "Jobs taken from another worker's queue.", |c| &c.steals),
        ("ipg_requests_submitted_total", "Requests admitted (the ledger domain).", |c| {
            &c.requests_submitted
        }),
        ("ipg_requests_completed_total", "Requests answered successfully.", |c| {
            &c.requests_completed
        }),
        ("ipg_requests_shed_total", "Requests shed with BUSY/GOAWAY.", |c| &c.requests_shed),
        ("ipg_requests_failed_total", "Requests answered with a typed error.", |c| {
            &c.requests_failed
        }),
        ("ipg_panics_recovered_total", "Worker panics converted to typed replies.", |c| {
            &c.panics_recovered
        }),
        ("ipg_reloads_ok_total", "Hot reloads that swapped a generation in.", |c| &c.reloads_ok),
        ("ipg_reloads_rejected_total", "Hot reloads refused (previous generation kept).", |c| {
            &c.reloads_rejected
        }),
        ("ipg_artifacts_quarantined_total", "Invalid artifacts quarantined by the watcher.", |c| {
            &c.artifacts_quarantined
        }),
    ];
    for (name, help, read) in counters {
        let s = Arc::clone(shared);
        reg.counter_fn(name, help, move || read(&s.counters).load(Ordering::Relaxed));
    }
    let s = Arc::clone(shared);
    reg.gauge_fn("ipg_live_sessions", "Sessions currently live across all workers.", move || {
        s.counters.live_sessions.load(Ordering::Relaxed)
    });
    // The scrape-time ledger: `submitted == completed + shed + failed +
    // in_flight` holds on every scrape by construction of this gauge.
    let s = Arc::clone(shared);
    reg.gauge_fn(
        "ipg_requests_in_flight",
        "Admitted requests not yet classified (the live reconciliation gap).",
        move || {
            let c = &s.counters;
            let terminal = c.requests_completed.load(Ordering::Relaxed)
                + c.requests_shed.load(Ordering::Relaxed)
                + c.requests_failed.load(Ordering::Relaxed);
            c.requests_submitted.load(Ordering::Relaxed).saturating_sub(terminal)
        },
    );
    let s = Arc::clone(shared);
    reg.histogram_fn(
        "ipg_request_latency_us",
        "Admission-to-reply latency, microseconds (shared log2 buckets).",
        move || (s.counters.latency.counts(), s.counters.latency.sum_us()),
    );
    let s = Arc::clone(shared);
    reg.gauge_vec_fn(
        "ipg_queue_depth",
        "Queued jobs (pinned + stealable) per worker.",
        "worker",
        move || {
            s.shards.iter().enumerate().map(|(w, sh)| (w.to_string(), sh.depth() as u64)).collect()
        },
    );
    if let Some(t) = &shared.trace {
        let tl = Arc::clone(t);
        reg.counter_fn(
            "ipg_trace_events_total",
            "Trace events accepted into the ring.",
            move || tl.emitted(),
        );
        let tl = Arc::clone(t);
        reg.counter_fn(
            "ipg_trace_dropped_total",
            "Trace events lost to ring overflow or contention.",
            move || tl.dropped(),
        );
    }
    Arc::new(reg)
}

impl Server {
    /// Starts the pool over the corpus registry.
    pub fn start(cfg: Config) -> Server {
        Server::with_registry(cfg, Registry::corpus())
    }

    /// Starts the pool over an explicit registry.
    pub fn with_registry(cfg: Config, registry: Registry) -> Server {
        install_quiet_worker_panics();
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            shards: (0..workers).map(|_| Shard::new()).collect(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            max_steps: cfg.max_steps,
            max_bytes: cfg.max_bytes,
            session_deadline: cfg.session_deadline,
            max_queue: cfg.max_queue.max(1),
            retry_after_ms: cfg.retry_after.as_millis().max(1) as u64,
            request_deadline: cfg.request_deadline,
            max_frame: cfg.max_frame,
            io_timeout: cfg.io_timeout,
            faults: cfg.faults,
            trace: cfg.trace,
        });
        let metrics = build_metrics(&shared);
        let handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ipg-serve-{w}"))
                    .spawn(move || pool::worker_loop(w, shared))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            registry,
            metrics,
            workers: Mutex::new(handles),
            watcher: Mutex::new(None),
            started: Instant::now(),
            rr: AtomicU64::new(0),
        }
    }

    /// Starts hot reloading: scans `dir` synchronously (every `.ipg` /
    /// `.ipgc` grammar it holds is loaded into the registry before this
    /// returns), then spawns a polling watcher thread that swaps changed
    /// grammars in atomically under live traffic. Invalid artifacts are
    /// quarantined (`*.bad`) and, when a sibling `.ipg` source exists,
    /// rebuilt from source — see [`watch`] for the full failure policy.
    /// The watcher seals itself on [`Server::drain`] / shutdown.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] when `dir` is unreadable or a watcher is
    /// already running.
    pub fn watch_dir(&self, dir: &Path, interval: Duration) -> Result<(), Error> {
        let mut slot = self.watcher.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_some() {
            return Err(Error::Grammar("a grammar watcher is already running".into()));
        }
        *slot = Some(watch::Watcher::spawn(
            self.registry.clone(),
            self.shared.clone(),
            dir.to_owned(),
            interval,
        )?);
        Ok(())
    }

    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.shared.shards.len()
    }

    /// The registry backing this server.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// `true` once [`Server::drain`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Parses `input` under the named grammar, blocking until a worker
    /// picks it up and finishes.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] for unknown grammar names; [`Error::Session`]
    /// when shed (BUSY), refused (GOAWAY), or past the request deadline;
    /// [`Error::WorkerPanic`] if the executing worker panicked; the
    /// parse's own error otherwise.
    pub fn parse(&self, grammar: &str, input: Vec<u8>) -> Result<ParseSummary, Error> {
        match self.parse_response(grammar, input) {
            Response::Done(s) => Ok(s),
            Response::Error(e) => Err(e),
            Response::Busy { retry_after_ms } => {
                Err(Error::Session(format!("server busy; retry after {retry_after_ms}ms")))
            }
            Response::GoAway => Err(Error::Session("server is draining (GOAWAY)".into())),
            _ => Err(Error::Session("protocol violation: unexpected response".into())),
        }
    }

    /// Parses `input` and returns the raw typed [`Response`] — what the
    /// wire front end forwards verbatim, so BUSY/GOAWAY stay typed frames
    /// instead of collapsing into error strings.
    pub fn parse_response(&self, grammar: &str, input: Vec<u8>) -> Response {
        let vm = match self.lookup(grammar) {
            Ok(vm) => vm,
            Err(e) => return Response::Error(e),
        };
        let (tx, rx) = channel();
        let job = Job::new(JobKind::Parse { vm, input }, tx);
        match self.admit_oneshot(job) {
            Ok(()) => self.await_reply(rx),
            Err(resp) => resp,
        }
    }

    /// Submits a parse without waiting: the returned receiver yields the
    /// single [`Response`] when a worker completes it — immediately
    /// [`Response::Busy`]/[`Response::GoAway`] if the job was shed at
    /// admission. This is the fan-in primitive the batch benchmark
    /// saturates the pool with.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] for unknown grammar names.
    pub fn parse_async(&self, grammar: &str, input: Vec<u8>) -> Result<Receiver<Response>, Error> {
        let vm = self.lookup(grammar)?;
        let (tx, rx) = channel();
        let job = Job::new(JobKind::Parse { vm, input }, tx);
        // On shed, admission already sent the BUSY/GOAWAY into the
        // channel, so the receiver contract (exactly one response) holds.
        let _ = self.admit_oneshot(job);
        Ok(rx)
    }

    /// Admission control for one-shot jobs: refused with GOAWAY while
    /// draining, shed with BUSY when the target shard's one-shot queue is
    /// at its bound. Counted into the request ledger either way.
    fn admit_oneshot(&self, job: Job) -> Result<(), Response> {
        let shared = &self.shared;
        Counters::add(&shared.counters.requests_submitted, 1);
        if shared.is_draining() {
            let resp = Response::GoAway;
            if let Some(t) = &shared.trace {
                t.admit(job.span, "parse", true);
            }
            shared.classify(&resp, job.accepted);
            if let Some(t) = &shared.trace {
                t.done(job.span, pool::outcome_name(&resp), job.accepted.elapsed());
            }
            let _ = job.reply.send(Response::GoAway);
            return Err(resp);
        }
        if let Some(t) = &shared.trace {
            t.admit(job.span, "parse", false);
        }
        let w = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % self.workers();
        match shared.shards[w].try_push_shared(job, shared.max_queue) {
            Ok(()) => Ok(()),
            Err(job) => {
                let resp = Response::Busy { retry_after_ms: shared.retry_after_ms };
                shared.classify(&resp, job.accepted);
                if let Some(t) = &shared.trace {
                    t.done(job.span, pool::outcome_name(&resp), job.accepted.elapsed());
                }
                let _ = job.reply.send(Response::Busy { retry_after_ms: shared.retry_after_ms });
                Err(resp)
            }
        }
    }

    /// Blocks on the reply with the per-request deadline. On expiry the
    /// caller gets a typed error; the job still runs to completion and is
    /// classified server-side by its worker.
    fn await_reply(&self, rx: Receiver<Response>) -> Response {
        match rx.recv_timeout(self.shared.request_deadline) {
            Ok(resp) => resp,
            Err(RecvTimeoutError::Timeout) => Response::Error(Error::Session(format!(
                "request deadline of {:?} exceeded (job still runs server-side)",
                self.shared.request_deadline
            ))),
            Err(RecvTimeoutError::Disconnected) => {
                Response::Error(Error::Session("worker dropped the request".into()))
            }
        }
    }

    /// Opens a streaming session on the named grammar. The session is
    /// pinned to one worker; the handle routes chunks to it.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] for unknown grammar names; [`Error::Session`]
    /// if the pool is draining or shutting down.
    pub fn open(&self, grammar: &str) -> Result<StreamHandle<'_>, Error> {
        match self.open_response(grammar) {
            Response::Opened { id } => Ok(StreamHandle { server: self, id }),
            Response::Error(e) => Err(e),
            Response::GoAway => Err(Error::Session("server is draining (GOAWAY)".into())),
            _ => Err(Error::Session("worker dropped the open request".into())),
        }
    }

    /// Opens a session and returns the raw typed [`Response`] (the wire
    /// front end's entry point).
    pub fn open_response(&self, grammar: &str) -> Response {
        let vm = match self.lookup(grammar) {
            Ok(vm) => vm,
            Err(e) => return Response::Error(e),
        };
        let shared = &self.shared;
        Counters::add(&shared.counters.requests_submitted, 1);
        if shared.is_draining() {
            let resp = Response::GoAway;
            if let Some(t) = &shared.trace {
                let span = trace::next_span();
                t.admit(span, "open", true);
                t.done(span, pool::outcome_name(&resp), Duration::ZERO);
            }
            shared.classify(&resp, Instant::now());
            return resp;
        }
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        let w = shared.owner_of(id);
        let (tx, rx) = channel();
        let job = Job::new(JobKind::Open { id, vm }, tx);
        if let Some(t) = &shared.trace {
            t.admit(job.span, "open", false);
        }
        shared.shards[w].push_pinned(job);
        self.await_reply(rx)
    }

    /// A point-in-time stats snapshot (parses/s, bytes/s, suspend counts,
    /// queue depths, shed/panic counters, latency percentiles).
    pub fn stats(&self) -> StatsSnapshot {
        let depths = self.shared.shards.iter().map(|s| s.depth()).collect();
        StatsSnapshot::collect(&self.shared.counters, self.started, depths)
    }

    /// The metrics registry backing this server's Prometheus exposition.
    pub fn metrics(&self) -> Arc<metrics::Registry> {
        Arc::clone(&self.metrics)
    }

    /// One Prometheus text-format scrape (what `--metrics-addr` and the
    /// `METRICS` protocol op both return).
    pub fn metrics_text(&self) -> String {
        self.metrics.gather()
    }

    /// Starts the Prometheus exposition endpoint: a minimal HTTP/1.0
    /// responder on `addr` answering every request with the current
    /// scrape. The thread exits when the server shuts down or drains.
    /// Returns the bound address (so `:0` requests report their port).
    ///
    /// # Errors
    ///
    /// The bind error when `addr` is unusable.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let metrics = Arc::clone(&self.metrics);
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new().name("ipg-serve-metrics".into()).spawn(move || {
            while !shared.shutdown.load(Ordering::Acquire) {
                let (mut stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                };
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                // Read the request head (we answer every path the same);
                // stop at the blank line, EOF, or the read timeout.
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            head.extend_from_slice(&buf[..n]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                                break;
                            }
                        }
                    }
                }
                let body = metrics.gather();
                let response = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
                     charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(response.as_bytes());
            }
        })?;
        Ok(local)
    }

    /// Stops the workers after the queues drain and joins them. Live
    /// streaming sessions are dropped (counted as evictions). For a
    /// graceful restart use [`Server::drain`] instead.
    pub fn shutdown(self) {
        self.stop_workers();
    }

    /// Graceful drain: stop admitting (new requests get GOAWAY), flush
    /// queued one-shot jobs, seal open sessions (their next request gets
    /// GOAWAY; remaining ones are sealed at worker exit), then join the
    /// workers. Safe to call from any thread holding the server; calling
    /// it twice is a no-op for the second caller.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.stop_workers();
        // Epilogue: anything that raced past admission after the workers
        // exited would otherwise never be answered — answer it GOAWAY so
        // no caller is left holding a dead reply channel.
        for shard in &self.shared.shards {
            for job in shard.drain_all() {
                pool::send_reply(
                    &self.shared,
                    &job.reply,
                    job.accepted,
                    job.span,
                    Response::GoAway,
                );
            }
        }
    }

    fn stop_workers(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Seal the watcher first: once the shutdown/draining flag is up
        // it exits within one poll interval, and joining it here means
        // no reload can race the queue epilogue that follows.
        if let Some(w) = self.watcher.lock().unwrap_or_else(PoisonError::into_inner).take() {
            w.seal();
        }
        for shard in &self.shared.shards {
            shard.notify();
        }
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Pins the current generation for `grammar`: in-flight work keeps
    /// the generation it was admitted with even if a reload swaps the
    /// registry entry mid-parse.
    fn lookup(&self, grammar: &str) -> Result<Arc<Compiled>, Error> {
        self.registry
            .pin(grammar)
            .ok_or_else(|| Error::Grammar(format!("unknown grammar `{grammar}`")))
    }

    pub(crate) fn session_request(&self, id: u64, kind: JobKind) -> Response {
        let shared = &self.shared;
        Counters::add(&shared.counters.requests_submitted, 1);
        let kind_name = if matches!(kind, JobKind::Finish { .. }) { "finish" } else { "feed" };
        if shared.is_draining() {
            let resp = Response::GoAway;
            if let Some(t) = &shared.trace {
                let span = trace::next_span();
                t.admit(span, kind_name, true);
                t.done(span, pool::outcome_name(&resp), Duration::ZERO);
            }
            shared.classify(&resp, Instant::now());
            return resp;
        }
        let w = shared.owner_of(id);
        let (tx, rx) = channel();
        let job = Job::new(kind, tx);
        if let Some(t) = &shared.trace {
            t.admit(job.span, kind_name, false);
        }
        shared.shards[w].push_pinned(job);
        self.await_reply(rx)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let pending = !self.workers.lock().unwrap_or_else(PoisonError::into_inner).is_empty();
        if pending {
            self.stop_workers();
        }
    }
}

/// In-process handle to a streaming session (the Unix-socket front end
/// speaks to the same sessions by id).
pub struct StreamHandle<'s> {
    server: &'s Server,
    id: u64,
}

impl StreamHandle<'_> {
    /// The session id (what the framed protocol carries).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Routes a chunk to the owning worker and waits for its answer.
    pub fn feed(&mut self, bytes: &[u8]) -> Response {
        self.server.session_request(self.id, JobKind::Feed { id: self.id, bytes: bytes.to_vec() })
    }

    /// Signals end-of-input and waits for the final verdict.
    pub fn finish(self) -> Response {
        self.server.session_request(self.id, JobKind::Finish { id: self.id })
    }
}
