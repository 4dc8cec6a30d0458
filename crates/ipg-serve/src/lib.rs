//! `ipg-serve` — a batch/streaming parse service over the IPG bytecode
//! VM, built for the "heavy parse traffic" end of the roadmap.
//!
//! Architecture (bottom up):
//!
//! * **Program registry** — the shared [`ipg_formats::Registry`] maps
//!   grammar names to refcounted [`Compiled`] *generations*.
//!   [`Registry::corpus`] pre-loads all nine corpus grammars, compiled
//!   from source in memory, and user-supplied `.ipg` sources
//!   ([`Registry::load_path`]) land in the same table.
//! * **Hot reload** — [`Server::watch_dir`] polls a grammar directory
//!   ([`watch`]) and atomically swaps changed grammars into the live
//!   registry; every admitted request pins the generation it resolved, so
//!   in-flight parses and sessions are never torn by a swap. A source
//!   that stops compiling is refused and the last good generation keeps
//!   serving; both outcomes are counted in the stats snapshot
//!   (`reloads_ok` / `reloads_rejected`).
//! * **Run to completion** — every request runs on the thread that
//!   received it: a wire request on its connection thread, an in-process
//!   one on the caller's thread. A streaming session belongs to whoever
//!   opened it — the connection, or the [`StreamHandle`] — so its
//!   suspended frame stack never crosses threads. There are no worker
//!   threads and no queues; what requests share is admission and panic
//!   isolation (`pool.rs`).
//! * **Isolation** — every parse carries a step budget, every session a
//!   byte budget and a rolling deadline; an input that stalls, balloons,
//!   or loops is killed with a clean error. Every request body runs
//!   under `catch_unwind`: a panicking parse (or an injected fault,
//!   [`fault`]) costs exactly that request — answered with a typed
//!   [`ipg_core::Error::WorkerPanic`] — never the thread serving it.
//! * **Admission control** — requests in flight are bounded; a one-shot
//!   parse over the bound is shed immediately with [`Response::Busy`] (a
//!   typed `BUSY { retry_after_ms }` on the wire), while session traffic
//!   degrades last.
//! * **Drain** — [`Server::drain`] (wired to SIGTERM/ctrl-c in
//!   `ipg serve`) stops admitting, lets requests already running finish,
//!   seals open sessions, and answers everything else `GOAWAY`, so a
//!   restart never tears a frame mid-connection.
//! * **Front ends** — an in-process API ([`Server::parse`],
//!   [`Server::open`]) and a length-framed Unix-socket protocol
//!   ([`proto`], [`Server::serve_unix`]).
//!
//! ```no_run
//! use ipg_serve::{Config, Server};
//!
//! let server = Server::start(Config::default());
//! let archive = ipg_corpus::zip::generate(&Default::default()).bytes;
//! let summary = server.parse("zip", &archive).expect("valid archive");
//! assert!(summary.nodes > 0);
//!
//! // Streaming: bytes arrive as they come off the wire.
//! let mut stream = server.open("dns").unwrap();
//! stream.feed(&[0x12, 0x34]);
//! let outcome = stream.finish();
//! # let _ = outcome;
//! ```

#![deny(unsafe_code)]

pub mod fault;
pub mod histo;
mod metrics;
mod pool;
pub mod proto;
mod session;
pub mod stats;
pub mod trace;
pub mod watch;

use fault::FaultPlan;
use ipg_core::interp::vm::Hint;
use ipg_core::Error;
use pool::Shared;
use session::Active;
use stats::{Counters, StatsSnapshot};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Service configuration. The defaults are production-lean: 50M-step
/// fuel (the repo's standard "pathological loop" bound), 64 MiB
/// per-session buffers, 30 s session deadlines, and at most 1024
/// requests in flight, with one-shot parses beyond that shed with BUSY.
#[derive(Clone, Debug)]
pub struct Config {
    /// No effect: requests run on the receiving thread. Removed once
    /// perfbench stops naming it.
    pub workers: usize,
    /// Step budget per parse/session.
    pub max_steps: u64,
    /// Byte budget per streaming session.
    pub max_bytes: usize,
    /// Rolling inactivity deadline after which a session is evicted.
    pub session_deadline: Duration,
    /// Bound on requests in flight; a one-shot parse that would pass it
    /// is shed with `BUSY { retry_after_ms }` instead of run.
    pub max_queue: usize,
    /// The retry hint carried in BUSY responses.
    pub retry_after: Duration,
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
    /// Suspensions taken (0 for one-shot parses).
    pub suspends: u64,
    /// Parse-tree records allocated.
    pub nodes: usize,
    /// Input bytes consumed.
    pub bytes: usize,
}

/// The answer to one request.
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
    /// Shed at admission: too many requests are in flight. The parse
    /// never ran; retry after the hinted delay.
    Busy {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The server is draining: no new work is admitted and the session
    /// this request addressed (if any) has been sealed.
    GoAway,
}

/// The running service: the grammar registry plus the state every
/// request shares. Dropping the server stops its watcher and metrics
/// endpoint; requests run on their callers' threads, so there is nothing
/// else to stop.
pub struct Server {
    shared: Arc<Shared>,
    registry: Registry,
    watcher: Mutex<Option<watch::Watcher>>,
}

impl Server {
    /// Starts a server over the corpus registry.
    pub fn start(cfg: Config) -> Server {
        Server::with_registry(cfg, Registry::corpus())
    }

    /// Starts a server over an explicit registry.
    pub fn with_registry(cfg: Config, registry: Registry) -> Server {
        pool::install_quiet_request_panics();
        Server { shared: Arc::new(Shared::new(cfg)), registry, watcher: Mutex::new(None) }
    }

    /// Starts hot reloading: scans `dir` synchronously (every `.ipg`
    /// source it holds that compiles is loaded into the registry before
    /// this returns), then spawns a polling watcher thread that swaps
    /// changed grammars in atomically under live traffic. A source that
    /// does not compile is counted in `reloads_rejected` and the last good
    /// generation keeps serving — see [`watch`] for the full failure
    /// policy. The watcher seals itself on [`Server::drain`] / shutdown.
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

    /// The registry backing this server.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// `true` once [`Server::drain`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Parses `input` under the named grammar on the calling thread.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] for unknown grammar names; [`Error::Session`]
    /// when shed (BUSY) or refused (GOAWAY); [`Error::WorkerPanic`] if
    /// the parse panicked; the parse's own error otherwise.
    pub fn parse(&self, grammar: &str, input: impl AsRef<[u8]>) -> Result<ParseSummary, Error> {
        match self.parse_response(grammar, input.as_ref()) {
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
    pub fn parse_response(&self, grammar: &str, input: &[u8]) -> Response {
        let vm = match self.lookup(grammar) {
            Ok(vm) => vm,
            Err(e) => return Response::Error(e),
        };
        let shared = &self.shared;
        shared.run("parse", true, || {
            let c = &shared.counters;
            Counters::add(&c.bytes_in, input.len() as u64);
            let (result, stats) = vm.vm().parse_bounded(input, shared.max_steps);
            Counters::add(&c.steps, stats.steps);
            match result {
                Ok(tree) => {
                    Counters::add(&c.parses_ok, 1);
                    Response::Done(ParseSummary {
                        steps: stats.steps,
                        suspends: 0,
                        nodes: tree.arena().len(),
                        bytes: input.len(),
                    })
                }
                Err(e) => {
                    Counters::add(&c.parses_err, 1);
                    Response::Error(e)
                }
            }
        })
    }

    /// Opens a streaming session on the named grammar. The handle owns
    /// the session; its requests run on the thread that makes them.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] for unknown grammar names; [`Error::Session`]
    /// if the server is draining; [`Error::WorkerPanic`] if opening
    /// panicked.
    pub fn open(&self, grammar: &str) -> Result<StreamHandle<'_>, Error> {
        match self.open_session(grammar) {
            (Response::Opened { id }, active) => Ok(StreamHandle { server: self, id, active }),
            (Response::Error(e), _) => Err(e),
            (Response::GoAway, _) => Err(Error::Session("server is draining (GOAWAY)".into())),
            _ => Err(Error::Session("protocol violation: unexpected response".into())),
        }
    }

    /// Opens a session: the typed reply, and the session the caller owns
    /// when the reply is `Opened`.
    pub(crate) fn open_session(&self, grammar: &str) -> (Response, Option<Active>) {
        match self.lookup(grammar) {
            Ok(vm) => self.shared.open(&vm),
            Err(e) => (Response::Error(e), None),
        }
    }

    /// A point-in-time stats snapshot: every counter (the ledger, parse,
    /// session, panic and reload counts) and the latency percentiles.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::collect(&self.shared.counters)
    }

    /// One Prometheus text-format scrape (what `--metrics-addr` and the
    /// `METRICS` protocol op both return).
    pub fn metrics_text(&self) -> String {
        metrics::gather(&self.shared)
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
                let body = metrics::gather(&shared);
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

    /// Stops the watcher and the metrics endpoint; the same as dropping
    /// the server. For a graceful restart use [`Server::drain`] first.
    pub fn shutdown(self) {}

    /// Graceful drain: stop admitting (new requests get GOAWAY), wait for
    /// the requests already running to finish, and seal open sessions
    /// (each is sealed at its next request, or when its idle connection
    /// is answered GOAWAY). Safe to call from any thread holding the
    /// server; calling it twice is a no-op for the second caller.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.stop_watcher();
        while self.shared.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Seals the watcher: once the shutdown or draining flag is up it
    /// exits within one poll interval, and joining it here means no
    /// reload can race what follows.
    fn stop_watcher(&self) {
        if let Some(w) = self.watcher.lock().unwrap_or_else(PoisonError::into_inner).take() {
            w.seal();
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
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.stop_watcher();
    }
}

/// In-process handle to a streaming session. The handle owns the session
/// outright: each call runs on the caller's thread, and a session left
/// idle past its deadline is evicted at the handle's next call.
pub struct StreamHandle<'s> {
    server: &'s Server,
    id: u64,
    active: Option<Active>,
}

impl StreamHandle<'_> {
    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Feeds a chunk to the session.
    pub fn feed(&mut self, bytes: &[u8]) -> Response {
        self.server.shared.session_request(self.id, &mut self.active, Some(bytes))
    }

    /// Signals end-of-input and returns the final verdict.
    pub fn finish(mut self) -> Response {
        self.server.shared.session_request(self.id, &mut self.active, None)
    }
}

impl Drop for StreamHandle<'_> {
    fn drop(&mut self) {
        self.server.shared.release(self.active.take());
    }
}
