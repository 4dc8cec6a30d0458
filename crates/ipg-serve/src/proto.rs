//! The length-framed wire protocol and the Unix-socket front end.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload (capped at the server's configured max frame,
//! [`MAX_FRAME`] by default). Requests start with an op byte, responses
//! with a status byte:
//!
//! | op | request payload | reply |
//! |---|---|---|
//! | `0x01 PARSE`  | `name_len:u8, name, input…`  | `DONE` / `ERROR` / `BUSY` / `GOAWAY` |
//! | `0x02 OPEN`   | `name_len:u8, name`          | `OPENED` / `ERROR` / `GOAWAY` |
//! | `0x03 FEED`   | `id:u64le, chunk…`           | `NEED_INPUT` / `ERROR` / `GOAWAY` |
//! | `0x04 FINISH` | `id:u64le`                   | `DONE` / `ERROR` / `GOAWAY` |
//! | `0x06 METRICS` | —                           | `METRICS` |
//!
//! | status | response payload |
//! |---|---|
//! | `0x00 DONE`       | `steps:u64le, suspends:u64le, nodes:u32le, bytes:u64le` |
//! | `0x01 NEED_INPUT` | `kind:u8 (0 = bytes, 1 = until_end), n:u64le` |
//! | `0x02 ERROR`      | UTF-8 message |
//! | `0x03 OPENED`     | `id:u64le` |
//! | `0x05 BUSY`       | `retry_after_ms:u64le` — shed at admission, retry later |
//! | `0x06 GOAWAY`     | — server draining; session (if any) sealed |
//! | `0x07 METRICS`    | UTF-8 Prometheus text ([`crate::Server::metrics_text`]) |
//!
//! Robustness contract: every malformed, truncated, oversized, or
//! out-of-order frame is answered with a *typed* `ERROR` frame — never a
//! panic, never a silent hangup. Oversized length prefixes are rejected
//! against the configured cap before any allocation; a connection that
//! stalls mid-frame past the io timeout (a slow-loris feed) gets a typed
//! error and a close; a draining server seals idle connections with an
//! unsolicited `GOAWAY` frame, so no client ever observes a torn frame.
//!
//! Frame I/O costs one syscall per frame where it can. A frame is built
//! with its length prefix reserved up front and leaves in one `write`;
//! both the server's connections and [`Client`] read through a small
//! per-connection buffer, so a frame that has wholly arrived is taken in
//! one `read`, and bytes of the next frame stay buffered for it.
//!
//! Each connection runs on its own thread, and every request it reads
//! runs to completion there: a PARSE is parsed straight out of the frame
//! payload, and the connection owns the sessions it opened. The
//! connection's idle wake-up (every [`POLL`]) evicts those sessions once
//! they pass their deadline and, when the server drains, seals them and
//! answers `GOAWAY`.

use crate::fault::splitmix64;
use crate::pool::Shared;
use crate::session::Active;
use crate::{Response, Server};
use ipg_core::interp::vm::Hint;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default hard cap on a frame payload (a hostile client cannot make the
/// server buffer more than this per message); tune per server with
/// [`crate::Config::max_frame`].
pub const MAX_FRAME: usize = 64 << 20;

/// How often a connection thread wakes from a blocked read to check the
/// drain flag, its sessions' deadlines and the slow-loris deadline.
const POLL: Duration = Duration::from_millis(25);

/// Request ops.
pub const OP_PARSE: u8 = 0x01;
/// Open a streaming session.
pub const OP_OPEN: u8 = 0x02;
/// Feed a chunk to a session.
pub const OP_FEED: u8 = 0x03;
/// Finish a session.
pub const OP_FINISH: u8 = 0x04;
/// Prometheus metrics scrape.
pub const OP_METRICS: u8 = 0x06;

/// Response statuses.
pub const ST_DONE: u8 = 0x00;
/// More input needed.
pub const ST_NEED_INPUT: u8 = 0x01;
/// Error (payload is the message).
pub const ST_ERROR: u8 = 0x02;
/// Session opened (payload is the id).
pub const ST_OPENED: u8 = 0x03;
/// Shed at admission (payload is `retry_after_ms:u64le`).
pub const ST_BUSY: u8 = 0x05;
/// Server draining; no new work, sessions sealed.
pub const ST_GOAWAY: u8 = 0x06;
/// Prometheus metrics text.
pub const ST_METRICS: u8 = 0x07;

/// Bytes in a frame's length prefix.
const PREFIX: usize = 4;

/// Capacity of a connection's receive buffer: one `read` takes a whole
/// 4 KiB `FEED` frame together with any small frames queued behind it.
const RECV_BUF: usize = 8 << 10;

/// Largest capacity a connection's or a client's frame buffers keep
/// between frames: a buffer an unusually large frame grew shrinks back to
/// this when it is next reused.
const KEEP_FRAME: usize = 64 << 10;

/// Readies `buf`, a buffer kept across frames, for its next frame: empty,
/// and no larger than [`KEEP_FRAME`].
fn reuse(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > KEEP_FRAME {
        buf.shrink_to(KEEP_FRAME);
    }
}

/// Starts an outgoing frame in `frame`: the length prefix is reserved up
/// front, the payload is appended after it, and [`send_frame`] fills the
/// prefix in, so the payload is copied once and the frame leaves in one
/// `write`.
fn start_frame(frame: &mut Vec<u8>) {
    reuse(frame);
    frame.extend_from_slice(&[0; PREFIX]);
}

/// Fills in the length prefix of a [`start_frame`] frame and writes the
/// whole frame with one `write_all`.
fn send_frame(w: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len() - PREFIX)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..PREFIX].copy_from_slice(&len.to_le_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// Writes one length-framed payload: prefix and payload go out in one
/// `write`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(PREFIX + payload.len());
    start_frame(&mut frame);
    frame.extend_from_slice(payload);
    send_frame(w, &mut frame)
}

/// Reads one length-framed payload; `Ok(None)` on clean EOF before the
/// length prefix. This is the blocking, unbuffered client-side reader (it
/// never reads past the frame, so it keeps no state between calls); the
/// server uses [`read_request`]'s polled, deadline-guarded variant and
/// [`Client`] a buffered one.
///
/// # Errors
///
/// Propagates the underlying I/O error; oversized frames are
/// `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    let got = RecvBuf::with_capacity(PREFIX).read_frame(r, &mut payload)?;
    Ok(got.then_some(payload))
}

/// A connection's receive buffer. One `read` takes as much as the socket
/// has ready (up to the capacity), so a frame that has wholly arrived
/// costs one syscall, and bytes that belong to the next frame wait here
/// for the next call. Payload bytes beyond the buffered ones are read
/// straight into the payload, never past the frame.
struct RecvBuf {
    buf: Box<[u8]>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    fn with_capacity(cap: usize) -> RecvBuf {
        debug_assert!(cap >= PREFIX);
        RecvBuf { buf: vec![0; cap].into_boxed_slice(), start: 0, end: 0 }
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// One `read` into the free space, after moving any buffered bytes to
    /// the front. Only called with less than a length prefix buffered, so
    /// there is always room and `Ok(0)` means EOF.
    fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Consumes the buffered length prefix.
    fn take_len(&mut self) -> usize {
        let len = &self.buf[self.start..self.start + PREFIX];
        self.start += PREFIX;
        u32::from_le_bytes(len.try_into().expect("prefix is 4 bytes")) as usize
    }

    /// Moves buffered bytes into the front of `payload`; returns how many.
    fn take(&mut self, payload: &mut [u8]) -> usize {
        let n = payload.len().min(self.buffered());
        payload[..n].copy_from_slice(&self.buf[self.start..self.start + n]);
        self.start += n;
        n
    }

    /// The blocking reader behind [`read_frame`] and [`Client`]: reads the
    /// next payload into `payload`; `Ok(false)` on clean EOF before the
    /// length prefix.
    fn read_frame(&mut self, r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
        while self.buffered() < PREFIX {
            match self.fill(r) {
                Ok(0) => return Ok(false),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let len = self.take_len();
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
        }
        reuse(payload);
        payload.resize(len, 0);
        let got = self.take(payload);
        r.read_exact(&mut payload[got..])?;
        Ok(true)
    }
}

fn bad_request(out: &mut Vec<u8>, msg: &str) {
    out.push(ST_ERROR);
    out.extend_from_slice(msg.as_bytes());
}

/// Appends the payload encoding `resp` to `out`.
fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Done(s) => {
            out.push(ST_DONE);
            out.extend_from_slice(&s.steps.to_le_bytes());
            out.extend_from_slice(&s.suspends.to_le_bytes());
            out.extend_from_slice(&(s.nodes as u32).to_le_bytes());
            out.extend_from_slice(&(s.bytes as u64).to_le_bytes());
        }
        Response::Opened { id } => {
            out.push(ST_OPENED);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::NeedInput { hint } => {
            let (kind, n) = match hint {
                Hint::Bytes(n) => (0u8, *n as u64),
                Hint::UntilEnd => (1u8, 0u64),
            };
            out.extend_from_slice(&[ST_NEED_INPUT, kind]);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Response::Error(e) => bad_request(out, &e.to_string()),
        Response::Busy { retry_after_ms } => {
            out.push(ST_BUSY);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::GoAway => out.push(ST_GOAWAY),
    }
}

/// Per-connection protocol state: the sessions this connection opened,
/// each `None` once it has ended (finished with an error, evicted, or
/// torn by a panic) until its FINISH. Session ids are global and
/// sequential, so owning them per connection is also the access check:
/// no client can `FEED`/`FINISH` (and thereby corrupt or kill) another
/// client's session by guessing ids. Sessions still open when the
/// connection goes away are sealed (draining) or evicted.
struct ConnState<'s> {
    shared: &'s Shared,
    sessions: HashMap<u64, Option<Active>>,
}

impl ConnState<'_> {
    /// Evicts every session past its deadline (the idle wake-up).
    fn evict_expired(&mut self) {
        let now = Instant::now();
        for slot in self.sessions.values_mut() {
            if slot.as_ref().is_some_and(|a| a.expired(now)) {
                self.shared.evict(slot.take());
            }
        }
    }
}

impl Drop for ConnState<'_> {
    fn drop(&mut self) {
        for (_, slot) in self.sessions.drain() {
            self.shared.release(slot);
        }
    }
}

/// Executes one request payload for one connection and appends the
/// response payload to `out` (the socket front end passes a frame with
/// its length prefix reserved). Every malformed request body maps to a
/// typed error frame.
fn handle_request(server: &Server, conn: &mut ConnState<'_>, payload: &[u8], out: &mut Vec<u8>) {
    let Some((&op, body)) = payload.split_first() else {
        return bad_request(out, "empty frame");
    };
    match op {
        OP_PARSE => {
            let Some((name, input)) = split_name(body) else {
                return bad_request(out, "malformed PARSE frame");
            };
            encode_response(&server.parse_response(name, input), out);
        }
        OP_OPEN => {
            let Some((name, rest)) = split_name(body) else {
                return bad_request(out, "malformed OPEN frame");
            };
            if !rest.is_empty() {
                return bad_request(out, "trailing bytes in OPEN frame");
            }
            let (resp, active) = server.open_session(name);
            if let Response::Opened { id } = resp {
                conn.sessions.insert(id, active);
            }
            encode_response(&resp, out);
        }
        OP_FEED => {
            let Some((id, chunk)) = split_id(body) else {
                return bad_request(out, "malformed FEED frame");
            };
            let Some(slot) = conn.sessions.get_mut(&id) else {
                return bad_request(out, &foreign_session(id));
            };
            encode_response(&conn.shared.session_request(id, slot, Some(chunk)), out);
        }
        OP_FINISH => {
            let Some((id, rest)) = split_id(body) else {
                return bad_request(out, "malformed FINISH frame");
            };
            if !rest.is_empty() {
                return bad_request(out, "trailing bytes in FINISH frame");
            }
            let Some(mut slot) = conn.sessions.remove(&id) else {
                return bad_request(out, &foreign_session(id));
            };
            encode_response(&conn.shared.session_request(id, &mut slot, None), out);
        }
        OP_METRICS => {
            out.push(ST_METRICS);
            out.extend_from_slice(server.metrics_text().as_bytes());
        }
        other => bad_request(out, &format!("unknown op 0x{other:02x}")),
    }
}

fn foreign_session(id: u64) -> String {
    format!("session {id} was not opened on this connection")
}

fn split_name(body: &[u8]) -> Option<(&str, &[u8])> {
    let (&n, rest) = body.split_first()?;
    if rest.len() < n as usize {
        return None;
    }
    let (name, rest) = rest.split_at(n as usize);
    Some((std::str::from_utf8(name).ok()?, rest))
}

fn split_id(body: &[u8]) -> Option<(u64, &[u8])> {
    if body.len() < 8 {
        return None;
    }
    let (id, rest) = body.split_at(8);
    Some((u64::from_le_bytes(id.try_into().ok()?), rest))
}

/// A running Unix-socket front end; dropping it stops the acceptor and
/// removes the socket file. In-flight connections finish at their next
/// EOF (or GOAWAY, if the server is draining).
pub struct UnixFront {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl UnixFront {
    /// Stops accepting new connections without tearing down live ones —
    /// the first step of a graceful drain (existing connections learn
    /// about the drain through GOAWAY frames).
    pub fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = &self.acceptor {
            h.thread().unpark();
        }
    }
}

impl Server {
    /// Serves the framed protocol on a Unix socket at `path`. The server
    /// handle must be shared (`Arc`) because connections are handled on
    /// their own threads.
    ///
    /// # Errors
    ///
    /// Propagates socket-binding failures.
    pub fn serve_unix(self: &Arc<Self>, path: impl AsRef<Path>) -> io::Result<UnixFront> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let server = self.clone();
        let acceptor =
            std::thread::Builder::new().name("ipg-serve-accept".into()).spawn(move || {
                while !accept_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let server = server.clone();
                            let _ = std::thread::Builder::new()
                                .name("ipg-serve-conn".into())
                                .spawn(move || serve_connection(&server, stream));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::park_timeout(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(UnixFront { path, stop, acceptor: Some(acceptor) })
    }
}

/// What one polled frame-read attempt produced.
enum Req {
    /// A complete frame; its payload is in the buffer passed in.
    Frame,
    /// Clean close (EOF before a length prefix, or torn by the client).
    Closed,
    /// The server began draining while the connection sat idle between
    /// frames — time to seal its sessions and answer GOAWAY.
    DrainIdle,
    /// The length prefix exceeds the configured cap (rejected before any
    /// allocation).
    Oversized(u64),
    /// The frame stalled past the io timeout (slow-loris guard).
    Stalled,
    /// Hard I/O failure; nothing sensible left to say.
    IoError,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads one frame with a short poll timeout so the connection thread
/// stays responsive while idle, and a whole-frame deadline so a client
/// dripping bytes (slow loris) cannot hold the thread hostage: once the
/// first byte of a frame arrives (or is found already buffered), the rest
/// must follow within `io_timeout` total. Each poll that finds the
/// connection idle between frames calls `idle`, which does the
/// connection's housekeeping and says whether the server is draining.
/// Reads go through the connection's `rx` buffer, which keeps any bytes
/// of the next frame, and the payload goes to `payload`, the buffer the
/// connection keeps for it.
fn read_request(
    stream: &mut impl Read,
    rx: &mut RecvBuf,
    payload: &mut Vec<u8>,
    cap: usize,
    io_timeout: Duration,
    mut idle: impl FnMut() -> bool,
) -> Req {
    let mut frame_start = (rx.buffered() > 0).then(Instant::now);
    while rx.buffered() < PREFIX {
        match rx.fill(stream) {
            Ok(0) => return Req::Closed,
            Ok(_) => {
                let start = *frame_start.get_or_insert_with(Instant::now);
                if rx.buffered() < PREFIX && start.elapsed() >= io_timeout {
                    return Req::Stalled;
                }
            }
            Err(e) if is_timeout(&e) => match frame_start {
                None if idle() => return Req::DrainIdle,
                None => {}
                Some(start) if start.elapsed() >= io_timeout => return Req::Stalled,
                Some(_) => {}
            },
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Req::IoError,
        }
    }
    let n = rx.take_len();
    if n > cap {
        return Req::Oversized(n as u64);
    }
    let start = frame_start.unwrap_or_else(Instant::now);
    reuse(payload);
    payload.resize(n, 0);
    let mut got = rx.take(payload);
    while got < n {
        if start.elapsed() >= io_timeout {
            return Req::Stalled;
        }
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Req::Closed,
            Ok(k) => got += k,
            Err(e) if is_timeout(&e) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Req::IoError,
        }
    }
    Req::Frame
}

/// Deterministically corrupts a reply payload in place (chaos harness:
/// exercises client-side frame validation). The length prefix is left
/// intact so framing — and therefore every *subsequent* exchange — stays
/// parseable; only this one payload is garbage.
fn corrupt_payload(payload: &mut [u8]) {
    if let Some(first) = payload.first_mut() {
        *first ^= 0xA5;
    }
    let mid = payload.len() / 2;
    if mid > 0 {
        payload[mid] ^= 0x5A;
    }
}

/// Serves one connection until it closes. Sessions it leaves open
/// (ownership is per-connection, so a reconnecting client cannot resume
/// them) are released when it does. Framing violations are answered with
/// typed error frames before the connection closes; a drain seals the
/// connection's sessions, then the connection, with GOAWAY.
fn serve_connection(server: &Server, mut stream: UnixStream) {
    let shared = &server.shared;
    if stream.set_read_timeout(Some(POLL)).is_err()
        || stream.set_write_timeout(Some(shared.io_timeout)).is_err()
    {
        return;
    }
    let mut conn = ConnState { shared, sessions: HashMap::new() };
    let mut rx = RecvBuf::with_capacity(RECV_BUF);
    // The request and reply buffers serve every frame of the connection.
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    loop {
        let (cap, io_timeout) = (shared.max_frame, shared.io_timeout);
        let req = read_request(&mut stream, &mut rx, &mut request, cap, io_timeout, || {
            conn.evict_expired();
            shared.is_draining()
        });
        start_frame(&mut reply);
        match req {
            Req::Frame => {
                handle_request(server, &mut conn, &request, &mut reply);
                if let Some(plan) = &shared.faults {
                    if plan.corrupt_next_reply() {
                        corrupt_payload(&mut reply[PREFIX..]);
                    }
                }
                if send_frame(&mut stream, &mut reply).is_err() {
                    return;
                }
            }
            Req::DrainIdle => {
                drop(conn);
                let _ = write_frame(&mut stream, &[ST_GOAWAY]);
                return;
            }
            Req::Oversized(n) => {
                let msg =
                    format!("frame length {n} exceeds the {}-byte max frame", shared.max_frame);
                bad_request(&mut reply, &msg);
                let _ = send_frame(&mut stream, &mut reply);
                return;
            }
            Req::Stalled => {
                let msg = format!(
                    "frame stalled past the {:?} io timeout (slow-loris guard)",
                    shared.io_timeout
                );
                bad_request(&mut reply, &msg);
                let _ = send_frame(&mut stream, &mut reply);
                return;
            }
            Req::Closed | Req::IoError => return,
        }
    }
}

impl Drop for UnixFront {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A decoded wire response (client side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wire {
    /// `ST_DONE`.
    Done {
        /// VM steps executed.
        steps: u64,
        /// Session suspensions.
        suspends: u64,
        /// Tree records allocated.
        nodes: u32,
        /// Input bytes consumed.
        bytes: u64,
    },
    /// `ST_OPENED`.
    Opened {
        /// Session id.
        id: u64,
    },
    /// `ST_NEED_INPUT`.
    NeedInput {
        /// 0 = a byte shortfall, 1 = until end-of-input.
        kind: u8,
        /// The shortfall for kind 0.
        n: u64,
    },
    /// `ST_ERROR`.
    Error(String),
    /// `ST_METRICS` (Prometheus text format).
    Metrics(String),
    /// `ST_BUSY` — shed at admission; retry after the hinted delay.
    Busy {
        /// Suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// `ST_GOAWAY` — the server is draining; tear down and reconnect
    /// elsewhere/later.
    GoAway,
}

/// Client-side retry discipline for `BUSY` sheds and connect failures:
/// bounded attempts, exponential backoff, deterministic jitter (seeded,
/// so a failing run reproduces) that spreads synchronized clients over
/// 50–100% of each backoff window.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt.
    pub attempts: u32,
    /// First backoff window.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter stream seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based), decorrelated by
    /// `salt` (e.g. a per-client id) so identical policies don't stampede
    /// in lockstep.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base_ms = (self.base.as_millis() as u64).max(1);
        let cap_ms = (self.cap.as_millis() as u64).max(1);
        let window = base_ms.saturating_mul(1u64 << attempt.min(16)).min(cap_ms);
        let jitter = splitmix64(self.seed ^ salt.rotate_left(17) ^ u64::from(attempt));
        Duration::from_millis(window - jitter % (window / 2 + 1))
    }
}

/// A blocking protocol client over a Unix stream (tests and the
/// benchmark's chunked-wire lane).
pub struct Client {
    stream: UnixStream,
    rx: RecvBuf,
    /// The request and reply buffers, reused by every round trip.
    tx: Vec<u8>,
    reply: Vec<u8>,
    retries: u64,
}

impl Client {
    /// Connects to a [`UnixFront`] socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        Ok(Client {
            stream,
            rx: RecvBuf::with_capacity(RECV_BUF),
            tx: Vec::new(),
            reply: Vec::new(),
            retries: 0,
        })
    }

    /// Connects with bounded, jittered retry — rides out a server that is
    /// still binding its socket or briefly restarting.
    ///
    /// # Errors
    ///
    /// The final connection failure once every attempt is exhausted.
    pub fn connect_with_retry(path: impl AsRef<Path>, policy: &RetryPolicy) -> io::Result<Client> {
        let path = path.as_ref();
        let mut attempt = 0u32;
        loop {
            match Client::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) if attempt < policy.attempts => {
                    std::thread::sleep(policy.backoff(attempt, 0));
                    attempt += 1;
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Bounds how long any reply read may block (useful against a server
    /// under chaos testing).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// BUSY retries performed by [`Client::parse_with_retry`] so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reads one server-initiated frame without sending a request — how a
    /// client observes the unsolicited `GOAWAY` a draining server sends
    /// to connections that sit idle between frames. `Ok(None)` on EOF.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for an undecodable frame.
    pub fn recv(&mut self) -> io::Result<Option<Wire>> {
        if !self.rx.read_frame(&mut self.stream, &mut self.reply)? {
            return Ok(None);
        }
        self.decode_reply().map(Some)
    }

    /// Sends one request frame, the concatenation of `parts` built in
    /// one buffer behind its length prefix, and reads the reply.
    fn round_trip(&mut self, parts: &[&[u8]]) -> io::Result<Wire> {
        start_frame(&mut self.tx);
        for part in parts {
            self.tx.extend_from_slice(part);
        }
        send_frame(&mut self.stream, &mut self.tx)?;
        if !self.rx.read_frame(&mut self.stream, &mut self.reply)? {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.decode_reply()
    }

    fn decode_reply(&self) -> io::Result<Wire> {
        decode_wire(&self.reply)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response"))
    }

    /// The wire encodes grammar names with a one-byte length; reject
    /// longer names here instead of letting `as u8` truncate them into a
    /// baffling server-side error.
    fn name_len(grammar: &str) -> io::Result<u8> {
        u8::try_from(grammar.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "grammar name exceeds 255 bytes")
        })
    }

    /// One-shot parse.
    ///
    /// # Errors
    ///
    /// I/O errors only; parse failures come back as [`Wire::Error`].
    pub fn parse(&mut self, grammar: &str, input: &[u8]) -> io::Result<Wire> {
        self.round_trip(&[&[OP_PARSE, Self::name_len(grammar)?], grammar.as_bytes(), input])
    }

    /// One-shot parse that rides out `BUSY` sheds with the policy's
    /// backoff; any other reply (including `GOAWAY`) is returned as-is.
    ///
    /// # Errors
    ///
    /// I/O errors only; parse failures come back as [`Wire::Error`].
    pub fn parse_with_retry(
        &mut self,
        grammar: &str,
        input: &[u8],
        policy: &RetryPolicy,
    ) -> io::Result<Wire> {
        let salt = splitmix64(self.retries ^ input.len() as u64);
        let mut attempt = 0u32;
        loop {
            match self.parse(grammar, input)? {
                Wire::Busy { retry_after_ms } if attempt < policy.attempts => {
                    let backoff = policy.backoff(attempt, salt);
                    std::thread::sleep(backoff.max(Duration::from_millis(retry_after_ms)));
                    self.retries += 1;
                    attempt += 1;
                }
                wire => return Ok(wire),
            }
        }
    }

    /// Opens a streaming session.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn open(&mut self, grammar: &str) -> io::Result<Wire> {
        self.round_trip(&[&[OP_OPEN, Self::name_len(grammar)?], grammar.as_bytes()])
    }

    /// Feeds a chunk to session `id`.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn feed(&mut self, id: u64, chunk: &[u8]) -> io::Result<Wire> {
        self.round_trip(&[&[OP_FEED], &id.to_le_bytes(), chunk])
    }

    /// Finishes session `id`.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn finish(&mut self, id: u64) -> io::Result<Wire> {
        self.round_trip(&[&[OP_FINISH], &id.to_le_bytes()])
    }

    /// Fetches a Prometheus metrics scrape over the framed protocol (the
    /// same text `--metrics-addr` serves over HTTP).
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn metrics(&mut self) -> io::Result<Wire> {
        self.round_trip(&[&[OP_METRICS]])
    }
}

/// Decodes a response payload into a [`Wire`]; `None` for frames that
/// are not well-formed responses (unknown status byte, wrong payload
/// size) — the detection edge the chaos harness's corrupt-reply
/// injection exercises.
pub fn decode_wire(payload: &[u8]) -> Option<Wire> {
    let (&st, body) = payload.split_first()?;
    Some(match st {
        ST_DONE => {
            if body.len() != 28 {
                return None;
            }
            Wire::Done {
                steps: u64::from_le_bytes(body[0..8].try_into().ok()?),
                suspends: u64::from_le_bytes(body[8..16].try_into().ok()?),
                nodes: u32::from_le_bytes(body[16..20].try_into().ok()?),
                bytes: u64::from_le_bytes(body[20..28].try_into().ok()?),
            }
        }
        ST_OPENED => Wire::Opened { id: u64::from_le_bytes(body.try_into().ok()?) },
        ST_NEED_INPUT => {
            if body.len() != 9 {
                return None;
            }
            Wire::NeedInput { kind: body[0], n: u64::from_le_bytes(body[1..9].try_into().ok()?) }
        }
        ST_ERROR => Wire::Error(String::from_utf8_lossy(body).into_owned()),
        ST_METRICS => Wire::Metrics(String::from_utf8_lossy(body).into_owned()),
        ST_BUSY => Wire::Busy { retry_after_ms: u64::from_le_bytes(body.try_into().ok()?) },
        ST_GOAWAY => {
            if !body.is_empty() {
                return None;
            }
            Wire::GoAway
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::io::Cursor;

    /// Counts `read` and `write` calls on the wrapped stream.
    struct Counting<T> {
        inner: T,
        calls: usize,
    }

    impl<T> Counting<T> {
        fn new(inner: T) -> Self {
            Counting { inner, calls: 0 }
        }
    }

    impl<T: Read> Read for Counting<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl<T: Write> Write for Counting<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    thread_local! {
        static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    /// Delegates to `System` and records, per thread, the largest
    /// allocation requested (so a test can show that an oversized length
    /// prefix never reaches the payload allocation) and the number of
    /// allocations, growing reallocations included.
    struct LargestAlloc;

    fn note_alloc(size: usize) {
        let _ = LARGEST_ALLOC.try_with(|l| l.set(l.get().max(size)));
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: delegates directly to `System`; the bookkeeping has no effect
    // on the returned memory.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note_alloc(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note_alloc(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if new_size > layout.size() {
                note_alloc(new_size);
            }
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOC: LargestAlloc = LargestAlloc;

    /// Runs `f` and returns its result with the largest allocation it made.
    fn largest_alloc_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST_ALLOC.with(|l| l.set(0));
        let out = f();
        (out, LARGEST_ALLOC.with(Cell::get))
    }

    /// Runs `f` and returns its result with the allocations it made.
    fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = ALLOCS.with(Cell::get);
        let out = f();
        (out, ALLOCS.with(Cell::get) - before)
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
            wire.extend_from_slice(p);
        }
        wire
    }

    fn encoded(resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        encode_response(resp, &mut out);
        out
    }

    /// One server-side frame read, with the payload it read.
    fn read_req(r: &mut impl Read, rx: &mut RecvBuf, cap: usize) -> (Req, Vec<u8>) {
        let mut payload = Vec::new();
        let req = read_request(r, rx, &mut payload, cap, Duration::from_secs(5), || false);
        (req, payload)
    }

    #[test]
    fn write_frame_is_one_write_call() {
        for payload in [&b""[..], b"\x05", &[7u8; 5000]] {
            let mut w = Counting::new(Vec::new());
            write_frame(&mut w, payload).expect("write");
            assert_eq!(w.calls, 1, "{} payload bytes", payload.len());
            assert_eq!(w.inner, framed(&[payload]), "wire format unchanged");
        }
    }

    #[test]
    fn a_wholly_arrived_frame_costs_one_read() {
        // Server side: the second frame arrived with the first, so it is
        // served from the buffer without another read.
        let mut r = Counting::new(Cursor::new(framed(&[b"\x05", &[9u8; 4096]])));
        let mut rx = RecvBuf::with_capacity(RECV_BUF);
        assert!(matches!(read_req(&mut r, &mut rx, MAX_FRAME), (Req::Frame, p) if p == b"\x05"));
        assert_eq!(r.calls, 1);
        assert!(
            matches!(read_req(&mut r, &mut rx, MAX_FRAME), (Req::Frame, p) if p == [9u8; 4096])
        );
        assert_eq!(r.calls, 1, "the buffered next frame costs no read");
        assert!(matches!(read_req(&mut r, &mut rx, MAX_FRAME), (Req::Closed, _)));

        // Client side, the same through the blocking reader.
        let mut r = Counting::new(Cursor::new(framed(&[b"ab", b"cde"])));
        let mut rx = RecvBuf::with_capacity(RECV_BUF);
        let mut p = Vec::new();
        assert!(rx.read_frame(&mut r, &mut p).expect("io"));
        assert_eq!((&p[..], r.calls), (&b"ab"[..], 1));
        assert!(rx.read_frame(&mut r, &mut p).expect("io"));
        assert_eq!((&p[..], r.calls), (&b"cde"[..], 1));
        assert!(!rx.read_frame(&mut r, &mut p).expect("io"), "clean EOF");
    }

    #[test]
    fn frames_larger_than_the_buffer_and_torn_reads_reassemble() {
        let big = vec![3u8; 3 * RECV_BUF + 5];
        let wire = framed(&[&big, b"tail"]);
        // A reader that hands out at most 7 bytes per call.
        struct Dribble(Cursor<Vec<u8>>);
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(7);
                self.0.read(&mut buf[..n])
            }
        }
        let readers: [Box<dyn Read>; 2] =
            [Box::new(Cursor::new(wire.clone())), Box::new(Dribble(Cursor::new(wire)))];
        for mut r in readers {
            let mut rx = RecvBuf::with_capacity(RECV_BUF);
            assert!(matches!(read_req(&mut r, &mut rx, MAX_FRAME), (Req::Frame, p) if p == big));
            assert!(
                matches!(read_req(&mut r, &mut rx, MAX_FRAME), (Req::Frame, p) if p == b"tail")
            );
            assert!(matches!(read_req(&mut r, &mut rx, MAX_FRAME), (Req::Closed, _)));
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_the_payload_is_allocated() {
        // Only the prefix arrives: a reader that allocated and waited for
        // the payload would fail differently, and the allocation shows.
        let cap = 1 << 20;
        let prefix = (cap as u32 + 1).to_le_bytes();
        let mut rx = RecvBuf::with_capacity(RECV_BUF);
        let (req, largest) = largest_alloc_in(|| read_req(&mut Cursor::new(prefix), &mut rx, cap));
        assert!(matches!(req, (Req::Oversized(n), _) if n == cap as u64 + 1));
        assert!(largest < cap, "allocated {largest} bytes for a rejected frame");

        let prefix = u32::MAX.to_le_bytes();
        let (res, largest) = largest_alloc_in(|| read_frame(&mut Cursor::new(prefix)));
        assert_eq!(res.expect_err("oversized").kind(), io::ErrorKind::InvalidData);
        assert!(largest < MAX_FRAME, "allocated {largest} bytes for a rejected frame");
    }

    #[test]
    fn equal_size_frames_reuse_one_buffer() {
        // Server side: the connection's request and reply buffers.
        let big = vec![7u8; 4 * KEEP_FRAME];
        let mut r = Cursor::new(framed(&[&[1u8; 100], &[2u8; 100], &big, &[3u8; 100]]));
        let mut rx = RecvBuf::with_capacity(RECV_BUF);
        let (mut request, mut reply) = (Vec::new(), Vec::new());
        let mut serve = |request: &mut Vec<u8>, reply: &mut Vec<u8>| {
            let req =
                read_request(&mut r, &mut rx, request, MAX_FRAME, Duration::from_secs(5), || false);
            assert!(matches!(req, Req::Frame));
            start_frame(reply);
            encode_response(&Response::NeedInput { hint: Hint::Bytes(request.len()) }, reply);
        };
        serve(&mut request, &mut reply);
        let ((), allocs) = allocs_in(|| serve(&mut request, &mut reply));
        assert_eq!((request.as_slice(), allocs), (&[2u8; 100][..], 0), "second frame");
        // An unusually large frame grows the request buffer; the next
        // frame gives the growth back.
        serve(&mut request, &mut reply);
        assert_eq!(request, big);
        serve(&mut request, &mut reply);
        assert_eq!(request, [3u8; 100]);
        assert!(request.capacity() <= KEEP_FRAME, "kept {} bytes", request.capacity());

        // Client side: the request frame and the reply payload.
        let (client_end, mut server_end) = UnixStream::pair().expect("socket pair");
        let server = std::thread::spawn(move || {
            let mut rx = RecvBuf::with_capacity(RECV_BUF);
            let mut payload = Vec::new();
            while rx.read_frame(&mut server_end, &mut payload).expect("io") {
                write_frame(&mut server_end, &[ST_GOAWAY]).expect("io");
            }
        });
        let mut client = Client {
            stream: client_end,
            rx: RecvBuf::with_capacity(RECV_BUF),
            tx: Vec::new(),
            reply: Vec::new(),
            retries: 0,
        };
        assert_eq!(client.parse("dns", &[0; 100]).expect("io"), Wire::GoAway);
        let (wire, allocs) = allocs_in(|| client.parse("dns", &[1; 100]).expect("io"));
        assert_eq!((wire, allocs), (Wire::GoAway, 0), "second round trip");
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::default();
        let d0 = p.backoff(0, 1);
        let d5 = p.backoff(5, 1);
        assert!(d0 <= Duration::from_millis(5));
        assert!(d5 <= p.cap, "backoff must respect the cap");
        assert!(d5 >= d0, "later attempts back off at least as long");
        assert_eq!(p.backoff(3, 7), p.backoff(3, 7), "same seed+salt reproduce");
        // Jitter stays inside the 50–100% band of the window.
        for attempt in 0..8 {
            let window = (p.base.as_millis() as u64) << attempt.min(16);
            let window = window.min(p.cap.as_millis() as u64);
            let d = p.backoff(attempt, 99).as_millis() as u64;
            assert!(d >= window - window / 2 && d <= window, "attempt {attempt}: {d} vs {window}");
        }
    }

    #[test]
    fn busy_and_goaway_round_trip_the_wire_codec() {
        let busy = encoded(&Response::Busy { retry_after_ms: 40 });
        assert_eq!(decode_wire(&busy), Some(Wire::Busy { retry_after_ms: 40 }));
        let goaway = encoded(&Response::GoAway);
        assert_eq!(decode_wire(&goaway), Some(Wire::GoAway));
        assert_eq!(decode_wire(&[ST_GOAWAY, 0xff]), None, "GOAWAY carries no payload");
    }

    #[test]
    fn corrupt_payload_keeps_length_but_breaks_decode() {
        let mut frame = encoded(&Response::GoAway);
        let before = frame.len();
        corrupt_payload(&mut frame);
        assert_eq!(frame.len(), before, "framing must stay intact");
        assert_eq!(decode_wire(&frame), None, "corruption must be detectable");
    }
}
