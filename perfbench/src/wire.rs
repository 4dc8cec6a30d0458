//! `wire`: one `Client` connection over a Unix socket to an in-process
//! `Server` with one worker. Each cycle sends one-shot PARSE requests for
//! small dns/ipv4udp packets, then one streamed session (OPEN, 4 KiB
//! FEEDs, FINISH) carrying a non-DEFLATE file. `proto`, `pool` and
//! `session` dominate; the VM takes a few µs per request.

use crate::inputs::{self, Format, FUEL};
use crate::measure::{ns_since, Run, Tracer};
use crate::{
    baselines, closed_loop, load_corpus, measure_segments, overhead_pct, registry_layers, Args,
    Budget, Layer, Report, VmCounts,
};
use ipg_core::interp::vm::Outcome;
use ipg_formats::corpus_entry;
use ipg_serve::proto::{Client, UnixFront, Wire};
use ipg_serve::{Config, Response, Server};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct packets per packet format.
const PACKETS_PER_FORMAT: usize = 32;
/// One-shot PARSE requests per cycle.
const PARSES_PER_CYCLE: usize = 32;
/// Cycles per pass; each streams its own seeded file.
const CYCLES: usize = 4;
/// FEED chunk size.
const CHUNK: usize = 4096;
/// The session format. GIF is anchored on end-of-input, so FEEDs only
/// buffer and FINISH runs the whole parse: FINISH is the slowest request,
/// 4 of 156 per pass, and holds the p99 inside one cluster of requests
/// rather than in the scheduling tail of the packet parses.
const SESSION_FORMAT: Format = Format::Gif;

/// One request of the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    Parse(usize),
    Open(usize),
    Feed(usize, usize),
    Finish(usize),
}

/// A request's input and the byte count the frozen interpreter consumes
/// from it — what the DONE reply must report.
pub struct Case {
    pub format: Format,
    pub bytes: Vec<u8>,
    pub expect: usize,
}

impl Case {
    fn new(format: Format, bytes: Vec<u8>) -> Case {
        let verdict = inputs::interpreter_verdict(format, &bytes);
        let Some(Ok(expect)) = verdict else {
            panic!("generated {} input rejected: {verdict:?}", format.name())
        };
        Case { format, bytes, expect }
    }
}

pub struct Inputs {
    pub packets: Vec<Case>,
    pub sessions: Vec<Case>,
    /// One pass: every cycle's requests in order.
    pub reqs: Vec<Req>,
}

impl Inputs {
    fn chunk(&self, s: usize, k: usize) -> &[u8] {
        let b = &self.sessions[s].bytes;
        &b[k * CHUNK..((k + 1) * CHUNK).min(b.len())]
    }

    fn input_bytes(&self, r: &Req) -> u64 {
        match *r {
            Req::Parse(i) => self.packets[i].bytes.len() as u64,
            Req::Feed(s, k) => self.chunk(s, k).len() as u64,
            Req::Open(_) | Req::Finish(_) => 0,
        }
    }

    /// Frames and bytes on the socket for one pass: a request frame and a
    /// reply frame per request, each with its 4-byte length prefix.
    pub fn frames(&self) -> (u64, u64) {
        let name = |f: Format| f.name().len() as u64;
        let bytes: u64 = self
            .reqs
            .iter()
            .map(|r| match *r {
                Req::Parse(i) => {
                    4 + 2
                        + name(self.packets[i].format)
                        + self.packets[i].bytes.len() as u64
                        + 4
                        + 29
                }
                Req::Open(_) => 4 + 2 + name(SESSION_FORMAT) + 4 + 9,
                Req::Feed(s, k) => 4 + 9 + self.chunk(s, k).len() as u64 + 4 + 10,
                Req::Finish(_) => 4 + 9 + 4 + 29,
            })
            .sum();
        (2 * self.reqs.len() as u64, bytes)
    }
}

pub fn build(seed: u64) -> Inputs {
    let mut packets = Vec::new();
    for (fi, &format) in Format::PACKETS.iter().enumerate() {
        for k in 0..PACKETS_PER_FORMAT {
            let g = inputs::generate(format, inputs::mix(seed, 0x3a7e + fi as u64, k as u64));
            packets.push(Case::new(format, g.bytes));
        }
    }
    let sessions: Vec<Case> = (0..CYCLES)
        .map(|c| {
            Case::new(
                SESSION_FORMAT,
                inputs::generate(SESSION_FORMAT, inputs::mix(seed, 0x5e55, c as u64)).bytes,
            )
        })
        .collect();
    let mut order: Vec<usize> = Vec::new();
    while order.len() < CYCLES * PARSES_PER_CYCLE {
        let mut round: Vec<usize> = (0..packets.len()).collect();
        inputs::shuffle(&mut round, inputs::mix(seed, 0x0de4, order.len() as u64));
        order.extend(round);
    }
    let mut reqs = Vec::new();
    for (c, parses) in order.chunks(PARSES_PER_CYCLE).take(CYCLES).enumerate() {
        reqs.extend(parses.iter().map(|&i| Req::Parse(i)));
        reqs.push(Req::Open(c));
        reqs.extend((0..sessions[c].bytes.len().div_ceil(CHUNK)).map(|k| Req::Feed(c, k)));
        reqs.push(Req::Finish(c));
    }
    Inputs { packets, sessions, reqs }
}

/// Checks a reply against the request's reference; records the session
/// id an OPEN returns.
fn check(inp: &Inputs, sid: &Cell<u64>, r: &Req, reply: std::io::Result<Wire>) -> bool {
    match (*r, reply) {
        (Req::Parse(i), Ok(Wire::Done { bytes, .. })) => bytes == inp.packets[i].expect as u64,
        (Req::Open(_), Ok(Wire::Opened { id })) => {
            sid.set(id);
            true
        }
        (Req::Feed(..), Ok(Wire::NeedInput { .. })) => true,
        (Req::Finish(s), Ok(Wire::Done { bytes, .. })) => bytes == inp.sessions[s].expect as u64,
        _ => false,
    }
}

fn send(client: &mut Client, inp: &Inputs, sid: &Cell<u64>, r: &Req) -> std::io::Result<Wire> {
    match *r {
        Req::Parse(i) => client.parse(inp.packets[i].format.name(), &inp.packets[i].bytes),
        Req::Open(_) => client.open(SESSION_FORMAT.name()),
        Req::Feed(s, k) => client.feed(sid.get(), inp.chunk(s, k)),
        Req::Finish(_) => client.finish(sid.get()),
    }
}

/// A started server, its socket front end and one connected client.
struct Stack {
    server: Arc<Server>,
    front: UnixFront,
    client: Client,
}

impl Stack {
    fn start(sock: &Path) -> Stack {
        let server = Arc::new(Server::with_registry(
            Config { workers: 1, ..Config::default() },
            load_corpus(),
        ));
        let front = server.serve_unix(sock).expect("bind the benchmark socket");
        let client = Client::connect(sock).expect("connect to the benchmark socket");
        Stack { server, front, client }
    }

    fn stop(self) {
        let Stack { server, front, client } = self;
        drop(client);
        drop(front);
        server.drain();
    }
}

pub fn run(args: &Args, budget: &Budget) -> Report {
    let inp = build(args.seed);
    drop(load_corpus()); // fills the artifact cache on a first run
    let Stack { server, front, mut client } = Stack::start(&args.work.join("wire.sock"));
    let sid = Cell::new(0);
    let bytes_of = |r: &Req| inp.input_bytes(r);
    let mut main = |run: &mut Run, dur, tracer: Option<&mut Tracer>| {
        closed_loop(
            run,
            &inp.reqs,
            dur,
            bytes_of,
            |r| send(&mut client, &inp, &sid, r),
            |r, w| check(&inp, &sid, r, w),
            tracer,
        )
    };
    main(&mut Run::default(), Duration::ZERO, None);
    let groups = baselines::by_format(inp.packets.iter().map(|p| (p.format, p.bytes.as_slice())));
    // Set-ups start a second stack on its own socket while the measured
    // one stays connected.
    let spare = args.work.join("wire-setup.sock");
    let (run, gap, setups) = measure_segments(
        budget,
        |run, d| main(run, d, None),
        |gap, d| {
            gap.measure(&groups, baselines::Combine::Total, d, |f, b| {
                std::hint::black_box(corpus_entry(f.name()).vm().parse(b).is_ok());
            })
        },
        || {
            let t = Instant::now();
            let stack = Stack::start(&spare);
            let secs = ns_since(t) as f64 / 1e9;
            stack.stop();
            secs
        },
    );
    let cpu = args.cpu.get().expect("pinned before the workload runs");
    let threads = crate::check_threads_pinned(cpu).unwrap_or_else(|e| panic!("{e}"));
    let mut tracer = Tracer::new(1 << 18);
    let mut traced = Run::default();
    if args.trace {
        main(&mut traced, budget.traced, Some(&mut tracer));
    }

    let per_cycle = inp.reqs.len() / CYCLES;
    let mut notes = vec![
        format!(
            "inputs: {} requests per pass in {CYCLES} cycles of {PARSES_PER_CYCLE} PARSE + 1 {} session of {} requests ({:.3} session share); {} packets of {} bytes on average; 1 connection, workers 1",
            inp.reqs.len(),
            SESSION_FORMAT.name(),
            per_cycle - PARSES_PER_CYCLE,
            (per_cycle - PARSES_PER_CYCLE) as f64 / per_cycle as f64,
            inp.packets.len(),
            inp.packets.iter().map(|p| p.bytes.len()).sum::<usize>() / inp.packets.len(),
        ),
        format!("mean request latency {} us; {threads} threads pinned to cpu {cpu} while serving", run.mean_us()),
        format!("baseline_gap_x: in-process VM parse of the packets vs the Nail-style baselines, {} rounds", gap.rounds()),
    ];
    let mut layers = Vec::new();
    if args.trace {
        layers.push(("trace.overhead_pct", overhead_pct(&traced)));
        layers.extend(registry_layers(&mut tracer));
        let (replayed, plain_us, selfs) =
            replay(&inp, &server, &mut client, &mut tracer, budget.replay);
        let sum: f64 = selfs.iter().filter(|l| l.0.ends_with("_us")).map(|l| l.1).sum();
        layers.extend(selfs);
        notes.push(format!(
            "replayed {replayed} requests; proto + pool + session + vm self times sum to {sum} us per request, {} of the mean request latency of plain passes interleaved with the replay",
            sum / plain_us
        ));
        let (frames, bytes) = inp.frames();
        layers.push(("proto.frames", frames as f64));
        layers.push(("proto.bytes", bytes as f64));
        layers.extend(counts(&inp));
        let stats = server.stats();
        layers.push(("pool.shed", stats.shed as f64));
        layers.push(("pool.failed", stats.failed as f64));
        layers.push(("baseline.busy_us", gap.baseline_us()));
        let path = args.work.join(format!("trace-wire-{}.tsv", args.seed));
        tracer.write(&path).expect("write spans");
        notes.push(format!("spans written to {}", path.display()));
    }
    Stack::stop(Stack { server, front, client });
    Report { run, setups, gap, layers, notes }
}

/// Exact per-pass counts: VM stats of every parse (one-shot equivalent
/// for sessions) and the suspensions of chunked sessions.
fn counts(inp: &Inputs) -> Vec<Layer> {
    let (vm, suspends) = vm_counts(inp);
    let mut out: Vec<_> = vm.layers(0.0).into_iter().filter(|l| l.0 != "vm.ns_per_step").collect();
    out.push(("session.suspends", suspends as f64));
    out
}

fn vm_counts(inp: &Inputs) -> (VmCounts, u64) {
    let mut vm = VmCounts::default();
    let mut suspends = 0;
    for r in &inp.reqs {
        let (format, bytes) = match *r {
            Req::Parse(i) => (inp.packets[i].format, &inp.packets[i].bytes),
            Req::Finish(s) => (SESSION_FORMAT, &inp.sessions[s].bytes),
            Req::Open(_) | Req::Feed(..) => continue,
        };
        let (tree, stats) = corpus_entry(format.name()).vm().parse_with_stats(bytes);
        vm.add(&stats, tree.map_or(0, |t| t.arena().len()));
        if let Req::Finish(s) = *r {
            suspends += stream(inp, s).1;
        }
    }
    (vm, suspends)
}

/// Streams session file `s` through an in-process VM session in the
/// wire's chunks: whether it parsed, and the suspensions taken.
fn stream(inp: &Inputs, s: usize) -> (bool, u64) {
    let vm = corpus_entry(SESSION_FORMAT.name()).vm();
    let mut session = vm.streaming().max_steps(FUEL);
    for k in 0..inp.sessions[s].bytes.len().div_ceil(CHUNK) {
        session.feed(inp.chunk(s, k));
    }
    let done = matches!(session.finish(), Outcome::Done(_));
    (done, session.suspends())
}

/// Replays each request (a whole session counts as its requests) through
/// the nested public entry points: `Client` over the socket (proto),
/// `Server` in-process (pool), a VM `Session` in the same chunks (session)
/// and a one-shot VM parse (vm). Plain closed-loop passes alternate with
/// the replayed ones. Returns the replayed request count, the mean request
/// latency of the plain passes, µs, and each layer's mean self time per
/// request.
fn replay(
    inp: &Inputs,
    server: &Server,
    client: &mut Client,
    tracer: &mut Tracer,
    dur: Duration,
) -> (u64, f64, Vec<Layer>) {
    let deadline = Instant::now() + dur;
    let sid = Cell::new(0);
    let mut requests = 0u64;
    let mut op = 0u64;
    let (mut plain_ns, mut plain) = (0u64, 0u64);
    while requests == 0 || (Instant::now() < deadline && !tracer.is_full()) {
        for r in &inp.reqs {
            let t = Instant::now();
            check(inp, &sid, r, send(client, inp, &sid, r));
            plain_ns += ns_since(t);
        }
        plain += inp.reqs.len() as u64;
        for r in &inp.reqs {
            match *r {
                Req::Parse(i) => {
                    let (format, bytes) = (inp.packets[i].format, &inp.packets[i].bytes);
                    let (_, px) =
                        tracer.span("proto", op, None, || send(client, inp, &sid, r).is_ok());
                    let (_, pl) = tracer.span("pool", op, Some(px), || {
                        server.parse(format.name(), bytes.clone()).is_ok()
                    });
                    tracer.span("vm", op, Some(pl), || {
                        corpus_entry(format.name()).vm().parse(bytes).is_ok()
                    });
                    requests += 1;
                }
                Req::Open(s) => {
                    let feeds = inp.sessions[s].bytes.len().div_ceil(CHUNK);
                    let name = SESSION_FORMAT.name();
                    let (_, px) = tracer.span("proto", op, None, || {
                        let Ok(Wire::Opened { id }) = client.open(name) else { return false };
                        (0..feeds).all(|k| client.feed(id, inp.chunk(s, k)).is_ok())
                            && matches!(client.finish(id), Ok(Wire::Done { .. }))
                    });
                    let (_, pl) = tracer.span("pool", op, Some(px), || {
                        let Ok(mut h) = server.open(name) else { return false };
                        for k in 0..feeds {
                            h.feed(inp.chunk(s, k));
                        }
                        matches!(h.finish(), Response::Done(_))
                    });
                    let (_, ss) = tracer.span("session", op, Some(pl), || stream(inp, s).0);
                    tracer.span("vm", op, Some(ss), || {
                        corpus_entry(name).vm().parse(&inp.sessions[s].bytes).is_ok()
                    });
                    requests += feeds as u64 + 2;
                }
                Req::Feed(..) | Req::Finish(_) => continue,
            }
            op += 1;
        }
    }
    let st = tracer.self_times();
    let per_req =
        |layer: &str| st.get(layer).map_or(0.0, |&(ns, _)| ns as f64 / requests as f64 / 1e3);
    let vm_us = per_req("vm");
    let passes = requests as f64 / inp.reqs.len() as f64;
    let steps = vm_counts(inp).0.steps.max(1) as f64;
    (
        requests,
        plain_ns as f64 / plain as f64 / 1e3,
        vec![
            ("proto.self_us", per_req("proto")),
            ("pool.self_us", per_req("pool")),
            ("session.self_us", per_req("session")),
            ("vm.busy_us", vm_us),
            ("vm.ns_per_step", vm_us * 1e3 * requests as f64 / passes / steps),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.sock", std::process::id()))
    }

    #[test]
    fn replies_match_and_a_planted_wrong_reference_fails() {
        crate::init_test_cache();
        let mut inp = build(4);
        let Stack { server, front, mut client } = Stack::start(&sock("check"));
        let sid = Cell::new(0);
        let mut pass = |inp: &Inputs| {
            let mut run = Run::default();
            closed_loop(
                &mut run,
                &inp.reqs,
                Duration::ZERO,
                |r| inp.input_bytes(r),
                |r| send(&mut client, inp, &sid, r),
                |r, w| check(inp, &sid, r, w),
                None,
            );
            run
        };
        let run = pass(&inp);
        assert_eq!((run.failed, run.attempted), (0, inp.reqs.len() as u64));
        inp.sessions[0].expect += 1;
        let run = pass(&inp);
        assert!(run.failed >= 1, "a wrong reference must raise error_rate");
        Stack::stop(Stack { server, front, client });
    }

    #[test]
    fn counts_repeat_exactly_and_seeds_draw_different_traffic() {
        crate::init_test_cache();
        let (a, b) = (build(2), build(2));
        assert_eq!(vm_counts(&a), vm_counts(&b));
        assert_eq!(a.frames(), b.frames());
        assert!(vm_counts(&a).1 > 0, "sessions must suspend");
        let c = build(3);
        assert_ne!(a.reqs, c.reqs);
    }
}
