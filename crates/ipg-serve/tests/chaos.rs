//! The chaos-injection soak: a deterministic fault schedule — request
//! panics, stalls, and corrupt reply frames ([`ipg_serve::fault`]) —
//! driven under mixed traffic (in-process bursts of valid and mutated
//! inputs from concurrent threads, wire clients with retry, streaming
//! sessions, a slow-but-legal dribbling client). The acceptance bar:
//!
//! * ≥ 100 faults injected over the run,
//! * zero crashes and zero lost replies (every request gets exactly one
//!   typed answer: success, error, or BUSY),
//! * the admission ledger reconciles exactly:
//!   `submitted = completed + shed + failed`,
//! * every injected panic is recovered (`panics_recovered` matches the
//!   plan), and every injected reply corruption is detected client-side,
//! * every broken `.ipg` source dropped into the watched grammar
//!   directory mid-run is rejected exactly once, the last good generation
//!   keeps answering through it, and a valid rewrite swaps back in.
//!
//! `IPG_CHAOS_QUICK=1` shrinks the round count for CI smoke; the fault
//! schedule stays seeded either way, so a failure reproduces.

use ipg_core::Error;
use ipg_serve::fault::FaultPlan;
use ipg_serve::proto::{self, Client, RetryPolicy, Wire};
use ipg_serve::{Config, Response, Server};
use std::io::{ErrorKind, Write};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const GRAMMARS: [&str; 9] =
    ["zip", "zip_inflate", "dns", "png", "gif", "elf", "ipv4udp", "pe", "pdf"];

fn corpus_input(name: &str) -> Vec<u8> {
    match name {
        "zip" | "zip_inflate" => ipg_corpus::zip::generate(&Default::default()).bytes,
        "dns" => ipg_corpus::dns::generate(&Default::default()).bytes,
        "png" => ipg_corpus::png::generate(&Default::default()).bytes,
        "gif" => ipg_corpus::gif::generate(&Default::default()).bytes,
        "elf" => ipg_corpus::elf::generate(&Default::default()).bytes,
        "ipv4udp" => ipg_corpus::ipv4udp::generate(&Default::default()).bytes,
        "pe" => ipg_corpus::pe::generate(&Default::default()).bytes,
        "pdf" => ipg_corpus::pdf::generate(&Default::default()).bytes,
        other => panic!("no corpus generator for {other}"),
    }
}

#[test]
fn chaos_soak_survives_injected_faults_with_exact_reconciliation() {
    let rounds = if std::env::var("IPG_CHAOS_QUICK").is_ok() { 22 } else { 40 };
    let plan = Arc::new(
        FaultPlan::new(0xC4A0_5EED)
            .panic_per_mille(100)
            .stall_per_mille(100, 3)
            .corrupt_per_mille(80),
    );
    let server = Arc::new(Server::start(Config {
        max_queue: 3,
        retry_after: Duration::from_millis(2),
        io_timeout: Duration::from_secs(2),
        faults: Some(plan.clone()),
        ..Config::default()
    }));
    let path = std::env::temp_dir().join(format!("ipg-serve-chaos-{}.sock", std::process::id()));
    let front = server.serve_unix(&path).expect("bind socket");

    // Lane E setup: a watched grammar directory under hot reload. The
    // soak breaks the source mid-run; each broken version must be
    // rejected exactly once while the last good generation keeps serving,
    // and each valid rewrite must swap back in.
    let watch_dir =
        std::env::temp_dir().join(format!("ipg-serve-chaos-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&watch_dir);
    std::fs::create_dir_all(&watch_dir).expect("mkdir watch dir");
    const HOT: &str = r#"S -> "h"[0, 1];"#;
    // Writes `hot.ipg` the way a deploy should: a temporary file renamed
    // into place, so the watcher never reads a half-written source.
    let deploy = |text: &str| {
        let tmp = watch_dir.join("hot.ipg.tmp");
        std::fs::write(&tmp, text).expect("write hot.ipg.tmp");
        std::fs::rename(&tmp, watch_dir.join("hot.ipg")).expect("rename into hot.ipg");
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "watcher never {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    deploy(HOT);
    server.watch_dir(&watch_dir, Duration::from_millis(5)).expect("watch");
    let mut broken_dropped = 0u64;

    let inputs: Vec<(&str, Vec<u8>)> = GRAMMARS.iter().map(|g| (*g, corpus_input(g))).collect();
    let dns = inputs.iter().find(|(n, _)| *n == "dns").expect("dns input").1.clone();
    let policy = RetryPolicy {
        attempts: 8,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed: 7,
    };

    // Client-side tallies (the server's ledger is asserted separately).
    let mut done = 0u64;
    let mut busy = 0u64;
    let mut failed = 0u64;
    let mut panics_seen = 0u64;
    let mut corrupt_seen = 0u64;
    let mut retries = 0u64;

    for round in 0..rounds {
        std::thread::scope(|scope| {
            // Lane A (start): an in-process burst of one valid and one mutated
            // input per grammar — 18 threads released together against an
            // in-flight bound of 3, so shedding is part of normal life. The
            // replies are collected after the wire lanes, which run while the
            // burst is in flight.
            let burst: Vec<(&str, Vec<u8>)> = inputs
                .iter()
                .enumerate()
                .flat_map(|(i, (name, input))| {
                    let mut mutant = input.clone();
                    ipg_gen::mutate::mutate(&mut mutant, 0xFEED ^ round as u64, i as u64);
                    [(*name, input.clone()), (*name, mutant)]
                })
                .collect();
            let start = Arc::new(Barrier::new(burst.len()));
            let pending: Vec<_> = burst
                .into_iter()
                .map(|(name, bytes)| {
                    let (server, start) = (&server, Arc::clone(&start));
                    scope.spawn(move || {
                        start.wait();
                        server.parse_response(name, &bytes)
                    })
                })
                .collect();

            // Lane B: a wire client that rides out BUSY sheds with jittered
            // backoff and detects corrupted reply frames.
            let mut client = Client::connect_with_retry(&path, &policy).expect("connect");
            client.set_reply_timeout(Some(Duration::from_secs(30))).expect("timeout");
            for (name, input) in inputs.iter().take(3) {
                match client.parse_with_retry(name, input, &policy) {
                    Ok(Wire::Done { .. }) => done += 1,
                    Ok(Wire::Busy { .. }) => busy += 1,
                    Ok(Wire::Error(_)) => failed += 1,
                    Ok(other) => panic!("unexpected wire reply: {other:?}"),
                    Err(e) if e.kind() == ErrorKind::InvalidData => corrupt_seen += 1,
                    Err(e) => panic!("wire I/O failure: {e}"),
                }
            }

            // Lane C: a wire streaming session under fire. An injected panic
            // may kill the session mid-stream; every subsequent request must
            // still draw a typed reply, never a hang or a torn frame.
            match client.open("dns") {
                Ok(Wire::Opened { id }) => {
                    for chunk in dns.chunks(16) {
                        match client.feed(id, chunk) {
                            Ok(Wire::NeedInput { .. }) => {}
                            Ok(Wire::Error(_)) => break,
                            Ok(other) => panic!("unexpected feed reply: {other:?}"),
                            Err(e) if e.kind() == ErrorKind::InvalidData => corrupt_seen += 1,
                            Err(e) => panic!("wire I/O failure: {e}"),
                        }
                    }
                    match client.finish(id) {
                        Ok(Wire::Done { .. } | Wire::Error(_)) => {}
                        Ok(other) => panic!("unexpected finish reply: {other:?}"),
                        Err(e) if e.kind() == ErrorKind::InvalidData => corrupt_seen += 1,
                        Err(e) => panic!("wire I/O failure: {e}"),
                    }
                }
                Ok(Wire::Error(_)) => failed += 1,
                Ok(other) => panic!("unexpected open reply: {other:?}"),
                Err(e) if e.kind() == ErrorKind::InvalidData => corrupt_seen += 1,
                Err(e) => panic!("wire I/O failure: {e}"),
            }
            retries += client.retries();

            // Lane D: a slow-but-legal client dribbles its frame in pieces
            // well inside the io timeout — it must be served, not shot by the
            // slow-loris guard.
            let mut slow = std::os::unix::net::UnixStream::connect(&path).expect("connect slow");
            slow.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            let mut payload = vec![proto::OP_PARSE, 3];
            payload.extend_from_slice(b"dns");
            payload.extend_from_slice(&dns);
            let mut framed = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
            framed.extend_from_slice(&payload);
            for piece in framed.chunks(16) {
                slow.write_all(piece).expect("write");
                std::thread::sleep(Duration::from_millis(1));
            }
            let reply = proto::read_frame(&mut slow)
                .expect("io")
                .expect("slow-but-legal clients are served");
            match proto::decode_wire(&reply) {
                Some(Wire::Done { .. }) => done += 1,
                Some(Wire::Busy { .. }) => busy += 1,
                Some(Wire::Error(_)) => failed += 1,
                Some(other) => panic!("unexpected slow-lane reply: {other:?}"),
                None => corrupt_seen += 1,
            }

            // Lane E: every fourth round, break the watched source and wait
            // for the watcher to reject it: exactly one more rejection, no
            // swap, and the hot grammar answers from its last good generation.
            // Then a valid rewrite must swap back in.
            if round % 4 == 0 {
                let good = server.registry().get("hot").expect("hot is loaded").generation;
                deploy(&format!("BROKEN {round} ->"));
                broken_dropped += 1;
                wait_for("rejected the broken source", &|| {
                    server.stats().reloads_rejected >= broken_dropped
                });
                let stats = server.stats();
                assert_eq!(
                    stats.reloads_rejected, broken_dropped,
                    "one rejection per drop: {stats:?}"
                );
                assert_eq!(
                    stats.reloads_ok, broken_dropped,
                    "a rejection swaps nothing: {stats:?}"
                );
                assert_eq!(server.registry().get("hot").unwrap().generation, good);
                match server.parse_response("hot", b"h") {
                    Response::Done(_) => done += 1,
                    Response::Busy { .. } => busy += 1,
                    Response::Error(Error::WorkerPanic(_)) => {
                        failed += 1;
                        panics_seen += 1;
                    }
                    Response::Error(e) => panic!("hot grammar must survive a broken source: {e}"),
                    other => panic!("unexpected hot-lane reply: {other:?}"),
                }
                deploy(HOT);
                wait_for("swapped the rewrite in", &|| server.stats().reloads_ok > broken_dropped);
                assert!(server.registry().get("hot").unwrap().generation > good);
            }

            // Lane A (collect): every burst request owes exactly one reply.
            for caller in pending {
                match caller.join().expect("no reply may be lost") {
                    Response::Done(_) => done += 1,
                    Response::Busy { .. } => busy += 1,
                    Response::Error(Error::WorkerPanic(_)) => {
                        failed += 1;
                        panics_seen += 1;
                    }
                    Response::Error(_) => failed += 1,
                    other => panic!("unexpected burst reply: {other:?}"),
                }
            }
        });
    }

    // Leave one session open across the drain: it must be sealed with
    // GOAWAY, not dropped. Opening itself may eat an injected panic, so
    // retry a few times (each attempt is ledgered like any request).
    let mut held = None;
    for _ in 0..32 {
        match server.open("dns") {
            Ok(h) => {
                held = Some(h);
                break;
            }
            Err(Error::WorkerPanic(_)) => failed += 1,
            Err(e) => panic!("unexpected open error: {e}"),
        }
    }
    let mut held = held.expect("open survives within 32 attempts");
    front.stop_accepting();
    server.drain();
    assert!(matches!(held.feed(&[0]), Response::GoAway), "sealed sessions answer GOAWAY");

    let stats = server.stats();
    eprintln!(
        "chaos soak: {} rounds; injected {} (panics {}, stalls {}, corruptions {}); \
         ledger {} = {} + {} + {}; client saw done {done}, busy {busy}, failed {failed}, \
         panics {panics_seen}, corrupt {corrupt_seen}, retries {retries}",
        rounds,
        plan.injected(),
        plan.panics_injected(),
        plan.stalls_injected(),
        plan.corruptions_injected(),
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.failed,
    );

    assert!(plan.injected() >= 100, "need ≥100 injected faults, got {}", plan.injected());
    assert!(
        stats.reconciles(),
        "ledger must reconcile exactly: {} != {} + {} + {}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.failed
    );
    assert_eq!(
        stats.panics_recovered,
        plan.panics_injected(),
        "every injected panic must be recovered — and nothing else may have panicked"
    );
    assert!(stats.panics_recovered > 0, "the plan must have injected panics");
    assert!(panics_seen > 0, "typed WorkerPanic replies must reach callers");
    assert_eq!(
        corrupt_seen,
        plan.corruptions_injected(),
        "every corrupted reply frame must be detected client-side"
    );
    assert!(stats.shed > 0, "the in-flight bound must have shed under burst");
    assert!(busy > 0, "BUSY replies must reach callers");
    assert!(stats.completed > 0 && stats.failed > 0, "mixed outcomes expected: {stats:?}");
    assert!(stats.sessions_sealed >= 1, "the held session must be sealed: {stats:?}");
    assert!(broken_dropped > 0, "the soak must have dropped broken sources");
    assert!(
        stats.reconciles_reloads(1 + broken_dropped, broken_dropped),
        "initial load plus one swap per rewrite, one rejection per broken source: {stats:?}"
    );
    assert!(
        stats.latency_p50_us > 0 && stats.latency_p99_us >= stats.latency_p50_us,
        "latency percentiles must be recorded and ordered: {stats:?}"
    );

    drop(front);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&watch_dir);
}

/// A fault-injected burst with no grammar watcher: valid and mutated
/// inputs from concurrent callers under injected panics and stalls
/// against a small in-flight bound. The admission ledger must reconcile
/// exactly, every injected panic must be recovered, and — since nothing
/// watches a directory — both reload counters must read zero, so a
/// counter that leaks into them shows.
#[test]
fn unwatched_fault_burst_reconciles_every_counter() {
    let rounds = if std::env::var("IPG_CHAOS_QUICK").is_ok() { 6 } else { 16 };
    let plan = Arc::new(FaultPlan::new(0xBE7C).panic_per_mille(60).stall_per_mille(60, 2));
    let server = Server::start(Config {
        max_queue: 8,
        retry_after: Duration::from_millis(2),
        faults: Some(plan.clone()),
        ..Config::default()
    });
    let inputs: Vec<(&str, Vec<u8>)> = GRAMMARS.iter().map(|g| (*g, corpus_input(g))).collect();
    for round in 0..rounds {
        std::thread::scope(|scope| {
            let callers: Vec<_> = inputs
                .iter()
                .enumerate()
                .flat_map(|(i, (name, input))| {
                    let mut mutant = input.clone();
                    ipg_gen::mutate::mutate(&mut mutant, 0xBE7C ^ round, i as u64);
                    [(*name, input.clone()), (*name, mutant)]
                })
                .map(|(name, bytes)| {
                    let server = &server;
                    scope.spawn(move || server.parse_response(name, &bytes))
                })
                .collect();
            for caller in callers {
                match caller.join().expect("no reply may be lost") {
                    Response::Done(_) | Response::Busy { .. } | Response::Error(_) => {}
                    other => panic!("unexpected reply: {other:?}"),
                }
            }
        });
    }
    let stats = server.stats();
    assert!(stats.reconciles(), "ledger must reconcile exactly: {stats:?}");
    assert_eq!(stats.submitted, rounds * 2 * GRAMMARS.len() as u64);
    assert_eq!(stats.panics_recovered, plan.panics_injected(), "{stats:?}");
    assert!(stats.reconciles_reloads(0, 0), "no watcher, so no reloads: {stats:?}");
}
