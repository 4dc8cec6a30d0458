//! Integration tests for the parse service: batch jobs, streaming
//! sessions, isolation (fuel, byte budgets, deadlines), the Unix-socket
//! front end, concurrent callers, and the fault-tolerance layer (panic
//! isolation, BUSY shedding, graceful drain).

use ipg_core::Error;
use ipg_serve::fault::FaultPlan;
use ipg_serve::proto::Wire;
use ipg_serve::{Config, Registry, Response, Server};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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
fn batch_parse_matches_the_direct_vm() {
    let server = Server::start(Config::default());
    for entry in ipg_formats::Registry::corpus().entries() {
        let (name, vm) = (entry.name.as_str(), entry.vm());
        let input = corpus_input(name);
        let (direct, stats) = vm.parse_with_stats(&input);
        let direct = direct.expect("corpus inputs parse");
        let summary = server.parse(name, input.clone()).expect("service parse succeeds");
        assert_eq!(summary.steps, stats.steps, "{name}: service must do identical work");
        assert_eq!(summary.nodes, direct.arena().len(), "{name}: identical tree size");
        assert_eq!(summary.bytes, input.len());
    }
    let stats = server.stats();
    assert_eq!(stats.parses_ok, 9);
    assert_eq!(stats.parses_err, 0);
    server.shutdown();
}

#[test]
fn streaming_session_matches_one_shot() {
    let server = Server::start(Config::default());
    let input = corpus_input("dns");
    let (_, one_shot) = ipg_formats::dns::vm().parse_with_stats(&input);

    let mut stream = server.open("dns").expect("open session");
    for chunk in input.chunks(3) {
        match stream.feed(chunk) {
            Response::NeedInput { .. } => {}
            other => panic!("unexpected mid-stream response: {other:?}"),
        }
    }
    match stream.finish() {
        Response::Done(summary) => {
            assert_eq!(summary.steps, one_shot.steps, "streamed work must equal one-shot");
            assert_eq!(summary.bytes, input.len());
        }
        other => panic!("expected Done, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert!(stats.suspends > 0, "chunked feeding must have suspended");
    server.shutdown();
}

#[test]
fn rejections_and_unknown_grammars_are_clean_errors() {
    let server = Server::start(Config::default());
    assert!(server.parse("nope", vec![1, 2, 3]).is_err());
    assert!(server.parse("zip", b"not a zip at all").is_err());
    // The server survives failures and keeps serving.
    assert!(server.parse("dns", corpus_input("dns")).is_ok());
    server.shutdown();
}

#[test]
fn step_fuel_kills_hostile_work_without_killing_the_server() {
    let server = Server::start(Config { max_steps: 10, ..Config::default() });
    let err = server.parse("zip", corpus_input("zip")).expect_err("10 steps is not enough");
    assert!(err.to_string().contains("step limit"), "unexpected error: {err}");
    // Normal work is still impossible under the tiny global fuel, but the
    // server is alive and answering.
    assert!(server.parse("zip", corpus_input("zip")).is_err());
    server.shutdown();
}

#[test]
fn session_byte_budget_is_enforced() {
    let server = Server::start(Config { max_bytes: 16, ..Config::default() });
    let mut stream = server.open("dns").expect("open");
    let resp = stream.feed(&[0u8; 64]);
    match resp {
        Response::Error(e) => {
            assert!(e.to_string().contains("byte budget"), "unexpected error: {e}")
        }
        other => panic!("expected a byte-budget error, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn deadline_eviction_reclaims_stalled_sessions() {
    let server =
        Server::start(Config { session_deadline: Duration::from_millis(30), ..Config::default() });
    let mut stream = server.open("dns").expect("open");
    let _ = stream.feed(&[0x12]);
    // Stall past the deadline; the handle's next call evicts the session.
    std::thread::sleep(Duration::from_millis(200));
    match stream.feed(&[0x34]) {
        Response::Error(e) => {
            assert!(e.to_string().contains("session"), "unexpected error: {e}")
        }
        other => panic!("expected an eviction error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(stats.live_sessions, 0);
    drop(stream);
    server.shutdown();
}

/// Runs `f(i)` for `i` in `0..n` on `n` threads released together, and
/// returns the results in `i` order.
fn burst<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let start = Barrier::new(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (start, f) = (&start, &f);
                s.spawn(move || {
                    start.wait();
                    f(i)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    })
}

#[test]
fn many_batch_jobs_complete_across_threads() {
    let server = Server::start(Config::default());
    let input = corpus_input("gif");
    let oks = burst(8, |_| (0..8).filter(|_| server.parse("gif", &input).is_ok()).count());
    assert_eq!(oks.iter().sum::<usize>(), 64);
    let stats = server.stats();
    assert_eq!(stats.parses_ok, 64);
    assert!(stats.reconciles(), "nothing left in flight: {stats:?}");
    server.shutdown();
}

#[test]
fn unix_socket_front_end_round_trips() {
    let server = Arc::new(Server::start(Config::default()));
    let path = std::env::temp_dir().join(format!("ipg-serve-test-{}.sock", std::process::id()));
    let front = server.serve_unix(&path).expect("bind socket");
    let mut client = ipg_serve::proto::Client::connect(&path).expect("connect");

    // One-shot parse over the wire.
    let input = corpus_input("pe");
    let (_, stats) = ipg_formats::pe::vm().parse_with_stats(&input);
    match client.parse("pe", &input).expect("io") {
        Wire::Done { steps, bytes, .. } => {
            assert_eq!(steps, stats.steps);
            assert_eq!(bytes, input.len() as u64);
        }
        other => panic!("expected Done, got {other:?}"),
    }

    // Streaming session over the wire.
    let input = corpus_input("dns");
    let Wire::Opened { id } = client.open("dns").expect("io") else { panic!("expected Opened") };
    for chunk in input.chunks(7) {
        match client.feed(id, chunk).expect("io") {
            Wire::NeedInput { .. } => {}
            other => panic!("unexpected mid-stream wire response: {other:?}"),
        }
    }
    match client.finish(id).expect("io") {
        Wire::Done { bytes, .. } => assert_eq!(bytes, input.len() as u64),
        other => panic!("expected Done, got {other:?}"),
    }

    // Errors stay on the wire as errors, not hangups.
    match client.parse("nope", b"x").expect("io") {
        Wire::Error(msg) => assert!(msg.contains("unknown grammar")),
        other => panic!("expected Error, got {other:?}"),
    }
    match client.finish(id).expect("io") {
        Wire::Error(msg) => assert!(msg.contains("session"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // The server counted both parses that reached it.
    assert_eq!(server.stats().parses_ok, 2);

    // Session ownership is per-connection: a second client cannot feed or
    // finish (i.e. corrupt or kill) a session it did not open.
    let Wire::Opened { id: mine } = client.open("dns").expect("io") else {
        panic!("expected Opened")
    };
    let mut intruder = ipg_serve::proto::Client::connect(&path).expect("connect");
    for wire in [intruder.feed(mine, b"\x00").expect("io"), intruder.finish(mine).expect("io")] {
        match wire {
            Wire::Error(msg) => {
                assert!(msg.contains("not opened on this connection"), "{msg}")
            }
            other => panic!("expected an ownership error, got {other:?}"),
        }
    }
    // The rightful owner still holds a live session.
    match client.feed(mine, &corpus_input("dns")).expect("io") {
        Wire::NeedInput { .. } => {}
        other => panic!("owner's session was disturbed: {other:?}"),
    }
    match client.finish(mine).expect("io") {
        Wire::Done { .. } => {}
        other => panic!("expected Done, got {other:?}"),
    }
    drop(intruder);

    // Close the client first: its connection thread exits on EOF and
    // releases its server handle.
    drop(client);
    drop(front);
    let _ = std::fs::remove_file(&path);
    let mut server = server;
    for _ in 0..200 {
        match Arc::try_unwrap(server) {
            Ok(s) => {
                s.shutdown();
                return;
            }
            Err(still_shared) => {
                server = still_shared;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    panic!("connection thread did not release the server handle");
}

#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    use ipg_serve::proto::{decode_wire, read_frame, OP_FEED, OP_FINISH, OP_OPEN, OP_PARSE};
    use std::io::Write;

    let server = Arc::new(Server::start(Config::default()));
    let path = std::env::temp_dir().join(format!("ipg-serve-pipe-{}.sock", std::process::id()));
    let front = server.serve_unix(&path).expect("bind socket");
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Session ids are sequential from 0, so the FEED can name the session
    // its own OPEN creates before any reply has been read.
    let input = corpus_input("dns");
    let mut parse = vec![OP_PARSE, 3];
    parse.extend_from_slice(b"dns");
    parse.extend_from_slice(&input);
    let mut feed = vec![OP_FEED];
    feed.extend_from_slice(&0u64.to_le_bytes());
    feed.extend_from_slice(&input);
    let mut wire = Vec::new();
    for payload in [&parse[..], &[OP_OPEN, 3, b'd', b'n', b's'], &feed] {
        wire.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        wire.extend_from_slice(payload);
    }
    raw.write_all(&wire).expect("one write carries all three frames");

    let reply = |raw: &mut std::os::unix::net::UnixStream| {
        let frame = read_frame(raw).expect("io: a dropped frame times out here");
        decode_wire(&frame.expect("a reply, not EOF")).expect("well-formed reply")
    };
    match reply(&mut raw) {
        Wire::Done { bytes, .. } => assert_eq!(bytes, input.len() as u64),
        other => panic!("PARSE: expected Done, got {other:?}"),
    }
    assert_eq!(reply(&mut raw), Wire::Opened { id: 0 });
    match reply(&mut raw) {
        Wire::NeedInput { .. } => {}
        other => panic!("FEED: expected NeedInput, got {other:?}"),
    }

    // The session saw the fed bytes in full.
    let mut finish = vec![OP_FINISH];
    finish.extend_from_slice(&0u64.to_le_bytes());
    ipg_serve::proto::write_frame(&mut raw, &finish).expect("io");
    match reply(&mut raw) {
        Wire::Done { bytes, .. } => assert_eq!(bytes, input.len() as u64),
        other => panic!("FINISH: expected Done, got {other:?}"),
    }
    drop(raw);
    drop(front);
    server.drain();
}

#[test]
fn worker_panics_are_isolated_and_typed() {
    // Every request panics (injected at the catch_unwind boundary); each
    // one must come back as a typed WorkerPanic reply and the server must
    // keep serving afterwards.
    let plan = Arc::new(FaultPlan::new(0xBAD).panic_per_mille(1000));
    let server = Server::start(Config { faults: Some(plan.clone()), ..Config::default() });
    for _ in 0..3 {
        let err = server.parse("dns", corpus_input("dns")).expect_err("injected panic");
        assert!(matches!(err, Error::WorkerPanic(_)), "expected WorkerPanic, got {err:?}");
        assert!(err.to_string().contains("worker panicked"), "unexpected message: {err}");
    }
    let stats = server.stats();
    assert_eq!(stats.panics_recovered, 3);
    assert_eq!(stats.panics_recovered, plan.panics_injected());
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.failed, 3);
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    server.shutdown();
}

#[test]
fn panicking_jobs_do_not_starve_healthy_ones() {
    // A fractional panic rate: some of the 40 parses die, the rest
    // complete on the same (surviving) thread, and the ledger still
    // reconciles exactly.
    let plan = Arc::new(FaultPlan::new(0x5EED).panic_per_mille(300));
    let server = Server::start(Config { faults: Some(plan.clone()), ..Config::default() });
    let input = corpus_input("dns");
    let mut ok = 0u64;
    let mut panicked = 0u64;
    for _ in 0..40 {
        match server.parse("dns", input.clone()) {
            Ok(_) => ok += 1,
            Err(Error::WorkerPanic(_)) => panicked += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(ok > 0, "healthy jobs must still complete");
    assert!(panicked > 0, "the plan must have injected panics");
    assert_eq!(ok + panicked, 40);
    let stats = server.stats();
    assert_eq!(stats.panics_recovered, plan.panics_injected());
    assert_eq!(stats.panics_recovered, panicked);
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.failed, panicked);
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    server.shutdown();
}

#[test]
fn over_bound_jobs_are_shed_with_busy() {
    // Every parse stalled 1–20ms and at most 2 in flight: a burst of 16
    // callers must see at least one BUSY shed and at least one
    // completion, with the ledger reconciling to exactly 16.
    let plan = Arc::new(FaultPlan::new(0xB0B).stall_per_mille(1000, 20));
    let server = Server::start(Config {
        max_queue: 2,
        retry_after: Duration::from_millis(7),
        faults: Some(plan),
        ..Config::default()
    });
    let input = corpus_input("gif");
    let mut done = 0u64;
    let mut busy = 0u64;
    for resp in burst(16, |_| server.parse_response("gif", &input)) {
        match resp {
            Response::Done(_) => done += 1,
            Response::Busy { retry_after_ms } => {
                assert_eq!(retry_after_ms, 7, "BUSY must carry the configured hint");
                busy += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(busy > 0, "a bound of 2 under a 16-burst must shed");
    assert!(done > 0, "admitted jobs must still complete");
    assert_eq!(done + busy, 16);
    let stats = server.stats();
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.shed, busy);
    assert_eq!(stats.completed, done);
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    assert!(stats.latency_p50_us > 0, "completed work must have recorded latency");
    // Admission recovers once the burst clears.
    assert!(server.parse("gif", input).is_ok());
    server.shutdown();
}

#[test]
fn drain_refuses_new_work_and_seals_sessions() {
    let server = Server::start(Config::default());
    let mut stream = server.open("dns").expect("open");
    assert!(matches!(stream.feed(&[0x12]), Response::NeedInput { .. }));

    server.drain();

    // New one-shot work is refused with GOAWAY, typed all the way up.
    let err = server.parse("dns", corpus_input("dns")).expect_err("draining");
    assert!(err.to_string().contains("GOAWAY"), "unexpected error: {err}");
    assert!(server.open("dns").is_err(), "no new sessions while draining");
    // The sealed session answers GOAWAY instead of hanging.
    assert!(matches!(stream.feed(&[0x34]), Response::GoAway));

    let stats = server.stats();
    assert_eq!(stats.sessions_sealed, 1, "the open session must be sealed, not dropped");
    assert_eq!(stats.live_sessions, 0);
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");

    // Drain is idempotent.
    server.drain();
    drop(stream);
    server.shutdown();
}

#[test]
fn drain_sends_goaway_over_the_wire() {
    let server = Arc::new(Server::start(Config::default()));
    let path = std::env::temp_dir().join(format!("ipg-serve-drain-{}.sock", std::process::id()));
    let front = server.serve_unix(&path).expect("bind socket");

    let mut client = ipg_serve::proto::Client::connect(&path).expect("connect");
    let Wire::Opened { id } = client.open("dns").expect("io") else { panic!("expected Opened") };
    assert!(matches!(client.feed(id, &[0x12]).expect("io"), Wire::NeedInput { .. }));
    // A second connection sits idle between frames throughout the drain.
    // One METRICS round trip first, so it is accepted (off the listener
    // backlog) before the acceptor stops.
    let mut idle = std::os::unix::net::UnixStream::connect(&path).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    ipg_serve::proto::write_frame(&mut idle, &[ipg_serve::proto::OP_METRICS]).expect("io");
    let reply = ipg_serve::proto::read_frame(&mut idle).expect("io").expect("metrics reply");
    assert_eq!(reply.first(), Some(&ipg_serve::proto::ST_METRICS));

    front.stop_accepting();
    server.drain();

    // Both connections sit idle between frames, so each is sealed with an
    // unsolicited GOAWAY and a clean EOF — never a torn frame, never a
    // silent hangup (the session holder included: its session was sealed
    // when its idle connection was answered GOAWAY).
    assert_eq!(client.recv().expect("io"), Some(Wire::GoAway));
    assert_eq!(client.recv().expect("io"), None, "clean EOF after GOAWAY");
    let frame = ipg_serve::proto::read_frame(&mut idle).expect("io").expect("sealed, not torn");
    assert_eq!(frame, vec![ipg_serve::proto::ST_GOAWAY]);
    assert_eq!(ipg_serve::proto::read_frame(&mut idle).expect("io"), None, "clean EOF");

    let stats = server.stats();
    assert!(stats.sessions_sealed >= 1, "stats: {stats:?}");
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    drop(client);
    drop(front);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn custom_registry_rejects_everything_else() {
    let registry = Registry::new();
    registry.register("only-dns", ipg_formats::registry::corpus_entry("dns").handle());
    let server = Server::with_registry(Config::default(), registry);
    assert!(server.parse("zip", corpus_input("zip")).is_err());
    assert!(server.parse("only-dns", corpus_input("dns")).is_ok());
    assert_eq!(server.registry().names(), vec!["only-dns"]);
    server.shutdown();
}

#[test]
fn watch_dir_hot_reloads_grammars_without_tearing_live_sessions() {
    let dir = std::env::temp_dir().join(format!("ipg-serve-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.ipg"), r#"S -> "a"[0, 1];"#).unwrap();

    let server = Server::with_registry(Config::default(), Registry::new());
    server.watch_dir(&dir, Duration::from_millis(5)).expect("watch");
    // The initial scan is synchronous: the grammar serves immediately.
    assert!(server.parse("tiny", b"a").is_ok());

    // Pin a live session to the current generation, then swap the
    // grammar on disk underneath it.
    let mut stream = server.open("tiny").expect("open");
    std::fs::write(dir.join("tiny.ipg"), r#"S -> "b"[0, 1];"#).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.parse("tiny", b"b").is_err() {
        assert!(std::time::Instant::now() < deadline, "watcher never swapped the grammar");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.parse("tiny", b"a").is_err(), "new generation rejects old input");

    // The session opened before the swap still speaks the old grammar:
    // its generation was pinned at admission.
    assert!(matches!(stream.feed(b"a"), Response::NeedInput { .. }));
    assert!(matches!(stream.finish(), Response::Done(_)), "pinned generation must survive");

    // A source that no longer compiles is rejected; the last good
    // generation keeps serving.
    std::fs::write(dir.join("tiny.ipg"), "THIS IS NOT A GRAMMAR ->").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().reloads_rejected == 0 {
        assert!(std::time::Instant::now() < deadline, "watcher never saw the broken source");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.parse("tiny", b"b").is_ok(), "rollback keeps the previous grammar");

    let stats = server.stats();
    assert!(stats.reloads_ok >= 2, "initial load plus one swap: {stats:?}");
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watcher_counts_a_broken_source_once_and_ignores_stray_artifacts() {
    let dir = std::env::temp_dir().join(format!("ipg-serve-broken-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.ipg"), r#"S -> "a"[0, 1];"#).unwrap();
    std::fs::write(dir.join("broken.ipg"), "THIS IS NOT A GRAMMAR ->").unwrap();
    std::fs::write(dir.join("stray.ipgc"), b"IPGC not a grammar source").unwrap();

    // A broken source present at the initial scan does not stop the
    // watcher: the good grammar serves, the broken one is counted.
    let server = Server::with_registry(Config::default(), Registry::new());
    server.watch_dir(&dir, Duration::from_millis(5)).expect("a broken source is not fatal");
    assert!(server.parse("good", b"a").is_ok());
    let stats = server.stats();
    assert_eq!((stats.reloads_ok, stats.reloads_rejected), (1, 1), "{stats:?}");

    // Counted once, not once per poll: let the watcher sweep the
    // unchanged directory many times over.
    std::thread::sleep(Duration::from_millis(200));
    let stats = server.stats();
    assert_eq!((stats.reloads_ok, stats.reloads_rejected), (1, 1), "{stats:?}");

    // A stray `*.ipgc` file is not a grammar: never loaded, never touched.
    assert_eq!(server.registry().names(), vec!["good"]);
    assert_eq!(std::fs::read(dir.join("stray.ipgc")).unwrap(), b"IPGC not a grammar source");

    // One watcher per server.
    let err = server.watch_dir(&dir, Duration::from_millis(5)).expect_err("second watcher");
    assert!(err.to_string().contains("already running"), "{err}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
