//! Transport-robustness fuzzing: truncated, bit-flipped, oversized, and
//! out-of-order frames thrown at the Unix-socket front end. The contract
//! under test ([`ipg_serve::proto`] module docs): every framing or
//! protocol violation draws a *typed* `ERROR` frame — never a server
//! panic, never a silent hangup, never a torn frame. Request mutation
//! reuses the ipg-gen mutators, the same machinery the cross-engine
//! conformance fuzzer drives grammars with.

use ipg_serve::proto::{
    self, decode_wire, read_frame, write_frame, Wire, OP_FEED, OP_FINISH, OP_OPEN, OP_PARSE,
    ST_ERROR,
};
use ipg_serve::{Config, Server};
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// A server with a deliberately small frame cap and a short io timeout,
/// so the oversized and slow-loris edges are cheap to reach.
fn start(tag: &str) -> (Arc<Server>, proto::UnixFront, std::path::PathBuf) {
    let server = Arc::new(Server::start(Config {
        max_frame: 4096,
        io_timeout: Duration::from_millis(400),
        ..Config::default()
    }));
    let path =
        std::env::temp_dir().join(format!("ipg-serve-fuzz-{tag}-{}.sock", std::process::id()));
    let front = server.serve_unix(&path).expect("bind socket");
    (server, front, path)
}

fn connect(path: &std::path::Path) -> UnixStream {
    let s = UnixStream::connect(path).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    s
}

fn dns_input() -> Vec<u8> {
    ipg_corpus::dns::generate(&Default::default()).bytes
}

#[test]
fn mutated_request_frames_get_typed_replies_and_never_kill_the_server() {
    let (server, front, path) = start("mutate");
    let dns = dns_input();

    // Seed payloads covering every op, then bit-flip/splice/truncate them
    // with the ipg-gen mutators.
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    let mut parse = vec![OP_PARSE, 3];
    parse.extend_from_slice(b"dns");
    parse.extend_from_slice(&dns);
    seeds.push(parse);
    let mut open = vec![OP_OPEN, 3];
    open.extend_from_slice(b"dns");
    seeds.push(open);
    let mut feed = vec![OP_FEED];
    feed.extend_from_slice(&0u64.to_le_bytes());
    feed.extend_from_slice(&[1, 2, 3]);
    seeds.push(feed);
    let mut finish = vec![OP_FINISH];
    finish.extend_from_slice(&0u64.to_le_bytes());
    seeds.push(finish);
    // `0x05` was the dropped `STATS` op: it is an unknown op now.
    seeds.push(vec![0x05]);
    seeds.push(Vec::new());

    let mut stream = connect(&path);
    write_frame(&mut stream, &[0x05]).expect("write");
    let reply = read_frame(&mut stream).expect("io").expect("typed reply, not a hangup");
    match decode_wire(&reply) {
        Some(Wire::Error(msg)) => assert!(msg.contains("unknown op 0x05"), "{msg}"),
        other => panic!("expected a typed unknown-op error, got {other:?}"),
    }
    let mut replies = 0u64;
    for index in 0..200u64 {
        let mut payload = seeds[index as usize % seeds.len()].clone();
        ipg_gen::mutate::mutate(&mut payload, 0xF00D, index);
        payload.truncate(4096); // stay under the frame cap in this lane
        write_frame(&mut stream, &payload).expect("write");
        let reply = read_frame(&mut stream).expect("io").expect("typed reply, not a hangup");
        assert!(
            decode_wire(&reply).is_some(),
            "reply to mutant #{index} must stay decodable: {reply:?}"
        );
        replies += 1;
    }
    assert_eq!(replies, 200);

    // The same connection — and the server — still do real work.
    let mut client = proto::Client::connect(&path).expect("connect");
    assert!(matches!(client.parse("dns", &dns).expect("io"), Wire::Done { .. }));
    let stats = server.stats();
    assert_eq!(stats.panics_recovered, 0, "no mutant may reach a panic");
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    drop((stream, client, front));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (_server, front, path) = start("oversized");
    let mut stream = connect(&path);
    // Claim a 1 GiB frame against the 4 KiB cap; the server must answer
    // with a typed error naming the cap, then close — without ever
    // buffering the claimed length.
    stream.write_all(&(1u32 << 30).to_le_bytes()).expect("write");
    let reply = read_frame(&mut stream).expect("io").expect("typed reply, not a hangup");
    assert_eq!(reply.first(), Some(&ST_ERROR));
    let msg = String::from_utf8_lossy(&reply[1..]).into_owned();
    assert!(msg.contains("exceeds") && msg.contains("4096"), "unexpected error: {msg}");
    assert_eq!(read_frame(&mut stream).expect("io"), None, "clean EOF after the rejection");
    drop(front);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_frame_then_close_is_survived() {
    let (server, front, path) = start("truncated");
    {
        let mut stream = connect(&path);
        // Promise 100 bytes, deliver 10, vanish.
        stream.write_all(&100u32.to_le_bytes()).expect("write");
        stream.write_all(&[0xAB; 10]).expect("write");
    }
    // The connection thread must have moved on without poisoning anything.
    let mut client = proto::Client::connect(&path).expect("connect");
    assert!(matches!(client.parse("dns", &dns_input()).expect("io"), Wire::Done { .. }));
    assert_eq!(server.stats().panics_recovered, 0);
    drop(front);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn midframe_stall_draws_the_slow_loris_guard() {
    let (_server, front, path) = start("stall");
    let mut stream = connect(&path);
    // Start a frame, then stall past the 400ms io timeout.
    stream.write_all(&50u32.to_le_bytes()).expect("write");
    stream.write_all(&[1, 2, 3, 4, 5]).expect("write");
    std::thread::sleep(Duration::from_millis(700));
    let reply = read_frame(&mut stream).expect("io").expect("typed reply, not a hangup");
    assert_eq!(reply.first(), Some(&ST_ERROR));
    let msg = String::from_utf8_lossy(&reply[1..]).into_owned();
    assert!(msg.contains("slow-loris"), "unexpected error: {msg}");
    assert_eq!(read_frame(&mut stream).expect("io"), None, "clean EOF after the guard fires");
    drop(front);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn raw_garbage_never_crashes_the_server() {
    let (server, front, path) = start("garbage");
    let mut state = 0x6A77u64;
    for round in 0..8 {
        let mut stream = connect(&path);
        // Unframed noise: whatever the length prefix happens to decode to,
        // the connection must end in typed errors or a clean close.
        let mut noise = Vec::with_capacity(64);
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(round);
            noise.push((state >> 33) as u8);
        }
        let _ = stream.write_all(&noise);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server says until EOF; every frame (if any)
        // must be a well-formed response frame.
        while let Ok(Some(reply)) = read_frame(&mut stream) {
            assert!(decode_wire(&reply).is_some(), "torn reply frame: {reply:?}");
        }
    }
    let mut client = proto::Client::connect(&path).expect("connect");
    assert!(matches!(client.parse("dns", &dns_input()).expect("io"), Wire::Done { .. }));
    assert_eq!(server.stats().panics_recovered, 0);
    drop(front);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn out_of_order_session_ops_are_typed_errors() {
    let (server, front, path) = start("order");
    let mut client = proto::Client::connect(&path).expect("connect");
    // Feed and finish before any open.
    for wire in [client.feed(99, b"x").expect("io"), client.finish(99).expect("io")] {
        assert!(matches!(wire, Wire::Error(_)), "expected a typed error, got {wire:?}");
    }
    // Double-finish an actual session.
    let Wire::Opened { id } = client.open("dns").expect("io") else { panic!("expected Opened") };
    let dns = dns_input();
    for chunk in dns.chunks(9) {
        assert!(matches!(client.feed(id, chunk).expect("io"), Wire::NeedInput { .. }));
    }
    assert!(matches!(client.finish(id).expect("io"), Wire::Done { .. }));
    assert!(matches!(client.finish(id).expect("io"), Wire::Error(_)));
    // Feeding the finished session is also a typed error, and the
    // connection survives it all.
    assert!(matches!(client.feed(id, b"x").expect("io"), Wire::Error(_)));
    assert!(matches!(client.parse("dns", &dns).expect("io"), Wire::Done { .. }));
    let stats = server.stats();
    assert_eq!(stats.panics_recovered, 0);
    assert!(stats.reconciles(), "ledger must balance: {stats:?}");
    drop(front);
    let _ = std::fs::remove_file(&path);
}
