//! The wire lane of the oracle matrix: the generated and mutated inputs
//! of `tests/conformance.rs` go through [`Server::serve_unix`] and a
//! [`Client`], once as a one-shot PARSE and once as an OPEN / 4 KiB
//! FEEDs / FINISH session. Every reply must equal what the same input
//! draws in process: a one-shot PARSE's DONE summary (`steps`, `nodes`,
//! `bytes`) or ERROR text equals [`VmParser::parse_bounded`]'s, and each
//! session reply equals what a [`Session`] under the same budgets says
//! to the same chunk.
//!
//! Set `IPG_CONFORM_QUICK=1` for a reduced sweep.

use ipg_core::interp::vm::{Hint, Outcome, Session, VmParser};
use ipg_gen::{mutate::mutate, Generator};
use ipg_serve::proto::{Client, Wire};
use ipg_serve::{Config, Server};
use std::sync::Arc;

/// FEED chunk size.
const CHUNK: usize = 4096;

/// `(generations, mutants per generation)`, as in `tests/conformance.rs`.
fn params() -> (u64, u64) {
    if std::env::var_os("IPG_CONFORM_QUICK").is_some() {
        (12, 4)
    } else {
        (64, 4)
    }
}

/// What the wire must say for an in-process outcome.
fn expected(outcome: Outcome, session: &Session) -> Wire {
    match outcome {
        Outcome::Done(tree) => Wire::Done {
            steps: session.stats().steps,
            suspends: session.suspends(),
            nodes: tree.arena().len() as u32,
            bytes: session.buffered() as u64,
        },
        Outcome::NeedInput { hint: Hint::Bytes(n) } => Wire::NeedInput { kind: 0, n: n as u64 },
        Outcome::NeedInput { hint: Hint::UntilEnd } => Wire::NeedInput { kind: 1, n: 0 },
        Outcome::Error(e) => Wire::Error(e.to_string()),
    }
}

/// Checks one input both ways; returns whether the one-shot parse was
/// accepted.
fn check(client: &mut Client, name: &str, vm: &VmParser, cfg: &Config, input: &[u8]) -> bool {
    let (result, stats) = vm.parse_bounded(input, cfg.max_steps);
    let accepted = result.is_ok();
    let want = match result {
        Ok(tree) => Wire::Done {
            steps: stats.steps,
            suspends: 0,
            nodes: tree.arena().len() as u32,
            bytes: input.len() as u64,
        },
        Err(e) => Wire::Error(e.to_string()),
    };
    assert_eq!(client.parse(name, input).expect("io"), want, "{name}: one-shot PARSE");

    let Wire::Opened { id } = client.open(name).expect("io") else { panic!("{name}: OPEN") };
    let mut session = vm.streaming().max_steps(cfg.max_steps).max_bytes(cfg.max_bytes);
    for (k, chunk) in input.chunks(CHUNK).enumerate() {
        let want = expected(session.feed(chunk), &session);
        assert_eq!(client.feed(id, chunk).expect("io"), want, "{name}: FEED {k}");
        if let Wire::Error(_) = want {
            // The session is over on both sides; FINISH only retires its id.
            let gone = client.finish(id).expect("io");
            assert!(matches!(&gone, Wire::Error(m) if m.contains("unknown session")), "{gone:?}");
            return accepted;
        }
    }
    let want = expected(session.finish(), &session);
    assert_eq!(client.finish(id).expect("io"), want, "{name}: FINISH");
    accepted
}

fn wire_lane(name: &str) {
    let cfg = Config::default();
    let server = Arc::new(Server::start(cfg.clone()));
    let path =
        std::env::temp_dir().join(format!("ipg-wire-oracle-{name}-{}.sock", std::process::id()));
    let front = server.serve_unix(&path).expect("bind socket");
    let mut client = Client::connect(&path).expect("connect");

    let entry = ipg_formats::registry::corpus_entry(name);
    let generator = Generator::new(entry.grammar());
    let (n_gens, n_mutants) = params();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for seed in 0..n_gens {
        let bytes = generator
            .generate_valid(seed)
            .unwrap_or_else(|| panic!("{name}: generation failed for seed {seed}"));
        assert!(check(&mut client, name, entry.vm(), &cfg, &bytes), "{name}: seed {seed}");
        accepted += 1;
        for m in 0..n_mutants {
            let mut mutant = bytes.clone();
            mutate(&mut mutant, seed, m);
            match check(&mut client, name, entry.vm(), &cfg, &mutant) {
                true => accepted += 1,
                false => rejected += 1,
            }
        }
    }
    assert!(rejected > 0, "{name}: no mutant was rejected, so no ERROR text was compared");
    assert_eq!(accepted + rejected, n_gens * (1 + n_mutants));

    let stats = server.stats();
    assert!(stats.reconciles(), "{name}: {stats:?}");
    assert_eq!(stats.live_sessions, 0, "{name}: every session ended");
    drop(client);
    drop(front);
    server.drain();
}

macro_rules! wire_lane {
    ($test:ident, $name:expr) => {
        #[test]
        fn $test() {
            wire_lane($name);
        }
    };
}

wire_lane!(wire_dns, "dns");
wire_lane!(wire_ipv4udp, "ipv4udp");
wire_lane!(wire_gif, "gif");
wire_lane!(wire_pe, "pe");
wire_lane!(wire_zip, "zip");
wire_lane!(wire_zip_inflate, "zip_inflate");
wire_lane!(wire_elf, "elf");
wire_lane!(wire_pdf, "pdf");
wire_lane!(wire_png, "png");
