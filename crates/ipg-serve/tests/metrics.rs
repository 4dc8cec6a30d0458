//! Observability integration tests: a strict Prometheus text-format
//! parser round-trips every metric the server exposes (names, labels,
//! `_bucket`/`_sum`/`_count` triplets, duplicate-series rejection), the
//! scrape reconciles the admission ledger, the `METRICS` protocol frame
//! and the HTTP endpoint agree with the in-process gather, and the trace
//! log captures admit → dispatch → done spans for real traffic.

use ipg_serve::proto::Wire;
use ipg_serve::trace::TraceLog;
use ipg_serve::{Config, Server};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

fn dns_input() -> Vec<u8> {
    ipg_corpus::dns::generate(&Default::default()).bytes
}

/// One parsed sample: metric name, sorted label pairs, value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// A strictly parsed exposition: families (`# TYPE`) and samples.
struct Exposition {
    types: BTreeMap<String, String>,
    helps: BTreeMap<String, String>,
    samples: Vec<Sample>,
}

fn is_name(s: &str) -> bool {
    let mut cs = s.chars();
    matches!(cs.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && cs.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses one `name{label="value",...} value` sample line, panicking
/// with a precise message on any deviation from the text format.
fn parse_sample(line: &str) -> Sample {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
    let value: f64 = if value == "+Inf" {
        f64::INFINITY
    } else {
        value.parse().unwrap_or_else(|_| panic!("bad value in: {line}"))
    };
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').unwrap_or_else(|| panic!("unclosed labels: {line}"));
            let mut labels = BTreeMap::new();
            for pair in body.split(',') {
                let (k, v) = pair.split_once('=').unwrap_or_else(|| panic!("bad label: {line}"));
                assert!(is_name(k), "bad label name `{k}` in: {line}");
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .unwrap_or_else(|| panic!("unquoted label value in: {line}"));
                assert!(
                    labels.insert(k.to_string(), v.to_string()).is_none(),
                    "duplicate label `{k}` in: {line}"
                );
            }
            (name.to_string(), labels)
        }
    };
    assert!(is_name(&name), "invalid metric name `{name}` in: {line}");
    Sample { name, labels, value }
}

/// Strict parse of a whole exposition. Rejects: samples without a
/// preceding TYPE/HELP for their family, unknown TYPE values, duplicate
/// TYPE/HELP lines, and duplicate series (same name + same label set).
fn parse_exposition(text: &str) -> Exposition {
    let mut types = BTreeMap::new();
    let mut helps = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    for line in text.lines() {
        assert_eq!(line.trim_end(), line, "trailing whitespace: {line:?}");
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP without text");
            assert!(is_name(name), "bad HELP name {name}");
            assert!(!help.is_empty());
            assert!(helps.insert(name.to_string(), help.to_string()).is_none(), "dup HELP {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').expect("TYPE without kind");
            assert!(is_name(name), "bad TYPE name {name}");
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped"),
                "unknown TYPE `{ty}` for {name}"
            );
            assert!(types.insert(name.to_string(), ty.to_string()).is_none(), "dup TYPE {name}");
        } else if line.starts_with('#') {
            panic!("unknown comment form: {line}");
        } else {
            let s = parse_sample(line);
            // The family is the sample name with histogram suffixes
            // stripped; every sample must belong to a declared family.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| s.name.strip_suffix(suf).filter(|f| types.contains_key(*f)))
                .unwrap_or(&s.name)
                .to_string();
            assert!(types.contains_key(&family), "sample without TYPE: {line}");
            let key = format!("{}{:?}", s.name, s.labels);
            assert!(seen_series.insert(key), "duplicate series: {line}");
            samples.push(s);
        }
    }
    assert_eq!(types.len(), helps.len(), "every family needs both HELP and TYPE");
    Exposition { types, helps, samples }
}

impl Exposition {
    fn value(&self, name: &str) -> f64 {
        let matches: Vec<&Sample> = self.samples.iter().filter(|s| s.name == name).collect();
        assert_eq!(matches.len(), 1, "expected exactly one `{name}` sample");
        matches[0].value
    }

    /// Checks one histogram family's triplet: cumulative monotone
    /// buckets ending in `+Inf`, with `_count` equal to the `+Inf`
    /// bucket and a `_sum` sample present.
    fn check_histogram(&self, name: &str) {
        assert_eq!(self.types.get(name).map(String::as_str), Some("histogram"));
        let buckets: Vec<&Sample> =
            self.samples.iter().filter(|s| s.name == format!("{name}_bucket")).collect();
        assert!(!buckets.is_empty(), "{name} has no buckets");
        let mut prev = 0.0;
        for b in &buckets {
            let le = b.labels.get("le").unwrap_or_else(|| panic!("{name} bucket without le"));
            if le != "+Inf" {
                le.parse::<f64>().unwrap_or_else(|_| panic!("bad le `{le}`"));
            }
            assert!(b.value >= prev, "{name} buckets must be cumulative");
            prev = b.value;
        }
        let last = buckets.last().unwrap();
        assert_eq!(last.labels.get("le").map(String::as_str), Some("+Inf"));
        assert_eq!(last.value, self.value(&format!("{name}_count")), "{name}: +Inf != _count");
        self.value(&format!("{name}_sum"));
    }
}

/// Every stats counter must surface in the scrape under its metric name
/// — the exhaustive list that keeps the exposition honest as counters
/// are added.
const EXPECTED: &[&str] = &[
    "ipg_parses_ok_total",
    "ipg_parses_err_total",
    "ipg_sessions_opened_total",
    "ipg_sessions_closed_total",
    "ipg_sessions_evicted_total",
    "ipg_sessions_sealed_total",
    "ipg_live_sessions",
    "ipg_bytes_in_total",
    "ipg_vm_steps_total",
    "ipg_suspends_total",
    "ipg_steals_total",
    "ipg_requests_submitted_total",
    "ipg_requests_completed_total",
    "ipg_requests_shed_total",
    "ipg_requests_failed_total",
    "ipg_requests_in_flight",
    "ipg_panics_recovered_total",
    "ipg_reloads_ok_total",
    "ipg_reloads_rejected_total",
    "ipg_artifacts_quarantined_total",
];

#[test]
fn scrape_round_trips_every_metric_and_reconciles() {
    let server = Server::start(Config { workers: 2, ..Config::default() });
    let input = dns_input();
    for _ in 0..10 {
        server.parse("dns", input.clone()).expect("dns parses");
    }
    server.parse("zip", b"junk".to_vec()).expect_err("junk fails");

    let exp = parse_exposition(&server.metrics_text());
    for name in EXPECTED {
        assert!(
            exp.types.contains_key(*name),
            "metric `{name}` missing from the scrape (families: {:?})",
            exp.types.keys().collect::<Vec<_>>()
        );
        assert!(exp.helps.contains_key(*name), "metric `{name}` has no HELP text");
    }
    exp.check_histogram("ipg_request_latency_us");
    // Per-worker queue depth: one labeled series per worker.
    let depths: Vec<&Sample> = exp.samples.iter().filter(|s| s.name == "ipg_queue_depth").collect();
    assert_eq!(depths.len(), 2, "one queue-depth series per worker");
    for (w, d) in depths.iter().enumerate() {
        assert_eq!(d.labels.get("worker").map(String::as_str), Some(w.to_string().as_str()));
    }
    // Scrape-time ledger: the identity holds on every scrape because
    // in_flight is defined as the gap.
    assert_eq!(
        exp.value("ipg_requests_submitted_total"),
        exp.value("ipg_requests_completed_total")
            + exp.value("ipg_requests_shed_total")
            + exp.value("ipg_requests_failed_total")
            + exp.value("ipg_requests_in_flight"),
        "ledger must reconcile at scrape time"
    );
    assert_eq!(exp.value("ipg_parses_ok_total"), 10.0);
    assert_eq!(exp.value("ipg_parses_err_total"), 1.0);
    assert_eq!(
        exp.value("ipg_request_latency_us_count"),
        exp.value("ipg_requests_submitted_total"),
        "every classified request records exactly one latency observation"
    );
    server.shutdown();
}

#[test]
fn metrics_protocol_frame_matches_in_process_gather() {
    let server = Arc::new(Server::start(Config { workers: 1, ..Config::default() }));
    let dir = std::env::temp_dir().join(format!("ipg-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("metrics.sock");
    let front = server.serve_unix(&sock).expect("bind socket");
    let mut client =
        ipg_serve::proto::Client::connect_with_retry(&sock, &Default::default()).expect("connect");
    match client.parse("dns", &dns_input()).expect("io") {
        Wire::Done { .. } => {}
        other => panic!("expected Done, got {other:?}"),
    }
    let text = match client.metrics().expect("io") {
        Wire::Metrics(text) => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    let exp = parse_exposition(&text);
    assert_eq!(exp.value("ipg_parses_ok_total"), 1.0);
    exp.check_histogram("ipg_request_latency_us");
    drop(front);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_endpoint_serves_a_parseable_scrape() {
    use std::io::{Read, Write};
    let server = Server::start(Config { workers: 1, ..Config::default() });
    server.parse("dns", dns_input()).expect("dns parses");
    let addr = server.serve_metrics("127.0.0.1:0").expect("bind metrics");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("http head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    let exp = parse_exposition(body);
    assert_eq!(exp.value("ipg_parses_ok_total"), 1.0);
    exp.check_histogram("ipg_request_latency_us");
    server.shutdown();
}

#[test]
fn duplicate_series_are_rejected_by_the_strict_parser() {
    let text = "# HELP x_total X.\n# TYPE x_total counter\nx_total 1\nx_total 2\n";
    let caught = std::panic::catch_unwind(|| parse_exposition(text));
    assert!(caught.is_err(), "duplicate series must be rejected");
    let labeled = "# HELP y Y.\n# TYPE y gauge\ny{a=\"1\"} 1\ny{a=\"1\"} 2\n";
    let caught = std::panic::catch_unwind(|| parse_exposition(labeled));
    assert!(caught.is_err(), "duplicate labeled series must be rejected");
    // Distinct label values are distinct series — accepted.
    let ok = "# HELP y Y.\n# TYPE y gauge\ny{a=\"1\"} 1\ny{a=\"2\"} 2\n";
    assert_eq!(parse_exposition(ok).samples.len(), 2);
}

#[test]
fn trace_log_threads_spans_from_admission_to_completion() {
    let trace = Arc::new(TraceLog::new(4096));
    let server =
        Server::start(Config { workers: 2, trace: Some(Arc::clone(&trace)), ..Config::default() });
    server.parse("dns", dns_input()).expect("dns parses");
    server.parse("zip", b"junk".to_vec()).expect_err("junk fails");
    let lines = trace.drain();
    // Each of the two requests produced admit + dispatch + done.
    assert_eq!(lines.len(), 6, "{lines:?}");
    let admits: Vec<&String> = lines.iter().filter(|l| l.contains("\"event\":\"admit\"")).collect();
    assert_eq!(admits.len(), 2);
    // Every admit's span also has a dispatch and a terminal done.
    for admit in admits {
        let span_field =
            admit.split("\"span\":").nth(1).and_then(|r| r.split(',').next()).expect("span field");
        let span = format!("\"span\":{span_field}");
        assert!(
            lines.iter().any(|l| l.contains(&span) && l.contains("\"event\":\"dispatch\"")),
            "span {span_field} never dispatched: {lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains(&span) && l.contains("\"event\":\"done\"")),
            "span {span_field} never completed: {lines:?}"
        );
    }
    // The failed parse is classified `error` in its done event.
    assert!(lines.iter().any(|l| l.contains("\"outcome\":\"error\"")));
    assert!(lines.iter().any(|l| l.contains("\"outcome\":\"done\"")));
    // Trace counters surface in the scrape when tracing is enabled.
    let text = server.metrics_text();
    assert!(text.contains("ipg_trace_events_total"), "trace metrics registered");
    server.shutdown();
}
