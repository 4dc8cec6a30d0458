//! Shared plumbing for the `bench_*` report binaries: the
//! `--quick`/`--out` command line, the warmup-then-batch timing loop, and
//! the `BENCH_*.json` report envelope. Every report binary
//! (`bench_inflate`, `bench_conform`)
//! parses the same flags and emits the same envelope shape:
//!
//! ```json
//! {
//!   "schema": "ipg-bench-<name>/1",
//!   "quick": false,
//!   "results": [ ... one object per row ... ],
//!   "<trailing summary fields>": ...
//! }
//! ```

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Parsed command line of a report binary: the shared `--quick` /
/// `--out PATH` flags plus any binary-specific `--flag VALUE` extras
/// declared by the caller.
pub struct Cli {
    /// CI-smoke mode: smaller budgets, gates warn instead of failing.
    pub quick: bool,
    /// Report path (each binary supplies its default).
    pub out: String,
    values: Vec<(&'static str, String)>,
}

impl Cli {
    /// Parses `std::env::args`. `value_flags` declares extra flags that
    /// take one value (e.g. `&["--seed", "--corpus-dir"]`); unknown flags
    /// exit with status 2 and a usage hint.
    pub fn parse(default_out: &str, value_flags: &'static [&'static str]) -> Cli {
        let mut cli = Cli { quick: false, out: default_out.to_owned(), values: Vec::new() };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--out" => cli.out = it.next().expect("--out requires a path"),
                flag => {
                    if let Some(f) = value_flags.iter().find(|f| **f == flag) {
                        let v = it.next().unwrap_or_else(|| panic!("{f} requires a value"));
                        cli.values.push((f, v));
                    } else {
                        let extras: Vec<String> =
                            value_flags.iter().map(|f| format!(" / {f} VALUE")).collect();
                        eprintln!(
                            "unknown flag `{flag}` (expected --quick / --out PATH{})",
                            extras.concat()
                        );
                        std::process::exit(2);
                    }
                }
            }
        }
        cli
    }

    /// The value of a declared extra flag, if it was passed.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// A measurement budget: `quick_ms` in quick mode, `full_ms`
    /// otherwise.
    pub fn budget(&self, quick_ms: u64, full_ms: u64) -> Duration {
        Duration::from_millis(if self.quick { quick_ms } else { full_ms })
    }
}

/// Mean seconds per call: warm up for a quarter of the budget, then batch
/// calls until the budget elapses.
pub fn measure<F: FnMut()>(budget: Duration, mut f: F) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < budget / 4 || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// [`measure`], repeated `rounds` times, keeping the fastest mean — the
/// robust statistic on noisy shared machines (delays only ever add time,
/// so the minimum is the closest estimate of the true cost).
pub fn measure_best<F: FnMut()>(rounds: u32, budget: Duration, mut f: F) -> f64 {
    (0..rounds.max(1)).map(|_| measure(budget, &mut f)).fold(f64::INFINITY, f64::min)
}

/// Guards the report's unescaped string interpolations: the row builders
/// write names into JSON literally, which is only sound for this
/// character set.
pub fn assert_json_literal(s: &str) {
    assert!(
        s.chars().all(|c| c.is_ascii_alphanumeric() || "/_.-".contains(c)),
        "`{s}` is not JSON-literal-safe (escaping is deliberately unimplemented)"
    );
}

/// A `BENCH_*.json` report under construction. Field order is insertion
/// order: header, then each call in sequence, then the closing brace.
pub struct Report {
    json: String,
    has_fields: bool,
}

impl Report {
    /// Opens the envelope with the shared `schema` and `quick` fields.
    pub fn new(schema: &str, quick: bool) -> Report {
        assert_json_literal(schema);
        let mut r = Report { json: String::from("{\n"), has_fields: false };
        r.field("schema", format!("\"{schema}\""));
        r.field("quick", quick);
        r
    }

    /// Appends one top-level field; `value` must already be valid JSON
    /// (numbers and booleans are; strings need quotes).
    pub fn field(&mut self, key: &str, value: impl Display) {
        assert_json_literal(key);
        if self.has_fields {
            self.json.push_str(",\n");
        }
        self.json.push_str(&format!("  \"{key}\": {value}"));
        self.has_fields = true;
    }

    /// Appends the conventional `results` array; each row must be a
    /// complete JSON object (the binaries format rows with their own
    /// precision).
    pub fn results<I>(&mut self, rows: I)
    where
        I: IntoIterator,
        I::Item: Display,
    {
        self.array("results", rows);
    }

    /// Appends a named array of pre-rendered JSON values.
    pub fn array<I>(&mut self, key: &str, rows: I)
    where
        I: IntoIterator,
        I::Item: Display,
    {
        assert_json_literal(key);
        if self.has_fields {
            self.json.push_str(",\n");
        }
        self.json.push_str(&format!("  \"{key}\": [\n"));
        let rows: Vec<String> = rows.into_iter().map(|r| r.to_string()).collect();
        for (i, row) in rows.iter().enumerate() {
            self.json.push_str("    ");
            self.json.push_str(row);
            self.json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        self.json.push_str("  ]");
        self.has_fields = true;
    }

    /// Closes the envelope, writes it to `path`, and prints the
    /// conventional `wrote <path>` line.
    ///
    /// # Panics
    ///
    /// If the file cannot be written.
    pub fn write(mut self, path: &str) {
        self.json.push_str("\n}\n");
        std::fs::write(path, &self.json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_envelope_shape() {
        let mut r = Report::new("ipg-bench-test/1", true);
        r.results(["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()]);
        r.field("summary", format!("{:.2}", 1.5));
        r.json.push_str("\n}\n");
        let s = r.json;
        assert!(s.starts_with("{\n  \"schema\": \"ipg-bench-test/1\",\n  \"quick\": true,"));
        assert!(s.contains("\"results\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]"));
        assert!(s.ends_with("\"summary\": 1.50\n}\n"));
    }

    #[test]
    #[should_panic(expected = "not JSON-literal-safe")]
    fn literal_guard_rejects_quotes() {
        assert_json_literal("evil\"name");
    }
}
