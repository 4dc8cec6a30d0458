//! Timing statistics and the in-memory span recorder of the traced run.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of `sorted`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Time of [`reference_ns`] at the reference speed, ns: about its median
/// on the machine the bounds were set on (a 2-vCPU VM on an Intel Xeon at
/// 2.0 GHz, pinned to one vCPU).
pub const REFERENCE_NS: f64 = 150_000.0;

/// A fixed computation timed between passes to track the machine's own
/// speed: tokenizing 16 KiB of seeded text into a hash map, so branches,
/// hashing and small allocations in about the proportions of a parse.
/// This machine's speed swings by 2x and more for minutes at a time;
/// timings are scaled by `REFERENCE_NS / reference_ns()` measured next to
/// them, so they read as on a machine of reference speed.
pub fn reference_ns() -> u64 {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    let text = TEXT.get_or_init(|| {
        (0..16384u64)
            .map(|i| match crate::inputs::mix(i, 0x7e47, 0) % 8 {
                0 => b' ',
                r => b'a' + (r * 3 + i % 5) as u8,
            })
            .collect()
    });
    let t = Instant::now();
    let mut counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut h = 0u64;
    for &b in black_box(text.as_slice()) {
        if b == b' ' {
            if h != 0 {
                *counts.entry(h).or_insert(0) += 1;
            }
            h = 0;
        } else {
            h = h.wrapping_mul(31).wrapping_add(u64::from(b));
        }
    }
    black_box(counts.len());
    ns_since(t)
}

/// Ops per window: whole passes totalling at least this many ops, so
/// each window holds the full mix and 50 samples above its p99.
const WINDOW_OPS: usize = 5000;

/// One window of consecutive passes, its times scaled to reference speed.
pub struct Window {
    pub ops: u64,
    pub bytes: u64,
    pub busy_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// The machine's speed relative to the reference speed.
    pub speed: f64,
}

/// A closed-loop run: ops grouped into windows, plus the per-pass
/// throughputs that compare traced with untraced passes.
#[derive(Default)]
pub struct Run {
    pub windows: Vec<Window>,
    /// Latencies, input bytes and reference times of the window being filled.
    open: Vec<u64>,
    open_bytes: u64,
    open_refs: Vec<f64>,
    /// Ops per busy second of each untraced and each traced pass.
    pub pass_rates: Vec<f64>,
    pub traced_rates: Vec<f64>,
    /// Sum of every untraced op's latency, ns, and their count.
    total_ns: u64,
    timed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    /// Ends a pass with its ops' latencies (ns), input bytes, and the time
    /// of [`reference_ns`] measured just before it.
    pub fn end_pass(&mut self, latencies: &[u64], bytes: u64, reference: u64, traced: bool) {
        let busy: u64 = latencies.iter().sum();
        let rate = latencies.len() as f64 * 1e9 / busy as f64;
        if traced {
            self.traced_rates.push(rate);
            return;
        }
        self.pass_rates.push(rate);
        self.total_ns += busy;
        self.timed += latencies.len() as u64;
        self.open.extend_from_slice(latencies);
        self.open_bytes += bytes;
        self.open_refs.push(reference as f64);
        if self.open.len() >= WINDOW_OPS {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let mut v = std::mem::take(&mut self.open);
        v.sort_unstable();
        let speed = REFERENCE_NS / median(&std::mem::take(&mut self.open_refs));
        self.windows.push(Window {
            ops: v.len() as u64,
            bytes: std::mem::take(&mut self.open_bytes),
            busy_ns: v.iter().sum::<u64>() as f64 * speed,
            p50_ns: percentile(&v, 0.50) as f64 * speed,
            p99_ns: percentile(&v, 0.99) as f64 * speed,
            speed,
        });
    }

    /// Closes a last, short window if the run filled none.
    pub fn finish(&mut self) {
        if self.windows.is_empty() && !self.open.is_empty() {
            self.close_window();
        }
    }

    fn median_of(&self, per_window: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(per_window).collect::<Vec<_>>())
    }

    /// Median over windows of ops per busy second, at reference speed.
    pub fn ops_per_s(&self) -> f64 {
        self.median_of(|w| w.ops as f64 * 1e9 / w.busy_ns)
    }

    /// Median over windows of input MB (10^6 bytes) per busy second, at
    /// reference speed.
    pub fn mb_per_s(&self) -> f64 {
        self.median_of(|w| w.bytes as f64 * 1e3 / w.busy_ns)
    }

    /// Medians over windows of the window p50 and p99 latency, µs, at
    /// reference speed.
    pub fn percentiles_us(&self) -> (f64, f64) {
        (self.median_of(|w| w.p50_ns / 1e3), self.median_of(|w| w.p99_ns / 1e3))
    }

    /// Median over windows of the machine's speed relative to reference.
    pub fn speed(&self) -> f64 {
        self.median_of(|w| w.speed)
    }

    /// Ops timed outside spans.
    pub fn timed(&self) -> u64 {
        self.timed
    }

    /// Mean op latency over every untraced op, µs, as measured.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.timed as f64 / 1e3
    }
}

/// One recorded call into a layer.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory for the whole traced run and written out at exit.
/// A layer's self time is its span minus the time its child spans cover.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    pub fn new(cap: usize) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(cap), cap }
    }

    /// Whether the recorder is full; callers stop opening spans then.
    pub fn is_full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Runs `f` inside a span of `layer` and returns its result and the
    /// span id (a parent for the spans of nested layers).
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (r, id)
    }

    /// Per layer: (summed self time ns, span count).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(children[s.id as usize]);
            let e = out.entry(s.layer).or_insert((0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent op layer start_ns end_ns` (parent `-` for roots).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tlayer\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(w, "{}\t{parent}\t{}\t{}\t{}\t{}", s.id, s.op, s.layer, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(8);
        let ((), outer) =
            t.span("outer", 0, None, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("inner", 0, Some(outer), || std::thread::sleep(std::time::Duration::from_millis(1)));
        let st = t.self_times();
        let outer_self = st["outer"].0;
        let inner = st["inner"].0;
        assert!(inner >= 1_000_000);
        assert!(outer_self < 2_000_000 + 1_000_000 && outer_self + inner >= 2_000_000);
    }
}
