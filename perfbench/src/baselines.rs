//! The paper's yardstick: IPG time divided by the time of the best
//! handwritten, Kaitai-style or Nail-style baseline on the same inputs.

use crate::inputs::Format;
use crate::measure::median;
use ipg_baselines::{handwritten, kaitai_style, nail_style};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A baseline parser reduced to its verdict.
type Baseline = fn(&[u8]) -> bool;

/// The baselines that do the same work as the IPG op on `format`.
fn baselines(format: Format) -> &'static [Baseline] {
    match format {
        Format::ZipInflate => &[|d| handwritten::unzip(d).is_ok()],
        Format::Zip => {
            &[|d| handwritten::parse_zip(d).is_ok(), |d| kaitai_style::parse_zip(d).is_ok()]
        }
        Format::Elf => {
            &[|d| handwritten::parse_elf(d).is_ok(), |d| kaitai_style::parse_elf(d).is_ok()]
        }
        Format::Gif => &[|d| kaitai_style::parse_gif(d).is_ok()],
        Format::Pe => &[|d| kaitai_style::parse_pe(d).is_ok()],
        Format::Dns => &[|d| nail_style::parse_dns(d).is_ok()],
        Format::Ipv4Udp => &[|d| nail_style::parse_ipv4_udp(d).is_ok()],
        Format::Pdf | Format::Png => &[],
    }
}

/// Whether `format` has a baseline to compare against.
pub fn covered(format: Format) -> bool {
    !baselines(format).is_empty()
}

/// Runs `batch` repeatedly until at least `min` has passed and returns
/// the time of one batch, ns.
fn time_batch(min: Duration, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || start.elapsed() < min {
        batch();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// How a round combines its groups into one ratio.
#[derive(Clone, Copy)]
pub enum Combine {
    /// Total IPG time over total best-baseline time.
    Total,
    /// The median over groups of each group's ratio — for inputs whose
    /// costs are heavy-tailed, where a few inputs would set the total.
    Median,
}

/// The gap measurement: per round, the IPG batch and every baseline batch
/// over each group of inputs, in alternating order so drift cancels; the
/// best baseline is chosen per group. Rounds accumulate across calls.
#[derive(Default)]
pub struct Gap {
    ratios: Vec<f64>,
    /// Best-baseline time per input, µs, per round.
    per_input: Vec<f64>,
}

impl Gap {
    /// Median over rounds of the combined IPG ÷ best-baseline ratio.
    pub fn ratio(&self) -> f64 {
        median(&self.ratios)
    }

    /// Median over rounds of the best-baseline time per input, µs.
    pub fn baseline_us(&self) -> f64 {
        median(&self.per_input)
    }

    pub fn rounds(&self) -> usize {
        self.ratios.len()
    }

    /// Adds rounds for `dur` (at least one) over `groups`, each a set of
    /// inputs of one covered format; `ipg` is the workload's own IPG op.
    pub fn measure(
        &mut self,
        groups: &[(Format, Vec<&[u8]>)],
        combine: Combine,
        dur: Duration,
        ipg: impl Fn(Format, &[u8]),
    ) {
        assert!(!groups.is_empty() && groups.iter().all(|(f, _)| covered(*f)), "uncovered inputs");
        let inputs: usize = groups.iter().map(|(_, g)| g.len()).sum();
        let min = Duration::from_micros(100);
        let deadline = Instant::now() + dur;
        let first = self.ratios.len();
        while self.ratios.len() == first || Instant::now() < deadline {
            let round = self.ratios.len();
            let mut times = Vec::with_capacity(groups.len());
            for (k, (format, group)) in groups.iter().enumerate() {
                let time_ipg =
                    || time_batch(min, || group.iter().for_each(|b| ipg(*format, black_box(b))));
                let time_best = || {
                    baselines(*format)
                        .iter()
                        .map(|base| {
                            time_batch(min, || {
                                group.iter().for_each(|b| {
                                    black_box(base(black_box(b)));
                                })
                            })
                        })
                        .fold(f64::INFINITY, f64::min)
                };
                times.push(if (round + k) % 2 == 0 {
                    (time_ipg(), time_best())
                } else {
                    let base = time_best();
                    (time_ipg(), base)
                });
            }
            let base_ns: f64 = times.iter().map(|t| t.1).sum();
            self.ratios.push(match combine {
                Combine::Total => times.iter().map(|t| t.0).sum::<f64>() / base_ns,
                Combine::Median => median(&times.iter().map(|t| t.0 / t.1).collect::<Vec<_>>()),
            });
            self.per_input.push(base_ns / inputs as f64 / 1e3);
        }
    }
}

/// Groups covered inputs by format, for [`Combine::Total`].
pub fn by_format<'a>(
    inputs: impl IntoIterator<Item = (Format, &'a [u8])>,
) -> Vec<(Format, Vec<&'a [u8]>)> {
    let mut groups: Vec<(Format, Vec<&[u8]>)> = Vec::new();
    for (format, bytes) in inputs.into_iter().filter(|(f, _)| covered(*f)) {
        match groups.iter_mut().find(|(f, _)| *f == format) {
            Some((_, g)) => g.push(bytes),
            None => groups.push((format, vec![bytes])),
        }
    }
    groups
}
