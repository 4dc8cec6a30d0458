//! Deterministic fault injection for the chaos harness.
//!
//! A [`FaultPlan`] is a seeded, rate-based schedule of failures the
//! service must survive: request panics (exercising the `catch_unwind`
//! request boundary), artificial stalls (exercising the in-flight bound,
//! deadlines, and shedding), and corrupt reply frames (exercising
//! client-side frame validation). Each injection decision is a pure
//! function of `(seed, draw-counter)` — a SplitMix64 stream — so a given
//! plan injects the *same multiset of faults* for a given number of draws
//! regardless of how the serving threads interleave, and a failing soak
//! reproduces from its seed alone.
//!
//! The plan is wired into [`crate::Config::faults`]; production servers
//! run with `None` and pay a single `Option` check per request. Tests and
//! the chaos soak build plans with [`FaultPlan::new`] + rate setters, or from
//! the environment via [`FaultPlan::from_env`] (`IPG_FAULT_SEED`,
//! `IPG_FAULT_PANIC_PM`, `IPG_FAULT_STALL_PM`, `IPG_FAULT_CORRUPT_PM`,
//! all rates in per-mille).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to inject before executing one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Execute normally.
    None,
    /// Panic inside the request (must be caught, typed, and survived).
    Panic,
    /// Sleep for the given duration first (in-flight pressure / latency).
    Stall(Duration),
}

/// A seeded fault schedule. Rates are per-mille (0–1000) per draw; the
/// server draws once per admitted request, the transport once per reply
/// frame.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    panic_pm: u32,
    stall_pm: u32,
    stall_max_ms: u64,
    corrupt_pm: u32,
    draws: AtomicU64,
    panics: AtomicU64,
    stalls: AtomicU64,
    corruptions: AtomicU64,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing until rates are set.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_pm: 0,
            stall_pm: 0,
            stall_max_ms: 5,
            corrupt_pm: 0,
            draws: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// Per-mille rate of injected request panics.
    #[must_use]
    pub fn panic_per_mille(mut self, pm: u32) -> Self {
        self.panic_pm = pm.min(1000);
        self
    }

    /// Per-mille rate of injected stalls, each up to `max_ms` long.
    #[must_use]
    pub fn stall_per_mille(mut self, pm: u32, max_ms: u64) -> Self {
        self.stall_pm = pm.min(1000);
        self.stall_max_ms = max_ms.max(1);
        self
    }

    /// Per-mille rate of corrupted reply frames on the wire.
    #[must_use]
    pub fn corrupt_per_mille(mut self, pm: u32) -> Self {
        self.corrupt_pm = pm.min(1000);
        self
    }

    /// Builds a plan from `IPG_FAULT_*` environment variables; `None`
    /// when no variable is set (the production default).
    pub fn from_env() -> Option<FaultPlan> {
        fn var(name: &str) -> Option<u64> {
            std::env::var(name).ok()?.parse().ok()
        }
        let seed = var("IPG_FAULT_SEED");
        let panic_pm = var("IPG_FAULT_PANIC_PM");
        let stall_pm = var("IPG_FAULT_STALL_PM");
        let corrupt_pm = var("IPG_FAULT_CORRUPT_PM");
        if seed.is_none() && panic_pm.is_none() && stall_pm.is_none() && corrupt_pm.is_none() {
            return None;
        }
        let mut plan = FaultPlan::new(seed.unwrap_or(0xC4A05));
        if let Some(pm) = panic_pm {
            plan = plan.panic_per_mille(pm as u32);
        }
        if let Some(pm) = stall_pm {
            plan = plan.stall_per_mille(pm as u32, 5);
        }
        if let Some(pm) = corrupt_pm {
            plan = plan.corrupt_per_mille(pm as u32);
        }
        Some(plan)
    }

    /// One random draw: deterministic in the draw counter.
    fn draw(&self) -> u64 {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ splitmix64(n))
    }

    /// The decision for the next admitted request.
    pub fn next_request_fault(&self) -> Fault {
        let r = self.draw();
        let roll = (r % 1000) as u32;
        if roll < self.panic_pm {
            self.panics.fetch_add(1, Ordering::Relaxed);
            return Fault::Panic;
        }
        if roll < self.panic_pm + self.stall_pm {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            let ms = (r >> 10) % self.stall_max_ms + 1;
            return Fault::Stall(Duration::from_millis(ms));
        }
        Fault::None
    }

    /// The transport-side decision for the next reply frame.
    pub fn corrupt_next_reply(&self) -> bool {
        let corrupt = (self.draw() % 1000) as u32 >= 1000 - self.corrupt_pm;
        if corrupt {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
        }
        corrupt
    }

    /// Panics injected so far.
    pub fn panics_injected(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Stalls injected so far.
    pub fn stalls_injected(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Reply frames corrupted so far.
    pub fn corruptions_injected(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Total faults injected so far (panics + stalls + corruptions).
    pub fn injected(&self) -> u64 {
        self.panics_injected() + self.stalls_injected() + self.corruptions_injected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_counts_are_deterministic_per_seed_and_draws() {
        let counts = |seed: u64| {
            let plan = FaultPlan::new(seed).panic_per_mille(100).stall_per_mille(100, 3);
            for _ in 0..2000 {
                let _ = plan.next_request_fault();
            }
            (plan.panics_injected(), plan.stalls_injected())
        };
        assert_eq!(counts(42), counts(42), "same seed, same schedule");
        let (p, s) = counts(42);
        // ~10% each over 2000 draws; a wide band that only a broken
        // stream could escape.
        assert!((100..=320).contains(&p), "panic count {p} out of band");
        assert!((100..=320).contains(&s), "stall count {s} out of band");
        assert_ne!(counts(42), counts(43), "different seeds differ");
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let plan = FaultPlan::new(7);
        for _ in 0..500 {
            assert_eq!(plan.next_request_fault(), Fault::None);
            assert!(!plan.corrupt_next_reply());
        }
        assert_eq!(plan.injected(), 0);
    }
}
