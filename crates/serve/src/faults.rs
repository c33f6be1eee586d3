//! Deterministic worker-fault injection for the serving layer.
//!
//! `deco-faults` models what the *cloud* does to a running plan; this
//! module models what the *machine room* does to the plan server itself:
//! solver workers that crash mid-solve or straggle through a cycle. The
//! discipline is the same as `deco_faults::FaultInjector`'s per-slot
//! fates — every draw is a domain-separated
//! [`StableHasher`] digest of the plan
//! seed, so a fault schedule is a pure value: identical across platforms,
//! Rust releases, and (crucially) *physical worker counts*.
//!
//! Fates are keyed by **(virtual worker, cycle)**, not by OS thread. Jobs
//! are assigned to a fixed-size pool of virtual workers in canonical
//! content-key order, so which fate a job draws is independent of how
//! many real threads happen to drain the solve channel. That is what
//! keeps the serving layer's signature invariant — byte-identical
//! response streams at 1, 2, or 8 workers — intact under injected
//! failures.

use deco_prob::hash::StableHasher;
use deco_prob::rng::splitmix64;
use std::hash::Hasher;

/// What happens to one virtual worker in one solve cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerFate {
    /// The worker completes its jobs normally.
    Healthy,
    /// The worker dies mid-solve: every job assigned to it this cycle is
    /// lost and must be re-enqueued (with backoff) or escalated.
    Crash,
    /// The worker finishes, but late: each of its jobs charges this many
    /// extra device-model ticks of service time.
    Straggler(f64),
}

/// A seeded, reproducible schedule of worker fates.
#[derive(Debug, Clone)]
pub struct WorkerFaultPlan {
    /// Root seed; every fate draw is a domain-separated digest of it.
    pub seed: u64,
    /// Probability a (virtual worker, cycle) pair crashes.
    pub crash_prob: f64,
    /// Probability a surviving (virtual worker, cycle) pair straggles.
    pub straggler_prob: f64,
    /// Mean extra service ticks of a straggling worker (exponential-ish:
    /// scaled by a uniform draw in `[0, 2)` so the mean is this value).
    pub straggler_mean_ticks: f64,
    /// Size of the virtual worker pool fates are keyed on. Independent of
    /// the physical pool so the schedule is worker-count-invariant.
    pub virtual_workers: usize,
}

impl Default for WorkerFaultPlan {
    /// The default plan is the quiescent one: no faults ever.
    fn default() -> Self {
        WorkerFaultPlan::quiescent()
    }
}

impl WorkerFaultPlan {
    /// The empty plan: every fate is [`WorkerFate::Healthy`] and the
    /// server's fault machinery short-circuits to the exact pre-fault
    /// code path (bit-identical output, pinned by the chaos tests).
    pub fn quiescent() -> Self {
        WorkerFaultPlan {
            seed: 0,
            crash_prob: 0.0,
            straggler_prob: 0.0,
            straggler_mean_ticks: 0.0,
            virtual_workers: 8,
        }
    }

    /// A plan that crashes each (virtual worker, cycle) pair with
    /// probability `crash_prob` and nothing else.
    pub fn crashes(seed: u64, crash_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&crash_prob), "probabilities in [0,1]");
        WorkerFaultPlan {
            seed,
            crash_prob,
            ..WorkerFaultPlan::quiescent()
        }
    }

    /// True when no fate can ever be drawn — the server's fast path.
    pub fn is_quiescent(&self) -> bool {
        self.crash_prob == 0.0 && self.straggler_prob == 0.0
    }

    /// Domain-separated uniform draw in `[0, 1)`.
    fn unit(&self, domain: &str, cycle: u64, vworker: u64) -> f64 {
        let mut h = StableHasher::with_seed(self.seed ^ 0x5EE7_FA7E);
        h.write(domain.as_bytes());
        h.write_u64(cycle);
        h.write_u64(vworker);
        (splitmix64(h.finish()) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fate of virtual worker `vworker` in solve cycle `cycle`.
    /// Fixed draw order (crash, then straggle, then delay) so fates stay
    /// stable as the model changes shape — the same discipline as
    /// `deco_faults::FaultInjector::slot_fate`.
    pub fn fate(&self, cycle: u64, vworker: usize) -> WorkerFate {
        if self.is_quiescent() {
            return WorkerFate::Healthy;
        }
        let v = vworker as u64;
        if self.unit("crash", cycle, v) < self.crash_prob {
            return WorkerFate::Crash;
        }
        if self.unit("straggle", cycle, v) < self.straggler_prob {
            let delay = self.straggler_mean_ticks * 2.0 * self.unit("delay", cycle, v);
            return WorkerFate::Straggler(delay);
        }
        WorkerFate::Healthy
    }

    /// The virtual worker a job lands on, given its rank in the cycle's
    /// canonical (content-key-ordered) job list.
    pub fn assign(&self, job_rank: usize) -> usize {
        job_rank % self.virtual_workers.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_plans_never_draw_a_fate() {
        let p = WorkerFaultPlan::quiescent();
        assert!(p.is_quiescent());
        for cycle in 0..50 {
            for w in 0..8 {
                assert_eq!(p.fate(cycle, w), WorkerFate::Healthy);
            }
        }
    }

    #[test]
    fn fates_are_reproducible_per_seed_and_decorrelate_across_seeds() {
        let a = WorkerFaultPlan::crashes(7, 0.3);
        let b = WorkerFaultPlan::crashes(7, 0.3);
        let c = WorkerFaultPlan::crashes(8, 0.3);
        let draw = |p: &WorkerFaultPlan| -> Vec<WorkerFate> {
            (0..200).map(|i| p.fate(i / 8, (i % 8) as usize)).collect()
        };
        assert_eq!(draw(&a), draw(&b), "same seed, same schedule");
        assert_ne!(draw(&a), draw(&c), "different seed decorrelates");
    }

    #[test]
    fn crash_rate_tracks_the_probability() {
        let p = WorkerFaultPlan::crashes(3, 0.1);
        let n = 4000;
        let crashes = (0..n)
            .filter(|&i| p.fate(i / 8, (i % 8) as usize) == WorkerFate::Crash)
            .count();
        let rate = crashes as f64 / n as f64;
        assert!(
            (rate - 0.1).abs() < 0.02,
            "10% crash plan crashed at rate {rate}"
        );
    }

    #[test]
    fn stragglers_charge_bounded_positive_delays() {
        let p = WorkerFaultPlan {
            straggler_prob: 1.0,
            straggler_mean_ticks: 50.0,
            ..WorkerFaultPlan::crashes(5, 0.0)
        };
        for cycle in 0..100 {
            match p.fate(cycle, 0) {
                WorkerFate::Straggler(d) => {
                    assert!((0.0..100.0).contains(&d), "delay {d} out of range")
                }
                other => panic!("straggler_prob 1.0 must straggle, got {other:?}"),
            }
        }
    }

    #[test]
    fn assignment_is_round_robin_over_virtual_workers() {
        let p = WorkerFaultPlan::quiescent();
        assert_eq!(p.assign(0), 0);
        assert_eq!(p.assign(7), 7);
        assert_eq!(p.assign(8), 0);
        assert_eq!(p.assign(19), 3);
    }
}
