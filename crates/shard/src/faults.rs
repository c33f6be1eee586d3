//! Deterministic shard crash/restart injection.
//!
//! The serving layer already injects solver-worker faults
//! ([`deco_serve::WorkerFaultPlan`]); this module injects the next
//! failure domain up: a whole shard process dying and restarting between
//! solve cycles. Draws follow the same discipline — a domain-separated
//! [`StableHasher`] digest of the seed,
//! keyed by **(shard, cycle)** — so a restart schedule is a pure value:
//! identical across platforms and physical thread counts, and
//! independent of which requests the trace happens to contain.
//!
//! Restarts land at cycle boundaries (the engine's
//! `ServeBackend::on_cycle_boundary` hook), which mirrors how a
//! supervisor would actually bounce a shard: between batches, never
//! mid-integration. With a durable store attached, a restarted shard
//! recovers its exact cache and fault books from snapshot + WAL and the
//! replay is byte-identical to an undisturbed run — the shard tests pin
//! this.

use deco_prob::hash::StableHasher;
use deco_prob::rng::splitmix64;
use std::hash::Hasher;

/// A seeded, reproducible schedule of shard restarts.
#[derive(Debug, Clone)]
pub struct ShardFaultPlan {
    /// Root seed; every draw is a domain-separated digest of it.
    pub seed: u64,
    /// Probability a (shard, cycle) pair restarts at that boundary.
    pub restart_prob: f64,
}

impl Default for ShardFaultPlan {
    /// The default plan is the quiescent one: no restarts ever.
    fn default() -> Self {
        ShardFaultPlan::quiescent()
    }
}

impl ShardFaultPlan {
    /// The empty plan: no shard ever restarts.
    pub fn quiescent() -> Self {
        ShardFaultPlan {
            seed: 0,
            restart_prob: 0.0,
        }
    }

    /// A plan that restarts each (shard, cycle) pair with probability
    /// `restart_prob`.
    pub fn restarts(seed: u64, restart_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&restart_prob),
            "probabilities in [0,1]"
        );
        ShardFaultPlan { seed, restart_prob }
    }

    /// True when no restart can ever be drawn.
    pub fn is_quiescent(&self) -> bool {
        self.restart_prob == 0.0
    }

    /// Does shard `shard` crash-and-restart at the boundary of `cycle`?
    pub fn restarts_at(&self, cycle: u64, shard: usize) -> bool {
        if self.is_quiescent() {
            return false;
        }
        let mut h = StableHasher::with_seed(self.seed ^ 0x5AAD_FA7E);
        h.write(b"shard-restart");
        h.write_u64(cycle);
        h.write_u64(shard as u64);
        let unit = (splitmix64(h.finish()) >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.restart_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_plans_never_restart() {
        let p = ShardFaultPlan::quiescent();
        for cycle in 0..100 {
            for shard in 0..4 {
                assert!(!p.restarts_at(cycle, shard));
            }
        }
    }

    #[test]
    fn schedules_are_reproducible_and_seed_sensitive() {
        let a = ShardFaultPlan::restarts(7, 0.3);
        let b = ShardFaultPlan::restarts(7, 0.3);
        let c = ShardFaultPlan::restarts(9, 0.3);
        let draw = |p: &ShardFaultPlan| -> Vec<bool> {
            (0..400)
                .map(|i| p.restarts_at(i / 4, (i % 4) as usize))
                .collect()
        };
        assert_eq!(draw(&a), draw(&b), "same seed, same schedule");
        assert_ne!(draw(&a), draw(&c), "different seed decorrelates");
    }

    #[test]
    fn restart_rate_tracks_the_probability() {
        let p = ShardFaultPlan::restarts(3, 0.2);
        let n = 5000;
        let hits = (0..n)
            .filter(|&i| p.restarts_at(i / 4, (i % 4) as usize))
            .count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.2).abs() < 0.02,
            "20% restart plan fired at rate {rate}"
        );
    }
}
