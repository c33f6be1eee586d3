//! Seeded generation of concrete disruption schedules.
//!
//! Every random draw is keyed by a domain-separated
//! [`StableHasher`] digest of the injector
//! seed: per-slot fates hash `("slot", index)`, bulk-event membership
//! hashes `("bulk-hit", event, slot)`, and the global event streams hash
//! their own domains. Consequences:
//!
//! * schedules are identical across platforms, endiannesses and Rust
//!   releases (no `DefaultHasher`, no map-iteration order anywhere);
//! * a replacement instance provisioned mid-run draws its fate from its
//!   own (fresh, never reused) slot index — independent of when or why it
//!   was provisioned;
//! * changing the seed decorrelates everything at once.

use crate::model::{FaultModel, HOUR};
use deco_cloud::{DisruptionSchedule, Plan, SlotFate};
use deco_prob::hash::StableHasher;
use deco_prob::rng::{open01, seeded, splitmix64};
use deco_prob::DecoRng;
use std::hash::Hasher;

/// Turns a [`FaultModel`] plus a seed into reproducible
/// [`DisruptionSchedule`]s.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    pub model: FaultModel,
    pub seed: u64,
    /// Times of fleet-wide bulk revocation events, pre-generated over the
    /// model horizon (empty when bulk revocation is off).
    bulk_events: Vec<f64>,
}

impl FaultInjector {
    pub fn new(model: FaultModel, seed: u64) -> Self {
        let bulk_events =
            Self::poisson_arrivals(seed, "bulk-events", model.bulk_rate_per_hour, model.horizon);
        FaultInjector {
            model,
            seed,
            bulk_events,
        }
    }

    /// Domain-separated sub-seed: every draw family gets its own stream.
    fn domain_seed(&self, domain: &str, a: u64, b: u64) -> u64 {
        Self::domain_seed_of(self.seed, domain, a, b)
    }

    fn domain_seed_of(seed: u64, domain: &str, a: u64, b: u64) -> u64 {
        let mut h = StableHasher::with_seed(seed);
        h.write(domain.as_bytes());
        h.write_u64(a);
        h.write_u64(b);
        h.finish()
    }

    /// Poisson arrival times with `rate_per_hour` over `[0, horizon)`.
    fn poisson_arrivals(seed: u64, domain: &str, rate_per_hour: f64, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        if rate_per_hour <= 0.0 {
            return out;
        }
        let mut rng = seeded(Self::domain_seed_of(seed, domain, 0, 0));
        let mut t = 0.0;
        loop {
            t += exponential(&mut rng, HOUR / rate_per_hour);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }

    /// Draw the fate of the instance occupying plan slot `slot` (slot
    /// indices are never reused within a run, so the index alone keys the
    /// draw), of the given type/region, acquired at `acquired_at`.
    pub fn slot_fate(
        &self,
        slot: usize,
        itype: usize,
        region: usize,
        acquired_at: f64,
    ) -> SlotFate {
        if self.model.is_quiescent() {
            return SlotFate::HEALTHY;
        }
        let mut rng = seeded(self.domain_seed("slot", slot as u64, 0));
        // Fixed draw order so fates are stable as the model changes shape:
        // boot outcome, straggler delay, then time-to-failure.
        let boot_delay = if open01(&mut rng) < self.model.unbootable_prob {
            f64::INFINITY
        } else if open01(&mut rng) < self.model.straggler_prob {
            acquired_at + exponential(&mut rng, self.model.straggler_mean_delay)
        } else {
            0.0
        };
        let rate = self.model.crash_rate(itype, region);
        let mut crash_at = if rate > 0.0 {
            acquired_at + exponential(&mut rng, HOUR / rate)
        } else {
            f64::INFINITY
        };
        // Bulk revocation: the first fleet-wide event (after acquisition)
        // that deterministically selects this slot.
        if self.model.bulk_fraction > 0.0 {
            for (e, &at) in self.bulk_events.iter().enumerate() {
                if at >= acquired_at
                    && at < crash_at
                    && unit_of(self.domain_seed("bulk-hit", e as u64, slot as u64))
                        < self.model.bulk_fraction
                {
                    crash_at = at;
                    break;
                }
            }
        }
        SlotFate {
            boot_delay,
            crash_at,
        }
    }

    /// The full disruption timeline for an execution of `plan`: one fate
    /// per initial slot (all acquired at time zero) plus the partition
    /// windows. Quiescent models short-circuit to the empty schedule.
    pub fn schedule_for(&self, plan: &Plan) -> DisruptionSchedule {
        let mut sched = DisruptionSchedule::empty();
        if self.model.is_quiescent() {
            return sched;
        }
        for (i, s) in plan.slots.iter().enumerate() {
            let fate = self.slot_fate(i, s.itype, s.region, 0.0);
            if !fate.is_healthy() {
                sched.set_fate(i, fate);
            }
        }
        if self.model.partition_rate_per_hour > 0.0 && self.model.partition_mean_seconds > 0.0 {
            let starts = Self::poisson_arrivals(
                self.seed,
                "partitions",
                self.model.partition_rate_per_hour,
                self.model.horizon,
            );
            let mut rng = seeded(self.domain_seed("partition-len", 0, 0));
            let mut clear_until = 0.0;
            for s in starts {
                let start = s.max(clear_until);
                let end = start + exponential(&mut rng, self.model.partition_mean_seconds);
                sched.push_partition(start, end);
                clear_until = end;
            }
        }
        sched
    }
}

/// Exponential draw with the given mean.
fn exponential(rng: &mut DecoRng, mean: f64) -> f64 {
    assert!(mean > 0.0);
    -open01(rng).ln() * mean
}

/// Map a hash to a uniform value in `[0, 1)`.
fn unit_of(h: u64) -> f64 {
    (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::CloudSpec;
    use deco_workflow::generators;

    fn plan_for(n_types: usize) -> Plan {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::fork_join(6, 50.0, 0.0);
        Plan::packed(&wf, &vec![n_types % spec.k(); wf.len()], 0, &spec)
    }

    #[test]
    fn quiescent_model_generates_empty_schedule() {
        let inj = FaultInjector::new(FaultModel::none(), 42);
        let sched = inj.schedule_for(&plan_for(0));
        assert!(sched.is_empty());
        assert_eq!(inj.slot_fate(0, 0, 0, 0.0), SlotFate::HEALTHY);
    }

    #[test]
    fn schedules_are_reproducible_per_seed() {
        let spec = CloudSpec::amazon_ec2();
        let model = FaultModel {
            unbootable_prob: 0.05,
            straggler_prob: 0.3,
            straggler_mean_delay: 60.0,
            partition_rate_per_hour: 0.2,
            partition_mean_seconds: 120.0,
            ..FaultModel::uniform_crash(&spec, 0.2)
        };
        let plan = plan_for(1);
        let a = FaultInjector::new(model.clone(), 7).schedule_for(&plan);
        let b = FaultInjector::new(model.clone(), 7).schedule_for(&plan);
        assert_eq!(a, b, "same seed, same schedule");
        let c = FaultInjector::new(model, 8).schedule_for(&plan);
        assert_ne!(a, c, "different seed decorrelates");
    }

    #[test]
    fn crash_times_follow_the_rate() {
        // Mean TTF at 0.5 crashes/instance-hour is 2 h; average many
        // independent slot draws and check the ballpark.
        let spec = CloudSpec::amazon_ec2();
        let inj = FaultInjector::new(FaultModel::uniform_crash(&spec, 0.5), 3);
        let n = 400;
        let mean = (0..n)
            .map(|i| inj.slot_fate(i, 0, 0, 0.0).crash_at)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 2.0 * HOUR).abs() < 0.25 * HOUR,
            "mean TTF {mean} far from {}",
            2.0 * HOUR
        );
    }

    #[test]
    fn acquisition_time_shifts_the_fate() {
        let spec = CloudSpec::amazon_ec2();
        let inj = FaultInjector::new(FaultModel::uniform_crash(&spec, 0.5), 4);
        let at0 = inj.slot_fate(9, 0, 0, 0.0);
        let at1k = inj.slot_fate(9, 0, 0, 1000.0);
        assert!((at1k.crash_at - at0.crash_at - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn bulk_events_hit_a_fraction_of_the_fleet() {
        let spec = CloudSpec::amazon_ec2();
        let model = FaultModel {
            bulk_rate_per_hour: 0.5,
            bulk_fraction: 0.4,
            horizon: 10.0 * HOUR,
            ..FaultModel::uniform_crash(&spec, 0.0)
        };
        // The model has no per-instance crashes, so every finite crash_at
        // comes from a bulk event.
        let inj = FaultInjector::new(model, 5);
        assert!(!inj.bulk_events.is_empty());
        let n = 500;
        let hit = (0..n)
            .filter(|&i| inj.slot_fate(i, 0, 0, 0.0).crash_at.is_finite())
            .count();
        assert!(hit > n / 4, "bulk events must revoke instances: {hit}");
        let first = inj.bulk_events[0];
        for i in 0..n {
            let f = inj.slot_fate(i, 0, 0, 0.0);
            if f.crash_at.is_finite() {
                assert!(
                    inj.bulk_events.contains(&f.crash_at),
                    "crash {} must coincide with a bulk event",
                    f.crash_at
                );
                assert!(f.crash_at >= first);
            }
        }
    }

    #[test]
    fn partitions_are_sorted_and_disjoint() {
        let spec = CloudSpec::amazon_ec2();
        let model = FaultModel {
            partition_rate_per_hour: 2.0,
            partition_mean_seconds: 300.0,
            horizon: 20.0 * HOUR,
            ..FaultModel::uniform_crash(&spec, 0.0)
        };
        let sched = FaultInjector::new(model, 6).schedule_for(&plan_for(2));
        let w = sched.partitions();
        assert!(!w.is_empty());
        for pair in w.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "windows must not overlap");
        }
    }
}
