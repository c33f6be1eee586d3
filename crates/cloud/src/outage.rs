//! Failure *mechanics* for the execution engine.
//!
//! This module defines the vocabulary the simulator understands —
//! per-instance fates (revocation times, boot delays, boot failures) and
//! inter-region partition windows — plus the retry-backoff policy shared
//! by the recovery driver and the failure-aware estimator. It contains no
//! *policy*: nothing here decides when instances fail. Fault schedules
//! are generated outside the simulator (the `deco-faults` crate derives
//! them deterministically from `prob::hash::StableHasher` seeds) and
//! handed to [`crate::sim::Simulation::with_disruptions`], which executes
//! them with the billing semantics the tests in [`crate::sim`] pin:
//!
//! * an instance lost mid-run is charged for its busy span *up to the
//!   crash instant* (partial-hour rounding as usual);
//! * an instance that never ran a task — unbootable, or revoked before
//!   its first dispatch — is not charged at all;
//! * a cross-region transfer that would begin inside a partition window
//!   waits for the window to close before moving its first byte.

use serde::{Deserialize, Serialize};

/// What happens to one concrete instance (a plan slot) over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotFate {
    /// Extra seconds after acquisition before the instance can run its
    /// first task (a boot-time straggler). `INFINITY` means the instance
    /// never becomes usable at all.
    pub boot_delay: f64,
    /// Absolute simulation time at which the instance is revoked; any
    /// task still running then is killed. `INFINITY` means it survives.
    pub crash_at: f64,
}

impl SlotFate {
    /// The fate of an instance in a fault-free cloud.
    pub const HEALTHY: SlotFate = SlotFate {
        boot_delay: 0.0,
        crash_at: f64::INFINITY,
    };

    /// Whether this fate can perturb an execution at all.
    pub fn is_healthy(&self) -> bool {
        self.boot_delay == 0.0 && self.crash_at == f64::INFINITY
    }
}

impl Default for SlotFate {
    fn default() -> Self {
        SlotFate::HEALTHY
    }
}

/// A complete, pre-generated disruption timeline for one execution: one
/// fate per slot plus global inter-region partition windows.
///
/// The schedule is *sparse*: slots beyond the recorded prefix are
/// healthy, so the empty schedule is a zero-cost default — the simulator
/// asks [`DisruptionSchedule::fate`] per dispatch and gets
/// [`SlotFate::HEALTHY`] without touching memory.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DisruptionSchedule {
    slots: Vec<SlotFate>,
    /// Half-open `[start, end)` windows during which the inter-region
    /// link is down; sorted by start, non-overlapping.
    partitions: Vec<(f64, f64)>,
}

impl DisruptionSchedule {
    /// The fault-free schedule.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when the schedule cannot perturb any execution.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty() && self.slots.iter().all(SlotFate::is_healthy)
    }

    /// Fate of a slot (healthy when none was recorded).
    pub fn fate(&self, slot: usize) -> SlotFate {
        self.slots.get(slot).copied().unwrap_or(SlotFate::HEALTHY)
    }

    /// Record a slot's fate, growing the table as needed. Used both when
    /// building the initial schedule and when the recovery driver
    /// provisions replacement instances mid-run.
    pub fn set_fate(&mut self, slot: usize, fate: SlotFate) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, SlotFate::HEALTHY);
        }
        self.slots[slot] = fate;
    }

    /// Append a partition window. Windows must be appended in
    /// non-decreasing start order and must not overlap.
    pub fn push_partition(&mut self, start: f64, end: f64) {
        assert!(start >= 0.0 && end > start, "bad partition [{start},{end})");
        if let Some(&(_, prev_end)) = self.partitions.last() {
            assert!(start >= prev_end, "partition windows must not overlap");
        }
        self.partitions.push((start, end));
    }

    /// The partition windows, sorted by start.
    pub fn partitions(&self) -> &[(f64, f64)] {
        &self.partitions
    }

    /// Earliest time at or after `at` when the inter-region link is up —
    /// when a cross-region transfer wanting to start at `at` may actually
    /// begin. Identity for the empty schedule.
    pub fn partition_release(&self, at: f64) -> f64 {
        crate::dynamics::partition_release(&self.partitions, at)
    }
}

/// Capped-exponential-backoff retry policy for tasks killed by instance
/// loss. Shared by the recovery driver (which spaces re-dispatch
/// attempts) and the failure-aware estimator (which folds the expected
/// overhead into planning histograms).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Total attempts per task, first execution included. At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub backoff_base: f64,
    /// Upper bound on any single backoff, seconds.
    pub backoff_cap: f64,
}

/// Capped exponential backoff before retry number `retry` (1-based):
/// `base * 2^(retry-1)` capped at `cap`. This is the single backoff
/// implementation in the workspace — the fault-recovery driver spaces
/// instance re-dispatch with it (in seconds) and the serving layer spaces
/// crashed-solve re-enqueues with it (in device-model ticks), so the two
/// subsystems can never drift apart on the sequence.
pub fn capped_backoff(base: f64, cap: f64, retry: u32) -> f64 {
    assert!(retry >= 1, "backoff is defined for retries, not attempt 0");
    let factor = 2f64.powi((retry - 1).min(62) as i32);
    (base * factor).min(cap)
}

impl RetryConfig {
    /// Backoff before retry number `retry` (1-based): `base * 2^(retry-1)`
    /// capped at `backoff_cap` (see [`capped_backoff`]).
    pub fn backoff(&self, retry: u32) -> f64 {
        capped_backoff(self.backoff_base, self.backoff_cap, retry)
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            backoff_base: 30.0,
            backoff_cap: 600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_healthy_everywhere() {
        let s = DisruptionSchedule::empty();
        assert!(s.is_empty());
        for slot in [0usize, 5, 1000] {
            assert_eq!(s.fate(slot), SlotFate::HEALTHY);
        }
        assert_eq!(s.partition_release(123.0), 123.0);
    }

    #[test]
    fn fates_grow_sparsely() {
        let mut s = DisruptionSchedule::empty();
        s.set_fate(
            3,
            SlotFate {
                boot_delay: 10.0,
                crash_at: 500.0,
            },
        );
        assert!(!s.is_empty());
        assert_eq!(s.fate(0), SlotFate::HEALTHY);
        assert_eq!(s.fate(3).crash_at, 500.0);
        assert_eq!(s.fate(99), SlotFate::HEALTHY);
    }

    #[test]
    fn partition_release_skips_windows() {
        let mut s = DisruptionSchedule::empty();
        s.push_partition(100.0, 200.0);
        s.push_partition(300.0, 350.0);
        assert_eq!(s.partition_release(50.0), 50.0);
        assert_eq!(s.partition_release(100.0), 200.0);
        assert_eq!(s.partition_release(199.9), 200.0);
        assert_eq!(s.partition_release(200.0), 200.0);
        assert_eq!(s.partition_release(320.0), 350.0);
        assert_eq!(s.partition_release(400.0), 400.0);
    }

    #[test]
    #[should_panic]
    fn overlapping_partitions_rejected() {
        let mut s = DisruptionSchedule::empty();
        s.push_partition(100.0, 200.0);
        s.push_partition(150.0, 250.0);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let r = RetryConfig {
            max_attempts: 6,
            backoff_base: 30.0,
            backoff_cap: 100.0,
        };
        assert_eq!(r.backoff(1), 30.0);
        assert_eq!(r.backoff(2), 60.0);
        assert_eq!(r.backoff(3), 100.0, "capped");
        assert_eq!(r.backoff(5), 100.0);
    }

    #[test]
    fn shared_backoff_helper_pins_the_tick_sequence() {
        // Both call sites — fault-recovery seconds and serve-side ticks —
        // must see exactly this doubling-then-capped sequence.
        let seq: Vec<f64> = (1..=6).map(|r| capped_backoff(8.0, 100.0, r)).collect();
        assert_eq!(seq, vec![8.0, 16.0, 32.0, 64.0, 100.0, 100.0]);
        // The helper and the RetryConfig method are the same function.
        let r = RetryConfig {
            max_attempts: 6,
            backoff_base: 8.0,
            backoff_cap: 100.0,
        };
        for retry in 1..=6 {
            assert_eq!(r.backoff(retry), capped_backoff(8.0, 100.0, retry));
        }
        // Extreme retry counts saturate at the cap instead of overflowing.
        assert_eq!(capped_backoff(8.0, 100.0, 200), 100.0);
    }
}
