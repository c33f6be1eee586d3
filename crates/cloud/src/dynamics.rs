//! Cloud performance dynamics.
//!
//! The simulator reproduces the paper's model: "We simulate the cloud
//! dynamics in the granularity of seconds, which means the average I/O and
//! network performance per second conform the distributions from
//! calibration" (Section 6.1). A running instance therefore resolves an
//! I/O or network phase by drawing a fresh bandwidth for every simulated
//! second until the phase's bytes are consumed.

use crate::instance::{CloudSpec, InstanceTypeId};
use crate::plan::VmSlot;
use deco_prob::dist::Dist;
use deco_prob::DecoRng;

/// Floor on any sampled bandwidth so a pathological draw cannot stall the
/// simulation (Normal laws have unbounded lower tails).
const MIN_BANDWIDTH: f64 = 1.0; // MB/s

/// How long one bandwidth draw persists, in simulated seconds. The paper's
/// calibration measures once a minute for seven days, so the calibrated
/// distributions describe *minute-granular* performance; interference is
/// sustained on that timescale rather than redrawn every second (per-second
/// i.i.d. draws would average the documented variance away over any
/// multi-minute phase).
pub const INTERFERENCE_WINDOW_SECONDS: f64 = 60.0;

/// Time to move `bytes` with a fresh bandwidth draw from `law` every
/// [`INTERFERENCE_WINDOW_SECONDS`]; the final partial window is prorated.
/// Returns seconds.
pub fn phase_seconds(bytes: f64, law: &dyn Dist, rng: &mut DecoRng) -> f64 {
    assert!(bytes >= 0.0);
    if bytes == 0.0 {
        return 0.0;
    }
    let mut remaining = bytes / (1024.0 * 1024.0); // MB
    let mut t = 0.0;
    // Cap the loop generously; MIN_BANDWIDTH bounds it in practice.
    for _ in 0..5_000_000u64 {
        let bw = law.sample(rng).max(MIN_BANDWIDTH);
        let window_capacity = bw * INTERFERENCE_WINDOW_SECONDS;
        if window_capacity >= remaining {
            return t + remaining / bw;
        }
        remaining -= window_capacity;
        t += INTERFERENCE_WINDOW_SECONDS;
    }
    unreachable!("phase cannot take this long with bounded bandwidth");
}

/// Deterministic variant used for expectation-based planning: moves the
/// bytes at the law's mean bandwidth.
pub fn phase_seconds_mean(bytes: f64, law: &dyn Dist) -> f64 {
    assert!(bytes >= 0.0);
    if bytes == 0.0 {
        return 0.0;
    }
    bytes / (1024.0 * 1024.0) / law.mean().max(MIN_BANDWIDTH)
}

/// Sampled execution time of a task on an instance type: deterministic CPU
/// phase (CPU is stable in the cloud) plus dynamic I/O phase.
pub fn task_seconds(
    spec: &CloudSpec,
    itype: InstanceTypeId,
    cpu_seconds: f64,
    io_bytes: f64,
    rng: &mut DecoRng,
) -> f64 {
    let t = &spec.types[itype];
    let cpu = cpu_seconds / t.ecu;
    let io = phase_seconds(io_bytes, &t.seq_io(), rng);
    cpu + io
}

/// Earliest time at or after `at` outside every `[start, end)` window.
/// `windows` must be sorted by start and non-overlapping. Used to delay
/// cross-region transfers across injected network partitions; identity
/// for an empty window list.
pub fn partition_release(windows: &[(f64, f64)], at: f64) -> f64 {
    for &(start, end) in windows {
        if at < start {
            return at; // strictly before this (and every later) window
        }
        if at < end {
            return end; // inside the window: wait for it to close
        }
    }
    at
}

/// Sampled transfer time of `bytes` between two distinct instances, over
/// their `CloudSpec::link_law`.
pub fn transfer_seconds(
    spec: &CloudSpec,
    from: VmSlot,
    to: VmSlot,
    bytes: f64,
    rng: &mut DecoRng,
) -> f64 {
    phase_seconds(bytes, &spec.link_law(from, to), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_prob::dist::{Constant, Normal};
    use deco_prob::rng::seeded;

    const MB: f64 = 1024.0 * 1024.0;

    #[test]
    fn zero_bytes_is_free() {
        let mut rng = seeded(1);
        assert_eq!(phase_seconds(0.0, &Constant::new(100.0), &mut rng), 0.0);
    }

    #[test]
    fn constant_bandwidth_gives_exact_time() {
        let mut rng = seeded(2);
        // 1000 MB at 100 MB/s = 10 s.
        let t = phase_seconds(1000.0 * MB, &Constant::new(100.0), &mut rng);
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sub_second_phase_is_prorated() {
        let mut rng = seeded(3);
        let t = phase_seconds(50.0 * MB, &Constant::new(100.0), &mut rng);
        assert!((t - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dynamic_bandwidth_varies_between_runs() {
        let law = Normal::new(100.0, 20.0);
        let mut rng = seeded(4);
        let a = phase_seconds(2000.0 * MB, &law, &mut rng);
        let b = phase_seconds(2000.0 * MB, &law, &mut rng);
        assert!(
            (a - b).abs() > 1e-6,
            "dynamics must produce run-to-run variance"
        );
        // Both near the 20 s expectation.
        assert!((a - 20.0).abs() < 5.0 && (b - 20.0).abs() < 5.0);
    }

    #[test]
    fn mean_phase_matches_expectation() {
        let law = Normal::new(100.0, 20.0);
        assert!((phase_seconds_mean(2000.0 * MB, &law) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn negative_draws_are_floored() {
        // A law that mostly draws negative values must still make progress.
        let law = Normal::new(-50.0, 1.0);
        let mut rng = seeded(5);
        let t = phase_seconds(10.0 * MB, &law, &mut rng);
        assert!(t.is_finite() && t <= 10.0 / MIN_BANDWIDTH + 1.0);
    }

    #[test]
    fn task_seconds_scales_cpu_by_ecu() {
        let spec = crate::instance::CloudSpec::amazon_ec2();
        let mut rng = seeded(6);
        // No I/O: pure CPU scaling. m1.xlarge has ECU 8.
        let small = task_seconds(&spec, 0, 80.0, 0.0, &mut rng);
        let xlarge = task_seconds(&spec, 3, 80.0, 0.0, &mut rng);
        assert!((small - 80.0).abs() < 1e-9);
        assert!((xlarge - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cross_region_transfers_are_slower() {
        let spec = crate::instance::CloudSpec::amazon_ec2();
        let mut rng = seeded(7);
        let large = |region| VmSlot { itype: 2, region };
        let local: f64 = (0..20)
            .map(|_| transfer_seconds(&spec, large(0), large(0), 100.0 * MB, &mut rng))
            .sum::<f64>()
            / 20.0;
        let cross: f64 = (0..20)
            .map(|_| transfer_seconds(&spec, large(0), large(1), 100.0 * MB, &mut rng))
            .sum::<f64>()
            / 20.0;
        assert!(
            cross > 2.0 * local,
            "inter-region is much slower: {cross} vs {local}"
        );
    }
}
