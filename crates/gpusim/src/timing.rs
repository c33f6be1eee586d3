//! The kernel timing model: counted cells, no measured time.
//!
//! A launch of `blocks` blocks, each `threads` lanes of unit work, costs
//! per block
//!
//! ```text
//! t = threads / (lane_speed * min(threads, lanes_per_sm)) * spill_factor
//! ```
//!
//! Blocks are scheduled onto SMs in waves of `sms` blocks (the paper uses
//! one block per SM); every block of a launch does the same work, so the
//! kernel time is `t` once per wave. On one full-speed core a tick is one
//! thread's unit of work, so [`HOST_SECONDS_PER_CELL`] converts ticks into
//! modeled seconds.

use crate::device::DeviceSpec;

/// Host seconds of one task × Monte-Carlo realization cell on one core.
///
/// Derived from `BENCH_mc_eval.json`: `mc_evaluate_plan_us / (tasks ×
/// mc_iters)` gave 9.2, 8.1, 8.9 and 10.5 ns on its Montage-8, Ligo-20,
/// Ligo-100 and Ligo-1000 cases, measured on one core of a 2-vCPU Intel
/// Xeon VM. The `mc_eval` bench records the modeled time beside the
/// measured one on every run (`modeled_over_measured`, 0.87–1.28 when
/// this constant was committed).
pub const HOST_SECONDS_PER_CELL: f64 = 9.0e-9;

/// Deterministic device-model cost ("ticks") of one kernel launch.
///
/// Assumes one unit of work per lane-thread per block, so the result
/// depends only on the launch shape `(blocks, threads, bytes)` and the
/// device. Anytime-search budgets are charged in these ticks, which makes
/// budget truncation bit-reproducible: the same seed and the same tick
/// budget always cut the search at the same batch boundary.
pub fn model_ticks(
    device: &DeviceSpec,
    blocks: usize,
    threads_per_block: usize,
    block_bytes: usize,
) -> f64 {
    assert!(threads_per_block > 0, "empty blocks");
    let lane_par = device.lanes_per_sm.min(threads_per_block) as f64;
    let per_block = threads_per_block as f64 / (device.lane_speed * lane_par)
        * device.spill_factor(block_bytes);
    let waves = blocks.div_ceil(device.sms.max(1));
    (0..waves).fold(0.0, |ticks, _| ticks + per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wave_takes_slowest_block() {
        // Three equal blocks on four cores: one wave, one block's time.
        let d = DeviceSpec::cpu(4);
        assert_eq!(model_ticks(&d, 3, 1, 0), 1.0);
        assert_eq!(model_ticks(&d, 3, 5, 0), 5.0);
    }

    #[test]
    fn waves_accumulate() {
        let d = DeviceSpec::cpu(2);
        assert_eq!(model_ticks(&d, 4, 1, 0), 2.0);
        assert_eq!(model_ticks(&d, 5, 1, 0), 3.0);
    }

    #[test]
    fn lane_parallelism_divides_block_time() {
        let d = DeviceSpec::k40();
        // One block of 192 threads: 192 / (1/30 * 192) = 30 ticks, against
        // 192 on one host core.
        assert!((model_ticks(&d, 1, 192, 1024) - 30.0).abs() < 1e-9);
        assert_eq!(model_ticks(&DeviceSpec::single_core(), 1, 192, 1024), 192.0);
    }

    #[test]
    fn threads_beyond_lanes_do_not_help() {
        let d = DeviceSpec::k40();
        // Below the SM's width, more threads ride free lanes; beyond it,
        // they queue.
        let full = model_ticks(&d, 1, 192, 1024);
        assert!((model_ticks(&d, 1, 96, 1024) - full).abs() < 1e-9);
        assert!((model_ticks(&d, 1, 384, 1024) - 2.0 * full).abs() < 1e-9);
    }

    #[test]
    fn spill_shrinks_speedup() {
        let (gpu, cpu) = (DeviceSpec::k40(), DeviceSpec::cpu(6));
        let speedup = |bytes| model_ticks(&cpu, 15, 192, bytes) / model_ticks(&gpu, 15, 192, bytes);
        assert!(speedup(160 * 1024) * 2.0 < speedup(16 * 1024));
    }

    #[test]
    fn ticks_are_deterministic_and_scale_with_waves() {
        let d = DeviceSpec::k40();
        let a = model_ticks(&d, 10, 64, 1024);
        let b = model_ticks(&d, 10, 64, 1024);
        assert_eq!(a.to_bits(), b.to_bits(), "shape-only cost is exact");
        // Twice the SM count of blocks -> two waves -> twice the ticks.
        let one_wave = model_ticks(&d, d.sms, 64, 1024);
        let two_waves = model_ticks(&d, 2 * d.sms, 64, 1024);
        assert!((two_waves - 2.0 * one_wave).abs() < 1e-12);
        assert_eq!(model_ticks(&d, 0, 64, 1024), 0.0);
    }

    #[test]
    fn gpu_beats_6core_for_wide_kernels() {
        // The Section 6.3 comparison shape: GPU >> 6-core CPU when there
        // are many light-weight MC threads and the state fits shared mem.
        let gpu = DeviceSpec::k40();
        let cpu = DeviceSpec::cpu(6);
        // 30 states of 256 threads: 5 waves of 256 against 2 waves of 40.
        let speedup = model_ticks(&cpu, 30, 256, 8 * 1024) / model_ticks(&gpu, 30, 256, 8 * 1024);
        assert!(
            (5.0..60.0).contains(&speedup),
            "expected an order-of-10x GPU advantage, got {speedup}"
        );
    }
}
