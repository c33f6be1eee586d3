//! The kernel launch API.
//!
//! A launch maps a slice of block inputs (one searched state per block, as
//! in the paper) through a block function, running blocks concurrently on
//! host worker threads (crossbeam scope) and measuring each block's
//! single-core work to feed the timing model.
//!
//! The block function receives `(block_input, block_index, worker_state)`
//! and performs the whole block's thread-parallel work (e.g. `threads_per_block`
//! Monte-Carlo iterations); lane parallelism *within* a block is accounted
//! for analytically by the timing model rather than oversubscribing the
//! host.

use crate::device::DeviceSpec;
use crate::timing::{model, KernelTiming};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Result of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockResult<R> {
    pub block: usize,
    pub value: R,
    /// Measured single-core seconds of this block's work.
    pub host_seconds: f64,
}

/// Result of a launch: per-block outputs plus modeled timing.
#[derive(Debug, Clone)]
pub struct LaunchReport<R> {
    pub blocks: Vec<BlockResult<R>>,
    pub timing: KernelTiming,
}

impl<R> LaunchReport<R> {
    /// Block outputs in block order.
    pub fn values(self) -> Vec<R> {
        self.blocks.into_iter().map(|b| b.value).collect()
    }
}

/// Launch `inputs.len()` blocks on the device model.
///
/// * `threads_per_block` — lane-parallel width inside one block (the
///   paper's `K`, e.g. the Monte-Carlo iteration count).
/// * `block_bytes` — per-block working set, for the shared-memory model.
/// * `worker_init()` — runs once on each worker thread; the value is
///   threaded through every block that worker executes.
/// * `block_fn(input, block_idx, worker_state)` — the block's whole work.
///
/// Blocks execute concurrently across host cores (capped at the device's
/// SM count — the paper runs one block per SM), so results are bitwise
/// identical to a sequential run while wall-clock improves; the returned
/// [`KernelTiming`] is the modeled device time.
///
/// The worker state is how evaluation scratch buffers (see `deco-core`'s
/// `FrontierScratch`) are reused across the blocks of a batch without
/// allocation and without sharing: one scratch per worker, not per block.
/// Block results must not depend on the scratch's prior contents (workers
/// steal blocks dynamically), which the scratch-reuse tests in `deco-core`
/// and `deco-solver` enforce.
pub fn launch_with<S: Sync, R: Send, W>(
    device: &DeviceSpec,
    inputs: &[S],
    threads_per_block: usize,
    block_bytes: usize,
    worker_init: impl Fn() -> W + Sync,
    block_fn: impl Fn(&S, usize, &mut W) -> R + Sync,
) -> LaunchReport<R> {
    assert!(threads_per_block > 0, "empty blocks");
    let n = inputs.len();
    let workers = device
        .sms
        .min(n)
        .min(std::thread::available_parallelism().map_or(1, |p| p.get()))
        .max(1);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<BlockResult<R>>> = (0..n).map(|_| None).collect();
    // Hand out block indices dynamically; collect into per-worker result
    // buckets, then stitch.
    let results: Vec<Vec<BlockResult<R>>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let block_fn = &block_fn;
                let worker_init = &worker_init;
                scope.spawn(move |_| {
                    let mut scratch = worker_init();
                    let mut mine = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= n {
                            return mine;
                        }
                        let t0 = Instant::now();
                        let value = block_fn(&inputs[b], b, &mut scratch);
                        mine.push(BlockResult {
                            block: b,
                            value,
                            host_seconds: t0.elapsed().as_secs_f64(),
                        });
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("kernel worker panicked");
    for bucket in results {
        for r in bucket {
            let idx = r.block;
            slots[idx] = Some(r);
        }
    }
    let blocks: Vec<BlockResult<R>> = slots
        .into_iter()
        .map(|s| s.expect("every block must have run"))
        .collect();
    let host: Vec<f64> = blocks.iter().map(|b| b.host_seconds).collect();
    let timing = model(device, &host, threads_per_block, block_bytes);
    LaunchReport { blocks, timing }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_block_order() {
        let d = DeviceSpec::cpu(4);
        let inputs: Vec<u64> = (0..64).collect();
        let report = launch_with(
            &d,
            &inputs,
            8,
            0,
            || (),
            |&x, idx, ()| {
                assert_eq!(x, idx as u64);
                x * x
            },
        );
        let values = report.values();
        assert_eq!(values, (0..64).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn identical_to_sequential_reference() {
        let d = DeviceSpec::k40();
        let inputs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let report = launch_with(&d, &inputs, 128, 1024, || (), |&x, _, ()| (x * 1.5).sqrt());
        let seq: Vec<f64> = inputs.iter().map(|&x| (x * 1.5).sqrt()).collect();
        assert_eq!(report.values(), seq);
    }

    #[test]
    fn timing_reflects_work() {
        let d = DeviceSpec::cpu(2);
        let inputs = vec![200_000u64; 6];
        let report = launch_with(
            &d,
            &inputs,
            1,
            0,
            || (),
            |&n, _, ()| {
                // Busy work so host_seconds is measurably > 0.
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(i).rotate_left(1);
                }
                acc
            },
        );
        assert!(report.timing.host_seconds > 0.0);
        assert_eq!(report.timing.waves, 3);
        assert!(report.timing.modeled_seconds <= report.timing.host_seconds);
    }

    #[test]
    fn single_block_launch() {
        let d = DeviceSpec::k40();
        let report = launch_with(&d, &[7u32], 192, 100, || (), |&x, _, ()| x + 1);
        assert_eq!(report.timing.waves, 1);
        assert_eq!(report.values(), vec![8]);
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        let d = DeviceSpec::cpu(4);
        let inputs: Vec<u64> = (0..32).collect();
        // Each block records how many blocks its worker ran before it; the
        // result must still be block-deterministic in the payload.
        let report = launch_with(&d, &inputs, 4, 0, Vec::<u64>::new, |&x, _, seen| {
            seen.push(x);
            x * 3
        });
        assert_eq!(
            report.values(),
            (0..32).map(|x| x * 3).collect::<Vec<u64>>()
        );
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let d = DeviceSpec::k40();
        launch_with(&d, &[1], 0, 0, || (), |&x: &i32, _, ()| x);
    }
}
