//! The kernel launch API.
//!
//! A launch maps a slice of block inputs (one searched state per block, as
//! in the paper) through a block function, running blocks concurrently on
//! host worker threads (crossbeam scope).
//!
//! The block function receives `(block_input, block_index, worker_state)`
//! and performs the whole block's thread-parallel work (e.g. `threads_per_block`
//! Monte-Carlo iterations); lane parallelism *within* a block is accounted
//! for by the timing model ([`crate::model_ticks`]) rather than
//! oversubscribing the host.

use crate::device::DeviceSpec;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Launch `inputs.len()` blocks on the device model and return their
/// outputs in block order.
///
/// * `threads_per_block` — lane-parallel width inside one block (the
///   paper's `K`, e.g. the Monte-Carlo iteration count).
/// * `worker_init()` — runs once on each worker thread; the value is
///   threaded through every block that worker executes.
/// * `block_fn(input, block_idx, worker_state)` — the block's whole work.
///
/// Blocks execute concurrently across host cores (capped at the device's
/// SM count — the paper runs one block per SM), so results are bitwise
/// identical to a sequential run while wall-clock improves. The launch's
/// modeled device time is [`crate::model_ticks`] of its shape.
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
    worker_init: impl Fn() -> W + Sync,
    block_fn: impl Fn(&S, usize, &mut W) -> R + Sync,
) -> Vec<R> {
    assert!(threads_per_block > 0, "empty blocks");
    let n = inputs.len();
    let workers = device
        .sms
        .min(n)
        .min(std::thread::available_parallelism().map_or(1, |p| p.get()))
        .max(1);
    let next = AtomicUsize::new(0);
    // Hand out block indices dynamically; collect `(block, value)` pairs
    // into per-worker buckets, then stitch.
    let buckets: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
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
                        mine.push((b, block_fn(&inputs[b], b, &mut scratch)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel worker panicked"))
            .collect()
    })
    .expect("kernel worker panicked");
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (b, value) in buckets.into_iter().flatten() {
        slots[b] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every block must have run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_block_order() {
        let d = DeviceSpec::cpu(4);
        let inputs: Vec<u64> = (0..64).collect();
        let values = launch_with(
            &d,
            &inputs,
            8,
            || (),
            |&x, idx, ()| {
                assert_eq!(x, idx as u64);
                x * x
            },
        );
        assert_eq!(values, (0..64).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn identical_to_sequential_reference() {
        let d = DeviceSpec::k40();
        let inputs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let values = launch_with(&d, &inputs, 128, || (), |&x, _, ()| (x * 1.5).sqrt());
        let seq: Vec<f64> = inputs.iter().map(|&x| (x * 1.5).sqrt()).collect();
        assert_eq!(values, seq);
    }

    #[test]
    fn single_block_launch() {
        let d = DeviceSpec::k40();
        assert_eq!(
            launch_with(&d, &[7u32], 192, || (), |&x, _, ()| x + 1),
            vec![8]
        );
        assert!(launch_with(&d, &[] as &[u32], 192, || (), |&x, _, ()| x).is_empty());
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        let d = DeviceSpec::cpu(4);
        let inputs: Vec<u64> = (0..32).collect();
        // Each block records how many blocks its worker ran before it; the
        // result must still be block-deterministic in the payload.
        let values = launch_with(&d, &inputs, 4, Vec::<u64>::new, |&x, _, seen| {
            seen.push(x);
            x * 3
        });
        assert_eq!(values, (0..32).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let d = DeviceSpec::k40();
        launch_with(&d, &[1], 0, || (), |&x: &i32, _, ()| x);
    }
}
