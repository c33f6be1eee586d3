// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! An execution-driven GPU device model.
//!
//! The paper offloads two hot loops to an NVIDIA K40: the Monte-Carlo
//! evaluation of the probabilistic IR (one GPU thread per iteration, one
//! thread block per searched state) and the breadth-first exploration of
//! the search tree (Sections 5.2–5.3). Its implementation principles:
//! light-weight work per thread, block-local cooperation via shared memory,
//! no cross-block communication.
//!
//! No GPU is assumed here. Instead this crate provides a *device model*
//! that (a) really executes kernels block-parallel on host threads, so
//! results are identical and wall-clock speedup is real, and (b) counts a
//! *modeled* kernel time from the launch shape alone — counted cells, no
//! measured time — and the device's throughput parameters: SM count, lanes
//! per SM, per-lane speed relative to a host core, shared-memory capacity
//! per block, and a global-memory spill penalty once a block's working set
//! exceeds shared memory. The spill term is what makes speedups *decline
//! with workflow size*, the paper's Section 6.3.2 observation (36×/22×/18×
//! for 20/100/1000-task ensembles).
//!
//! * [`device`] — device descriptions ([`DeviceSpec::k40`],
//!   [`DeviceSpec::cpu`]).
//! * [`kernel`] — the launch API: blocks of lane-parallel thread work.
//! * [`timing`] — the throughput/timing model in ticks.

pub mod device;
pub mod kernel;
pub mod timing;

pub use device::DeviceSpec;
pub use kernel::launch_with;
pub use timing::{model_ticks, HOST_SECONDS_PER_CELL};
