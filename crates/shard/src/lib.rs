// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! deco-shard — the sharded, persistent plan-serving tier.
//!
//! `deco-serve` proves out a single-process serving engine whose replay
//! is byte-identical at any worker count. This crate scales that engine
//! out and makes it durable, without giving up the byte-identity:
//!
//! * [`router`] — contiguous key-range partitioning of the
//!   content-addressed plan-key space across N shards (the
//!   [`ShardRouter`] of `deco_serve::cache`, re-exported). Contiguity
//!   means walking shards in index order visits keys in global canonical
//!   order, so no merge sort is needed anywhere;
//! * [`server`] — [`ShardedServer`], a `deco_serve::ServeBackend` whose
//!   cache and fault books are `deco_serve::Books` with one partition
//!   per shard (one global LRU clock and capacity) and whose solve jobs
//!   run on per-shard worker pools concurrently. The cycle loop *and* the
//!   cache-and-books state machine are the same code `PlanServer` runs —
//!   determinism by construction, not by careful reimplementation;
//! * durability — every mutation the books make lands in the shard's
//!   WAL-backed [`deco_serve::store::PlanStore`]; a crashed shard folds
//!   snapshot + WAL back into its partition and resumes warm, making a
//!   restart observationally a no-op (torn WAL tails are tolerated,
//!   snapshots are compacted atomically);
//! * [`faults`] — seeded, deterministic shard crash/restart schedules
//!   keyed by (shard, cycle), landing strictly at cycle boundaries;
//! * [`proc`] — the supervised out-of-process tier:
//!   [`proc::ShardSupervisor`] runs each shard as a heartbeat-monitored
//!   child process (self-exec, length-prefixed checksummed frames over
//!   stdin/stdout, the mutation frames in `deco_serve::store`'s mutation
//!   encoding), detects crashes and hangs without consulting the
//!   fault schedule, restarts on the engine's capped-backoff series
//!   under a strike budget, and degrades a shard past the budget to
//!   provenance-tagged fallback-only answers — never a panic or stall.
//!
//! The headline property, pinned by the integration tests: for
//! N ∈ {1, 2, 4} shards — with worker faults, calibration refreshes,
//! and (with persistence) injected shard restarts — the response stream
//! and serving stats are **byte-identical** to a 1-process
//! `PlanServer` replay of the same trace. Without persistence, a
//! restart deterministically loses the shard's partition: the documented
//! degraded mode (still deterministic, no longer identical).

pub mod faults;
pub mod proc;
pub mod router;
pub mod server;

pub use faults::ShardFaultPlan;
pub use proc::{
    maybe_run_shard_worker, Liveness, RecoveredRun, ShardSupervisor, SuperviseConfig,
    SuperviseSession, SuperviseStats, SupervisorFaultPlan, SupervisorJournal,
};
pub use router::ShardRouter;
pub use server::{ShardConfig, ShardSession, ShardStats, ShardedServer};
