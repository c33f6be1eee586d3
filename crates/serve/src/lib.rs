// User-facing paths return typed errors; panicking shortcuts are banned
// from library code (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! deco-serve — a deterministic multi-tenant plan-serving engine.
//!
//! The paper's engine answers one question at a time: *given this
//! workflow, deadline, and cloud, what is the cheapest provisioning
//! plan?* A shared deployment answers that question for many tenants
//! concurrently, and most questions repeat — the same Montage DAG, the
//! same deadline bucket, the same price table. This crate puts a serving
//! layer in front of [`deco_core::supervisor::plan_with_fallback`]:
//!
//! * [`queue`] — bounded admission with priority-class drain ordering,
//!   per-tenant queue quotas, deadline-aware shedding, and
//!   [`deco_core::DecoError::Overloaded`] backpressure plus per-tenant
//!   fair-share search budgets;
//! * [`cache`] — a content-addressed plan cache keyed by the canonical
//!   structural hash of (DAG shape, catalog epoch + price table, engine
//!   options, bucketed deadline, percentile, budget); warm hits are
//!   bit-identical to cold solves. Its [`Books`] — range-routed
//!   partitions of cache entries, crash strikes and quarantine under one
//!   LRU clock — are the one cache-and-books state machine every serving
//!   tier runs, emitting the [`Mutation`]s the durable tiers persist;
//! * [`faults`] — seeded, worker-count-invariant injection of solver
//!   worker crashes and stragglers, keyed per (virtual worker, cycle);
//! * [`server`] — the cycle loop and the scoped solver-worker pool (one
//!   reusable evaluation scratch per worker, vendored crossbeam
//!   channels), with deterministic crash retry/quarantine and atomic
//!   calibration refreshes between cycles;
//! * [`request`] / [`stats`] — recorded arrival traces, canonical
//!   response rendering, and deterministic serving statistics with
//!   per-cycle structured rows.
//!
//! The load-bearing property is **deterministic replay**: a fixed
//! (trace, fault seed) produces a byte-identical response stream and
//! identical stats whether the pool runs 1, 2, or 8 workers, because
//! every observable ordering is by content key or trace sequence — and
//! worker fates are keyed by virtual worker — never by thread completion
//! time.

pub mod cache;
pub mod checkpoint;
pub mod faults;
pub mod queue;
pub mod request;
pub mod server;
pub mod stats;
pub mod store;

pub use cache::{
    plan_key, workflow_shape_hash, Books, Entry, Mutation, Partition, PlanCache, ShardRouter,
};
pub use checkpoint::{PendingCheckpoint, ServeCheckpoint};
pub use faults::{WorkerFate, WorkerFaultPlan};
pub use queue::AdmissionQueue;
pub use request::{
    Arrival, ArrivalTrace, PlanRequest, PlanResponse, PlanSource, Priority, ServeOutcome,
    ServedPlan, TenantId,
};
pub use server::{
    canonical_deadline, canonical_key, install_calibration, serve_trace_backend,
    serve_trace_resumable, solve_jobs_on_pool, CalibrationRefresh, PlanServer, ServeBackend,
    ServeConfig, ServeSession, SolveJob,
};
pub use stats::{BackendObservability, CycleRow, ServeStats};
pub use store::{
    encode_frame, frame_checksum, raw_frame_at, read_frame, replay_frame_file, write_frames_atomic,
    PlanStore, StoreConfig, StoreFrame, StoreStats,
};
