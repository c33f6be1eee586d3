//! Out-of-process shard supervision: each shard of the serving tier
//! runs as a heartbeat-monitored child process, restarted with capped
//! backoff on crash or hang and quarantined (degrading to fallback-only
//! answers) past a strike budget — while replays stay byte-identical to
//! the single-process `PlanServer`.
//!
//! Layout:
//!
//! * [`wire`] — the length-prefixed, checksummed frame protocol the
//!   supervisor and workers speak over stdin/stdout (the store codec's
//!   container, the engine codecs' payloads);
//! * [`monitor`] — the pure per-worker liveness state machine
//!   (healthy → suspect → restarting → quarantined);
//! * [`journal`] — the supervisor's own WAL+snapshot (mirror mutations
//!   sealed per cycle by a commit record), so a standby can warm-fail
//!   over through a supervisor SIGKILL;
//! * [`worker`] — the child-process entry point
//!   ([`maybe_run_shard_worker`] dispatches on `--deco-shard-worker`);
//! * [`supervisor`] — [`ShardSupervisor`], the parent-side
//!   `ServeBackend` with the metadata mirror, acked-mutation replay,
//!   and the polling cycle driver.

pub mod journal;
pub mod monitor;
pub mod supervisor;
pub mod wire;
pub mod worker;

pub use journal::{
    CommitRecord, CommitRef, JournalFrame, JournalRecovery, JournalStats, ShardHealth,
    SupervisorJournal, SNAPSHOT_FILE, WAL_FILE,
};
pub use monitor::{Liveness, LivenessMonitor};
pub use supervisor::{
    restart_backoff_ms, RecoveredRun, ShardSupervisor, SuperviseConfig, SuperviseSession,
    SuperviseStats, SupervisorCrashMode, SupervisorFaultPlan, QUARANTINE_REASON,
};
pub use wire::{Frame, Sabotage, WORKER_ARG};
pub use worker::{maybe_run_shard_worker, shard_worker_main};
