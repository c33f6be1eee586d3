//! The shard supervisor: the parent-process half of the supervised tier.
//!
//! [`ShardSupervisor`] implements [`ServeBackend`], so the entire cycle
//! loop — admission, classification, fault fates, solve budgets, response
//! ordering — is the exact code `PlanServer` and `ShardedServer` run.
//! What this type changes is that each shard is a **child process**
//! (self-exec with `--deco-shard-worker`), supervised over pipes:
//!
//! * the supervisor keeps an authoritative *mirror* of every shard's
//!   partition — the same `deco_serve::Books` every tier runs, holding
//!   `(key → epoch, last_use)`, the plan bytes once seen, the strike and
//!   quarantine books, and the single global LRU clock — so cache
//!   misses, eviction-victim choice, and book reads never cross a pipe;
//!   only the mutations the books make do, each forwarded to the
//!   shard's worker and to the journal;
//! * every mutation frame carries a sequence number and absolute
//!   values; the supervisor retains the encoded bytes of frames not yet
//!   covered by an ack and **replays the un-acked suffix** to a
//!   restarted worker, which (with a WAL-backed store) makes a worker
//!   SIGKILL lossless and the replay byte-identical;
//! * failure is detected by missed heartbeats and pipe EOF — never by
//!   consulting the injected fault schedule — and answered with
//!   [`capped_backoff`]-paced restarts under a strike budget; past the
//!   budget the shard is quarantined and its traffic is answered
//!   supervisor-side from [`plan_fallback_only`] (degraded,
//!   provenance-tagged, never cached — and never a panic or a stall);
//! * the cycle driver is a small poll loop over per-shard event
//!   channels (no async runtime): each healthy shard's `JobResults`
//!   integrates the moment it arrives while a slow shard keeps solving;
//!   the cycle barrier is enforced only at integration time, which is
//!   all run-cycle needs for byte-identity;
//! * every wait runs on one event pump (`Inner::next_event`), which
//!   applies acks and owns all failure detection; a waiter keeps only
//!   the frame it waits for and, after a revive, re-sends what the
//!   replay buffer does not carry (its `AssignJobs` or `CycleBarrier`);
//! * the supervisor answers the loop's commit hooks itself: it wants
//!   commits only inside [`ShardSupervisor::serve_trace_journaled`],
//!   where each `commit_cycle` seals the cycle into the journal and then
//!   fires any scheduled supervisor crash; the serve loop emits the
//!   cycle's responses only after that returns `true` — commit, then
//!   crash check, then emit.

use super::journal::{CommitRef, JournalFrame, ShardHealth, SupervisorJournal};
use super::monitor::{Liveness, LivenessMonitor};
use super::wire::{
    encode_assign, encode_mutation, Frame, Hello, RecoverReport, Sabotage, WorkerStoreStats,
    WORKER_ARG,
};
use crate::faults::ShardFaultPlan;
use deco_cloud::{capped_backoff, MetadataStore};
use deco_core::estimate::FrontierScratch;
use deco_core::supervisor::{plan_fallback_only, SupervisedPlan};
use deco_core::wire::{encode_engine, encode_store};
use deco_core::{Deco, DecoError};
use deco_serve::server::{
    serve_trace_backend, serve_trace_resumable, CalibrationRefresh, ServeBackend, SolveJob,
};
use deco_serve::{
    install_calibration, ArrivalTrace, BackendObservability, Books, Mutation, PlanResponse,
    ServeConfig, ServeStats,
};
use deco_serve::{ServeCheckpoint, ServeSession};
use deco_solver::SearchBudget;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a quarantined shard's answers come from the fallback chain; this
/// string lands in every such plan's provenance.
pub const QUARANTINE_REASON: &str = "shard worker quarantined after exhausting restart strikes";

/// Default for [`SuperviseConfig::touch_backlog`]: recency-only
/// (`Touch`) frames left unacked never force a cycle barrier —
/// over-replaying them is free — but the replay buffer must stay
/// bounded, so a backlog past this many frames barriers anyway.
pub const DEFAULT_TOUCH_BACKLOG: usize = 128;

/// Policy for the supervised out-of-process tier. The serving knobs
/// (`serve`, `shards`, `workers_per_shard`, `persist_dir`,
/// `snapshot_every`) mean exactly what they mean on
/// [`crate::ShardedServer`]; the rest governs supervision itself.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Number of key-range shards, each its own worker process.
    pub shards: usize,
    /// Solver threads inside each worker process.
    pub workers_per_shard: usize,
    /// The engine policy the cycle loop runs under.
    pub serve: ServeConfig,
    /// Root directory for per-shard durable stores (`<dir>/shard-<i>/`).
    /// `None` runs memory-only: a worker restart loses its partition.
    pub persist_dir: Option<PathBuf>,
    /// Worker-side WAL compaction cadence (0 disables).
    pub snapshot_every: u64,
    /// Worker-side fsync cadence ([`deco_serve::StoreConfig`] `sync_every`).
    pub sync_every: u64,
    /// Worker heartbeat period, milliseconds.
    pub heartbeat_ms: u64,
    /// A worker overdue past this (strictly) is declared crashed.
    pub heartbeat_timeout_ms: u64,
    /// A worker that heartbeats but delivers no `JobResults`, `GotPlan`,
    /// or `BarrierAck` within this window is declared hung and killed —
    /// a hang is not a crash, but it earns the same strike.
    pub hang_timeout_ms: u64,
    /// Restart backoff series base, milliseconds — shared with the
    /// engine's retry policy via [`capped_backoff`].
    pub backoff_base_ms: u64,
    /// Restart backoff series cap, milliseconds.
    pub backoff_cap_ms: u64,
    /// Consecutive failures a shard may take before quarantine.
    pub strike_budget: u32,
    /// Per-shard deterministic misbehavior, for tests and benches.
    pub sabotage: BTreeMap<usize, Sabotage>,
    /// Directory for the supervisor's own journal (see
    /// [`super::journal`]). `None` disables journaling: a supervisor
    /// death loses the control plane, exactly the pre-failover tier.
    /// The journal shares `snapshot_every` / `sync_every` cadences with
    /// the worker stores.
    pub journal_dir: Option<PathBuf>,
    /// Unacked recency-only (`Touch`) frames a shard may accumulate
    /// before a cycle barrier is forced anyway, bounding the replay
    /// buffer ([`DEFAULT_TOUCH_BACKLOG`] by default).
    pub touch_backlog: usize,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            shards: 2,
            workers_per_shard: 2,
            serve: ServeConfig::default(),
            persist_dir: None,
            snapshot_every: 0,
            sync_every: 0,
            heartbeat_ms: 20,
            heartbeat_timeout_ms: 2_000,
            hang_timeout_ms: 60_000,
            backoff_base_ms: 8,
            backoff_cap_ms: 100,
            strike_budget: 3,
            sabotage: BTreeMap::new(),
            journal_dir: None,
            touch_backlog: DEFAULT_TOUCH_BACKLOG,
        }
    }
}

/// How a scheduled supervisor crash manifests at the commit boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorCrashMode {
    /// `std::process::abort()` — a real death for out-of-process
    /// takeover drills. Fires after the durable commit and before any
    /// emission: the widest window a failover must close.
    Abort,
    /// Stop serving and return, leaving the process alive — for
    /// in-process takeover drills and benches.
    Halt,
}

/// Seeded schedule of supervisor crashes, fired at commit boundaries
/// (the only points where dying is interesting: everything before the
/// commit is discarded as a torn group anyway).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorFaultPlan {
    crash_at: BTreeSet<u64>,
    mode: SupervisorCrashMode,
}

impl SupervisorFaultPlan {
    pub fn quiescent() -> Self {
        SupervisorFaultPlan {
            crash_at: BTreeSet::new(),
            mode: SupervisorCrashMode::Halt,
        }
    }

    /// Abort the process right after committing each listed cycle.
    pub fn abort_at_cycles(cycles: impl IntoIterator<Item = u64>) -> Self {
        SupervisorFaultPlan {
            crash_at: cycles.into_iter().collect(),
            mode: SupervisorCrashMode::Abort,
        }
    }

    /// Halt the run right after committing each listed cycle.
    pub fn halt_at_cycles(cycles: impl IntoIterator<Item = u64>) -> Self {
        SupervisorFaultPlan {
            crash_at: cycles.into_iter().collect(),
            mode: SupervisorCrashMode::Halt,
        }
    }

    pub fn is_quiescent(&self) -> bool {
        self.crash_at.is_empty()
    }

    pub fn fires_at(&self, cycle: u64) -> bool {
        self.crash_at.contains(&cycle)
    }

    pub fn mode(&self) -> SupervisorCrashMode {
        self.mode
    }
}

impl Default for SupervisorFaultPlan {
    fn default() -> Self {
        SupervisorFaultPlan::quiescent()
    }
}

/// The pause before restart attempt `attempt` (1-based), milliseconds:
/// the engine-wide [`capped_backoff`] series, so supervision restarts
/// pace themselves on the same schedule solver retries do.
pub fn restart_backoff_ms(config: &SuperviseConfig, attempt: u32) -> u64 {
    capped_backoff(
        config.backoff_base_ms as f64,
        config.backoff_cap_ms as f64,
        attempt,
    ) as u64
}

/// What [`ShardSupervisor::recover`] hands a takeover driver when the
/// journal holds at least one sealed cycle: everything needed to resume
/// the dead incarnation's run mid-trace with a byte-identical stream.
#[derive(Debug, Clone)]
pub struct RecoveredRun {
    /// The serve-loop checkpoint of the last sealed cycle — pass as
    /// `resume` to [`ShardSupervisor::serve_trace_journaled`].
    pub checkpoint: ServeCheckpoint,
    /// Global index of `lines[0]` in the full response stream (earlier
    /// lines were compacted away precisely because the dead supervisor
    /// provably emitted them).
    pub lines_start: u64,
    /// Committed canonical response lines the dead supervisor may or may
    /// not have emitted (it died somewhere between commit and emission).
    /// The driver re-emits the suffix past its own high-water mark.
    pub lines: Vec<String>,
}

/// Environment for one supervised replay: the inner serving session,
/// graceful shard rotations at cycle boundaries (the same
/// [`ShardFaultPlan`] contract `ShardedServer` honors), and a chaos
/// schedule of real SIGKILLs delivered mid-cycle.
#[derive(Debug, Clone, Default)]
pub struct SuperviseSession {
    pub serve: ServeSession,
    /// Supervisor-initiated kill+restarts, strictly at cycle boundaries.
    pub shard_faults: ShardFaultPlan,
    /// SIGKILLs delivered right after `AssignJobs` — detection must flow
    /// through EOF and heartbeats, never through this schedule.
    pub chaos_kills: ShardFaultPlan,
    /// Supervisor self-crash schedule, honored only by
    /// [`ShardSupervisor::serve_trace_journaled`] (the journaled driver
    /// is what makes dying survivable).
    pub supervisor: SupervisorFaultPlan,
}

/// Counters for the supervision machinery. Serving counters live in
/// [`ServeStats`]; these describe processes, pipes, and durability.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Worker processes spawned beyond the initial fleet.
    pub restarts: u64,
    /// Deaths detected (EOF, heartbeat timeout, write failure, hang).
    pub crashes_detected: u64,
    /// Workers killed for heartbeating without delivering results.
    pub hangs_detected: u64,
    /// Corrupt frames, protocol breaches, and broken-pipe writes.
    pub transport_errors: u64,
    /// Cache entries recovered warm across restarts and warm starts.
    pub recovered_entries: u64,
    /// Valid WAL/snapshot frames replayed across recoveries.
    pub recovered_frames: u64,
    /// Bytes discarded from torn log tails across recoveries.
    pub torn_bytes: u64,
    /// Entries lost to restarts without persistence or to quarantine.
    pub lost_entries: u64,
    /// Worker WAL frames appended (aggregated across incarnations).
    pub wal_appends: u64,
    /// Worker snapshot compactions (aggregated).
    pub snapshots: u64,
    /// Worker fsyncs (aggregated).
    pub syncs: u64,
    /// Store I/O failures, worker- and supervisor-observed.
    pub store_failures: u64,
    /// Shards degraded to supervisor-side fallback answers.
    pub quarantined_shards: u64,
    /// Jobs answered from the fallback chain for quarantined shards.
    pub fallback_answers: u64,
    /// Inserts dropped because the owning shard is quarantined.
    pub dropped_inserts: u64,
    /// Un-acked mutation frames replayed to restarted workers.
    pub replayed_frames: u64,
    /// Journal mutation frames appended (buffered until their commit).
    pub journal_appends: u64,
    /// Cycle commit groups written durably to the supervisor journal.
    pub journal_commits: u64,
    /// Supervisor-journal snapshot compactions.
    pub journal_snapshots: u64,
    /// Supervisor-journal fsyncs.
    pub journal_syncs: u64,
    /// Bytes appended to the supervisor journal's WAL.
    pub journal_bytes: u64,
    /// Journal I/O failures — each permanently degrades to unjournaled.
    pub journal_failures: u64,
    /// The supervisor cycle whose commit failed: from there on the run
    /// has no failover cover. `None` while the journal is intact.
    pub journal_lost_at_cycle: Option<u64>,
    /// Valid journal frames folded during [`ShardSupervisor::recover`].
    pub journal_frames_recovered: u64,
    /// Journal bytes discarded as torn (uncommitted) tails on recovery.
    pub journal_torn_bytes: u64,
}

/// What a reader thread forwards. Heartbeats are not forwarded — they
/// only stamp the shared beat clock.
// Frame is ~250 bytes and essentially every event is one; Eof/Corrupt
// are one-shot terminal events. Boxing the common variant would add an
// allocation per received frame to shrink the rare ones.
#[allow(clippy::large_enum_variant)]
enum ChildEvent {
    Frame(Frame),
    /// Worker closed its stdout (exit or kill).
    Eof,
    /// The pipe produced a torn or corrupt frame.
    Corrupt,
}

/// What one [`Inner::next_event`] call hands a waiter.
// Unboxed `Frame` for the reason `ChildEvent` gives.
#[allow(clippy::large_enum_variant)]
enum Waited {
    /// A worker frame, its acks already applied.
    Frame(Frame),
    /// The worker was declared dead (EOF, corruption, missed heartbeats
    /// or a hang) and the crash path ran: the waiter re-issues whatever
    /// it has outstanding that the replay buffer does not carry.
    Revived,
    /// Nothing arrived in time (and, when policed, the worker is not
    /// overdue).
    Idle,
}

/// The supervisor's mirror: every shard's partition, metadata plus the
/// plan bytes once seen. An entry adopted from a recovered store holds
/// `None` until its first hit fetches the bytes from the worker (which
/// stays their durable owner); every cache and book decision is made
/// here, so a worker death can never change *what* the tier decides.
type Mirror = Books<Option<SupervisedPlan>>;

/// One supervised worker process and its channel plumbing.
struct ChildShard {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    rx: Option<Receiver<ChildEvent>>,
    /// Milliseconds (supervisor clock) of the last frame the reader
    /// thread saw. Replaced wholesale on respawn, so a stale reader can
    /// never stamp the new incarnation.
    last_beat: Arc<AtomicU64>,
    monitor: LivenessMonitor,
    /// Last assigned mutation sequence number (monotonic across
    /// incarnations).
    seq: u64,
    /// Every mutation not yet acked, in order: (seq, encoded wire
    /// bytes, recency-only). Recency-only frames (`Touch`) never make a
    /// cycle dirty for the barrier — over-replaying them is free — but
    /// they still replay to a recovered worker like any other mutation.
    unacked: VecDeque<(u64, Vec<u8>, bool)>,
    /// Store counters of dead incarnations (workers reset on restart).
    stats_base: WorkerStoreStats,
    /// Latest snapshot from the live incarnation.
    stats_last: WorkerStoreStats,
    /// Whether the live incarnation has a working store — gates whether
    /// a future restart can recover-and-replay instead of losing the
    /// partition.
    store_ok: bool,
}

impl ChildShard {
    /// Number one mutation frame and buffer it for replay; returns its
    /// seq and bytes, or `None` when the shard is dark or `build` has no
    /// frame to send (no seq is spent then).
    fn stage(
        &mut self,
        recency: bool,
        build: impl FnOnce(u64) -> Option<Vec<u8>>,
    ) -> Option<(u64, Vec<u8>)> {
        if !self.live() {
            return None;
        }
        let seq = self.seq + 1;
        let bytes = build(seq)?;
        self.seq = seq;
        self.unacked.push_back((seq, bytes.clone(), recency));
        Some((seq, bytes))
    }

    fn quarantined(&self) -> bool {
        self.monitor.state() == Liveness::Quarantined
    }

    fn live(&self) -> bool {
        self.child.is_some() && !self.quarantined()
    }

    fn retire_incarnation(&mut self) {
        let l = self.stats_last;
        self.stats_base.wal_appends += l.wal_appends;
        self.stats_base.snapshots += l.snapshots;
        self.stats_base.syncs += l.syncs;
        self.stats_base.store_failures += l.store_failures;
        self.stats_last = WorkerStoreStats::default();
    }

    fn store_totals(&self) -> WorkerStoreStats {
        let b = self.stats_base;
        let l = self.stats_last;
        WorkerStoreStats {
            wal_appends: b.wal_appends + l.wal_appends,
            snapshots: b.snapshots + l.snapshots,
            syncs: b.syncs + l.syncs,
            store_failures: b.store_failures + l.store_failures,
        }
    }
}

/// A dispatched-but-unanswered cycle assignment for one shard.
struct PendingGroup {
    jobs: Vec<SolveJob>,
    /// Encoded `AssignJobs` wire bytes, reused verbatim on re-dispatch.
    frame: Vec<u8>,
    assigned_at: u64,
}

/// The worker frame applying mirror mutation `m` as sequence `seq`: a
/// `Put` is encoded from the mirror's own plan (lent, not cloned), a
/// refresh travels as `EpochSwap` with the new `catalog` bytes, and a
/// dropped partition has no worker left to tell.
fn wire_frame(seq: u64, m: &Mutation<Option<SupervisedPlan>>, catalog: &[u8]) -> Option<Vec<u8>> {
    match *m {
        Mutation::Put {
            key,
            epoch,
            last_use,
            ref plan,
        } => {
            let plan = plan.as_ref()?;
            let put = Mutation::Put {
                key,
                epoch,
                last_use,
                plan,
            };
            Some(encode_mutation(seq, &put, catalog))
        }
        Mutation::Drop => None,
        _ => Some(encode_mutation(seq, &m.map(|_| ()), catalog)),
    }
}

/// Buffer one journal frame (a no-op when unjournaled). Appends are
/// infallible; durability happens at the cycle commit.
fn journal_append(journal: &mut Option<SupervisorJournal>, frame: &JournalFrame) {
    if let Some(j) = journal.as_mut() {
        j.append(frame);
    }
}

fn now_ms(t0: Instant) -> u64 {
    t0.elapsed().as_millis() as u64
}

fn spawn_reader(
    stdout: std::process::ChildStdout,
    tx: Sender<ChildEvent>,
    last_beat: Arc<AtomicU64>,
    t0: Instant,
) {
    std::thread::spawn(move || {
        let mut r = BufReader::new(stdout);
        loop {
            match Frame::read_from(&mut r) {
                Ok(Some(Frame::Heartbeat)) => {
                    last_beat.store(now_ms(t0), Ordering::Relaxed);
                }
                Ok(Some(frame)) => {
                    last_beat.store(now_ms(t0), Ordering::Relaxed);
                    if tx.send(ChildEvent::Frame(frame)).is_err() {
                        return; // supervisor replaced this incarnation
                    }
                }
                Ok(None) => {
                    let _ = tx.send(ChildEvent::Eof);
                    return;
                }
                Err(_) => {
                    let _ = tx.send(ChildEvent::Corrupt);
                    return;
                }
            }
        }
    });
}

struct Inner {
    children: Vec<ChildShard>,
    books: Mirror,
    /// The cycle in flight (set at each boundary).
    cycle: u64,
    fault_plan: ShardFaultPlan,
    chaos_kills: ShardFaultPlan,
    /// The journaled replay in flight: its supervisor crash schedule.
    /// `Some` only inside `serve_trace_journaled`, and the tier wants
    /// cycle commits exactly then.
    crash_plan: Option<SupervisorFaultPlan>,
    /// Serve-loop cycles whose commit has been processed — the crash
    /// schedule keys on the global cycle count, resume-aware.
    committed_cycles: u64,
    /// A `Halt` crash stopped the journaled replay.
    halted: bool,
    stats: SuperviseStats,
    config: SuperviseConfig,
    /// Current engine bytes for `Hello` — refreshed on calibration swap.
    engine: Vec<u8>,
    t0: Instant,
    /// The supervisor's own WAL+snapshot; `None` when unconfigured or
    /// after an I/O failure degraded it away.
    journal: Option<SupervisorJournal>,
}

impl Inner {
    /// A supervisor with no worker spawned yet: fresh liveness books,
    /// empty mirror, seq 0 everywhere.
    fn new(deco: &Deco, config: &SuperviseConfig, journal: Option<SupervisorJournal>) -> Inner {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.workers_per_shard >= 1, "need at least one worker");
        assert!(
            config.serve.batch_size >= 1,
            "batch_size must be at least 1"
        );
        let heartbeat = config.heartbeat_ms.max(1);
        let children = (0..config.shards)
            .map(|_| ChildShard {
                child: None,
                stdin: None,
                rx: None,
                last_beat: Arc::new(AtomicU64::new(0)),
                monitor: LivenessMonitor::new(
                    heartbeat,
                    config.heartbeat_timeout_ms.max(heartbeat),
                    config.strike_budget,
                    0,
                ),
                seq: 0,
                unacked: VecDeque::new(),
                stats_base: WorkerStoreStats::default(),
                stats_last: WorkerStoreStats::default(),
                store_ok: false,
            })
            .collect();
        Inner {
            children,
            books: Books::new(config.shards, config.serve.cache_capacity),
            cycle: 0,
            fault_plan: ShardFaultPlan::quiescent(),
            chaos_kills: ShardFaultPlan::quiescent(),
            crash_plan: None,
            committed_cycles: 0,
            halted: false,
            stats: SuperviseStats::default(),
            config: config.clone(),
            engine: encode_engine(deco),
            t0: Instant::now(),
            journal,
        }
    }

    fn now(&self) -> u64 {
        now_ms(self.t0)
    }

    // ---- process lifecycle ------------------------------------------------

    /// Spawn a worker, send `Hello`, await its `HelloAck`.
    fn spawn_worker(&mut self, si: usize) -> Result<RecoverReport, DecoError> {
        let exe = std::env::current_exe()
            .map_err(|e| DecoError::Transport(format!("cannot locate worker binary: {e}")))?;
        let mut child = Command::new(exe)
            .arg(WORKER_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| DecoError::Transport(format!("cannot spawn shard worker: {e}")))?;
        let mut stdin = child
            .stdin
            .take()
            .ok_or_else(|| DecoError::Transport("worker stdin not piped".into()))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| DecoError::Transport("worker stdout not piped".into()))?;

        let hello = Frame::Hello(Hello {
            shard_index: si as u32,
            workers: self.config.workers_per_shard as u32,
            store_dir: self.config.persist_dir.as_ref().map(|root| {
                root.join(format!("shard-{si}"))
                    .to_string_lossy()
                    .into_owned()
            }),
            snapshot_every: self.config.snapshot_every,
            sync_every: self.config.sync_every,
            heartbeat_ms: self.config.heartbeat_ms,
            engine: self.engine.clone(),
            sabotage: self.config.sabotage.get(&si).copied().unwrap_or_default(),
            // The acked high-water mark: zero on a cold spawn, the
            // journaled seq on a failover re-adopt. Replay (from the
            // unacked buffer or from a standby's reconcile) numbers past
            // it, and over-replay is idempotent.
            resume_seq: self.children[si].seq,
        });
        if let Err(e) = hello.write_to(&mut stdin) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(DecoError::Transport(format!("hello write failed: {e}")));
        }

        let last_beat = Arc::new(AtomicU64::new(self.now()));
        let (tx, rx) = std::sync::mpsc::channel();
        spawn_reader(stdout, tx, Arc::clone(&last_beat), self.t0);

        // Await HelloAck (recovering a large WAL takes real time).
        let deadline = self.now() + self.config.hang_timeout_ms;
        let report = loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ChildEvent::Frame(Frame::HelloAck(rep))) => break rep,
                Ok(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(DecoError::Transport(
                        "worker died or spoke out of turn before HelloAck".into(),
                    ));
                }
                Err(RecvTimeoutError::Timeout) if self.now() <= deadline => {}
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(DecoError::Transport("worker HelloAck timed out".into()));
                }
            }
        };

        let c = &mut self.children[si];
        c.child = Some(child);
        c.stdin = Some(stdin);
        c.rx = Some(rx);
        c.last_beat = last_beat;
        c.store_ok = report.store_ok;
        self.stats.recovered_entries += report.recovered_entries;
        self.stats.recovered_frames += report.recovered_frames;
        self.stats.torn_bytes += report.torn_bytes;
        if !report.store_ok {
            self.stats.store_failures += 1;
        }
        Ok(report)
    }

    fn kill_worker(&mut self, si: usize) {
        let c = &mut self.children[si];
        c.stdin = None; // close the pipe first so a live worker can exit
        if let Some(mut child) = c.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        c.rx = None;
        c.retire_incarnation();
    }

    /// The shard's partition is gone: clear the mirror, the books, and
    /// the replay buffer, counting the loss.
    fn drop_partition(&mut self, si: usize) {
        self.children[si].unacked.clear();
        let lost = self.books_op(true, &[], |b, sink| b.drop_partition(si, sink));
        self.stats.lost_entries += lost as u64;
    }

    fn quarantine_shard(&mut self, si: usize) {
        self.stats.quarantined_shards += 1;
        self.drop_partition(si);
    }

    /// Resend every un-acked mutation, in order, to a recovered worker.
    /// Frames carry absolute values, so over-replay (the worker already
    /// applied a prefix before dying) is harmless.
    fn replay_unacked(&mut self, si: usize) {
        let frames: Vec<Vec<u8>> = self.children[si]
            .unacked
            .iter()
            .map(|(_, bytes, _)| bytes.clone())
            .collect();
        self.stats.replayed_frames += frames.len() as u64;
        for bytes in frames {
            if self.write_raw(si, &bytes).is_err() {
                // The replacement died mid-replay; the full failure path
                // (strike, backoff, another replay) takes over.
                self.crash_and_revive(si, true);
                return;
            }
        }
    }

    /// Align a re-adopted worker's store with the journaled mirror after
    /// a failover ([`ShardSupervisor::recover`]). The mirror is the
    /// authority:
    ///
    /// * worker-held keys the mirror does not know are orphans of the
    ///   torn final cycle — deleted here; the deterministic re-run of
    ///   that cycle re-creates whichever of them should exist;
    /// * divergent recency stamps are re-stamped from the mirror (same
    ///   torn-cycle cause, and the stamp steers future evictions);
    /// * epoch divergence needs nothing: the re-run re-sends the `Put`
    ///   with absolute values, and `Put` overwrites;
    /// * mirror entries the worker lacks are left alone — with
    ///   persistence on they only arise from a store breach, and the
    ///   `Get` path already degrades a breach to a clean miss.
    ///
    /// These fixes are worker-only: the journal describes the mirror,
    /// which is already correct, so nothing is re-journaled here.
    fn reconcile(&mut self, si: usize, report: &RecoverReport) {
        let mut dels: Vec<u64> = Vec::new();
        let mut touches: Vec<(u64, u64)> = Vec::new();
        for &(key, _epoch, worker_last_use) in &report.entries {
            match self.books.partition(si).entries.get(&key) {
                None => dels.push(key),
                Some(e) if e.last_use != worker_last_use => touches.push((key, e.last_use)),
                Some(_) => {}
            }
        }
        for key in dels {
            self.mutate(si, false, move |seq| Frame::Del { seq, key });
        }
        for (key, last_use) in touches {
            self.mutate(si, true, move |seq| Frame::Touch { seq, key, last_use });
        }
    }

    /// Handle a detected worker death: strike, backoff, respawn, replay —
    /// or quarantine once the strike budget is spent. Never panics and
    /// never blocks forever.
    fn crash_and_revive(&mut self, si: usize, transport: bool) {
        if self.children[si].quarantined() {
            return; // already written off; nothing left to kill or count
        }
        self.stats.crashes_detected += 1;
        if transport {
            self.stats.transport_errors += 1;
        }
        self.kill_worker(si);
        if !self.children[si].monitor.crashed() {
            self.quarantine_shard(si);
            return;
        }
        self.respawn_loop(si, false);
    }

    /// Respawn until success or quarantine. A `rotation` (fault-plan or
    /// explicit restart) neither consumes a strike nor sleeps backoff —
    /// the worker did nothing wrong.
    fn respawn_loop(&mut self, si: usize, rotation: bool) {
        loop {
            if !rotation {
                let attempt = self.children[si].monitor.strikes().max(1);
                let pause = restart_backoff_ms(&self.config, attempt);
                std::thread::sleep(Duration::from_millis(pause));
            }
            match self.spawn_worker(si) {
                Ok(report) => {
                    self.stats.restarts += 1;
                    let now = self.now();
                    if rotation {
                        self.children[si].monitor.rotated(now);
                    } else {
                        self.children[si].monitor.restarted(now);
                    }
                    if self.config.persist_dir.is_some() && report.store_ok {
                        self.replay_unacked(si);
                    } else {
                        // Memory-only (or failed store): the partition is
                        // deterministically lost — the documented degraded
                        // mode, same as the in-process tier.
                        self.drop_partition(si);
                    }
                    return;
                }
                Err(_) => {
                    if !self.children[si].monitor.crashed() {
                        self.quarantine_shard(si);
                        return;
                    }
                }
            }
        }
    }

    /// Graceful supervisor-initiated kill+restart (the `ShardFaultPlan`
    /// contract). The caller has already drained a barrier, so the WAL
    /// holds the full partition and the replay buffer is empty.
    fn rotate(&mut self, si: usize) {
        if self.children[si].quarantined() {
            return;
        }
        self.kill_worker(si);
        self.respawn_loop(si, true);
    }

    // ---- pipe I/O ---------------------------------------------------------

    fn write_raw(&mut self, si: usize, bytes: &[u8]) -> std::io::Result<()> {
        let c = &mut self.children[si];
        let Some(stdin) = c.stdin.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "worker has no stdin",
            ));
        };
        stdin.write_all(bytes)?;
        stdin.flush()
    }

    /// Send one seq-tracked mutation frame, buffering it for replay
    /// (`recency`: a `Touch`, see [`ChildShard::unacked`]). Returns the
    /// sequence number sent, or `None` if the shard is dark. A write
    /// failure takes the crash path; the frame is already in the replay
    /// buffer, so it is not lost.
    fn mutate(
        &mut self,
        si: usize,
        recency: bool,
        build: impl FnOnce(u64) -> Frame,
    ) -> Option<u64> {
        let (seq, bytes) = self.children[si].stage(recency, |seq| Some(build(seq).encode()))?;
        self.send(si, &bytes);
        // Deliberately no ack drain here: for a `Get` the answer is a
        // `GotPlan` that `await_got_plan` must see, and a generic drain
        // would ack it and drop the plan. Acks are consumed by
        // `next_event` and, exhaustively, at every cycle barrier.
        Some(seq)
    }

    fn send(&mut self, si: usize, bytes: &[u8]) {
        if self.write_raw(si, bytes).is_err() {
            self.crash_and_revive(si, true);
        }
    }

    /// Send a control frame (`AssignJobs`, `CycleBarrier`) until it is
    /// written or the shard is dark. Control frames are not in the
    /// replay buffer, so a worker revived after a failed write must get
    /// them again. Every failed write spends a strike, so the loop ends
    /// in quarantine at worst.
    fn send_control(&mut self, si: usize, bytes: &[u8]) {
        while self.children[si].live() && self.write_raw(si, bytes).is_err() {
            self.crash_and_revive(si, true);
        }
    }

    /// Run one books operation with the supervisor's two sinks: each
    /// mutation it makes is journaled (when `journaled` — purge and
    /// refresh journal one tier-wide frame instead) and staged for its
    /// shard's worker ([`wire_frame`]); the staged frames are written
    /// once the books are released.
    fn books_op<R>(
        &mut self,
        journaled: bool,
        catalog: &[u8],
        op: impl FnOnce(&mut Mirror, &mut dyn FnMut(usize, &Mutation<Option<SupervisedPlan>>)) -> R,
    ) -> R {
        let mut outbox = Vec::new();
        let (children, journal) = (&mut self.children, &mut self.journal);
        let out = op(&mut self.books, &mut |si, m| {
            if journaled {
                journal_append(journal, &JournalFrame::of(si, m));
            }
            let recency = matches!(m, Mutation::Touch { .. });
            if let Some((_, bytes)) = children[si].stage(recency, |seq| wire_frame(seq, m, catalog))
            {
                outbox.push((si, bytes));
            }
        });
        for (si, bytes) in outbox {
            self.send(si, &bytes);
        }
        out
    }

    /// Prune the replay buffer through `seq` (acks arrive in order).
    fn ack_through(&mut self, si: usize, seq: u64) {
        let unacked = &mut self.children[si].unacked;
        while unacked.front().is_some_and(|&(s, _, _)| s <= seq) {
            unacked.pop_front();
        }
    }

    /// The one event pump every wait runs on: pull one event from shard
    /// `si` without blocking longer than `wait`, and do all liveness
    /// handling here. Acks (`Applied`, `GotPlan`, `BarrierAck`) prune
    /// the replay buffer before the frame is handed on; EOF and
    /// corruption take the crash path. `since` is when the caller's
    /// outstanding request went out: with it, a quiet pipe is policed
    /// (missed heartbeats are a crash, silence past `hang_timeout_ms` a
    /// hang). `None` is a non-blocking drain that polices nothing.
    fn next_event(&mut self, si: usize, wait: Duration, since: Option<u64>) -> Waited {
        let event = self.children[si]
            .rx
            .as_ref()
            .and_then(|rx| rx.recv_timeout(wait).ok());
        match event {
            Some(ChildEvent::Frame(frame)) => {
                match frame {
                    Frame::Applied { seq } | Frame::GotPlan { seq, .. } => {
                        self.ack_through(si, seq)
                    }
                    Frame::BarrierAck { stats, .. } => {
                        self.ack_through(si, self.children[si].seq);
                        self.children[si].stats_last = stats;
                    }
                    _ => {}
                }
                return Waited::Frame(frame);
            }
            Some(ChildEvent::Eof) => self.crash_and_revive(si, false),
            Some(ChildEvent::Corrupt) => self.crash_and_revive(si, true),
            None => {
                let Some(since) = since.filter(|_| self.children[si].live()) else {
                    return Waited::Idle;
                };
                let now = self.now();
                let c = &mut self.children[si];
                c.monitor.beat(c.last_beat.load(Ordering::Relaxed));
                if !c.monitor.tick(now) {
                    if now.saturating_sub(since) <= self.config.hang_timeout_ms {
                        return Waited::Idle;
                    }
                    // Beating but silent past the hang window: a hang
                    // is killed like a crash.
                    self.stats.hangs_detected += 1;
                }
                self.crash_and_revive(si, false);
            }
        }
        Waited::Revived
    }

    /// Opportunistically consume pending acks without blocking. EOF or
    /// corruption found here takes the crash path immediately.
    fn drain_acks(&mut self, si: usize) {
        while let Waited::Frame(_) = self.next_event(si, Duration::ZERO, None) {}
    }

    // ---- cache and books (mirror-authoritative) ---------------------------

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        let si = self.books.router().shard_of(key);
        let journal = &mut self.journal;
        let hit = self
            .books
            .get(key, |si, m| {
                journal_append(journal, &JournalFrame::of(si, m))
            })
            .cloned();
        let last_use = self.books.clock();
        match hit {
            None => {
                // Mirror-local miss: no round trip at all.
                self.drain_acks(si);
                None
            }
            Some(Some(plan)) => {
                // Hot hit, answered from the mirror's copy: only the
                // recency stamp crosses the process boundary, and
                // nothing waits for it.
                self.mutate(si, true, |seq| Frame::Touch { seq, key, last_use });
                Some(plan)
            }
            Some(None) => {
                // Adopted from a recovered store: fetch the bytes once
                // (synchronously, surviving worker deaths), then keep
                // them mirror-side for the next hit.
                let seq = self.mutate(si, false, |seq| Frame::Get { seq, key, last_use })?;
                let plan = self.await_got_plan(si, seq, key)?;
                if let Some(e) = self.books.partition_mut(si).entries.get_mut(&key) {
                    e.plan = Some(plan.clone());
                }
                Some(plan)
            }
        }
    }

    /// Wait for the `GotPlan` answering `seq`, surviving worker deaths:
    /// a revived durable worker replays the `Get` and answers it; a lost
    /// partition or quarantine degrades to a miss.
    fn await_got_plan(&mut self, si: usize, seq: u64, key: u64) -> Option<SupervisedPlan> {
        let mut since = self.now();
        loop {
            if !self.books.partition(si).entries.contains_key(&key) || !self.children[si].live() {
                return None; // partition lost or shard dark: a miss
            }
            match self.next_event(si, Duration::from_millis(1), Some(since)) {
                Waited::Frame(Frame::GotPlan { seq: s, plan }) if s == seq => {
                    if plan.is_none() {
                        // Protocol breach: the mirror says hit, the
                        // worker says miss. Degrade, don't die.
                        self.stats.transport_errors += 1;
                        let del = Mutation::Del { key };
                        journal_append(&mut self.journal, &JournalFrame::of(si, &del));
                        self.books.partition_mut(si).apply(del);
                    }
                    return plan;
                }
                Waited::Revived => since = self.now(),
                _ => {}
            }
        }
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        let owner = self.books.router().shard_of(key);
        if self.books.capacity() > 0 && self.children[owner].quarantined() {
            // Fallback answers are never cached; inserts for a dark
            // shard are dropped (and counted) before any eviction.
            self.books.tick();
            self.stats.dropped_inserts += 1;
            return 0;
        }
        let plan = Some(plan.clone());
        self.books_op(true, &[], |b, sink| b.insert(key, plan, epoch, sink))
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        // One journal frame covers the whole purge: the fold retains
        // only `epoch` entries across every shard, exactly as below.
        journal_append(&mut self.journal, &JournalFrame::Purge { epoch });
        self.books_op(false, &[], |b, sink| b.purge(epoch, sink))
    }

    // ---- solving (the async cycle driver) ---------------------------------

    fn fallback_answers(
        &mut self,
        deco: &Deco,
        jobs: Vec<SolveJob>,
        scratch: &mut FrontierScratch,
        merged: &mut BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)>,
    ) {
        for job in jobs {
            self.stats.fallback_answers += 1;
            let answer = plan_fallback_only(
                deco,
                &job.workflow,
                job.deadline,
                job.percentile,
                QUARANTINE_REASON,
                scratch,
            );
            merged.insert(job.key, (job.budget, answer));
        }
    }

    /// (Re-)send shard `si`'s pending assignment; a shard that ends up
    /// dark keeps the group pending, and the poll converts it to
    /// fallbacks.
    fn dispatch(&mut self, si: usize, pending: &mut [Option<PendingGroup>]) {
        if let Some(group) = pending[si].as_mut() {
            self.send_control(si, &group.frame);
            group.assigned_at = self.now();
        }
    }

    fn solve_jobs(
        &mut self,
        deco: &Deco,
        jobs: Vec<SolveJob>,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        let mut merged = BTreeMap::new();
        if jobs.is_empty() {
            return merged;
        }
        let shards = self.children.len();
        let mut groups: Vec<Vec<SolveJob>> = (0..shards).map(|_| Vec::new()).collect();
        for job in jobs {
            groups[self.books.router().shard_of(job.key)].push(job);
        }
        let cycle = self.cycle;
        let mut scratch = FrontierScratch::new();
        let mut pending: Vec<Option<PendingGroup>> = (0..shards).map(|_| None).collect();

        for (si, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            if !self.children[si].live() {
                self.fallback_answers(deco, group, &mut scratch, &mut merged);
                continue;
            }
            let frame = encode_assign(cycle, &group);
            pending[si] = Some(PendingGroup {
                jobs: group,
                frame,
                assigned_at: 0,
            });
            self.dispatch(si, &mut pending);
            if self.chaos_kills.restarts_at(cycle, si) {
                // A real SIGKILL, mid-flight. Deliberately no bookkeeping:
                // detection must flow through EOF, not through this plan.
                if let Some(child) = self.children[si].child.as_mut() {
                    let _ = child.kill();
                }
            }
        }

        // The poll loop: healthy shards integrate the moment they answer;
        // a slow shard holds only its own jobs back. No async runtime —
        // per-shard channels polled with a short timeout.
        while pending.iter().any(Option::is_some) {
            for si in 0..shards {
                let Some(since) = pending[si].as_ref().map(|g| g.assigned_at) else {
                    continue;
                };
                // A shard that went dark (now or earlier) falls back.
                if !self.children[si].live() {
                    if let Some(group) = pending[si].take() {
                        self.fallback_answers(deco, group.jobs, &mut scratch, &mut merged);
                    }
                    continue;
                }
                match self.next_event(si, Duration::from_millis(1), Some(since)) {
                    Waited::Frame(Frame::JobResults { cycle: c, results }) if c == cycle => {
                        for (key, budget, result) in results {
                            merged.insert(key, (budget, result));
                        }
                        pending[si] = None;
                        self.children[si].monitor.succeeded();
                    }
                    Waited::Revived => self.dispatch(si, &mut pending),
                    _ => {}
                }
            }
        }
        merged
    }

    // ---- cycle boundary ---------------------------------------------------

    /// Drain one shard to its barrier: everything sent before this is
    /// acked (the replay buffer empties) and the worker's store counters
    /// are snapshotted. Survives worker deaths mid-barrier.
    fn barrier_one(&mut self, si: usize, cycle: u64) {
        let bytes = Frame::CycleBarrier { cycle }.encode();
        self.send_control(si, &bytes);
        let mut since = self.now();
        while self.children[si].live() {
            match self.next_event(si, Duration::from_millis(1), Some(since)) {
                Waited::Frame(Frame::BarrierAck { cycle: c, .. }) if c == cycle => return,
                Waited::Revived => {
                    self.send_control(si, &bytes);
                    since = self.now();
                }
                _ => {}
            }
        }
    }

    fn on_cycle_boundary(&mut self, cycle: u64) {
        self.cycle = cycle;
        // Barrier only the shards that need it: a barrier drains the
        // replay buffer, triggers worker-side compaction, and snapshots
        // store counters — all control-plane, none of it observable in
        // the response stream. Pure-hit cycles leave at most
        // recency-only frames (`Touch`) unacked, and over-replaying
        // those is free, so such shards skip the round trip entirely —
        // this is what keeps quiescent supervised throughput within
        // budget of the in-process tier. The free ack drain first
        // usually empties the buffer anyway (workers answer `Applied`
        // promptly); `TOUCH_BACKLOG` bounds the buffer if they don't.
        // A shard about to rotate always barriers — rotation must
        // never replay — and any real mutation left unacked barriers
        // to keep the durability window one cycle wide.
        for si in 0..self.children.len() {
            let rotating =
                !self.fault_plan.is_quiescent() && self.fault_plan.restarts_at(cycle, si);
            if !rotating {
                self.drain_acks(si);
            }
            let u = &self.children[si].unacked;
            let dirty =
                u.len() >= self.config.touch_backlog || u.iter().any(|&(_, _, recency)| !recency);
            if rotating || dirty {
                self.barrier_one(si, cycle);
            }
        }
        // Injected rotations land here, strictly between cycles, in
        // shard index order — deterministic for any schedule, and
        // warm (lossless) whenever persistence is on.
        if !self.fault_plan.is_quiescent() {
            for si in 0..self.children.len() {
                if self.fault_plan.restarts_at(cycle, si) {
                    self.rotate(si);
                }
            }
        }
    }

    /// Seal one cycle into the journal, then fire any scheduled
    /// supervisor crash. `false` halts the replay before the serve loop
    /// emits the cycle's responses, so everything the caller ever sees
    /// is provable from the journal.
    fn commit_cycle(
        &mut self,
        checkpoint: &ServeCheckpoint,
        new_responses: &[PlanResponse],
    ) -> bool {
        // 1. Seal the cycle. A journal write failure degrades the run to
        //    unjournaled (counted and reported, never fatal): serving
        //    availability outranks failover cover, and the torn tail
        //    stays harmless — recovery discards anything after the last
        //    sealed commit.
        if let Some(j) = self.journal.as_mut() {
            let shard_seqs: Vec<u64> = self.children.iter().map(|c| c.seq).collect();
            let shard_health: Vec<ShardHealth> = self
                .children
                .iter()
                .map(|c| ShardHealth {
                    strikes: c.monitor.strikes(),
                    quarantined: c.monitor.state() == Liveness::Quarantined,
                })
                .collect();
            let lines: Vec<String> = new_responses.iter().map(|r| r.canonical_line()).collect();
            let rec = CommitRef {
                cycle: self.cycle,
                clock: self.books.clock(),
                shard_seqs: &shard_seqs,
                shard_health: &shard_health,
                serve: checkpoint,
                lines: &lines,
            };
            if let Err(e) = j.seal(rec) {
                eprintln!(
                    "deco-shard: supervisor journal lost at cycle {}, serving on \
                     without failover cover: {e}",
                    self.cycle
                );
                self.stats.journal_failures += 1;
                self.stats.journal_lost_at_cycle = Some(self.cycle);
                self.journal = None;
            }
        }
        // 2. Scheduled self-crash: after the durable commit, before the
        //    serve loop emits — the widest window a failover must close.
        if checkpoint.stats.cycles > self.committed_cycles {
            let completed = checkpoint.stats.cycles - 1;
            self.committed_cycles = checkpoint.stats.cycles;
            let firing = self.crash_plan.as_ref().filter(|p| p.fires_at(completed));
            match firing.map(SupervisorFaultPlan::mode) {
                Some(SupervisorCrashMode::Abort) => std::process::abort(),
                Some(SupervisorCrashMode::Halt) => {
                    self.halted = true;
                    return false;
                }
                None => {}
            }
        }
        true
    }

    fn shutdown(&mut self) {
        for si in 0..self.children.len() {
            if let Some(stdin) = self.children[si].stdin.as_mut() {
                let _ = Frame::Shutdown.write_to(stdin);
            }
            self.children[si].stdin = None; // EOF backstop
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        for si in 0..self.children.len() {
            let Some(child) = self.children[si].child.as_mut() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
            self.children[si].child = None;
        }
    }
}

/// A sharded [`ServeBackend`] whose shards are supervised child
/// processes. See the module docs for the architecture; the headline
/// contract is the same as [`crate::ShardedServer`]'s — byte-identical
/// replays against `PlanServer` for any shard count, including under
/// kill/restart schedules when persistence is on — plus graceful
/// degradation (fallback answers, never a stall) when a shard burns
/// through its restart strike budget.
pub struct ShardSupervisor {
    pub deco: Deco,
    config: SuperviseConfig,
    inner: Mutex<Inner>,
}

impl ShardSupervisor {
    /// Spawn the worker fleet. With a `persist_dir`, every worker
    /// warm-starts from its recovered snapshot + WAL and the supervisor
    /// adopts the recovered metadata into its mirror. With a
    /// `journal_dir`, any prior journal is reset first: `new` asserts
    /// fresh authority over the world it spawns (use
    /// [`recover`](Self::recover) to continue a dead supervisor's run).
    pub fn new(deco: Deco, config: SuperviseConfig) -> Result<Self, DecoError> {
        let journal = match &config.journal_dir {
            Some(dir) => {
                let (mut j, _) =
                    SupervisorJournal::open(dir, config.snapshot_every, config.sync_every)?;
                j.reset()?;
                Some(j)
            }
            None => None,
        };
        Self::build(deco, config, journal)
    }

    fn build(
        deco: Deco,
        config: SuperviseConfig,
        journal: Option<SupervisorJournal>,
    ) -> Result<Self, DecoError> {
        let mut inner = Inner::new(&deco, &config, journal);
        for si in 0..config.shards {
            let report = inner.spawn_worker(si)?;
            let now = inner.now();
            inner.children[si].monitor.rotated(now);
            // Adopt the warm partition into the mirror — metadata only:
            // the plan bytes stay in the worker until the first hit
            // fetches (and keeps) them — and into the journal, so a
            // failover inherits the adopted world too.
            inner.books.adopt(si, report.partition());
            for m in inner.books.partition(si).image() {
                journal_append(&mut inner.journal, &JournalFrame::of(si, &m));
            }
        }
        Ok(ShardSupervisor {
            deco,
            config,
            inner: Mutex::new(inner),
        })
    }

    /// Rebuild a supervisor from its journal and take over the dead
    /// incarnation's run. Returns the supervisor plus, when the journal
    /// holds a sealed cycle commit, the [`RecoveredRun`] a takeover
    /// driver resumes from: the serve-loop checkpoint to pass to
    /// [`serve_trace_journaled`](Self::serve_trace_journaled) and the
    /// committed response lines to re-emit first.
    ///
    /// `refreshes` must be the calibration schedule of the interrupted
    /// session: the ones the checkpoint records as applied are replayed
    /// onto `deco` (epoch discipline included) before any worker spawns.
    ///
    /// Recovery then reconciles the journaled mirror against the world:
    /// every non-quarantined shard is (re)spawned — a worker orphaned by
    /// the old supervisor exits on stdin EOF, so its WAL-backed store is
    /// complete — greeted with `Hello { resume_seq }` at its journaled
    /// seq high-water mark, and diffed against the mirror: worker-held
    /// keys the mirror does not know are deleted (torn-cycle orphans the
    /// deterministic re-run re-creates as needed) and divergent recency
    /// stamps are re-stamped from the mirror. Mirror entries the worker
    /// lacks stay: with persistence on they cannot happen outside a
    /// breach, and the existing Get path degrades a breach to a miss.
    pub fn recover(
        deco: Deco,
        config: SuperviseConfig,
        refreshes: &[CalibrationRefresh],
    ) -> Result<(Self, Option<RecoveredRun>), DecoError> {
        let Some(dir) = config.journal_dir.clone() else {
            return Ok((Self::new(deco, config)?, None));
        };
        let (journal, recovery) =
            SupervisorJournal::open(&dir, config.snapshot_every, config.sync_every)?;
        let Some(commit) = recovery.commit else {
            // The primary never sealed a cycle: nothing to resume, and
            // the discarded torn group (if any) was never emitted. Start
            // fresh on the already-open journal.
            return Ok((Self::build(deco, config, Some(journal))?, None));
        };
        if commit.shard_seqs.len() != config.shards || commit.shard_health.len() != config.shards {
            return Err(DecoError::Store(format!(
                "journal was written by a {}-shard supervisor, config says {}",
                commit.shard_seqs.len(),
                config.shards
            )));
        }

        // Re-apply the calibration refreshes the checkpoint records as
        // applied — same order, same strictly-increasing epoch bumps —
        // so workers spawn against the right engine.
        let mut deco = deco;
        let mut sorted: Vec<CalibrationRefresh> = refreshes.to_vec();
        sorted.sort_by(|a, b| a.at_tick.total_cmp(&b.at_tick));
        let applied = (commit.serve.refresh_next as usize).min(sorted.len());
        for refresh in &sorted[..applied] {
            install_calibration(&mut deco.store, refresh.store.clone());
        }

        let mut inner = Inner::new(&deco, &config, Some(journal));
        inner.cycle = commit.cycle;
        inner.stats.journal_frames_recovered = recovery.frames;
        inner.stats.journal_torn_bytes = recovery.torn_bytes;
        for (si, child) in inner.children.iter_mut().enumerate() {
            let h = commit.shard_health[si];
            child.monitor.restore(h.strikes, h.quarantined, 0);
            child.seq = commit.shard_seqs[si];
        }
        for (si, folded) in recovery.shards.iter().enumerate().take(config.shards) {
            inner.books.adopt(si, folded.map(|_| None));
        }
        inner.books.advance_clock(commit.clock);
        for si in 0..config.shards {
            if inner.children[si].quarantined() {
                continue; // written off before the death; stays written off
            }
            let report = inner.spawn_worker(si)?;
            let now = inner.now();
            inner.children[si].monitor.rotated(now);
            inner.reconcile(si, &report);
        }
        let run = RecoveredRun {
            checkpoint: commit.serve,
            lines_start: recovery.lines_start,
            lines: recovery.lines,
        };
        Ok((
            ShardSupervisor {
                deco,
                config,
                inner: Mutex::new(inner),
            },
            Some(run),
        ))
    }

    /// Release the world without tearing it down as authority: drop the
    /// journal handle and shut the workers down cleanly (their WALs are
    /// complete at exit), so a standby can [`recover`](Self::recover)
    /// from the same `journal_dir` + `persist_dir`. Used by in-process
    /// takeover drills; a SIGKILLed supervisor gets the same effect for
    /// free (worker stdin EOF).
    pub fn abandon(&mut self) {
        let inner = self.inner_mut();
        inner.journal = None;
        inner.shutdown();
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn inner_mut(&mut self) -> &mut Inner {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    pub fn config(&self) -> &SuperviseConfig {
        &self.config
    }

    /// Supervision counters, with worker store counters aggregated
    /// across every incarnation.
    pub fn stats(&self) -> SuperviseStats {
        let inner = self.inner();
        let mut s = inner.stats.clone();
        for c in &inner.children {
            let t = c.store_totals();
            s.wal_appends += t.wal_appends;
            s.snapshots += t.snapshots;
            s.syncs += t.syncs;
            s.store_failures += t.store_failures;
        }
        if let Some(j) = inner.journal.as_ref() {
            let t = j.stats();
            s.journal_appends += t.appends;
            s.journal_commits += t.commits;
            s.journal_snapshots += t.snapshots;
            s.journal_syncs += t.syncs;
            s.journal_bytes += t.bytes;
        }
        s
    }

    /// Liveness state per shard.
    pub fn shard_liveness(&self) -> Vec<Liveness> {
        self.inner()
            .children
            .iter()
            .map(|c| c.monitor.state())
            .collect()
    }

    /// Total mirrored cache entries across all shards.
    pub fn cache_len(&self) -> usize {
        self.inner().books.len()
    }

    /// Mirrored entries in one shard's partition.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.inner().books.partition(shard).entries.len()
    }

    /// Content keys currently quarantined, across all shards.
    pub fn quarantined_keys(&self) -> usize {
        self.inner().books.quarantined_keys()
    }

    /// Kill one worker and bring it back — the out-of-process analog of
    /// `ShardedServer::restart_shard`. Drains the shard to a barrier
    /// first, so with persistence the restart is observationally a
    /// no-op; without it the partition is deterministically lost.
    pub fn restart_shard(&mut self, shard: usize) {
        let inner = self.inner_mut();
        assert!(shard < inner.children.len(), "shard {shard} out of range");
        let cycle = inner.cycle;
        inner.barrier_one(shard, cycle);
        inner.rotate(shard);
    }

    /// Replay a recorded trace under a quiescent session.
    pub fn serve_trace(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace_session(trace, &SuperviseSession::default())
    }

    /// Replay a recorded trace under an explicit [`SuperviseSession`].
    /// Byte-identical to `PlanServer::serve_trace_session` on the same
    /// `(trace, session.serve)` for any shard count — including under
    /// `shard_faults` rotations and `chaos_kills` SIGKILLs when
    /// persistence is on.
    pub fn serve_trace_session(
        &mut self,
        trace: &ArrivalTrace,
        session: &SuperviseSession,
    ) -> (Vec<PlanResponse>, ServeStats) {
        {
            let inner = self.inner_mut();
            inner.fault_plan = session.shard_faults.clone();
            inner.chaos_kills = session.chaos_kills.clone();
        }
        let workers = self.config.workers_per_shard;
        let result = serve_trace_backend(self, trace, workers, &session.serve);
        {
            let inner = self.inner_mut();
            inner.fault_plan = ShardFaultPlan::quiescent();
            inner.chaos_kills = ShardFaultPlan::quiescent();
        }
        result
    }

    /// The crash-tolerant replay driver: like
    /// [`serve_trace_session`](Self::serve_trace_session) but with cycle
    /// commits sealed into the journal **before** any response is
    /// emitted, an optional resume point (a [`RecoveredRun`] checkpoint
    /// from [`recover`](Self::recover)), and the
    /// [`SuperviseSession::supervisor`] crash schedule honored.
    ///
    /// `emit` receives each response the moment its cycle's commit is
    /// durable, tagged with its global stream index — the streaming
    /// output a takeover must splice into. The returned `Vec` still
    /// accumulates everything (the non-streaming callers' contract);
    /// the final `bool` is `true` when a
    /// [`SupervisorCrashMode::Halt`] fault stopped the run mid-trace
    /// (an `Abort` fault never returns at all).
    ///
    /// Commit-before-emit is the failover invariant: a line reaches the
    /// caller only after the journal can prove it, so a standby
    /// re-emitting every journaled line past the caller's high-water
    /// mark closes the crash window without gaps or duplicates.
    pub fn serve_trace_journaled(
        &mut self,
        trace: &ArrivalTrace,
        session: &SuperviseSession,
        resume: Option<ServeCheckpoint>,
        emit: &mut dyn FnMut(u64, &PlanResponse),
    ) -> (Vec<PlanResponse>, ServeStats, bool) {
        let workers = self.config.workers_per_shard;
        {
            let inner = self.inner_mut();
            inner.fault_plan = session.shard_faults.clone();
            inner.chaos_kills = session.chaos_kills.clone();
            inner.crash_plan = Some(session.supervisor.clone());
            // A resumed run has already committed (and re-emitted) every
            // cycle the checkpoint covers; the crash schedule must count
            // completed cycles from there, not from zero.
            inner.committed_cycles = resume.as_ref().map_or(0, |ck| ck.stats.cycles);
            inner.halted = false;
            // A resumed run continues the wait log the journal
            // recovered; a fresh one restarts it.
            if let (None, Some(j)) = (&resume, inner.journal.as_mut()) {
                j.restart_waits();
            }
        }
        let (responses, stats) =
            serve_trace_resumable(self, trace, workers, &session.serve, resume, emit);
        let inner = self.inner_mut();
        inner.fault_plan = ShardFaultPlan::quiescent();
        inner.chaos_kills = ShardFaultPlan::quiescent();
        inner.crash_plan = None;
        (responses, stats, inner.halted)
    }
}

impl Drop for ShardSupervisor {
    fn drop(&mut self) {
        self.inner_mut().shutdown();
    }
}

impl ServeBackend for ShardSupervisor {
    fn deco(&self) -> &Deco {
        &self.deco
    }

    fn config(&self) -> &ServeConfig {
        &self.config.serve
    }

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        self.inner_mut().cache_get(key)
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        self.inner_mut().cache_insert(key, plan, epoch)
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        self.inner_mut().cache_purge_stale(epoch)
    }

    fn is_key_quarantined(&self, key: u64) -> bool {
        self.inner().books.is_quarantined(key)
    }

    fn strike_count(&self, key: u64) -> Option<u32> {
        self.inner().books.strikes(key)
    }

    fn add_strike(&mut self, key: u64) -> u32 {
        self.inner_mut()
            .books_op(true, &[], |b, sink| b.strike(key, sink))
    }

    fn quarantine_key(&mut self, key: u64) {
        self.inner_mut()
            .books_op(true, &[], |b, sink| b.quarantine(key, sink))
    }

    fn clear_strikes(&mut self, key: u64) {
        self.inner_mut()
            .books_op(true, &[], |b, sink| b.clear(key, sink))
    }

    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        _workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        // Workers solve in their own processes with their own pools; the
        // pool width travelled in `Hello`. Interior mutability because
        // the cycle loop holds `&self` here while the supervisor may
        // need to restart workers mid-solve.
        let mut inner = self.inner();
        inner.solve_jobs(&self.deco, jobs)
    }

    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        // PlanServer's refresh, plus one EpochSwap frame per shard so
        // workers (and their WALs) follow the same discipline.
        let epoch = install_calibration(&mut self.deco.store, store);
        let catalog = encode_store(&self.deco.store);
        let engine = encode_engine(&self.deco);
        let inner = self.inner_mut();
        inner.engine = engine;
        // One journal frame covers the swap: the fold retains only
        // `epoch` entries and clears the books on every shard.
        journal_append(&mut inner.journal, &JournalFrame::Epoch { epoch });
        let purged = inner.books_op(false, &catalog, |b, sink| b.refresh(epoch, sink));
        (epoch, purged)
    }

    fn on_cycle_boundary(&mut self, cycle: u64) {
        self.inner_mut().on_cycle_boundary(cycle)
    }

    fn observability(&self) -> BackendObservability {
        let inner = self.inner();
        let mut store_failures = inner.stats.store_failures;
        for c in &inner.children {
            store_failures += c.store_totals().store_failures;
        }
        BackendObservability {
            store_failures,
            transport_errors: inner.stats.transport_errors,
            restarts: inner.stats.restarts,
        }
    }

    fn wants_commits(&self) -> bool {
        self.inner().crash_plan.is_some()
    }

    fn commit_cycle(
        &mut self,
        checkpoint: &ServeCheckpoint,
        new_responses: &[PlanResponse],
    ) -> bool {
        self.inner_mut().commit_cycle(checkpoint, new_responses)
    }
}

#[cfg(test)]
mod tests {
    // Process-spawning coverage lives in tests/supervise.rs (a
    // harness-free integration test whose main() doubles as the worker
    // entry point — under the libtest harness, current_exe() would
    // recursively run the whole suite). Here: the pure parts.
    use super::*;

    #[test]
    fn restart_backoff_follows_the_shared_capped_series() {
        let config = SuperviseConfig {
            backoff_base_ms: 8,
            backoff_cap_ms: 100,
            ..SuperviseConfig::default()
        };
        let series: Vec<u64> = (1..=6).map(|a| restart_backoff_ms(&config, a)).collect();
        assert_eq!(series, vec![8, 16, 32, 64, 100, 100]);
        for a in 1..=6 {
            assert_eq!(
                restart_backoff_ms(&config, a),
                capped_backoff(8.0, 100.0, a) as u64,
                "supervision must pace restarts on the engine's own series"
            );
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = SuperviseConfig::default();
        assert!(c.heartbeat_timeout_ms > c.heartbeat_ms);
        assert!(c.hang_timeout_ms >= c.heartbeat_timeout_ms);
        assert!(c.strike_budget >= 1);
        assert!(c.sabotage.is_empty());
    }
}
