//! The plan server: admission → cache → worker pool → supervisor.
//!
//! [`PlanServer::serve_trace`] replays a recorded [`ArrivalTrace`] through
//! a deterministic cycle loop:
//!
//! 1. **Admit** every arrival whose tick has passed, up to the queue
//!    capacity; a full queue first tries the deadline-aware shed policy
//!    (drop a waiter whose canonical deadline has already expired) and
//!    only then answers the newcomer `Rejected` with the
//!    [`DecoError::Overloaded`] rendering.
//! 2. **Drain** one batch — priority classes first, FIFO within a class —
//!    and classify each request against the content-addressed cache: warm
//!    hits answer immediately; quarantined keys answer from the fallback
//!    chain; equal keys within the batch (or matching a pending retry)
//!    coalesce onto one solve; the remaining unique misses become solve
//!    jobs, each budgeted by the per-request cap clamped by its hint.
//! 3. **Solve** the jobs on a pool of worker threads (vendored crossbeam
//!    channels, one reusable [`FrontierScratch`] per worker), every job routed
//!    through [`plan_with_fallback_scratch`]. A [`WorkerFaultPlan`] may
//!    crash or straggle *virtual* workers: fates are keyed on
//!    (virtual worker, cycle) with jobs assigned by canonical key rank, so
//!    injected failures are independent of the physical thread count.
//!    Crashed solves re-enqueue with capped exponential backoff charged
//!    against their remaining budget; exhausted retries escalate to the
//!    degradation chain; repeat offenders are quarantined.
//! 4. **Integrate** results in canonical key order (a `BTreeMap`, so the
//!    cache and stats are updated identically no matter which worker
//!    finished first), respond in sequence order, and advance the model
//!    clock by the cycle's deterministic service ticks.
//!
//! Because every step orders by content key or trace sequence — never by
//! thread completion — the response stream and stats are byte-identical
//! at 1, 2, or 8 workers, with or without injected faults. The chaos
//! tests pin this, and additionally pin that a quiescent fault plan is
//! bit-identical to a server without the fault machinery at all.
//!
//! ## The backend abstraction
//!
//! The cycle loop itself is generic: [`serve_trace_backend`] drives any
//! [`ServeBackend`] — an implementation of the cache, the
//! quarantine/strike books, the solver pool, and the calibration swap.
//! [`PlanServer`] is the single-process backend (one-partition
//! [`Books`], one pool); the `deco-shard` crate implements the same trait
//! over the same [`Books`] **partitioned by contiguous content-key
//! range** across N shards, each with its own worker pool and durable
//! WAL-backed store.
//! Every observable the engine produces is ordered by content key or
//! trace sequence, and a key-range partition walked shard-by-shard in
//! ascending range order visits keys in exactly the global canonical
//! order — which is why an N-shard backend replays byte-identically to
//! this single-process one (the shard tests pin N ∈ {1, 2, 4}).

use crate::cache::{plan_key, Books};
use crate::checkpoint::{PendingCheckpoint, ServeCheckpoint};
use crate::faults::{WorkerFate, WorkerFaultPlan};
use crate::queue::{effective_budget, AdmissionQueue, QueuedRequest};
use crate::request::{
    Arrival, ArrivalTrace, PlanRequest, PlanResponse, PlanSource, ServeOutcome, ServedPlan,
};
use crate::stats::{BackendObservability, CycleRow, ServeStats};
use deco_cloud::{MetadataStore, RetryConfig};
use deco_core::estimate::FrontierScratch;
use deco_core::supervisor::{
    plan_fallback_only, plan_with_fallback_scratch, PlanStage, SupervisedPlan,
};
use deco_core::{Deco, DecoError};
use deco_solver::SearchBudget;
use deco_workflow::Workflow;
use std::collections::BTreeMap;

/// Serving policy knobs. Defaults suit the integration tests and bench;
/// production traces should size `queue_capacity` to tolerated burst.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue bound; arrivals beyond it are shed-or-rejected.
    pub queue_capacity: usize,
    /// Requests drained per solve cycle.
    pub batch_size: usize,
    /// Plan cache bound (entries). Zero is a documented no-op cache:
    /// every request solves cold (fail-soft for misconfigured shards).
    pub cache_capacity: usize,
    /// Deadline canonicalization bucket, seconds. Deadlines are floored
    /// to a bucket multiple (never below one bucket), so near-identical
    /// requests share cache lines while the served deadline stays
    /// conservative (no later than requested).
    pub deadline_bucket: f64,
    /// Per-request search budget cap; a request's hint can only tighten it.
    pub budget: SearchBudget,
    /// Retry policy for solves lost to worker crashes: backoff ticks are
    /// `capped_backoff(base, cap, retry)` (the same shared helper
    /// `deco_faults::recovery` uses) and are charged against the
    /// request's remaining budget.
    pub retry: RetryConfig,
    /// Cumulative worker-crash strikes after which a content key is
    /// quarantined: answered from the fallback chain, never dispatched to
    /// workers again (until a calibration refresh clears the set). Kept
    /// above `retry.max_attempts` by default so a single job escalates
    /// before its key is quarantined.
    pub quarantine_threshold: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            batch_size: 16,
            cache_capacity: 256,
            deadline_bucket: 60.0,
            budget: SearchBudget::unlimited(),
            retry: RetryConfig::default(),
            quarantine_threshold: 6,
        }
    }
}

/// A scheduled calibration swap: at the first cycle boundary at or after
/// `at_tick`, the server atomically replaces its metadata store and bumps
/// the catalog epoch. No cycle ever integrates plans from two epochs —
/// the epoch-mix invariant test pins this.
#[derive(Debug, Clone)]
pub struct CalibrationRefresh {
    pub at_tick: f64,
    pub store: MetadataStore,
}

/// Environment for one serve run: the worker fault schedule plus any
/// scheduled calibration refreshes. `Default` is the quiescent session —
/// no faults, no refreshes — under which
/// [`PlanServer::serve_trace_session`] is bit-identical to
/// [`PlanServer::serve_trace`].
#[derive(Debug, Clone, Default)]
pub struct ServeSession {
    pub faults: WorkerFaultPlan,
    pub refreshes: Vec<CalibrationRefresh>,
}

/// Floor a deadline to its canonical bucket: multiples of
/// `bucket`, never below one bucket, and never above the request.
pub fn canonical_deadline(deadline: f64, bucket: f64) -> f64 {
    assert!(
        bucket > 0.0 && bucket.is_finite(),
        "bucket must be positive"
    );
    if deadline <= bucket {
        deadline
    } else {
        (deadline / bucket).floor() * bucket
    }
}

/// The canonical deadline, the budget component of the key, and the
/// content key of one request under `config` — the derivation the cycle
/// loop runs and [`PlanServer::key_for`] exposes.
pub fn canonical_key(
    deco: &Deco,
    config: &ServeConfig,
    req: &PlanRequest,
) -> (f64, Option<f64>, u64) {
    let cd = canonical_deadline(req.deadline, config.deadline_bucket);
    let key_budget = req.budget_hint.or(config.budget.ticks);
    let key = plan_key(
        &req.workflow,
        &deco.store,
        &deco.options,
        cd,
        req.percentile,
        key_budget,
    );
    (cd, key_budget, key)
}

/// Swap freshly calibrated metadata in, bumping its catalog epoch until
/// it is strictly past the one it replaces; returns the new epoch. Every
/// tier's refresh, and a standby replaying one, goes through here.
pub fn install_calibration(current: &mut MetadataStore, fresh: MetadataStore) -> u64 {
    let old = current.catalog_epoch();
    *current = fresh;
    while current.catalog_epoch() <= old {
        current.bump_catalog_epoch();
    }
    current.catalog_epoch()
}

/// One cold solve dispatched to a worker pool. Public so alternative
/// [`ServeBackend`]s (the shard tier) can route jobs to their own pools.
#[derive(Debug)]
pub struct SolveJob {
    pub key: u64,
    pub workflow: Workflow,
    /// Canonical (bucket-floored) deadline.
    pub deadline: f64,
    pub percentile: f64,
    pub budget: SearchBudget,
}

/// The state a serving cycle loop runs against: a plan cache, the
/// quarantine/strike books, a solver pool, and the calibration swap.
///
/// [`serve_trace_backend`] is written so that **every** mutation and
/// query it issues is keyed by content key (or applies to the whole
/// backend), and every iteration it performs over backend-derived data is
/// in canonical key order. A backend that partitions its state by
/// disjoint key ranges — with range-local storage but globally consistent
/// answers (one logical LRU, one logical strike book) — is therefore
/// observationally identical to the single-map implementation, which is
/// the design contract the `deco-shard` tier builds on.
pub trait ServeBackend {
    /// The engine configuration and catalog every key is derived from.
    fn deco(&self) -> &Deco;
    /// Serving policy. Read once per trace replay.
    fn config(&self) -> &ServeConfig;
    /// Cache lookup; refreshes the entry's LRU stamp on a hit. Must
    /// advance the LRU clock on misses too (the single-process cache
    /// does, and eviction tie-breaking depends on it).
    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan>;
    /// Cache insert; returns entries evicted to make room (0 or 1).
    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize;
    /// Drop every entry solved under an older catalog epoch.
    fn cache_purge_stale(&mut self, epoch: u64) -> usize;
    /// Is this content key answered from the fallback chain?
    fn is_key_quarantined(&self, key: u64) -> bool;
    /// Worker-crash strikes recorded against a key, if any.
    fn strike_count(&self, key: u64) -> Option<u32>;
    /// Record one more crash strike; returns the new total.
    fn add_strike(&mut self, key: u64) -> u32;
    /// Quarantine a key (answered from fallback until a refresh).
    fn quarantine_key(&mut self, key: u64);
    /// Clear a key's strikes after a successful solve.
    fn clear_strikes(&mut self, key: u64);
    /// Solve one cycle's unique misses; results must land keyed by
    /// content key so integration order is canonical.
    #[allow(clippy::type_complexity)]
    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)>;
    /// Atomically swap in freshly calibrated metadata between cycles;
    /// returns `(new_epoch, purged_entries)`.
    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize);
    /// Hook invoked at every cycle boundary, just before the cycle's
    /// classification pass. The single-process server does nothing; the
    /// shard tier injects deterministic shard restarts (and WAL
    /// compaction) here, strictly between cycles.
    fn on_cycle_boundary(&mut self, _cycle: u64) {}
    /// Cumulative backend-health counters (store failures, transport
    /// errors, restarts) snapshotted into each cycle's observability
    /// row. Excluded from the digest and from row equality — see
    /// [`BackendObservability`]. The single-process server has none.
    fn observability(&self) -> BackendObservability {
        BackendObservability::default()
    }
    /// Opt into cycle-commit checkpoints. When `true`, the loop builds a
    /// [`ServeCheckpoint`] after every cycle (and once more at end of
    /// trace) and hands it to [`ServeBackend::commit_cycle`]. Off by
    /// default: the plain path constructs and clones nothing.
    fn wants_commits(&self) -> bool {
        false
    }
    /// Durably record one cycle boundary: the loop's full continuation
    /// plus the responses appended since the previous commit, which the
    /// loop emits only after this returns `true`. Returning `false`
    /// halts the replay immediately — the supervisor's fault injection
    /// uses this to simulate a crash in the window between commit and
    /// emission. Only called when [`ServeBackend::wants_commits`] is
    /// `true`.
    fn commit_cycle(
        &mut self,
        checkpoint: &ServeCheckpoint,
        new_responses: &[PlanResponse],
    ) -> bool {
        let _ = (checkpoint, new_responses);
        true
    }
}

/// How one request will be answered at the end of a cycle.
enum Answer {
    Plan {
        plan: Box<SupervisedPlan>,
        source: PlanSource,
    },
    Reject {
        reason: String,
    },
}

/// Answer a request from the degradation chain without touching the
/// worker pool (quarantined keys, exhausted retries). Returns the answer
/// plus its deterministic service-tick charge; `Err` from the chain
/// becomes a `Reject` (counted as a solve failure by the caller).
fn fallback_answer(
    deco: &Deco,
    workflow: &Workflow,
    deadline: f64,
    percentile: f64,
    reason: &str,
    source: PlanSource,
    scratch: &mut FrontierScratch,
) -> (Answer, f64, bool) {
    match plan_fallback_only(deco, workflow, deadline, percentile, reason, scratch) {
        Ok(plan) => {
            let spent = plan.provenance.budget_spent;
            (
                Answer::Plan {
                    plan: Box::new(plan),
                    source,
                },
                spent,
                false,
            )
        }
        Err(e) => (
            Answer::Reject {
                reason: e.to_string(),
            },
            0.0,
            true,
        ),
    }
}

/// Structural validation before any key derivation or solving.
fn validate_request(req: &PlanRequest) -> Result<(), DecoError> {
    if req.workflow.is_empty() {
        return Err(DecoError::Plan("workflow has no tasks".into()));
    }
    if !req.deadline.is_finite() || req.deadline <= 0.0 {
        return Err(DecoError::Plan(format!(
            "deadline must be finite and positive, got {}",
            req.deadline
        )));
    }
    if !(req.percentile > 0.0 && req.percentile <= 1.0) {
        return Err(DecoError::Plan(format!(
            "percentile must lie in (0, 1], got {}",
            req.percentile
        )));
    }
    if let Some(h) = req.budget_hint {
        if !h.is_finite() || h <= 0.0 {
            return Err(DecoError::Plan(format!(
                "budget hint must be finite and positive, got {h}"
            )));
        }
    }
    Ok(())
}

/// Replay a recorded trace against any [`ServeBackend`] under an explicit
/// [`ServeSession`]. This is the deterministic cycle loop behind
/// [`PlanServer::serve_trace_session`] and the shard tier's replay:
/// identical `(trace, session)` inputs produce byte-identical response
/// streams and stats at any worker count — and, for a key-range
/// partitioned backend, at any shard count.
pub fn serve_trace_backend<B: ServeBackend>(
    backend: &mut B,
    trace: &ArrivalTrace,
    workers: usize,
    session: &ServeSession,
) -> (Vec<PlanResponse>, ServeStats) {
    serve_trace_resumable(backend, trace, workers, session, None, &mut |_, _| {})
}

/// [`serve_trace_backend`] with an optional resume point. `resume` is
/// the last committed [`ServeCheckpoint`] of a previous — killed — run
/// of the *same* `(trace, session)`: the loop restores the trace
/// cursor, virtual clock, admission queue, retry set and running
/// stats from it and serves only the remainder,
/// producing exactly the responses the dead process had not yet
/// committed (the backend's own state — cache, books, epoch — must
/// already have been rebuilt by its recovery path).
///
/// `emit` receives each response, tagged with its global stream index,
/// once [`ServeBackend::commit_cycle`] has accepted the commit that
/// covers it: commit first, then the backend's crash check (a `false`
/// return halts before anything of that cycle is emitted), then emit.
/// A backend that does not want commits never emits. With `resume:
/// None` and a no-op `emit` this is `serve_trace_backend`.
pub fn serve_trace_resumable<B: ServeBackend>(
    backend: &mut B,
    trace: &ArrivalTrace,
    workers: usize,
    session: &ServeSession,
    resume: Option<ServeCheckpoint>,
    emit: &mut dyn FnMut(u64, &PlanResponse),
) -> (Vec<PlanResponse>, ServeStats) {
    assert!(workers >= 1, "the pool needs at least one worker");
    let cfg = backend.config().clone();
    assert!(cfg.batch_size >= 1, "batch_size must be at least 1");
    let wants_commits = backend.wants_commits();

    let mut refreshes: Vec<CalibrationRefresh> = session.refreshes.clone();
    refreshes.sort_by(|a, b| a.at_tick.total_cmp(&b.at_tick));

    let mut queue = AdmissionQueue::new(cfg.queue_capacity);
    let mut stats;
    let mut refresh_next;
    let mut retries: Vec<PendingCheckpoint>;
    let mut next: usize;
    let mut now: f64;
    let mut emitted_base = 0u64;
    match resume {
        Some(ck) => {
            // A standby resuming a committed checkpoint. The initial
            // stale purge belongs to the original run and is not
            // repeated; refreshes before `refresh_next` were applied by
            // the backend's recovery.
            next = ck.next as usize;
            now = ck.now;
            refresh_next = (ck.refresh_next as usize).min(refreshes.len());
            queue.restore_pending(ck.queue);
            retries = ck.retries;
            stats = ck.stats;
            emitted_base = ck.emitted;
        }
        None => {
            stats = ServeStats::default();
            let epoch0 = backend.deco().store.catalog_epoch();
            stats.stale_purged += backend.cache_purge_stale(epoch0) as u64;
            refresh_next = 0;
            retries = Vec::new();
            next = 0;
            now = 0.0;
        }
    }

    let mut responses: Vec<PlanResponse> = Vec::with_capacity(trace.len());
    let arrivals = trace.arrivals();
    let mut shed_pending = 0u64;
    let mut committed = 0usize;

    while next < arrivals.len() || !queue.is_empty() || !retries.is_empty() {
        // An idle server sleeps until the next recorded arrival or the
        // earliest retry's backoff expiry, whichever comes first.
        if queue.is_empty() && !retries.iter().any(|j| j.not_before <= now) {
            let wake_arrival = arrivals
                .get(next)
                .map(|a| a.at_tick)
                .unwrap_or(f64::INFINITY);
            let wake_retry = retries
                .iter()
                .map(|j| j.not_before)
                .fold(f64::INFINITY, f64::min);
            let wake = wake_arrival.min(wake_retry);
            if wake.is_finite() && wake > now {
                now = wake;
            }
        }

        // Apply due calibration refreshes strictly between cycles,
        // re-keying pending retries into the new epoch.
        while refresh_next < refreshes.len() && refreshes[refresh_next].at_tick <= now {
            let refresh = refreshes[refresh_next].clone();
            refresh_next += 1;
            let (_, purged) = backend.refresh_calibration(refresh.store);
            stats.refreshes += 1;
            stats.stale_purged += purged as u64;
            let deco = backend.deco();
            for job in retries.iter_mut() {
                job.key = plan_key(
                    &job.workflow,
                    &deco.store,
                    &deco.options,
                    job.deadline,
                    job.percentile,
                    job.key_budget,
                );
            }
        }

        // Admit everything that has arrived by now. A full queue first
        // tries to shed a waiter whose canonical deadline has already
        // expired in queue, and rejects the newcomer only when every
        // waiter is still viable: viable work is never sacrificed to
        // a forecast.
        while next < arrivals.len() && arrivals[next].at_tick <= now {
            let Arrival {
                at_tick,
                ref request,
            } = arrivals[next];
            let seq = next as u64;
            let tenant = request.tenant;
            next += 1;
            let Err(full) = queue.try_admit(seq, at_tick, request.clone()) else {
                continue;
            };
            let refusal = match queue.shed_unmeetable(now, cfg.deadline_bucket) {
                Some(victim) => {
                    stats.shed += 1;
                    shed_pending += 1;
                    let cd = canonical_deadline(victim.request.deadline, cfg.deadline_bucket);
                    responses.push(PlanResponse {
                        seq: victim.seq,
                        tenant: victim.request.tenant,
                        key: 0,
                        outcome: ServeOutcome::Shed {
                            reason: format!(
                                "canonical deadline {cd} already unmeetable \
                                     at queue overflow"
                            ),
                        },
                    });
                    match queue.try_admit(seq, at_tick, request.clone()) {
                        Ok(()) => continue,
                        Err(e) => e,
                    }
                }
                None => full,
            };
            stats.rejected_overload += 1;
            responses.push(PlanResponse {
                seq,
                tenant,
                key: 0,
                outcome: ServeOutcome::Rejected {
                    reason: refusal.to_string(),
                },
            });
        }

        let batch = queue.drain_batch(cfg.batch_size);
        let (ready, waiting): (Vec<PendingCheckpoint>, Vec<PendingCheckpoint>) =
            retries.drain(..).partition(|j| j.not_before <= now);
        retries = waiting;
        if batch.is_empty() && ready.is_empty() {
            continue;
        }
        let cycle = stats.cycles;
        // Cycle boundary: the shard tier restarts crashed shards (and
        // compacts WALs) here, strictly between cycles. No-op for the
        // single-process server.
        backend.on_cycle_boundary(cycle);
        stats.cycles += 1;
        // The whole cycle integrates against one epoch, read once
        // here; refreshes only land between cycles (above).
        let epoch = backend.deco().store.catalog_epoch();
        let cycle_start = now;
        now += run_cycle(
            backend,
            &cfg,
            batch,
            ready,
            cycle,
            cycle_start,
            epoch,
            workers,
            &session.faults,
            &mut retries,
            shed_pending,
            &mut stats,
            &mut responses,
        );
        shed_pending = 0;
        if wants_commits {
            let go = commit_boundary(
                backend,
                &queue,
                &retries,
                &mut stats,
                next,
                now,
                refresh_next,
                emitted_base,
                &mut committed,
                &responses,
                emit,
            );
            if !go {
                // The backend vetoed continuation: a simulated crash in
                // the window between durable commit and response
                // emission. Halt mid-trace; a standby resumes from the
                // commit just written.
                responses.sort_by_key(|r| r.seq);
                return (responses, stats);
            }
        }
    }

    if wants_commits {
        // Final flush: no cycle ran since the last commit, so this only
        // records trace completion (the durable cursor reaches the end).
        commit_boundary(
            backend,
            &queue,
            &retries,
            &mut stats,
            next,
            now,
            refresh_next,
            emitted_base,
            &mut committed,
            &responses,
            emit,
        );
    }

    responses.sort_by_key(|r| r.seq);
    (responses, stats)
}

/// Build the cycle-commit checkpoint and hand it — plus the responses
/// appended since the previous commit — to the backend, then emit those
/// responses if the backend accepted the commit. `stats` grows with the
/// run, so it is lent to the checkpoint for the call and moved back,
/// never copied; `cycle_rows` stay behind (observability, not digested,
/// not checkpointed).
#[allow(clippy::too_many_arguments)]
fn commit_boundary<B: ServeBackend>(
    backend: &mut B,
    queue: &AdmissionQueue,
    retries: &[PendingCheckpoint],
    stats: &mut ServeStats,
    next: usize,
    now: f64,
    refresh_next: usize,
    emitted_base: u64,
    committed: &mut usize,
    responses: &[PlanResponse],
    emit: &mut dyn FnMut(u64, &PlanResponse),
) -> bool {
    let cycle_rows = std::mem::take(&mut stats.cycle_rows);
    let ck = ServeCheckpoint {
        next: next as u64,
        now,
        refresh_next: refresh_next as u64,
        queue: queue.pending_snapshot(),
        retries: retries.to_vec(),
        stats: std::mem::take(stats),
        emitted: emitted_base + responses.len() as u64,
    };
    let base = *committed;
    *committed = responses.len();
    let new = &responses[base..];
    let go = backend.commit_cycle(&ck, new);
    *stats = ck.stats;
    stats.cycle_rows = cycle_rows;
    if go {
        let first = emitted_base + base as u64;
        for (i, r) in new.iter().enumerate() {
            emit(first + i as u64, r);
        }
    }
    go
}

/// Classify, solve, and answer one batch (plus any retry jobs whose
/// backoff expired); returns the cycle's deterministic service ticks.
#[allow(clippy::too_many_arguments)]
fn run_cycle<B: ServeBackend>(
    backend: &mut B,
    cfg: &ServeConfig,
    batch: Vec<QueuedRequest>,
    ready: Vec<PendingCheckpoint>,
    cycle: u64,
    cycle_start: f64,
    epoch: u64,
    workers: usize,
    faults: &WorkerFaultPlan,
    retries: &mut Vec<PendingCheckpoint>,
    shed_this_round: u64,
    stats: &mut ServeStats,
    responses: &mut Vec<PlanResponse>,
) -> f64 {
    let mut scratch = FrontierScratch::new();
    let mut service = 0.0f64;
    let mut row = CycleRow {
        cycle,
        start_tick: cycle_start,
        epoch,
        batch: batch.len() as u64,
        dispatched: 0,
        hits: 0,
        coalesced: 0,
        crashes: 0,
        retried: 0,
        escalated: 0,
        quarantined: 0,
        straggler_ticks: 0.0,
        shed: shed_this_round,
        backend: BackendObservability::default(),
    };

    // This cycle's solves, keyed canonically: retry jobs whose
    // backoff expired, then fresh misses from the batch.
    let mut jobs: BTreeMap<u64, PendingCheckpoint> =
        ready.into_iter().map(|j| (j.key, j)).collect();
    // (request, key, canonical deadline, answer), assembled across
    // the cycle and emitted in seq order at the end.
    let mut answers: Vec<(QueuedRequest, u64, f64, Answer)> = Vec::new();

    // Classification pass, in drain (priority, then seq) order —
    // which also fixes the cache's LRU refresh order.
    for qr in batch {
        stats.requests += 1;
        if let Err(e) = validate_request(&qr.request) {
            stats.rejected_invalid += 1;
            answers.push((
                qr,
                0,
                0.0,
                Answer::Reject {
                    reason: e.to_string(),
                },
            ));
            continue;
        }
        let (cd, key_budget, key) = canonical_key(backend.deco(), cfg, &qr.request);
        if let Some(plan) = backend.cache_get(key) {
            answers.push((
                qr,
                key,
                cd,
                Answer::Plan {
                    plan: Box::new(plan),
                    source: PlanSource::Warm,
                },
            ));
            continue;
        }
        if backend.is_key_quarantined(key) {
            let strikes = backend
                .strike_count(key)
                .unwrap_or(cfg.quarantine_threshold);
            let reason = format!("content key quarantined after {strikes} worker crashes");
            let (answer, spent, failed) = fallback_answer(
                backend.deco(),
                &qr.request.workflow,
                cd,
                qr.request.percentile,
                &reason,
                PlanSource::Quarantined,
                &mut scratch,
            );
            service += spent;
            stats.solve_failures += u64::from(failed);
            answers.push((qr, key, cd, answer));
            continue;
        }
        if let Some(job) = jobs.get_mut(&key) {
            // Coalesce onto this cycle's solve for the same key
            // (a fresh sibling or a retry being redispatched now).
            job.waiters.push(qr);
            continue;
        }
        if let Some(job) = retries.iter_mut().find(|j| j.key == key) {
            // The key is backing off after a crash: join its waiters
            // instead of racing a duplicate solve.
            job.waiters.push(qr);
            continue;
        }
        // A fresh miss gets the per-request cap, tightened by its hint;
        // retry jobs keep their original (backoff-decremented) budgets.
        jobs.insert(
            key,
            PendingCheckpoint {
                key,
                workflow: qr.request.workflow.clone(),
                deadline: cd,
                percentile: qr.request.percentile,
                budget: effective_budget(&cfg.budget, qr.request.budget_hint),
                key_budget,
                attempt: 0,
                not_before: cycle_start,
                waiters: vec![qr],
            },
        );
    }

    // Draw worker fates by canonical job rank: rank -> virtual worker
    // -> fate, independent of the physical pool size.
    let crashed_keys: Vec<u64> = jobs
        .iter()
        .enumerate()
        .filter_map(
            |(rank, (&key, _))| match faults.fate(cycle, faults.assign(rank)) {
                WorkerFate::Crash => Some(key),
                WorkerFate::Straggler(delay) => {
                    service += delay;
                    row.straggler_ticks += delay;
                    stats.straggler_ticks += delay;
                    None
                }
                WorkerFate::Healthy => None,
            },
        )
        .collect();

    // Crashed solves: strike the key, then quarantine, escalate, or
    // re-enqueue with capped backoff charged against the budget.
    for key in crashed_keys {
        let mut job = jobs
            .remove(&key)
            .expect("crashed keys come from the job map");
        row.crashes += 1;
        stats.worker_crashes += 1;
        // The lost attempt burned its budget on a dead worker.
        service += job.budget.ticks.unwrap_or(0.0);
        job.attempt += 1;
        let strikes = backend.add_strike(key);
        if strikes >= cfg.quarantine_threshold {
            backend.quarantine_key(key);
            let reason = format!("content key quarantined after {strikes} worker crashes");
            for qr in job.waiters {
                let (answer, spent, failed) = fallback_answer(
                    backend.deco(),
                    &job.workflow,
                    job.deadline,
                    job.percentile,
                    &reason,
                    PlanSource::Quarantined,
                    &mut scratch,
                );
                service += spent;
                stats.solve_failures += u64::from(failed);
                answers.push((qr, key, job.deadline, answer));
            }
        } else if job.attempt >= cfg.retry.max_attempts {
            stats.escalated += 1;
            row.escalated += 1;
            let reason = format!("retries exhausted after {} worker crashes", job.attempt);
            for qr in job.waiters {
                let (answer, spent, failed) = fallback_answer(
                    backend.deco(),
                    &job.workflow,
                    job.deadline,
                    job.percentile,
                    &reason,
                    PlanSource::Retried,
                    &mut scratch,
                );
                service += spent;
                stats.solve_failures += u64::from(failed);
                answers.push((qr, key, job.deadline, answer));
            }
        } else {
            stats.retries += 1;
            let backoff = cfg.retry.backoff(job.attempt);
            job.not_before = cycle_start + backoff;
            job.budget = job.budget.minus_ticks(backoff);
            retries.push(job);
        }
    }

    // Dispatch the surviving jobs to the backend's pool(s).
    let dispatch: Vec<SolveJob> = jobs
        .values()
        .map(|job| SolveJob {
            key: job.key,
            workflow: job.workflow.clone(),
            deadline: job.deadline,
            percentile: job.percentile,
            budget: job.budget.clone(),
        })
        .collect();
    row.dispatched = dispatch.len() as u64;
    let solved = backend.solve_jobs(dispatch, workers);

    // Integrate in canonical key order: cache updates (and therefore
    // eviction order and LRU clocks) are independent of which worker
    // finished first.
    for (key, (budget, result)) in &solved {
        match result {
            Ok(plan) => {
                service += plan.provenance.budget_spent;
                stats.evictions += backend.cache_insert(*key, plan, epoch) as u64;
                backend.clear_strikes(*key);
            }
            Err(_) => {
                stats.solve_failures += 1;
                service += budget.ticks.unwrap_or(0.0);
            }
        }
    }

    // Attach each job's waiters to its result, key order.
    for (key, job) in jobs {
        let (_, result) = solved
            .get(&key)
            .expect("every dispatched key has a solve result");
        match result {
            Ok(plan) => {
                if job.attempt == 0 {
                    for (i, qr) in job.waiters.into_iter().enumerate() {
                        let source = if i == 0 {
                            PlanSource::Cold
                        } else {
                            PlanSource::Coalesced
                        };
                        answers.push((
                            qr,
                            key,
                            job.deadline,
                            Answer::Plan {
                                plan: Box::new(plan.clone()),
                                source,
                            },
                        ));
                    }
                } else {
                    row.retried += 1;
                    for qr in job.waiters {
                        answers.push((
                            qr,
                            key,
                            job.deadline,
                            Answer::Plan {
                                plan: Box::new(plan.clone()),
                                source: PlanSource::Retried,
                            },
                        ));
                    }
                }
            }
            Err(e) => {
                for qr in job.waiters {
                    answers.push((
                        qr,
                        key,
                        job.deadline,
                        Answer::Reject {
                            reason: e.to_string(),
                        },
                    ));
                }
            }
        }
    }

    // Answer in sequence order. Warm and coalesced answers cost no
    // service ticks.
    answers.sort_by_key(|(qr, ..)| qr.seq);
    for (qr, key, cd, answer) in answers {
        match answer {
            Answer::Plan { plan, source } => {
                match source {
                    PlanSource::Warm => {
                        stats.hits += 1;
                        row.hits += 1;
                    }
                    PlanSource::Cold => stats.misses += 1,
                    PlanSource::Coalesced => {
                        stats.coalesced += 1;
                        row.coalesced += 1;
                    }
                    PlanSource::Retried => {}
                    PlanSource::Quarantined => {
                        stats.quarantined += 1;
                        row.quarantined += 1;
                    }
                }
                match plan.provenance.stage {
                    PlanStage::Deco => stats.stage_deco += 1,
                    PlanStage::Heuristic => stats.stage_heuristic += 1,
                    PlanStage::Autoscaling => stats.stage_autoscaling += 1,
                }
                stats.planned += 1;
                *stats
                    .planned_by_tenant
                    .entry(qr.request.tenant)
                    .or_insert(0) += 1;
                let wait = cycle_start - qr.arrived_at;
                stats.waits.push(wait);
                responses.push(PlanResponse {
                    seq: qr.seq,
                    tenant: qr.request.tenant,
                    key,
                    outcome: ServeOutcome::Planned(Box::new(ServedPlan {
                        plan: *plan,
                        source,
                        wait_ticks: wait,
                        canonical_deadline: cd,
                    })),
                });
            }
            Answer::Reject { reason } => {
                responses.push(PlanResponse {
                    seq: qr.seq,
                    tenant: qr.request.tenant,
                    key,
                    outcome: ServeOutcome::Rejected { reason },
                });
            }
        }
    }
    // Snapshot the backend's health counters as of this cycle's end —
    // observability only, never part of the digest or row equality.
    row.backend = backend.observability();
    stats.cycle_rows.push(row);
    service
}

/// Solve a set of jobs on a scoped worker-thread pool (vendored crossbeam
/// channels, one reusable [`FrontierScratch`] per worker). Results land in a
/// `BTreeMap`, so downstream iteration is in key order no matter the
/// thread interleaving. Shared by [`PlanServer`] and the shard tier's
/// per-shard pools.
#[allow(clippy::type_complexity)]
pub fn solve_jobs_on_pool(
    deco: &Deco,
    jobs: Vec<SolveJob>,
    workers: usize,
) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
    if jobs.is_empty() {
        return BTreeMap::new();
    }
    let pool = workers.min(jobs.len()).max(1);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<SolveJob>();
    let (res_tx, res_rx) =
        crossbeam::channel::unbounded::<(u64, (SearchBudget, Result<SupervisedPlan, DecoError>))>();
    std::thread::scope(|scope| {
        for _ in 0..pool {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                // One reusable scratch per worker; reuse is
                // bit-identical to fresh scratch (pinned in
                // deco-core's supervisor tests).
                let mut scratch = FrontierScratch::new();
                for job in job_rx.iter() {
                    let result = plan_with_fallback_scratch(
                        deco,
                        &job.workflow,
                        job.deadline,
                        job.percentile,
                        &job.budget,
                        &mut scratch,
                    );
                    if res_tx.send((job.key, (job.budget, result))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(job_rx);
        drop(res_tx);
        for job in jobs {
            job_tx
                .send(job)
                .expect("workers outlive the job queue within the scope");
        }
        drop(job_tx);
        res_rx.iter().collect()
    })
}

/// The single-process serving engine: a [`Deco`] instance, its plan
/// cache and fault books (per-key crash strikes + quarantine) as one
/// partition of [`Books`] with no sink, and its policy. This is the
/// canonical [`ServeBackend`]; the shard tier's partitioned backend is
/// pinned byte-identical to it.
pub struct PlanServer {
    pub deco: Deco,
    config: ServeConfig,
    books: Books<SupervisedPlan>,
}

impl PlanServer {
    pub fn new(deco: Deco, config: ServeConfig) -> Self {
        assert!(config.batch_size >= 1, "batch_size must be at least 1");
        let books = Books::new(1, config.cache_capacity);
        PlanServer {
            deco,
            config,
            books,
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn cache_len(&self) -> usize {
        self.books.len()
    }

    /// Number of content keys currently quarantined.
    pub fn quarantined_keys(&self) -> usize {
        self.books.quarantined_keys()
    }

    pub fn is_quarantined(&self, key: u64) -> bool {
        self.books.is_quarantined(key)
    }

    /// The content key [`serve_trace`](Self::serve_trace) would derive for
    /// a request — exposed so tests and benches can predict hits.
    pub fn key_for(&self, req: &PlanRequest) -> u64 {
        canonical_key(&self.deco, &self.config, req).2
    }

    /// Atomically swap in freshly calibrated metadata between cycles. The
    /// catalog epoch strictly increases ([`install_calibration`]), stale
    /// cache entries are reclaimed — they were already unreachable, every
    /// key embeds the epoch — and the quarantine/strike books are
    /// cleared: a new calibration is a new world, old offenders get a
    /// clean slate. Returns `(new_epoch, purged_entries)`.
    pub fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        let epoch = install_calibration(&mut self.deco.store, store);
        (epoch, self.books.refresh(epoch, |_, _| {}))
    }

    /// Replay a recorded trace with `workers` solver threads under a
    /// quiescent session (no faults, no refreshes), returning the
    /// response stream in trace order plus the run's stats. The response
    /// stream and stats are byte-identical for any `workers`.
    pub fn serve_trace(
        &mut self,
        trace: &ArrivalTrace,
        workers: usize,
    ) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace_session(trace, workers, &ServeSession::default())
    }

    /// Replay a recorded trace under an explicit [`ServeSession`]: a
    /// seeded [`WorkerFaultPlan`] plus scheduled [`CalibrationRefresh`]es.
    /// Identical `(trace, session)` inputs produce byte-identical
    /// response streams and stats at any worker count; a default session
    /// is bit-identical to [`serve_trace`](Self::serve_trace).
    pub fn serve_trace_session(
        &mut self,
        trace: &ArrivalTrace,
        workers: usize,
        session: &ServeSession,
    ) -> (Vec<PlanResponse>, ServeStats) {
        serve_trace_backend(self, trace, workers, session)
    }
}

impl ServeBackend for PlanServer {
    fn deco(&self) -> &Deco {
        &self.deco
    }

    fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        self.books.get(key, |_, _| {}).cloned()
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        self.books.insert(key, plan.clone(), epoch, |_, _| {})
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        self.books.purge(epoch, |_, _| {})
    }

    fn is_key_quarantined(&self, key: u64) -> bool {
        self.books.is_quarantined(key)
    }

    fn strike_count(&self, key: u64) -> Option<u32> {
        self.books.strikes(key)
    }

    fn add_strike(&mut self, key: u64) -> u32 {
        self.books.strike(key, |_, _| {})
    }

    fn quarantine_key(&mut self, key: u64) {
        self.books.quarantine(key, |_, _| {})
    }

    fn clear_strikes(&mut self, key: u64) {
        self.books.clear(key, |_, _| {})
    }

    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        solve_jobs_on_pool(&self.deco, jobs, workers)
    }

    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        PlanServer::refresh_calibration(self, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PlanRequest, Priority};
    use deco_cloud::{CloudSpec, MetadataStore};
    use deco_core::estimate::deadline_anchors;
    use deco_workflow::generators;

    fn small_deco() -> Deco {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 20;
        deco.options.search.max_states = 60;
        deco.options.beam_width = 4;
        deco
    }

    fn request(tenant: u32, wf_seed: u64) -> PlanRequest {
        let deco = small_deco();
        let workflow = generators::montage(1, wf_seed);
        let (dmin, dmax) = deadline_anchors(&workflow, &deco.store.spec);
        PlanRequest {
            tenant,
            workflow,
            deadline: 0.5 * (dmin + dmax),
            percentile: 0.9,
            budget_hint: None,
            priority: Priority::default(),
        }
    }

    #[test]
    fn canonical_deadline_floors_to_buckets_conservatively() {
        assert_eq!(canonical_deadline(45.0, 60.0), 45.0); // below one bucket: kept
        assert_eq!(canonical_deadline(60.0, 60.0), 60.0);
        assert_eq!(canonical_deadline(61.0, 60.0), 60.0);
        assert_eq!(canonical_deadline(179.9, 60.0), 120.0);
        assert!(
            canonical_deadline(179.9, 60.0) <= 179.9,
            "never later than asked"
        );
    }

    #[test]
    fn identical_requests_hit_after_the_first_cycle() {
        let mut server = PlanServer::new(small_deco(), ServeConfig::default());
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 0.0,
                request: request(1, 7),
            },
            Arrival {
                at_tick: 1e9,
                request: request(2, 7),
            },
        ]);
        let (responses, stats) = server.serve_trace(&trace, 1);
        assert_eq!(responses.len(), 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        let lines: Vec<String> = responses.iter().map(|r| r.canonical_line()).collect();
        assert!(lines[0].contains("source=cold"), "{}", lines[0]);
        assert!(lines[1].contains("source=warm"), "{}", lines[1]);
        // Same key, bit-identical plan payload either way.
        assert_eq!(responses[0].key, responses[1].key);
    }

    #[test]
    fn same_cycle_duplicates_coalesce_onto_one_solve() {
        let mut server = PlanServer::new(small_deco(), ServeConfig::default());
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 0.0,
                request: request(1, 7),
            },
            Arrival {
                at_tick: 0.0,
                request: request(2, 7),
            },
            Arrival {
                at_tick: 0.0,
                request: request(3, 7),
            },
        ]);
        let (responses, stats) = server.serve_trace(&trace, 2);
        assert_eq!(stats.misses, 1, "one solve for three equal keys");
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.hits, 0);
        assert!(responses[0].canonical_line().contains("source=cold"));
        assert!(responses[1].canonical_line().contains("source=coalesced"));
    }

    #[test]
    fn overflow_arrivals_are_rejected_with_overload() {
        let config = ServeConfig {
            queue_capacity: 2,
            batch_size: 2,
            ..ServeConfig::default()
        };
        let mut server = PlanServer::new(small_deco(), config);
        let arrivals = (0..4)
            .map(|i| Arrival {
                at_tick: 0.0,
                request: request(i, 7),
            })
            .collect();
        let (responses, stats) = server.serve_trace(&ArrivalTrace::new(arrivals), 1);
        assert_eq!(stats.rejected_overload, 2);
        assert_eq!(stats.shed, 0, "fresh deadlines are never shed");
        assert_eq!(stats.planned, 2);
        let rejected: Vec<_> = responses
            .iter()
            .filter(|r| matches!(&r.outcome, ServeOutcome::Rejected { reason } if reason.contains("overloaded")))
            .collect();
        assert_eq!(rejected.len(), 2);
    }

    #[test]
    fn invalid_requests_are_rejected_not_solved() {
        let mut server = PlanServer::new(small_deco(), ServeConfig::default());
        let mut bad_deadline = request(1, 7);
        bad_deadline.deadline = f64::NAN;
        let mut bad_pct = request(2, 7);
        bad_pct.percentile = 1.5;
        let empty = PlanRequest {
            tenant: 3,
            workflow: deco_workflow::Workflow::new("empty"),
            deadline: 100.0,
            percentile: 0.9,
            budget_hint: None,
            priority: Priority::default(),
        };
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 0.0,
                request: bad_deadline,
            },
            Arrival {
                at_tick: 0.0,
                request: bad_pct,
            },
            Arrival {
                at_tick: 0.0,
                request: empty,
            },
        ]);
        let (responses, stats) = server.serve_trace(&trace, 1);
        assert_eq!(stats.rejected_invalid, 3);
        assert_eq!(stats.misses, 0);
        assert!(responses
            .iter()
            .all(|r| matches!(r.outcome, ServeOutcome::Rejected { .. })));
    }

    #[test]
    fn waits_reflect_batched_service_in_model_ticks() {
        // batch_size 1 under a tick cap: the second request must wait
        // for the first's service before its cycle starts.
        let config = ServeConfig {
            batch_size: 1,
            budget: SearchBudget::ticks(1e7),
            ..ServeConfig::default()
        };
        let mut server = PlanServer::new(small_deco(), config);
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 0.0,
                request: request(1, 7),
            },
            Arrival {
                at_tick: 0.0,
                request: request(2, 11),
            },
        ]);
        let (_, stats) = server.serve_trace(&trace, 1);
        assert_eq!(stats.waits.len(), 2);
        assert_eq!(stats.waits[0], 0.0);
        assert!(
            stats.waits[1] > 0.0,
            "second request waits out the first solve: {:?}",
            stats.waits
        );
        assert_eq!(stats.cycles, 2);
    }

    #[test]
    fn certain_crashes_escalate_to_the_fallback_chain() {
        // Every (vworker, cycle) crashes: the solve loses max_attempts
        // dispatches, then escalates inline — the request still gets a
        // terminal planned response, provenance says why.
        let config = ServeConfig {
            retry: RetryConfig {
                max_attempts: 2,
                backoff_base: 10.0,
                backoff_cap: 40.0,
            },
            quarantine_threshold: 99,
            ..ServeConfig::default()
        };
        let mut server = PlanServer::new(small_deco(), config);
        let trace = ArrivalTrace::new(vec![Arrival {
            at_tick: 0.0,
            request: request(1, 7),
        }]);
        let session = ServeSession {
            faults: WorkerFaultPlan::crashes(42, 1.0),
            refreshes: Vec::new(),
        };
        let (responses, stats) = server.serve_trace_session(&trace, 1, &session);
        assert_eq!(responses.len(), 1);
        assert_eq!(stats.worker_crashes, 2);
        assert_eq!(stats.retries, 1, "one re-enqueue before escalation");
        assert_eq!(stats.escalated, 1);
        let line = responses[0].canonical_line();
        assert!(line.contains("source=retried"), "{line}");
        assert!(
            !line.contains("stage=deco"),
            "escalation skips the deco stage: {line}"
        );
        assert_eq!(server.cache_len(), 0, "escalated answers are never cached");
        assert!(matches!(responses[0].outcome, ServeOutcome::Planned(_)));
    }

    #[test]
    fn repeat_offender_keys_are_quarantined_and_answered_from_fallback() {
        let config = ServeConfig {
            quarantine_threshold: 1, // first crash quarantines
            ..ServeConfig::default()
        };
        let mut server = PlanServer::new(small_deco(), config);
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 0.0,
                request: request(1, 7),
            },
            Arrival {
                at_tick: 1e9,
                request: request(2, 7), // same key, much later
            },
        ]);
        let session = ServeSession {
            faults: WorkerFaultPlan::crashes(42, 1.0),
            refreshes: Vec::new(),
        };
        let (responses, stats) = server.serve_trace_session(&trace, 1, &session);
        assert_eq!(stats.quarantined, 2, "both answered from quarantine");
        assert_eq!(server.quarantined_keys(), 1);
        assert!(server.is_quarantined(server.key_for(&request(1, 7))));
        assert_eq!(server.cache_len(), 0, "quarantined keys never cached");
        for r in &responses {
            let line = r.canonical_line();
            assert!(line.contains("source=quarantined"), "{line}");
        }
    }

    #[test]
    fn refresh_calibration_strictly_increases_the_epoch_and_clears_books() {
        let mut server = PlanServer::new(small_deco(), ServeConfig::default());
        let before = server.deco.store.catalog_epoch();
        // Swap in a same-epoch store: the server must bump past it.
        let (epoch, _) = server.refresh_calibration(MetadataStore::from_ground_truth(
            CloudSpec::amazon_ec2(),
            20,
        ));
        assert!(epoch > before, "epoch must strictly increase");
        // Quarantine books are cleared by a refresh.
        server.books.quarantine(77, |_, _| {});
        for _ in 0..3 {
            server.books.strike(77, |_, _| {});
        }
        let (epoch2, _) = server.refresh_calibration(MetadataStore::from_ground_truth(
            CloudSpec::amazon_ec2(),
            20,
        ));
        assert!(epoch2 > epoch);
        assert_eq!(server.quarantined_keys(), 0);
        assert_eq!(server.books.strikes(77), None);
    }

    #[test]
    fn zero_capacity_cache_serves_cold_without_panicking() {
        // Satellite: a misconfigured cache_capacity of 0 fails soft — the
        // server still answers every request, every one a cold solve.
        let config = ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let mut server = PlanServer::new(small_deco(), config);
        let trace = ArrivalTrace::new(vec![
            Arrival {
                at_tick: 0.0,
                request: request(1, 7),
            },
            Arrival {
                at_tick: 1e9,
                request: request(2, 7), // same key, later: would be warm
            },
        ]);
        let (responses, stats) = server.serve_trace(&trace, 1);
        assert_eq!(responses.len(), 2);
        assert_eq!(stats.misses, 2, "nothing is ever cached");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 0, "no phantom evictions");
        assert_eq!(server.cache_len(), 0);
    }
}
