//! Serving counters, queue-wait percentiles, and per-cycle rows.
//!
//! Everything here is measured in deterministic quantities — request
//! counts and device-model ticks — so two runs of the same trace produce
//! *equal* `ServeStats` regardless of how many worker threads raced to
//! produce them. The interleaving tests assert exactly that.
//!
//! The canonical line is kept **byte-compatible with the pre-fault
//! format** when a run is quiescent: the robustness counters (shed,
//! crashes, retries, …) are appended only when at least one is nonzero,
//! so a fault-free run digests to exactly what it did before the fault
//! machinery existed. Per-cycle rows are observability output and are
//! deliberately *excluded* from [`ServeStats::digest`].

use deco_prob::hash::StableHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// Backend-health counters a [`crate::ServeBackend`] surfaces into each
/// cycle's observability row: durable-store failures, transport faults,
/// and shard restarts, **cumulative** as of the row's cycle. They
/// describe *how* the backend produced the bytes, never *which* bytes —
/// a supervised tier that weathered three restarts emits the same
/// response stream as an undisturbed one — so they are excluded from
/// both [`ServeStats::digest`] and [`CycleRow`] equality (the PR 5
/// convention for observability-only output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendObservability {
    /// Durable plan-store failures (a shard dropped to memory-only).
    pub store_failures: u64,
    /// Transport faults: broken pipes, checksum mismatches, torn frames.
    pub transport_errors: u64,
    /// Shard restarts (injected schedules or supervisor crash recovery).
    pub restarts: u64,
}

/// One solve cycle's structured accounting, emitted in cycle order. Rows
/// feed the `serve` experiment subcommand's on-disk trace; they do not
/// participate in [`ServeStats::digest`] (the per-request response stream
/// already pins every observable).
#[derive(Debug, Clone)]
pub struct CycleRow {
    /// Cycle index, from 0.
    pub cycle: u64,
    /// Model tick at which the cycle started.
    pub start_tick: f64,
    /// Catalog epoch the whole cycle integrated against.
    pub epoch: u64,
    /// Requests drained into this cycle's batch.
    pub batch: u64,
    /// Cold solves dispatched.
    pub dispatched: u64,
    /// Warm (cache-hit) answers.
    pub hits: u64,
    /// Coalesced answers.
    pub coalesced: u64,
    /// Solves lost to injected worker crashes this cycle.
    pub crashes: u64,
    /// Jobs answered after one or more retries this cycle.
    pub retried: u64,
    /// Jobs escalated to the fallback chain (retries exhausted).
    pub escalated: u64,
    /// Jobs answered from quarantine this cycle.
    pub quarantined: u64,
    /// Extra straggler ticks charged to this cycle's solves.
    pub straggler_ticks: f64,
    /// Requests shed from the queue while this cycle was admitting.
    pub shed: u64,
    /// Backend-health counters, cumulative as of this cycle. Rendered in
    /// [`CycleRow::to_json`] but excluded from row equality and from the
    /// digest: the same response bytes can be produced by a backend that
    /// restarted shards mid-trace or by one that never hiccuped.
    pub backend: BackendObservability,
}

/// Row equality deliberately ignores [`CycleRow::backend`]: the
/// byte-identity oracle compares a supervised run's stats against a
/// single-process reference, and backend-health counters are exactly the
/// fields allowed to differ between the two.
impl PartialEq for CycleRow {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle
            && self.start_tick == other.start_tick
            && self.epoch == other.epoch
            && self.batch == other.batch
            && self.dispatched == other.dispatched
            && self.hits == other.hits
            && self.coalesced == other.coalesced
            && self.crashes == other.crashes
            && self.retried == other.retried
            && self.escalated == other.escalated
            && self.quarantined == other.quarantined
            && self.straggler_ticks == other.straggler_ticks
            && self.shed == other.shed
    }
}

impl CycleRow {
    /// One-line JSON rendering (stable field order, floats as decimals)
    /// for the experiments trace file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycle\":{},\"start_tick\":{},\"epoch\":{},\"batch\":{},\"dispatched\":{},\
             \"hits\":{},\"coalesced\":{},\"crashes\":{},\"retried\":{},\"escalated\":{},\
             \"quarantined\":{},\"straggler_ticks\":{},\"shed\":{},\"store_failures\":{},\
             \"transport_errors\":{},\"restarts\":{}}}",
            self.cycle,
            self.start_tick,
            self.epoch,
            self.batch,
            self.dispatched,
            self.hits,
            self.coalesced,
            self.crashes,
            self.retried,
            self.escalated,
            self.quarantined,
            self.straggler_ticks,
            self.shed,
            self.backend.store_failures,
            self.backend.transport_errors,
            self.backend.restarts,
        )
    }
}

/// Counters for one [`crate::server::PlanServer::serve_trace`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted and answered (planned or rejected-invalid).
    pub requests: u64,
    /// Requests answered with a plan.
    pub planned: u64,
    /// Cache hits (warm responses).
    pub hits: u64,
    /// Cold solves (unique cache misses dispatched to workers).
    pub misses: u64,
    /// Requests answered by a sibling's solve in the same cycle.
    pub coalesced: u64,
    /// Requests refused by admission backpressure.
    pub rejected_overload: u64,
    /// Requests refused for structural invalidity.
    pub rejected_invalid: u64,
    /// Cold solves where even the fallback chain failed.
    pub solve_failures: u64,
    /// Cache entries evicted by LRU pressure.
    pub evictions: u64,
    /// Cache entries purged for belonging to an older catalog epoch.
    pub stale_purged: u64,
    /// Solve cycles executed.
    pub cycles: u64,
    /// Plans produced by the Deco beam search stage.
    pub stage_deco: u64,
    /// Plans produced by the follow-the-cost heuristic stage.
    pub stage_heuristic: u64,
    /// Plans produced by the autoscaling backstop stage.
    pub stage_autoscaling: u64,
    /// Admitted requests dropped by the deadline-aware shed policy.
    pub shed: u64,
    /// (virtual worker, cycle) crash fates that actually lost jobs.
    pub worker_crashes: u64,
    /// Re-enqueues of crashed solves (one per lost attempt).
    pub retries: u64,
    /// Jobs escalated to the fallback chain after exhausting retries.
    pub escalated: u64,
    /// Requests answered from the quarantine path.
    pub quarantined: u64,
    /// Calibration refreshes applied between cycles.
    pub refreshes: u64,
    /// Total extra straggler ticks charged across the run.
    pub straggler_ticks: f64,
    /// Planned responses per tenant, keyed canonically. The fleet tier's
    /// per-tenant cost attribution joins against these counts; like every
    /// other counter they are integrated in canonical order, so they are
    /// equal across worker counts. Deliberately *not* rendered into
    /// [`ServeStats::canonical_line`]: the quiescent byte format predates
    /// the fleet tier and stays frozen.
    pub planned_by_tenant: BTreeMap<u32, u64>,
    /// Per-planned-request queueing delay (admission → cycle start), in
    /// model ticks; kept in response (seq) order.
    pub waits: Vec<f64>,
    /// Per-cycle structured rows, in cycle order. Observability only:
    /// excluded from [`ServeStats::digest`] and equality of digests.
    pub cycle_rows: Vec<CycleRow>,
}

/// Nearest-rank percentile (p in \[0, 1\]) over an unsorted slice.
fn nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ServeStats {
    /// Median queue wait in model ticks.
    pub fn p50_wait(&self) -> f64 {
        nearest_rank(&self.waits, 0.50)
    }

    /// 95th-percentile queue wait in model ticks.
    pub fn p95_wait(&self) -> f64 {
        nearest_rank(&self.waits, 0.95)
    }

    /// Warm fraction of all planned responses (hits + coalesced count as
    /// warm; 0 when nothing was planned).
    pub fn hit_rate(&self) -> f64 {
        if self.planned == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / self.planned as f64
        }
    }

    /// True when none of the robustness counters fired — the run behaved
    /// exactly like a pre-fault server and must digest identically to one.
    fn robustness_quiet(&self) -> bool {
        self.shed == 0
            && self.worker_crashes == 0
            && self.retries == 0
            && self.escalated == 0
            && self.quarantined == 0
            && self.refreshes == 0
            && self.straggler_ticks == 0.0
    }

    /// Canonical single-line rendering (floats as raw bits) for
    /// byte-comparison across worker counts. Robustness counters are
    /// appended only when at least one fired, keeping quiescent runs
    /// byte-identical to the pre-fault format. `rej_quota=0` is a
    /// retired counter (a per-tenant queue quota), kept as literal text
    /// so stats digests do not move.
    pub fn canonical_line(&self) -> String {
        let mut line = format!(
            "requests={} planned={} hits={} misses={} coalesced={} \
             rej_overload={} rej_invalid={} solve_failures={} evictions={} \
             stale_purged={} cycles={} deco={} heuristic={} autoscaling={} \
             p50={:016x} p95={:016x}",
            self.requests,
            self.planned,
            self.hits,
            self.misses,
            self.coalesced,
            self.rejected_overload,
            self.rejected_invalid,
            self.solve_failures,
            self.evictions,
            self.stale_purged,
            self.cycles,
            self.stage_deco,
            self.stage_heuristic,
            self.stage_autoscaling,
            self.p50_wait().to_bits(),
            self.p95_wait().to_bits(),
        );
        if !self.robustness_quiet() {
            line.push_str(&format!(
                " rej_quota=0 shed={} crashes={} retries={} escalated={} \
                 quarantined={} refreshes={} straggler_ticks={:016x}",
                self.shed,
                self.worker_crashes,
                self.retries,
                self.escalated,
                self.quarantined,
                self.refreshes,
                self.straggler_ticks.to_bits(),
            ));
        }
        line
    }

    /// Stable digest of the canonical line plus every recorded wait.
    /// Cycle rows are excluded on purpose: they are observability output,
    /// and the response stream already pins everything observable.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::with_seed(0x57A7);
        h.write(self.canonical_line().as_bytes());
        for &w in &self.waits {
            h.write_f64(w);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = ServeStats {
            waits: vec![4.0, 1.0, 3.0, 2.0],
            ..ServeStats::default()
        };
        assert_eq!(stats.p50_wait(), 2.0);
        assert_eq!(stats.p95_wait(), 4.0);
        assert_eq!(ServeStats::default().p50_wait(), 0.0);
    }

    #[test]
    fn hit_rate_counts_coalesced_as_warm() {
        let stats = ServeStats {
            planned: 10,
            hits: 4,
            coalesced: 1,
            misses: 5,
            ..ServeStats::default()
        };
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn digest_is_sensitive_to_waits_beyond_percentiles() {
        let a = ServeStats {
            waits: vec![1.0, 2.0, 3.0],
            ..ServeStats::default()
        };
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.waits[0] = 1.5; // p50/p95 unchanged, digest must still move
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn quiescent_lines_keep_the_pre_fault_byte_format() {
        let stats = ServeStats {
            requests: 3,
            planned: 3,
            misses: 3,
            cycles: 1,
            stage_deco: 3,
            ..ServeStats::default()
        };
        let line = stats.canonical_line();
        assert!(
            !line.contains("shed=") && !line.contains("crashes="),
            "quiescent runs must not grow new fields: {line}"
        );
        assert!(line.starts_with("requests=3 planned=3"));
    }

    #[test]
    fn robustness_counters_appear_once_any_fires() {
        let mut stats = ServeStats {
            requests: 3,
            ..ServeStats::default()
        };
        let quiet = stats.digest();
        stats.shed = 1;
        let line = stats.canonical_line();
        assert!(line.contains("shed=1"), "missing shed counter: {line}");
        assert!(line.contains("rej_quota=0"));
        assert_ne!(stats.digest(), quiet, "a shed must move the digest");
    }

    #[test]
    fn planned_by_tenant_counts_stay_out_of_the_canonical_line() {
        let mut stats = ServeStats {
            requests: 3,
            planned: 3,
            ..ServeStats::default()
        };
        let quiet = stats.digest();
        stats.planned_by_tenant.insert(1, 2);
        stats.planned_by_tenant.insert(4, 1);
        assert_eq!(
            stats.digest(),
            quiet,
            "tenant counts are attribution metadata, not stream bytes"
        );
        assert!(!stats.canonical_line().contains("tenant"));
    }

    #[test]
    fn cycle_rows_do_not_affect_the_digest() {
        let a = ServeStats {
            requests: 5,
            ..ServeStats::default()
        };
        let mut b = a.clone();
        b.cycle_rows.push(CycleRow {
            cycle: 0,
            start_tick: 0.0,
            epoch: 1,
            batch: 5,
            dispatched: 5,
            hits: 0,
            coalesced: 0,
            crashes: 0,
            retried: 0,
            escalated: 0,
            quarantined: 0,
            straggler_ticks: 0.0,
            shed: 0,
            backend: BackendObservability::default(),
        });
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a, b, "rows still participate in equality");
    }

    #[test]
    fn backend_observability_is_excluded_from_digest_and_row_equality() {
        let row = CycleRow {
            cycle: 0,
            start_tick: 0.0,
            epoch: 1,
            batch: 5,
            dispatched: 5,
            hits: 0,
            coalesced: 0,
            crashes: 0,
            retried: 0,
            escalated: 0,
            quarantined: 0,
            straggler_ticks: 0.0,
            shed: 0,
            backend: BackendObservability::default(),
        };
        let quiet = ServeStats {
            requests: 5,
            cycle_rows: vec![row.clone()],
            ..ServeStats::default()
        };
        let mut bumpy = quiet.clone();
        bumpy.cycle_rows[0].backend = BackendObservability {
            store_failures: 2,
            transport_errors: 1,
            restarts: 3,
        };
        // The counters render for operators...
        let json = bumpy.cycle_rows[0].to_json();
        assert!(json.contains("\"store_failures\":2"), "{json}");
        assert!(json.contains("\"transport_errors\":1"), "{json}");
        assert!(json.contains("\"restarts\":3"), "{json}");
        // ...but a quiescent digest and stats equality are pinned: a
        // backend that restarted its way through the trace still
        // compares equal to one that never did (PR 5 convention).
        assert_eq!(quiet.digest(), bumpy.digest());
        assert_eq!(quiet, bumpy);
        assert_eq!(quiet.cycle_rows[0], bumpy.cycle_rows[0]);
    }

    #[test]
    fn cycle_rows_render_stable_json() {
        let row = CycleRow {
            cycle: 2,
            start_tick: 30.5,
            epoch: 4,
            batch: 8,
            dispatched: 3,
            hits: 4,
            coalesced: 1,
            crashes: 1,
            retried: 1,
            escalated: 0,
            quarantined: 0,
            straggler_ticks: 12.5,
            shed: 0,
            backend: BackendObservability {
                store_failures: 1,
                transport_errors: 0,
                restarts: 2,
            },
        };
        assert_eq!(
            row.to_json(),
            "{\"cycle\":2,\"start_tick\":30.5,\"epoch\":4,\"batch\":8,\"dispatched\":3,\
             \"hits\":4,\"coalesced\":1,\"crashes\":1,\"retried\":1,\"escalated\":0,\
             \"quarantined\":0,\"straggler_ticks\":12.5,\"shed\":0,\"store_failures\":1,\
             \"transport_errors\":0,\"restarts\":2}"
        );
    }
}
