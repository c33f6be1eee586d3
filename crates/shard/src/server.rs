//! The sharded serving tier: N shards behind one deterministic engine.
//!
//! [`ShardedServer`] implements [`ServeBackend`], so the *entire* cycle
//! loop — admission, classification, fault fates, budget fair-share,
//! response ordering — is the exact code `PlanServer` runs
//! ([`deco_serve::serve_trace_backend`]). What this type changes is only
//! where state lives and where solves run:
//!
//! * the plan cache and the quarantine/strike books are the same
//!   [`Books`] `PlanServer` runs, with one partition per shard — so one
//!   global LRU clock and one global capacity, and eviction picks the
//!   same victim a single-map cache would;
//! * each cycle's solve jobs are routed to their owning shard and run on
//!   **per-shard worker pools** concurrently, results merging into one
//!   canonically-ordered map;
//! * every mutation the books make is appended to the owning shard's
//!   WAL-backed [`PlanStore`]; a shard restart (injected by a
//!   [`ShardFaultPlan`] at a cycle boundary, or an explicit
//!   [`ShardedServer::restart_shard`]) folds snapshot + WAL back into its
//!   partition and resumes **warm** — with persistence, a restart is
//!   observationally a no-op, which is why the replay stays
//!   byte-identical even under a crash/restart schedule.
//!
//! Without a `persist_dir`, a restarted shard deterministically loses its
//! partition (the documented degraded mode): still byte-deterministic
//! for a fixed restart schedule, but no longer identical to an
//! undisturbed run. Store I/O failures never panic: the shard drops to
//! memory-only operation and the failure is counted in [`ShardStats`].

use crate::faults::ShardFaultPlan;
use deco_cloud::MetadataStore;
use deco_core::supervisor::SupervisedPlan;
use deco_core::{Deco, DecoError};
use deco_serve::server::{serve_trace_backend, solve_jobs_on_pool, ServeBackend, SolveJob};
use deco_serve::store::PlanStore;
use deco_serve::{
    install_calibration, ArrivalTrace, Books, Mutation, Partition, PlanResponse, ServeConfig,
    ServeSession, ServeStats,
};
use deco_solver::SearchBudget;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Policy for the sharded tier. `serve` is the inner engine policy —
/// shared by every shard, exactly as a single-process server would read
/// it (`cache_capacity` is the *global* bound, not per-shard).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of key-range shards.
    pub shards: usize,
    /// Solver threads per shard pool.
    pub workers_per_shard: usize,
    /// The engine policy (admission, cache, retry, ...) the cycle loop
    /// runs under.
    pub serve: ServeConfig,
    /// Root directory for the per-shard durable stores
    /// (`<dir>/shard-<i>/`). `None` runs memory-only: restarts lose the
    /// shard's partition.
    pub persist_dir: Option<PathBuf>,
    /// Compact a shard's WAL into a snapshot once this many frames have
    /// been appended since the last compaction. 0 disables automatic
    /// compaction.
    pub snapshot_every: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            workers_per_shard: 2,
            serve: ServeConfig::default(),
            persist_dir: None,
            snapshot_every: 0,
        }
    }
}

/// Environment for one sharded replay: the inner serving session (worker
/// faults + calibration refreshes) plus the shard restart schedule.
#[derive(Debug, Clone, Default)]
pub struct ShardSession {
    pub serve: ServeSession,
    pub shard_faults: ShardFaultPlan,
}

/// Counters for the tier's own machinery (the serving counters live in
/// the engine's [`ServeStats`]; these describe sharding and durability).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard restarts taken (injected or explicit).
    pub restarts: u64,
    /// Cache entries recovered warm across all restarts and warm starts.
    pub recovered_entries: u64,
    /// Valid WAL/snapshot frames replayed across recoveries.
    pub recovered_frames: u64,
    /// Bytes discarded from torn log tails across recoveries.
    pub torn_bytes: u64,
    /// Entries lost to restarts without persistence (degraded mode).
    pub lost_entries: u64,
    /// WAL frames appended.
    pub wal_appends: u64,
    /// Snapshot compactions performed.
    pub snapshots: u64,
    /// Store I/O failures that degraded a shard to memory-only.
    pub store_failures: u64,
}

/// One shard's durable store: every mutation its partition makes is
/// appended, and an I/O failure drops the shard to memory-only (counted)
/// — persistence is an availability feature and must never become an
/// unavailability one. The shard worker process runs the same type.
#[derive(Default)]
pub(crate) struct ShardStore {
    pub(crate) store: Option<PlanStore>,
    /// Frames appended since the last compaction (the snapshot trigger).
    since_compact: u64,
}

impl ShardStore {
    pub(crate) fn log(&mut self, m: &Mutation<SupervisedPlan>, stats: &mut ShardStats) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        match store.append(m) {
            Ok(()) => {
                stats.wal_appends += 1;
                self.since_compact += 1;
            }
            Err(_) => {
                stats.store_failures += 1;
                self.store = None;
            }
        }
    }

    /// Snapshot `part` at catalog epoch `epoch` and truncate the WAL.
    pub(crate) fn compact(
        &mut self,
        epoch: u64,
        part: &Partition<SupervisedPlan>,
        stats: &mut ShardStats,
    ) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        match store.compact(epoch, part) {
            Ok(()) => {
                stats.snapshots += 1;
                self.since_compact = 0;
            }
            Err(_) => {
                stats.store_failures += 1;
                self.store = None;
            }
        }
    }

    /// [`compact`](Self::compact) once `every` (> 0) frames have been
    /// appended since the last snapshot.
    pub(crate) fn maybe_compact(
        &mut self,
        every: u64,
        epoch: u64,
        part: &Partition<SupervisedPlan>,
        stats: &mut ShardStats,
    ) {
        if every > 0 && self.since_compact >= every {
            self.compact(epoch, part, stats);
        }
    }
}

/// The sharded tier's sink: each mutation lands in its shard's store.
fn to_stores<'a>(
    stores: &'a mut [ShardStore],
    stats: &'a mut ShardStats,
) -> impl FnMut(usize, &Mutation<SupervisedPlan>) + 'a {
    move |si, m| stores[si].log(m, stats)
}

/// A sharded, optionally persistent [`ServeBackend`]. See the module
/// docs for the design; the headline contract is that for any shard
/// count N ≥ 1 (and any restart schedule, when persistence is on), a
/// replay is byte-identical to [`deco_serve::PlanServer`] serving the
/// same trace under the same [`ServeSession`].
pub struct ShardedServer {
    pub deco: Deco,
    config: ShardConfig,
    books: Books<SupervisedPlan>,
    stores: Vec<ShardStore>,
    /// The restart schedule for the replay in flight.
    fault_plan: ShardFaultPlan,
    stats: ShardStats,
}

impl ShardedServer {
    /// Build the tier. With a `persist_dir`, every shard warm-starts
    /// from its recovered snapshot + WAL (cold-restart warm hits); store
    /// failures degrade the affected shard to memory-only instead of
    /// failing construction, and only an unusable directory itself is an
    /// error.
    pub fn new(deco: Deco, config: ShardConfig) -> Result<Self, DecoError> {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.workers_per_shard >= 1, "need at least one worker");
        assert!(
            config.serve.batch_size >= 1,
            "batch_size must be at least 1"
        );
        let mut tier = ShardedServer {
            deco,
            books: Books::new(config.shards, config.serve.cache_capacity),
            stores: (0..config.shards).map(|_| ShardStore::default()).collect(),
            config,
            fault_plan: ShardFaultPlan::quiescent(),
            stats: ShardStats::default(),
        };
        if let Some(root) = tier.config.persist_dir.clone() {
            for si in 0..tier.config.shards {
                let store = PlanStore::open(&root.join(format!("shard-{si}")))?;
                tier.recover_into(si, store);
            }
        }
        Ok(tier)
    }

    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Tier counters (restarts, recoveries, WAL traffic).
    pub fn shard_stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Total cached entries across all shards.
    pub fn cache_len(&self) -> usize {
        self.books.len()
    }

    /// Cached entries in one shard's partition.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.books.partition(shard).entries.len()
    }

    /// Content keys currently quarantined, across all shards.
    pub fn quarantined_keys(&self) -> usize {
        self.books.quarantined_keys()
    }

    /// Fold `store` into shard `si`'s partition and keep it as the
    /// shard's store; false (and counted) when the log cannot be read.
    fn recover_into(&mut self, si: usize, mut store: PlanStore) -> bool {
        match store.recover() {
            Ok(part) => {
                self.stats.recovered_entries += part.entries.len() as u64;
                self.stats.recovered_frames += store.stats().frames_recovered;
                self.stats.torn_bytes += store.stats().torn_bytes;
                self.books.adopt(si, part);
                self.stores[si].store = Some(store);
                true
            }
            Err(_) => {
                self.stats.store_failures += 1;
                false
            }
        }
    }

    /// Kill one shard and bring it back. With a store attached the shard
    /// recovers its exact partition (cache, LRU stamps, strike and
    /// quarantine books) from snapshot + WAL; without one, the partition
    /// is lost (degraded mode) and the loss is counted.
    pub fn restart_shard(&mut self, shard: usize) {
        assert!(shard < self.stores.len(), "shard {shard} out of range");
        self.stats.restarts += 1;
        let had = self.shard_len(shard) as u64;
        self.books.adopt(shard, Partition::default());
        // Close the old handle before reopening the same files.
        let dir = self.stores[shard]
            .store
            .take()
            .map(|st| st.dir().to_path_buf());
        let recovered = match dir.map(|dir| PlanStore::open(&dir)) {
            Some(Ok(store)) => self.recover_into(shard, store),
            Some(Err(_)) => {
                self.stats.store_failures += 1;
                false
            }
            None => false,
        };
        if !recovered {
            self.stats.lost_entries += had;
        }
    }

    /// Compact one shard's WAL into a fresh snapshot of its live state.
    pub fn compact_shard(&mut self, shard: usize) {
        let epoch = self.deco.store.catalog_epoch();
        self.stores[shard].compact(epoch, self.books.partition(shard), &mut self.stats);
    }

    /// Replay a recorded trace under a quiescent session — no worker
    /// faults, no refreshes, no shard restarts.
    pub fn serve_trace(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace_session(trace, &ShardSession::default())
    }

    /// Replay a recorded trace under an explicit [`ShardSession`].
    /// Byte-identical to `PlanServer::serve_trace_session` on the same
    /// `(trace, session.serve)` for any shard count — including under
    /// `session.shard_faults` when persistence is on.
    pub fn serve_trace_session(
        &mut self,
        trace: &ArrivalTrace,
        session: &ShardSession,
    ) -> (Vec<PlanResponse>, ServeStats) {
        self.fault_plan = session.shard_faults.clone();
        let workers = self.config.workers_per_shard;
        let (responses, stats) = serve_trace_backend(self, trace, workers, &session.serve);
        self.fault_plan = ShardFaultPlan::quiescent();
        (responses, stats)
    }
}

impl ServeBackend for ShardedServer {
    fn deco(&self) -> &Deco {
        &self.deco
    }

    fn config(&self) -> &ServeConfig {
        &self.config.serve
    }

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        let sink = to_stores(&mut self.stores, &mut self.stats);
        self.books.get(key, sink).cloned()
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        let sink = to_stores(&mut self.stores, &mut self.stats);
        self.books.insert(key, plan.clone(), epoch, sink)
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        let sink = to_stores(&mut self.stores, &mut self.stats);
        self.books.purge(epoch, sink)
    }

    fn is_key_quarantined(&self, key: u64) -> bool {
        self.books.is_quarantined(key)
    }

    fn strike_count(&self, key: u64) -> Option<u32> {
        self.books.strikes(key)
    }

    fn add_strike(&mut self, key: u64) -> u32 {
        let sink = to_stores(&mut self.stores, &mut self.stats);
        self.books.strike(key, sink)
    }

    fn quarantine_key(&mut self, key: u64) {
        let sink = to_stores(&mut self.stores, &mut self.stats);
        self.books.quarantine(key, sink)
    }

    fn clear_strikes(&mut self, key: u64) {
        let sink = to_stores(&mut self.stores, &mut self.stats);
        self.books.clear(key, sink)
    }

    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        if jobs.is_empty() {
            return BTreeMap::new();
        }
        // Route each job to its owning shard's pool; pools run
        // concurrently and the per-job results are deterministic, so the
        // merged canonical map is independent of pool interleaving.
        let router = self.books.router();
        let mut groups: Vec<Vec<SolveJob>> = (0..self.config.shards).map(|_| Vec::new()).collect();
        for job in jobs {
            groups[router.shard_of(job.key)].push(job);
        }
        let deco = &self.deco;
        let (tx, rx) = crossbeam::channel::unbounded();
        std::thread::scope(|scope| {
            for group in groups.into_iter().filter(|g| !g.is_empty()) {
                let tx = tx.clone();
                scope.spawn(move || {
                    let solved = solve_jobs_on_pool(deco, group, workers);
                    let _ = tx.send(solved);
                });
            }
            drop(tx);
            let mut merged = BTreeMap::new();
            for mut part in rx.iter() {
                merged.append(&mut part);
            }
            merged
        })
    }

    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        // PlanServer's refresh, plus one Epoch frame per shard so
        // recovery applies the same discipline.
        let epoch = install_calibration(&mut self.deco.store, store);
        let sink = to_stores(&mut self.stores, &mut self.stats);
        (epoch, self.books.refresh(epoch, sink))
    }

    fn on_cycle_boundary(&mut self, cycle: u64) {
        // Injected shard restarts land here, strictly between cycles,
        // in shard index order (deterministic for any schedule).
        if !self.fault_plan.is_quiescent() {
            for shard in 0..self.stores.len() {
                if self.fault_plan.restarts_at(cycle, shard) {
                    self.restart_shard(shard);
                }
            }
        }
        let epoch = self.deco.store.catalog_epoch();
        for (si, store) in self.stores.iter_mut().enumerate() {
            let part = self.books.partition(si);
            store.maybe_compact(self.config.snapshot_every, epoch, part, &mut self.stats);
        }
    }

    fn observability(&self) -> deco_serve::BackendObservability {
        deco_serve::BackendObservability {
            store_failures: self.stats.store_failures,
            transport_errors: 0, // in-process tier: no pipes to break
            restarts: self.stats.restarts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::CloudSpec;
    use deco_core::supervisor::plan_with_fallback;
    use deco_serve::ShardRouter;
    use deco_workflow::generators;

    fn small_deco() -> Deco {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 10;
        deco.options.search.max_states = 40;
        deco
    }

    fn dummy_plan(marker: u64) -> SupervisedPlan {
        let d = small_deco();
        let wf = generators::pipeline(2, 50.0, 0);
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(&wf, &d.store.spec);
        let mut p = plan_with_fallback(
            &d,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &SearchBudget::unlimited(),
        )
        .expect("feasible");
        p.provenance.budget_spent += marker as f64;
        p
    }

    fn tier(shards: usize, capacity: usize) -> ShardedServer {
        ShardedServer::new(
            small_deco(),
            ShardConfig {
                shards,
                workers_per_shard: 1,
                serve: ServeConfig {
                    cache_capacity: capacity,
                    ..ServeConfig::default()
                },
                persist_dir: None,
                snapshot_every: 0,
            },
        )
        .expect("memory-only construction cannot fail")
    }

    #[test]
    fn partitioned_lru_matches_the_single_map_cache() {
        // Reproduce cache.rs's LRU scenario across 4 shards: same
        // victims, same survivors, driven through the backend trait.
        let mut t = tier(4, 2);
        let p = dummy_plan(1);
        assert_eq!(t.cache_insert(1, &p, 0), 0);
        assert_eq!(t.cache_insert(u64::MAX / 2, &p, 0), 0);
        assert!(t.cache_get(1).is_some()); // refresh 1; victim is MAX/2
        assert_eq!(t.cache_insert(u64::MAX - 5, &p, 0), 1);
        assert!(t.cache_get(u64::MAX / 2).is_none(), "global LRU victim");
        assert!(t.cache_get(1).is_some());
        assert!(t.cache_get(u64::MAX - 5).is_some());
        assert_eq!(t.cache_len(), 2);
    }

    #[test]
    fn zero_capacity_is_a_tier_wide_no_op() {
        let mut t = tier(2, 0);
        let p = dummy_plan(1);
        assert_eq!(t.cache_insert(7, &p, 0), 0);
        assert!(t.cache_get(7).is_none());
        assert_eq!(t.cache_len(), 0);
    }

    #[test]
    fn books_partition_by_key_range() {
        let mut t = tier(2, 8);
        let low = 17u64; // shard 0
        let high = u64::MAX - 17; // shard 1
        assert_eq!(t.add_strike(low), 1);
        assert_eq!(t.add_strike(low), 2);
        assert_eq!(t.add_strike(high), 1);
        assert_eq!(t.strike_count(low), Some(2));
        assert_eq!(t.strike_count(high), Some(1));
        t.quarantine_key(high);
        assert!(t.is_key_quarantined(high));
        assert!(!t.is_key_quarantined(low));
        assert_eq!(t.quarantined_keys(), 1);
        t.clear_strikes(low);
        assert_eq!(t.strike_count(low), None);
        assert_eq!(t.books.partition(0).strikes.len(), 0);
        assert_eq!(t.books.partition(1).strikes.len(), 1);
    }

    #[test]
    fn restart_without_persistence_loses_the_partition() {
        let mut t = tier(2, 8);
        let p = dummy_plan(1);
        t.cache_insert(17, &p, 0); // shard 0
        t.cache_insert(u64::MAX - 17, &p, 0); // shard 1
        t.restart_shard(0);
        assert_eq!(t.cache_len(), 1, "shard 0's partition is gone");
        assert!(t.cache_get(17).is_none());
        assert!(t.cache_get(u64::MAX - 17).is_some());
        assert_eq!(t.shard_stats().restarts, 1);
        assert_eq!(t.shard_stats().lost_entries, 1);
    }

    #[test]
    fn restart_with_persistence_recovers_warm() {
        let dir =
            std::env::temp_dir().join(format!("deco_shard_{}_restart_warm", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = ShardedServer::new(
            small_deco(),
            ShardConfig {
                shards: 2,
                workers_per_shard: 1,
                serve: ServeConfig::default(),
                persist_dir: Some(dir.clone()),
                snapshot_every: 0,
            },
        )
        .unwrap();
        let p = dummy_plan(3);
        t.cache_insert(17, &p, 0);
        t.add_strike(17);
        t.quarantine_key(u64::MAX - 4);
        let before = (t.cache_len(), t.strike_count(17), t.quarantined_keys());
        t.restart_shard(0);
        t.restart_shard(1);
        assert_eq!(
            (t.cache_len(), t.strike_count(17), t.quarantined_keys()),
            before,
            "a persisted restart is observationally a no-op"
        );
        let got = t.cache_get(17).expect("recovered entry");
        assert_eq!(
            got.provenance.budget_spent.to_bits(),
            p.provenance.budget_spent.to_bits()
        );
        assert!(t.shard_stats().recovered_entries >= 1);
        assert_eq!(t.shard_stats().lost_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_truncates_and_preserves_state() {
        let dir = std::env::temp_dir().join(format!("deco_shard_{}_compact", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = ShardedServer::new(
            small_deco(),
            ShardConfig {
                shards: 1,
                workers_per_shard: 1,
                serve: ServeConfig::default(),
                persist_dir: Some(dir.clone()),
                snapshot_every: 0,
            },
        )
        .unwrap();
        let p = dummy_plan(5);
        for k in 0..6u64 {
            t.cache_insert(k, &p, 0);
        }
        t.compact_shard(0);
        assert_eq!(t.shard_stats().snapshots, 1);
        t.restart_shard(0);
        assert_eq!(t.cache_len(), 6, "snapshot alone reproduces the state");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One books operation of the property below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u64),
        Insert(u64, u64),
        Purge(u64),
        Strike(u64),
        Clear(u64),
        Quarantine(u64),
        Refresh(u64),
        Drop(usize),
    }

    /// Decode a drawn `(kind, key index, epoch)`; the twelve keys are
    /// spread over the whole u64 range, so every partition count splits
    /// them differently.
    fn op((kind, i, e): (u8, u64, u64)) -> Op {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match kind {
            0 => Op::Get(k),
            1 => Op::Insert(k, e),
            2 => Op::Purge(e),
            3 => Op::Strike(k),
            4 => Op::Clear(k),
            5 => Op::Quarantine(k),
            6 => Op::Refresh(e),
            _ => Op::Drop(i as usize),
        }
    }

    /// Every mutation one operation made, per partition.
    type Made = Vec<(usize, Mutation<u64>)>;

    /// Run `op` on `books`, returning its decision (the evicted victim
    /// for an insert) and the mutations it made. A drop names a
    /// partition of the `n`-way books; on the one-partition reference it
    /// forgets exactly the keys that partition owns.
    fn run(books: &mut Books<u64>, op: Op, step: u64, n: usize) -> (String, Made) {
        let mut made = Made::new();
        let sink = |si: usize, m: &Mutation<u64>| made.push((si, m.clone()));
        let decision = match op {
            Op::Get(k) => format!("{:?}", books.get(k, sink).copied()),
            Op::Insert(k, e) => format!("{}", books.insert(k, step, e, sink)),
            Op::Purge(e) => format!("{}", books.purge(e, sink)),
            Op::Strike(k) => format!("{}", books.strike(k, sink)),
            Op::Clear(k) => format!("{:?}", books.clear(k, sink)),
            Op::Quarantine(k) => format!("{:?}", books.quarantine(k, sink)),
            Op::Refresh(e) => format!("{}", books.refresh(e, sink)),
            Op::Drop(si) if books.router().shards() == n => {
                format!("{}", books.drop_partition(si % n, sink))
            }
            Op::Drop(si) => {
                let owner = ShardRouter::new(n);
                let gone = |k: &u64| owner.shard_of(*k) == si % n;
                let p = books.partition_mut(0);
                let before = p.entries.len();
                p.entries.retain(|k, _| !gone(k));
                p.strikes.retain(|k, _| !gone(k));
                p.quarantine.retain(|k| !gone(k));
                format!("{}", before - p.entries.len())
            }
        };
        let victim: Vec<u64> = made
            .iter()
            .filter_map(|(_, m)| match (op, m) {
                (Op::Insert(..), Mutation::Del { key }) => Some(*key),
                _ => None,
            })
            .collect();
        (format!("{decision} victim {victim:?}"), made)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// (a) N-way books decide exactly what one partition decides —
        /// hits, evictions and victims, strike totals, quarantine
        /// verdicts, purge counts, the clock; (b) folding each
        /// partition's mutations from empty reproduces it exactly.
        #[test]
        fn books_decide_like_one_partition_and_fold_back_from_their_mutations(
            capacity in 0usize..8,
            ops in proptest::collection::vec((0u8..8, 0u64..12, 0u64..3), 1..60),
        ) {
            for n in 1..=4usize {
                let mut books = Books::new(n, capacity);
                let mut reference = Books::new(1, capacity);
                let mut folded: Vec<Partition<u64>> = vec![Partition::default(); n];
                for (step, &drawn) in ops.iter().enumerate() {
                    let op = op(drawn);
                    let (got, made) = run(&mut books, op, step as u64, n);
                    let (want, _) = run(&mut reference, op, step as u64, n);
                    assert_eq!(&got, &want, "{:?} at {} partitions", op, n);
                    assert_eq!(books.clock(), reference.clock());
                    assert_eq!(books.len(), reference.len());
                    for i in 0..12u64 {
                        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        assert_eq!(books.strikes(k), reference.strikes(k));
                        assert_eq!(books.is_quarantined(k), reference.is_quarantined(k));
                    }
                    for (si, m) in made {
                        folded[si].apply(m);
                    }
                }
                for (si, part) in folded.iter().enumerate() {
                    assert_eq!(part, books.partition(si));
                }
            }
        }
    }
}
