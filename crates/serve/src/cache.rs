//! The content-addressed plan cache.
//!
//! A plan is a pure function of (workflow DAG shape, catalog facts, engine
//! options, canonical deadline, percentile, budget). The cache keys on a
//! [`StableHasher`] digest of exactly those inputs:
//!
//! * the **workflow shape** — task profiles and data edges in canonical
//!   order; task and workflow *names* are deliberately excluded, so two
//!   tenants submitting structurally identical DAX documents share one
//!   cache line;
//! * the **catalog epoch** ([`MetadataStore::catalog_epoch`]) plus a
//!   price-table fingerprint — a recalibration or price refresh bumps the
//!   epoch, which changes every key derived afterwards and strands the
//!   stale entries (reaped by [`Books::purge`] and LRU);
//! * the **engine options** that shape the search (MC iterations, beam
//!   width, seeds, retry policy);
//! * the **canonical deadline** (bucket-floored by the server), the
//!   percentile, and the request-level budget.
//!
//! A warm hit therefore returns a plan bit-identical to what a cold solve
//! of the same canonical request would produce — the property the
//! proptests pin.
//!
//! The module also holds the one state machine behind every serving
//! tier's cache and fault books: [`Books`] — N [`Partition`]s routed by
//! [`ShardRouter`] under one LRU clock and one capacity — makes every
//! decision and hands each [`Mutation`] it makes to the tier's sink
//! (nothing for `PlanServer`, a WAL per shard, worker pipes plus a
//! journal). Recovery folds the same mutations back with
//! [`Partition::apply`], the same code the live path runs.

use deco_cloud::MetadataStore;
use deco_core::supervisor::SupervisedPlan;
use deco_core::DecoOptions;
use deco_prob::hash::StableHasher;
use deco_workflow::Workflow;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

/// Domain-separation seed: bump when the key derivation changes shape.
/// The workflow field's seed (`KEY_DOMAIN ^ 0x0DA6`) lives with the
/// digest it seeds, in [`Workflow::shape_hash`].
const KEY_DOMAIN: u64 = 0x5E72_ECAC_4E00_0001;

/// Canonical structural hash of a workflow: profiles and edges, no names.
/// Computed once per shared graph ([`Workflow::shape_hash`]).
pub fn workflow_shape_hash(wf: &Workflow) -> u64 {
    wf.shape_hash()
}

/// Fingerprint of the catalog the planner consults: the epoch (the
/// monotonic staleness signal) plus the price table and billing geometry,
/// so even an un-bumped store swap cannot alias keys.
pub fn catalog_fingerprint(store: &MetadataStore) -> u64 {
    let mut h = StableHasher::with_seed(KEY_DOMAIN ^ 0xCA7A);
    h.write_u64(store.catalog_epoch());
    let spec = &store.spec;
    h.write_usize(spec.types.len());
    for t in &spec.types {
        h.write_f64(t.price_per_hour);
        h.write_f64(t.ecu);
    }
    h.write_usize(spec.regions.len());
    for r in &spec.regions {
        h.write_f64(r.price_multiplier);
    }
    h.write_f64(spec.billing_quantum);
    h.write_f64(spec.inter_region_price_per_gb);
    h.finish()
}

/// Fingerprint of every engine option that can change a solve's verdict.
pub fn options_fingerprint(options: &DecoOptions) -> u64 {
    let mut h = StableHasher::with_seed(KEY_DOMAIN ^ 0x0975);
    h.write_usize(options.mc_iters);
    h.write_usize(options.beam_width);
    h.write_usize(options.wlog_bins);
    h.write_usize(options.search.max_states);
    h.write_usize(options.search.patience);
    h.write_usize(options.search.batch);
    h.write_u64(options.search.seed);
    match &options.retry {
        None => h.write_u8(0),
        Some(r) => {
            h.write_u8(1);
            h.write_u32(r.max_attempts);
            h.write_f64(r.backoff_base);
            h.write_f64(r.backoff_cap);
        }
    }
    h.finish()
}

/// The full content-addressed key of one canonical plan request.
#[allow(clippy::too_many_arguments)]
pub fn plan_key(
    wf: &Workflow,
    store: &MetadataStore,
    options: &DecoOptions,
    canonical_deadline: f64,
    percentile: f64,
    budget_ticks: Option<f64>,
) -> u64 {
    let mut h = StableHasher::with_seed(KEY_DOMAIN);
    h.write_u64(workflow_shape_hash(wf));
    h.write_u64(catalog_fingerprint(store));
    h.write_u64(options_fingerprint(options));
    h.write_f64(canonical_deadline);
    h.write_f64(percentile);
    match budget_ticks {
        None => h.write_u8(0),
        Some(t) => {
            h.write_u8(1);
            h.write_f64(t);
        }
    }
    h.finish()
}

/// Routes content keys to partitions by contiguous `u64` range.
///
/// Content keys are [`StableHasher`] digests — uniform over the full
/// `u64` space — so the simplest partition is also a balanced one:
/// partition *i* of *N* owns `[i·2⁶⁴/N, (i+1)·2⁶⁴/N)`. Contiguity is
/// load-bearing: the serving engine iterates its observables in
/// ascending content-key order, and walking N contiguous ranges in
/// partition order *is* that global order, so no tier ever needs a
/// merge sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a router needs at least one shard");
        ShardRouter { shards }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`. Computed in `u128` so the range split is
    /// exact — no shard is a key wider or narrower than its share.
    pub fn shard_of(&self, key: u64) -> usize {
        ((key as u128 * self.shards as u128) >> 64) as usize
    }

    /// The inclusive-exclusive key range `[start, end)` shard `i` owns;
    /// `end` is `None` for the last shard (its range is open at
    /// `u64::MAX`, i.e. closes at 2⁶⁴).
    pub fn range_of(&self, shard: usize) -> (u64, Option<u64>) {
        assert!(shard < self.shards, "shard {shard} out of range");
        // shard_of floors key·N/2⁶⁴, so shard i's first key is the
        // ceiling of i·2⁶⁴/N.
        let n = self.shards as u128;
        let start = ((shard as u128) << 64).div_ceil(n);
        let end = (((shard + 1) as u128) << 64).div_ceil(n);
        (
            start as u64,
            (shard + 1 < self.shards).then_some(end as u64),
        )
    }
}

/// One cache line of a [`Partition`].
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<P> {
    pub plan: P,
    /// Catalog epoch the plan was solved under (for purges).
    pub epoch: u64,
    /// Logical last-use stamp for LRU eviction.
    pub last_use: u64,
}

/// One change to one [`Partition`] — the vocabulary every serving tier
/// shares. Values are absolute (`Strike` carries the total, `Put` and
/// `Touch` the final stamp), so folding a mutation twice is harmless.
/// [`crate::store`] holds their one encoding, which the plan store
/// writes as its frame body and the worker pipe and the supervisor
/// journal wrap.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Mutation<P> {
    /// Cache a solved plan; a later `Put` for the same key supersedes.
    Put {
        key: u64,
        epoch: u64,
        last_use: u64,
        plan: P,
    },
    /// Refresh a key's LRU stamp (a warm hit).
    Touch { key: u64, last_use: u64 },
    /// Evict a key (LRU eviction or stale purge).
    Del { key: u64 },
    /// Record a key's cumulative worker-crash strikes.
    Strike { key: u64, count: u32 },
    /// Clear a key's strikes (a successful solve).
    ClearKey { key: u64 },
    /// Quarantine a key (answered from fallback until a refresh).
    Quarantine { key: u64 },
    /// A calibration refresh: drop entries of other epochs and clear the
    /// strike/quarantine books — a new calibration is a new world.
    Epoch { epoch: u64 },
    /// The partition is gone (a lost restart or a quarantined shard).
    /// Only the supervisor journal records it: a plan store is replaced
    /// with its partition, never told.
    Drop,
}

impl<P> Mutation<P> {
    /// The same mutation with a `Put`'s plan replaced by `f(plan)` — a
    /// lent reference, or nothing for a metadata-only sink.
    pub fn map<Q>(&self, f: impl FnOnce(&P) -> Q) -> Mutation<Q> {
        match *self {
            Mutation::Put {
                key,
                epoch,
                last_use,
                ref plan,
            } => Mutation::Put {
                key,
                epoch,
                last_use,
                plan: f(plan),
            },
            Mutation::Touch { key, last_use } => Mutation::Touch { key, last_use },
            Mutation::Del { key } => Mutation::Del { key },
            Mutation::Strike { key, count } => Mutation::Strike { key, count },
            Mutation::ClearKey { key } => Mutation::ClearKey { key },
            Mutation::Quarantine { key } => Mutation::Quarantine { key },
            Mutation::Epoch { epoch } => Mutation::Epoch { epoch },
            Mutation::Drop => Mutation::Drop,
        }
    }
}

/// One partition of the cache and its fault books: key → [`Entry`], the
/// crash strikes, the quarantine set. It changes only through
/// [`Partition::apply`] — the one fold the live books, the plan store's
/// recovery, the shard worker and the supervisor journal all run.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition<P> {
    pub entries: BTreeMap<u64, Entry<P>>,
    pub strikes: BTreeMap<u64, u32>,
    pub quarantine: BTreeSet<u64>,
    /// The epoch of the last `Epoch` folded in (0 before any).
    pub epoch: u64,
}

impl<P> Default for Partition<P> {
    fn default() -> Self {
        Partition {
            entries: BTreeMap::new(),
            strikes: BTreeMap::new(),
            quarantine: BTreeSet::new(),
            epoch: 0,
        }
    }
}

impl<P> Partition<P> {
    /// Whether `m` finds something to change: a `Touch` or `Del` needs
    /// its entry, a `ClearKey` its strike; everything else always
    /// applies. Sinks that log only real changes ask this first.
    pub fn finds<Q>(&self, m: &Mutation<Q>) -> bool {
        match m {
            Mutation::Touch { key, .. } | Mutation::Del { key } => self.entries.contains_key(key),
            Mutation::ClearKey { key } => self.strikes.contains_key(key),
            _ => true,
        }
    }

    /// The same partition with every plan replaced by `f(plan)`.
    pub fn map<Q>(&self, mut f: impl FnMut(&P) -> Q) -> Partition<Q> {
        let entries = self.entries.iter().map(|(&key, e)| {
            let (epoch, last_use) = (e.epoch, e.last_use);
            let plan = f(&e.plan);
            (
                key,
                Entry {
                    plan,
                    epoch,
                    last_use,
                },
            )
        });
        Partition {
            entries: entries.collect(),
            strikes: self.strikes.clone(),
            quarantine: self.quarantine.clone(),
            epoch: self.epoch,
        }
    }

    /// Fold one mutation into the partition.
    pub fn apply(&mut self, m: Mutation<P>) {
        match m {
            Mutation::Put {
                key,
                epoch,
                last_use,
                plan,
            } => {
                self.entries.insert(
                    key,
                    Entry {
                        plan,
                        epoch,
                        last_use,
                    },
                );
            }
            Mutation::Touch { key, last_use } => {
                if let Some(e) = self.entries.get_mut(&key) {
                    e.last_use = last_use;
                }
            }
            Mutation::Del { key } => {
                self.entries.remove(&key);
            }
            Mutation::Strike { key, count } => {
                self.strikes.insert(key, count);
            }
            Mutation::ClearKey { key } => {
                self.strikes.remove(&key);
            }
            Mutation::Quarantine { key } => {
                self.quarantine.insert(key);
            }
            Mutation::Epoch { epoch } => {
                self.epoch = epoch;
                self.entries.retain(|_, e| e.epoch == epoch);
                self.strikes.clear();
                self.quarantine.clear();
            }
            Mutation::Drop => *self = Partition::default(),
        }
    }

    /// Delete every entry solved under another epoch, one `Del` per key
    /// in key order; returns how many went.
    pub fn purge(&mut self, epoch: u64, mut sink: impl FnMut(&Mutation<P>)) -> usize {
        let stale: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.epoch != epoch)
            .map(|(&k, _)| k)
            .collect();
        for &key in &stale {
            let m = Mutation::Del { key };
            sink(&m);
            self.apply(m);
        }
        stale.len()
    }

    /// The compaction image: the mutations that rebuild this partition
    /// from empty — every `Put`, then every `Strike`, then every
    /// `Quarantine`, each in key order.
    pub fn image(&self) -> impl Iterator<Item = Mutation<&P>> {
        let puts = self.entries.iter().map(|(&key, e)| Mutation::Put {
            key,
            epoch: e.epoch,
            last_use: e.last_use,
            plan: &e.plan,
        });
        let strikes = self
            .strikes
            .iter()
            .map(|(&key, &count)| Mutation::Strike { key, count });
        let quarantine = self
            .quarantine
            .iter()
            .map(|&key| Mutation::Quarantine { key });
        puts.chain(strikes).chain(quarantine)
    }
}

/// The cache and fault books of a whole serving tier: N range-routed
/// [`Partition`]s under one LRU clock and one global capacity. Every
/// cache and book decision is made here — hit or miss, eviction victim,
/// strike totals, quarantine verdicts, purge counts — so a tier with N
/// partitions decides exactly what the one-partition [`PlanCache`]
/// decides. Each operation hands the `(partition, mutation)` pairs it
/// made to a sink *before* folding them, so a `Put`'s plan is lent to
/// the sink, never cloned for it; the tier forwards them to its WAL,
/// its worker pipes or its journal.
///
/// Eviction is deterministic: the least-recently-used entry across all
/// partitions goes first, ties broken by smaller key. A zero-capacity
/// book stores nothing and evicts nothing.
#[derive(Debug, Clone)]
pub struct Books<P> {
    router: ShardRouter,
    parts: Vec<Partition<P>>,
    capacity: usize,
    /// The single LRU clock, advanced by every lookup and insert.
    clock: u64,
}

impl<P> Books<P> {
    pub fn new(partitions: usize, capacity: usize) -> Self {
        Books {
            router: ShardRouter::new(partitions),
            parts: (0..partitions).map(|_| Partition::default()).collect(),
            capacity,
            clock: 0,
        }
    }

    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The configured entry bound (0 means nothing is ever stored).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Cached entries across all partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn partition(&self, si: usize) -> &Partition<P> {
        &self.parts[si]
    }

    /// Direct access for a tier filling in plan bytes it fetched or
    /// forgetting an entry its store lost; decisions go through the
    /// operations below.
    pub fn partition_mut(&mut self, si: usize) -> &mut Partition<P> {
        &mut self.parts[si]
    }

    pub fn quarantined_keys(&self) -> usize {
        self.parts.iter().map(|p| p.quarantine.len()).sum()
    }

    pub fn is_quarantined(&self, key: u64) -> bool {
        self.parts[self.router.shard_of(key)]
            .quarantine
            .contains(&key)
    }

    pub fn strikes(&self, key: u64) -> Option<u32> {
        self.parts[self.router.shard_of(key)]
            .strikes
            .get(&key)
            .copied()
    }

    /// Install a recovered partition, raising the clock past its stamps.
    pub fn adopt(&mut self, si: usize, part: Partition<P>) {
        let newest = part.entries.values().map(|e| e.last_use).max();
        self.advance_clock(newest.unwrap_or(0));
        self.parts[si] = part;
    }

    /// Raise the clock to at least `clock` (a journaled high-water mark).
    pub fn advance_clock(&mut self, clock: u64) {
        self.clock = self.clock.max(clock);
    }

    /// Advance the clock for an insert the tier refuses to store.
    pub fn tick(&mut self) {
        self.clock += 1;
    }

    /// Look a key up, refreshing its stamp on a hit. The clock advances
    /// on misses too: eviction tie-breaking depends on it.
    pub fn get(&mut self, key: u64, mut sink: impl FnMut(usize, &Mutation<P>)) -> Option<&P> {
        self.clock += 1;
        let si = self.router.shard_of(key);
        let part = &mut self.parts[si];
        if !part.entries.contains_key(&key) {
            return None;
        }
        let m = Mutation::Touch {
            key,
            last_use: self.clock,
        };
        sink(si, &m);
        part.apply(m);
        part.entries.get(&key).map(|e| &e.plan)
    }

    /// Insert a solved plan, evicting the global LRU victim first when
    /// the key is new and the books are full; returns entries evicted.
    pub fn insert(
        &mut self,
        key: u64,
        plan: P,
        epoch: u64,
        mut sink: impl FnMut(usize, &Mutation<P>),
    ) -> usize {
        self.clock += 1;
        if self.capacity == 0 {
            return 0;
        }
        let si = self.router.shard_of(key);
        let mut evicted = 0;
        if !self.parts[si].entries.contains_key(&key) && self.len() >= self.capacity {
            let victim = self
                .parts
                .iter()
                .enumerate()
                .flat_map(|(vs, p)| p.entries.iter().map(move |(&k, e)| (e.last_use, k, vs)))
                .min();
            if let Some((_, key, vs)) = victim {
                let m = Mutation::Del { key };
                sink(vs, &m);
                self.parts[vs].apply(m);
                evicted = 1;
            }
        }
        let m = Mutation::Put {
            key,
            epoch,
            last_use: self.clock,
            plan,
        };
        sink(si, &m);
        self.parts[si].apply(m);
        evicted
    }

    /// Drop every entry solved under another epoch; returns the count.
    pub fn purge(&mut self, epoch: u64, mut sink: impl FnMut(usize, &Mutation<P>)) -> usize {
        let mut purged = 0;
        for (si, part) in self.parts.iter_mut().enumerate() {
            purged += part.purge(epoch, |m| sink(si, m));
        }
        purged
    }

    /// Record one more crash strike against a key; returns the total.
    pub fn strike(&mut self, key: u64, sink: impl FnMut(usize, &Mutation<P>)) -> u32 {
        let count = self.strikes(key).unwrap_or(0) + 1;
        self.make(key, Mutation::Strike { key, count }, sink);
        count
    }

    /// Clear a key's strikes (a successful solve); a no-op without any.
    pub fn clear(&mut self, key: u64, sink: impl FnMut(usize, &Mutation<P>)) {
        if self.strikes(key).is_some() {
            self.make(key, Mutation::ClearKey { key }, sink);
        }
    }

    /// Quarantine a key: answered from fallback until a refresh.
    pub fn quarantine(&mut self, key: u64, sink: impl FnMut(usize, &Mutation<P>)) {
        self.make(key, Mutation::Quarantine { key }, sink);
    }

    /// A calibration refresh: every partition folds `Epoch { epoch }`.
    /// Returns the entries it purged.
    pub fn refresh(&mut self, epoch: u64, mut sink: impl FnMut(usize, &Mutation<P>)) -> usize {
        let before = self.len();
        for (si, part) in self.parts.iter_mut().enumerate() {
            let m = Mutation::Epoch { epoch };
            sink(si, &m);
            part.apply(m);
        }
        before - self.len()
    }

    /// Forget partition `si` whole; returns the entries lost.
    pub fn drop_partition(
        &mut self,
        si: usize,
        mut sink: impl FnMut(usize, &Mutation<P>),
    ) -> usize {
        let lost = self.parts[si].entries.len();
        sink(si, &Mutation::Drop);
        self.parts[si].apply(Mutation::Drop);
        lost
    }

    fn make(&mut self, key: u64, m: Mutation<P>, mut sink: impl FnMut(usize, &Mutation<P>)) {
        let si = self.router.shard_of(key);
        sink(si, &m);
        self.parts[si].apply(m);
    }
}

/// A bounded LRU map from content key to supervised plan: the
/// one-partition [`Books`] with nowhere to send its mutations.
///
/// A **zero-capacity cache is a documented no-op**: [`PlanCache::insert`]
/// never stores (and never evicts a phantom entry), every lookup misses,
/// and `len()` stays 0. A shard misconfigured with `cache_capacity: 0`
/// therefore fails soft — it serves every request as a cold solve instead
/// of panicking at construction.
pub struct PlanCache(Books<SupervisedPlan>);

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache(Books::new(1, capacity))
    }

    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Look up a key, refreshing its LRU stamp on a hit.
    pub fn get(&mut self, key: u64) -> Option<&SupervisedPlan> {
        self.0.get(key, |_, _| {})
    }

    /// Insert a solved plan; returns how many entries were evicted to
    /// make room (0 or 1).
    pub fn insert(&mut self, key: u64, plan: SupervisedPlan, epoch: u64) -> usize {
        self.0.insert(key, plan, epoch, |_, _| {})
    }

    /// Drop every entry solved under an older catalog epoch; returns the
    /// number purged. (Stale entries are already unreachable — the epoch
    /// is part of every key — so this is reclamation, not correctness.)
    pub fn purge_stale(&mut self, current_epoch: u64) -> usize {
        self.0.purge(current_epoch, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::{CloudSpec, MetadataStore};
    use deco_core::supervisor::plan_with_fallback;
    use deco_core::Deco;
    use deco_solver::SearchBudget;
    use deco_workflow::generators;

    fn store() -> MetadataStore {
        MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20)
    }

    #[test]
    fn shape_hash_ignores_names_but_not_structure() {
        let a = generators::montage(1, 5);
        let mut b = a.clone();
        b.name = "renamed".into();
        assert_eq!(workflow_shape_hash(&a), workflow_shape_hash(&b));
        let c = generators::montage(1, 6);
        assert_ne!(workflow_shape_hash(&a), workflow_shape_hash(&c));
        assert_ne!(
            workflow_shape_hash(&generators::pipeline(3, 10.0, 0)),
            workflow_shape_hash(&generators::pipeline(4, 10.0, 0))
        );
    }

    #[test]
    fn keys_track_epoch_deadline_budget_and_options() {
        let wf = generators::montage(1, 5);
        let mut st = store();
        let opts = DecoOptions::default();
        let base = plan_key(&wf, &st, &opts, 1000.0, 0.9, None);
        assert_eq!(base, plan_key(&wf, &st, &opts, 1000.0, 0.9, None));
        st.bump_catalog_epoch();
        assert_ne!(base, plan_key(&wf, &st, &opts, 1000.0, 0.9, None));
        let st = store();
        assert_ne!(base, plan_key(&wf, &st, &opts, 2000.0, 0.9, None));
        assert_ne!(base, plan_key(&wf, &st, &opts, 1000.0, 0.95, None));
        assert_ne!(base, plan_key(&wf, &st, &opts, 1000.0, 0.9, Some(50.0)));
        let mut tweaked = DecoOptions::default();
        tweaked.mc_iters += 1;
        assert_ne!(base, plan_key(&wf, &st, &tweaked, 1000.0, 0.9, None));
    }

    fn dummy_plan(seed: u64) -> SupervisedPlan {
        let st = store();
        let mut d = Deco::new(st);
        d.options.mc_iters = 10;
        d.options.search.max_states = 40;
        let wf = generators::pipeline(2, 50.0, 0);
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(&wf, &d.store.spec);
        plan_with_fallback(
            &d,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &SearchBudget::unlimited(),
        )
        .map(|mut p| {
            p.provenance.budget_spent += seed as f64; // distinguishable marker
            p
        })
        .expect("feasible")
    }

    #[test]
    fn lru_evicts_least_recently_used_deterministically() {
        let mut cache = PlanCache::new(2);
        assert_eq!(cache.insert(1, dummy_plan(1), 0), 0);
        assert_eq!(cache.insert(2, dummy_plan(2), 0), 0);
        assert!(cache.get(1).is_some()); // refresh 1; victim becomes 2
        assert_eq!(cache.insert(3, dummy_plan(3), 0), 1);
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_cache_is_a_no_op() {
        let mut cache = PlanCache::new(0);
        assert_eq!(cache.capacity(), 0);
        assert_eq!(
            cache.insert(1, dummy_plan(1), 0),
            0,
            "no phantom eviction on a no-op insert"
        );
        assert!(cache.get(1).is_none(), "nothing is ever stored");
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        // Repeated inserts stay no-ops and never evict.
        for k in 0..10 {
            assert_eq!(cache.insert(k, dummy_plan(k), 0), 0);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.purge_stale(1), 0);
    }

    #[test]
    fn purge_drops_only_stale_epochs() {
        let mut cache = PlanCache::new(8);
        cache.insert(1, dummy_plan(1), 0);
        cache.insert(2, dummy_plan(2), 1);
        cache.insert(3, dummy_plan(3), 1);
        assert_eq!(cache.purge_stale(1), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.purge_stale(2), 2);
        assert!(cache.is_empty());
    }
}
