//! Task execution-time estimation and Monte-Carlo state evaluation.
//!
//! Following the paper's estimation approach (Section 5.1, after Yu et
//! al. and Pietri et al.): a task's execution time on an instance is its
//! CPU time scaled by the instance speed plus its I/O and network time,
//! and because I/O and network performance are dynamic, the estimate is a
//! *distribution* — here a histogram derived from the calibrated metadata
//! store, never from the simulator's ground truth.

use deco_cloud::plan::{exec_time_hist, list_schedule, mean_transfer, Plan};
use deco_cloud::{CloudSpec, MetadataStore, RetryConfig};
use deco_prob::rng::split_indexed;
use deco_prob::{BinSampler, DecoRng, Histogram};
use deco_workflow::{TaskId, Workflow};

/// Precomputed per-(task, type) execution-time histograms for one
/// workflow — the `T_ij(t)` table of Equation (2).
#[derive(Debug, Clone)]
pub struct ExecTimeTable {
    /// `hists[task][type]`, rebinned to `bins` bins.
    hists: Vec<Vec<Histogram>>,
    /// Mean of each histogram (cached; Equation (2)'s `M_ij`).
    means: Vec<Vec<f64>>,
    /// Bins per histogram.
    bins: usize,
}

impl ExecTimeTable {
    /// Build the table from the metadata store.
    pub fn build(wf: &Workflow, store: &MetadataStore, bins: usize) -> Self {
        assert!(bins >= 2);
        let k = store.spec.k();
        let mut hists = Vec::with_capacity(wf.len());
        for t in wf.task_ids() {
            let row: Vec<Histogram> = (0..k)
                .map(|ty| exec_time_hist(store, ty, wf, t).rebin(bins))
                .collect();
            hists.push(row);
        }
        let means = hists
            .iter()
            .map(|row| row.iter().map(|h| h.mean()).collect())
            .collect();
        ExecTimeTable { hists, means, bins }
    }

    /// Like [`ExecTimeTable::build`], but folds the store's
    /// `fail_rate(type, region)` facts into every per-(task, type)
    /// histogram: each execution time becomes the *expected completion
    /// time including retries* under the given retry policy, evaluated at
    /// `region` (types are plan variables; the region is fixed by the
    /// scheduling stage). Plans optimized against this table are
    /// failure-aware through the unchanged Monte-Carlo path — types whose
    /// long tasks keep getting killed look expensive, exactly as the
    /// probabilistic-scheduling literature folds failures into the
    /// stochastic task-time model. With all rates zero this is
    /// [`ExecTimeTable::build`] exactly.
    pub fn build_failure_aware(
        wf: &Workflow,
        store: &MetadataStore,
        bins: usize,
        region: usize,
        retry: &RetryConfig,
    ) -> Self {
        assert!(bins >= 2);
        let k = store.spec.k();
        let mut hists = Vec::with_capacity(wf.len());
        for t in wf.task_ids() {
            let row: Vec<Histogram> = (0..k)
                .map(|ty| {
                    let h = exec_time_hist(store, ty, wf, t).rebin(bins);
                    failure_adjusted_hist(&h, store.fail_rate(ty, region), retry)
                })
                .collect();
            hists.push(row);
        }
        let means = hists
            .iter()
            .map(|row| row.iter().map(|h| h.mean()).collect())
            .collect();
        ExecTimeTable { hists, means, bins }
    }

    pub fn hist(&self, task: usize, ty: usize) -> &Histogram {
        &self.hists[task][ty]
    }

    /// `M_ij`: mean execution time of task `i` on type `j`.
    pub fn mean(&self, task: usize, ty: usize) -> f64 {
        self.means[task][ty]
    }

    pub fn k(&self) -> usize {
        self.hists.first().map_or(0, |r| r.len())
    }

    pub fn n_tasks(&self) -> usize {
        self.hists.len()
    }

    /// Bytes one provisioning state occupies in the evaluation kernel's
    /// working set (the paper stages each thread's temporary results in
    /// GPU shared memory): per task, the 4-byte configuration, two staged
    /// f64 accumulators (sampled duration, running path length) and the
    /// active row of the execution-time histogram (`bins` centers as f64)
    /// from which the block's threads sample.
    pub fn state_bytes(&self) -> usize {
        self.n_tasks() * (4 + 16 + 8 * self.bins)
    }
}

/// Expected completion time (retries included) of a task whose single
/// attempt takes `x` seconds, on an instance that crashes at
/// `rate_per_hour` (Poisson, so an attempt of length `x` is killed with
/// probability `p = 1 − exp(−λx/3600)`).
///
/// Model: the expected number of killed attempts before success is the
/// geometric `p/(1−p)`, truncated at the retry budget; each killed
/// attempt wastes half its nominal duration in expectation (crashes are
/// uniform over the attempt) plus the first backoff. Monotone in the
/// rate, exactly `x` at rate zero.
pub fn failure_adjusted_seconds(x: f64, rate_per_hour: f64, retry: &RetryConfig) -> f64 {
    assert!(rate_per_hour >= 0.0);
    if rate_per_hour == 0.0 || x <= 0.0 {
        return x;
    }
    let p = 1.0 - (-rate_per_hour * x / 3600.0).exp();
    let expected_failures = (p / (1.0 - p).max(1e-12)).min((retry.max_attempts - 1) as f64);
    x + expected_failures * (0.5 * x + retry.backoff(1))
}

/// Push a per-(task, type) execution-time histogram through
/// [`failure_adjusted_seconds`]. Returns the input unchanged (bit-for-bit)
/// at rate zero, so failure-aware planning is an exact no-op on a
/// reliable cloud.
pub fn failure_adjusted_hist(h: &Histogram, rate_per_hour: f64, retry: &RetryConfig) -> Histogram {
    if rate_per_hour == 0.0 {
        return h.clone();
    }
    let retry = *retry;
    h.map(move |x| failure_adjusted_seconds(x, rate_per_hour, &retry))
}

/// One Monte-Carlo realization of a plan's schedule: list-schedules the
/// DAG with task durations sampled from the estimate table and transfers
/// at their mean, returning `(makespan, cost)`.
///
/// This is the paper's state evaluation: makespan against the
/// probabilistic deadline, cost as the objective (Equations (1)–(3)).
pub fn sampled_schedule(
    wf: &Workflow,
    plan: &Plan,
    table: &ExecTimeTable,
    spec: &CloudSpec,
    rng: &mut DecoRng,
) -> (f64, f64) {
    let s = list_schedule(wf, plan, spec, |t, ty| {
        table.hist(t.index(), ty).sample(rng).max(0.0)
    });
    (s.makespan, s.cost.total())
}

/// Monte-Carlo evaluation of a plan over `iters` realizations (Algorithm 1
/// with the typed evaluator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEval {
    /// `P(makespan <= deadline)`.
    pub prob: f64,
    /// Mean cost over realizations.
    pub mean_cost: f64,
    /// The `percentile`-quantile of the sampled makespans — the quantity
    /// the probabilistic deadline constrains.
    pub quantile_makespan: f64,
}

/// Monte-Carlo evaluation of a plan: deadline probability, mean cost and
/// the `percentile`-quantile makespan.
///
/// Runs the plan as a one-column [`CompiledFrontier`] over a skeleton laid
/// out in the plan's own dispatch order, so every plan — whether or not
/// its dispatch ranks follow the workflow's topological order — runs on
/// the same kernel as a search frontier. Search loops hold a problem-wide
/// [`FrontierSkeleton`] and a [`FrontierScratch`] instead and skip the
/// per-call skeleton build.
#[allow(clippy::too_many_arguments)]
pub fn mc_evaluate_plan(
    wf: &Workflow,
    plan: &Plan,
    table: &ExecTimeTable,
    spec: &CloudSpec,
    deadline: f64,
    percentile: f64,
    iters: usize,
    seed: u64,
) -> McEval {
    let skel = FrontierSkeleton::with_order(wf, table, plan.dispatch_order(wf));
    let frontier = CompiledFrontier {
        skel: &skel,
        spec,
        plans: std::slice::from_ref(plan),
    };
    frontier.evaluate(
        deadline,
        percentile,
        iters,
        &[seed],
        &mut FrontierScratch::new(),
    )[0]
}

/// The reference evaluator, retained as the executable spec of
/// Algorithm 1: a fresh topological sort, per-edge transfer computation
/// and O(bins) linear-scan sampling in every realization. The property
/// tests pin [`CompiledFrontier`] to this loop bit for bit; the `mc_eval`
/// bench measures the speedup against it.
#[allow(clippy::too_many_arguments)]
pub fn mc_evaluate_plan_reference(
    wf: &Workflow,
    plan: &Plan,
    table: &ExecTimeTable,
    spec: &CloudSpec,
    deadline: f64,
    percentile: f64,
    iters: usize,
    seed: u64,
) -> McEval {
    assert!(iters > 0);
    let mut rng: DecoRng = split_indexed(seed, 0x65737431);
    let mut hits = 0usize;
    let mut cost_sum = 0.0;
    let mut makespans = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (makespan, cost) = sampled_schedule(wf, plan, table, spec, &mut rng);
        if makespan <= deadline {
            hits += 1;
        }
        cost_sum += cost;
        makespans.push(makespan);
    }
    McEval {
        prob: hits as f64 / iters as f64,
        mean_cost: cost_sum / iters as f64,
        quantile_makespan: deco_prob::stats::quantile(&makespans, percentile.clamp(0.0, 1.0)),
    }
}

/// Realization lanes per frontier pass: [`CompiledFrontier`] runs this
/// many Monte-Carlo realizations of one candidate side by side. Within a
/// lane group every index — CDF row, slot, transfer constant — is shared
/// (the lanes differ only in their drawn `u`s), so the inner loops are
/// branch-free f64 arithmetic over fixed-size lane arrays that the
/// compiler auto-vectorizes: the paper's K×N kernel parallelism, with the
/// N axis mapped onto SIMD lanes and the K axis onto the compiled
/// candidate columns.
pub const FRONTIER_LANES: usize = 8;

/// The realization-invariant, *candidate-invariant* structure of one
/// scheduling problem, compiled once per problem and shared by every
/// frontier batch: the common dispatch order, the parent-edge CSR with raw
/// payload bytes, and every per-(task, type) duration CDF flattened from
/// the [`ExecTimeTable`].
///
/// Sharing is sound because the plan packers assign dispatch ranks in
/// topological-order sequence, so every packed plan's
/// [`Plan::dispatch_order`] equals the workflow's topological order —
/// [`FrontierSkeleton::conforms`] verifies exactly that per candidate (an
/// O(tasks) rank comparison). A plan that does not conform runs through
/// [`mc_evaluate_plan`], which lays a skeleton out in that plan's own
/// dispatch order.
#[derive(Debug, Clone)]
pub struct FrontierSkeleton {
    n_tasks: usize,
    n_types: usize,
    /// Tasks in the shared dispatch order.
    order: Vec<u32>,
    /// Expected dispatch rank per task id (its position in `order`).
    ranks: Vec<u32>,
    /// CSR offsets into `epar`/`ebytes`, indexed by *dispatch position*
    /// (not task id — the hot loop walks positions).
    eoff: Vec<u32>,
    /// Parent *dispatch position* per dependency edge (parents precede
    /// children, so the kernel can keep every per-realization array in
    /// position space and write it sequentially).
    epar: Vec<u32>,
    /// Raw payload bytes per edge (`0.0` when unrecorded).
    ebytes: Vec<f64>,
    /// CSR offsets into `cum`, row index `task * n_types + type`. Rows are
    /// ragged: a constant histogram survives `rebin` with a single bin.
    cdf_off: Vec<u32>,
    /// Flattened per-(task, type) CDF rows — the exact bits of each
    /// [`BinSampler`]'s prefix sums, with every row's last entry rewritten
    /// to `+∞`: `BinSampler::index_for` clamps to the last bin when `u`
    /// exceeds the total mass, and an infinite last entry folds that clamp
    /// into the below-`u` count itself.
    cum: Vec<f64>,
    /// `(lo, width)` bin geometry per (task, type) row.
    geom: Vec<(f64, f64)>,
    /// Longest CDF row (rows are ragged only when `rebin` collapsed a
    /// constant histogram): the padded row width of every column.
    row_stride: usize,
}

impl FrontierSkeleton {
    /// Flatten the workflow structure and the whole estimate table. Costs
    /// O(tasks × types × bins) once per [`crate::SchedulingProblem`] —
    /// amortized over every candidate of every frontier batch of the
    /// search.
    pub fn build(wf: &Workflow, table: &ExecTimeTable) -> Self {
        Self::with_order(wf, table, wf.topo_order())
    }

    /// [`FrontierSkeleton::build`] over an arbitrary dispatch order (any
    /// topological order of `wf`).
    fn with_order(wf: &Workflow, table: &ExecTimeTable, order: Vec<TaskId>) -> Self {
        let n_tasks = wf.len();
        let n_types = table.k();
        let order: Vec<u32> = order.into_iter().map(|t| t.0).collect();
        let mut ranks = vec![0u32; n_tasks];
        for (pos, &raw) in order.iter().enumerate() {
            ranks[raw as usize] = pos as u32;
        }
        let mut eoff = Vec::with_capacity(n_tasks + 1);
        let mut epar = Vec::new();
        let mut ebytes = Vec::new();
        eoff.push(0u32);
        for &raw in &order {
            let t = TaskId(raw);
            for p in wf.parents(t) {
                epar.push(ranks[p.0 as usize]);
                ebytes.push(wf.edge_bytes(p, t).unwrap_or(0.0));
            }
            eoff.push(epar.len() as u32);
        }
        let mut cdf_off = Vec::with_capacity(n_tasks * n_types + 1);
        let mut cum = Vec::new();
        let mut geom = Vec::with_capacity(n_tasks * n_types);
        cdf_off.push(0u32);
        for t in 0..n_tasks {
            for ty in 0..n_types {
                let s: BinSampler = table.hist(t, ty).sampler();
                cum.extend_from_slice(s.cum());
                *cum.last_mut().expect("histogram has at least one bin") = f64::INFINITY;
                geom.push((s.lo(), s.width()));
                cdf_off.push(cum.len() as u32);
            }
        }
        let row_stride = cdf_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        FrontierSkeleton {
            n_tasks,
            n_types,
            order,
            ranks,
            eoff,
            epar,
            ebytes,
            cdf_off,
            cum,
            geom,
            row_stride,
        }
    }

    /// Whether a plan's dispatch ranks match the skeleton order, so its
    /// realizations can run over the skeleton. Distinct ranks equal to
    /// skeleton positions make [`Plan::dispatch_order`] (Kahn + min-rank
    /// heap) pop tasks in exactly the skeleton's order.
    pub fn conforms(&self, plan: &Plan) -> bool {
        plan.order == self.ranks
    }

    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }
}

/// One candidate column of a [`CompiledFrontier`]: the candidate's type
/// choices resolved against the shared skeleton — CDF rows, bin geometry
/// and slot per dispatch position, transfer constants per edge, prices per
/// slot. It lives in the [`FrontierScratch`] and is re-resolved for each
/// candidate right before its realizations run, so a frontier of any width
/// occupies one column's memory; everything here is read-only in the hot
/// loop.
#[derive(Debug, Clone, Default)]
struct FrontierColumn {
    /// The candidate's CDF rows copied out of `skel.cum` into one dense
    /// `n_tasks × row_stride` matrix in dispatch order, short rows padded
    /// with `+∞` (which no uniform draw ever exceeds, so padding never
    /// changes a count). The copy trades O(tasks × bins) resolve work for
    /// a scan that streams sequentially with a uniform stride — reused by
    /// every realization group — instead of gathering rows through
    /// offsets.
    rows: Vec<f64>,
    /// Width of every padded row in `rows`.
    row_stride: usize,
    /// Bin geometry of that row, copied out of the skeleton so the hot
    /// loop reads flat streams instead of chasing `geom` through rows.
    row_lo: Vec<f64>,
    row_w: Vec<f64>,
    /// Slot index per dispatch position.
    task_slot: Vec<u32>,
    /// Lane offset into the scratch `slot_start` array where this
    /// position's start times are recorded: `slot * LANES` when the
    /// position is the first task dispatched to its slot (its start IS the
    /// slot's first start — later tasks cannot start earlier than its
    /// finish), or one dummy row past the real slots otherwise. The
    /// unconditional routed store replaces a load + `min` + store per
    /// position.
    start_idx: Vec<u32>,
    /// Constant transfer seconds per skeleton edge: transfer time depends
    /// only on edge bytes and the slot pair, never on sampled durations.
    transfer: Vec<f64>,
    /// Hourly price per slot.
    slot_price: Vec<f64>,
    /// Total inter-region bytes (accumulated in dispatch-edge order — the
    /// reference's f64 addition order).
    cross_bytes: f64,
    /// Resolve-time scratch: whether a slot has had its first dispatch.
    slot_seen: Vec<bool>,
}

impl FrontierColumn {
    /// Resolve `plan`, which must dispatch in the skeleton's order, into
    /// this column, reusing its buffers. O(tasks × bins + edges).
    fn resolve(&mut self, skel: &FrontierSkeleton, spec: &CloudSpec, plan: &Plan) {
        let n = skel.n_tasks;
        let stride = skel.row_stride;
        self.row_stride = stride;
        self.rows.clear();
        self.rows.resize(n * stride, f64::INFINITY);
        // Every entry of these is written below.
        self.row_lo.resize(n, 0.0);
        self.row_w.resize(n, 0.0);
        self.task_slot.resize(n, 0);
        self.start_idx.resize(n, 0);
        self.transfer.resize(skel.epar.len(), 0.0);
        self.slot_price.clear();
        self.slot_price
            .extend(plan.slots.iter().map(|s| spec.price(s.itype, s.region)));
        let mut cross = 0.0f64;
        self.slot_seen.clear();
        self.slot_seen.resize(plan.slots.len(), false);
        for i in 0..n {
            let t = skel.order[i] as usize;
            let my_slot = plan.assign[t];
            let ty = plan.slots[my_slot].itype;
            let row = t * skel.n_types + ty;
            let (off, end) = (skel.cdf_off[row] as usize, skel.cdf_off[row + 1] as usize);
            self.rows[i * stride..i * stride + (end - off)].copy_from_slice(&skel.cum[off..end]);
            let (lo, w) = skel.geom[row];
            self.row_lo[i] = lo;
            self.row_w[i] = w;
            self.task_slot[i] = my_slot as u32;
            self.start_idx[i] = if self.slot_seen[my_slot] {
                (plan.slots.len() * FRONTIER_LANES) as u32
            } else {
                self.slot_seen[my_slot] = true;
                (my_slot * FRONTIER_LANES) as u32
            };
            for e in skel.eoff[i] as usize..skel.eoff[i + 1] as usize {
                let p_slot = plan.assign[skel.order[skel.epar[e] as usize] as usize];
                self.transfer[e] = if p_slot == my_slot {
                    0.0
                } else {
                    let (from, to) = (plan.slots[p_slot], plan.slots[my_slot]);
                    let (seconds, billed) = mean_transfer(spec, from, to, skel.ebytes[e]);
                    cross += billed;
                    seconds
                };
            }
        }
        self.cross_bytes = cross;
    }
}

/// K candidate plans compiled over one [`FrontierSkeleton`] for a single
/// K×N-realization pass — the Monte-Carlo kernel. A single plan is the
/// K = 1 case ([`mc_evaluate_plan`]).
///
/// Per candidate the arithmetic (draw order, bin counts, max folds, cost
/// ledger) exactly mirrors [`sampled_schedule`], and each candidate
/// consumes its own RNG stream seeded from its own per-state seed, so
/// `evaluate` returns bit-for-bit the same [`McEval`]s as K
/// [`mc_evaluate_plan_reference`] calls — `tests/properties.rs` pins
/// this.
#[derive(Debug, Clone)]
pub struct CompiledFrontier<'s> {
    skel: &'s FrontierSkeleton,
    spec: &'s CloudSpec,
    plans: &'s [Plan],
}

/// Reusable buffers for [`CompiledFrontier`] evaluations. One scratch per
/// worker thread makes the steady-state evaluation loop allocation-free;
/// buffers grow to the largest (tasks, slots, iters) seen and results
/// never depend on their prior contents. All per-realization state is
/// lane-blocked: entry `x * FRONTIER_LANES + r` belongs to realization
/// lane `r`.
#[derive(Debug, Clone, Default)]
pub struct FrontierScratch {
    /// Drawn uniforms, `[position * LANES + lane]`, refilled per group.
    u: Vec<f64>,
    /// Finish time, `[position * LANES + lane]` (position space, so the
    /// schedule pass writes it sequentially).
    finish: Vec<f64>,
    /// Next free time per `[slot * LANES + lane]`, zeroed per group. Its
    /// final value is also each slot's last task finish (per-slot finishes
    /// are monotone in dispatch order), so the cost pass reads the busy
    /// span's end from here and no separate last-finish array exists.
    slot_free: Vec<f64>,
    /// First start per `[slot * LANES + lane]`, plus one trailing dummy
    /// row that absorbs the routed [`FrontierColumn::start_idx`] stores of
    /// non-first positions. `+∞` marks a never-used slot; used slots are
    /// rewritten every group, so the fill happens once per candidate.
    slot_start: Vec<f64>,
    /// Sampled makespans of the candidate under evaluation, realization
    /// order.
    makespans: Vec<f64>,
    /// The candidate under evaluation.
    col: FrontierColumn,
}

impl FrontierScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n_tasks: usize, n_slots: usize) {
        const L: usize = FRONTIER_LANES;
        // `u` and `finish` need the right length but no refill: the draw
        // pass fills `u` first, and parents precede children in dispatch
        // order so every `finish` entry is written before it is read.
        self.u.resize(n_tasks * L, 0.0);
        self.finish.resize(n_tasks * L, 0.0);
        // `slot_free` is refilled at the top of every lane group;
        // `slot_start` only here (see the field docs).
        self.slot_free.resize(n_slots * L, 0.0);
        self.slot_start.clear();
        self.slot_start.resize((n_slots + 1) * L, f64::INFINITY);
        self.makespans.clear();
    }
}

/// A `FRONTIER_LANES`-wide view into a lane-blocked scratch array. The
/// bounds are debug-asserted here and guaranteed by the skeleton/column
/// construction invariants at every call site (task ids `< n_tasks`, slot
/// ids `< n_slots`, arrays sized by [`FrontierScratch::reset`]); skipping
/// the release-mode checks keeps the per-position loop branch-free.
#[inline(always)]
fn lanes(s: &[f64], at: usize) -> &[f64; FRONTIER_LANES] {
    debug_assert!(at + FRONTIER_LANES <= s.len());
    // SAFETY: `at + FRONTIER_LANES <= s.len()` per the construction
    // invariants above.
    unsafe { &*(s.as_ptr().add(at) as *const [f64; FRONTIER_LANES]) }
}

#[inline(always)]
fn lanes_mut(s: &mut [f64], at: usize) -> &mut [f64; FRONTIER_LANES] {
    debug_assert!(at + FRONTIER_LANES <= s.len());
    // SAFETY: as for [`lanes`].
    unsafe { &mut *(s.as_mut_ptr().add(at) as *mut [f64; FRONTIER_LANES]) }
}

/// `f64::max` as a compare-select, which lowers to a bare `maxpd` instead
/// of `maxpd` plus NaN fixups. Bit-equal to `f64::max` whenever no operand
/// is NaN and the operands are not a `-0.0`/`+0.0` pair — schedule times
/// here are sums/maxes of non-negative finite values, so neither case can
/// occur (the debug assertion checks the NaN half).
#[inline(always)]
fn fmax(a: f64, b: f64) -> f64 {
    debug_assert!(!a.is_nan() && !b.is_nan());
    if b < a {
        a
    } else {
        b
    }
}

impl<'s> CompiledFrontier<'s> {
    /// Bind `plans` to the skeleton for one K×N pass. Returns `None` when
    /// any plan does not [`FrontierSkeleton::conforms`] — the caller then
    /// evaluates those plans with [`mc_evaluate_plan`]. No topological
    /// sort and no per-candidate work: `evaluate` resolves each candidate
    /// into the scratch's column right before running it.
    pub fn compile(
        skel: &'s FrontierSkeleton,
        spec: &'s CloudSpec,
        plans: &'s [Plan],
    ) -> Option<Self> {
        plans
            .iter()
            .all(|p| skel.conforms(p))
            .then_some(CompiledFrontier { skel, spec, plans })
    }

    /// Monte-Carlo evaluate all K candidates, `iters` realizations each,
    /// in lane-vectorized passes. `seeds[i]` seeds candidate `i`'s own
    /// RNG stream exactly as [`mc_evaluate_plan_reference`] seeds its one.
    pub fn evaluate(
        &self,
        deadline: f64,
        percentile: f64,
        iters: usize,
        seeds: &[u64],
        scratch: &mut FrontierScratch,
    ) -> Vec<McEval> {
        assert!(iters > 0);
        assert_eq!(seeds.len(), self.plans.len(), "one seed per candidate");
        // The column is moved out so the kernel can borrow it alongside
        // the rest of the scratch.
        let mut col = std::mem::take(&mut scratch.col);
        let verdicts = self
            .plans
            .iter()
            .zip(seeds)
            .map(|(plan, &seed)| {
                col.resolve(self.skel, self.spec, plan);
                self.run_column(&col, deadline, percentile, iters, seed, scratch)
            })
            .collect();
        scratch.col = col;
        verdicts
    }

    /// One candidate's N realizations, [`FRONTIER_LANES`] at a time. Per
    /// lane the operation sequence — one uniform draw per task in dispatch
    /// order, the branch-free CDF count, the ready/start/finish maxes, the
    /// slot spans, the cost ledger — is exactly [`sampled_schedule`]'s
    /// (lanes are independent realizations; `hits`/`cost_sum`/`makespans`
    /// accumulate in realization order after each group). The draw pass
    /// consumes the RNG stream in realization-major order — the exact
    /// stream positions the reference loop reads — and the fused
    /// sample-and-schedule pass then shares each position's CDF row, slot
    /// and transfer constants across all lanes, so the per-lane work is
    /// pure data-parallel f64 arithmetic.
    fn run_column(
        &self,
        col: &FrontierColumn,
        deadline: f64,
        percentile: f64,
        iters: usize,
        seed: u64,
        scratch: &mut FrontierScratch,
    ) -> McEval {
        // Re-compile the lane kernel for the widest vector unit the host
        // actually has: the default x86-64 baseline is SSE2 (2 f64 lanes
        // per op), so on AVX2/AVX-512 hosts the same inner body — every
        // operation per-lane IEEE arithmetic, no FMA contraction — runs
        // bit-identically at 4 or 8 lanes per op. Detection is a cached
        // atomic load, negligible against a column's K×N work.
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the avx512f requirement of the target_feature
                // wrapper was just verified at runtime.
                return unsafe {
                    self.run_column_avx512(col, deadline, percentile, iters, seed, scratch)
                };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 requirement of the target_feature
                // wrapper was just verified at runtime.
                return unsafe {
                    self.run_column_avx2(col, deadline, percentile, iters, seed, scratch)
                };
            }
        }
        self.run_column_inner(col, deadline, percentile, iters, seed, scratch)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_column_avx2(
        &self,
        col: &FrontierColumn,
        deadline: f64,
        percentile: f64,
        iters: usize,
        seed: u64,
        scratch: &mut FrontierScratch,
    ) -> McEval {
        self.run_column_inner(col, deadline, percentile, iters, seed, scratch)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn run_column_avx512(
        &self,
        col: &FrontierColumn,
        deadline: f64,
        percentile: f64,
        iters: usize,
        seed: u64,
        scratch: &mut FrontierScratch,
    ) -> McEval {
        self.run_column_inner(col, deadline, percentile, iters, seed, scratch)
    }

    #[inline(always)]
    fn run_column_inner(
        &self,
        col: &FrontierColumn,
        deadline: f64,
        percentile: f64,
        iters: usize,
        seed: u64,
        scratch: &mut FrontierScratch,
    ) -> McEval {
        const L: usize = FRONTIER_LANES;
        let n = self.skel.n_tasks;
        let n_slots = col.slot_price.len();
        scratch.reset(n, n_slots);
        let mut rng: DecoRng = split_indexed(seed, 0x65737431);
        let mut hits = 0usize;
        let mut cost_sum = 0.0f64;
        let eoff = &self.skel.eoff[..n + 1];
        let epar = &self.skel.epar[..];
        let stride = col.row_stride;
        let rows = &col.rows[..n * stride];
        let row_lo = &col.row_lo[..n];
        let row_w = &col.row_w[..n];
        let task_slot = &col.task_slot[..n];
        let start_idx = &col.start_idx[..n];
        let transfer = &col.transfer[..];
        let u = &mut scratch.u[..n * L];
        let finish = &mut scratch.finish[..n * L];
        let slot_free = &mut scratch.slot_free[..n_slots * L];
        let slot_start = &mut scratch.slot_start[..(n_slots + 1) * L];

        // The reference ledger charges transfer as `0.0 + bytes/GiB³·price`
        // — with both factors non-negative that sum is bit-equal to the
        // product itself, so it hoists to a per-candidate constant.
        let transfer_cost =
            col.cross_bytes / (1024.0 * 1024.0 * 1024.0) * self.spec.inter_region_price_per_gb;
        let mut done = 0usize;
        while done < iters {
            // Lanes beyond `live` (a short tail group) draw nothing and
            // schedule over stale `u`s; their results are never read.
            let live = L.min(iters - done);
            for r in 0..live {
                for i in 0..n {
                    // SAFETY: `u` has length `n * L`, `i < n`,
                    // `r < live <= L`.
                    unsafe { *u.get_unchecked_mut(i * L + r) = rand::Rng::gen(&mut rng) };
                }
            }
            slot_free.fill(0.0);
            let mut row_iter = rows.chunks_exact(stride.max(1));
            for i in 0..n {
                let ui = lanes(u, i * L);
                let row = row_iter.next().unwrap_or(&[]);
                // Counting in i32 keeps the whole scan in vector registers
                // (compare → masked subtract), and four independent
                // accumulators break the loop-carried dependency so the
                // row entries pipeline instead of serializing — integer
                // partial counts recombine exactly in any order. The total
                // is a small integer, so the conversion below is exact and
                // feeds the bin-center formula as the same value the
                // reference's `bin as f64` produces.
                let mut b0 = [0i32; L];
                let mut b1 = [0i32; L];
                let mut b2 = [0i32; L];
                let mut b3 = [0i32; L];
                let mut quads = row.chunks_exact(4);
                for q in &mut quads {
                    let (c0, c1, c2, c3) = (q[0], q[1], q[2], q[3]);
                    for r in 0..L {
                        b0[r] += (c0 < ui[r]) as i32;
                        b1[r] += (c1 < ui[r]) as i32;
                        b2[r] += (c2 < ui[r]) as i32;
                        b3[r] += (c3 < ui[r]) as i32;
                    }
                }
                for &c in quads.remainder() {
                    for (r, b) in b0.iter_mut().enumerate() {
                        *b += (c < ui[r]) as i32;
                    }
                }
                let mut bin = [0i32; L];
                for r in 0..L {
                    bin[r] = (b0[r] + b1[r]) + (b2[r] + b3[r]);
                }
                let (lo, w) = (row_lo[i], row_w[i]);
                let mut dur = [0.0f64; L];
                for r in 0..L {
                    dur[r] = fmax(lo + (bin[r] as f64 + 0.5) * w, 0.0);
                }
                let mut ready = [0.0f64; L];
                for e in eoff[i] as usize..eoff[i + 1] as usize {
                    // Parent positions precede `i` in dispatch order, so
                    // `epar[e] < n_tasks` and `finish` is already written.
                    let fp = lanes(finish, epar[e] as usize * L);
                    let tr = transfer[e];
                    for (r, rd) in ready.iter_mut().enumerate() {
                        *rd = fmax(*rd, fp[r] + tr);
                    }
                }
                // `task_slot[i] < n_slots` (`resolve` indexed
                // `plan.slots` with it) and `start_idx[i] <= n_slots * L` (the
                // dummy row); `finish` is position-indexed so its store is
                // sequential.
                let s = task_slot[i] as usize * L;
                let sf = lanes_mut(slot_free, s);
                let st = lanes_mut(slot_start, start_idx[i] as usize);
                let ft = lanes_mut(finish, i * L);
                for r in 0..L {
                    let start = fmax(ready[r], sf[r]);
                    let end = start + dur[r];
                    ft[r] = end;
                    sf[r] = end;
                    st[r] = start;
                }
            }
            // Cost pass, slot-major so all lanes share each slot's price:
            // per lane this inlines `CostLedger::add_instance`'s math —
            // `ceil(span/quantum)` quanta, a zero-length busy span still
            // billing one — and accumulates `compute` in slot order, the
            // reference's f64 addition order. A slot's busy span runs from
            // its recorded first start to its final `slot_free` (per-slot
            // finishes are monotone); never-used slots keep `start = +∞ >
            // 0 = slot_free` and contribute a masked `+0.0`, bit-equal to
            // the reference skipping the add (the accumulator is never
            // `-0.0`). Quanta counts are small integers, so skipping the
            // reference's f64→u64→f64 round-trip loses nothing. The
            // makespan — the reference's running max over task finishes —
            // folds here from the same final `slot_free` values instead
            // (`max` is associative and commutative over these non-NaN
            // spans, so the value is identical).
            let quantum = self.spec.billing_quantum;
            let mut compute = [0.0f64; L];
            let mut makespan = [0.0f64; L];
            for ((ss, zz), price) in slot_start
                .chunks_exact(L)
                .zip(slot_free.chunks_exact(L))
                .zip(col.slot_price.iter())
            {
                for (((cp, mk), &a), &z) in
                    compute.iter_mut().zip(makespan.iter_mut()).zip(ss).zip(zz)
                {
                    let seconds = z - a;
                    let quanta = if seconds == 0.0 {
                        1.0
                    } else {
                        (seconds / quantum).ceil()
                    };
                    *cp += if a <= z { quanta * price } else { 0.0 };
                    *mk = fmax(*mk, z);
                }
            }
            for r in 0..live {
                if makespan[r] <= deadline {
                    hits += 1;
                }
                cost_sum += compute[r] + transfer_cost;
                scratch.makespans.push(makespan[r]);
            }
            done += live;
        }
        McEval {
            prob: hits as f64 / iters as f64,
            mean_cost: cost_sum / iters as f64,
            quantile_makespan: deco_prob::stats::quantile(
                &scratch.makespans,
                percentile.clamp(0.0, 1.0),
            ),
        }
    }
}

/// The `Dmin`/`Dmax` deadline anchors of the paper's sensitivity study:
/// expected makespan with everything on the fastest / cheapest type.
///
/// Computed from the mean schedule of maximally parallel packed plans so
/// the anchors include inter-instance transfer times and readiness
/// queueing — a pure critical-path sum undershoots them for I/O-heavy
/// workflows, making "Dmin-relative" deadlines unachievable.
pub fn deadline_anchors(wf: &Workflow, spec: &CloudSpec) -> (f64, f64) {
    use deco_cloud::plan::mean_schedule;
    let anchor = |ty: usize| {
        let plan = Plan::packed(wf, &vec![ty; wf.len()], 0, spec);
        mean_schedule(wf, &plan, spec).makespan
    };
    (anchor(spec.priciest_type()), anchor(spec.cheapest_type()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::plan::mean_exec_seconds;
    use deco_workflow::generators;

    fn setup() -> (Workflow, CloudSpec, MetadataStore) {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec.clone(), 40);
        let wf = generators::montage(1, 3);
        (wf, spec, store)
    }

    #[test]
    fn table_means_track_analytic_means() {
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        for t in wf.task_ids() {
            for ty in 0..spec.k() {
                let analytic = mean_exec_seconds(&spec, ty, &wf, t);
                let tabled = table.mean(t.index(), ty);
                assert!(
                    (tabled - analytic).abs() / analytic.max(1e-9) < 0.08,
                    "task {t} type {ty}: {tabled} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn faster_types_have_smaller_means() {
        let (wf, _, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        for t in 0..table.n_tasks() {
            assert!(table.mean(t, 3) <= table.mean(t, 0) * 1.05);
        }
    }

    #[test]
    fn sampled_schedule_varies_and_centers_on_mean_schedule() {
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);
        let reference = deco_cloud::plan::mean_schedule(&wf, &plan, &spec);
        let mut rng = deco_prob::rng::seeded(5);
        let samples: Vec<f64> = (0..200)
            .map(|_| sampled_schedule(&wf, &plan, &table, &spec, &mut rng).0)
            .collect();
        let mean = deco_prob::stats::mean(&samples);
        assert!(
            (mean - reference.makespan).abs() / reference.makespan < 0.15,
            "MC mean {mean} vs mean-schedule {}",
            reference.makespan
        );
        assert!(deco_prob::stats::std_dev(&samples) > 0.0);
    }

    #[test]
    fn mc_probability_is_monotone_in_deadline() {
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        let plan = Plan::packed(&wf, &vec![0; wf.len()], 0, &spec);
        let reference = deco_cloud::plan::mean_schedule(&wf, &plan, &spec).makespan;
        let p_tight =
            mc_evaluate_plan(&wf, &plan, &table, &spec, reference * 0.7, 0.9, 200, 1).prob;
        let p_mid = mc_evaluate_plan(&wf, &plan, &table, &spec, reference, 0.9, 200, 1).prob;
        let p_loose =
            mc_evaluate_plan(&wf, &plan, &table, &spec, reference * 1.5, 0.9, 200, 1).prob;
        assert!(p_tight <= p_mid && p_mid <= p_loose);
        assert!(p_loose > 0.9, "generous deadline should almost surely hold");
        assert!(p_tight < 0.5, "70% of the mean should usually be missed");
    }

    #[test]
    fn anchors_are_ordered() {
        let (wf, spec, _) = setup();
        let (dmin, dmax) = deadline_anchors(&wf, &spec);
        assert!(dmin < dmax);
        assert!(dmin > 0.0);
    }

    #[test]
    fn compiled_evaluator_matches_reference_exactly() {
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        for ty in 0..3usize {
            let plan = Plan::packed(&wf, &vec![ty; wf.len()], 0, &spec);
            for seed in [0u64, 7, 99] {
                let a = mc_evaluate_plan_reference(&wf, &plan, &table, &spec, 900.0, 0.9, 64, seed);
                let b = mc_evaluate_plan(&wf, &plan, &table, &spec, 900.0, 0.9, 64, seed);
                assert_eq!(a, b, "compiled evaluator diverged (type {ty}, seed {seed})");
            }
        }
    }

    #[test]
    fn kernel_realizations_match_reference_stream() {
        // Realization-for-realization: with one realization the verdict
        // *is* that realization (`mean_cost` its cost, `quantile_makespan`
        // its makespan), and growing `iters` one at a time across
        // lane-group boundaries walks the same stream realization by
        // realization (min and max makespan, running cost sum).
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 10);
        let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);
        for seed in 0..4u64 {
            for iters in 1..=2 * FRONTIER_LANES + 1 {
                for pct in [0.0, 1.0] {
                    let a = mc_evaluate_plan_reference(
                        &wf, &plan, &table, &spec, 900.0, pct, iters, seed,
                    );
                    let b = mc_evaluate_plan(&wf, &plan, &table, &spec, 900.0, pct, iters, seed);
                    assert_eq!(a, b, "seed {seed}: realization {iters} diverged");
                }
            }
        }
    }

    #[test]
    fn dispatch_order_computed_once_per_evaluation() {
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);
        let calls = deco_cloud::plan::dispatch_order_calls_on_this_thread;
        let before = calls();
        let _ = mc_evaluate_plan(&wf, &plan, &table, &spec, 900.0, 0.9, 200, 3);
        assert_eq!(
            calls() - before,
            1,
            "200 realizations must reuse one topological sort"
        );
        // A frontier over the problem-wide skeleton sorts nothing at all.
        let skel = FrontierSkeleton::build(&wf, &table);
        let before = calls();
        let frontier = CompiledFrontier::compile(&skel, &spec, std::slice::from_ref(&plan))
            .expect("packed plans conform");
        let _ = frontier.evaluate(900.0, 0.9, 200, &[3], &mut FrontierScratch::new());
        assert_eq!(calls() - before, 0);
        // The reference loop, by contrast, sorts once per realization.
        let before = calls();
        let _ = mc_evaluate_plan_reference(&wf, &plan, &table, &spec, 900.0, 0.9, 10, 3);
        assert_eq!(calls() - before, 10);
    }

    #[test]
    fn scratch_is_reusable_across_plans_of_different_shape() {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec.clone(), 20);
        let mut scratch = FrontierScratch::new();
        for (wf, iters) in [
            (generators::ligo(20, 1), 50usize),
            (generators::montage(1, 3), 80),
            (generators::ligo(40, 2), 30),
        ] {
            let table = ExecTimeTable::build(&wf, &store, 8);
            let skel = FrontierSkeleton::build(&wf, &table);
            let plan = Plan::packed(&wf, &vec![0; wf.len()], 0, &spec);
            let fresh = mc_evaluate_plan(&wf, &plan, &table, &spec, 700.0, 0.9, iters, 5);
            let reused = CompiledFrontier::compile(&skel, &spec, std::slice::from_ref(&plan))
                .expect("packed plans conform")
                .evaluate(700.0, 0.9, iters, &[5], &mut scratch)[0];
            assert_eq!(fresh, reused, "dirty scratch changed a verdict");
        }
    }

    #[test]
    fn evaluation_is_deterministic_in_seed() {
        let (wf, spec, store) = setup();
        let table = ExecTimeTable::build(&wf, &store, 12);
        let plan = Plan::packed(&wf, &vec![2; wf.len()], 0, &spec);
        let a = mc_evaluate_plan(&wf, &plan, &table, &spec, 500.0, 0.9, 100, 9);
        let b = mc_evaluate_plan(&wf, &plan, &table, &spec, 500.0, 0.9, 100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn state_bytes_scale_with_workflow_size() {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec, 20);
        let small = ExecTimeTable::build(&generators::ligo(20, 0), &store, 8);
        let large = ExecTimeTable::build(&generators::ligo(1000, 0), &store, 8);
        assert!(large.state_bytes() > 40 * small.state_bytes());
        // A 1000-task state busts the K40's 48 KiB shared memory; a
        // 20-task state fits — the Section 6.3.2 speedup-decline mechanism.
        assert!(large.state_bytes() > 48 * 1024);
        assert!(small.state_bytes() < 48 * 1024);
    }

    #[test]
    fn failure_adjustment_is_identity_at_rate_zero() {
        let (wf, _spec, store) = setup();
        let retry = RetryConfig::default();
        let plain = ExecTimeTable::build(&wf, &store, 12);
        let aware = ExecTimeTable::build_failure_aware(&wf, &store, 12, 0, &retry);
        for t in 0..plain.n_tasks() {
            for j in 0..plain.k() {
                assert_eq!(
                    plain.mean(t, j).to_bits(),
                    aware.mean(t, j).to_bits(),
                    "reliable cloud must leave ({t},{j}) untouched"
                );
            }
        }
        assert_eq!(failure_adjusted_seconds(300.0, 0.0, &retry), 300.0);
    }

    #[test]
    fn failure_adjustment_is_monotone_in_the_rate() {
        let retry = RetryConfig::default();
        let x = 1800.0;
        let mut prev = x;
        for rate in [0.05, 0.2, 0.5, 1.0, 2.0] {
            let adj = failure_adjusted_seconds(x, rate, &retry);
            assert!(adj > prev, "rate {rate}: {adj} must exceed {prev}");
            prev = adj;
        }
        // The retry budget caps the inflation even at absurd rates.
        let worst = failure_adjusted_seconds(x, 1.0e3, &retry);
        let cap = (retry.max_attempts - 1) as f64;
        assert!(worst <= x + cap * (0.5 * x + retry.backoff(1)) + 1e-9);
    }

    #[test]
    fn failure_aware_tables_raise_unreliable_types_only() {
        let (wf, _spec, store) = setup();
        let retry = RetryConfig::default();
        // Type 0 is flaky in region 0; everything else is reliable.
        let mut store = store;
        store.set_fail_rate(0, 0, 1.5);
        let plain = ExecTimeTable::build(&wf, &store, 12);
        let aware = ExecTimeTable::build_failure_aware(&wf, &store, 12, 0, &retry);
        for t in 0..plain.n_tasks() {
            assert!(aware.mean(t, 0) > plain.mean(t, 0));
            for j in 1..plain.k() {
                assert_eq!(plain.mean(t, j).to_bits(), aware.mean(t, j).to_bits());
            }
        }
    }
}
