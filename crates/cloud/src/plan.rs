//! Resource provisioning plans.
//!
//! A plan is the output of Deco and the input of the execution engine: it
//! fixes, for every task, the instance *type* (the paper's optimization
//! variable `vm_ij`) and the concrete instance ("slot") the task runs on.
//! Slots matter because billing is per instance-hour: putting two short
//! same-type tasks on one slot (the Merge / Co-Scheduling transformations)
//! halves their cost.

use crate::billing::{bill, quanta_charged, widen_span, CostLedger};
use crate::instance::{CloudSpec, InstanceTypeId};
use crate::region::RegionId;
use deco_prob::hist::Histogram;
use deco_workflow::{TaskId, Workflow};
use serde::{Deserialize, Serialize};

/// One concrete instance to be acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmSlot {
    pub itype: InstanceTypeId,
    pub region: RegionId,
}

thread_local! {
    /// Calls to [`Plan::dispatch_order`] made by the current thread.
    /// Instrumentation for the compiled-evaluator regression tests, which
    /// assert the topological sort runs once per compiled plan rather than
    /// once per Monte-Carlo realization. Thread-local (not a process-wide
    /// atomic) so concurrently running tests cannot perturb each other's
    /// counts; the cost on the hot path is one TLS cell bump per *plan*,
    /// which is noise.
    static DISPATCH_ORDER_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`Plan::dispatch_order`] calls made by the current thread
/// since it started (test instrumentation; see `DISPATCH_ORDER_CALLS`).
pub fn dispatch_order_calls_on_this_thread() -> u64 {
    DISPATCH_ORDER_CALLS.with(|c| c.get())
}

/// A provisioning plan: slots plus a task → slot assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    pub slots: Vec<VmSlot>,
    /// `assign[task.index()]` = slot index.
    pub assign: Vec<usize>,
    /// Dispatch rank per task (lower runs earlier on its instance). The
    /// packers fill this from their planned start times so the execution
    /// engine and the Monte-Carlo estimator sequence slot-mates the same
    /// way the plan intended — without it, greedy dispatch could reorder a
    /// shared instance's queue and blow the deadline the planner verified.
    pub order: Vec<u32>,
}

impl Plan {
    /// One dedicated instance per task, with the given type per task.
    pub fn one_slot_per_task(types: &[InstanceTypeId], region: RegionId) -> Plan {
        Plan {
            slots: types.iter().map(|&t| VmSlot { itype: t, region }).collect(),
            assign: (0..types.len()).collect(),
            order: (0..types.len() as u32).collect(),
        }
    }

    /// One dedicated instance per task, all of a single type — the
    /// "m1.small only" style configurations of Figure 1.
    pub fn single_type(n_tasks: usize, itype: InstanceTypeId, region: RegionId) -> Plan {
        Plan::one_slot_per_task(&vec![itype; n_tasks], region)
    }

    /// Instance type chosen for a task.
    pub fn task_type(&self, t: TaskId) -> InstanceTypeId {
        self.slots[self.assign[t.index()]].itype
    }

    /// Region chosen for a task.
    pub fn task_region(&self, t: TaskId) -> RegionId {
        self.slots[self.assign[t.index()]].region
    }

    /// Internal consistency + workflow coverage.
    pub fn validate(&self, wf: &Workflow, spec: &CloudSpec) -> Result<(), String> {
        if self.assign.len() != wf.len() {
            return Err(format!(
                "plan covers {} tasks, workflow has {}",
                self.assign.len(),
                wf.len()
            ));
        }
        if self.order.len() != wf.len() {
            return Err(format!(
                "plan has {} dispatch ranks for {} tasks",
                self.order.len(),
                wf.len()
            ));
        }
        for (i, &s) in self.assign.iter().enumerate() {
            if s >= self.slots.len() {
                return Err(format!("task {i} assigned to unknown slot {s}"));
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.itype >= spec.k() {
                return Err(format!("slot {i} has unknown type {}", slot.itype));
            }
            if slot.region >= spec.regions.len() {
                return Err(format!("slot {i} has unknown region {}", slot.region));
            }
        }
        Ok(())
    }

    /// Consolidate a per-task type vector into slots by greedy list
    /// scheduling on *mean* execution times: a task reuses an existing
    /// same-type slot when that slot is expected to be free by the time the
    /// task's inputs are ready, otherwise a new slot is opened. This is the
    /// packing every algorithm in the repository (Deco and baselines alike)
    /// uses to turn a type assignment into concrete instances.
    pub fn packed(
        wf: &Workflow,
        types: &[InstanceTypeId],
        region: RegionId,
        spec: &CloudSpec,
    ) -> Plan {
        assert_eq!(types.len(), wf.len());
        let mean_exec = mean_execs(wf, types, spec);
        let order = wf.topo_order();
        // Best fit: the same-type slot free the latest but still by `ready`
        // (keeps instances busy without delaying the task); the highest
        // index wins a tie.
        let best_fit = |k: &Packing, t: TaskId, ready: f64| {
            let mut best: Option<(usize, f64)> = None;
            for (at, slot) in k.of_type(types[t.index()]) {
                if slot.free <= ready + 1e-9
                    && best.is_none_or(|(_, f)| slot.free.total_cmp(&f).is_ge())
                {
                    best = Some((at, slot.free));
                }
            }
            best.map(|(at, _)| at)
        };
        let quantum = spec.billing_quantum;
        pack(wf, &order, types, region, quantum, &mean_exec, best_fit)
    }

    /// Deadline-aware consolidation — the Move and Merge transformation
    /// operations. A task may *wait* for a busy same-type instance when its
    /// latest feasible finish time (backward pass from `deadline` on mean
    /// times) allows it, and instance choice minimizes the number of newly
    /// opened billing quanta. Loose deadlines therefore collapse onto few
    /// busy instances (cheap); tight deadlines fan out (fast).
    pub fn packed_deadline(
        wf: &Workflow,
        types: &[InstanceTypeId],
        region: RegionId,
        spec: &CloudSpec,
        deadline: f64,
    ) -> Plan {
        assert_eq!(types.len(), wf.len());
        assert!(deadline > 0.0);
        let mean_exec = mean_execs(wf, types, spec);
        // Latest finish times: backward pass over reverse topo order.
        let order = wf.topo_order();
        let mut lft = vec![deadline; wf.len()];
        for &t in order.iter().rev() {
            for c in wf.children(t) {
                lft[t.index()] = lft[t.index()].min(lft[c.index()] - mean_exec[c.index()]);
            }
        }
        let quantum = spec.billing_quantum;
        let cheapest_fit = |k: &Packing, t: TaskId, ready: f64| {
            let dur = mean_exec[t.index()];
            let latest = lft[t.index()] + 1e-9;
            // Every slot starts the task at `ready` or later, so when even
            // `ready` misses the LFT no slot can meet it.
            if ready + dur > latest {
                return None;
            }
            // Candidate reuse: cheapest additional quanta among same-type
            // slots whose (possibly delayed) finish meets the task's LFT;
            // ties broken by earliest start, then lowest index.
            let mut best: Option<(usize, f64, f64)> = None; // (slot, extra_quanta, start)
            for (at, slot) in k.of_type(types[t.index()]) {
                let start = ready.max(slot.free);
                let end = start + dur;
                // Too late, or unable to beat a best that adds no quanta
                // (no candidate adds fewer) without starting earlier.
                if end > latest || best.is_some_and(|(_, be, bs)| be == 0.0 && start >= bs) {
                    continue;
                }
                // The widened span is `(slot.first, end)`: `start` is at
                // or after the slot's last finish.
                let extra = quanta_charged(end - slot.first, quantum) as f64 - slot.quanta as f64;
                if best.is_none_or(|(_, be, bs)| (extra, start) < (be, bs)) {
                    best = Some((at, extra, start));
                    // Every candidate has `extra >= 0` and `start >= ready`,
                    // and a tie keeps the earlier slot: this one is final.
                    if extra == 0.0 && start == ready {
                        break;
                    }
                }
            }
            // A fresh instance costs quanta(dur); reuse wins on cost, then
            // on start time.
            let fresh_cost = quanta_charged(dur, quantum) as f64;
            best.filter(|&(_, extra, _)| extra <= fresh_cost)
                .map(|(at, _, _)| at)
        };
        pack(wf, &order, types, region, quantum, &mean_exec, cheapest_fit)
    }

    /// The precedence-respecting task sequence that honors the plan's
    /// dispatch ranks: Kahn's algorithm emitting the ready task with the
    /// smallest rank first. The estimator and the execution engine both
    /// process tasks in exactly this order.
    pub fn dispatch_order(&self, wf: &Workflow) -> Vec<TaskId> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        DISPATCH_ORDER_CALLS.with(|c| c.set(c.get() + 1));
        assert_eq!(self.order.len(), wf.len());
        let mut indeg: Vec<usize> = wf.task_ids().map(|t| wf.parents(t).count()).collect();
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = wf
            .task_ids()
            .filter(|t| indeg[t.index()] == 0)
            .map(|t| Reverse((self.order[t.index()], t.0)))
            .collect();
        let mut out = Vec::with_capacity(wf.len());
        while let Some(Reverse((_, raw))) = heap.pop() {
            let t = TaskId(raw);
            out.push(t);
            for c in wf.children(t) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    heap.push(Reverse((self.order[c.index()], c.0)));
                }
            }
        }
        debug_assert_eq!(out.len(), wf.len());
        out
    }
}

/// One open slot's state in [`pack`].
#[derive(Clone, Copy, Default)]
struct SlotState {
    /// The slot's index in the plan.
    id: usize,
    /// When the slot is next free: the finish of its last task.
    free: f64,
    /// Start of the slot's first task, so its busy span is `(first, free)`.
    first: f64,
    /// Billing quanta of that busy span.
    quanta: u64,
}

/// Slots opened so far by [`pack`], their states grouped by type: the
/// slots of type `ty` are `state[base..base + len]` for `(base, len) =
/// groups[ty]`, in the order they were opened. Each type's group has room
/// for one slot per task of that type.
struct Packing {
    slots: Vec<VmSlot>,
    state: Vec<SlotState>,
    groups: Vec<(usize, usize)>,
    /// Slots yielded by [`Packing::of_type`].
    visits: std::cell::Cell<u64>,
}

impl Packing {
    fn new(types: &[InstanceTypeId]) -> Packing {
        let k = types.iter().max().map_or(0, |&t| t + 1);
        let mut groups = vec![(0, 0); k];
        for &t in types {
            groups[t].1 += 1;
        }
        let mut base = 0;
        for g in &mut groups {
            let count = g.1;
            *g = (base, 0);
            base += count;
        }
        Packing {
            slots: Vec::new(),
            state: vec![SlotState::default(); types.len()],
            groups,
            visits: std::cell::Cell::new(0),
        }
    }

    /// The open slots of type `ty` as `(position in state, state)`, in
    /// ascending plan index order, each counted as one visit.
    fn of_type(&self, ty: InstanceTypeId) -> impl Iterator<Item = (usize, &SlotState)> {
        let (base, len) = self.groups[ty];
        self.state[base..base + len]
            .iter()
            .enumerate()
            .map(move |(i, slot)| {
                self.visits.set(self.visits.get() + 1);
                (base + i, slot)
            })
    }

    /// Open a slot of type `ty` whose first task starts at `start`; its
    /// position in `state`.
    fn open(&mut self, ty: InstanceTypeId, region: RegionId, start: f64) -> usize {
        let (base, len) = &mut self.groups[ty];
        let at = *base + *len;
        *len += 1;
        self.state[at] = SlotState {
            id: self.slots.len(),
            free: start,
            first: start,
            quanta: 0,
        };
        self.slots.push(VmSlot { itype: ty, region });
        at
    }
}

thread_local! {
    /// Slots the packers' choosers have examined on the current thread: the
    /// packing walk's work, for the regression test that keeps it small.
    static SLOT_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Slots examined by [`Plan::packed`] and [`Plan::packed_deadline`] on the
/// current thread since it started (test instrumentation).
pub fn slot_visits_on_this_thread() -> u64 {
    SLOT_VISITS.with(|c| c.get())
}

/// The packing walk both packers share: tasks in `order` on mean execution
/// times, each ready when its last parent finishes, placed on the slot
/// `choose(packing, task, ready)` picks (by its position in the packing's
/// state) or, when it picks none, on a fresh slot of the task's type.
/// Dispatch ranks follow `order`.
fn pack(
    wf: &Workflow,
    order: &[TaskId],
    types: &[InstanceTypeId],
    region: RegionId,
    quantum: f64,
    mean_exec: &[f64],
    mut choose: impl FnMut(&Packing, TaskId, f64) -> Option<usize>,
) -> Plan {
    let mut k = Packing::new(types);
    let mut assign = vec![usize::MAX; wf.len()];
    let mut finish = vec![0.0f64; wf.len()];
    let mut ranks = vec![0u32; wf.len()];
    for (rank, &t) in order.iter().enumerate() {
        let ready = wf
            .parents(t)
            .map(|p| finish[p.index()])
            .fold(0.0f64, f64::max);
        let at = choose(&k, t, ready).unwrap_or_else(|| k.open(types[t.index()], region, ready));
        let slot = &mut k.state[at];
        let start = ready.max(slot.free);
        finish[t.index()] = start + mean_exec[t.index()];
        slot.free = finish[t.index()];
        slot.quanta = quanta_charged(slot.free - slot.first, quantum);
        assign[t.index()] = slot.id;
        ranks[t.index()] = rank as u32;
    }
    SLOT_VISITS.with(|c| c.set(c.get() + k.visits.get()));
    Plan {
        slots: k.slots,
        assign,
        order: ranks,
    }
}

/// [`mean_exec_seconds`] of every task on its type in `types`.
fn mean_execs(wf: &Workflow, types: &[InstanceTypeId], spec: &CloudSpec) -> Vec<f64> {
    wf.task_ids()
        .map(|t| mean_exec_seconds(spec, types[t.index()], wf, t))
        .collect()
}

/// Expected execution seconds of a task on a type: deterministic CPU phase
/// plus I/O at the type's mean sequential bandwidth.
pub fn mean_exec_seconds(spec: &CloudSpec, itype: InstanceTypeId, wf: &Workflow, t: TaskId) -> f64 {
    let ty = &spec.types[itype];
    let p = &wf.task(t).profile;
    p.cpu_seconds / ty.ecu + crate::dynamics::phase_seconds_mean(p.io_bytes(), &ty.seq_io())
}

/// Mean-time transfer of `bytes` between two distinct instances, over
/// their `CloudSpec::link_law`: `(seconds, billed_bytes)`, where only
/// cross-region bytes are billed. An edge within one instance moves
/// nothing; callers skip it.
pub fn mean_transfer(spec: &CloudSpec, from: VmSlot, to: VmSlot, bytes: f64) -> (f64, f64) {
    let seconds = crate::dynamics::phase_seconds_mean(bytes, &spec.link_law(from, to));
    let billed = if from.region != to.region { bytes } else { 0.0 };
    (seconds, billed)
}

/// A plan's list schedule: the same walk the execution engine follows.
/// [`mean_schedule`] runs it on mean performance — used by baselines for
/// admission decisions and by Deco's A* scores — and the Monte-Carlo
/// reference on sampled durations; the real (sampled) outcome comes from
/// [`crate::sim::run_plan`].
#[derive(Debug, Clone)]
pub struct MeanSchedule {
    pub makespan: f64,
    pub cost: CostLedger,
    pub finish: Vec<f64>,
    /// Busy span `(first_start, last_finish)` per plan slot, `None` for
    /// slots no task landed on. These are the task groups the fleet tier
    /// consolidates: each occupied slot is one group with a concrete
    /// remaining runtime to match against an instance's remaining paid
    /// quantum.
    pub slot_spans: Vec<Option<(f64, f64)>>,
}

/// Compute the [`MeanSchedule`] of `plan` on `wf`.
pub fn mean_schedule(wf: &Workflow, plan: &Plan, spec: &CloudSpec) -> MeanSchedule {
    plan.validate(wf, spec).expect("invalid plan");
    list_schedule(wf, plan, spec, |t, ty| mean_exec_seconds(spec, ty, wf, t))
}

/// The fixed-plan walk every plan scorer shares: tasks in the plan's
/// dispatch order, each starting once its inputs have arrived (a
/// [`mean_transfer`] per edge between distinct slots) and its slot is free,
/// and running for `dur(task, type)`, which is called once per task in
/// dispatch order. The schedule is billed with `billing::bill`.
pub fn list_schedule(
    wf: &Workflow,
    plan: &Plan,
    spec: &CloudSpec,
    mut dur: impl FnMut(TaskId, InstanceTypeId) -> f64,
) -> MeanSchedule {
    let mut slot_free = vec![0.0f64; plan.slots.len()];
    let mut slot_spans = vec![None; plan.slots.len()];
    let mut finish = vec![0.0f64; wf.len()];
    let mut cross_bytes = 0.0;
    for t in plan.dispatch_order(wf) {
        let my_slot = plan.assign[t.index()];
        let mut ready = 0.0f64;
        for p in wf.parents(t) {
            let p_slot = plan.assign[p.index()];
            let mut at = finish[p.index()];
            if p_slot != my_slot {
                let bytes = wf.edge_bytes(p, t).unwrap_or(0.0);
                let (seconds, billed) =
                    mean_transfer(spec, plan.slots[p_slot], plan.slots[my_slot], bytes);
                at += seconds;
                cross_bytes += billed;
            }
            ready = ready.max(at);
        }
        let start = ready.max(slot_free[my_slot]);
        finish[t.index()] = start + dur(t, plan.slots[my_slot].itype);
        slot_free[my_slot] = finish[t.index()];
        slot_spans[my_slot] = Some(widen_span(slot_spans[my_slot], start, finish[t.index()]));
    }
    MeanSchedule {
        makespan: finish.iter().cloned().fold(0.0f64, f64::max),
        cost: bill(spec, &plan.slots, &slot_spans, cross_bytes),
        finish,
        slot_spans,
    }
}

/// Histogram of a task's execution time on a type, derived from the
/// *metadata store* (not ground truth): CPU phase is a constant shift, the
/// I/O phase maps the calibrated bandwidth histogram through
/// `bytes / bandwidth`. This is the `T_ij(t)` of Equation (2) and the
/// source of the probabilistic IR's `exetime` facts.
pub fn exec_time_hist(
    store: &crate::metadata::MetadataStore,
    itype: InstanceTypeId,
    wf: &Workflow,
    t: TaskId,
) -> Histogram {
    let ty = &store.spec.types[itype];
    let p = &wf.task(t).profile;
    let cpu = p.cpu_seconds / ty.ecu;
    let io_bytes_mb = p.io_bytes() / (1024.0 * 1024.0);
    if io_bytes_mb == 0.0 {
        return Histogram::constant(cpu);
    }
    store
        .hist(itype, crate::metadata::PerfComponent::SeqIo)
        .map(|bw| cpu + io_bytes_mb / bw.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators;

    #[test]
    fn single_type_plan_is_valid() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::montage(1, 0);
        let plan = Plan::single_type(wf.len(), 2, 0);
        plan.validate(&wf, &spec).unwrap();
        for t in wf.task_ids() {
            assert_eq!(plan.task_type(t), 2);
            assert_eq!(plan.task_region(t), 0);
        }
    }

    #[test]
    fn validate_catches_bad_plans() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(3, 1.0, 0);
        let short = Plan::single_type(2, 0, 0);
        assert!(short.validate(&wf, &spec).is_err());
        let bad_type = Plan::single_type(3, 99, 0);
        assert!(bad_type.validate(&wf, &spec).is_err());
        let bad_region = Plan::single_type(3, 0, 9);
        assert!(bad_region.validate(&wf, &spec).is_err());
    }

    #[test]
    fn packing_reuses_slots_along_a_chain() {
        // A pipeline is strictly sequential: one slot should carry it all.
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(6, 10.0, 1 << 20);
        let plan = Plan::packed(&wf, &[1; 6], 0, &spec);
        plan.validate(&wf, &spec).unwrap();
        assert_eq!(plan.slots.len(), 1, "a chain packs onto one instance");
    }

    #[test]
    fn packing_gives_parallel_tasks_their_own_slots() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::fork_join(8, 100.0, (1 << 20) as f64);
        let plan = Plan::packed(&wf, &vec![0; wf.len()], 0, &spec);
        // 8 parallel workers cannot share while respecting readiness.
        assert!(plan.slots.len() >= 8, "got {} slots", plan.slots.len());
    }

    #[test]
    fn packing_separates_types() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(4, 10.0, 1 << 20);
        let plan = Plan::packed(&wf, &[0, 1, 0, 1], 0, &spec);
        // Types alternate, so slots of both types exist.
        let types: std::collections::HashSet<_> = plan.slots.iter().map(|s| s.itype).collect();
        assert_eq!(types.len(), 2);
    }

    #[test]
    fn mean_schedule_times_and_bills_transfers_by_the_link_rule() {
        use deco_prob::dist::Dist;
        // A two-task chain whose edge carries B bytes.
        const B: u64 = 256 << 20;
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(2, 10.0, B);
        let (a, b) = (TaskId(0), TaskId(1));
        let slot = |itype, region| VmSlot { itype, region };
        // (transfer seconds on the edge, transfer bill) of one placement.
        let edge = |slots: Vec<VmSlot>, assign: Vec<usize>| {
            let plan = Plan {
                slots,
                assign,
                order: vec![0, 1],
            };
            let s = mean_schedule(&wf, &plan, &spec);
            let exec_b = mean_exec_seconds(&spec, plan.task_type(b), &wf, b);
            (
                s.finish[b.index()] - exec_b - s.finish[a.index()],
                s.cost.transfer,
            )
        };
        let mb = B as f64 / (1024.0 * 1024.0);
        // One slot: nothing moves.
        let (secs, bill) = edge(vec![slot(1, 0)], vec![0, 0]);
        assert!(secs.abs() < 1e-9, "same-slot transfer {secs}");
        assert_eq!(bill, 0.0);
        // m1.medium -> m1.large in one region: the slower party's law, free.
        let (secs, bill) = edge(vec![slot(1, 0), slot(2, 0)], vec![0, 1]);
        let want = mb / spec.types[1].net().mean();
        assert!((secs - want).abs() < 1e-9, "{secs} vs {want}");
        assert_eq!(bill, 0.0);
        // Across regions: the inter-region law, and the bytes are billed.
        let (secs, bill) = edge(vec![slot(1, 0), slot(1, 1)], vec![0, 1]);
        let want = mb / spec.cross_region_net().mean();
        assert!((secs - want).abs() < 1e-9, "{secs} vs {want}");
        let want = B as f64 / (1024.0 * 1024.0 * 1024.0) * spec.inter_region_price_per_gb;
        assert!((bill - want).abs() < 1e-12, "{bill} vs {want}");
    }

    #[test]
    fn mean_exec_decreases_with_bigger_type() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::montage(1, 0);
        let t = wf.task_ids().next().unwrap();
        let small = mean_exec_seconds(&spec, 0, &wf, t);
        let xlarge = mean_exec_seconds(&spec, 3, &wf, t);
        assert!(xlarge < small);
    }

    #[test]
    fn exec_time_hist_tracks_mean_exec() {
        let spec = CloudSpec::amazon_ec2();
        let store = crate::metadata::MetadataStore::from_ground_truth(spec.clone(), 40);
        let wf = generators::montage(1, 0);
        let t = wf.task_ids().next().unwrap();
        let h = exec_time_hist(&store, 1, &wf, t);
        let m = mean_exec_seconds(&spec, 1, &wf, t);
        // Jensen gap on 1/bw is small at these variances.
        assert!(
            (h.mean() - m).abs() / m < 0.05,
            "hist mean {} vs analytic {}",
            h.mean(),
            m
        );
    }

    #[test]
    fn exec_time_hist_pure_cpu_is_constant() {
        let spec = CloudSpec::amazon_ec2();
        let store = crate::metadata::MetadataStore::from_ground_truth(spec, 40);
        let mut wf = Workflow::new("cpu-only");
        let t = wf.add_task("a", "x", deco_workflow::TaskProfile::new(40.0, 0.0, 0.0));
        let h = exec_time_hist(&store, 1, &wf, t);
        assert!(h.variance() < 1e-12);
        assert!((h.mean() - 20.0).abs() < 1e-6, "40 ECU-s on a 2-ECU type");
    }
}

#[cfg(test)]
mod deadline_packing_tests {
    use super::*;
    use deco_workflow::generators;

    fn spec() -> CloudSpec {
        CloudSpec::amazon_ec2()
    }

    #[test]
    fn loose_deadline_collapses_onto_few_instances() {
        // A wide fork-join with a huge deadline: tasks should queue on a
        // handful of instances (Merge) instead of opening one each.
        let spec = spec();
        let wf = generators::fork_join(8, 600.0, 0.0);
        let tight = Plan::packed_deadline(&wf, &vec![0; wf.len()], 0, &spec, 1900.0);
        let loose = Plan::packed_deadline(&wf, &vec![0; wf.len()], 0, &spec, 1e9);
        assert!(
            loose.slots.len() < tight.slots.len(),
            "loose {} slots vs tight {}",
            loose.slots.len(),
            tight.slots.len()
        );
        assert_eq!(loose.slots.len(), 1, "everything fits one instance");
        // And the loose plan is strictly cheaper in instance-hours.
        let lc = mean_schedule(&wf, &loose, &spec).cost.total();
        let tc = mean_schedule(&wf, &tight, &spec).cost.total();
        assert!(lc < tc, "loose {lc} vs tight {tc}");
    }

    #[test]
    fn packed_deadline_meets_the_deadline_when_achievable() {
        let spec = spec();
        let wf = generators::fork_join(6, 600.0, 0.0);
        // 3 levels x 600 s = 1800 s minimum; give 2200 s.
        let plan = Plan::packed_deadline(&wf, &vec![0; wf.len()], 0, &spec, 2200.0);
        let sched = mean_schedule(&wf, &plan, &spec);
        assert!(
            sched.makespan <= 2200.0 + 1e-6,
            "makespan {} exceeds the packing deadline",
            sched.makespan
        );
    }

    #[test]
    fn impossible_deadline_still_produces_a_maximally_parallel_plan() {
        let spec = spec();
        let wf = generators::fork_join(4, 600.0, 0.0);
        let plan = Plan::packed_deadline(&wf, &vec![0; wf.len()], 0, &spec, 1.0);
        plan.validate(&wf, &spec).unwrap();
        // Parallel workers each get their own instance (no merging helps).
        assert!(plan.slots.len() >= 4);
    }

    #[test]
    fn dispatch_order_is_a_topological_order() {
        let spec = spec();
        let wf = generators::montage(1, 3);
        let plan = Plan::packed_deadline(&wf, &vec![1; wf.len()], 0, &spec, 1e9);
        let order = plan.dispatch_order(&wf);
        assert_eq!(order.len(), wf.len());
        let pos: std::collections::HashMap<TaskId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for e in wf.edges() {
            assert!(pos[&e.from] < pos[&e.to], "{} before {}", e.from, e.to);
        }
    }

    #[test]
    fn dispatch_order_honors_ranks_within_readiness() {
        // Two independent tasks on one slot: the lower rank runs first even
        // if it has a higher task id.
        let mut wf = Workflow::new("pair");
        let a = wf.add_task("a", "x", deco_workflow::TaskProfile::new(10.0, 0.0, 0.0));
        let b = wf.add_task("b", "x", deco_workflow::TaskProfile::new(10.0, 0.0, 0.0));
        let plan = Plan {
            slots: vec![VmSlot {
                itype: 0,
                region: 0,
            }],
            assign: vec![0, 0],
            order: vec![5, 2], // b first
        };
        let order = plan.dispatch_order(&wf);
        assert_eq!(order, vec![b, a]);
    }

    #[test]
    fn mean_schedule_follows_plan_order() {
        // With b ranked first on the shared slot, a finishes second.
        let spec = spec();
        let mut wf = Workflow::new("pair");
        let a = wf.add_task("a", "x", deco_workflow::TaskProfile::new(100.0, 0.0, 0.0));
        let b = wf.add_task("b", "x", deco_workflow::TaskProfile::new(100.0, 0.0, 0.0));
        let plan = Plan {
            slots: vec![VmSlot {
                itype: 0,
                region: 0,
            }],
            assign: vec![0, 0],
            order: vec![5, 2],
        };
        let sched = mean_schedule(&wf, &plan, &spec);
        assert!(sched.finish[b.index()] < sched.finish[a.index()]);
        assert!((sched.finish[a.index()] - 200.0).abs() < 1e-9);
    }
}
