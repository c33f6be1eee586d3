//! The workflow execution engine.
//!
//! Runs one workflow under a [`Plan`] against the dynamic cloud: tasks wait
//! for their parents' data (network transfer when the parent ran on a
//! different instance, inter-region transfer with networking cost when it
//! ran in a different region), execute their CPU phase deterministically
//! and their I/O phase against per-second bandwidth draws, and occupy their
//! instance exclusively while running. Billing follows the per-started-hour
//! model.
//!
//! The engine is *resumable*: `run_until` advances the dispatch clock only
//! to a given simulated time, after which unstarted tasks may be reassigned
//! (the follow-the-cost runtime re-optimization loop) before resuming.
//!
//! Failures are executed from a pre-generated [`DisruptionSchedule`] (see
//! [`crate::outage`]): instances boot late or never, and a revocation kills
//! whatever task is running at the crash instant. The fault-free schedule
//! is the default and is an exact no-op — same RNG stream, same arithmetic,
//! bit-identical results (pinned by a proptest in the workspace test
//! suite).

use crate::billing::{bill, widen_span, CostLedger};
use crate::dynamics;
use crate::instance::CloudSpec;
use crate::outage::{DisruptionSchedule, SlotFate};
use crate::plan::{Plan, VmSlot};
use crate::region::RegionId;
use deco_prob::DecoRng;
use deco_workflow::{TaskId, Workflow};
use std::collections::BTreeMap;

/// One dispatch of one task onto one instance — the event trace consumed
/// by ledger audits and by the recovery driver's reporting. Recorded in
/// dispatch order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskAttempt {
    pub task: TaskId,
    /// Plan slot (concrete instance) the attempt ran on.
    pub slot: usize,
    /// Attempt start time, seconds.
    pub start: f64,
    /// Completion time, or the crash instant for a killed attempt.
    pub end: f64,
    /// False when the instance was revoked mid-execution.
    pub completed: bool,
}

/// Outcome of a (completed) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completion time of the last task, seconds.
    pub makespan: f64,
    /// Instance-hour and transfer costs.
    pub cost: CostLedger,
    /// Per-task finish times.
    pub finish: Vec<f64>,
    /// Per-task measured execution durations (excluding waiting), the
    /// signal the follow-the-cost Heuristic monitors.
    pub durations: Vec<f64>,
    /// Every dispatch, including attempts killed by revocation.
    pub attempts: Vec<TaskAttempt>,
    /// Number of tasks that completed. Equals `finish.len()` except for
    /// lossy runs collected via [`Simulation::finish_lossy`].
    pub completed: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// Not yet dispatched.
    Pending,
    /// Dispatched; will complete at `finish`.
    Started { start: f64, finish: f64 },
    /// Dispatched but killed at `at` by instance revocation; eligible for
    /// re-dispatch via [`Simulation::reassign_group_after`].
    Failed { at: f64 },
}

/// A resumable execution of one workflow under one plan.
pub struct Simulation<'a> {
    spec: &'a CloudSpec,
    wf: &'a Workflow,
    plan: Plan,
    rng: DecoRng,
    state: Vec<TaskState>,
    /// Time each slot becomes free (monotone per slot).
    slot_free: Vec<f64>,
    /// Busy span per slot: (first start, last finish).
    slot_span: Vec<Option<(f64, f64)>>,
    /// Cross-region bytes moved (for the networking bill).
    cross_bytes: f64,
    /// Plan-honoring dispatch sequence (precedence-respecting, ordered by
    /// the plan's ranks).
    dispatch: Vec<TaskId>,
    /// Memoized `(input_ready_time, cross_region_bytes)` per task:
    /// transfers are sampled exactly once no matter how many dispatch
    /// scans look at the task, and the cross-region bytes are billed only
    /// when the task actually dispatches. Invalidated on reassignment.
    iready: Vec<Option<(f64, f64)>>,
    /// Dispatch horizon reached so far.
    clock: f64,
    started: usize,
    /// Pre-generated failure timeline (empty = fault-free).
    faults: DisruptionSchedule,
    /// Event trace: every dispatch, in dispatch order.
    attempts: Vec<TaskAttempt>,
}

impl<'a> Simulation<'a> {
    pub fn new(spec: &'a CloudSpec, wf: &'a Workflow, plan: Plan, rng: DecoRng) -> Self {
        Self::with_disruptions(spec, wf, plan, rng, DisruptionSchedule::empty())
    }

    /// Like [`Simulation::new`], but executes the given failure timeline.
    pub fn with_disruptions(
        spec: &'a CloudSpec,
        wf: &'a Workflow,
        plan: Plan,
        rng: DecoRng,
        faults: DisruptionSchedule,
    ) -> Self {
        plan.validate(wf, spec).expect("invalid plan");
        let n_slots = plan.slots.len();
        let dispatch = plan.dispatch_order(wf);
        Simulation {
            spec,
            wf,
            plan,
            rng,
            state: vec![TaskState::Pending; wf.len()],
            slot_free: vec![0.0; n_slots],
            slot_span: vec![None; n_slots],
            cross_bytes: 0.0,
            dispatch,
            iready: vec![None; wf.len()],
            clock: 0.0,
            started: 0,
            faults,
            attempts: Vec::new(),
        }
    }

    /// The plan currently in force.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Current dispatch horizon.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Whether a task is running or done (it can no longer be reassigned).
    /// A task killed by revocation is *not* started: it may be re-dispatched.
    pub fn is_started(&self, t: TaskId) -> bool {
        matches!(self.state[t.index()], TaskState::Started { .. })
    }

    /// Whether a task's most recent attempt was killed by revocation.
    pub fn is_failed(&self, t: TaskId) -> bool {
        matches!(self.state[t.index()], TaskState::Failed { .. })
    }

    /// Realized execution duration of a dispatched task (the monitored
    /// signal of the follow-the-cost Heuristic); `None` while pending.
    pub fn duration_of(&self, t: TaskId) -> Option<f64> {
        match self.state[t.index()] {
            TaskState::Started { start, finish } => Some(finish - start),
            TaskState::Pending | TaskState::Failed { .. } => None,
        }
    }

    /// Whether every task has been dispatched (O(1): the dispatch counter
    /// against the workflow size). The recovery driver's quiescent fast
    /// path terminates on this instead of scanning task states.
    pub fn all_started(&self) -> bool {
        self.started == self.wf.len()
    }

    /// Tasks not yet dispatched — or killed and awaiting re-dispatch (the
    /// `Unfinished` set of Equation (7)).
    pub fn pending_tasks(&self) -> Vec<TaskId> {
        self.wf
            .task_ids()
            .filter(|&t| !self.is_started(t))
            .collect()
    }

    /// Whether a slot can never run another task: it was revoked (idle or
    /// after killing a task), or it never boots at all.
    pub fn slot_lost(&self, slot: usize) -> bool {
        let fate = self.faults.fate(slot);
        self.slot_free[slot] == f64::INFINITY
            || fate.boot_delay == f64::INFINITY
            || fate.crash_at <= self.clock
    }

    /// Tasks that cannot make progress without intervention: killed tasks,
    /// plus pending tasks assigned to a lost slot. The recovery driver
    /// moves these onto replacement instances.
    pub fn unrunnable_tasks(&self) -> Vec<TaskId> {
        self.wf
            .task_ids()
            .filter(|&t| match self.state[t.index()] {
                TaskState::Failed { .. } => true,
                TaskState::Pending => self.slot_lost(self.plan.assign[t.index()]),
                TaskState::Started { .. } => false,
            })
            .collect()
    }

    /// The fate currently recorded for a slot.
    pub fn slot_fate(&self, slot: usize) -> SlotFate {
        self.faults.fate(slot)
    }

    /// Install a fate for a slot — used by the fault injector when the
    /// recovery driver provisions a replacement instance mid-run (the
    /// replacement draws its own fate).
    pub fn set_slot_fate(&mut self, slot: usize, fate: SlotFate) {
        self.faults.set_fate(slot, fate);
    }

    /// The dispatch trace so far (every attempt, including killed ones).
    pub fn attempts(&self) -> &[TaskAttempt] {
        &self.attempts
    }

    /// Reassign an unstarted task to a fresh instance. Used by runtime
    /// re-optimization; panics if the task has already been dispatched.
    pub fn reassign(&mut self, t: TaskId, slot: VmSlot) {
        self.reassign_group(std::slice::from_ref(&t), slot);
    }

    /// Reassign a group of unstarted tasks onto **one** fresh instance —
    /// migration preserves consolidation (the Merge/Co-Scheduling
    /// operations) rather than paying a partial instance-hour per task.
    pub fn reassign_group(&mut self, tasks: &[TaskId], slot: VmSlot) {
        if tasks.is_empty() {
            return;
        }
        self.reassign_group_after(tasks, slot, 0.0);
    }

    /// Like [`Simulation::reassign_group`], but the fresh instance only
    /// becomes available at `not_before` — the recovery driver's retry
    /// backoff. Killed tasks in the group return to `Pending` and will be
    /// re-dispatched on the new instance. Returns the new slot's index so
    /// the caller can install a [`SlotFate`] for the replacement.
    pub fn reassign_group_after(
        &mut self,
        tasks: &[TaskId],
        slot: VmSlot,
        not_before: f64,
    ) -> usize {
        assert!(!tasks.is_empty(), "cannot migrate an empty group");
        assert!(not_before >= 0.0);
        for &t in tasks {
            assert!(
                !self.is_started(t),
                "cannot migrate {t}: it already started"
            );
        }
        let idx = self.plan.slots.len();
        self.plan.slots.push(slot);
        self.slot_free.push(not_before);
        self.slot_span.push(None);
        for &t in tasks {
            self.plan.assign[t.index()] = idx;
            if let TaskState::Failed { .. } = self.state[t.index()] {
                self.state[t.index()] = TaskState::Pending;
            }
        }
        // Placement changed: every pending task's transfer picture may have
        // changed (its own slot, or a parent's). Drop all pending caches —
        // nothing has been billed for them yet.
        for (cache, state) in self.iready.iter_mut().zip(&self.state) {
            if !matches!(state, TaskState::Started { .. }) {
                *cache = None;
            }
        }
        idx
    }

    /// Move unstarted `tasks` to `region` — the follow-the-cost policies'
    /// migration step. Tasks that share an instance move together onto
    /// one fresh instance of its type, so consolidation survives the move.
    pub fn migrate(&mut self, tasks: &[TaskId], region: RegionId) {
        let mut by_slot: BTreeMap<usize, Vec<TaskId>> = BTreeMap::new();
        for &t in tasks {
            by_slot
                .entry(self.plan.assign[t.index()])
                .or_default()
                .push(t);
        }
        for (slot, group) in by_slot {
            let itype = self.plan.slots[slot].itype;
            self.reassign_group(&group, VmSlot { itype, region });
        }
    }

    /// When every parent's output has arrived at `t`'s instance. `None`
    /// while some parent is still pending. Memoized: each transfer is
    /// sampled and billed exactly once.
    fn input_ready(&mut self, t: TaskId) -> Option<f64> {
        if let Some((cached, _)) = self.iready[t.index()] {
            return Some(cached);
        }
        let my_slot = self.plan.assign[t.index()];
        let mut ready = 0.0f64;
        let mut cross_bytes = 0.0f64;
        let wf = self.wf;
        for p in wf.parents(t) {
            let pf = match self.state[p.index()] {
                TaskState::Started { finish, .. } => finish,
                TaskState::Pending | TaskState::Failed { .. } => return None,
            };
            let p_slot = self.plan.assign[p.index()];
            let mut at = pf;
            if p_slot != my_slot {
                let bytes = wf.edge_bytes(p, t).unwrap_or(0.0);
                let (from, to) = (self.plan.slots[p_slot], self.plan.slots[my_slot]);
                if from.region != to.region {
                    // A cross-region transfer that would begin inside a
                    // partition window waits for the link to return
                    // (identity when no partitions are scheduled).
                    at = self.faults.partition_release(at);
                    cross_bytes += bytes;
                }
                at += dynamics::transfer_seconds(self.spec, from, to, bytes, &mut self.rng);
            }
            ready = ready.max(at);
        }
        self.iready[t.index()] = Some((ready, cross_bytes));
        Some(ready)
    }

    /// Dispatch tasks whose start time falls strictly before `horizon`.
    ///
    /// Tasks are taken in the plan's dispatch order, and a slot's queue is
    /// never reordered: when a task cannot be dispatched yet (parents
    /// pending, or its start falls beyond the horizon), its instance is
    /// blocked for the rest of the pass so later-ranked slot-mates cannot
    /// jump ahead of it. This matches the planner's evaluation of the plan
    /// exactly; dispatching fixes the task's start and finish, so the pass
    /// loop is an exact discrete-event execution of the plan.
    pub fn run_until(&mut self, horizon: f64) -> usize {
        let mut dispatched = 0;
        loop {
            let mut any = false;
            let mut blocked = vec![false; self.plan.slots.len()];
            let order = std::mem::take(&mut self.dispatch);
            for &t in &order {
                if self.is_started(t) {
                    continue;
                }
                let slot = self.plan.assign[t.index()];
                if blocked[slot] {
                    continue;
                }
                let Some(ir) = self.input_ready(t) else {
                    blocked[slot] = true;
                    continue;
                };
                let fate = self.faults.fate(slot);
                // Boot stragglers delay the first start; `.max(0.0)` is a
                // bitwise no-op for the healthy fate since starts are
                // non-negative.
                let start = ir.max(self.slot_free[slot]).max(fate.boot_delay);
                if start >= horizon {
                    blocked[slot] = true;
                    continue;
                }
                if start >= fate.crash_at {
                    // The instance is revoked before this task could start:
                    // it stays pending (orphaned) until the recovery driver
                    // moves it. `crash_at` is `INFINITY` when healthy, so
                    // this never fires fault-free.
                    blocked[slot] = true;
                    continue;
                }
                let vt = self.plan.slots[slot].itype;
                // Bill the task's inbound cross-region transfer now that it
                // is definitely dispatching under this placement.
                self.cross_bytes += self.iready[t.index()].map_or(0.0, |(_, b)| b);
                let prof = &self.wf.task(t).profile;
                let dur = dynamics::task_seconds(
                    self.spec,
                    vt,
                    prof.cpu_seconds,
                    prof.io_bytes(),
                    &mut self.rng,
                );
                let finish = start + dur;
                if finish > fate.crash_at {
                    // Revoked mid-execution: the attempt ran from `start`
                    // to the crash instant and is lost; the instance is
                    // gone (billed up to the crash), and the task awaits
                    // re-dispatch elsewhere.
                    self.state[t.index()] = TaskState::Failed { at: fate.crash_at };
                    self.slot_free[slot] = f64::INFINITY;
                    self.slot_span[slot] =
                        Some(widen_span(self.slot_span[slot], start, fate.crash_at));
                    self.attempts.push(TaskAttempt {
                        task: t,
                        slot,
                        start,
                        end: fate.crash_at,
                        completed: false,
                    });
                    blocked[slot] = true;
                    any = true;
                    continue;
                }
                self.state[t.index()] = TaskState::Started { start, finish };
                self.slot_free[slot] = finish;
                self.slot_span[slot] = Some(widen_span(self.slot_span[slot], start, finish));
                self.attempts.push(TaskAttempt {
                    task: t,
                    slot,
                    start,
                    end: finish,
                    completed: true,
                });
                self.started += 1;
                dispatched += 1;
                any = true;
            }
            self.dispatch = order;
            if !any {
                break;
            }
        }
        self.clock = horizon;
        dispatched
    }

    /// Run to completion and report. Panics unless every task completed —
    /// use [`Simulation::finish_lossy`] for runs that may strand tasks on
    /// lost instances.
    pub fn finish(mut self) -> RunResult {
        self.run_until(f64::INFINITY);
        assert_eq!(
            self.started,
            self.wf.len(),
            "all tasks must have been dispatched"
        );
        self.collect().1
    }

    /// Run as far as possible and report whatever completed. Tasks
    /// stranded by instance loss keep `finish`/`durations` of `0.0`; the
    /// gap shows up as `completed < finish.len()`. Billing covers every
    /// instance that ran anything, including crashed ones (charged up to
    /// the crash instant).
    pub fn finish_lossy(mut self) -> RunResult {
        self.run_until(f64::INFINITY);
        self.collect().1
    }

    /// Like [`Simulation::finish_lossy`], also handing back the final plan
    /// (with every replacement slot) without cloning it — the recovery
    /// driver reports both.
    pub fn finish_lossy_parts(mut self) -> (Plan, RunResult) {
        self.run_until(f64::INFINITY);
        self.collect()
    }

    fn collect(self) -> (Plan, RunResult) {
        let mut finish = vec![0.0; self.wf.len()];
        let mut durations = vec![0.0; self.wf.len()];
        let mut makespan = 0.0f64;
        for t in self.wf.task_ids() {
            if let TaskState::Started { start, finish: f } = self.state[t.index()] {
                finish[t.index()] = f;
                durations[t.index()] = f - start;
                makespan = makespan.max(f);
            }
        }
        let cost = bill(
            self.spec,
            &self.plan.slots,
            &self.slot_span,
            self.cross_bytes,
        );
        let result = RunResult {
            makespan,
            cost,
            finish,
            durations,
            attempts: self.attempts,
            completed: self.started,
        };
        (self.plan, result)
    }
}

/// A runtime re-optimization policy: consulted at every decision epoch and
/// allowed to reassign any not-yet-dispatched task (the follow-the-cost
/// problem's migration decisions, Section 3.3).
pub trait RuntimePolicy {
    /// Observe the simulation at its current horizon and migrate pending
    /// tasks by calling [`Simulation::reassign`].
    fn replan(&mut self, sim: &mut Simulation<'_>, wf: &Workflow);
}

/// Execute `wf` under `plan`, consulting `policy` every `epoch_seconds` of
/// simulated time until every task has been dispatched.
pub fn run_with_policy(
    spec: &CloudSpec,
    wf: &Workflow,
    plan: &Plan,
    policy: &mut dyn RuntimePolicy,
    epoch_seconds: f64,
    seed: u64,
) -> RunResult {
    assert!(epoch_seconds > 0.0);
    let rng = deco_prob::rng::seeded(seed);
    let mut sim = Simulation::new(spec, wf, plan.clone(), rng);
    let mut horizon = epoch_seconds;
    while !sim.pending_tasks().is_empty() {
        sim.run_until(horizon);
        if sim.pending_tasks().is_empty() {
            break;
        }
        policy.replan(&mut sim, wf);
        horizon += epoch_seconds;
    }
    sim.finish()
}

/// One-shot convenience: run `wf` under `plan` with a seeded RNG.
pub fn run_plan(spec: &CloudSpec, wf: &Workflow, plan: &Plan, seed: u64) -> RunResult {
    let rng = deco_prob::rng::seeded(seed);
    Simulation::new(spec, wf, plan.clone(), rng).finish()
}

/// Run `samples` independent executions and collect makespans and costs —
/// the "run the compared algorithms 100 times" protocol of Section 6.1.
pub fn run_plan_many(
    spec: &CloudSpec,
    wf: &Workflow,
    plan: &Plan,
    samples: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let mut makespans = Vec::with_capacity(samples);
    let mut costs = Vec::with_capacity(samples);
    for i in 0..samples {
        let r = run_plan(spec, wf, plan, deco_prob::rng::splitmix64(seed ^ i as u64));
        makespans.push(r.makespan);
        costs.push(r.cost.total());
    }
    (makespans, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::VmSlot;
    use deco_prob::rng::seeded;
    use deco_workflow::generators;

    fn spec() -> CloudSpec {
        CloudSpec::amazon_ec2()
    }

    #[test]
    fn pipeline_executes_sequentially() {
        let spec = spec();
        let wf = generators::pipeline(4, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 4], 0, &spec);
        let r = run_plan(&spec, &wf, &plan, 1);
        // Pure CPU on ECU-1: each task exactly 10 s, chained: 40 s.
        assert!((r.makespan - 40.0).abs() < 1e-6, "makespan {}", r.makespan);
        // One instance, 40 s busy -> one instance-hour of m1.small.
        assert!((r.cost.total() - 0.044).abs() < 1e-9);
    }

    #[test]
    fn fork_join_runs_in_parallel() {
        let spec = spec();
        let wf = generators::fork_join(4, 100.0, 0.0);
        let plan = Plan::packed(&wf, &vec![0; wf.len()], 0, &spec);
        let r = run_plan(&spec, &wf, &plan, 2);
        // src 100 + worker 100 + sink 100 = 300, not 100*6.
        assert!((r.makespan - 300.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn same_slot_serializes() {
        let spec = spec();
        let wf = generators::fork_join(4, 100.0, 0.0);
        // Everything on a single slot.
        let plan = Plan {
            slots: vec![VmSlot {
                itype: 0,
                region: 0,
            }],
            assign: vec![0; wf.len()],
            order: (0..wf.len() as u32).collect(),
        };
        let r = run_plan(&spec, &wf, &plan, 3);
        assert!((r.makespan - 600.0).abs() < 1e-6, "6 tasks serialized");
    }

    #[test]
    fn bigger_instances_are_faster_but_pricier() {
        let spec = spec();
        let wf = generators::montage(1, 5);
        let small = run_plan(
            &spec,
            &wf,
            &Plan::packed(&wf, &vec![0; wf.len()], 0, &spec),
            4,
        );
        let xlarge = run_plan(
            &spec,
            &wf,
            &Plan::packed(&wf, &vec![3; wf.len()], 0, &spec),
            4,
        );
        assert!(xlarge.makespan < small.makespan);
        assert!(xlarge.cost.total() > small.cost.total());
    }

    #[test]
    fn makespan_varies_across_runs_under_dynamics() {
        // Figure 2: execution time varies run to run.
        let spec = spec();
        let wf = generators::montage(1, 6);
        let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);
        let (makespans, _) = run_plan_many(&spec, &wf, &plan, 20, 7);
        let min = makespans.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = makespans.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "dynamics must induce variance");
    }

    #[test]
    fn cross_region_parent_incurs_transfer_cost() {
        let spec = spec();
        let wf = generators::pipeline(2, 1.0, 512 * 1024 * 1024); // 512 MB stage
        let plan = Plan {
            slots: vec![
                VmSlot {
                    itype: 0,
                    region: 0,
                },
                VmSlot {
                    itype: 0,
                    region: 1,
                },
            ],
            assign: vec![0, 1],
            order: vec![0, 1],
        };
        let r = run_plan(&spec, &wf, &plan, 8);
        assert!(r.cost.transfer > 0.0, "cross-region edge must be billed");
        // Same-region version pays no transfer.
        let local = Plan {
            slots: vec![
                VmSlot {
                    itype: 0,
                    region: 0,
                },
                VmSlot {
                    itype: 0,
                    region: 0,
                },
            ],
            assign: vec![0, 1],
            order: vec![0, 1],
        };
        let r2 = run_plan(&spec, &wf, &local, 8);
        assert_eq!(r2.cost.transfer, 0.0);
        assert!(r.makespan > r2.makespan, "cross-region transfer is slower");
    }

    #[test]
    fn run_until_dispatches_incrementally() {
        let spec = spec();
        let wf = generators::pipeline(3, 100.0, 0);
        let plan = Plan::packed(&wf, &[0; 3], 0, &spec);
        let mut sim = Simulation::new(&spec, &wf, plan, seeded(9));
        // Horizon 150 s: tasks starting at 0 and 100 dispatch; 200 does not.
        let n = sim.run_until(150.0);
        assert_eq!(n, 2);
        assert_eq!(sim.pending_tasks().len(), 1);
        let r = sim.finish();
        assert!((r.makespan - 300.0).abs() < 1e-6);
    }

    #[test]
    fn reassign_moves_pending_task_to_new_region() {
        let spec = spec();
        let wf = generators::pipeline(2, 50.0, 1024);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let mut sim = Simulation::new(&spec, &wf, plan, seeded(10));
        sim.run_until(10.0); // first task dispatched
        let pending = sim.pending_tasks();
        assert_eq!(pending.len(), 1);
        sim.reassign(
            pending[0],
            VmSlot {
                itype: 1,
                region: 1,
            },
        );
        let r = sim.finish();
        assert!(
            r.cost.transfer > 0.0,
            "migrated task pulls data cross-region"
        );
    }

    #[test]
    #[should_panic]
    fn reassigning_started_task_panics() {
        let spec = spec();
        let wf = generators::pipeline(2, 50.0, 1024);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let mut sim = Simulation::new(&spec, &wf, plan, seeded(11));
        sim.run_until(10.0);
        sim.reassign(
            deco_workflow::TaskId(0),
            VmSlot {
                itype: 1,
                region: 1,
            },
        );
    }

    #[test]
    fn durations_exclude_wait_time() {
        let spec = spec();
        let wf = generators::pipeline(2, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let r = run_plan(&spec, &wf, &plan, 12);
        assert!((r.durations[0] - 10.0).abs() < 1e-6);
        assert!((r.durations[1] - 10.0).abs() < 1e-6);
        assert!((r.finish[1] - 20.0).abs() < 1e-6);
    }

    // ---- failure mechanics -------------------------------------------

    use crate::outage::{DisruptionSchedule, SlotFate};

    fn one_slot_fate(fate: SlotFate) -> DisruptionSchedule {
        let mut d = DisruptionSchedule::empty();
        d.set_fate(0, fate);
        d
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_plain_run() {
        let spec = spec();
        let wf = generators::montage(1, 21);
        let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);
        let a = run_plan(&spec, &wf, &plan, 33);
        let b = Simulation::with_disruptions(
            &spec,
            &wf,
            plan.clone(),
            seeded(33),
            DisruptionSchedule::empty(),
        )
        .finish();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.cost.compute.to_bits(), b.cost.compute.to_bits());
        assert_eq!(a.cost.transfer.to_bits(), b.cost.transfer.to_bits());
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.durations, b.durations);
    }

    #[test]
    fn crash_kills_running_task_and_bills_up_to_crash() {
        let spec = spec();
        let wf = generators::pipeline(2, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let sched = one_slot_fate(SlotFate {
            boot_delay: 0.0,
            crash_at: 15.0,
        });
        let sim = Simulation::with_disruptions(&spec, &wf, plan, seeded(13), sched);
        let r = sim.finish_lossy();
        // Task 0 completes (0..10); task 1 starts at 10 and is killed at 15.
        assert_eq!(r.completed, 1);
        assert_eq!(r.attempts.len(), 2);
        assert!(r.attempts[0].completed);
        assert!(!r.attempts[1].completed);
        assert!((r.attempts[1].end - 15.0).abs() < 1e-9);
        // Billed for the busy span 0..15 — one partial hour of m1.small.
        assert!((r.cost.total() - 0.044).abs() < 1e-9);
    }

    #[test]
    fn unbootable_instance_bills_nothing() {
        let spec = spec();
        let wf = generators::pipeline(2, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let sched = one_slot_fate(SlotFate {
            boot_delay: f64::INFINITY,
            crash_at: f64::INFINITY,
        });
        let mut sim = Simulation::with_disruptions(&spec, &wf, plan, seeded(14), sched);
        sim.run_until(f64::INFINITY);
        assert_eq!(sim.unrunnable_tasks().len(), 2, "both tasks stranded");
        let r = sim.finish_lossy();
        assert_eq!(r.completed, 0);
        assert_eq!(r.cost.total(), 0.0, "an instance that never ran is free");
    }

    #[test]
    fn crash_before_first_dispatch_bills_nothing() {
        let spec = spec();
        let wf = generators::pipeline(1, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 1], 0, &spec);
        let sched = one_slot_fate(SlotFate {
            boot_delay: 0.0,
            crash_at: 0.0,
        });
        let r = Simulation::with_disruptions(&spec, &wf, plan, seeded(15), sched).finish_lossy();
        assert_eq!(r.completed, 0);
        assert!(r.attempts.is_empty(), "task never started");
        assert_eq!(r.cost.total(), 0.0);
    }

    #[test]
    fn boot_straggler_delays_the_first_start() {
        let spec = spec();
        let wf = generators::pipeline(2, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let sched = one_slot_fate(SlotFate {
            boot_delay: 100.0,
            crash_at: f64::INFINITY,
        });
        let r = Simulation::with_disruptions(&spec, &wf, plan, seeded(16), sched).finish();
        assert!((r.makespan - 120.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn killed_task_recovers_on_replacement_instance() {
        let spec = spec();
        let wf = generators::pipeline(2, 10.0, 0);
        let plan = Plan::packed(&wf, &[0; 2], 0, &spec);
        let sched = one_slot_fate(SlotFate {
            boot_delay: 0.0,
            crash_at: 15.0,
        });
        let mut sim = Simulation::with_disruptions(&spec, &wf, plan, seeded(17), sched);
        sim.run_until(f64::INFINITY);
        let lost = sim.unrunnable_tasks();
        assert_eq!(lost.len(), 1);
        assert!(sim.is_failed(lost[0]));
        assert!(sim.slot_lost(0));
        // Replacement same type/region, available after a 30 s backoff.
        let new_slot = sim.reassign_group_after(
            &lost,
            VmSlot {
                itype: 0,
                region: 0,
            },
            45.0,
        );
        assert_eq!(new_slot, 1);
        let r = sim.finish();
        // Retry runs 45..55 on the replacement.
        assert!((r.makespan - 55.0).abs() < 1e-6, "makespan {}", r.makespan);
        assert_eq!(r.completed, 2);
        // Two instances billed: 0..15 (crashed) and 45..55.
        assert!((r.cost.total() - 0.088).abs() < 1e-9);
        // The trace records the killed attempt and the successful retry.
        let t1_attempts: Vec<_> = r.attempts.iter().filter(|a| a.task == lost[0]).collect();
        assert_eq!(t1_attempts.len(), 2);
        assert!(!t1_attempts[0].completed && t1_attempts[1].completed);
    }

    #[test]
    fn partition_delays_cross_region_transfer() {
        let spec = spec();
        let wf = generators::pipeline(2, 1.0, 512 * 1024 * 1024);
        let plan = Plan {
            slots: vec![
                VmSlot {
                    itype: 0,
                    region: 0,
                },
                VmSlot {
                    itype: 0,
                    region: 1,
                },
            ],
            assign: vec![0, 1],
            order: vec![0, 1],
        };
        let base = run_plan(&spec, &wf, &plan, 18);
        let mut sched = DisruptionSchedule::empty();
        sched.push_partition(0.0, 1000.0);
        let delayed =
            Simulation::with_disruptions(&spec, &wf, plan.clone(), seeded(18), sched).finish();
        assert!(
            delayed.makespan > base.makespan + 500.0,
            "partition must stall the transfer: {} vs {}",
            delayed.makespan,
            base.makespan
        );
    }
}
