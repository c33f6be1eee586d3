//! Use case 1 — the workflow scheduling problem (Section 3.1).
//!
//! Select an instance type for every task (`vm_ij`) minimizing the mean
//! monetary cost (Equation (1)) subject to the probabilistic deadline
//! `P(makespan <= D) >= p` (Equation (3)). States are type vectors, the
//! transformation operations generate neighbors (Figure 5), and each state
//! is evaluated by Monte Carlo over the calibrated execution-time
//! distributions.

use crate::estimate::{
    mc_evaluate_plan, CompiledFrontier, ExecTimeTable, FrontierScratch, FrontierSkeleton, McEval,
};
use deco_cloud::{CloudSpec, MetadataStore, Plan};

/// Which monetary objective the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveMode {
    /// Realistic: instance-hours of the packed plan (what the bill says).
    HourlyPlan,
    /// Equation (1) literally: sum of mean task seconds x unit price. The
    /// paper's formulation; monotone under promotion from the cheapest
    /// state, which is what licenses A* incumbent pruning.
    FractionalMean,
}
use deco_solver::transform::{schedule_neighbors, TypeState};
use deco_solver::{Evaluation, SearchProblem};
use deco_workflow::Workflow;

/// The scheduling problem instance.
pub struct SchedulingProblem<'a> {
    pub wf: &'a Workflow,
    pub spec: &'a CloudSpec,
    table: ExecTimeTable,
    /// Probabilistic deadline: `P(makespan <= deadline) >= percentile`.
    pub deadline: f64,
    pub percentile: f64,
    /// Monte-Carlo iterations per state (the paper's `Max_iter`).
    pub mc_iters: usize,
    pub region: usize,
    /// Promote-only neighbor generation: monotone cost growth from the
    /// all-cheapest initial state, enabling A* incumbent pruning (the
    /// paper's Example of Section 5.3).
    pub promote_only: bool,
    /// Monetary objective (see [`ObjectiveMode`]).
    pub objective: ObjectiveMode,
    /// Fraction of the deadline the deterministic packer may consume.
    /// Packing to the full deadline leaves no headroom for the dynamics
    /// the probabilistic constraint guards against; the remainder is the
    /// variance reserve.
    pub pack_safety: f64,
    /// Shared dispatch/CDF structure for the frontier evaluator, compiled
    /// once per problem from `table`.
    skeleton: FrontierSkeleton,
}

impl<'a> SchedulingProblem<'a> {
    pub fn new(
        wf: &'a Workflow,
        spec: &'a CloudSpec,
        store: &MetadataStore,
        deadline: f64,
        percentile: f64,
    ) -> Self {
        let table = ExecTimeTable::build(wf, store, 12);
        Self::with_table(wf, spec, table, deadline, percentile)
    }

    /// Like [`SchedulingProblem::new`], but estimation folds the store's
    /// `fail_rate(type, region)` facts into every execution-time
    /// histogram (expected retry overhead under `retry`), so the search
    /// optimizes failure-aware plans through the unchanged Monte-Carlo
    /// path. Identical to [`SchedulingProblem::new`] when the store
    /// records no failures.
    pub fn new_failure_aware(
        wf: &'a Workflow,
        spec: &'a CloudSpec,
        store: &MetadataStore,
        deadline: f64,
        percentile: f64,
        retry: &deco_cloud::RetryConfig,
    ) -> Self {
        // Rates are read in region 0, the region the constructors plan in.
        let table = ExecTimeTable::build_failure_aware(wf, store, 12, 0, retry);
        Self::with_table(wf, spec, table, deadline, percentile)
    }

    fn with_table(
        wf: &'a Workflow,
        spec: &'a CloudSpec,
        table: ExecTimeTable,
        deadline: f64,
        percentile: f64,
    ) -> Self {
        assert!(deadline > 0.0, "deadline must be positive");
        assert!((0.0..=1.0).contains(&percentile));
        let skeleton = FrontierSkeleton::build(wf, &table);
        SchedulingProblem {
            wf,
            spec,
            table,
            deadline,
            percentile,
            mc_iters: 100,
            region: 0,
            promote_only: false,
            objective: ObjectiveMode::HourlyPlan,
            pack_safety: 0.85,
            skeleton,
        }
    }

    /// Map one Monte-Carlo verdict to the search-facing [`Evaluation`].
    fn finish_eval(&self, s: &TypeState, e: McEval) -> Evaluation {
        // The margin is a *continuous* proximity signal: the ratio of the
        // deadline to the p-th-quantile makespan. It equals/exceeds 1 when
        // the probabilistic constraint holds and decays smoothly as plans
        // get slower, giving the search a gradient through the infeasible
        // region (Figure 5's promotion chain).
        let margin = if e.quantile_makespan > 0.0 {
            (self.deadline / e.quantile_makespan).min(1.0)
        } else {
            1.0
        };
        let objective = match self.objective {
            ObjectiveMode::HourlyPlan => e.mean_cost,
            ObjectiveMode::FractionalMean => s
                .iter()
                .enumerate()
                .map(|(i, &ty)| self.table.mean(i, ty) / 3600.0 * self.spec.price(ty, self.region))
                .sum(),
        };
        Evaluation {
            feasible: e.prob >= self.percentile,
            objective,
            constraint_margin: margin,
        }
    }

    /// Materialize a type state into a provisioning plan with
    /// deadline-aware consolidation (the Move/Merge operations), packing
    /// against the safety-contracted deadline.
    pub fn plan_of(&self, s: &TypeState) -> Plan {
        Plan::packed_deadline(
            self.wf,
            s,
            self.region,
            self.spec,
            self.deadline * self.pack_safety,
        )
    }
}

impl SearchProblem for SchedulingProblem<'_> {
    type State = TypeState;
    type Scratch = FrontierScratch;

    fn initial(&self) -> TypeState {
        // All tasks on the cheapest type (Figure 5b's initial state).
        vec![self.spec.cheapest_type(); self.wf.len()]
    }

    fn neighbors(&self, s: &TypeState) -> Vec<TypeState> {
        schedule_neighbors(self.wf, s, self.spec.k(), self.promote_only)
    }

    /// Runs the state's plan as a one-column [`CompiledFrontier`] over the
    /// problem's shared skeleton, in the caller's scratch.
    fn evaluate(&self, s: &TypeState, seed: u64, scratch: &mut FrontierScratch) -> Evaluation {
        let plan = [self.plan_of(s)];
        let verdict = match CompiledFrontier::compile(&self.skeleton, self.spec, &plan) {
            Some(frontier) => frontier.evaluate(
                self.deadline,
                self.percentile,
                self.mc_iters,
                &[seed],
                scratch,
            )[0],
            // The plan's dispatch ranks disagree with the shared skeleton
            // (never the case for packer-produced plans): it runs as a
            // one-column frontier in its own order.
            None => mc_evaluate_plan(
                self.wf,
                &plan[0],
                &self.table,
                self.spec,
                self.deadline,
                self.percentile,
                self.mc_iters,
                seed,
            ),
        };
        self.finish_eval(s, verdict)
    }

    fn state_bytes(&self) -> usize {
        self.table.state_bytes()
    }

    fn threads_per_state(&self) -> usize {
        self.mc_iters
    }

    fn cells_per_thread(&self) -> usize {
        self.wf.len()
    }

    fn children_monotone(&self) -> bool {
        // Hourly billing breaks cost monotonicity under promotion (a
        // faster type can need fewer instance-hours), so incumbent pruning
        // is only sound for the paper's fractional Equation (1) objective
        // with promote-only moves.
        self.promote_only && self.objective == ObjectiveMode::FractionalMean
    }

    fn h_score(&self, _s: &TypeState, _eval: &Evaluation) -> f64 {
        // The paper's example sets both scores to the state's estimated
        // cost; g (the objective) already carries it, so h adds nothing.
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::deadline_anchors;
    use deco_solver::{astar_search, beam_search, generic_search, EvalBackend, SearchOptions};
    use deco_workflow::generators;

    fn setup(_wf: &Workflow) -> (CloudSpec, MetadataStore) {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec.clone(), 30);
        (spec, store)
    }

    fn medium_deadline(wf: &Workflow, spec: &CloudSpec) -> f64 {
        let (dmin, dmax) = deadline_anchors(wf, spec);
        0.5 * (dmin + dmax)
    }

    #[test]
    fn finds_a_feasible_plan_on_montage1() {
        let wf = generators::montage(1, 7);
        let (spec, store) = setup(&wf);
        let d = medium_deadline(&wf, &spec);
        let mut p = SchedulingProblem::new(&wf, &spec, &store, d, 0.9);
        p.mc_iters = 60;
        let r = beam_search(&p, &SearchOptions::default(), 4, &EvalBackend::SeqCpu);
        let (state, eval) = r.best.expect("montage-1 must be schedulable");
        assert!(eval.feasible);
        assert!(eval.constraint_margin >= 0.9);
        let plan = p.plan_of(&state);
        plan.validate(&wf, &spec).unwrap();
    }

    #[test]
    fn backends_agree_on_batched_scheduling_evaluations() {
        // The scratch-carrying fast path must stay backend-invariant: a
        // batch evaluated sequentially, on the multi-core model and on the
        // GPU model — with workers stealing states in different
        // interleavings and reusing dirty scratches — returns identical
        // evaluations for identical (state, seed).
        use deco_solver::eval::evaluate_batch;
        let wf = generators::montage(1, 11);
        let (spec, store) = setup(&wf);
        let d = medium_deadline(&wf, &spec);
        let mut p = SchedulingProblem::new(&wf, &spec, &store, d, 0.9);
        p.mc_iters = 40;
        let states: Vec<_> = (0..4)
            .flat_map(|ty| {
                let s = vec![ty; wf.len()];
                let mut n = p.neighbors(&s);
                n.truncate(3);
                n.push(s);
                n
            })
            .collect();
        let seq = evaluate_batch(&p, &states, &EvalBackend::SeqCpu, 77);
        let par = evaluate_batch(&p, &states, &EvalBackend::ParCpu(6), 77);
        let gpu = evaluate_batch(
            &p,
            &states,
            &EvalBackend::SimGpu(deco_gpu::DeviceSpec::k40()),
            77,
        );
        assert_eq!(seq, par);
        assert_eq!(seq, gpu);
    }

    #[test]
    fn infeasible_deadline_yields_none() {
        let wf = generators::montage(1, 8);
        let (spec, store) = setup(&wf);
        let mut p = SchedulingProblem::new(&wf, &spec, &store, 0.01, 0.99);
        p.mc_iters = 20;
        let opts = SearchOptions {
            max_states: 200,
            ..Default::default()
        };
        let r = generic_search(&p, &opts, &EvalBackend::SeqCpu);
        assert!(r.best.is_none());
    }

    #[test]
    fn tighter_percentile_costs_at_least_as_much() {
        let wf = generators::montage(1, 9);
        let (spec, store) = setup(&wf);
        let d = medium_deadline(&wf, &spec);
        let solve = |pct: f64| {
            let mut p = SchedulingProblem::new(&wf, &spec, &store, d, pct);
            p.mc_iters = 60;
            beam_search(&p, &SearchOptions::default(), 4, &EvalBackend::SeqCpu)
                .best
                .map(|(_, e)| e.objective)
        };
        let loose = solve(0.5).expect("feasible at 50%");
        let tight = solve(0.95).expect("feasible at 95%");
        // Beam search is an anytime heuristic, so exact monotonicity in the
        // percentile is not guaranteed — but the tight requirement should
        // never come out *substantially* cheaper.
        assert!(
            tight >= loose * 0.75 - 1e-9,
            "95% requirement ({tight}) far cheaper than 50% ({loose})"
        );
    }

    #[test]
    fn astar_matches_generic_on_small_instances() {
        let wf = generators::pipeline(4, 600.0, 32 << 20);
        let (spec, store) = setup(&wf);
        let d = medium_deadline(&wf, &spec);
        let mut p = SchedulingProblem::new(&wf, &spec, &store, d, 0.9);
        p.mc_iters = 80;
        p.promote_only = true;
        p.objective = ObjectiveMode::FractionalMean;
        let g = generic_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        let a = astar_search(&p, &SearchOptions::default(), &EvalBackend::SeqCpu);
        let go = g.best.as_ref().map(|(_, e)| e.objective).unwrap();
        let ao = a.best.as_ref().map(|(_, e)| e.objective).unwrap();
        assert!(
            (go - ao).abs() < 1e-9,
            "A* ({ao}) and generic ({go}) must agree on a 4-task chain"
        );
    }

    #[test]
    fn deco_beats_or_matches_single_type_configs() {
        // The Figure 1 shape: among deadline-meeting configurations, the
        // searched plan is the cheapest.
        let wf = generators::montage(1, 10);
        let (spec, store) = setup(&wf);
        let d = medium_deadline(&wf, &spec);
        let mut p = SchedulingProblem::new(&wf, &spec, &store, d, 0.9);
        p.mc_iters = 80;
        let best = beam_search(&p, &SearchOptions::default(), 4, &EvalBackend::SeqCpu)
            .best
            .expect("feasible");
        for ty in 0..spec.k() {
            let s = vec![ty; wf.len()];
            let e = p.evaluate(
                &s,
                deco_solver::eval::state_seed(0xD5C0, &s),
                &mut FrontierScratch::new(),
            );
            if e.feasible {
                assert!(
                    best.1.objective <= e.objective * 1.02,
                    "single-type {ty} (cost {}) beats the search ({})",
                    e.objective,
                    best.1.objective
                );
            }
        }
    }
}
