//! SPSS — Static Provisioning Static Scheduling (Malawski, Juve, Deelman,
//! Nabrzyski: "Cost- and Deadline-constrained Provisioning for Scientific
//! Workflow Ensembles in IaaS Clouds", SC'12).
//!
//! The ensemble comparator of Section 6.3.2. SPSS is an *offline* planner:
//! it walks the ensemble in priority order and, for each workflow, builds
//! a static plan that meets the workflow's deadline, admitting the
//! workflow if the plan's estimated cost still fits the remaining budget.
//! Heuristics "reduce resource waste on workflows that cannot be
//! completed": a workflow whose deadline cannot be met at all is skipped
//! outright.
//!
//! Our SPSS plans each workflow with the classic uniform-fleet rule:
//! choose the cheapest instance type whose mean critical-path makespan
//! meets the deadline, then consolidate. That is deliberately coarser than
//! Deco's per-task search — the gap (the paper measures SPSS' average
//! per-workflow cost at ~1.4× Deco's) comes precisely from this rigidity.

use deco_cloud::plan::{mean_exec_seconds, mean_schedule};
use deco_cloud::{CloudSpec, Plan};
use deco_workflow::{Ensemble, Workflow};

/// Admission outcome for an ensemble.
#[derive(Debug, Clone)]
pub struct SpssOutcome {
    /// Which members were admitted (same order as `ensemble.members`).
    pub admitted: Vec<bool>,
    /// Planned cost per admitted member (0 for skipped ones).
    pub est_cost: Vec<f64>,
    /// Plans for admitted members.
    pub plans: Vec<Option<Plan>>,
    /// Total planned cost.
    pub total_cost: f64,
    /// Ensemble score (Equation (4)) of the admitted set.
    pub score: f64,
}

/// Plan a single workflow for SPSS: cheapest uniform type meeting the
/// deadline on mean times. `None` when even the fastest fleet misses it.
pub fn spss_plan_workflow(
    wf: &Workflow,
    spec: &CloudSpec,
    deadline: f64,
    region: usize,
) -> Option<(Plan, f64)> {
    let mut by_price: Vec<usize> = (0..spec.k()).collect();
    by_price.sort_by(|&a, &b| {
        spec.types[a]
            .price_per_hour
            .total_cmp(&spec.types[b].price_per_hour)
    });
    // SPSS keeps the standard 15% scheduling margin when packing (as every
    // planner here does); its distinguishing weakness is the *deterministic*
    // mean-based admission criterion, not reckless packing.
    let packing_deadline = deadline * 0.85;
    for ty in by_price {
        let plan = Plan::packed_deadline(wf, &vec![ty; wf.len()], region, spec, packing_deadline);
        let sched = mean_schedule(wf, &plan, spec);
        if sched.makespan <= packing_deadline {
            return Some((plan, sched.cost.total()));
        }
    }
    None
}

/// Run SPSS admission over an ensemble with per-member deadlines and a
/// shared budget.
pub fn spss_admit(
    ensemble: &Ensemble,
    spec: &CloudSpec,
    deadlines: &[f64],
    budget: f64,
    region: usize,
) -> SpssOutcome {
    assert_eq!(deadlines.len(), ensemble.len());
    let n = ensemble.len();
    let mut admitted = vec![false; n];
    let mut est_cost = vec![0.0; n];
    let mut plans: Vec<Option<Plan>> = vec![None; n];
    let mut total = 0.0;
    for &i in &ensemble.by_priority() {
        let wf = &ensemble.members[i].workflow;
        if let Some((plan, cost)) = spss_plan_workflow(wf, spec, deadlines[i], region) {
            if total + cost <= budget + 1e-9 {
                total += cost;
                admitted[i] = true;
                est_cost[i] = cost;
                plans[i] = Some(plan);
            }
        }
    }
    let score = ensemble.score_of(&admitted);
    SpssOutcome {
        admitted,
        est_cost,
        plans,
        total_cost: total,
        score,
    }
}

/// The smallest deadline any fleet can achieve for `wf` (mean critical
/// path on the fastest type) — used to construct the paper's
/// MinDeadline/MaxDeadline and MinBudget/MaxBudget experiment ranges.
pub fn min_possible_makespan(wf: &Workflow, spec: &CloudSpec) -> f64 {
    let fastest = spec.priciest_type();
    wf.critical_path(|t| mean_exec_seconds(spec, fastest, wf, t))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators::App;
    use deco_workflow::EnsembleType;

    fn small_ensemble() -> Ensemble {
        Ensemble::generate(App::Ligo, EnsembleType::Constant, 4, &[20], 1)
    }

    fn spec() -> CloudSpec {
        CloudSpec::amazon_ec2()
    }

    fn loose_deadlines(e: &Ensemble, spec: &CloudSpec) -> Vec<f64> {
        e.members
            .iter()
            .map(|m| min_possible_makespan(&m.workflow, spec) * 20.0)
            .collect()
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let e = small_ensemble();
        let spec = spec();
        let d = loose_deadlines(&e, &spec);
        let out = spss_admit(&e, &spec, &d, f64::INFINITY, 0);
        assert!(out.admitted.iter().all(|&a| a));
        assert!((out.score - e.max_score()).abs() < 1e-12);
        assert!(out.total_cost > 0.0);
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let e = small_ensemble();
        let spec = spec();
        let d = loose_deadlines(&e, &spec);
        let out = spss_admit(&e, &spec, &d, 0.0, 0);
        assert!(out.admitted.iter().all(|&a| !a));
        assert_eq!(out.score, 0.0);
    }

    #[test]
    fn admission_is_by_priority() {
        let e = small_ensemble();
        let spec = spec();
        let d = loose_deadlines(&e, &spec);
        // Budget for exactly the highest-priority workflow.
        let full = spss_admit(&e, &spec, &d, f64::INFINITY, 0);
        let top = e.by_priority()[0];
        let out = spss_admit(&e, &spec, &d, full.est_cost[top] * 1.01, 0);
        // The highest-priority member is admitted first; anything else
        // admitted must be cheaper members that still fit the remainder.
        assert!(out.admitted[top], "priority-0 member must be admitted");
        assert!(out.score >= 1.0);
        assert!(out.total_cost <= full.est_cost[top] * 1.01 + 1e-9);
    }

    #[test]
    fn impossible_deadlines_are_skipped_without_spending() {
        let e = small_ensemble();
        let spec = spec();
        let d = vec![0.0001; e.len()];
        let out = spss_admit(&e, &spec, &d, f64::INFINITY, 0);
        assert!(out.admitted.iter().all(|&a| !a));
        assert_eq!(out.total_cost, 0.0);
    }

    #[test]
    fn tighter_deadline_raises_cost() {
        let e = small_ensemble();
        let spec = spec();
        let wf = &e.members[0].workflow;
        let dmin = min_possible_makespan(wf, &spec);
        let (_, loose_cost) = spss_plan_workflow(wf, &spec, dmin * 30.0, 0).unwrap();
        let (_, tight_cost) = spss_plan_workflow(wf, &spec, dmin * 1.3, 0).unwrap();
        assert!(
            tight_cost >= loose_cost,
            "tight {tight_cost} vs loose {loose_cost}"
        );
    }

    #[test]
    fn plans_meet_their_deadlines_in_expectation() {
        let e = small_ensemble();
        let spec = spec();
        let d = loose_deadlines(&e, &spec);
        let out = spss_admit(&e, &spec, &d, f64::INFINITY, 0);
        for (i, plan) in out.plans.iter().enumerate() {
            let plan = plan.as_ref().unwrap();
            let sched = mean_schedule(&e.members[i].workflow, plan, &spec);
            assert!(sched.makespan <= d[i]);
        }
    }
}
