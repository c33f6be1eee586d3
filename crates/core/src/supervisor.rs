//! The planning supervisor: a degradation chain that always hands back a
//! plan, with provenance.
//!
//! Production workflow managers cannot stall because the optimizer ran out
//! of budget. [`plan_with_fallback`] walks three stages in order of
//! decreasing quality and records *why* each earlier stage was skipped:
//!
//! 1. **Deco** — the compiled solver ([`Deco::plan_workflow`]'s pipeline)
//!    under the caller's deterministic [`SearchBudget`]. Anytime: a
//!    truncated run still returns its best incumbent if one is feasible.
//! 2. **Heuristic** — follow-the-cost (Section 6.1): the cheapest single
//!    instance type whose *mean* critical path meets the deadline, placed
//!    in the region chosen by [`offline_region_choice`].
//! 3. **Autoscaling** — the deadline-proportional static plan
//!    ([`autoscaling_plan`](deco_baselines::autoscaling::autoscaling_plan)),
//!    which always produces *some* plan.
//!
//! The resulting [`PlanProvenance`] lets the WMS distinguish a deadline
//! met by the optimizer (`Met`) from one met by a degraded fallback
//! (`MetDegraded`) from a violation.

use crate::engine::{Deco, DecoPlan};
use crate::error::DecoError;
use crate::estimate::FrontierScratch;
use crate::scheduling::SchedulingProblem;
use deco_baselines::autoscaling::autoscaling_types;
use deco_baselines::heuristic::offline_region_choice;
use deco_cloud::plan::mean_exec_seconds;
use deco_solver::{
    beam_search, eval::state_seed, EvalBackend, SearchBudget, SearchProblem, SearchStats,
};
use deco_workflow::Workflow;

/// Which stage of the degradation chain produced the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStage {
    /// The compiled Deco solver (full quality).
    Deco,
    /// The follow-the-cost heuristic (mean-deadline single type).
    Heuristic,
    /// The autoscaling static plan (last resort, always succeeds).
    Autoscaling,
}

impl std::fmt::Display for PlanStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanStage::Deco => write!(f, "deco"),
            PlanStage::Heuristic => write!(f, "heuristic"),
            PlanStage::Autoscaling => write!(f, "autoscaling"),
        }
    }
}

/// Why a stage earlier in the chain did not produce the plan.
#[derive(Debug, Clone)]
pub struct StageSkip {
    pub stage: PlanStage,
    pub reason: String,
}

/// Where the plan came from and what it cost to get it.
#[derive(Debug, Clone)]
pub struct PlanProvenance {
    /// The stage that produced the plan.
    pub stage: PlanStage,
    /// Whether the Deco stage's search was cut off by the budget.
    pub truncated: bool,
    /// Deterministic device-model ticks spent across the chain.
    pub budget_spent: f64,
    /// The stages that were tried and skipped, with reasons.
    pub skipped: Vec<StageSkip>,
}

impl PlanProvenance {
    /// A plan is degraded when it did not come from the full-quality
    /// (untruncated) Deco stage.
    pub fn degraded(&self) -> bool {
        self.stage != PlanStage::Deco || self.truncated
    }
}

/// A plan plus its provenance.
#[derive(Debug, Clone)]
pub struct SupervisedPlan {
    pub plan: DecoPlan,
    pub provenance: PlanProvenance,
}

/// Walk the degradation chain. Returns a plan for every structurally valid
/// request — even a pathological near-zero budget lands on the autoscaling
/// stage — and an error only when the request itself is unusable (empty
/// workflow, non-positive deadline, percentile outside `(0, 1]`).
pub fn plan_with_fallback(
    deco: &Deco,
    wf: &Workflow,
    deadline: f64,
    percentile: f64,
    budget: &SearchBudget,
) -> Result<SupervisedPlan, DecoError> {
    plan_with_fallback_scratch(
        deco,
        wf,
        deadline,
        percentile,
        budget,
        &mut FrontierScratch::new(),
    )
}

/// [`plan_with_fallback`] with caller-owned evaluation scratch. Long-lived
/// planners (the `deco-serve` solver workers) hold one [`FrontierScratch`] per
/// worker thread and route every request through here, so the fallback
/// stages' Monte-Carlo evaluations run allocation-free in steady state.
/// Results never depend on the scratch's prior contents — the two entry
/// points are bit-identical.
pub fn plan_with_fallback_scratch(
    deco: &Deco,
    wf: &Workflow,
    deadline: f64,
    percentile: f64,
    budget: &SearchBudget,
    scratch: &mut FrontierScratch,
) -> Result<SupervisedPlan, DecoError> {
    validate_request(deco, wf, deadline, percentile)?;
    let mut problem = deco.problem(wf, deadline, percentile);

    let mut skipped = Vec::new();

    // --- stage 1: the compiled Deco solver, under the budget -------------
    let mut opts = deco.options.search.clone();
    opts.budget = budget.clone();
    let result = beam_search(
        &problem,
        &opts,
        deco.options.beam_width,
        &EvalBackend::SeqCpu,
    );
    let spent = result.stats.budget_spent;
    match result.best {
        Some((types, evaluation)) => {
            return Ok(SupervisedPlan {
                plan: DecoPlan {
                    plan: problem.plan_of(&types),
                    types,
                    evaluation,
                    stats: result.stats.clone(),
                },
                provenance: PlanProvenance {
                    stage: PlanStage::Deco,
                    truncated: result.stats.truncated,
                    budget_spent: spent,
                    skipped,
                },
            });
        }
        None => skipped.push(StageSkip {
            stage: PlanStage::Deco,
            reason: if result.stats.truncated {
                format!(
                    "budget exhausted after {spent:.3} ticks ({} states) \
                     without a feasible incumbent",
                    result.stats.states_evaluated
                )
            } else {
                format!(
                    "search exhausted ({} states) without a feasible plan",
                    result.stats.states_evaluated
                )
            },
        }),
    }

    let truncated = result.stats.truncated;
    Ok(degrade_chain(
        deco,
        wf,
        deadline,
        &mut problem,
        spent,
        truncated,
        skipped,
        scratch,
    ))
}

/// Skip the Deco search entirely and answer from the degradation chain
/// (heuristic, then autoscaling). This is what a serving layer uses for
/// *quarantined* or *strike-escalated* requests: a content key that has
/// repeatedly wedged solver workers must still receive a terminal plan,
/// but is no longer worth search budget. The caller supplies the skip
/// reason, which lands verbatim in the provenance's Deco-stage
/// [`StageSkip`] so the response records *why* the search never ran.
pub fn plan_fallback_only(
    deco: &Deco,
    wf: &Workflow,
    deadline: f64,
    percentile: f64,
    skip_reason: &str,
    scratch: &mut FrontierScratch,
) -> Result<SupervisedPlan, DecoError> {
    validate_request(deco, wf, deadline, percentile)?;
    let mut problem = deco.problem(wf, deadline, percentile);
    let skipped = vec![StageSkip {
        stage: PlanStage::Deco,
        reason: skip_reason.to_string(),
    }];
    Ok(degrade_chain(
        deco,
        wf,
        deadline,
        &mut problem,
        0.0,
        false,
        skipped,
        scratch,
    ))
}

/// Structural validation shared by every supervised entry point, ahead of
/// any constructor that asserts.
fn validate_request(
    deco: &Deco,
    wf: &Workflow,
    deadline: f64,
    percentile: f64,
) -> Result<(), DecoError> {
    crate::engine::check_mc_iters(&deco.options)?;
    if wf.is_empty() {
        return Err(DecoError::Plan("workflow has no tasks".into()));
    }
    if !(deadline.is_finite() && deadline > 0.0) {
        return Err(DecoError::Plan(format!(
            "deadline must be positive and finite, got {deadline}"
        )));
    }
    if !(percentile > 0.0 && percentile <= 1.0) {
        return Err(DecoError::Plan(format!(
            "percentile must be in (0, 1], got {percentile}"
        )));
    }
    Ok(())
}

/// Stages 2 and 3 of the chain, shared by the budgeted entry points (after
/// a fruitless stage-1 search) and [`plan_fallback_only`] (which never
/// searches). `spent`/`truncated` describe whatever stage-1 work happened.
#[allow(clippy::too_many_arguments)]
fn degrade_chain(
    deco: &Deco,
    wf: &Workflow,
    deadline: f64,
    problem: &mut SchedulingProblem<'_>,
    spent: f64,
    truncated: bool,
    mut skipped: Vec<StageSkip>,
    scratch: &mut FrontierScratch,
) -> SupervisedPlan {
    let spec = &deco.store.spec;
    // Later stages do not search, so they charge nothing more against the
    // budget; `budget.minus_ticks(spent)` is what a caller replanning
    // mid-campaign should pass to the *next* supervised call.
    let stats_of = |truncated: bool| SearchStats {
        budget_spent: spent,
        truncated,
        ..SearchStats::default()
    };

    // --- stage 2: follow-the-cost heuristic ------------------------------
    // Cheapest single type whose mean critical path meets the deadline.
    let mut choice: Option<(usize, f64)> = None;
    for ty in 0..spec.k() {
        let mean = wf.critical_path(|t| mean_exec_seconds(spec, ty, wf, t)).1;
        let price = spec.price(ty, 0);
        let better = match choice {
            Some((_, best_price)) => price < best_price,
            None => true,
        };
        if mean <= deadline && better {
            choice = Some((ty, price));
        }
    }
    match choice {
        Some((ty, _)) => {
            let types = vec![ty; wf.len()];
            let region = offline_region_choice(wf, spec, &types, 0);
            problem.region = region;
            let evaluation = problem.evaluate(&types, state_seed(0xFA11, &types), scratch);
            let plan = problem.plan_of(&types);
            return SupervisedPlan {
                plan: DecoPlan {
                    plan,
                    types,
                    evaluation,
                    stats: stats_of(truncated),
                },
                provenance: PlanProvenance {
                    stage: PlanStage::Heuristic,
                    truncated,
                    budget_spent: spent,
                    skipped,
                },
            };
        }
        None => skipped.push(StageSkip {
            stage: PlanStage::Heuristic,
            reason: "no single instance type meets the mean deadline".into(),
        }),
    }

    // --- stage 3: autoscaling static plan (always succeeds) --------------
    let types = autoscaling_types(wf, spec, deadline);
    problem.region = 0;
    let evaluation = problem.evaluate(&types, state_seed(0xFA11, &types), scratch);
    let plan = deco_cloud::Plan::packed_deadline(wf, &types, 0, spec, deadline);
    SupervisedPlan {
        plan: DecoPlan {
            plan,
            types,
            evaluation,
            stats: stats_of(truncated),
        },
        provenance: PlanProvenance {
            stage: PlanStage::Autoscaling,
            truncated,
            budget_spent: spent,
            skipped,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::{CloudSpec, MetadataStore};
    use deco_workflow::generators;

    fn deco() -> Deco {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec, 25);
        let mut d = Deco::new(store);
        d.options.mc_iters = 40;
        d.options.search.max_states = 400;
        d
    }

    fn medium_deadline(wf: &Workflow, spec: &CloudSpec) -> f64 {
        let (dmin, dmax) = crate::estimate::deadline_anchors(wf, spec);
        0.5 * (dmin + dmax)
    }

    #[test]
    fn unbudgeted_supervision_matches_plain_planning_bit_for_bit() {
        let d = deco();
        for wf in [generators::montage(1, 9), generators::ligo(10, 9)] {
            let deadline = medium_deadline(&wf, &d.store.spec);
            let plain = d
                .plan_workflow(&wf, deadline, 0.9, &EvalBackend::SeqCpu)
                .expect("plain path feasible");
            let sup = plan_with_fallback(&d, &wf, deadline, 0.9, &SearchBudget::unlimited())
                .expect("supervised path");
            assert_eq!(sup.provenance.stage, PlanStage::Deco);
            assert!(!sup.provenance.degraded());
            assert!(sup.provenance.skipped.is_empty());
            assert_eq!(sup.plan.types, plain.types);
            assert_eq!(
                sup.plan.evaluation.objective.to_bits(),
                plain.evaluation.objective.to_bits()
            );
            assert_eq!(
                sup.plan.stats.deterministic_key(),
                plain.stats.deterministic_key()
            );
        }
    }

    #[test]
    fn near_zero_budget_still_returns_a_plan_with_provenance() {
        let d = deco();
        for seed in [7u64, 11, 15] {
            for wf in [generators::montage(1, seed), generators::ligo(10, seed)] {
                let deadline = medium_deadline(&wf, &d.store.spec);
                let sup = plan_with_fallback(&d, &wf, deadline, 0.9, &SearchBudget::ticks(1e-12))
                    .expect("supervisor must always produce a plan");
                assert_ne!(
                    sup.provenance.stage,
                    PlanStage::Deco,
                    "a 1e-12-tick budget cannot finish the search"
                );
                assert!(sup.provenance.degraded());
                assert!(sup.provenance.truncated);
                assert!(
                    sup.provenance.skipped.iter().any(
                        |s| s.stage == PlanStage::Deco && s.reason.contains("budget exhausted")
                    ),
                    "skip reasons: {:?}",
                    sup.provenance.skipped
                );
                assert_eq!(sup.plan.types.len(), wf.len());
                sup.plan.plan.validate(&wf, &d.store.spec).unwrap();
            }
        }
    }

    #[test]
    fn impossible_deadline_falls_through_to_autoscaling() {
        let d = deco();
        let wf = generators::montage(1, 8);
        let sup = plan_with_fallback(&d, &wf, 0.01, 0.99, &SearchBudget::unlimited())
            .expect("autoscaling is the backstop");
        assert_eq!(sup.provenance.stage, PlanStage::Autoscaling);
        assert!(sup.provenance.degraded());
        assert_eq!(sup.provenance.skipped.len(), 2);
        assert!(!sup.plan.evaluation.feasible);
    }

    #[test]
    fn invalid_requests_error_instead_of_asserting() {
        let d = deco();
        let wf = generators::montage(1, 8);
        let empty = Workflow::new("empty");
        for (w, deadline, pct) in [
            (&wf, -1.0, 0.9),
            (&wf, 0.0, 0.9),
            (&wf, f64::NAN, 0.9),
            (&wf, f64::INFINITY, 0.9),
            (&wf, 100.0, 0.0),
            (&wf, 100.0, 1.5),
            (&empty, 100.0, 0.9),
        ] {
            let err = plan_with_fallback(&d, w, deadline, pct, &SearchBudget::unlimited())
                .expect_err("invalid request");
            assert!(matches!(err, DecoError::Plan(_)), "{err}");
        }
    }

    #[test]
    fn worker_scratch_reuse_is_bit_identical_to_fresh_scratch() {
        // A serve worker holds one FrontierScratch across many requests; the
        // verdicts must not depend on what the scratch saw before. The
        // starved budget forces the fallback stages, which are the ones
        // that evaluate through the caller's scratch.
        let d = deco();
        let mut scratch = FrontierScratch::new();
        for (wf, budget) in [
            (generators::montage(1, 9), SearchBudget::ticks(1e-12)),
            (generators::ligo(10, 9), SearchBudget::ticks(1e-12)),
            (generators::montage(1, 8), SearchBudget::unlimited()),
        ] {
            let deadline = medium_deadline(&wf, &d.store.spec);
            let fresh = plan_with_fallback(&d, &wf, deadline, 0.9, &budget).unwrap();
            let reused =
                plan_with_fallback_scratch(&d, &wf, deadline, 0.9, &budget, &mut scratch).unwrap();
            assert_eq!(fresh.plan.types, reused.plan.types);
            assert_eq!(fresh.provenance.stage, reused.provenance.stage);
            assert_eq!(
                fresh.plan.evaluation.objective.to_bits(),
                reused.plan.evaluation.objective.to_bits()
            );
        }
    }

    #[test]
    fn provenance_reports_budget_spent_deterministically() {
        let d = deco();
        let wf = generators::montage(1, 9);
        let deadline = medium_deadline(&wf, &d.store.spec);
        let budget = SearchBudget::ticks(1e-12);
        let a = plan_with_fallback(&d, &wf, deadline, 0.9, &budget).unwrap();
        let b = plan_with_fallback(&d, &wf, deadline, 0.9, &budget).unwrap();
        assert_eq!(
            a.provenance.budget_spent.to_bits(),
            b.provenance.budget_spent.to_bits()
        );
        assert_eq!(a.provenance.stage, b.provenance.stage);
        assert_eq!(a.plan.types, b.plan.types);
        assert!(a.provenance.budget_spent > 0.0);
        // The remaining budget a replanning caller would pass downstream.
        assert!(!budget.minus_ticks(a.provenance.budget_spent).is_unlimited());
    }
}
