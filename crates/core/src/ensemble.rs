//! Use case 2 — workflow ensembles (Section 3.2).
//!
//! Maximize the total score `sum 2^-priority(w)` of completed workflows
//! (Equation (4)) subject to one ensemble-wide budget (Equation (5)) and a
//! probabilistic deadline per workflow (Equation (6)).
//!
//! The search state is the paper's: "an array of boolean values, where
//! each dimension indicates whether to execute a workflow in the
//! ensemble", initially all false, with transitions that admit one more
//! uncompleted workflow. `enabled(astar)` applies with g = h = the state's
//! Score metric.
//!
//! Each member's execution cost under its own probabilistic deadline is
//! obtained by running the use-case-1 optimizer per workflow — this is
//! where Deco's transformation-based per-workflow optimization "allows
//! more workflows to be executed within the budget and deadline
//! constraints" relative to SPSS.

use crate::scheduling::SchedulingProblem;
use deco_cloud::{CloudSpec, MetadataStore, Plan};
use deco_solver::{
    beam_search, EvalBackend, Evaluation, SearchOptions, SearchProblem, SearchResult,
};
use deco_workflow::Ensemble;

/// Per-member planning outcome feeding the admission search.
#[derive(Debug, Clone)]
pub struct MemberPlan {
    /// The optimized plan, when the member's probabilistic deadline is
    /// achievable at all.
    pub plan: Option<Plan>,
    /// Mean cost of the optimized plan (`inf` when unachievable).
    pub cost: f64,
    /// Achieved deadline probability.
    pub prob: f64,
}

/// The ensemble admission problem.
pub struct EnsembleProblem<'a> {
    pub ensemble: &'a Ensemble,
    pub budget: f64,
    pub member_plans: Vec<MemberPlan>,
    scores: Vec<f64>,
}

impl<'a> EnsembleProblem<'a> {
    /// Optimize every member with the use-case-1 engine, then set up the
    /// admission search. `deadlines[i]` and `percentile` give each
    /// member's probabilistic deadline requirement.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ensemble: &'a Ensemble,
        spec: &CloudSpec,
        store: &MetadataStore,
        deadlines: &[f64],
        percentile: f64,
        budget: f64,
        mc_iters: usize,
        backend: &EvalBackend,
    ) -> Self {
        assert_eq!(deadlines.len(), ensemble.len());
        assert!(budget >= 0.0);
        let member_plans = Self::plan_members(
            ensemble,
            spec,
            store,
            deadlines,
            percentile,
            mc_iters,
            &SearchOptions::default(),
            backend,
        );
        Self::with_member_plans(ensemble, member_plans, budget)
    }

    /// Set up the admission search with member plans computed elsewhere —
    /// the plans do not depend on the budget, so sweeping budgets (the
    /// Figure 9 Bgt1–Bgt5 series) plans each member once.
    pub fn with_member_plans(
        ensemble: &'a Ensemble,
        member_plans: Vec<MemberPlan>,
        budget: f64,
    ) -> Self {
        assert_eq!(member_plans.len(), ensemble.len());
        let scores = ensemble.members.iter().map(|m| m.score()).collect();
        EnsembleProblem {
            ensemble,
            budget,
            member_plans,
            scores,
        }
    }

    /// Plan every member with the use-case-1 engine (reusable across
    /// budgets via [`EnsembleProblem::with_member_plans`]).
    #[allow(clippy::too_many_arguments)]
    pub fn plan_members(
        ensemble: &Ensemble,
        spec: &CloudSpec,
        store: &MetadataStore,
        deadlines: &[f64],
        percentile: f64,
        mc_iters: usize,
        search: &SearchOptions,
        backend: &EvalBackend,
    ) -> Vec<MemberPlan> {
        assert_eq!(deadlines.len(), ensemble.len());
        ensemble
            .members
            .iter()
            .zip(deadlines)
            .map(|(m, &d)| {
                let mut p = SchedulingProblem::new(&m.workflow, spec, store, d, percentile);
                p.mc_iters = mc_iters;
                match beam_search(&p, search, 4, backend).best {
                    Some((state, eval)) => MemberPlan {
                        plan: Some(p.plan_of(&state)),
                        cost: eval.objective,
                        prob: eval.constraint_margin,
                    },
                    None => MemberPlan {
                        plan: None,
                        cost: f64::INFINITY,
                        prob: 0.0,
                    },
                }
            })
            .collect()
    }

    /// Total planned cost of an admission mask.
    pub fn cost_of(&self, mask: &[bool]) -> f64 {
        mask.iter()
            .zip(&self.member_plans)
            .filter(|(&m, _)| m)
            .map(|(_, p)| p.cost)
            .sum()
    }

    /// Solve the admission search (A*-style beam on scores).
    pub fn solve(&self, opts: &SearchOptions, backend: &EvalBackend) -> SearchResult<Vec<bool>> {
        beam_search(self, opts, 8, backend)
    }
}

impl SearchProblem for EnsembleProblem<'_> {
    type State = Vec<bool>;
    type Scratch = ();

    fn initial(&self) -> Vec<bool> {
        // "Initially, all dimensions are set to false."
        vec![false; self.ensemble.len()]
    }

    fn neighbors(&self, s: &Vec<bool>) -> Vec<Vec<bool>> {
        // "For state transitions, we consider executing each of the
        // uncompleted workflows."
        let mut out = Vec::new();
        for i in 0..s.len() {
            if !s[i] && self.member_plans[i].plan.is_some() {
                let mut child = s.clone();
                child[i] = true;
                out.push(child);
            }
        }
        out
    }

    fn evaluate(&self, s: &Vec<bool>, _seed: u64, _: &mut ()) -> Evaluation {
        let cost = self.cost_of(s);
        let score: f64 = s
            .iter()
            .zip(&self.scores)
            .filter(|(&m, _)| m)
            .map(|(_, sc)| sc)
            .sum();
        Evaluation {
            feasible: cost <= self.budget + 1e-9,
            objective: score,
            // Being under budget is the margin; normalize to (0, 1].
            constraint_margin: if cost <= self.budget {
                1.0
            } else if cost.is_finite() && cost > 0.0 {
                (self.budget / cost).max(0.0)
            } else {
                0.0
            },
        }
    }

    fn minimize(&self) -> bool {
        false // maximize the score
    }

    fn state_bytes(&self) -> usize {
        self.ensemble.len()
    }

    fn h_score(&self, s: &Vec<bool>, _e: &Evaluation) -> f64 {
        // Optimistic remaining score (admissible for maximization).
        s.iter()
            .zip(&self.scores)
            .filter(|(&m, _)| !m)
            .map(|(_, sc)| sc)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators::App;
    use deco_workflow::EnsembleType;

    fn setup(count: usize) -> (Ensemble, CloudSpec, MetadataStore) {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec.clone(), 25);
        let e = Ensemble::generate(App::Ligo, EnsembleType::UniformUnsorted, count, &[20], 11);
        (e, spec, store)
    }

    fn problem<'a>(
        e: &'a Ensemble,
        spec: &CloudSpec,
        store: &MetadataStore,
        budget: f64,
    ) -> EnsembleProblem<'a> {
        let deadlines: Vec<f64> = e
            .members
            .iter()
            .map(|m| crate::estimate::deadline_anchors(&m.workflow, spec).1 * 1.5)
            .collect();
        EnsembleProblem::new(
            e,
            spec,
            store,
            &deadlines,
            0.9,
            budget,
            40,
            &EvalBackend::SeqCpu,
        )
    }

    #[test]
    fn infinite_budget_admits_everything() {
        let (e, spec, store) = setup(4);
        let p = problem(&e, &spec, &store, f64::INFINITY);
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (mask, eval) = r.best.unwrap();
        assert!(mask.iter().all(|&m| m));
        assert!((eval.objective - e.max_score()).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let (e, spec, store) = setup(3);
        let p = problem(&e, &spec, &store, 0.0);
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (mask, eval) = r.best.unwrap();
        assert!(mask.iter().all(|&m| !m));
        assert_eq!(eval.objective, 0.0);
    }

    #[test]
    fn limited_budget_prefers_high_priority() {
        let (e, spec, store) = setup(4);
        let full = problem(&e, &spec, &store, f64::INFINITY);
        // Budget for roughly the single cheapest member.
        let min_cost = full
            .member_plans
            .iter()
            .map(|p| p.cost)
            .fold(f64::INFINITY, f64::min);
        let p = problem(&e, &spec, &store, min_cost * 1.05);
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (mask, eval) = r.best.unwrap();
        let admitted = mask.iter().filter(|&&m| m).count();
        assert!(admitted >= 1, "at least one member fits");
        assert!(eval.objective > 0.0);
        assert!(p.cost_of(&mask) <= min_cost * 1.05 + 1e-9);
    }

    #[test]
    fn score_is_monotone_in_budget() {
        let (e, spec, store) = setup(4);
        let full = problem(&e, &spec, &store, f64::INFINITY);
        let total: f64 = full.member_plans.iter().map(|p| p.cost).sum();
        let mut prev = -1.0;
        for frac in [0.0, 0.3, 0.6, 1.0] {
            let p = problem(&e, &spec, &store, total * frac);
            let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
            let score = r.best.map(|(_, e)| e.objective).unwrap_or(0.0);
            assert!(
                score >= prev - 1e-9,
                "score {score} dropped below {prev} at budget fraction {frac}"
            );
            prev = score;
        }
    }
}
