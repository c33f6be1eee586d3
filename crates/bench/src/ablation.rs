//! Ablation studies on the design choices DESIGN.md calls out.

use crate::common::{Env, ROOT_SEED};
use deco_cloud::sim::run_plan_many;
use deco_core::SchedulingProblem;
use deco_solver::{astar_search, beam_search, generic_search, SearchOptions};
use deco_workflow::generators;

#[derive(Debug, Clone)]
pub struct AblationRow {
    pub label: String,
    pub values: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct AblationResult {
    pub title: String,
    pub columns: Vec<&'static str>,
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    pub fn render(&self) -> String {
        let mut s = format!("{}\n{:<28}", self.title, "");
        for c in &self.columns {
            s.push_str(&format!(" {c:>9}"));
        }
        s.push('\n');
        for r in &self.rows {
            s.push_str(&format!("{:<28}", r.label));
            for v in &r.values {
                s.push_str(&format!(" {v:>9.3}"));
            }
            s.push('\n');
        }
        s
    }
}

fn problem<'a>(env: &'a Env, wf: &'a deco_workflow::Workflow, pct: f64) -> SchedulingProblem<'a> {
    let mut p = SchedulingProblem::new(wf, &env.spec, &env.store, env.medium_deadline(wf), pct);
    p.mc_iters = env.scale.mc_iters().min(80);
    p
}

/// A problem pinned at a *tight* deadline — the regime where mean-based
/// and percentile-based planning actually diverge.
fn tight_problem<'a>(
    env: &'a Env,
    wf: &'a deco_workflow::Workflow,
    pct: f64,
) -> SchedulingProblem<'a> {
    let mut p = SchedulingProblem::new(wf, &env.spec, &env.store, env.tight_deadline(wf), pct);
    p.mc_iters = env.scale.mc_iters().min(80);
    p
}

fn opts(env: &Env) -> SearchOptions {
    SearchOptions {
        max_states: match env.scale {
            crate::Scale::Quick => 400,
            crate::Scale::Full => 2000,
        },
        seed: ROOT_SEED,
        ..Default::default()
    }
}

/// Ablation 1 — probabilistic vs deterministic constraints: plan against a
/// mean-based (50th percentile) deadline and against the 96% requirement;
/// compare realized deadline hit rates over repeated executions.
pub fn prob_vs_det(env: &Env) -> AblationResult {
    let wf = generators::montage(1, ROOT_SEED);
    let mut rows = Vec::new();
    for (label, pct) in [("deterministic (mean)", 0.5), ("probabilistic 96%", 0.96)] {
        let mut p = tight_problem(env, &wf, pct);
        if pct == 0.5 {
            // The deterministic approach has no notion of a variance
            // reserve: it packs to the full deadline and judges by the
            // mean (the paper's "deterministic notions ... are not
            // suitable" motivation).
            p.pack_safety = 1.0;
        }
        let best = beam_search(&p, &opts(env), 4, &env.backend())
            .best
            .expect("feasible");
        let plan = p.plan_of(&best.0);
        let (makespans, costs) =
            run_plan_many(&env.spec, &wf, &plan, env.scale.runs(), ROOT_SEED ^ 0xAB1);
        let deadline = env.tight_deadline(&wf);
        let hit =
            makespans.iter().filter(|&&m| m <= deadline).count() as f64 / makespans.len() as f64;
        rows.push(AblationRow {
            label: label.into(),
            values: vec![deco_prob::stats::mean(&costs), hit],
        });
    }
    AblationResult {
        title: "Ablation: probabilistic vs deterministic deadline (96% target)".into(),
        columns: vec!["cost", "hit rate"],
        rows,
    }
}

/// Ablation 2 — A* pruning vs generic exploration (promote-only space).
pub fn astar_vs_generic(env: &Env) -> AblationResult {
    let wf = generators::pipeline(4, 600.0, 32 << 20);
    let mut p = problem(env, &wf, 0.9);
    p.promote_only = true;
    // A* incumbent pruning is licensed by the monotone Equation (1)
    // objective (the paper's formulation).
    p.objective = deco_core::ObjectiveMode::FractionalMean;
    let g = generic_search(&p, &opts(env), &env.backend());
    let a = astar_search(&p, &opts(env), &env.backend());
    let cost = |r: &deco_solver::SearchResult<Vec<usize>>| {
        r.best
            .as_ref()
            .map(|(_, e)| e.objective)
            .unwrap_or(f64::NAN)
    };
    AblationResult {
        title: "Ablation: A* pruning vs generic search (4-task chain)".into(),
        columns: vec!["states", "cost"],
        rows: vec![
            AblationRow {
                label: "generic (Algorithm 2)".into(),
                values: vec![g.stats.states_evaluated as f64, cost(&g)],
            },
            AblationRow {
                label: "astar".into(),
                values: vec![a.stats.states_evaluated as f64, cost(&a)],
            },
        ],
    }
}

/// Ablation 3 — exploration (BFS) vs exploitation (beam) at equal budget.
pub fn explore_vs_exploit(env: &Env) -> AblationResult {
    let wf = generators::montage(1, ROOT_SEED ^ 3);
    let p = problem(env, &wf, 0.9);
    let o = opts(env);
    let bfs = generic_search(&p, &o, &env.backend());
    let beam = beam_search(&p, &o, 4, &env.backend());
    let get = |r: &deco_solver::SearchResult<Vec<usize>>| {
        (
            r.stats.states_evaluated as f64,
            r.best
                .as_ref()
                .map(|(_, e)| e.objective)
                .unwrap_or(f64::NAN),
        )
    };
    let (bs, bc) = get(&bfs);
    let (ss, sc) = get(&beam);
    AblationResult {
        title: "Ablation: exploration (BFS) vs exploitation (beam), equal state budget".into(),
        columns: vec!["states", "cost"],
        rows: vec![
            AblationRow {
                label: "breadth-first".into(),
                values: vec![bs, bc],
            },
            AblationRow {
                label: "beam(4)".into(),
                values: vec![ss, sc],
            },
        ],
    }
}

/// Ablation 4 — Monte-Carlo iteration count: plan quality and realized
/// feasibility vs `Max_iter`.
pub fn mc_iterations(env: &Env) -> AblationResult {
    let wf = generators::montage(1, ROOT_SEED ^ 4);
    let deadline = env.tight_deadline(&wf);
    let mut rows = Vec::new();
    for iters in [10usize, 50, 100, 400] {
        let mut p = tight_problem(env, &wf, 0.96);
        p.mc_iters = iters;
        match beam_search(&p, &opts(env), 4, &env.backend()).best {
            Some((state, eval)) => {
                let plan = p.plan_of(&state);
                let (makespans, _) =
                    run_plan_many(&env.spec, &wf, &plan, env.scale.runs(), ROOT_SEED ^ 0xAB4);
                let hit = makespans.iter().filter(|&&m| m <= deadline).count() as f64
                    / makespans.len() as f64;
                rows.push(AblationRow {
                    label: format!("Max_iter = {iters}"),
                    values: vec![eval.objective, hit],
                });
            }
            None => rows.push(AblationRow {
                label: format!("Max_iter = {iters} (no plan)"),
                values: vec![f64::NAN, 0.0],
            }),
        }
    }
    AblationResult {
        title: "Ablation: Monte-Carlo iterations per state".into(),
        columns: vec!["cost", "hit rate"],
        rows,
    }
}

/// Ablation 5 — transformation-operation set: promote-only vs the full
/// bidirectional set.
pub fn operation_set(env: &Env) -> AblationResult {
    let wf = generators::montage(1, ROOT_SEED ^ 5);
    let mut rows = Vec::new();
    for (label, promote_only) in [("promote-only", true), ("promote+demote", false)] {
        let mut p = problem(env, &wf, 0.9);
        p.promote_only = promote_only;
        let r = beam_search(&p, &opts(env), 4, &env.backend());
        rows.push(AblationRow {
            label: label.into(),
            values: vec![
                r.stats.states_evaluated as f64,
                r.best
                    .as_ref()
                    .map(|(_, e)| e.objective)
                    .unwrap_or(f64::NAN),
            ],
        });
    }
    AblationResult {
        title: "Ablation: transformation-operation set".into(),
        columns: vec!["states", "cost"],
        rows,
    }
}

/// Run all ablations.
pub fn all(env: &Env) -> Vec<AblationResult> {
    vec![
        prob_vs_det(env),
        astar_vs_generic(env),
        explore_vs_exploit(env),
        mc_iterations(env),
        operation_set(env),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn probabilistic_planning_hits_requirement_where_mean_planning_fails() {
        let env = Env::new(Scale::Quick);
        let r = prob_vs_det(&env);
        let det_hit = r.rows[0].values[1];
        let prob_hit = r.rows[1].values[1];
        assert!(
            prob_hit >= det_hit,
            "probabilistic planning cannot hit less often ({prob_hit} vs {det_hit})"
        );
        assert!(prob_hit >= 0.8, "96% requirement run realized {prob_hit}");
    }

    #[test]
    fn astar_explores_no_more_than_generic() {
        let env = Env::new(Scale::Quick);
        let r = astar_vs_generic(&env);
        let g_states = r.rows[0].values[0];
        let a_states = r.rows[1].values[0];
        assert!(a_states <= g_states);
        // Both find the same optimum.
        assert!((r.rows[0].values[1] - r.rows[1].values[1]).abs() < 1e-6);
    }

    #[test]
    fn beam_finds_feasible_cheaper_or_equal_to_bfs() {
        let env = Env::new(Scale::Quick);
        let r = explore_vs_exploit(&env);
        let bfs_cost = r.rows[0].values[1];
        let beam_cost = r.rows[1].values[1];
        assert!(!beam_cost.is_nan(), "beam must find a plan");
        // BFS may fail to find anything within budget; when it does find a
        // plan, beam is at least as good.
        if !bfs_cost.is_nan() {
            assert!(beam_cost <= bfs_cost * 1.05);
        }
    }

    #[test]
    fn more_mc_iterations_do_not_hurt_feasibility() {
        let env = Env::new(Scale::Quick);
        let r = mc_iterations(&env);
        let hit_10 = r.rows[0].values[1];
        let hit_400 = r.rows.last().unwrap().values[1];
        assert!(hit_400 >= hit_10 - 0.15, "{hit_400} vs {hit_10}");
    }

    #[test]
    fn full_operation_set_is_at_least_as_cheap() {
        let env = Env::new(Scale::Quick);
        let r = operation_set(&env);
        let promote_only = r.rows[0].values[1];
        let full = r.rows[1].values[1];
        assert!(!full.is_nan());
        if !promote_only.is_nan() {
            assert!(full <= promote_only * 1.05, "{full} vs {promote_only}");
        }
    }
}
