//! Autoscaling (Mao & Humphrey, "Auto-scaling to Minimize Cost and Meet
//! Application Deadlines in Cloud Workflows", SC'11).
//!
//! The algorithm the paper compares Deco against on the workflow
//! scheduling problem. Its pipeline, reproduced here:
//!
//! 1. **Deadline assignment** — distribute the workflow deadline over the
//!    DAG's levels proportionally to each level's expected duration on a
//!    reference (fastest) type, so every task receives its level's
//!    duration budget.
//! 2. **Instance selection** — for each task, the most *cost-efficient*
//!    type that still meets the task's sub-deadline on mean execution
//!    times (deterministic — Autoscaling has no notion of performance
//!    distributions, which is exactly where Deco's probabilistic
//!    evaluation wins).
//! 3. **Consolidation** — pack the typed tasks onto instances to exploit
//!    partial hours (shared with every other algorithm in this repository
//!    via [`Plan::packed`]).
//!
//! The known weakness the paper exploits: deadline assignment fixes each
//! task's budget *locally*, so slack cannot be shifted between levels, and
//! mean-based selection under-provisions high-percentile requirements.

use deco_cloud::plan::mean_exec_seconds;
use deco_cloud::{CloudSpec, Plan};
use deco_workflow::Workflow;

/// The per-level *duration budget* each task must fit into.
fn level_budgets(
    wf: &Workflow,
    spec: &CloudSpec,
    deadline: f64,
    reference_type: usize,
) -> Vec<f64> {
    let groups = wf.level_groups();
    let weights: Vec<f64> = groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|&t| mean_exec_seconds(spec, reference_type, wf, t))
                .fold(0.0f64, f64::max)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total * deadline).collect()
}

/// Instance types chosen by Autoscaling for every task.
pub fn autoscaling_types(wf: &Workflow, spec: &CloudSpec, deadline: f64) -> Vec<usize> {
    let reference = spec.priciest_type();
    let budgets = level_budgets(wf, spec, deadline, reference);
    let levels = wf.levels();
    wf.task_ids()
        .map(|t| {
            let budget = budgets[levels[t.index()]];
            // Cost-efficiency: cheapest hourly price among the types whose
            // mean execution time fits the budget; fall back to the
            // fastest type when none fits.
            (0..spec.k())
                .filter(|&ty| mean_exec_seconds(spec, ty, wf, t) <= budget)
                .min_by(|&a, &b| {
                    spec.types[a]
                        .price_per_hour
                        .total_cmp(&spec.types[b].price_per_hour)
                })
                .unwrap_or(reference)
        })
        .collect()
}

/// The complete Autoscaling plan: typed selection + consolidation (the
/// same deadline-aware packer every algorithm uses, so comparisons isolate
/// the *type selection* policy).
pub fn autoscaling_plan(wf: &Workflow, spec: &CloudSpec, deadline: f64, region: usize) -> Plan {
    let types = autoscaling_types(wf, spec, deadline);
    Plan::packed_deadline(wf, &types, region, spec, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::plan::mean_exec_seconds;
    use deco_workflow::generators;

    fn spec() -> CloudSpec {
        CloudSpec::amazon_ec2()
    }

    /// Critical-path mean makespan under a type assignment.
    fn mean_makespan(wf: &Workflow, spec: &CloudSpec, types: &[usize]) -> f64 {
        wf.critical_path(|t| mean_exec_seconds(spec, types[t.index()], wf, t))
            .1
    }

    #[test]
    fn subdeadlines_are_monotone_over_levels() {
        let spec = spec();
        let wf = generators::montage(1, 1);
        // A level's sub-deadline is the prefix sum of the level budgets.
        let mut acc = 0.0;
        let level_deadline: Vec<f64> = level_budgets(&wf, &spec, 1000.0, 3)
            .iter()
            .map(|b| {
                acc += b;
                acc
            })
            .collect();
        let levels = wf.levels();
        let d: Vec<f64> = wf
            .task_ids()
            .map(|t| level_deadline[levels[t.index()]])
            .collect();
        for e in wf.edges() {
            assert!(
                d[e.from.index()] <= d[e.to.index()] + 1e-9,
                "parent deadline after child"
            );
            assert!(levels[e.from.index()] < levels[e.to.index()]);
        }
        // The last level's deadline is the workflow deadline.
        let max = d.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn tight_deadline_buys_big_instances() {
        let spec = spec();
        let wf = generators::montage(1, 2);
        // Dmin-ish: everything on the fastest type along the critical path.
        let tight = mean_makespan(&wf, &spec, &vec![3; wf.len()]) * 1.2;
        let types = autoscaling_types(&wf, &spec, tight);
        let avg: f64 = types.iter().sum::<usize>() as f64 / types.len() as f64;
        assert!(avg > 1.5, "tight deadlines need powerful types, got {avg}");
    }

    #[test]
    fn loose_deadline_buys_cheap_instances() {
        let spec = spec();
        let wf = generators::montage(1, 2);
        let loose = mean_makespan(&wf, &spec, &vec![0; wf.len()]) * 10.0;
        let types = autoscaling_types(&wf, &spec, loose);
        assert!(
            types.iter().all(|&t| t == 0),
            "with huge slack everything fits the cheapest type: {types:?}"
        );
    }

    #[test]
    fn selection_meets_mean_deadline_when_feasible() {
        let spec = spec();
        let wf = generators::montage(1, 3);
        let feasible = mean_makespan(&wf, &spec, &vec![3; wf.len()]) * 2.0;
        let types = autoscaling_types(&wf, &spec, feasible);
        let makespan = mean_makespan(&wf, &spec, &types);
        assert!(
            makespan <= feasible * 1.05,
            "mean makespan {makespan} vs deadline {feasible}"
        );
    }

    #[test]
    fn impossible_deadline_falls_back_to_fastest() {
        let spec = spec();
        let wf = generators::montage(1, 4);
        let types = autoscaling_types(&wf, &spec, 0.001);
        assert!(types.iter().all(|&t| t == spec.priciest_type()));
    }

    #[test]
    fn plan_is_valid_and_consolidated() {
        let spec = spec();
        let wf = generators::montage(1, 5);
        let plan = autoscaling_plan(&wf, &spec, 2000.0, 0);
        plan.validate(&wf, &spec).unwrap();
        assert!(
            plan.slots.len() < wf.len(),
            "consolidation must reuse instances"
        );
    }
}
