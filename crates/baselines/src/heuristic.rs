//! The follow-the-cost comparator (paper Section 6.1, "Heuristic").
//!
//! "At the offline stage, we consider the price differences among cloud
//! data centers and determine the plan of migrating the workflows from
//! their initial deployed data center to the more cost-efficient one. At
//! runtime, we monitor the task execution time and make migration
//! adjustments when the monitored execution time differs from the
//! estimation by a threshold."

use deco_cloud::plan::mean_exec_seconds;
use deco_cloud::sim::{RuntimePolicy, Simulation};
use deco_cloud::CloudSpec;
use deco_workflow::Workflow;

/// The offline stage: pick the cheaper region for the whole workflow,
/// charging the migration's transfer bytes against the price difference.
pub fn offline_region_choice(
    wf: &Workflow,
    spec: &CloudSpec,
    types: &[usize],
    initial_region: usize,
) -> usize {
    let mut best = initial_region;
    let mut best_cost = f64::INFINITY;
    for (r, _) in spec.regions.iter().enumerate() {
        // Execution cost: mean instance-seconds priced in region r.
        let exec: f64 = wf
            .task_ids()
            .map(|t| {
                let ty = types[t.index()];
                mean_exec_seconds(spec, ty, wf, t) / 3600.0 * spec.price(ty, r)
            })
            .sum();
        // Migration cost: staged input bytes cross the region boundary.
        let migration = if r == initial_region {
            0.0
        } else {
            let bytes: f64 = wf
                .roots()
                .iter()
                .map(|&t| wf.task(t).profile.read_bytes)
                .sum();
            bytes / (1024.0 * 1024. * 1024.0) * spec.inter_region_price_per_gb
        };
        let total = exec + migration;
        if total < best_cost {
            best_cost = total;
            best = r;
        }
    }
    best
}

/// The runtime stage: a [`RuntimePolicy`] that re-runs the offline decision
/// whenever a finished task's measured duration deviates from its estimate
/// by more than `threshold` (relative).
pub struct FollowCostHeuristic {
    pub spec: CloudSpec,
    pub types: Vec<usize>,
    pub threshold: f64,
    /// Estimated duration per task (mean model), set at construction.
    estimates: Vec<f64>,
    /// Tasks whose deviation we already reacted to.
    handled: Vec<bool>,
    /// Count of runtime adjustments performed (exposed for the Figure 10b
    /// overhead/threshold trade-off study).
    pub adjustments: usize,
}

impl FollowCostHeuristic {
    pub fn new(wf: &Workflow, spec: CloudSpec, types: Vec<usize>, threshold: f64) -> Self {
        assert!(threshold > 0.0);
        assert_eq!(types.len(), wf.len());
        let estimates = wf
            .task_ids()
            .map(|t| mean_exec_seconds(&spec, types[t.index()], wf, t))
            .collect();
        FollowCostHeuristic {
            spec,
            types,
            threshold,
            estimates,
            handled: vec![false; wf.len()],
            adjustments: 0,
        }
    }
}

impl RuntimePolicy for FollowCostHeuristic {
    fn replan(&mut self, sim: &mut Simulation<'_>, wf: &Workflow) {
        // Monitor: any newly dispatched task whose *measured* duration
        // deviates from its estimate by more than the threshold?
        let mut triggered = false;
        for t in wf.task_ids() {
            if self.handled[t.index()] || !sim.is_started(t) {
                continue;
            }
            self.handled[t.index()] = true;
            let est = self.estimates[t.index()];
            if est <= 0.0 {
                continue;
            }
            let measured = sim.duration_of(t).expect("started task has a duration");
            if (measured - est).abs() / est > self.threshold {
                triggered = true;
            }
        }
        // First replan always runs the offline stage once (initial
        // migration decision); afterwards only on trigger.
        if self.adjustments > 0 && !triggered {
            return;
        }
        self.adjustments += 1;
        let pending = sim.pending_tasks();
        if pending.is_empty() {
            return;
        }
        // Offline decision for the remaining tasks.
        let current_region = sim.plan().task_region(pending[0]);
        let target = offline_region_choice(wf, &self.spec, &self.types, current_region);
        if target != current_region {
            sim.migrate(&pending, target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::sim::run_with_policy;
    use deco_cloud::Plan;
    use deco_workflow::generators;

    #[test]
    fn offline_choice_prefers_cheap_region_for_compute_heavy_work() {
        let spec = CloudSpec::amazon_ec2();
        // Heavy CPU, tiny data: migration is nearly free, so the cheaper
        // region (0) wins even when starting in region 1.
        let wf = generators::pipeline(4, 5000.0, 1024);
        let choice = offline_region_choice(&wf, &spec, &[2; 4], 1);
        assert_eq!(choice, 0, "us-east is 33% cheaper");
    }

    #[test]
    fn offline_choice_stays_put_when_data_dominates() {
        let mut spec = CloudSpec::amazon_ec2();
        spec.inter_region_price_per_gb = 1e6; // prohibitive transfer
        let wf = generators::pipeline(2, 1.0, 10 * 1024 * 1024 * 1024);
        let choice = offline_region_choice(&wf, &spec, &[0; 2], 1);
        assert_eq!(choice, 1, "staying in the pricier region avoids transfer");
    }

    #[test]
    fn policy_migrates_a_workflow_started_in_the_expensive_region() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(4, 3000.0, 1024);
        let types = vec![0; 4];
        let plan = Plan::packed(&wf, &types, 1, &spec); // starts in Singapore
        let mut policy = FollowCostHeuristic::new(&wf, spec.clone(), types, 0.5);
        let r = run_with_policy(&spec, &wf, &plan, &mut policy, 100.0, 3);
        assert!(policy.adjustments >= 1);
        // At least one later task must have moved to region 0 (it pays a
        // cross-region transfer on the way).
        assert!(
            r.cost.transfer > 0.0,
            "migration crosses the region boundary"
        );
    }

    #[test]
    fn already_cheap_region_stays_without_transfer() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(4, 3000.0, 1024);
        let types = vec![0; 4];
        let plan = Plan::packed(&wf, &types, 0, &spec);
        let mut policy = FollowCostHeuristic::new(&wf, spec.clone(), types, 0.5);
        let r = run_with_policy(&spec, &wf, &plan, &mut policy, 100.0, 4);
        assert_eq!(r.cost.transfer, 0.0);
    }
}
