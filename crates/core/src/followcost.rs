//! Use case 3 — follow-the-cost (Section 3.3).
//!
//! Workflows run across multiple cloud regions with different prices;
//! migrating a partially executed workflow to a cheaper region saves
//! execution cost but pays for moving intermediate data (Equations
//! (7)–(9)) and must still meet each workflow's deadline (Equation (10)).
//! Migration decisions are made *at runtime*; the paper uses the
//! deterministic (static) deadline notion here to exercise Deco's
//! light-weight re-optimization.
//!
//! The search state is the paper's: "an array of integers, where each
//! dimension stands for a migration decision for a workflow" — the target
//! region per workflow. The evaluation is deterministic (probability-1.0
//! IR translation): remaining execution cost at current estimates plus
//! migration transfer cost, subject to estimated completion within the
//! deadline. Generic search explores the region-assignment space.
//!
//! [`DecoFollowCost`] wraps the optimizer as a [`RuntimePolicy`] so the
//! execution engine re-plans periodically, re-optimizing with the runtime
//! performance observed so far (the paper's re-optimization examples:
//! tasks finishing early ⇒ cheaper children; degraded inter-cloud
//! bandwidth ⇒ cancel a migration).

use deco_cloud::plan::mean_exec_seconds;
use deco_cloud::sim::{RuntimePolicy, Simulation};
use deco_cloud::CloudSpec;
use deco_solver::{
    generic_search, EvalBackend, Evaluation, SearchOptions, SearchProblem, SearchResult,
};
use deco_workflow::{TaskId, Workflow};

/// A snapshot of one workflow's remaining work, extracted at a decision
/// epoch.
#[derive(Debug, Clone)]
pub struct WorkflowSnapshot {
    /// Region each workflow's pending tasks currently target.
    pub current_region: usize,
    /// Instance type per task (fixed by the scheduling stage).
    pub types: Vec<usize>,
    /// Pending (not yet dispatched) tasks.
    pub pending: Vec<TaskId>,
    /// Estimated remaining critical-path seconds (from now).
    pub remaining_path_seconds: f64,
    /// Seconds until the workflow's deadline (from now).
    pub slack_seconds: f64,
    /// Bytes that would cross the region boundary if migrated now
    /// (intermediate data feeding pending tasks).
    pub migration_bytes: f64,
    /// Estimated remaining instance-seconds, per type (for pricing).
    pub remaining_busy_seconds: f64,
    /// Weighted mean hourly base price of the remaining work's types.
    pub mean_base_price: f64,
    /// Hourly base prices of the distinct instances still serving pending
    /// tasks. Migrating restarts each of them in the target region, which
    /// re-bills a partial instance-hour per instance.
    pub pending_slot_prices: Vec<f64>,
}

impl WorkflowSnapshot {
    /// Build a snapshot from a live simulation.
    pub fn capture(
        sim: &Simulation<'_>,
        wf: &Workflow,
        spec: &CloudSpec,
        types: &[usize],
        deadline: f64,
    ) -> Option<WorkflowSnapshot> {
        let pending = sim.pending_tasks();
        if pending.is_empty() {
            return None;
        }
        let current_region = sim.plan().task_region(pending[0]);
        let pending_set: std::collections::HashSet<TaskId> = pending.iter().copied().collect();
        // Remaining critical path over pending tasks only.
        let (_, remaining_path_seconds) = wf.critical_path(|t| {
            if pending_set.contains(&t) {
                mean_exec_seconds(spec, types[t.index()], wf, t)
            } else {
                0.0
            }
        });
        let migration_bytes: f64 = pending
            .iter()
            .flat_map(|&t| {
                wf.parents(t)
                    .filter(|p| !pending_set.contains(p))
                    .map(move |p| wf.edge_bytes(p, t).unwrap_or(0.0))
            })
            .sum();
        let remaining_busy_seconds: f64 = pending
            .iter()
            .map(|&t| mean_exec_seconds(spec, types[t.index()], wf, t))
            .sum();
        let mean_base_price = if remaining_busy_seconds > 0.0 {
            pending
                .iter()
                .map(|&t| {
                    mean_exec_seconds(spec, types[t.index()], wf, t)
                        * spec.types[types[t.index()]].price_per_hour
                })
                .sum::<f64>()
                / remaining_busy_seconds
        } else {
            0.0
        };
        let mut slots: Vec<usize> = pending
            .iter()
            .map(|&t| sim.plan().assign[t.index()])
            .collect();
        slots.sort_unstable();
        slots.dedup();
        // A lost instance (revoked or unbootable) must be replaced whether
        // or not we migrate, so it contributes no migration restart cost.
        let pending_slot_prices = slots
            .iter()
            .filter(|&&s| !sim.slot_lost(s))
            .map(|&s| spec.types[sim.plan().slots[s].itype].price_per_hour)
            .collect();
        Some(WorkflowSnapshot {
            current_region,
            types: types.to_vec(),
            pending,
            remaining_path_seconds,
            slack_seconds: deadline - sim.now(),
            migration_bytes,
            remaining_busy_seconds,
            mean_base_price,
            pending_slot_prices,
        })
    }
}

/// The migration optimization over a set of workflows.
pub struct FollowCostProblem<'a> {
    pub spec: &'a CloudSpec,
    pub snapshots: &'a [WorkflowSnapshot],
}

impl FollowCostProblem<'_> {
    /// Deterministic cost of one workflow under a target region:
    /// `EC_i + MC_i` of Equations (8)–(9).
    fn workflow_cost(&self, snap: &WorkflowSnapshot, region: usize) -> f64 {
        let exec = snap.remaining_busy_seconds / 3600.0
            * snap.mean_base_price
            * self.spec.regions[region].price_multiplier;
        let migration = if region == snap.current_region {
            0.0
        } else {
            // Transfer bill plus the expected partial-hour waste of
            // restarting each still-pending instance in the new region
            // (half a billing quantum each, in expectation).
            let transfer = snap.migration_bytes / (1024.0 * 1024.0 * 1024.0)
                * self.spec.inter_region_price_per_gb;
            let restart: f64 = snap
                .pending_slot_prices
                .iter()
                .map(|p| 0.5 * p * self.spec.regions[region].price_multiplier)
                .sum();
            transfer + restart
        };
        exec + migration
    }

    /// Deterministic completion estimate under a target region (Equation
    /// (10)'s left side): remaining path plus the migration transfer time.
    fn workflow_time(&self, snap: &WorkflowSnapshot, region: usize) -> f64 {
        let mut t = snap.remaining_path_seconds;
        if region != snap.current_region {
            t += deco_cloud::dynamics::phase_seconds_mean(
                snap.migration_bytes,
                &self.spec.cross_region_net(),
            );
        }
        t
    }

    pub fn solve(&self, opts: &SearchOptions, backend: &EvalBackend) -> SearchResult<Vec<usize>> {
        generic_search(self, opts, backend)
    }
}

impl SearchProblem for FollowCostProblem<'_> {
    type State = Vec<usize>;
    type Scratch = ();

    fn initial(&self) -> Vec<usize> {
        self.snapshots.iter().map(|s| s.current_region).collect()
    }

    fn neighbors(&self, s: &Vec<usize>) -> Vec<Vec<usize>> {
        // Change one workflow's target region.
        let mut out = Vec::new();
        for (i, snap) in self.snapshots.iter().enumerate() {
            let _ = snap;
            for r in 0..self.spec.regions.len() {
                if s[i] != r {
                    let mut child = s.clone();
                    child[i] = r;
                    out.push(child);
                }
            }
        }
        out
    }

    fn evaluate(&self, s: &Vec<usize>, _seed: u64, _: &mut ()) -> Evaluation {
        let mut cost = 0.0;
        let mut feasible = true;
        let mut min_slack_ratio = f64::INFINITY;
        for (snap, &region) in self.snapshots.iter().zip(s) {
            cost += self.workflow_cost(snap, region);
            let t = self.workflow_time(snap, region);
            if t > snap.slack_seconds {
                feasible = false;
            }
            let ratio = if t > 0.0 {
                (snap.slack_seconds / t).min(1.0)
            } else {
                1.0
            };
            min_slack_ratio = min_slack_ratio.min(ratio.max(0.0));
        }
        Evaluation {
            feasible,
            objective: cost,
            constraint_margin: if min_slack_ratio.is_finite() {
                min_slack_ratio
            } else {
                1.0
            },
        }
    }

    fn state_bytes(&self) -> usize {
        self.snapshots.len() * 8
    }
}

/// Deco as a runtime migration policy for one workflow.
pub struct DecoFollowCost {
    pub spec: CloudSpec,
    pub types: Vec<usize>,
    pub deadline: f64,
    pub opts: SearchOptions,
    /// Number of re-optimizations performed.
    pub replans: usize,
}

impl DecoFollowCost {
    pub fn new(spec: CloudSpec, types: Vec<usize>, deadline: f64) -> Self {
        DecoFollowCost {
            spec,
            types,
            deadline,
            opts: SearchOptions {
                max_states: 64,
                ..Default::default()
            },
            replans: 0,
        }
    }
}

impl RuntimePolicy for DecoFollowCost {
    fn replan(&mut self, sim: &mut Simulation<'_>, wf: &Workflow) {
        let Some(snap) = WorkflowSnapshot::capture(sim, wf, &self.spec, &self.types, self.deadline)
        else {
            return;
        };
        self.replans += 1;
        let snaps = [snap];
        let problem = FollowCostProblem {
            spec: &self.spec,
            snapshots: &snaps,
        };
        let result = problem.solve(&self.opts, &EvalBackend::SeqCpu);
        let Some((state, _)) = result.best else {
            return;
        };
        let target = state[0];
        if target != snaps[0].current_region {
            sim.migrate(&snaps[0].pending, target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::sim::run_with_policy;
    use deco_cloud::Plan;
    use deco_workflow::generators;

    fn snap(region: usize, busy: f64, bytes: f64, slack: f64) -> WorkflowSnapshot {
        WorkflowSnapshot {
            current_region: region,
            types: vec![0],
            pending: vec![TaskId(0)],
            remaining_path_seconds: busy,
            slack_seconds: slack,
            migration_bytes: bytes,
            remaining_busy_seconds: busy,
            mean_base_price: 0.1,
            pending_slot_prices: vec![0.1],
        }
    }

    #[test]
    fn migrates_compute_heavy_work_to_cheap_region() {
        let spec = CloudSpec::amazon_ec2();
        let snaps = vec![snap(1, 50_000.0, 1024.0, 1e9)];
        let p = FollowCostProblem {
            spec: &spec,
            snapshots: &snaps,
        };
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (state, eval) = r.best.unwrap();
        assert_eq!(state, vec![0], "us-east is cheaper");
        assert!(eval.feasible);
    }

    #[test]
    fn stays_when_migration_data_dominates() {
        let mut spec = CloudSpec::amazon_ec2();
        spec.inter_region_price_per_gb = 100.0;
        let snaps = vec![snap(1, 100.0, 50.0 * 1024.0 * 1024.0 * 1024.0, 1e9)];
        let p = FollowCostProblem {
            spec: &spec,
            snapshots: &snaps,
        };
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (state, _) = r.best.unwrap();
        assert_eq!(state, vec![1], "transfer cost dwarfs the price difference");
    }

    #[test]
    fn deadline_blocks_slow_migrations() {
        let spec = CloudSpec::amazon_ec2();
        // Migration moves 100 GB at ~25 MB/s ≈ 4096 s; slack is 1000 s, so
        // the cheap region is unreachable in time.
        let snaps = vec![snap(1, 500.0, 100.0 * 1024.0 * 1024.0 * 1024.0, 1000.0)];
        let p = FollowCostProblem {
            spec: &spec,
            snapshots: &snaps,
        };
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (state, eval) = r.best.unwrap();
        assert_eq!(state, vec![1], "staying is the only feasible choice");
        assert!(eval.feasible);
    }

    #[test]
    fn multi_workflow_decisions_are_independent_here() {
        let spec = CloudSpec::amazon_ec2();
        let snaps = vec![
            snap(1, 50_000.0, 1024.0, 1e9),
            snap(0, 50_000.0, 1024.0, 1e9),
        ];
        let p = FollowCostProblem {
            spec: &spec,
            snapshots: &snaps,
        };
        let r = p.solve(&SearchOptions::default(), &EvalBackend::SeqCpu);
        let (state, _) = r.best.unwrap();
        assert_eq!(state, vec![0, 0]);
    }

    #[test]
    fn deco_policy_migrates_in_simulation() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(5, 2000.0, 1024);
        let types = vec![0; wf.len()];
        let plan = Plan::packed(&wf, &types, 1, &spec);
        let mut policy = DecoFollowCost::new(spec.clone(), types, 1e9);
        let r = run_with_policy(&spec, &wf, &plan, &mut policy, 500.0, 21);
        assert!(policy.replans >= 1);
        assert!(
            r.cost.transfer > 0.0,
            "the policy should have moved pending work to us-east"
        );
    }

    #[test]
    fn deco_policy_cheaper_than_staying_for_long_workflows() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(6, 3600.0, 1024);
        let types = vec![0; wf.len()];
        let plan = Plan::packed(&wf, &types, 1, &spec);
        let stay = deco_cloud::sim::run_plan(&spec, &wf, &plan, 5);
        let mut policy = DecoFollowCost::new(spec.clone(), types, 1e9);
        let moved = run_with_policy(&spec, &wf, &plan, &mut policy, 600.0, 5);
        assert!(
            moved.cost.total() < stay.cost.total(),
            "migrated {} vs stayed {}",
            moved.cost.total(),
            stay.cost.total()
        );
    }
}
