//! The WMS facade: submit a DAX, plan it with the chosen scheduler,
//! execute it on the cloud, and report.

use crate::mapper::ExecutableWorkflow;
use crate::scheduler::{Requirements, Scheduler};
use deco_cloud::sim::run_plan;
use deco_cloud::{CloudSpec, MetadataStore, RetryConfig};
use deco_core::supervisor::{plan_with_fallback, PlanProvenance, SupervisedPlan};
use deco_core::{Deco, DecoError};
use deco_faults::{run_with_faults, FaultInjector};
use deco_prob::stats::Summary;
use deco_solver::SearchBudget;
use deco_workflow::dax::{parse_dax, DaxError};
use deco_workflow::Workflow;

/// Outcome of one execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    pub scheduler: String,
    pub makespan: f64,
    pub cost: f64,
    pub transfer_cost: f64,
    /// Whether the deadline was met in this run.
    pub met_deadline: bool,
}

/// How one fault-injected run ended. Every submitted workflow gets
/// exactly one of these — a member that lost tasks to exhausted retries is
/// reported `Incomplete`, never silently dropped from the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every task completed within the deadline.
    Met,
    /// Every task completed within the deadline, but on a degraded plan
    /// (the supervisor fell back past the full-quality Deco stage, or the
    /// search was truncated by its budget).
    MetDegraded,
    /// Every task completed, but past the deadline.
    Violated,
    /// Some tasks were abandoned after exhausting their retry budget.
    Incomplete {
        /// Number of abandoned tasks.
        abandoned: usize,
    },
}

/// Outcome of one execution under injected faults.
#[derive(Debug, Clone)]
pub struct FaultExecutionReport {
    pub scheduler: String,
    pub makespan: f64,
    pub cost: f64,
    pub transfer_cost: f64,
    pub outcome: RunOutcome,
    /// Attempts killed by instance revocations during this run.
    pub crashes: usize,
    /// Killed tasks re-dispatched onto replacement instances.
    pub retries: usize,
}

/// The workflow management system.
pub struct Pegasus {
    pub spec: CloudSpec,
    pub store: MetadataStore,
}

impl Pegasus {
    pub fn new(store: MetadataStore) -> Self {
        Pegasus {
            spec: store.spec.clone(),
            store,
        }
    }

    /// Submit a DAX document: parse it into the abstract workflow.
    pub fn submit_dax(&self, dax: &str) -> Result<Workflow, DaxError> {
        parse_dax(dax)
    }

    /// Plan an abstract workflow with a scheduler callout and map it.
    pub fn plan(
        &self,
        wf: &Workflow,
        scheduler: &dyn Scheduler,
        req: Requirements,
    ) -> Result<ExecutableWorkflow, DecoError> {
        let plan = scheduler
            .schedule(wf, &self.spec, &self.store, req)
            .ok_or_else(|| {
                DecoError::Infeasible("scheduler found no plan meeting the requirements".into())
            })?;
        ExecutableWorkflow::map(wf, &plan, &self.spec)
    }

    /// Execute a mapped workflow once against the dynamic cloud.
    pub fn execute(
        &self,
        exe: &ExecutableWorkflow,
        req: Requirements,
        scheduler_name: &str,
        seed: u64,
    ) -> ExecutionReport {
        let r = run_plan(&self.spec, &exe.workflow, &exe.plan, seed);
        ExecutionReport {
            scheduler: scheduler_name.to_string(),
            makespan: r.makespan,
            cost: r.cost.total(),
            transfer_cost: r.cost.transfer,
            met_deadline: r.makespan <= req.deadline,
        }
    }

    /// Execute a plan handed back by the plan-serving engine (deco-serve):
    /// map the supervised plan onto the workflow, run it once against the
    /// dynamic cloud, and classify the run with the plan's provenance — a
    /// deadline hit on a degraded (fallback or truncated) plan reports
    /// [`RunOutcome::MetDegraded`], matching the fault-campaign accounting.
    pub fn execute_served(
        &self,
        served: &SupervisedPlan,
        wf: &Workflow,
        req: Requirements,
        seed: u64,
    ) -> Result<(ExecutionReport, RunOutcome), DecoError> {
        let exe = ExecutableWorkflow::map(wf, &served.plan.plan, &self.spec)?;
        let report = self.execute(&exe, req, "served", seed);
        let outcome = if !report.met_deadline {
            RunOutcome::Violated
        } else if served.provenance.degraded() {
            RunOutcome::MetDegraded
        } else {
            RunOutcome::Met
        };
        Ok((report, outcome))
    }

    /// Execute a mapped workflow once under injected faults: the engine
    /// retries killed tasks on replacement instances per `retry`, and the
    /// report carries an explicit [`RunOutcome`] so lossy runs surface in
    /// campaign statistics instead of disappearing.
    pub fn execute_with_faults(
        &self,
        exe: &ExecutableWorkflow,
        req: Requirements,
        scheduler_name: &str,
        injector: &FaultInjector,
        retry: RetryConfig,
        seed: u64,
    ) -> FaultExecutionReport {
        let r = run_with_faults(&self.spec, &exe.workflow, &exe.plan, injector, retry, seed);
        let outcome = if !r.abandoned.is_empty() {
            RunOutcome::Incomplete {
                abandoned: r.abandoned.len(),
            }
        } else if r.result.makespan <= req.deadline {
            RunOutcome::Met
        } else {
            RunOutcome::Violated
        };
        FaultExecutionReport {
            scheduler: scheduler_name.to_string(),
            makespan: r.result.makespan,
            cost: r.result.cost.total(),
            transfer_cost: r.result.cost.transfer,
            outcome,
            crashes: r.crashes,
            retries: r.retries,
        }
    }

    /// Repeated-run campaign under faults: each run draws an independent
    /// fault stream (`fault_seed ^ i`) and dynamics stream, and every run
    /// is accounted for in exactly one outcome bucket.
    #[allow(clippy::too_many_arguments)]
    pub fn run_many_with_faults(
        &self,
        exe: &ExecutableWorkflow,
        req: Requirements,
        scheduler_name: &str,
        model: &deco_faults::FaultModel,
        retry: RetryConfig,
        n: usize,
        fault_seed: u64,
        seed: u64,
    ) -> FaultCampaignReport {
        assert!(n > 0);
        let mut reports = Vec::with_capacity(n);
        for i in 0..n {
            let inj = FaultInjector::new(model.clone(), fault_seed ^ i as u64);
            reports.push(self.execute_with_faults(
                exe,
                req,
                scheduler_name,
                &inj,
                retry,
                deco_prob::rng::splitmix64(seed ^ i as u64),
            ));
        }
        FaultCampaignReport {
            scheduler: scheduler_name.to_string(),
            reports,
        }
    }

    /// Supervised fault campaign: plan through the degradation chain
    /// ([`plan_with_fallback`]), execute `n` fault-injected runs, and —
    /// when a run loses tasks to exhausted retries (instance loss) —
    /// consult the supervisor again with the *remaining* deterministic
    /// budget before retrying that run once on the fresh plan. Deadline
    /// hits on degraded plans are reported [`RunOutcome::MetDegraded`], so
    /// campaign statistics separate optimizer-quality hits from
    /// fallback-quality hits.
    #[allow(clippy::too_many_arguments)]
    pub fn run_many_with_faults_supervised(
        &self,
        deco: &Deco,
        wf: &Workflow,
        req: Requirements,
        model: &deco_faults::FaultModel,
        retry: RetryConfig,
        n: usize,
        fault_seed: u64,
        seed: u64,
        budget: &SearchBudget,
    ) -> Result<SupervisedCampaignReport, DecoError> {
        assert!(n > 0);
        let name = "supervised";
        let sup = plan_with_fallback(deco, wf, req.deadline, req.percentile, budget)?;
        let mut remaining = budget.minus_ticks(sup.provenance.budget_spent);
        let mut exe = ExecutableWorkflow::map(wf, &sup.plan.plan, &self.spec)?;
        let mut provenance = sup.provenance;
        let mut reports = Vec::with_capacity(n);
        let mut replans = 0usize;
        for i in 0..n {
            let inj = FaultInjector::new(model.clone(), fault_seed ^ i as u64);
            let mut r = self.execute_with_faults(
                &exe,
                req,
                name,
                &inj,
                retry,
                deco_prob::rng::splitmix64(seed ^ i as u64),
            );
            if matches!(r.outcome, RunOutcome::Incomplete { .. }) {
                // Instance loss defeated the retry budget: replan with
                // whatever deterministic budget is left and retry once.
                let again = plan_with_fallback(deco, wf, req.deadline, req.percentile, &remaining)?;
                remaining = remaining.minus_ticks(again.provenance.budget_spent);
                exe = ExecutableWorkflow::map(wf, &again.plan.plan, &self.spec)?;
                provenance = again.provenance;
                replans += 1;
                r = self.execute_with_faults(
                    &exe,
                    req,
                    name,
                    &inj,
                    retry,
                    deco_prob::rng::splitmix64(seed ^ i as u64 ^ 0x5EED),
                );
            }
            if r.outcome == RunOutcome::Met && provenance.degraded() {
                r.outcome = RunOutcome::MetDegraded;
            }
            reports.push(r);
        }
        Ok(SupervisedCampaignReport {
            report: FaultCampaignReport {
                scheduler: name.to_string(),
                reports,
            },
            provenance,
            replans,
        })
    }

    /// The paper's experimental protocol: run the planned workflow `n`
    /// times against the dynamic cloud; report per-run costs and
    /// makespans plus the fraction of runs meeting the deadline.
    pub fn run_many(
        &self,
        exe: &ExecutableWorkflow,
        req: Requirements,
        scheduler_name: &str,
        n: usize,
        seed: u64,
    ) -> CampaignReport {
        assert!(n > 0);
        let mut costs = Vec::with_capacity(n);
        let mut makespans = Vec::with_capacity(n);
        let mut met = 0usize;
        for i in 0..n {
            let r = self.execute(
                exe,
                req,
                scheduler_name,
                deco_prob::rng::splitmix64(seed ^ i as u64),
            );
            if r.met_deadline {
                met += 1;
            }
            costs.push(r.cost);
            makespans.push(r.makespan);
        }
        CampaignReport {
            scheduler: scheduler_name.to_string(),
            costs,
            makespans,
            deadline_hit_rate: met as f64 / n as f64,
        }
    }
}

/// Aggregate of a repeated-run campaign (the 100-run averages the paper
/// reports).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub scheduler: String,
    pub costs: Vec<f64>,
    pub makespans: Vec<f64>,
    /// Fraction of runs whose makespan met the deadline (compared against
    /// the probabilistic requirement).
    pub deadline_hit_rate: f64,
}

/// Aggregate of a fault-injected campaign. `met + violated + incomplete`
/// always equals the number of runs — the accounting identity the chaos
/// tests assert.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    pub scheduler: String,
    pub reports: Vec<FaultExecutionReport>,
}

/// A fault campaign planned and re-planned through the supervisor.
#[derive(Debug, Clone)]
pub struct SupervisedCampaignReport {
    pub report: FaultCampaignReport,
    /// Provenance of the plan the campaign ended on.
    pub provenance: PlanProvenance,
    /// Times the supervisor was re-consulted after instance loss.
    pub replans: usize,
}

impl FaultCampaignReport {
    pub fn met(&self) -> usize {
        self.count(|o| o == RunOutcome::Met)
    }
    /// Deadline hits achieved on a degraded (fallback or truncated) plan.
    pub fn met_degraded(&self) -> usize {
        self.count(|o| o == RunOutcome::MetDegraded)
    }
    pub fn violated(&self) -> usize {
        self.count(|o| o == RunOutcome::Violated)
    }
    pub fn incomplete(&self) -> usize {
        self.count(|o| matches!(o, RunOutcome::Incomplete { .. }))
    }
    pub fn total_crashes(&self) -> usize {
        self.reports.iter().map(|r| r.crashes).sum()
    }
    pub fn mean_cost(&self) -> f64 {
        let costs: Vec<f64> = self.reports.iter().map(|r| r.cost).collect();
        deco_prob::stats::mean(&costs)
    }
    fn count(&self, pred: impl Fn(RunOutcome) -> bool) -> usize {
        self.reports.iter().filter(|r| pred(r.outcome)).count()
    }
}

impl CampaignReport {
    pub fn mean_cost(&self) -> f64 {
        deco_prob::stats::mean(&self.costs)
    }
    pub fn mean_makespan(&self) -> f64 {
        deco_prob::stats::mean(&self.makespans)
    }
    /// Five-number summary of normalized makespans (Figure 2's box data).
    pub fn makespan_summary(&self) -> Summary {
        Summary::of(&self.makespans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{
        AutoscalingScheduler, DecoScheduler, RandomScheduler, SingleTypeScheduler,
    };
    use deco_workflow::dax::emit_dax;
    use deco_workflow::generators;

    fn wms() -> Pegasus {
        let spec = CloudSpec::amazon_ec2();
        Pegasus::new(MetadataStore::from_ground_truth(spec, 25))
    }

    fn req(wf: &Workflow, spec: &CloudSpec) -> Requirements {
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(wf, spec);
        Requirements {
            deadline: 0.5 * (dmin + dmax),
            percentile: 0.9,
        }
    }

    #[test]
    fn dax_submission_round_trips() {
        let wms = wms();
        let wf = generators::montage(1, 20);
        let submitted = wms.submit_dax(&emit_dax(&wf).unwrap()).unwrap();
        assert_eq!(submitted.len(), wf.len());
    }

    #[test]
    fn end_to_end_pipeline_random_scheduler() {
        let wms = wms();
        let wf = generators::montage(1, 21);
        let r = req(&wf, &wms.spec);
        let exe = wms.plan(&wf, &RandomScheduler { seed: 5 }, r).unwrap();
        let report = wms.execute(&exe, r, "random", 1);
        assert!(report.makespan > 0.0);
        assert!(report.cost > 0.0);
    }

    #[test]
    fn campaign_statistics_have_variance() {
        let wms = wms();
        let wf = generators::montage(1, 22);
        let r = req(&wf, &wms.spec);
        let exe = wms.plan(&wf, &SingleTypeScheduler { itype: 1 }, r).unwrap();
        let campaign = wms.run_many(&exe, r, "m1.medium", 20, 7);
        let s = campaign.makespan_summary();
        assert!(s.max > s.min, "cloud dynamics must show up across runs");
        assert!(campaign.mean_cost() > 0.0);
    }

    #[test]
    fn deco_meets_probabilistic_deadline_more_often_than_required() {
        let wms = wms();
        let wf = generators::montage(1, 23);
        let r = req(&wf, &wms.spec);
        let mut sched = DecoScheduler::default();
        sched.options.mc_iters = 60;
        let exe = wms.plan(&wf, &sched, r).expect("feasible");
        let campaign = wms.run_many(&exe, r, "deco", 40, 11);
        assert!(
            campaign.deadline_hit_rate >= r.percentile - 0.12,
            "hit rate {} below requirement {}",
            campaign.deadline_hit_rate,
            r.percentile
        );
    }

    #[test]
    fn deco_is_cheaper_than_autoscaling_at_same_qos() {
        // The headline claim (30-50% cheaper); asserted loosely here, and
        // measured precisely by the Figure 8 bench.
        let wms = wms();
        let wf = generators::montage(1, 24);
        let r = req(&wf, &wms.spec);
        let mut sched = DecoScheduler::default();
        sched.options.mc_iters = 60;
        let deco_exe = wms.plan(&wf, &sched, r).expect("deco feasible");
        let auto_exe = wms
            .plan(&wf, &AutoscalingScheduler, r)
            .expect("autoscaling");
        let deco = wms.run_many(&deco_exe, r, "deco", 30, 13);
        let auto = wms.run_many(&auto_exe, r, "autoscaling", 30, 13);
        assert!(
            deco.mean_cost() <= auto.mean_cost() * 1.05,
            "deco {} should not exceed autoscaling {}",
            deco.mean_cost(),
            auto.mean_cost()
        );
    }

    #[test]
    fn fault_campaign_accounts_for_every_run() {
        let wms = wms();
        let wf = generators::montage(1, 25);
        let r = req(&wf, &wms.spec);
        let exe = wms.plan(&wf, &SingleTypeScheduler { itype: 0 }, r).unwrap();
        let model = deco_faults::FaultModel::uniform_crash(&wms.spec, 1.0);
        let campaign = wms.run_many_with_faults(
            &exe,
            r,
            "m1.small",
            &model,
            RetryConfig::default(),
            12,
            4,
            17,
        );
        assert_eq!(
            campaign.met() + campaign.violated() + campaign.incomplete(),
            campaign.reports.len(),
            "every run lands in exactly one bucket"
        );
        assert!(campaign.total_crashes() > 0, "rate 1/h over 12 runs");
        assert!(campaign.mean_cost() > 0.0);
    }

    #[test]
    fn supervised_campaign_under_tiny_budget_reports_degraded_hits() {
        let wms = wms();
        let wf = generators::montage(1, 27);
        let r = req(&wf, &wms.spec);
        let mut deco = Deco::new(wms.store.clone());
        deco.options.mc_iters = 40;
        deco.options.search.max_states = 400;
        let campaign = wms
            .run_many_with_faults_supervised(
                &deco,
                &wf,
                r,
                &deco_faults::FaultModel::none(),
                RetryConfig::default(),
                5,
                3,
                19,
                &SearchBudget::ticks(1e-12),
            )
            .expect("supervisor always plans");
        assert!(campaign.provenance.degraded());
        assert!(campaign.provenance.truncated);
        let rep = &campaign.report;
        assert_eq!(rep.met(), 0, "degraded plans never report plain Met");
        assert_eq!(
            rep.met_degraded() + rep.violated() + rep.incomplete(),
            rep.reports.len(),
            "every run lands in exactly one bucket"
        );
    }

    #[test]
    fn supervised_campaign_with_full_budget_reports_plain_met() {
        let wms = wms();
        let wf = generators::montage(1, 28);
        let r = req(&wf, &wms.spec);
        let mut deco = Deco::new(wms.store.clone());
        deco.options.mc_iters = 60;
        deco.options.search.max_states = 400;
        let campaign = wms
            .run_many_with_faults_supervised(
                &deco,
                &wf,
                r,
                &deco_faults::FaultModel::none(),
                RetryConfig::default(),
                8,
                5,
                23,
                &SearchBudget::unlimited(),
            )
            .expect("unbudgeted supervision");
        assert_eq!(
            campaign.provenance.stage,
            deco_core::supervisor::PlanStage::Deco
        );
        assert!(!campaign.provenance.degraded());
        assert_eq!(campaign.report.met_degraded(), 0);
        assert_eq!(campaign.replans, 0, "no faults, no instance loss");
        assert!(campaign.report.met() > 0, "deco meets a medium deadline");
    }

    #[test]
    fn supervised_campaign_replans_within_the_remaining_budget() {
        // An aggressive crash rate with a stingy retry budget forces
        // Incomplete runs, which must trigger supervisor replans.
        let wms = wms();
        let wf = generators::montage(1, 29);
        let r = req(&wf, &wms.spec);
        let mut deco = Deco::new(wms.store.clone());
        deco.options.mc_iters = 40;
        deco.options.search.max_states = 200;
        let model = deco_faults::FaultModel::uniform_crash(&wms.spec, 50.0);
        let retry = RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        };
        let campaign = wms
            .run_many_with_faults_supervised(
                &deco,
                &wf,
                r,
                &model,
                retry,
                6,
                9,
                31,
                &SearchBudget::unlimited(),
            )
            .expect("supervised");
        assert!(
            campaign.replans > 0,
            "50/h crash rate with one attempt must lose instances"
        );
        let rep = &campaign.report;
        assert_eq!(
            rep.met() + rep.met_degraded() + rep.violated() + rep.incomplete(),
            rep.reports.len()
        );
    }

    #[test]
    fn served_plans_execute_and_classify_by_provenance() {
        let wms = wms();
        let wf = generators::montage(1, 30);
        let r = req(&wf, &wms.spec);
        let mut deco = Deco::new(wms.store.clone());
        deco.options.mc_iters = 40;
        deco.options.search.max_states = 200;
        let served = plan_with_fallback(
            &deco,
            &wf,
            r.deadline,
            r.percentile,
            &SearchBudget::unlimited(),
        )
        .expect("feasible");
        let (report, outcome) = wms.execute_served(&served, &wf, r, 33).expect("maps");
        assert!(report.makespan > 0.0 && report.cost > 0.0);
        if report.met_deadline {
            assert_eq!(outcome, RunOutcome::Met, "full-quality plan hits plainly");
        } else {
            assert_eq!(outcome, RunOutcome::Violated);
        }
        // A budget-truncated plan can only ever report a degraded hit.
        let degraded = plan_with_fallback(
            &deco,
            &wf,
            r.deadline,
            r.percentile,
            &SearchBudget::ticks(1e-12),
        )
        .expect("supervisor always plans");
        assert!(degraded.provenance.degraded());
        let (report, outcome) = wms.execute_served(&degraded, &wf, r, 33).expect("maps");
        assert_eq!(
            outcome,
            if report.met_deadline {
                RunOutcome::MetDegraded
            } else {
                RunOutcome::Violated
            }
        );
    }

    #[test]
    fn quiescent_faults_reproduce_the_plain_report() {
        let wms = wms();
        let wf = generators::montage(1, 26);
        let r = req(&wf, &wms.spec);
        let exe = wms.plan(&wf, &SingleTypeScheduler { itype: 1 }, r).unwrap();
        let plain = wms.execute(&exe, r, "m1.medium", 21);
        let inj = FaultInjector::new(deco_faults::FaultModel::none(), 0);
        let faulty =
            wms.execute_with_faults(&exe, r, "m1.medium", &inj, RetryConfig::default(), 21);
        assert_eq!(plain.makespan.to_bits(), faulty.makespan.to_bits());
        assert_eq!(plain.cost.to_bits(), faulty.cost.to_bits());
        assert_eq!(
            faulty.outcome,
            if plain.met_deadline {
                RunOutcome::Met
            } else {
                RunOutcome::Violated
            }
        );
    }
}
