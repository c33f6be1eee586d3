//! The mapper: abstract workflow → executable workflow.
//!
//! Pegasus' mapper resolves, for each task, the executable to run and the
//! execution site. In our reproduction a site is a plan slot (a concrete
//! instance of a type in a region); the mapper binds every task to its
//! slot and records the executable invocation line — "an executable
//! workflow contains information such as where to find the executable
//! file of a task and which site the task should execute on".

use deco_cloud::{CloudSpec, Plan};
use deco_core::DecoError;
use deco_workflow::{TaskId, Workflow};

/// One mapped task: executable plus site binding.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedTask {
    pub task: TaskId,
    /// Invocation line, e.g. `/usr/bin/mProjectPP`.
    pub executable: String,
    /// Slot index in the plan (the site).
    pub site: usize,
    /// Human-readable site label, e.g. `m1.large@us-east-1#3`.
    pub site_label: String,
}

/// An executable workflow: the abstract DAG plus per-task site bindings.
#[derive(Debug, Clone)]
pub struct ExecutableWorkflow {
    pub workflow: Workflow,
    pub plan: Plan,
    pub mapped: Vec<MappedTask>,
}

impl ExecutableWorkflow {
    /// Bind `wf` to `plan`'s sites.
    pub fn map(wf: &Workflow, plan: &Plan, spec: &CloudSpec) -> Result<Self, DecoError> {
        plan.validate(wf, spec).map_err(DecoError::Plan)?;
        let mapped = wf
            .tasks()
            .map(|t| {
                let site = plan.assign[t.id.index()];
                let slot = plan.slots[site];
                MappedTask {
                    task: t.id,
                    executable: format!("/usr/bin/{}", t.executable),
                    site,
                    site_label: format!(
                        "{}@{}#{}",
                        spec.types[slot.itype].name, spec.regions[slot.region].name, site
                    ),
                }
            })
            .collect();
        Ok(ExecutableWorkflow {
            workflow: wf.clone(),
            plan: plan.clone(),
            mapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::CloudSpec;
    use deco_workflow::generators;

    #[test]
    fn mapping_binds_every_task() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::montage(1, 2);
        let plan = Plan::packed(&wf, &vec![1; wf.len()], 0, &spec);
        let exe = ExecutableWorkflow::map(&wf, &plan, &spec).unwrap();
        assert_eq!(exe.mapped.len(), wf.len());
        assert!(exe.mapped[0].executable.starts_with("/usr/bin/"));
        assert!(exe.mapped[0].site_label.contains("m1.medium"));
        // Site partitioning covers all tasks exactly once.
        let total: usize = (0..plan.slots.len())
            .map(|s| exe.mapped.iter().filter(|m| m.site == s).count())
            .sum();
        assert_eq!(total, wf.len());
    }

    #[test]
    fn mapping_rejects_mismatched_plans() {
        let spec = CloudSpec::amazon_ec2();
        let wf = generators::pipeline(3, 1.0, 0);
        let plan = Plan::single_type(2, 0, 0);
        let err = ExecutableWorkflow::map(&wf, &plan, &spec).unwrap_err();
        assert!(matches!(err, DecoError::Plan(_)), "{err}");
    }
}
