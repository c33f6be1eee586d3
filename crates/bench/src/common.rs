//! Shared experiment environment.

use crate::Scale;
use deco_cloud::calibration::{calibrate, CalibrationReport};
use deco_cloud::{CloudSpec, MetadataStore};
use deco_core::estimate::deadline_anchors;
use deco_core::{Deco, DecoOptions};
use deco_serve::{PlanRequest, Priority};
use deco_solver::{EvalBackend, SearchOptions};
use deco_workflow::Workflow;

/// The root seed every experiment derives from; change it to re-randomize
/// the whole evaluation coherently.
pub const ROOT_SEED: u64 = 0xDEC0_2015;

/// One fully calibrated environment: the EC2 spec plus a metadata store
/// measured from it.
pub struct Env {
    pub spec: CloudSpec,
    pub store: MetadataStore,
    pub calibration: CalibrationReport,
    pub scale: Scale,
}

impl Env {
    pub fn new(scale: Scale) -> Env {
        let spec = CloudSpec::amazon_ec2();
        let (store, calibration) = calibrate(&spec, scale.calibration_samples(), 40, ROOT_SEED);
        Env {
            spec,
            store,
            calibration,
            scale,
        }
    }

    /// Deco engine options at this scale.
    pub fn deco_options(&self) -> DecoOptions {
        DecoOptions {
            mc_iters: self.scale.mc_iters(),
            search: SearchOptions {
                max_states: match self.scale {
                    Scale::Quick => 600,
                    Scale::Full => 4_000,
                },
                seed: ROOT_SEED,
                ..Default::default()
            },
            beam_width: 4,
            wlog_bins: 5,
            retry: None,
        }
    }

    /// Default evaluation backend for planning runs.
    pub fn backend(&self) -> EvalBackend {
        EvalBackend::SeqCpu
    }

    /// The medium deadline of the paper's default setting:
    /// `(Dmin + Dmax) / 2`.
    pub fn medium_deadline(&self, wf: &Workflow) -> f64 {
        let (dmin, dmax) = deadline_anchors(wf, &self.spec);
        0.5 * (dmin + dmax)
    }

    /// Tight deadline: `1.5 * Dmin`.
    pub fn tight_deadline(&self, wf: &Workflow) -> f64 {
        deadline_anchors(wf, &self.spec).0 * 1.5
    }

    /// Loose deadline: `0.75 * Dmax`.
    pub fn loose_deadline(&self, wf: &Workflow) -> f64 {
        deadline_anchors(wf, &self.spec).1 * 0.75
    }
}

/// A Deco engine over the ground-truth metadata store (25 bins): the
/// serving benches' engine, sized by its Monte-Carlo iterations and its
/// search budget in states.
pub fn ground_truth_engine(mc_iters: usize, max_states: usize) -> Deco {
    let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 25);
    let mut d = Deco::new(store);
    d.options.mc_iters = mc_iters;
    d.options.search.max_states = max_states;
    d
}

/// A serving request for `wf` at the medium deadline `(Dmin + Dmax) / 2`,
/// percentile 0.9 and default priority.
pub fn request_for(wf: Workflow, tenant: u32, spec: &CloudSpec) -> PlanRequest {
    let (dmin, dmax) = deadline_anchors(&wf, spec);
    PlanRequest {
        tenant,
        workflow: wf,
        deadline: 0.5 * (dmin + dmax),
        percentile: 0.9,
        budget_hint: None,
        priority: Priority::default(),
    }
}

/// Format a table row of (label, values).
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<24}");
    for v in values {
        s.push_str(&format!(" {v:>9.3}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_and_orders_deadlines() {
        let env = Env::new(Scale::Quick);
        let wf = deco_workflow::generators::montage(1, 1);
        let tight = env.tight_deadline(&wf);
        let medium = env.medium_deadline(&wf);
        let loose = env.loose_deadline(&wf);
        assert!(tight < medium, "tight {tight} < medium {medium}");
        assert!(medium < loose, "medium {medium} < loose {loose}");
    }

    #[test]
    fn row_formats_fixed_width() {
        let s = row("deco", &[1.0, 0.5]);
        assert!(s.starts_with("deco"));
        assert!(s.contains("1.000") && s.contains("0.500"));
    }
}
