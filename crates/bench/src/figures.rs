//! Figures 1, 2, 6, 7 and Table 2: motivation and calibration results.

use crate::common::{row, Env, ROOT_SEED};
use deco_pegasus::scheduler::{
    AutoscalingScheduler, DecoScheduler, RandomScheduler, Requirements, Scheduler,
    SingleTypeScheduler,
};
use deco_pegasus::Pegasus;
use deco_prob::fit::normality_test;
use deco_prob::stats::{self, Summary};
use deco_workflow::generators;

// ---------------------------------------------------------------------------
// Figure 1 — normalized average cost under seven instance configurations
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig1Row {
    pub config: String,
    /// Average cost over the campaign, normalized to the most expensive
    /// configuration.
    pub norm_cost: f64,
    /// Fraction of runs meeting the deadline (the paper notes m1.small and
    /// m1.medium cannot satisfy the constraint).
    pub deadline_hit_rate: f64,
}

#[derive(Debug, Clone)]
pub struct Fig1Result {
    pub rows: Vec<Fig1Row>,
}

/// Run the Figure 1 experiment: Montage with a deadline constraint under
/// the seven configurations of the introduction.
pub fn fig1(env: &Env) -> Fig1Result {
    let degree = *env
        .scale
        .montage_degrees()
        .last()
        .expect("every scale lists at least one Montage degree");
    let wf = generators::montage(degree, ROOT_SEED);
    let wms = Pegasus::new(env.store.clone());
    let req = Requirements {
        deadline: env.medium_deadline(&wf),
        percentile: 0.96,
    };
    let deco = DecoScheduler {
        options: env.deco_options(),
        ..Default::default()
    };
    let schedulers: Vec<(String, Box<dyn Scheduler>)> = vec![
        (
            "m1.small".into(),
            Box::new(SingleTypeScheduler { itype: 0 }),
        ),
        (
            "m1.medium".into(),
            Box::new(SingleTypeScheduler { itype: 1 }),
        ),
        (
            "m1.large".into(),
            Box::new(SingleTypeScheduler { itype: 2 }),
        ),
        (
            "m1.xlarge".into(),
            Box::new(SingleTypeScheduler { itype: 3 }),
        ),
        (
            "random".into(),
            Box::new(RandomScheduler { seed: ROOT_SEED }),
        ),
        ("autoscaling".into(), Box::new(AutoscalingScheduler)),
        ("deco".into(), Box::new(deco)),
    ];
    let mut raw = Vec::new();
    for (name, s) in &schedulers {
        let exe = wms
            .plan(&wf, s.as_ref(), req)
            .unwrap_or_else(|e| panic!("{name} failed to plan: {e}"));
        let campaign = wms.run_many(&exe, req, name, env.scale.runs(), ROOT_SEED ^ 0xF161);
        raw.push((
            name.clone(),
            campaign.mean_cost(),
            campaign.deadline_hit_rate,
        ));
    }
    let max_cost = raw.iter().map(|r| r.1).fold(0.0f64, f64::max);
    Fig1Result {
        rows: raw
            .into_iter()
            .map(|(config, cost, hit)| Fig1Row {
                config,
                norm_cost: cost / max_cost,
                deadline_hit_rate: hit,
            })
            .collect(),
    }
}

impl Fig1Result {
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Figure 1: normalized average cost of Montage under instance configurations\n",
        );
        s.push_str(&format!(
            "{:<24} {:>9} {:>9}\n",
            "config", "norm cost", "hit rate"
        ));
        for r in &self.rows {
            s.push_str(&row(&r.config, &[r.norm_cost, r.deadline_hit_rate]));
            s.push('\n');
        }
        s
    }

    pub fn get(&self, config: &str) -> &Fig1Row {
        self.rows
            .iter()
            .find(|r| r.config == config)
            .expect("unknown config")
    }
}

// ---------------------------------------------------------------------------
// Figure 2 — execution time variance of Deco-optimized Montage runs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig2Row {
    pub workflow: String,
    /// Quantiles of makespans normalized by their mean (box-plot data).
    pub normalized: Summary,
    /// (max - min) / mean spread.
    pub relative_spread: f64,
}

#[derive(Debug, Clone)]
pub struct Fig2Result {
    pub rows: Vec<Fig2Row>,
}

/// Run the Figure 2 experiment: per-size makespan variance of 100
/// executions of Deco-planned Montage workflows.
pub fn fig2(env: &Env) -> Fig2Result {
    let wms = Pegasus::new(env.store.clone());
    let mut rows = Vec::new();
    for degree in env.scale.montage_degrees() {
        let wf = generators::montage(degree, ROOT_SEED);
        let req = Requirements {
            deadline: env.medium_deadline(&wf),
            percentile: 0.96,
        };
        let deco = DecoScheduler {
            options: env.deco_options(),
            ..Default::default()
        };
        let exe = wms.plan(&wf, &deco, req).expect("deco plan");
        let campaign = wms.run_many(&exe, req, "deco", env.scale.runs(), ROOT_SEED ^ 0xF162);
        let mean = campaign.mean_makespan();
        let normalized: Vec<f64> = campaign.makespans.iter().map(|m| m / mean).collect();
        rows.push(Fig2Row {
            workflow: format!("Montage-{degree}"),
            normalized: Summary::of(&normalized),
            relative_spread: stats::relative_spread(&campaign.makespans),
        });
    }
    Fig2Result { rows }
}

impl Fig2Result {
    pub fn render(&self) -> String {
        let mut s = String::from("Figure 2: normalized execution-time quantiles (Deco plans)\n");
        s.push_str(&format!(
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "workflow", "min", "q1", "median", "q3", "max", "spread"
        ));
        for r in &self.rows {
            s.push_str(&row(
                &r.workflow,
                &[
                    r.normalized.min,
                    r.normalized.q1,
                    r.normalized.median,
                    r.normalized.q3,
                    r.normalized.max,
                    r.relative_spread,
                ],
            ));
            s.push('\n');
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Table 2 — calibrated I/O distribution parameters
// ---------------------------------------------------------------------------

/// Regenerate Table 2 from the environment's calibration.
pub fn table2(env: &Env) -> String {
    let mut s = String::from("Table 2: fitted I/O performance distributions\n");
    s.push_str(&env.calibration.table2());
    s
}

// ---------------------------------------------------------------------------
// Figures 6 and 7 — network performance dynamics
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Relative spread of m1.medium network bandwidth (the "up to 50%"
    /// observation of Figure 6a).
    pub medium_spread: f64,
    /// Fitted Normal (mu, sigma) of the medium network samples.
    pub medium_fit: (f64, f64),
    /// Chi-square p-value of the normality test (Figure 6b).
    pub normality_p: f64,
}

pub fn fig6(env: &Env) -> Fig6Result {
    let medium = &env.calibration.types[1];
    let (fit, gof) = normality_test(&medium.net_samples, 20);
    Fig6Result {
        medium_spread: stats::relative_spread(&medium.net_samples),
        medium_fit: (fit.mu, fit.sigma),
        normality_p: gof.p_value,
    }
}

impl Fig6Result {
    pub fn render(&self) -> String {
        format!(
            "Figure 6: m1.medium network dynamics\n\
             relative spread (max-min)/mean: {:.3}\n\
             fitted Normal: mu = {:.1} MB/s, sigma = {:.1} MB/s\n\
             normality chi-square p-value: {:.3} (null retained at 1%: {})\n",
            self.medium_spread,
            self.medium_fit.0,
            self.medium_fit.1,
            self.normality_p,
            self.normality_p >= 0.01
        )
    }
}

#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Coefficient of variation of the large↔large link.
    pub large_cv: f64,
    /// Coefficient of variation of the medium↔large link (dominated by
    /// the medium endpoint).
    pub medium_large_cv: f64,
}

pub fn fig7(env: &Env) -> Fig7Result {
    use deco_cloud::PerfComponent;
    // The pair law is the slower endpoint's law (Section 2 of the cloud
    // crate); sample the calibrated histograms.
    let large = env.store.hist(2, PerfComponent::Net);
    let med_large = env.store.pair_net_hist(1, 2);
    let cv = |h: &deco_prob::Histogram| h.variance().sqrt() / h.mean();
    Fig7Result {
        large_cv: cv(large),
        medium_large_cv: cv(med_large),
    }
}

impl Fig7Result {
    pub fn render(&self) -> String {
        format!(
            "Figure 7: network histograms by instance-type pairing\n\
             m1.large <-> m1.large   cv = {:.4}\n\
             m1.medium <-> m1.large  cv = {:.4}  (medium endpoint dominates: {})\n",
            self.large_cv,
            self.medium_large_cv,
            self.medium_large_cv > self.large_cv
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn env() -> Env {
        Env::new(Scale::Quick)
    }

    #[test]
    fn fig1_shape_matches_paper() {
        let env = env();
        let r = fig1(&env);
        assert_eq!(r.rows.len(), 7);
        // m1.small misses the probabilistic deadline; m1.xlarge meets it.
        assert!(r.get("m1.small").deadline_hit_rate < 0.96);
        assert!(r.get("m1.xlarge").deadline_hit_rate >= 0.9);
        // Among deadline-meeting configurations, Deco is the cheapest.
        let deco = r.get("deco");
        assert!(
            deco.deadline_hit_rate >= 0.8,
            "deco hit rate {}",
            deco.deadline_hit_rate
        );
        assert!(deco.norm_cost <= r.get("m1.xlarge").norm_cost);
        assert!(deco.norm_cost <= r.get("autoscaling").norm_cost * 1.05);
        // The paper reports Deco at ~40% of the most expensive config.
        assert!(
            deco.norm_cost < 0.8,
            "deco should be well below the xlarge fleet, got {}",
            deco.norm_cost
        );
    }

    #[test]
    fn fig2_variance_exists_and_grows_reasonably() {
        let env = env();
        let r = fig2(&env);
        for row in &r.rows {
            assert!(row.normalized.max > row.normalized.min);
            assert!(row.relative_spread > 0.0);
            assert!((row.normalized.median - 1.0).abs() < 0.2);
        }
    }

    #[test]
    fn table2_mentions_every_type() {
        let env = env();
        let t = table2(&env);
        for name in ["m1.small", "m1.medium", "m1.large", "m1.xlarge"] {
            assert!(t.contains(name));
        }
    }

    #[test]
    fn fig6_normality_holds() {
        let env = env();
        let r = fig6(&env);
        assert!(r.normality_p >= 0.01, "p {}", r.normality_p);
        assert!(
            r.medium_spread > 0.2,
            "visible dynamics, got {}",
            r.medium_spread
        );
    }

    #[test]
    fn fig7_medium_dominates_pairing() {
        let env = env();
        let r = fig7(&env);
        assert!(r.medium_large_cv > r.large_cv);
    }
}
