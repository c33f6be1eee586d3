//! Figures 8 and 11: the workflow scheduling use case.

use crate::common::{row, Env, ROOT_SEED};
use deco_pegasus::scheduler::{AutoscalingScheduler, DecoScheduler, Requirements};
use deco_pegasus::Pegasus;
use deco_workflow::generators;

/// One (workflow, percentile) cell of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    pub workflow: String,
    pub percentile: f64,
    /// Deco's mean cost normalized to Autoscaling's.
    pub norm_cost: f64,
    /// Deco's mean makespan normalized to Autoscaling's.
    pub norm_time: f64,
    /// Realized deadline-hit rates.
    pub deco_hit_rate: f64,
    pub auto_hit_rate: f64,
}

#[derive(Debug, Clone)]
pub struct Fig8Result {
    pub cells: Vec<Fig8Cell>,
}

/// The probabilistic-deadline sweep of Figure 8 (90%–99.9%).
pub fn fig8(env: &Env) -> Fig8Result {
    let percentiles = match env.scale {
        crate::Scale::Quick => vec![0.90, 0.96],
        crate::Scale::Full => vec![0.90, 0.92, 0.94, 0.96, 0.98, 0.999],
    };
    let wms = Pegasus::new(env.store.clone());
    let mut cells = Vec::new();
    for degree in env.scale.montage_degrees() {
        let wf = generators::montage(degree, ROOT_SEED);
        let deadline = env.medium_deadline(&wf);
        for &p in &percentiles {
            let req = Requirements {
                deadline,
                percentile: p,
            };
            let deco = DecoScheduler {
                options: env.deco_options(),
                ..Default::default()
            };
            let deco_exe = wms.plan(&wf, &deco, req).expect("deco plan");
            let auto_exe = wms
                .plan(&wf, &AutoscalingScheduler, req)
                .expect("autoscaling plan");
            let seed = ROOT_SEED ^ (degree as u64) << 8 ^ (p * 1000.0) as u64;
            let d = wms.run_many(&deco_exe, req, "deco", env.scale.runs(), seed);
            let a = wms.run_many(&auto_exe, req, "autoscaling", env.scale.runs(), seed);
            cells.push(Fig8Cell {
                workflow: format!("Montage-{degree}"),
                percentile: p,
                norm_cost: d.mean_cost() / a.mean_cost(),
                norm_time: d.mean_makespan() / a.mean_makespan(),
                deco_hit_rate: d.deadline_hit_rate,
                auto_hit_rate: a.deadline_hit_rate,
            });
        }
    }
    Fig8Result { cells }
}

impl Fig8Result {
    pub fn render(&self) -> String {
        let mut s = String::from(
            "Figure 8: Deco vs Autoscaling across probabilistic deadline requirements\n",
        );
        s.push_str(&format!(
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "workflow@percentile", "normcost", "normtime", "deco hit", "auto hit", ""
        ));
        for c in &self.cells {
            s.push_str(&row(
                &format!("{}@{:.1}%", c.workflow, c.percentile * 100.0),
                &[c.norm_cost, c.norm_time, c.deco_hit_rate, c.auto_hit_rate],
            ));
            s.push('\n');
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — deadline sensitivity (tight / medium / loose)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub deadline: String,
    /// Costs normalized to Autoscaling at the tight deadline.
    pub auto_cost: f64,
    pub deco_cost: f64,
    /// Makespans normalized to Autoscaling at the tight deadline.
    pub auto_time: f64,
    pub deco_time: f64,
}

#[derive(Debug, Clone)]
pub struct Fig11Result {
    pub rows: Vec<Fig11Row>,
}

pub fn fig11(env: &Env) -> Fig11Result {
    let degree = *env
        .scale
        .montage_degrees()
        .last()
        .expect("every scale lists at least one Montage degree");
    let wf = generators::montage(degree, ROOT_SEED);
    let wms = Pegasus::new(env.store.clone());
    let settings = [
        ("tight", env.tight_deadline(&wf)),
        ("medium", env.medium_deadline(&wf)),
        ("loose", env.loose_deadline(&wf)),
    ];
    let mut raw = Vec::new();
    for (name, deadline) in settings {
        let req = Requirements {
            deadline,
            percentile: 0.96,
        };
        let deco = DecoScheduler {
            options: env.deco_options(),
            ..Default::default()
        };
        let deco_exe = wms.plan(&wf, &deco, req).expect("deco plan");
        let auto_exe = wms
            .plan(&wf, &AutoscalingScheduler, req)
            .expect("autoscaling plan");
        let seed = ROOT_SEED ^ 0xF11 ^ deadline as u64;
        let d = wms.run_many(&deco_exe, req, "deco", env.scale.runs(), seed);
        let a = wms.run_many(&auto_exe, req, "autoscaling", env.scale.runs(), seed);
        raw.push((
            name.to_string(),
            a.mean_cost(),
            d.mean_cost(),
            a.mean_makespan(),
            d.mean_makespan(),
        ));
    }
    let base_cost = raw[0].1;
    let base_time = raw[0].3;
    Fig11Result {
        rows: raw
            .into_iter()
            .map(|(deadline, ac, dc, at, dt)| Fig11Row {
                deadline,
                auto_cost: ac / base_cost,
                deco_cost: dc / base_cost,
                auto_time: at / base_time,
                deco_time: dt / base_time,
            })
            .collect(),
    }
}

impl Fig11Result {
    pub fn render(&self) -> String {
        let mut s =
            String::from("Figure 11: deadline sensitivity (normalized to Autoscaling@tight)\n");
        s.push_str(&format!(
            "{:<24} {:>9} {:>9} {:>9} {:>9}\n",
            "deadline", "auto cost", "deco cost", "auto time", "deco time"
        ));
        for r in &self.rows {
            s.push_str(&row(
                &r.deadline,
                &[r.auto_cost, r.deco_cost, r.auto_time, r.deco_time],
            ));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fig8_deco_is_cheaper_and_meets_requirements() {
        let env = Env::new(Scale::Quick);
        let r = fig8(&env);
        assert!(!r.cells.is_empty());
        for c in &r.cells {
            // The headline: Deco at or below Autoscaling's cost.
            assert!(
                c.norm_cost <= 1.1,
                "{}@{}: norm cost {}",
                c.workflow,
                c.percentile,
                c.norm_cost
            );
            // Deco runs longer but still meets the probabilistic deadline.
            assert!(
                c.deco_hit_rate >= c.percentile - 0.15,
                "{}@{}: hit rate {} vs requirement {}",
                c.workflow,
                c.percentile,
                c.deco_hit_rate,
                c.percentile
            );
        }
        // At least one cell shows a solid (>10%) saving.
        assert!(r.cells.iter().any(|c| c.norm_cost < 0.9));
    }

    #[test]
    fn fig11_cost_decreases_as_deadline_loosens() {
        let env = Env::new(Scale::Quick);
        let r = fig11(&env);
        assert_eq!(r.rows.len(), 3);
        // Deco cost is non-increasing from tight to loose.
        assert!(r.rows[2].deco_cost <= r.rows[0].deco_cost + 0.05);
        // Execution time grows as the deadline loosens (cheaper fleets).
        assert!(r.rows[2].deco_time >= r.rows[0].deco_time - 0.05);
        // Deco at most Autoscaling per setting.
        for row in &r.rows {
            assert!(row.deco_cost <= row.auto_cost * 1.05, "{row:?}");
        }
    }
}
