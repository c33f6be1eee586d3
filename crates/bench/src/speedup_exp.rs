//! Section 6.3 device-model comparisons: GPU vs CPU search speedups and
//! the per-task optimization overhead.
//!
//! The paper reports (i) 12x/10x/20x GPU-over-6-core speedups on the
//! scheduling problem for Montage-1/4/8, (ii) 36x/22x/18x for 20/100/1000-
//! task ensemble members (declining with size as states outgrow shared
//! memory), and (iii) a total optimization overhead of 4.3–63.17 ms per
//! task for 20–1000 tasks. We reproduce the *shape* of all three with the
//! device model: identical searches run under the sequential, 6-core and
//! K40 backends, and the accumulated modeled evaluation times are compared.

use crate::common::{row, Env, ROOT_SEED};
use deco_core::SchedulingProblem;
use deco_gpu::DeviceSpec;
use deco_solver::{beam_search, EvalBackend, SearchOptions};
use deco_workflow::generators;
use deco_workflow::Workflow;

#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub label: String,
    pub n_tasks: usize,
    pub seq_seconds: f64,
    pub cpu6_seconds: f64,
    pub gpu_seconds: f64,
    /// GPU over 6-core (the paper's headline ratio).
    pub speedup_vs_cpu6: f64,
    /// Modeled GPU optimization milliseconds per task.
    pub overhead_ms_per_task: f64,
}

#[derive(Debug, Clone)]
pub struct SpeedupResult {
    pub rows: Vec<SpeedupRow>,
}

fn measure(env: &Env, wf: &Workflow, label: &str) -> SpeedupRow {
    let deadline = env.medium_deadline(wf);
    let mut problem = SchedulingProblem::new(wf, &env.spec, &env.store, deadline, 0.9);
    // One Monte-Carlo iteration per GPU thread, one full block per state
    // (the paper's kernel layout): fill the K40's 192 lanes.
    problem.mc_iters = 192;
    let opts = SearchOptions {
        // Timing ratios stabilize after a few frontier rounds; the quick
        // scale keeps the state budget small because each state runs 192
        // Monte-Carlo iterations.
        max_states: match env.scale {
            crate::Scale::Quick => 40,
            crate::Scale::Full => 400,
        },
        seed: ROOT_SEED,
        ..Default::default()
    };
    let run = |backend: &EvalBackend| beam_search(&problem, &opts, 4, backend).stats;
    let seq = run(&EvalBackend::SeqCpu);
    let cpu6 = run(&EvalBackend::ParCpu(6));
    let gpu = run(&EvalBackend::SimGpu(DeviceSpec::k40()));
    SpeedupRow {
        label: label.to_string(),
        n_tasks: wf.len(),
        seq_seconds: seq.modeled_eval_seconds,
        cpu6_seconds: cpu6.modeled_eval_seconds,
        gpu_seconds: gpu.modeled_eval_seconds,
        speedup_vs_cpu6: cpu6.modeled_eval_seconds / gpu.modeled_eval_seconds.max(1e-12),
        overhead_ms_per_task: gpu.modeled_eval_seconds * 1000.0 / wf.len() as f64,
    }
}

/// Scheduling-problem speedups on the Montage sizes (Section 6.3.1).
pub fn speedup_scheduling(env: &Env) -> SpeedupResult {
    let rows = env
        .scale
        .montage_degrees()
        .into_iter()
        .map(|d| {
            let wf = generators::montage(d, ROOT_SEED);
            measure(env, &wf, &format!("Montage-{d}"))
        })
        .collect();
    SpeedupResult { rows }
}

/// Ensemble-member speedups for 20/100/1000-task workflows
/// (Section 6.3.2) together with the per-task overhead.
pub fn speedup_ensemble(env: &Env) -> SpeedupResult {
    let sizes: Vec<usize> = match env.scale {
        // 1000 is kept even at quick scale: the speedup *decline* comes
        // from 1000-task states spilling the K40's shared memory.
        crate::Scale::Quick => vec![20, 1000],
        crate::Scale::Full => vec![20, 100, 1000],
    };
    let rows = sizes
        .into_iter()
        .map(|n| {
            let wf = generators::ligo(n, ROOT_SEED);
            measure(env, &wf, &format!("Ligo-{n}"))
        })
        .collect();
    SpeedupResult { rows }
}

impl SpeedupResult {
    pub fn render(&self, title: &str) -> String {
        let mut s = format!("{title}\n");
        s.push_str(&format!(
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "workflow", "seq s", "6-core s", "gpu s", "gpu/6c x", "ms/task"
        ));
        for r in &self.rows {
            s.push_str(&row(
                &format!("{} ({} tasks)", r.label, r.n_tasks),
                &[
                    r.seq_seconds,
                    r.cpu6_seconds,
                    r.gpu_seconds,
                    r.speedup_vs_cpu6,
                    r.overhead_ms_per_task,
                ],
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
    fn gpu_model_shows_order_of_10x_over_6core() {
        let env = Env::new(Scale::Quick);
        let r = speedup_ensemble(&env);
        for row in &r.rows {
            assert!(
                row.speedup_vs_cpu6 > 3.0,
                "{}: speedup {}",
                row.label,
                row.speedup_vs_cpu6
            );
            assert!(row.gpu_seconds < row.cpu6_seconds);
            assert!(row.cpu6_seconds < row.seq_seconds);
        }
    }

    #[test]
    fn speedup_declines_with_workflow_size() {
        // The Section 6.3.2 shape: bigger states spill shared memory.
        let env = Env::new(Scale::Quick);
        let r = speedup_ensemble(&env);
        assert!(r.rows.len() >= 2);
        let first = r.rows.first().unwrap();
        let last = r.rows.last().unwrap();
        assert!(
            last.speedup_vs_cpu6 < first.speedup_vs_cpu6,
            "speedup should decline: {} ({}) -> {} ({})",
            first.speedup_vs_cpu6,
            first.label,
            last.speedup_vs_cpu6,
            last.label
        );
    }

    #[test]
    fn per_task_overhead_is_milliseconds() {
        // The paper's range is 4.3-63.17 ms/task; hold the order of
        // magnitude (sub-second per task).
        let env = Env::new(Scale::Quick);
        let r = speedup_ensemble(&env);
        for row in &r.rows {
            assert!(
                row.overhead_ms_per_task < 1000.0,
                "{}: {} ms/task",
                row.label,
                row.overhead_ms_per_task
            );
        }
    }
}
