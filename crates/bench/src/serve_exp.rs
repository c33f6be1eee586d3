//! Serving under faults: goodput and overhead of the hardened serving
//! layer.
//!
//! The experiment replays one mixed Ligo/Montage trace twice against the
//! same calibrated engine: once quiescent (no fault plan) and once under
//! a seeded 10 % worker-crash schedule. The comparison shows what the
//! robustness machinery costs when nothing fails and what it preserves
//! when workers do: crashed solves are retried with capped backoff and
//! goodput (fraction of requests answered with a plan) stays high.
//! The faulted run's per-cycle [`deco_serve::CycleRow`] accounting is
//! what the `serve` experiments subcommand writes to disk.

use crate::common::{request_for, Env};
use crate::Scale;
use deco_core::Deco;
use deco_serve::{
    Arrival, ArrivalTrace, PlanServer, ServeConfig, ServeSession, ServeStats, WorkerFaultPlan,
};
use deco_workflow::generators;

/// Solver workers in the serving pool.
pub const WORKERS: usize = 4;
/// Crash probability per (virtual worker, cycle) in the faulted run.
pub const CRASH_PROB: f64 = 0.10;

/// Both runs of the serving-under-faults experiment.
pub struct ServeFaultsResult {
    pub workers: usize,
    pub crash_prob: f64,
    pub requests: usize,
    /// Stats of the fault-free replay.
    pub quiescent: ServeStats,
    /// Stats of the replay under the seeded crash plan.
    pub faulted: ServeStats,
}

impl ServeFaultsResult {
    /// Fraction of requests answered with a plan under faults.
    pub fn goodput(&self) -> f64 {
        self.faulted.planned as f64 / self.requests as f64
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "serving under faults — {} requests, {} workers, crash_prob {:.2}\n",
            self.requests, self.workers, self.crash_prob
        ));
        s.push_str(&format!(
            "{:<14} {:>10} {:>10}\n",
            "counter", "quiescent", "faulted"
        ));
        let rows: [(&str, u64, u64); 7] = [
            ("planned", self.quiescent.planned, self.faulted.planned),
            ("hits", self.quiescent.hits, self.faulted.hits),
            ("misses", self.quiescent.misses, self.faulted.misses),
            (
                "crashes",
                self.quiescent.worker_crashes,
                self.faulted.worker_crashes,
            ),
            ("retries", self.quiescent.retries, self.faulted.retries),
            (
                "escalated",
                self.quiescent.escalated,
                self.faulted.escalated,
            ),
            (
                "quarantined",
                self.quiescent.quarantined,
                self.faulted.quarantined,
            ),
        ];
        for (label, q, f) in rows {
            s.push_str(&format!("{label:<14} {q:>10} {f:>10}\n"));
        }
        s.push_str(&format!(
            "goodput under faults: {:.3}  (p50 wait {:.0} ticks, p95 wait {:.0} ticks)\n",
            self.goodput(),
            self.faulted.p50_wait(),
            self.faulted.p95_wait()
        ));
        s
    }

    /// The faulted run's per-cycle rows as JSON lines (one row per solve
    /// cycle, in cycle order).
    pub fn cycle_rows_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.faulted.cycle_rows {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }
}

/// The smoke trace at this scale: eight distinct Ligo/Montage shapes
/// cycled across four tenants, arrivals spread one solve apart.
fn trace(env: &Env, requests: usize) -> ArrivalTrace {
    let mut shapes = Vec::new();
    for s in 0..4u64 {
        shapes.push(generators::montage(1, 60 + s));
        shapes.push(generators::ligo(12, 60 + s));
    }
    let arrivals: Vec<Arrival> = (0..requests)
        .map(|i| Arrival {
            at_tick: i as f64 * 1e9,
            request: request_for(shapes[i % shapes.len()].clone(), (i % 4) as u32, &env.spec),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

fn engine(env: &Env) -> Deco {
    let mut deco = Deco::new(env.store.clone());
    deco.options = env.deco_options();
    deco
}

/// Run the experiment: quiescent replay, then the same trace under a
/// seeded `CRASH_PROB` worker-crash plan.
pub fn run(env: &Env) -> ServeFaultsResult {
    let requests = match env.scale {
        Scale::Quick => 60,
        Scale::Full => 200,
    };
    let trace = trace(env, requests);

    let mut quiet_server = PlanServer::new(engine(env), ServeConfig::default());
    let (_, quiescent) = quiet_server.serve_trace(&trace, WORKERS);

    let session = ServeSession {
        faults: WorkerFaultPlan::crashes(crate::common::ROOT_SEED, CRASH_PROB),
        refreshes: Vec::new(),
    };
    let mut faulted_server = PlanServer::new(engine(env), ServeConfig::default());
    let (responses, faulted) = faulted_server.serve_trace_session(&trace, WORKERS, &session);
    assert_eq!(
        responses.len(),
        requests,
        "every request gets a terminal answer"
    );

    ServeFaultsResult {
        workers: WORKERS,
        crash_prob: CRASH_PROB,
        requests,
        quiescent,
        faulted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_run_keeps_goodput_high_under_crashes() {
        let env = Env::new(Scale::Quick);
        let r = run(&env);
        assert_eq!(r.quiescent.planned as usize, r.requests);
        assert_eq!(r.quiescent.worker_crashes, 0);
        assert!(r.goodput() > 0.9, "goodput {} too low", r.goodput());
        assert!(!r.faulted.cycle_rows.is_empty(), "cycle rows recorded");
        let jsonl = r.cycle_rows_jsonl();
        assert_eq!(jsonl.lines().count(), r.faulted.cycle_rows.len());
        assert!(jsonl.starts_with("{\"cycle\":0,"));
        let rendered = r.render();
        assert!(rendered.contains("goodput under faults"));
    }
}
