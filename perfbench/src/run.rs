//! What one run of one workload takes and gives back, and the pieces the
//! workloads share: output checks, set-up sampling, phase budgets.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::sampling::{median, Summary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Traced run: report the per-layer metrics instead of the end-to-end
    /// ones and write the span file.
    pub trace: bool,
}

impl RunArgs {
    /// A phase's share of the seconds a run measures.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(RUN_SECONDS * share)
    }
}

/// Output checks: every failed one is counted as a failed operation and
/// makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            // A broken invariant repeats every pass; keep the first few.
            if self.failures.len() < 32 {
                self.failures.push(msg);
            }
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations the timed passes attempted (plan calls or requests).
    pub attempted: u64,
    /// Operations without a full-quality answer.
    pub failed: u64,
    pub checks: Checks,
    /// Sample summaries and counts behind the metrics, for the result file.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a metric as the median of `samples`, keeping their summary.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples));
        self.detail
            .push((name.to_string(), Summary::of(samples).to_json()));
    }

    /// `recover_ms` of a workload whose program keeps nothing across a
    /// restart (the planner, `PlanServer`): it recovers by being set up
    /// again, so cold start to first answer is set-up plus one call. Every
    /// workload must report the metric; these spend no phase on measuring
    /// that sum again.
    pub fn set_stateless_recover_ms(&mut self) {
        let sum = self.metrics["setup_s"] * 1e3 + self.metrics["call_p50_ms"];
        self.set("recover_ms", sum);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of the
    /// run's kind. A metric the workload did not set is a bug here, not a
    /// zero — except for layer metrics, where "this workload does not
    /// cross that layer" is the zero.
    pub fn result_line(&self, trace: bool) -> Json {
        let defs: &[MetricDef] = if trace { PER_LAYER } else { END_TO_END };
        let metrics = defs
            .iter()
            .map(|d| {
                let value = match self.metrics.get(d.name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", d.name),
                };
                (
                    d.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            (
                "failed",
                Json::Num((self.failed + self.checks.failures.len() as u64) as f64),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Build the workload's state repeatedly and report the median wall, so
/// that `setup_s` is not one noisy sample: at least 5 builds, and as many
/// more as fit in a second (a set-up of microseconds is sampled thousands
/// of times, one of 100 ms nine times). Returns the last build.
pub fn sampled_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= 5 && (t0.elapsed().as_secs_f64() > 1.0 || walls.len() >= 5000) {
            return (built, walls);
        }
        drop(built);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
