//! Result sets, and the comparison of one with a committed baseline.
//!
//! A result set holds, per workload and metric, every run's value with
//! its median and quartiles. `compare` judges each end-to-end metric ×
//! workload row by the metric's bound: *regressed* when the median got
//! worse by more than the bound, *unresolved* when the run-to-run spread
//! is wider than the bound (unless every run reads better, or every run
//! worse, than every baseline run), otherwise *unchanged*.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sampling::Summary;
use std::collections::BTreeMap;

/// Values of one metric on one workload, one per run.
pub type Row = Vec<f64>;

/// `workload -> metric -> values`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultSet {
    pub end_to_end: BTreeMap<String, BTreeMap<String, Row>>,
    pub per_layer: BTreeMap<String, BTreeMap<String, Row>>,
    pub attempted: BTreeMap<String, u64>,
    pub failed: BTreeMap<String, u64>,
    pub incorrect_runs: BTreeMap<String, u64>,
}

impl ResultSet {
    /// Fold in one run's result line (the contract's last stdout line).
    pub fn add_run(&mut self, workload: &str, trace: bool, line: &Json) -> Result<(), String> {
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line has no metrics object")?;
        let table = if trace {
            &mut self.per_layer
        } else {
            &mut self.end_to_end
        };
        let rows = table.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            rows.entry(name.clone()).or_default().push(value);
        }
        let count = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        *self.attempted.entry(workload.to_string()).or_default() += count("attempted");
        *self.failed.entry(workload.to_string()).or_default() += count("failed");
        if line.get("correct") != Some(&Json::Bool(true)) {
            *self.incorrect_runs.entry(workload.to_string()).or_default() += 1;
        }
        Ok(())
    }

    pub fn to_json(&self, header: Vec<(String, Json)>) -> Json {
        let table = |t: &BTreeMap<String, Row>, defs: &[MetricDef]| -> Json {
            Json::Obj(
                defs.iter()
                    .filter_map(|d| t.get(d.name).map(|row| (d, row)))
                    .map(|(d, row)| {
                        let mut fields = vec![("unit".to_string(), Json::str(d.unit))];
                        if let Json::Obj(summary) = Summary::of(row).to_json() {
                            fields.extend(summary);
                        }
                        fields.push((
                            "values".to_string(),
                            Json::Arr(row.iter().map(|v| Json::Num(*v)).collect()),
                        ));
                        (d.name.to_string(), Json::Obj(fields))
                    })
                    .collect(),
            )
        };
        let empty = BTreeMap::new();
        let workloads = WORKLOADS
            .iter()
            .filter(|w| self.end_to_end.contains_key(w.name) || self.per_layer.contains_key(w.name))
            .map(|w| {
                let zero = 0u64;
                let attempted = *self.attempted.get(w.name).unwrap_or(&zero) as f64;
                let failed = *self.failed.get(w.name).unwrap_or(&zero) as f64;
                (
                    w.name.to_string(),
                    Json::obj([
                        ("why", Json::str(w.why)),
                        ("attempted", Json::Num(attempted)),
                        ("failed", Json::Num(failed)),
                        ("failed_frac", Json::Num(failed / attempted.max(1.0))),
                        (
                            "incorrect_runs",
                            Json::Num(*self.incorrect_runs.get(w.name).unwrap_or(&zero) as f64),
                        ),
                        (
                            "end_to_end",
                            table(self.end_to_end.get(w.name).unwrap_or(&empty), END_TO_END),
                        ),
                        (
                            "per_layer",
                            table(self.per_layer.get(w.name).unwrap_or(&empty), PER_LAYER),
                        ),
                    ]),
                )
            })
            .collect();
        let mut doc = header;
        doc.push(("workloads".to_string(), Json::Obj(workloads)));
        // The benchmark defines numbers; it claims no gain.
        doc.push(("claim".to_string(), Json::Null));
        Json::Obj(doc)
    }

    /// Read a result set back (a committed baseline, or an earlier run).
    pub fn from_json(doc: &Json) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no workloads object")?;
        for (workload, body) in workloads {
            for (key, table) in [
                ("end_to_end", &mut set.end_to_end),
                ("per_layer", &mut set.per_layer),
            ] {
                let Some(metrics) = body.get(key).and_then(Json::as_obj) else {
                    continue;
                };
                let rows = table.entry(workload.clone()).or_default();
                for (name, m) in metrics {
                    let values: Row = m
                        .get("values")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("{workload}/{name} has no values"))?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect();
                    if values.is_empty() {
                        return Err(format!("{workload}/{name} has no numeric values"));
                    }
                    rows.insert(name.clone(), values);
                }
            }
            let count = |key: &str| body.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            set.attempted.insert(workload.clone(), count("attempted"));
            set.failed.insert(workload.clone(), count("failed"));
            set.incorrect_runs
                .insert(workload.clone(), count("incorrect_runs"));
        }
        Ok(set)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub base: Summary,
    pub new: Summary,
    /// Signed share of the baseline median by which the metric got
    /// worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one row. `worse_by` is oriented by the metric's direction.
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> (f64, Verdict) {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let (b, n) = (Summary::of(base), Summary::of(new));
    let raw = (n.median - b.median) / b.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match def.better {
        Better::Lower => raw,
        Better::Higher => -raw,
    };
    let worse = |x: f64, y: f64| match def.better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    let all_worse = new.iter().all(|&x| base.iter().all(|&y| worse(x, y)));
    let all_better = new.iter().all(|&x| base.iter().all(|&y| worse(y, x)));
    let noisy = b.spread().max(n.spread()) > bound;
    let verdict = if worse_by > bound {
        if noisy && !all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

/// Compare every end-to-end metric × workload row present in both sets.
pub fn compare(base: &ResultSet, new: &ResultSet) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let (Some(b), Some(n)) = (base.end_to_end.get(w.name), new.end_to_end.get(w.name)) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(bv), Some(nv)) = (b.get(def.name), n.get(def.name)) else {
                continue;
            };
            let (worse_by, verdict) = judge(def, bv, nv);
            rows.push(Comparison {
                workload: w.name.to_string(),
                metric: def.name,
                base: Summary::of(bv),
                new: Summary::of(nv),
                worse_by,
                bound: def.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    rows
}

/// The report `--check` prints; returns it with the regressed count.
pub fn report(base: &ResultSet, new: &ResultSet) -> (String, usize) {
    use std::fmt::Write as _;
    let rows = compare(base, new);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<15} {:<18} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "now", "worse_by", "bound", "spread"
    );
    for r in &rows {
        let _ = writeln!(
            text,
            "{:<15} {:<18} {:>12.5} {:>12.5} {:>+8.1}% {:>6.0}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base.median,
            r.new.median,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.base.spread().max(r.new.spread()) * 100.0,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let failing: u64 = new.failed.values().sum::<u64>() + new.incorrect_runs.values().sum::<u64>();
    let _ = writeln!(
        text,
        "{} rows: {} regressed, {} unresolved, {} improved, {} unchanged; {} failed operations or incorrect runs",
        rows.len(),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        failing
    );
    (text, count(Verdict::Regressed) + failing as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "x",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn a_median_past_the_bound_regresses_and_noise_is_unresolved() {
        let rps = &def(Better::Higher);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 20 % slower, tight: regressed.
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(rps, &base, &slow).1, Verdict::Regressed);
        // 3 % slower, tight: unchanged.
        let near = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(judge(rps, &base, &near).1, Verdict::Unchanged);
        // 20 % faster, tight: improved.
        let fast = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(rps, &base, &fast).1, Verdict::Improved);
        // Median 20 % slower but runs overlap the baseline's: unresolved.
        let noisy = [60.0, 80.0, 100.0, 70.0, 101.0];
        assert_eq!(judge(rps, &base, &noisy).1, Verdict::Unresolved);
        // Spread wider than the bound, yet every run beats every baseline
        // run: not unresolved.
        let wide_fast = [120.0, 150.0, 180.0, 130.0, 200.0];
        assert_eq!(judge(rps, &base, &wide_fast).1, Verdict::Improved);
        // Lower-is-better metrics flip the direction.
        let p50 = &def(Better::Lower);
        assert_eq!(judge(p50, &base, &fast).1, Verdict::Regressed);
        assert_eq!(judge(p50, &base, &slow).1, Verdict::Improved);
    }

    #[test]
    fn result_sets_survive_a_round_trip_through_json() {
        let line = Json::parse(
            r#"{"correct":true,"attempted":10,"failed":0,
                "metrics":{"req_per_s":{"value":12.5,"unit":"1/s"},
                           "setup_s":{"value":0.25,"unit":"s"}}}"#,
        )
        .unwrap();
        let mut set = ResultSet::default();
        set.add_run("serve_warm", false, &line).unwrap();
        set.add_run("serve_warm", false, &line).unwrap();
        let doc = set.to_json(vec![("seed".into(), Json::Num(1.0))]);
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        let back = ResultSet::from_json(&Json::parse(&doc.render_pretty()).unwrap()).unwrap();
        assert_eq!(back.end_to_end, set.end_to_end);
        assert_eq!(back.attempted["serve_warm"], 20);
        let (text, failing) = report(&set, &back);
        assert_eq!(failing, 0, "{text}");
        assert!(text.contains("unchanged"));
    }
}
