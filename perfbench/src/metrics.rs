//! The metric and workload vocabulary. `BENCHMARK.json` at the repository
//! root repeats these names; a test keeps the two in step.

/// How long one run measures, seconds: `run_seconds` of BENCHMARK.json.
pub const RUN_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may get
    /// worse before it counts as a regression; `None` for layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the driver requires it), so each is defined for a plan call and
/// for a serving call alike — see BENCHMARK.md for the two readings.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("call_p50_ms", "ms", Lower, 0.25),
    e2e("call_tail_ms", "ms", Lower, 0.25),
    e2e("recover_ms", "ms", Lower, 0.25),
    e2e("plan_cost_usd", "usd", Lower, 0.01),
    e2e("deadline_hit_rate", "ratio", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// One layer each, read off the traced run. A layer a workload does not
/// cross reports 0: it did none of that work.
pub const PER_LAYER: &[MetricDef] = &[
    layer("prob.hist.sample_ns", "ns", Lower),
    layer("prob.rng.draws", "count", Lower),
    layer("workflow.gen_ms", "ms", Lower),
    layer("workflow.tasks", "count", Lower),
    layer("cloud.metadata.build_ms", "ms", Lower),
    layer("cloud.plan.packed_us", "us", Lower),
    layer("wlog.parser.parse_us", "us", Lower),
    layer("wlog.states", "count", Lower),
    layer("wlog.queries", "count", Lower),
    layer("wlog.state_eval_ms", "ms", Lower),
    layer("gpusim.model_ticks", "count", Lower),
    layer("solver.states", "count", Lower),
    layer("solver.batches", "count", Lower),
    layer("solver.states_per_s", "1/s", Higher),
    layer("solver.self_s", "s", Lower),
    layer("core.estimate.table_build_us", "us", Lower),
    layer("core.estimate.skeleton_build_us", "us", Lower),
    layer("core.estimate.frontier_compile_us", "us", Lower),
    layer("core.estimate.frontier_eval_us_per_cand", "us", Lower),
    layer("core.estimate.eval_s", "s", Lower),
    layer("core.estimate.eval_share", "ratio", Lower),
    layer("core.supervisor.plan_ms", "ms", Lower),
    layer("core.codec.encode_us", "us", Lower),
    layer("core.codec.decode_us", "us", Lower),
    layer("core.codec.plan_bytes", "count", Lower),
    layer("core.wire.workflow_encode_us", "us", Lower),
    layer("serve.cache.key_us", "us", Lower),
    layer("serve.cache.get_ns", "ns", Lower),
    layer("serve.cache.insert_us", "us", Lower),
    layer("serve.cache.evictions", "count", Lower),
    layer("serve.cache.hit_rate", "ratio", Higher),
    layer("serve.queue.admit_ns", "ns", Lower),
    layer("serve.request.line_us", "us", Lower),
    layer("serve.server.cycles", "count", Lower),
    layer("serve.server.coalesced", "count", Higher),
    layer("serve.server.backend_get_s", "s", Lower),
    layer("serve.server.backend_insert_s", "s", Lower),
    layer("serve.server.solve_s", "s", Lower),
    layer("serve.server.solve_share", "ratio", Lower),
    layer("serve.server.loop_self_s", "s", Lower),
    layer("serve.store.put_append_us", "us", Lower),
    layer("serve.store.touch_append_us", "us", Lower),
    layer("serve.store.wal_bytes_per_req", "count", Lower),
    layer("serve.store.recover_ms", "ms", Lower),
    layer("shard.router.route_ns", "ns", Lower),
    layer("shard.server.get_s", "s", Lower),
    layer("shard.server.insert_s", "s", Lower),
    layer("shard.server.boundary_s", "s", Lower),
    layer("shard.proc.get_s", "s", Lower),
    layer("shard.proc.insert_s", "s", Lower),
    layer("shard.proc.solve_s", "s", Lower),
    layer("shard.proc.boundary_s", "s", Lower),
    layer("shard.proc.wire.encode_us", "us", Lower),
    layer("shard.proc.wire.decode_us", "us", Lower),
    layer("shard.proc.restarts", "count", Lower),
    layer("shard.proc.journal.commit_us_empty", "us", Lower),
    layer("shard.proc.journal.commit_us_at_n", "us", Lower),
    layer("shard.proc.journal.cycle_us_first", "us", Lower),
    layer("shard.proc.journal.cycle_us_last", "us", Lower),
    layer("shard.proc.journal.commits", "count", Lower),
    layer("shard.proc.journal.appends", "count", Lower),
    layer("shard.proc.journal.snapshots", "count", Lower),
    layer("shard.proc.recover_frames", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "plan_large",
        why: "cold plans of 1000-task Ligo, Montage and Epigenomics: the Monte-Carlo evaluator does nearly all the work; wlog, serve and shard do none",
    },
    WorkloadDef {
        name: "plan_wlog",
        why: "the paper's Example-1 WLog program on 3-4 task workflows: parser, grounding and ProbLog inference do the work, the compiled evaluator none",
    },
    WorkloadDef {
        name: "serve_warm",
        why: "PlanServer on hot998 (hit rate 511/512 by construction): key hashing, admission, cache lookup and response building dominate, the solver is a minority",
    },
    WorkloadDef {
        name: "serve_churn",
        why: "PlanServer on a 1024-key working set over a 256-entry cache: the cache inserts and evicts every cycle and the solver runs many 1 ms solves",
    },
    WorkloadDef {
        name: "tier_shard_wal",
        why: "ShardedServer, 2 shards, WAL on, hot998: the serve_warm loop plus routing and a WAL append per mutation, then cold restarts over the WAL",
    },
    WorkloadDef {
        name: "tier_journal",
        why: "journaled ShardSupervisor, 2 worker processes, hot998: adds stdio frames, worker WALs and one commit group per cycle, then standby takeovers",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
    }

    /// `BENCHMARK.json` is outside this package, so it is checked only
    /// where the whole repository is present.
    #[test]
    fn benchmark_json_repeats_this_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let rows =
            |key: &str| -> Vec<Json> { doc.get(key).and_then(Json::as_arr).unwrap().to_vec() };
        let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).unwrap().to_string();

        let got: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|r| (field(r, "name"), field(r, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got = rows(key);
            assert_eq!(got.len(), defs.len(), "{key}");
            for (row, def) in got.iter().zip(defs) {
                assert_eq!(field(row, "name"), def.name);
                assert_eq!(field(row, "unit"), def.unit);
                assert_eq!(field(row, "better"), def.better.name());
                assert_eq!(row.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
    }
}
