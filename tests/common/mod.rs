//! Helpers shared by the serving integration suites (`serve`, `shard`,
//! `supervise`, `failover`, `serve_chaos`). Each suite is its own test
//! binary and uses only some of them.
#![allow(dead_code)]

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::estimate::deadline_anchors;
use deco::engine::Deco;
use deco::serve::{
    Arrival, ArrivalTrace, PlanRequest, PlanResponse, PlanServer, Priority, ServeConfig,
    ServeSession, ServeStats,
};
use deco::workflow::generators;
use deco::workflow::Workflow;
use std::path::PathBuf;

/// A small, fast engine: 15 Monte-Carlo iterations, 50 search states.
pub fn small_deco() -> Deco {
    let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
    let mut deco = Deco::new(store);
    deco.options.mc_iters = 15;
    deco.options.search.max_states = 50;
    deco.options.beam_width = 3;
    deco
}

/// A request for `wf` with its deadline midway between the anchors.
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

/// A mixed Ligo/Montage trace with enough repeats for warm hits and
/// enough spread (1e9-tick gaps) to run many cycles. The shapes' keys
/// fall in every quarter of the key space, so at 2 and 4 shards every
/// shard owns at least one of them.
pub fn mixed_trace(spec: &CloudSpec, n: u32) -> ArrivalTrace {
    let shapes = [
        generators::montage(1, 60),
        generators::ligo(12, 60),
        generators::montage(1, 61),
        generators::ligo(12, 61),
        generators::ligo(12, 62),
        generators::montage(1, 67),
    ];
    let arrivals: Vec<Arrival> = (0..n)
        .map(|i| Arrival {
            at_tick: f64::from(i) * 1e9,
            request: request_for(shapes[(i as usize) % shapes.len()].clone(), i % 3, spec),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        batch_size: 4,
        ..ServeConfig::default()
    }
}

pub fn lines(responses: &[PlanResponse]) -> Vec<String> {
    responses.iter().map(|r| r.canonical_line()).collect()
}

/// The 1-process reference replay of [`mixed_trace`] that the tiers
/// are compared against.
pub fn reference(n: u32, session: &ServeSession) -> (Vec<String>, ServeStats) {
    let deco = small_deco();
    let trace = mixed_trace(&deco.store.spec, n);
    let mut server = PlanServer::new(deco, serve_config());
    let (responses, stats) = server.serve_trace_session(&trace, 2, session);
    (lines(&responses), stats)
}

/// A fresh (removed if present) per-process path under the system temp
/// directory: `<prefix>_<pid>_<name>`.
pub fn temp_dir(prefix: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}_{}_{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
