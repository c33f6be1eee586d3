//! Serving under faults: quiescent overhead and goodput under crashes.
//!
//! Two runs bracket the robustness machinery of the serving layer: the
//! quiescent run replays the same warm trace through the plain
//! `serve_trace` entry point and through `serve_trace_session` with an
//! empty fault plan (the two must cost the same — the fault path is
//! dormant), and the faulted run replays the mixed smoke trace under a
//! seeded 10 % worker-crash plan. The bench writes
//! `BENCH_serve_faults.json` at the repository root:
//! measured quiescent overhead (acceptance: session/plain ≤ 1.10) and
//! the goodput, crash, and retry counters of the faulted smoke run
//! (acceptance: goodput ≥ 0.95 at 10 % crashes).

use deco_bench::common::{ground_truth_engine, request_for};
use deco_cloud::CloudSpec;
use deco_serve::{Arrival, ArrivalTrace, PlanServer, ServeConfig, ServeSession, WorkerFaultPlan};
use deco_workflow::generators;
use deco_workflow::Workflow;
use std::time::Instant;

const WORKERS: usize = 4;
const CRASH_PROB: f64 = 0.10;

fn shapes() -> Vec<Workflow> {
    let mut shapes = Vec::new();
    for s in 0..4u64 {
        shapes.push(generators::montage(1, 80 + s));
        shapes.push(generators::ligo(12, 80 + s));
    }
    shapes
}

/// One request per distinct shape, all at tick 0: warm after one replay.
fn distinct_trace(spec: &CloudSpec) -> ArrivalTrace {
    let arrivals = shapes()
        .into_iter()
        .enumerate()
        .map(|(i, wf)| Arrival {
            at_tick: 0.0,
            request: request_for(wf, i as u32 % 4, spec),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

/// The CI smoke trace: 200 mixed Ligo/Montage requests from 4 tenants.
fn smoke_trace(spec: &CloudSpec) -> ArrivalTrace {
    let shapes = shapes();
    let arrivals = (0..200u32)
        .map(|i| Arrival {
            at_tick: f64::from(i) * 1e9,
            request: request_for(shapes[(i as usize) % shapes.len()].clone(), i % 4, spec),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

fn main() {
    let deco = ground_truth_engine(30, 150);
    let spec = deco.store.spec.clone();
    let trace = distinct_trace(&spec);
    let quiescent = ServeSession::default();

    let mut warmed = PlanServer::new(deco.clone(), ServeConfig::default());
    warmed.serve_trace(&trace, WORKERS);

    // Hand-timed quiescent overhead on the warm path (where the fault
    // machinery's bookkeeping would show up if it cost anything).
    // Interleaved so clock drift and cache state hit both sides equally.
    let reps = 200;
    let mut plain_secs = 0.0;
    let mut session_secs = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (_, stats) = warmed.serve_trace(&trace, WORKERS);
        plain_secs += t0.elapsed().as_secs_f64();
        assert_eq!(stats.hits as usize, trace.len(), "warmed server: all hits");
        let t0 = Instant::now();
        let (_, stats) = warmed.serve_trace_session(&trace, WORKERS, &quiescent);
        session_secs += t0.elapsed().as_secs_f64();
        assert_eq!(stats.hits as usize, trace.len(), "warmed server: all hits");
    }
    let overhead = session_secs / plain_secs;

    // Goodput of the 200-request smoke trace under 10% worker crashes.
    let session = ServeSession {
        faults: WorkerFaultPlan::crashes(1234, CRASH_PROB),
        refreshes: Vec::new(),
    };
    let mut faulted_server = PlanServer::new(deco, ServeConfig::default());
    let t0 = Instant::now();
    let (responses, smoke) =
        faulted_server.serve_trace_session(&smoke_trace(&spec), WORKERS, &session);
    let faulted_secs = t0.elapsed().as_secs_f64();
    assert_eq!(responses.len(), 200, "every request is answered");
    let goodput = smoke.planned as f64 / 200.0;
    println!(
        "serve_faults quiescent overhead {overhead:.3}x  smoke goodput {goodput:.3}  \
         crashes {} retries {} escalated {} quarantined {}",
        smoke.worker_crashes, smoke.retries, smoke.escalated, smoke.quarantined
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_faults\",\n  \"workers\": {WORKERS},\n  \
         \"crash_prob\": {CRASH_PROB},\n  \
         \"acceptance\": \"quiescent session/plain <= 1.10; goodput >= 0.95 at 10% crashes\",\n  \
         \"quiescent_overhead\": {overhead:.4},\n  \"smoke\": {{\n    \
         \"requests\": {}, \"planned\": {}, \"goodput\": {goodput:.4},\n    \
         \"crashes\": {}, \"retries\": {}, \"escalated\": {}, \"quarantined\": {},\n    \
         \"cycles\": {}, \"wall_secs\": {faulted_secs:.3}\n  }}\n}}\n",
        smoke.requests,
        smoke.planned,
        smoke.worker_crashes,
        smoke.retries,
        smoke.escalated,
        smoke.quarantined,
        smoke.cycles,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_faults.json");
    std::fs::write(out, json).expect("write BENCH_serve_faults.json");
}
