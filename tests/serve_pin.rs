//! Pinned serving outcomes.
//!
//! The other serving tests compare worker counts, shard counts or tiers
//! with each other, so a change that moves every tier the same way gets
//! past them. This test folds the canonical response lines and the stats
//! digest of a fixed set of runs into one `StableHasher` digest and
//! compares it with a pinned value. Any change to admission, shedding,
//! budgeting, classification, retry, escalation or the service clock
//! changes the digest.
//!
//! The runs cover:
//! - a mixed trace with budget hints and all three priority classes,
//!   under a per-request tick cap, with coalescing and warm hits;
//! - an overload trace that both sheds expired waiters and rejects
//!   newcomers;
//! - a session with worker crashes, stragglers, a calibration refresh and
//!   a tick budget, once on a working engine (retried, escalated and
//!   quarantined plans) and once on an engine whose every solve fails
//!   (the retry and escalation `Reject` paths);
//! - a `FleetServer` run, whose fleet report also goes into the digest.

use deco::cloud::{CloudSpec, MetadataStore, RetryConfig};
use deco::engine::estimate::deadline_anchors;
use deco::engine::Deco;
use deco::fleet::{FleetConfig, FleetServer};
use deco::pegasus::waas::{mixed_trace, TenantFamily, TenantLoad};
use deco::prob::hash::StableHasher;
use deco::serve::{
    Arrival, ArrivalTrace, CalibrationRefresh, PlanRequest, PlanResponse, PlanServer, Priority,
    ServeConfig, ServeSession, ServeStats, WorkerFaultPlan,
};
use deco::solver::SearchBudget;
use deco::workflow::{generators, Workflow};
use std::hash::Hasher;

const WORKERS: usize = 2;

fn small_deco() -> Deco {
    let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
    let mut deco = Deco::new(store);
    deco.options.mc_iters = 10;
    deco.options.search.max_states = 30;
    deco.options.beam_width = 3;
    deco
}

fn shapes() -> Vec<Workflow> {
    vec![
        generators::montage(1, 50),
        generators::pipeline(3, 40.0, 7),
        generators::random_dag(6, 0.3, 9),
        generators::pipeline(4, 25.0, 3),
    ]
}

fn request(wf: Workflow, tenant: u32, spec: &CloudSpec) -> PlanRequest {
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

/// 24 requests in four bursts of six: every class of priority, hints
/// below and above the cap, repeated shapes within a burst (coalescing)
/// and across bursts (warm hits).
fn hinted_trace(spec: &CloudSpec) -> ArrivalTrace {
    let shapes = shapes();
    let classes = [Priority::Background, Priority::Batch, Priority::Interactive];
    let hints = [None, Some(400.0), None, Some(1e6)];
    let arrivals = (0..24u32)
        .map(|i| {
            let mut req = request(shapes[(i % 4) as usize].clone(), i % 3, spec);
            req.priority = classes[(i % 3) as usize];
            req.budget_hint = hints[((i / 2) % 4) as usize];
            Arrival {
                at_tick: f64::from(i / 6) * 1e7,
                request: req,
            }
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

/// Bursts of three arrivals every 100 ticks into a three-slot queue.
/// Every third request has a deadline under one bucket, so queued tight
/// waiters expire while a cycle runs; the others carry distinct loose
/// deadlines (distinct keys, cold solves) that never expire, so some
/// overflows shed and others reject.
fn overload_trace(spec: &CloudSpec) -> ArrivalTrace {
    let shapes = shapes();
    let arrivals = (0..24u32)
        .map(|i| {
            let mut req = request(shapes[(i % 4) as usize].clone(), i % 2, spec);
            req.deadline = if i % 3 == 2 {
                50.0
            } else {
                req.deadline + 60.0 * f64::from(i)
            };
            Arrival {
                at_tick: f64::from(i / 3) * 100.0,
                request: req,
            }
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

fn fold(h: &mut StableHasher, responses: &[PlanResponse], stats: &ServeStats) {
    for r in responses {
        h.write(r.canonical_line().as_bytes());
        h.write_u8(b'\n');
    }
    h.write_u64(stats.digest());
}

fn faulted_session(spec: &CloudSpec) -> ServeSession {
    ServeSession {
        faults: WorkerFaultPlan {
            seed: 7,
            crash_prob: 0.35,
            straggler_prob: 0.2,
            straggler_mean_ticks: 25.0,
            virtual_workers: 4,
        },
        refreshes: vec![CalibrationRefresh {
            at_tick: 2e7,
            store: MetadataStore::from_ground_truth(spec.clone(), 20),
        }],
    }
}

fn faulted_config() -> ServeConfig {
    ServeConfig {
        batch_size: 4,
        budget: SearchBudget::ticks(2500.0),
        retry: RetryConfig {
            max_attempts: 2,
            backoff_base: 16.0,
            backoff_cap: 64.0,
        },
        quarantine_threshold: 3,
        ..ServeConfig::default()
    }
}

#[test]
fn serve_outcomes_are_pinned() {
    let spec = CloudSpec::amazon_ec2();
    let mut h = StableHasher::new();

    let mut server = PlanServer::new(
        small_deco(),
        ServeConfig {
            batch_size: 4,
            budget: SearchBudget::ticks(3000.0),
            ..ServeConfig::default()
        },
    );
    let (responses, stats) = server.serve_trace(&hinted_trace(&spec), WORKERS);
    assert!(stats.coalesced > 0 && stats.hits > 0, "{stats:?}");
    fold(&mut h, &responses, &stats);

    let mut server = PlanServer::new(
        small_deco(),
        ServeConfig {
            queue_capacity: 3,
            batch_size: 2,
            ..ServeConfig::default()
        },
    );
    let (responses, stats) = server.serve_trace(&overload_trace(&spec), WORKERS);
    assert!(stats.shed > 0 && stats.rejected_overload > 0, "{stats:?}");
    fold(&mut h, &responses, &stats);

    let session = faulted_session(&spec);
    let mut server = PlanServer::new(small_deco(), faulted_config());
    let (responses, stats) = server.serve_trace_session(&hinted_trace(&spec), WORKERS, &session);
    assert!(
        stats.worker_crashes > 0 && stats.retries > 0 && stats.escalated > 0,
        "{stats:?}"
    );
    assert_eq!(stats.refreshes, 1);
    fold(&mut h, &responses, &stats);

    // An engine that cannot plan at all: every solve and every fallback
    // answer is an error, so each crash path ends in a `Reject`.
    let mut broken = small_deco();
    broken.options.mc_iters = 0;
    let mut server = PlanServer::new(broken, faulted_config());
    let (responses, stats) = server.serve_trace_session(&hinted_trace(&spec), WORKERS, &session);
    assert_eq!(stats.planned, 0);
    assert!(stats.retries > 0 && stats.escalated > 0, "{stats:?}");
    fold(&mut h, &responses, &stats);

    let load = |tenant: u32, family, start: f64| TenantLoad {
        tenant,
        family,
        tasks: 10,
        requests: 3,
        start_tick: start,
        gap_ticks: 500.0,
        deadline_factor: 0.3,
        percentile: 0.9,
        distinct_workflows: 2,
    };
    let trace = mixed_trace(
        &spec,
        &[
            load(0, TenantFamily::Montage, 0.0),
            load(1, TenantFamily::Ligo, 250.0),
        ],
    );
    let config = ServeConfig {
        batch_size: 4,
        ..ServeConfig::default()
    };
    let mut fleet = FleetServer::new(small_deco(), config, FleetConfig::default())
        .expect("default policy is valid");
    let (responses, stats, report) = fleet.serve_trace(&trace, WORKERS);
    assert!(report.placed > 0, "{report:?}");
    fold(&mut h, &responses, &stats);
    h.write(report.canonical_line().as_bytes());

    assert_eq!(
        h.finish(),
        0x17b4_4eb1_536b_a4e3,
        "serving outcomes moved: admission, shedding, budgeting, retry or \
         the service clock changed what a run answers"
    );
}
