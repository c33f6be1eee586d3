//! Chaos tests for the hardened serving layer (deco-serve under faults).
//!
//! The signature invariant, extended to hostile conditions: identical
//! traces **plus identical fault schedules** produce byte-identical
//! response streams and `ServeStats` at any worker count. On top of
//! that:
//!
//! 1. **Quiescent zero-cost** — a default (empty) `ServeSession` is
//!    bit-identical to `serve_trace` without the fault machinery.
//! 2. **No request left behind** — under a seeded 10 %-crash plan, every
//!    request of the 200-request CI smoke trace still gets a terminal
//!    response (planned, rejected, or shed): no hangs, no panics.
//! 3. **Epoch-mix invariant** — a mid-trace calibration refresh lands
//!    between cycles: every cycle integrates plans from exactly one
//!    catalog epoch, and the books (cache, quarantine, strikes) reset
//!    consistently.
//! 4. **Cache hygiene** — shed and quarantined requests never populate
//!    the plan cache.
//! 5. **Pinned backoff** — crash retries follow the shared
//!    `capped_backoff` tick sequence end-to-end.

use deco::cloud::{CloudSpec, MetadataStore, RetryConfig};
use deco::serve::{
    Arrival, ArrivalTrace, CalibrationRefresh, PlanServer, ServeConfig, ServeOutcome, ServeSession,
    WorkerFaultPlan,
};
use deco::workflow::generators;
use proptest::prelude::*;

mod common;
use common::{request_for, small_deco};

/// The CI smoke trace: 200 requests over eight distinct Ligo/Montage
/// shapes from four tenants, spread so the solver pipeline never idles
/// into a degenerate single cycle.
fn smoke_trace(spec: &CloudSpec) -> ArrivalTrace {
    let mut shapes = Vec::new();
    for s in 0..4u64 {
        shapes.push(generators::montage(1, 60 + s));
        shapes.push(generators::ligo(12, 60 + s));
    }
    let arrivals: Vec<Arrival> = (0..200u32)
        .map(|i| Arrival {
            at_tick: f64::from(i) * 1e9,
            request: request_for(shapes[(i as usize) % shapes.len()].clone(), i % 4, spec),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

/// A compact mixed trace for the per-case proptest runs.
fn mixed_trace(spec: &CloudSpec) -> ArrivalTrace {
    let shapes = [
        generators::montage(1, 50),
        generators::montage(1, 51),
        generators::pipeline(3, 40.0, 7),
        generators::random_dag(6, 0.3, 9),
    ];
    let arrivals: Vec<Arrival> = (0..16u32)
        .map(|i| Arrival {
            at_tick: f64::from(i / 4) * 1e8,
            request: request_for(shapes[(i as usize) % shapes.len()].clone(), i % 3, spec),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        batch_size: 4,
        retry: RetryConfig {
            max_attempts: 3,
            backoff_base: 16.0,
            backoff_cap: 128.0,
        },
        quarantine_threshold: 5,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fixed (trace, fault seed, budgets) → identical response bytes and
    /// stats digest at 1, 2, and 8 workers, across crash AND straggler
    /// injection.
    #[test]
    fn faulted_streams_are_byte_identical_at_1_2_and_8_workers(
        seed in 0u64..500,
        crash in 0.0f64..0.4,
        straggle in 0.0f64..0.4,
    ) {
        let faults = WorkerFaultPlan {
            seed,
            crash_prob: crash,
            straggler_prob: straggle,
            straggler_mean_ticks: 25.0,
            virtual_workers: 8,
        };
        let session = ServeSession { faults, refreshes: Vec::new() };
        let mut streams = Vec::new();
        let mut digests = Vec::new();
        for workers in [1usize, 2, 8] {
            let deco = small_deco();
            let trace = mixed_trace(&deco.store.spec);
            let mut server = PlanServer::new(deco, chaos_config());
            let (responses, stats) = server.serve_trace_session(&trace, workers, &session);
            prop_assert_eq!(responses.len(), trace.len());
            let lines: Vec<String> =
                responses.iter().map(|r| r.canonical_line()).collect();
            streams.push(lines);
            digests.push(stats.digest());
        }
        prop_assert_eq!(&streams[0], &streams[1]);
        prop_assert_eq!(&streams[0], &streams[2]);
        prop_assert_eq!(digests[0], digests[1]);
        prop_assert_eq!(digests[0], digests[2]);
    }
}

#[test]
fn quiescent_session_is_bit_identical_to_plain_serve() {
    let run_plain = || {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec);
        let mut server = PlanServer::new(deco, chaos_config());
        server.serve_trace(&trace, 2)
    };
    let run_session = || {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec);
        let mut server = PlanServer::new(deco, chaos_config());
        server.serve_trace_session(&trace, 2, &ServeSession::default())
    };
    let (plain_responses, plain_stats) = run_plain();
    let (session_responses, session_stats) = run_session();
    for (a, b) in plain_responses.iter().zip(&session_responses) {
        assert_eq!(a.canonical_line(), b.canonical_line());
    }
    assert_eq!(plain_stats, session_stats);
    assert_eq!(plain_stats.digest(), session_stats.digest());
    assert!(
        !plain_stats.canonical_line().contains("crashes="),
        "quiescent stats keep the pre-fault canonical format"
    );
}

#[test]
fn smoke_200_requests_under_10pct_crashes_every_request_terminal() {
    let session = ServeSession {
        faults: WorkerFaultPlan::crashes(1234, 0.10),
        refreshes: Vec::new(),
    };
    let mut streams = Vec::new();
    let mut last_stats = None;
    for workers in [1usize, 2, 8] {
        let deco = small_deco();
        let trace = smoke_trace(&deco.store.spec);
        let mut server = PlanServer::new(deco, chaos_config());
        let (responses, stats) = server.serve_trace_session(&trace, workers, &session);

        // Exactly one terminal response per request: no hangs, no dupes.
        assert_eq!(responses.len(), 200);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "stream is in trace order");
            match &r.outcome {
                ServeOutcome::Planned(_)
                | ServeOutcome::Rejected { .. }
                | ServeOutcome::Shed { .. } => {}
            }
        }
        // Goodput: crashes delay work but the engine still answers the
        // overwhelming majority with plans.
        assert!(
            stats.planned >= 190,
            "10% worker crashes must not collapse goodput: planned={}",
            stats.planned
        );
        assert!(
            stats.worker_crashes > 0,
            "the seeded plan did crash workers"
        );
        assert!(
            stats.retries > 0,
            "crashed solves were re-enqueued with backoff"
        );
        streams.push(
            responses
                .iter()
                .map(|r| r.canonical_line())
                .collect::<Vec<_>>(),
        );
        last_stats = Some(stats);
    }
    assert_eq!(streams[0], streams[1], "1 vs 2 workers under faults");
    assert_eq!(streams[0], streams[2], "1 vs 8 workers under faults");
    let stats = last_stats.expect("three runs happened");
    let line = stats.canonical_line();
    assert!(
        line.contains("crashes="),
        "faulted stats expose the counters: {line}"
    );
}

#[test]
fn epoch_mix_invariant_across_a_mid_trace_refresh() {
    let deco = small_deco();
    let spec = deco.store.spec.clone();
    // One shape repeated across well-separated waves: warm before the
    // refresh, forced cold right after it, warm again within the new
    // epoch.
    let arrivals: Vec<Arrival> = (0..12u32)
        .map(|i| Arrival {
            at_tick: f64::from(i) * 1e9,
            request: request_for(generators::montage(1, 77), 1 + i % 2, &spec),
        })
        .collect();
    let trace = ArrivalTrace::new(arrivals);
    let refreshed_store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
    let session = ServeSession {
        faults: WorkerFaultPlan::quiescent(),
        refreshes: vec![CalibrationRefresh {
            at_tick: 5.5e9,
            store: refreshed_store,
        }],
    };
    let mut server = PlanServer::new(deco, chaos_config());
    let epoch_before = server.deco.store.catalog_epoch();
    let (responses, stats) = server.serve_trace_session(&trace, 2, &session);
    let epoch_after = server.deco.store.catalog_epoch();

    assert_eq!(stats.refreshes, 1);
    assert!(epoch_after > epoch_before, "the refresh bumped the epoch");
    assert_eq!(
        stats.misses, 2,
        "one cold solve per epoch: the refresh invalidates the warm line"
    );
    assert_eq!(stats.stale_purged, 1, "the old epoch's entry was reclaimed");
    assert_eq!(stats.planned, 12);
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, ServeOutcome::Planned(_))));

    // The invariant itself: every cycle ran against exactly one epoch,
    // the sequence of cycle epochs is monotone, and both epochs appear.
    let epochs: Vec<u64> = stats.cycle_rows.iter().map(|c| c.epoch).collect();
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "cycle epochs never go backwards: {epochs:?}"
    );
    assert!(epochs.contains(&epoch_before) && epochs.contains(&epoch_after));
    for row in &stats.cycle_rows {
        assert!(
            row.epoch == epoch_before || row.epoch == epoch_after,
            "no cycle may straddle epochs: {row:?}"
        );
    }
}

#[test]
fn quarantine_books_reset_consistently_across_refreshes() {
    // Crash everything: the single request's key accumulates strikes and
    // is quarantined at the threshold, with nothing ever cached.
    let config = ServeConfig {
        quarantine_threshold: 1,
        ..chaos_config()
    };
    let deco = small_deco();
    let spec = deco.store.spec.clone();
    let mut server = PlanServer::new(deco, config);
    let trace = ArrivalTrace::new(vec![Arrival {
        at_tick: 0.0,
        request: request_for(generators::montage(1, 77), 1, &spec),
    }]);
    let crash_all = ServeSession {
        faults: WorkerFaultPlan::crashes(7, 1.0),
        refreshes: Vec::new(),
    };
    let (responses, stats) = server.serve_trace_session(&trace, 1, &crash_all);
    assert_eq!(stats.quarantined, 1);
    assert_eq!(server.quarantined_keys(), 1);
    assert_eq!(
        server.cache_len(),
        0,
        "quarantined answers are never cached"
    );
    assert!(responses[0].canonical_line().contains("source=quarantined"));

    // A calibration refresh clears the quarantine and strike books; the
    // same logical request now solves (and caches) under the new epoch.
    let (epoch, purged) = server.refresh_calibration(MetadataStore::from_ground_truth(
        CloudSpec::amazon_ec2(),
        20,
    ));
    assert_eq!(purged, 0, "nothing was cached, nothing to purge");
    assert_eq!(server.quarantined_keys(), 0, "refresh clears quarantine");
    assert_eq!(server.deco.store.catalog_epoch(), epoch);
    let trace2 = ArrivalTrace::new(vec![Arrival {
        at_tick: 0.0,
        request: request_for(generators::montage(1, 77), 1, &spec),
    }]);
    let (responses2, stats2) = server.serve_trace(&trace2, 1);
    assert_eq!(stats2.misses, 1, "clean slate: the key solves cold again");
    assert_eq!(stats2.quarantined, 0);
    assert_eq!(server.cache_len(), 1, "the fresh solve is cached");
    assert!(responses2[0].canonical_line().contains("source=cold"));
}

#[test]
fn shed_requests_never_populate_the_cache() {
    // capacity 2, batch 1: r0 (healthy deadline) and r1 (tiny deadline)
    // queue at tick 0; r0's solve advances the clock past r1's canonical
    // deadline; when r2/r3 overflow the queue, the doomed r1 is shed in
    // favor of fresh viable work.
    let config = ServeConfig {
        queue_capacity: 2,
        batch_size: 1,
        ..ServeConfig::default()
    };
    let deco = small_deco();
    let spec = deco.store.spec.clone();
    let mut server = PlanServer::new(deco, config);
    let mut doomed = request_for(generators::montage(1, 51), 2, &spec);
    doomed.deadline = 1.0; // canonical deadline 1.0: dead after one solve
    let fresh_shape = generators::montage(1, 52);
    let trace = ArrivalTrace::new(vec![
        Arrival {
            at_tick: 0.0,
            request: request_for(generators::montage(1, 50), 1, &spec),
        },
        Arrival {
            at_tick: 0.0,
            request: doomed,
        },
        Arrival {
            at_tick: 1.0,
            request: request_for(fresh_shape.clone(), 3, &spec),
        },
        Arrival {
            at_tick: 1.0,
            request: request_for(fresh_shape, 4, &spec),
        },
    ]);
    let (responses, stats) = server.serve_trace(&trace, 1);
    assert_eq!(stats.shed, 1, "exactly the doomed waiter is shed");
    assert_eq!(
        stats.rejected_overload, 0,
        "shedding made room for the rest"
    );
    assert!(matches!(responses[1].outcome, ServeOutcome::Shed { .. }));
    assert_eq!(stats.planned, 3, "everyone else is planned");
    assert_eq!(
        server.cache_len(),
        2,
        "two distinct solved shapes cached; the shed key is absent"
    );
    assert_eq!(
        stats.waits.len() as u64,
        stats.planned,
        "shed requests record no wait sample"
    );
}

#[test]
fn crash_retries_follow_the_shared_capped_backoff_sequence() {
    // base 8, cap 100: retry dispatches must start at ticks 0, 8, 24, 56
    // (0 + 8, + 16, + 32) — the exact `capped_backoff` series — before
    // the fourth loss escalates.
    let config = ServeConfig {
        retry: RetryConfig {
            max_attempts: 4,
            backoff_base: 8.0,
            backoff_cap: 100.0,
        },
        quarantine_threshold: 99,
        ..ServeConfig::default()
    };
    let deco = small_deco();
    let spec = deco.store.spec.clone();
    let mut server = PlanServer::new(deco, config);
    let trace = ArrivalTrace::new(vec![Arrival {
        at_tick: 0.0,
        request: request_for(generators::montage(1, 50), 1, &spec),
    }]);
    let session = ServeSession {
        faults: WorkerFaultPlan::crashes(3, 1.0),
        refreshes: Vec::new(),
    };
    let (responses, stats) = server.serve_trace_session(&trace, 1, &session);
    assert_eq!(stats.worker_crashes, 4);
    assert_eq!(stats.retries, 3);
    assert_eq!(stats.escalated, 1);
    let starts: Vec<f64> = stats.cycle_rows.iter().map(|c| c.start_tick).collect();
    assert_eq!(
        starts,
        vec![0.0, 8.0, 24.0, 56.0],
        "retry cycles start on the shared capped-backoff ticks"
    );
    assert!(matches!(responses[0].outcome, ServeOutcome::Planned(_)));
    assert!(responses[0].canonical_line().contains("source=retried"));
}
