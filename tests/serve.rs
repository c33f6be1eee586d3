//! Integration tests for the plan-serving engine (deco-serve).
//!
//! The load-bearing properties, in order:
//!
//! 1. **Warm ≡ cold ≡ direct** — a cache hit hands back a plan
//!    bit-identical to a cold solve, which is itself bit-identical to
//!    calling the supervisor directly with the canonical deadline
//!    (proptested over random DAGs).
//! 2. **Epoch invalidation** — a calibration refresh bumps the catalog
//!    epoch and every subsequent request misses; no stale plan survives.
//! 3. **Deterministic replay** — one recorded trace produces a
//!    byte-identical response stream and equal stats at 1, 2, and 8
//!    solver workers.
//! 4. **Serving smoke** — a 200-request mixed Ligo/Montage trace at 4
//!    workers (the CI smoke) ends with every request answered and a warm
//!    majority.

use deco::cloud::CloudSpec;
use deco::engine::supervisor::plan_with_fallback;
use deco::serve::{
    canonical_deadline, Arrival, ArrivalTrace, PlanRequest, PlanServer, PlanSource, ServeConfig,
    ServeOutcome, ServedPlan,
};
use deco::solver::SearchBudget;
use deco::workflow::generators;
use proptest::prelude::*;

mod common;
use common::{request_for, small_deco};

fn served(outcome: &ServeOutcome) -> &ServedPlan {
    match outcome {
        ServeOutcome::Planned(p) => p,
        ServeOutcome::Rejected { reason } => panic!("expected a plan, got: {reason}"),
        ServeOutcome::Shed { reason } => panic!("expected a plan, got shed: {reason}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cold solve == warm hit == direct supervisor call, bit for bit,
    /// over random DAX workflows.
    #[test]
    fn warm_hits_are_bit_identical_to_cold_and_direct_solves(
        n in 2usize..12,
        p in 0.05f64..0.4,
        seed in 0u64..200,
    ) {
        let deco = small_deco();
        let wf = generators::random_dag(n, p, seed);
        let req = request_for(wf.clone(), 1, &deco.store.spec);
        let requested_deadline = req.deadline;

        let mut server = PlanServer::new(deco, ServeConfig::default());
        // Far-apart arrivals: the second lands in a later cycle and must
        // hit the cache line the first populated.
        let trace = ArrivalTrace::new(vec![
            Arrival { at_tick: 0.0, request: req.clone() },
            Arrival { at_tick: 1e12, request: req },
        ]);
        let (responses, stats) = server.serve_trace(&trace, 1);
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
        let cold = served(&responses[0].outcome);
        let warm = served(&responses[1].outcome);
        prop_assert_eq!(cold.source, PlanSource::Cold);
        prop_assert_eq!(warm.source, PlanSource::Warm);

        // The direct call, at the canonical deadline the server solves.
        let cd = canonical_deadline(
            requested_deadline,
            server.config().deadline_bucket,
        );
        let direct = plan_with_fallback(
            &server.deco,
            &wf,
            cd,
            0.9,
            &SearchBudget::unlimited(),
        ).expect("supervisor always plans a non-empty workflow");

        for plan in [&cold.plan, &warm.plan] {
            prop_assert_eq!(&plan.plan.types, &direct.plan.types);
            prop_assert_eq!(
                plan.plan.evaluation.objective.to_bits(),
                direct.plan.evaluation.objective.to_bits()
            );
            prop_assert_eq!(
                plan.plan.evaluation.feasible,
                direct.plan.evaluation.feasible
            );
            prop_assert_eq!(plan.provenance.stage, direct.provenance.stage);
            prop_assert_eq!(
                plan.provenance.budget_spent.to_bits(),
                direct.provenance.budget_spent.to_bits()
            );
        }
        prop_assert_eq!(cold.canonical_deadline.to_bits(), cd.to_bits());
    }
}

#[test]
fn calibration_epoch_bump_invalidates_every_cached_plan() {
    let deco = small_deco();
    let req = request_for(generators::montage(1, 41), 1, &deco.store.spec);
    let mut server = PlanServer::new(deco, ServeConfig::default());
    let one = |server: &mut PlanServer, req: &PlanRequest| {
        let trace = ArrivalTrace::new(vec![Arrival {
            at_tick: 0.0,
            request: req.clone(),
        }]);
        server.serve_trace(&trace, 1)
    };

    let (_, s1) = one(&mut server, &req);
    assert_eq!((s1.misses, s1.hits), (1, 0), "first sight is cold");
    let (_, s2) = one(&mut server, &req);
    assert_eq!((s2.misses, s2.hits), (0, 1), "unchanged catalog hits");

    // A calibration refresh bumps the catalog epoch: same request, new
    // key — the cached plan must not be served again.
    let epoch_before = server.deco.store.catalog_epoch();
    server.deco.store.set_fail_rate(0, 0, 0.01);
    assert!(server.deco.store.catalog_epoch() > epoch_before);
    let (_, s3) = one(&mut server, &req);
    assert_eq!(
        (s3.misses, s3.hits),
        (1, 0),
        "epoch bump forces a fresh solve"
    );
    assert_eq!(s3.stale_purged, 1, "the stale entry is reclaimed");
    let (_, s4) = one(&mut server, &req);
    assert_eq!((s4.misses, s4.hits), (0, 1), "the new epoch re-warms");
}

/// A mixed, adversarial trace: several tenants, repeated shapes (hits and
/// coalescing), an invalid request, and a burst that overflows the
/// admission queue.
fn adversarial_trace(spec: &CloudSpec) -> ArrivalTrace {
    let shapes = [
        generators::montage(1, 50),
        generators::montage(1, 51),
        generators::pipeline(3, 40.0, 7),
        generators::random_dag(6, 0.3, 9),
    ];
    let mut arrivals = Vec::new();
    for i in 0..18u32 {
        let wf = shapes[(i as usize) % shapes.len()].clone();
        let mut req = request_for(wf, i % 3, spec);
        if i == 5 {
            req.percentile = 2.0; // invalid: rejected, never solved
        }
        // Two bursts at tick 0 and one later wave: the tick-0 burst
        // overflows the 8-deep queue.
        let at_tick = if i < 12 { 0.0 } else { 1e12 };
        arrivals.push(Arrival {
            at_tick,
            request: req,
        });
    }
    ArrivalTrace::new(arrivals)
}

#[test]
fn response_stream_is_byte_identical_at_1_2_and_8_workers() {
    let mut streams = Vec::new();
    let mut all_stats = Vec::new();
    for workers in [1usize, 2, 8] {
        let deco = small_deco();
        let trace = adversarial_trace(&deco.store.spec);
        let config = ServeConfig {
            queue_capacity: 8,
            batch_size: 4,
            ..ServeConfig::default()
        };
        let mut server = PlanServer::new(deco, config);
        let (responses, stats) = server.serve_trace(&trace, workers);
        assert_eq!(responses.len(), trace.len(), "every request is answered");
        let lines: Vec<String> = responses.iter().map(|r| r.canonical_line()).collect();
        streams.push(lines);
        all_stats.push(stats);
    }
    assert_eq!(
        streams[0], streams[1],
        "1 and 2 workers must serve byte-identical streams"
    );
    assert_eq!(
        streams[0], streams[2],
        "1 and 8 workers must serve byte-identical streams"
    );
    assert_eq!(all_stats[0], all_stats[1]);
    assert_eq!(all_stats[0], all_stats[2]);
    assert_eq!(all_stats[0].digest(), all_stats[2].digest());

    // The trace exercised every serving path.
    let s = &all_stats[0];
    assert!(s.misses > 0, "cold solves happened");
    assert!(s.hits + s.coalesced > 0, "warm paths happened");
    assert!(s.rejected_invalid == 1, "the bad percentile was refused");
    assert!(s.rejected_overload > 0, "the burst overflowed the queue");
}

#[test]
fn smoke_200_request_mixed_trace_at_4_workers() {
    let deco = small_deco();
    let spec = deco.store.spec.clone();
    // Eight distinct shapes — four Montage, four Ligo — cycled through
    // 200 requests from four tenants.
    let mut shapes = Vec::new();
    for s in 0..4u64 {
        shapes.push(generators::montage(1, 60 + s));
        shapes.push(generators::ligo(12, 60 + s));
    }
    let arrivals: Vec<Arrival> = (0..200u32)
        .map(|i| Arrival {
            // Spread arrivals so later requests land after the first
            // solves: everything past the first wave is warm.
            at_tick: f64::from(i) * 1e9,
            request: request_for(shapes[(i as usize) % shapes.len()].clone(), i % 4, &spec),
        })
        .collect();
    let mut server = PlanServer::new(deco, ServeConfig::default());
    let (responses, stats) = server.serve_trace(&ArrivalTrace::new(arrivals), 4);

    assert_eq!(responses.len(), 200, "every request is answered");
    assert_eq!(stats.planned, 200, "no rejections in a well-formed trace");
    assert_eq!(stats.misses, 8, "one cold solve per distinct shape");
    assert_eq!(stats.hits + stats.coalesced, 192);
    assert!(
        stats.hit_rate() > 0.9,
        "a repetitive trace serves mostly warm: {}",
        stats.hit_rate()
    );
    assert!(stats.p95_wait() >= stats.p50_wait());
    assert!(stats.stage_deco + stats.stage_heuristic + stats.stage_autoscaling == 200);
    // Replaying the identical trace on a fresh server reproduces the
    // stream (the seed + trace → bytes contract).
    let deco2 = small_deco();
    let arrivals2: Vec<Arrival> = (0..200u32)
        .map(|i| Arrival {
            at_tick: f64::from(i) * 1e9,
            request: request_for(shapes[(i as usize) % shapes.len()].clone(), i % 4, &spec),
        })
        .collect();
    let mut server2 = PlanServer::new(deco2, ServeConfig::default());
    let (responses2, stats2) = server2.serve_trace(&ArrivalTrace::new(arrivals2), 4);
    assert_eq!(stats, stats2);
    for (a, b) in responses.iter().zip(&responses2) {
        assert_eq!(a.canonical_line(), b.canonical_line());
    }
}
