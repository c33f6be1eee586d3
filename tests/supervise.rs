//! Integration tests for the supervised out-of-process serving tier.
//!
//! This binary is deliberately `harness = false`: the supervisor spawns
//! its shard workers by re-executing `current_exe()` with
//! `--deco-shard-worker`, and under the libtest harness that would
//! recursively run the whole suite. Our `main` dispatches to the worker
//! entry point first and only then runs the tests, so the same binary
//! serves as both sides of the protocol.
//!
//! The tentpole invariant mirrors `tests/shard.rs`: an N-shard
//! [`ShardSupervisor`] replay — shards in *separate processes* — is
//! byte-identical to a 1-process `PlanServer` replay of the same trace,
//! for N ∈ {1, 2, 4}; including under supervisor-initiated kill/restart
//! schedules and real mid-cycle SIGKILLs whenever persistence is on.
//! Supervision failures (hangs, crash loops past the strike budget)
//! degrade per the documented contract — fallback answers, never a
//! panic or a stall.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::serve::{
    Arrival, ArrivalTrace, CalibrationRefresh, PlanServer, ServeSession, WorkerFaultPlan,
};
use deco::shard::proc::{Liveness, Sabotage, ShardSupervisor, SuperviseConfig, SuperviseSession};
use deco::shard::ShardFaultPlan;
use deco::workflow::generators;
use std::path::PathBuf;

mod common;
use common::{lines, mixed_trace, reference, request_for, serve_config, small_deco, temp_dir};

const TMP: &str = "deco_sup_it";

/// Ten distinct shapes cycling: misses (and therefore solve
/// assignments — the chaos kill window) land in *every* early cycle,
/// with warm hits and coalesces arriving once shapes repeat.
fn spread_trace(spec: &CloudSpec, n: u32) -> ArrivalTrace {
    let arrivals: Vec<Arrival> = (0..n)
        .map(|i| {
            let v = 40 + (i % 10);
            let wf = if i % 2 == 0 {
                generators::montage(1, u64::from(v))
            } else {
                generators::ligo(12, u64::from(v))
            };
            Arrival {
                at_tick: f64::from(i) * 1e9,
                request: request_for(wf, i % 3, spec),
            }
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

fn supervise_config(shards: usize, persist_dir: Option<PathBuf>) -> SuperviseConfig {
    SuperviseConfig {
        shards,
        workers_per_shard: 2,
        serve: serve_config(),
        persist_dir,
        // Tight-but-safe supervision timings: heartbeats every 10ms,
        // death after 2s of silence, restarts paced at 1..4ms.
        heartbeat_ms: 10,
        heartbeat_timeout_ms: 2_000,
        hang_timeout_ms: 60_000,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..SuperviseConfig::default()
    }
}

// ---------------------------------------------------------------------------

fn supervised_replay_is_byte_identical_at_1_2_and_4_shards() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = reference(16, &session);
    assert!(ref_stats.hits > 0, "the trace must exercise warm hits");
    for shards in [1usize, 2, 4] {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 16);
        let mut tier = ShardSupervisor::new(deco, supervise_config(shards, None)).unwrap();
        let (responses, stats) = tier.serve_trace(&trace);
        assert_eq!(
            lines(&responses),
            ref_lines,
            "byte-identical stream at {shards} worker processes"
        );
        assert_eq!(stats, ref_stats, "equal merged stats at {shards} shards");
        assert_eq!(stats.digest(), ref_stats.digest());
        assert_eq!(tier.cache_len(), ref_stats.misses as usize);
        for si in 0..shards {
            assert!(tier.shard_len(si) > 0, "shard {si} of {shards} got no work");
        }
        // `Suspect` only means one poll found a worker more than one
        // heartbeat period overdue — a scheduling hiccup on a loaded
        // machine, not a death — so the wall clock must not decide this
        // test: what a quiescent replay guarantees is no death and no
        // restart.
        assert!(
            tier.shard_liveness()
                .iter()
                .all(|l| matches!(l, Liveness::Healthy | Liveness::Suspect)),
            "a quiescent replay never restarts or quarantines a worker"
        );
        assert_eq!(tier.stats().crashes_detected, 0);
    }
}

fn byte_identity_holds_under_worker_faults_and_a_refresh() {
    let session = ServeSession {
        faults: WorkerFaultPlan {
            seed: 99,
            crash_prob: 0.15,
            straggler_prob: 0.2,
            straggler_mean_ticks: 25.0,
            virtual_workers: 8,
        },
        refreshes: vec![CalibrationRefresh {
            at_tick: 8.5e9,
            store: MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20),
        }],
    };
    let (ref_lines, ref_stats) = reference(20, &session);
    assert!(ref_stats.refreshes == 1 && ref_stats.worker_crashes > 0);
    for shards in [2usize, 4] {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 20);
        let mut tier = ShardSupervisor::new(deco, supervise_config(shards, None)).unwrap();
        let session = SuperviseSession {
            serve: session.clone(),
            ..SuperviseSession::default()
        };
        let (responses, stats) = tier.serve_trace_session(&trace, &session);
        assert_eq!(
            lines(&responses),
            ref_lines,
            "faulted + refreshed stream at {shards} worker processes"
        );
        assert_eq!(stats, ref_stats);
    }
}

fn supervisor_initiated_kill_restart_with_persistence_is_byte_identical() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = reference(20, &session);
    for shards in [2usize, 4] {
        let dir = temp_dir(TMP, &format!("rotate_{shards}"));
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 20);
        let mut config = supervise_config(shards, Some(dir.clone()));
        config.snapshot_every = 5; // compact aggressively, mid-trace
        let mut tier = ShardSupervisor::new(deco, config).unwrap();
        let session = SuperviseSession {
            serve: session.clone(),
            shard_faults: ShardFaultPlan::restarts(4242, 0.33),
            ..SuperviseSession::default()
        };
        let (responses, stats) = tier.serve_trace_session(&trace, &session);
        let sup = tier.stats();
        assert!(
            sup.restarts > 0,
            "the schedule must actually bounce workers (got {sup:?})"
        );
        assert!(
            sup.recovered_entries > 0,
            "restarted workers recovered warm state from the WAL"
        );
        assert_eq!(sup.lost_entries, 0, "nothing was lost");
        assert_eq!(
            lines(&responses),
            ref_lines,
            "a WAL-recovered process restart is observationally a no-op at {shards} shards"
        );
        assert_eq!(stats, ref_stats);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn real_sigkills_mid_trace_replay_byte_identically() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = {
        let deco = small_deco();
        let trace = spread_trace(&deco.store.spec, 20);
        let mut server = PlanServer::new(deco, serve_config());
        let (responses, stats) = server.serve_trace_session(&trace, 2, &session);
        (lines(&responses), stats)
    };
    let dir = temp_dir(TMP, "chaos");
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, 20);
    let mut tier = ShardSupervisor::new(deco, supervise_config(2, Some(dir.clone()))).unwrap();
    let session = SuperviseSession {
        serve: session,
        // Real SIGKILLs delivered right after job assignment, mid-cycle.
        // The supervisor must detect each death from EOF/heartbeats alone.
        chaos_kills: ShardFaultPlan::restarts(7, 0.5),
        ..SuperviseSession::default()
    };
    let (responses, stats) = tier.serve_trace_session(&trace, &session);
    let sup = tier.stats();
    assert!(
        sup.crashes_detected > 0 && sup.restarts > 0,
        "the chaos schedule must actually kill workers (got {sup:?})"
    );
    assert_eq!(
        lines(&responses),
        ref_lines,
        "acked-mutation replay + WAL recovery make a mid-cycle SIGKILL lossless"
    );
    assert_eq!(stats, ref_stats);
    assert_eq!(sup.lost_entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

fn a_hung_worker_is_killed_and_its_cycle_still_completes() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = {
        let deco = small_deco();
        let trace = spread_trace(&deco.store.spec, 16);
        let mut server = PlanServer::new(deco, serve_config());
        let (responses, stats) = server.serve_trace_session(&trace, 2, &session);
        (lines(&responses), stats)
    };
    let dir = temp_dir(TMP, "hang");
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, 16);
    let mut config = supervise_config(2, Some(dir.clone()));
    // Shard 0 keeps heartbeating but stops answering after its second
    // assignment — a hang, not a crash. Detection must come from the
    // hang window, not the heartbeat timeout.
    config.hang_timeout_ms = 1_500;
    config.sabotage.insert(
        0,
        Sabotage {
            hang_after_assigns: Some(1),
            exit_after_assigns: None,
        },
    );
    let mut tier = ShardSupervisor::new(deco, config).unwrap();
    let (responses, stats) = tier.serve_trace(&trace);
    let sup = tier.stats();
    assert!(
        sup.hangs_detected > 0,
        "the sabotaged worker must be declared hung (got {sup:?})"
    );
    assert_eq!(
        sup.hangs_detected, sup.crashes_detected,
        "every detection here is a hang — heartbeats never went silent"
    );
    assert_eq!(responses.len(), 16, "no request is ever stalled");
    assert_eq!(
        lines(&responses),
        ref_lines,
        "a killed-and-recovered hang re-solves to the identical bytes"
    );
    assert_eq!(stats, ref_stats);
    let _ = std::fs::remove_dir_all(&dir);
}

fn a_crash_looping_worker_is_quarantined_and_served_by_fallback() {
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, 12);
    let mut config = supervise_config(2, None);
    config.strike_budget = 1;
    // Shard 0's worker exits the moment it receives work — every
    // incarnation, forever. Two strikes exceed the budget of 1.
    config.sabotage.insert(
        0,
        Sabotage {
            hang_after_assigns: None,
            exit_after_assigns: Some(0),
        },
    );
    let mut tier = ShardSupervisor::new(deco, config).unwrap();
    let (responses, stats) = tier.serve_trace(&trace);
    let sup = tier.stats();
    assert_eq!(
        tier.shard_liveness()[0],
        Liveness::Quarantined,
        "the crash loop must exhaust the strike budget (got {sup:?})"
    );
    // Shard 1 never dies; it may read `Suspect` if a poll caught it a
    // heartbeat period late (scheduling, not death), never worse.
    assert!(
        matches!(
            tier.shard_liveness()[1],
            Liveness::Healthy | Liveness::Suspect
        ),
        "shard 1 is never restarted or quarantined (got {sup:?})"
    );
    assert!(
        sup.quarantined_shards == 1 && sup.fallback_answers > 0,
        "quarantine must degrade to fallback answers (got {sup:?})"
    );
    assert!(
        sup.dropped_inserts > 0,
        "fallback answers are never cached into a dark shard"
    );
    assert_eq!(responses.len(), 12, "degraded, but every request answered");
    assert!(
        stats.requests == 12,
        "the cycle loop never stalled on the dead shard"
    );
    assert_eq!(tier.shard_len(0), 0, "the quarantined partition is empty");
}

fn cold_restart_serves_the_repeat_trace_warm_from_recovered_stores() {
    let dir = temp_dir(TMP, "cold");
    let (first_stats, first_len) = {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 16);
        let mut tier = ShardSupervisor::new(deco, supervise_config(2, Some(dir.clone()))).unwrap();
        let (_, stats) = tier.serve_trace(&trace);
        assert!(stats.misses > 0 && stats.hits > 0);
        (stats, tier.cache_len())
    }; // supervisor dropped: workers shut down

    let deco = small_deco();
    let trace = mixed_trace(&deco.store.spec, 16);
    let mut tier = ShardSupervisor::new(deco, supervise_config(2, Some(dir.clone()))).unwrap();
    assert_eq!(
        tier.stats().recovered_entries as usize,
        first_len,
        "every cached entry survived the cold restart of the whole tier"
    );
    assert_eq!(tier.cache_len(), first_len);
    let (responses, stats) = tier.serve_trace(&trace);
    assert_eq!(stats.misses, 0, "no re-solving after a warm restart");
    assert_eq!(stats.hits, first_stats.hits + first_stats.misses);
    assert!(responses
        .iter()
        .all(|r| r.canonical_line().contains("source=warm")
            || r.canonical_line().contains("source=coalesced")));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------

fn main() {
    // Worker side: when the supervisor re-execs this binary with
    // --deco-shard-worker, this call never returns.
    deco::shard::proc::maybe_run_shard_worker();

    let tests: &[(&str, fn())] = &[
        (
            "supervised_replay_is_byte_identical_at_1_2_and_4_shards",
            supervised_replay_is_byte_identical_at_1_2_and_4_shards,
        ),
        (
            "byte_identity_holds_under_worker_faults_and_a_refresh",
            byte_identity_holds_under_worker_faults_and_a_refresh,
        ),
        (
            "supervisor_initiated_kill_restart_with_persistence_is_byte_identical",
            supervisor_initiated_kill_restart_with_persistence_is_byte_identical,
        ),
        (
            "real_sigkills_mid_trace_replay_byte_identically",
            real_sigkills_mid_trace_replay_byte_identically,
        ),
        (
            "a_hung_worker_is_killed_and_its_cycle_still_completes",
            a_hung_worker_is_killed_and_its_cycle_still_completes,
        ),
        (
            "a_crash_looping_worker_is_quarantined_and_served_by_fallback",
            a_crash_looping_worker_is_quarantined_and_served_by_fallback,
        ),
        (
            "cold_restart_serves_the_repeat_trace_warm_from_recovered_stores",
            cold_restart_serves_the_repeat_trace_warm_from_recovered_stores,
        ),
    ];

    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let mut ran = 0usize;
    for (name, test) in tests {
        if filter.as_deref().is_some_and(|f| !name.contains(f)) {
            continue;
        }
        eprintln!("test {name} ...");
        test();
        eprintln!("test {name} ... ok");
        ran += 1;
    }
    eprintln!("\ntest result: ok. {ran} passed (supervise)");
}
