//! Integration tests for the sharded, persistent serving tier.
//!
//! The tentpole invariant: an N-shard [`ShardedServer`] replay is
//! **byte-identical** to a 1-process [`PlanServer`] replay of the same
//! trace under the same serving session — same `canonical_line` stream,
//! equal `ServeStats` — for N ∈ {1, 2, 4}:
//!
//! 1. quiescent (no faults, no refreshes);
//! 2. under injected worker crashes/stragglers AND a mid-trace
//!    calibration refresh;
//! 3. **with persistence, under injected shard crash/restarts** — a
//!    WAL-recovered shard resumes exactly where it died, so the restart
//!    schedule is observationally invisible;
//! 4. across a cold process restart: a rebuilt tier serves the whole
//!    repeat trace warm from its recovered stores.
//!
//! Without persistence a restart deterministically loses the shard's
//! partition — the documented degraded mode: replays remain
//! deterministic (same schedule → same bytes) but diverge from the
//! undisturbed reference by exactly the lost warm hits.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::serve::{CalibrationRefresh, ServeSession, WorkerFaultPlan};
use deco::shard::{ShardConfig, ShardFaultPlan, ShardSession, ShardedServer};
use std::path::PathBuf;

mod common;
use common::{lines, mixed_trace, reference, serve_config, small_deco, temp_dir};

const TMP: &str = "deco_shard_it";

fn shard_config(shards: usize, persist_dir: Option<PathBuf>) -> ShardConfig {
    ShardConfig {
        shards,
        workers_per_shard: 2,
        serve: serve_config(),
        persist_dir,
        snapshot_every: 0,
    }
}

#[test]
fn sharded_replay_is_byte_identical_to_one_process_at_1_2_and_4_shards() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = reference(16, &session);
    assert!(ref_stats.hits > 0, "the trace must exercise warm hits");
    for shards in [1usize, 2, 4] {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 16);
        let mut tier = ShardedServer::new(deco, shard_config(shards, None)).unwrap();
        let (responses, stats) = tier.serve_trace(&trace);
        assert_eq!(
            lines(&responses),
            ref_lines,
            "byte-identical stream at {shards} shards"
        );
        assert_eq!(stats, ref_stats, "equal merged stats at {shards} shards");
        assert_eq!(stats.digest(), ref_stats.digest());
        assert_eq!(tier.cache_len(), ref_stats.misses as usize);
        for si in 0..shards {
            assert!(tier.shard_len(si) > 0, "shard {si} of {shards} got no work");
        }
    }
}

#[test]
fn sharded_byte_identity_holds_under_worker_faults_and_a_refresh() {
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
        let mut tier = ShardedServer::new(deco, shard_config(shards, None)).unwrap();
        let shard_session = ShardSession {
            serve: session.clone(),
            shard_faults: ShardFaultPlan::quiescent(),
        };
        let (responses, stats) = tier.serve_trace_session(&trace, &shard_session);
        assert_eq!(
            lines(&responses),
            ref_lines,
            "faulted + refreshed stream at {shards} shards"
        );
        assert_eq!(stats, ref_stats);
    }
}

#[test]
fn killing_shards_mid_trace_with_persistence_is_byte_identical() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = reference(20, &session);
    for shards in [2usize, 4] {
        let dir = temp_dir(TMP, &format!("kill_{shards}"));
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 20);
        let mut tier = ShardedServer::new(deco, shard_config(shards, Some(dir.clone()))).unwrap();
        let shard_session = ShardSession {
            serve: session.clone(),
            // Roughly one in three (shard, cycle) boundaries bounces the
            // shard — a brutal schedule for a 20-cycle trace.
            shard_faults: ShardFaultPlan::restarts(4242, 0.33),
        };
        let (responses, stats) = tier.serve_trace_session(&trace, &shard_session);
        assert!(
            tier.shard_stats().restarts > 0,
            "the schedule must actually kill shards (got {:?})",
            tier.shard_stats()
        );
        assert!(
            tier.shard_stats().recovered_entries > 0,
            "restarted shards recovered warm state from the WAL"
        );
        assert_eq!(tier.shard_stats().lost_entries, 0, "nothing was lost");
        assert_eq!(
            lines(&responses),
            ref_lines,
            "a WAL-recovered restart is observationally a no-op at {shards} shards"
        );
        assert_eq!(stats, ref_stats);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_compaction_mid_trace_does_not_change_the_bytes() {
    let session = ServeSession::default();
    let (ref_lines, ref_stats) = reference(20, &session);
    let dir = temp_dir(TMP, "compact_mid");
    let deco = small_deco();
    let trace = mixed_trace(&deco.store.spec, 20);
    let mut config = shard_config(2, Some(dir.clone()));
    config.snapshot_every = 5; // compact aggressively, mid-trace
    let mut tier = ShardedServer::new(deco, config).unwrap();
    let shard_session = ShardSession {
        serve: session,
        shard_faults: ShardFaultPlan::restarts(77, 0.25),
    };
    let (responses, stats) = tier.serve_trace_session(&trace, &shard_session);
    assert!(tier.shard_stats().snapshots > 0, "compaction did run");
    assert!(tier.shard_stats().restarts > 0, "restarts ran too");
    assert_eq!(lines(&responses), ref_lines);
    assert_eq!(stats, ref_stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_restart_serves_the_repeat_trace_warm_from_the_recovered_store() {
    let dir = temp_dir(TMP, "cold_restart");
    let first = {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 16);
        let mut tier = ShardedServer::new(deco, shard_config(4, Some(dir.clone()))).unwrap();
        let (_, stats) = tier.serve_trace(&trace);
        assert!(stats.misses > 0 && stats.hits > 0);
        (stats, tier.cache_len())
    }; // tier dropped: the "process" exits
    let (first_stats, first_len) = first;

    // A brand-new tier over the same store directory warm-starts.
    let deco = small_deco();
    let trace = mixed_trace(&deco.store.spec, 16);
    let mut tier = ShardedServer::new(deco, shard_config(4, Some(dir.clone()))).unwrap();
    assert_eq!(
        tier.shard_stats().recovered_entries as usize,
        first_len,
        "every cached entry survived the cold restart"
    );
    assert_eq!(tier.cache_len(), first_len);
    let (responses, stats) = tier.serve_trace(&trace);
    assert_eq!(stats.misses, 0, "no re-solving after a warm restart");
    assert_eq!(
        stats.hits,
        first_stats.hits + first_stats.misses,
        "every request that previously solved or hit now hits warm"
    );
    assert!(responses
        .iter()
        .all(|r| r.canonical_line().contains("source=warm")
            || r.canonical_line().contains("source=coalesced")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarts_without_persistence_are_deterministic_but_lossy() {
    let session = ServeSession::default();
    let (_, ref_stats) = reference(20, &session);
    let run = || {
        let deco = small_deco();
        let trace = mixed_trace(&deco.store.spec, 20);
        let mut tier = ShardedServer::new(deco, shard_config(2, None)).unwrap();
        let shard_session = ShardSession {
            serve: ServeSession::default(),
            shard_faults: ShardFaultPlan::restarts(4242, 0.33),
        };
        let (responses, stats) = tier.serve_trace_session(&trace, &shard_session);
        let lost = tier.shard_stats().lost_entries;
        let restarts = tier.shard_stats().restarts;
        (lines(&responses), stats, lost, restarts)
    };
    let (lines_a, stats_a, lost_a, restarts_a) = run();
    let (lines_b, stats_b, lost_b, _) = run();
    assert!(restarts_a > 0, "the schedule fired");
    assert!(lost_a > 0, "memory-only restarts drop the partition");
    assert_eq!(lines_a, lines_b, "degraded mode is still deterministic");
    assert_eq!(stats_a, stats_b);
    assert_eq!(lost_a, lost_b);
    // And it is genuinely degraded: warm hits were lost relative to the
    // undisturbed reference, so more solves ran.
    assert!(
        stats_a.misses > ref_stats.misses,
        "lost partitions force re-solves: {} vs reference {}",
        stats_a.misses,
        ref_stats.misses
    );
    // Every request still gets a terminal answer.
    assert_eq!(lines_a.len(), 20);
}
