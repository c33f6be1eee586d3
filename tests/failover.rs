//! Supervisor checkpointing + warm failover, end to end.
//!
//! Like `tests/supervise.rs`, this binary is `harness = false`: the
//! supervisor spawns shard workers by re-executing `current_exe()` with
//! `--deco-shard-worker`, so `main` dispatches to the worker entry
//! point first. This suite adds a second self-exec role: with
//! `--failover-driver`, the binary runs a *journaled* supervised replay
//! and streams each committed response line to a file — the harness
//! kills that child (scheduled abort or a real mid-trace SIGKILL) and
//! fails over to a cold standby **in-process**, recovered from the same
//! journal + persist directories.
//!
//! The tentpole invariant: the concatenation of (a) the lines the dead
//! supervisor provably emitted, (b) the journaled-but-unprinted suffix
//! the standby re-emits, and (c) the standby's live continuation is
//! **byte-identical** to an unkilled 1-process `PlanServer` replay of
//! the same trace — same lines, same final stats digest — at
//! N ∈ {1, 2, 4} shards, including under worker-fault schedules, with
//! no response dropped or duplicated across the takeover.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::serve::store::{encode_frame, raw_frame_at};
use deco::serve::{
    Arrival, ArrivalTrace, CalibrationRefresh, PlanResponse, PlanServer, ServeSession, ServeStats,
    WorkerFaultPlan,
};
use deco::shard::proc::{
    JournalFrame, RecoveredRun, ShardSupervisor, SuperviseConfig, SuperviseSession,
    SupervisorFaultPlan, SupervisorJournal, SNAPSHOT_FILE, WAL_FILE,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};

mod common;
use common::{lines, request_for, serve_config, small_deco, temp_dir};

const TMP: &str = "deco_failover";

/// Ten distinct shapes cycling, so misses land in every early cycle and
/// warm hits arrive once shapes repeat — both sides of a takeover see
/// both kinds of traffic.
fn spread_trace(spec: &CloudSpec, n: u32) -> ArrivalTrace {
    let arrivals: Vec<Arrival> = (0..n)
        .map(|i| {
            let v = 40 + (i % 10);
            let wf = if i % 2 == 0 {
                deco::workflow::generators::montage(1, u64::from(v))
            } else {
                deco::workflow::generators::ligo(12, u64::from(v))
            };
            Arrival {
                at_tick: f64::from(i) * 1e9,
                request: request_for(wf, i % 3, spec),
            }
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

/// The serving session both sides of every takeover run under.
/// `faulted` adds a seeded worker-fault schedule and a mid-trace
/// calibration refresh — the recovery path must replay the refresh onto
/// the standby's catalog before any worker spawns.
fn failover_serve_session(faulted: bool) -> ServeSession {
    if !faulted {
        return ServeSession::default();
    }
    ServeSession {
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
    }
}

fn supervise_config(
    shards: usize,
    persist: PathBuf,
    journal: PathBuf,
    touch_backlog: Option<usize>,
) -> SuperviseConfig {
    SuperviseConfig {
        shards,
        workers_per_shard: 2,
        serve: serve_config(),
        persist_dir: Some(persist),
        journal_dir: Some(journal),
        snapshot_every: 4, // compact both WALs mid-trace
        heartbeat_ms: 10,
        heartbeat_timeout_ms: 2_000,
        hang_timeout_ms: 60_000,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        touch_backlog: touch_backlog.unwrap_or(128),
        ..SuperviseConfig::default()
    }
}

/// The unkilled 1-process reference the spliced stream must equal.
fn reference(n: u32, session: &ServeSession) -> (Vec<String>, ServeStats) {
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let mut server = PlanServer::new(deco, serve_config());
    let (responses, stats) = server.serve_trace_session(&trace, 2, session);
    (lines(&responses), stats)
}

/// One commit group of a journal file, as its bytes lay it out.
struct Group {
    /// Byte offsets of the group's first frame and past its `Commit`.
    start: usize,
    end: usize,
    cycle: u64,
    /// The wait-log length the commit seals.
    waits: u64,
    /// `(base, values)` of each `Waits` frame in the group.
    wait_blocks: Vec<(u64, usize)>,
    /// Mutation frames (everything but `Waits` and the `Commit`).
    mutations: u64,
}

/// Split journal bytes into commit groups (a well-formed file has no
/// tail past the last one).
fn journal_groups(bytes: &[u8]) -> Vec<Group> {
    let mut groups = Vec::new();
    let (mut pos, mut start) = (0usize, 0usize);
    let mut wait_blocks = Vec::new();
    let mut mutations = 0u64;
    while let Some((body, next)) = raw_frame_at(bytes, pos) {
        match JournalFrame::decode_body(body).expect("a journal the tier wrote decodes") {
            JournalFrame::Waits { base, values } => wait_blocks.push((base, values.len())),
            JournalFrame::Commit { rec, waits } => {
                groups.push(Group {
                    start,
                    end: next,
                    cycle: rec.cycle,
                    waits,
                    wait_blocks: std::mem::take(&mut wait_blocks),
                    mutations: std::mem::take(&mut mutations),
                });
                start = next;
            }
            _ => mutations += 1,
        }
        pos = next;
    }
    assert_eq!(start, bytes.len(), "the file ends on a sealed group");
    groups
}

// ---------------------------------------------------------------------------
// The driver role: a child copy of this binary running the journaled
// primary, streaming each committed line to a file so the harness can
// observe exactly what a client saw before the kill.

const DRIVER_ARG: &str = "--failover-driver";

fn run_failover_driver(args: &[String]) -> ! {
    let [out_path, shards, journal, persist, n, abort_at, faulted, pause_after] = args else {
        eprintln!("driver args: out shards journal persist n abort_at faulted pause_after");
        std::process::exit(2);
    };
    let pause_after: Option<u64> =
        (pause_after != "none").then(|| pause_after.parse().expect("pause"));
    let shards: usize = shards.parse().expect("shards");
    let n: u32 = n.parse().expect("trace length");
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let config = supervise_config(shards, persist.into(), journal.into(), None);
    let faulted = faulted == "1";
    let supervisor = match abort_at.as_str() {
        "none" => SupervisorFaultPlan::quiescent(),
        cycle => SupervisorFaultPlan::abort_at_cycles([cycle.parse().expect("abort cycle")]),
    };
    let session = SuperviseSession {
        serve: failover_serve_session(faulted),
        supervisor,
        ..SuperviseSession::default()
    };
    let mut tier = ShardSupervisor::new(deco, config).expect("driver tier");
    let mut out = std::fs::File::create(out_path).expect("driver out file");
    let mut emit = |idx: u64, r: &PlanResponse| {
        // One write per line, flushed, so a SIGKILL tears at most the
        // final line — which the harness then drops as incomplete.
        writeln!(out, "RESP {idx}\t{}", r.canonical_line()).expect("driver write");
        out.flush().expect("driver flush");
        if pause_after == Some(idx + 1) {
            // The pause point: this line's commit is durable and the
            // line is out; wait here for the harness's SIGKILL.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
            }
        }
    };
    let (_, stats, halted) = tier.serve_trace_journaled(&trace, &session, None, &mut emit);
    assert!(!halted, "the driver only aborts, it never halts");
    writeln!(out, "DONE {:016x}", stats.digest()).expect("driver done");
    std::process::exit(0);
}

/// How a driver's run ends before its trace does.
enum DriverEnd {
    /// The supervisor fault plan aborts the process at this cycle.
    AbortAt(u64),
    /// The driver blocks after emitting this many lines until killed.
    PauseAfter(u64),
}

fn spawn_driver(
    out: &PathBuf,
    shards: usize,
    journal: &Path,
    persist: &Path,
    n: u32,
    end: DriverEnd,
    faulted: bool,
) -> std::process::Child {
    let (abort_at, pause_after) = match end {
        DriverEnd::AbortAt(c) => (c.to_string(), "none".into()),
        DriverEnd::PauseAfter(k) => ("none".into(), k.to_string()),
    };
    let exe = std::env::current_exe().expect("current exe");
    std::process::Command::new(exe)
        .arg(DRIVER_ARG)
        .arg(out)
        .arg(shards.to_string())
        .arg(journal)
        .arg(persist)
        .arg(n.to_string())
        .arg(abort_at)
        .arg(if faulted { "1" } else { "0" })
        .arg(pause_after)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn driver")
}

/// Parse the driver's output file: complete `RESP` lines (a torn final
/// line is dropped) and the `DONE` digest when the run finished.
fn read_driver_output(path: &PathBuf) -> (Vec<String>, Option<String>) {
    let raw = std::fs::read_to_string(path).unwrap_or_default();
    let mut printed = Vec::new();
    let mut done = None;
    for line in raw.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            break; // torn tail from the kill: the client never saw it
        };
        if let Some(rest) = body.strip_prefix("RESP ") {
            let (idx, text) = rest.split_once('\t').expect("RESP framing");
            let idx: usize = idx.parse().expect("RESP index");
            assert_eq!(idx, printed.len(), "emitted indices are contiguous");
            printed.push(text.to_string());
        } else if let Some(digest) = body.strip_prefix("DONE ") {
            done = Some(digest.to_string());
        }
    }
    (printed, done)
}

/// Splice a [`RecoveredRun`]'s journaled lines onto what the dead
/// supervisor provably printed: the overlap must agree byte-for-byte
/// (no duplicates), and the journal must reach back at least to the
/// first unprinted index (no gaps).
fn splice_recovered(printed: &mut Vec<String>, run: &RecoveredRun) {
    let p = printed.len() as u64;
    assert!(
        run.lines_start <= p,
        "journal (from {}) must cover the unprinted suffix (printed {p})",
        run.lines_start
    );
    for (i, line) in run.lines.iter().enumerate() {
        let idx = run.lines_start + i as u64;
        if idx < p {
            assert_eq!(
                &printed[idx as usize], line,
                "journal and printed stream agree on line {idx}"
            );
        } else {
            printed.push(line.clone());
        }
    }
}

/// Recover a standby from the journal and serve the rest of the trace,
/// appending every line (re-emitted + live) onto `printed`. Returns the
/// final stats and whether a scheduled halt stopped the run again.
fn standby_takeover(
    shards: usize,
    journal: &Path,
    persist: &Path,
    n: u32,
    faulted: bool,
    halt_at: Option<u64>,
    printed: &mut Vec<String>,
) -> (ShardSupervisor, ServeStats, bool) {
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let config = supervise_config(shards, persist.to_path_buf(), journal.to_path_buf(), None);
    let serve = failover_serve_session(faulted);
    let (mut tier, run) =
        ShardSupervisor::recover(deco, config, &serve.refreshes).expect("standby recovers");
    let run = run.expect("the primary sealed at least one cycle");
    splice_recovered(printed, &run);
    let mut next = run.lines_start + run.lines.len() as u64;
    assert_eq!(
        next, run.checkpoint.emitted,
        "journaled lines end exactly at the checkpoint's emit mark"
    );
    let session = SuperviseSession {
        serve,
        supervisor: halt_at.map_or_else(SupervisorFaultPlan::quiescent, |c| {
            SupervisorFaultPlan::halt_at_cycles([c])
        }),
        ..SuperviseSession::default()
    };
    let mut live: Vec<String> = Vec::new();
    let mut emit = |idx: u64, r: &PlanResponse| {
        assert_eq!(idx, next, "live emission continues without gap or overlap");
        live.push(r.canonical_line());
        next += 1;
    };
    let (_, stats, halted) =
        tier.serve_trace_journaled(&trace, &session, Some(run.checkpoint), &mut emit);
    printed.extend(live);
    (tier, stats, halted)
}

// ---------------------------------------------------------------------------

/// Tentpole: scheduled abort (a real process death via SIGABRT, in the
/// widest window — after commit, before emission) + cold-standby
/// takeover, byte-identical at 1, 2, and 4 shards.
fn abort_takeover_is_byte_identical_at_1_2_and_4_shards() {
    let n = 16;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    for shards in [1usize, 2, 4] {
        let journal = temp_dir(TMP, &format!("abort_j_{shards}"));
        let persist = temp_dir(TMP, &format!("abort_p_{shards}"));
        let out = temp_dir(TMP, &format!("abort_o_{shards}")).with_extension("log");
        let status = spawn_driver(
            &out,
            shards,
            &journal,
            &persist,
            n,
            DriverEnd::AbortAt(6),
            false,
        )
        .wait()
        .expect("driver wait");
        assert!(!status.success(), "the driver must die by its own abort");
        let (mut printed, done) = read_driver_output(&out);
        assert!(done.is_none(), "an aborted driver never reports DONE");
        assert!(
            !printed.is_empty() && printed.len() < ref_lines.len(),
            "the abort must land mid-trace (printed {})",
            printed.len()
        );
        let (tier, stats, halted) =
            standby_takeover(shards, &journal, &persist, n, false, None, &mut printed);
        assert!(!halted);
        assert_eq!(
            printed, ref_lines,
            "spliced stream at {shards} shards equals the unkilled reference"
        );
        assert_eq!(stats.digest(), ref_stats.digest(), "equal final digests");
        let sup = tier.stats();
        assert!(
            sup.journal_frames_recovered > 0,
            "the standby actually recovered from the journal ({sup:?})"
        );
        drop(tier);
        for d in [&journal, &persist] {
            let _ = std::fs::remove_dir_all(d);
        }
        let _ = std::fs::remove_file(&out);
    }
}

/// A real SIGKILL from outside, mid-trace — not a commit boundary the
/// fault schedule chose, but mid-emission, while the driver waits at its
/// pause point — and the takeover still splices to the reference stream.
fn sigkill_takeover_is_byte_identical() {
    let n = 24;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    let journal = temp_dir(TMP, "kill_j");
    let persist = temp_dir(TMP, "kill_p");
    let out = temp_dir(TMP, "kill_o").with_extension("log");
    // The driver pauses after emitting its sixth line, so the kill lands
    // at a known point after a durable commit instead of racing the poll.
    let mut child = spawn_driver(
        &out,
        2,
        &journal,
        &persist,
        n,
        DriverEnd::PauseAfter(6),
        false,
    );
    // Let the primary serve real traffic, then kill it cold.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let (printed, done) = read_driver_output(&out);
        assert!(done.is_none(), "the driver outran the kill — raise n");
        if printed.len() >= 6 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "driver produced no output in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the primary");
    let _ = child.wait();
    // The orphaned workers see stdin EOF and exit cleanly, closing
    // their WALs; give them a moment before re-adopting the stores.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let (mut printed, _) = read_driver_output(&out);
    assert!(printed.len() < ref_lines.len(), "the kill landed mid-trace");
    let (tier, stats, halted) =
        standby_takeover(2, &journal, &persist, n, false, None, &mut printed);
    assert!(!halted);
    assert_eq!(
        printed, ref_lines,
        "SIGKILL + takeover equals the unkilled reference"
    );
    assert_eq!(stats.digest(), ref_stats.digest());
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_file(&out);
}

/// Worker faults, a calibration refresh, *and* two successive
/// supervisor deaths: the primary aborts before the refresh, the first
/// standby halts after it, the second standby finishes. Every boundary
/// splices byte-identically.
fn chained_takeovers_under_worker_faults_are_byte_identical() {
    let n = 20;
    let serve = failover_serve_session(true);
    let (ref_lines, ref_stats) = reference(n, &serve);
    assert!(
        ref_stats.refreshes == 1 && ref_stats.worker_crashes > 0,
        "the session must exercise faults and the refresh ({ref_stats:?})"
    );
    let journal = temp_dir(TMP, "chain_j");
    let persist = temp_dir(TMP, "chain_p");
    let out = temp_dir(TMP, "chain_o").with_extension("log");
    // Primary dies at cycle 4 — before the refresh at arrival 8.5.
    let status = spawn_driver(&out, 2, &journal, &persist, n, DriverEnd::AbortAt(4), true)
        .wait()
        .expect("driver wait");
    assert!(!status.success());
    let (mut printed, _) = read_driver_output(&out);
    // Standby 1 applies the refresh live, then halts at cycle 14.
    let (tier1, _, halted) =
        standby_takeover(2, &journal, &persist, n, true, Some(14), &mut printed);
    assert!(halted, "the first standby must hit its scheduled halt");
    drop(tier1); // release workers + journal for the next incarnation
    assert!(printed.len() < ref_lines.len());
    // Standby 2 re-applies the refresh during recovery (the checkpoint
    // records it as already applied) and finishes the trace.
    let (tier2, stats, halted) =
        standby_takeover(2, &journal, &persist, n, true, None, &mut printed);
    assert!(!halted);
    assert_eq!(
        printed, ref_lines,
        "two takeovers under faults + refresh still equal the reference"
    );
    assert_eq!(stats.digest(), ref_stats.digest());
    drop(tier2);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_file(&out);
}

/// `Halt` at `halt_at` + `abandon()`, no child driver: returns what the
/// primary printed, leaving the journal and persist directories for a
/// standby.
fn halted_primary(n: u32, halt_at: u64, journal: &Path, persist: &Path) -> Vec<String> {
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let config = supervise_config(2, persist.to_path_buf(), journal.to_path_buf(), None);
    let mut primary = ShardSupervisor::new(deco, config).expect("primary");
    let session = SuperviseSession {
        supervisor: SupervisorFaultPlan::halt_at_cycles([halt_at]),
        ..SuperviseSession::default()
    };
    let mut printed: Vec<String> = Vec::new();
    let mut emit = |_: u64, r: &PlanResponse| printed.push(r.canonical_line());
    let (_, _, halted) = primary.serve_trace_journaled(&trace, &session, None, &mut emit);
    assert!(halted, "the primary must halt mid-trace");
    primary.abandon();
    printed
}

/// In-process drill of the same machinery: `Halt` + `abandon()` +
/// `recover()`, no child driver. This is the loop the failover bench
/// times, so it gets its own correctness pin.
fn halt_abandon_recover_in_process_is_byte_identical() {
    let n = 16;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    let journal = temp_dir(TMP, "halt_j");
    let persist = temp_dir(TMP, "halt_p");
    let mut printed = halted_primary(n, 7, &journal, &persist);
    assert!(!printed.is_empty() && printed.len() < ref_lines.len());
    let (tier, stats, halted) =
        standby_takeover(2, &journal, &persist, n, false, None, &mut printed);
    assert!(!halted);
    assert_eq!(printed, ref_lines);
    assert_eq!(stats.digest(), ref_stats.digest());
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The wait log split across both files: the primary halts two commits
/// after a compaction (`snapshot_every: 4`, ten commits), so the
/// snapshot holds the whole log from base 0 and the WAL only the
/// suffixes sealed since. The standby folds one onto the other and the
/// takeover still splices to the reference, equal digests included.
fn takeover_folds_snapshot_waits_and_wal_suffixes() {
    let n = 22;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    let journal = temp_dir(TMP, "split_j");
    let persist = temp_dir(TMP, "split_p");
    let mut printed = halted_primary(n, 9, &journal, &persist);
    let snapshot = journal_groups(&std::fs::read(journal.join(SNAPSHOT_FILE)).expect("snapshot"));
    let [sealed] = &snapshot[..] else {
        panic!("a snapshot is one group, got {}", snapshot.len());
    };
    assert_eq!(sealed.wait_blocks, vec![(0, sealed.waits as usize)]);
    assert!(sealed.waits > 0, "the snapshot carries the log so far");
    let wal = journal_groups(&std::fs::read(journal.join(WAL_FILE)).expect("wal"));
    assert_eq!(wal.len(), 2, "two commits since the compaction");
    let mut folded = sealed.waits;
    for group in &wal {
        let [(base, added)] = group.wait_blocks[..] else {
            panic!("one wait block a group");
        };
        assert_eq!(base, folded, "each group continues the log where it stood");
        folded += added as u64;
        assert_eq!(group.waits, folded);
    }
    assert!(
        folded > sealed.waits,
        "the WAL holds waits the snapshot lacks"
    );
    let (tier, stats, halted) =
        standby_takeover(2, &journal, &persist, n, false, None, &mut printed);
    assert!(!halted);
    assert_eq!(printed, ref_lines);
    assert_eq!(stats.digest(), ref_stats.digest());
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Satellite: a `touch_backlog` of 1 forces a cycle barrier on nearly
/// every warm hit — the saturation path — and the journaled, halted,
/// failed-over replay still equals the reference byte-for-byte.
fn a_saturated_touch_backlog_still_replays_byte_identically() {
    let n = 16;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    assert!(ref_stats.hits > 1, "the trace must produce warm hits");
    let journal = temp_dir(TMP, "touch_j");
    let persist = temp_dir(TMP, "touch_p");
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let config = supervise_config(2, persist.clone(), journal.clone(), Some(1));
    let mut primary = ShardSupervisor::new(deco, config).expect("primary");
    let session = SuperviseSession {
        supervisor: SupervisorFaultPlan::halt_at_cycles([9]),
        ..SuperviseSession::default()
    };
    let mut printed: Vec<String> = Vec::new();
    let mut emit = |_: u64, r: &PlanResponse| printed.push(r.canonical_line());
    let (_, _, halted) = primary.serve_trace_journaled(&trace, &session, None, &mut emit);
    assert!(halted);
    primary.abandon();
    drop(primary);
    let deco = small_deco();
    let config = supervise_config(2, persist.clone(), journal.clone(), Some(1));
    let (mut tier, run) = ShardSupervisor::recover(deco, config, &[]).expect("standby");
    let run = run.expect("sealed cycles exist");
    splice_recovered(&mut printed, &run);
    let mut emit = |_: u64, r: &PlanResponse| printed.push(r.canonical_line());
    let (_, stats, _) = tier.serve_trace_journaled(
        &trace,
        &SuperviseSession::default(),
        Some(run.checkpoint),
        &mut emit,
    );
    assert_eq!(
        printed, ref_lines,
        "a backlog of 1 changes barrier timing, never bytes"
    );
    assert_eq!(stats.digest(), ref_stats.digest());
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Satellite: truncate a *real* journal (written by a real run) at
/// every byte offset of its last two commit groups — recovery must
/// never panic and must report exactly the last group left whole.
fn journal_truncation_fuzz_never_panics() {
    let n = 10;
    let journal = temp_dir(TMP, "fuzz_j");
    let persist = temp_dir(TMP, "fuzz_p");
    let final_cycle = {
        let deco = small_deco();
        let trace = spread_trace(&deco.store.spec, n);
        let mut config = supervise_config(1, persist.clone(), journal.clone(), None);
        config.snapshot_every = 0; // keep every commit group in the WAL
        let mut tier = ShardSupervisor::new(deco, config).expect("tier");
        let session = SuperviseSession::default();
        let mut emit = |_: u64, _: &PlanResponse| {};
        let (responses, stats, _) = tier.serve_trace_journaled(&trace, &session, None, &mut emit);
        assert_eq!(responses.len(), n as usize);
        stats.cycles
    };
    let wal_path = journal.join(WAL_FILE);
    let wal = std::fs::read(&wal_path).expect("journal wal exists");
    let groups = journal_groups(&wal);
    assert!(groups.len() >= 3, "the run must have journaled commits");
    assert!(groups.last().expect("groups").cycle <= final_cycle);
    assert!(
        groups.iter().all(|g| !g.wait_blocks.is_empty()),
        "every group carries its block of the wait log"
    );
    let snapshot_path = journal.join(SNAPSHOT_FILE);
    // Every offset of the last three groups (two serving cycles and the
    // end-of-trace flush): mutation frames, wait blocks, commits.
    let first_cut = groups[groups.len() - 3].start;
    for cut in first_cut..=wal.len() {
        // Each open() compacts; restore the pristine torn state so every
        // cut is judged against the same WAL + no snapshot.
        let _ = std::fs::remove_file(&snapshot_path);
        std::fs::write(&wal_path, &wal[..cut]).expect("write truncated wal");
        let (_, rec) = SupervisorJournal::open(&journal, 0, 0)
            .unwrap_or_else(|e| panic!("recovery must not fail at cut {cut}: {e}"));
        // Exactly the last group the cut left whole — its cycle and its
        // wait log, nothing of the torn one.
        let sealed = groups
            .iter()
            .rfind(|g| g.end <= cut)
            .expect("a whole group");
        let c = rec.commit.expect("the sealed prefix survives");
        assert_eq!(c.cycle, sealed.cycle, "cut {cut}");
        assert_eq!(c.serve.stats.waits.len() as u64, sealed.waits, "cut {cut}");
    }
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A long hit-dominated trace: `n` requests over four shapes, sixteen
/// arrivals a tick, so after four solves every cycle is sixteen hits.
fn hot_trace(spec: &CloudSpec, n: u32) -> ArrivalTrace {
    let arrivals: Vec<Arrival> = (0..n)
        .map(|i| Arrival {
            at_tick: f64::from(i / 16) * 1e9,
            request: request_for(
                deco::workflow::generators::montage(1, u64::from(40 + i % 4)),
                i % 3,
                spec,
            ),
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

/// Satellite: what a commit appends to the journal follows what its
/// cycle changed, not how long the run has been. Counts bytes, not
/// time: the last tenth of the commits seals no more than 1.1x the
/// first tenth (the v1 format sealed ~10x: every commit carried every
/// wait so far), and the whole WAL stays inside a bound linear in
/// requests and commits with the constants spelled out.
fn journal_bytes_per_commit_do_not_grow_with_the_run() {
    let n = 4096u32;
    let journal = temp_dir(TMP, "bytes_j");
    let persist = temp_dir(TMP, "bytes_p");
    let deco = small_deco();
    let trace = hot_trace(&deco.store.spec, n);
    let mut config = supervise_config(2, persist.clone(), journal.clone(), None);
    config.serve.batch_size = 16;
    config.snapshot_every = 0; // keep every commit group in the WAL
    let mut tier = ShardSupervisor::new(deco, config).expect("tier");
    let mut line_bytes = 0u64;
    let mut emit = |_: u64, r: &PlanResponse| line_bytes += r.canonical_line().len() as u64;
    let (responses, stats, _) =
        tier.serve_trace_journaled(&trace, &SuperviseSession::default(), None, &mut emit);
    assert_eq!(responses.len(), n as usize);
    assert!(
        stats.hits * 10 >= u64::from(n) * 9 && stats.waits.len() == n as usize,
        "the trace must be hit-dominated and fully answered ({stats:?})"
    );
    let sup = tier.stats();
    drop(tier);

    let wal = std::fs::read(journal.join(WAL_FILE)).expect("journal wal exists");
    let groups = journal_groups(&wal);
    let commits = groups.len() as u64;
    assert_eq!(
        sup.journal_bytes,
        wal.len() as u64,
        "the counter is the WAL"
    );
    assert_eq!(sup.journal_commits, commits);
    assert_eq!(
        sup.journal_appends,
        groups.iter().map(|g| g.mutations).sum::<u64>(),
        "wait blocks ride in the seal, not through `append`"
    );
    assert_eq!(groups.last().expect("groups").waits, u64::from(n));

    let sealed = |gs: &[Group]| gs.iter().map(|g| (g.end - g.start) as u64).sum::<u64>();
    let tenth = groups.len() / 10;
    assert!(tenth >= 20, "enough commits for a tenth to mean something");
    let (first, last) = (
        sealed(&groups[..tenth]),
        sealed(&groups[groups.len() - tenth..]),
    );
    assert!(
        last * 10 <= first * 11,
        "the last {tenth} commits sealed {last} B, the first {tenth} {first} B"
    );
    // Per request: its canonical line, 8 B of line length, one 34 B
    // `Touch` frame, one 8 B wait — 128 B covers the rest. Per commit:
    // one checkpoint head and one `Waits` frame header, under 1 KiB.
    let bound = line_bytes + 128 * u64::from(n) + 1024 * commits;
    assert!(
        sup.journal_bytes <= bound,
        "{} B journaled for {n} requests in {commits} commits (bound {bound})",
        sup.journal_bytes
    );
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Satellite: losing the journal mid-run is loud and harmless. After
/// the first commit the WAL path is swapped for `/dev/full`; the next
/// compaction reopens it, the commit after that cannot write, and the
/// run degrades to unjournaled — counted, stamped with the cycle, and
/// byte-identical to the reference all the same.
fn a_failing_journal_commit_degrades_to_unjournaled_with_identical_bytes() {
    let n = 16;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    let journal = temp_dir(TMP, "full_j");
    let persist = temp_dir(TMP, "full_p");
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let config = supervise_config(2, persist.clone(), journal.clone(), None);
    let mut tier = ShardSupervisor::new(deco, config).expect("tier");
    let wal_path = journal.join(WAL_FILE);
    let mut printed: Vec<String> = Vec::new();
    let mut emit = |idx: u64, r: &PlanResponse| {
        if idx == 0 {
            std::fs::remove_file(&wal_path).expect("unlink the wal");
            std::os::unix::fs::symlink("/dev/full", &wal_path).expect("wal -> /dev/full");
        }
        printed.push(r.canonical_line());
    };
    let (_, stats, halted) =
        tier.serve_trace_journaled(&trace, &SuperviseSession::default(), None, &mut emit);
    assert!(!halted);
    assert_eq!(printed, ref_lines, "degrading never changes a byte");
    assert_eq!(stats.digest(), ref_stats.digest());
    let sup = tier.stats();
    assert_eq!(sup.journal_failures, 1, "{sup:?}");
    // Four commits reached the old inode (the fourth compacts and
    // reopens the path); the fifth — cycle 4, counting from 0 — fails.
    assert_eq!(sup.journal_lost_at_cycle, Some(4), "{sup:?}");
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Satellite: a journal in format version 1 is no journal. `recover`
/// refuses every frame, finds no sealed cycle, and the supervisor
/// starts fresh on it — serving the whole trace, reference bytes.
fn a_version_1_journal_starts_the_supervisor_fresh() {
    let n = 8;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    let journal = temp_dir(TMP, "v1_j");
    let persist = temp_dir(TMP, "v1_p");
    drop(halted_primary(n, 5, &journal, &persist));
    // Re-stamp what the primary sealed as version 1, valid checksums and
    // all, in both files.
    let mut v1 = Vec::new();
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        let bytes = std::fs::read(journal.join(file)).expect("journal file");
        let mut pos = 0;
        while let Some((body, next)) = raw_frame_at(&bytes, pos) {
            let mut body = body.to_vec();
            body[0] = 1;
            v1.extend(encode_frame(&body));
            pos = next;
        }
    }
    assert!(!v1.is_empty());
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::write(journal.join(file), &v1).expect("write v1 journal");
    }
    let _ = std::fs::remove_dir_all(&persist); // a fresh world to be fresh in
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let config = supervise_config(2, persist.clone(), journal.clone(), None);
    let (mut tier, run) = ShardSupervisor::recover(deco, config, &[]).expect("recover");
    assert!(run.is_none(), "a v1 log holds no cycle a v2 reader accepts");
    assert_eq!(tier.stats().journal_frames_recovered, 0);
    let mut printed: Vec<String> = Vec::new();
    let mut emit = |_: u64, r: &PlanResponse| printed.push(r.canonical_line());
    let (_, stats, _) =
        tier.serve_trace_journaled(&trace, &SuperviseSession::default(), None, &mut emit);
    assert_eq!(printed, ref_lines);
    assert_eq!(stats.digest(), ref_stats.digest());
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A plain `serve_trace` on a supervisor with a journal is a journaled
/// run: every cycle is sealed, so the journal covers the run and the next
/// journaled run's groups hold only the frames that run appended — none
/// left over from the plain one.
fn a_plain_run_on_a_journaled_supervisor_seals_every_cycle() {
    let n = 64;
    let (ref_lines, ref_stats) = reference(n, &ServeSession::default());
    let journal = temp_dir(TMP, "plain_j");
    let persist = temp_dir(TMP, "plain_p");
    let deco = small_deco();
    let trace = spread_trace(&deco.store.spec, n);
    let mut config = supervise_config(2, persist.clone(), journal.clone(), None);
    config.snapshot_every = 0; // keep every commit group in the WAL
    let mut tier = ShardSupervisor::new(deco, config).expect("tier");
    let (responses, stats) = tier.serve_trace(&trace);
    assert_eq!(lines(&responses), ref_lines);
    assert_eq!(stats.digest(), ref_stats.digest());
    let plain = tier.stats();
    // One seal per cycle, and the final flush that records the trace's end.
    let seals = stats.cycles + 1;
    assert_eq!(plain.journal_commits, seals);
    let wal = std::fs::read(journal.join(WAL_FILE)).expect("journal wal exists");
    assert!(!wal.is_empty(), "the plain run left its journal empty");
    assert_eq!(journal_groups(&wal).len() as u64, seals);

    let mut emit = |_: u64, _: &PlanResponse| {};
    let (_, _, halted) =
        tier.serve_trace_journaled(&trace, &SuperviseSession::default(), None, &mut emit);
    assert!(!halted);
    let appended = tier.stats().journal_appends - plain.journal_appends;
    assert!(appended > 0, "the journaled run appends its own frames");
    let after = std::fs::read(journal.join(WAL_FILE)).expect("journal wal exists");
    let groups = journal_groups(&after[wal.len()..]);
    assert_eq!(
        groups.iter().map(|g| g.mutations).sum::<u64>(),
        appended,
        "the journaled run sealed frames it did not append"
    );
    assert_eq!(groups[0].wait_blocks.first().map(|b| b.0), Some(0));
    drop(tier);
    for d in [&journal, &persist] {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------------

fn main() {
    // Worker side: never returns when exec'd with --deco-shard-worker.
    deco::shard::proc::maybe_run_shard_worker();
    // Driver side: never returns when exec'd with --failover-driver.
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some(DRIVER_ARG) {
        run_failover_driver(&args[2..]);
    }

    let tests: &[(&str, fn())] = &[
        (
            "abort_takeover_is_byte_identical_at_1_2_and_4_shards",
            abort_takeover_is_byte_identical_at_1_2_and_4_shards,
        ),
        (
            "sigkill_takeover_is_byte_identical",
            sigkill_takeover_is_byte_identical,
        ),
        (
            "chained_takeovers_under_worker_faults_are_byte_identical",
            chained_takeovers_under_worker_faults_are_byte_identical,
        ),
        (
            "halt_abandon_recover_in_process_is_byte_identical",
            halt_abandon_recover_in_process_is_byte_identical,
        ),
        (
            "a_saturated_touch_backlog_still_replays_byte_identically",
            a_saturated_touch_backlog_still_replays_byte_identically,
        ),
        (
            "journal_truncation_fuzz_never_panics",
            journal_truncation_fuzz_never_panics,
        ),
        (
            "takeover_folds_snapshot_waits_and_wal_suffixes",
            takeover_folds_snapshot_waits_and_wal_suffixes,
        ),
        (
            "journal_bytes_per_commit_do_not_grow_with_the_run",
            journal_bytes_per_commit_do_not_grow_with_the_run,
        ),
        (
            "a_failing_journal_commit_degrades_to_unjournaled_with_identical_bytes",
            a_failing_journal_commit_degrades_to_unjournaled_with_identical_bytes,
        ),
        (
            "a_version_1_journal_starts_the_supervisor_fresh",
            a_version_1_journal_starts_the_supervisor_fresh,
        ),
        (
            "a_plain_run_on_a_journaled_supervisor_seals_every_cycle",
            a_plain_run_on_a_journaled_supervisor_seals_every_cycle,
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
    eprintln!("\ntest result: ok. {ran} passed (failover)");
}
