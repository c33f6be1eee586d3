//! Never-panic properties: arbitrary and mutated user input — WLog source
//! text, DAX documents, supervisor-journal and plan-store bytes, worker
//! pipe frames and the engine/workflow/catalog wire payloads — must flow
//! through parse → validate → plan (or WAL recovery, or a frame decode)
//! as typed [`DecoError`]s, never as panics. The CI fuzz-smoke step
//! re-runs this suite at an elevated `PROPTEST_CASES` count.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::supervisor::plan_with_fallback;
use deco::engine::supervisor::SupervisedPlan;
use deco::engine::wire::{
    decode_engine, decode_store, decode_workflow, encode_engine, encode_store, encode_workflow,
};
use deco::engine::Deco;
use deco::engine::DecoError;
use deco::serve::checkpoint::ServeCheckpoint;
use deco::serve::store::{encode_frame, raw_frame_at, PlanStore, StoreFrame};
use deco::serve::{Mutation, SolveJob};
use deco::shard::proc::wire::{Hello, RecoverReport, WorkerStoreStats};
use deco::shard::proc::{
    CommitRecord, Frame, JournalFrame, JournalRecovery, Sabotage, ShardHealth, SupervisorJournal,
    SNAPSHOT_FILE, WAL_FILE,
};
use deco::solver::{EvalBackend, SearchBudget};
use deco::wlog::program::WlogProgram;
use deco::workflow::dax::{emit_dax, parse_dax};
use deco::workflow::generators;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A WLog program every byte mutation starts from (Example 1's shape).
const WLOG_SEED_SRC: &str = r#"
import(amazonec2).
import(workflow).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%, 3000s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
  configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
maxtime(Path,T) :- totalcost(T).
"#;

fn tiny_deco() -> Deco {
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec, 10);
    let mut d = Deco::new(store);
    // Keep the plan stage cheap: the property is "no panic", not quality.
    d.options.mc_iters = 4;
    d.options.search.max_states = 12;
    d.options.wlog_bins = 2;
    d
}

/// Feed one candidate WLog source through the full pipeline. Each layer is
/// allowed to reject; none is allowed to panic.
fn drive_wlog(src: &str) {
    let program = match WlogProgram::parse(src) {
        Ok(p) => p,
        Err(e) => {
            // Diagnostics must render (the caret snippet does char math).
            let _ = e.to_string();
            return;
        }
    };
    if program.validate().is_err() {
        return;
    }
    let d = tiny_deco();
    let wf = generators::pipeline(2, 300.0, 1 << 20);
    match d.plan_workflow_wlog(src, &wf, &EvalBackend::SeqCpu) {
        Ok(plan) => assert_eq!(plan.types.len(), wf.len()),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// Feed one candidate DAX document through parse → plan-with-fallback.
fn drive_dax(doc: &str) {
    let wf = match parse_dax(doc) {
        Ok(wf) => wf,
        Err(e) => {
            let _ = e.to_string();
            return;
        }
    };
    let d = tiny_deco();
    // A near-zero budget lands on the cheap fallback stages immediately;
    // structurally unusable workflows (e.g. zero tasks) must come back as
    // typed errors.
    match plan_with_fallback(&d, &wf, 1000.0, 0.9, &SearchBudget::ticks(1e-12)) {
        Ok(sup) => assert_eq!(sup.plan.types.len(), wf.len()),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// Apply `edits` random single-byte edits (replace, insert, or delete) to
/// `src`, staying within printable-ish bytes so parsers see plausible text.
fn mutate(src: &str, picks: &[(usize, u8, u8)]) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for &(pos, op, byte) in picks {
        if bytes.is_empty() {
            break;
        }
        let i = pos % bytes.len();
        match op % 3 {
            0 => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            _ => {
                bytes.remove(i);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Apply single-byte edits (replace, insert, or delete) to `bytes`.
fn mutate_bytes(bytes: &mut Vec<u8>, picks: &[(usize, u8, u8)]) {
    for &(pos, op, byte) in picks {
        if bytes.is_empty() {
            break;
        }
        let i = pos % bytes.len();
        match op % 3 {
            0 => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            _ => {
                bytes.remove(i);
            }
        }
    }
}

/// A plan every plan-carrying seed below holds.
fn seed_plan() -> &'static SupervisedPlan {
    static PLAN: OnceLock<SupervisedPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let wf = generators::pipeline(2, 300.0, 1 << 20);
        plan_with_fallback(&tiny_deco(), &wf, 1000.0, 0.9, &SearchBudget::ticks(1e-12))
            .expect("a fallback plan")
    })
}

/// The body of one valid frame of every kind the pipe carries, so the
/// mutation fuzzers reach every field decoder, not just the container
/// checksum or the version byte.
fn seed_frame_bodies() -> &'static [Vec<u8>] {
    static BODIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let deco = tiny_deco();
        let plan = seed_plan();
        let frames = [
            Frame::Hello(Hello {
                shard_index: 1,
                workers: 2,
                store_dir: Some("shard-1".into()),
                snapshot_every: 64,
                sync_every: 0,
                heartbeat_ms: 20,
                engine: encode_engine(&deco),
                sabotage: Sabotage {
                    hang_after_assigns: Some(3),
                    exit_after_assigns: None,
                },
                resume_seq: 9,
            }),
            Frame::AssignJobs {
                cycle: 4,
                jobs: vec![SolveJob {
                    key: 77,
                    workflow: generators::pipeline(3, 40.0, 1),
                    deadline: 3600.0,
                    percentile: 0.9,
                    budget: SearchBudget::ticks(500.0),
                }],
            },
            Frame::Get {
                seq: 1,
                key: 2,
                last_use: 3,
            },
            Frame::Touch {
                seq: 2,
                key: 2,
                last_use: 4,
            },
            Frame::Put {
                seq: 3,
                key: 5,
                epoch: 1,
                last_use: 6,
                plan: plan.clone(),
            },
            Frame::Del { seq: 4, key: 5 },
            Frame::Strike {
                seq: 5,
                key: 6,
                count: 2,
            },
            Frame::ClearKey { seq: 6, key: 6 },
            Frame::Quarantine { seq: 7, key: 6 },
            Frame::EpochSwap {
                seq: 8,
                epoch: 2,
                store: encode_store(&deco.store),
            },
            Frame::CycleBarrier { cycle: 4 },
            Frame::Shutdown,
            Frame::HelloAck(RecoverReport {
                store_ok: true,
                recovered_entries: 1,
                recovered_frames: 3,
                torn_bytes: 0,
                entries: vec![(5, 1, 6)],
                strikes: vec![(6, 2)],
                quarantine: vec![6],
            }),
            Frame::Heartbeat,
            Frame::Applied { seq: 8 },
            Frame::GotPlan {
                seq: 1,
                plan: Some(plan.clone()),
            },
            Frame::JobResults {
                cycle: 4,
                results: vec![
                    (77, SearchBudget::unlimited(), Ok(plan.clone())),
                    (
                        78,
                        SearchBudget::ticks(1.0),
                        Err(DecoError::Infeasible("no feasible state".into())),
                    ),
                ],
            },
            Frame::BarrierAck {
                cycle: 4,
                stats: WorkerStoreStats::default(),
            },
        ];
        frames.iter().map(Frame::encode_body).collect()
    })
}

/// Decode one frame body: a transport error or a frame that re-encodes
/// and decodes again — never a panic.
fn drive_frame_body(body: &[u8]) {
    match Frame::decode_body(body) {
        Ok(frame) => {
            let again = Frame::read_from(&mut &frame.encode()[..]);
            assert!(matches!(again, Ok(Some(_))), "a decoded frame re-encodes");
        }
        Err(e) => assert!(matches!(e, DecoError::Transport(_)), "{e}"),
    }
}

/// A well-formed plan-store WAL holding every store frame kind.
fn seed_store_wal() -> Vec<u8> {
    [
        StoreFrame::Epoch { epoch: 1 },
        StoreFrame::Put {
            key: 5,
            epoch: 1,
            last_use: 2,
            plan: seed_plan().clone(),
        },
        StoreFrame::Touch {
            key: 5,
            last_use: 3,
        },
        StoreFrame::Strike { key: 6, count: 2 },
        StoreFrame::Quarantine { key: 6 },
        StoreFrame::ClearKey { key: 6 },
        StoreFrame::Del { key: 5 },
    ]
    .iter()
    .flat_map(StoreFrame::encode)
    .collect()
}

/// Recover a plan store from exactly `wal` and (optionally) `snapshot`.
/// Hostile bytes end the log as a torn tail or fail the open; recovery
/// never panics.
fn drive_store(wal: &[u8], snapshot: Option<&[u8]>) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "deco_np_store_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("store fuzz dir");
    std::fs::write(dir.join("wal.log"), wal).expect("write wal");
    if let Some(bytes) = snapshot {
        std::fs::write(dir.join("snapshot.bin"), bytes).expect("write snapshot");
    }
    match PlanStore::open(&dir).and_then(|mut store| store.recover()) {
        Ok(part) => {
            let _ = format!("{:?}", part.strikes);
        }
        Err(e) => {
            let _ = e.to_string();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-frame the frames of `log` with the body of frame `which` edited,
/// so the checksum holds and the body decoder sees the damage.
fn reframe_with_edit(log: &[u8], which: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bodies = Vec::new();
    let mut pos = 0;
    while let Some((body, next)) = raw_frame_at(log, pos) {
        bodies.push(body.to_vec());
        pos = next;
    }
    let i = which % bodies.len();
    edit(&mut bodies[i]);
    bodies.iter().flat_map(|b| encode_frame(b)).collect()
}

/// One wire payload decoder: a transport error or a value, never a panic.
fn drive_wire_payloads(bytes: &[u8]) {
    let errs = [
        decode_engine(bytes).err(),
        decode_store(bytes).err(),
        decode_workflow(bytes).err(),
    ];
    for e in errs.into_iter().flatten() {
        assert!(matches!(e, DecoError::Transport(_)), "{e}");
    }
}

/// One sealing commit: `waits` is the wait-log length it seals (the
/// values travel in `Waits` frames), `emitted` the stream length.
fn seed_commit(cycle: u64, emitted: u64, waits: u64) -> JournalFrame {
    let mut serve = ServeCheckpoint {
        emitted,
        ..ServeCheckpoint::default()
    };
    serve.stats.planned = emitted;
    JournalFrame::Commit {
        rec: CommitRecord {
            cycle,
            clock: 10 * cycle,
            shard_seqs: vec![3 * cycle, cycle],
            shard_health: vec![
                ShardHealth {
                    strikes: 1,
                    quarantined: false,
                },
                ShardHealth::default(),
            ],
            serve,
            lines: vec![format!("line {cycle}")],
        },
        waits,
    }
}

fn encode_all(frames: &[JournalFrame]) -> Vec<u8> {
    frames.iter().flat_map(JournalFrame::encode).collect()
}

/// A well-formed two-commit-group supervisor WAL every journal mutation
/// starts from, so the fuzz population reaches the fold logic — the
/// wait log included — and not just the container checksum. Returns the
/// bytes and the offset at which the final group starts.
fn seed_wal() -> (Vec<u8>, usize) {
    let first = encode_all(&[
        JournalFrame::Shard(
            0,
            Mutation::Put {
                key: 7,
                epoch: 1,
                last_use: 4,
                plan: (),
            },
        ),
        JournalFrame::Shard(
            1,
            Mutation::Touch {
                key: 9,
                last_use: 5,
            },
        ),
        JournalFrame::Shard(0, Mutation::Strike { key: 7, count: 2 }),
        JournalFrame::Waits {
            base: 0,
            values: vec![0.0, 1.5, 3.25],
        },
        seed_commit(1, 1, 3),
    ]);
    let second = encode_all(&[
        JournalFrame::Shard(
            1,
            Mutation::Put {
                key: 11,
                epoch: 1,
                last_use: 8,
                plan: (),
            },
        ),
        JournalFrame::Shard(0, Mutation::Del { key: 7 }),
        JournalFrame::Waits {
            base: 3,
            values: vec![7.0, 0.125],
        },
        seed_commit(2, 2, 5),
    ]);
    let final_group = first.len();
    ([first, second].concat(), final_group)
}

/// `open` on a directory holding exactly `wal` and (optionally)
/// `snapshot`; the directory is removed again.
fn open_journal(
    wal: &[u8],
    snapshot: Option<&[u8]>,
) -> Result<JournalRecovery, deco::engine::DecoError> {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "deco_np_journal_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("journal fuzz dir");
    std::fs::write(dir.join(WAL_FILE), wal).expect("write wal");
    if let Some(bytes) = snapshot {
        std::fs::write(dir.join(SNAPSHOT_FILE), bytes).expect("write snapshot");
    }
    let opened = SupervisorJournal::open(&dir, 0, 0).map(|(_, rec)| rec);
    let _ = std::fs::remove_dir_all(&dir);
    opened
}

/// Recover a journal directory holding exactly `wal` and (optionally)
/// `snapshot`. Open may reject the directory, never panic; a recovered
/// fold must not invent commits the bytes cannot contain.
fn drive_journal(wal: &[u8], snapshot: Option<&[u8]>) {
    match open_journal(wal, snapshot) {
        Ok(rec) => {
            // Whatever the fold kept must at least render and stay
            // internally consistent with the line accounting the serve
            // splice relies on.
            if let Some(commit) = &rec.commit {
                let _ = format!("{commit:?}");
                assert!(rec.lines_start <= commit.serve.emitted);
            }
        }
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// The sealed state a recovery of `seed_wal` must report when only the
/// first group, or both, survive.
fn assert_seed_recovery(rec: &JournalRecovery, groups: u64, what: &str) {
    let commit = rec
        .commit
        .as_ref()
        .unwrap_or_else(|| panic!("{what}: a sealed cycle"));
    assert_eq!(commit.cycle, groups, "{what}");
    let waits: &[f64] = if groups == 1 {
        &[0.0, 1.5, 3.25]
    } else {
        &[0.0, 1.5, 3.25, 7.0, 0.125]
    };
    assert_eq!(commit.serve.stats.waits, waits, "{what}: the wait log");
}

/// Truncating the final group — mutations, its `Waits` block, its
/// `Commit` — at every byte offset leaves exactly the first group's
/// sealed state, wait log included; the intact log recovers both.
#[test]
fn a_torn_wait_log_group_recovers_the_sealed_prefix_at_every_offset() {
    let (wal, final_group) = seed_wal();
    for cut in final_group..wal.len() {
        let rec = open_journal(&wal[..cut], None).expect("torn tails never fail recovery");
        assert_seed_recovery(&rec, 1, &format!("cut {cut}"));
    }
    let rec = open_journal(&wal, None).expect("recover");
    assert_seed_recovery(&rec, 2, "intact");
}

/// The ways a checksum-valid group can still lie about the wait
/// log each end replay at that group, as any undecodable body does.
#[test]
fn inconsistent_wait_log_groups_are_refused_not_folded() {
    let (wal, final_group) = seed_wal();
    let first = &wal[..final_group];
    let waits = |base: u64, values: Vec<f64>| JournalFrame::Waits { base, values };
    // An f64 payload cut mid-value, re-framed so the container accepts it.
    let mut cut_body = waits(3, vec![7.0, 0.125]).encode_body();
    cut_body.truncate(cut_body.len() - 3);
    let bad_groups = [
        (
            "base beyond the folded length",
            encode_all(&[waits(4, vec![7.0]), seed_commit(2, 2, 5)]),
        ),
        (
            "commit count disagrees with the fold",
            encode_all(&[waits(3, vec![7.0, 0.125]), seed_commit(2, 2, 6)]),
        ),
        (
            "commit with no wait block to back its count",
            encode_all(&[seed_commit(2, 2, 5)]),
        ),
        (
            "value cut mid-f64",
            [
                deco::serve::store::encode_frame(&cut_body),
                seed_commit(2, 2, 5).encode(),
            ]
            .concat(),
        ),
    ];
    for (what, group) in &bad_groups {
        let rec = open_journal(&[first, group.as_slice()].concat(), None).expect("recover");
        assert_seed_recovery(&rec, 1, what);
        assert!(rec.torn_bytes > 0, "{what}: the bad group counts as torn");
    }
}

/// A journal written by format version 1 is refused frame by frame:
/// recovery reports no sealed cycle and no state, without an error.
#[test]
fn a_version_1_journal_recovers_as_empty() {
    let (wal, _) = seed_wal();
    let mut v1 = Vec::new();
    let mut pos = 0;
    while let Some((body, next)) = deco::serve::store::raw_frame_at(&wal, pos) {
        let mut body = body.to_vec();
        body[0] = 1;
        v1.extend(deco::serve::store::encode_frame(&body));
        pos = next;
    }
    assert_eq!(v1.len(), wal.len(), "every frame re-stamped");
    for snapshot in [None, Some(v1.as_slice())] {
        let rec = open_journal(&v1, snapshot).expect("a v1 log is not an error");
        assert!(rec.commit.is_none() && rec.shards.is_empty() && rec.lines.is_empty());
        assert_eq!(rec.frames, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Arbitrary bytes, lossily decoded, never panic the WLog pipeline.
    #[test]
    fn arbitrary_bytes_never_panic_wlog(bytes in proptest::collection::vec(0u8..255, 0..160)) {
        drive_wlog(&String::from_utf8_lossy(&bytes));
    }

    /// Byte-level mutations of a valid program never panic the pipeline —
    /// this population actually reaches validate and plan.
    #[test]
    fn mutated_programs_never_panic_wlog(
        picks in proptest::collection::vec((0usize..4096, 0u8..3, 32u8..127), 1..6)
    ) {
        drive_wlog(&mutate(WLOG_SEED_SRC, &picks));
    }

    /// Arbitrary bytes never panic the DAX loader.
    #[test]
    fn arbitrary_bytes_never_panic_dax(bytes in proptest::collection::vec(0u8..255, 0..200)) {
        drive_dax(&String::from_utf8_lossy(&bytes));
    }

    /// Byte-level mutations of a valid DAX document never panic parse →
    /// plan; documents that survive parsing plan through the supervisor.
    #[test]
    fn mutated_documents_never_panic_dax(
        seed in 0u64..50,
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 32u8..127), 1..8)
    ) {
        let doc = emit_dax(&generators::montage(1, seed)).unwrap();
        drive_dax(&mutate(&doc, &picks));
    }

    /// Every truncation of a valid program is rejected or planned, never a
    /// panic (the EOF paths of the parser).
    #[test]
    fn truncated_programs_never_panic(cut in 0usize..4096) {
        let src = WLOG_SEED_SRC;
        let cut = cut % (src.len() + 1);
        if src.is_char_boundary(cut) {
            drive_wlog(&src[..cut]);
        }
    }

    /// Arbitrary bytes posing as a supervisor WAL never panic recovery.
    #[test]
    fn arbitrary_bytes_never_panic_journal(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        drive_journal(&bytes, None);
    }

    /// Byte-level corruption of a well-formed WAL (flip, insert, delete)
    /// never panics recovery — this population exercises the checksum
    /// reject paths and the commit-group retention fold, not just EOF.
    #[test]
    fn mutated_wals_never_panic_journal(
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 0u8..255), 1..6)
    ) {
        let (mut wal, _) = seed_wal();
        for &(pos, op, byte) in &picks {
            if wal.is_empty() {
                break;
            }
            let i = pos % wal.len();
            match op % 3 {
                0 => wal[i] = byte,
                1 => wal.insert(i, byte),
                _ => {
                    wal.remove(i);
                }
            }
        }
        drive_journal(&wal, None);
    }

    /// Every truncation of a well-formed WAL recovers (torn tails are the
    /// journal's normal weather), and the snapshot path survives arbitrary
    /// bytes alongside it.
    #[test]
    fn truncated_wals_never_panic_journal(
        cut in 0usize..65536,
        snapshot in proptest::collection::vec(0u8..255, 0..64)
    ) {
        let (wal, _) = seed_wal();
        drive_journal(&wal[..cut % (wal.len() + 1)], Some(&snapshot));
    }

    /// Arbitrary bytes never panic the worker pipe: raw (the container
    /// rejects them) and wrapped in a valid container (the body decoder
    /// sees them).
    #[test]
    fn arbitrary_bytes_never_panic_wire_frames(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let _ = Frame::read_from(&mut &bytes[..]);
        let framed = encode_frame(&bytes);
        let _ = Frame::read_from(&mut &framed[..]);
        drive_frame_body(&bytes);
    }

    /// Byte-level corruption of a valid frame body of every kind never
    /// panics the decoder.
    #[test]
    fn mutated_frames_never_panic_wire_frames(
        which in 0usize..64,
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 0u8..255), 1..6)
    ) {
        let bodies = seed_frame_bodies();
        let mut body = bodies[which % bodies.len()].clone();
        mutate_bytes(&mut body, &picks);
        drive_frame_body(&body);
    }

    /// Every truncation of a valid frame — of its body, re-framed, and of
    /// the container on the pipe — is an error, never a panic.
    #[test]
    fn truncated_frames_never_panic_wire_frames(which in 0usize..64, cut in 0usize..65536) {
        let bodies = seed_frame_bodies();
        let body = &bodies[which % bodies.len()];
        let cut = cut % (body.len() + 1);
        if cut < body.len() {
            prop_assert!(Frame::decode_body(&body[..cut]).is_err());
        }
        let wire = encode_frame(body);
        let torn = Frame::read_from(&mut &wire[..cut.min(wire.len() - 1)]);
        prop_assert!(!matches!(torn, Ok(Some(_))), "a torn frame never decodes");
    }

    /// Arbitrary bytes as a plan store's WAL and snapshot never panic
    /// recovery.
    #[test]
    fn arbitrary_bytes_never_panic_store_recovery(
        wal in proptest::collection::vec(0u8..255, 0..256),
        snapshot in proptest::collection::vec(0u8..255, 0..128)
    ) {
        drive_store(&wal, Some(&snapshot));
    }

    /// A valid WAL with one frame body corrupted under a valid checksum
    /// (as the snapshot, or as the log) never panics recovery.
    #[test]
    fn mutated_store_frames_never_panic_recovery(
        which in 0usize..16,
        as_snapshot in 0u8..2,
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 0u8..255), 1..6)
    ) {
        let log = reframe_with_edit(&seed_store_wal(), which, |b| mutate_bytes(b, &picks));
        if as_snapshot == 1 {
            drive_store(&[], Some(&log));
        } else {
            drive_store(&log, None);
        }
    }

    /// Arbitrary bytes never panic the engine, catalog and workflow
    /// decoders; each failure is a transport error.
    #[test]
    fn arbitrary_bytes_never_panic_wire_payloads(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        drive_wire_payloads(&bytes);
    }

    /// Byte-level corruption of valid engine, catalog and workflow
    /// encodings never panics their decoders.
    #[test]
    fn mutated_payloads_never_panic_wire_payloads(
        which in 0usize..3,
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 0u8..255), 1..6)
    ) {
        let deco = tiny_deco();
        let mut bytes = match which {
            0 => encode_engine(&deco),
            1 => encode_store(&deco.store),
            _ => encode_workflow(&generators::montage(1, 3)),
        };
        mutate_bytes(&mut bytes, &picks);
        drive_wire_payloads(&bytes);
    }
}
