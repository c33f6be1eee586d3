//! The shard worker: the child-process half of the supervised tier.
//!
//! A worker owns one shard's full [`Partition`] — the plan cache (with
//! plan bytes) and the strike/quarantine books — and its WAL-backed
//! [`PlanStore`], plus a solver pool. It makes no decisions: every
//! mutation frame is the supervisor's, folded with
//! [`Partition::apply`] and logged when it changes something. It speaks the
//! [`Frame`](super::wire::Frame) protocol on stdin/stdout: the main
//! thread processes frames strictly serially (which is what makes a
//! `BarrierAck` acknowledge everything before it), while a dedicated
//! heartbeat thread keeps beating even when the main thread is deep in
//! a long solve.
//!
//! Workers are spawned by self-exec: the supervisor runs
//! `current_exe() --deco-shard-worker`, so any binary that can host a
//! supervisor (a test, a bench, a real server) must call
//! [`maybe_run_shard_worker`] first thing in `main`.
//!
//! `Hello.resume_seq` is the supervisor's acked high-water mark for this
//! shard (zero on a cold spawn). The worker needs no special handling:
//! every mutation carries an absolute value, so a standby supervisor
//! that re-adopts the shard simply numbers new mutations past the mark
//! and may over-replay a torn suffix — both are idempotent here.

use super::wire::{Frame, Hello, RecoverReport, WorkerStoreStats};
use crate::server::{ShardStats, ShardStore};
use deco_core::supervisor::SupervisedPlan;
use deco_core::wire::{decode_engine, decode_store};
use deco_core::Deco;
use deco_serve::server::{solve_jobs_on_pool, SolveJob};
use deco_serve::store::{PlanStore, StoreConfig};
use deco_serve::{Mutation, Partition};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Exit code for a clean shutdown (a `Shutdown` frame or supervisor EOF).
pub const EXIT_OK: i32 = 0;
/// Exit code for a transport failure (corrupt frame, dead pipe).
pub const EXIT_TRANSPORT: i32 = 2;
/// Exit code taken by the `exit_after_assigns` sabotage (simulated crash).
pub const EXIT_SABOTAGE: i32 = 3;

/// Run the worker protocol if this process was spawned as a shard
/// worker (argv contains [`super::wire::WORKER_ARG`]); otherwise return
/// so the host binary can proceed as the supervisor/test/bench it is.
pub fn maybe_run_shard_worker() {
    if std::env::args().any(|a| a == super::wire::WORKER_ARG) {
        shard_worker_main();
    }
}

/// The worker entry point: serve frames on stdin/stdout until shutdown.
pub fn shard_worker_main() -> ! {
    let stdout: SharedWriter = Arc::new(Mutex::new(std::io::stdout()));
    let mut stdin = std::io::stdin().lock();
    let code = run_worker(&mut stdin, &stdout);
    std::process::exit(code)
}

type SharedWriter = Arc<Mutex<std::io::Stdout>>;

/// Send one whole frame atomically with respect to the heartbeat thread.
fn send(out: &SharedWriter, frame: &Frame) -> std::io::Result<()> {
    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
    frame.write_to(&mut *w)
}

struct Worker {
    deco: Deco,
    workers: usize,
    part: Partition<SupervisedPlan>,
    store: ShardStore,
    /// This incarnation's store counters (appends, snapshots, failures).
    stats: ShardStats,
    snapshot_every: u64,
    hang_after_assigns: Option<u64>,
    exit_after_assigns: Option<u64>,
    assigns_seen: u64,
    hung: bool,
}

impl Worker {
    /// Fold one supervisor mutation, logging it first when it finds
    /// something to change — the `Put`'s plan is logged from the frame,
    /// then moved into the partition. Returns the mutation's ack.
    fn apply(&mut self, seq: u64, m: Mutation<SupervisedPlan>) -> Frame {
        if self.part.finds(&m) {
            self.store.log(&m, &mut self.stats);
        }
        self.part.apply(m);
        Frame::Applied { seq }
    }

    fn store_stats(&self) -> WorkerStoreStats {
        WorkerStoreStats {
            wal_appends: self.stats.wal_appends,
            snapshots: self.stats.snapshots,
            syncs: self.store.store.as_ref().map_or(0, |s| s.stats().syncs),
            store_failures: self.stats.store_failures,
        }
    }
}

/// Open and replay the durable store, building both the worker's warm
/// partition and the metadata report the supervisor mirrors.
fn boot_store(hello: &Hello, worker: &mut Worker) -> RecoverReport {
    let Some(dir) = &hello.store_dir else {
        // Memory-only by configuration, not by failure.
        return RecoverReport {
            store_ok: true,
            ..RecoverReport::default()
        };
    };
    let config = StoreConfig {
        sync_every: hello.sync_every,
    };
    let recovered = PlanStore::open_with(Path::new(dir), config)
        .and_then(|mut store| store.recover().map(|part| (store, part)));
    match recovered {
        Ok((store, part)) => {
            let report = RecoverReport {
                store_ok: true,
                recovered_entries: part.entries.len() as u64,
                recovered_frames: store.stats().frames_recovered,
                torn_bytes: store.stats().torn_bytes,
                ..RecoverReport::of(&part)
            };
            worker.part = part;
            worker.store.store = Some(store);
            report
        }
        Err(_) => {
            worker.stats.store_failures += 1;
            RecoverReport::default()
        }
    }
}

/// The worker protocol loop. Returns the process exit code.
fn run_worker(stdin: &mut impl std::io::Read, out: &SharedWriter) -> i32 {
    // First frame must be Hello — it carries everything else.
    let hello = match Frame::read_from(stdin) {
        Ok(Some(Frame::Hello(h))) => h,
        Ok(_) | Err(_) => return EXIT_TRANSPORT,
    };
    let deco = match decode_engine(&hello.engine) {
        Ok(d) => d,
        Err(_) => return EXIT_TRANSPORT,
    };
    let mut worker = Worker {
        deco,
        workers: (hello.workers as usize).max(1),
        part: Partition::default(),
        store: ShardStore::default(),
        stats: ShardStats::default(),
        snapshot_every: hello.snapshot_every,
        hang_after_assigns: hello.sabotage.hang_after_assigns,
        exit_after_assigns: hello.sabotage.exit_after_assigns,
        assigns_seen: 0,
        hung: false,
    };
    let report = boot_store(&hello, &mut worker);
    if send(out, &Frame::HelloAck(report)).is_err() {
        return EXIT_TRANSPORT;
    }

    // Heartbeats come from their own thread so they keep flowing while
    // the main thread is inside a long solve. The thread dies with the
    // process (or when its writes start failing — supervisor gone).
    let stop = Arc::new(AtomicBool::new(false));
    {
        let out = Arc::clone(out);
        let stop = Arc::clone(&stop);
        let period = std::time::Duration::from_millis(hello.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if send(&out, &Frame::Heartbeat).is_err() {
                    break;
                }
                std::thread::sleep(period);
            }
        });
    }

    loop {
        let frame = match Frame::read_from(stdin) {
            Ok(Some(f)) => f,
            Ok(None) => {
                // Supervisor closed our stdin: clean shutdown.
                stop.store(true, Ordering::Relaxed);
                return EXIT_OK;
            }
            Err(_) => {
                stop.store(true, Ordering::Relaxed);
                return EXIT_TRANSPORT;
            }
        };
        let reply = match frame {
            Frame::AssignJobs { cycle, jobs } => {
                worker.assigns_seen += 1;
                if let Some(n) = worker.exit_after_assigns {
                    if worker.assigns_seen > n {
                        // Simulated crash: vanish without results. Skip
                        // the atexit machinery like a real SIGKILL would.
                        std::process::exit(EXIT_SABOTAGE);
                    }
                }
                if let Some(n) = worker.hang_after_assigns {
                    if worker.assigns_seen > n {
                        worker.hung = true;
                    }
                }
                if worker.hung {
                    // Swallow the assignment but keep reading frames and
                    // heartbeating: a hang, not a crash.
                    continue;
                }
                let jobs: Vec<SolveJob> = jobs
                    .into_iter()
                    .map(|j| SolveJob {
                        key: j.key,
                        workflow: j.workflow,
                        deadline: j.deadline,
                        percentile: j.percentile,
                        budget: j.budget,
                    })
                    .collect();
                let solved = solve_jobs_on_pool(&worker.deco, jobs, worker.workers);
                let results = solved
                    .into_iter()
                    .map(|(key, (budget, result))| (key, budget, result))
                    .collect();
                Frame::JobResults { cycle, results }
            }
            Frame::Get { seq, key, last_use } => {
                worker.apply(seq, Mutation::Touch { key, last_use });
                let plan = worker.part.entries.get(&key).map(|e| e.plan.clone());
                Frame::GotPlan { seq, plan }
            }
            // The recency half of a Get: the supervisor already answered
            // the hit from its own copy of the plan.
            Frame::Touch { seq, key, last_use } => {
                worker.apply(seq, Mutation::Touch { key, last_use })
            }
            Frame::Put {
                seq,
                key,
                epoch,
                last_use,
                plan,
            } => worker.apply(
                seq,
                Mutation::Put {
                    key,
                    epoch,
                    last_use,
                    plan,
                },
            ),
            Frame::Del { seq, key } => worker.apply(seq, Mutation::Del { key }),
            Frame::Strike { seq, key, count } => worker.apply(seq, Mutation::Strike { key, count }),
            Frame::ClearKey { seq, key } => worker.apply(seq, Mutation::ClearKey { key }),
            Frame::Quarantine { seq, key } => worker.apply(seq, Mutation::Quarantine { key }),
            Frame::EpochSwap { seq, epoch, store } => {
                match decode_store(&store) {
                    Ok(fresh) => worker.deco.store = fresh,
                    Err(_) => {
                        stop.store(true, Ordering::Relaxed);
                        return EXIT_TRANSPORT;
                    }
                }
                worker.apply(seq, Mutation::Epoch { epoch })
            }
            Frame::CycleBarrier { cycle } => {
                let epoch = worker.deco.store.catalog_epoch();
                let every = worker.snapshot_every;
                worker
                    .store
                    .maybe_compact(every, epoch, &worker.part, &mut worker.stats);
                Frame::BarrierAck {
                    cycle,
                    stats: worker.store_stats(),
                }
            }
            Frame::Shutdown => {
                stop.store(true, Ordering::Relaxed);
                return EXIT_OK;
            }
            // Worker→supervisor frames arriving here mean the peer is
            // confused; treat as transport failure rather than guessing.
            _ => {
                stop.store(true, Ordering::Relaxed);
                return EXIT_TRANSPORT;
            }
        };
        if send(out, &reply).is_err() {
            stop.store(true, Ordering::Relaxed);
            return EXIT_TRANSPORT;
        }
    }
}
