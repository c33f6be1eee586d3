//! The supervisor ⇄ worker frame protocol.
//!
//! Frames ride the same on-the-wire container as the durable store
//! ([`deco_serve::store`]): `[u32 length][body][u64 checksum]`, written
//! in place with [`frame_into`] and read with [`read_frame`]. On a pipe a
//! failed checksum is fatal (a torn WAL tail is tolerable; a torn pipe
//! frame means the peer is gone or insane), so every decode defect maps
//! to [`DecoError::Transport`].
//!
//! The grammar (body = version byte, tag byte, fields):
//!
//! ```text
//! supervisor → worker
//!   Hello        shard_index workers store_dir? snapshot_every
//!                sync_every heartbeat_ms engine-bytes sabotage resume_seq
//!   AssignJobs   cycle [key deadline percentile budget workflow]*
//!   Get          seq key last_use          (synchronous: → GotPlan)
//!   Touch        seq key last_use          (recency only, fire-and-forget)
//!   Put          seq key epoch last_use plan
//!   Del          seq key
//!   Strike       seq key count             (count is ABSOLUTE)
//!   ClearKey     seq key
//!   Quarantine   seq key
//!   EpochSwap    seq epoch store-bytes
//!   CycleBarrier cycle                     (synchronous: → BarrierAck)
//!   Shutdown
//!
//! worker → supervisor
//!   HelloAck     recover-report            (once, after recovery)
//!   Heartbeat                              (periodic, from its own thread)
//!   Applied      seq                       (ack of one mutation)
//!   GotPlan      seq plan?
//!   JobResults   cycle [key budget (plan | error)]*
//!   BarrierAck   cycle store-stats
//! ```
//!
//! The mutation frames — `Touch` through `Quarantine`, and `EpochSwap`
//! for an `Epoch` — are the books' [`Mutation`]s in the mutation encoding
//! of [`deco_serve::store`]: its tag, then `seq`, then its fields (a
//! `Put`'s plan as a `u32` length and the canonical plan bytes), the
//! swap's catalog bytes last. The other frames' tags stay clear of the
//! mutation tags. Version 2 moved to that encoding (version 1 had its own
//! tags and `u64` byte-string lengths); `Hello` rejects a mismatch.
//!
//! Every mutation carries a sequence number and an **absolute** value
//! (`Strike` carries the total, `Put`/`Get`/`Touch` carry the final
//! LRU stamp),
//! so replaying an un-acked suffix after a worker restart is idempotent:
//! the supervisor keeps the encoded bytes of every frame not yet
//! covered by an `Applied`/`GotPlan`/`BarrierAck` and resends them, in
//! order, to the recovered worker. Since the worker processes its pipe
//! serially, a `BarrierAck` acknowledges everything before it.

use deco_core::codec::{
    decode_all, on_pipe, put_bool, put_bytes, put_f64, put_opt, put_str, put_u32, put_u64, put_u8,
    Reader,
};
use deco_core::supervisor::SupervisedPlan;
use deco_core::wire::{
    decode_budget, decode_error, decode_workflow, encode_budget, encode_error, encode_workflow,
};
use deco_core::DecoError;
use deco_serve::server::SolveJob;
use deco_serve::store::{frame_into, Payload};
use deco_serve::{read_frame, Mutation, Partition};
use deco_solver::SearchBudget;
use std::io::{Read, Write};

/// Version byte leading every frame body. Peers reject mismatches.
/// Version 3 dropped the beam-reserve slot from the `Hello` engine bytes.
pub const PROC_WIRE_VERSION: u8 = 3;

/// The argv marker a supervised binary checks for at startup (see
/// [`crate::proc::maybe_run_shard_worker`]).
pub const WORKER_ARG: &str = "--deco-shard-worker";

// Supervisor → worker tags besides the mutation frames'.
const TAG_HELLO: u8 = 16;
const TAG_ASSIGN_JOBS: u8 = 17;
const TAG_GET: u8 = 18;
const TAG_CYCLE_BARRIER: u8 = 19;
const TAG_SHUTDOWN: u8 = 20;
// Worker → supervisor tags.
const TAG_HELLO_ACK: u8 = 64;
const TAG_HEARTBEAT: u8 = 65;
const TAG_APPLIED: u8 = 66;
const TAG_GOT_PLAN: u8 = 67;
const TAG_JOB_RESULTS: u8 = 68;
const TAG_BARRIER_ACK: u8 = 69;

fn corrupt(what: impl Into<String>) -> DecoError {
    DecoError::Transport(format!("frame corrupt: {}", what.into()))
}

/// Append a mutation frame's tag, `seq` and fields, plus the catalog
/// bytes of an `EpochSwap`.
fn put_mutation<P: Payload>(out: &mut Vec<u8>, seq: u64, m: &Mutation<P>, catalog: &[u8]) {
    put_u8(out, m.tag());
    put_u64(out, seq);
    m.put_fields(out);
    if let Mutation::Epoch { .. } = m {
        put_bytes(out, catalog);
    }
}

/// The wire frame applying `m` as sequence `seq`, written in place — a
/// `Put` from its lent plan, an `Epoch` as the `EpochSwap` carrying
/// `catalog`. What the supervisor sends for each mutation its books make.
pub fn encode_mutation<P: Payload>(seq: u64, m: &Mutation<P>, catalog: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, |out| {
        put_u8(out, PROC_WIRE_VERSION);
        put_mutation(out, seq, m, catalog);
    });
    out
}

fn put_jobs(out: &mut Vec<u8>, cycle: u64, jobs: &[SolveJob]) {
    put_u8(out, TAG_ASSIGN_JOBS);
    put_u64(out, cycle);
    put_u64(out, jobs.len() as u64);
    for j in jobs {
        put_u64(out, j.key);
        put_f64(out, j.deadline);
        put_f64(out, j.percentile);
        encode_budget(out, &j.budget);
        put_bytes(out, &encode_workflow(&j.workflow));
    }
}

/// The `AssignJobs` wire frame, encoded from the borrowed jobs the
/// supervisor keeps for re-dispatch and fallback.
pub fn encode_assign(cycle: u64, jobs: &[SolveJob]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, |out| {
        put_u8(out, PROC_WIRE_VERSION);
        put_jobs(out, cycle, jobs);
    });
    out
}

/// Deterministic misbehavior a test or bench can order a worker to
/// perform, carried in [`Hello`]. Counters reset on every (re)spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sabotage {
    /// After this many `AssignJobs`, swallow results forever but keep
    /// heartbeating — a *hang*, which must trip the hang timeout, not
    /// the heartbeat timeout. `Some(0)` hangs on the first assignment.
    pub hang_after_assigns: Option<u64>,
    /// After this many `AssignJobs`, exit abruptly (simulated crash).
    pub exit_after_assigns: Option<u64>,
}

/// The one-time configuration frame a worker receives at spawn.
#[derive(Debug, Clone)]
pub struct Hello {
    pub shard_index: u32,
    /// Solver threads in the worker's pool.
    pub workers: u32,
    /// Durable store directory; `None` runs memory-only.
    pub store_dir: Option<String>,
    pub snapshot_every: u64,
    pub sync_every: u64,
    /// Heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
    /// The full engine (catalog + options), [`deco_core::wire::encode_engine`] bytes.
    pub engine: Vec<u8>,
    pub sabotage: Sabotage,
    /// Highest mutation seq the supervisor believes this worker already
    /// holds durably. Zero on a cold spawn; on a warm-failover re-adopt
    /// the standby replays only frames past this high-water mark (replay
    /// is idempotent, so over-replay after a torn ack is harmless).
    pub resume_seq: u64,
}

/// What a worker recovered from its store, reported in `HelloAck`.
/// Entry *metadata* only — plan bytes stay in the worker; the supervisor
/// mirrors `(key, epoch, last_use)` and fetches plans on demand.
#[derive(Debug, Clone, Default)]
pub struct RecoverReport {
    /// False when the store could not be opened or replayed and the
    /// worker degraded to memory-only.
    pub store_ok: bool,
    pub recovered_entries: u64,
    pub recovered_frames: u64,
    pub torn_bytes: u64,
    /// `(key, epoch, last_use)` per recovered cache entry, key order.
    pub entries: Vec<(u64, u64, u64)>,
    pub strikes: Vec<(u64, u32)>,
    pub quarantine: Vec<u64>,
}

impl RecoverReport {
    /// The metadata of a worker's recovered partition (counters and
    /// `store_ok` are the caller's).
    pub fn of(part: &Partition<SupervisedPlan>) -> Self {
        RecoverReport {
            entries: part
                .entries
                .iter()
                .map(|(&key, e)| (key, e.epoch, e.last_use))
                .collect(),
            strikes: part.strikes.iter().map(|(&k, &c)| (k, c)).collect(),
            quarantine: part.quarantine.iter().copied().collect(),
            ..RecoverReport::default()
        }
    }

    /// The supervisor mirror's image of the reported partition: the
    /// metadata, with every plan still in the worker (`None`).
    pub fn partition(&self) -> Partition<Option<SupervisedPlan>> {
        let mut part = Partition::default();
        for &(key, epoch, last_use) in &self.entries {
            part.apply(Mutation::Put {
                key,
                epoch,
                last_use,
                plan: None,
            });
        }
        for &(key, count) in &self.strikes {
            part.apply(Mutation::Strike { key, count });
        }
        for &key in &self.quarantine {
            part.apply(Mutation::Quarantine { key });
        }
        part
    }
}

/// Cumulative store counters for one worker *incarnation* (they reset
/// to zero on restart; the supervisor rebases across incarnations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStoreStats {
    pub wal_appends: u64,
    pub snapshots: u64,
    pub syncs: u64,
    pub store_failures: u64,
}

/// One frame of the supervision protocol. See the module docs for the
/// grammar and the replay/idempotence rules. (Not `Clone`: replay works
/// on encoded bytes, and solver errors are deliberately clone-free.)
#[derive(Debug)]
pub enum Frame {
    // supervisor → worker
    Hello(Hello),
    AssignJobs {
        cycle: u64,
        jobs: Vec<SolveJob>,
    },
    Get {
        seq: u64,
        key: u64,
        /// The LRU stamp this hit assigns (absolute, for idempotence).
        last_use: u64,
    },
    /// Recency-only hit notification: the supervisor answered the hit
    /// from its own copy of the plan and only propagates the LRU stamp.
    /// Fire-and-forget (acked by `Applied`, like any mutation) — the
    /// hit path never waits on the worker.
    Touch {
        seq: u64,
        key: u64,
        /// Absolute LRU stamp, idempotent under replay.
        last_use: u64,
    },
    Put {
        seq: u64,
        key: u64,
        epoch: u64,
        last_use: u64,
        plan: SupervisedPlan,
    },
    Del {
        seq: u64,
        key: u64,
    },
    Strike {
        seq: u64,
        key: u64,
        /// The new total (absolute, for idempotence).
        count: u32,
    },
    ClearKey {
        seq: u64,
        key: u64,
    },
    Quarantine {
        seq: u64,
        key: u64,
    },
    EpochSwap {
        seq: u64,
        epoch: u64,
        /// [`deco_core::wire::encode_store`] bytes of the refreshed catalog.
        store: Vec<u8>,
    },
    CycleBarrier {
        cycle: u64,
    },
    Shutdown,
    // worker → supervisor
    HelloAck(RecoverReport),
    Heartbeat,
    Applied {
        seq: u64,
    },
    GotPlan {
        seq: u64,
        /// `None` if the worker does not hold the key — a protocol
        /// breach the supervisor degrades to a miss, never a panic.
        plan: Option<SupervisedPlan>,
    },
    JobResults {
        cycle: u64,
        results: Vec<(u64, SearchBudget, Result<SupervisedPlan, DecoError>)>,
    },
    BarrierAck {
        cycle: u64,
        stats: WorkerStoreStats,
    },
}

impl Frame {
    /// The mutation a worker-bound mutation frame applies, with its seq
    /// and an `EpochSwap`'s catalog bytes (empty for the others); any
    /// other frame comes back unchanged. The worker's dispatch. (`Err`
    /// hands the frame back; it is not an error value to shrink.)
    #[allow(clippy::result_large_err)]
    pub fn into_mutation(self) -> Result<(u64, Mutation<SupervisedPlan>, Vec<u8>), Frame> {
        let (seq, m) = match self {
            Frame::Put {
                seq,
                key,
                epoch,
                last_use,
                plan,
            } => (
                seq,
                Mutation::Put {
                    key,
                    epoch,
                    last_use,
                    plan,
                },
            ),
            Frame::Touch { seq, key, last_use } => (seq, Mutation::Touch { key, last_use }),
            Frame::Del { seq, key } => (seq, Mutation::Del { key }),
            Frame::Strike { seq, key, count } => (seq, Mutation::Strike { key, count }),
            Frame::ClearKey { seq, key } => (seq, Mutation::ClearKey { key }),
            Frame::Quarantine { seq, key } => (seq, Mutation::Quarantine { key }),
            Frame::EpochSwap { seq, epoch, store } => {
                return Ok((seq, Mutation::Epoch { epoch }, store))
            }
            other => return Err(other),
        };
        Ok((seq, m, Vec::new()))
    }

    /// The mutation frame applying `m` as sequence `seq` — the inverse
    /// of [`into_mutation`](Self::into_mutation); a `Drop` has no frame.
    fn of(seq: u64, m: Mutation<SupervisedPlan>, catalog: Vec<u8>) -> Option<Frame> {
        Some(match m {
            Mutation::Put {
                key,
                epoch,
                last_use,
                plan,
            } => Frame::Put {
                seq,
                key,
                epoch,
                last_use,
                plan,
            },
            Mutation::Touch { key, last_use } => Frame::Touch { seq, key, last_use },
            Mutation::Del { key } => Frame::Del { seq, key },
            Mutation::Strike { key, count } => Frame::Strike { seq, key, count },
            Mutation::ClearKey { key } => Frame::ClearKey { seq, key },
            Mutation::Quarantine { key } => Frame::Quarantine { seq, key },
            Mutation::Epoch { epoch } => Frame::EpochSwap {
                seq,
                epoch,
                store: catalog,
            },
            Mutation::Drop => return None,
        })
    }

    /// A mutation frame lent as its mutation: seq, the mutation, and an
    /// `EpochSwap`'s catalog bytes (empty for the others).
    fn lend(&self) -> Option<(u64, Mutation<&SupervisedPlan>, &[u8])> {
        let (seq, m) = match *self {
            Frame::Put {
                seq,
                key,
                epoch,
                last_use,
                ref plan,
            } => (
                seq,
                Mutation::Put {
                    key,
                    epoch,
                    last_use,
                    plan,
                },
            ),
            Frame::Touch { seq, key, last_use } => (seq, Mutation::Touch { key, last_use }),
            Frame::Del { seq, key } => (seq, Mutation::Del { key }),
            Frame::Strike { seq, key, count } => (seq, Mutation::Strike { key, count }),
            Frame::ClearKey { seq, key } => (seq, Mutation::ClearKey { key }),
            Frame::Quarantine { seq, key } => (seq, Mutation::Quarantine { key }),
            Frame::EpochSwap {
                seq,
                epoch,
                ref store,
            } => return Some((seq, Mutation::Epoch { epoch }, store)),
            _ => return None,
        };
        Some((seq, m, &[]))
    }

    /// Append the body: version, tag, fields.
    fn put_body(&self, out: &mut Vec<u8>) {
        put_u8(out, PROC_WIRE_VERSION);
        if let Some((seq, m, catalog)) = self.lend() {
            return put_mutation(out, seq, &m, catalog);
        }
        match self {
            Frame::Hello(h) => {
                put_u8(out, TAG_HELLO);
                put_u32(out, h.shard_index);
                put_u32(out, h.workers);
                put_opt(out, h.store_dir.as_deref(), put_str);
                put_u64(out, h.snapshot_every);
                put_u64(out, h.sync_every);
                put_u64(out, h.heartbeat_ms);
                put_bytes(out, &h.engine);
                put_opt(out, h.sabotage.hang_after_assigns, put_u64);
                put_opt(out, h.sabotage.exit_after_assigns, put_u64);
                put_u64(out, h.resume_seq);
            }
            Frame::AssignJobs { cycle, jobs } => put_jobs(out, *cycle, jobs),
            Frame::Get { seq, key, last_use } => {
                put_u8(out, TAG_GET);
                put_u64(out, *seq);
                put_u64(out, *key);
                put_u64(out, *last_use);
            }
            Frame::CycleBarrier { cycle } => {
                put_u8(out, TAG_CYCLE_BARRIER);
                put_u64(out, *cycle);
            }
            Frame::Shutdown => put_u8(out, TAG_SHUTDOWN),
            Frame::HelloAck(rep) => {
                put_u8(out, TAG_HELLO_ACK);
                put_bool(out, rep.store_ok);
                put_u64(out, rep.recovered_entries);
                put_u64(out, rep.recovered_frames);
                put_u64(out, rep.torn_bytes);
                put_u64(out, rep.entries.len() as u64);
                for &(key, epoch, last_use) in &rep.entries {
                    put_u64(out, key);
                    put_u64(out, epoch);
                    put_u64(out, last_use);
                }
                put_u64(out, rep.strikes.len() as u64);
                for &(key, count) in &rep.strikes {
                    put_u64(out, key);
                    put_u32(out, count);
                }
                put_u64(out, rep.quarantine.len() as u64);
                for &key in &rep.quarantine {
                    put_u64(out, key);
                }
            }
            Frame::Heartbeat => put_u8(out, TAG_HEARTBEAT),
            Frame::Applied { seq } => {
                put_u8(out, TAG_APPLIED);
                put_u64(out, *seq);
            }
            Frame::GotPlan { seq, plan } => {
                put_u8(out, TAG_GOT_PLAN);
                put_u64(out, *seq);
                put_opt(out, plan.as_ref(), |out, p| p.put_payload(out));
            }
            Frame::JobResults { cycle, results } => {
                put_u8(out, TAG_JOB_RESULTS);
                put_u64(out, *cycle);
                put_u64(out, results.len() as u64);
                for (key, budget, result) in results {
                    put_u64(out, *key);
                    encode_budget(out, budget);
                    match result {
                        Ok(plan) => {
                            put_u8(out, 1);
                            plan.put_payload(out);
                        }
                        Err(e) => {
                            put_u8(out, 0);
                            encode_error(out, e);
                        }
                    }
                }
            }
            Frame::BarrierAck { cycle, stats } => {
                put_u8(out, TAG_BARRIER_ACK);
                put_u64(out, *cycle);
                put_u64(out, stats.wal_appends);
                put_u64(out, stats.snapshots);
                put_u64(out, stats.syncs);
                put_u64(out, stats.store_failures);
            }
            // The mutation frames, lent above.
            _ => {}
        }
    }

    /// Serialize the frame body (no length/checksum container).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.put_body(&mut out);
        out
    }

    /// Parse one frame body. Any defect is [`DecoError::Transport`].
    pub fn decode_body(body: &[u8]) -> Result<Frame, DecoError> {
        decode_all(body, read_body).map_err(on_pipe)
    }

    /// Serialize the full wire frame (length, body, checksum), in place.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, |out| self.put_body(out));
        out
    }

    /// Write the frame and flush — a frame on a pipe is only useful once
    /// the peer can see all of it.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Read one frame. `Ok(None)` is clean EOF (peer closed the pipe);
    /// decode defects surface as `InvalidData`.
    pub fn read_from(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
        match read_frame(r)? {
            None => Ok(None),
            Some(body) => Frame::decode_body(&body)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

fn read_body(r: &mut Reader<'_>) -> Result<Frame, DecoError> {
    let version = r.u8()?;
    if version != PROC_WIRE_VERSION {
        return Err(corrupt(format!(
            "protocol version {version}, expected {PROC_WIRE_VERSION}"
        )));
    }
    Ok(match r.u8()? {
        TAG_HELLO => Frame::Hello(Hello {
            shard_index: r.u32()?,
            workers: r.u32()?,
            store_dir: r.opt(Reader::str)?,
            snapshot_every: r.u64()?,
            sync_every: r.u64()?,
            heartbeat_ms: r.u64()?,
            engine: r.bytes()?.to_vec(),
            sabotage: Sabotage {
                hang_after_assigns: r.opt(Reader::u64)?,
                exit_after_assigns: r.opt(Reader::u64)?,
            },
            resume_seq: r.u64()?,
        }),
        TAG_ASSIGN_JOBS => {
            let cycle = r.u64()?;
            let n = r.u64()? as usize;
            let mut jobs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                jobs.push(SolveJob {
                    key: r.u64()?,
                    deadline: r.f64()?,
                    percentile: r.f64()?,
                    budget: decode_budget(r)?,
                    workflow: decode_workflow(r.bytes()?)?,
                });
            }
            Frame::AssignJobs { cycle, jobs }
        }
        TAG_GET => Frame::Get {
            seq: r.u64()?,
            key: r.u64()?,
            last_use: r.u64()?,
        },
        TAG_CYCLE_BARRIER => Frame::CycleBarrier { cycle: r.u64()? },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_HELLO_ACK => {
            let store_ok = r.bool()?;
            let recovered_entries = r.u64()?;
            let recovered_frames = r.u64()?;
            let torn_bytes = r.u64()?;
            let n = r.u64()? as usize;
            let mut entries = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                entries.push((r.u64()?, r.u64()?, r.u64()?));
            }
            let n = r.u64()? as usize;
            let mut strikes = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                strikes.push((r.u64()?, r.u32()?));
            }
            let n = r.u64()? as usize;
            let mut quarantine = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                quarantine.push(r.u64()?);
            }
            Frame::HelloAck(RecoverReport {
                store_ok,
                recovered_entries,
                recovered_frames,
                torn_bytes,
                entries,
                strikes,
                quarantine,
            })
        }
        TAG_HEARTBEAT => Frame::Heartbeat,
        TAG_APPLIED => Frame::Applied { seq: r.u64()? },
        TAG_GOT_PLAN => Frame::GotPlan {
            seq: r.u64()?,
            plan: r.opt(SupervisedPlan::read_payload)?,
        },
        TAG_JOB_RESULTS => {
            let cycle = r.u64()?;
            let n = r.u64()? as usize;
            let mut results = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = r.u64()?;
                let budget = decode_budget(r)?;
                let result = match r.u8()? {
                    1 => Ok(SupervisedPlan::read_payload(r)?),
                    0 => Err(decode_error(r)?),
                    t => return Err(corrupt(format!("result tag {t}"))),
                };
                results.push((key, budget, result));
            }
            Frame::JobResults { cycle, results }
        }
        TAG_BARRIER_ACK => Frame::BarrierAck {
            cycle: r.u64()?,
            stats: WorkerStoreStats {
                wal_appends: r.u64()?,
                snapshots: r.u64()?,
                syncs: r.u64()?,
                store_failures: r.u64()?,
            },
        },
        // A mutation frame: the mutation encoding with `seq` after the tag.
        tag => {
            let seq = r.u64()?;
            let m = Mutation::read_fields(tag, r)?;
            let catalog = match m {
                Mutation::Epoch { .. } => r.bytes()?.to_vec(),
                _ => Vec::new(),
            };
            Frame::of(seq, m, catalog).ok_or_else(|| corrupt("a partition drop has no frame"))?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::{CloudSpec, MetadataStore};
    use deco_core::supervisor::plan_with_fallback;
    use deco_core::{encode_supervised_plan, Deco};
    use deco_workflow::generators;
    use std::io::Cursor;

    fn sample_plan() -> SupervisedPlan {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 10;
        deco.options.search.max_states = 40;
        let wf = generators::pipeline(2, 50.0, 0);
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(&wf, &deco.store.spec);
        plan_with_fallback(
            &deco,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &SearchBudget::unlimited(),
        )
        .expect("feasible")
    }

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).expect("write");
        let mut cur = Cursor::new(buf);
        let back = Frame::read_from(&mut cur).expect("read").expect("frame");
        // The pipe must be fully drained — no partial reads.
        assert!(Frame::read_from(&mut cur).expect("eof read").is_none());
        back
    }

    #[test]
    fn control_frames_round_trip() {
        match round_trip(&Frame::Heartbeat) {
            Frame::Heartbeat => {}
            other => panic!("got {other:?}"),
        }
        match round_trip(&Frame::Shutdown) {
            Frame::Shutdown => {}
            other => panic!("got {other:?}"),
        }
        match round_trip(&Frame::Get {
            seq: 7,
            key: 42,
            last_use: 99,
        }) {
            Frame::Get { seq, key, last_use } => {
                assert_eq!((seq, key, last_use), (7, 42, 99));
            }
            other => panic!("got {other:?}"),
        }
        match round_trip(&Frame::BarrierAck {
            cycle: 5,
            stats: WorkerStoreStats {
                wal_appends: 10,
                snapshots: 1,
                syncs: 2,
                store_failures: 0,
            },
        }) {
            Frame::BarrierAck { cycle, stats } => {
                assert_eq!(cycle, 5);
                assert_eq!(stats.wal_appends, 10);
                assert_eq!(stats.snapshots, 1);
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn hello_and_recover_report_round_trip() {
        let hello = Hello {
            shard_index: 3,
            workers: 2,
            store_dir: Some("/tmp/deco-shard-3".into()),
            snapshot_every: 64,
            sync_every: 8,
            heartbeat_ms: 20,
            engine: vec![1, 2, 3, 4],
            sabotage: Sabotage {
                hang_after_assigns: Some(2),
                exit_after_assigns: None,
            },
            resume_seq: 41,
        };
        match round_trip(&Frame::Hello(hello)) {
            Frame::Hello(h) => {
                assert_eq!(h.shard_index, 3);
                assert_eq!(h.store_dir.as_deref(), Some("/tmp/deco-shard-3"));
                assert_eq!(h.sabotage.hang_after_assigns, Some(2));
                assert_eq!(h.sabotage.exit_after_assigns, None);
                assert_eq!(h.engine, vec![1, 2, 3, 4]);
                assert_eq!(h.resume_seq, 41);
            }
            other => panic!("got {other:?}"),
        }
        let rep = RecoverReport {
            store_ok: true,
            recovered_entries: 2,
            recovered_frames: 9,
            torn_bytes: 7,
            entries: vec![(1, 10, 100), (2, 10, 101)],
            strikes: vec![(5, 3)],
            quarantine: vec![9],
        };
        match round_trip(&Frame::HelloAck(rep)) {
            Frame::HelloAck(r) => {
                assert!(r.store_ok);
                assert_eq!(r.entries, vec![(1, 10, 100), (2, 10, 101)]);
                assert_eq!(r.strikes, vec![(5, 3)]);
                assert_eq!(r.quarantine, vec![9]);
                assert_eq!(r.torn_bytes, 7);
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn jobs_plans_and_errors_round_trip_exactly() {
        let plan = sample_plan();
        let wf = generators::pipeline(3, 40.0, 1);
        let assign = Frame::AssignJobs {
            cycle: 4,
            jobs: vec![SolveJob {
                key: 77,
                deadline: 3600.0,
                percentile: 0.9,
                budget: SearchBudget {
                    ticks: Some(500.0),
                    wall_seconds: None,
                },
                workflow: wf.clone(),
            }],
        };
        match round_trip(&assign) {
            Frame::AssignJobs { cycle, jobs } => {
                assert_eq!(cycle, 4);
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].key, 77);
                assert_eq!(jobs[0].budget.ticks, Some(500.0));
                assert_eq!(
                    deco_core::wire::encode_workflow(&jobs[0].workflow),
                    deco_core::wire::encode_workflow(&wf),
                );
            }
            other => panic!("got {other:?}"),
        }
        let results = Frame::JobResults {
            cycle: 4,
            results: vec![
                (77, SearchBudget::unlimited(), Ok(plan.clone())),
                (
                    78,
                    SearchBudget::unlimited(),
                    Err(DecoError::Infeasible("no feasible state".into())),
                ),
            ],
        };
        match round_trip(&results) {
            Frame::JobResults { results, .. } => {
                assert_eq!(results.len(), 2);
                let ok = results[0].2.as_ref().expect("ok result");
                assert_eq!(
                    encode_supervised_plan(ok),
                    encode_supervised_plan(&plan),
                    "plan must survive the pipe bit-identically"
                );
                let err = results[1].2.as_ref().expect_err("err result");
                assert_eq!(err.to_string(), "infeasible: no feasible state");
            }
            other => panic!("got {other:?}"),
        }
        match round_trip(&Frame::Put {
            seq: 12,
            key: 77,
            epoch: 2,
            last_use: 31,
            plan: plan.clone(),
        }) {
            Frame::Put {
                seq,
                key,
                epoch,
                last_use,
                plan: p,
            } => {
                assert_eq!((seq, key, epoch, last_use), (12, 77, 2, 31));
                assert_eq!(encode_supervised_plan(&p), encode_supervised_plan(&plan));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn corrupt_bodies_are_transport_errors_not_panics() {
        // Unknown tag.
        let body = vec![PROC_WIRE_VERSION, 250];
        let e = Frame::decode_body(&body).expect_err("unknown tag");
        assert!(e.to_string().starts_with("transport error:"), "{e}");
        // Bad version.
        let e = Frame::decode_body(&[9, TAG_HEARTBEAT]).expect_err("bad version");
        assert!(e.to_string().starts_with("transport error:"), "{e}");
        // Truncated field.
        let mut body = Frame::Applied { seq: 5 }.encode_body();
        body.truncate(body.len() - 3);
        let e = Frame::decode_body(&body).expect_err("truncated");
        assert!(e.to_string().starts_with("transport error:"), "{e}");
        // Trailing garbage.
        let mut body = Frame::Heartbeat.encode_body();
        body.push(0);
        let e = Frame::decode_body(&body).expect_err("trailing");
        assert!(e.to_string().starts_with("transport error:"), "{e}");
        // A flipped checksum in the container is InvalidData at read time.
        let mut wire = Frame::Heartbeat.encode();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let err = Frame::read_from(&mut Cursor::new(wire)).expect_err("checksum");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
