//! The supervisor journal: crash tolerance for the control plane.
//!
//! PR-7 gave each *worker* a WAL so a worker SIGKILL is lossless. This
//! module gives the *supervisor* the same discipline, so the process
//! that owns the metadata mirror, the books, the global LRU clock, and
//! the serve-loop state is no longer the single point of loss. Every
//! mirror mutation the supervisor commits is appended as a checksummed
//! frame in the store codec's container (`[len][body][checksum]`,
//! replayed with [`replay_frame_file`]'s torn-tail rules) whose body is
//! the store's mutation encoding with the shard index after the tag
//! ([`JournalFrame::Shard`]), and each
//! serve cycle is sealed by a [`JournalFrame::Commit`] carrying the
//! authoritative clock, per-shard seq high-water marks, shard health,
//! the *head* of the cycle loop's [`ServeCheckpoint`], and the response
//! lines this commit made emittable.
//!
//! **Waits are a log, not a field.** `ServeStats::waits` grows by one
//! `f64` per answer, so it is journaled like the mirror: a
//! [`JournalFrame::Waits`] block before each `Commit` carries the values
//! the cycle added, the `Commit` the length their fold must reach, and
//! recovery splices the folded log back in once.
//!
//! **Commit granularity.** Mutation frames are buffered in memory and
//! written with their sealing `Commit` in one append, so the on-disk
//! log is a sequence of commit groups (plus at most one torn tail).
//! Recovery buffers a group's frames and folds them only when its
//! `Commit` arrives intact: a torn group is a cycle the supervisor died
//! inside, and the standby re-derives it by re-running the loop
//! iteration from the sealed checkpoint — deterministically, so the
//! response stream is byte-identical to a run that never died.
//!
//! **Metadata only.** Like the mirror itself, the journal stores
//! `(key → epoch, last_use)` and the books, never plan bytes: recovered
//! entries rehydrate as adopted metadata and the plans are fetched from
//! the workers' own WAL-backed stores on first hit. Failover therefore
//! preserves byte-identity exactly when worker persistence is on — the
//! same contract worker restarts already carry.
//!
//! Compaction follows PR-7 verbatim: a snapshot (per-shard state frames,
//! the wait log from base 0, the sealing `Commit`) is published
//! tmp+rename, then the WAL is truncated. Journal I/O failure is never fatal
//! — the owner counts it and drops the journal: the unjournaled tier.

use deco_core::codec::{decode_all, put_bool, put_u32, put_u64, put_u8, Reader};
use deco_core::DecoError;
use deco_serve::checkpoint::{put_waits, read_waits, ServeCheckpoint};
use deco_serve::store::{
    encode_frame, frame_into, replay_frame_file, write_frames_atomic_cadenced, MAX_FRAME_BODY,
    TAG_EPOCH,
};
use deco_serve::{Mutation, Partition};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version byte leading every journal frame body.
pub const JOURNAL_VERSION: u8 = 2;

/// WAL file name inside the journal directory (public so chaos tests
/// can truncate and corrupt it from outside).
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the journal directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

// Journal-only tags, clear of the mutation vocabulary's
// (`deco_serve::store`, whose `Drop` is 9).
const TAG_PURGE: u8 = 8;
const TAG_COMMIT: u8 = 10;
const TAG_WAITS: u8 = 11;

fn corrupt(what: impl Into<String>) -> DecoError {
    DecoError::Store(format!("journal corrupt: {}", what.into()))
}

fn journal_err(op: &str, path: &Path, e: std::io::Error) -> DecoError {
    DecoError::Store(format!("journal {op} {}: {e}", path.display()))
}

/// Restart-strike standing of one shard at commit time, so a standby
/// rehydrates [`super::monitor::LivenessMonitor`] books instead of
/// granting every shard a fresh budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    pub strikes: u32,
    pub quarantined: bool,
}

/// The record sealing one committed serve cycle.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// Supervisor cycle counter at the boundary.
    pub cycle: u64,
    /// The global LRU clock — authoritative over any folded `last_use`.
    pub clock: u64,
    /// Per-shard mutation seq high-water marks (`Hello.resume_seq` on
    /// re-adopt).
    pub shard_seqs: Vec<u64>,
    pub shard_health: Vec<ShardHealth>,
    /// The cycle loop's full resumable state.
    pub serve: ServeCheckpoint,
    /// Canonical response lines this commit made emittable (the delta;
    /// lines before it number `serve.emitted - lines.len()`).
    pub lines: Vec<String>,
}

/// A [`CommitRecord`] by reference: what the serving path seals.
#[derive(Debug, Clone, Copy)]
pub struct CommitRef<'a> {
    pub cycle: u64,
    pub clock: u64,
    pub shard_seqs: &'a [u64],
    pub shard_health: &'a [ShardHealth],
    pub serve: &'a ServeCheckpoint,
    pub lines: &'a [String],
}

impl CommitRecord {
    pub fn borrowed(&self) -> CommitRef<'_> {
        CommitRef {
            cycle: self.cycle,
            clock: self.clock,
            shard_seqs: &self.shard_seqs,
            shard_health: &self.shard_health,
            serve: &self.serve,
            lines: &self.lines,
        }
    }
}

/// Append one journal frame in place: container, version, `fields`.
fn put_frame(out: &mut Vec<u8>, fields: impl FnOnce(&mut Vec<u8>)) {
    frame_into(out, |out| {
        put_u8(out, JOURNAL_VERSION);
        fields(out);
    });
}

fn put_waits_fields(out: &mut Vec<u8>, base: u64, values: &[f64]) {
    put_u8(out, TAG_WAITS);
    put_u64(out, base);
    put_waits(out, values);
}

/// Append the `Waits` frame continuing the log at `base`; a block past
/// the container's cap is an error (the owner degrades), not a panic.
fn put_waits_frame(out: &mut Vec<u8>, base: usize, values: &[f64]) -> Result<(), DecoError> {
    let n = values.len();
    if 8 * n + 32 > MAX_FRAME_BODY {
        return Err(DecoError::Store(format!(
            "journal: {n} waits exceed a frame"
        )));
    }
    put_frame(out, |out| put_waits_fields(out, base as u64, values));
    Ok(())
}

/// `Commit` fields: the checkpoint travels as its head, `waits` (the
/// length of the wait log it seals) standing in for the values.
fn put_commit_fields(out: &mut Vec<u8>, c: CommitRef<'_>, waits: u64) {
    put_u8(out, TAG_COMMIT);
    put_u64(out, c.cycle);
    put_u64(out, c.clock);
    put_u64(out, c.shard_seqs.len() as u64);
    for &s in c.shard_seqs {
        put_u64(out, s);
    }
    put_u64(out, c.shard_health.len() as u64);
    for h in c.shard_health {
        put_u32(out, h.strikes);
        put_bool(out, h.quarantined);
    }
    c.serve.encode_head(out);
    put_u64(out, waits);
    put_u64(out, c.lines.len() as u64);
    for line in c.lines {
        put_u64(out, line.len() as u64);
        out.extend_from_slice(line.as_bytes());
    }
}

fn read_commit(r: &mut Reader<'_>) -> Result<JournalFrame, DecoError> {
    let cycle = r.u64()?;
    let clock = r.u64()?;
    let n = r.len("shard seqs")?;
    let mut shard_seqs = Vec::with_capacity(n);
    for _ in 0..n {
        shard_seqs.push(r.u64()?);
    }
    let n = r.len("shard health")?;
    let mut shard_health = Vec::with_capacity(n);
    for _ in 0..n {
        shard_health.push(ShardHealth {
            strikes: r.u32()?,
            quarantined: r.bool()?,
        });
    }
    let serve = ServeCheckpoint::decode_head(r)?;
    let waits = r.u64()?;
    let n = r.len("lines")?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.len("line")?;
        let bytes = r.take(len)?.to_vec();
        lines.push(String::from_utf8(bytes).map_err(|_| corrupt("line is not UTF-8"))?);
    }
    let rec = CommitRecord {
        cycle,
        clock,
        shard_seqs,
        shard_health,
        serve,
        lines,
    };
    Ok(JournalFrame::Commit { rec, waits })
}

/// One journal frame. Per-shard mutations are the books' own
/// [`Mutation`]s (absolute values, so folding is idempotent) in the
/// mutation encoding; `Waits` extends the wait log; `Commit` seals a
/// group.
///
/// `Commit` carries a whole [`CommitRecord`] and dwarfs the bookkeeping
/// variants — the same inherent WAL asymmetry as
/// [`deco_serve::store::StoreFrame`], and frames are likewise transient
/// (decoded, folded, dropped), so no boxing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum JournalFrame {
    /// A mutation of one shard's metadata partition (`key → epoch,
    /// last_use` and the books), written as tag, `u32` shard, fields.
    /// Never an `Epoch`: a refresh is tier-wide ([`JournalFrame::of`]).
    Shard(u32, Mutation<()>),
    /// Calibration swap: every shard retains only `epoch` entries and
    /// clears its books (the refresh contract).
    Epoch { epoch: u64 },
    /// Stale purge: retain only `epoch` entries, books untouched.
    Purge { epoch: u64 },
    /// The next block of `ServeStats::waits`: the fold is
    /// `truncate(base); extend(values)`, a `base` past it is corrupt.
    Waits { base: u64, values: Vec<f64> },
    /// Seals a group. `rec.serve.stats.waits` is neither written nor
    /// read back: `waits` is the length the `Waits` fold must have.
    Commit { rec: CommitRecord, waits: u64 },
}

impl JournalFrame {
    /// The frame recording mutation `m` of partition `shard`, plan bytes
    /// dropped. `Epoch` is tier-wide in the journal — one frame retains
    /// and clears every shard.
    pub fn of<P>(shard: usize, m: &Mutation<P>) -> JournalFrame {
        match *m {
            Mutation::Epoch { epoch } => JournalFrame::Epoch { epoch },
            _ => JournalFrame::Shard(shard as u32, m.map(|_| ())),
        }
    }

    /// Serialize the frame body (no container).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = vec![JOURNAL_VERSION];
        self.put_fields(&mut out);
        out
    }

    /// Tag and fields: the body after its version byte. The tier-wide
    /// `Epoch` is the bare mutation encoding.
    fn put_fields(&self, out: &mut Vec<u8>) {
        match self {
            JournalFrame::Shard(shard, m) => {
                put_u8(out, m.tag());
                put_u32(out, *shard);
                m.put_fields(out);
            }
            &JournalFrame::Epoch { epoch } => {
                let m = Mutation::<()>::Epoch { epoch };
                put_u8(out, m.tag());
                m.put_fields(out);
            }
            JournalFrame::Purge { epoch } => {
                put_u8(out, TAG_PURGE);
                put_u64(out, *epoch);
            }
            JournalFrame::Waits { base, values } => put_waits_fields(out, *base, values),
            JournalFrame::Commit { rec, waits } => put_commit_fields(out, rec.borrowed(), *waits),
        }
    }

    /// Parse one frame body. Any defect is a store error, never a panic.
    pub fn decode_body(body: &[u8]) -> Result<JournalFrame, DecoError> {
        decode_all(body, |r| {
            let version = r.u8()?;
            if version != JOURNAL_VERSION {
                return Err(corrupt(format!(
                    "version {version}, expected {JOURNAL_VERSION}"
                )));
            }
            Ok(match r.u8()? {
                TAG_EPOCH => JournalFrame::Epoch { epoch: r.u64()? },
                TAG_PURGE => JournalFrame::Purge { epoch: r.u64()? },
                TAG_COMMIT => read_commit(r)?,
                TAG_WAITS => JournalFrame::Waits {
                    base: r.u64()?,
                    values: read_waits(r)?,
                },
                tag => JournalFrame::Shard(r.u32()?, Mutation::read_fields(tag, r)?),
            })
        })
    }

    /// Serialize the full container frame (length, body, checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, |out| self.put_fields(out));
        out
    }
}

/// The fold of every frame up to (and including) the last `Commit`.
#[derive(Debug, Default)]
struct FoldState {
    /// The journal-side image of the supervisor's mirror: one metadata
    /// partition per shard, folded with the books' own [`Partition::apply`].
    parts: Vec<Partition<()>>,
    /// The wait log: `ServeStats::waits` as of the last `Commit`.
    waits: Vec<f64>,
}

impl FoldState {
    /// Fold one frame: a shard's mutation with the books' own
    /// [`Partition::apply`], the tier-wide frames on every shard.
    fn apply(&mut self, frame: &JournalFrame) {
        match frame {
            JournalFrame::Shard(shard, m) => {
                let si = *shard as usize;
                if si >= self.parts.len() {
                    self.parts.resize_with(si + 1, Partition::default);
                }
                self.parts[si].apply(m.clone());
            }
            &JournalFrame::Epoch { epoch } => {
                for p in &mut self.parts {
                    p.apply(Mutation::Epoch { epoch });
                }
            }
            &JournalFrame::Purge { epoch } => {
                for p in &mut self.parts {
                    p.purge(epoch, |_| {});
                }
            }
            JournalFrame::Waits { base, values } => {
                self.waits.truncate(*base as usize);
                self.waits.extend_from_slice(values);
            }
            JournalFrame::Commit { .. } => {}
        }
    }

    /// Append the per-shard state as snapshot frames.
    fn put_shard_frames(&self, out: &mut Vec<u8>) {
        for (si, part) in self.parts.iter().enumerate() {
            for m in part.image() {
                put_frame(out, |out| JournalFrame::of(si, &m).put_fields(out));
            }
        }
    }
}

/// What [`SupervisorJournal::open`] recovered: the folded mirror image
/// as of the last complete commit, the sealing commit record itself,
/// and the committed response lines still on record.
#[derive(Debug, Clone, Default)]
pub struct JournalRecovery {
    /// Folded per-shard metadata partitions (empty when no commit was
    /// found).
    pub shards: Vec<Partition<()>>,
    /// The last complete commit (the folded wait log spliced back into
    /// `serve.stats.waits`), `None` for a fresh or fully torn log.
    pub commit: Option<CommitRecord>,
    /// Global response index of `lines[0]`.
    pub lines_start: u64,
    /// Committed canonical response lines accumulated across retained
    /// commits — what a standby re-emits before serving live.
    pub lines: Vec<String>,
    /// Checksum-valid frames replayed (both files).
    pub frames: u64,
    /// Bytes discarded as torn tails (both files).
    pub torn_bytes: u64,
}

/// Cheap observable counters for the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Mutation frames appended (buffered; durable at the next commit).
    pub appends: u64,
    pub commits: u64,
    pub snapshots: u64,
    pub syncs: u64,
    /// Bytes appended to the WAL (commit groups; snapshots not counted).
    pub bytes: u64,
}

/// Append-only journal for one supervisor. See the module docs for the
/// discipline; the short version: `append` buffers, `seal` closes and
/// writes one group, recovery trusts only sealed groups.
pub struct SupervisorJournal {
    dir: PathBuf,
    wal: File,
    /// Encoded frames of the open (uncommitted) group.
    buf: Vec<u8>,
    /// Decoded frames of the open group, folded into `state` at its seal.
    pending: Vec<JournalFrame>,
    /// The committed fold — the compaction source.
    state: FoldState,
    /// The last sealing `Commit` frame as encoded (carried into snapshots).
    last_commit: Vec<u8>,
    /// The next seal starts a new run's wait log (base 0).
    fresh_run: bool,
    snapshot_every: u64,
    sync_every: u64,
    commits_since_compact: u64,
    commits_since_sync: u64,
    stats: JournalStats,
}

impl SupervisorJournal {
    /// Open (creating if absent) and recover the journal at `dir`:
    /// snapshot first, then the WAL, torn tails tolerated in both, state
    /// kept only through the last complete [`JournalFrame::Commit`].
    /// The log is compacted immediately after recovery, so a standby
    /// starts from a one-snapshot journal whatever it inherited.
    pub fn open(
        dir: &Path,
        snapshot_every: u64,
        sync_every: u64,
    ) -> Result<(SupervisorJournal, JournalRecovery), DecoError> {
        std::fs::create_dir_all(dir).map_err(|e| journal_err("create dir", dir, e))?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        // Fold both files with commit-granularity retention: a group's
        // frames wait in `open` and reach the fold only when their
        // sealing commit proves the group complete.
        let mut fold = FoldState::default();
        let mut open: Vec<JournalFrame> = Vec::new();
        // Length of the wait log once `open` is applied.
        let mut open_waits = 0u64;
        let mut last_commit: Option<CommitRecord> = None;
        let mut sealed = Vec::new();
        let mut lines_start = 0u64;
        let mut lines: Vec<String> = Vec::new();
        let mut frames = 0u64;
        let mut torn = 0u64;
        for path in [&snapshot_path, &wal_path] {
            let mut apply = |body: &[u8]| -> bool {
                let Ok(frame) = JournalFrame::decode_body(body) else {
                    return false; // undecodable body: torn tail from here
                };
                match frame {
                    JournalFrame::Commit { rec, waits } => {
                        if waits != open_waits {
                            return false; // seals a wait log this file does not hold
                        }
                        for f in open.drain(..) {
                            fold.apply(&f);
                        }
                        sealed = encode_frame(body);
                        let before =
                            rec.serve.emitted - (rec.lines.len() as u64).min(rec.serve.emitted);
                        if lines.is_empty() || before != lines_start + lines.len() as u64 {
                            // First retained commit — or a discontinuity a
                            // well-formed log never produces; resync rather
                            // than serve a misnumbered stream.
                            lines_start = before;
                            lines = rec.lines.clone();
                        } else {
                            lines.extend(rec.lines.iter().cloned());
                        }
                        last_commit = Some(rec);
                    }
                    JournalFrame::Waits { base, ref values } => {
                        if base > open_waits {
                            return false; // a gap in the wait log
                        }
                        open_waits = base + values.len() as u64;
                        open.push(frame);
                    }
                    mutation => open.push(mutation),
                }
                true
            };
            let (f, t) = replay_frame_file(path, &mut apply)?;
            frames += f;
            torn += t;
        }

        if let Some(rec) = &mut last_commit {
            rec.serve.stats.waits = fold.waits.clone();
        }
        let recovery = JournalRecovery {
            shards: fold.parts.clone(),
            commit: last_commit,
            lines_start,
            lines,
            frames,
            torn_bytes: torn,
        };

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| journal_err("open wal", &wal_path, e))?;
        let mut journal = SupervisorJournal {
            dir: dir.to_path_buf(),
            wal,
            buf: Vec::new(),
            pending: Vec::new(),
            state: fold,
            last_commit: sealed,
            fresh_run: false,
            snapshot_every,
            sync_every,
            commits_since_compact: 0,
            commits_since_sync: 0,
            stats: JournalStats::default(),
        };
        // Start every incarnation from a compact, internally consistent
        // log: the inherited WAL may end in the torn group we just
        // discarded, which a later reader must not see resurrected
        // behind new appends.
        journal.compact()?;
        Ok((journal, recovery))
    }

    /// Erase all recovered state: fresh-authority semantics for a
    /// supervisor constructed by [`super::supervisor::ShardSupervisor::new`]
    /// (as opposed to `recover`), which owns the world it spawns.
    pub fn reset(&mut self) -> Result<(), DecoError> {
        self.buf.clear();
        self.pending.clear();
        self.state = FoldState::default();
        self.last_commit.clear();
        self.commits_since_compact = 0;
        self.commits_since_sync = 0;
        self.compact()
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Buffer one mutation frame into the open group. Infallible by
    /// design: the bytes become durable at the sealing
    /// [`seal`](Self::seal), and a crash before that loses exactly the frames
    /// recovery would discard as a torn group anyway.
    pub fn append(&mut self, frame: &JournalFrame) {
        self.stats.appends += 1;
        put_frame(&mut self.buf, |out| frame.put_fields(out));
        self.pending.push(frame.clone());
    }

    /// A new run starts: its first seal restarts the wait log at base 0.
    pub fn restart_waits(&mut self) {
        self.fresh_run = true;
    }

    /// Seal the open group with `c` and write it to the WAL in one
    /// append, then fsync / compact on their cadences. Only the waits
    /// past the sealed log are written: a group costs what its cycle
    /// changed. An error means the group may not be durable — the owner
    /// degrades (drops the journal) rather than serving under a false
    /// durability claim.
    pub fn seal(&mut self, c: CommitRef<'_>) -> Result<(), DecoError> {
        let waits = &c.serve.stats.waits;
        let base = if self.fresh_run {
            0
        } else {
            self.state.waits.len()
        };
        let new = waits
            .get(base..)
            .ok_or_else(|| corrupt("checkpoint is shorter than the sealed wait log"))?;
        put_waits_frame(&mut self.buf, base, new)?;
        let commit_at = self.buf.len();
        put_frame(&mut self.buf, |out| {
            put_commit_fields(out, c, waits.len() as u64)
        });
        let wal_path = self.dir.join(WAL_FILE);
        self.wal
            .write_all(&self.buf)
            .map_err(|e| journal_err("append", &wal_path, e))?;
        self.stats.bytes += self.buf.len() as u64;
        self.last_commit.clear();
        self.last_commit.extend_from_slice(&self.buf[commit_at..]);
        self.buf.clear();
        for f in self.pending.drain(..) {
            self.state.apply(&f);
        }
        self.state.waits.truncate(base);
        self.state.waits.extend_from_slice(new);
        self.fresh_run = false;
        self.stats.commits += 1;
        self.commits_since_sync += 1;
        if self.sync_every > 0 && self.commits_since_sync >= self.sync_every {
            self.wal
                .sync_all()
                .map_err(|e| journal_err("sync", &wal_path, e))?;
            self.stats.syncs += 1;
            self.commits_since_sync = 0;
        }
        self.commits_since_compact += 1;
        if self.snapshot_every > 0 && self.commits_since_compact >= self.snapshot_every {
            self.compact()?;
        }
        Ok(())
    }

    /// [`seal`](Self::seal) for an owned record outside a run (unit
    /// tests, the layer benchmark): it continues the sealed wait log when
    /// it starts with it, value for value, and restarts it otherwise.
    pub fn commit(&mut self, rec: CommitRecord) -> Result<(), DecoError> {
        let (sealed, waits) = (&self.state.waits, &rec.serve.stats.waits);
        let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
        if waits.len() < sealed.len() || !waits.iter().zip(sealed).all(same) {
            self.restart_waits();
        }
        self.seal(rec.borrowed())
    }

    /// Publish the committed fold as a fresh snapshot (tmp+rename) and
    /// truncate the WAL: shard state, the whole wait log, the commit.
    ///
    /// The snapshot is fsynced only when `sync_every > 0`: an unsynced
    /// WAL cadence already trades power-loss durability for throughput,
    /// and compaction honors the same trade — tmp+rename alone is
    /// enough for the supervisor-kill failover the journal exists for.
    pub fn compact(&mut self) -> Result<(), DecoError> {
        let mut snapshot = Vec::new();
        self.state.put_shard_frames(&mut snapshot);
        if !self.last_commit.is_empty() {
            put_waits_frame(&mut snapshot, 0, &self.state.waits)?;
            snapshot.extend_from_slice(&self.last_commit);
        }
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        if snapshot.is_empty() {
            // Nothing committed yet: an absent snapshot is the canonical
            // empty one.
            if snapshot_path.exists() {
                std::fs::remove_file(&snapshot_path)
                    .map_err(|e| journal_err("remove snapshot", &snapshot_path, e))?;
            }
        } else {
            write_frames_atomic_cadenced(&snapshot_path, &[snapshot], self.sync_every > 0)?;
        }
        let wal_path = self.dir.join(WAL_FILE);
        self.wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&wal_path)
            .map_err(|e| journal_err("truncate wal", &wal_path, e))?;
        self.stats.snapshots += 1;
        self.commits_since_compact = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deco_journal_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_commit(cycle: u64, emitted_before: u64, lines: Vec<String>) -> CommitRecord {
        let serve = ServeCheckpoint {
            emitted: emitted_before + lines.len() as u64,
            next: cycle * 3,
            ..ServeCheckpoint::default()
        };
        CommitRecord {
            cycle,
            clock: 10 + cycle,
            shard_seqs: vec![cycle, cycle * 2],
            shard_health: vec![
                ShardHealth {
                    strikes: 1,
                    quarantined: false,
                },
                ShardHealth {
                    strikes: 0,
                    quarantined: cycle > 5,
                },
            ],
            serve,
            lines,
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = vec![
            JournalFrame::Shard(
                1,
                Mutation::Put {
                    key: 42,
                    epoch: 3,
                    last_use: 99,
                    plan: (),
                },
            ),
            JournalFrame::Shard(
                0,
                Mutation::Touch {
                    key: 42,
                    last_use: 100,
                },
            ),
            JournalFrame::Shard(1, Mutation::Del { key: 7 }),
            JournalFrame::Shard(0, Mutation::Strike { key: 9, count: 2 }),
            JournalFrame::Shard(0, Mutation::ClearKey { key: 9 }),
            JournalFrame::Shard(1, Mutation::Quarantine { key: 11 }),
            JournalFrame::Epoch { epoch: 4 },
            JournalFrame::Purge { epoch: 4 },
            JournalFrame::Shard(1, Mutation::Drop),
            JournalFrame::Waits {
                base: 2,
                values: vec![0.0, -1.5, f64::MAX],
            },
            JournalFrame::Commit {
                rec: sample_commit(3, 5, vec!["seq=5 ok".into()]),
                waits: 5,
            },
        ];
        for frame in &frames {
            let body = frame.encode_body();
            let back = JournalFrame::decode_body(&body).expect("decode");
            assert_eq!(
                back.encode_body(),
                body,
                "re-encode must be byte-identical: {frame:?}"
            );
        }
        // Container round trip through the shared codec.
        let wire = frames[10].encode();
        let (body, next) = deco_serve::store::raw_frame_at(&wire, 0).expect("container");
        assert_eq!(next, wire.len());
        match JournalFrame::decode_body(body).expect("decode") {
            JournalFrame::Commit { rec, waits } => {
                assert_eq!(waits, 5);
                assert_eq!(rec.cycle, 3);
                assert_eq!(rec.lines, vec!["seq=5 ok".to_string()]);
                assert_eq!(rec.serve.emitted, 6);
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn corrupt_bodies_are_errors_never_panics() {
        assert!(JournalFrame::decode_body(&[]).is_err());
        assert!(
            JournalFrame::decode_body(&[9, TAG_PURGE]).is_err(),
            "version"
        );
        assert!(
            JournalFrame::decode_body(&[JOURNAL_VERSION, 200]).is_err(),
            "unknown tag"
        );
        let mut body = JournalFrame::Shard(
            0,
            Mutation::Put {
                key: 1,
                epoch: 2,
                last_use: 3,
                plan: (),
            },
        )
        .encode_body();
        body.truncate(body.len() - 3);
        assert!(JournalFrame::decode_body(&body).is_err(), "truncated");
        let mut body = JournalFrame::Epoch { epoch: 1 }.encode_body();
        body.push(0);
        assert!(JournalFrame::decode_body(&body).is_err(), "trailing");
        // And an arbitrary prefix of a commit frame never panics.
        let commit = JournalFrame::Commit {
            rec: sample_commit(1, 0, vec!["a".into()]),
            waits: 2,
        };
        let waits = JournalFrame::Waits {
            base: 0,
            values: vec![1.0, 2.0],
        };
        for full in [commit.encode_body(), waits.encode_body()] {
            for cut in 0..full.len() {
                assert!(
                    JournalFrame::decode_body(&full[..cut]).is_err(),
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn commit_groups_recover_and_torn_groups_are_discarded() {
        let dir = temp_journal_dir("groups");
        {
            let (mut j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("open");
            assert!(rec.commit.is_none());
            j.append(&JournalFrame::Shard(
                0,
                Mutation::Put {
                    key: 1,
                    epoch: 1,
                    last_use: 5,
                    plan: (),
                },
            ));
            j.append(&JournalFrame::Shard(
                0,
                Mutation::Strike { key: 9, count: 1 },
            ));
            j.commit(sample_commit(1, 0, vec!["line0".into(), "line1".into()]))
                .expect("commit 1");
            j.append(&JournalFrame::Shard(
                0,
                Mutation::Touch {
                    key: 1,
                    last_use: 8,
                },
            ));
            j.append(&JournalFrame::Shard(1, Mutation::Quarantine { key: 11 }));
            j.commit(sample_commit(2, 2, vec!["line2".into()]))
                .expect("commit 2");
            // An open group that never commits: must vanish on recovery.
            j.append(&JournalFrame::Shard(0, Mutation::Del { key: 1 }));
            // (dropped without commit)
        }
        let (_j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("reopen");
        let c = rec.commit.expect("last commit");
        assert_eq!(c.cycle, 2);
        assert_eq!(rec.lines_start, 0);
        assert_eq!(rec.lines, vec!["line0", "line1", "line2"]);
        assert_eq!(
            rec.shards[0].entries.get(&1).map(|e| (e.epoch, e.last_use)),
            Some((1, 8)),
            "touch folded"
        );
        assert_eq!(rec.shards[0].strikes.get(&9), Some(&1));
        assert!(rec.shards[1].quarantine.contains(&11));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_final_group_is_discarded_at_every_byte_offset() {
        let dir = temp_journal_dir("torn");
        {
            let (mut j, _) = SupervisorJournal::open(&dir, 0, 0).expect("open");
            j.append(&JournalFrame::Shard(
                0,
                Mutation::Put {
                    key: 1,
                    epoch: 1,
                    last_use: 5,
                    plan: (),
                },
            ));
            j.commit(sample_commit(1, 0, vec!["line0".into()]))
                .expect("commit 1");
            j.append(&JournalFrame::Shard(
                0,
                Mutation::Put {
                    key: 2,
                    epoch: 1,
                    last_use: 6,
                    plan: (),
                },
            ));
            j.commit(sample_commit(2, 1, vec!["line1".into()]))
                .expect("commit 2");
        }
        // Reopen once: recovery folds the WAL and the post-recovery
        // compaction moves the sealed state into the snapshot, leaving
        // the WAL empty. Then build an uncompacted WAL by hand to fuzz
        // the torn tail.
        drop(SupervisorJournal::open(&dir, 0, 0).expect("compacting reopen"));
        let wal = dir.join(WAL_FILE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            &JournalFrame::Shard(
                0,
                Mutation::Put {
                    key: 3,
                    epoch: 1,
                    last_use: 7,
                    plan: (),
                },
            )
            .encode(),
        );
        let group_start = bytes.len();
        bytes.extend_from_slice(
            &JournalFrame::Commit {
                rec: sample_commit(3, 2, vec![]),
                waits: 0,
            }
            .encode(),
        );
        for cut in group_start..bytes.len() {
            std::fs::write(&wal, &bytes[..cut]).expect("write torn wal");
            let (_j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("recover never fails");
            let c = rec.commit.expect("snapshot commit survives");
            assert_eq!(c.cycle, 2, "torn group must not advance the commit");
            assert!(
                !rec.shards[0].entries.contains_key(&3),
                "torn group's put must be discarded at cut {cut}"
            );
            // open() compacted: restore the torn WAL for the next cut.
        }
        // The full group recovers.
        std::fs::write(&wal, &bytes).expect("write full wal");
        let (_j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("recover");
        assert_eq!(rec.commit.expect("commit").cycle, 3);
        assert!(rec.shards[0].entries.contains_key(&3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_reset_erases_it() {
        let dir = temp_journal_dir("compact");
        {
            // snapshot_every = 1: compact after every commit.
            let (mut j, _) = SupervisorJournal::open(&dir, 1, 1).expect("open");
            for cycle in 1..=4u64 {
                j.append(&JournalFrame::Shard(
                    0,
                    Mutation::Put {
                        key: cycle,
                        epoch: 1,
                        last_use: cycle,
                        plan: (),
                    },
                ));
                j.commit(sample_commit(
                    cycle,
                    cycle - 1,
                    vec![format!("line{cycle}")],
                ))
                .expect("commit");
            }
            assert!(j.stats().snapshots >= 4);
            assert!(j.stats().syncs >= 4);
        }
        let (mut j, rec) = SupervisorJournal::open(&dir, 1, 1).expect("reopen");
        assert_eq!(rec.shards[0].entries.len(), 4);
        assert_eq!(rec.commit.as_ref().expect("commit").cycle, 4);
        // Compaction keeps only the sealing commit's delta lines — the
        // worst-case unprinted suffix — so the numbering must hold.
        assert_eq!(rec.lines_start + rec.lines.len() as u64, 4);
        assert_eq!(rec.lines.last().expect("lines"), "line4");
        j.reset().expect("reset");
        drop(j);
        let (_j, rec) = SupervisorJournal::open(&dir, 1, 1).expect("open after reset");
        assert!(rec.commit.is_none());
        assert!(rec.shards.is_empty());
        assert_eq!(rec.lines.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_run_restarts_the_wait_log_and_loses_nothing_before_its_first_seal() {
        let dir = temp_journal_dir("fresh");
        let (mut j, _) = SupervisorJournal::open(&dir, 0, 0).expect("open");
        let mut rec = sample_commit(1, 0, vec![]);
        rec.serve.stats.waits = vec![1.0, 2.0, 3.0];
        j.seal(rec.borrowed()).expect("seal run 1");
        // A new run is announced, then a compaction lands before it
        // seals anything: run 1's commit must survive whole.
        j.restart_waits();
        j.compact().expect("compact");
        drop(j);
        let (mut j, got) = SupervisorJournal::open(&dir, 0, 0).expect("reopen");
        assert_eq!(
            got.commit.expect("run 1").serve.stats.waits,
            vec![1.0, 2.0, 3.0]
        );
        // Run 2's first cycle answers more requests than run 1 ever did:
        // only the announcement tells the journal it is not a suffix.
        j.restart_waits();
        rec.serve.stats.waits = vec![9.0, 8.0, 7.0, 6.0];
        j.seal(rec.borrowed()).expect("seal run 2");
        // A checkpoint shorter than the sealed log, unannounced, is
        // refused rather than sliced.
        rec.serve.stats.waits = vec![9.0];
        assert!(j.seal(rec.borrowed()).is_err());
        drop(j);
        let (_, got) = SupervisorJournal::open(&dir, 0, 0).expect("final reopen");
        assert_eq!(
            got.commit.expect("run 2").serve.stats.waits,
            vec![9.0, 8.0, 7.0, 6.0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wait_block_past_the_frame_cap_is_an_error_not_a_panic() {
        let dir = temp_journal_dir("cap");
        let (mut j, _) = SupervisorJournal::open(&dir, 0, 0).expect("open");
        let mut rec = sample_commit(1, 0, vec![]);
        // Never written or read: the check precedes the encode.
        rec.serve.stats.waits = vec![0.0; MAX_FRAME_BODY / 8];
        assert!(j.commit(rec).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint a writer hands the journal, as the property below
    /// evolves it: `fresh` restarts the run, otherwise `k` more waits.
    fn advance(ck: &mut ServeCheckpoint, fresh: bool, k: u8, salt: u64) {
        if fresh {
            *ck = ServeCheckpoint::default();
        }
        ck.next += u64::from(k);
        ck.emitted += u64::from(k);
        ck.now += 1.5;
        ck.stats.cycles += 1;
        ck.stats.planned += u64::from(k);
        *ck.stats.planned_by_tenant.entry(k as u32 % 3).or_default() += 1;
        let n = ck.stats.waits.len() as u64;
        ck.stats
            .waits
            .extend((0..u64::from(k)).map(|i| (salt * 1000 + n + i) as f64 * 0.25));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Delta fold equals full state: over any interleaving of
        /// continuing seals, fresh-run restarts, by-value commits,
        /// compactions and reopens, what `open` recovers re-encodes byte
        /// for byte to the full checkpoint the writer was handed last.
        #[test]
        fn recovered_checkpoint_equals_the_last_one_sealed(
            ops in proptest::collection::vec((0u8..10, 0u8..40), 1..40)
        ) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = temp_journal_dir(&format!("prop{case}"));
            let check = |rec: &JournalRecovery, sealed: &Option<ServeCheckpoint>| {
                match (&rec.commit, sealed) {
                    (None, None) => {}
                    (Some(c), Some(ck)) => {
                        assert_eq!(c.serve.encode(), ck.encode());
                        assert_eq!(c.serve.stats.digest(), ck.stats.digest());
                    }
                    (got, want) => panic!("recovered {got:?}, sealed {want:?}"),
                }
            };
            // snapshot_every = 5: cadence compactions land mid-sequence too.
            let (mut j, rec) = SupervisorJournal::open(&dir, 5, 0).expect("open");
            check(&rec, &None);
            let mut ck = ServeCheckpoint::default();
            let mut sealed: Option<ServeCheckpoint> = None;
            for (step, &(op, k)) in ops.iter().enumerate() {
                match op {
                    // A cycle of the same run / the first cycle of a fresh one.
                    0..=5 => {
                        let fresh = op == 5;
                        advance(&mut ck, fresh, k, step as u64);
                        if fresh {
                            j.restart_waits();
                        }
                        let rec = sample_commit(step as u64, 0, vec![]);
                        j.seal(CommitRef { serve: &ck, ..rec.borrowed() }).expect("seal");
                        sealed = Some(ck.clone());
                    }
                    // The by-value adapter, continuing or restarting.
                    6 | 7 => {
                        advance(&mut ck, op == 7, k, step as u64);
                        let mut rec = sample_commit(step as u64, 0, vec![]);
                        rec.serve = ck.clone();
                        j.commit(rec).expect("commit");
                        sealed = Some(ck.clone());
                    }
                    8 => j.compact().expect("compact"),
                    // A takeover: the standby resumes what it recovered.
                    _ => {
                        drop(j);
                        let (reopened, rec) = SupervisorJournal::open(&dir, 5, 0).expect("reopen");
                        check(&rec, &sealed);
                        j = reopened;
                        if let Some(c) = rec.commit {
                            ck = c.serve;
                        }
                    }
                }
            }
            drop(j);
            let (_, rec) = SupervisorJournal::open(&dir, 0, 0).expect("final reopen");
            check(&rec, &sealed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The exact bytes of both on-disk formats — every plan-store frame,
/// every journal frame and a compacted journal snapshot — pinned as
/// `(length, StableHasher digest)`. Round-trip tests cannot see a change
/// made symmetrically to an encoder and its decoder; this test can, so a
/// codec refactor that must keep the formats has to keep it green
/// unchanged.
#[cfg(test)]
mod format_pin {
    use super::*;
    use deco_cloud::{Plan, VmSlot};
    use deco_core::engine::DecoPlan;
    use deco_core::supervisor::{PlanProvenance, PlanStage, StageSkip, SupervisedPlan};
    use deco_prob::hash::StableHasher;
    use deco_serve::store::StoreFrame;
    use deco_solver::{Evaluation, SearchStats};
    use std::hash::Hasher;

    fn fixed_plan() -> SupervisedPlan {
        SupervisedPlan {
            plan: DecoPlan {
                types: vec![0, 3, 1],
                plan: Plan {
                    slots: vec![
                        VmSlot {
                            itype: 3,
                            region: 0,
                        },
                        VmSlot {
                            itype: 1,
                            region: 2,
                        },
                    ],
                    assign: vec![0, 1, 1],
                    order: vec![0, 2, 1],
                },
                evaluation: Evaluation {
                    feasible: true,
                    objective: 12.625,
                    constraint_margin: -0.0,
                },
                stats: SearchStats {
                    states_evaluated: 120,
                    batches: 4,
                    modeled_eval_seconds: 0.25,
                    host_eval_seconds: 0.017,
                    wall_seconds: 0.019,
                    budget_spent: 4096.5,
                    truncated: false,
                },
            },
            provenance: PlanProvenance {
                stage: PlanStage::Heuristic,
                truncated: true,
                budget_spent: 4096.5,
                skipped: vec![StageSkip {
                    stage: PlanStage::Deco,
                    reason: "budget starved".into(),
                }],
            },
        }
    }

    fn fixed_commit() -> CommitRecord {
        let mut serve = ServeCheckpoint {
            next: 9,
            now: 17.5,
            refresh_next: 1,
            emitted: 7,
            ..ServeCheckpoint::default()
        };
        serve.stats.requests = 9;
        serve.stats.planned = 7;
        serve.stats.waits = vec![0.5, 1.25, 3.0];
        CommitRecord {
            cycle: 4,
            clock: 41,
            shard_seqs: vec![12, 5],
            shard_health: vec![
                ShardHealth {
                    strikes: 2,
                    quarantined: false,
                },
                ShardHealth {
                    strikes: 0,
                    quarantined: true,
                },
            ],
            serve,
            lines: vec!["seq=5 ok".into(), "seq=6 shed".into()],
        }
    }

    /// Every per-shard mutation kind, `Put` first.
    fn shard_mutations() -> Vec<(usize, Mutation<()>)> {
        vec![
            (
                1,
                Mutation::Put {
                    key: 0xDEAD_BEEF,
                    epoch: 3,
                    last_use: 99,
                    plan: (),
                },
            ),
            (
                0,
                Mutation::Touch {
                    key: 42,
                    last_use: 100,
                },
            ),
            (1, Mutation::Del { key: 7 }),
            (0, Mutation::Strike { key: 9, count: 2 }),
            (0, Mutation::ClearKey { key: 9 }),
            (1, Mutation::Quarantine { key: 11 }),
            (1, Mutation::Drop),
        ]
    }

    fn pin(bytes: &[u8]) -> (usize, u64) {
        let mut h = StableHasher::with_seed(0xF0F0_0001);
        h.write(bytes);
        (bytes.len(), h.finish())
    }

    #[test]
    fn store_and_journal_bytes_are_pinned() {
        let plan = fixed_plan();
        let store = [
            StoreFrame::Put {
                key: 0xDEAD_BEEF,
                epoch: 3,
                last_use: 99,
                plan: plan.clone(),
            },
            StoreFrame::Touch {
                key: 42,
                last_use: 100,
            },
            StoreFrame::Del { key: 7 },
            StoreFrame::Strike { key: 9, count: 2 },
            StoreFrame::ClearKey { key: 9 },
            StoreFrame::Quarantine { key: 11 },
            StoreFrame::Epoch { epoch: 4 },
        ];
        let mut journal: Vec<JournalFrame> = shard_mutations()
            .iter()
            .map(|(si, m)| JournalFrame::of(*si, m))
            .collect();
        journal.extend([
            JournalFrame::of(0, &Mutation::<()>::Epoch { epoch: 4 }),
            JournalFrame::Purge { epoch: 4 },
            JournalFrame::Waits {
                base: 2,
                values: vec![0.0, -1.5, f64::MAX],
            },
            JournalFrame::Commit {
                rec: fixed_commit(),
                waits: 3,
            },
        ]);

        // A compacted snapshot: one group of every per-shard kind but the
        // drop (so the image keeps entries, strikes and quarantine),
        // sealed by the fixed commit, then compacted.
        let dir = std::env::temp_dir().join(format!("deco_format_pin_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut j, _) = SupervisorJournal::open(&dir, 0, 0).expect("open");
        for (si, m) in shard_mutations()
            .iter()
            .filter(|(_, m)| *m != Mutation::Drop)
        {
            j.append(&JournalFrame::of(*si, m));
        }
        j.append(&JournalFrame::of(
            0,
            &Mutation::<()>::Strike { key: 13, count: 1 },
        ));
        j.commit(fixed_commit()).expect("commit");
        j.compact().expect("compact");
        let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot");
        let _ = std::fs::remove_dir_all(&dir);

        let got: Vec<(usize, u64)> = store
            .iter()
            .map(|f| pin(&f.encode()))
            .chain(journal.iter().map(|f| pin(&f.encode())))
            .chain([pin(&snapshot)])
            .collect();
        let want: Vec<(usize, u64)> = vec![
            (269, 0x9F5687FEE2AB3A30), // store Put
            (29, 0x8AA0CC0AFC19D09B),  // store Touch
            (21, 0x0ED8F9E76AD22086),  // store Del
            (25, 0x00B8A867EEE97915),  // store Strike
            (21, 0x318C0D60BE10A07A),  // store ClearKey
            (21, 0x19B2015506520F33),  // store Quarantine
            (21, 0xF5FBF7B4AFA89FAC),  // store Epoch
            (42, 0x7B8FA77A1C0DF3F7),  // journal Put
            (34, 0xD6C7A24CF3AAD6A6),  // journal Touch
            (26, 0xCB2076C26ABEBE25),  // journal Del
            (30, 0xCF51060DD84BC96A),  // journal Strike
            (26, 0x60B6E44A7AB2708B),  // journal ClearKey
            (26, 0x5D395070ACE8E310),  // journal Quarantine
            (18, 0x290280FD0D4779EC),  // journal Drop
            (22, 0xBDE0643479F058C3),  // journal Epoch
            (22, 0x6625CD4667D86803),  // journal Purge
            (54, 0x2B1A8B0930F512E2),  // journal Waits
            (362, 0x9851C00D88DFA1B3), // journal Commit
            (514, 0xF401E03945B51898), // journal snapshot
        ];
        assert_eq!(got, want);
    }
}
