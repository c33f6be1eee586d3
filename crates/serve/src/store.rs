//! The durable plan store: an append-only WAL plus snapshot compaction.
//!
//! A shard's cache and fault books are reconstructible from two files in
//! its store directory:
//!
//! * `snapshot.bin` — the materialized state as of the last compaction,
//!   written atomically (temp file + rename) and never appended to;
//! * `wal.log` — every mutation since that snapshot, one frame per
//!   cache insert / LRU touch / eviction / strike / quarantine / epoch
//!   bump, in the order the serving engine issued them.
//!
//! Both files share one frame format:
//!
//! ```text
//! [u32 LE body_len][body bytes][u64 LE StableHasher checksum of body]
//! ```
//!
//! The body is one [`Mutation`] in the mutation encoding defined here —
//! the vocabulary's one codec, which the shard tier's supervisor journal
//! and worker pipe wrap with a shard index or a sequence number. Plans
//! inside `Put` frames use the canonical
//! [`deco_core::encode_supervised_plan`] codec, so a
//! recovered plan is bit-identical to the one that was cached (f64s
//! round-trip as raw bits). Recovery replays the snapshot, then the WAL,
//! and **stops at the first invalid frame**: a torn tail — a frame cut
//! mid-write by a crash at any byte offset — silently ends the log
//! instead of poisoning recovery. The store never deletes on supersede:
//! a later `Put` for the same key simply shadows the earlier one at
//! replay, and compaction reclaims the dead frames.
//!
//! Epoch discipline matches the serving engine's `purge_stale`: an
//! `Epoch` frame (appended at every calibration refresh) drops every
//! recovered entry solved under a different epoch and clears the
//! strike/quarantine books — a new calibration is a new world, on disk
//! as in memory.

use crate::cache::{Mutation, Partition};
use deco_core::codec::{decode_all, put_bytes, put_u32, put_u64, put_u8, Reader};
use deco_core::supervisor::SupervisedPlan;
use deco_core::{decode_supervised_plan, encode_supervised_plan, DecoError};
use deco_prob::hash::StableHasher;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Domain-separation seed for frame checksums.
const FRAME_DOMAIN: u64 = 0x5E72_ECAC_4E00_0002;
/// Reject frames claiming bodies larger than this (corrupt length word).
pub const MAX_FRAME_BODY: usize = 64 * 1024 * 1024;

// The mutation vocabulary's one tag table. Tag 8 is the journal's
// tier-wide purge, which has no partition mutation.
const TAG_PUT: u8 = 1;
const TAG_TOUCH: u8 = 2;
const TAG_DEL: u8 = 3;
const TAG_STRIKE: u8 = 4;
const TAG_CLEAR_KEY: u8 = 5;
const TAG_QUARANTINE: u8 = 6;
/// The tag of `Mutation::Epoch`, which the journal writes tier-wide:
/// with no partition index after it.
pub const TAG_EPOCH: u8 = 7;
const TAG_DROP: u8 = 9;

/// One durable mutation: a [`Mutation`] of the shard's partition, whose
/// `Put` carries a whole plan (encoded with the canonical plan codec).
/// `Mutation::Drop` has no store frame — a store is replaced together
/// with its partition — so [`PlanStore::append`] ignores it.
pub type StoreFrame = Mutation<SupervisedPlan>;

/// Checksum of one frame body — a domain-separated
/// [`StableHasher`] digest, stable across platforms and toolchains.
/// Public because the shard tier's process transport speaks the same
/// frame format over pipes that this store speaks on disk.
pub fn frame_checksum(body: &[u8]) -> u64 {
    let mut h = StableHasher::with_seed(FRAME_DOMAIN);
    h.write(body);
    h.finish()
}

/// Frame a raw body for the wire or the log:
/// `[u32 LE body_len][body][u64 LE checksum]`. This is the store's
/// on-disk frame format, reused verbatim by the shard supervisor's pipe
/// protocol — one codec, two media.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 12);
    frame_into(&mut out, |out| out.extend_from_slice(body));
    out
}

/// Append one frame to `out` without an intermediate body buffer:
/// reserve the length slot, let `body` append the body in place, then
/// patch the length and checksum the body slice. Byte-for-byte what
/// [`encode_frame`] produces.
pub fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len() + 4;
    put_u32(out, 0);
    body(out);
    let len = out.len() - start;
    assert!(len <= MAX_FRAME_BODY, "frame body too large");
    out[start - 4..start].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = frame_checksum(&out[start..]);
    put_u64(out, sum);
}

/// Decode the checksummed frame starting at byte `pos` of `buf`,
/// returning the raw body plus the offset just past the frame. `None`
/// means the bytes at `pos` are not a complete valid frame — torn,
/// corrupt, or claiming an absurd length — which WAL-style replay
/// treats as the end of the log. This is the codec-agnostic core that
/// both the plan store and the supervisor journal replay through.
pub fn raw_frame_at(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let remaining = buf.len().checked_sub(pos)?;
    if remaining < 4 {
        return None;
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&buf[pos..pos + 4]);
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    if body_len > MAX_FRAME_BODY {
        return None;
    }
    let body_start = pos + 4;
    let body_end = body_start.checked_add(body_len)?;
    let sum_end = body_end.checked_add(8)?;
    if sum_end > buf.len() {
        return None;
    }
    let body = &buf[body_start..body_end];
    let mut sum_bytes = [0u8; 8];
    sum_bytes.copy_from_slice(&buf[body_end..sum_end]);
    if u64::from_le_bytes(sum_bytes) != frame_checksum(body) {
        return None;
    }
    Some((body, sum_end))
}

/// Replay one frame file with the PR-7 torn-tail rules: `apply` runs on
/// every checksum-valid body in order; the first invalid frame — or the
/// first body `apply` rejects (returns `false`, e.g. an undecodable
/// payload) — silently ends the log. Returns `(frames_applied,
/// torn_bytes)`; a missing file is an empty log, any other I/O failure
/// is a real error.
pub fn replay_frame_file(
    path: &Path,
    apply: &mut dyn FnMut(&[u8]) -> bool,
) -> Result<(u64, u64), DecoError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(store_err("open log", path, e)),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)
        .map_err(|e| store_err("read log", path, e))?;
    let mut frames = 0u64;
    let mut pos = 0usize;
    while pos < buf.len() {
        match raw_frame_at(&buf, pos) {
            Some((body, next)) if apply(body) => {
                frames += 1;
                pos = next;
            }
            _ => {
                // Torn tail: a crash mid-append (or a body a newer codec
                // refuses). Everything from here on is discarded.
                return Ok((frames, (buf.len() - pos) as u64));
            }
        }
    }
    Ok((frames, 0))
}

/// Atomically publish already-encoded frames as `path`: write a `.tmp`
/// sibling, fsync it, then rename over the target — the compaction
/// discipline every snapshot in the system uses. Readers either see the
/// old snapshot or the complete new one, never a half-written file.
pub fn write_frames_atomic(path: &Path, frames: &[Vec<u8>]) -> Result<(), DecoError> {
    write_frames_atomic_cadenced(path, frames, true)
}

/// [`write_frames_atomic`] with the fsync made optional. Skipping it
/// keeps the tmp+rename atomicity against *process* crashes (the page
/// cache and the rename are kernel state, which a SIGKILL cannot tear)
/// but surrenders power-loss durability — callers whose WAL cadence
/// already runs unsynced (`sync_every == 0`) use this so compaction
/// does not impose a durability level the rest of their pipeline never
/// promised.
pub fn write_frames_atomic_cadenced(
    path: &Path,
    frames: &[Vec<u8>],
    fsync: bool,
) -> Result<(), DecoError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| store_err("create snapshot", &tmp, e))?;
        for frame in frames {
            f.write_all(frame)
                .map_err(|e| store_err("write snapshot", &tmp, e))?;
        }
        if fsync {
            f.sync_all()
                .map_err(|e| store_err("sync snapshot", &tmp, e))?;
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| store_err("publish snapshot", path, e))?;
    Ok(())
}

/// Read one frame from a blocking reader (a pipe end, in practice).
///
/// * `Ok(Some(body))` — a complete, checksum-valid frame.
/// * `Ok(None)` — clean EOF at a frame boundary (the peer closed its
///   end between frames).
/// * `Err(_)` — torn mid-frame EOF, an absurd length word, or a
///   checksum mismatch. On a pipe there is no "later frame" to resync
///   to, so unlike WAL replay (which tolerates a torn tail) the caller
///   must treat this as a dead peer.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "pipe closed mid-frame (torn length word)",
            ));
        }
        filled += n;
    }
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame claims a {body_len}-byte body (cap {MAX_FRAME_BODY})"),
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes)?;
    if u64::from_le_bytes(sum_bytes) != frame_checksum(&body) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(body))
}

/// A `Put`'s plan in the mutation encoding: a `u32` length and the
/// canonical plan bytes for a [`SupervisedPlan`], nothing for `()` (the
/// journal's metadata-only partitions). References encode what they
/// lend, so a `Put` is written in place from a borrowed plan.
pub trait Payload {
    /// What decoding yields.
    type Owned;
    fn put_payload(&self, out: &mut Vec<u8>);
    fn read_payload(r: &mut Reader<'_>) -> Result<Self::Owned, DecoError>;
}

impl Payload for () {
    type Owned = ();
    fn put_payload(&self, _: &mut Vec<u8>) {}
    fn read_payload(_: &mut Reader<'_>) -> Result<(), DecoError> {
        Ok(())
    }
}

impl Payload for SupervisedPlan {
    type Owned = SupervisedPlan;
    fn put_payload(&self, out: &mut Vec<u8>) {
        put_bytes(out, &encode_supervised_plan(self));
    }
    fn read_payload(r: &mut Reader<'_>) -> Result<SupervisedPlan, DecoError> {
        decode_supervised_plan(r.bytes()?)
    }
}

impl<T: Payload> Payload for &T {
    type Owned = T::Owned;
    fn put_payload(&self, out: &mut Vec<u8>) {
        (**self).put_payload(out);
    }
    fn read_payload(r: &mut Reader<'_>) -> Result<T::Owned, DecoError> {
        T::read_payload(r)
    }
}

/// The mutation encoding: a tag byte, then the fields — `key`, `epoch`,
/// `last_use` as `u64`, `count` as `u32`, a `Put`'s plan as its
/// [`Payload`] last. A store frame body is exactly tag + fields; the
/// supervisor journal puts a `u32` partition index between the two, the
/// worker pipe a version byte before and a `u64` sequence number between.
impl<P: Payload> Mutation<P> {
    pub fn tag(&self) -> u8 {
        match self {
            Mutation::Put { .. } => TAG_PUT,
            Mutation::Touch { .. } => TAG_TOUCH,
            Mutation::Del { .. } => TAG_DEL,
            Mutation::Strike { .. } => TAG_STRIKE,
            Mutation::ClearKey { .. } => TAG_CLEAR_KEY,
            Mutation::Quarantine { .. } => TAG_QUARANTINE,
            Mutation::Epoch { .. } => TAG_EPOCH,
            Mutation::Drop => TAG_DROP,
        }
    }

    /// Append the fields (everything after the tag).
    pub fn put_fields(&self, out: &mut Vec<u8>) {
        match self {
            Mutation::Put {
                key,
                epoch,
                last_use,
                plan,
            } => {
                put_u64(out, *key);
                put_u64(out, *epoch);
                put_u64(out, *last_use);
                plan.put_payload(out);
            }
            Mutation::Touch { key, last_use } => {
                put_u64(out, *key);
                put_u64(out, *last_use);
            }
            Mutation::Strike { key, count } => {
                put_u64(out, *key);
                put_u32(out, *count);
            }
            Mutation::Del { key } | Mutation::ClearKey { key } | Mutation::Quarantine { key } => {
                put_u64(out, *key)
            }
            Mutation::Epoch { epoch } => put_u64(out, *epoch),
            Mutation::Drop => {}
        }
    }

    /// Serialize the full on-disk store frame: length, tag + fields,
    /// checksum — for an owned [`StoreFrame`] and a lent
    /// `Mutation<&SupervisedPlan>` alike.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, |out| {
            put_u8(out, self.tag());
            self.put_fields(out);
        });
        out
    }
}

impl<P: Payload<Owned = P>> Mutation<P> {
    /// Read the fields of the mutation tagged `tag`; an unknown tag is an
    /// error, like a short field.
    pub fn read_fields(tag: u8, r: &mut Reader<'_>) -> Result<Self, DecoError> {
        Ok(match tag {
            TAG_PUT => Mutation::Put {
                key: r.u64()?,
                epoch: r.u64()?,
                last_use: r.u64()?,
                plan: P::read_payload(r)?,
            },
            TAG_TOUCH => Mutation::Touch {
                key: r.u64()?,
                last_use: r.u64()?,
            },
            TAG_DEL => Mutation::Del { key: r.u64()? },
            TAG_STRIKE => Mutation::Strike {
                key: r.u64()?,
                count: r.u32()?,
            },
            TAG_CLEAR_KEY => Mutation::ClearKey { key: r.u64()? },
            TAG_QUARANTINE => Mutation::Quarantine { key: r.u64()? },
            TAG_EPOCH => Mutation::Epoch { epoch: r.u64()? },
            TAG_DROP => Mutation::Drop,
            t => return Err(DecoError::Store(format!("unknown mutation tag {t}"))),
        })
    }
}

/// Parse one store frame body. `None` on any structural defect (unknown
/// tag, short fields, bad plan payload, trailing bytes, a `Drop`) —
/// recovery treats that frame and everything after it as torn.
fn decode_body(body: &[u8]) -> Option<StoreFrame> {
    decode_all(body, |r| StoreFrame::read_fields(r.u8()?, r))
        .ok()
        .filter(|m| !matches!(m, Mutation::Drop))
}

/// Counters describing the store's life so far; surfaced through the
/// shard tier's stats so recovery behavior is observable in tests and
/// benches.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// WAL frames appended since open.
    pub appends: u64,
    /// Valid frames replayed by the last `recover` (snapshot + WAL).
    pub frames_recovered: u64,
    /// Bytes discarded from a torn WAL/snapshot tail at last `recover`.
    pub torn_bytes: u64,
    /// Snapshot compactions performed.
    pub snapshots: u64,
    /// Explicit WAL fsyncs ([`StoreConfig::sync_every`] cadence plus
    /// manual [`PlanStore::sync`] calls).
    pub syncs: u64,
    /// Entries alive after the last `recover`'s epoch filtering.
    pub entries_recovered: u64,
    /// Entries dropped by the final epoch filter at last `recover`.
    pub stale_dropped: u64,
}

fn store_err(what: &str, path: &Path, e: impl std::fmt::Display) -> DecoError {
    DecoError::Store(format!("{what} {}: {e}", path.display()))
}

/// Durability knobs for a [`PlanStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {
    /// `fsync` the WAL after every `sync_every` appends. `0` (the
    /// default) never fsyncs explicitly: appends are still flushed to
    /// the OS — which survives a *process* kill, the failure domain the
    /// shard supervisor defends against — but an OS crash or power loss
    /// can drop the unsynced tail. Recovery tolerates exactly that: the
    /// WAL replays to the last durable frame and the cache comes back
    /// valid, merely colder.
    pub sync_every: u64,
}

/// The WAL-backed durable plan store for one shard.
///
/// All I/O failures surface as [`DecoError::Store`]; the shard tier
/// responds by dropping to memory-only operation (degraded, logged in
/// its stats) rather than panicking — persistence is an availability
/// feature and must never become an unavailability one.
pub struct PlanStore {
    dir: PathBuf,
    wal: File,
    stats: StoreStats,
    config: StoreConfig,
    /// Appends since the last explicit fsync.
    appends_since_sync: u64,
    /// WAL length at the last fsync — the prefix guaranteed durable
    /// against power loss (tests use it to simulate a lost tail).
    synced_len: u64,
}

impl PlanStore {
    /// Open (creating if needed) the store rooted at `dir`, with the
    /// default durability config (no explicit fsync).
    pub fn open(dir: &Path) -> Result<PlanStore, DecoError> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// Open with explicit durability knobs.
    pub fn open_with(dir: &Path, config: StoreConfig) -> Result<PlanStore, DecoError> {
        std::fs::create_dir_all(dir).map_err(|e| store_err("create store dir", dir, e))?;
        let wal_path = dir.join("wal.log");
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| store_err("open WAL", &wal_path, e))?;
        let synced_len = wal.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(PlanStore {
            dir: dir.to_path_buf(),
            wal,
            stats: StoreStats::default(),
            config,
            appends_since_sync: 0,
            synced_len,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    /// Append one frame to the WAL, fsyncing on the configured cadence.
    pub fn append(&mut self, frame: &StoreFrame) -> Result<(), DecoError> {
        if let Mutation::Drop = frame {
            return Ok(());
        }
        let bytes = frame.encode();
        let path = self.wal_path();
        self.wal
            .write_all(&bytes)
            .map_err(|e| store_err("append to WAL", &path, e))?;
        self.wal
            .flush()
            .map_err(|e| store_err("flush WAL", &path, e))?;
        self.stats.appends += 1;
        self.appends_since_sync += 1;
        if self.config.sync_every > 0 && self.appends_since_sync >= self.config.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force the WAL to stable storage now, regardless of cadence.
    pub fn sync(&mut self) -> Result<(), DecoError> {
        let path = self.wal_path();
        self.wal
            .sync_data()
            .map_err(|e| store_err("sync WAL", &path, e))?;
        self.synced_len = self.wal_len();
        self.appends_since_sync = 0;
        self.stats.syncs += 1;
        Ok(())
    }

    /// The WAL prefix (in bytes) guaranteed durable by the last fsync.
    /// Bytes past this survive a process kill (they sit in the OS page
    /// cache) but not a power loss; the lost-tail recovery test
    /// truncates here to simulate exactly that.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Current WAL size in bytes (compaction trigger input).
    pub fn wal_len(&self) -> u64 {
        self.wal.metadata().map(|m| m.len()).unwrap_or(0)
    }

    /// Reconstruct the shard's partition: fold `snapshot.bin`, then
    /// `wal.log`, tolerating a torn tail in either; finally drop any
    /// entry whose epoch disagrees with the log's last recorded epoch
    /// (when one was recorded).
    pub fn recover(&mut self) -> Result<Partition<SupervisedPlan>, DecoError> {
        self.stats.frames_recovered = 0;
        self.stats.torn_bytes = 0;
        let mut part = Partition::default();
        for path in [self.snapshot_path(), self.wal_path()] {
            let (frames, torn) = replay_frame_file(&path, &mut |body| match decode_body(body) {
                Some(frame) => {
                    part.apply(frame);
                    true
                }
                None => false,
            })?;
            self.stats.frames_recovered += frames;
            self.stats.torn_bytes += torn;
        }
        if part.epoch != 0 {
            let before = part.entries.len();
            part.entries.retain(|_, e| e.epoch == part.epoch);
            self.stats.stale_dropped += (before - part.entries.len()) as u64;
        }
        self.stats.entries_recovered = part.entries.len() as u64;
        Ok(part)
    }

    /// Compact: atomically write the snapshot of `part` at catalog epoch
    /// `epoch` — `Epoch { epoch }`, then [`Partition::image`] — (temp
    /// file + rename), then truncate the WAL, whose content it makes
    /// redundant.
    pub fn compact(
        &mut self,
        epoch: u64,
        part: &Partition<SupervisedPlan>,
    ) -> Result<(), DecoError> {
        let mut encoded = vec![StoreFrame::Epoch { epoch }.encode()];
        encoded.extend(part.image().map(|m| m.encode()));
        write_frames_atomic(&self.snapshot_path(), &encoded)?;
        let wal_path = self.wal_path();
        self.wal
            .set_len(0)
            .map_err(|e| store_err("truncate WAL", &wal_path, e))?;
        self.wal
            .seek(SeekFrom::Start(0))
            .map_err(|e| store_err("rewind WAL", &wal_path, e))?;
        self.synced_len = 0;
        self.appends_since_sync = 0;
        self.stats.snapshots += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::{CloudSpec, MetadataStore};
    use deco_core::supervisor::plan_with_fallback;
    use deco_core::Deco;
    use deco_solver::SearchBudget;
    use deco_workflow::generators;

    fn temp_store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("deco_store_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn plan(marker: u64) -> SupervisedPlan {
        let st = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
        let mut d = Deco::new(st);
        d.options.mc_iters = 10;
        d.options.search.max_states = 40;
        let wf = generators::pipeline(2, 50.0, 0);
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(&wf, &d.store.spec);
        let mut p = plan_with_fallback(
            &d,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &SearchBudget::unlimited(),
        )
        .expect("feasible");
        p.provenance.budget_spent += marker as f64;
        p
    }

    #[test]
    fn empty_and_missing_logs_recover_to_an_empty_state() {
        let dir = temp_store_dir("empty");
        let mut store = PlanStore::open(&dir).unwrap();
        // Nothing written at all: both files missing (WAL exists but is
        // zero bytes).
        let state = store.recover().unwrap();
        assert_eq!(state.entries.len(), 0);
        assert_eq!(state.epoch, 0);
        assert!(state.strikes.is_empty() && state.quarantine.is_empty());
        assert_eq!(store.stats().frames_recovered, 0);
        assert_eq!(store.stats().torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_every_frame_kind_through_the_wal() {
        let dir = temp_store_dir("round_trip");
        let p = plan(7);
        {
            let mut store = PlanStore::open(&dir).unwrap();
            store
                .append(&StoreFrame::Epoch { epoch: 3 })
                .and_then(|_| {
                    store.append(&StoreFrame::Put {
                        key: 11,
                        epoch: 3,
                        last_use: 1,
                        plan: p.clone(),
                    })
                })
                .and_then(|_| {
                    store.append(&StoreFrame::Put {
                        key: 12,
                        epoch: 3,
                        last_use: 2,
                        plan: p.clone(),
                    })
                })
                .and_then(|_| {
                    store.append(&StoreFrame::Touch {
                        key: 11,
                        last_use: 5,
                    })
                })
                .and_then(|_| store.append(&StoreFrame::Del { key: 12 }))
                .and_then(|_| store.append(&StoreFrame::Strike { key: 13, count: 2 }))
                .and_then(|_| store.append(&StoreFrame::Strike { key: 14, count: 1 }))
                .and_then(|_| store.append(&StoreFrame::ClearKey { key: 14 }))
                .and_then(|_| store.append(&StoreFrame::Quarantine { key: 13 }))
                .unwrap();
        }
        let mut store = PlanStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.epoch, 3);
        assert_eq!(state.entries.len(), 1, "12 was deleted");
        let e = &state.entries[&11];
        assert_eq!(e.last_use, 5, "touch superseded the put's stamp");
        assert_eq!(e.epoch, 3);
        // Bit-identical plan payload through the codec.
        assert_eq!(
            e.plan.provenance.budget_spent.to_bits(),
            p.provenance.budget_spent.to_bits()
        );
        assert_eq!(
            e.plan.plan.evaluation.objective.to_bits(),
            p.plan.evaluation.objective.to_bits()
        );
        assert_eq!(state.strikes.get(&13), Some(&2));
        assert!(!state.strikes.contains_key(&14), "cleared");
        assert!(state.quarantine.contains(&13));
        assert_eq!(store.stats().torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_key_is_superseded_by_the_latest_put() {
        let dir = temp_store_dir("supersede");
        let p1 = plan(1);
        let p2 = plan(2);
        {
            let mut store = PlanStore::open(&dir).unwrap();
            store
                .append(&StoreFrame::Put {
                    key: 42,
                    epoch: 1,
                    last_use: 1,
                    plan: p1,
                })
                .and_then(|_| {
                    store.append(&StoreFrame::Put {
                        key: 42,
                        epoch: 1,
                        last_use: 9,
                        plan: p2.clone(),
                    })
                })
                .unwrap();
        }
        let mut store = PlanStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.entries.len(), 1);
        let e = &state.entries[&42];
        assert_eq!(e.last_use, 9);
        assert_eq!(
            e.plan.provenance.budget_spent.to_bits(),
            p2.provenance.budget_spent.to_bits(),
            "the later Put wins"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_stale_entries_are_dropped_at_recovery() {
        let dir = temp_store_dir("epoch_stale");
        {
            let mut store = PlanStore::open(&dir).unwrap();
            store
                .append(&StoreFrame::Put {
                    key: 1,
                    epoch: 1,
                    last_use: 1,
                    plan: plan(1),
                })
                .and_then(|_| store.append(&StoreFrame::Strike { key: 9, count: 3 }))
                .and_then(|_| store.append(&StoreFrame::Quarantine { key: 9 }))
                .and_then(|_| store.append(&StoreFrame::Epoch { epoch: 2 }))
                .and_then(|_| {
                    store.append(&StoreFrame::Put {
                        key: 2,
                        epoch: 2,
                        last_use: 2,
                        plan: plan(2),
                    })
                })
                .unwrap();
        }
        let mut store = PlanStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.epoch, 2);
        assert!(
            !state.entries.contains_key(&1),
            "epoch-1 entry dropped by the epoch-2 refresh"
        );
        assert!(state.entries.contains_key(&2));
        assert!(
            state.strikes.is_empty() && state.quarantine.is_empty(),
            "refresh clears the books on disk as in memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_frame_is_tolerated_at_every_byte_offset() {
        let dir = temp_store_dir("torn");
        let p = plan(5);
        {
            let mut store = PlanStore::open(&dir).unwrap();
            store
                .append(&StoreFrame::Put {
                    key: 1,
                    epoch: 1,
                    last_use: 1,
                    plan: p.clone(),
                })
                .and_then(|_| store.append(&StoreFrame::Strike { key: 2, count: 1 }))
                .unwrap();
        }
        let wal = dir.join("wal.log");
        let full = std::fs::read(&wal).unwrap();
        let first_len = {
            // Recompute the first frame's on-disk size.
            let frame = StoreFrame::Put {
                key: 1,
                epoch: 1,
                last_use: 1,
                plan: p,
            };
            frame.encode().len()
        };
        assert!(first_len < full.len());
        // Truncate the log inside the SECOND frame at every byte offset:
        // the first frame must always survive, the torn tail never errors.
        for cut in first_len..full.len() {
            std::fs::write(&wal, &full[..cut]).unwrap();
            let mut store = PlanStore::open(&dir).unwrap();
            let state = store.recover().unwrap();
            assert!(
                state.entries.contains_key(&1),
                "first frame must survive a cut at {cut}"
            );
            if cut == full.len() {
                assert_eq!(state.strikes.get(&2), Some(&1));
            } else {
                assert!(
                    state.strikes.is_empty(),
                    "partial second frame must be discarded (cut at {cut})"
                );
                assert_eq!(store.stats().torn_bytes, (cut - first_len) as u64);
            }
        }
        // And a cut INSIDE the first frame leaves an empty (but valid)
        // recovery.
        for cut in [0usize, 1, 4, first_len / 2, first_len - 1] {
            std::fs::write(&wal, &full[..cut]).unwrap();
            let mut store = PlanStore::open(&dir).unwrap();
            let state = store.recover().unwrap();
            assert!(state.entries.is_empty(), "cut at {cut} inside frame 1");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_ends_replay_at_the_bad_frame() {
        let dir = temp_store_dir("corrupt");
        {
            let mut store = PlanStore::open(&dir).unwrap();
            store
                .append(&StoreFrame::Strike { key: 1, count: 1 })
                .and_then(|_| store.append(&StoreFrame::Strike { key: 2, count: 2 }))
                .and_then(|_| store.append(&StoreFrame::Strike { key: 3, count: 3 }))
                .unwrap();
        }
        let wal = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        let frame_len = bytes.len() / 3;
        // Flip one byte in the second frame's body.
        bytes[frame_len + 6] ^= 0xFF;
        std::fs::write(&wal, &bytes).unwrap();
        let mut store = PlanStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.strikes.get(&1), Some(&1), "frame 1 survives");
        assert!(
            !state.strikes.contains_key(&2) && !state.strikes.contains_key(&3),
            "corruption ends replay: frames 2 and 3 discarded"
        );
        assert_eq!(store.stats().torn_bytes, (frame_len * 2) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_cadence_fires_every_k_appends_and_tracks_the_durable_prefix() {
        let dir = temp_store_dir("sync_cadence");
        let mut store = PlanStore::open_with(&dir, StoreConfig { sync_every: 4 }).unwrap();
        for i in 0..10u64 {
            store
                .append(&StoreFrame::Strike {
                    key: i,
                    count: i as u32 + 1,
                })
                .unwrap();
        }
        // 10 appends at sync_every=4 → syncs after append 4 and 8.
        assert_eq!(store.stats().syncs, 2);
        let frame_len = store.wal_len() / 10;
        assert_eq!(store.synced_len(), 8 * frame_len);
        store.sync().unwrap();
        assert_eq!(store.stats().syncs, 3);
        assert_eq!(store.synced_len(), store.wal_len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_after_a_lost_unsynced_tail_is_valid_just_colder() {
        let dir = temp_store_dir("lost_tail");
        let p = plan(9);
        let synced_len;
        {
            let mut store = PlanStore::open_with(&dir, StoreConfig { sync_every: 2 }).unwrap();
            store
                .append(&StoreFrame::Put {
                    key: 1,
                    epoch: 1,
                    last_use: 1,
                    plan: p.clone(),
                })
                .and_then(|_| {
                    store.append(&StoreFrame::Put {
                        key: 2,
                        epoch: 1,
                        last_use: 2,
                        plan: p.clone(),
                    })
                })
                // Everything below is past the last fsync: the tail an
                // OS crash / power loss may drop.
                .and_then(|_| {
                    store.append(&StoreFrame::Put {
                        key: 3,
                        epoch: 1,
                        last_use: 3,
                        plan: p.clone(),
                    })
                })
                .unwrap();
            synced_len = store.synced_len();
            assert!(synced_len < store.wal_len(), "an unsynced tail exists");
        }
        // Simulate the power loss: the unsynced tail vanishes.
        let wal = dir.join("wal.log");
        let full = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &full[..synced_len as usize]).unwrap();
        let mut store = PlanStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(
            state.entries.len(),
            2,
            "the synced prefix recovers in full; the lost tail just cools the cache"
        );
        assert!(state.entries.contains_key(&1) && state.entries.contains_key(&2));
        assert!(!state.entries.contains_key(&3), "the unsynced Put is gone");
        assert_eq!(store.stats().torn_bytes, 0, "a clean truncation, not torn");
        // And losing a *partial* frame past the sync point is equally
        // tolerated (torn, not fatal).
        std::fs::write(&wal, &full[..synced_len as usize + 7]).unwrap();
        let mut store = PlanStore::open(&dir).unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.entries.len(), 2);
        assert_eq!(store.stats().torn_bytes, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_frames_round_trip_through_a_pipe_style_reader() {
        let bodies: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![0xAB; 1000]];
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&encode_frame(b));
        }
        let mut r = std::io::Cursor::new(stream.clone());
        for b in &bodies {
            let got = read_frame(&mut r).unwrap().expect("a frame");
            assert_eq!(&got, b);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // A torn mid-frame EOF is an error on a pipe (no tail to skip).
        let mut torn = std::io::Cursor::new(stream[..stream.len() - 3].to_vec());
        for _ in 0..2 {
            read_frame(&mut torn).unwrap();
        }
        assert!(read_frame(&mut torn).is_err(), "torn frame is fatal");
        // So is a checksum flip.
        let mut bad = stream.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let mut r = std::io::Cursor::new(bad);
        for _ in 0..2 {
            read_frame(&mut r).unwrap();
        }
        assert!(read_frame(&mut r).is_err(), "checksum mismatch is fatal");
    }

    #[test]
    fn compaction_snapshots_state_and_truncates_the_wal() {
        let dir = temp_store_dir("compact");
        let p = plan(3);
        let mut store = PlanStore::open(&dir).unwrap();
        store
            .append(&StoreFrame::Epoch { epoch: 1 })
            .and_then(|_| {
                store.append(&StoreFrame::Put {
                    key: 5,
                    epoch: 1,
                    last_use: 4,
                    plan: p.clone(),
                })
            })
            .and_then(|_| store.append(&StoreFrame::Quarantine { key: 6 }))
            .unwrap();
        let state = store.recover().unwrap();
        assert!(store.wal_len() > 0);
        store.compact(state.epoch, &state).unwrap();
        assert_eq!(store.wal_len(), 0, "WAL truncated after snapshot");
        // Append one post-snapshot delta, then recover fresh: snapshot +
        // WAL compose.
        store
            .append(&StoreFrame::Strike { key: 7, count: 1 })
            .unwrap();
        let mut store2 = PlanStore::open(&dir).unwrap();
        let state2 = store2.recover().unwrap();
        assert_eq!(state2.epoch, 1);
        assert_eq!(state2.entries[&5].last_use, 4);
        assert!(state2.quarantine.contains(&6));
        assert_eq!(state2.strikes.get(&7), Some(&1));
        assert_eq!(store2.stats().snapshots, 0);
        assert_eq!(store.stats().snapshots, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
