//! Canonical binary encoding of supervised plans, for durability.
//!
//! The serving tier's persistent plan store ([`deco-serve`'s
//! `store`](https://example.org/deco) module) writes plans to an
//! append-only log and replays them on shard restart. The encoding here is
//! the durability contract: **decode(encode(p)) is bit-identical to p**,
//! including every `f64` (round-tripped through raw bits, so NaN payloads
//! and signed zeros survive) and the full provenance chain. A warm hit
//! served from a recovered entry therefore renders the exact same
//! canonical response line as one served from the in-memory cache — the
//! property the shard tier's byte-identity tests pin.
//!
//! The format is versioned, little-endian, and length-prefixed. It is
//! *not* a general-purpose serializer: it encodes exactly the
//! [`SupervisedPlan`] shape, and decoding validates every length against
//! the remaining input so a corrupt or truncated payload returns
//! [`DecoError::Store`] instead of panicking or over-allocating.

use crate::engine::DecoPlan;
use crate::error::DecoError;
use crate::supervisor::{PlanProvenance, PlanStage, StageSkip, SupervisedPlan};
use deco_cloud::{Plan, VmSlot};
use deco_solver::{Evaluation, SearchStats};

/// Format version; bump when the encoded shape changes.
const CODEC_VERSION: u8 = 1;

/// Hard cap on any decoded collection length (tasks, slots, skip notes).
/// Plans are per-workflow objects; a length beyond this is corruption, and
/// rejecting it early keeps a hostile payload from forcing a huge
/// allocation before the byte-count check would catch it.
const MAX_LEN: u64 = 16_777_216;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append one byte. Shared by the plan codec and [`crate::wire`].
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its raw bits (NaN payloads and signed zeros
/// survive the round trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a byte string: a `u32` length, then the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a UTF-8 string as [`put_bytes`] of its bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a bool as one byte, `0` or `1`.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

/// Append an optional value: `0` for `None`, `1` then `put`'s bytes for
/// `Some`.
pub fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put(out, v);
        }
    }
}

fn put_stage(out: &mut Vec<u8>, stage: PlanStage) {
    put_u8(
        out,
        match stage {
            PlanStage::Deco => 0,
            PlanStage::Heuristic => 1,
            PlanStage::Autoscaling => 2,
        },
    );
}

/// Encode a supervised plan into the canonical durable byte form.
pub fn encode_supervised_plan(sp: &SupervisedPlan) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 24 * sp.plan.types.len());
    put_u8(&mut out, CODEC_VERSION);

    // DecoPlan.types
    put_u64(&mut out, sp.plan.types.len() as u64);
    for &t in &sp.plan.types {
        put_u64(&mut out, t as u64);
    }
    // DecoPlan.plan (slots, assignment, dispatch order)
    put_u64(&mut out, sp.plan.plan.slots.len() as u64);
    for slot in &sp.plan.plan.slots {
        put_u64(&mut out, slot.itype as u64);
        put_u64(&mut out, slot.region as u64);
    }
    put_u64(&mut out, sp.plan.plan.assign.len() as u64);
    for &a in &sp.plan.plan.assign {
        put_u64(&mut out, a as u64);
    }
    put_u64(&mut out, sp.plan.plan.order.len() as u64);
    for &o in &sp.plan.plan.order {
        put_u32(&mut out, o);
    }
    // Evaluation
    put_u8(&mut out, u8::from(sp.plan.evaluation.feasible));
    put_f64(&mut out, sp.plan.evaluation.objective);
    put_f64(&mut out, sp.plan.evaluation.constraint_margin);
    // SearchStats (host timings included: the round trip must be exact,
    // not merely deterministic-key-equal).
    put_u64(&mut out, sp.plan.stats.states_evaluated as u64);
    put_u64(&mut out, sp.plan.stats.batches as u64);
    put_f64(&mut out, sp.plan.stats.modeled_eval_seconds);
    put_f64(&mut out, sp.plan.stats.host_eval_seconds);
    put_f64(&mut out, sp.plan.stats.wall_seconds);
    put_f64(&mut out, sp.plan.stats.budget_spent);
    put_u8(&mut out, u8::from(sp.plan.stats.truncated));
    // Provenance
    put_stage(&mut out, sp.provenance.stage);
    put_u8(&mut out, u8::from(sp.provenance.truncated));
    put_f64(&mut out, sp.provenance.budget_spent);
    put_u64(&mut out, sp.provenance.skipped.len() as u64);
    for skip in &sp.provenance.skipped {
        put_stage(&mut out, skip.stage);
        put_str(&mut out, &skip.reason);
    }
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice. Every take is
/// validated against the remaining input; failures surface as
/// [`DecoError::Store`] (the wire codecs turn them into
/// `DecoError::Transport` with [`on_pipe`] at their decode boundary).
/// Shared by the plan codec, [`crate::wire`], the mutation codec of the
/// plan store and journal, and the shard frame protocol.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the head of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Take the next `n` raw bytes, failing cleanly past the end.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                DecoError::Store(format!(
                    "plan payload truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos.min(self.buf.len())
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecoError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, DecoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64` collection length, rejecting absurd values before any
    /// allocation.
    pub fn len(&mut self, what: &str) -> Result<usize, DecoError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(DecoError::Store(format!(
                "plan payload corrupt: {what} length {n} exceeds the {MAX_LEN} cap"
            )));
        }
        Ok(n as usize)
    }

    /// Read a byte string written by [`put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], DecoError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a string written by [`put_str`].
    pub fn str(&mut self) -> Result<String, DecoError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| DecoError::Store("payload corrupt: string is not UTF-8".into()))
    }

    /// Read a bool written by [`put_bool`]; any byte but `0`/`1` is an
    /// error.
    pub fn bool(&mut self) -> Result<bool, DecoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecoError::Store(format!("payload corrupt: bool tag {t}"))),
        }
    }

    /// Read an optional value written by [`put_opt`], the value with
    /// `read`.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecoError>,
    ) -> Result<Option<T>, DecoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            t => Err(DecoError::Store(format!("payload corrupt: option tag {t}"))),
        }
    }

    pub(crate) fn stage(&mut self) -> Result<PlanStage, DecoError> {
        match self.u8()? {
            0 => Ok(PlanStage::Deco),
            1 => Ok(PlanStage::Heuristic),
            2 => Ok(PlanStage::Autoscaling),
            other => Err(DecoError::Store(format!(
                "plan payload corrupt: unknown stage tag {other}"
            ))),
        }
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Decode all of `bytes` with `read`: bytes left over are an error (every
/// payload is length-framed by its container, so extra bytes mean
/// in-place corruption).
pub fn decode_all<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecoError>,
) -> Result<T, DecoError> {
    let mut r = Reader::new(bytes);
    let v = read(&mut r)?;
    if !r.done() {
        return Err(DecoError::Store(format!(
            "payload has {} trailing bytes",
            bytes.len() - r.pos
        )));
    }
    Ok(v)
}

/// A decode failure on a pipe means a broken peer, not a bad store: a
/// [`DecoError::Store`] becomes a [`DecoError::Transport`]. The wire
/// decoders apply it once, at their boundary.
pub fn on_pipe(e: DecoError) -> DecoError {
    match e {
        DecoError::Store(m) => DecoError::Transport(m),
        other => other,
    }
}

/// Decode a payload produced by [`encode_supervised_plan`]. Every length
/// is validated against the remaining bytes; trailing garbage is an error
/// (the payload is length-framed by the store, so extra bytes mean the
/// frame was corrupted in place).
pub fn decode_supervised_plan(bytes: &[u8]) -> Result<SupervisedPlan, DecoError> {
    decode_all(bytes, read_plan)
}

fn read_plan(r: &mut Reader<'_>) -> Result<SupervisedPlan, DecoError> {
    let version = r.u8()?;
    if version != CODEC_VERSION {
        return Err(DecoError::Store(format!(
            "plan payload has codec version {version}, expected {CODEC_VERSION}"
        )));
    }

    let n_types = r.len("types")?;
    let mut types = Vec::with_capacity(n_types.min(4096));
    for _ in 0..n_types {
        types.push(r.u64()? as usize);
    }
    let n_slots = r.len("slots")?;
    let mut slots = Vec::with_capacity(n_slots.min(4096));
    for _ in 0..n_slots {
        let itype = r.u64()? as usize;
        let region = r.u64()? as usize;
        slots.push(VmSlot { itype, region });
    }
    let n_assign = r.len("assignment")?;
    let mut assign = Vec::with_capacity(n_assign.min(4096));
    for _ in 0..n_assign {
        assign.push(r.u64()? as usize);
    }
    let n_order = r.len("dispatch order")?;
    let mut order = Vec::with_capacity(n_order.min(4096));
    for _ in 0..n_order {
        order.push(r.u32()?);
    }
    let evaluation = Evaluation {
        feasible: r.u8()? != 0,
        objective: r.f64()?,
        constraint_margin: r.f64()?,
    };
    let stats = SearchStats {
        states_evaluated: r.u64()? as usize,
        batches: r.u64()? as usize,
        modeled_eval_seconds: r.f64()?,
        host_eval_seconds: r.f64()?,
        wall_seconds: r.f64()?,
        budget_spent: r.f64()?,
        truncated: r.u8()? != 0,
    };
    let stage = r.stage()?;
    let truncated = r.u8()? != 0;
    let budget_spent = r.f64()?;
    let n_skips = r.len("skip notes")?;
    let mut skipped = Vec::with_capacity(n_skips.min(64));
    for _ in 0..n_skips {
        skipped.push(StageSkip {
            stage: r.stage()?,
            reason: r.str()?,
        });
    }
    Ok(SupervisedPlan {
        plan: DecoPlan {
            types,
            plan: Plan {
                slots,
                assign,
                order,
            },
            evaluation,
            stats,
        },
        provenance: PlanProvenance {
            stage,
            truncated,
            budget_spent,
            skipped,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> SupervisedPlan {
        SupervisedPlan {
            plan: DecoPlan {
                types: vec![0, 3, 1, seed as usize % 5],
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
                    assign: vec![0, 0, 1, 1],
                    order: vec![0, 1, 0, 1],
                },
                evaluation: Evaluation {
                    feasible: true,
                    objective: 12.625 + seed as f64,
                    constraint_margin: 0.91,
                },
                stats: SearchStats {
                    states_evaluated: 120,
                    batches: 4,
                    modeled_eval_seconds: 0.25,
                    host_eval_seconds: 0.017,
                    wall_seconds: 0.019,
                    budget_spent: 4096.0 + seed as f64,
                    truncated: seed.is_multiple_of(2),
                },
            },
            provenance: PlanProvenance {
                stage: PlanStage::Heuristic,
                truncated: false,
                budget_spent: 4096.0 + seed as f64,
                skipped: vec![StageSkip {
                    stage: PlanStage::Deco,
                    reason: "budget starved — skipped".into(),
                }],
            },
        }
    }

    fn assert_bit_identical(a: &SupervisedPlan, b: &SupervisedPlan) {
        assert_eq!(a.plan.types, b.plan.types);
        assert_eq!(a.plan.plan, b.plan.plan);
        assert_eq!(a.plan.evaluation.feasible, b.plan.evaluation.feasible);
        assert_eq!(
            a.plan.evaluation.objective.to_bits(),
            b.plan.evaluation.objective.to_bits()
        );
        assert_eq!(
            a.plan.evaluation.constraint_margin.to_bits(),
            b.plan.evaluation.constraint_margin.to_bits()
        );
        assert_eq!(a.plan.stats.states_evaluated, b.plan.stats.states_evaluated);
        assert_eq!(a.plan.stats.batches, b.plan.stats.batches);
        assert_eq!(
            a.plan.stats.budget_spent.to_bits(),
            b.plan.stats.budget_spent.to_bits()
        );
        assert_eq!(
            a.plan.stats.host_eval_seconds.to_bits(),
            b.plan.stats.host_eval_seconds.to_bits()
        );
        assert_eq!(a.plan.stats.truncated, b.plan.stats.truncated);
        assert_eq!(a.provenance.stage, b.provenance.stage);
        assert_eq!(a.provenance.truncated, b.provenance.truncated);
        assert_eq!(
            a.provenance.budget_spent.to_bits(),
            b.provenance.budget_spent.to_bits()
        );
        assert_eq!(a.provenance.skipped.len(), b.provenance.skipped.len());
        for (x, y) in a.provenance.skipped.iter().zip(&b.provenance.skipped) {
            assert_eq!(x.stage, y.stage);
            assert_eq!(x.reason, y.reason);
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for seed in 0..6 {
            let sp = sample(seed);
            let bytes = encode_supervised_plan(&sp);
            let back = decode_supervised_plan(&bytes).expect("round trip");
            assert_bit_identical(&sp, &back);
            // Deterministic encoding: equal plans, equal bytes.
            assert_eq!(bytes, encode_supervised_plan(&back));
        }
    }

    #[test]
    fn round_trip_preserves_non_finite_floats_exactly() {
        let mut sp = sample(1);
        sp.plan.evaluation.objective = f64::NAN;
        sp.plan.evaluation.constraint_margin = -0.0;
        sp.plan.stats.wall_seconds = f64::INFINITY;
        let back = decode_supervised_plan(&encode_supervised_plan(&sp)).expect("round trip");
        assert_eq!(
            back.plan.evaluation.objective.to_bits(),
            sp.plan.evaluation.objective.to_bits()
        );
        assert_eq!(
            back.plan.evaluation.constraint_margin.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.plan.stats.wall_seconds, f64::INFINITY);
    }

    #[test]
    fn truncation_at_every_offset_errors_cleanly() {
        let bytes = encode_supervised_plan(&sample(2));
        for cut in 0..bytes.len() {
            let err = decode_supervised_plan(&bytes[..cut]);
            assert!(
                err.is_err(),
                "decoding a {cut}-byte prefix of {} must fail",
                bytes.len()
            );
        }
        assert!(decode_supervised_plan(&bytes).is_ok());
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut bytes = encode_supervised_plan(&sample(3));
        bytes.push(0);
        assert!(matches!(
            decode_supervised_plan(&bytes),
            Err(DecoError::Store(m)) if m.contains("trailing")
        ));

        let mut bad_version = encode_supervised_plan(&sample(3));
        bad_version[0] = 99;
        assert!(matches!(
            decode_supervised_plan(&bad_version),
            Err(DecoError::Store(m)) if m.contains("version")
        ));
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        // version byte + a types length far past the cap.
        let mut bytes = vec![CODEC_VERSION];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_supervised_plan(&bytes),
            Err(DecoError::Store(m)) if m.contains("cap")
        ));
    }
}
