//! Pay-as-you-go billing.
//!
//! EC2's classic model (the one the paper optimizes against): an instance
//! is charged per *started* billing quantum (one hour), so releasing an
//! instance 61 minutes after acquisition costs two hours. The Merge and
//! Co-Scheduling transformation operations exist precisely to "fully
//! utilize the instance partial hour".

use crate::instance::CloudSpec;
use crate::plan::VmSlot;

/// Number of billing quanta charged for a busy interval of `seconds`.
pub fn quanta_charged(seconds: f64, quantum: f64) -> u64 {
    assert!(quantum > 0.0, "billing quantum must be positive");
    assert!(seconds >= 0.0, "negative usage");
    if seconds == 0.0 {
        // Acquiring an instance and releasing it immediately still bills
        // one quantum.
        return 1;
    }
    (seconds / quantum).ceil() as u64
}

/// Cost of running one instance for `seconds` at `price_per_quantum`.
pub fn instance_cost(seconds: f64, quantum: f64, price_per_quantum: f64) -> f64 {
    quanta_charged(seconds, quantum) as f64 * price_per_quantum
}

/// Quanta a lease must *additionally* pay to extend its busy span to
/// `busy_seconds` (measured from the lease start) when `paid` quanta are
/// already charged.
///
/// This is the fleet-reuse counterpart of [`quanta_charged`], and it is
/// deliberately more forgiving at the paid boundary: a task group placed
/// into the final tick of a paid quantum — a span ending *exactly* at
/// `paid * quantum` (or within float noise of it) — charges nothing,
/// because no tick of the next quantum has actually started. The strict
/// ceiling of [`quanta_charged`] is correct for billing a fresh span
/// (crash truncation rounds up); extension of an already-paid lease must
/// not double-charge the boundary instant itself.
///
/// `paid == 0` means the lease has not been acquired yet, and the whole
/// span bills like a fresh one (minimum one quantum).
pub fn additional_quanta(paid: u64, busy_seconds: f64, quantum: f64) -> u64 {
    assert!(quantum > 0.0, "billing quantum must be positive");
    assert!(busy_seconds >= 0.0, "negative usage");
    if paid == 0 {
        return quanta_charged(busy_seconds, quantum);
    }
    let paid_until = paid as f64 * quantum;
    // Boundary forgiveness is relative to the quantum (3.6 µs at the
    // EC2 hour): spans that merely *reach* the boundary stay free.
    if busy_seconds <= paid_until + 1e-9 * quantum {
        0
    } else {
        quanta_charged(busy_seconds, quantum).saturating_sub(paid)
    }
}

/// `span` widened to cover a busy interval `[start, end]`.
pub(crate) fn widen_span(span: Option<(f64, f64)>, start: f64, end: f64) -> (f64, f64) {
    match span {
        None => (start, end),
        Some((a, b)) => (a.min(start), b.max(end)),
    }
}

/// The bill of a schedule: every slot with a busy span pays its quanta at
/// its type's price in its region (slots that ran nothing are free), and
/// `cross_bytes` pay the inter-region transfer price.
pub(crate) fn bill(
    spec: &CloudSpec,
    slots: &[VmSlot],
    spans: &[Option<(f64, f64)>],
    cross_bytes: f64,
) -> CostLedger {
    let mut cost = CostLedger::default();
    for (slot, span) in slots.iter().zip(spans) {
        if let Some((a, b)) = span {
            cost.add_instance(
                b - a,
                spec.billing_quantum,
                spec.price(slot.itype, slot.region),
            );
        }
    }
    cost.add_transfer(cross_bytes, spec.inter_region_price_per_gb);
    cost
}

/// A ledger accumulating the cost components the paper reports:
/// instance-hours ("operational cost") and inter-region transfer
/// ("networking cost").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostLedger {
    pub compute: f64,
    pub transfer: f64,
}

impl CostLedger {
    pub fn total(&self) -> f64 {
        self.compute + self.transfer
    }

    pub fn add_instance(&mut self, seconds: f64, quantum: f64, price: f64) {
        self.compute += instance_cost(seconds, quantum, price);
    }

    pub fn add_transfer(&mut self, bytes: f64, price_per_gb: f64) {
        assert!(bytes >= 0.0 && price_per_gb >= 0.0);
        self.transfer += bytes / (1024.0 * 1024.0 * 1024.0) * price_per_gb;
    }

    pub fn merge(&mut self, other: &CostLedger) {
        self.compute += other.compute;
        self.transfer += other.transfer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_hours_round_up() {
        assert_eq!(quanta_charged(1.0, 3600.0), 1);
        assert_eq!(quanta_charged(3600.0, 3600.0), 1);
        assert_eq!(quanta_charged(3601.0, 3600.0), 2);
        assert_eq!(quanta_charged(7200.0, 3600.0), 2);
    }

    #[test]
    fn zero_usage_still_bills_a_quantum() {
        assert_eq!(quanta_charged(0.0, 3600.0), 1);
    }

    #[test]
    fn billing_is_monotone_in_time() {
        let mut prev = 0;
        for s in (0..20).map(|i| i as f64 * 900.0) {
            let q = quanta_charged(s, 3600.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn cost_scales_with_price() {
        assert!((instance_cost(5400.0, 3600.0, 0.1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = CostLedger::default();
        a.add_instance(3600.0, 3600.0, 0.044);
        a.add_transfer(2.0 * 1024.0 * 1024.0 * 1024.0, 0.12);
        assert!((a.compute - 0.044).abs() < 1e-12);
        assert!((a.transfer - 0.24).abs() < 1e-12);
        let mut b = CostLedger::default();
        b.add_instance(3600.0, 3600.0, 0.175);
        b.merge(&a);
        assert!((b.total() - (0.175 + 0.044 + 0.24)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_usage_rejected() {
        quanta_charged(-1.0, 3600.0);
    }

    // Edge cases exposed by mid-hour crashes: a revoked instance bills its
    // busy span truncated at the crash instant through the same rounding.

    #[test]
    fn exact_quantum_boundaries_do_not_overbill() {
        for k in 1..=5u64 {
            assert_eq!(quanta_charged(k as f64 * 3600.0, 3600.0), k);
        }
        // A hair past the boundary starts a new quantum; a hair under
        // stays in the old one.
        assert_eq!(quanta_charged(3600.0 + 1e-6, 3600.0), 2);
        assert_eq!(quanta_charged(3600.0 - 1e-6, 3600.0), 1);
    }

    #[test]
    fn sub_second_lease_bills_one_full_quantum() {
        assert_eq!(quanta_charged(1e-9, 3600.0), 1);
        assert!((instance_cost(1e-9, 3600.0, 0.044) - 0.044).abs() < 1e-12);
    }

    // Exact-boundary extension cases for fleet reuse (PR 9): extending an
    // already-paid lease to the boundary itself must charge nothing; only
    // a span reaching *into* the next quantum pays for it.

    #[test]
    fn extension_to_the_exact_paid_boundary_charges_nothing() {
        // One paid hour; busy span grows to exactly 3600 s: still free.
        assert_eq!(additional_quanta(1, 3600.0, 3600.0), 0);
        // Even float noise at the boundary stays in the paid quantum.
        assert_eq!(additional_quanta(1, 3600.0 + 1e-7, 3600.0), 0);
        // k paid hours, span to the k-hour mark: free for every k.
        for k in 1..=5u64 {
            assert_eq!(additional_quanta(k, k as f64 * 3600.0, 3600.0), 0);
        }
    }

    #[test]
    fn extension_into_the_next_quantum_pays_exactly_for_it() {
        assert_eq!(additional_quanta(1, 3601.0, 3600.0), 1);
        assert_eq!(additional_quanta(1, 7200.0, 3600.0), 1);
        assert_eq!(additional_quanta(1, 7201.0, 3600.0), 2);
        // A span still inside the paid window never pays.
        assert_eq!(additional_quanta(2, 5400.0, 3600.0), 0);
        assert_eq!(additional_quanta(2, 100.0, 3600.0), 0);
    }

    #[test]
    fn unacquired_lease_bills_like_a_fresh_span() {
        assert_eq!(additional_quanta(0, 0.0, 3600.0), 1);
        assert_eq!(additional_quanta(0, 5400.0, 3600.0), 2);
    }

    #[test]
    fn additional_quanta_is_monotone_in_the_span() {
        let mut prev = 0;
        for s in (0..30).map(|i| i as f64 * 600.0) {
            let q = additional_quanta(1, s, 3600.0);
            assert!(q >= prev, "extension charges never shrink");
            prev = q;
        }
    }

    #[test]
    fn crash_truncated_spans_bill_like_any_lease() {
        // Mid-hour crash: one quantum. Crash just past the hour: two.
        assert_eq!(quanta_charged(1800.0, 3600.0), 1);
        assert_eq!(quanta_charged(3601.0, 3600.0), 2);
        // A crash at the boot instant leaves a zero-length busy span,
        // which still bills one quantum *if the instance ran at all*;
        // instances that never ran anything are exempted upstream (the
        // simulator only bills slots with a recorded busy span).
        assert_eq!(quanta_charged(0.0, 3600.0), 1);
    }
}
