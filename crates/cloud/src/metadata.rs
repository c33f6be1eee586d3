//! The cloud metadata store.
//!
//! `import(cloud)` in a WLog program pulls two kinds of facts (Section
//! 4.2): static properties (instance ids, prices, CPU capability) and
//! dynamic performance components stored as *discretized histograms*
//! produced by periodic calibration. The optimizer never sees the ground
//! truth laws of the simulator — only this store — reproducing the paper's
//! information flow.

use crate::instance::{CloudSpec, InstanceTypeId};
use deco_prob::Histogram;

/// The dynamic performance components the store tracks per instance type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfComponent {
    /// Sequential disk I/O bandwidth (MB/s).
    SeqIo,
    /// Random disk I/O throughput (MB/s).
    RandIo,
    /// Network bandwidth to a same-type peer (MB/s).
    Net,
}

impl PerfComponent {
    pub const ALL: [PerfComponent; 3] = [
        PerfComponent::SeqIo,
        PerfComponent::RandIo,
        PerfComponent::Net,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PerfComponent::SeqIo => "seq_io",
            PerfComponent::RandIo => "rand_io",
            PerfComponent::Net => "net",
        }
    }
}

/// Calibrated metadata for one cloud.
#[derive(Debug, Clone)]
pub struct MetadataStore {
    pub spec: CloudSpec,
    /// `hists[itype][component]` in `PerfComponent::ALL` order.
    hists: Vec<[Histogram; 3]>,
    cross_region_net: Histogram,
    /// Observed failure rates per instance-hour, `fail_rates[itype][region]`
    /// — the `fail_rate(type, region)` facts `import(cloud)` exposes to
    /// WLog programs. Zero (the default) means the cloud is assumed
    /// reliable.
    fail_rates: Vec<Vec<f64>>,
    /// Monotonic version of the store's facts. Every mutation (a
    /// recalibration, a fail-rate observation, a price refresh) bumps it,
    /// so consumers that key work off the store — the plan cache above
    /// all — can detect staleness by comparing one integer instead of
    /// whole histogram tables.
    catalog_epoch: u64,
}

impl MetadataStore {
    pub fn new(spec: CloudSpec, hists: Vec<[Histogram; 3]>, cross_region_net: Histogram) -> Self {
        assert_eq!(
            hists.len(),
            spec.types.len(),
            "need one histogram set per instance type"
        );
        let fail_rates = vec![vec![0.0; spec.regions.len()]; spec.types.len()];
        Self {
            spec,
            hists,
            cross_region_net,
            fail_rates,
            catalog_epoch: 0,
        }
    }

    /// The store's monotonic fact version. Two equal epochs on the same
    /// store instance guarantee the calibrated facts have not changed in
    /// between; a bump invalidates anything derived from the older epoch.
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Record that the store's facts changed (recalibration, price table
    /// refresh). Fail-rate setters call this automatically; callers that
    /// mutate `spec` directly should bump explicitly.
    pub fn bump_catalog_epoch(&mut self) {
        self.catalog_epoch += 1;
    }

    /// Exact discretization of the ground-truth laws — the limit of an
    /// infinitely long calibration. Tests and planners that want to remove
    /// calibration noise use this.
    pub fn from_ground_truth(spec: CloudSpec, bins: usize) -> Self {
        let hists = spec
            .types
            .iter()
            .map(|t| {
                [
                    Histogram::from_dist(&t.seq_io(), bins, 4.0, Some(1.0)),
                    Histogram::from_dist(&t.rand_io(), bins, 4.0, Some(1.0)),
                    Histogram::from_dist(&t.net(), bins, 4.0, Some(1.0)),
                ]
            })
            .collect();
        let cross = Histogram::from_dist(&spec.cross_region_net(), bins, 4.0, Some(1.0));
        Self::new(spec, hists, cross)
    }

    fn comp_index(c: PerfComponent) -> usize {
        match c {
            PerfComponent::SeqIo => 0,
            PerfComponent::RandIo => 1,
            PerfComponent::Net => 2,
        }
    }

    /// Calibrated histogram for one component of one type.
    pub fn hist(&self, itype: InstanceTypeId, c: PerfComponent) -> &Histogram {
        &self.hists[itype][Self::comp_index(c)]
    }

    /// Network histogram governing a transfer between two instance types —
    /// the smaller type's law, as in [`CloudSpec::pair_net`].
    pub fn pair_net_hist(&self, a: InstanceTypeId, b: InstanceTypeId) -> &Histogram {
        let slower = if self.spec.types[a].net_normal.0 <= self.spec.types[b].net_normal.0 {
            a
        } else {
            b
        };
        self.hist(slower, PerfComponent::Net)
    }

    /// Observed failure rate per instance-hour of one type in one region.
    pub fn fail_rate(&self, itype: InstanceTypeId, region: crate::region::RegionId) -> f64 {
        self.fail_rates[itype][region]
    }

    /// Whether any non-zero failure rate has been recorded.
    pub fn has_failures(&self) -> bool {
        self.fail_rates.iter().flatten().any(|&r| r > 0.0)
    }

    /// Record a failure rate (per instance-hour) for one type in one
    /// region, as calibration would after observing revocations.
    pub fn set_fail_rate(
        &mut self,
        itype: InstanceTypeId,
        region: crate::region::RegionId,
        rate: f64,
    ) {
        assert!(
            (0.0..1.0e4).contains(&rate),
            "implausible failure rate {rate}"
        );
        self.fail_rates[itype][region] = rate;
        self.bump_catalog_epoch();
    }

    /// The store's raw fields, exactly as held — for bit-exact transport
    /// codecs. Returns `(spec, hists, cross_region_net, fail_rates,
    /// catalog_epoch)` with `hists[itype]` in [`PerfComponent::ALL`]
    /// order. Round-tripping through [`MetadataStore::from_raw_parts`]
    /// reproduces the identical store, private state included.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (&CloudSpec, &[[Histogram; 3]], &Histogram, &[Vec<f64>], u64) {
        (
            &self.spec,
            &self.hists,
            &self.cross_region_net,
            &self.fail_rates,
            self.catalog_epoch,
        )
    }

    /// Rebuild a store from the raw fields of [`MetadataStore::raw_parts`].
    /// Unlike [`MetadataStore::new`], this restores `fail_rates` and
    /// `catalog_epoch` verbatim instead of zeroing them — the decode side
    /// of a transport codec must not look like a fresh calibration.
    pub fn from_raw_parts(
        spec: CloudSpec,
        hists: Vec<[Histogram; 3]>,
        cross_region_net: Histogram,
        fail_rates: Vec<Vec<f64>>,
        catalog_epoch: u64,
    ) -> Self {
        assert_eq!(
            hists.len(),
            spec.types.len(),
            "need one histogram set per instance type"
        );
        assert_eq!(
            fail_rates.len(),
            spec.types.len(),
            "need one fail-rate row per instance type"
        );
        assert!(
            fail_rates.iter().all(|row| row.len() == spec.regions.len()),
            "need one fail rate per region"
        );
        Self {
            spec,
            hists,
            cross_region_net,
            fail_rates,
            catalog_epoch,
        }
    }

    /// Builder-style variant of [`MetadataStore::set_fail_rate`] applying
    /// one rate uniformly across all types and regions.
    pub fn with_uniform_fail_rate(mut self, rate: f64) -> Self {
        for row in &mut self.fail_rates {
            for r in row {
                *r = rate;
            }
        }
        assert!(rate >= 0.0);
        self.bump_catalog_epoch();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_prob::dist::Dist;

    #[test]
    fn ground_truth_store_matches_law_means() {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec.clone(), 40);
        for (i, t) in spec.types.iter().enumerate() {
            let h = store.hist(i, PerfComponent::SeqIo);
            assert!(
                (h.mean() - t.seq_io().mean()).abs() / t.seq_io().mean() < 0.02,
                "{}: {} vs {}",
                t.name,
                h.mean(),
                t.seq_io().mean()
            );
        }
    }

    #[test]
    fn pair_net_hist_picks_slower_type() {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 40);
        let medium = store.hist(1, PerfComponent::Net).clone();
        assert_eq!(store.pair_net_hist(1, 2), &medium);
        assert_eq!(store.pair_net_hist(2, 1), &medium);
    }

    #[test]
    fn cross_region_hist_is_slow() {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 40);
        let (_, _, cross_region, _, _) = store.raw_parts();
        assert!(cross_region.mean() < store.hist(0, PerfComponent::Net).mean());
    }

    #[test]
    #[should_panic]
    fn store_requires_full_coverage() {
        let spec = CloudSpec::amazon_ec2();
        MetadataStore::new(spec, Vec::new(), Histogram::constant(1.0));
    }

    #[test]
    fn catalog_epoch_is_monotonic_and_bumped_by_mutation() {
        let spec = CloudSpec::amazon_ec2();
        let mut store = MetadataStore::from_ground_truth(spec, 20);
        assert_eq!(store.catalog_epoch(), 0, "fresh store starts at epoch 0");
        store.set_fail_rate(0, 0, 0.01);
        assert_eq!(store.catalog_epoch(), 1);
        store.set_fail_rate(0, 0, 0.01); // same value still marks a refresh
        assert_eq!(store.catalog_epoch(), 2);
        store.bump_catalog_epoch();
        assert_eq!(store.catalog_epoch(), 3);
        let uniform = store.with_uniform_fail_rate(0.0);
        assert_eq!(uniform.catalog_epoch(), 4);
    }

    #[test]
    fn fail_rates_default_to_reliable_cloud() {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec.clone(), 20);
        assert!(!store.has_failures());
        for i in 0..spec.types.len() {
            for r in 0..spec.regions.len() {
                assert_eq!(store.fail_rate(i, r), 0.0);
            }
        }
        let mut store = store;
        store.set_fail_rate(1, 0, 0.05);
        assert!(store.has_failures());
        assert_eq!(store.fail_rate(1, 0), 0.05);
        assert_eq!(store.fail_rate(1, 1), 0.0);
        let uniform = MetadataStore::from_ground_truth(spec, 20).with_uniform_fail_rate(0.02);
        assert_eq!(uniform.fail_rate(3, 1), 0.02);
    }
}
