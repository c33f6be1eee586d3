//! Instance types and the cloud catalog.
//!
//! The evaluation uses the four "frequently used" first-generation EC2
//! types. CPU performance is stable in the cloud (Section 6.1, consistent
//! with Schad et al.), so CPU speed is a deterministic ECU multiplier;
//! sequential I/O follows the Gamma laws and random I/O the Normal laws of
//! Table 2; network bandwidth between two instances follows a Normal law
//! whose variance depends on the instance type (Figures 6 and 7: m1.medium
//! has far higher network variance than m1.large).

use crate::plan::VmSlot;
use deco_prob::dist::{Gamma, Normal};
use serde::{Deserialize, Serialize};

/// Index of an instance type in the catalog.
pub type InstanceTypeId = usize;

/// One instance type offering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    pub name: String,
    /// On-demand price per hour in the *base* region, USD.
    pub price_per_hour: f64,
    /// CPU speed as a multiple of the reference core (EC2 compute units).
    pub ecu: f64,
    /// Sequential I/O bandwidth, MB/s (Table 2: Gamma).
    pub seq_io_gamma: (f64, f64),
    /// Random I/O throughput, IOPS-equivalent MB/s (Table 2: Normal).
    pub rand_io_normal: (f64, f64),
    /// Network bandwidth to a same-type peer, MB/s (Normal).
    pub net_normal: (f64, f64),
}

impl InstanceType {
    pub fn seq_io(&self) -> Gamma {
        Gamma::new(self.seq_io_gamma.0, self.seq_io_gamma.1)
    }
    pub fn rand_io(&self) -> Normal {
        Normal::new(self.rand_io_normal.0, self.rand_io_normal.1)
    }
    pub fn net(&self) -> Normal {
        Normal::new(self.net_normal.0, self.net_normal.1)
    }
}

/// The full cloud offering: instance catalog plus regions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudSpec {
    pub types: Vec<InstanceType>,
    pub regions: Vec<crate::region::Region>,
    /// Mean bandwidth between regions, MB/s (Normal).
    pub inter_region_net: (f64, f64),
    /// Price of moving one GB between regions, USD.
    pub inter_region_price_per_gb: f64,
    /// Billing quantum in seconds (3600 = EC2's instance hour).
    pub billing_quantum: f64,
}

impl CloudSpec {
    /// The Amazon EC2 catalog of the paper: four m1 types, Table 2
    /// performance laws, US East and Singapore regions with a 33% price
    /// difference, hourly billing.
    pub fn amazon_ec2() -> CloudSpec {
        CloudSpec {
            types: vec![
                InstanceType {
                    name: "m1.small".into(),
                    price_per_hour: 0.044,
                    ecu: 1.0,
                    seq_io_gamma: (129.3, 0.79),
                    rand_io_normal: (150.3, 50.0),
                    net_normal: (60.0, 8.0),
                },
                InstanceType {
                    name: "m1.medium".into(),
                    price_per_hour: 0.087,
                    ecu: 2.0,
                    seq_io_gamma: (127.1, 0.80),
                    rand_io_normal: (128.9, 8.4),
                    net_normal: (80.0, 6.8),
                },
                InstanceType {
                    name: "m1.large".into(),
                    price_per_hour: 0.175,
                    ecu: 4.0,
                    seq_io_gamma: (376.6, 0.28),
                    rand_io_normal: (172.9, 34.8),
                    net_normal: (100.0, 2.5),
                },
                InstanceType {
                    name: "m1.xlarge".into(),
                    price_per_hour: 0.350,
                    ecu: 8.0,
                    seq_io_gamma: (408.1, 0.26),
                    rand_io_normal: (1034.0, 146.4),
                    net_normal: (120.0, 2.0),
                },
            ],
            regions: vec![
                crate::region::Region {
                    name: "us-east-1".into(),
                    price_multiplier: 1.0,
                },
                crate::region::Region {
                    name: "ap-southeast-1".into(),
                    price_multiplier: 1.33,
                },
            ],
            inter_region_net: (25.0, 5.0),
            inter_region_price_per_gb: 0.12,
            billing_quantum: 3600.0,
        }
    }

    /// Number of instance types (the paper's K).
    pub fn k(&self) -> usize {
        self.types.len()
    }

    /// Hourly price of a type in a region.
    pub fn price(&self, itype: InstanceTypeId, region: crate::region::RegionId) -> f64 {
        self.types[itype].price_per_hour * self.regions[region].price_multiplier
    }

    /// Cheapest type id (the generic search's initial state).
    pub fn cheapest_type(&self) -> InstanceTypeId {
        self.types
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.price_per_hour.total_cmp(&b.1.price_per_hour))
            .map(|(i, _)| i)
            .expect("catalog must not be empty")
    }

    /// Most expensive type id.
    pub fn priciest_type(&self) -> InstanceTypeId {
        self.types
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.price_per_hour.total_cmp(&b.1.price_per_hour))
            .map(|(i, _)| i)
            .expect("catalog must not be empty")
    }

    /// Effective network law between two instance types: the slower party
    /// dominates, so the pair inherits the law of the *smaller* type (this
    /// is the Figure 7 observation: a medium–large pair behaves like
    /// medium–medium).
    pub fn pair_net(&self, a: InstanceTypeId, b: InstanceTypeId) -> Normal {
        let ta = &self.types[a];
        let tb = &self.types[b];
        if ta.net_normal.0 <= tb.net_normal.0 {
            ta.net()
        } else {
            tb.net()
        }
    }

    /// Inter-region network law.
    pub fn cross_region_net(&self) -> Normal {
        Normal::new(self.inter_region_net.0, self.inter_region_net.1)
    }

    /// Network law of a transfer between two distinct instances: the
    /// inter-region law across regions, otherwise [`CloudSpec::pair_net`]
    /// of their types. Every planner, scorer and the simulator time
    /// transfers through this one rule.
    pub(crate) fn link_law(&self, from: VmSlot, to: VmSlot) -> Normal {
        if from.region != to.region {
            self.cross_region_net()
        } else {
            self.pair_net(from.itype, to.itype)
        }
    }

    /// Look up a type id by name.
    pub fn type_by_name(&self, name: &str) -> Option<InstanceTypeId> {
        self.types.iter().position(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_prob::dist::Dist;

    #[test]
    fn catalog_matches_paper_constants() {
        let spec = CloudSpec::amazon_ec2();
        assert_eq!(spec.k(), 4);
        // The paper quotes m1.small at $0.044/hour.
        assert_eq!(spec.types[0].price_per_hour, 0.044);
        // Prices strictly increase with size.
        for w in spec.types.windows(2) {
            assert!(w[0].price_per_hour < w[1].price_per_hour);
            assert!(w[0].ecu < w[1].ecu);
        }
    }

    #[test]
    fn table2_distributions_are_wired() {
        let spec = CloudSpec::amazon_ec2();
        let small = &spec.types[0];
        assert!((small.seq_io().mean() - 129.3 * 0.79).abs() < 1e-9);
        assert!((small.rand_io().std_dev() - 50.0).abs() < 1e-9);
        // m1.small/medium have visibly higher relative I/O variance than
        // large/xlarge (the Table 2 observation).
        let rel = |t: &InstanceType| t.seq_io().std_dev() / t.seq_io().mean();
        assert!(rel(&spec.types[0]) > rel(&spec.types[2]));
        assert!(rel(&spec.types[1]) > rel(&spec.types[3]));
    }

    #[test]
    fn regional_pricing() {
        let spec = CloudSpec::amazon_ec2();
        let us = spec.price(0, 0);
        let sg = spec.price(0, 1);
        assert!((sg / us - 1.33).abs() < 1e-9, "Singapore is 33% pricier");
    }

    #[test]
    fn cheapest_and_priciest() {
        let spec = CloudSpec::amazon_ec2();
        assert_eq!(spec.cheapest_type(), 0);
        assert_eq!(spec.priciest_type(), 3);
    }

    #[test]
    fn pair_net_takes_the_smaller_type() {
        let spec = CloudSpec::amazon_ec2();
        let med_large = spec.pair_net(1, 2);
        assert_eq!(med_large, spec.types[1].net());
        let large_med = spec.pair_net(2, 1);
        assert_eq!(large_med, spec.types[1].net());
        // medium pair has higher variance than large pair (Figure 7).
        assert!(spec.pair_net(1, 1).sigma > spec.pair_net(2, 2).sigma);
    }

    #[test]
    fn type_lookup() {
        let spec = CloudSpec::amazon_ec2();
        assert_eq!(spec.type_by_name("m1.large"), Some(2));
        assert_eq!(spec.type_by_name("c5.huge"), None);
    }
}
