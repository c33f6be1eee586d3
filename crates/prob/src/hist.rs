//! Discretized probability distributions ("histograms").
//!
//! The paper stores each dynamic performance component (I/O, network) as a
//! discretized histogram in the metadata store (Section 4.2), and the
//! probabilistic IR expands a task's execution time into one weighted fact
//! per histogram bin: `p_j : exetime(Tid, Vid, T_j)` (Section 5.1). This
//! module is that representation: a regular grid of bins with a probability
//! mass per bin, supporting sampling, moments, percentiles, convolution
//! (for summing times along a path) and monotone mapping (for converting a
//! bandwidth distribution into a transfer-time distribution).

use crate::dist::Dist;
use rand::Rng;

/// A probability distribution discretized on a regular grid.
///
/// Mass `probs[i]` sits at the *center* of bin `i`, which spans
/// `[lo + i*width, lo + (i+1)*width)`. All operations treat the histogram as
/// the discrete distribution over bin centers, matching the paper's
/// bin-expansion of `exetime` facts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    probs: Vec<f64>,
}

impl Histogram {
    /// Build from explicit bin geometry and (possibly unnormalized)
    /// non-negative masses.
    pub fn new(lo: f64, width: f64, masses: Vec<f64>) -> Self {
        assert!(width > 0.0, "bin width must be positive");
        assert!(!masses.is_empty(), "histogram needs at least one bin");
        assert!(
            masses.iter().all(|&m| m >= 0.0 && m.is_finite()),
            "masses must be finite and non-negative"
        );
        let total: f64 = masses.iter().sum();
        assert!(total > 0.0, "histogram must carry positive total mass");
        let probs = masses.into_iter().map(|m| m / total).collect();
        Self { lo, width, probs }
    }

    /// A histogram carrying all mass at a single value (the deterministic
    /// case: probability-1.0 rules in the IR translation).
    pub fn constant(value: f64) -> Self {
        Self {
            lo: value - 0.5e-9,
            width: 1e-9,
            probs: vec![1.0],
        }
    }

    /// Discretize raw samples into `bins` equal-width bins spanning the
    /// sample range. This is what the calibration micro-benchmarks do with
    /// their measurements before storing them in the metadata store.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot build a histogram from no samples"
        );
        assert!(bins > 0);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if hi <= lo {
            return Self::constant(lo);
        }
        let width = (hi - lo) / bins as f64;
        let mut masses = vec![0.0; bins];
        for &x in samples {
            let mut idx = ((x - lo) / width) as usize;
            if idx >= bins {
                idx = bins - 1; // x == hi lands in the last bin
            }
            masses[idx] += 1.0;
        }
        Self::new(lo, width, masses)
    }

    /// Discretize a parametric distribution over `mean ± span_sigmas·sigma`
    /// (clipped below at `floor` when given), using the CDF for exact bin
    /// masses.
    pub fn from_dist(d: &dyn Dist, bins: usize, span_sigmas: f64, floor: Option<f64>) -> Self {
        assert!(bins > 0 && span_sigmas > 0.0);
        let sigma = d.std_dev();
        if sigma == 0.0 {
            return Self::constant(d.mean());
        }
        let mut lo = d.mean() - span_sigmas * sigma;
        if let Some(f) = floor {
            lo = lo.max(f);
        }
        let hi = d.mean() + span_sigmas * sigma;
        let width = (hi - lo) / bins as f64;
        let mut masses = Vec::with_capacity(bins);
        let mut prev_cdf = d.cdf(lo);
        for i in 1..=bins {
            let edge = lo + i as f64 * width;
            let c = d.cdf(edge);
            masses.push((c - prev_cdf).max(0.0));
            prev_cdf = c;
        }
        // Mass outside the span is folded into the edge bins so the
        // histogram stays a proper distribution.
        masses[0] += d.cdf(lo);
        let last = masses.len() - 1;
        masses[last] += 1.0 - prev_cdf;
        Self::new(lo, width, masses)
    }

    /// Build from weighted points, re-binned onto `bins` equal-width bins.
    /// Used by convolution and by arbitrary mappings.
    pub fn from_weighted_points(points: &[(f64, f64)], bins: usize) -> Self {
        assert!(!points.is_empty());
        assert!(bins > 0);
        let lo = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        if hi <= lo {
            return Self::constant(lo);
        }
        let width = (hi - lo) / bins as f64;
        let mut masses = vec![0.0; bins];
        for &(x, w) in points {
            assert!(w >= 0.0, "negative weight");
            let mut idx = ((x - lo) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            masses[idx] += w;
        }
        Self::new(lo, width, masses)
    }

    /// The raw `(lo, width, probs)` fields, exactly as stored — for
    /// bit-exact transport codecs. Unlike [`Histogram::points`], nothing
    /// is derived: round-tripping through [`Histogram::from_raw_parts`]
    /// reproduces the identical value, f64 bits included.
    pub fn raw_parts(&self) -> (f64, f64, &[f64]) {
        (self.lo, self.width, &self.probs)
    }

    /// Rebuild a histogram from the raw fields of [`Histogram::raw_parts`]
    /// **without renormalizing** — [`Histogram::new`] divides masses by
    /// their sum, which is not bit-stable for already-normalized inputs.
    /// Geometry invariants are still enforced; masses are trusted to come
    /// from a real histogram.
    pub fn from_raw_parts(lo: f64, width: f64, probs: Vec<f64>) -> Self {
        assert!(width > 0.0, "bin width must be positive");
        assert!(!probs.is_empty(), "histogram needs at least one bin");
        assert!(
            probs.iter().all(|&m| m >= 0.0 && m.is_finite()),
            "masses must be finite and non-negative"
        );
        Self { lo, width, probs }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.probs.len()
    }

    /// Center value of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// Probability mass of bin `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Iterate `(center, mass)` pairs — the `p_j : exetime(..., T_j)` facts
    /// of the probabilistic IR.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (self.center(i), p))
    }

    /// Support bounds `[lo, hi]`.
    pub fn support(&self) -> (f64, f64) {
        (self.lo, self.lo + self.width * self.probs.len() as f64)
    }

    /// Mean of the discretized distribution.
    pub fn mean(&self) -> f64 {
        self.points().map(|(x, p)| x * p).sum()
    }

    /// Variance of the discretized distribution.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.points().map(|(x, p)| p * (x - m) * (x - m)).sum()
    }

    /// CDF evaluated at `x`, treating mass as concentrated at bin centers.
    pub fn cdf(&self, x: f64) -> f64 {
        self.points()
            .take_while(|&(c, _)| c <= x)
            .map(|(_, p)| p)
            .sum::<f64>()
            .min(1.0)
    }

    /// The `q`-quantile (q in \[0, 1\]): smallest bin center whose cumulative
    /// mass reaches `q`. This is the paper's "p-th percentile of the
    /// distribution" used in probabilistic deadline checks.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
        let mut acc = 0.0;
        for (x, p) in self.points() {
            acc += p;
            if acc >= q - 1e-12 {
                return x;
            }
        }
        self.center(self.probs.len() - 1)
    }

    /// Sample a bin center proportionally to bin mass.
    pub fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (x, p) in self.points() {
            acc += p;
            if u <= acc {
                return x;
            }
        }
        self.center(self.probs.len() - 1)
    }

    /// Sample the *bin index* (used by the Monte-Carlo realizations of the
    /// probabilistic IR, which need to know which alternative fired).
    pub fn sample_bin(&self, rng: &mut dyn rand::RngCore) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u <= acc {
                return i;
            }
        }
        self.probs.len() - 1
    }

    /// Distribution of `X + Y` for independent X (self) and Y (other),
    /// re-binned to `max(self.bins, other.bins)` bins.
    pub fn convolve(&self, other: &Histogram) -> Histogram {
        let bins = self.bins().max(other.bins());
        let mut points = Vec::with_capacity(self.bins() * other.bins());
        for (x, px) in self.points() {
            for (y, py) in other.points() {
                points.push((x + y, px * py));
            }
        }
        Histogram::from_weighted_points(&points, bins)
    }

    /// Distribution of `max(X, Y)` for independent X, Y — the join rule for
    /// parallel branches when upper-bounding a DAG makespan.
    pub fn max_with(&self, other: &Histogram) -> Histogram {
        let bins = self.bins().max(other.bins());
        let mut points = Vec::with_capacity(self.bins() * other.bins());
        for (x, px) in self.points() {
            for (y, py) in other.points() {
                points.push((x.max(y), px * py));
            }
        }
        Histogram::from_weighted_points(&points, bins)
    }

    /// Distribution of `c·X + b`. `c` must be non-zero; a negative `c`
    /// reverses the support.
    pub fn affine(&self, c: f64, b: f64) -> Histogram {
        assert!(c != 0.0, "degenerate affine map");
        let points: Vec<(f64, f64)> = self.points().map(|(x, p)| (c * x + b, p)).collect();
        Histogram::from_weighted_points(&points, self.bins())
    }

    /// Distribution of `f(X)` for a (not necessarily monotone) map; masses
    /// are pushed through point-wise and re-binned.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Histogram {
        let points: Vec<(f64, f64)> = self.points().map(|(x, p)| (f(x), p)).collect();
        Histogram::from_weighted_points(&points, self.bins())
    }

    /// Reduce the resolution to at most `bins` bins (keeps MC realizations
    /// and convolutions tractable for 1000-task workflows).
    pub fn rebin(&self, bins: usize) -> Histogram {
        if self.bins() <= bins {
            return self.clone();
        }
        let points: Vec<(f64, f64)> = self.points().collect();
        Histogram::from_weighted_points(&points, bins)
    }

    /// Precompute a [`BinSampler`] for this histogram — the fast path for
    /// Monte-Carlo loops that draw from the same histogram many times.
    pub fn sampler(&self) -> BinSampler {
        BinSampler {
            cdf: CdfSampler::from_probs(self.probs.iter().copied()),
            lo: self.lo,
            width: self.width,
        }
    }
}

/// Precomputed cumulative-distribution sampler over a discrete set of
/// weights: one uniform draw plus a binary search per sample, no `dyn`
/// dispatch.
///
/// The cumulative array is built with the same left-to-right additions as
/// the linear scans in [`Histogram::sample`] and the probabilistic IR's
/// annotated-disjunction sampling, and `index_for` returns the first index
/// whose cumulative mass reaches `u` — so for any given `u` this sampler
/// selects *bit-for-bit* the same alternative as the O(n) scan it
/// replaces. That equivalence is what lets the compiled Monte-Carlo
/// evaluator reproduce the reference evaluator realization-for-realization
/// under the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSampler {
    /// Inclusive prefix sums of the (normalized) weights.
    cum: Vec<f64>,
}

impl CdfSampler {
    /// Build from probability masses (assumed normalized, like
    /// `Histogram::probs`; un-normalized weights also work as long as the
    /// uniform draw is scaled accordingly by the caller — the samplers in
    /// this workspace always pass normalized masses).
    pub fn from_probs(probs: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let cum: Vec<f64> = probs
            .into_iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect();
        assert!(!cum.is_empty(), "sampler needs at least one alternative");
        CdfSampler { cum }
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// The alternative selected by uniform draw `u`: the first index whose
    /// cumulative mass is `>= u`, clamped to the last alternative when
    /// rounding leaves `u` above the total mass (exactly the linear scan's
    /// fall-through).
    #[inline]
    pub fn index_for(&self, u: f64) -> usize {
        let i = self.cum.partition_point(|&c| c < u);
        i.min(self.cum.len() - 1)
    }

    /// Draw an alternative: consumes one `f64` from `rng`, same as the
    /// linear scans this replaces.
    #[inline]
    pub fn sample_index<R: rand::RngCore>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.index_for(u)
    }

    /// The inclusive prefix sums (non-decreasing). Exposed so callers can
    /// flatten many samplers into one contiguous table — the compiled
    /// Monte-Carlo evaluator does this for cache locality; selecting the
    /// count of entries `< u` over such a row (see [`index_for`], clamped)
    /// reproduces this sampler exactly.
    ///
    /// [`index_for`]: CdfSampler::index_for
    pub fn cum(&self) -> &[f64] {
        &self.cum
    }
}

/// A [`CdfSampler`] plus bin geometry: draws bin centers from a
/// [`Histogram`] in O(log bins), monomorphized over the RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct BinSampler {
    cdf: CdfSampler,
    lo: f64,
    width: f64,
}

impl BinSampler {
    /// Center value of bin `i` (same geometry as [`Histogram::center`]).
    #[inline]
    pub fn center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// Fast equivalent of [`Histogram::sample_bin`].
    #[inline]
    pub fn sample_bin<R: rand::RngCore>(&self, rng: &mut R) -> usize {
        self.cdf.sample_index(rng)
    }

    /// Fast equivalent of [`Histogram::sample`]: identical draw, identical
    /// bin selection, identical center value.
    #[inline]
    pub fn sample<R: rand::RngCore>(&self, rng: &mut R) -> f64 {
        self.center(self.sample_bin(rng))
    }

    /// The underlying CDF prefix sums (see [`CdfSampler::cum`]).
    pub fn cum(&self) -> &[f64] {
        self.cdf.cum()
    }

    /// Lower support bound of bin 0.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Gamma, Normal};
    use crate::rng::seeded;

    #[test]
    fn masses_normalize() {
        let h = Histogram::new(0.0, 1.0, vec![1.0, 3.0]);
        assert!((h.prob(0) - 0.25).abs() < 1e-12);
        assert!((h.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn constant_histogram() {
        let h = Histogram::constant(42.0);
        assert!((h.mean() - 42.0).abs() < 1e-6);
        assert!(h.variance() < 1e-12);
        assert!((h.percentile(0.99) - 42.0).abs() < 1e-6);
    }

    #[test]
    fn from_samples_covers_range() {
        let samples = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        let h = Histogram::from_samples(&samples, 4);
        let (lo, hi) = h.support();
        assert!(lo <= 1.0 && hi >= 3.0);
        assert!((h.points().map(|(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_identical_values_degenerates() {
        let h = Histogram::from_samples(&[5.0; 10], 8);
        assert!((h.mean() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn from_dist_preserves_moments() {
        let d = Normal::new(100.0, 15.0);
        let h = Histogram::from_dist(&d, 60, 5.0, None);
        assert!((h.mean() - 100.0).abs() < 0.5, "mean {}", h.mean());
        assert!((h.variance().sqrt() - 15.0).abs() < 1.0);
    }

    #[test]
    fn from_dist_floor_clips_support() {
        let d = Normal::new(1.0, 2.0);
        let h = Histogram::from_dist(&d, 40, 4.0, Some(0.0));
        assert!(h.support().0 >= 0.0);
    }

    #[test]
    fn gamma_discretization_matches_table2_mean() {
        // m1.large sequential I/O: k=376.6, theta=0.28 -> mean ~105.4 MB/s.
        let d = Gamma::new(376.6, 0.28);
        let h = Histogram::from_dist(&d, 50, 5.0, Some(0.0));
        assert!((h.mean() - d.mean()).abs() / d.mean() < 0.01);
    }

    #[test]
    fn sampler_agrees_with_linear_scan_bit_for_bit() {
        // The compiled evaluator's correctness proof rests on this: for
        // identical RNG streams, the precomputed CDF sampler must select
        // exactly the bins the O(n) scan selects.
        for seed in 0..20u64 {
            let mut mass_rng = seeded(1000 + seed);
            use rand::Rng;
            let bins = 1 + (mass_rng.gen::<f64>() * 40.0) as usize;
            let masses: Vec<f64> = (0..bins).map(|_| mass_rng.gen::<f64>() + 1e-9).collect();
            let h = Histogram::new(-3.0, 0.7, masses);
            let s = h.sampler();
            let mut ra = seeded(seed);
            let mut rb = seeded(seed);
            for _ in 0..500 {
                let a = h.sample(&mut ra);
                let b = s.sample(&mut rb);
                assert!(a == b, "sampler diverged from linear scan: {a} vs {b}");
            }
            let mut ra = seeded(seed ^ 0xABCD);
            let mut rb = seeded(seed ^ 0xABCD);
            for _ in 0..500 {
                assert_eq!(h.sample_bin(&mut ra), s.sample_bin(&mut rb));
            }
        }
    }

    #[test]
    fn sampler_clamps_to_last_bin_on_full_mass_draw() {
        let h = Histogram::new(0.0, 1.0, vec![1.0, 1.0]);
        let s = h.sampler();
        // u = 1.0 can exceed the floating-point total mass; both paths
        // must fall through to the last bin rather than index out of range.
        assert_eq!(s.cdf.index_for(1.0), 1);
        assert_eq!(s.cdf.index_for(0.0), 0);
    }

    #[test]
    fn cdf_sampler_matches_expected_frequencies() {
        let s = CdfSampler::from_probs([0.5, 0.25, 0.25]);
        let mut rng = seeded(11);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[s.sample_index(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / 20_000.0 - 0.5).abs() < 0.02);
        assert!((counts[1] as f64 / 20_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn percentile_is_monotone_and_bounded() {
        let d = Normal::new(0.0, 1.0);
        let h = Histogram::from_dist(&d, 80, 5.0, None);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let p = h.percentile(i as f64 / 10.0);
            assert!(p >= prev);
            prev = p;
        }
        assert!((h.percentile(0.5)).abs() < 0.1);
        assert!((h.percentile(0.95) - 1.645).abs() < 0.15);
    }

    #[test]
    fn sampling_matches_masses() {
        let h = Histogram::new(0.0, 1.0, vec![0.2, 0.8]);
        let mut rng = seeded(3);
        let n = 20_000;
        let hits = (0..n).filter(|_| h.sample(&mut rng) > 1.0).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn convolution_adds_means_and_variances() {
        let a = Histogram::from_dist(&Normal::new(10.0, 2.0), 50, 5.0, None);
        let b = Histogram::from_dist(&Normal::new(5.0, 1.0), 50, 5.0, None);
        let c = a.convolve(&b);
        assert!((c.mean() - 15.0).abs() < 0.3, "mean {}", c.mean());
        assert!((c.variance() - 5.0).abs() < 0.8, "var {}", c.variance());
    }

    #[test]
    fn convolve_with_constant_shifts() {
        let a = Histogram::from_dist(&Normal::new(10.0, 2.0), 50, 5.0, None);
        let c = a.convolve(&Histogram::constant(7.0));
        assert!((c.mean() - 17.0).abs() < 0.3);
    }

    #[test]
    fn max_with_dominates_both_means() {
        let a = Histogram::from_dist(&Normal::new(10.0, 3.0), 40, 4.0, None);
        let b = Histogram::from_dist(&Normal::new(10.0, 3.0), 40, 4.0, None);
        let m = a.max_with(&b);
        assert!(
            m.mean() > a.mean(),
            "E[max(X,Y)] > E[X] for iid non-degenerate"
        );
    }

    #[test]
    fn affine_scales_moments() {
        let a = Histogram::from_dist(&Normal::new(4.0, 1.0), 50, 5.0, None);
        let b = a.affine(2.0, 3.0);
        assert!((b.mean() - 11.0).abs() < 0.2);
        assert!((b.variance() - 4.0).abs() < 0.5);
    }

    #[test]
    fn map_reciprocal_gives_transfer_time() {
        // Bandwidth ~ N(100, 5) MB/s; time for 1000 MB ~ 10 s.
        let bw = Histogram::from_dist(&Normal::new(100.0, 5.0), 60, 4.0, Some(1.0));
        let t = bw.map(|b| 1000.0 / b);
        assert!((t.mean() - 10.0).abs() < 0.2, "mean {}", t.mean());
        assert!(t.support().0 > 0.0);
    }

    #[test]
    fn rebin_preserves_mass_and_roughly_mean() {
        let a = Histogram::from_dist(&Normal::new(50.0, 10.0), 200, 5.0, None);
        let b = a.rebin(20);
        assert_eq!(b.bins(), 20);
        assert!((b.mean() - a.mean()).abs() < 1.5);
        assert!((b.points().map(|(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_mass() {
        Histogram::new(0.0, 1.0, vec![0.5, -0.1]);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_total_mass() {
        Histogram::new(0.0, 1.0, vec![0.0, 0.0]);
    }
}
