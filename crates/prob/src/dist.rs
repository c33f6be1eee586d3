//! Parametric distributions with exact moments and own samplers.
//!
//! The paper's calibration found (Table 2) that sequential I/O follows a
//! Gamma distribution and random I/O / network bandwidth follow Normal
//! distributions. The cloud substrate instantiates these laws; the solver
//! only ever sees their discretized histograms.

use crate::math::std_normal_cdf;
use crate::rng::open01;
use rand::Rng;

/// A real-valued probability distribution that can be sampled and exposes
/// its exact first two moments.
pub trait Dist: Send + Sync + std::fmt::Debug {
    /// Draw one sample.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;
    /// Exact mean.
    fn mean(&self) -> f64;
    /// Exact variance.
    fn variance(&self) -> f64;
    /// Cumulative distribution function, where tractable.
    fn cdf(&self, x: f64) -> f64;
    /// Standard deviation (derived).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Degenerate distribution: always `value`. Used for deterministic
/// translation of WLog programs (probability 1.0 rules, Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    pub value: f64,
}

impl Constant {
    pub fn new(value: f64) -> Self {
        Self { value }
    }
}

impl Dist for Constant {
    fn sample(&self, _rng: &mut dyn rand::RngCore) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }
}

/// Normal distribution N(mu, sigma^2), sampled with Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    pub mu: f64,
    pub sigma: f64,
}

impl Normal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        Self { mu, sigma }
    }

    /// Standard-normal draw via Box–Muller (one of the pair is discarded;
    /// throughput is not the bottleneck and the code stays stateless).
    pub fn std_sample(rng: &mut dyn rand::RngCore) -> f64 {
        let u1 = open01(&mut *rng);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Dist for Normal {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.mu + self.sigma * Self::std_sample(rng)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
    fn cdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x >= self.mu { 1.0 } else { 0.0 };
        }
        std_normal_cdf((x - self.mu) / self.sigma)
    }
}

/// Normal distribution truncated to `[lo, inf)`, used for bandwidths and
/// rates that must stay positive. Sampling is by rejection (the truncation
/// points used in the cloud model keep acceptance high).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    pub inner: Normal,
    pub lo: f64,
}

impl TruncatedNormal {
    pub fn new(mu: f64, sigma: f64, lo: f64) -> Self {
        assert!(
            lo < mu + 8.0 * sigma.max(1e-12),
            "truncation point too far into the upper tail"
        );
        Self {
            inner: Normal::new(mu, sigma),
            lo,
        }
    }

    /// Probability mass retained after truncation.
    fn alpha(&self) -> f64 {
        1.0 - self.inner.cdf(self.lo)
    }
}

impl Dist for TruncatedNormal {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        // Rejection sampling; falls back to the truncation point if the
        // acceptance region is vanishingly small.
        for _ in 0..10_000 {
            let x = self.inner.sample(rng);
            if x >= self.lo {
                return x;
            }
        }
        self.lo
    }
    fn mean(&self) -> f64 {
        // E[X | X >= lo] = mu + sigma * phi(a) / alpha, a = (lo-mu)/sigma.
        let (mu, sigma) = (self.inner.mu, self.inner.sigma);
        if sigma == 0.0 {
            return mu.max(self.lo);
        }
        let a = (self.lo - mu) / sigma;
        let phi = (-0.5 * a * a).exp() / (2.0 * std::f64::consts::PI).sqrt();
        mu + sigma * phi / self.alpha()
    }
    fn variance(&self) -> f64 {
        let (mu, sigma) = (self.inner.mu, self.inner.sigma);
        if sigma == 0.0 {
            return 0.0;
        }
        let a = (self.lo - mu) / sigma;
        let phi = (-0.5 * a * a).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let alpha = self.alpha();
        let lam = phi / alpha;
        sigma * sigma * (1.0 + a * lam - lam * lam)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            return 0.0;
        }
        ((self.inner.cdf(x) - self.inner.cdf(self.lo)) / self.alpha()).clamp(0.0, 1.0)
    }
}

/// Gamma distribution with shape `k` and scale `theta` (the parameterization
/// Table 2 of the paper uses), sampled with Marsaglia–Tsang.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    pub k: f64,
    pub theta: f64,
}

impl Gamma {
    pub fn new(k: f64, theta: f64) -> Self {
        assert!(k > 0.0 && theta > 0.0, "gamma parameters must be positive");
        Self { k, theta }
    }

    fn sample_std(shape: f64, rng: &mut dyn rand::RngCore) -> f64 {
        if shape < 1.0 {
            // Boost: X = Gamma(shape+1) * U^(1/shape).
            let u = open01(&mut *rng);
            return Self::sample_std(shape + 1.0, rng) * u.powf(1.0 / shape);
        }
        // Marsaglia & Tsang (2000).
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::std_sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = open01(&mut *rng);
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Dist for Gamma {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        Self::sample_std(self.k, rng) * self.theta
    }
    fn mean(&self) -> f64 {
        self.k * self.theta
    }
    fn variance(&self) -> f64 {
        self.k * self.theta * self.theta
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            crate::math::gamma_p(self.k, x / self.theta)
        }
    }
}

/// Continuous uniform on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    pub lo: f64,
    pub hi: f64,
}

impl Uniform {
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "uniform bounds out of order: {lo} > {hi}");
        Self { lo, hi }
    }
}

impl Dist for Uniform {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rng.gen();
        self.lo + u * (self.hi - self.lo)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
    fn cdf(&self, x: f64) -> f64 {
        if self.hi == self.lo {
            return if x >= self.lo { 1.0 } else { 0.0 };
        }
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// Exponential with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    pub lambda: f64,
}

impl Exponential {
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "rate must be positive");
        Self { lambda }
    }
}

impl Dist for Exponential {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        -open01(&mut *rng).ln() / self.lambda
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
    fn variance(&self) -> f64 {
        1.0 / (self.lambda * self.lambda)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * x).exp()
        }
    }
}

/// Pareto (Type I) with scale `xm` and shape `alpha`. The paper's ensemble
/// experiments use Pareto-distributed workflow sizes ("Pareto sorted" /
/// "Pareto unsorted" ensembles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    pub xm: f64,
    pub alpha: f64,
}

impl Pareto {
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(
            xm > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        Self { xm, alpha }
    }
}

impl Dist for Pareto {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.xm / open01(&mut *rng).powf(1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.xm / (self.alpha - 1.0)
        }
    }
    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.xm * self.xm * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < self.xm {
            0.0
        } else {
            1.0 - (self.xm / x).powf(self.alpha)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::stats;

    /// Draw n samples and check the empirical mean/variance against the
    /// analytic moments within a tolerance scaled to the standard error.
    fn check_moments(d: &dyn Dist, n: usize, seed: u64) {
        let mut rng = seeded(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = stats::mean(&xs);
        let v = stats::variance(&xs);
        let se_mean = (d.variance() / n as f64).sqrt();
        assert!(
            (m - d.mean()).abs() < 6.0 * se_mean + 1e-9,
            "mean {m} vs {}",
            d.mean()
        );
        assert!(
            (v - d.variance()).abs() < 0.15 * d.variance() + 1e-9,
            "variance {v} vs {}",
            d.variance()
        );
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant::new(3.5);
        let mut rng = seeded(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), 3.5);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.cdf(3.4), 0.0);
        assert_eq!(d.cdf(3.5), 1.0);
    }

    #[test]
    fn normal_moments() {
        check_moments(&Normal::new(150.3, 50.0), 40_000, 2);
    }

    #[test]
    fn normal_cdf_median() {
        let d = Normal::new(10.0, 2.0);
        assert!((d.cdf(10.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn gamma_moments_table2_params() {
        // Table 2 row for m1.small sequential I/O: k=129.3, theta=0.79.
        check_moments(&Gamma::new(129.3, 0.79), 40_000, 3);
        // Low-shape branch.
        check_moments(&Gamma::new(0.5, 2.0), 60_000, 4);
    }

    #[test]
    fn gamma_cdf_matches_exponential_special_case() {
        // Gamma(1, theta) is Exponential(1/theta).
        let g = Gamma::new(1.0, 2.0);
        let e = Exponential::new(0.5);
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_moments() {
        check_moments(&Uniform::new(2.0, 8.0), 20_000, 5);
    }

    #[test]
    fn exponential_moments() {
        check_moments(&Exponential::new(0.25), 40_000, 6);
    }

    #[test]
    fn pareto_moments_finite_case() {
        check_moments(&Pareto::new(1.0, 4.0), 80_000, 7);
    }

    #[test]
    fn pareto_support() {
        let d = Pareto::new(2.0, 1.5);
        let mut rng = seeded(8);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
        assert_eq!(d.cdf(1.9), 0.0);
    }

    #[test]
    fn truncated_normal_respects_bound() {
        let d = TruncatedNormal::new(5.0, 3.0, 1.0);
        let mut rng = seeded(9);
        for _ in 0..2000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        assert!(d.mean() > 5.0, "truncation from below raises the mean");
        check_moments(&d, 40_000, 10);
    }

    #[test]
    fn truncated_normal_cdf_is_zero_below_bound() {
        let d = TruncatedNormal::new(5.0, 3.0, 1.0);
        assert_eq!(d.cdf(0.5), 0.0);
        assert!((d.cdf(1e9) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn gamma_rejects_bad_params() {
        Gamma::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn uniform_rejects_reversed_bounds() {
        Uniform::new(3.0, 2.0);
    }
}
