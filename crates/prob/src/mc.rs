//! Monte-Carlo estimation helpers.
//!
//! Algorithm 1 of the paper evaluates WLog queries by sampling `Max_iter`
//! realizations of the probabilistic rules and averaging either an indicator
//! (for constraint queries) or a goal value (for goal queries). These
//! helpers centralize that loop together with standard-error reporting so
//! callers can reason about decision error.

use rand::RngCore;

/// A Monte-Carlo estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub std_error: f64,
    pub iterations: usize,
}

/// Estimate the mean of `f` over `iters` draws.
pub fn estimate_mean(
    iters: usize,
    rng: &mut dyn RngCore,
    mut f: impl FnMut(&mut dyn RngCore) -> f64,
) -> Estimate {
    assert!(iters > 0, "need at least one iteration");
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..iters {
        let x = f(rng);
        sum += x;
        sum_sq += x * x;
    }
    let n = iters as f64;
    let mean = sum / n;
    let var = ((sum_sq / n) - mean * mean).max(0.0) * n / (n - 1.0).max(1.0);
    Estimate {
        value: mean,
        std_error: (var / n).sqrt(),
        iterations: iters,
    }
}

/// Estimate `P(event)` over `iters` draws; the constraint-query case of
/// Algorithm 1.
pub fn estimate_probability(
    iters: usize,
    rng: &mut dyn RngCore,
    mut event: impl FnMut(&mut dyn RngCore) -> bool,
) -> Estimate {
    assert!(iters > 0);
    let mut hits = 0usize;
    for _ in 0..iters {
        if event(rng) {
            hits += 1;
        }
    }
    let n = iters as f64;
    let p = hits as f64 / n;
    Estimate {
        value: p,
        std_error: (p * (1.0 - p) / n).sqrt(),
        iterations: iters,
    }
}

/// Number of iterations needed so that the standard error of a probability
/// estimate near `p` is below `target_se`. Used to size `Max_iter` for a
/// requested decision accuracy (ablation `ablation_mc_iters`).
pub fn iterations_for_probability(p: f64, target_se: f64) -> usize {
    assert!(target_se > 0.0);
    let var = (p * (1.0 - p)).max(1e-6);
    (var / (target_se * target_se)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    #[test]
    fn mean_of_uniform_is_half() {
        let mut rng = seeded(21);
        let est = estimate_mean(50_000, &mut rng, |r| r.next_u64() as f64 / u64::MAX as f64);
        assert!((est.value - 0.5).abs() < 4.0 * est.std_error + 1e-3);
    }

    #[test]
    fn probability_of_biased_coin() {
        let mut rng = seeded(22);
        let est = estimate_probability(50_000, &mut rng, |r| {
            let mut r = r;
            let u: f64 = (&mut r).gen();
            u < 0.3
        });
        assert!((est.value - 0.3).abs() < 0.01, "got {}", est.value);
        assert!(est.std_error < 0.005);
    }

    #[test]
    fn ci_shrinks_with_iterations() {
        let mut rng = seeded(23);
        let small = estimate_probability(500, &mut rng, |r| {
            let mut r = r;
            let u: f64 = (&mut r).gen();
            u < 0.5
        });
        let big = estimate_probability(50_000, &mut rng, |r| {
            let mut r = r;
            let u: f64 = (&mut r).gen();
            u < 0.5
        });
        assert!(big.std_error < small.std_error);
    }

    #[test]
    fn iteration_sizing_is_sane() {
        // p=0.5, se=0.01 -> 2500 iterations.
        assert_eq!(iterations_for_probability(0.5, 0.01), 2500);
        assert!(iterations_for_probability(0.95, 0.01) < 2500);
    }

    #[test]
    #[should_panic]
    fn zero_iterations_rejected() {
        let mut rng = seeded(1);
        estimate_mean(0, &mut rng, |_| 0.0);
    }
}
