//! Summary statistics over raw samples.
//!
//! Used by the calibration pipeline (recovering Table 2's parameters), the
//! variance figures (Figure 2's quantiles, Figure 6a's variance), and by
//! tests throughout the workspace.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n-1 denominator). Returns 0.0 for fewer than
/// two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Quantile by linear interpolation between order statistics
/// (the "R-7" definition used by most statistics packages).
///
/// `q` is in `[0, 1]`. Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    quantile_sorted(&sorted, q)
}

/// Quantile over an already-sorted slice (avoids re-sorting in loops).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Relative spread (max - min) / mean — the "maximum variance can reach up
/// to 50%" reading of Figure 6a.
pub fn relative_spread(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

/// Five-number summary plus mean: the box-plot data behind Figure 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty sample");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Summary {
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("summary of a non-empty sample"),
            mean: mean(xs),
        }
    }
}

/// Normalize every element by `base` (the paper normalizes each figure to a
/// reference algorithm). Panics if base is 0.
pub fn normalize(xs: &[f64], base: f64) -> Vec<f64> {
    assert!(base != 0.0, "cannot normalize by zero");
    xs.iter().map(|x| x / base).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_total() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        // R-7: h = 3*0.25 = 0.75 -> 1 + 0.75*(2-1) = 1.75.
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_monotone() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile(&xs, i as f64 / 20.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn summary_orders_fields() {
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn spread_metrics() {
        let xs = [8.0, 10.0, 12.0];
        assert!((relative_spread(&xs) - 0.4).abs() < 1e-12);
        assert_eq!(relative_spread(&[]), 0.0);
    }

    #[test]
    fn normalize_divides() {
        assert_eq!(normalize(&[2.0, 4.0], 2.0), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn normalize_rejects_zero_base() {
        normalize(&[1.0], 0.0);
    }
}
