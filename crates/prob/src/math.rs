//! Special functions needed by the distribution and fitting code.
//!
//! Implemented here (rather than pulled from a crate) because the offline
//! dependency set is deliberately small; these are the classical
//! approximations with well-known error bounds.

use std::f64::consts::PI;

/// Error function, Abramowitz & Stegun 7.1.26 (max absolute error 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7, n = 9;
/// accurate to ~1e-13 for x > 0).
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        PI.ln() - (PI * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + 7.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularized lower incomplete gamma function P(a, x), via series expansion
/// for x < a+1 and continued fraction otherwise. Used for the Gamma CDF and
/// the chi-square test p-value.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a,x) (Lentz's algorithm).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - ln_gamma(a)).exp() * h;
        1.0 - q
    }
}

/// Chi-square survival function: P(X > stat) for `dof` degrees of freedom.
pub fn chi_square_sf(stat: f64, dof: usize) -> f64 {
    if stat <= 0.0 {
        return 1.0;
    }
    1.0 - gamma_p(dof as f64 / 2.0, stat / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn erf_reference_values() {
        close(erf(0.0), 0.0, 2e-7);
        close(erf(1.0), 0.8427007929, 2e-7);
        close(erf(-1.0), -0.8427007929, 2e-7);
        close(erf(2.0), 0.9953222650, 2e-7);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.3] {
            close(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, 1e-7);
        }
    }

    #[test]
    fn ln_gamma_factorials() {
        // Gamma(n) = (n-1)!
        close(ln_gamma(1.0), 0.0, 1e-10);
        close(ln_gamma(2.0), 0.0, 1e-10);
        close(ln_gamma(5.0), 24f64.ln(), 1e-10);
        close(ln_gamma(11.0), 3628800f64.ln(), 1e-9);
    }

    #[test]
    fn ln_gamma_half() {
        close(ln_gamma(0.5), PI.sqrt().ln(), 1e-10);
    }

    #[test]
    fn gamma_p_limits() {
        close(gamma_p(2.0, 0.0), 0.0, 1e-12);
        close(gamma_p(2.0, 1e6), 1.0, 1e-9);
        // P(1, x) = 1 - exp(-x).
        close(gamma_p(1.0, 1.3), 1.0 - (-1.3f64).exp(), 1e-9);
    }

    #[test]
    fn chi_square_reference() {
        // Critical value: chi2(0.95, dof=3) ~= 7.815.
        close(chi_square_sf(7.815, 3), 0.05, 2e-3);
        close(chi_square_sf(0.0, 5), 1.0, 1e-12);
    }
}
