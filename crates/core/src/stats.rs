//! Statistics helpers for the paper's regression analyses (Fig. 3b/3c).

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0 for degenerate inputs (fewer than two points or zero
/// variance), which keeps downstream reports well-defined.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "correlation requires paired samples");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    // Clamp: floating-point rounding can push perfectly-correlated samples
    // infinitesimally outside [-1, 1].
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

/// Two-sided p-value for the null hypothesis of zero correlation.
///
/// Uses the `t = r·sqrt((n−2)/(1−r²))` statistic with a normal
/// approximation to the t distribution — adequate for the sample sizes the
/// experiments use (n ≥ 20) and fully deterministic. Returns 1.0 for
/// degenerate inputs.
pub fn pearson_p_value(r: f64, n: usize) -> f64 {
    if n < 3 || !(-1.0..=1.0).contains(&r) {
        return 1.0;
    }
    let r = r.clamp(-0.999_999, 0.999_999);
    let t = r * ((n as f64 - 2.0) / (1.0 - r * r)).sqrt();
    2.0 * (1.0 - standard_normal_cdf(t.abs()))
}

/// Ordinary-least-squares slope and intercept of `y` on `x`.
///
/// Returns `(slope, intercept)`; a zero-variance `x` yields slope 0 and
/// intercept `mean(y)`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "regression requires paired samples");
    assert!(!x.is_empty(), "regression requires at least one point");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx == 0.0 {
        return (0.0, my);
    }
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ≈ 1.5e-7).
fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Mean of a sample (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_is_zero_correlation() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn independent_noise_is_weak() {
        // Deterministic pseudo-noise.
        let x: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 53 + 11) % 97) as f64).collect();
        assert!(pearson(&x, &y).abs() < 0.2);
    }

    #[test]
    fn p_value_decreases_with_effect_and_n() {
        let weak = pearson_p_value(0.1, 30);
        let strong = pearson_p_value(0.8, 30);
        assert!(strong < weak);
        let more_data = pearson_p_value(0.1, 3000);
        assert!(more_data < weak, "same r, more samples → smaller p");
        assert!(pearson_p_value(0.8, 30) < 0.05, "strong correlation is significant");
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        let (slope, intercept) = linear_fit(&x, &y);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 1.0).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(standard_normal_cdf(-5.0) < 1e-5);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
