//! Ratio-estimator statistics for the SMARTS-style sampling mode.
//!
//! The sampled execution mode (see `esp-core`) measures a systematic
//! sample of fixed-size instruction grains in full detail and functionally
//! warms the rest. The quantity of interest — CPI, or any per-instruction
//! cycle-class share — is a *ratio* of two totals (cycles over
//! instructions), so the natural estimator is the combined ratio
//! estimator, and its standard error comes from the residuals of each
//! measured grain against the pooled ratio (Cochran, *Sampling
//! Techniques*, §6.4; the same formulation SMARTS uses for its CPI
//! confidence intervals).

/// A ratio estimate `Σy / Σx` over measured grains, with its standard
/// error and a 95% confidence half-width.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RatioEstimate {
    /// The pooled ratio `Σy / Σx` (e.g. cycles per instruction).
    pub ratio: f64,
    /// Standard error of the ratio (0 when fewer than two grains).
    pub se: f64,
    /// 95% confidence half-width (`1.96 × se`).
    pub ci95: f64,
    /// Number of measured grains the estimate pools.
    pub n: u64,
}

impl RatioEstimate {
    /// Relative 95% confidence half-width in percent of the ratio
    /// (0 when the ratio itself is 0).
    pub fn rel_ci95_pct(&self) -> f64 {
        if self.ratio == 0.0 {
            0.0
        } else {
            100.0 * self.ci95 / self.ratio
        }
    }

    /// Whether the 95% confidence interval `ratio ± ci95` holds `value`
    /// (the rule interval-coverage checks score estimates by).
    ///
    /// # Examples
    ///
    /// ```
    /// use esp_stats::RatioEstimate;
    ///
    /// let est = RatioEstimate { ratio: 1.5, se: 0.05, ci95: 0.1, n: 16 };
    /// assert!(est.covers(1.55));
    /// assert!(!est.covers(1.35));
    /// ```
    pub fn covers(&self, value: f64) -> bool {
        (self.ratio - value).abs() <= self.ci95
    }
}

/// Compute the combined ratio estimate over `(x, y)` grain samples,
/// where `x` is the denominator total per grain (instructions) and `y`
/// the numerator total (cycles of some class).
///
/// The standard error uses the residuals `e_j = y_j − r·x_j`:
/// `se = sqrt(Σe² / (n(n−1))) / x̄`, the standard linearised variance of
/// a ratio estimator under systematic sampling treated as random.
///
/// # Examples
///
/// ```
/// use esp_stats::ratio_estimate;
///
/// // Perfectly uniform grains: exact ratio, zero error.
/// let est = ratio_estimate(&[(100, 150), (100, 150), (100, 150)]);
/// assert_eq!(est.ratio, 1.5);
/// assert_eq!(est.se, 0.0);
/// assert_eq!(est.n, 3);
/// ```
pub fn ratio_estimate(samples: &[(u64, u64)]) -> RatioEstimate {
    let n = samples.len() as u64;
    let sum_x: u128 = samples.iter().map(|&(x, _)| x as u128).sum();
    let sum_y: u128 = samples.iter().map(|&(_, y)| y as u128).sum();
    if n == 0 || sum_x == 0 {
        return RatioEstimate::default();
    }
    let ratio = sum_y as f64 / sum_x as f64;
    if n < 2 {
        return RatioEstimate {
            ratio,
            se: 0.0,
            ci95: 0.0,
            n,
        };
    }
    let mean_x = sum_x as f64 / n as f64;
    let sum_sq: f64 = samples
        .iter()
        .map(|&(x, y)| {
            let e = y as f64 - ratio * x as f64;
            e * e
        })
        .sum();
    let se = (sum_sq / (n as f64 * (n as f64 - 1.0))).sqrt() / mean_x;
    RatioEstimate {
        ratio,
        se,
        ci95: 1.96 * se,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(ratio_estimate(&[]), RatioEstimate::default());
        let one = ratio_estimate(&[(10, 25)]);
        assert_eq!(one.ratio, 2.5);
        assert_eq!(one.se, 0.0);
        assert_eq!(one.n, 1);
    }

    #[test]
    fn zero_denominator_is_safe() {
        assert_eq!(ratio_estimate(&[(0, 5), (0, 5)]), RatioEstimate::default());
    }

    #[test]
    fn uniform_grains_have_zero_error() {
        let est = ratio_estimate(&[(50, 100), (50, 100), (50, 100), (50, 100)]);
        assert_eq!(est.ratio, 2.0);
        assert_eq!(est.se, 0.0);
        assert_eq!(est.ci95, 0.0);
    }

    #[test]
    fn varying_grains_have_positive_error() {
        let est = ratio_estimate(&[(100, 100), (100, 300), (100, 200)]);
        assert_eq!(est.ratio, 2.0);
        assert!(est.se > 0.0);
        assert!((est.ci95 - 1.96 * est.se).abs() < 1e-12);
        assert!(est.rel_ci95_pct() > 0.0);
    }

    #[test]
    fn error_shrinks_with_more_grains() {
        let few: Vec<(u64, u64)> = (0..4).map(|i| (100, 150 + (i % 2) * 20)).collect();
        let many: Vec<(u64, u64)> = (0..64).map(|i| (100, 150 + (i % 2) * 20)).collect();
        let a = ratio_estimate(&few);
        let b = ratio_estimate(&many);
        assert!(b.se < a.se);
    }
}
