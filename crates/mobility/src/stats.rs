//! Distribution statistics for contact traces (§II-B).
//!
//! "Two measures are often used: contact duration distribution and
//! inter-contact time distribution. The exponential distribution is
//! frequently used due to the simplicity of its mathematics. However, a
//! random waypoint mobility … does not meet the exponential distribution."
//! This module provides the exponential MLE fit and the Kolmogorov–Smirnov
//! distance used to test that claim (experiment E17).

use serde::{Deserialize, Serialize};

/// Result of fitting an exponential distribution to a positive sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialFit {
    /// MLE rate `λ = 1 / mean`.
    pub rate: f64,
    /// Sample size.
    pub len: usize,
    /// KS distance between the empirical CDF and `1 − exp(−λx)`.
    pub ks: f64,
}

/// Fits an exponential distribution by MLE and reports the KS distance.
/// Returns `None` for empty or non-positive samples.
///
/// # Examples
///
/// ```
/// use csn_mobility::stats::fit_exponential;
///
/// let sample: Vec<f64> = (1..1000).map(|i| -((i as f64) / 1000.0).ln()).collect();
/// let fit = fit_exponential(&sample).unwrap();
/// assert!(fit.ks < 0.05, "true exponential sample fits well");
/// ```
pub fn fit_exponential(sample: &[f64]) -> Option<ExponentialFit> {
    if sample.is_empty() || sample.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let mean = sample.iter().sum::<f64>() / sample.len() as f64;
    let rate = 1.0 / mean;
    let ks = ks_exponential(sample, rate);
    Some(ExponentialFit { rate, len: sample.len(), ks })
}

/// `sample` without its NaN entries, sorted ascending. The sort is stable,
/// so entries that compare equal keep their order.
fn sorted_without_nan(sample: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = sample.iter().copied().filter(|x| !x.is_nan()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN entries were dropped"));
    sorted
}

/// KS distance between the empirical CDF of `sample` and Exp(`rate`).
/// NaN entries are dropped: the distance is that of the rest of the sample.
pub fn ks_exponential(sample: &[f64], rate: f64) -> f64 {
    let sorted = sorted_without_nan(sample);
    let n = sorted.len() as f64;
    let mut max_d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let model = 1.0 - (-rate * x).exp();
        let emp_hi = (i + 1) as f64 / n;
        let emp_lo = i as f64 / n;
        max_d = max_d.max((emp_hi - model).abs()).max((model - emp_lo).abs());
    }
    max_d
}

/// Empirical complementary CDF evaluated at each of `points`. NaN entries
/// are dropped: the CCDF is that of the rest of the sample. An empty rest
/// has no CCDF, and every point reads NaN.
pub fn ccdf(sample: &[f64], points: &[f64]) -> Vec<f64> {
    let sorted = sorted_without_nan(sample);
    let n = sorted.len() as f64;
    points
        .iter()
        .map(|&p| {
            let idx = sorted.partition_point(|&x| x <= p);
            (sorted.len() - idx) as f64 / n
        })
        .collect()
}

/// Sample mean; 0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Sample median; 0 for an empty sample. NaN entries are dropped: the
/// median is that of the rest of the sample (0 if nothing is left).
pub fn median(sample: &[f64]) -> f64 {
    let s = sorted_without_nan(sample);
    if s.is_empty() {
        return 0.0;
    }
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// The coefficient of variation `σ/μ` (1 for exponential; `> 1` indicates a
/// heavier-than-exponential tail). 0 for samples of length `< 2`.
pub fn coefficient_of_variation(sample: &[f64]) -> f64 {
    if sample.len() < 2 {
        return 0.0;
    }
    let m = mean(sample);
    if m == 0.0 {
        return 0.0;
    }
    let var = sample.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / sample.len() as f64;
    var.sqrt() / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn exp_sample(n: usize, rate: f64, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| -(1.0 - rng.gen::<f64>()).ln() / rate).collect()
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        let s = exp_sample(50_000, 0.25, 3);
        let fit = fit_exponential(&s).unwrap();
        assert!((fit.rate - 0.25).abs() < 0.01, "rate {}", fit.rate);
        assert!(fit.ks < 0.01, "ks {}", fit.ks);
    }

    #[test]
    fn non_exponential_sample_has_large_ks() {
        // Pareto-ish heavy tail.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let s: Vec<f64> =
            (0..20_000).map(|_| (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.5) - 0.9).collect();
        let fit = fit_exponential(&s).unwrap();
        assert!(fit.ks > 0.1, "heavy tail should not fit exponential: ks {}", fit.ks);
        assert!(coefficient_of_variation(&s) > 1.2);
    }

    #[test]
    fn degenerate_samples_return_none() {
        assert!(fit_exponential(&[]).is_none());
        assert!(fit_exponential(&[1.0, -2.0]).is_none());
        assert!(fit_exponential(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn ccdf_monotone_and_bounded() {
        let s = exp_sample(1000, 1.0, 7);
        let pts = vec![0.0, 0.5, 1.0, 2.0, 5.0];
        let c = ccdf(&s, &pts);
        for w in c.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(c[0] <= 1.0 && *c.last().unwrap() >= 0.0);
    }

    #[test]
    fn ks_exponential_drops_nan_entries() {
        let s = exp_sample(1000, 0.5, 11);
        let mut with_nan = s.clone();
        with_nan.insert(500, f64::NAN);
        with_nan.push(f64::NAN);
        assert_eq!(ks_exponential(&with_nan, 0.5), ks_exponential(&s, 0.5));
        assert_eq!(ks_exponential(&[f64::NAN], 0.5), 0.0);
    }

    #[test]
    fn ccdf_drops_nan_entries() {
        let pts = [0.5, 1.5, 2.5];
        assert_eq!(ccdf(&[1.0, f64::NAN, 2.0], &pts), ccdf(&[1.0, 2.0], &pts));
        assert_eq!(ccdf(&[1.0, f64::NAN, 2.0], &pts), vec![1.0, 0.5, 0.0]);
        assert!(ccdf(&[f64::NAN], &pts).iter().all(|c| c.is_nan()));
    }

    #[test]
    fn median_drops_nan_entries() {
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), 1.5);
        assert_eq!(median(&[f64::NAN, 3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[f64::NAN]), 0.0);
    }

    #[test]
    fn summary_statistics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let cv = coefficient_of_variation(&exp_sample(50_000, 2.0, 9));
        assert!((cv - 1.0).abs() < 0.05, "exponential CV ~ 1, got {cv}");
    }
}
