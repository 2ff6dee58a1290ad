//! Sample statistics: nearest-rank percentiles under the "ten samples
//! beyond" rule, medians, and the quartiles Python's
//! `statistics.quantiles(values, n=4)` reports.

/// A percentile `p` is reported only when at least ten samples lie beyond
/// it, i.e. `n · (1 − p/100) ≥ 10`.
fn percentile_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Nearest-rank percentile of an ascending slice (`p` in 0–100).
///
/// # Panics
///
/// Panics on an empty slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency distribution summarised as the benchmark reports it: median,
/// p99 only when it has ten samples beyond it, the maximum and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples behind the summary.
    pub n: usize,
    /// Median, in the samples' unit (`NaN` when there are no samples).
    pub p50: f64,
    /// 99th percentile, when at least ten samples lie beyond it.
    pub p99: Option<f64>,
    /// Largest sample.
    pub max: f64,
}

impl Latency {
    /// Summarises raw samples (any order).
    pub fn of(samples: &[f64]) -> Latency {
        if samples.is_empty() {
            return Latency { n: 0, p50: f64::NAN, p99: None, max: f64::NAN };
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Latency {
            n: s.len(),
            p50: nearest_rank(&s, 50.0),
            p99: percentile_supported(s.len(), 99.0).then(|| nearest_rank(&s, 99.0)),
            max: s[s.len() - 1],
        }
    }

    /// The tail value to report: p99 when supported, otherwise the maximum.
    pub fn tail(&self) -> f64 {
        self.p99.unwrap_or(self.max)
    }
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, including its
/// extrapolation past the ends for very few values. One value gives itself
/// three times; `NaN`s when empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => [f64::NAN; 3],
        1 => [s[0]; 3],
        len => {
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let k = (i + 1) * (len + 1);
                let j = (k / 4).clamp(1, len - 1);
                let delta = k as f64 - (4 * j) as f64;
                *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));

        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        let l = Latency::of(&few);
        assert_eq!((l.n, l.p50, l.p99, l.max), (500, 250.0, None, 500.0));
        assert_eq!(l.tail(), 500.0, "an unsupported p99 falls back to the max");

        let many: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let l = Latency::of(&many);
        assert_eq!((l.p50, l.p99, l.max), (1000.0, Some(1980.0), 2000.0));
        assert_eq!(l.tail(), 1980.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
