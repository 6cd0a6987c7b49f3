//! Order statistics for the benchmark's own reporting.
//!
//! Two conventions are in use and kept apart on purpose:
//!
//! * [`quartiles`] reproduces Python's `statistics.quantiles(v, n=4)`
//!   (the "exclusive" method), because that is how a spread between runs
//!   is judged against a metric's bound — the benchmark's own
//!   `--check-agreement` has to compute the same number;
//! * [`percentile`] interpolates linearly between order statistics (the
//!   common default), used for latencies and span durations.

/// Sorts a sample of finite values ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are finite"));
    v
}

/// Median of a sample (mean of the two middle values for even `n`).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Percentile `q ∈ [0, 1]` of an ascending sample, linearly interpolated
/// between the two nearest order statistics (so that with a handful of
/// samples p90 is not simply the maximum).
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile up to `q` that still has at least ten samples
/// beyond it — and never less than the median: a tail percentile of a
/// handful of samples is just their maximum.  With 120 samples `q = 0.9`
/// stands; with 60 it becomes p83; below 20 it is the median.
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    q.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(v, n=4)` computes them.  A single value is its
/// own three quartiles (Python raises there; a one-run report still has
/// to print something).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let s = sorted(v.to_vec());
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Median, quartiles and count of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(v: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(v);
        Self {
            median: median(v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Interquartile distance as a share of the median — the spread a
    /// bound is compared with.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = sorted((1..=120).map(f64::from).collect());
        assert_eq!(percentile(&s, 0.5), 60.5);
        // 12 of the 120 samples lie beyond the reported p90.
        assert!((percentile(&s, 0.9) - 108.1).abs() < 1e-9);
        assert_eq!(percentile(&s, 1.0), 120.0);
        assert_eq!(percentile(&[9.0], 0.9), 9.0);
        // Five samples: p90 sits between the two largest, not on the max.
        assert!((percentile(&[1.0, 2.0, 3.0, 4.0, 14.0], 0.9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_quantile(120, 0.9), 0.9);
        assert_eq!(supported_quantile(100, 0.9), 0.9);
        assert!((supported_quantile(60, 0.9) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(supported_quantile(20, 0.9), 0.5);
        assert_eq!(supported_quantile(6, 0.9), 0.5);
        assert_eq!(supported_quantile(1, 0.9), 0.5);
    }

    #[test]
    fn summary_spread_and_worsening() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
        assert_eq!(s.spread(), 1.0);
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }
}
