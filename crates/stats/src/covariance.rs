//! One-pass covariance of paired samples.
//!
//! The Sobol' index estimators of the Melissa paper (Eqs. 5–7) are ratios of
//! covariances and variances; this module provides the iterative covariance
//! building block (Pébay 2008 co-moment update and merge).

use crate::OnlineMoments;

/// One-pass accumulator for the covariance of a paired sample stream
/// `(x_i, y_i)`.
///
/// Internally stores the sample count, the two running means and the
/// unnormalised co-moment `C2 = Σ(x−μx)(y−μy)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineCovariance {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    c2: f64,
}

impl OnlineCovariance {
    /// Creates an empty accumulator.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs an accumulator from raw state (checkpoint restore).
    #[inline]
    pub fn from_raw_state(n: u64, mean_x: f64, mean_y: f64, c2: f64) -> Self {
        Self {
            n,
            mean_x,
            mean_y,
            c2,
        }
    }

    /// Returns the raw state `(n, mean_x, mean_y, C2)`.
    #[inline]
    pub fn raw_state(&self) -> (u64, f64, f64, f64) {
        (self.n, self.mean_x, self.mean_y, self.c2)
    }

    /// Folds one paired sample into the accumulator.
    #[inline]
    pub fn update(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        self.mean_y += (y - self.mean_y) / n;
        // Uses the pre-update x-mean delta and the post-update y-mean, which
        // yields the exact single-pass co-moment recurrence.
        self.c2 += dx * (y - self.mean_y);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let dx = other.mean_x - self.mean_x;
        let dy = other.mean_y - self.mean_y;
        self.c2 += other.c2 + dx * dy * na * nb / n;
        self.mean_x += dx * nb / n;
        self.mean_y += dy * nb / n;
        self.n += other.n;
    }

    /// Number of pairs folded in so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean of the `x` stream.
    #[inline]
    pub fn mean_x(&self) -> f64 {
        self.mean_x
    }

    /// Running mean of the `y` stream.
    #[inline]
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Unbiased sample covariance `C2 / (n − 1)`; `0.0` when `n < 2`.
    #[inline]
    pub fn sample_covariance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.c2 / (self.n as f64 - 1.0)
        }
    }

    /// Unnormalised co-moment `Σ(x−μx)(y−μy)`.
    #[inline]
    pub fn c2(&self) -> f64 {
        self.c2
    }

    /// Pearson correlation given externally tracked marginal accumulators.
    ///
    /// Melissa tracks the marginal moments of each sample vector once and
    /// shares them across several covariance accumulators, so the
    /// correlation is exposed as a free function of the three accumulators.
    pub fn correlation(&self, x_moments: &OnlineMoments, y_moments: &OnlineMoments) -> f64 {
        let vx = x_moments.sample_variance();
        let vy = y_moments.sample_variance();
        if vx <= 0.0 || vy <= 0.0 {
            return 0.0;
        }
        self.sample_covariance() / (vx.sqrt() * vy.sqrt())
    }
}

impl std::iter::FromIterator<(f64, f64)> for OnlineCovariance {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut acc = Self::new();
        for (x, y) in iter {
            acc.update(x, y);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{a} != {b} (tol {tol})"
        );
    }

    fn paired_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 4.0 + 1.0)
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.11).cos())
            .collect();
        (xs, ys)
    }

    #[test]
    fn empty_and_single_are_safe() {
        let mut acc = OnlineCovariance::new();
        assert_eq!(acc.sample_covariance(), 0.0);
        acc.update(1.0, 2.0);
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.sample_covariance(), 0.0);
        assert_eq!(acc.mean_x(), 1.0);
        assert_eq!(acc.mean_y(), 2.0);
    }

    #[test]
    fn matches_two_pass() {
        let (xs, ys) = paired_data(777);
        let acc: OnlineCovariance = xs.iter().copied().zip(ys.iter().copied()).collect();
        assert_close(
            acc.sample_covariance(),
            batch::sample_covariance(&xs, &ys),
            1e-12,
        );
        assert_close(acc.mean_x(), batch::mean(&xs), 1e-12);
        assert_close(acc.mean_y(), batch::mean(&ys), 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let (xs, ys) = paired_data(300);
        for split in [0usize, 1, 150, 299, 300] {
            let mut a: OnlineCovariance = xs[..split]
                .iter()
                .copied()
                .zip(ys[..split].iter().copied())
                .collect();
            let b: OnlineCovariance = xs[split..]
                .iter()
                .copied()
                .zip(ys[split..].iter().copied())
                .collect();
            a.merge(&b);
            let seq: OnlineCovariance = xs.iter().copied().zip(ys.iter().copied()).collect();
            assert_eq!(a.count(), seq.count());
            assert_close(a.c2(), seq.c2(), 1e-10);
        }
    }

    #[test]
    fn perfectly_correlated_streams() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 7.0).collect();
        let cov: OnlineCovariance = xs.iter().copied().zip(ys.iter().copied()).collect();
        let mx: OnlineMoments = xs.iter().copied().collect();
        let my: OnlineMoments = ys.iter().copied().collect();
        assert_close(cov.correlation(&mx, &my), 1.0, 1e-12);
    }

    #[test]
    fn anticorrelated_streams() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        let cov: OnlineCovariance = xs.iter().copied().zip(ys.iter().copied()).collect();
        let mx: OnlineMoments = xs.iter().copied().collect();
        let my: OnlineMoments = ys.iter().copied().collect();
        assert_close(cov.correlation(&mx, &my), -1.0, 1e-12);
    }

    #[test]
    fn correlation_of_degenerate_stream_is_zero() {
        let cov: OnlineCovariance = (0..10).map(|i| (1.0, i as f64)).collect();
        let mx: OnlineMoments = std::iter::repeat_n(1.0, 10).collect();
        let my: OnlineMoments = (0..10).map(|i| i as f64).collect();
        assert_eq!(cov.correlation(&mx, &my), 0.0);
    }

    #[test]
    fn raw_state_roundtrip() {
        let acc: OnlineCovariance = (0..13).map(|i| (i as f64, (i * i) as f64)).collect();
        let (n, mx, my, c2) = acc.raw_state();
        assert_eq!(acc, OnlineCovariance::from_raw_state(n, mx, my, c2));
    }
}
