//! One-pass central moments up to order four.
//!
//! Implements the numerically stable single-sample update and pairwise merge
//! formulas of Pébay, *Formulas for robust, one-pass parallel computation of
//! covariances and arbitrary-order statistical moments* (SAND2008-6212) —
//! reference \[34\] of the Melissa paper.  The order-2 special case is the
//! classical Welford (1962) recurrence.

/// One-pass accumulator for mean and the 2nd–4th central moments.
///
/// Internally stores the sample count `n`, the running mean, and the
/// unnormalised central moment sums `M2 = Σ(x−μ)²`, `M3 = Σ(x−μ)³`,
/// `M4 = Σ(x−μ)⁴`.  Updating with a sample is `O(1)`; merging two
/// accumulators is `O(1)`, enabling parallel reduction trees.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs an accumulator from raw state (used by checkpoint
    /// restore).  The caller is responsible for providing values produced by
    /// [`raw_state`](Self::raw_state).
    #[inline]
    pub fn from_raw_state(n: u64, mean: f64, m2: f64, m3: f64, m4: f64) -> Self {
        Self {
            n,
            mean,
            m2,
            m3,
            m4,
        }
    }

    /// Returns the raw state `(n, mean, M2, M3, M4)` (used by checkpointing).
    #[inline]
    pub fn raw_state(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.m3, self.m4)
    }

    /// Folds one sample into the accumulator (Welford/Pébay update).
    #[inline]
    pub fn update(&mut self, x: f64) {
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * (n - 1.0);
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Merges another accumulator into this one (Pébay pairwise formulas).
    ///
    /// After the call, `self` is exactly the accumulator that would have been
    /// obtained by feeding both sample streams into a single accumulator
    /// (up to floating-point rounding).
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
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta3 * delta;

        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
    }

    /// Number of samples folded in so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance `M2 / (n − 1)`; `0.0` when `n < 2`.
    #[inline]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Population (biased) variance `M2 / n`; `0.0` when empty.
    #[inline]
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Skewness `√n · M3 / M2^{3/2}`; `0.0` when undefined.
    pub fn skewness(&self) -> f64 {
        if self.n < 2 || self.m2 <= 0.0 {
            0.0
        } else {
            (self.n as f64).sqrt() * self.m3 / self.m2.powf(1.5)
        }
    }

    /// Excess kurtosis `n · M4 / M2² − 3`; `0.0` when undefined.
    pub fn excess_kurtosis(&self) -> f64 {
        if self.n < 2 || self.m2 <= 0.0 {
            0.0
        } else {
            self.n as f64 * self.m4 / (self.m2 * self.m2) - 3.0
        }
    }

    /// Unnormalised second central moment `Σ(x−μ)²`.
    #[inline]
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Unnormalised third central moment `Σ(x−μ)³`.
    #[inline]
    pub fn m3(&self) -> f64 {
        self.m3
    }

    /// Unnormalised fourth central moment `Σ(x−μ)⁴`.
    #[inline]
    pub fn m4(&self) -> f64 {
        self.m4
    }
}

impl std::iter::FromIterator<f64> for OnlineMoments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        for x in iter {
            acc.update(x);
        }
        acc
    }
}

impl Extend<f64> for OnlineMoments {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.update(x);
        }
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

    #[test]
    fn empty_accumulator_is_safe() {
        let acc = OnlineMoments::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.skewness(), 0.0);
        assert_eq!(acc.excess_kurtosis(), 0.0);
    }

    #[test]
    fn single_sample() {
        let acc: OnlineMoments = [42.0].into_iter().collect();
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.mean(), 42.0);
        assert_eq!(acc.sample_variance(), 0.0);
    }

    #[test]
    fn matches_two_pass_on_known_data() {
        let data: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 101) as f64 * 0.71 - 13.0)
            .collect();
        let acc: OnlineMoments = data.iter().copied().collect();
        assert_close(acc.mean(), batch::mean(&data), 1e-12);
        assert_close(acc.sample_variance(), batch::sample_variance(&data), 1e-12);
        assert_close(acc.skewness(), batch::skewness(&data), 1e-10);
        assert_close(acc.excess_kurtosis(), batch::excess_kurtosis(&data), 1e-10);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        for split in [0usize, 1, 7, 250, 499, 500] {
            let mut a: OnlineMoments = data[..split].iter().copied().collect();
            let b: OnlineMoments = data[split..].iter().copied().collect();
            a.merge(&b);
            let seq: OnlineMoments = data.iter().copied().collect();
            assert_eq!(a.count(), seq.count());
            assert_close(a.mean(), seq.mean(), 1e-12);
            assert_close(a.m2(), seq.m2(), 1e-10);
            assert_close(a.m3(), seq.m3(), 1e-9);
            assert_close(a.m4(), seq.m4(), 1e-9);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineMoments = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineMoments::new());
        assert_eq!(a, before);

        let mut e = OnlineMoments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn constant_samples_have_zero_variance() {
        let acc: OnlineMoments = std::iter::repeat_n(5.5, 100).collect();
        assert_close(acc.mean(), 5.5, 1e-15);
        assert!(acc.sample_variance().abs() < 1e-20);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Catastrophic cancellation killer: tiny variance on a huge offset.
        let data: Vec<f64> = (0..10_000).map(|i| 1e9 + (i % 7) as f64 * 0.001).collect();
        let acc: OnlineMoments = data.iter().copied().collect();
        let exact = batch::sample_variance(&data);
        assert_close(acc.sample_variance(), exact, 1e-6);
        assert!(acc.sample_variance() > 0.0);
    }

    #[test]
    fn raw_state_roundtrip() {
        let acc: OnlineMoments = (0..17).map(|i| i as f64 * 1.3).collect();
        let (n, mean, m2, m3, m4) = acc.raw_state();
        let back = OnlineMoments::from_raw_state(n, mean, m2, m3, m4);
        assert_eq!(acc, back);
    }

    #[test]
    fn skewness_sign_follows_distribution() {
        // Right-skewed data: exponential-ish.
        let right: OnlineMoments = (1..2000).map(|i| (i as f64 / 100.0).exp() % 50.0).collect();
        let sym: OnlineMoments = (-1000..=1000).map(|i| i as f64).collect();
        assert!(sym.skewness().abs() < 1e-10);
        assert!(right.skewness().abs() > 0.01);
    }
}
