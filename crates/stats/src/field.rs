//! Vectorised per-cell statistics over mesh-sized fields.
//!
//! Melissa computes *ubiquitous* statistics: one accumulator per mesh cell
//! (and per timestep).  Storing a struct per cell would scatter the hot
//! update loop across memory, so these types use a structure-of-arrays
//! layout (`Vec<f64>` per moment — few enough arrays per type that each
//! sweep stays prefetcher-friendly, unlike the `4 + 4p`-array Sobol' state,
//! which lives in the cell-contiguous tiled layout of `melissa-sobol`) and
//! update all cells of an incoming field in one sweep on the calling thread.
//!
//! On the server's hot path these accumulators are not updated through
//! their own `update` sweeps at all: the fused ingest kernel
//! (`melissa_sobol::FusedSlabUpdate`) folds them together with the Sobol'
//! state in a single pass, via the `#[doc(hidden)] fused_parts_mut`
//! accessors below.  The scalar recurrences are shared, so both paths are
//! bit-identical.

use crate::{MinMax, OnlineMoments, ThresholdExceedance};

/// Per-cell mean and 2nd–4th central moments over a field sample stream.
///
/// Equivalent to `Vec<OnlineMoments>` but stored as one array per moment.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMoments {
    n: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
    m3: Vec<f64>,
    m4: Vec<f64>,
}

impl FieldMoments {
    /// Creates accumulators for a field of `len` cells.
    pub fn new(len: usize) -> Self {
        Self {
            n: 0,
            mean: vec![0.0; len],
            m2: vec![0.0; len],
            m3: vec![0.0; len],
            m4: vec![0.0; len],
        }
    }

    /// Number of cells tracked.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// True when tracking zero cells.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Number of field samples folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Folds in one field sample (one value per cell).
    ///
    /// # Panics
    /// Panics if `sample.len() != self.len()`.
    pub fn update(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.len(), "field sample length mismatch");
        self.n += 1;
        let n = self.n as f64;
        let nn_term = n * n - 3.0 * n + 3.0;
        let cells = self
            .mean
            .iter_mut()
            .zip(&mut self.m2)
            .zip(&mut self.m3)
            .zip(&mut self.m4)
            .zip(sample);
        for ((((mean, m2), m3), m4), &x) in cells {
            let delta = x - *mean;
            let delta_n = delta / n;
            let delta_n2 = delta_n * delta_n;
            let term1 = delta * delta_n * (n - 1.0);
            *mean += delta_n;
            *m4 += term1 * delta_n2 * nn_term + 6.0 * delta_n2 * *m2 - 4.0 * delta_n * *m3;
            *m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * *m2;
            *m2 += term1;
        }
    }

    /// Per-cell running mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-cell unbiased sample variance.
    pub fn sample_variance(&self) -> Vec<f64> {
        if self.n < 2 {
            return vec![0.0; self.len()];
        }
        let denom = self.n as f64 - 1.0;
        self.m2.iter().map(|m2| m2 / denom).collect()
    }

    /// Per-cell skewness.
    pub fn skewness(&self) -> Vec<f64> {
        let n = self.n as f64;
        self.m2
            .iter()
            .zip(&self.m3)
            .map(|(&m2, &m3)| {
                if self.n < 2 || m2 <= 0.0 {
                    0.0
                } else {
                    n.sqrt() * m3 / m2.powf(1.5)
                }
            })
            .collect()
    }

    /// Per-cell excess kurtosis.
    pub fn excess_kurtosis(&self) -> Vec<f64> {
        let n = self.n as f64;
        self.m2
            .iter()
            .zip(&self.m4)
            .map(|(&m2, &m4)| {
                if self.n < 2 || m2 <= 0.0 {
                    0.0
                } else {
                    n * m4 / (m2 * m2) - 3.0
                }
            })
            .collect()
    }

    /// Scalar accumulator view of one cell (for tests and spot checks).
    pub fn cell(&self, i: usize) -> OnlineMoments {
        OnlineMoments::from_raw_state(self.n, self.mean[i], self.m2[i], self.m3[i], self.m4[i])
    }

    /// Merges another field accumulator (pairwise Pébay formulas per cell).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "field length mismatch");
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let cells = self
            .mean
            .iter_mut()
            .zip(&mut self.m2)
            .zip(&mut self.m3)
            .zip(&mut self.m4)
            .zip(&other.mean)
            .zip(&other.m2)
            .zip(&other.m3)
            .zip(&other.m4);
        for (((((((mean, m2), m3), m4), &omean), &om2), &om3), &om4) in cells {
            let delta = omean - *mean;
            let delta2 = delta * delta;
            let new_m4 = *m4
                + om4
                + delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
                + 6.0 * delta2 * (na * na * om2 + nb * nb * *m2) / (n * n)
                + 4.0 * delta * (na * om3 - nb * *m3) / n;
            let new_m3 = *m3
                + om3
                + delta2 * delta * na * nb * (na - nb) / (n * n)
                + 3.0 * delta * (na * om2 - nb * *m2) / n;
            let new_m2 = *m2 + om2 + delta2 * na * nb / n;
            *mean += delta * nb / n;
            *m2 = new_m2;
            *m3 = new_m3;
            *m4 = new_m4;
        }
        self.n += other.n;
    }

    /// Raw state accessors for checkpoint serialisation:
    /// `(n, mean, m2, m3, m4)`.
    pub fn raw_state(&self) -> (u64, &[f64], &[f64], &[f64], &[f64]) {
        (self.n, &self.mean, &self.m2, &self.m3, &self.m4)
    }

    /// Kernel-internal accessor for the fused server sweep: bumps the
    /// sample count by `add_samples` and hands out the pre-bump count plus
    /// the four moment arrays `(n_before, mean, m2, m3, m4)`.  The caller
    /// must fold exactly `add_samples` samples into every cell, using the
    /// same scalar recurrence as [`update`](Self::update).
    #[doc(hidden)]
    pub fn fused_parts_mut(
        &mut self,
        add_samples: u64,
    ) -> (u64, &mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        let before = self.n;
        self.n += add_samples;
        (
            before,
            &mut self.mean,
            &mut self.m2,
            &mut self.m3,
            &mut self.m4,
        )
    }

    /// Rebuilds from checkpointed raw state.
    ///
    /// # Panics
    /// Panics if the four moment arrays have different lengths.
    pub fn from_raw_state(
        n: u64,
        mean: Vec<f64>,
        m2: Vec<f64>,
        m3: Vec<f64>,
        m4: Vec<f64>,
    ) -> Self {
        assert!(
            mean.len() == m2.len() && m2.len() == m3.len() && m3.len() == m4.len(),
            "inconsistent moment array lengths"
        );
        Self {
            n,
            mean,
            m2,
            m3,
            m4,
        }
    }
}

/// Per-cell running min/max over a field sample stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMinMax {
    n: u64,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl FieldMinMax {
    /// Creates accumulators for `len` cells.
    pub fn new(len: usize) -> Self {
        Self {
            n: 0,
            min: vec![f64::INFINITY; len],
            max: vec![f64::NEG_INFINITY; len],
        }
    }

    /// Number of cells tracked.
    pub fn len(&self) -> usize {
        self.min.len()
    }

    /// True when tracking zero cells.
    pub fn is_empty(&self) -> bool {
        self.min.is_empty()
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Folds in one field sample.
    pub fn update(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.len(), "field sample length mismatch");
        self.n += 1;
        for ((lo, hi), &x) in self.min.iter_mut().zip(&mut self.max).zip(sample) {
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }

    /// Per-cell minimum (infinite when no samples seen).
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Per-cell maximum (−infinite when no samples seen).
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Merges another envelope over the same cells (exact).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "field length mismatch");
        for (a, &b) in self.min.iter_mut().zip(&other.min) {
            *a = a.min(b);
        }
        for (a, &b) in self.max.iter_mut().zip(&other.max) {
            *a = a.max(b);
        }
        self.n += other.n;
    }

    /// Scalar view of one cell.
    pub fn cell(&self, i: usize) -> MinMax {
        let mut mm = MinMax::new();
        if self.n > 0 {
            mm.update(self.min[i]);
            mm.update(self.max[i]);
        }
        mm
    }

    /// Raw state `(n, min, max)` for checkpointing.
    pub fn raw_state(&self) -> (u64, &[f64], &[f64]) {
        (self.n, &self.min, &self.max)
    }

    /// Kernel-internal accessor for the fused server sweep: bumps the
    /// sample count by `add_samples` and hands out `(min, max)`.
    #[doc(hidden)]
    pub fn fused_parts_mut(&mut self, add_samples: u64) -> (&mut [f64], &mut [f64]) {
        self.n += add_samples;
        (&mut self.min, &mut self.max)
    }

    /// Rebuilds from checkpointed raw state.
    ///
    /// # Panics
    /// Panics if the arrays have different lengths.
    pub fn from_raw_state(n: u64, min: Vec<f64>, max: Vec<f64>) -> Self {
        assert_eq!(min.len(), max.len(), "inconsistent min/max array lengths");
        Self { n, min, max }
    }
}

/// Per-cell threshold exceedance over a field sample stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldThreshold {
    threshold: f64,
    n: u64,
    exceeded: Vec<u64>,
}

impl FieldThreshold {
    /// Creates accumulators for `len` cells watching `threshold`.
    pub fn new(len: usize, threshold: f64) -> Self {
        Self {
            threshold,
            n: 0,
            exceeded: vec![0; len],
        }
    }

    /// Number of cells tracked.
    pub fn len(&self) -> usize {
        self.exceeded.len()
    }

    /// True when tracking zero cells.
    pub fn is_empty(&self) -> bool {
        self.exceeded.is_empty()
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The watched threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Folds in one field sample.
    pub fn update(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.len(), "field sample length mismatch");
        self.n += 1;
        let t = self.threshold;
        for (count, &x) in self.exceeded.iter_mut().zip(sample) {
            *count += (x > t) as u64;
        }
    }

    /// Merges another accumulator watching the same threshold over the
    /// same cells (exact: counts add).
    ///
    /// # Panics
    /// Panics on length or threshold mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "field length mismatch");
        assert_eq!(
            self.threshold.to_bits(),
            other.threshold.to_bits(),
            "threshold mismatch"
        );
        for (a, &b) in self.exceeded.iter_mut().zip(&other.exceeded) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Per-cell exceedance probability.
    pub fn probability(&self) -> Vec<f64> {
        if self.n == 0 {
            return vec![0.0; self.len()];
        }
        let n = self.n as f64;
        self.exceeded.iter().map(|&c| c as f64 / n).collect()
    }

    /// Raw state `(threshold, n, exceeded)` for checkpointing.
    pub fn raw_state(&self) -> (f64, u64, &[u64]) {
        (self.threshold, self.n, &self.exceeded)
    }

    /// Rebuilds from checkpointed raw state.
    pub fn from_raw_state(threshold: f64, n: u64, exceeded: Vec<u64>) -> Self {
        Self {
            threshold,
            n,
            exceeded,
        }
    }

    /// Kernel-internal accessor for the fused server sweep: bumps the
    /// sample count by `add_samples` and hands out the exceedance counts.
    #[doc(hidden)]
    pub fn fused_parts_mut(&mut self, add_samples: u64) -> (f64, &mut [u64]) {
        self.n += add_samples;
        (self.threshold, &mut self.exceeded)
    }

    /// Scalar view of one cell, built directly from the cell's raw state
    /// (the exceedance accumulator is fully determined by
    /// `(threshold, n, exceeded)` — no sample replay needed).
    pub fn cell(&self, i: usize) -> ThresholdExceedance {
        ThresholdExceedance::from_raw_state(self.threshold, self.n, self.exceeded[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fields(cells: usize, samples: usize) -> Vec<Vec<f64>> {
        (0..samples)
            .map(|s| {
                (0..cells)
                    .map(|c| ((s * 31 + c * 17) % 97) as f64 * 0.13 - 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn field_moments_match_per_cell_scalar_accumulators() {
        let fields = sample_fields(50, 20);
        let mut fm = FieldMoments::new(50);
        let mut scalar: Vec<OnlineMoments> = vec![OnlineMoments::new(); 50];
        for f in &fields {
            fm.update(f);
            for (acc, &x) in scalar.iter_mut().zip(f) {
                acc.update(x);
            }
        }
        for (c, sc) in scalar.iter().enumerate() {
            let cell = fm.cell(c);
            assert!((cell.mean() - sc.mean()).abs() < 1e-12);
            assert!((cell.sample_variance() - sc.sample_variance()).abs() < 1e-12);
            assert!((cell.skewness() - sc.skewness()).abs() < 1e-9);
            assert!((cell.excess_kurtosis() - sc.excess_kurtosis()).abs() < 1e-9);
        }
    }

    #[test]
    fn field_moments_merge_matches_sequential() {
        let fields = sample_fields(33, 16);
        let mut a = FieldMoments::new(33);
        let mut b = FieldMoments::new(33);
        for f in &fields[..7] {
            a.update(f);
        }
        for f in &fields[7..] {
            b.update(f);
        }
        a.merge(&b);
        let mut seq = FieldMoments::new(33);
        for f in &fields {
            seq.update(f);
        }
        assert_eq!(a.count(), seq.count());
        for c in 0..33 {
            assert!((a.mean()[c] - seq.mean()[c]).abs() < 1e-12);
            assert!((a.sample_variance()[c] - seq.sample_variance()[c]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn field_moments_reject_wrong_length() {
        FieldMoments::new(4).update(&[1.0, 2.0]);
    }

    #[test]
    fn field_minmax_tracks_envelope() {
        let mut mm = FieldMinMax::new(3);
        mm.update(&[1.0, -2.0, 5.0]);
        mm.update(&[0.0, 3.0, 5.0]);
        assert_eq!(mm.min(), &[0.0, -2.0, 5.0]);
        assert_eq!(mm.max(), &[1.0, 3.0, 5.0]);
        assert_eq!(mm.count(), 2);
    }

    #[test]
    fn field_threshold_probability() {
        let mut t = FieldThreshold::new(2, 0.5);
        t.update(&[0.0, 1.0]);
        t.update(&[1.0, 1.0]);
        t.update(&[0.2, 0.4]);
        let p = t.probability();
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-15);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn raw_state_roundtrips() {
        let fields = sample_fields(11, 5);
        let mut fm = FieldMoments::new(11);
        for f in &fields {
            fm.update(f);
        }
        let (n, mean, m2, m3, m4) = {
            let (n, a, b, c, d) = fm.raw_state();
            (n, a.to_vec(), b.to_vec(), c.to_vec(), d.to_vec())
        };
        let back = FieldMoments::from_raw_state(n, mean, m2, m3, m4);
        assert_eq!(fm, back);
    }
}
