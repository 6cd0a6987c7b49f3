//! Iterative Martinez estimator for a scalar output (paper Section 3.3).
//!
//! After `i` completed groups the partial Sobol' indices are (paper Eq. 7):
//!
//! ```text
//! S_k(i)  =     Cov(Y^B_{[:i]}, Y^{C^k}_{[:i]}) / (σ(Y^B_{[:i]}) σ(Y^{C^k}_{[:i]}))
//! ST_k(i) = 1 − Cov(Y^A_{[:i]}, Y^{C^k}_{[:i]}) / (σ(Y^A_{[:i]}) σ(Y^{C^k}_{[:i]}))
//! ```
//!
//! All variances and covariances have exact one-pass update formulas, so the
//! estimator state is `O(p)` independent of the number of groups, and groups
//! may arrive in **any order** (addition of group contributions commutes —
//! property-tested in `tests/proptest_sobol.rs`).

use melissa_stats::{OnlineCovariance, OnlineMoments};

use crate::confidence::{first_order_interval, total_order_interval, ConfidenceInterval};

/// One-pass accumulator of all first-order and total Sobol' indices of a
/// scalar output.
///
/// Feed it one `p + 2`-vector of outputs per completed simulation group
/// (canonical role order `[Y^A_i, Y^B_i, Y^{C^0}_i, …, Y^{C^{p−1}}_i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeSobol {
    p: usize,
    /// Marginal moments of Y^A.
    mom_a: OnlineMoments,
    /// Marginal moments of Y^B.
    mom_b: OnlineMoments,
    /// Marginal moments of each Y^{C^k}.
    mom_c: Vec<OnlineMoments>,
    /// Co-moments of (Y^B, Y^{C^k}) — numerator of S_k.
    cov_bc: Vec<OnlineCovariance>,
    /// Co-moments of (Y^A, Y^{C^k}) — numerator of 1 − ST_k.
    cov_ac: Vec<OnlineCovariance>,
}

impl IterativeSobol {
    /// Creates an accumulator for `p` input parameters.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "need at least one parameter");
        Self {
            p,
            mom_a: OnlineMoments::new(),
            mom_b: OnlineMoments::new(),
            mom_c: vec![OnlineMoments::new(); p],
            cov_bc: vec![OnlineCovariance::new(); p],
            cov_ac: vec![OnlineCovariance::new(); p],
        }
    }

    /// Number of input parameters `p`.
    pub fn dim(&self) -> usize {
        self.p
    }

    /// Number of groups folded in so far (the sample size `i` of Eq. 7).
    pub fn n_groups(&self) -> u64 {
        self.mom_a.count()
    }

    /// Folds in the outputs of one completed group, in canonical role order
    /// `[Y^A, Y^B, Y^{C^0}, …, Y^{C^{p−1}}]`.
    ///
    /// # Panics
    /// Panics if `outputs.len() != p + 2`.
    pub fn update_group(&mut self, outputs: &[f64]) {
        assert_eq!(outputs.len(), self.p + 2, "expected p + 2 outputs");
        let ya = outputs[0];
        let yb = outputs[1];
        self.mom_a.update(ya);
        self.mom_b.update(yb);
        for k in 0..self.p {
            let yc = outputs[2 + k];
            self.mom_c[k].update(yc);
            self.cov_bc[k].update(yb, yc);
            self.cov_ac[k].update(ya, yc);
        }
    }

    /// Merges another accumulator (e.g. from a parallel reduction tree).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.p, other.p, "dimension mismatch");
        self.mom_a.merge(&other.mom_a);
        self.mom_b.merge(&other.mom_b);
        for k in 0..self.p {
            self.mom_c[k].merge(&other.mom_c[k]);
            self.cov_bc[k].merge(&other.cov_bc[k]);
            self.cov_ac[k].merge(&other.cov_ac[k]);
        }
    }

    /// Current first-order index estimate `S_k` (Martinez, Eq. 5).
    /// Returns `0.0` while fewer than two groups have been seen or when a
    /// marginal variance is degenerate.
    pub fn first_order(&self, k: usize) -> f64 {
        self.cov_bc[k].correlation(&self.mom_b, &self.mom_c[k])
    }

    /// Current total-order index estimate `ST_k` (Martinez, Eq. 6).
    pub fn total_order(&self, k: usize) -> f64 {
        1.0 - self.cov_ac[k].correlation(&self.mom_a, &self.mom_c[k])
    }

    /// All first-order indices.
    pub fn first_order_all(&self) -> Vec<f64> {
        (0..self.p).map(|k| self.first_order(k)).collect()
    }

    /// `1 − Σ_k S_k`: the share of output variance attributed to parameter
    /// interactions (paper Section 5.5, item 4).
    pub fn interaction_share(&self) -> f64 {
        1.0 - self.first_order_all().iter().sum::<f64>()
    }

    /// 95 % asymptotic confidence interval on `S_k` (paper Eq. 8).
    pub fn first_order_ci(&self, k: usize) -> ConfidenceInterval {
        first_order_interval(self.first_order(k), self.n_groups())
    }

    /// 95 % asymptotic confidence interval on `ST_k` (paper Eq. 9).
    pub fn total_order_ci(&self, k: usize) -> ConfidenceInterval {
        total_order_interval(self.total_order(k), self.n_groups())
    }

    /// Width of the widest 95 % confidence interval over all first-order and
    /// total indices — Melissa's convergence-control criterion
    /// (paper Sections 3.4 and 4.1.5).
    pub fn max_ci_width(&self) -> f64 {
        (0..self.p)
            .flat_map(|k| {
                [
                    self.first_order_ci(k).width(),
                    self.total_order_ci(k).width(),
                ]
            })
            .fold(f64::INFINITY, |acc, w| {
                if acc.is_infinite() {
                    w
                } else {
                    acc.max(w)
                }
            })
    }

    /// Estimated output variance (from the pooled `Y^A` sample).
    pub fn output_variance(&self) -> f64 {
        self.mom_a.sample_variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PickFreeze;
    use crate::estimators;
    use crate::testfn::{Ishigami, TestFunction};

    /// Runs the full pick-freeze pipeline on a test function.
    fn run_iterative(f: &impl TestFunction, n: usize, seed: u64) -> IterativeSobol {
        let design = PickFreeze::generate(n, &f.parameter_space(), seed);
        let mut sobol = IterativeSobol::new(f.dim());
        for g in design.groups() {
            let ys: Vec<f64> = g.rows().iter().map(|r| f.eval(r)).collect();
            sobol.update_group(&ys);
        }
        sobol
    }

    #[test]
    fn matches_batch_martinez_exactly() {
        let f = Ishigami::default();
        let design = PickFreeze::generate(300, &f.parameter_space(), 3);
        let mut it = IterativeSobol::new(3);
        let mut ya = Vec::new();
        let mut yb = Vec::new();
        let mut yc = vec![Vec::new(); 3];
        for g in design.groups() {
            let ys: Vec<f64> = g.rows().iter().map(|r| f.eval(r)).collect();
            it.update_group(&ys);
            ya.push(ys[0]);
            yb.push(ys[1]);
            for k in 0..3 {
                yc[k].push(ys[2 + k]);
            }
        }
        for (k, yck) in yc.iter().enumerate() {
            let s_batch = estimators::martinez_first_order(&yb, yck);
            let st_batch = estimators::martinez_total_order(&ya, yck);
            assert!(
                (it.first_order(k) - s_batch).abs() < 1e-12,
                "S_{k}: iterative {} vs batch {s_batch}",
                it.first_order(k)
            );
            assert!(
                (it.total_order(k) - st_batch).abs() < 1e-12,
                "ST_{k}: iterative {} vs batch {st_batch}",
                it.total_order(k)
            );
        }
    }

    #[test]
    fn converges_to_analytic_ishigami_indices() {
        let f = Ishigami::default();
        let sobol = run_iterative(&f, 6000, 17);
        let s_ref = f.analytic_first_order();
        let st_ref = f.analytic_total_order();
        for k in 0..3 {
            assert!(
                (sobol.first_order(k) - s_ref[k]).abs() < 0.05,
                "S_{k}: {} vs analytic {}",
                sobol.first_order(k),
                s_ref[k]
            );
            assert!(
                (sobol.total_order(k) - st_ref[k]).abs() < 0.05,
                "ST_{k}: {} vs analytic {}",
                sobol.total_order(k),
                st_ref[k]
            );
        }
    }

    #[test]
    fn group_order_does_not_matter() {
        let f = Ishigami::default();
        let design = PickFreeze::generate(200, &f.parameter_space(), 5);
        let outputs: Vec<Vec<f64>> = design
            .groups()
            .map(|g| g.rows().iter().map(|r| f.eval(r)).collect())
            .collect();

        let mut fwd = IterativeSobol::new(3);
        outputs.iter().for_each(|ys| fwd.update_group(ys));
        let mut rev = IterativeSobol::new(3);
        outputs.iter().rev().for_each(|ys| rev.update_group(ys));

        for k in 0..3 {
            assert!((fwd.first_order(k) - rev.first_order(k)).abs() < 1e-10);
            assert!((fwd.total_order(k) - rev.total_order(k)).abs() < 1e-10);
        }
    }

    #[test]
    fn merge_equals_sequential_feed() {
        let f = Ishigami::default();
        let design = PickFreeze::generate(100, &f.parameter_space(), 5);
        let outputs: Vec<Vec<f64>> = design
            .groups()
            .map(|g| g.rows().iter().map(|r| f.eval(r)).collect())
            .collect();

        let mut whole = IterativeSobol::new(3);
        outputs.iter().for_each(|ys| whole.update_group(ys));

        let mut left = IterativeSobol::new(3);
        outputs[..40].iter().for_each(|ys| left.update_group(ys));
        let mut right = IterativeSobol::new(3);
        outputs[40..].iter().for_each(|ys| right.update_group(ys));
        left.merge(&right);

        assert_eq!(left.n_groups(), whole.n_groups());
        for k in 0..3 {
            assert!((left.first_order(k) - whole.first_order(k)).abs() < 1e-10);
            assert!((left.total_order(k) - whole.total_order(k)).abs() < 1e-10);
        }
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let f = Ishigami::default();
        let small = run_iterative(&f, 64, 2);
        let large = run_iterative(&f, 4096, 2);
        assert!(large.max_ci_width() < small.max_ci_width());
        assert!(large.max_ci_width() < 0.12);
    }

    #[test]
    fn interaction_share_is_small_for_additive_model() {
        // Additive model: y = 2 x1 + x2 → no interactions.
        let space = crate::param::ParameterSpace::new(vec![
            crate::param::Parameter::uniform("x1", 0.0, 1.0),
            crate::param::Parameter::uniform("x2", 0.0, 1.0),
        ]);
        let design = PickFreeze::generate(4000, &space, 21);
        let mut sobol = IterativeSobol::new(2);
        for g in design.groups() {
            let ys: Vec<f64> = g.rows().iter().map(|r| 2.0 * r[0] + r[1]).collect();
            sobol.update_group(&ys);
        }
        assert!(
            sobol.interaction_share().abs() < 0.05,
            "{}",
            sobol.interaction_share()
        );
        // Analytic: S1 = 4/5, S2 = 1/5.
        assert!((sobol.first_order(0) - 0.8).abs() < 0.05);
        assert!((sobol.first_order(1) - 0.2).abs() < 0.05);
    }

    #[test]
    fn degenerate_output_yields_zero_indices() {
        let mut sobol = IterativeSobol::new(2);
        for _ in 0..10 {
            sobol.update_group(&[1.0, 1.0, 1.0, 1.0]);
        }
        assert_eq!(sobol.first_order(0), 0.0);
        assert_eq!(sobol.total_order(0), 1.0); // 1 − 0 correlation
        assert_eq!(sobol.output_variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "p + 2")]
    fn wrong_group_size_panics() {
        IterativeSobol::new(3).update_group(&[1.0, 2.0]);
    }
}
