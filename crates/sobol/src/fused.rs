//! Fused single-sweep server ingest kernel.
//!
//! When a `(group, timestep)` assembly completes, Melissa Server must fold
//! the `p + 2` role fields into **five** statistics families: the
//! ubiquitous Sobol' state (all roles), and the field moments, min/max
//! envelope, threshold-exceedance counters and Robbins–Monro quantile
//! estimates (the i.i.d. `Y^A`/`Y^B` samples only, paper Section 4.1).
//! Doing that as independent parallel sweeps re-reads the fields and re-pays
//! the parallel dispatch per statistic; [`FusedSlabUpdate`] folds
//! everything in **one** tile-parallel pass: each tile task updates its
//! slice of every accumulator while the incoming field stripe is hot in
//! L1.
//!
//! The fused path is arithmetic-for-arithmetic identical to calling
//! [`UbiquitousSobol::update_group`] followed by the individual
//! `FieldMoments::update(Y^A)`, `update(Y^B)` (and likewise min/max,
//! thresholds and quantiles) — same scalar recurrences, same operation
//! order per cell — so results are bit-compatible with the unfused
//! reference path (property-tested in `melissa`'s `proptest_server.rs`).

use melissa_sync::for_each_index;

use melissa_stats::quantiles::{rm_step_scale, update_tile_quantiles_pair};
use melissa_stats::{
    tile_cells, DisjointSlices, FieldMinMax, FieldMoments, FieldQuantiles, FieldThreshold,
};

use crate::ubiquitous::{update_tile_records, UbiquitousSobol};

/// One-sweep update of all per-timestep server statistics over a slab.
///
/// Borrows every accumulator of one timestep; [`apply`](Self::apply)
/// consumes the borrow after folding in one completed group.
pub struct FusedSlabUpdate<'a> {
    sobol: &'a mut UbiquitousSobol,
    moments: &'a mut FieldMoments,
    minmax: &'a mut FieldMinMax,
    thresholds: &'a mut [FieldThreshold],
    quantiles: Option<&'a mut FieldQuantiles>,
}

impl<'a> FusedSlabUpdate<'a> {
    /// Binds the accumulators of one timestep (`quantiles` is optional:
    /// order statistics are only tracked when configured).
    ///
    /// # Panics
    /// Panics if any accumulator covers a different number of cells than
    /// the Sobol' state.
    pub fn new(
        sobol: &'a mut UbiquitousSobol,
        moments: &'a mut FieldMoments,
        minmax: &'a mut FieldMinMax,
        thresholds: &'a mut [FieldThreshold],
        quantiles: Option<&'a mut FieldQuantiles>,
    ) -> Self {
        let cells = sobol.cells();
        assert_eq!(moments.len(), cells, "moments cell-count mismatch");
        assert_eq!(minmax.len(), cells, "min/max cell-count mismatch");
        for t in thresholds.iter() {
            assert_eq!(t.len(), cells, "threshold cell-count mismatch");
        }
        if let Some(q) = &quantiles {
            assert_eq!(q.len(), cells, "quantile cell-count mismatch");
        }
        Self {
            sobol,
            moments,
            minmax,
            thresholds,
            quantiles,
        }
    }

    /// Folds one completed group's `p + 2` role fields into every bound
    /// accumulator in a single tile-parallel sweep.
    ///
    /// # Panics
    /// Panics if the number of fields is not `p + 2` or any field length
    /// differs from the slab size.
    pub fn apply(self, fields: &[&[f64]]) {
        let p = self.sobol.dim();
        let cells = self.sobol.cells();
        assert_eq!(fields.len(), p + 2, "expected p + 2 result fields");
        for f in fields {
            assert_eq!(f.len(), cells, "field length mismatch");
        }

        // Bump all sample counts up front; tile tasks then only touch
        // per-cell storage.  Sobol' sees one group; the auxiliary
        // statistics see the two i.i.d. samples Y^A and Y^B.
        let (n_group, stride, sobol_state) = self.sobol.fused_parts_mut();
        let (n0, m_mean, m_m2, m_m3, m_m4) = self.moments.fused_parts_mut(2);
        let (mn, mx) = self.minmax.fused_parts_mut(2);
        // Quantile records fold Y^A at count n0 + 1 and Y^B at n0 + 2 —
        // exactly as two consecutive `FieldQuantiles::update` calls would.
        let quant = self.quantiles.map(|q| {
            let (qn0, gamma, qstride, probs, qstate) = q.fused_parts_mut(2);
            let scale_a = rm_step_scale(qn0 + 1, gamma);
            let scale_b = rm_step_scale(qn0 + 2, gamma);
            (
                qn0 == 0,
                scale_a,
                scale_b,
                qstride,
                probs,
                DisjointSlices::new(qstate),
            )
        });
        // Threshold list length is runtime-configured; two pointers per
        // threshold is the only per-call heap use on the fused path.
        let thr: Vec<(f64, DisjointSlices<'_, u64>)> = self
            .thresholds
            .iter_mut()
            .map(|t| {
                let (threshold, exceeded) = t.fused_parts_mut(2);
                (threshold, DisjointSlices::new(exceeded))
            })
            .collect();

        let sobol_state = DisjointSlices::new(sobol_state);
        let m_mean = DisjointSlices::new(m_mean);
        let m_m2 = DisjointSlices::new(m_m2);
        let m_m3 = DisjointSlices::new(m_m3);
        let m_m4 = DisjointSlices::new(m_m4);
        let mn = DisjointSlices::new(mn);
        let mx = DisjointSlices::new(mx);

        // Welford/Pébay terms for the two auxiliary samples: the first
        // sample lands at count n0 + 1, the second at n0 + 2 — exactly as
        // two consecutive `FieldMoments::update` calls would.
        let n1 = (n0 + 1) as f64;
        let n2 = (n0 + 2) as f64;
        let nn_term1 = n1 * n1 - 3.0 * n1 + 3.0;
        let nn_term2 = n2 * n2 - 3.0 * n2 + 3.0;

        // The fused sweep touches EVERY family's record for a cell while
        // its field stripe is hot, so the tile must be sized to the
        // *combined* per-cell state — Sobol' (4 + 4p) + moments (4) +
        // min/max (2) + one u64 counter per threshold + the quantile
        // record — not to the Sobol' stride alone.  Sizing by Sobol' only
        // overflows the L1 budget once quantiles are enabled and turns
        // the whole sweep L2-bound.
        let fused_doubles_per_cell = stride
            + 4
            + 2
            + thr.len()
            + quant
                .as_ref()
                .map_or(0, |(_, _, _, qstride, _, _)| *qstride);
        let tile = tile_cells(fused_doubles_per_cell);
        let n_tiles = cells.div_ceil(tile);
        let sobol_ref = &sobol_state;
        let thr_ref = &thr;
        let quant_ref = &quant;
        let (m_mean, m_m2, m_m3, m_m4, mn, mx) = (&m_mean, &m_m2, &m_m3, &m_m4, &mn, &mx);
        for_each_index(0..n_tiles, 0, move |t| {
            let c0 = t * tile;
            let c1 = (c0 + tile).min(cells);
            // SAFETY (all range_mut calls below): tile cell ranges are
            // pairwise disjoint across tasks.
            let recs = unsafe { sobol_ref.range_mut(c0 * stride..c1 * stride) };
            update_tile_records(recs, fields, c0, p, stride, n_group);

            let wa = &fields[0][c0..c1];
            let wb = &fields[1][c0..c1];
            let mean = unsafe { m_mean.range_mut(c0..c1) };
            let m2 = unsafe { m_m2.range_mut(c0..c1) };
            let m3 = unsafe { m_m3.range_mut(c0..c1) };
            let m4 = unsafe { m_m4.range_mut(c0..c1) };
            let mins = unsafe { mn.range_mut(c0..c1) };
            let maxs = unsafe { mx.range_mut(c0..c1) };
            for i in 0..wa.len() {
                moment_step(
                    &mut mean[i],
                    &mut m2[i],
                    &mut m3[i],
                    &mut m4[i],
                    wa[i],
                    n1,
                    nn_term1,
                );
                moment_step(
                    &mut mean[i],
                    &mut m2[i],
                    &mut m3[i],
                    &mut m4[i],
                    wb[i],
                    n2,
                    nn_term2,
                );
            }
            match quant_ref {
                None => {
                    for i in 0..wa.len() {
                        mins[i] = mins[i].min(wa[i]).min(wb[i]);
                        maxs[i] = maxs[i].max(wa[i]).max(wb[i]);
                    }
                }
                // The quantile pair kernel owns the envelope update: the
                // Robbins–Monro step for Y^A must see the envelope folded
                // with Y^A but not yet Y^B (the sequential reference
                // order); the final envelope values are identical.
                Some((first, scale_a, scale_b, qstride, probs, qstate)) => {
                    let qrecs = unsafe { qstate.range_mut(c0 * qstride..c1 * qstride) };
                    update_tile_quantiles_pair(
                        qrecs, wa, wb, mins, maxs, probs, *first, *scale_a, *scale_b,
                    );
                }
            }
            for (threshold, exceeded) in thr_ref {
                let counts = unsafe { exceeded.range_mut(c0..c1) };
                for i in 0..wa.len() {
                    counts[i] += (wa[i] > *threshold) as u64 + (wb[i] > *threshold) as u64;
                }
            }
        });
    }
}

/// One scalar Pébay moment update at post-increment count `n` — the exact
/// recurrence (and operation order) of `FieldMoments::update`.
#[inline]
fn moment_step(
    mean: &mut f64,
    m2: &mut f64,
    m3: &mut f64,
    m4: &mut f64,
    x: f64,
    n: f64,
    nn_term: f64,
) {
    let delta = x - *mean;
    let delta_n = delta / n;
    let delta_n2 = delta_n * delta_n;
    let term1 = delta * delta_n * (n - 1.0);
    *mean += delta_n;
    *m4 += term1 * delta_n2 * nn_term + 6.0 * delta_n2 * *m2 - 4.0 * delta_n * *m3;
    *m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * *m2;
    *m2 += term1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_stats::FieldQuantiles;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const P: usize = 3;

    fn random_fields(cells: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..P + 2)
            .map(|_| (0..cells).map(|_| rng.gen::<f64>() * 8.0 - 3.0).collect())
            .collect()
    }

    /// The fused sweep must be bit-identical to the unfused reference
    /// path: update_group + moments(A), moments(B) + minmax + thresholds
    /// + quantiles.
    #[test]
    fn fused_is_bit_identical_to_reference_path() {
        // 300 cells spans multiple tiles at p = 3 (stride 16 → 128/tile).
        let cells = 300;
        let groups: Vec<Vec<Vec<f64>>> = (0..7).map(|g| random_fields(cells, 100 + g)).collect();
        let probs = [0.05, 0.5, 0.95];

        let mut fused_sobol = UbiquitousSobol::new(P, cells);
        let mut fused_moments = FieldMoments::new(cells);
        let mut fused_minmax = FieldMinMax::new(cells);
        let mut fused_thresholds = vec![
            FieldThreshold::new(cells, 0.0),
            FieldThreshold::new(cells, 2.5),
        ];
        let mut fused_quantiles = FieldQuantiles::new(cells, &probs);

        let mut ref_sobol = UbiquitousSobol::new(P, cells);
        let mut ref_moments = FieldMoments::new(cells);
        let mut ref_minmax = FieldMinMax::new(cells);
        let mut ref_thresholds = vec![
            FieldThreshold::new(cells, 0.0),
            FieldThreshold::new(cells, 2.5),
        ];
        let mut ref_quantiles = FieldQuantiles::new(cells, &probs);

        for g in &groups {
            let refs: Vec<&[f64]> = g.iter().map(|f| f.as_slice()).collect();
            FusedSlabUpdate::new(
                &mut fused_sobol,
                &mut fused_moments,
                &mut fused_minmax,
                &mut fused_thresholds,
                Some(&mut fused_quantiles),
            )
            .apply(&refs);

            ref_sobol.update_group(&refs);
            for sample in refs.iter().take(2) {
                ref_moments.update(sample);
                ref_minmax.update(sample);
                for t in ref_thresholds.iter_mut() {
                    t.update(sample);
                }
                // Quantiles borrow the (already updated) envelope.
                ref_quantiles.update(sample, &ref_minmax);
            }
        }

        assert_eq!(fused_sobol, ref_sobol);
        assert_eq!(fused_moments, ref_moments);
        assert_eq!(fused_minmax, ref_minmax);
        assert_eq!(fused_thresholds, ref_thresholds);
        assert_eq!(fused_quantiles, ref_quantiles);
    }

    #[test]
    fn fused_with_no_thresholds_or_quantiles_is_fine() {
        let cells = 40;
        let fields = random_fields(cells, 7);
        let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
        let mut sobol = UbiquitousSobol::new(P, cells);
        let mut moments = FieldMoments::new(cells);
        let mut minmax = FieldMinMax::new(cells);
        FusedSlabUpdate::new(&mut sobol, &mut moments, &mut minmax, &mut [], None).apply(&refs);
        assert_eq!(sobol.n_groups(), 1);
        assert_eq!(moments.count(), 2);
        assert_eq!(minmax.count(), 2);
    }

    #[test]
    fn fused_quantiles_see_two_samples_per_group() {
        let cells = 16;
        let fields = random_fields(cells, 21);
        let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
        let mut sobol = UbiquitousSobol::new(P, cells);
        let mut moments = FieldMoments::new(cells);
        let mut minmax = FieldMinMax::new(cells);
        let mut quantiles = FieldQuantiles::new(cells, &[0.5]);
        FusedSlabUpdate::new(
            &mut sobol,
            &mut moments,
            &mut minmax,
            &mut [],
            Some(&mut quantiles),
        )
        .apply(&refs);
        assert_eq!(quantiles.count(), 2);
        // After Y^A (warm start) and Y^B, the median estimate has taken
        // exactly one step from Y^A, and the envelope family (updated by
        // the quantile pair kernel in the fused sweep) is their min/max.
        for (c, (&ya, &yb)) in fields[0].iter().zip(&fields[1]).enumerate() {
            assert_eq!(minmax.min()[c], ya.min(yb), "cell {c} min");
            assert_eq!(minmax.max()[c], ya.max(yb), "cell {c} max");
            assert_ne!(quantiles.quantile_at(c, 0), ya, "cell {c} q");
        }
    }

    /// The legacy-checkpoint upgrade path: a restored state whose min/max
    /// envelope carries history gets cold quantiles retrofitted
    /// (`ensure_quantiles`).  The first fused apply then runs the quantile
    /// warm start against the populated envelope — which must still cover
    /// the pre-restore extremes afterwards.
    #[test]
    fn fused_warm_start_preserves_restored_envelope() {
        let cells = 40;
        let mut minmax = FieldMinMax::new(cells);
        minmax.update(&vec![-100.0; cells]);
        minmax.update(&vec![200.0; cells]);
        let mut sobol = UbiquitousSobol::new(P, cells);
        let mut moments = FieldMoments::new(cells);
        let mut quantiles = FieldQuantiles::new(cells, &[0.05, 0.5, 0.95]);
        let fields = random_fields(cells, 33); // samples lie in (-3, 5)
        let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
        FusedSlabUpdate::new(
            &mut sobol,
            &mut moments,
            &mut minmax,
            &mut [],
            Some(&mut quantiles),
        )
        .apply(&refs);
        assert_eq!(minmax.count(), 4);
        assert_eq!(quantiles.count(), 2);
        for c in 0..cells {
            assert_eq!(minmax.min()[c], -100.0, "cell {c} lost pre-restore min");
            assert_eq!(minmax.max()[c], 200.0, "cell {c} lost pre-restore max");
        }
    }

    #[test]
    #[should_panic(expected = "cell-count mismatch")]
    fn mismatched_accumulators_panic() {
        let mut sobol = UbiquitousSobol::new(P, 10);
        let mut moments = FieldMoments::new(9);
        let mut minmax = FieldMinMax::new(10);
        let _ = FusedSlabUpdate::new(&mut sobol, &mut moments, &mut minmax, &mut [], None);
    }

    #[test]
    #[should_panic(expected = "quantile cell-count mismatch")]
    fn mismatched_quantiles_panic() {
        let mut sobol = UbiquitousSobol::new(P, 10);
        let mut moments = FieldMoments::new(10);
        let mut minmax = FieldMinMax::new(10);
        let mut quantiles = FieldQuantiles::new(9, &[0.5]);
        let _ = FusedSlabUpdate::new(
            &mut sobol,
            &mut moments,
            &mut minmax,
            &mut [],
            Some(&mut quantiles),
        );
    }
}
