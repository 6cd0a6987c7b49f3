//! Ubiquitous (per-cell) iterative Sobol' indices — the paper's central
//! data structure (Sections 2.2 and 3.3).
//!
//! For a field output `Y(x, t)` the Sobol' indices are themselves fields
//! `S_k(x, t)`.  Melissa Server keeps one [`UbiquitousSobol`] state per
//! timestep per server process (covering that process's slab of cells) and
//! folds in each simulation group's field results as they arrive, in any
//! order, then discards the data.
//!
//! ## Memory layout
//!
//! The state is **cell-contiguous and cache-blocked**: each cell owns one
//! packed record of `4 + 4p` doubles (for the paper's `p = 6` use case:
//! 28 doubles = 224 bytes per cell per timestep), records are stored
//! consecutively in 64-byte-aligned storage, and every sweep walks the
//! state in L1-sized tiles of [`melissa_stats::tile_cells`] records.
//!
//! A cell's record packs, in order:
//!
//! ```text
//! [ mean_A, mean_B, m2_A, m2_B,
//!   mean_C0, m2_C0, cBC_0, cAC_0,
//!   …,
//!   mean_C{p−1}, m2_C{p−1}, cBC_{p−1}, cAC_{p−1} ]
//! ```
//!
//! so one group update touches `4 + 4p` *consecutive* doubles (3.5 cache
//! lines at `p = 6`) plus the `p + 2` incoming field values — instead of
//! `4 + 4p` distinct megabyte-scale arrays as in a role-major
//! structure-of-arrays.  Because the marginal mean of `Y^B` inside
//! `Cov(Y^B, Y^{C^k})` is the same stream as the marginal moments of
//! `Y^B`, means are shared across the covariance and variance
//! accumulators, which is what brings the record down to `4 + 4p` doubles
//! per cell in the first place.
//!
//! [`update_group`](UbiquitousSobol::update_group) and
//! [`merge`](UbiquitousSobol::merge) walk the tiles in order on the
//! calling thread (on the server, the worker that owns the slab) and
//! allocate nothing.

use melissa_stats::{tile_cells, AlignedVec};

use crate::confidence::{first_order_interval, total_order_interval, ConfidenceInterval};

/// Record offset of `mean_A`.
const MEAN_A: usize = 0;
/// Record offset of `mean_B`.
const MEAN_B: usize = 1;
/// Record offset of `m2_A`.
const M2_A: usize = 2;
/// Record offset of `m2_B`.
const M2_B: usize = 3;
/// Record offset of parameter block `k` (`[mean_Ck, m2_Ck, cBC_k, cAC_k]`).
const PARAM_BLOCK: usize = 4;

/// Per-cell one-pass Sobol' accumulator over a field of `cells` outputs.
///
/// Feed [`update_group`](Self::update_group) the `p + 2` result fields of
/// one simulation group (canonical role order `[Y^A, Y^B, Y^{C^0}, …]`).
#[derive(Debug, Clone, PartialEq)]
pub struct UbiquitousSobol {
    p: usize,
    cells: usize,
    n: u64,
    /// Doubles per record: `4 + 4p`.
    stride: usize,
    /// Cells per cache tile (power of two, from [`tile_cells`]).
    tile: usize,
    /// Cell-contiguous packed records, `cells × stride` doubles.
    state: AlignedVec,
}

impl UbiquitousSobol {
    /// Creates a zeroed accumulator for `p` parameters over `cells` cells.
    ///
    /// # Panics
    /// Panics if `p == 0` or `cells == 0`.
    pub fn new(p: usize, cells: usize) -> Self {
        assert!(p > 0, "need at least one parameter");
        assert!(cells > 0, "need at least one cell");
        let stride = Self::doubles_per_cell(p);
        Self {
            p,
            cells,
            n: 0,
            stride,
            tile: tile_cells(stride),
            state: AlignedVec::zeroed(cells * stride),
        }
    }

    /// Number of input parameters `p`.
    pub fn dim(&self) -> usize {
        self.p
    }

    /// Number of cells covered.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Number of groups folded in.
    pub fn n_groups(&self) -> u64 {
        self.n
    }

    /// State size in doubles per cell (`4 + 4p`), for memory accounting.
    /// This is exactly the packed-record stride: the tiled layout stores
    /// nothing per cell beyond these `4 + 4p` doubles.
    pub fn doubles_per_cell(p: usize) -> usize {
        4 + 4 * p
    }

    /// Cells per cache tile used by the sweeps.
    pub fn cells_per_tile(&self) -> usize {
        self.tile
    }

    /// Folds in the `p + 2` result fields of one completed group.
    ///
    /// One tiled sweep, allocation-free.
    ///
    /// # Panics
    /// Panics if the number of fields is not `p + 2` or any field length
    /// differs from `cells`.
    pub fn update_group(&mut self, fields: &[&[f64]]) {
        assert_eq!(fields.len(), self.p + 2, "expected p + 2 result fields");
        for f in fields {
            assert_eq!(f.len(), self.cells, "field length mismatch");
        }
        self.n += 1;
        let n = self.n as f64;
        let (p, stride, tile) = (self.p, self.stride, self.tile);
        for (t, recs) in self.state.chunks_mut(tile * stride).enumerate() {
            update_tile_records(recs, fields, t * tile, p, stride, n);
        }
    }

    /// Merges another accumulator covering the *same cells* (pairwise
    /// Chan/Pébay formulas), record by record.  Used by reduction trees and
    /// restart tests.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.p, other.p, "dimension mismatch");
        assert_eq!(self.cells, other.cells, "cell-count mismatch");
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
        let ratio = na * nb / n;
        let scale_b = nb / n;
        let (p, stride) = (self.p, self.stride);
        for (ra, rb) in self
            .state
            .chunks_exact_mut(stride)
            .zip(other.state.chunks_exact(stride))
        {
            let da = rb[MEAN_A] - ra[MEAN_A];
            let db = rb[MEAN_B] - ra[MEAN_B];
            ra[M2_A] += rb[M2_A] + da * da * ratio;
            ra[M2_B] += rb[M2_B] + db * db * ratio;
            for k in 0..p {
                let q = PARAM_BLOCK + 4 * k;
                let dc = rb[q] - ra[q];
                ra[q + 1] += rb[q + 1] + dc * dc * ratio;
                ra[q + 2] += rb[q + 2] + db * dc * ratio;
                ra[q + 3] += rb[q + 3] + da * dc * ratio;
                ra[q] += dc * scale_b;
            }
            ra[MEAN_A] += da * scale_b;
            ra[MEAN_B] += db * scale_b;
        }
        self.n += other.n;
    }

    /// Record of one cell.
    #[inline]
    fn rec(&self, cell: usize) -> &[f64] {
        &self.state[cell * self.stride..(cell + 1) * self.stride]
    }

    /// First-order Sobol' index field `S_k(x)` (Martinez, Eq. 5).
    /// Cells with degenerate variance yield `0.0`.
    pub fn first_order_field(&self, k: usize) -> Vec<f64> {
        assert!(k < self.p, "parameter index out of range");
        (0..self.cells).map(|i| self.first_order_at(i, k)).collect()
    }

    /// Total-order Sobol' index field `ST_k(x)` (Martinez, Eq. 6).
    pub fn total_order_field(&self, k: usize) -> Vec<f64> {
        assert!(k < self.p, "parameter index out of range");
        (0..self.cells).map(|i| self.total_order_at(i, k)).collect()
    }

    /// First-order index of one cell.
    pub fn first_order_at(&self, cell: usize, k: usize) -> f64 {
        let r = self.rec(cell);
        let q = PARAM_BLOCK + 4 * k;
        ratio_correlation(r[q + 2], r[M2_B], r[q + 1])
    }

    /// Total-order index of one cell.
    pub fn total_order_at(&self, cell: usize, k: usize) -> f64 {
        let r = self.rec(cell);
        let q = PARAM_BLOCK + 4 * k;
        1.0 - ratio_correlation(r[q + 3], r[M2_A], r[q + 1])
    }

    /// Output variance field (unbiased, from the `Y^A` sample) — the
    /// denominator field the paper recommends co-visualising (Fig. 8).
    pub fn variance_field(&self) -> Vec<f64> {
        if self.n < 2 {
            return vec![0.0; self.cells];
        }
        let denom = self.n as f64 - 1.0;
        (0..self.cells).map(|i| self.rec(i)[M2_A] / denom).collect()
    }

    /// Output mean field (from the `Y^A` sample).
    pub fn mean_field(&self) -> Vec<f64> {
        (0..self.cells).map(|i| self.rec(i)[MEAN_A]).collect()
    }

    /// Interaction-share field `1 − Σ_k S_k(x)` (paper Section 5.5 item 4).
    pub fn interaction_field(&self) -> Vec<f64> {
        let mut acc = vec![1.0; self.cells];
        for k in 0..self.p {
            for (a, s) in acc.iter_mut().zip(self.first_order_field(k)) {
                *a -= s;
            }
        }
        acc
    }

    /// 95 % CI on `S_k` at one cell (paper Eq. 8).
    pub fn first_order_ci_at(&self, cell: usize, k: usize) -> ConfidenceInterval {
        first_order_interval(self.first_order_at(cell, k), self.n)
    }

    /// 95 % CI on `ST_k` at one cell (paper Eq. 9).
    pub fn total_order_ci_at(&self, cell: usize, k: usize) -> ConfidenceInterval {
        total_order_interval(self.total_order_at(cell, k), self.n)
    }

    /// Largest CI width over all cells and parameters, optionally masked to
    /// cells whose output variance exceeds `min_variance` (the paper notes
    /// indices are meaningless where `Var(Y) ≈ 0`).  This is the scalar the
    /// server reports for convergence control (Section 4.1.5).
    pub fn max_ci_width(&self, min_variance: f64) -> f64 {
        let var = self.variance_field();
        let mut w: f64 = 0.0;
        for (i, &v) in var.iter().enumerate() {
            if v <= min_variance {
                continue;
            }
            for k in 0..self.p {
                w = w.max(self.first_order_ci_at(i, k).width());
                w = w.max(self.total_order_ci_at(i, k).width());
            }
        }
        w
    }

    /// Flattens the full state to `(n, flat)` for checkpointing.  The flat
    /// array order is the *legacy role-major* layout — means (p+2),
    /// m2 (p+2), c_bc (p), c_ac (p) — so checkpoints stay byte-compatible
    /// across the tiled-layout refactor.
    pub fn pack(&self) -> (u64, Vec<f64>) {
        let mut flat = Vec::new();
        self.pack_into(&mut flat);
        (self.n, flat)
    }

    /// [`pack`](Self::pack) into a caller-owned buffer (cleared first),
    /// letting checkpoint writers reuse one allocation across timesteps.
    pub fn pack_into(&self, flat: &mut Vec<f64>) {
        flat.clear();
        flat.resize(self.stride * self.cells, 0.0);
        self.gather_role_major(flat, |v| v);
    }

    /// [`pack`](Self::pack) straight into serialized form: `dst` receives
    /// the flat array as little-endian words, with no staging vector.
    ///
    /// # Panics
    /// Panics unless `dst` is exactly `8 × (4 + 4p) × cells` bytes.
    pub fn pack_le_into(&self, dst: &mut [u8]) {
        let (words, rest) = dst.as_chunks_mut::<8>();
        assert!(rest.is_empty(), "bad checkpoint payload length");
        self.gather_role_major(words, f64::to_le_bytes);
    }

    /// Rebuilds from [`pack`](Self::pack) output.
    ///
    /// # Panics
    /// Panics if `flat` has the wrong length.
    pub fn unpack(p: usize, cells: usize, n: u64, flat: &[f64]) -> Self {
        Self::scatter_role_major(p, cells, n, flat, |v| v)
    }

    /// Rebuilds from [`pack_le_into`](Self::pack_le_into) output.
    ///
    /// # Panics
    /// Panics if `raw` has the wrong length.
    pub fn unpack_le(p: usize, cells: usize, n: u64, raw: &[u8]) -> Self {
        let (words, rest) = raw.as_chunks::<8>();
        assert!(rest.is_empty(), "bad checkpoint payload length");
        Self::scatter_role_major(p, cells, n, words, f64::from_le_bytes)
    }

    /// Writes the role-major flat array into `dst` in one cache-blocked
    /// pass: each tile's records are read once and leave as `4 + 4p` runs
    /// of consecutive words, instead of one strided sweep over the whole
    /// state per role array.
    fn gather_role_major<T>(&self, dst: &mut [T], conv: impl Fn(f64) -> T) {
        let (stride, cells) = (self.stride, self.cells);
        assert_eq!(dst.len(), stride * cells, "bad checkpoint payload length");
        let offsets = role_major_offsets(self.p);
        for c0 in (0..cells).step_by(self.tile) {
            let c1 = (c0 + self.tile).min(cells);
            let recs = &self.state[c0 * stride..c1 * stride];
            for (r, &off) in offsets.iter().enumerate() {
                let run = &mut dst[r * cells + c0..r * cells + c1];
                for (out, rec) in run.iter_mut().zip(recs.chunks_exact(stride)) {
                    *out = conv(rec[off]);
                }
            }
        }
    }

    /// Inverse of [`gather_role_major`](Self::gather_role_major), tile by
    /// tile in the same single pass.
    fn scatter_role_major<T: Copy>(
        p: usize,
        cells: usize,
        n: u64,
        src: &[T],
        conv: impl Fn(T) -> f64,
    ) -> Self {
        let mut acc = Self::new(p, cells);
        let stride = acc.stride;
        assert_eq!(src.len(), stride * cells, "bad checkpoint payload length");
        acc.n = n;
        let offsets = role_major_offsets(p);
        for c0 in (0..cells).step_by(acc.tile) {
            let c1 = (c0 + acc.tile).min(cells);
            let recs = &mut acc.state[c0 * stride..c1 * stride];
            for (r, &off) in offsets.iter().enumerate() {
                let run = &src[r * cells + c0..r * cells + c1];
                for (rec, v) in recs.chunks_exact_mut(stride).zip(run) {
                    rec[off] = conv(*v);
                }
            }
        }
        acc
    }

    /// Kernel-internal accessors for the fused server sweep
    /// (`crate::fused`): pre-incremented group count and the raw state.
    /// No tile size: the fused sweep sizes its own tiles to the combined
    /// per-cell state of every statistics family, not the Sobol' stride
    /// alone.
    pub(crate) fn fused_parts_mut(&mut self) -> (f64, usize, &mut AlignedVec) {
        self.n += 1;
        (self.n as f64, self.stride, &mut self.state)
    }
}

/// Record offsets in serialized role-major order: the means of every role
/// (`A`, `B`, `C^0…`), the `m2` sums in the same role order, then `c_bc`,
/// then `c_ac`.
fn role_major_offsets(p: usize) -> Vec<usize> {
    let block = |field: usize| (0..p).map(move |k| PARAM_BLOCK + 4 * k + field);
    [MEAN_A, MEAN_B]
        .into_iter()
        .chain(block(0))
        .chain([M2_A, M2_B])
        .chain(block(1))
        .chain(block(2))
        .chain(block(3))
        .collect()
}

/// Updates the packed records of one tile with one group's field values.
///
/// `recs` holds the records of cells `[c0, c0 + recs.len()/stride)`;
/// `fields` are the full-slab role fields, each covering at least
/// `c0 + recs.len()/stride` cells (asserted by every caller); `n` is the
/// post-increment group count.  Shared by
/// [`UbiquitousSobol::update_group`] and the fused server ingest so both
/// paths are bit-identical.
#[inline]
pub(crate) fn update_tile_records(
    recs: &mut [f64],
    fields: &[&[f64]],
    c0: usize,
    p: usize,
    stride: usize,
    n: f64,
) {
    // Monomorphise the hot small-p cases: with `p` a compile-time constant
    // the k-loop unrolls and the record stride becomes a literal, which is
    // worth real throughput on the paper's p = 6 workload.
    match p {
        2 => update_tile_records_p::<2>(recs, fields, c0, n),
        3 => update_tile_records_p::<3>(recs, fields, c0, n),
        4 => update_tile_records_p::<4>(recs, fields, c0, n),
        6 => update_tile_records_p::<6>(recs, fields, c0, n),
        _ => update_tile_records_generic(recs, fields, c0, p, stride, n),
    }
}

/// Compile-time-`P` specialisation of [`update_tile_records_generic`]
/// (identical arithmetic, identical operation order).
#[inline]
fn update_tile_records_p<const P: usize>(recs: &mut [f64], fields: &[&[f64]], c0: usize, n: f64) {
    update_tile_records_generic(recs, fields, c0, P, 4 + 4 * P, n);
}

/// Updates one tile's records; see [`update_tile_records`].
#[inline(always)]
fn update_tile_records_generic(
    recs: &mut [f64],
    fields: &[&[f64]],
    c0: usize,
    p: usize,
    stride: usize,
    n: f64,
) {
    // One reciprocal for the whole sweep instead of `3 + p` divisions per
    // cell; the ≤ 1-ulp difference vs. dividing is far inside the 1e-12
    // agreement the estimator tests assert.
    let inv_n = 1.0 / n;
    let tile_len = recs.len() / stride;
    let ya_field = &fields[0][c0..c0 + tile_len];
    let yb_field = &fields[1][c0..c0 + tile_len];
    for (i, r) in recs.chunks_exact_mut(stride).enumerate() {
        let ya = ya_field[i];
        let yb = yb_field[i];
        // Marginal updates for A and B (Welford).
        let da = ya - r[MEAN_A];
        r[MEAN_A] += da * inv_n;
        r[M2_A] += da * (ya - r[MEAN_A]);
        let db = yb - r[MEAN_B];
        r[MEAN_B] += db * inv_n;
        r[M2_B] += db * (yb - r[MEAN_B]);
        // Zip the per-parameter record blocks with the C^k fields: no
        // index arithmetic on `fields` in the inner loop.
        for (q, cf) in r[PARAM_BLOCK..PARAM_BLOCK + 4 * p]
            .chunks_exact_mut(4)
            .zip(&fields[2..])
        {
            // SAFETY: callers assert every field covers the slab, and
            // `c0 + i < c0 + tile_len ≤ cells` by tile construction.
            let yc = unsafe { *cf.get_unchecked(c0 + i) };
            let dc = yc - q[0];
            q[0] += dc * inv_n;
            let resid = yc - q[0];
            q[1] += dc * resid;
            // Co-moments use the pre-update x-delta and the post-update
            // y-mean — identical to `OnlineCovariance`.
            q[2] += db * resid;
            q[3] += da * resid;
        }
    }
}

/// `c2 / sqrt(m2x · m2y)` with degenerate-variance guard; the `(n−1)`
/// normalisations cancel.
#[inline]
fn ratio_correlation(c2: f64, m2x: f64, m2y: f64) -> f64 {
    if m2x <= 0.0 || m2y <= 0.0 {
        0.0
    } else {
        c2 / (m2x * m2y).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::martinez::IterativeSobol;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const P: usize = 4;
    const CELLS: usize = 37;

    /// Random group results: p+2 fields of CELLS values.
    fn random_groups(n: usize, seed: u64) -> Vec<Vec<Vec<f64>>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..P + 2)
                    .map(|_| (0..CELLS).map(|_| rng.gen::<f64>() * 5.0 - 1.0).collect())
                    .collect()
            })
            .collect()
    }

    fn feed(acc: &mut UbiquitousSobol, groups: &[Vec<Vec<f64>>]) {
        for g in groups {
            let refs: Vec<&[f64]> = g.iter().map(|f| f.as_slice()).collect();
            acc.update_group(&refs);
        }
    }

    #[test]
    fn every_cell_matches_scalar_iterative_sobol() {
        let groups = random_groups(50, 1);
        let mut field = UbiquitousSobol::new(P, CELLS);
        feed(&mut field, &groups);

        for cell in [0usize, 3, CELLS - 1] {
            let mut scalar = IterativeSobol::new(P);
            for g in &groups {
                let outputs: Vec<f64> = g.iter().map(|f| f[cell]).collect();
                scalar.update_group(&outputs);
            }
            for k in 0..P {
                assert!(
                    (field.first_order_at(cell, k) - scalar.first_order(k)).abs() < 1e-12,
                    "cell {cell} S_{k}"
                );
                assert!(
                    (field.total_order_at(cell, k) - scalar.total_order(k)).abs() < 1e-12,
                    "cell {cell} ST_{k}"
                );
            }
            assert!((field.variance_field()[cell] - scalar.output_variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn group_order_invariance() {
        let groups = random_groups(30, 2);
        let mut fwd = UbiquitousSobol::new(P, CELLS);
        feed(&mut fwd, &groups);
        let mut rev = UbiquitousSobol::new(P, CELLS);
        let reversed: Vec<_> = groups.iter().rev().cloned().collect();
        feed(&mut rev, &reversed);
        for k in 0..P {
            let (a, b) = (fwd.first_order_field(k), rev.first_order_field(k));
            for i in 0..CELLS {
                assert!((a[i] - b[i]).abs() < 1e-10, "cell {i} param {k}");
            }
        }
    }

    #[test]
    fn merge_matches_sequential() {
        let groups = random_groups(40, 3);
        let mut whole = UbiquitousSobol::new(P, CELLS);
        feed(&mut whole, &groups);

        let mut left = UbiquitousSobol::new(P, CELLS);
        feed(&mut left, &groups[..17]);
        let mut right = UbiquitousSobol::new(P, CELLS);
        feed(&mut right, &groups[17..]);
        left.merge(&right);

        assert_eq!(left.n_groups(), whole.n_groups());
        for k in 0..P {
            let (a, b) = (left.total_order_field(k), whole.total_order_field(k));
            for i in 0..CELLS {
                assert!((a[i] - b[i]).abs() < 1e-9, "cell {i} param {k}");
            }
        }
    }

    #[test]
    fn merge_spanning_many_tiles_matches_sequential() {
        // > one tile at p = 2 (stride 12 → 128-cell tiles): 1000 cells.
        let cells = 1000;
        let p = 2;
        let mut rng = StdRng::seed_from_u64(9);
        let groups: Vec<Vec<Vec<f64>>> = (0..12)
            .map(|_| {
                (0..p + 2)
                    .map(|_| (0..cells).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect())
                    .collect()
            })
            .collect();
        let mut whole = UbiquitousSobol::new(p, cells);
        let mut left = UbiquitousSobol::new(p, cells);
        let mut right = UbiquitousSobol::new(p, cells);
        for (i, g) in groups.iter().enumerate() {
            let refs: Vec<&[f64]> = g.iter().map(|f| f.as_slice()).collect();
            whole.update_group(&refs);
            if i < 5 {
                left.update_group(&refs);
            } else {
                right.update_group(&refs);
            }
        }
        left.merge(&right);
        for k in 0..p {
            let (a, b) = (left.first_order_field(k), whole.first_order_field(k));
            for i in 0..cells {
                assert!((a[i] - b[i]).abs() < 1e-9, "cell {i} param {k}");
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let groups = random_groups(12, 4);
        let mut acc = UbiquitousSobol::new(P, CELLS);
        feed(&mut acc, &groups);
        let (n, flat) = acc.pack();
        let back = UbiquitousSobol::unpack(P, CELLS, n, &flat);
        assert_eq!(acc, back);
    }

    /// The byte form is the flat array's little-endian image, and both
    /// forms restore the state exactly, over several tiles with a ragged
    /// last one.
    #[test]
    fn le_pack_is_the_flat_arrays_byte_image_across_tiles() {
        let cells = 3 * 64 + 9;
        let mut rng = StdRng::seed_from_u64(21);
        let mut acc = UbiquitousSobol::new(P, cells);
        assert!(cells > 3 * acc.cells_per_tile(), "must span several tiles");
        for _ in 0..5 {
            let g: Vec<Vec<f64>> = (0..P + 2)
                .map(|_| (0..cells).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect())
                .collect();
            let refs: Vec<&[f64]> = g.iter().map(|f| f.as_slice()).collect();
            acc.update_group(&refs);
        }
        let (n, flat) = acc.pack();
        let want: Vec<u8> = flat.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut raw = vec![0u8; want.len()];
        acc.pack_le_into(&mut raw);
        assert_eq!(raw, want);
        assert_eq!(UbiquitousSobol::unpack_le(P, cells, n, &raw), acc);
        assert_eq!(UbiquitousSobol::unpack(P, cells, n, &flat), acc);
    }

    #[test]
    fn pack_layout_is_legacy_role_major() {
        // One group, tiny field: the flat layout must list means (A, B,
        // C^k…), then m2 in the same role order, then c_bc, then c_ac —
        // the byte layout checkpoints have always used.
        let mut acc = UbiquitousSobol::new(1, 2);
        let fields: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
        acc.update_group(&refs);
        let (n, flat) = acc.pack();
        assert_eq!(n, 1);
        // After one group, means equal the inputs and all moments are 0.
        assert_eq!(&flat[0..2], &[1.0, 2.0], "mean_A");
        assert_eq!(&flat[2..4], &[3.0, 4.0], "mean_B");
        assert_eq!(&flat[4..6], &[5.0, 6.0], "mean_C0");
        assert!(
            flat[6..].iter().all(|&v| v == 0.0),
            "moments all zero after n = 1"
        );
    }

    #[test]
    fn interaction_field_complements_first_order_sum() {
        let groups = random_groups(25, 5);
        let mut acc = UbiquitousSobol::new(P, CELLS);
        feed(&mut acc, &groups);
        let inter = acc.interaction_field();
        let sums: Vec<f64> = (0..CELLS)
            .map(|i| (0..P).map(|k| acc.first_order_field(k)[i]).sum::<f64>())
            .collect();
        for i in 0..CELLS {
            assert!((inter[i] + sums[i] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn max_ci_width_masks_degenerate_cells() {
        // One constant cell (zero variance) must not contribute.
        let mut groups = random_groups(20, 6);
        for g in &mut groups {
            for f in g.iter_mut() {
                f[0] = 3.33; // cell 0 constant across all sims
            }
        }
        let mut acc = UbiquitousSobol::new(P, CELLS);
        feed(&mut acc, &groups);
        let w = acc.max_ci_width(1e-12);
        assert!(w.is_finite() && w > 0.0);
    }

    #[test]
    fn memory_accounting_formula() {
        assert_eq!(UbiquitousSobol::doubles_per_cell(6), 28);
        let acc = UbiquitousSobol::new(6, 10);
        let (_, flat) = acc.pack();
        assert_eq!(flat.len(), 28 * 10);
        // The tiled storage itself carries exactly 4 + 4p doubles per cell.
        assert_eq!(acc.state.len(), 28 * 10);
    }

    #[test]
    fn update_spanning_many_tiles_matches_single_tile_math() {
        // 5000 cells at p = 4 spans many tiles; every cell must agree with
        // the scalar estimator regardless of which tile it landed in.
        let cells = 5000;
        let mut rng = StdRng::seed_from_u64(11);
        let groups: Vec<Vec<Vec<f64>>> = (0..20)
            .map(|_| {
                (0..P + 2)
                    .map(|_| (0..cells).map(|_| rng.gen::<f64>() * 3.0 - 1.0).collect())
                    .collect()
            })
            .collect();
        let mut field = UbiquitousSobol::new(P, cells);
        for g in &groups {
            let refs: Vec<&[f64]> = g.iter().map(|f| f.as_slice()).collect();
            field.update_group(&refs);
        }
        for cell in [0usize, 63, 64, 65, cells - 1] {
            let mut scalar = IterativeSobol::new(P);
            for g in &groups {
                let outputs: Vec<f64> = g.iter().map(|f| f[cell]).collect();
                scalar.update_group(&outputs);
            }
            for k in 0..P {
                assert!(
                    (field.first_order_at(cell, k) - scalar.first_order(k)).abs() < 1e-12,
                    "cell {cell} S_{k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "field length mismatch")]
    fn wrong_field_length_panics() {
        let mut acc = UbiquitousSobol::new(2, 4);
        let bad = [vec![0.0; 4], vec![0.0; 4], vec![0.0; 3], vec![0.0; 4]];
        let refs: Vec<&[f64]> = bad.iter().map(|f| f.as_slice()).collect();
        acc.update_group(&refs);
    }
}
