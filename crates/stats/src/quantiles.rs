//! Iterative per-cell quantiles via Robbins–Monro stochastic approximation.
//!
//! Order statistics are the one statistics family the moment accumulators
//! cannot express: a per-cell median or 95th-percentile map needs its own
//! iterative estimator.  Following the Melissa quantile follow-up paper
//! (Ribés, Terraz, Iooss, Fournier, Raffin, *Large scale in transit
//! computation of quantiles for ensemble runs*, arXiv:1905.04180), each
//! target probability `α` is tracked by the Robbins–Monro recursion
//!
//! ```text
//! q_{n+1} = q_n + C_n / n^γ · (α − 1{Y_{n+1} ≤ q_n})
//! ```
//!
//! with the paper's **adaptive step size**: the unknowable constant `C` is
//! replaced by the running sample range `C_n = max(Y_1…Y_n) − min(Y_1…Y_n)`,
//! so the step magnitude self-calibrates to the data scale without any
//! a-priori knowledge — the requirement for in transit processing, where
//! the data is seen once and discarded.  The range is **borrowed from a
//! [`FieldMinMax`] envelope maintained by the caller** on the same sample
//! stream: Melissa Server tracks the per-cell envelope anyway, so storing
//! a second copy inside every quantile record would only duplicate state
//! and memory traffic on the fused ingest path.
//!
//! The exponent `γ ∈ (½, 1]` trades convergence speed against noise.  The
//! default is `γ = 0.75`: at `γ = 1` the scheme needs `C · f(q_α) > ½`
//! for the optimal rate, which low-density tails (the 1 %/99 %
//! percentiles) violate; a sub-linear exponent keeps late steps large
//! enough to reach the tails, and measured convergence on the analytic
//! test functions is several times faster (see `fig_quantiles`).
//!
//! ## Memory layout
//!
//! [`FieldQuantiles`] stores one packed record of `m` doubles per cell
//! (`[q_0, …, q_{m−1}]` for `m` target probabilities), cell-contiguous in
//! 64-byte-aligned storage, swept in L1-sized tiles — the same
//! cache-blocked discipline as the ubiquitous Sobol' state, so a cell's
//! whole quantile record stays L1-resident while the incoming field
//! stripe is hot.  For the canonical seven probabilities (1 %, 5 %, 25 %,
//! 50 %, 75 %, 95 %, 99 %) a record is 56 bytes — **one cache line per
//! cell**.
//!
//! On the server's hot path the records are not updated through
//! [`update`](FieldQuantiles::update) but folded together with every other
//! statistic by the fused ingest kernel (`melissa_sobol::FusedSlabUpdate`)
//! via the `#[doc(hidden)]` kernel hooks below; the scalar recurrence is
//! shared, so both paths are bit-identical.

use crate::field::FieldMinMax;
use crate::tile::{tile_cells, AlignedVec};

/// The seven target probabilities of the follow-up paper's EDF study
/// (1 %, 5 %, 25 %, 50 %, 75 %, 95 %, 99 %): percentile maps plus an
/// inter-quartile and an inter-decile band per cell.
pub const PAPER_PROBS: [f64; 7] = [0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99];

/// Per-cell Robbins–Monro quantile estimates over a field sample stream.
///
/// Tracks an arbitrary vector of target probabilities per cell, in the
/// cache-blocked tile layout described in the [module docs](self).  The
/// adaptive step scale is read from a caller-maintained [`FieldMinMax`]
/// envelope over the same stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldQuantiles {
    probs: Vec<f64>,
    cells: usize,
    n: u64,
    /// Robbins–Monro step exponent `γ`.
    gamma: f64,
    /// Doubles per record: `probs.len()`.
    stride: usize,
    /// Cells per cache tile (power of two, from [`tile_cells`]).
    tile: usize,
    /// Cell-contiguous packed records, `cells × stride` doubles.
    state: AlignedVec,
}

/// Robbins–Monro step scale `n^{−γ}` at post-increment sample count `n`.
///
/// Both the standalone [`FieldQuantiles::update`] sweep and the fused
/// server ingest must call this same helper so the two paths stay
/// bit-identical (`powf` is not guaranteed to equal `1/n` at `γ = 1`).
#[doc(hidden)]
#[inline]
pub fn rm_step_scale(n: u64, gamma: f64) -> f64 {
    (n as f64).powf(-gamma)
}

/// Updates the packed quantile records of one tile with one field sample.
///
/// All slices are tile-local views of the same cell range: `recs` holds
/// `ys.len()` records of `probs.len()` doubles, and `mins`/`maxs` are the
/// envelope stripes **already folded with this sample** (the adaptive
/// scale).  `first` is true on the very first sample (Robbins–Monro warm
/// start: every estimate initialises to it); `scale` is
/// [`rm_step_scale`] at the post-increment count.  Shared by
/// [`FieldQuantiles::update`] and the fused server ingest so both paths
/// are bit-identical.
#[doc(hidden)]
pub fn update_tile_quantiles(
    recs: &mut [f64],
    ys: &[f64],
    mins: &[f64],
    maxs: &[f64],
    probs: &[f64],
    first: bool,
    scale: f64,
) {
    // Monomorphise the common probability counts (the canonical seven,
    // plus the small sets tests and bands use): with `M` a compile-time
    // constant the per-cell loop fully unrolls and the record stride
    // becomes a literal.
    match probs.len() {
        1 => single_dispatch::<1>(recs, ys, mins, maxs, probs, first, scale),
        2 => single_dispatch::<2>(recs, ys, mins, maxs, probs, first, scale),
        3 => single_dispatch::<3>(recs, ys, mins, maxs, probs, first, scale),
        5 => single_dispatch::<5>(recs, ys, mins, maxs, probs, first, scale),
        7 => single_dispatch::<7>(recs, ys, mins, maxs, probs, first, scale),
        _ => update_tile_quantiles_generic(recs, ys, mins, maxs, probs, first, scale),
    }
}

/// Picks the widest single-sample kernel the host supports (results are
/// identical either way; see [`update_tile_pair_m_avx2`]).
#[inline]
fn single_dispatch<const M: usize>(
    recs: &mut [f64],
    ys: &[f64],
    mins: &[f64],
    maxs: &[f64],
    probs: &[f64],
    first: bool,
    scale: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if M >= 4 && avx2_available() {
        // SAFETY: AVX2 support just checked.
        unsafe { update_tile_quantiles_m_avx2::<M>(recs, ys, mins, maxs, probs, first, scale) };
        return;
    }
    update_tile_quantiles_m::<M>(recs, ys, mins, maxs, probs, first, scale)
}

/// Folds **two** consecutive samples into one tile in a single pass over
/// the records, *including the envelope update*: per cell the envelope is
/// folded with sample `a`, the `a`-step applied (post-increment count
/// `n`), then the same for `b` at `n + 1` — exactly the arithmetic (and
/// operation order) of `FieldMinMax::update(a)` +
/// [`update_tile_quantiles`]`(a)` + the same for `b`, but each record and
/// envelope entry is loaded and stored once.  This is the shape of the
/// fused server ingest, which always folds the i.i.d. pair `(Y^A, Y^B)`
/// and owns the envelope family in the same sweep.
///
/// `first` means sample `a` is the very first sample (warm start); `b`
/// then lands as a regular update at count 2.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn update_tile_quantiles_pair(
    recs: &mut [f64],
    yas: &[f64],
    ybs: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    probs: &[f64],
    first: bool,
    scale_a: f64,
    scale_b: f64,
) {
    match probs.len() {
        1 => pair_dispatch::<1>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b),
        2 => pair_dispatch::<2>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b),
        3 => pair_dispatch::<3>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b),
        5 => pair_dispatch::<5>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b),
        7 => pair_dispatch::<7>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b),
        _ => {
            for (ys, scale, fst) in [(yas, scale_a, first), (ybs, scale_b, false)] {
                for (m, &v) in mins.iter_mut().zip(ys) {
                    *m = m.min(v);
                }
                for (m, &v) in maxs.iter_mut().zip(ys) {
                    *m = m.max(v);
                }
                update_tile_quantiles_generic(recs, ys, mins, maxs, probs, fst, scale);
            }
        }
    }
}

/// Picks the widest pair kernel the host supports (results are identical
/// either way; see [`update_tile_pair_m_avx2`]).
#[allow(clippy::too_many_arguments)]
#[inline]
fn pair_dispatch<const M: usize>(
    recs: &mut [f64],
    yas: &[f64],
    ybs: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    probs: &[f64],
    first: bool,
    scale_a: f64,
    scale_b: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if M >= 4 && avx2_available() {
        // SAFETY: AVX2 support just checked.
        unsafe {
            update_tile_pair_m_avx2::<M>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b)
        };
        return;
    }
    update_tile_pair_m::<M>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b)
}

/// True when the AVX2 fast path for the quantile kernels is usable.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    // std caches the cpuid result; this is one relaxed atomic load.
    std::arch::is_x86_feature_detected!("avx2")
}

/// AVX2-codegen copy of the pair kernel: the *same* Rust body as
/// [`update_tile_pair_m`], compiled with AVX2 enabled so LLVM vectorises
/// the per-cell estimate loop four lanes wide.  No FMA contraction and
/// identical IEEE operation order per element, so results are
/// bit-identical to the baseline build — asserted by the
/// `avx2_pair_kernel_matches_scalar` test and, transitively, by every
/// fused-vs-reference property test.
///
/// # Safety
/// Caller must ensure AVX2 is available ([`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile_pair_m_avx2<const M: usize>(
    recs: &mut [f64],
    yas: &[f64],
    ybs: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    probs: &[f64],
    first: bool,
    scale_a: f64,
    scale_b: f64,
) {
    update_tile_pair_m::<M>(recs, yas, ybs, mins, maxs, probs, first, scale_a, scale_b)
}

/// AVX2-codegen copy of the single-sample kernel; see
/// [`update_tile_pair_m_avx2`] for the bit-identity argument.
///
/// # Safety
/// Caller must ensure AVX2 is available ([`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn update_tile_quantiles_m_avx2<const M: usize>(
    recs: &mut [f64],
    ys: &[f64],
    mins: &[f64],
    maxs: &[f64],
    probs: &[f64],
    first: bool,
    scale: f64,
) {
    update_tile_quantiles_m::<M>(recs, ys, mins, maxs, probs, first, scale)
}

/// Compile-time-`M` kernel for [`update_tile_quantiles_pair`]: fuses the
/// envelope updates for both samples with the two Robbins–Monro steps.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn update_tile_pair_m<const M: usize>(
    recs: &mut [f64],
    yas: &[f64],
    ybs: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    probs: &[f64],
    first: bool,
    scale_a: f64,
    scale_b: f64,
) {
    let alphas: [f64; M] = probs.try_into().expect("specialisation arity");
    for ((((r, &ya), &yb), lo), hi) in recs
        .chunks_exact_mut(M)
        .zip(yas)
        .zip(ybs)
        .zip(mins.iter_mut())
        .zip(maxs.iter_mut())
    {
        // Fold Y^A into the envelope unconditionally: on a warm start the
        // envelope may already carry history (cold quantiles retrofitted
        // onto a restored min/max state after a legacy-checkpoint
        // restore), which must be widened, never reset.
        let mut l = lo.min(ya);
        let mut h = hi.max(ya);
        if first {
            // Warm start on Y^A, then Y^B as a regular update at n = 2.
            r.fill(ya);
        } else {
            let step = (h - l) * scale_a;
            for (q, &alpha) in r.iter_mut().zip(&alphas) {
                *q += step * (alpha - f64::from(ya <= *q));
            }
        }
        l = l.min(yb);
        h = h.max(yb);
        let step = (h - l) * scale_b;
        for (q, &alpha) in r.iter_mut().zip(&alphas) {
            *q += step * (alpha - f64::from(yb <= *q));
        }
        *lo = l;
        *hi = h;
    }
}

/// Compile-time-`M` specialisation of [`update_tile_quantiles_generic`]
/// (identical arithmetic, identical operation order).
#[inline(always)]
fn update_tile_quantiles_m<const M: usize>(
    recs: &mut [f64],
    ys: &[f64],
    mins: &[f64],
    maxs: &[f64],
    probs: &[f64],
    first: bool,
    scale: f64,
) {
    let alphas: [f64; M] = probs.try_into().expect("specialisation arity");
    if first {
        for (r, &y) in recs.chunks_exact_mut(M).zip(ys) {
            r.fill(y);
        }
        return;
    }
    for (((r, &y), &lo), &hi) in recs.chunks_exact_mut(M).zip(ys).zip(mins).zip(maxs) {
        // Adaptive step: the caller-maintained running range calibrates
        // the magnitude.
        let step = (hi - lo) * scale;
        for (q, &alpha) in r.iter_mut().zip(&alphas) {
            *q += step * (alpha - f64::from(y <= *q));
        }
    }
}

/// Updates one tile's records for a runtime probability count; see
/// [`update_tile_quantiles`].
#[inline]
fn update_tile_quantiles_generic(
    recs: &mut [f64],
    ys: &[f64],
    mins: &[f64],
    maxs: &[f64],
    probs: &[f64],
    first: bool,
    scale: f64,
) {
    let stride = probs.len();
    if first {
        for (r, &y) in recs.chunks_exact_mut(stride).zip(ys) {
            r.fill(y);
        }
        return;
    }
    for (((r, &y), &lo), &hi) in recs.chunks_exact_mut(stride).zip(ys).zip(mins).zip(maxs) {
        let step = (hi - lo) * scale;
        for (q, &alpha) in r.iter_mut().zip(probs) {
            *q += step * (alpha - f64::from(y <= *q));
        }
    }
}

impl FieldQuantiles {
    /// Creates accumulators for `cells` cells tracking `probs`
    /// (default step exponent `γ = 0.75`, see the [module docs](self)).
    ///
    /// # Panics
    /// Panics if `cells == 0`, `probs` is empty, or any probability lies
    /// outside the open interval `(0, 1)`.
    pub fn new(cells: usize, probs: &[f64]) -> Self {
        Self::with_gamma(cells, probs, 0.75)
    }

    /// Creates accumulators with an explicit step exponent `γ ∈ (½, 1]`.
    ///
    /// # Panics
    /// Panics on an empty field/probability vector, out-of-range
    /// probabilities, or `γ` outside `(½, 1]`.
    pub fn with_gamma(cells: usize, probs: &[f64], gamma: f64) -> Self {
        assert!(cells > 0, "need at least one cell");
        assert!(!probs.is_empty(), "need at least one target probability");
        for &p in probs {
            assert!(p > 0.0 && p < 1.0, "target probability {p} outside (0, 1)");
        }
        assert!(
            gamma > 0.5 && gamma <= 1.0,
            "Robbins–Monro exponent {gamma} outside (1/2, 1]"
        );
        let stride = probs.len();
        Self {
            probs: probs.to_vec(),
            cells,
            n: 0,
            gamma,
            stride,
            tile: tile_cells(stride),
            state: AlignedVec::zeroed(cells * stride),
        }
    }

    /// The tracked target probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of cells tracked.
    pub fn len(&self) -> usize {
        self.cells
    }

    /// True when tracking zero cells (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cells == 0
    }

    /// Number of field samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The step exponent `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Doubles per cell record (`probs.len()`), for memory accounting.
    pub fn doubles_per_cell(&self) -> usize {
        self.stride
    }

    /// Folds in one field sample (one value per cell), tile by tile.
    ///
    /// `envelope` must track the running min/max of the **same sample
    /// stream** and must already include `sample` (i.e. call
    /// [`FieldMinMax::update`] first); it provides the adaptive step
    /// scale.  Melissa Server maintains that envelope anyway, which is
    /// why it is borrowed rather than duplicated per record.
    ///
    /// # Panics
    /// Panics on a length mismatch with `sample` or `envelope`, or when
    /// the envelope has seen fewer samples than this accumulator is about
    /// to have (a stale envelope would mis-scale the step).
    pub fn update(&mut self, sample: &[f64], envelope: &FieldMinMax) {
        assert_eq!(sample.len(), self.cells, "field sample length mismatch");
        assert_eq!(envelope.len(), self.cells, "envelope length mismatch");
        self.n += 1;
        assert!(
            envelope.count() >= self.n,
            "envelope lags the quantile stream ({} < {})",
            envelope.count(),
            self.n
        );
        let first = self.n == 1;
        let scale = rm_step_scale(self.n, self.gamma);
        let (probs, stride, tile) = (&self.probs[..], self.stride, self.tile);
        let (mins, maxs) = (envelope.min(), envelope.max());
        for (t, recs) in self.state.chunks_mut(tile * stride).enumerate() {
            let cells = t * tile..t * tile + recs.len() / stride;
            update_tile_quantiles(
                recs,
                &sample[cells.clone()],
                &mins[cells.clone()],
                &maxs[cells],
                probs,
                first,
                scale,
            );
        }
    }

    /// Merges another accumulator covering the same cells and
    /// probabilities.
    ///
    /// Robbins–Monro iterates carry no sufficient statistic, so the merge
    /// is the count-weighted mean of the two estimates (counts add
    /// exactly) — associative up to floating-point rounding, which is
    /// what reduction trees and multi-server sharding need
    /// (property-tested in this crate).
    ///
    /// # Panics
    /// Panics if cells, probabilities or `γ` differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.cells, other.cells, "cell-count mismatch");
        assert_eq!(self.probs, other.probs, "probability vector mismatch");
        assert_eq!(
            self.gamma.to_bits(),
            other.gamma.to_bits(),
            "step exponent mismatch"
        );
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let wb = other.n as f64 / (self.n + other.n) as f64;
        for (qa, &qb) in self.state.iter_mut().zip(other.state.iter()) {
            *qa += (qb - *qa) * wb;
        }
        self.n += other.n;
    }

    /// Record of one cell.
    #[inline]
    fn rec(&self, cell: usize) -> &[f64] {
        &self.state[cell * self.stride..(cell + 1) * self.stride]
    }

    /// Estimate of quantile `probs()[idx]` at one cell.
    pub fn quantile_at(&self, cell: usize, idx: usize) -> f64 {
        assert!(idx < self.probs.len(), "probability index out of range");
        self.rec(cell)[idx]
    }

    /// Per-cell estimate field of quantile `probs()[idx]`.
    pub fn quantile_field(&self, idx: usize) -> Vec<f64> {
        assert!(idx < self.probs.len(), "probability index out of range");
        (0..self.cells).map(|c| self.rec(c)[idx]).collect()
    }

    /// Convergence signal: the widest possible next Robbins–Monro step
    /// over all cells, `max_cells (range · (n+1)^{−γ})`, with the range
    /// read from the caller's envelope — the analogue of the Sobol' CI
    /// width for order statistics.  `∞` before any sample; shrinks as
    /// `n^{−γ}` once the range has stabilised.
    ///
    /// # Panics
    /// Panics on an envelope length mismatch.
    pub fn max_step_width(&self, envelope: &FieldMinMax) -> f64 {
        assert_eq!(envelope.len(), self.cells, "envelope length mismatch");
        if self.n == 0 {
            return f64::INFINITY;
        }
        let scale = rm_step_scale(self.n + 1, self.gamma);
        envelope
            .min()
            .iter()
            .zip(envelope.max())
            .map(|(&lo, &hi)| (hi - lo) * scale)
            .fold(0.0, f64::max)
    }

    /// Per-probability convergence signals: for target probability `α`
    /// the widest possible next Robbins–Monro step over all cells is
    /// `max_cells(range) · (n+1)^{−γ} · max(α, 1−α)` — the indicator
    /// error `1{Y ≤ θ} − α` has magnitude at most `max(α, 1−α)`, so
    /// extreme percentiles (1 %/99 %) carry a wider bound and converge
    /// last.  All-∞ before any sample.  The α-independent envelope of
    /// these is [`max_step_width`](Self::max_step_width).
    ///
    /// # Panics
    /// Panics on an envelope length mismatch.
    pub fn step_widths(&self, envelope: &FieldMinMax) -> Vec<f64> {
        assert_eq!(envelope.len(), self.cells, "envelope length mismatch");
        if self.n == 0 {
            return vec![f64::INFINITY; self.probs.len()];
        }
        let scale = rm_step_scale(self.n + 1, self.gamma);
        let max_range = envelope
            .min()
            .iter()
            .zip(envelope.max())
            .map(|(&lo, &hi)| hi - lo)
            .fold(0.0, f64::max);
        self.probs
            .iter()
            .map(|&p| max_range * scale * p.max(1.0 - p))
            .collect()
    }

    /// Raw state `(n, gamma, probs, records)` for checkpointing.  The
    /// record array is the tiled storage verbatim (`cells × m` doubles,
    /// cell-contiguous).
    pub fn raw_state(&self) -> (u64, f64, &[f64], &[f64]) {
        (self.n, self.gamma, &self.probs, &self.state)
    }

    /// Rebuilds from checkpointed raw state.  `records` yields the record
    /// array of [`raw_state`](Self::raw_state) in order — an iterator, so
    /// a checkpoint reader can decode its bytes straight into the tiled
    /// storage without a staging vector.
    ///
    /// # Panics
    /// Panics if `records` is not `cells × probs.len()` doubles or the
    /// shape is degenerate.
    pub fn from_raw_state(
        cells: usize,
        probs: &[f64],
        gamma: f64,
        n: u64,
        records: impl ExactSizeIterator<Item = f64>,
    ) -> Self {
        let mut acc = Self::with_gamma(cells, probs, gamma);
        assert_eq!(
            records.len(),
            cells * acc.stride,
            "bad quantile checkpoint payload length"
        );
        acc.n = n;
        for (slot, v) in acc.state.iter_mut().zip(records) {
            *slot = v;
        }
        acc
    }

    /// Kernel-internal accessor for the fused server sweep: bumps the
    /// sample count by `add_samples` and hands out
    /// `(n_before, gamma, stride, probs, records)`.  The caller must fold
    /// exactly `add_samples` samples into every cell using the
    /// [`update_tile_quantiles_pair`] kernel with [`rm_step_scale`].
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn fused_parts_mut(
        &mut self,
        add_samples: u64,
    ) -> (u64, f64, usize, &[f64], &mut AlignedVec) {
        let before = self.n;
        self.n += add_samples;
        (
            before,
            self.gamma,
            self.stride,
            &self.probs,
            &mut self.state,
        )
    }
}

/// Test/bench support: a quantile accumulator plus the min/max envelope
/// it borrows its adaptive step scale from, fed together (as the server
/// does).  One shared definition keeps every validation path — unit
/// tests, proptests, the `fig_quantiles` bench — feeding the estimator
/// the same way; not part of the API surface.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct TrackedQuantiles {
    pub quant: FieldQuantiles,
    pub env: FieldMinMax,
}

impl TrackedQuantiles {
    /// Fresh accumulator + envelope over `cells` cells.
    #[doc(hidden)]
    pub fn new(cells: usize, probs: &[f64]) -> Self {
        Self {
            quant: FieldQuantiles::new(cells, probs),
            env: FieldMinMax::new(cells),
        }
    }

    /// Folds one field sample into the envelope, then the estimates.
    #[doc(hidden)]
    pub fn update(&mut self, sample: &[f64]) {
        self.env.update(sample);
        self.quant.update(sample, &self.env);
    }
}

/// Test/bench support: exact quantile of a sorted sample at probability
/// `alpha` (nearest-rank definition) — the reference the Robbins–Monro
/// estimates are validated against.  Not part of the API surface.
#[doc(hidden)]
pub fn sorted_quantile(sorted: &[f64], alpha: f64) -> f64 {
    let rank = ((alpha * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Bench-only direct entries to the two pair kernels (scalar / AVX2);
/// not part of the API surface.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn __bench_pair_scalar_m7(
    recs: &mut [f64],
    a: &[f64],
    b: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    probs: &[f64],
    scale_a: f64,
    scale_b: f64,
) {
    update_tile_pair_m::<7>(recs, a, b, mins, maxs, probs, false, scale_a, scale_b)
}

/// See [`__bench_pair_scalar_m7`].
#[cfg(target_arch = "x86_64")]
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn __bench_pair_avx2_m7(
    recs: &mut [f64],
    a: &[f64],
    b: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    probs: &[f64],
    scale_a: f64,
    scale_b: f64,
) {
    assert!(avx2_available());
    // SAFETY: availability asserted.
    unsafe { update_tile_pair_m_avx2::<7>(recs, a, b, mins, maxs, probs, false, scale_a, scale_b) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared test/bench feeder (envelope first, then estimates).
    use super::TrackedQuantiles as Tracked;

    fn uniform_stream(n: usize, seed: u64) -> Vec<f64> {
        // Simple LCG: deterministic, uniform enough for convergence tests.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 5.0
            })
            .collect()
    }

    #[test]
    fn converges_to_uniform_quantiles() {
        let samples = uniform_stream(20_000, 42);
        let mut acc = Tracked::new(1, &PAPER_PROBS);
        for &y in &samples {
            acc.update(&[y]);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let range = sorted[sorted.len() - 1] - sorted[0];
        for (j, &alpha) in PAPER_PROBS.iter().enumerate() {
            let exact = sorted_quantile(&sorted, alpha);
            let est = acc.quant.quantile_at(0, j);
            assert!(
                (est - exact).abs() < 0.03 * range,
                "alpha {alpha}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn per_cell_estimates_are_independent() {
        // Cell 1's stream is cell 0's shifted by 100: every quantile must
        // shift by exactly the same amount (same range, same indicators).
        let samples = uniform_stream(5000, 7);
        let mut acc = Tracked::new(2, &[0.25, 0.5, 0.75]);
        for &y in &samples {
            acc.update(&[y, y + 100.0]);
        }
        for j in 0..3 {
            let d = acc.quant.quantile_at(1, j) - acc.quant.quantile_at(0, j);
            assert!((d - 100.0).abs() < 1e-9, "quantile {j} shift {d}");
        }
    }

    #[test]
    fn update_spanning_many_tiles_matches_single_cell() {
        // 3000 cells spans several tiles; every cell fed the same stream
        // must match the 1-cell reference bit for bit.
        let cells = 3000;
        let samples = uniform_stream(500, 3);
        let mut field = Tracked::new(cells, &PAPER_PROBS);
        let mut single = Tracked::new(1, &PAPER_PROBS);
        let mut row = vec![0.0; cells];
        for &y in &samples {
            row.iter_mut().for_each(|v| *v = y);
            field.update(&row);
            single.update(&[y]);
        }
        for cell in [0usize, 1023, 1024, 1025, cells - 1] {
            for j in 0..PAPER_PROBS.len() {
                assert_eq!(
                    field.quant.quantile_at(cell, j),
                    single.quant.quantile_at(0, j),
                    "cell {cell} quantile {j}"
                );
            }
        }
    }

    #[test]
    fn merge_is_count_weighted() {
        let samples = uniform_stream(4000, 11);
        let mut a = Tracked::new(1, &[0.5]);
        let mut b = Tracked::new(1, &[0.5]);
        for &y in &samples[..3000] {
            a.update(&[y]);
        }
        for &y in &samples[3000..] {
            b.update(&[y]);
        }
        let (qa, qb) = (a.quant.quantile_at(0, 0), b.quant.quantile_at(0, 0));
        a.quant.merge(&b.quant);
        assert_eq!(a.quant.count(), 4000);
        let expect = qa + (qb - qa) * 1000.0 / 4000.0;
        assert_eq!(a.quant.quantile_at(0, 0), expect);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let samples = uniform_stream(100, 5);
        let mut a = Tracked::new(3, &[0.1, 0.9]);
        let mut row = vec![0.0; 3];
        for &y in &samples {
            row.iter_mut().for_each(|v| *v = y);
            a.update(&row);
        }
        let before = a.quant.clone();
        a.quant.merge(&FieldQuantiles::new(3, &[0.1, 0.9]));
        assert_eq!(a.quant, before);
        let mut empty = FieldQuantiles::new(3, &[0.1, 0.9]);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn max_step_width_shrinks() {
        let samples = uniform_stream(1000, 9);
        let mut acc = Tracked::new(1, &[0.5]);
        assert!(acc.quant.max_step_width(&acc.env).is_infinite());
        for &y in &samples[..100] {
            acc.update(&[y]);
        }
        let at_100 = acc.quant.max_step_width(&acc.env);
        for &y in &samples[100..] {
            acc.update(&[y]);
        }
        let at_1000 = acc.quant.max_step_width(&acc.env);
        assert!(
            at_1000 < at_100,
            "step width must shrink: {at_100} -> {at_1000}"
        );
        assert!(
            at_1000 < 0.1,
            "range ~10 at n ~1000, γ = ¾ ⇒ small step: {at_1000}"
        );
    }

    #[test]
    fn step_widths_track_the_indicator_magnitude_per_probability() {
        let samples = uniform_stream(500, 11);
        let mut acc = Tracked::new(2, &[0.01, 0.5, 0.99]);
        assert!(acc
            .quant
            .step_widths(&acc.env)
            .iter()
            .all(|w| w.is_infinite()));
        let mut row = vec![0.0; 2];
        for &y in &samples {
            row.iter_mut().for_each(|v| *v = y);
            acc.update(&row);
        }
        let widths = acc.quant.step_widths(&acc.env);
        assert_eq!(widths.len(), 3);
        // Extreme percentiles carry the widest bound (max(α, 1−α)); the
        // median the narrowest; 1 % and 99 % are symmetric.
        assert!(widths[0] > widths[1] && widths[2] > widths[1]);
        assert_eq!(widths[0], widths[2]);
        // The α-independent bound envelopes every per-probability width.
        let envelope = acc.quant.max_step_width(&acc.env);
        assert!(widths.iter().all(|&w| w <= envelope));
        // The slowest estimate is exactly max(α, 1−α) of the envelope.
        assert_eq!(widths[2], envelope * 0.99);
    }

    #[test]
    fn raw_state_roundtrips() {
        let samples = uniform_stream(200, 13);
        let mut acc = FieldQuantiles::with_gamma(5, &[0.25, 0.75], 0.8);
        let mut env = FieldMinMax::new(5);
        let mut row = vec![0.0; 5];
        for (i, &y) in samples.iter().enumerate() {
            row.iter_mut()
                .enumerate()
                .for_each(|(c, v)| *v = y + (c * i) as f64 * 0.01);
            env.update(&row);
            acc.update(&row, &env);
        }
        let (n, gamma, probs, flat) = {
            let (n, g, p, f) = acc.raw_state();
            (n, g, p.to_vec(), f.to_vec())
        };
        let back = FieldQuantiles::from_raw_state(5, &probs, gamma, n, flat.iter().copied());
        assert_eq!(acc, back);
    }

    /// The AVX2 pair kernel must be bit-identical to the scalar pair
    /// kernel.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pair_kernel_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // nothing to compare on this host
        }
        let cells = 533; // odd, spans several vectors and a ragged tail
        let a = uniform_stream(cells, 70);
        let b = uniform_stream(cells, 71);
        for (round, first) in [(1u64, true), (5u64, false)] {
            let m = PAPER_PROBS.len();
            let mut scalar_recs = vec![0.25f64; cells * m];
            let mut avx_recs = scalar_recs.clone();
            let mut mins_s = vec![-0.5f64; cells];
            let mut maxs_s = vec![0.5f64; cells];
            let mut mins_v = mins_s.clone();
            let mut maxs_v = maxs_s.clone();
            let scale_a = rm_step_scale(round, 0.75);
            let scale_b = rm_step_scale(round + 1, 0.75);
            update_tile_pair_m::<7>(
                &mut scalar_recs,
                &a,
                &b,
                &mut mins_s,
                &mut maxs_s,
                &PAPER_PROBS,
                first,
                scale_a,
                scale_b,
            );
            // SAFETY: AVX2 detected above.
            unsafe {
                update_tile_pair_m_avx2::<7>(
                    &mut avx_recs,
                    &a,
                    &b,
                    &mut mins_v,
                    &mut maxs_v,
                    &PAPER_PROBS,
                    first,
                    scale_a,
                    scale_b,
                )
            };
            let same = scalar_recs
                .iter()
                .zip(&avx_recs)
                .chain(mins_s.iter().zip(&mins_v))
                .chain(maxs_s.iter().zip(&maxs_v))
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "AVX2 kernel diverged from scalar (first = {first})");
        }
    }

    /// The pair kernel (fused ingest shape) must match the sequential
    /// reference: envelope update then quantile update, per sample.
    #[test]
    fn pair_kernel_matches_two_sequential_updates() {
        let samples_a = uniform_stream(97, 80);
        let samples_b = uniform_stream(97, 81);
        let probs = [0.05, 0.5, 0.95];
        let mut seq = Tracked::new(97, &probs);
        seq.update(&samples_a);
        seq.update(&samples_b);
        let mut recs = vec![0.0f64; 97 * probs.len()];
        let mut mins = vec![f64::INFINITY; 97];
        let mut maxs = vec![f64::NEG_INFINITY; 97];
        update_tile_quantiles_pair(
            &mut recs,
            &samples_a,
            &samples_b,
            &mut mins,
            &mut maxs,
            &probs,
            true,
            rm_step_scale(1, seq.quant.gamma()),
            rm_step_scale(2, seq.quant.gamma()),
        );
        let (_, _, _, flat) = seq.quant.raw_state();
        assert!(
            recs.iter()
                .zip(flat)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "pair kernel diverged from sequential updates"
        );
        assert_eq!(mins, seq.env.min());
        assert_eq!(maxs, seq.env.max());
    }

    /// A warm start must *widen* a pre-existing envelope, never reset it:
    /// the fused sweep hands the pair kernel live `FieldMinMax` stripes
    /// that can carry history while the quantiles are cold (a legacy
    /// checkpoint restore retrofits cold quantiles onto a restored
    /// envelope).  Exercises a specialised arity (7, AVX2 when available)
    /// and the runtime-probs fallback (4) so both arms provably treat the
    /// envelope identically.
    #[test]
    fn warm_start_folds_preexisting_envelope() {
        let cells = 37;
        let a = uniform_stream(cells, 90); // samples lie in (-5, 5)
        let b = uniform_stream(cells, 91);
        let scale_b = rm_step_scale(2, 0.75);
        for probs in [&PAPER_PROBS[..], &[0.2, 0.4, 0.6, 0.8][..]] {
            let m = probs.len();
            let mut recs = vec![0.0f64; cells * m];
            // Restored history strictly wider than the incoming samples.
            let mut mins = vec![-50.0f64; cells];
            let mut maxs = vec![75.0f64; cells];
            update_tile_quantiles_pair(
                &mut recs,
                &a,
                &b,
                &mut mins,
                &mut maxs,
                probs,
                true,
                rm_step_scale(1, 0.75),
                scale_b,
            );
            assert!(
                mins.iter().all(|&v| v == -50.0) && maxs.iter().all(|&v| v == 75.0),
                "m = {m}: warm start reset the restored envelope"
            );
            // The Y^B step must be scaled by the *restored* range.
            for (c, (&ya, &yb)) in a.iter().zip(&b).enumerate() {
                let step = (75.0 - -50.0) * scale_b;
                for (j, &alpha) in probs.iter().enumerate() {
                    let expect = ya + step * (alpha - f64::from(yb <= ya));
                    assert_eq!(
                        recs[c * m + j].to_bits(),
                        expect.to_bits(),
                        "m = {m}, cell {c}, alpha {alpha}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn degenerate_probability_panics() {
        FieldQuantiles::new(1, &[0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "probability vector mismatch")]
    fn merge_rejects_mismatched_probs() {
        let mut a = FieldQuantiles::new(1, &[0.5]);
        a.merge(&FieldQuantiles::new(1, &[0.25]));
    }

    #[test]
    #[should_panic(expected = "envelope lags")]
    fn stale_envelope_is_rejected() {
        let mut q = FieldQuantiles::new(2, &[0.5]);
        let env = FieldMinMax::new(2); // never updated
        q.update(&[1.0, 2.0], &env);
    }
}
