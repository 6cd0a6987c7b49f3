//! # melissa-stats — iterative (one-pass) statistics
//!
//! Single-pass, numerically stable statistics used by the Melissa in transit
//! sensitivity-analysis framework (Terraz et al., SC'17, Section 3.1).
//!
//! Computing statistics on `N` samples classically needs `O(N)` memory to
//! hold the samples.  The update formulas implemented here (Welford 1962;
//! Chan, Golub & LeVeque 1982; Pébay 2008) bring the requirement down to
//! `O(1)` per tracked statistic: the running value is updated as soon as a
//! new sample arrives and the sample can then be discarded.  This is the key
//! enabler for avoiding intermediate files in multi-run sensitivity studies.
//!
//! All accumulators support two operations:
//!
//! * [`update`](OnlineMoments::update) — fold in one new sample, and
//! * [`merge`](OnlineMoments::merge) — combine two partial accumulators
//!   (Pébay's pairwise formulas), enabling parallel reduction trees.
//!
//! Iterative results are *exact* with respect to their two-pass
//! counterparts up to floating-point rounding; the property tests in this
//! crate assert agreement to tight tolerances for arbitrary inputs.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`moments`] | mean, variance, skewness, kurtosis ([`OnlineMoments`]) |
//! | [`covariance`] | covariance / correlation of paired samples ([`OnlineCovariance`]) |
//! | [`minmax`] | running minimum / maximum with arg-tracking ([`MinMax`]) |
//! | [`threshold`] | threshold-exceedance probability ([`ThresholdExceedance`]) |
//! | [`quantiles`] | Robbins–Monro per-cell quantile estimation ([`FieldQuantiles`]) |
//! | [`field`] | vectorised per-cell statistics over mesh-sized fields |
//! | [`tile`] | cache-blocked tile storage (aligned records, L1-sized tiles) |
//! | [`batch`] | two-pass reference implementations used for validation |
//! | [`checkpoint_format`] | field tables of the v4 checkpoint wire format every accumulator's `raw_state` round-trips through (documentation only) |
//!
//! ## Quick example
//!
//! ```
//! use melissa_stats::OnlineMoments;
//!
//! let mut acc = OnlineMoments::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     acc.update(x);
//! }
//! assert_eq!(acc.count(), 4);
//! assert!((acc.mean() - 2.5).abs() < 1e-12);
//! assert!((acc.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
//! ```

pub mod batch;
pub mod checkpoint_format;
pub mod covariance;
pub mod field;
pub mod minmax;
pub mod moments;
pub mod quantiles;
pub mod threshold;
pub mod tile;

pub use covariance::OnlineCovariance;
pub use field::{FieldMinMax, FieldMoments, FieldThreshold};
pub use minmax::MinMax;
pub use moments::OnlineMoments;
pub use quantiles::FieldQuantiles;
pub use threshold::ThresholdExceedance;
pub use tile::{tile_cells, AlignedVec};
