//! High-level study API and result assembly.
//!
//! [`Study`] is the one-call entry point: configure, optionally script
//! faults, run.  The configuration decides the deployment shape —
//! messaging backend via [`StudyConfig::transport`] and server count via
//! [`StudyConfig::n_shards`] (a sharded run routes, supervises and
//! reduces through [`crate::shard`]) — while the API stays identical.
//! [`StudyResults`] assembles the per-worker slab statistics
//! into global ubiquitous fields — Sobol' index maps `S_k(x, t)`,
//! `ST_k(x, t)`, variance and mean maps — the quantities Figures 7 and 8 of
//! the paper visualise.  For a sharded study the worker states have
//! already been merged across shards, so the same accessors serve both
//! shapes.

use melissa_mesh::CellRange;

use crate::config::StudyConfig;
use crate::fault::FaultPlan;
use crate::report::StudyReport;
use crate::server::state::WorkerState;

/// A configured Melissa study.
pub struct Study {
    config: StudyConfig,
    faults: FaultPlan,
}

impl Study {
    /// Creates a study from a configuration.
    pub fn new(config: StudyConfig) -> Self {
        Self {
            config,
            faults: FaultPlan::none(),
        }
    }

    /// Scripts faults into the run (fault-tolerance experiments).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Runs the study to completion under the launcher's supervision.
    pub fn run(self) -> Result<StudyOutput, String> {
        self.run_in(crate::launcher::StudyRuntime::default())
    }

    /// Runs the study on a caller-supplied transport instead of building
    /// one from [`StudyConfig::transport`].
    ///
    /// This is how an external observer shares the study's messaging
    /// fabric: scrape each shard's `shard<k>/server/main` inbox mid-run
    /// over the same transport (see [`crate::scrape`]).  The run itself is identical to
    /// [`run`](Self::run) — scraping reads atomic snapshots off the
    /// ingest path, so statistics stay bit-identical.
    pub fn run_on(
        self,
        transport: std::sync::Arc<dyn melissa_transport::Transport>,
    ) -> Result<StudyOutput, String> {
        self.run_in(crate::launcher::StudyRuntime {
            transport: Some(transport),
            ..Default::default()
        })
    }

    /// Runs the study inside a caller-built
    /// [`StudyRuntime`](crate::launcher::StudyRuntime): shared transport,
    /// injected dispatcher, outer endpoint scope and external
    /// cancellation.  This is how the multi-tenant daemon hosts many
    /// concurrent studies on one node pool — each in its own scope, each
    /// cancellable — while the supervision machinery runs unchanged.
    /// With the default runtime this is exactly [`run`](Self::run).
    pub fn run_in(self, runtime: crate::launcher::StudyRuntime) -> Result<StudyOutput, String> {
        crate::launcher::run_study(self.config, self.faults, runtime)
    }
}

/// Everything a finished study produces.
pub struct StudyOutput {
    /// The assembled ubiquitous statistics.
    pub results: StudyResults,
    /// The launcher's accounting.
    pub report: StudyReport,
}

/// Global ubiquitous statistics assembled from the server workers' slabs.
pub struct StudyResults {
    p: usize,
    n_timesteps: usize,
    n_cells: usize,
    workers: Vec<WorkerState>,
}

impl StudyResults {
    /// Assembles results from the final worker states.
    pub fn from_worker_states(
        p: usize,
        n_timesteps: usize,
        n_cells: usize,
        workers: Vec<WorkerState>,
    ) -> Self {
        let covered: usize = workers.iter().map(|w| w.slab().len).sum();
        assert_eq!(covered, n_cells, "worker slabs do not cover the mesh");
        Self {
            p,
            n_timesteps,
            n_cells,
            workers,
        }
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.p
    }

    /// Number of timesteps.
    pub fn n_timesteps(&self) -> usize {
        self.n_timesteps
    }

    /// Number of mesh cells.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Number of groups integrated at a timestep (minimum over workers —
    /// they can momentarily disagree mid-study, never at the end).
    pub fn groups_integrated(&self, ts: usize) -> u64 {
        self.workers
            .iter()
            .map(|w| w.groups_at(ts))
            .min()
            .unwrap_or(0)
    }

    fn assemble<F>(&self, per_worker: F) -> Vec<f64>
    where
        F: Fn(&WorkerState) -> Vec<f64>,
    {
        let mut out = vec![0.0; self.n_cells];
        for w in &self.workers {
            let CellRange { start, len } = w.slab();
            let vals = per_worker(w);
            debug_assert_eq!(vals.len(), len);
            out[start..start + len].copy_from_slice(&vals);
        }
        out
    }

    /// First-order Sobol' map `S_k(x)` at timestep `ts`.
    pub fn first_order_field(&self, ts: usize, k: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).first_order_field(k))
    }

    /// Total-order Sobol' map `ST_k(x)` at timestep `ts`.
    pub fn total_order_field(&self, ts: usize, k: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).total_order_field(k))
    }

    /// Output-variance map at timestep `ts` (the paper's Fig. 8
    /// co-visualisation).
    pub fn variance_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).variance_field())
    }

    /// Output-mean map at timestep `ts`.
    pub fn mean_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).mean_field())
    }

    /// Interaction-share map `1 − Σ_k S_k(x)` at timestep `ts`
    /// (paper Section 5.5 item 4).
    pub fn interaction_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.sobol(ts).interaction_field())
    }

    /// Per-cell skewness map over the `Y^A`/`Y^B` ensemble at `ts` (the
    /// "higher order moments" the paper suggests for uncertainty
    /// propagation studies, Section 4.1).
    pub fn skewness_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.moments(ts).skewness())
    }

    /// Per-cell excess-kurtosis map at `ts`.
    pub fn kurtosis_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.moments(ts).excess_kurtosis())
    }

    /// Per-cell ensemble minimum at `ts`.
    pub fn min_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.minmax(ts).min().to_vec())
    }

    /// Per-cell ensemble maximum at `ts`.
    pub fn max_field(&self, ts: usize) -> Vec<f64> {
        self.assemble(|w| w.minmax(ts).max().to_vec())
    }

    /// Per-cell exceedance probability `P(Y > thresholds[idx])` at `ts`.
    ///
    /// # Panics
    /// Panics if no threshold statistics were configured at index `idx`.
    pub fn threshold_probability_field(&self, ts: usize, idx: usize) -> Vec<f64> {
        self.assemble(|w| w.thresholds(ts)[idx].probability())
    }

    /// Per-cell quantile map for target probability `quantile_probs()[idx]`
    /// at `ts` — the median / percentile maps of the quantile follow-up
    /// paper (arXiv:1905.04180, Study 2).
    ///
    /// # Panics
    /// Panics if quantile statistics were not configured.
    pub fn quantile_field(&self, ts: usize, idx: usize) -> Vec<f64> {
        self.assemble(|w| {
            w.quantiles(ts)
                .expect("quantile statistics not configured")
                .quantile_field(idx)
        })
    }

    /// The tracked quantile target probabilities (empty when order
    /// statistics are disabled).
    pub fn quantile_probs(&self) -> &[f64] {
        self.workers
            .first()
            .and_then(|w| w.quantiles(0))
            .map(|q| q.probs())
            .unwrap_or(&[])
    }

    /// The per-worker states (advanced use: per-slab inspection).
    pub fn workers(&self) -> &[WorkerState] {
        &self.workers
    }

    /// Number of configured exceedance thresholds.
    fn n_thresholds(&self) -> usize {
        self.workers.first().map_or(0, |w| w.thresholds(0).len())
    }

    /// Compares two result sets bit for bit over *every* timestep and
    /// every statistics family — integrated group counts, `S_k`, `ST_k`,
    /// mean, variance, skewness, kurtosis, min, max, threshold
    /// exceedance and quantiles.  `None` means identical; otherwise the
    /// first difference, named by family, timestep and cell.
    ///
    /// This is the house invariant across transports, shard counts,
    /// crash-restores and tenants: same seed, same bits.
    pub fn first_bit_mismatch(&self, other: &StudyResults) -> Option<String> {
        self.first_mismatch(other, false)
    }

    /// [`first_bit_mismatch`](Self::first_bit_mismatch) restricted to the
    /// order-exact families (group counts, min, max, threshold
    /// exceedance).  This is the contract across shard counts, which
    /// change the order groups fold in: the pairwise-merged accumulators
    /// then agree to merge rounding only, and the Robbins–Monro quantile
    /// updates are order-dependent by construction.
    pub fn first_order_exact_mismatch(&self, other: &StudyResults) -> Option<String> {
        self.first_mismatch(other, true)
    }

    fn first_mismatch(&self, other: &StudyResults, order_exact_only: bool) -> Option<String> {
        let shape = |r: &StudyResults| {
            let probs: Vec<u64> = r.quantile_probs().iter().map(|p| p.to_bits()).collect();
            (r.p, r.n_timesteps, r.n_cells, r.n_thresholds(), probs)
        };
        if shape(self) != shape(other) {
            return Some(format!(
                "shape (p, timesteps, cells, thresholds, quantile probabilities): {:?} vs {:?}",
                shape(self),
                shape(other)
            ));
        }
        for ts in 0..self.n_timesteps {
            let (a, b) = (self.groups_integrated(ts), other.groups_integrated(ts));
            if a != b {
                return Some(format!("groups integrated ts {ts}: {a} vs {b}"));
            }
            let pair = |name: String, field: &dyn Fn(&StudyResults) -> Vec<f64>| {
                (name, field(self), field(other))
            };
            let mut fields = vec![
                pair("min".into(), &|r| r.min_field(ts)),
                pair("max".into(), &|r| r.max_field(ts)),
            ];
            for i in 0..self.n_thresholds() {
                fields.push(pair(format!("threshold[{i}]"), &|r| {
                    r.threshold_probability_field(ts, i)
                }));
            }
            if !order_exact_only {
                for k in 0..self.p {
                    fields.push(pair(format!("S_{k}"), &|r| r.first_order_field(ts, k)));
                    fields.push(pair(format!("ST_{k}"), &|r| r.total_order_field(ts, k)));
                }
                fields.push(pair("mean".into(), &|r| r.mean_field(ts)));
                fields.push(pair("variance".into(), &|r| r.variance_field(ts)));
                fields.push(pair("skewness".into(), &|r| r.skewness_field(ts)));
                fields.push(pair("kurtosis".into(), &|r| r.kurtosis_field(ts)));
                for q in 0..self.quantile_probs().len() {
                    fields.push(pair(format!("quantile[{q}]"), &|r| r.quantile_field(ts, q)));
                }
            }
            for (name, a, b) in fields {
                if let Some(c) = (0..a.len()).find(|&c| a[c].to_bits() != b[c].to_bits()) {
                    return Some(format!("{name} ts {ts} cell {c}: {} vs {}", a[c], b[c]));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_with_data(id: usize, slab: CellRange) -> WorkerState {
        let mut st = WorkerState::new(id, slab, 2, 1);
        for g in 0..5u64 {
            for role in 0..4u16 {
                let vals: Vec<f64> = (0..slab.len)
                    .map(|i| (g as f64 + 1.0) * (role as f64 + 1.0) + i as f64)
                    .collect();
                st.on_data(g, role, 0, slab.start as u64, &vals);
            }
        }
        st
    }

    #[test]
    fn assembly_places_slabs_correctly() {
        let w0 = worker_with_data(0, CellRange { start: 0, len: 3 });
        let w1 = worker_with_data(1, CellRange { start: 3, len: 5 });
        let res = StudyResults::from_worker_states(2, 1, 8, vec![w0, w1]);
        let field = res.first_order_field(0, 0);
        assert_eq!(field.len(), 8);
        // Same data pattern shifted by slab start: verify against direct
        // worker values.
        let direct0 = res.workers()[0].sobol(0).first_order_field(0);
        let direct1 = res.workers()[1].sobol(0).first_order_field(0);
        assert_eq!(&field[0..3], direct0.as_slice());
        assert_eq!(&field[3..8], direct1.as_slice());
        assert_eq!(res.groups_integrated(0), 5);
    }

    #[test]
    #[should_panic(expected = "cover the mesh")]
    fn gaps_in_coverage_panic() {
        let w0 = worker_with_data(0, CellRange { start: 0, len: 3 });
        StudyResults::from_worker_states(2, 1, 8, vec![w0]);
    }

    /// One ulp on one input value is a mismatch, named by family,
    /// timestep and cell; the order-exact subset sees a change only where
    /// it moves an extreme or an exceedance.
    #[test]
    fn first_bit_mismatch_sees_a_one_ulp_perturbation() {
        let slab = CellRange { start: 0, len: 4 };
        // Every value is one function of (group, role, cell), except that
        // sample (`group`, Y^B, ts 1) has `bump` applied at cell 3.
        let results = |group: u64, bump: fn(f64) -> f64| {
            let mut st = WorkerState::with_stats(0, slab, 2, 2, &[6.0], &[0.5]);
            for g in 0..5u64 {
                for ts in 0..2u32 {
                    for role in 0..4u16 {
                        let mut vals: Vec<f64> = (0..slab.len)
                            .map(|i| (g as f64 + 1.3) * (role as f64 + 1.0) + i as f64)
                            .collect();
                        if (g, ts, role) == (group, 1, 1) {
                            vals[3] = bump(vals[3]);
                        }
                        st.on_data(g, role, ts, 0, &vals);
                    }
                }
            }
            StudyResults::from_worker_states(2, 2, 4, vec![st])
        };
        let reference = results(0, |v| v);
        assert_eq!(reference.first_bit_mismatch(&results(0, |v| v)), None);

        // Group 4's Y^B is the ensemble maximum of its cell: one ulp on it
        // is one ulp on the max map.
        let one_ulp = results(4, |v| f64::from_bits(v.to_bits() + 1));
        for diff in [
            reference.first_bit_mismatch(&one_ulp),
            reference.first_order_exact_mismatch(&one_ulp),
        ] {
            let diff = diff.expect("a one-ulp change must show");
            assert!(diff.starts_with("max ts 1 cell 3: "), "diff: {diff}");
        }

        // A mid-ensemble value moved without crossing the threshold
        // changes the moments but no order-exact family.
        let shifted = results(2, |v| v + 0.25);
        let diff = reference
            .first_bit_mismatch(&shifted)
            .expect("moments moved");
        assert!(diff.contains(" ts 1 cell 3: "), "diff: {diff}");
        assert_eq!(reference.first_order_exact_mismatch(&shifted), None);
    }

    #[test]
    fn quantile_maps_assemble_from_slabs() {
        let probs = [0.25, 0.5, 0.75];
        let fill = |id: usize, slab: CellRange| {
            let mut st = WorkerState::with_stats(id, slab, 2, 1, &[], &probs);
            for g in 0..5u64 {
                for role in 0..4u16 {
                    let vals: Vec<f64> = (0..slab.len)
                        .map(|i| (g as f64 + 1.0) * (role as f64 + 1.0) + i as f64)
                        .collect();
                    st.on_data(g, role, 0, slab.start as u64, &vals);
                }
            }
            st
        };
        let w0 = fill(0, CellRange { start: 0, len: 3 });
        let w1 = fill(1, CellRange { start: 3, len: 5 });
        let res = StudyResults::from_worker_states(2, 1, 8, vec![w0, w1]);
        assert_eq!(res.quantile_probs(), &probs);
        let median = res.quantile_field(0, 1);
        assert_eq!(median.len(), 8);
        let direct0 = res.workers()[0].quantiles(0).unwrap().quantile_field(1);
        let direct1 = res.workers()[1].quantiles(0).unwrap().quantile_field(1);
        assert_eq!(&median[0..3], direct0.as_slice());
        assert_eq!(&median[3..8], direct1.as_slice());
    }
}
