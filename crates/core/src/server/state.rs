//! Per-worker statistics state: the heart of Melissa Server.
//!
//! Each server process owns a slab of cells and keeps, per timestep, the
//! iterative ubiquitous Sobol' state plus plain field moments over the
//! `Y^A`/`Y^B` samples.  Incoming `Data` chunks are assembled per
//! `(group, timestep)` until all `p + 2` roles cover the slab, at which
//! point **one fused tiled sweep** on the worker thread
//! ([`melissa_sobol::FusedSlabUpdate`]) folds the assembly into the
//! Sobol' state, field moments, min/max envelope, every configured
//! threshold accumulator and the Robbins–Monro quantile estimates at
//! once, and the data is **discarded** — the defining property of in
//! transit processing.
//!
//! The assembly path is allocation-lean in steady state: completed
//! assembly buffers are recycled through a pool instead of being freed
//! and reallocated per `(group, timestep)`, chunk payloads are copied
//! with bulk slice copies, and per-role fill tracking uses compact
//! 64-cell-per-word bitsets rather than one `bool` per cell.
//!
//! Bookkeeping implements the paper's fault-tolerance accounting
//! (Section 4.2.1): the last *completed* timestep per group, a
//! discard-on-replay policy for messages at or below it, and the
//! finished/running group lists reported to the launcher.

use std::collections::HashMap;

use melissa_mesh::CellRange;
use melissa_sobol::{FusedSlabUpdate, UbiquitousSobol};
use melissa_stats::quantiles::rm_step_scale;
use melissa_stats::{FieldMinMax, FieldMoments, FieldQuantiles, FieldThreshold};

use crate::protocol::{DataHeader, DataView};

/// Retained spare assembly buffers.  Bounds pool memory at roughly
/// `16 × (p + 2) × slab` doubles while still absorbing the in-flight
/// assembly churn of a busy worker.
const ASSEMBLY_POOL_MAX: usize = 16;

/// Compact per-role fill tracker: one bit per slab cell.
#[derive(Debug, Clone)]
struct FillMask {
    words: Vec<u64>,
    filled: usize,
}

impl FillMask {
    fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            filled: 0,
        }
    }

    /// Marks `[lo, hi)` filled, counting only newly set bits (so duplicate
    /// chunks from restarted instances never double-count).
    fn mark_range(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= self.words.len() * 64);
        if lo == hi {
            return;
        }
        let (first_word, first_bit) = (lo / 64, lo % 64);
        let (last_word, last_bit) = ((hi - 1) / 64, (hi - 1) % 64 + 1);
        for w in first_word..=last_word {
            let from = if w == first_word { first_bit } else { 0 };
            let to = if w == last_word { last_bit } else { 64 };
            let mask = if to == 64 {
                u64::MAX << from
            } else {
                (1u64 << to) - (1u64 << from)
            };
            let newly = mask & !self.words[w];
            self.words[w] |= mask;
            self.filled += newly.count_ones() as usize;
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.filled = 0;
    }
}

/// Assembly buffer for one `(group, timestep)`: the `p + 2` role fields
/// restricted to this worker's slab, plus per-role fill bitsets.
#[derive(Clone)]
struct Assembly {
    /// `p + 2` role fields over the slab.
    fields: Vec<Vec<f64>>,
    /// Per-role fill bitsets (guard against duplicate chunks from
    /// restarted instances double-counting).
    filled: Vec<FillMask>,
}

impl Assembly {
    fn new(roles: usize, slab_len: usize) -> Self {
        Self {
            fields: vec![vec![0.0; slab_len]; roles],
            filled: vec![FillMask::new(slab_len); roles],
        }
    }

    fn complete(&self, slab_len: usize) -> bool {
        self.filled.iter().all(|m| m.filled == slab_len)
    }

    /// Prepares the buffer for reuse.  Field values are *not* cleared:
    /// completion requires every cell of every role to be overwritten by
    /// an incoming chunk before the assembly is ever read.
    fn reset(&mut self) {
        for m in &mut self.filled {
            m.clear();
        }
    }
}

/// A well-formed `Data` frame that is not for this worker: its role,
/// timestep or cell range lies outside what the worker tracks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMisfit {
    header: DataHeader,
    len: usize,
    roles: usize,
    n_timesteps: usize,
    slab: CellRange,
}

impl std::fmt::Display for FrameMisfit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chunk of {} cells from {} (role {}, timestep {}) outside slab [{}, {}) \
             or out of range ({} roles, {} timesteps)",
            self.len,
            self.header.start,
            self.header.role,
            self.header.timestep,
            self.slab.start,
            self.slab.end(),
            self.roles,
            self.n_timesteps
        )
    }
}

impl std::error::Error for FrameMisfit {}

/// Statistics and bookkeeping of one server worker.
#[derive(Clone)]
pub struct WorkerState {
    worker_id: usize,
    slab: CellRange,
    p: usize,
    n_timesteps: usize,
    /// Per-timestep Sobol' state over the slab.
    sobol: Vec<UbiquitousSobol>,
    /// Per-timestep moments over the `Y^A` and `Y^B` samples only (the
    /// other group members are not i.i.d. draws, paper Section 4.1).
    moments: Vec<FieldMoments>,
    /// Per-timestep running min/max envelope (also on `Y^A`/`Y^B`).
    minmax: Vec<FieldMinMax>,
    /// Per-timestep threshold-exceedance accumulators, one per configured
    /// threshold (paper Section 4.1 / Terraz et al. ISAV'16).
    thresholds: Vec<Vec<FieldThreshold>>,
    /// Per-timestep Robbins–Monro quantile estimates over `Y^A`/`Y^B`
    /// (arXiv:1905.04180); empty when no target probabilities configured.
    quantiles: Vec<FieldQuantiles>,
    /// In-flight assemblies.
    assembly: HashMap<(u64, u32), Assembly>,
    /// Recycled assembly buffers (capped at [`ASSEMBLY_POOL_MAX`]).
    pool: Vec<Assembly>,
    /// Last fully integrated timestep per group (discard-on-replay floor).
    /// A group's timesteps integrate in order, so this worker integrated
    /// exactly `0..=last_completed` of it.
    last_completed: HashMap<u64, i64>,
    /// Groups whose final timestep has been integrated.
    finished: Vec<u64>,
    /// Messages received (paper reports ~1000 msg/min per process).
    pub messages_received: u64,
    /// Payload bytes received (the paper's "48 TB treated" accounting).
    pub bytes_received: u64,
    /// Messages dropped by discard-on-replay.
    pub replays_discarded: u64,
    /// Fused statistics sweeps executed — exactly one per completed
    /// assembly (observable proof that ingest is single-sweep).
    pub fused_sweeps: u64,
}

impl WorkerState {
    /// Creates an empty state for worker `worker_id` owning `slab`
    /// (no threshold or quantile statistics).
    pub fn new(worker_id: usize, slab: CellRange, p: usize, n_timesteps: usize) -> Self {
        Self::with_stats(worker_id, slab, p, n_timesteps, &[], &[])
    }

    /// Creates an empty state tracking threshold-exceedance probabilities
    /// and Robbins–Monro quantile estimates for each target probability in
    /// `quantile_probs` (empty disables order statistics).
    pub fn with_stats(
        worker_id: usize,
        slab: CellRange,
        p: usize,
        n_timesteps: usize,
        thresholds: &[f64],
        quantile_probs: &[f64],
    ) -> Self {
        assert!(slab.len > 0, "worker must own at least one cell");
        Self {
            worker_id,
            slab,
            p,
            n_timesteps,
            sobol: (0..n_timesteps)
                .map(|_| UbiquitousSobol::new(p, slab.len))
                .collect(),
            moments: (0..n_timesteps)
                .map(|_| FieldMoments::new(slab.len))
                .collect(),
            minmax: (0..n_timesteps)
                .map(|_| FieldMinMax::new(slab.len))
                .collect(),
            thresholds: (0..n_timesteps)
                .map(|_| {
                    thresholds
                        .iter()
                        .map(|&t| FieldThreshold::new(slab.len, t))
                        .collect()
                })
                .collect(),
            quantiles: if quantile_probs.is_empty() {
                Vec::new()
            } else {
                (0..n_timesteps)
                    .map(|_| FieldQuantiles::new(slab.len, quantile_probs))
                    .collect()
            },
            assembly: HashMap::new(),
            pool: Vec::new(),
            last_completed: HashMap::new(),
            finished: Vec::new(),
            messages_received: 0,
            bytes_received: 0,
            replays_discarded: 0,
            fused_sweeps: 0,
        }
    }

    /// Worker id.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// The slab of cells this worker owns.
    pub fn slab(&self) -> CellRange {
        self.slab
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.p
    }

    /// Number of timesteps tracked.
    pub fn n_timesteps(&self) -> usize {
        self.n_timesteps
    }

    /// Ingests one data chunk.  Returns `true` if it completed a
    /// `(group, timestep)` assembly (statistics were updated).
    ///
    /// # Panics
    /// Panics if the chunk lies outside the worker's slab or has an
    /// out-of-range role/timestep — a bug in the calling program.  Frames
    /// from the network go through [`on_frame`](Self::on_frame), which
    /// answers the same conditions with an error.
    pub fn on_data(
        &mut self,
        group_id: u64,
        role: u16,
        timestep: u32,
        start: u64,
        values: &[f64],
    ) -> bool {
        let header = DataHeader {
            group_id,
            instance: 0,
            role,
            timestep,
            start,
        };
        match self.placement(&header, values.len()) {
            Ok(local0) => self.ingest(&header, local0, values.len(), |dst| {
                dst.copy_from_slice(values)
            }),
            Err(misfit) => panic!("{misfit}"),
        }
    }

    /// Ingests one `Data` frame read in place: checks that it belongs to
    /// this worker's part of the study, then copies its values straight
    /// from the frame's bytes into the assembly.  `Ok(true)` if that
    /// completed a `(group, timestep)` assembly; `Err` — and no change at
    /// all — for a frame whose role, timestep or cell range this worker
    /// does not have, whatever sent it.
    pub fn on_frame(&mut self, frame: &DataView<'_>) -> Result<bool, FrameMisfit> {
        let local0 = self.placement(&frame.header, frame.len())?;
        Ok(self.ingest(&frame.header, local0, frame.len(), |dst| {
            frame.copy_values_to(dst)
        }))
    }

    /// Where in the slab a chunk of `n` values under `header` starts, if
    /// this worker has such a role, timestep and cell range.
    fn placement(&self, header: &DataHeader, n: usize) -> Result<usize, FrameMisfit> {
        let slab = self.slab;
        let fits = (header.role as usize) < self.p + 2
            && (header.timestep as usize) < self.n_timesteps
            && usize::try_from(header.start).is_ok_and(|start| {
                start >= slab.start && start - slab.start <= slab.len && n <= slab.end() - start
            });
        if fits {
            Ok(header.start as usize - slab.start)
        } else {
            Err(FrameMisfit {
                header: *header,
                len: n,
                roles: self.p + 2,
                n_timesteps: self.n_timesteps,
                slab,
            })
        }
    }

    /// The one ingest path, past validation: accounting, the replay
    /// discard, then `fill` writes the `n` values at `local0`
    /// of the role's assembly field, and a completed assembly is swept.
    fn ingest(
        &mut self,
        header: &DataHeader,
        local0: usize,
        n: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> bool {
        let (group_id, timestep) = (header.group_id, header.timestep);
        let (role, ts) = (header.role as usize, timestep as usize);

        self.messages_received += 1;
        self.bytes_received += (n * 8) as u64;

        // Discard on replay: any message at or below the last completed
        // timestep of this group is a duplicate from a restarted instance.
        if let Some(&floor) = self.last_completed.get(&group_id) {
            if ts as i64 <= floor {
                self.replays_discarded += 1;
                return false;
            }
        }

        let slab_len = self.slab.len;
        let roles = self.p + 2;
        let pool = &mut self.pool;
        let entry = self
            .assembly
            .entry((group_id, timestep))
            .or_insert_with(|| pool.pop().unwrap_or_else(|| Assembly::new(roles, slab_len)));
        fill(&mut entry.fields[role][local0..local0 + n]);
        entry.filled[role].mark_range(local0, local0 + n);

        if !entry.complete(slab_len) {
            return false;
        }

        // Assembly complete: one fused sweep folds it into every
        // statistic, then the buffers are recycled and the data is gone.
        let mut done = self.assembly.remove(&(group_id, timestep)).unwrap();
        let refs: Vec<&[f64]> = done.fields.iter().map(|f| f.as_slice()).collect();
        FusedSlabUpdate::new(
            &mut self.sobol[ts],
            &mut self.moments[ts],
            &mut self.minmax[ts],
            &mut self.thresholds[ts],
            self.quantiles.get_mut(ts),
        )
        .apply(&refs);
        self.fused_sweeps += 1;
        drop(refs);
        done.reset();
        self.recycle(done);

        self.last_completed.insert(group_id, ts as i64);
        if ts + 1 == self.n_timesteps {
            self.finished.push(group_id);
            // Reclaim any stale partial assemblies of this group (replays).
            let stale: Vec<(u64, u32)> = self
                .assembly
                .keys()
                .filter(|&&(g, _)| g == group_id)
                .copied()
                .collect();
            for key in stale {
                if let Some(mut a) = self.assembly.remove(&key) {
                    a.reset();
                    self.recycle(a);
                }
            }
        }
        true
    }

    fn recycle(&mut self, assembly: Assembly) {
        if self.pool.len() < ASSEMBLY_POOL_MAX {
            self.pool.push(assembly);
        }
    }

    /// Groups fully integrated by this worker.
    pub fn finished_groups(&self) -> &[u64] {
        &self.finished
    }

    /// Groups with at least one completed timestep that are not finished.
    pub fn running_groups(&self) -> Vec<u64> {
        self.last_completed
            .keys()
            .copied()
            .filter(|g| !self.finished.contains(g))
            .collect()
    }

    /// Last completed timestep of a group (`None` if nothing integrated).
    pub fn last_completed(&self, group_id: u64) -> Option<i64> {
        self.last_completed.get(&group_id).copied()
    }

    /// Number of groups folded into timestep `ts`.
    pub fn groups_at(&self, ts: usize) -> u64 {
        self.sobol[ts].n_groups()
    }

    /// Sobol' state of one timestep.
    pub fn sobol(&self, ts: usize) -> &UbiquitousSobol {
        &self.sobol[ts]
    }

    /// Field moments of one timestep.
    pub fn moments(&self, ts: usize) -> &FieldMoments {
        &self.moments[ts]
    }

    /// Min/max envelope of one timestep.
    pub fn minmax(&self, ts: usize) -> &FieldMinMax {
        &self.minmax[ts]
    }

    /// Threshold-exceedance accumulators of one timestep (one per
    /// configured threshold).
    pub fn thresholds(&self, ts: usize) -> &[FieldThreshold] {
        &self.thresholds[ts]
    }

    /// Quantile estimates of one timestep (`None` when order statistics
    /// are not configured).
    pub fn quantiles(&self, ts: usize) -> Option<&FieldQuantiles> {
        self.quantiles.get(ts)
    }

    /// True when this state tracks Robbins–Monro quantiles.
    pub fn tracks_quantiles(&self) -> bool {
        !self.quantiles.is_empty()
    }

    /// Reconciles the quantile state with the configured target
    /// probabilities after a checkpoint restore.  The configuration
    /// always wins, so every worker tracks the same vector regardless of
    /// which checkpoint files survived the restart:
    ///
    /// * checkpoints written without quantiles, or under a *different*
    ///   probability vector (whose estimates are not convertible),
    ///   restart the estimates cold while every other statistic resumes
    ///   where it left off;
    /// * an empty configuration disables quantiles even when the
    ///   checkpoint carried them;
    /// * matching restored state is kept untouched.
    pub fn ensure_quantiles(&mut self, quantile_probs: &[f64]) {
        if quantile_probs.is_empty() {
            self.quantiles.clear();
        } else if self
            .quantiles
            .first()
            .is_none_or(|q| q.probs() != quantile_probs)
        {
            self.quantiles = (0..self.n_timesteps)
                .map(|_| FieldQuantiles::new(self.slab.len, quantile_probs))
                .collect();
        }
    }

    /// Widest 95 % CI over all timesteps/cells/parameters, masked by the
    /// variance floor (convergence control).
    pub fn max_ci_width(&self, variance_floor: f64) -> f64 {
        self.sobol
            .iter()
            .map(|s| s.max_ci_width(variance_floor))
            .fold(0.0, f64::max)
    }

    /// Quantile-convergence signals, from one pass over each timestep's
    /// envelope: the widest possible next Robbins–Monro step over all
    /// timesteps/cells (reported alongside the Sobol' CI width), and per
    /// tracked probability `quantile_probs[i]` that step times
    /// `max(α, 1−α)` (the extreme percentiles converge last — see
    /// [`FieldQuantiles::step_widths`]).  Timesteps with no samples yet
    /// are skipped, mirroring how the CI sweep masks no-data cells, so the
    /// step is `0` when quantiles are unconfigured or entirely cold; the
    /// widths are empty when order statistics are disabled.
    ///
    /// Bit for bit the fold of [`FieldQuantiles::max_step_width`] and
    /// [`FieldQuantiles::step_widths`] over the timesteps: rounding is
    /// monotone, so `max_c fl(r_c·s) = fl(max_c r_c · s)`, and the widest
    /// range is scaled once instead of every cell's.
    pub fn quantile_steps(&self) -> (f64, Vec<f64>) {
        let probs = self.quantiles.first().map_or(&[][..], |q| q.probs());
        let mut max_step: f64 = 0.0;
        let mut widths = vec![0.0; probs.len()];
        for (q, envelope) in self.quantiles.iter().zip(&self.minmax) {
            if q.count() == 0 {
                continue;
            }
            let max_range = envelope
                .min()
                .iter()
                .zip(envelope.max())
                .map(|(&lo, &hi)| hi - lo)
                .fold(0.0, f64::max);
            let step = max_range * rm_step_scale(q.count() + 1, q.gamma());
            max_step = max_step.max(step);
            for (w, &p) in widths.iter_mut().zip(probs) {
                *w = f64::max(*w, step * p.max(1.0 - p));
            }
        }
        (max_step, widths)
    }

    /// Merges another worker's statistics over the **same slab** into this
    /// one: every accumulator family merges pairwise (Pébay formulas for
    /// moments/Sobol', exact for min/max and thresholds, count-weighted
    /// for quantiles) and bookkeeping takes the union.  This is the
    /// reduction step for sharded multi-server deployments where replicas
    /// of one slab each integrate a disjoint subset of the groups.
    ///
    /// # Panics
    /// Panics if slab, dimension, timestep count or configured statistics
    /// differ, if any group was integrated by both states (even at
    /// different timesteps: the router gives each group one shard, and
    /// double counting would bias every estimator), or if `other` still
    /// holds in-flight assemblies
    /// (their partial chunks are not merged — dropping them would silently
    /// lose data, so the caller must drain or time out assemblies before
    /// reducing).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.slab, other.slab, "slab mismatch");
        assert!(
            other.assembly.is_empty(),
            "cannot merge a state with in-flight assemblies"
        );
        assert_eq!(self.p, other.p, "dimension mismatch");
        assert_eq!(self.n_timesteps, other.n_timesteps, "timestep mismatch");
        assert_eq!(
            self.quantiles.len(),
            other.quantiles.len(),
            "quantile configuration mismatch"
        );
        assert_eq!(
            self.thresholds.first().map_or(0, Vec::len),
            other.thresholds.first().map_or(0, Vec::len),
            "threshold configuration mismatch"
        );
        // Exactly-once integration: the two states' group sets are
        // disjoint (a finished group is in `last_completed` too).
        for g in other.last_completed.keys() {
            assert!(
                !self.last_completed.contains_key(g),
                "group {g} integrated by both states"
            );
        }
        for (a, b) in self.sobol.iter_mut().zip(&other.sobol) {
            a.merge(b);
        }
        for (a, b) in self.moments.iter_mut().zip(&other.moments) {
            a.merge(b);
        }
        for (a, b) in self.minmax.iter_mut().zip(&other.minmax) {
            a.merge(b);
        }
        for (a, b) in self.thresholds.iter_mut().zip(&other.thresholds) {
            for (ta, tb) in a.iter_mut().zip(b) {
                ta.merge(tb);
            }
        }
        for (a, b) in self.quantiles.iter_mut().zip(&other.quantiles) {
            a.merge(b);
        }
        self.last_completed.extend(&other.last_completed);
        self.finished.extend_from_slice(&other.finished);
        self.messages_received += other.messages_received;
        self.bytes_received += other.bytes_received;
        self.replays_discarded += other.replays_discarded;
        self.fused_sweeps += other.fused_sweeps;
    }

    /// Drops what a checkpoint never carries — in-flight assemblies and
    /// the pooled buffers — and frees their memory.  The study-end
    /// reduction calls this on every shard's states: at that point a
    /// pending assembly belongs to an abandoned group whose partial data
    /// was never integrated anywhere, and [`merge`](Self::merge) refuses
    /// states that still hold one.
    pub fn discard_in_flight(&mut self) {
        self.assembly = HashMap::new();
        self.pool = Vec::new();
    }

    /// In-flight assembly count (for memory diagnostics).
    pub fn pending_assemblies(&self) -> usize {
        self.assembly.len()
    }

    /// Spare pooled assembly buffers (for memory diagnostics).
    pub fn pooled_assemblies(&self) -> usize {
        self.pool.len()
    }

    /// Internal accessors for checkpointing.
    #[allow(clippy::type_complexity)]
    pub(crate) fn checkpoint_parts(
        &self,
    ) -> (
        &[UbiquitousSobol],
        &[FieldMoments],
        &[FieldMinMax],
        &[Vec<FieldThreshold>],
        &[FieldQuantiles],
        &HashMap<u64, i64>,
        &[u64],
    ) {
        (
            &self.sobol,
            &self.moments,
            &self.minmax,
            &self.thresholds,
            &self.quantiles,
            &self.last_completed,
            &self.finished,
        )
    }

    /// Rebuilds a state from checkpointed parts (in-flight assemblies are
    /// deliberately *not* checkpointed: their groups will be replayed).
    /// `quantiles` is empty when the checkpoint was written with order
    /// statistics off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_checkpoint_parts(
        worker_id: usize,
        slab: CellRange,
        p: usize,
        n_timesteps: usize,
        sobol: Vec<UbiquitousSobol>,
        moments: Vec<FieldMoments>,
        minmax: Vec<FieldMinMax>,
        thresholds: Vec<Vec<FieldThreshold>>,
        quantiles: Vec<FieldQuantiles>,
        last_completed: HashMap<u64, i64>,
        finished: Vec<u64>,
    ) -> Self {
        assert_eq!(sobol.len(), n_timesteps);
        assert_eq!(moments.len(), n_timesteps);
        assert_eq!(minmax.len(), n_timesteps);
        assert_eq!(thresholds.len(), n_timesteps);
        assert!(quantiles.is_empty() || quantiles.len() == n_timesteps);
        Self {
            worker_id,
            slab,
            p,
            n_timesteps,
            sobol,
            moments,
            minmax,
            thresholds,
            quantiles,
            assembly: HashMap::new(),
            pool: Vec::new(),
            last_completed,
            finished,
            messages_received: 0,
            bytes_received: 0,
            replays_discarded: 0,
            fused_sweeps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 2;
    const TS: usize = 3;

    fn slab() -> CellRange {
        CellRange { start: 10, len: 4 }
    }

    fn state() -> WorkerState {
        WorkerState::new(0, slab(), P, TS)
    }

    /// Sends a full timestep for a group in one chunk per role.
    fn send_full_ts(st: &mut WorkerState, group: u64, ts: u32, scale: f64) -> bool {
        let mut completed = false;
        for role in 0..(P + 2) as u16 {
            let vals: Vec<f64> = (0..4)
                .map(|i| scale * (role as f64 + 1.0) + i as f64)
                .collect();
            completed = st.on_data(group, role, ts, 10, &vals);
        }
        completed
    }

    #[test]
    fn assembly_completes_only_when_all_roles_cover_the_slab() {
        let mut st = state();
        // Three of four roles: not complete.
        for role in 0..3u16 {
            assert!(!st.on_data(1, role, 0, 10, &[1.0, 2.0, 3.0, 4.0]));
        }
        assert_eq!(st.groups_at(0), 0);
        assert_eq!(st.pending_assemblies(), 1);
        // Final role in two chunks.
        assert!(!st.on_data(1, 3, 0, 10, &[1.0, 2.0]));
        assert!(st.on_data(1, 3, 0, 12, &[3.0, 4.0]));
        assert_eq!(st.groups_at(0), 1);
        assert_eq!(st.pending_assemblies(), 0);
    }

    #[test]
    fn replayed_timesteps_are_discarded() {
        let mut st = state();
        assert!(send_full_ts(&mut st, 5, 0, 1.0));
        assert_eq!(st.groups_at(0), 1);
        // A restarted instance replays timestep 0 with different values:
        // every message must be dropped.
        for role in 0..(P + 2) as u16 {
            assert!(!st.on_data(5, role, 0, 10, &[9.0, 9.0, 9.0, 9.0]));
        }
        assert_eq!(st.groups_at(0), 1);
        assert_eq!(st.replays_discarded, (P + 2) as u64);
        // The next timestep proceeds normally.
        assert!(send_full_ts(&mut st, 5, 1, 1.0));
        assert_eq!(st.last_completed(5), Some(1));
    }

    #[test]
    fn duplicate_chunks_within_one_assembly_do_not_double_count() {
        let mut st = state();
        assert!(!st.on_data(1, 0, 0, 10, &[1.0, 2.0, 3.0, 4.0]));
        // Same chunk again (e.g. zombie instance overlap): count stays.
        assert!(!st.on_data(1, 0, 0, 10, &[1.0, 2.0, 3.0, 4.0]));
        for role in 1..3u16 {
            st.on_data(1, role, 0, 10, &[0.0; 4]);
        }
        assert!(st.on_data(1, 3, 0, 10, &[0.0; 4]));
        assert_eq!(st.groups_at(0), 1);
    }

    #[test]
    fn group_finishes_at_final_timestep() {
        let mut st = state();
        for ts in 0..TS as u32 {
            send_full_ts(&mut st, 7, ts, 1.0);
        }
        assert_eq!(st.finished_groups(), &[7]);
        assert!(st.running_groups().is_empty());
    }

    #[test]
    fn running_groups_are_those_mid_flight() {
        let mut st = state();
        send_full_ts(&mut st, 1, 0, 1.0);
        for ts in 0..TS as u32 {
            send_full_ts(&mut st, 2, ts, 2.0);
        }
        assert_eq!(st.running_groups(), vec![1]);
        assert_eq!(st.finished_groups(), &[2]);
    }

    #[test]
    fn statistics_match_direct_feed() {
        let mut st = state();
        let fields: Vec<Vec<f64>> = (0..P + 2)
            .map(|r| (0..4).map(|i| (r * 10 + i) as f64).collect())
            .collect();
        for (role, f) in fields.iter().enumerate() {
            st.on_data(1, role as u16, 0, 10, f);
        }
        let mut direct = UbiquitousSobol::new(P, 4);
        let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
        direct.update_group(&refs);
        assert_eq!(st.sobol(0), &direct);
        // Moments got Y^A and Y^B.
        assert_eq!(st.moments(0).count(), 2);
    }

    #[test]
    fn one_fused_sweep_per_completed_assembly() {
        let mut st = state();
        for ts in 0..TS as u32 {
            send_full_ts(&mut st, 1, ts, 1.0);
            send_full_ts(&mut st, 2, ts, 2.0);
        }
        // 2 groups × TS timesteps completed — exactly that many sweeps,
        // regardless of how many statistics families are tracked.
        assert_eq!(st.fused_sweeps, 2 * TS as u64);
    }

    #[test]
    fn recycled_assembly_buffers_never_leak_stale_values() {
        let mut st = state();
        // Complete group 1 / ts 0 with nonzero values: the buffer goes to
        // the pool carrying stale data.
        send_full_ts(&mut st, 1, 0, 5.0);
        assert_eq!(st.pooled_assemblies(), 1);
        // Group 2 reuses the pooled buffer; its statistics must match a
        // fresh direct computation of *its* values only.
        let fields: Vec<Vec<f64>> = (0..P + 2)
            .map(|r| (0..4).map(|i| (r * 7 + i) as f64 * 0.5).collect())
            .collect();
        for (role, f) in fields.iter().enumerate() {
            st.on_data(2, role as u16, 0, 10, f);
        }
        let mut direct = UbiquitousSobol::new(P, 4);
        let first: Vec<Vec<f64>> = (0..P + 2)
            .map(|r| (0..4).map(|i| 5.0 * (r as f64 + 1.0) + i as f64).collect())
            .collect();
        for fs in [&first, &fields] {
            let refs: Vec<&[f64]> = fs.iter().map(|f| f.as_slice()).collect();
            direct.update_group(&refs);
        }
        assert_eq!(st.sobol(0), &direct);
    }

    #[test]
    #[should_panic(expected = "outside slab")]
    fn chunk_outside_slab_panics() {
        let mut st = state();
        st.on_data(1, 0, 0, 0, &[1.0]);
    }

    #[test]
    fn byte_and_message_accounting() {
        let mut st = state();
        send_full_ts(&mut st, 1, 0, 1.0);
        assert_eq!(st.messages_received, (P + 2) as u64);
        assert_eq!(st.bytes_received, ((P + 2) * 4 * 8) as u64);
    }

    #[test]
    fn quantiles_match_direct_feed() {
        let probs = [0.25, 0.5, 0.75];
        let mut st = WorkerState::with_stats(0, slab(), P, TS, &[], &probs);
        assert!(st.tracks_quantiles());
        let mut direct = melissa_stats::FieldQuantiles::new(4, &probs);
        let mut direct_env = melissa_stats::FieldMinMax::new(4);
        for g in 0..6u64 {
            let fields: Vec<Vec<f64>> = (0..P + 2)
                .map(|r| {
                    (0..4)
                        .map(|i| ((g * 31 + r as u64 * 7 + i) % 13) as f64 - 6.0)
                        .collect()
                })
                .collect();
            for (role, f) in fields.iter().enumerate() {
                st.on_data(g, role as u16, 0, 10, f);
            }
            for sample in fields.iter().take(2) {
                direct_env.update(sample);
                direct.update(sample, &direct_env);
            }
        }
        assert_eq!(st.quantiles(0).unwrap(), &direct);
        assert_eq!(st.quantiles(0).unwrap().count(), 12);
        assert!(st.quantile_steps().0.is_finite());
    }

    #[test]
    fn quantiles_disabled_by_default() {
        let mut st = state();
        send_full_ts(&mut st, 1, 0, 1.0);
        assert!(!st.tracks_quantiles());
        assert!(st.quantiles(0).is_none());
        assert_eq!(st.quantile_steps(), (0.0, Vec::new()));
        // ensure_quantiles retrofits cold state (restore under a
        // configuration that turned order statistics on).
        st.ensure_quantiles(&[0.5]);
        assert!(st.tracks_quantiles());
        assert_eq!(st.quantiles(0).unwrap().count(), 0);
    }

    /// The two envelope passes `quantile_steps` replaced: the per-timestep
    /// `max_step_width` and `step_widths`, folded over the warm timesteps.
    fn two_pass_quantile_steps(st: &WorkerState) -> (f64, Vec<f64>) {
        let m = st.quantiles(0).map_or(0, |q| q.probs().len());
        let (mut max_step, mut widths) = (0.0f64, vec![0.0; m]);
        for ts in 0..st.n_timesteps() {
            let Some(q) = st.quantiles(ts).filter(|q| q.count() > 0) else {
                continue;
            };
            max_step = max_step.max(q.max_step_width(st.minmax(ts)));
            for (w, s) in widths.iter_mut().zip(q.step_widths(st.minmax(ts))) {
                *w = f64::max(*w, s);
            }
        }
        (max_step, widths)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// One pass per timestep gives the two-pass signals bit for bit,
        /// on states with cold timesteps and on entirely cold ones
        /// (`warm == 0`).
        #[test]
        fn quantile_steps_equal_the_two_pass_signals(
            values in proptest::strategies::collection::vec(-1e3f64..1e3, 1..24),
            warm in 0u8..8,
            groups in 1u64..5,
            spread in 0usize..3,
        ) {
            let probs = [[0.5].as_slice(), &[0.01, 0.5, 0.99], &[0.3, 0.75]][spread];
            let mut st = WorkerState::with_stats(0, slab(), P, TS, &[], probs);
            let mut next = values.iter().cycle();
            for g in 0..groups {
                for ts in (0..TS as u32).filter(|ts| warm >> ts & 1 == 1) {
                    for role in 0..(P + 2) as u16 {
                        let vals: Vec<f64> = (0..4).map(|_| *next.next().unwrap()).collect();
                        st.on_data(g, role, ts, 10, &vals);
                    }
                }
            }
            let (step, widths) = st.quantile_steps();
            let (want_step, want_widths) = two_pass_quantile_steps(&st);
            proptest::prop_assert_eq!(step.to_bits(), want_step.to_bits());
            let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&widths), bits(&want_widths));
            if warm == 0 {
                proptest::prop_assert_eq!((step, widths), (0.0, vec![0.0; probs.len()]));
            }
        }
    }

    #[test]
    fn merge_combines_disjoint_group_sets() {
        let probs = [0.1, 0.9];
        let thresholds = [0.0];
        let mut a = WorkerState::with_stats(0, slab(), P, TS, &thresholds, &probs);
        let mut b = WorkerState::with_stats(0, slab(), P, TS, &thresholds, &probs);
        let mut whole = WorkerState::with_stats(0, slab(), P, TS, &thresholds, &probs);
        for ts in 0..TS as u32 {
            send_full_ts(&mut a, 1, ts, 1.0);
            send_full_ts(&mut whole, 1, ts, 1.0);
        }
        for ts in 0..TS as u32 {
            send_full_ts(&mut b, 2, ts, 2.0);
            send_full_ts(&mut whole, 2, ts, 2.0);
        }
        a.merge(&b);
        for ts in 0..TS {
            // Sobol'/moments merge via pairwise Chan/Pébay formulas: equal
            // up to FP rounding, not bit-equal to sequential feeding.
            assert_eq!(a.sobol(ts).n_groups(), whole.sobol(ts).n_groups());
            for k in 0..P {
                let (fa, fw) = (
                    a.sobol(ts).first_order_field(k),
                    whole.sobol(ts).first_order_field(k),
                );
                for c in 0..4 {
                    assert!((fa[c] - fw[c]).abs() < 1e-9, "sobol ts {ts} k {k} c {c}");
                }
            }
            assert_eq!(a.minmax(ts), whole.minmax(ts), "minmax ts {ts}");
            assert_eq!(a.thresholds(ts), whole.thresholds(ts));
            // Moments merge via Pébay pairwise formulas: equal up to FP
            // rounding, not bit-equal to sequential feeding.
            let (ma, mw) = (a.moments(ts), whole.moments(ts));
            assert_eq!(ma.count(), mw.count());
            for c in 0..4 {
                assert!((ma.mean()[c] - mw.mean()[c]).abs() < 1e-12);
            }
            assert_eq!(
                a.quantiles(ts).unwrap().count(),
                whole.quantiles(ts).unwrap().count()
            );
        }
        let mut finished = a.finished_groups().to_vec();
        finished.sort_unstable();
        assert_eq!(finished, vec![1, 2]);
        assert_eq!(a.last_completed(2), Some(TS as i64 - 1));
    }

    #[test]
    #[should_panic(expected = "integrated by both states")]
    fn merge_rejects_double_counted_groups() {
        let mut a = state();
        let mut b = state();
        send_full_ts(&mut a, 1, 0, 1.0);
        send_full_ts(&mut b, 1, 0, 1.0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "group 8 integrated by both states")]
    fn merge_rejects_overlapping_segments() {
        let mut a = state();
        let mut b = state();
        // a integrates ts 0..=1, b ts 1..=2: the group sets meet, so ts 1
        // would count twice.
        send_full_ts(&mut a, 8, 0, 1.0);
        send_full_ts(&mut a, 8, 1, 1.0);
        send_full_ts(&mut b, 8, 1, 2.0);
        send_full_ts(&mut b, 8, 2, 2.0);
        a.merge(&b);
    }

    #[test]
    fn fill_mask_word_boundaries_and_duplicates() {
        let mut m = FillMask::new(130);
        m.mark_range(0, 1);
        assert_eq!(m.filled, 1);
        m.mark_range(60, 70); // crosses the first word boundary
        assert_eq!(m.filled, 11);
        m.mark_range(60, 70); // duplicate: no change
        assert_eq!(m.filled, 11);
        m.mark_range(0, 130); // everything
        assert_eq!(m.filled, 130);
        m.mark_range(129, 130);
        assert_eq!(m.filled, 130);
        m.clear();
        assert_eq!(m.filled, 0);
        assert!(m.words.iter().all(|&w| w == 0));
    }
}
