//! Sharded multi-server studies: the elasticity layer above one Melissa
//! Server.
//!
//! The paper's scalability story caps out where one parallel server
//! instance does: every simulation group funnels into the same `M` worker
//! processes.  This module runs **`N` complete server instances** (each a
//! full [`Server`](crate::server::Server) over the backend-agnostic
//! transport, with its own workers, checkpoints and failover) and splits
//! the *group* dimension across them:
//!
//! * a seeded **group-hash router** ([`GroupRouter`]) assigns every group
//!   to exactly one shard.  The hash is a pure function of
//!   `(shard_seed, group_id)` recorded in the
//!   [`StudyConfig`], so the assignment is
//!   stable across restarts: when a shard's server dies and is restored
//!   from its checkpoint, its unfinished groups re-route to the restored
//!   instance and to no other;
//! * each shard's supervisor is the unchanged single-server launcher loop
//!   ([`crate::launcher`]) under a scoped endpoint namespace
//!   (`"shard<k>/server/<w>"`, see
//!   [`melissa_transport::directory::names`]), sharing the global batch
//!   runner (node budget), study clock and convergence coordination;
//! * at study end a **reduction** ([`reduce_owned_states`]) takes the
//!   shards' worker states by value and folds them in place with
//!   [`WorkerState::merge`]: Sobol'/moments via Pébay pairwise formulas,
//!   min/max and threshold counters exactly, quantiles count-weighted.
//!   No bytes are produced: the checkpoint codec
//!   ([`pack_state`](crate::server::checkpoint::pack_state) /
//!   [`unpack_state`](crate::server::checkpoint::unpack_state)) is for
//!   states that really cross a file or a wire — a remote shard ships
//!   `pack_state` bytes and the receiver reduces what it unpacked, with
//!   bit-identical results because the codec round trip is bit-identical.
//!
//! ## Determinism and bit-exactness
//!
//! The pairwise merge of Sobol'/moment accumulators is mathematically
//! exact but **not bit-associative** (floating-point Pébay formulas), so
//! the reduction applies the pairwise merges in a *canonical order* — the
//! left fold over shards in shard-index order, one per-worker chain after
//! the other.  Result: the reduced statistics are a pure function of the
//! per-shard states and equal to the sequential left fold
//! (property-tested).  A shape-varying binary tree would be faster by at
//! most a factor `log₂N / (N−1)` on the shard axis but would make the
//! study result depend on `N`'s factorisation — rejected.
//!
//! Consequently a seeded sequential sharded study is **bit-identical**
//! across transport backends and across shard kill/restore failovers, and
//! agrees with the equivalent single-server study exactly for the
//! order-exact families (min/max, thresholds, group bookkeeping) and up
//! to pairwise-merge rounding for Sobol'/moments (the count-weighted
//! quantile merge is a consistent estimator of the same quantiles, not a
//! reordering of the same arithmetic) — `examples/sharded_study.rs`
//! asserts all of this.

use std::collections::HashMap;

use crate::config::StudyConfig;
use crate::fault::FaultPlan;
use crate::launcher::{supervise_shard, StudyContext, StudyRuntime};
use crate::report::StudyReport;
use crate::server::state::WorkerState;
use crate::study::{StudyOutput, StudyResults};

/// Deterministic group-to-shard router: `shard = hash(seed, group) % N`
/// with a SplitMix64 finaliser, so the assignment is uniform, a pure
/// function of the configuration, and stable across restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRouter {
    n_shards: usize,
    seed: u64,
}

/// SplitMix64 finaliser (Steele, Lea & Flood 2014): a cheap, well-mixed
/// 64-bit permutation.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl GroupRouter {
    /// Creates a router over `n_shards` shards with the given hash seed.
    ///
    /// # Panics
    /// Panics if `n_shards == 0`.
    pub fn new(n_shards: usize, seed: u64) -> Self {
        assert!(n_shards > 0, "router needs at least one shard");
        Self { n_shards, seed }
    }

    /// The router a study configuration describes.
    pub fn from_config(config: &StudyConfig) -> Self {
        Self::new(config.n_shards, config.shard_seed)
    }

    /// Number of shards routed over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard that ingests `group_id` — a pure function of the seed,
    /// never of runtime state, so restarts cannot re-route a group.
    pub fn shard_of(&self, group_id: u64) -> usize {
        (splitmix64(self.seed ^ group_id) % self.n_shards as u64) as usize
    }

    /// The (sorted) groups of `shard` within a study of `n_groups`.
    pub fn groups_for_shard(&self, shard: usize, n_groups: usize) -> Vec<u64> {
        (0..n_groups as u64)
            .filter(|&g| self.shard_of(g) == shard)
            .collect()
    }
}

/// Placement of server shards onto physical nodes in a multi-node
/// deployment: shard `k` runs on node `k mod n_nodes` (round-robin).  A
/// pure function of the configuration — like [`GroupRouter`] — so the
/// launcher, every server process and every diagnostic tool derive the
/// same placement without talking to each other, and a restarted shard
/// comes back on the node that owns its checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMap {
    n_nodes: usize,
}

impl NodeMap {
    /// Creates a placement over `n_nodes` nodes.
    ///
    /// # Panics
    /// Panics if `n_nodes == 0`.
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "placement needs at least one node");
        Self { n_nodes }
    }

    /// Number of nodes placed onto.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The node shard `k` runs on.
    pub fn node_of_shard(&self, shard: usize) -> usize {
        shard % self.n_nodes
    }

    /// The (sorted) shards of `node` within a study of `n_shards`.
    pub fn shards_on_node(&self, node: usize, n_shards: usize) -> Vec<usize> {
        (0..n_shards)
            .filter(|&k| self.node_of_shard(k) == node)
            .collect()
    }
}

/// Reduces the per-shard worker states into one state set, as if a single
/// server had integrated every group.
///
/// `shards[k][w]` is shard `k`'s worker `w`; every shard must run the
/// same worker count/slab partition (they all serve the same mesh).  The
/// states are consumed: each shard first drops its in-flight assemblies
/// (at study end they belong to abandoned groups whose partial data was
/// never integrated anywhere) and pooled buffers, then shard `k + 1` is
/// folded into the accumulated shards `0..=k` with one
/// [`WorkerState::merge`] per worker, on the calling thread, and is
/// freed as soon as it is merged.  Every per-worker chain therefore
/// folds in shard-index order (see the module docs for why the combine
/// order is canonical), and the reduction holds no copy of any state.
///
/// # Panics
/// Panics if shards disagree on worker count, slab partition or
/// configured statistics, or if any group was finished by two shards, on
/// any workers (double counting would bias every estimator — the router
/// makes this impossible in a real study).
pub fn reduce_owned_states(shards: Vec<Vec<WorkerState>>) -> Vec<WorkerState> {
    assert!(!shards.is_empty(), "nothing to reduce");
    let n_workers = shards[0].len();
    for (k, s) in shards.iter().enumerate() {
        assert_eq!(s.len(), n_workers, "shard {k} has a different worker count");
    }

    // Safety net of the static routing: the router sends each group to
    // one shard, so a group finished by two shards — on whichever of
    // their workers — would feed every estimator twice.  (`merge` refuses
    // any group two states both integrated; this check names the shards
    // before any merge runs.)
    let mut owner: HashMap<u64, usize> = HashMap::new();
    for (k, shard) in shards.iter().enumerate() {
        for &g in shard.iter().flat_map(WorkerState::finished_groups) {
            match owner.insert(g, k) {
                Some(prev) if prev != k => {
                    panic!("group {g} was integrated by two shards ({prev} and {k})")
                }
                _ => {}
            }
        }
    }

    let mut shards = shards.into_iter();
    let mut acc = shards.next().expect("checked non-empty above");
    acc.iter_mut().for_each(WorkerState::discard_in_flight);
    for shard in shards {
        for (acc, mut next) in acc.iter_mut().zip(shard) {
            next.discard_in_flight();
            acc.merge(&next);
        }
    }
    acc
}

/// [`reduce_owned_states`] for callers that keep their states: clones
/// them, then reduces the clones.
pub fn reduce_worker_states(shards: &[Vec<WorkerState>]) -> Vec<WorkerState> {
    reduce_owned_states(shards.to_vec())
}

/// Runs a study as `N ≥ 1` supervised server instances over disjoint
/// group subsets, reduced into one result set at the end.  The classic
/// single-server study is `N = 1`, its endpoints `shard0/…` like any
/// shard's ([`StudyContext::server_config`]).
///
/// Called by [`crate::launcher::run_study`], which validates the
/// configuration; use [`crate::study::Study::run`] rather than calling
/// this directly.
pub(crate) fn run_shards(
    config: StudyConfig,
    faults: FaultPlan,
    rt: StudyRuntime,
) -> Result<StudyOutput, String> {
    let router = GroupRouter::from_config(&config);
    let n_shards = config.n_shards;
    let n_groups = config.n_groups;
    let solver_timesteps = config.solver.n_timesteps;
    let ctx = StudyContext::new_in(config, faults, rt);

    // One supervisor thread per shard; they share the batch runner (the
    // global node budget), the study clock, the transport and the
    // convergence coordination, and are otherwise fully independent — a
    // shard failover never stalls the other shards.
    let mut runs: Vec<Option<crate::launcher::ShardRun>> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.n_shards)
            .map(|k| {
                let ctx = &ctx;
                let groups = router.groups_for_shard(k, n_groups);
                scope.spawn(move || supervise_shard(ctx, k, &groups))
            })
            .collect();
        for (k, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(run)) => runs.push(Some(run)),
                Ok(Err(e)) => {
                    errors.push(format!("shard {k}: {e}"));
                    runs.push(None);
                }
                Err(_) => {
                    errors.push(format!("shard {k}: supervisor panicked"));
                    runs.push(None);
                }
            }
        }
    });
    if let Some(first) = errors.first() {
        return Err(if errors.len() == 1 {
            first.clone()
        } else {
            format!("{first} (+{} more shard failures)", errors.len() - 1)
        });
    }
    let runs: Vec<crate::launcher::ShardRun> = runs.into_iter().map(Option::unwrap).collect();

    // Aggregate the per-shard reports: counters and link telemetry sum,
    // the convergence signals take the max over shards (each shard's CI
    // spans fewer groups and is therefore wider — the aggregate is the
    // conservative signal adaptive stopping already used mid-study).
    let mut report = StudyReport::new(n_groups);
    report.n_shards = n_shards;
    report.final_max_ci = 0.0;
    report.final_max_quantile_step = 0.0;
    let mut states: Vec<Vec<WorkerState>> = Vec::with_capacity(ctx.n_shards);
    for run in runs.into_iter() {
        let r = run.report;
        report.groups_finished += r.groups_finished;
        report.groups_abandoned.extend(&r.groups_abandoned);
        report.group_restarts += r.group_restarts;
        report.server_restarts += r.server_restarts;
        report.data_messages += r.data_messages;
        report.data_bytes += r.data_bytes;
        report.replays_discarded += r.replays_discarded;
        report.frames_rejected += r.frames_rejected;
        report.checkpoints_written += r.checkpoints_written;
        report.checkpoints_failed += r.checkpoints_failed;
        report.link_messages += r.link_messages;
        report.link_bytes += r.link_bytes;
        report.link_wire_bytes += r.link_wire_bytes;
        report.blocked_sends += r.blocked_sends;
        report.blocked_time += r.blocked_time;
        report.early_stopped |= r.early_stopped;
        report.final_max_ci = report.final_max_ci.max(r.final_max_ci);
        report.final_max_quantile_step = report
            .final_max_quantile_step
            .max(r.final_max_quantile_step);
        // Per-probability steps: elementwise max over shards (every shard
        // tracks the same probability vector); a shard whose workers
        // never all reported contributes nothing.
        if report.final_quantile_steps.len() < r.final_quantile_steps.len() {
            report
                .final_quantile_steps
                .resize(r.final_quantile_steps.len(), 0.0);
        }
        for (acc, &s) in report
            .final_quantile_steps
            .iter_mut()
            .zip(&r.final_quantile_steps)
        {
            *acc = acc.max(s);
        }
        // First non-empty wins; shards reporting a value must agree —
        // last-shard-wins would let a trailing shard wipe the study-wide
        // probability vector or the backend name.
        if report.quantile_probs.is_empty() {
            report.quantile_probs = r.quantile_probs;
        } else if !r.quantile_probs.is_empty() {
            assert_eq!(
                report.quantile_probs, r.quantile_probs,
                "shards disagree on the tracked quantile probabilities"
            );
        }
        if report.transport.is_empty() {
            report.transport = r.transport;
        } else if !r.transport.is_empty() {
            assert_eq!(
                report.transport, r.transport,
                "shards disagree on the transport backend"
            );
        }
        // Every shard stamps events against the shared study clock and
        // carries its shard on each event, so the journals concatenate and
        // sort into one chronological study log below.
        report.events.extend(r.events);
        // All shards share one transport, whose reconnect counter is
        // study-global: take the max, not the sum (summing would count
        // each reconnect once per shard).
        report.transport_reconnects = report.transport_reconnects.max(r.transport_reconnects);
        states.push(run.states);
    }
    report.groups_abandoned.sort_unstable();
    // Stable total merge order: study clock first, ties broken by
    // (shard, per-shard sequence) — deterministic however supervisor
    // threads interleaved.
    report.events.sort_by_key(|e| e.order_key());
    report.origin = ctx.started;
    report.prerun_time = ctx.prerun_time;

    // Reduce over the shards' final states in shard order; a single
    // shard's states are the result as they stand.
    let reduced = if states.len() == 1 {
        states.pop().expect("one shard")
    } else {
        let reduce_started = std::time::Instant::now();
        let reduced = reduce_owned_states(states);
        report.reduce_time = reduce_started.elapsed();
        reduced
    };
    let results = StudyResults::from_worker_states(ctx.p, solver_timesteps, ctx.n_cells, reduced);
    report.wall_time = ctx.started.elapsed();
    Ok(StudyOutput { results, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_mesh::CellRange;
    use std::time::{Duration, Instant};

    #[test]
    fn router_is_deterministic_and_total() {
        let r = GroupRouter::new(4, 2017);
        for g in 0..1000u64 {
            let s = r.shard_of(g);
            assert!(s < 4);
            assert_eq!(s, r.shard_of(g), "routing must be a pure function");
        }
        // Every group lands on exactly one shard: the per-shard lists
        // partition the id space.
        let mut seen = vec![false; 1000];
        for k in 0..4 {
            for g in r.groups_for_shard(k, 1000) {
                assert!(!seen[g as usize], "group {g} routed twice");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn router_spreads_groups_roughly_evenly() {
        let r = GroupRouter::new(4, 42);
        let sizes: Vec<usize> = (0..4).map(|k| r.groups_for_shard(k, 1000).len()).collect();
        for &s in &sizes {
            // A uniform hash over 1000 groups: each shard within
            // [150, 350] is a generous 6-sigma band.
            assert!((150..=350).contains(&s), "shard sizes skewed: {sizes:?}");
        }
    }

    #[test]
    fn node_map_round_robins_and_partitions() {
        let map = NodeMap::new(3);
        assert_eq!(map.n_nodes(), 3);
        for k in 0..30 {
            assert_eq!(map.node_of_shard(k), k % 3);
        }
        // The per-node lists partition the shard space.
        let mut seen = [false; 8];
        for node in 0..3 {
            for k in map.shards_on_node(node, 8) {
                assert!(!seen[k], "shard {k} placed twice");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn node_map_rejects_zero_nodes() {
        let _ = NodeMap::new(0);
    }

    #[test]
    fn router_seed_changes_the_assignment() {
        let a = GroupRouter::new(4, 1);
        let b = GroupRouter::new(4, 2);
        let moved = (0..1000u64)
            .filter(|&g| a.shard_of(g) != b.shard_of(g))
            .count();
        assert!(moved > 500, "seed barely affects routing ({moved}/1000)");
    }

    fn state_with_groups(worker: usize, slab: CellRange, groups: &[u64]) -> WorkerState {
        let mut st = WorkerState::with_stats(worker, slab, 2, 2, &[0.5], &[0.25, 0.75]);
        for &g in groups {
            for ts in 0..2u32 {
                for role in 0..4u16 {
                    let vals: Vec<f64> = (0..slab.len)
                        .map(|i| {
                            ((g * 31 + role as u64 * 7 + ts as u64 * 3 + i as u64) % 13) as f64
                        })
                        .collect();
                    st.on_data(g, role, ts, slab.start as u64, &vals);
                }
            }
        }
        st
    }

    #[test]
    fn reduce_equals_sequential_left_fold_bitwise() {
        let slabs = [
            CellRange { start: 0, len: 5 },
            CellRange { start: 5, len: 3 },
        ];
        let shard_groups: [&[u64]; 3] = [&[0, 3], &[1, 4, 5], &[2]];
        let shards: Vec<Vec<WorkerState>> = shard_groups
            .iter()
            .map(|gs| {
                slabs
                    .iter()
                    .enumerate()
                    .map(|(w, &slab)| state_with_groups(w, slab, gs))
                    .collect()
            })
            .collect();
        // Sequential reference: plain left fold, no codec, no parallelism.
        let mut reference: Vec<WorkerState> = Vec::new();
        for (w, &slab) in slabs.iter().enumerate() {
            let mut acc = state_with_groups(w, slab, shard_groups[0]);
            for gs in &shard_groups[1..] {
                acc.merge(&state_with_groups(w, slab, gs));
            }
            reference.push(acc);
        }
        let reduced = reduce_worker_states(&shards);
        assert_eq!(reduced.len(), reference.len());
        for (got, want) in reduced.iter().zip(&reference) {
            for ts in 0..2 {
                assert_eq!(got.sobol(ts), want.sobol(ts), "sobol ts {ts}");
                assert_eq!(got.moments(ts), want.moments(ts), "moments ts {ts}");
                assert_eq!(got.minmax(ts), want.minmax(ts), "minmax ts {ts}");
                assert_eq!(got.thresholds(ts), want.thresholds(ts), "thresholds {ts}");
                assert_eq!(got.quantiles(ts), want.quantiles(ts), "quantiles {ts}");
            }
            let mut a = got.finished_groups().to_vec();
            let mut b = want.finished_groups().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "integrated by two shards")]
    fn reduce_rejects_a_group_finished_by_two_shards() {
        let slab = CellRange { start: 0, len: 4 };
        // Group 1 fully integrated by both shards: the reduction must
        // refuse to merge.
        let a = vec![state_with_groups(0, slab, &[0, 1])];
        let b = vec![state_with_groups(0, slab, &[1, 2])];
        reduce_worker_states(&[a, b]);
    }

    /// Static routing gives each group one shard: a group finished on
    /// worker 0 of one shard and on worker 1 of another is a double count
    /// too, although no single worker saw it twice.
    #[test]
    #[should_panic(expected = "group 3 was integrated by two shards (0 and 1)")]
    fn reduce_rejects_a_group_finished_on_different_workers_of_two_shards() {
        let slabs = [
            CellRange { start: 0, len: 4 },
            CellRange { start: 4, len: 4 },
        ];
        let a = vec![
            state_with_groups(0, slabs[0], &[0, 3]),
            state_with_groups(1, slabs[1], &[0]),
        ];
        let b = vec![
            state_with_groups(0, slabs[0], &[1]),
            state_with_groups(1, slabs[1], &[1, 3]),
        ];
        reduce_worker_states(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "different worker count")]
    fn reduce_rejects_mismatched_worker_counts() {
        let slab = CellRange { start: 0, len: 4 };
        let a = vec![state_with_groups(0, slab, &[0])];
        let b = vec![
            state_with_groups(0, slab, &[1]),
            state_with_groups(1, CellRange { start: 4, len: 4 }, &[1]),
        ];
        reduce_worker_states(&[a, b]);
    }

    /// A group job that panics is a failed instance: it is retried up to
    /// the cap, then abandoned, with the panic message in its events, and
    /// the study ends long before its wall limit.  (`Study::run` refuses
    /// this config; the shards are driven directly to get the panic.)
    #[test]
    fn a_panicking_group_job_is_retried_then_abandoned() {
        use crate::launcher::MAX_GROUP_RETRIES;
        use melissa_telemetry::EventKind;
        let mut config = StudyConfig::tiny();
        config.n_groups = 2;
        config.solver.total_time = 0.0;
        config.wall_limit = Duration::from_secs(8);
        config.checkpoint_dir =
            std::env::temp_dir().join(format!("melissa-ut-panicking-{}", std::process::id()));
        let began = Instant::now();
        let run = run_shards(config.clone(), FaultPlan::none(), StudyRuntime::default());
        let elapsed = began.elapsed();
        std::fs::remove_dir_all(&config.checkpoint_dir).ok();
        let report = run
            .expect("the study ends with its groups abandoned")
            .report;
        assert!(elapsed < Duration::from_secs(4), "took {elapsed:?}");
        assert_eq!(report.groups_finished, 0);
        assert_eq!(report.groups_abandoned, vec![0, 1]);
        for g in 0..2 {
            let died: Vec<&String> = report
                .events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::GroupDied { group, detail, .. } if *group == g => Some(detail),
                    _ => None,
                })
                .collect();
            // The first run (instance 0) and every retry.
            assert_eq!(died.len(), 1 + MAX_GROUP_RETRIES as usize, "group {g}");
            for detail in died {
                assert!(
                    detail.contains("panicked") && detail.contains("total_time > 0.0"),
                    "{detail}"
                );
            }
        }
    }
}
