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
//! left fold over shards in shard-index order — parallelising over the
//! independent per-worker chains (and inside each merge over the
//! statistics tiles) instead of over tree levels.  Result: the reduced
//! statistics are a pure function of the per-shard states, independent of
//! thread scheduling, and bit-identical to the sequential left fold
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
use melissa_sync::Mutex;

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

/// The versioned routing state behind a [`RoutingTable`] fence.
#[derive(Debug, Clone, Default)]
struct RoutingState {
    epoch: u64,
    overrides: HashMap<u64, usize>,
}

/// Epoch-fenced group-to-shard routing: the seeded [`GroupRouter`] hash
/// is the epoch-0 base assignment, overlaid by a versioned per-group
/// override map installed by migration fences.
///
/// Routing stays a pure function of `(configuration, epoch)`: two
/// resolvers holding the same base router and the same epoch's override
/// map answer identically, so supervisors, [`crate::client::GroupClient`]s
/// and the launcher can never disagree about a group's owner.  A *fence*
/// ([`RoutingTable::fence`]) atomically installs a batch of overrides and
/// bumps the epoch; override targets may exceed the base shard count
/// (elastic scale-out — the slot joins the study as a fresh shard).
///
/// The table lives in the launcher process and is read at every submit:
/// a group job learns its owner's scope from the supervisor that starts
/// it, so no resolver outside the launcher ever needs the table.
#[derive(Debug)]
pub struct RoutingTable {
    base: GroupRouter,
    inner: Mutex<RoutingState>,
}

impl RoutingTable {
    /// An epoch-0 table: pure base-hash routing, no overrides.
    pub fn new(base: GroupRouter) -> Self {
        Self {
            base,
            inner: Mutex::new(RoutingState::default()),
        }
    }

    /// The epoch-0 base router.
    pub fn base(&self) -> GroupRouter {
        self.base
    }

    /// The current routing epoch (0 = static base assignment).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// The shard slot that currently owns `group_id`: the override if a
    /// fence installed one, the base hash otherwise.
    pub fn shard_of(&self, group_id: u64) -> usize {
        self.inner
            .lock()
            .overrides
            .get(&group_id)
            .copied()
            .unwrap_or_else(|| self.base.shard_of(group_id))
    }

    /// Fences a new epoch: atomically re-routes every `(group, slot)`
    /// pair and returns the new epoch.  A group fenced back to its base
    /// shard keeps an explicit override — routing history is monotone in
    /// the epoch, never inferred from hash equality.
    pub fn fence(&self, moves: &[(u64, usize)]) -> u64 {
        let mut inner = self.inner.lock();
        for &(g, slot) in moves {
            inner.overrides.insert(g, slot);
        }
        inner.epoch += 1;
        inner.epoch
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
/// states are consumed: each lineage first drops its in-flight assemblies
/// (at study end they belong to abandoned groups whose partial data was
/// never integrated anywhere), pooled buffers and ban set, then lineage
/// `k + 1` is folded into the accumulated lineages `0..=k` with one
/// [`WorkerState::merge`] per worker — the `W` merges of a fold run in
/// parallel, each itself tile-parallel — and is freed as soon as it is
/// merged.  Every per-worker chain therefore folds in shard-index order
/// (see the module docs for why the combine order is canonical), and the
/// reduction holds no copy of any state.
///
/// # Panics
/// Panics if shards disagree on worker count, slab partition or
/// configured statistics, or if any group was integrated by two shards
/// (double counting would bias every estimator — the router makes this
/// impossible in a real study).
pub fn reduce_owned_states(shards: Vec<Vec<WorkerState>>) -> Vec<WorkerState> {
    assert!(!shards.is_empty(), "nothing to reduce");
    let n_workers = shards[0].len();
    for (k, s) in shards.iter().enumerate() {
        assert_eq!(s.len(), n_workers, "shard {k} has a different worker count");
    }

    // Safety net of the epoch-fenced migration layer: a group whose last
    // timestep was integrated by the *same worker* in two different
    // lineages means a fence failed and every estimator the group feeds
    // would be double-counted.  Keyed per worker — a re-homed group may
    // legitimately appear finished on worker 0 of the dead lineage and on
    // worker 1 of the adopter (each integrated a disjoint share).  (The
    // per-worker interval ledgers inside `WorkerState::merge` catch
    // partial overlaps; this check catches whole groups before any merge
    // runs.)
    let mut owner: HashMap<(usize, u64), usize> = HashMap::new();
    for (k, shard) in shards.iter().enumerate() {
        for state in shard {
            for &g in state.finished_groups() {
                if let Some(prev) = owner.insert((state.worker_id(), g), k) {
                    panic!("group {g} was integrated by two shards ({prev} and {k})");
                }
            }
        }
    }

    let mut lineages = shards.into_iter();
    let mut acc = lineages.next().expect("checked non-empty above");
    acc.iter_mut().for_each(WorkerState::discard_in_flight);
    for lineage in lineages {
        let pairs: Vec<_> = acc.iter_mut().zip(lineage).collect();
        melissa_sync::for_each_item(pairs, 0, |(acc, mut next)| {
            next.discard_in_flight();
            acc.merge(&next);
        });
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
/// single-server study is `N = 1`, under the flat endpoint names
/// ([`StudyContext::slot_scope`]).
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
    let n_slots = ctx.n_slots;

    // One supervisor thread per shard *slot*; they share the batch runner
    // (the global node budget), the study clock, the transport and the
    // convergence coordination, and are otherwise fully independent —
    // a shard failover never stalls the other shards.  Slots beyond the
    // configured shard count join the study fresh (elastic scale-out):
    // they own no groups until an epoch fence hands them some.
    let mut runs: Vec<Option<crate::launcher::ShardRun>> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_slots)
            .map(|k| {
                let ctx = &ctx;
                let groups = if k < n_shards {
                    router.groups_for_shard(k, n_groups)
                } else {
                    Vec::new()
                };
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
    let mut states: Vec<Vec<WorkerState>> = Vec::with_capacity(n_slots);
    for run in runs.into_iter() {
        let r = run.report;
        report.groups_finished += r.groups_finished;
        report.groups_abandoned.extend(&r.groups_abandoned);
        report.group_restarts += r.group_restarts;
        report.server_restarts += r.server_restarts;
        report.groups_migrated += r.groups_migrated;
        report.shards_rehomed += r.shards_rehomed;
        report.shards_joined += r.shards_joined;
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
        // carries its slot on each event, so the journals concatenate and
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
    report.routing_epoch = ctx.coord.routing.epoch();

    // Reduce over the state *lineages* in slot order: each slot's final
    // states are one lineage (a permanently dead shard's lineage is its
    // adopted checkpoint snapshot, returned at the dead slot so the fold
    // order is stable under any migration schedule); slots that never
    // integrated anything drop out without disturbing the canonical
    // order.  A single lineage is the result as it stands.
    let mut states: Vec<Vec<WorkerState>> = states.into_iter().filter(|s| !s.is_empty()).collect();
    let reduced = if states.len() == 1 {
        states.pop().expect("one lineage")
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
    fn routing_table_fences_overrides_on_top_of_the_base_hash() {
        let base = GroupRouter::new(4, 2017);
        let table = RoutingTable::new(base);
        assert_eq!(table.epoch(), 0);
        for g in 0..64u64 {
            assert_eq!(table.shard_of(g), base.shard_of(g), "epoch 0 is the base");
        }
        let g = 7u64;
        let away = (base.shard_of(g) + 1) % 4;
        assert_eq!(table.fence(&[(g, away)]), 1);
        assert_eq!(table.shard_of(g), away);
        // Scale-out: overrides may exceed the base shard count.
        assert_eq!(table.fence(&[(g, 6)]), 2);
        assert_eq!(table.shard_of(g), 6);
        // Migrate-back keeps an explicit override and a new epoch.
        let home = base.shard_of(g);
        assert_eq!(table.fence(&[(g, home)]), 3);
        assert_eq!(table.shard_of(g), home);
        assert_eq!(table.epoch(), 3);
    }

    #[test]
    #[should_panic(expected = "integrated by two shards")]
    fn reduce_rejects_a_group_finished_by_two_shards() {
        let slab = CellRange { start: 0, len: 4 };
        // Group 1 fully integrated by both lineages: the fence safety net
        // must refuse to merge.
        let a = vec![state_with_groups(0, slab, &[0, 1])];
        let b = vec![state_with_groups(0, slab, &[1, 2])];
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
}
