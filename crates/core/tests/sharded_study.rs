//! Sharded multi-server studies end to end: group-hash routing, per-shard
//! supervision, the checkpoint-codec reduction, and shard failover.
//!
//! Bit-exactness contract (see `melissa::shard` docs): the reduction's
//! pairwise merges run in canonical shard order, so a seeded sequential
//! sharded study is a pure function of its configuration — identical
//! across transport backends and across shard kill/restore failovers.
//! Against the *single-server* run of the same seed, the order-exact
//! statistics families (min/max envelope, threshold exceedance, group
//! bookkeeping) are bit-identical, while Sobol'/moments agree up to
//! pairwise-merge rounding.

use std::time::Duration;

use melissa::server::state::WorkerState;
use melissa::shard::{reduce_worker_states, GroupRouter};
use melissa::{FaultPlan, Study, StudyConfig, StudyOutput};
use melissa_mesh::CellRange;
use melissa_telemetry::EventKind;
use melissa_transport::TransportKind;
use proptest::prelude::*;

fn shard_config(n_shards: usize, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = 6;
    config.n_shards = n_shards;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.thresholds = vec![0.1, 0.5];
    // Generous timeouts: with one global capacity unit, queued groups of
    // trailing shards wait for every earlier job; zombie detection must
    // not misfire on queue latency.
    config.group_timeout = Duration::from_secs(15);
    config.server_timeout = Duration::from_secs(15);
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-shard-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

fn run(config: StudyConfig, faults: FaultPlan) -> StudyOutput {
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    let dir = config.checkpoint_dir.clone();
    let out = Study::new(config)
        .with_faults(faults)
        .run()
        .expect("study failed");
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn assert_close(what: &str, a: &[f64], b: &[f64], tol: f64) {
    for (c, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what} cell {c}: {x} vs {y}"
        );
    }
}

#[test]
fn sharded_study_reduces_to_single_server_statistics() {
    let single = run(shard_config(1, "single"), FaultPlan::none());
    let sharded = run(shard_config(3, "multi"), FaultPlan::none());

    assert_eq!(single.report.n_shards, 1);
    assert_eq!(sharded.report.n_shards, 3);
    assert_eq!(sharded.report.groups_finished, 6);
    assert_eq!(sharded.report.group_restarts, 0);
    assert_eq!(sharded.report.server_restarts, 0);
    // Every payload byte reached *some* shard: the summed accounting
    // matches the single server exactly.
    assert_eq!(sharded.report.data_messages, single.report.data_messages);
    assert_eq!(sharded.report.data_bytes, single.report.data_bytes);
    // The wall clock covers the pre-run and the study-end reduction; a
    // single server has nothing to reduce.
    assert!(sharded.report.reduce_time > Duration::ZERO);
    assert_eq!(single.report.reduce_time, Duration::ZERO);
    for report in [&single.report, &sharded.report] {
        assert!(report.prerun_time > Duration::ZERO);
        assert!(report.prerun_time + report.reduce_time <= report.wall_time);
    }

    // Order-exact families: bit-identical to the single server.
    assert_eq!(
        single.results.first_order_exact_mismatch(&sharded.results),
        None
    );
    let n_ts = single.results.n_timesteps();
    for ts in [0, n_ts / 2, n_ts - 1] {
        // Pairwise-merged families: exact up to Pébay-merge rounding.
        for k in 0..single.results.dim() {
            assert_close(
                "S_k",
                &single.results.first_order_field(ts, k),
                &sharded.results.first_order_field(ts, k),
                1e-9,
            );
            assert_close(
                "ST_k",
                &single.results.total_order_field(ts, k),
                &sharded.results.total_order_field(ts, k),
                1e-9,
            );
        }
        assert_close(
            "mean",
            &single.results.mean_field(ts),
            &sharded.results.mean_field(ts),
            1e-12,
        );
        assert_close(
            "variance",
            &single.results.variance_field(ts),
            &sharded.results.variance_field(ts),
            1e-10,
        );
        // Quantiles: the count-weighted merge is a consistent estimator
        // of the same quantiles, not a reordering of the same arithmetic.
        // The sharded estimate must track the single-server one to within
        // a fraction of the per-cell ensemble range (both are crude at
        // this tiny sample count — 12 samples/cell; the observed max
        // deviation is 0.56 of range, so 0.75 bounds the seeded run with
        // margin; this is a tracking bound, not a convergence claim).
        let min = sharded.results.min_field(ts);
        let max = sharded.results.max_field(ts);
        for q in 0..sharded.results.quantile_probs().len() {
            let est = sharded.results.quantile_field(ts, q);
            let want = single.results.quantile_field(ts, q);
            for c in 0..est.len() {
                let range = max[c] - min[c];
                let dev = (est[c] - want[c]).abs();
                assert!(
                    dev <= 0.75 * range + 1e-12,
                    "quantile[{q}] ts {ts} cell {c}: {} vs {} (range {range})",
                    est[c],
                    want[c]
                );
            }
        }
    }
}

/// The single-server study is the one-shard study, under the same
/// naming rule as any shard: its data links are `shard0/server/<w>`,
/// never a bare `server/<w>`.
#[test]
fn a_one_shard_study_streams_to_shard0() {
    let config = shard_config(1, "one");
    let n_workers = config.server_workers;
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    let dir = config.checkpoint_dir.clone();
    let transport = melissa_transport::make_transport(Default::default());
    let out = Study::new(config)
        .run_on(std::sync::Arc::clone(&transport))
        .expect("study failed");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.report.groups_finished, 6);
    let stats = transport.link_stats();
    let names: Vec<&str> = stats.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        names
            .iter()
            .all(|name| name.starts_with("shard0/") || name.starts_with("retired/")),
        "unscoped names in a one-shard study: {names:?}"
    );
    for w in 0..n_workers {
        let name = format!("shard0/server/{w}");
        let (_, link) = stats
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no link to {name} in {names:?}"));
        assert!(link.messages > 0, "{name} carried nothing");
    }
}

#[test]
fn killed_shard_restores_from_checkpoint_bit_identically() {
    let n_shards = 3;
    // Target the shard that owns the most groups, so the kill lands on a
    // shard with work left to replay.
    let router = GroupRouter::from_config(&shard_config(n_shards, "probe"));
    let victim = (0..n_shards)
        .max_by_key(|&k| router.groups_for_shard(k, 6).len())
        .unwrap();
    assert!(
        router.groups_for_shard(victim, 6).len() >= 2,
        "victim shard must have groups to replay"
    );

    let reference = run(shard_config(n_shards, "nofault"), FaultPlan::none());

    // The same kill in process and over TCP loopback: recovery is the
    // same restart in place on either backend.
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let mut config = shard_config(n_shards, &format!("killed-{kind}"));
        config.transport = kind.clone();
        config.checkpoint_interval = Duration::from_millis(150);
        let faults = FaultPlan::none().with_server_kill_after_on_shard(1, victim);
        let killed = run(config, faults);

        assert!(
            killed.report.server_restarts >= 1,
            "{kind}: the victim shard's server must have been restarted"
        );
        assert_eq!(killed.report.groups_finished, 6, "{kind}");
        assert!(
            killed
                .report
                .events
                .iter()
                .any(|e| e.shard as usize == victim
                    && matches!(e.kind, EventKind::ServerKillInjected { .. })),
            "{kind}: kill must be logged against the victim shard: {:?}",
            killed.report.events
        );

        // The restored shard replays its unfinished groups in the same
        // order; discard-on-replay drops what the checkpoint already
        // integrated.  Every statistics family of every shard is
        // bit-identical to the fault-free run.
        assert_eq!(
            reference.results.first_bit_mismatch(&killed.results),
            None,
            "{kind}"
        );
    }
}

/// A scripted kill of a shard the study does not run is refused before
/// anything starts: its supervisor would never exist, so the kill would
/// never fire and the fault test would pass without one.
#[test]
fn a_kill_of_a_shard_the_study_does_not_run_is_refused() {
    let config = shard_config(2, "no-such-shard");
    let faults = FaultPlan::none().with_server_kill_after_on_shard(1, 5);
    let err = Study::new(config)
        .with_faults(faults)
        .run()
        .err()
        .expect("a kill of shard 5 in a 2-shard study");
    assert!(err.contains("shard 5 out of range"), "{err}");
}

// ---------------------------------------------------------------------
// Reduction-tree properties (pure state level, no servers).
// ---------------------------------------------------------------------

const P: usize = 2;
const TS: usize = 2;
const SLAB: CellRange = CellRange { start: 4, len: 6 };
const PROBS: [f64; 2] = [0.25, 0.75];
const THRESHOLDS: [f64; 1] = [3.0];

/// Builds one shard's worker state from a per-group value table.
fn shard_state(groups: &[(u64, Vec<f64>)]) -> WorkerState {
    let mut st = WorkerState::with_stats(0, SLAB, P, TS, &THRESHOLDS, &PROBS);
    for (g, seeds) in groups {
        for ts in 0..TS as u32 {
            for role in 0..(P + 2) as u16 {
                let vals: Vec<f64> = (0..SLAB.len)
                    .map(|i| {
                        let x = seeds[(ts as usize * (P + 2) + role as usize) % seeds.len()];
                        x + ((g * 17 + i as u64 * 5) % 11) as f64 - 5.0
                    })
                    .collect();
                st.on_data(*g, role, ts, SLAB.start as u64, &vals);
            }
        }
    }
    st
}

/// Merges `states` along an arbitrary binary-tree shape: the pick
/// fractions select, at every step, which two work-list entries merge
/// next — covering both arbitrary association *and* arbitrary order.
fn tree_merge(mut states: Vec<WorkerState>, picks: &[f64]) -> WorkerState {
    let mut pick_iter = picks.iter().cycle();
    while states.len() > 1 {
        let fa = pick_iter.next().copied().unwrap_or(0.0);
        let fb = pick_iter.next().copied().unwrap_or(0.0);
        let a = ((fa * states.len() as f64) as usize).min(states.len() - 1);
        let mut b = ((fb * (states.len() - 1) as f64) as usize).min(states.len() - 2);
        if b >= a {
            b += 1;
        }
        let rhs = states.remove(b.max(a));
        let mut lhs = states.remove(b.min(a));
        lhs.merge(&rhs);
        states.push(lhs);
    }
    states.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any tree shape / merge order is bit-identical to the sequential
    /// left fold for the order-exact families (min/max, thresholds,
    /// bookkeeping), and exact up to pairwise-merge rounding for the
    /// floating-point accumulators.
    #[test]
    fn tree_shape_never_changes_the_reduced_statistics(
        per_shard in prop::collection::vec(
            prop::collection::vec(-40.0f64..40.0, (P + 2) * TS),
            2..6,
        ),
        picks in prop::collection::vec(0.0f64..1.0, 16),
    ) {
        // Disjoint groups: shard k integrates groups {k, K + k}.
        let k_shards = per_shard.len();
        let states: Vec<WorkerState> = per_shard
            .iter()
            .enumerate()
            .map(|(k, seeds)| {
                shard_state(&[
                    (k as u64, seeds.clone()),
                    ((k_shards + k) as u64, seeds.iter().map(|v| v * 0.5 + 1.0).collect()),
                ])
            })
            .collect();

        // Sequential left fold in shard order: the canonical result.
        let mut reference = states[0].clone();
        for s in &states[1..] {
            reference.merge(s);
        }

        let tree = tree_merge(states.iter().map(WorkerState::clone).collect(), &picks);

        for ts in 0..TS {
            // Order-exact families: bitwise regardless of shape.
            prop_assert_eq!(tree.minmax(ts), reference.minmax(ts));
            prop_assert_eq!(tree.thresholds(ts), reference.thresholds(ts));
            prop_assert_eq!(
                tree.sobol(ts).n_groups(),
                reference.sobol(ts).n_groups()
            );
            prop_assert_eq!(
                tree.quantiles(ts).unwrap().count(),
                reference.quantiles(ts).unwrap().count()
            );
            // Pairwise accumulators: shape moves only rounding error.
            for k in 0..P {
                let (a, b) = (
                    tree.sobol(ts).first_order_field(k),
                    reference.sobol(ts).first_order_field(k),
                );
                for c in 0..SLAB.len {
                    prop_assert!((a[c] - b[c]).abs() < 1e-9, "S_{} cell {}: {} vs {}", k, c, a[c], b[c]);
                }
            }
            let (ma, mb) = (tree.moments(ts), reference.moments(ts));
            prop_assert_eq!(ma.count(), mb.count());
            for c in 0..SLAB.len {
                prop_assert!((ma.mean()[c] - mb.mean()[c]).abs() < 1e-9);
            }
            let (qa, qb) = (tree.quantiles(ts).unwrap(), reference.quantiles(ts).unwrap());
            for idx in 0..PROBS.len() {
                let (fa, fb) = (qa.quantile_field(idx), qb.quantile_field(idx));
                for c in 0..SLAB.len {
                    prop_assert!(
                        (fa[c] - fb[c]).abs() < 1e-9 * (1.0 + fa[c].abs()),
                        "quantile[{}] cell {}: {} vs {}", idx, c, fa[c], fb[c]
                    );
                }
            }
        }
        // Bookkeeping takes the union whatever the shape.
        let mut fa = tree.finished_groups().to_vec();
        let mut fb = reference.finished_groups().to_vec();
        fa.sort_unstable();
        fb.sort_unstable();
        prop_assert_eq!(fa, fb);
    }

    /// The canonical reduction (what the study runs, the workers of each
    /// fold merged in parallel) is bit-identical to the sequential left
    /// fold — the thread schedule contributes nothing.
    #[test]
    fn canonical_reduction_is_bit_identical_to_the_left_fold(
        per_shard in prop::collection::vec(
            prop::collection::vec(-40.0f64..40.0, (P + 2) * TS),
            2..6,
        ),
    ) {
        let states: Vec<WorkerState> = per_shard
            .iter()
            .enumerate()
            .map(|(k, seeds)| shard_state(&[(k as u64, seeds.clone())]))
            .collect();

        let mut reference = states[0].clone();
        for s in &states[1..] {
            reference.merge(s);
        }

        let shards: Vec<Vec<WorkerState>> = states.into_iter().map(|s| vec![s]).collect();
        let reduced = reduce_worker_states(&shards);
        prop_assert_eq!(reduced.len(), 1);
        let got = &reduced[0];
        for ts in 0..TS {
            prop_assert_eq!(got.sobol(ts), reference.sobol(ts));
            prop_assert_eq!(got.moments(ts), reference.moments(ts));
            prop_assert_eq!(got.minmax(ts), reference.minmax(ts));
            prop_assert_eq!(got.thresholds(ts), reference.thresholds(ts));
            prop_assert_eq!(got.quantiles(ts), reference.quantiles(ts));
        }
    }
}
