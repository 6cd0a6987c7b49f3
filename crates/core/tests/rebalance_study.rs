//! Epoch-fenced live rebalancing end to end: drain-and-move migration,
//! elastic scale-out, permanent shard death with re-homing — all under
//! the bit-exactness contract.
//!
//! The invariant driving every assertion here: a fence hands each
//! `(group, timestep)` to exactly one worker lineage, so the order-exact
//! statistics families (min/max envelope, threshold exceedance, group
//! bookkeeping) of a chaos run are **bit-identical** to the static
//! fault-free run of the same seed, whatever the migration schedule and
//! whichever backend carries the frames.  Sobol'/moments agree up to
//! pairwise-merge rounding (the lineage split moves only that), and the
//! order-dependent Robbins–Monro quantiles are excluded from
//! bit-comparison by design.  Double integration is impossible, enforced
//! twice: the per-worker finished check in `reduce_worker_states` and the
//! interval ledgers inside `WorkerState::merge` — both run inside every
//! `Study::run` below and panic the test on violation.

use std::time::Duration;

use melissa::{
    FaultPlan, GroupRouter, Migration, MigrationMoves, ShardKill, Study, StudyConfig, StudyOutput,
};
use melissa_telemetry::EventKind;
use melissa_transport::TransportKind;
use proptest::prelude::*;

const N_GROUPS: usize = 10;
const N_SHARDS: usize = 4;

fn rebalance_config(tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.n_shards = N_SHARDS;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.thresholds = vec![0.1, 0.5];
    // Frequent checkpoints: a permanently killed shard re-homes from its
    // latest checkpoint, so give it warm ones to hand over.
    config.checkpoint_interval = Duration::from_millis(150);
    // Generous timeouts: with one global capacity unit, queued groups of
    // trailing slots wait for every earlier job.
    config.group_timeout = Duration::from_secs(20);
    config.server_timeout = Duration::from_secs(20);
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-rebal-{tag}-{}", std::process::id()));
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

/// The migration bit-exactness contract: order-exact families bitwise,
/// pairwise accumulators to merge-rounding, quantiles excluded (their
/// Robbins–Monro updates are order-dependent and a fence reorders them).
fn assert_order_exact_families_match(reference: &StudyOutput, chaos: &StudyOutput) {
    assert_eq!(
        reference.results.first_order_exact_mismatch(&chaos.results),
        None,
        "every (group, timestep) integrates exactly once"
    );
    let n_ts = reference.results.n_timesteps();
    for ts in [0, n_ts / 2, n_ts - 1] {
        for k in 0..reference.results.dim() {
            assert_close(
                &format!("S_{k} ts {ts}"),
                &reference.results.first_order_field(ts, k),
                &chaos.results.first_order_field(ts, k),
                1e-9,
            );
        }
        assert_close(
            &format!("mean ts {ts}"),
            &reference.results.mean_field(ts),
            &chaos.results.mean_field(ts),
            1e-12,
        );
        assert_close(
            &format!("variance ts {ts}"),
            &reference.results.variance_field(ts),
            &chaos.results.variance_field(ts),
            1e-10,
        );
    }
}

/// The chaos script: the busiest shard drains to a *new* slot (elastic
/// scale-out + scale-in in one fence), and a second shard dies
/// permanently, re-homed to a surviving peer.
fn chaos_plan(config: &StudyConfig) -> FaultPlan {
    let router = GroupRouter::from_config(config);
    let mut by_load: Vec<usize> = (0..N_SHARDS).collect();
    by_load.sort_by_key(|&k| std::cmp::Reverse(router.groups_for_shard(k, N_GROUPS).len()));
    let src = by_load[0]; // drains to the joiner
    let victim = by_load[1]; // dies permanently
    assert!(
        router.groups_for_shard(src, N_GROUPS).len() >= 2
            && router.groups_for_shard(victim, N_GROUPS).len() >= 2,
        "script needs shards with unfinished groups at the trigger points"
    );
    let adopter = (0..N_SHARDS)
        .find(|k| *k != src && *k != victim)
        .expect("4 shards leave a surviving peer");
    FaultPlan::none()
        .with_migration(Migration {
            from: src,
            to: N_SHARDS, // beyond the configured shards: a fresh slot joins
            after_finished_groups: 1,
            moves: MigrationMoves::AllUnfinished,
        })
        .with_shard_kill(ShardKill {
            shard: victim,
            after_finished_groups: 1,
            permanent: true,
            rehome_to: Some(adopter),
        })
}

#[test]
fn migration_scaleout_and_rehoming_match_the_static_run() {
    let reference = run(rebalance_config("ref"), FaultPlan::none());
    assert_eq!(reference.report.routing_epoch, 0, "static run never fences");

    let config = rebalance_config("chaos");
    let faults = chaos_plan(&config);
    let death = faults.shard_kills[0].clone();
    let chaos = run(config, faults);

    assert_eq!(chaos.report.groups_finished, N_GROUPS);
    assert!(chaos.report.groups_abandoned.is_empty());
    assert!(
        chaos.report.groups_migrated >= 2,
        "both fences moved groups: {}",
        chaos.report.groups_migrated
    );
    assert_eq!(chaos.report.shards_rehomed, 1, "one shard died for good");
    assert_eq!(chaos.report.shards_joined, 1, "one slot joined mid-study");
    assert_eq!(chaos.report.routing_epoch, 2, "two fences were raised");
    let (victim, adopter) = (death.shard as u32, death.rehome_to.unwrap() as u32);
    assert!(
        chaos.report.events.iter().any(|e| e.shard == victim
            && matches!(e.kind, EventKind::ShardDeathInjected { rehome_to, .. } if rehome_to == adopter)),
        "the permanent kill must be logged by the victim: {:?}",
        chaos.report.events
    );
    assert!(
        chaos.report.events.iter().any(|e| e.shard == adopter
            && matches!(e.kind, EventKind::GroupsAdopted { from, .. } if from == victim)),
        "the adoption must be logged by the adopter: {:?}",
        chaos.report.events
    );

    assert_order_exact_families_match(&reference, &chaos);
}

#[test]
fn rebalance_is_bit_exact_over_tcp() {
    // The static reference is backend-bit-identical (existing transport
    // parity contract), so the in-process run stands in for both.
    let reference = run(rebalance_config("tcp-ref"), FaultPlan::none());

    let mut config = rebalance_config("tcp-chaos");
    config.transport = TransportKind::Tcp;
    let faults = chaos_plan(&config);
    let chaos = run(config, faults);

    assert_eq!(chaos.report.transport, "tcp");
    assert_eq!(chaos.report.groups_finished, N_GROUPS);
    assert_eq!(chaos.report.shards_rehomed, 1);
    assert_eq!(chaos.report.shards_joined, 1);
    assert_eq!(chaos.report.routing_epoch, 2);
    assert_order_exact_families_match(&reference, &chaos);
}

// ---------------------------------------------------------------------
// Arbitrary migration schedules (satellite: proptest over fences at
// arbitrary completion points, including migrate-back).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whatever the fence points — including draining a shard into a
    /// fresh slot and migrating the groups straight back — the order-
    /// exact families stay bit-identical to the static run, and no frame
    /// is ever integrated twice (the reduction's per-worker finished
    /// check and the interval-ledger merge both run inside `run()`).
    #[test]
    fn arbitrary_migration_schedules_stay_bit_exact(
        trigger_out in 0usize..2,
        trigger_back in 0usize..2,
        migrate_back in 0usize..2,
    ) {
        let tag = format!("prop-{trigger_out}-{trigger_back}-{migrate_back}");
        let mut config = rebalance_config(&tag);
        config.n_shards = 2;
        config.n_groups = 6;

        let router = GroupRouter::from_config(&config);
        let src = (0..2)
            .max_by_key(|&k| router.groups_for_shard(k, 6).len())
            .unwrap();
        prop_assert!(router.groups_for_shard(src, 6).len() >= 2);

        let mut faults = FaultPlan::none().with_migration(Migration {
            from: src,
            to: 2, // scale-out slot
            after_finished_groups: trigger_out,
            moves: MigrationMoves::AllUnfinished,
        });
        if migrate_back == 1 {
            faults = faults.with_migration(Migration {
                from: 2,
                to: src, // migrate-back: the override outlives the detour
                after_finished_groups: trigger_back,
                moves: MigrationMoves::AllUnfinished,
            });
        }

        let mut ref_config = rebalance_config(&format!("{tag}-ref"));
        ref_config.n_shards = 2;
        ref_config.n_groups = 6;
        let reference = run(ref_config, FaultPlan::none());
        let chaos = run(config, faults);

        prop_assert_eq!(chaos.report.groups_finished, 6);
        prop_assert!(chaos.report.routing_epoch >= 1);
        prop_assert_eq!(
            reference.results.first_order_exact_mismatch(&chaos.results),
            None
        );
    }
}
