//! Shard failures in a 4-shard study over TCP loopback, against the
//! fault-free in-process run of the same seed.
//!
//! Group routing is static (the seeded `GroupRouter`): a killed shard's
//! groups are never moved to a peer.  The shard restarts in place from
//! its latest checkpoint, its supervisor relaunches the groups it had not
//! finished, and discard-on-replay drops the timesteps the checkpoint
//! already integrated.  So however the kills fall — one shard killed
//! twice, a second shard once — every `(group, timestep)` integrates
//! exactly once on its home shard, and every statistics family of the
//! chaos run is bit-identical to the fault-free run.  The fault-free
//! reference runs in process: the transport parity contract makes it
//! bit-identical to the same run over TCP.

use std::time::Duration;

use melissa::{FaultPlan, GroupRouter, Study, StudyConfig, StudyOutput};
use melissa_telemetry::EventKind;
use melissa_transport::TransportKind;

const N_GROUPS: usize = 10;
const N_SHARDS: usize = 4;

fn chaos_config(tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.n_shards = N_SHARDS;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.thresholds = vec![0.1, 0.5];
    // Frequent checkpoints: a killed shard restores from its latest one.
    config.checkpoint_interval = Duration::from_millis(150);
    // Generous timeouts: with one global capacity unit, queued groups of
    // trailing shards wait for every earlier job.
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

#[test]
fn rebalance_is_bit_exact_over_tcp() {
    let reference = run(chaos_config("tcp-ref"), FaultPlan::none());

    let mut config = chaos_config("tcp-chaos");
    config.transport = TransportKind::Tcp;
    // The two busiest shards die: the busiest twice (once more after its
    // first restore), the next once.  Each has groups left to replay at
    // every trigger point.
    let router = GroupRouter::from_config(&config);
    let mut by_load: Vec<usize> = (0..N_SHARDS).collect();
    by_load.sort_by_key(|&k| std::cmp::Reverse(router.groups_for_shard(k, N_GROUPS).len()));
    let (twice, once) = (by_load[0], by_load[1]);
    assert!(
        router.groups_for_shard(twice, N_GROUPS).len() >= 3
            && router.groups_for_shard(once, N_GROUPS).len() >= 2,
        "script needs shards with unfinished groups at the trigger points"
    );
    let faults = FaultPlan::none()
        .with_server_kill_after_on_shard(1, twice)
        .with_server_kill_after_on_shard(2, twice)
        .with_server_kill_after_on_shard(1, once);
    let chaos = run(config, faults);

    assert_eq!(chaos.report.transport, "tcp");
    assert_eq!(chaos.report.groups_finished, N_GROUPS);
    assert!(chaos.report.groups_abandoned.is_empty());
    assert_eq!(chaos.report.server_restarts, 3, "every scripted kill fired");
    for (shard, kills) in [(twice, 2), (once, 1)] {
        let logged = chaos
            .report
            .events
            .iter()
            .filter(|e| {
                e.shard as usize == shard && matches!(e.kind, EventKind::ServerKillInjected { .. })
            })
            .count();
        assert_eq!(logged, kills, "kills logged against shard {shard}");
    }
    assert_eq!(
        reference.results.first_bit_mismatch(&chaos.results),
        None,
        "every (group, timestep) integrates exactly once on its home shard"
    );
}
