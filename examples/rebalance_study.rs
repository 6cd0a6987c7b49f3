//! Epoch-fenced live rebalancing: a 4-shard study survives a drain-and-
//! move migration onto a *freshly joined* fifth shard AND the permanent
//! death of another shard (re-homed from its checkpoint to a surviving
//! peer) — and the order-exact statistics families (min/max envelope,
//! threshold exceedance, group bookkeeping) come out **bit-identical**
//! to the static fault-free run of the same seed, over in-process
//! channels and over real TCP loopback sockets alike.
//!
//! Failure is just migration with an unplanned source: both paths raise
//! a routing epoch, fence the moved groups (no frame is ever integrated
//! twice — the study-end reduction panics if one is), and fold the
//! resulting worker-state lineages in canonical order at study end.
//! Sobol'/moments agree to pairwise-merge rounding; the Robbins–Monro
//! quantiles are order-dependent by construction and excluded from the
//! bit-comparison (see `melissa::shard`).
//!
//! Run with: `cargo run --release --example rebalance_study`

use std::time::Duration;

use melissa_repro::melissa::{
    FaultPlan, GroupRouter, Migration, MigrationMoves, ShardKill, Study, StudyConfig, StudyOutput,
};
use melissa_repro::transport::TransportKind;

const N_SHARDS: usize = 4;
const N_GROUPS: usize = 10;

fn config(kind: TransportKind, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.n_shards = N_SHARDS;
    config.transport = kind;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.thresholds = vec![0.1, 0.5];
    // Warm checkpoints: the permanently killed shard re-homes from its
    // latest one.
    config.checkpoint_interval = Duration::from_millis(150);
    config.group_timeout = Duration::from_secs(20);
    config.server_timeout = Duration::from_secs(20);
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-ex-rebal-{tag}-{}", std::process::id()));
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

/// The chaos script: the busiest shard drains onto a brand-new slot
/// (elastic scale-out + scale-in in one fence) and the second-busiest
/// dies for good, re-homed to a surviving peer.
fn chaos_plan(router: &GroupRouter) -> (FaultPlan, usize, usize) {
    let mut by_load: Vec<usize> = (0..N_SHARDS).collect();
    by_load.sort_by_key(|&k| std::cmp::Reverse(router.groups_for_shard(k, N_GROUPS).len()));
    let (src, victim) = (by_load[0], by_load[1]);
    let adopter = (0..N_SHARDS)
        .find(|k| *k != src && *k != victim)
        .expect("4 shards leave a surviving peer");
    let plan = FaultPlan::none()
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
        });
    (plan, src, victim)
}

/// Sobol' indices to pairwise-merge rounding; returns the worst relative gap.
fn max_sobol_gap(a: &StudyOutput, b: &StudyOutput) -> f64 {
    let last = a.results.n_timesteps() - 1;
    let mut max_rel = 0.0f64;
    for k in 0..a.results.dim() {
        for (x, y) in a
            .results
            .first_order_field(last, k)
            .iter()
            .zip(&b.results.first_order_field(last, k))
        {
            let rel = (x - y).abs() / (1.0 + x.abs());
            assert!(rel < 1e-9, "S_k diverged beyond merge rounding: {x} vs {y}");
            max_rel = max_rel.max(rel);
        }
    }
    max_rel
}

fn main() {
    let router = GroupRouter::from_config(&config(TransportKind::InProcess, "probe"));
    print!("group routing (epoch 0):");
    for k in 0..N_SHARDS {
        print!(" shard{k}={:?}", router.groups_for_shard(k, N_GROUPS));
    }
    println!();

    println!("== static fault-free reference, in-process ==");
    let reference = run(config(TransportKind::InProcess, "ref"), FaultPlan::none());
    println!("{}", reference.report);

    let (plan, src, victim) = chaos_plan(&router);
    println!(
        "== chaos run, in-process: shard {src} drains to new slot {N_SHARDS}, \
         shard {victim} dies permanently =="
    );
    let chaos = run(config(TransportKind::InProcess, "chaos"), plan.clone());
    println!("{}", chaos.report);

    println!("== same chaos script over TCP loopback ==");
    let chaos_tcp = run(config(TransportKind::Tcp, "chaos-tcp"), plan);
    println!("{}", chaos_tcp.report);

    for (name, out) in [("in-process", &chaos), ("tcp", &chaos_tcp)] {
        assert_eq!(out.report.groups_finished, N_GROUPS, "{name}: all finished");
        assert!(out.report.groups_migrated >= 2, "{name}: fences moved work");
        assert_eq!(out.report.shards_rehomed, 1, "{name}: one shard re-homed");
        assert_eq!(out.report.shards_joined, 1, "{name}: one slot joined");
        assert_eq!(out.report.routing_epoch, 2, "{name}: two fences raised");
    }

    // Order-exact families at every timestep, bit for bit.
    for (name, out) in [("in-process", &chaos), ("tcp", &chaos_tcp)] {
        let diff = reference.results.first_order_exact_mismatch(&out.results);
        assert_eq!(diff, None, "static vs chaos ({name})");
    }
    let g1 = max_sobol_gap(&reference, &chaos);
    let g2 = max_sobol_gap(&reference, &chaos_tcp);

    println!(
        "rebalance parity: order-exact families bit-identical at every timestep under \
         migration + re-homing, in-process and over TCP;"
    );
    println!(
        "                  Sobol' within {:.2e} (in-process) / {:.2e} (tcp) of the \
         static run (pairwise-merge rounding).",
        g1, g2
    );
}
