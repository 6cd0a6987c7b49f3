//! A sharded multi-server study: four complete Melissa Server instances
//! behind a seeded group-hash router, reduced into one result set.
//!
//! The same seeded 4-shard study runs three times — over in-process
//! channels, over real TCP loopback sockets, and in-process with one
//! shard's server killed mid-study and restored from its checkpoint —
//! and all three produce **bit-identical** statistics across every
//! family (Sobol', moments, min/max, thresholds, quantiles): neither the
//! transport, nor the thread schedule, nor a shard failover adds a single
//! bit of numerical noise.
//!
//! Against the equivalent **1-shard** run the order-exact families
//! (min/max envelope, threshold exceedance, group counts) are also bit
//! identical, while Sobol'/moments agree to pairwise-merge rounding
//! (`~1e-12` relative — the Pébay merge is exact mathematics, reordered
//! floating point).  See `melissa::shard` for why that distinction is
//! fundamental and not an implementation gap.
//!
//! Run with: `cargo run --release --example sharded_study`

use std::time::Duration;

use melissa_repro::melissa::shard::GroupRouter;
use melissa_repro::melissa::{FaultPlan, Study, StudyConfig, StudyOutput};
use melissa_repro::transport::TransportKind;

const N_SHARDS: usize = 4;
const N_GROUPS: usize = 8;

fn config(n_shards: usize, kind: TransportKind, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.n_shards = n_shards;
    config.transport = kind;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
                                      // One global capacity unit queues trailing shards' groups; keep the
                                      // zombie detector from misreading queue latency as a fault.
    config.group_timeout = Duration::from_secs(15);
    config.server_timeout = Duration::from_secs(15);
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-ex-shard-{tag}-{}", std::process::id()));
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

fn main() {
    let router = GroupRouter::from_config(&config(N_SHARDS, TransportKind::InProcess, "probe"));
    print!("group routing:");
    for k in 0..N_SHARDS {
        print!(" shard{k}={:?}", router.groups_for_shard(k, N_GROUPS));
    }
    println!();

    println!("== {N_SHARDS}-shard study, in-process ==");
    let inproc = run(
        config(N_SHARDS, TransportKind::InProcess, "inproc"),
        FaultPlan::none(),
    );
    println!("{}", inproc.report);

    println!("== same seeded study over TCP loopback ==");
    let tcp = run(
        config(N_SHARDS, TransportKind::Tcp, "tcp"),
        FaultPlan::none(),
    );
    println!("{}", tcp.report);

    println!("== same seeded study, one shard killed and restored ==");
    let victim = (0..N_SHARDS)
        .max_by_key(|&k| router.groups_for_shard(k, N_GROUPS).len())
        .unwrap();
    let mut kill_cfg = config(N_SHARDS, TransportKind::InProcess, "killed");
    kill_cfg.checkpoint_interval = Duration::from_millis(150);
    let killed = run(
        kill_cfg,
        FaultPlan::none().with_server_kill_after_on_shard(1, victim),
    );
    println!("{}", killed.report);
    assert!(
        killed.report.server_restarts >= 1,
        "shard {victim} must have been killed and restored"
    );

    println!("== equivalent 1-shard study ==");
    let single = run(
        config(1, TransportKind::InProcess, "single"),
        FaultPlan::none(),
    );
    println!("{}", single.report);

    // The headline determinism claims: transport backends and shard
    // failover are invisible in the bits.
    // (every statistic at every timestep, bit for bit)
    let diff = inproc.results.first_bit_mismatch(&tcp.results);
    assert_eq!(diff, None, "in-process vs TCP");
    let diff = inproc.results.first_bit_mismatch(&killed.results);
    assert_eq!(diff, None, "fault-free vs kill+restore");

    // Against the single server: order-exact families bitwise; pairwise
    // families to merge rounding.
    let diff = single.results.first_order_exact_mismatch(&inproc.results);
    assert_eq!(diff, None, "1 shard vs 4 shards");
    let last = single.results.n_timesteps() - 1;
    let mut max_rel = 0.0f64;
    for k in 0..single.results.dim() {
        for (x, y) in single
            .results
            .first_order_field(last, k)
            .iter()
            .zip(&inproc.results.first_order_field(last, k))
        {
            let rel = (x - y).abs() / (1.0 + x.abs());
            assert!(rel < 1e-9, "S_k diverged beyond merge rounding: {x} vs {y}");
            max_rel = max_rel.max(rel);
        }
    }

    println!("parity: every statistic at every timestep bit-identical across backends and across kill+restore;");
    println!(
        "        order-exact families bit-identical to the 1-shard run, \
         Sobol' within {max_rel:.2e} of it (pairwise-merge rounding)."
    );
}
