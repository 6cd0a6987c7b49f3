//! Figure 6 (a–d): the two full-scale sensitivity analyses on "Curie".
//!
//! Replays the paper's Study 1 (Melissa Server on 15 nodes) and Study 2
//! (32 nodes) through the calibrated [`curie`](melissa_bench::curie)
//! replay, printing the trace shapes and writing the CSV series the paper
//! plots:
//!
//! * Fig. 6a/6c — number of running simulation groups and cores vs time;
//! * Fig. 6b/6d — average execution time per group vs time, against the
//!   *classical* (file-writing) and *no output* reference levels.
//!
//! The replay's inputs are the paper's own Curie numbers: what it prints
//! shows the paper's ratios, not this code's speed.
//!
//! `--sweep-servers` additionally sweeps the server node count to locate
//! the backpressure knee (the generalisation of the 15-vs-32 ablation).

use melissa_bench::curie::{simulate_study, FullScaleParams, OutputKind};
use melissa_bench::{experiments_dir, row, table_header};

fn main() {
    let sweep = std::env::args().any(|a| a == "--sweep-servers");
    let params = FullScaleParams::default();
    let dir = experiments_dir();

    // Reference levels (Fig. 6b/6d horizontal lines).
    let no_output = params.no_output_duration();
    let classical_group_scale = params.classical_duration(1.0);
    println!("reference levels:");
    println!("  no output : {no_output:.1} s per simulation (100 timesteps)");
    println!(
        "  classical : {classical_group_scale:.1} s ({:+.1} % vs no output)",
        (classical_group_scale / no_output - 1.0) * 100.0
    );

    for (study, server_nodes, paper_wall, paper_peak_groups, paper_peak_cores) in [
        ("Study 1 (Fig. 6a/6b)", 15u32, 9000.0, 56u32, 28_912u32),
        ("Study 2 (Fig. 6c/6d)", 32u32, 5220.0, 55u32, 28_672u32),
    ] {
        let t = simulate_study(&params, OutputKind::Melissa, server_nodes);

        table_header(&format!("{study}: Melissa Server on {server_nodes} nodes"));
        println!(
            "{}",
            row(
                "wall clock (s)",
                &format!("{paper_wall:.0}"),
                &format!("{:.0}", t.wall_time_s)
            )
        );
        println!(
            "{}",
            row(
                "peak running groups",
                &paper_peak_groups.to_string(),
                &t.peak_groups.to_string()
            )
        );
        println!(
            "{}",
            row(
                "peak cores (sims + server)",
                &paper_peak_cores.to_string(),
                &t.peak_cores.to_string()
            )
        );
        let steady = t.steady_group_time();
        println!(
            "{}",
            row(
                "steady avg group exec time (s)",
                if server_nodes == 15 {
                    "~400-450 (suspended)"
                } else {
                    "~250-270"
                },
                &format!("{steady:.0}")
            )
        );
        println!(
            "{}",
            row(
                "group slowdown vs no output",
                if server_nodes == 15 {
                    "up to ~2x"
                } else {
                    "+18.5 %"
                },
                &format!(
                    "{:+.1} % ({:.2}x)",
                    (steady / no_output - 1.0) * 100.0,
                    steady / no_output
                )
            )
        );
        println!(
            "{}",
            row(
                "backpressure (blocked group-hours)",
                if server_nodes == 15 {
                    "> 0 (suspensions)"
                } else {
                    "0"
                },
                &format!("{:.1}", t.blocked_group_seconds / 3600.0)
            )
        );
        println!(
            "{}",
            row(
                "Melissa vs classical",
                if server_nodes == 15 {
                    "slower (saturated)"
                } else {
                    "13 % faster"
                },
                &format!("{:+.1} %", (steady / classical_group_scale - 1.0) * 100.0)
            )
        );

        // CSV series for plotting.
        let tag = format!("fig6_server{server_nodes}");
        std::fs::write(
            dir.join(format!("{tag}_running_groups.csv")),
            t.running_groups.to_csv("running_groups"),
        )
        .unwrap();
        std::fs::write(
            dir.join(format!("{tag}_cores.csv")),
            t.cores_used.to_csv("cores"),
        )
        .unwrap();
        std::fs::write(
            dir.join(format!("{tag}_group_time.csv")),
            t.group_exec_time.to_csv("group_exec_s"),
        )
        .unwrap();

        // ASCII sketch of the running-groups curve (Fig. 6a/6c shape).
        println!("\nrunning groups over time ({study}):");
        sketch(&t.running_groups.downsample(60), t.peak_groups as f64);
    }

    if sweep {
        table_header("server node sweep: locating the backpressure knee");
        println!(
            "{}",
            row("server nodes", "-", "steady group time (s) / blocked h")
        );
        for nodes in [4u32, 8, 12, 15, 20, 24, 28, 32, 40, 48] {
            let t = simulate_study(&params, OutputKind::Melissa, nodes);
            println!(
                "{}",
                row(
                    &format!("{nodes} nodes"),
                    "-",
                    &format!(
                        "{:.0} s / {:.1} h",
                        t.steady_group_time(),
                        t.blocked_group_seconds / 3600.0
                    )
                )
            );
        }
    }

    println!("\nCSV series written under {}", dir.display());
}

/// Tiny ASCII plot of a (time, value) series.
fn sketch(samples: &[(f64, f64)], max: f64) {
    if samples.is_empty() || max <= 0.0 {
        return;
    }
    for &(t, v) in samples.iter().step_by(3) {
        let bars = ((v / max) * 50.0).round() as usize;
        println!("  {t:>7.0} s | {}", "#".repeat(bars));
    }
}
