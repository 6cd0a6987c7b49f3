//! Section 5.3 scalar results: the quantitative claims of the paper's
//! performance evaluation, paper vs. the [`curie`](melissa_bench::curie)
//! replay of its calibrated Curie numbers (not a measurement of this code).

use melissa_bench::curie::{simulate_study, FullScaleParams, OutputKind};
use melissa_bench::{row, table_header};

fn main() {
    let params = FullScaleParams::default();
    let s1 = simulate_study(&params, OutputKind::Melissa, 15);
    let s2 = simulate_study(&params, OutputKind::Melissa, 32);

    table_header("Section 5.3 — Study 1 (server on 15 nodes)");
    println!(
        "{}",
        row("wall clock", "2 h 30 (9000 s)", &fmt_hm(s1.wall_time_s))
    );
    println!(
        "{}",
        row(
            "CPU hours, simulations",
            "56 487",
            &format!("{:.0}", s1.cpu_hours_sims)
        )
    );
    println!(
        "{}",
        row(
            "CPU hours, server",
            "602 (1 %)",
            &format!(
                "{:.0} ({:.1} %)",
                s1.cpu_hours_server,
                100.0 * s1.cpu_hours_server / (s1.cpu_hours_server + s1.cpu_hours_sims)
            )
        )
    );
    println!(
        "{}",
        row(
            "peak groups / cores",
            "56 / 28 912",
            &format!("{} / {}", s1.peak_groups, s1.peak_cores)
        )
    );

    table_header("Section 5.3 — Study 2 (server on 32 nodes)");
    println!(
        "{}",
        row("wall clock", "1 h 27 (5220 s)", &fmt_hm(s2.wall_time_s))
    );
    println!(
        "{}",
        row(
            "CPU hours, simulations",
            "34 082",
            &format!("{:.0}", s2.cpu_hours_sims)
        )
    );
    println!(
        "{}",
        row(
            "CPU hours, server",
            "742 (2.1 %)",
            &format!(
                "{:.0} ({:.1} %)",
                s2.cpu_hours_server,
                100.0 * s2.cpu_hours_server / (s2.cpu_hours_server + s2.cpu_hours_sims)
            )
        )
    );
    println!(
        "{}",
        row(
            "peak groups / cores",
            "55 / 28 672",
            &format!("{} / {}", s2.peak_groups, s2.peak_cores)
        )
    );
    println!(
        "{}",
        row(
            "peak msgs/min per server process",
            "~1000",
            &format!("{:.0}", s2.peak_msgs_per_min_per_proc)
        )
    );
    println!(
        "{}",
        row(
            "server memory",
            "491 GB (15.3 GB/node)",
            &format!(
                "{:.0} GB ({:.1} GB/node)",
                s2.server_memory_bytes / 1e9,
                s2.server_memory_bytes / 1e9 / 32.0
            )
        )
    );
    println!(
        "{}",
        row(
            "data treated in transit",
            "48 TB",
            &format!("{:.1} TB", s2.data_bytes / 1e12)
        )
    );

    table_header("Section 5.3 — cross-study comparisons");
    let no_output = params.no_output_duration();
    let classical = params.classical_duration(1.0);
    let melissa = s2.steady_group_time();
    println!(
        "{}",
        row(
            "classical vs no-output",
            "+35.3 %",
            &format!("{:+.1} %", (classical / no_output - 1.0) * 100.0)
        )
    );
    println!(
        "{}",
        row(
            "Melissa (32 nodes) vs no-output",
            "+18.5 %",
            &format!("{:+.1} %", (melissa / no_output - 1.0) * 100.0)
        )
    );
    println!(
        "{}",
        row(
            "Melissa (32 nodes) vs classical",
            "-13 %",
            &format!("{:+.1} %", (melissa / classical - 1.0) * 100.0)
        )
    );
    let cpu_reduction =
        1.0 - (s2.cpu_hours_sims + s2.cpu_hours_server) / (s1.cpu_hours_sims + s1.cpu_hours_server);
    println!(
        "{}",
        row(
            "CPU-hours reduction 15 -> 32 nodes",
            "~40 %",
            &format!("{:.0} %", cpu_reduction * 100.0)
        )
    );
    println!(
        "{}",
        row(
            "wall-clock speed-up 15 -> 32 nodes",
            "1.72",
            &format!("{:.2}", s1.wall_time_s / s2.wall_time_s)
        )
    );
    let extra = 32.0 / (56.0 * params.nodes_per_group() as f64) * 100.0;
    println!(
        "{}",
        row(
            "server fraction of machine",
            "~1.8 %",
            &format!("{extra:.1} %")
        )
    );
}

fn fmt_hm(s: f64) -> String {
    format!(
        "{:.0} s ({}h{:02})",
        s,
        (s / 3600.0) as u64,
        ((s % 3600.0) / 60.0) as u64
    )
}
