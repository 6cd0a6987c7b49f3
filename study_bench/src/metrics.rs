//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each
//! is expected to move — and `BENCHMARK.json` generated from these same
//! tables, so the file at the repo root cannot drift from the code.

use std::collections::BTreeMap;

use crate::json::Json;

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

/// A workload: its name and why it is in the set.
pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDoc; 5] = [
    WorkloadDoc {
        name: "tube_inproc",
        why: "in-process links, frames move by reference: solver and fused sweep do the work; bypass for every wire, codec and daemon change",
    },
    WorkloadDoc {
        name: "tube_tcp",
        why: "same study over TCP loopback, compression off: framing, vectored writes, link threads and the flush barrier do the added work",
    },
    WorkloadDoc {
        name: "tube_tcp_transpose",
        why: "TCP with the lossless Transpose codec: CPU spent to save wire bytes, so a codec or raw-wire trade-off shows on both sides",
    },
    WorkloadDoc {
        name: "sharded_reduce",
        why: "two server shards, few groups: study-end state pack/unpack and shard merge do half the work, none in tube_*",
    },
    WorkloadDoc {
        name: "daemon_small",
        why: "two closed-loop clients submit tiny studies to one daemon: control plane, admission, per-job spawn and polling ticks dominate",
    },
];

/// An end-to-end metric: what a user of the system sees.
///
/// Bounds: a tenth was the aim.  The host this was written on (2 vCPUs
/// whose speed steps between about 1x, 0.7x and 0.5x for seconds at a
/// time) spreads every wall-clock and CPU-time metric of a 15 s run by
/// 5-15 % between runs, so those carry the widest bound the contract
/// allows; the wire count repeats to half a percent and the memory peak
/// to 1-7 %, and keep tighter ones.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "transit_ratio",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_sample",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_kib_per_sample",
        unit: "KiB",
        higher_is_better: false,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "study_latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "study_latency_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer metric, with the prediction written down before anything
/// is measured: which end-to-end metric it should move, on which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// `live` (decorator spans of a traced study), `replay` (staged
    /// single-threaded pass) or `host` (ceiling measured in-process).
    pub source: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    source: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        source,
        moves,
        on,
    }
}

const SOLVER_MOVES: &str = "samples_per_s (not transit_ratio)";
const ALL_BUT_DAEMON: &str = "tube_*, sharded_reduce";
const CODEC_MOVES: &str = "samples_per_s, cpu_ms_per_sample, wire_kib_per_sample";
const WIRE_MOVES: &str = "samples_per_s, cpu_ms_per_sample";
const SERVER_MOVES: &str = "samples_per_s, transit_ratio, peak_rss_mib";
const DRAIN_MOVES: &str = "samples_per_s, peak_rss_mib";
const LATENCY_MOVES: &str = "study_latency_p50_ms, study_latency_p90_ms";

// One row per metric reads better than rustfmt's one argument per line.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 51] = [
    layer("solver.prerun_s", "s", false, "replay", SOLVER_MOVES, ALL_BUT_DAEMON),
    layer("solver.advance_ns_per_cell", "ns", false, "replay", SOLVER_MOVES, ALL_BUT_DAEMON),
    layer("solver.no_output_s_per_group", "s", false, "replay", SOLVER_MOVES, ALL_BUT_DAEMON),
    layer("client.chunk_ns_per_cell", "ns", false, "replay", "transit_ratio, cpu_ms_per_sample", "tube_*"),
    layer("protocol.encode_gib_s", "GiB/s", true, "replay", "transit_ratio, cpu_ms_per_sample", "tube_*"),
    layer("protocol.decode_gib_s", "GiB/s", true, "replay", "transit_ratio, cpu_ms_per_sample", "tube_*"),
    layer("compress.encode_mib_s", "MiB/s", true, "replay", CODEC_MOVES, "tube_tcp_transpose"),
    layer("compress.decode_mib_s", "MiB/s", true, "replay", CODEC_MOVES, "tube_tcp_transpose"),
    layer("compress.ratio", "ratio", true, "replay", CODEC_MOVES, "tube_tcp_transpose"),
    layer("channel.stream_mib_s", "MiB/s", true, "replay", WIRE_MOVES, "tube_inproc"),
    layer("tcp.stream_mib_s", "MiB/s", true, "replay", WIRE_MOVES, "tube_tcp"),
    layer("tcp.stream_transpose_mib_s", "MiB/s", true, "replay", WIRE_MOVES, "tube_tcp_transpose"),
    layer("tcp.flush_rtt_us", "us", false, "replay", WIRE_MOVES, "tube_tcp*"),
    layer("transport.frames", "count", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.payload_bytes", "bytes", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.wire_bytes", "bytes", false, "live", "wire_kib_per_sample", "tube_tcp*"),
    layer("transport.wire_ratio", "ratio", true, "live", "wire_kib_per_sample", "tube_tcp_transpose"),
    layer("transport.send_busy_s", "s", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.send_blocked_s", "s", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.blocked_sends", "count", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.flush_s", "s", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.connect_s", "s", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.recv_wait_s", "s", false, "live", "transit_ratio", "tube_tcp*"),
    layer("transport.queue_depth_p90", "count", false, "live", "transit_ratio", "tube_tcp*"),
    layer("server.busy_frac", "ratio", false, "live", SERVER_MOVES, "tube_inproc"),
    layer("server.assemble_ns_per_cell", "ns", false, "replay", SERVER_MOVES, "tube_inproc"),
    layer("server.sweep_ns_per_cell", "ns", false, "replay", SERVER_MOVES, "tube_inproc"),
    layer("server.state_bytes_per_cell_ts", "bytes", false, "replay", "peak_rss_mib", "tube_inproc"),
    layer("checkpoint.pack_mib_s", "MiB/s", true, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("checkpoint.unpack_mib_s", "MiB/s", true, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("checkpoint.write_mib_s", "MiB/s", true, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("checkpoint.read_mib_s", "MiB/s", true, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("checkpoint.bytes_per_worker", "bytes", false, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("shard.reduce_s", "s", false, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("shard.reduce_ns_per_cell_ts", "ns", false, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("study.results_s", "s", false, "replay", DRAIN_MOVES, "sharded_reduce"),
    layer("scheduler.jobs", "count", false, "live", LATENCY_MOVES, "daemon_small"),
    layer("scheduler.queue_wait_p50_ms", "ms", false, "live", LATENCY_MOVES, "daemon_small"),
    layer("group.exec_p50_ms", "ms", false, "live", "study_latency_p50_ms, samples_per_s", "daemon_small"),
    layer("group.exec_p90_ms", "ms", false, "live", "study_latency_p90_ms, samples_per_s", "daemon_small"),
    layer("daemon.submit_rpc_p50_us", "us", false, "replay", LATENCY_MOVES, "daemon_small"),
    layer("daemon.status_rpc_p50_us", "us", false, "replay", LATENCY_MOVES, "daemon_small"),
    layer("daemon.hosting_overhead_ms", "ms", false, "replay", LATENCY_MOVES, "daemon_small"),
    layer("telemetry.scrape_rpc_p50_us", "us", false, "replay", LATENCY_MOVES, "daemon_small"),
    layer("host.nproc", "count", true, "host", "- (ceiling)", "all"),
    layer("host.memcpy_gib_s", "GiB/s", true, "host", "- (ceiling)", "all"),
    layer("host.loopback_mib_s", "MiB/s", true, "host", "- (ceiling)", "all"),
    layer("host.thread_spawn_us", "us", false, "host", "- (ceiling)", "all"),
    layer("trace.spans", "count", false, "live", "- (trace quality)", "all"),
    layer("trace.overhead_ratio", "ratio", false, "live", "- (trace quality)", "all"),
    layer("trace.unattributed_frac", "ratio", false, "live", "- (trace quality)", "all"),
];

fn better(higher: bool) -> Json {
    Json::str(if higher { "higher" } else { "lower" })
}

/// The contents of `BENCHMARK.json` at the repo root.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "study_bench/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("study_bench")])),
        ("run_seconds", Json::Int(i64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pairs every table entry with its measured value, in table order.
///
/// # Panics
/// Panics if a table metric was not measured or a measured name is not in
/// the table: either is a bug in this benchmark, and a silently missing
/// metric is exactly what the contract forbids.
pub fn in_table_order<'a>(
    names: impl Iterator<Item = (&'static str, &'static str)> + 'a,
    values: &'a Values,
) -> Vec<(&'static str, f64, &'static str)> {
    let rows: Vec<_> = names
        .map(|(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            (name, v, unit)
        })
        .collect();
    for name in values.keys() {
        assert!(
            rows.iter().any(|(n, _, _)| n == name),
            "measured metric {name} is not in the table"
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_unit("ms per op"));
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s gets the largest bound");
        // Every layer metric says which end-to-end metric it should move.
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty() && !m.on.is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json().pretty(),
            "regenerate with: study_bench --print-benchmark-json > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn table_order_lookup_rejects_gaps() {
        let mut values = Values::new();
        values.insert("a", 1.0);
        values.insert("b", 2.0);
        let rows = in_table_order([("b", "s"), ("a", "ms")].into_iter(), &values);
        assert_eq!(rows, vec![("b", 2.0, "s"), ("a", 1.0, "ms")]);
        let missing = std::panic::catch_unwind(|| {
            in_table_order([("a", "s"), ("c", "s")].into_iter(), &values);
        });
        assert!(missing.is_err());
    }
}
