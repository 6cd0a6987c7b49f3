//! The shard snapshot's JSON and Prometheus text, byte for byte.
//!
//! The golden files were rendered by the hand-written renderers the
//! exposition writer replaced; they must never be regenerated from the
//! code under test.  The two samples cover links, labelled counters,
//! gauges, histograms with empty buckets (and one with no samples),
//! events, empty lists, and NaN, +Inf and -Inf floats.

use melissa_telemetry::{CodecScrape, EventKind, LinkScrape, Registry, ScrapeSnapshot, StudyEvent};

fn full() -> ScrapeSnapshot {
    let reg = Registry::new();
    reg.counter("checkpoints_total").add(3);
    reg.counter("frames_rejected_total");
    reg.counter("supervisor_wakeups_total{reason=\"deadline\"}");
    reg.counter("supervisor_wakeups_total{reason=\"message\"}")
        .add(41);
    reg.gauge("runner_queue_depth").set(5);
    reg.gauge("state_bytes").set(1 << 20);
    let sweep = reg.histogram("ingest_sweep_nanos");
    for v in [0, 3, 1024, 5_000_000, u64::MAX / 2] {
        sweep.record(v);
    }
    reg.histogram("checkpoint_nanos");
    ScrapeSnapshot {
        shard: 2,
        backend: "tcp".into(),
        uptime_nanos: 3_723_456_789_012,
        groups_finished: 7,
        groups_running: 1,
        max_ci_width: f64::NAN,
        max_quantile_step: f64::INFINITY,
        routing_epoch: 4,
        reconnects: 1,
        wire_codec: CodecScrape {
            encode_nanos: 1_500_000_123,
            decode_nanos: 250_000,
            bytes_in: 8192,
            bytes_out: 6000,
            raw_frames: 3,
        },
        links: vec![
            LinkScrape {
                endpoint: "shard2/server/0".into(),
                messages: 10,
                bytes: 4096,
                wire_bytes: 2048,
                blocked_sends: 1,
                blocked_nanos: 999,
            },
            LinkScrape {
                endpoint: "study3/shard2/server/1".into(),
                messages: 0,
                bytes: 0,
                wire_bytes: 0,
                blocked_sends: 0,
                blocked_nanos: 0,
            },
        ],
        metrics: reg.snapshot(),
        events: vec![
            StudyEvent {
                seq: 0,
                at_nanos: 42,
                shard: 2,
                kind: EventKind::Info {
                    text: "quote \" and \\ back\nnew line\ttab \u{1} ctl".into(),
                },
            },
            StudyEvent {
                seq: 1,
                at_nanos: 9_000_000_000,
                shard: 2,
                kind: EventKind::GroupDied {
                    group: 5,
                    instance: 2,
                    detail: "exit status 3".into(),
                },
            },
            StudyEvent {
                seq: 2,
                at_nanos: 9_000_000_001,
                shard: 2,
                kind: EventKind::ServerRestarted,
            },
        ],
    }
}

fn empty() -> ScrapeSnapshot {
    ScrapeSnapshot {
        shard: 0,
        backend: "in-process".into(),
        uptime_nanos: 0,
        groups_finished: 0,
        groups_running: 0,
        max_ci_width: f64::NEG_INFINITY,
        max_quantile_step: 0.015625,
        routing_epoch: 0,
        reconnects: 0,
        wire_codec: CodecScrape::default(),
        links: Vec::new(),
        metrics: Registry::new().snapshot(),
        events: Vec::new(),
    }
}

#[test]
fn json_is_byte_identical() {
    assert_eq!(
        full().to_json(),
        include_str!("golden/scrape_full.json").trim_end()
    );
    assert_eq!(
        empty().to_json(),
        include_str!("golden/scrape_empty.json").trim_end()
    );
}

#[test]
fn prometheus_is_byte_identical() {
    assert_eq!(
        full().to_prometheus(),
        include_str!("golden/scrape_full.prom")
    );
    assert_eq!(
        empty().to_prometheus(),
        include_str!("golden/scrape_empty.prom")
    );
}
