//! The live scrape protocol: point-in-time observability snapshots served
//! over the study's own transport.
//!
//! Each shard's server answers a scrape request on its `server/main`
//! inbox (the request is a `melissa` protocol message, and `melissa`'s
//! `scrape` module is the client) with a [`ScrapeSnapshot`] in one of
//! three formats: the fixed binary codec (machine consumers), JSON, or a
//! Prometheus-style text exposition.  This module holds the snapshot, its
//! renderings and the reply frame.
//!
//! Serving is strictly read-only over atomic snapshots taken *outside* the
//! ingest path, so a scraped study computes bit-identical statistics to an
//! unscraped one (asserted by the `telemetry_study` integration test).

use bytes::{BufMut, BytesMut};
use melissa_transport::codec::{Wire, WireError, WireResult};
use melissa_transport::tcp::WireIoSnapshot;
use melissa_transport::{Frame, LinkStatsSnapshot};

use crate::events::StudyEvent;
use crate::exposition::json;
use crate::exposition::prometheus::{self, float};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Snapshot wire format a scraper can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScrapeFormat {
    /// The fixed little-endian codec ([`ScrapeSnapshot`]'s [`Wire`] layout).
    #[default]
    Binary,
    /// JSON text ([`ScrapeSnapshot::to_json`]).
    Json,
    /// Prometheus-style text exposition ([`ScrapeSnapshot::to_prometheus`]).
    Prometheus,
}

melissa_transport::wire_enum!(ScrapeFormat {
    0 => Binary,
    1 => Json,
    2 => Prometheus,
});

/// One data link's counters inside a snapshot (endpoint-keyed rollup of
/// [`LinkStatsSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkScrape {
    /// Endpoint name the frames were sent toward.
    pub endpoint: String,
    /// Frames sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Bytes that actually crossed the wire (after in-frame compression,
    /// including framing and retransmits); equals `bytes` on wireless or
    /// uncompressed links, so `bytes / wire_bytes` is always the
    /// compression ratio.
    pub wire_bytes: u64,
    /// Sends that blocked on the high-water mark.
    pub blocked_sends: u64,
    /// Nanoseconds spent blocked.
    pub blocked_nanos: u64,
}

impl LinkScrape {
    /// Wraps a transport rollup entry.
    pub fn of(endpoint: &str, s: &LinkStatsSnapshot) -> Self {
        Self {
            endpoint: endpoint.to_string(),
            messages: s.messages,
            bytes: s.bytes,
            wire_bytes: s.wire_bytes,
            blocked_sends: s.blocked_sends,
            blocked_nanos: s.blocked_nanos,
        }
    }
}

melissa_transport::wire_struct!(LinkScrape {
    endpoint,
    messages,
    bytes,
    wire_bytes,
    blocked_sends,
    blocked_nanos,
});

/// What the wire codec cost and saved on the serving node's links so far
/// (all zero unless TCP links negotiated compression).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecScrape {
    /// Nanoseconds the node's link writers spent encoding.
    pub encode_nanos: u64,
    /// Nanoseconds the node's acceptors spent decoding.
    pub decode_nanos: u64,
    /// Payload bytes of the data frames sent on codec links.
    pub bytes_in: u64,
    /// Bytes those frames put on the wire behind their length prefixes.
    pub bytes_out: u64,
    /// How many of them went raw (too short, or not shrinking).
    pub raw_frames: u64,
}

impl CodecScrape {
    /// The codec counters of a transport's wire snapshot.
    pub fn of(io: &WireIoSnapshot) -> Self {
        Self {
            encode_nanos: io.codec_encode_nanos,
            decode_nanos: io.codec_decode_nanos,
            bytes_in: io.codec_bytes_in,
            bytes_out: io.codec_bytes_out,
            raw_frames: io.codec_raw_frames,
        }
    }
}

melissa_transport::wire_struct!(CodecScrape {
    encode_nanos,
    decode_nanos,
    bytes_in,
    bytes_out,
    raw_frames,
});

/// The version of [`ScrapeSnapshot`]'s binary layout, written ahead of
/// it: change it with the layout (and the golden bytes its test pins), so
/// a scraper built from another layout gets [`WireError::Schema`] rather
/// than misread numbers.
pub const SCRAPE_SCHEMA: u32 = 1;

/// A point-in-time view of one shard's study progress, transport load,
/// metrics registry and recent events.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeSnapshot {
    /// The serving shard.
    pub shard: u32,
    /// Transport backend identifier.
    pub backend: String,
    /// Nanoseconds since the shard's study clock origin.
    pub uptime_nanos: u64,
    /// Groups fully finished on this shard.
    pub groups_finished: u64,
    /// Groups currently streaming.
    pub groups_running: u64,
    /// Aggregate max Sobol' CI half-width (NaN until defined).
    pub max_ci_width: f64,
    /// Aggregate max quantile step (NaN until defined).
    pub max_quantile_step: f64,
    /// Routing epoch: kept in every format for the readers that parse
    /// it.  Groups never move between shards, so a live shard reports 0.
    pub routing_epoch: u64,
    /// Link re-establishments: kept in every format for the readers that
    /// parse it.  A broken link is dead, never re-established, so a live
    /// shard reports 0.
    pub reconnects: u64,
    /// Wire-codec time and bytes of the serving node's links.
    pub wire_codec: CodecScrape,
    /// Per-endpoint link counters (backpressure view).
    pub links: Vec<LinkScrape>,
    /// The metrics registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Most recent journal events (bounded window).
    pub events: Vec<StudyEvent>,
}

melissa_transport::wire_struct!(
    #[schema(SCRAPE_SCHEMA)]
    ScrapeSnapshot {
        shard,
        backend,
        uptime_nanos,
        groups_finished,
        groups_running,
        max_ci_width,
        max_quantile_step,
        routing_epoch,
        reconnects,
        wire_codec,
        links,
        metrics,
        events,
    }
);

impl ScrapeSnapshot {
    /// Renders the snapshot as a JSON object.  Non-finite floats render
    /// as `null`.
    pub fn to_json(&self) -> String {
        let codec = &self.wire_codec;
        let link = |l: &LinkScrape| {
            json::object([
                ("endpoint", json::string(&l.endpoint)),
                ("messages", l.messages.to_string()),
                ("bytes", l.bytes.to_string()),
                ("wire_bytes", l.wire_bytes.to_string()),
                ("blocked_sends", l.blocked_sends.to_string()),
                ("blocked_nanos", l.blocked_nanos.to_string()),
            ])
        };
        let histogram = |h: &HistogramSnapshot| {
            json::object([
                ("count", h.count().to_string()),
                ("sum", h.sum.to_string()),
                ("mean", json::number(h.mean())),
            ])
        };
        let event = |e: &StudyEvent| {
            json::object([
                ("seq", e.seq.to_string()),
                ("at_nanos", e.at_nanos.to_string()),
                ("shard", e.shard.to_string()),
                ("text", json::string(&e.kind.render())),
            ])
        };
        let m = &self.metrics;
        let values = |pairs: &[(String, u64)]| {
            json::object(pairs.iter().map(|(k, v)| (k.as_str(), v.to_string())))
        };
        let histograms = m.histograms.iter().map(|(k, h)| (k.as_str(), histogram(h)));
        json::object([
            ("shard", self.shard.to_string()),
            ("backend", json::string(&self.backend)),
            ("uptime_nanos", self.uptime_nanos.to_string()),
            ("groups_finished", self.groups_finished.to_string()),
            ("groups_running", self.groups_running.to_string()),
            ("max_ci_width", json::number(self.max_ci_width)),
            ("max_quantile_step", json::number(self.max_quantile_step)),
            ("routing_epoch", self.routing_epoch.to_string()),
            ("reconnects", self.reconnects.to_string()),
            (
                "wire_codec",
                json::object([
                    ("encode_nanos", codec.encode_nanos.to_string()),
                    ("decode_nanos", codec.decode_nanos.to_string()),
                    ("bytes_in", codec.bytes_in.to_string()),
                    ("bytes_out", codec.bytes_out.to_string()),
                    ("raw_frames", codec.raw_frames.to_string()),
                ]),
            ),
            ("links", json::array(self.links.iter().map(link))),
            ("counters", values(&m.counters)),
            ("gauges", values(&m.gauges)),
            ("histograms", json::object(histograms)),
            ("events", json::array(self.events.iter().map(event))),
        ])
    }

    /// Renders the snapshot as a Prometheus-style text exposition
    /// (`melissa_`-prefixed families, `shard` label, cumulative `le`
    /// histogram buckets).
    pub fn to_prometheus(&self) -> String {
        let mut p = prometheus::Writer::new("melissa_", vec![("shard", self.shard.to_string())]);
        let uptime = format!("{:.3}", self.uptime_nanos as f64 / 1e9);
        p.single("uptime_seconds", "gauge", uptime);
        p.single("groups_finished", "gauge", self.groups_finished);
        p.single("groups_running", "gauge", self.groups_running);
        p.single("max_ci_width", "gauge", float(self.max_ci_width));
        p.single("max_quantile_step", "gauge", float(self.max_quantile_step));
        p.single("routing_epoch", "gauge", self.routing_epoch);
        p.single("transport_reconnects_total", "counter", self.reconnects);
        let codec = &self.wire_codec;
        p.family("wire_codec_seconds_total", "counter");
        for (dir, nanos) in [
            ("encode", codec.encode_nanos),
            ("decode", codec.decode_nanos),
        ] {
            let seconds = format!("{:.6}", nanos as f64 / 1e9);
            p.series("wire_codec_seconds_total", &[("dir", dir)], seconds);
        }
        p.family("wire_codec_bytes_total", "counter");
        for (dir, bytes) in [("in", codec.bytes_in), ("out", codec.bytes_out)] {
            p.series("wire_codec_bytes_total", &[("dir", dir)], bytes);
        }
        p.single("wire_codec_raw_frames_total", "counter", codec.raw_frames);
        let link_families: [(&str, LinkField); 5] = [
            ("link_messages_total", |l| l.messages),
            ("link_bytes_total", |l| l.bytes),
            ("link_wire_bytes_total", |l| l.wire_bytes),
            ("link_blocked_sends_total", |l| l.blocked_sends),
            ("link_blocked_nanos_total", |l| l.blocked_nanos),
        ];
        for (family, value) in link_families {
            p.family(family, "counter");
            for l in &self.links {
                p.series(family, &[("endpoint", l.endpoint.as_str())], value(l));
            }
        }
        // A counter registered as `family{label="value"}` is one series
        // of `family`; the name-sorted snapshot keeps a family's series
        // adjacent, so its TYPE line prints once.
        for (name, v) in &self.metrics.counters {
            let (base, labels) = split_labels(name);
            p.family(base, "counter");
            p.series(base, &labels, v);
        }
        for (name, v) in &self.metrics.gauges {
            p.single(name, "gauge", v);
        }
        for (name, h) in &self.metrics.histograms {
            p.histogram(name, h);
        }
        p.finish()
    }

    /// Renders the snapshot in the requested format as reply-frame bytes
    /// (one format byte, then the body).
    pub fn encode_reply(&self, format: ScrapeFormat) -> Frame {
        match format {
            ScrapeFormat::Binary => reply_frame(format, &self.to_frame()),
            ScrapeFormat::Json => reply_frame(format, self.to_json().as_bytes()),
            ScrapeFormat::Prometheus => reply_frame(format, self.to_prometheus().as_bytes()),
        }
    }
}

/// How one per-link Prometheus family reads its counter.
type LinkField = fn(&LinkScrape) -> u64;

/// A registered metric name `base{key="value",…}` as its base and its
/// label pairs: a labelled counter is one series of the family `base`.
fn split_labels(name: &str) -> (&str, Vec<(&str, &str)>) {
    let Some((base, labels)) = name.split_once('{') else {
        return (name, Vec::new());
    };
    let pairs = labels
        .trim_end_matches('}')
        .split("\",")
        .filter_map(|pair| {
            let (key, value) = pair.split_once("=\"")?;
            Some((key, value.strip_suffix('"').unwrap_or(value)))
        });
    (base, pairs.collect())
}

/// A scrape reply frame: the format byte, then `body` (a binary
/// snapshot, or JSON or Prometheus text).  [`ScrapeReply::decode`] reads it.
pub fn reply_frame(format: ScrapeFormat, body: &[u8]) -> Frame {
    let mut buf = BytesMut::new();
    format.put(&mut buf);
    buf.put_slice(body);
    buf.freeze()
}

/// A decoded scrape reply: binary snapshots parse, text formats pass
/// through verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum ScrapeReply {
    /// A structured snapshot (from [`ScrapeFormat::Binary`]).
    Snapshot(Box<ScrapeSnapshot>),
    /// Rendered text (JSON or Prometheus exposition).
    Text(String),
}

impl ScrapeReply {
    /// Decodes a reply frame produced by [`ScrapeSnapshot::encode_reply`]:
    /// one format byte, then a whole snapshot or the text.
    pub fn decode(mut frame: &[u8]) -> WireResult<Self> {
        match ScrapeFormat::get(&mut frame)? {
            ScrapeFormat::Binary => ScrapeSnapshot::from_frame(frame)
                .map(|snapshot| ScrapeReply::Snapshot(Box::new(snapshot))),
            ScrapeFormat::Json | ScrapeFormat::Prometheus => String::from_utf8(frame.to_vec())
                .map(ScrapeReply::Text)
                .map_err(|_| WireError::Invalid {
                    what: "scrape reply text",
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use crate::metrics::Registry;

    fn sample() -> ScrapeSnapshot {
        let reg = Registry::new();
        reg.counter("reconnects").add(2);
        reg.gauge("runner_queue_depth").set(5);
        let h = reg.histogram("ingest_sweep_nanos");
        h.record(0);
        h.record(3);
        h.record(1024);
        ScrapeSnapshot {
            shard: 1,
            backend: "in-process".into(),
            uptime_nanos: 123_456_789,
            groups_finished: 4,
            groups_running: 2,
            max_ci_width: 0.25,
            max_quantile_step: f64::NAN,
            routing_epoch: 3,
            reconnects: 2,
            wire_codec: CodecScrape {
                encode_nanos: 1_500_000_000,
                decode_nanos: 250_000,
                bytes_in: 8192,
                bytes_out: 6000,
                raw_frames: 3,
            },
            links: vec![LinkScrape {
                endpoint: "shard1/server/0".into(),
                messages: 10,
                bytes: 4096,
                wire_bytes: 2048,
                blocked_sends: 1,
                blocked_nanos: 999,
            }],
            metrics: reg.snapshot(),
            events: vec![StudyEvent {
                seq: 0,
                at_nanos: 42,
                shard: 1,
                kind: EventKind::Info {
                    text: "quote \" and \\ back".into(),
                },
            }],
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The binary layout of [`sample`], schema word first.  A layout
    /// change edits these bytes and [`SCRAPE_SCHEMA`] together.
    const GOLDEN: &str = concat!(
        "01000000010000000a000000696e2d70726f6365737315cd5b070000000004000000000000000200",
        "000000000000000000000000d03f000000000000f87f03000000000000000200000000000000002f",
        "68590000000090d00300000000000020000000000000701700000000000003000000000000000100",
        "0000000000000f0000007368617264312f7365727665722f300a0000000000000000100000000000",
        "0000080000000000000100000000000000e70300000000000001000000000000000a000000726563",
        "6f6e6e65637473020000000000000001000000000000001200000072756e6e65725f71756575655f",
        "64657074680500000000000000010000000000000012000000696e676573745f73776565705f6e61",
        "6e6f7303040000000000004100000000000000010000000000000000000000000000000100000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000001000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000010000000000000000000000000000002a00000000",
        "00000001000000101200000071756f7465202220616e64205c206261636b",
    );

    #[test]
    fn binary_snapshot_round_trips() {
        let snap = sample();
        let frame = snap.to_frame();
        assert_eq!(hex(&frame), GOLDEN, "the scrape layout moved");
        let back = ScrapeSnapshot::from_frame(&frame).unwrap();
        assert_eq!(back.to_frame(), frame);
        assert_eq!(back.links, snap.links);
        assert_eq!(back.metrics, snap.metrics);
        assert_eq!(back.events, snap.events);
        assert!(back.max_quantile_step.is_nan());
        // Bytes of another layout are refused by version, not misread.
        let mut other = frame.to_vec();
        other[..4].copy_from_slice(&(SCRAPE_SCHEMA + 1).to_le_bytes());
        let refused = ScrapeSnapshot::from_frame(&other).unwrap_err();
        assert_eq!(
            refused,
            WireError::Schema {
                what: "ScrapeSnapshot",
                found: SCRAPE_SCHEMA + 1,
                expected: SCRAPE_SCHEMA,
            }
        );
        other.insert(0, 0); // ScrapeFormat::Binary
        assert_eq!(ScrapeReply::decode(&other), Err(refused));
    }

    #[test]
    fn reply_frame_round_trips_every_format() {
        let snap = sample();
        for format in [
            ScrapeFormat::Binary,
            ScrapeFormat::Json,
            ScrapeFormat::Prometheus,
        ] {
            let frame = snap.encode_reply(format);
            let reply = ScrapeReply::decode(&frame).unwrap();
            match (format, reply) {
                (ScrapeFormat::Binary, ScrapeReply::Snapshot(s)) => assert_eq!(s.shard, 1),
                (_, ScrapeReply::Text(t)) => assert!(!t.is_empty()),
                _ => panic!("format/reply mismatch"),
            }
        }
    }

    #[test]
    fn json_handles_non_finite_and_escapes() {
        let json = sample().to_json();
        assert!(json.contains("\"max_quantile_step\":null"));
        assert!(json.contains("\"max_ci_width\":0.25"));
        assert!(json.contains("quote \\\" and \\\\ back"));
        assert!(json.contains("\"routing_epoch\":3"));
        assert!(json.contains("\"wire_bytes\":2048"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn prometheus_exposes_wire_bytes_per_link() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE melissa_link_wire_bytes_total counter"));
        assert!(text.contains(
            "melissa_link_wire_bytes_total{shard=\"1\",endpoint=\"shard1/server/0\"} 2048"
        ));
    }

    #[test]
    fn wire_codec_time_and_bytes_render_per_direction() {
        let text = sample().to_prometheus();
        for line in [
            "# TYPE melissa_wire_codec_seconds_total counter",
            "melissa_wire_codec_seconds_total{shard=\"1\",dir=\"encode\"} 1.500000",
            "melissa_wire_codec_seconds_total{shard=\"1\",dir=\"decode\"} 0.000250",
            "melissa_wire_codec_bytes_total{shard=\"1\",dir=\"in\"} 8192",
            "melissa_wire_codec_bytes_total{shard=\"1\",dir=\"out\"} 6000",
            "melissa_wire_codec_raw_frames_total{shard=\"1\"} 3",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        let json = sample().to_json();
        assert!(json.contains(
            "\"wire_codec\":{\"encode_nanos\":1500000000,\"decode_nanos\":250000,\
             \"bytes_in\":8192,\"bytes_out\":6000,\"raw_frames\":3}"
        ));
    }

    #[test]
    fn labelled_counters_render_as_one_family_in_both_text_formats() {
        let reg = Registry::new();
        reg.counter("supervisor_wakeups_total{reason=\"deadline\"}");
        reg.counter("supervisor_wakeups_total{reason=\"message\"}")
            .add(7);
        let mut snap = sample();
        snap.metrics = reg.snapshot();
        let text = snap.to_prometheus();
        assert_eq!(
            text.matches("# TYPE melissa_supervisor_wakeups_total counter")
                .count(),
            1
        );
        assert!(
            text.contains("melissa_supervisor_wakeups_total{shard=\"1\",reason=\"deadline\"} 0")
        );
        assert!(text.contains("melissa_supervisor_wakeups_total{shard=\"1\",reason=\"message\"} 7"));
        let json = snap.to_json();
        assert!(json.contains("\"supervisor_wakeups_total{reason=\\\"message\\\"}\":7"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE melissa_ingest_sweep_nanos histogram"));
        // 0 → bucket le="0"; 3 → le="3" (2^2-1=3); 1024 → le="2047".
        assert!(text.contains("melissa_ingest_sweep_nanos_bucket{shard=\"1\",le=\"0\"} 1"));
        assert!(text.contains("melissa_ingest_sweep_nanos_bucket{shard=\"1\",le=\"3\"} 2"));
        assert!(text.contains("melissa_ingest_sweep_nanos_bucket{shard=\"1\",le=\"2047\"} 3"));
        assert!(text.contains("melissa_ingest_sweep_nanos_bucket{shard=\"1\",le=\"+Inf\"} 3"));
        assert!(text.contains("melissa_ingest_sweep_nanos_count{shard=\"1\"} 3"));
        assert!(text.contains("melissa_max_quantile_step{shard=\"1\"} NaN"));
        assert!(text.contains("melissa_transport_reconnects_total{shard=\"1\"} 2"));
    }
}
