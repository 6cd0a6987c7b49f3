//! Live observability for Melissa studies.
//!
//! The paper's core claim (Terraz et al., SC 2017) is that sensitivity
//! analysis happens *in transit* — so the study should be observable in
//! transit too, not only through the end-of-study report.  This crate is
//! the substrate for that, in three layers:
//!
//! * [`metrics`] — a lock-free registry of atomic counters, gauges and
//!   fixed log2-bucket histograms.  Recording is relaxed atomics only;
//!   snapshots merge associatively and bit-exactly across shards.
//! * [`events`] — the typed, timestamped [`StudyEvent`] journal of
//!   failures, restarts and fences, with one human-readable render.
//! * [`mod@scrape`] — a live snapshot protocol served on each shard's
//!   `telemetry/shard<k>` endpoint over the study's own transport, in
//!   binary, JSON, or Prometheus-style text (see `examples/melissa_top.rs`
//!   for a polling renderer).
//!
//! A [`Telemetry`] value ties the three together for one shard: the
//! shared registry, the shard's study clock origin, the routing epoch
//! gauge, and a bounded ring of recent events.  It is engineered to be
//! ignorable: with telemetry disabled nothing is allocated, and with it
//! enabled the ingest-path cost is two relaxed atomic adds plus a tick
//! increment per frame, with the sweep-duration clock reads sampled on a
//! fixed stride so even a syscall-priced monotonic clock stays inside
//! the budget (<2%, measured by the `telemetry_ab` benchmark into
//! `BENCH_telemetry.json`).

#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod scrape;

pub use events::{EventKind, StudyEvent};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, N_BUCKETS,
};
pub use scrape::{
    scrape, scrape_endpoint_reply, scrape_in, scrape_reply, scrape_reply_in, scrape_text,
    scrape_text_in, CodecScrape, LinkScrape, ScrapeFormat, ScrapeReply, ScrapeRequest,
    ScrapeSnapshot, SCRAPE_SCHEMA,
};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use melissa_sync::Mutex;

/// Events kept in the live ring (the scrape window; the full journal
/// lives in the `StudyReport`).
const EVENT_RING_CAP: usize = 256;

/// One shard's live telemetry: shared metrics registry, study clock,
/// routing-epoch gauge, and a bounded ring of recent events.
///
/// Shared as `Arc<Telemetry>` between the shard supervisor (which stamps
/// events and protocol timings), the server (which times ingest and
/// checkpoints and serves scrapes), and anything else on the shard.
pub struct Telemetry {
    shard: u32,
    origin: Instant,
    registry: Registry,
    routing_epoch: AtomicU64,
    events: Mutex<VecDeque<StudyEvent>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("shard", &self.shard)
            .field("routing_epoch", &self.routing_epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry for `shard` with the study clock starting now.
    pub fn new(shard: u32) -> Arc<Self> {
        Self::with_origin(shard, Instant::now())
    }

    /// Telemetry for `shard` stamping times against a shared `origin`
    /// (every shard of one study should share it, so per-shard event
    /// timestamps are comparable).
    pub fn with_origin(shard: u32, origin: Instant) -> Arc<Self> {
        Arc::new(Self {
            shard,
            origin,
            registry: Registry::new(),
            routing_epoch: AtomicU64::new(0),
            events: Mutex::new(VecDeque::with_capacity(EVENT_RING_CAP)),
        })
    }

    /// The shard this telemetry describes.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The study clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds elapsed on the study clock.
    pub fn uptime_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Updates the routing-epoch gauge (set by the supervisor after
    /// every fence).
    pub fn set_routing_epoch(&self, epoch: u64) {
        self.routing_epoch.store(epoch, Ordering::Relaxed);
    }

    /// The last routing epoch the supervisor observed.
    pub fn routing_epoch(&self) -> u64 {
        self.routing_epoch.load(Ordering::Relaxed)
    }

    /// Appends an event to the live ring (oldest dropped past the cap).
    pub fn record_event(&self, event: StudyEvent) {
        let mut ring = self.events.lock();
        if ring.len() == EVENT_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The most recent `n` events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<StudyEvent> {
        let ring = self.events.lock();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ring_is_bounded_and_ordered() {
        let tele = Telemetry::new(1);
        for i in 0..(EVENT_RING_CAP as u64 + 10) {
            tele.record_event(StudyEvent {
                seq: i,
                at_nanos: i,
                shard: 1,
                kind: EventKind::Info {
                    text: format!("e{i}"),
                },
            });
        }
        let recent = tele.recent_events(4);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[3].seq, EVENT_RING_CAP as u64 + 9);
        assert_eq!(recent[0].seq, EVENT_RING_CAP as u64 + 6);
        let all = tele.recent_events(usize::MAX);
        assert_eq!(all.len(), EVENT_RING_CAP);
        assert_eq!(all[0].seq, 10, "oldest events dropped");
    }

    #[test]
    fn routing_epoch_and_clock_are_live() {
        let tele = Telemetry::new(0);
        assert_eq!(tele.routing_epoch(), 0);
        tele.set_routing_epoch(5);
        assert_eq!(tele.routing_epoch(), 5);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(tele.uptime_nanos() > 0);
        assert_eq!(tele.shard(), 0);
    }
}
