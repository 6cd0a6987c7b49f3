//! Lock-free metrics: atomic counters/gauges and fixed log2-bucket
//! histograms with a bit-exact, associative merge.
//!
//! The record path is pure atomics — a handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) is an `Arc` onto shared `AtomicU64`s, so instrumented
//! hot paths (the fused-ingest sweep, checkpoint writes) never take a
//! lock.  The [`Registry`] itself locks only on *registration* (a
//! control-path operation done once per metric name) and on snapshotting.
//!
//! Every metric value is an integer (`u64`), so snapshot merging is
//! integer addition (counters, histogram buckets) or `max` (gauges) —
//! both associative and bit-exact, which is what lets sharded studies
//! fold per-shard snapshots in any order and always agree
//! (property-tested in `tests/proptest_telemetry.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use melissa_sync::RwLock;

/// Number of histogram buckets: one zero bucket plus one per power of
/// two, covering the full `u64` range.
pub const N_BUCKETS: usize = 65;

/// A monotonically increasing counter (shared atomic).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (shared atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared storage of one histogram: 65 log2 buckets plus a running
/// sum, all atomics.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed log2-bucket histogram handle.
///
/// Bucket 0 counts zero values; bucket `i ≥ 1` counts values `v` with
/// `2^(i−1) ≤ v < 2^i`.  Recording is two relaxed atomic adds; there is
/// no per-record count — a snapshot *derives* its count from the bucket
/// vector, so a snapshot taken under concurrent ingest is always
/// self-consistent (count ≡ Σ buckets by construction).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// The bucket index of value `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket vector and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The 65 log2 bucket counts ([`Histogram::bucket_of`]).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; N_BUCKETS],
            sum: 0,
        }
    }

    /// Total observations, derived from the buckets (never stored
    /// separately, so it cannot disagree with them).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Inclusive upper bound of bucket `i` (`0`, then `2^i − 1`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Folds another snapshot into this one: elementwise wrapping `u64`
    /// addition on buckets and sum.  Integer addition is associative and
    /// commutative, so any merge order over any shard partition produces
    /// bit-identical results (property-tested).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

melissa_transport::wire_struct!(HistogramSnapshot { sum, buckets });

/// The registry: named counters, gauges and histograms.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a lock; the
/// returned handles never do.  Look-ups are get-or-create, so any layer
/// can resolve the same metric by name and share storage.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCore>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return Counter(Arc::clone(c));
        }
        let mut w = self.counters.write();
        Counter(Arc::clone(w.entry(name.to_string()).or_default()))
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return Gauge(Arc::clone(g));
        }
        let mut w = self.gauges.write();
        Gauge(Arc::clone(w.entry(name.to_string()).or_default()))
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return Histogram(Arc::clone(h));
        }
        let mut w = self.histograms.write();
        Histogram(Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        ))
    }

    /// A point-in-time copy of every registered metric, sorted by name
    /// (deterministic encode/render order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            buckets: v
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            sum: v.sum.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` histogram pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one, name-aligned: counters add
    /// (wrapping), gauges take the max, histograms merge elementwise.
    /// All three operations are associative and commutative on `u64`, so
    /// cross-shard aggregation is bit-exact in any fold order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_by_name(&mut self.counters, &other.counters, |a, b| {
            *a = a.wrapping_add(b)
        });
        merge_by_name(&mut self.gauges, &other.gauges, |a, b| *a = (*a).max(b));
        // Histograms: same name-union walk, merging bucket vectors.
        let mut merged: BTreeMap<String, HistogramSnapshot> = self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            merged
                .entry(name.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(h);
        }
        self.histograms = merged.into_iter().collect();
    }
}

melissa_transport::wire_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms
});

/// Name-union walk over two sorted `(name, u64)` lists, applying `fold`
/// to values present on both sides and keeping either side's extras.
fn merge_by_name<F: Fn(&mut u64, u64)>(a: &mut Vec<(String, u64)>, b: &[(String, u64)], fold: F) {
    let mut merged: BTreeMap<String, u64> = a.drain(..).collect();
    for (name, v) in b {
        match merged.entry(name.clone()) {
            std::collections::btree_map::Entry::Occupied(mut e) => fold(e.get_mut(), *v),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(*v);
            }
        }
    }
    *a = merged.into_iter().collect();
}

#[cfg(test)]
mod tests {
    use melissa_transport::codec::Wire;

    use super::*;

    #[test]
    fn handles_share_storage_by_name() {
        let reg = Registry::new();
        let a = reg.counter("frames");
        let b = reg.counter("frames");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("frames").get(), 4);
        let g = reg.gauge("epoch");
        g.set(7);
        assert_eq!(reg.gauge("epoch").get(), 7);
    }

    #[test]
    fn histogram_buckets_follow_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_count_is_derived_from_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [0u64, 1, 5, 5, 1024] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 1035);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[3], 2);
        assert_eq!(snap.buckets[11], 1);
    }

    #[test]
    fn snapshot_round_trips_through_the_codec() {
        let reg = Registry::new();
        reg.counter("a").add(42);
        reg.gauge("g").set(9);
        reg.histogram("h").record(100);
        let snap = reg.snapshot();
        assert_eq!(MetricsSnapshot::from_frame(&snap.to_frame()), Ok(snap));
    }

    #[test]
    fn merge_unions_names() {
        let mut a = MetricsSnapshot {
            counters: vec![("x".into(), 1)],
            gauges: vec![("e".into(), 3)],
            histograms: vec![],
        };
        let b = MetricsSnapshot {
            counters: vec![("x".into(), 2), ("y".into(), 5)],
            gauges: vec![("e".into(), 1)],
            histograms: vec![],
        };
        a.merge(&b);
        assert_eq!(a.counters, vec![("x".into(), 3), ("y".into(), 5)]);
        assert_eq!(a.gauges, vec![("e".into(), 3)], "gauges take the max");
    }
}
