//! Property tests for the telemetry substrate: histogram/snapshot merge
//! must be associative, commutative and *bit-exact* (the property that
//! lets sharded studies fold per-shard snapshots in any order), and a
//! snapshot taken under concurrent ingest must always be self-consistent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use melissa_telemetry::{HistogramSnapshot, MetricsSnapshot, Registry};
use melissa_transport::codec::Wire;
use proptest::prelude::*;

fn histogram_from(values: &[u64]) -> HistogramSnapshot {
    let reg = Registry::new();
    let h = reg.histogram("h");
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn snapshot_from(counters: &[(String, u64)], values: &[u64]) -> MetricsSnapshot {
    let reg = Registry::new();
    for (name, v) in counters {
        reg.counter(name).add(*v);
        reg.gauge(name).set(*v);
    }
    let h = reg.histogram("lat");
    for &v in values {
        h.record(v);
    }
    reg.snapshot()
}

/// One of a fixed pool of metric names, so merges exercise both shared
/// and disjoint names.
fn small_name() -> impl Strategy<Value = String> {
    const NAMES: [&str; 4] = ["frames", "bytes", "reconnects", "queue"];
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

/// The full `u64` value range (the vendored proptest shim has no `any`).
fn any_u64() -> impl Strategy<Value = u64> {
    0u64..u64::MAX
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn histogram_merge_matches_single_pass_bit_exactly(
        xs in prop::collection::vec(any_u64(), 0..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let mut a = histogram_from(&xs[..split]);
        let b = histogram_from(&xs[split..]);
        a.merge(&b);
        let whole = histogram_from(&xs);
        // Bit-exact: u64 equality, not a tolerance.
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in prop::collection::vec(any_u64(), 0..80),
        ys in prop::collection::vec(any_u64(), 0..80),
        zs in prop::collection::vec(any_u64(), 0..80),
    ) {
        let (x, y, z) = (histogram_from(&xs), histogram_from(&ys), histogram_from(&zs));

        // (x ∪ y) ∪ z
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        // x ∪ (y ∪ z)
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        prop_assert_eq!(&left, &right);

        // Commutative: z ∪ y ∪ x
        let mut rev = z;
        rev.merge(&y);
        rev.merge(&x);
        prop_assert_eq!(&left, &rev);
    }

    #[test]
    fn histogram_count_always_equals_bucket_sum(
        xs in prop::collection::vec(any_u64(), 0..200),
    ) {
        let h = histogram_from(&xs);
        prop_assert_eq!(h.count(), xs.len() as u64);
        let by_hand: u64 = h.buckets.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(h.count(), by_hand);
    }

    #[test]
    fn registry_snapshot_merge_is_associative_with_disjoint_and_shared_names(
        a_counters in prop::collection::vec((small_name(), any_u64()), 0..6),
        b_counters in prop::collection::vec((small_name(), any_u64()), 0..6),
        c_counters in prop::collection::vec((small_name(), any_u64()), 0..6),
        xs in prop::collection::vec(any_u64(), 0..40),
        ys in prop::collection::vec(any_u64(), 0..40),
    ) {
        let a = snapshot_from(&a_counters, &xs);
        let b = snapshot_from(&b_counters, &ys);
        let c = snapshot_from(&c_counters, &[]);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    #[test]
    fn snapshot_codec_round_trip_is_identity(
        counters in prop::collection::vec((small_name(), any_u64()), 0..6),
        xs in prop::collection::vec(any_u64(), 0..60),
    ) {
        let snap = snapshot_from(&counters, &xs);
        let back = MetricsSnapshot::from_frame(&snap.to_frame()).unwrap();
        prop_assert_eq!(back, snap);
    }
}

/// A snapshot taken while writer threads hammer the histogram must be
/// self-consistent: derived count ≡ Σ buckets *by construction*, and both
/// count and sum must be monotonically non-decreasing across snapshots.
/// Each writer holds back its last records until the reader has taken a
/// snapshot holding the histogram, so at least one snapshot overlaps the
/// ingest however the threads are scheduled.
#[test]
fn snapshot_under_concurrent_ingest_is_self_consistent() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicBool::new(false));
    let n_writers = 4;
    let per_writer = 50_000u64;
    let held_back = 1_000u64;

    let writers: Vec<_> = (0..n_writers)
        .map(|w| {
            let reg = Arc::clone(&reg);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let h = reg.histogram("lat");
                let c = reg.counter("frames");
                for i in 0..per_writer {
                    if i == per_writer - held_back {
                        while !seen.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    h.record((w as u64).wrapping_mul(1_000_003).wrapping_add(i) % 4096);
                    c.inc();
                }
            })
        })
        .collect();

    let reader = {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || {
            let mut last_count = 0u64;
            let mut last_sum = 0u64;
            let mut observed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = reg.snapshot();
                if let Some((_, h)) = snap.histograms.first() {
                    let count = h.count();
                    // count is derived from the buckets, so it can never
                    // disagree with them; it must also never go backwards.
                    assert!(count >= last_count, "count went backwards");
                    assert!(h.sum >= last_sum, "sum went backwards");
                    last_count = count;
                    last_sum = h.sum;
                    observed += 1;
                    seen.store(true, Ordering::Release);
                }
            }
            observed
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let observed = reader.join().unwrap();
    assert!(observed > 0, "reader never saw a snapshot");

    let final_snap = reg.snapshot();
    let (_, h) = &final_snap.histograms[0];
    assert_eq!(h.count(), n_writers as u64 * per_writer);
    assert_eq!(final_snap.counters[0].1, n_writers as u64 * per_writer);
}
