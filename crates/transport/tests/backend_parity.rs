//! Cross-backend contract tests: every behaviour the core framework
//! relies on must hold identically over the in-process and TCP backends,
//! exercised *only* through the trait surface — the same way the server,
//! clients and launcher consume it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa_transport::{
    BoxReceiver, ChannelTransport, ConnectError, FaultPolicy, FaultySender, KillSwitch,
    LinkStatsSnapshot, RecvTimeoutError, Sender, TcpTransport, Transport,
};
use proptest::prelude::*;

fn backends() -> Vec<(&'static str, Arc<dyn Transport>)> {
    vec![
        ("in-process", Arc::new(ChannelTransport::new())),
        (
            "tcp",
            Arc::new(TcpTransport::new().expect("loopback listener")),
        ),
    ]
}

const RECV_DEADLINE: Duration = Duration::from_secs(10);

/// Sends `payloads` through one endpoint of `transport` while a drainer
/// collects, returning the received sequence and the sender-side stats
/// snapshot.
fn pump(
    transport: &dyn Transport,
    name: &str,
    hwm: usize,
    payloads: &[Vec<u8>],
) -> (Vec<Bytes>, u64, u64) {
    let rx = transport.bind(name, hwm);
    let tx = transport.connect(name).unwrap();
    let n = payloads.len();
    let drainer = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            got.push(
                rx.recv_timeout(RECV_DEADLINE)
                    .expect("frame within deadline"),
            );
        }
        got
    });
    for p in payloads {
        tx.send(Bytes::from(p.clone())).unwrap();
    }
    let got = drainer.join().unwrap();
    (got, tx.stats().messages_sent(), tx.stats().bytes_sent())
}

/// Like [`pump`], but hands the payloads over in runs of the given
/// sizes, cycled: a run of one is a `send` or a `send_timeout` in turn,
/// any other size a `send_batch` (an empty one included).  The drainer
/// alternates single receives and `recv_batch`.  Returns what arrived and
/// the endpoint's rollup after a flush.
fn pump_grouped(
    transport: &dyn Transport,
    name: &str,
    hwm: usize,
    payloads: &[Vec<u8>],
    runs: &[usize],
) -> (Vec<Bytes>, LinkStatsSnapshot) {
    let rx = transport.bind(name, hwm);
    let tx = transport.connect(name).unwrap();
    let n = payloads.len();
    let drainer = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            if got.len() % 2 == 0 {
                got.push(
                    rx.recv_timeout(RECV_DEADLINE)
                        .expect("frame within deadline"),
                );
            } else {
                rx.recv_batch(&mut got, 5, RECV_DEADLINE)
                    .expect("frames within deadline");
            }
        }
        got
    });
    let mut frames = payloads.iter().map(|p| Bytes::from(p.clone()));
    let mut runs = runs.iter().copied().cycle();
    let mut singles = 0;
    while frames.len() > 0 {
        let mut run: VecDeque<Bytes> = frames.by_ref().take(runs.next().unwrap()).collect();
        if run.len() == 1 {
            singles += 1;
            let frame = run.pop_front().unwrap();
            if singles % 2 == 0 {
                tx.send(frame).unwrap();
            } else {
                tx.send_timeout(frame, RECV_DEADLINE).unwrap();
            }
        } else {
            tx.send_batch(&mut run, RECV_DEADLINE).unwrap();
            assert!(run.is_empty());
        }
    }
    let got = drainer.join().unwrap();
    tx.flush(RECV_DEADLINE).unwrap();
    let rollup = transport.link_stats();
    let (_, stats) = rollup.iter().find(|(n, _)| n == name).unwrap();
    (got, *stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// However a stream is cut into `send`s and `send_batch`es, both
    /// backends deliver every frame once, in order, and a link counts
    /// exactly what it counts for the same frames sent one by one:
    /// messages, payload bytes, wire bytes — and no blocked send when the
    /// HWM holds the whole stream.
    #[test]
    fn batched_and_single_sends_are_one_stream_with_one_set_of_counters(
        payloads in prop::collection::vec(
            prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300),
            1..60,
        ),
        runs in prop::collection::vec(0usize..9, 1..6),
        hwm in 1usize..80,
    ) {
        // At least one run must make progress.
        let mut runs = runs;
        runs.push(3);
        for (label, t) in backends() {
            let (got, grouped) = pump_grouped(t.as_ref(), "grouped", hwm, &payloads, &runs);
            let (_, single) = pump_grouped(t.as_ref(), "single", hwm, &payloads, &[1]);
            prop_assert_eq!(got.len(), payloads.len(), "{} exactly once", label);
            for (g, p) in got.iter().zip(&payloads) {
                prop_assert_eq!(&g[..], &p[..], "{} order and content", label);
            }
            prop_assert_eq!(grouped.messages, payloads.len() as u64, "{} messages", label);
            prop_assert_eq!(grouped.messages, single.messages, "{} messages", label);
            prop_assert_eq!(grouped.bytes, single.bytes, "{} bytes", label);
            prop_assert_eq!(grouped.wire_bytes, single.wire_bytes, "{} wire bytes", label);
            if hwm >= payloads.len() {
                prop_assert_eq!(
                    (grouped.blocked_sends, grouped.blocked_nanos), (0, 0), "{} blocked", label
                );
                prop_assert_eq!(
                    (single.blocked_sends, single.blocked_nanos), (0, 0), "{} blocked", label
                );
            }
        }
    }
}

/// A batch larger than the HWM blocks mid-way on both backends and is
/// accounted as blocked sends, like the single sends it stands for.
#[test]
fn a_batch_beyond_the_hwm_blocks_mid_way_on_both_backends() {
    for (label, t) in backends() {
        let rx = t.bind("deep", 2);
        let tx = t.connect("deep").unwrap();
        // Frames big enough to also fill TCP socket buffers.
        let frame = Bytes::from(vec![0u8; 2 * 1024 * 1024]);
        let producer = {
            let tx = tx.clone_box();
            let mut batch: VecDeque<Bytes> = std::iter::repeat_n(frame.clone(), 12).collect();
            std::thread::spawn(move || tx.send_batch(&mut batch, RECV_DEADLINE))
        };
        for _ in 0..12 {
            std::thread::sleep(Duration::from_millis(10));
            let f = rx.recv_timeout(RECV_DEADLINE).expect("frame");
            assert_eq!(f.len(), frame.len(), "{label}");
        }
        producer.join().unwrap().expect("batch delivered");
        assert_eq!(tx.stats().messages_sent(), 12, "{label}");
        assert!(tx.stats().sends_blocked() > 0, "{label}: never hit the HWM");
        assert!(tx.stats().blocked_time() > Duration::ZERO, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary frame sequences and HWMs: both backends deliver the
    /// exact same frames in the exact same order, and account the exact
    /// same message/byte counts in `LinkStats` — the telemetry parity the
    /// Fig. 6 experiments need to be backend-independent.
    #[test]
    fn frames_and_link_stats_are_identical_across_backends(
        payloads in prop::collection::vec(
            prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512),
            1..40,
        ),
        hwm in 1usize..32,
    ) {
        let total_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let mut per_backend = Vec::new();
        for (label, t) in backends() {
            let (got, messages, bytes) = pump(t.as_ref(), "parity", hwm, &payloads);
            prop_assert_eq!(messages, payloads.len() as u64, "{} message count", label);
            prop_assert_eq!(bytes, total_bytes, "{} byte count", label);
            for (g, p) in got.iter().zip(&payloads) {
                prop_assert_eq!(&g[..], &p[..], "{} frame content", label);
            }
            // The per-endpoint rollup agrees with the sender's own stats.
            let rollup = t.link_stats();
            let entry = rollup.iter().find(|(n, _)| n == "parity").unwrap();
            prop_assert_eq!(entry.1.messages, messages, "{} rollup messages", label);
            prop_assert_eq!(entry.1.bytes, bytes, "{} rollup bytes", label);
            per_backend.push(got);
        }
        // And the two backends agree with each other bit-for-bit.
        prop_assert_eq!(&per_backend[0], &per_backend[1]);
    }
}

/// Both backends block a producer that outruns an undrained endpoint, and
/// account the blocking in `LinkStats` — the HWM contract itself.
#[test]
fn hwm_blocking_is_observed_and_accounted_on_both_backends() {
    for (label, t) in backends() {
        let rx = t.bind("pressure", 1);
        let tx = t.connect("pressure").unwrap();
        // Frames big enough to also fill TCP socket buffers.
        let frame = Bytes::from(vec![0u8; 4 * 1024 * 1024]);
        let producer = {
            let tx = tx.clone_box();
            let frame = frame.clone();
            std::thread::spawn(move || {
                for _ in 0..8 {
                    tx.send(frame.clone()).unwrap();
                }
            })
        };
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(20));
            let f = rx.recv_timeout(RECV_DEADLINE).expect("frame");
            assert_eq!(f.len(), frame.len(), "{label}");
        }
        producer.join().unwrap();
        assert!(
            tx.stats().sends_blocked() > 0,
            "{label}: producer never hit the high-water mark"
        );
        assert!(
            tx.stats().blocked_time() > Duration::ZERO,
            "{label}: blocked time not accounted"
        );
    }
}

/// `recv_timeout` on a silent endpoint times out on both backends.
#[test]
fn recv_timeout_expires_identically() {
    for (label, t) in backends() {
        let rx = t.bind("silent", 4);
        let started = Instant::now();
        let err = rx.recv_timeout(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, RecvTimeoutError::Timeout), "{label}");
        assert!(started.elapsed() >= Duration::from_millis(50), "{label}");
    }
}

/// Connect-before-bind: the bounded-retry rendezvous succeeds on both
/// backends once the bind lands, and gives up cleanly when it never does.
#[test]
fn connect_before_bind_retry_works_on_both_backends() {
    for (label, t) in backends() {
        let t2 = Arc::clone(&t);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            t2.bind("late", 4)
        });
        let tx = t
            .connect_retry("late", Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{label}: rendezvous failed: {e}"));
        let rx = binder.join().unwrap();
        tx.send(Bytes::from_static(b"rendezvous")).unwrap();
        assert_eq!(&rx.recv_timeout(RECV_DEADLINE).unwrap()[..], b"rendezvous");

        let err = t
            .connect_retry("never", Duration::from_millis(80))
            .unwrap_err();
        assert!(matches!(err, ConnectError::NotFound { .. }), "{label}");
    }
}

/// Rebind-after-crash: a restarted server re-binding its names serves new
/// connections from the fresh endpoint on both backends.
#[test]
fn rebind_after_crash_recovers_on_both_backends() {
    for (label, t) in backends() {
        let rx1 = t.bind("srv", 4);
        let tx1 = t.connect("srv").unwrap();
        tx1.send(Bytes::from_static(b"gen1")).unwrap();
        assert_eq!(
            &rx1.recv_timeout(RECV_DEADLINE).unwrap()[..],
            b"gen1",
            "{label}"
        );
        drop(rx1); // crash
        let rx2 = t.bind("srv", 4);
        let tx2 = t
            .connect_retry("srv", Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{label}: reconnect failed: {e}"));
        tx2.send(Bytes::from_static(b"gen2")).unwrap();
        assert_eq!(
            &rx2.recv_timeout(RECV_DEADLINE).unwrap()[..],
            b"gen2",
            "{label}"
        );
    }
}

/// Retiring a scope leaves the same rollup on both backends: the scope's
/// names gone, their every frame under `retired/…` — a restarted
/// endpoint's two generations summed, a link still held counting on —
/// and the names outside the scope untouched.
#[test]
fn retiring_a_scope_leaves_the_same_link_stats_on_both_backends() {
    for (label, t) in backends() {
        let send = |tx: &dyn Sender, rx: &BoxReceiver, payload: &[u8]| {
            tx.send(Bytes::copy_from_slice(payload)).unwrap();
            assert_eq!(&rx.recv_timeout(RECV_DEADLINE).unwrap()[..], payload);
        };
        let ctl = t.bind("ctl", 4);
        send(&*t.connect("ctl").unwrap(), &ctl, b"outside");
        for generation in [&b"first"[..], b"second!"] {
            let rx = t.bind("study1/server/0", 4);
            let tx = t.connect("study1/server/0").unwrap();
            send(&*tx, &rx, generation);
            send(&*tx, &rx, generation);
        }
        let held_rx = t.bind("study1/server/1", 4);
        let held = t.connect("study1/server/1").unwrap();
        send(&*held, &held_rx, b"before");
        let (_main, _other) = (
            t.bind("study1/server/main", 4),
            t.bind("study10/server/0", 4),
        );

        t.retire_scope("study1");
        send(&*held, &held_rx, b"after the retirement");
        assert_eq!(t.bound_names(), ["ctl", "study10/server/0"], "{label}");
        let rollup: Vec<_> = t
            .link_stats()
            .into_iter()
            .map(|(n, s)| (n, s.messages, s.bytes))
            .collect();
        let expected = [
            ("ctl", 1, 7),
            ("retired/server/0", 4, 24),
            ("retired/server/1", 2, 26),
            ("retired/server/main", 0, 0),
            ("study10/server/0", 0, 0),
        ];
        assert_eq!(
            rollup,
            expected.map(|(n, m, b)| (n.to_string(), m, b)),
            "{label}"
        );
    }
}

/// `FaultySender` composes with both backends: the deterministic φ-drop
/// sequence loses exactly the same frames over TCP as in-process, delays
/// stall the producer, and the kill switch severs the link.
#[test]
fn faulty_sender_drop_delay_and_kill_compose_with_both_backends() {
    const N: u64 = 400;
    const P_DROP: f64 = 0.25;
    // The φ-sequence is deterministic: compute the exact survivor count.
    const PHI: f64 = 0.618_033_988_749_894_9;
    let expected_delivered = (0..N)
        .filter(|&i| (i as f64 * PHI).fract() >= P_DROP)
        .count();

    for (label, t) in backends() {
        // HWM above the surviving-frame count: the whole burst buffers
        // without a concurrent drainer on either backend.
        let rx = t.bind("faulty", N as usize + 8);
        let kill = KillSwitch::new();
        let faulty = FaultySender::new(
            t.connect("faulty").unwrap(),
            FaultPolicy {
                drop_probability: P_DROP,
                delay: Duration::ZERO,
            },
            kill.clone(),
        );
        for i in 0..N {
            faulty
                .send(Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap_or_else(|e| panic!("{label}: send {i} failed: {e}"));
        }
        let mut delivered = Vec::new();
        while delivered.len() < expected_delivered {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(f) => delivered.push(u64::from_le_bytes(f[..].try_into().unwrap())),
                Err(e) => panic!(
                    "{label}: only {} of {expected_delivered} survivors arrived: {e:?}",
                    delivered.len()
                ),
            }
        }
        // Nothing extra trickles in: the drop pattern is exact.
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "{label}: more frames than the φ-sequence allows"
        );
        let survivors: Vec<u64> = (0..N)
            .filter(|&i| (i as f64 * PHI).fract() >= P_DROP)
            .collect();
        assert_eq!(delivered, survivors, "{label}: wrong frames dropped");

        // Delay: a 20 ms straggler delay makes 3 sends take ≥ 60 ms.
        let slow = FaultySender::new(
            t.connect("faulty").unwrap(),
            FaultPolicy {
                drop_probability: 0.0,
                delay: Duration::from_millis(20),
            },
            kill.clone(),
        );
        let started = Instant::now();
        for _ in 0..3 {
            slow.send(Bytes::from_static(b"slow")).unwrap();
        }
        assert!(
            started.elapsed() >= Duration::from_millis(60),
            "{label}: delay not applied"
        );

        // Kill: the switch severs every wrapped link.
        kill.kill();
        assert!(faulty.send(Bytes::from_static(b"dead")).is_err(), "{label}");
        assert!(slow.send(Bytes::from_static(b"dead")).is_err(), "{label}");
    }
}
