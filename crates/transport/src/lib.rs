//! # melissa-transport — backend-agnostic messaging for in transit
//! analysis
//!
//! The Melissa paper's elasticity story (Section 4.1.3) rests on ZeroMQ
//! dynamic connections: simulation groups are independent batch jobs that
//! attach to the parallel server over real sockets whenever the scheduler
//! starts them, with user-controlled buffering — "communications only
//! become blocking when both buffers are full".  This crate carves those
//! semantics into a first-class trait surface and ships two backends
//! behind it.
//!
//! ## The trait surface ([`api`])
//!
//! * [`Transport`] — named-endpoint rendezvous: `bind(name, hwm)` →
//!   [`BoxReceiver`], `connect(name)` → [`BoxSender`], plus
//!   [`connect_retry`](Transport::connect_retry) (connect-before-bind),
//!   rebind-on-restart and the per-endpoint
//!   [`link_stats`](Transport::link_stats) backpressure rollup, and
//!   [`round_trip`], the one request/reply exchange every control and
//!   scrape RPC is;
//! * [`Sender`] — the high-water-mark contract: buffer asynchronously
//!   below the HWM, block at the HWM with [`LinkStats`] time accounting
//!   (the paper's Fig. 6 telemetry), deadline sends, clean
//!   [`Disconnected`] errors, and `send_batch` to hand over a timestep's
//!   frames under that same contract at one hand-off's cost;
//! * [`Receiver`] — blocking / deadline / non-blocking receives with
//!   explicit disconnects, and `recv_batch` to take what is queued.
//!
//! ## Backend matrix
//!
//! | backend | module | data path | name resolution | use |
//! |---|---|---|---|---|
//! | [`ChannelTransport`] | [`registry`] | bounded in-process channels | in-process map | single-process studies, tests, the reference semantics |
//! | [`TcpTransport`] (single node) | [`tcp`] | real `std::net` loopback sockets, length-prefixed frames, one writer/reader thread per connection | the node's own endpoint table | multi-process data path on one machine |
//! | [`TcpTransport`] (node) | [`tcp`] + [`directory`] | same sockets, one listener **per node**, endpoint demux in the handshake, self-healing links | deployment [`DirectoryServer`] (TCP key→`host:port` store with liveness leases) | multi-node deployments: shards, groups and launcher as separate processes on separate machines |
//!
//! Every backend runs every link through the same bounded HWM queues
//! ([`endpoint::channel`]), so blocking behaviour and its telemetry are
//! identical; a seeded study produces bit-identical statistics over any
//! of them.  [`TransportKind`] + [`make_transport`] select a backend at
//! configuration time.
//!
//! ## Endpoint naming and name resolution
//!
//! Endpoint names are opaque strings with a canonical scheme in
//! [`directory::names`].  Every server instance of a study is a shard,
//! and every endpoint of shard `k` carries the prefix `"shard<k>/"`
//! ([`directory::names::shard_scope`]), under `"study<id>/"` when a
//! daemon hosts the study: `N` complete server instances — the
//! `server/main` inbox (handshakes and scrapes), worker data endpoints
//! and a per-shard launcher control inbox — coexist in **one** name
//! space without collisions, a one-shard study's as `"shard0/…"`.
//!
//! Resolution is in-process for single-node transports (the channel
//! map, or the TCP node's own endpoint table).  Multi-node ones resolve
//! through the deployment's [`DirectoryServer`] with a
//! [`DirectoryClient`], seeded through the launcher handshake or the
//! [`DIRECTORY_ENV`] environment variable (`MELISSA_DIRECTORY=host:port`):
//! every `bind` publishes `scoped-name → advertised host:port` under a
//! liveness lease and every `connect` resolves before dialing.
//!
//! ## Wire framing and self-healing links (TCP backend)
//!
//! Frames cross the socket as a little-endian `u32` length prefix plus
//! payload; the payload is an opaque, already-[`codec`]-encoded message.
//! The connection handshake carries the endpoint name (the per-node
//! listener's demux key), the link id, and returns the endpoint's HWM
//! plus the link's resume cursor.  Established multi-node links survive
//! real connection loss: reconnect-with-backoff, idempotent
//! re-handshake, exactly-once resume, with the [`Sender::flush`]
//! delivery barrier holding across the failure.  See [`tcp`] for the
//! full contract.
//!
//! ## Supporting modules
//!
//! * [`codec`] — length-checked little-endian binary encode/decode over
//!   [`bytes`]: the [`codec::Wire`] trait and the `wire_struct!` /
//!   `wire_enum!` declarations every control message is written as, the
//!   checkpoint's primitives, and the frame stream helpers every TCP
//!   protocol here shares;
//! * [`compress`] — the bandwidth-lean wire codec: lossless in-frame
//!   f64 compression (order-2 prediction + byte-plane transpose +
//!   zero-run coding) applied by the TCP writer and undone on ingest;
//! * [`heartbeat`] — timeout-based liveness tracking (fault detection
//!   and the directory's per-name leases);
//! * [`faults`] — deterministic fault injection ([`FaultySender`]
//!   implements [`Sender`], so kills, drops and stragglers compose with
//!   any backend, including the directory-resolved self-healing path);
//! * [`sync`] — the poison-free [`Mutex`](sync::Mutex),
//!   [`RwLock`](sync::RwLock) and [`Condvar`](sync::Condvar) every crate
//!   of the workspace locks with (same-thread re-locks panic in debug
//!   builds).
//!
//! The protocol messages themselves live in the `melissa` core crate; this
//! crate only moves opaque frames.

pub mod api;
/// The HWM queue's tests, named after [`endpoint::channel`].
mod channel;
pub mod codec;
pub mod compress;
pub mod directory;
pub mod endpoint;
pub mod faults;
pub mod heartbeat;
pub mod registry;
pub mod sync;
pub mod tcp;

pub use api::{
    instant_after, make_transport, make_transport_with, round_trip, BoxReceiver, BoxSender,
    ConnectError, Disconnected, LinkStatsSnapshot, Receiver, RecvTimeoutError, RoundTripError,
    SendBatchError, SendTimeoutError, Sender, Transport, TransportKind, TryRecvError,
};
pub use compress::{compress_payload, decompress_payload, WireCompression};
pub use directory::{
    directory_from_env, DirectoryClient, DirectoryError, DirectoryServer, DIRECTORY_ENV,
};
pub use endpoint::{channel, ChannelReceiver, Frame, HwmSender, LinkStats};
pub use faults::{FaultPolicy, FaultySender, KillSwitch};
pub use heartbeat::{LivenessTracker, LoadMonitor};
pub use registry::ChannelTransport;
pub use tcp::{TcpTransport, TcpTransportConfig};

/// The lock tests of [`sync`].
#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    use crate::sync::*;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_read_write_guards() {
        let l = RwLock::new(1);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 2);
        }
        *l.write() += 4;
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let g = cv.wait_timeout(m.lock(), Duration::from_millis(10));
        assert!(!*g, "nobody notified");
    }

    #[test]
    fn condvar_notifies_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                done = cv.wait(done);
            }
        });
        thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn a_poisoned_lock_stays_usable() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder failure under test");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_same_thread_relock_panics_naming_both_call_sites() {
        fn message(payload: Box<dyn std::any::Any + Send>) -> String {
            payload
                .downcast::<String>()
                .map(|s| *s)
                .expect("a formatted panic message")
        }
        let m = Mutex::new(0);
        let (first, again) = (line!() + 2, line!() + 3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = m.lock();
            let _again = m.lock();
        }))
        .expect_err("a re-lock panics");
        let msg = message(err);
        for line in [first, again] {
            assert!(msg.contains(&format!("{}:{line}:", file!())), "{msg}");
        }
        // The unwind released the first hold: the lock is usable again.
        assert_eq!(*m.lock(), 0);

        let l = RwLock::new(0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = l.write();
            let _again = l.write();
        }))
        .expect_err("a write re-lock panics");
        assert!(message(err).contains("taken again at"));
    }

    #[test]
    fn lock_then_drop_then_lock_on_one_thread_does_not_panic() {
        let m = Mutex::new(0);
        for _ in 0..3 {
            let mut g = m.lock();
            *g += 1;
            drop(g);
        }
        *m.lock() += 1;
        let l = RwLock::new(0);
        *l.write() += 1;
        *l.write() += 1;
        assert_eq!((*m.lock(), *l.read()), (4, 2));
    }

    #[test]
    fn a_guard_held_across_a_notified_wait_does_not_panic() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let other = Mutex::new(0);
        let held_across = other.lock();
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        let notifier = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (m, cv) = &*pair;
                *m.lock() = true;
                cv.notify_one();
            })
        };
        while !*ready {
            ready = cv.wait(ready);
        }
        drop(ready);
        drop(held_across);
        notifier.join().unwrap();
        // Both locks were struck off this thread's list on drop.
        assert!(*m.lock());
        assert_eq!(*other.lock(), 0);
    }

    #[test]
    fn a_lock_at_the_start_of_a_locked_value_is_not_a_relock() {
        struct Outer {
            inner: Mutex<u64>,
        }
        let outer = Mutex::new(Outer {
            inner: Mutex::new(7),
        });
        let g = outer.lock();
        assert_eq!(*g.inner.lock(), 7);
    }
}
