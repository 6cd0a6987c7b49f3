//! High-water-mark buffered links — the ZeroMQ substitute.
//!
//! The paper (Section 4.1.3): "Messages are buffered on the client and
//! server side if necessary… Communications only become blocking when both
//! buffers are full."  The HWM semantics are load-bearing for the Study-1
//! result (Fig. 6a/6b): an undersized server drains slower than the
//! simulations produce, buffers fill, sends block, and the simulations are
//! suspended — up to doubling their execution time.
//!
//! [`channel`] returns a bounded MPMC queue whose sender buffers
//! asynchronously until the HWM is reached and then blocks, while recording
//! how long it spent blocked ([`LinkStats`]) so experiments can measure
//! backpressure exactly as the paper does.  A run of frames — a group's
//! timestep — goes in with one [`HwmSender::send_batch`] and comes out
//! with one [`ChannelReceiver::recv_batch`]: the same frames, the same
//! blocking and the same counts as a call per frame, for one queue lock
//! and at most one wake-up of the other side.  [`HwmSender`] /
//! [`ChannelReceiver`] implement the backend-agnostic [`Sender`] /
//! [`Receiver`]-trait pair — both the in-process
//! backend's link type *and* the bounded-queue building block the TCP
//! backend feeds from its writer/reader threads, which is what keeps the
//! HWM contract and its telemetry identical across backends.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Blocked, SendManyError};

use crate::api::{
    BoxSender, Disconnected, FlushError, Receiver, RecvTimeoutError, SendBatchError,
    SendTimeoutError, Sender, TryRecvError,
};

/// A framed payload (already encoded message bytes).
pub type Frame = bytes::Bytes;

/// Counters shared by all clones of one sender.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Total frames sent.
    pub messages: AtomicU64,
    /// Total payload bytes sent.
    pub bytes: AtomicU64,
    /// Number of sends that found the buffer full and had to block.
    pub blocked_sends: AtomicU64,
    /// Total nanoseconds spent blocked in sends.
    pub blocked_nanos: AtomicU64,
    /// Bytes actually put on the wire for this link's data frames
    /// (length prefixes included, compression applied) — meaningful only
    /// when a wire stage tracks it; see [`LinkStats::wire_bytes_sent`].
    pub wire_bytes: AtomicU64,
    /// Set once by a wire stage (the TCP writer thread) the first time it
    /// accounts wire bytes.  Links without a wire (in-process) leave it
    /// unset and report `wire_bytes == bytes`.
    wire_tracked: AtomicBool,
}

impl LinkStats {
    /// Total time spent blocked on a full buffer.
    pub fn blocked_time(&self) -> Duration {
        Duration::from_nanos(self.blocked_nanos.load(Ordering::Relaxed))
    }

    /// Frames sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Payload bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Sends that hit the high-water mark.
    pub fn sends_blocked(&self) -> u64 {
        self.blocked_sends.load(Ordering::Relaxed)
    }

    /// Bytes this link put on the wire.  A link with a wire stage (TCP)
    /// reports the actual socket bytes of its data frames — length
    /// prefixes and retransmissions included, compression applied — so
    /// `bytes_sent / wire_bytes_sent` is the live compression ratio.  A
    /// link without a wire (in-process channels) reports its payload
    /// bytes: nothing was framed or compressed, the "wire" carried
    /// exactly the payload.
    pub fn wire_bytes_sent(&self) -> u64 {
        if self.wire_tracked.load(Ordering::Relaxed) {
            self.wire_bytes.load(Ordering::Relaxed)
        } else {
            self.bytes_sent()
        }
    }

    /// Wire-stage hook: accounts `n` socket bytes and marks the link
    /// wire-tracked (transport-internal).
    pub(crate) fn add_wire_bytes(&self, n: u64) {
        self.wire_tracked.store(true, Ordering::Relaxed);
        self.wire_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks the link wire-tracked before any byte flows, so a snapshot
    /// taken between connect and first write reports 0 wire bytes, not
    /// the payload fallback (transport-internal).
    pub(crate) fn mark_wire_tracked(&self) {
        self.wire_tracked.store(true, Ordering::Relaxed);
    }
}

/// The queue's deadline-send failure as the link's, frame included.
fn unsent(e: crossbeam::channel::SendTimeoutError<Frame>) -> SendTimeoutError {
    match e {
        crossbeam::channel::SendTimeoutError::Timeout(f) => SendTimeoutError::Timeout(f),
        crossbeam::channel::SendTimeoutError::Disconnected(f) => SendTimeoutError::Disconnected(f),
    }
}

/// Sending half of an HWM-buffered link (the in-process backend's
/// [`Sender`], and the bounded-queue stage of every TCP link).
#[derive(Debug, Clone)]
pub struct HwmSender {
    inner: crossbeam::channel::Sender<Frame>,
    stats: Arc<LinkStats>,
}

impl HwmSender {
    /// Sends a frame, buffering asynchronously below the HWM and blocking
    /// (with time accounting) when the buffer is full — ZeroMQ blocking-send
    /// semantics.
    pub fn send(&self, frame: Frame) -> Result<(), Disconnected> {
        self.send_one(frame, None).map_err(|_| Disconnected)
    }

    /// Sends with a deadline; returns the frame if the buffer stayed full.
    /// Used by fault-tolerant senders that must notice a dead server.
    pub fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError> {
        self.send_one(frame, Some(timeout))
    }

    /// A batch of one (see [`send_batch`](Self::send_batch)), without the
    /// queue around it.
    fn send_one(&self, frame: Frame, timeout: Option<Duration>) -> Result<(), SendTimeoutError> {
        let len = frame.len() as u64;
        let mut blocked = Blocked::default();
        let res = self.inner.send_one(frame, timeout, &mut blocked);
        let (messages, bytes) = if res.is_ok() { (1, len) } else { (0, 0) };
        self.account(messages, bytes, blocked);
        res.map_err(unsent)
    }

    /// Hands over a whole batch in order: one queue lock for every stretch
    /// that fits below the HWM and at most one wake-up of the receiving
    /// side, where a `send` per frame pays both per frame.  Counts in
    /// [`LinkStats`] exactly what those sends would: every frame buffered,
    /// and one blocked send (with its wait) per frame that found the
    /// buffer full.  `timeout` (`None`: for ever) bounds the wait of each
    /// such frame; on `Err` the unsent tail is left in `frames`.
    pub fn send_batch(
        &self,
        frames: &mut VecDeque<Frame>,
        timeout: Option<Duration>,
    ) -> Result<(), SendBatchError> {
        let queued = |frames: &VecDeque<Frame>| {
            let bytes: usize = frames.iter().map(Frame::len).sum();
            (frames.len() as u64, bytes as u64)
        };
        let (n, bytes) = queued(frames);
        let mut blocked = Blocked::default();
        let res = self.inner.send_many(frames, timeout, &mut blocked);
        let (n_left, bytes_left) = queued(frames);
        self.account(n - n_left, bytes - bytes_left, blocked);
        res.map_err(|e| match e {
            SendManyError::Timeout => SendBatchError::Timeout,
            SendManyError::Disconnected => SendBatchError::Disconnected,
        })
    }

    fn account(&self, messages: u64, bytes: u64, blocked: Blocked) {
        if blocked.sends > 0 {
            self.stats
                .blocked_sends
                .fetch_add(blocked.sends, Ordering::Relaxed);
            self.stats
                .blocked_nanos
                .fetch_add(blocked.nanos, Ordering::Relaxed);
        }
        self.stats.messages.fetch_add(messages, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Sends a frame *without* statistics accounting, honouring the HWM
    /// up to a deadline.  Transport-internal: in-band control markers
    /// (e.g. the TCP flush barrier) must ride the same FIFO as data
    /// frames without polluting the telemetry, and their callers carry
    /// their own deadline contracts.
    pub(crate) fn send_uncounted_timeout(
        &self,
        frame: Frame,
        timeout: Duration,
    ) -> Result<(), SendTimeoutError> {
        self.inner.send_timeout(frame, timeout).map_err(unsent)
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &Arc<LinkStats> {
        &self.stats
    }

    /// Frames currently buffered (approximate).
    pub fn queued(&self) -> usize {
        self.inner.len()
    }
}

impl Sender for HwmSender {
    fn send(&self, frame: Frame) -> Result<(), Disconnected> {
        HwmSender::send(self, frame)
    }

    fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError> {
        HwmSender::send_timeout(self, frame, timeout)
    }

    fn send_batch(
        &self,
        frames: &mut VecDeque<Frame>,
        timeout: Duration,
    ) -> Result<(), SendBatchError> {
        HwmSender::send_batch(self, frames, Some(timeout))
    }

    /// In-process sends deliver straight into the endpoint queue, so the
    /// barrier holds trivially.
    fn flush(&self, _timeout: Duration) -> Result<(), FlushError> {
        Ok(())
    }

    fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(&self.stats)
    }

    fn queued(&self) -> usize {
        HwmSender::queued(self)
    }

    fn clone_box(&self) -> BoxSender {
        Box::new(self.clone())
    }
}

/// Receiving half of an HWM-buffered link.
#[derive(Debug, Clone)]
pub struct ChannelReceiver {
    inner: crossbeam::channel::Receiver<Frame>,
}

impl ChannelReceiver {
    /// Blocks until a frame arrives or every sender is gone.
    pub fn recv(&self) -> Result<Frame, Disconnected> {
        self.inner.recv().map_err(|_| Disconnected)
    }

    /// Blocks until a frame arrives, disconnect, or the timeout elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvTimeoutError> {
        self.inner.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
        })
    }

    /// Pops without blocking.
    pub fn try_recv(&self) -> Result<Frame, TryRecvError> {
        self.inner.try_recv().map_err(|e| match e {
            crossbeam::channel::TryRecvError::Empty => TryRecvError::Empty,
            crossbeam::channel::TryRecvError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Waits up to `timeout` (`None`: for ever) for a frame, then appends
    /// it and whatever else is queued — at most `max` frames in all — to
    /// `into` under one queue lock; returns how many.
    pub fn recv_batch(
        &self,
        into: &mut Vec<Frame>,
        max: usize,
        timeout: Option<Duration>,
    ) -> Result<usize, RecvTimeoutError> {
        self.inner
            .recv_many(into, max, timeout)
            .map_err(|e| match e {
                crossbeam::channel::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                crossbeam::channel::RecvTimeoutError::Disconnected => {
                    RecvTimeoutError::Disconnected
                }
            })
    }

    /// Frames currently buffered (approximate).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is buffered (approximate).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl Receiver for ChannelReceiver {
    fn recv(&self) -> Result<Frame, Disconnected> {
        ChannelReceiver::recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvTimeoutError> {
        ChannelReceiver::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Result<Frame, TryRecvError> {
        ChannelReceiver::try_recv(self)
    }

    fn recv_batch(
        &self,
        into: &mut Vec<Frame>,
        max: usize,
        timeout: Duration,
    ) -> Result<usize, RecvTimeoutError> {
        ChannelReceiver::recv_batch(self, into, max, Some(timeout))
    }

    fn len(&self) -> usize {
        ChannelReceiver::len(self)
    }
}

/// Creates an HWM-buffered link with capacity `hwm` frames.
///
/// # Panics
/// Panics if `hwm == 0` (a zero buffer would deadlock single-threaded
/// tests; ZeroMQ's HWM is likewise ≥ 1).
pub fn channel(hwm: usize) -> (HwmSender, ChannelReceiver) {
    assert!(hwm > 0, "HWM must be at least 1");
    let (tx, rx) = bounded(hwm);
    (
        HwmSender {
            inner: tx,
            stats: Arc::new(LinkStats::default()),
        },
        ChannelReceiver { inner: rx },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn frame(n: usize) -> Frame {
        bytes::Bytes::from(vec![0u8; n])
    }

    #[test]
    fn sends_below_hwm_do_not_block() {
        let (tx, _rx) = channel(4);
        for _ in 0..4 {
            tx.send(frame(10)).unwrap();
        }
        assert_eq!(tx.stats().sends_blocked(), 0);
        assert_eq!(tx.stats().messages_sent(), 4);
        assert_eq!(tx.stats().bytes_sent(), 40);
    }

    #[test]
    fn full_buffer_blocks_and_is_accounted() {
        let (tx, rx) = channel(2);
        tx.send(frame(1)).unwrap();
        tx.send(frame(1)).unwrap();
        // Consumer drains after 30 ms; the third send must block ~that long.
        let drainer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            let _ = rx.recv();
            rx // keep receiver alive until here
        });
        tx.send(frame(1)).unwrap();
        assert_eq!(tx.stats().sends_blocked(), 1);
        assert!(
            tx.stats().blocked_time() >= Duration::from_millis(20),
            "blocked {:?}",
            tx.stats().blocked_time()
        );
        drop(drainer.join().unwrap());
    }

    #[test]
    fn disconnected_receiver_is_an_error() {
        let (tx, rx) = channel(1);
        drop(rx);
        assert_eq!(tx.send(frame(1)), Err(Disconnected));
    }

    #[test]
    fn send_timeout_times_out_when_nobody_drains() {
        let (tx, _rx) = channel(1);
        tx.send(frame(1)).unwrap();
        let res = tx.send_timeout(frame(1), Duration::from_millis(20));
        assert!(matches!(res, Err(SendTimeoutError::Timeout(_))));
    }

    #[test]
    fn clones_share_stats() {
        let (tx, _rx) = channel(8);
        let tx2 = tx.clone();
        tx.send(frame(1)).unwrap();
        tx2.send(frame(1)).unwrap();
        assert_eq!(tx.stats().messages_sent(), 2);
    }

    #[test]
    fn boxed_sender_clones_share_the_link() {
        let (tx, rx) = channel(8);
        let boxed: BoxSender = Box::new(tx);
        let boxed2 = boxed.clone();
        boxed.send(frame(3)).unwrap();
        boxed2.send(frame(4)).unwrap();
        assert_eq!(boxed.stats().messages_sent(), 2);
        assert_eq!(boxed.stats().bytes_sent(), 7);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn receiver_trait_surface_matches_inherent_behaviour() {
        let (tx, rx) = channel(2);
        let boxed: Box<dyn Receiver> = Box::new(rx);
        assert!(matches!(boxed.try_recv(), Err(TryRecvError::Empty)));
        tx.send(frame(1)).unwrap();
        assert_eq!(boxed.recv().unwrap().len(), 1);
        assert!(matches!(
            boxed.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        ));
        drop(tx);
        assert!(matches!(boxed.try_recv(), Err(TryRecvError::Disconnected)));
    }

    #[test]
    #[should_panic(expected = "HWM")]
    fn zero_hwm_panics() {
        let _ = channel(0);
    }
}
