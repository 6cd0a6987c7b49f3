//! High-water-mark buffered links — the ZeroMQ substitute.
//!
//! The paper (Section 4.1.3): "Messages are buffered on the client and
//! server side if necessary… Communications only become blocking when both
//! buffers are full."  The HWM semantics are load-bearing for the Study-1
//! result (Fig. 6a/6b): an undersized server drains slower than the
//! simulations produce, buffers fill, sends block, and the simulations are
//! suspended — up to doubling their execution time.
//!
//! [`channel`] returns a bounded MPSC queue — any number of
//! [`HwmSender`] clones, one [`ChannelReceiver`] — whose senders buffer
//! asynchronously until the HWM is reached and then block, while recording
//! how long they spent blocked ([`LinkStats`]) so experiments can measure
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
//!
//! The queue is a `VecDeque` under one lock with two condvars (not-empty,
//! not-full).  Every notify is **waiter-counted**: a condvar is signalled
//! only when somebody sleeps on it, so a send to a busy receiver costs no
//! `futex` call.  Disconnection follows the handles: sends fail once the
//! receiver is gone; the receiver drains the queue, then fails once every
//! sender is gone.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    instant_after, BoxSender, Disconnected, FlushError, Receiver, RecvTimeoutError, SendBatchError,
    SendTimeoutError, Sender, TryRecvError,
};
use crate::sync::{Condvar, Mutex};

/// A framed payload (already encoded message bytes).
pub type Frame = bytes::Bytes;

/// Counters shared by all clones of one sender: independent `Relaxed`
/// atomics (see the table of orderings in [`crate::sync`]).
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

/// The queue one link's senders and its receiver share.
pub(crate) struct Queue {
    pub(crate) state: Mutex<QueueState>,
    /// The receiver sleeps here while the queue is empty.
    not_empty: Condvar,
    /// Senders sleep here while it is at the HWM.
    not_full: Condvar,
}

pub(crate) struct QueueState {
    frames: VecDeque<Frame>,
    hwm: usize,
    /// Live [`HwmSender`]s; at 0 the receiver sees a disconnect.
    senders: usize,
    receiver_gone: bool,
    /// Whether the receiver sleeps on `not_empty`, and how many senders
    /// sleep on `not_full` — kept under the lock, so nobody to wake means
    /// no notify.
    pub(crate) recv_waiting: bool,
    pub(crate) send_waiting: usize,
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Queue")
    }
}

/// How many of one call's frames found the buffer at the HWM, and how long
/// they waited for room (what [`LinkStats`] adds up).
#[derive(Default)]
struct Blocked {
    sends: u64,
    nanos: u64,
}

/// Sending half of an HWM-buffered link (the in-process backend's
/// [`Sender`], and the bounded-queue stage of every TCP link).
#[derive(Debug)]
pub struct HwmSender {
    pub(crate) queue: Arc<Queue>,
    stats: Arc<LinkStats>,
}

impl Clone for HwmSender {
    fn clone(&self) -> Self {
        self.queue.state.lock().senders += 1;
        HwmSender {
            queue: Arc::clone(&self.queue),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl Drop for HwmSender {
    fn drop(&mut self) {
        let mut state = self.queue.state.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // Wake the receiver so it observes the disconnect.
            self.queue.not_empty.notify_all();
        }
    }
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

    /// A batch of one (see [`send_batch`](Self::send_batch)), counted.
    fn send_one(&self, frame: Frame, timeout: Option<Duration>) -> Result<(), SendTimeoutError> {
        let len = frame.len() as u64;
        let mut blocked = Blocked::default();
        let res = self.push_one(frame, timeout, &mut blocked);
        let (messages, bytes) = if res.is_ok() { (1, len) } else { (0, 0) };
        self.account(messages, bytes, blocked);
        res
    }

    /// Buffers one frame, uncounted; on `Err` the frame comes back.
    fn push_one(
        &self,
        frame: Frame,
        timeout: Option<Duration>,
        blocked: &mut Blocked,
    ) -> Result<(), SendTimeoutError> {
        let mut pending = Some(frame);
        self.send_from(&mut pending, &mut || None, timeout, blocked)
            .map_err(|e| {
                let frame = pending.take().expect("an unsent frame comes back");
                match e {
                    SendBatchError::Timeout => SendTimeoutError::Timeout(frame),
                    SendBatchError::Disconnected => SendTimeoutError::Disconnected(frame),
                }
            })
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
        let mut pending = None;
        let res = self.send_from(
            &mut pending,
            &mut || frames.pop_front(),
            timeout,
            &mut blocked,
        );
        if let Some(unsent) = pending {
            frames.push_front(unsent);
        }
        let (n_left, bytes_left) = queued(frames);
        self.account(n - n_left, bytes - bytes_left, blocked);
        res
    }

    /// The one send path.  Buffers `pending` and then every frame `more`
    /// yields, in order: as many as fit per lock acquisition, waiting for
    /// room whenever the buffer is at the HWM.  Each frame that finds it
    /// full counts once in `blocked` and may wait up to `timeout` (`None`:
    /// for ever).  On `Err` the frame that could not be buffered is back in
    /// `pending`, and `more` has not been asked for the ones after it.
    ///
    /// A sleeping receiver is woken at most once per stretch that fits
    /// (once per call when nothing blocks), and not at all when it is
    /// awake.
    fn send_from(
        &self,
        pending: &mut Option<Frame>,
        more: &mut dyn FnMut() -> Option<Frame>,
        timeout: Option<Duration>,
        blocked: &mut Blocked,
    ) -> Result<(), SendBatchError> {
        let queue = &*self.queue;
        let mut g = queue.state.lock();
        let mut pushed = false;
        let outcome = 'batch: loop {
            let Some(frame) = pending.take().or_else(&mut *more) else {
                break Ok(());
            };
            if g.receiver_gone {
                *pending = Some(frame);
                break Err(SendBatchError::Disconnected);
            }
            if g.frames.len() < g.hwm {
                g.frames.push_back(frame);
                pushed = true;
                continue;
            }
            // Full: this frame waits its turn.  What is already buffered
            // must be visible to a sleeping receiver first.
            *pending = Some(frame);
            if std::mem::take(&mut pushed) && g.recv_waiting {
                wake_one(&queue.not_empty);
            }
            blocked.sends += 1;
            let wait_started = Instant::now();
            let deadline = timeout.map(|t| instant_after(wait_started, t));
            g.send_waiting += 1;
            let waited = loop {
                g = match deadline {
                    None => queue.not_full.wait(g),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break Err(SendBatchError::Timeout);
                        }
                        queue.not_full.wait_timeout(g, left)
                    }
                };
                if g.receiver_gone {
                    break Err(SendBatchError::Disconnected);
                }
                if g.frames.len() < g.hwm {
                    break Ok(());
                }
            };
            g.send_waiting -= 1;
            blocked.nanos += wait_started.elapsed().as_nanos() as u64;
            if let Err(e) = waited {
                break 'batch Err(e);
            }
        };
        let wake_receiver = pushed && g.recv_waiting;
        // Room left over belongs to the next waiting sender.
        let wake_sender = g.send_waiting > 0 && g.frames.len() < g.hwm && !g.receiver_gone;
        drop(g);
        if wake_receiver {
            wake_one(&queue.not_empty);
        }
        if wake_sender {
            wake_one(&queue.not_full);
        }
        outcome
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
        self.push_one(frame, Some(timeout), &mut Blocked::default())
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &Arc<LinkStats> {
        &self.stats
    }

    /// Frames currently buffered (approximate).
    pub fn queued(&self) -> usize {
        self.queue.state.lock().frames.len()
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

/// Receiving half of an HWM-buffered link: one per link, used from one
/// thread at a time.
#[derive(Debug)]
pub struct ChannelReceiver {
    pub(crate) queue: Arc<Queue>,
    /// Not `Sync`: at most one thread ever sleeps on `not_empty`, so a
    /// frame left behind never waits for a second sleeper.
    _one_thread: PhantomData<Cell<()>>,
}

impl Drop for ChannelReceiver {
    fn drop(&mut self) {
        self.queue.state.lock().receiver_gone = true;
        // Wake senders so they observe the disconnect.
        self.queue.not_full.notify_all();
    }
}

impl ChannelReceiver {
    /// Blocks until a frame arrives or every sender is gone.
    pub fn recv(&self) -> Result<Frame, Disconnected> {
        self.recv_one(None).map_err(|_| Disconnected)
    }

    /// Blocks until a frame arrives, disconnect, or the timeout elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvTimeoutError> {
        self.recv_one(Some(timeout))
    }

    /// Pops without blocking.
    pub fn try_recv(&self) -> Result<Frame, TryRecvError> {
        self.recv_one(Some(Duration::ZERO)).map_err(|e| match e {
            RecvTimeoutError::Timeout => TryRecvError::Empty,
            RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
        })
    }

    fn recv_one(&self, timeout: Option<Duration>) -> Result<Frame, RecvTimeoutError> {
        self.take(timeout, |frames| frames.pop_front().expect("non-empty"))
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
        if max == 0 {
            return Ok(0);
        }
        self.take(timeout, |frames| {
            let n = max.min(frames.len());
            into.extend(frames.drain(..n));
            n
        })
    }

    /// The one receive path.  Waits up to `timeout` (`None`: for ever) for
    /// the buffer to hold something, then lets `take` remove what it wants
    /// from the front under that one lock acquisition.  Queued frames
    /// drain before a disconnect is reported.  Senders waiting for room
    /// are woken only if there are any.
    fn take<R>(
        &self,
        timeout: Option<Duration>,
        take: impl FnOnce(&mut VecDeque<Frame>) -> R,
    ) -> Result<R, RecvTimeoutError> {
        let queue = &*self.queue;
        let mut g = queue.state.lock();
        if g.frames.is_empty() {
            let deadline = timeout.map(|t| instant_after(Instant::now(), t));
            g.recv_waiting = true;
            let waited = loop {
                if g.senders == 0 {
                    break Err(RecvTimeoutError::Disconnected);
                }
                g = match deadline {
                    None => queue.not_empty.wait(g),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break Err(RecvTimeoutError::Timeout);
                        }
                        queue.not_empty.wait_timeout(g, left)
                    }
                };
                if !g.frames.is_empty() {
                    break Ok(());
                }
            };
            g.recv_waiting = false;
            waited?;
        }
        let taken = take(&mut g.frames);
        let wake_sender = g.send_waiting > 0 && g.frames.len() < g.hwm;
        drop(g);
        if wake_sender {
            wake_one(&queue.not_full);
        }
        Ok(taken)
    }

    /// Frames currently buffered (approximate).
    pub fn len(&self) -> usize {
        self.queue.state.lock().frames.len()
    }

    /// True when nothing is buffered (approximate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    let queue = Arc::new(Queue {
        state: Mutex::new(QueueState {
            // Grown on demand: an HWM bounds the queue, it is not a size
            // to allocate on every bind.
            frames: VecDeque::new(),
            hwm,
            senders: 1,
            receiver_gone: false,
            recv_waiting: false,
            send_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        HwmSender {
            queue: Arc::clone(&queue),
            stats: Arc::new(LinkStats::default()),
        },
        ChannelReceiver {
            queue,
            _one_thread: PhantomData,
        },
    )
}

/// The one place a sleeper is woken (the queue tests count the calls).
fn wake_one(sleepers: &Condvar) {
    #[cfg(test)]
    crate::channel::tests::WAKES.with(|n| n.set(n.get() + 1));
    sleepers.notify_one();
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
