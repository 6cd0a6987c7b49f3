//! The backend-agnostic transport API.
//!
//! Everything above this crate (server, clients, launcher) speaks only the
//! three traits defined here:
//!
//! * [`Transport`] — a named-endpoint rendezvous: `bind(name, hwm)` yields
//!   the receiving half of an endpoint, `connect(name)` a sending half.
//!   Names are plain strings (see [`crate::directory::names`] for the
//!   canonical Melissa layout); binding again under the same name
//!   *replaces* the endpoint (the server-restart path).
//! * [`Sender`] — the client half of one link, carrying the load-bearing
//!   high-water-mark contract: `send` buffers asynchronously below the HWM
//!   and blocks when the buffer is full, recording every blocked send and
//!   the nanoseconds spent blocked in [`LinkStats`] (the paper's Fig. 6
//!   backpressure telemetry).  `send_timeout` bounds the blocking so
//!   fault-tolerant senders notice a dead peer.  `send_batch` hands over
//!   a run of frames — a group's timestep for one server worker — under
//!   the same contract, frame for frame, at one hand-off's cost.
//! * [`Receiver`] — the server half: blocking, timeout-bounded and
//!   non-blocking receives with explicit disconnect errors, and
//!   `recv_batch` to take everything that is queued at once.
//!
//! Two backends implement the surface with identical semantics:
//! [`crate::registry::ChannelTransport`] (in-process bounded channels) and
//! [`crate::tcp::TcpTransport`] (real `std::net` sockets over loopback,
//! one writer/reader thread per connection feeding the same bounded HWM
//! queues).  [`TransportKind`] + [`make_transport`] select one at study
//! configuration time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::directory::names;
use crate::endpoint::{Frame, LinkStats};

/// Error returned when the peer side of a link has hung up.
///
/// Channel backend: the receiver was dropped.  TCP backend: the connection
/// is dead (peer closed, reset, or the local writer thread observed an I/O
/// error).  A TCP disconnect may surface one send *later* than in-process
/// (the writer thread discovers the broken socket asynchronously).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "endpoint disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Deadline send failure; returns the undelivered frame for retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendTimeoutError {
    /// The buffer stayed at the high-water mark until the deadline.
    Timeout(Frame),
    /// The peer is gone.
    Disconnected(Frame),
}

impl std::fmt::Display for SendTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => write!(f, "send timed out on a full buffer"),
            SendTimeoutError::Disconnected(_) => write!(f, "endpoint disconnected"),
        }
    }
}

impl std::error::Error for SendTimeoutError {}

/// Why [`Sender::send_batch`] stopped early.  The frames it did not
/// deliver are still in the caller's queue, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendBatchError {
    /// The buffer stayed at the high-water mark until a frame's deadline.
    Timeout,
    /// The peer is gone.
    Disconnected,
}

impl std::fmt::Display for SendBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendBatchError::Timeout => write!(f, "batch send timed out on a full buffer"),
            SendBatchError::Disconnected => write!(f, "endpoint disconnected"),
        }
    }
}

impl std::error::Error for SendBatchError {}

/// Deadline flush failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushError {
    /// The link could not confirm delivery before the deadline.
    Timeout,
    /// The peer is gone.
    Disconnected,
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlushError::Timeout => write!(f, "flush timed out"),
            FlushError::Disconnected => write!(f, "endpoint disconnected"),
        }
    }
}

impl std::error::Error for FlushError {}

/// Deadline receive failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline.
    Timeout,
    /// Empty and every sender is gone.
    Disconnected,
}

/// Non-blocking receive failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing buffered right now.
    Empty,
    /// Empty and every sender is gone.
    Disconnected,
}

/// Connection failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// No endpoint bound under that name (the server is not up yet, or it
    /// crashed and unbound).  Retryable: see [`Transport::connect_retry`].
    NotFound {
        /// The requested endpoint name.
        name: String,
    },
    /// The deployment directory does not know the name: nobody published
    /// it (a mis-scoped endpoint), or the publisher's liveness lease
    /// lapsed.  Carries the directory that was asked, so the failure
    /// names the looked-up key and where it was looked up instead of
    /// surfacing as a generic retry-exhausted timeout.
    NameNotFound {
        /// The requested endpoint name.
        name: String,
        /// The directory address the name was resolved against.
        directory: String,
    },
    /// The transport substrate failed (TCP dial/handshake error).
    Io {
        /// Human-readable description.
        detail: String,
    },
    /// A service refused the connection or submission because a tenant
    /// quota is exhausted (the multi-tenant daemon's admission controller
    /// rejecting over blocking).  Not retryable until the tenant's usage
    /// drops.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
        /// Which quota: `"queue"`, `"studies"`, `"groups"` or `"units"`.
        resource: String,
    },
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::NotFound { name } => write!(f, "no endpoint bound as '{name}'"),
            ConnectError::NameNotFound { name, directory } => {
                write!(f, "name '{name}' not published in directory {directory}")
            }
            ConnectError::Io { detail } => write!(f, "transport error: {detail}"),
            ConnectError::QuotaExceeded { tenant, resource } => {
                write!(f, "tenant '{tenant}' exceeded its {resource} quota")
            }
        }
    }
}

impl std::error::Error for ConnectError {}

/// A point-in-time copy of one link's [`LinkStats`] counters, and the unit
/// of the study-level backpressure rollup ([`Transport::link_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStatsSnapshot {
    /// Frames sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Bytes put on the wire for those frames (framing overhead and
    /// retransmissions included, compression applied).  Equals
    /// [`bytes`](Self::bytes) on links without a wire stage (in-process
    /// channels), so `bytes / wire_bytes` is always the link's effective
    /// compression ratio.
    pub wire_bytes: u64,
    /// Sends that found the buffer at the high-water mark and blocked.
    pub blocked_sends: u64,
    /// Total nanoseconds spent blocked in sends.
    pub blocked_nanos: u64,
}

impl LinkStatsSnapshot {
    /// Snapshots shared link counters.
    pub fn of(stats: &LinkStats) -> Self {
        Self {
            messages: stats.messages_sent(),
            bytes: stats.bytes_sent(),
            wire_bytes: stats.wire_bytes_sent(),
            blocked_sends: stats.sends_blocked(),
            blocked_nanos: stats.blocked_time().as_nanos() as u64,
        }
    }

    /// Total time spent blocked on a full buffer.
    pub fn blocked_time(&self) -> Duration {
        Duration::from_nanos(self.blocked_nanos)
    }

    /// Folds another snapshot into this one (rollup accumulation).
    pub fn absorb(&mut self, other: &LinkStatsSnapshot) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.wire_bytes += other.wire_bytes;
        self.blocked_sends += other.blocked_sends;
        self.blocked_nanos += other.blocked_nanos;
    }
}

/// `t + d`, saturating: a duration too long for the clock (a wait "until
/// a frame", a limit set to "never") means a deadline a year away, not a
/// panic.
pub fn instant_after(t: Instant, d: Duration) -> Instant {
    t.checked_add(d)
        .unwrap_or_else(|| t + Duration::from_secs(365 * 24 * 3600))
}

/// Sending half of one HWM-buffered link (ZeroMQ blocking-send semantics).
pub trait Sender: std::fmt::Debug + Send + Sync {
    /// Sends a frame, buffering asynchronously below the high-water mark
    /// and blocking (with [`LinkStats`] time accounting) when the buffer is
    /// full.
    fn send(&self, frame: Frame) -> Result<(), Disconnected>;

    /// Sends with a deadline; returns the frame if the buffer stayed full.
    /// Fault-tolerant senders use this to notice a dead server.
    fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError>;

    /// Sends `frames` front to back — by contract **the same thing as one
    /// [`send_timeout`](Self::send_timeout) per frame**, which is what the
    /// provided body does:
    ///
    /// * *order and framing* — the frames arrive as that many frames, in
    ///   queue order, after everything sent on this link before;
    /// * *high-water mark* — a frame that finds the buffer full blocks
    ///   where it stands, mid-batch, until the receiver makes room; the
    ///   frames before it are already on their way;
    /// * *deadline* — `timeout` bounds the wait of each frame that blocks,
    ///   not the batch: the call fails only if the link accepted nothing
    ///   for a whole `timeout`;
    /// * *statistics* — [`LinkStats`] counts `messages` and `bytes` per
    ///   delivered frame and one `blocked_sends` (with its `blocked_nanos`)
    ///   per frame that found the buffer full, so a study's backpressure
    ///   telemetry reads the same however its frames were grouped;
    /// * *failure* — on `Err` the undelivered tail, starting with the
    ///   frame that failed, is left in `frames`.
    ///
    /// Backends override it to pay the hand-off (queue lock, receiver
    /// wake-up) once per batch instead of once per frame; a wrapper that
    /// does not simply sees the frames one by one.
    fn send_batch(
        &self,
        frames: &mut VecDeque<Frame>,
        timeout: Duration,
    ) -> Result<(), SendBatchError> {
        while let Some(frame) = frames.pop_front() {
            let (frame, why) = match self.send_timeout(frame, timeout) {
                Ok(()) => continue,
                Err(SendTimeoutError::Timeout(frame)) => (frame, SendBatchError::Timeout),
                Err(SendTimeoutError::Disconnected(frame)) => (frame, SendBatchError::Disconnected),
            };
            frames.push_front(frame);
            return Err(why);
        }
        Ok(())
    }

    /// Delivery barrier (ZeroMQ "linger" semantics): blocks until every
    /// frame previously sent on this link sits in the receiving
    /// endpoint's queue, where per-link FIFO order is pinned.  In-process
    /// links deliver synchronously, so this returns immediately; TCP
    /// links round-trip an in-band marker through the writer thread, the
    /// socket and the acceptor.  A group client flushes its data links
    /// before reporting *Finalize*, which is what makes a sequential
    /// study's ingest order — and therefore its statistics — bit-identical
    /// across backends.
    fn flush(&self, timeout: Duration) -> Result<(), FlushError>;

    /// Shared statistics handle (every clone of this link reports here).
    fn stats(&self) -> Arc<LinkStats>;

    /// Frames currently buffered on this side of the link (approximate).
    fn queued(&self) -> usize;

    /// Clones the sender as a boxed trait object (same link, same stats).
    fn clone_box(&self) -> BoxSender;
}

/// A backend-erased sender.
pub type BoxSender = Box<dyn Sender>;

impl Clone for BoxSender {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Receiving half of one endpoint.
pub trait Receiver: std::fmt::Debug + Send {
    /// Blocks until a frame arrives or every sender is gone.
    fn recv(&self) -> Result<Frame, Disconnected>;

    /// Blocks until a frame arrives, disconnect, or the timeout elapses.
    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvTimeoutError>;

    /// Pops without blocking.
    fn try_recv(&self) -> Result<Frame, TryRecvError>;

    /// Waits up to `timeout` for a frame, then appends it and whatever
    /// else is already queued — at most `max` frames in all — to `into`,
    /// oldest first; returns how many.  The same frames in the same order
    /// as a [`recv_timeout`](Self::recv_timeout) followed by
    /// [`try_recv`](Self::try_recv)s (the provided body); backends
    /// override it to take the run under one queue lock.
    fn recv_batch(
        &self,
        into: &mut Vec<Frame>,
        max: usize,
        timeout: Duration,
    ) -> Result<usize, RecvTimeoutError> {
        if max == 0 {
            return Ok(0);
        }
        into.push(self.recv_timeout(timeout)?);
        let mut taken = 1;
        while taken < max {
            match self.try_recv() {
                Ok(frame) => into.push(frame),
                Err(_) => break,
            }
            taken += 1;
        }
        Ok(taken)
    }

    /// Frames currently buffered (approximate).
    fn len(&self) -> usize;

    /// True when nothing is buffered (approximate).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A backend-erased receiver.
pub type BoxReceiver = Box<dyn Receiver>;

/// A named-endpoint messaging backend.
///
/// One `Transport` instance is one deployment's rendezvous: the server
/// binds its endpoints, simulation groups connect to them by name whenever
/// the scheduler starts them (the paper's *dynamic connections*,
/// Section 4.1.3).  Implementations are shared behind `Arc<dyn Transport>`
/// and must be safe to use from every thread of the deployment.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// Binds (or **re**binds) an endpoint under `name` with the given
    /// high-water mark, returning its receiving half.  Rebinding replaces
    /// the endpoint for *new* connections; links into the old endpoint
    /// keep working until its receiver is dropped (the restart path: a
    /// recovered server re-binds its names).
    fn bind(&self, name: &str, hwm: usize) -> BoxReceiver;

    /// Connects to a bound endpoint.  Fails fast with
    /// [`ConnectError::NotFound`] when nothing is bound under `name`;
    /// use [`Transport::connect_retry`] for connect-before-bind
    /// rendezvous.
    fn connect(&self, name: &str) -> Result<BoxSender, ConnectError>;

    /// Removes an endpoint: subsequent `connect`s fail, existing links
    /// keep working until the receiver is dropped.
    fn unbind(&self, name: &str);

    /// Names currently bound (sorted, for reports).
    fn bound_names(&self) -> Vec<String>;

    /// Per-endpoint rollup of link statistics, keyed by endpoint name and
    /// sorted: every frame sent *toward* the named endpoint is counted
    /// exactly once, whichever side created the link.  The channel backend
    /// snapshots the single per-endpoint [`LinkStats`] all sender clones
    /// share; the TCP backend sums the per-connection send-side stats.
    fn link_stats(&self) -> Vec<(String, LinkStatsSnapshot)>;

    /// Short backend identifier for reports (e.g. `"in-process"`,
    /// `"tcp"`).
    fn backend_name(&self) -> &'static str;

    /// Links this transport's senders re-established after a connection
    /// loss (the multi-node self-healing counter).  Backends without
    /// reconnection report `0`.
    fn reconnects(&self) -> u64 {
        0
    }

    /// This node's socket-call and wire-codec counters so far (see
    /// [`WireIoSnapshot`](crate::tcp::WireIoSnapshot)).  Backends without
    /// a wire report zeros.
    fn wire_io(&self) -> crate::tcp::WireIoSnapshot {
        Default::default()
    }

    /// Retires a whole endpoint scope once nothing binds or sends under
    /// `scope/` any more (a hosted study that ended): every endpoint
    /// still bound under `scope/` is unbound, and a backend that keeps
    /// per-name history for [`link_stats`](Self::link_stats) from then on
    /// reports what was counted under `scope/<rest>` summed into
    /// `retired/<rest>`.  A long-lived service's endpoint table and rollup
    /// are so bounded by the shape of its studies instead of growing with
    /// their number, while its totals still count every frame once.  The
    /// default keeps every name (right for a transport that lives as long
    /// as one study).
    fn retire_scope(&self, _scope: &str) {}

    /// Connect-before-bind rendezvous: polls [`Transport::connect`] with a
    /// bounded retry loop until the endpoint appears or `timeout` elapses.
    /// This is what makes simulation groups independent jobs — they can be
    /// scheduled before (or while) the server binds its endpoints.
    fn connect_retry(&self, name: &str, timeout: Duration) -> Result<BoxSender, ConnectError> {
        let deadline = instant_after(Instant::now(), timeout);
        let mut backoff = Duration::from_millis(1);
        loop {
            match self.connect(name) {
                Ok(tx) => return Ok(tx),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(Duration::from_millis(20));
                }
            }
        }
    }
}

/// Why a [`round_trip`] came back without a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundTripError {
    /// The service endpoint was not reachable within the timeout.
    Connect(ConnectError),
    /// The service endpoint went away before it took the request.
    Send(Disconnected),
    /// No reply arrived within the reply timeout.
    Reply(RecvTimeoutError),
}

impl std::fmt::Display for RoundTripError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundTripError::Connect(e) => write!(f, "connecting: {e}"),
            RoundTripError::Send(e) => write!(f, "sending the request: {e}"),
            RoundTripError::Reply(e) => write!(f, "waiting for the reply: {e:?}"),
        }
    }
}

impl std::error::Error for RoundTripError {}

static REPLY_NONCE: AtomicU64 = AtomicU64::new(0);

/// One request/reply exchange with the service bound at `endpoint`, the
/// shape of every control and scrape RPC: binds a one-shot reply
/// endpoint (`reply/<pid>/<nonce>`, a name no rollup keeps an entry
/// for), connects to
/// `endpoint` for up to `timeout` ([`Transport::connect_retry`]), sends
/// the frame `request` builds around the reply endpoint's name, and waits
/// up to `reply_timeout` for one frame.  The reply endpoint is unbound on
/// every way out.
pub fn round_trip(
    transport: &dyn Transport,
    endpoint: &str,
    request: impl FnOnce(&str) -> Frame,
    timeout: Duration,
    reply_timeout: Duration,
) -> Result<Frame, RoundTripError> {
    let nonce = REPLY_NONCE.fetch_add(1, Ordering::Relaxed);
    let reply_to = names::rpc_reply(std::process::id(), nonce);
    let rx = transport.bind(&reply_to, 8);
    let result = transport
        .connect_retry(endpoint, timeout)
        .map_err(RoundTripError::Connect)
        .and_then(|tx| tx.send(request(&reply_to)).map_err(RoundTripError::Send))
        .and_then(|()| {
            rx.recv_timeout(reply_timeout)
                .map_err(RoundTripError::Reply)
        });
    transport.unbind(&reply_to);
    result
}

/// Backend selection for a study deployment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process bounded channels (single-process deployments; the
    /// fastest path and the reference semantics).
    #[default]
    InProcess,
    /// Real TCP sockets over a single-node loopback listener via
    /// [`crate::tcp::TcpTransport`] (the multi-process data path on one
    /// machine; names resolve in-process).
    Tcp,
    /// One node of a **multi-node** TCP deployment: a listener bound on
    /// `host:port`, every bound endpoint published to — and every
    /// connection resolved through — the deployment's directory service
    /// ([`crate::directory`]), with self-healing links.
    TcpNode {
        /// Listener bind host (e.g. `"127.0.0.1"`, `"0.0.0.0"`).
        host: String,
        /// Listener port (0 = ephemeral).
        port: u16,
        /// Host advertised to the directory; `None` advertises the bind
        /// host (set it when binding a wildcard address).
        advertise: Option<String>,
        /// Directory address (`host:port`); `None` reads the
        /// [`MELISSA_DIRECTORY`](crate::directory::DIRECTORY_ENV)
        /// environment variable seeded by the launcher.
        directory: Option<String>,
    },
}

crate::wire_enum!(TransportKind {
    0 => InProcess,
    1 => Tcp,
    2 => TcpNode { host, port, advertise, directory },
});

impl TransportKind {
    /// A multi-node TCP node with loopback defaults: ephemeral listener
    /// on `127.0.0.1`, directory from the environment unless given.
    pub fn tcp_node(directory: Option<String>) -> Self {
        TransportKind::TcpNode {
            host: "127.0.0.1".to_string(),
            port: 0,
            advertise: None,
            directory,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::InProcess => write!(f, "in-process"),
            TransportKind::Tcp => write!(f, "tcp"),
            TransportKind::TcpNode { .. } => write!(f, "tcp-node"),
        }
    }
}

/// Instantiates the selected backend.
///
/// # Panics
/// Panics if the TCP backend cannot bind its listener (bad host, no
/// ephemeral ports left) or a multi-node transport cannot reach its
/// directory — unrecoverable for a study anyway.
pub fn make_transport(kind: TransportKind) -> Arc<dyn Transport> {
    make_transport_with(kind, crate::compress::WireCompression::Off)
}

/// Instantiates the selected backend with a wire-compression mode for
/// its outbound links (the study launcher's entry point: it forwards
/// `StudyConfig::wire_compression` here).  The in-process backend has no
/// wire, so `compression` is a no-op there — which is exactly what makes
/// a compressed study comparable bit-for-bit against an in-process run.
///
/// # Panics
/// Same conditions as [`make_transport`].
pub fn make_transport_with(
    kind: TransportKind,
    compression: crate::compress::WireCompression,
) -> Arc<dyn Transport> {
    match kind {
        TransportKind::InProcess => Arc::new(crate::registry::ChannelTransport::new()),
        TransportKind::Tcp => {
            let mut config = crate::tcp::TcpTransportConfig::local();
            config.compression = compression;
            Arc::new(
                crate::tcp::TcpTransport::with_config(config)
                    .expect("binding the TCP loopback listener failed"),
            )
        }
        TransportKind::TcpNode {
            host,
            port,
            advertise,
            directory,
        } => {
            let directory = directory.or_else(crate::directory::directory_from_env);
            let mut config = match &directory {
                Some(dir) => crate::tcp::TcpTransportConfig::node(dir),
                // No directory anywhere: degenerate single-node node
                // (useful for tests; resolution stays in-process).
                None => crate::tcp::TcpTransportConfig::local(),
            };
            config.bind = format!("{host}:{port}");
            config.advertise_host = advertise;
            config.compression = compression;
            Arc::new(
                crate::tcp::TcpTransport::with_config(config)
                    .expect("binding the node listener / reaching the directory failed"),
            )
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::directory::names;

    #[test]
    fn snapshot_absorb_accumulates() {
        let mut a = LinkStatsSnapshot {
            messages: 1,
            bytes: 10,
            wire_bytes: 6,
            blocked_sends: 2,
            blocked_nanos: 500,
        };
        let b = LinkStatsSnapshot {
            messages: 3,
            bytes: 30,
            wire_bytes: 14,
            blocked_sends: 1,
            blocked_nanos: 1500,
        };
        a.absorb(&b);
        assert_eq!(a.messages, 4);
        assert_eq!(a.bytes, 40);
        assert_eq!(a.wire_bytes, 20);
        assert_eq!(a.blocked_sends, 3);
        assert_eq!(a.blocked_time(), Duration::from_nanos(2000));
    }

    #[test]
    fn untracked_links_report_wire_bytes_equal_to_payload_bytes() {
        // In-process links have no wire: the snapshot must fall back to
        // payload bytes so the compression ratio reads 1.0, not ∞.
        let (tx, _rx) = crate::endpoint::channel(4);
        tx.send(bytes::Bytes::from_static(b"abcde")).unwrap();
        let snap = LinkStatsSnapshot::of(tx.stats());
        assert_eq!(snap.bytes, 5);
        assert_eq!(snap.wire_bytes, 5);
    }

    #[test]
    fn transport_kind_display_names_are_stable() {
        assert_eq!(TransportKind::InProcess.to_string(), "in-process");
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::tcp_node(None).to_string(), "tcp-node");
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
    }

    #[test]
    fn connect_retry_gives_up_after_the_deadline() {
        let t = crate::registry::ChannelTransport::new();
        let started = Instant::now();
        let err = t
            .connect_retry("never-bound", Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, ConnectError::NotFound { .. }));
        assert!(started.elapsed() >= Duration::from_millis(50));
    }

    /// One [`round_trip`] of each outcome on `t` — answered (the request
    /// builder posts the reply ahead of the request), unanswered, and
    /// unreached (nothing bound at `"absent"`) — each leaving no reply
    /// endpoint bound.  The first two send their request to `"svc"`.
    pub(crate) fn round_trip_each_outcome(t: &dyn Transport) {
        let _svc = t.bind("svc", 8);
        let ask = |endpoint: &str, answered: bool| {
            let request = |reply_to: &str| {
                if answered {
                    t.connect(reply_to)
                        .unwrap()
                        .send(Frame::from_static(b"ok"))
                        .unwrap();
                }
                Frame::copy_from_slice(reply_to.as_bytes())
            };
            let timeout = Duration::from_millis(5);
            let reply = round_trip(t, endpoint, request, timeout, timeout);
            let left = t
                .bound_names()
                .into_iter()
                .find(|name| names::is_reply(name));
            assert_eq!(left, None, "{endpoint}: reply endpoint left bound");
            reply
        };
        assert_eq!(ask("svc", true), Ok(Frame::from_static(b"ok")));
        let unanswered = Err(RoundTripError::Reply(RecvTimeoutError::Timeout));
        assert_eq!(ask("svc", false), unanswered);
        let unreached = ask("absent", true).unwrap_err();
        assert!(matches!(
            unreached,
            RoundTripError::Connect(ConnectError::NotFound { .. })
        ));
    }
}
