//! The TCP backend: real `std::net` sockets behind the [`Transport`]
//! trait, from single-process loopback to multi-node deployments.
//!
//! This is the paper's actual deployment shape — ZeroMQ over the cluster
//! interconnect — rebuilt on the standard library (the container is
//! offline; no socket crate is available, and none is needed).  The
//! backend reproduces the in-process backend's semantics exactly:
//!
//! * **Wire framing** — every frame crosses the socket as a little-endian
//!   `u32` length prefix followed by the payload bytes (the payload itself
//!   is already a [`codec`](crate::codec)-encoded protocol message).  The
//!   connection handshake is two declared [`Wire`] messages: the client
//!   sends a [`Hello`] — endpoint name, 64-bit **link id** and
//!   **wire-compression proposal** — and the acceptor answers
//!   [`HelloReply::Accepted`] with the endpoint's high-water mark, the
//!   link's **resume cursor** (see below) and the compression it
//!   accepted, or [`HelloReply::NotFound`].  A hello that does not decode
//!   exactly closes the connection.
//! * **Burst-batched writes** — the writer thread takes every frame
//!   queued at a wakeup in one go and gathers them into one **vectored**
//!   write (`writev` over the encoded frames in place, bounded by a 1 MiB
//!   budget), instead of one write-plus-flush per frame: streamed traffic
//!   amortises syscalls across the whole burst *without re-copying
//!   payload bytes into a staging buffer*, which is what makes the
//!   streamed path faster than lone roundtrips rather than slower.
//! * **Block-batched reads** — the acceptor reads the socket in blocks,
//!   carves every complete frame out of a block as a zero-copy window
//!   onto it and pushes the run into the ingest queue as one batch (see
//!   `BlockReader`): a timestep handed over with
//!   [`Sender::send_batch`] costs one queue hand-off, one `writev`, a
//!   couple of `recv`s and one ingest push — each waking its consumer at
//!   most once — where frame-by-frame traffic pays all of that per frame.
//! * **In-frame payload compression** — when negotiated
//!   ([`TcpTransportConfig::compression`]), the writer runs each data
//!   frame payload through the lossless [`compress`](crate::compress)
//!   codec and marks compressed frames with the top length-prefix bit;
//!   the acceptor restores the original bytes **before** ingest.
//!   Framing, flush barriers, cursor acks and exactly-once resume are
//!   oblivious to compression (it lives strictly inside the payload),
//!   and the retransmit buffer stores wire encodings, so a healed link
//!   re-sends compressed frames byte-identical, exactly once.
//! * **HWM backpressure** — each link runs through *two* bounded HWM
//!   queues, one per side, mirroring ZeroMQ's "communications only become
//!   blocking when both buffers are full": the sender buffers into a
//!   bounded [`channel`] drained by a dedicated **writer thread**; the
//!   acceptor's **reader thread** pushes into the bound endpoint's bounded
//!   ingest queue.  When the receiver stops draining, the ingest queue
//!   fills, the reader stops reading, TCP flow control fills the socket
//!   buffers, the writer blocks, the send queue fills — and `send` blocks
//!   with the same [`LinkStats`] time accounting as in-process.
//! * **Connect-before-bind** — a name that does not resolve (or resolves
//!   to a node where the endpoint is not bound) fails with a retryable
//!   error; [`Transport::connect_retry`] turns that into a bounded-retry
//!   rendezvous, so simulation groups can be scheduled before the server
//!   finishes binding.
//! * **Rebind on restart** — binding a name again swaps the registry
//!   entry: new connections reach the new queue, old connections keep
//!   feeding the old queue until its receiver is dropped.
//!
//! ## One listener per node, names resolved through the directory
//!
//! One [`TcpTransport`] is one **node**: a single listener serving every
//! endpoint the node binds, with the endpoint *name* demultiplexed in the
//! connection handshake.  Name → `host:port` resolution:
//!
//! * [`TcpTransport::new`] (single-node) answers from its own endpoint
//!   table — a bound name maps to the node's own loopback listener, any
//!   other name is [`ConnectError::NotFound`], retryable like any
//!   connect-before-bind;
//! * a transport built with [`TcpTransportConfig::node`] publishes every
//!   `bind` as `scoped-name → advertised host:port` to the deployment's
//!   [`DirectoryServer`](crate::directory::DirectoryServer) under a
//!   liveness lease (renewed by a background heartbeat), and resolves
//!   every `connect` through it — so server shards, simulation groups and
//!   the launcher can live in different processes on different machines.
//!
//! ## Self-healing links (exactly-once resume)
//!
//! Established links survive real connection loss.  Every link carries a
//! process-unique **link id**; the receiving node keeps, per
//! `(endpoint, link id)`, an **ingest cursor** — how many data frames of
//! that link it has pushed into the endpoint's queue — and acknowledges
//! the cursor on a back channel (every few frames and on every flush
//! barrier).  The writer thread keeps every unacknowledged
//! frame; when the socket dies it re-resolves the name through the
//! directory, re-dials with **bounded exponential backoff**, re-handshakes
//! idempotently (the reply carries the receiver's cursor), retransmits
//! exactly the frames the receiver has not ingested, and re-arms any
//! outstanding flush barrier.  Result: a killed connection mid-study
//! delivers **every frame exactly once**, in order, and the
//! [`Sender::flush`] delivery barrier holds across the failure — which is
//! what keeps a seeded study's statistics bit-identical with and without
//! the fault.  A node with a directory heals a link for
//! [`RECONNECT_TIMEOUT`]; a single-node transport does not reconnect,
//! because its "connection loss" only ever means the peer endpoint is
//! gone for good.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::api::{
    instant_after, BoxReceiver, BoxSender, ConnectError, Disconnected, FlushError,
    LinkStatsSnapshot, RecvTimeoutError, SendBatchError, SendTimeoutError, Sender, Transport,
};
use crate::codec::{read_frame, write_frame, Wire};
use crate::compress::{compress_into, decoded_len, decompress_into, PlaneScratch, WireCompression};
use crate::directory::{names, DirectoryClient};
use crate::endpoint::{channel, Frame, HwmSender, LinkStats};
use crate::registry::Ledger;
use crate::sync::{Condvar, Mutex};

/// Handshake frames (endpoint names) are small.
const MAX_HANDSHAKE_FRAME: usize = 64 * 1024;
/// Sanity cap on data frames (a corrupt length prefix must not OOM us).
const MAX_DATA_FRAME: usize = 1 << 30;
/// Handshake I/O deadline (a wedged peer must not hang connect/accept).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// The first frame on every connection: which endpoint the link feeds,
/// which link it is (the resume-cursor key) and the compression it
/// proposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The bound endpoint the link feeds.
    pub name: String,
    /// Process-unique link id.
    pub link_id: u64,
    /// Proposed wire compression.
    pub compression: WireCompression,
}

crate::wire_struct!(Hello {
    name,
    link_id,
    compression
});

/// The acceptor's answer to a [`Hello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HelloReply {
    /// The endpoint is bound: frames may flow.
    Accepted {
        /// The endpoint's high-water mark.
        hwm: u32,
        /// Data frames of this link already in the endpoint's queue.
        resume: u64,
        /// The compression the acceptor accepted.
        compression: WireCompression,
    },
    /// No such endpoint here (the client retries or gives up).
    NotFound,
}

crate::wire_enum!(HelloReply {
    0 => Accepted { hwm, resume, compression },
    1 => NotFound,
});

/// Wire-level flush barrier: a length prefix of `u32::MAX` (no payload)
/// asks the acceptor — who has by then pushed every earlier frame into
/// the ingest queue — to acknowledge its ingest cursor.
const FLUSH_REQUEST: u32 = u32::MAX;
/// Length-prefix flag bit marking a compressed frame payload (safe:
/// data-frame lengths are capped at [`MAX_DATA_FRAME`] `= 2^30`, and
/// [`FLUSH_REQUEST`] — the only other prefix with this bit — is checked
/// first).  The payload is then a [`crate::compress`] image, undone by
/// the acceptor before the frame enters the ingest queue.
const COMPRESSED_FLAG: u32 = 0x8000_0000;
/// Don't even attempt compression below this payload size: the codec's
/// 36-byte header cannot amortise and the attempt is wasted work.
const MIN_COMPRESS_LEN: usize = 64;
/// Burst budget of the writer thread: it gathers queued frames into a
/// single **vectored** write per wakeup (one `writev` over the encoded
/// frames in place, instead of one `write` per frame), cutting per-frame
/// syscall and flush overhead on streamed traffic without an extra copy
/// into a staging buffer.  The budget bounds how many bytes one burst
/// may reference; a frame larger than the budget still forms its own
/// one-frame burst.
const BURST_BUDGET: usize = 1 << 20;
/// Size of an acceptor's read block (see [`BlockReader`]): what a
/// loopback socket's receive buffer holds at its default size, so one
/// `recv` takes everything the kernel has queued — a group's timestep for
/// one server worker, a few hundred KiB in the tube-bundle study, arrives
/// in two or three.  A longer frame gets a block of its own size.
const READ_BLOCK: usize = 128 * 1024;
/// Wire image of a flush barrier (see [`FLUSH_REQUEST`]).
const FLUSH_WIRE: [u8; 4] = FLUSH_REQUEST.to_le_bytes();
/// Back-channel cursor acknowledgement: one tag byte plus the cursor as
/// a little-endian `u64`.
const ACK_TAG: u8 = 0xA5;
/// The acceptor volunteers a cursor ack every this many data frames, so
/// the sender's retransmit buffer stays bounded without per-frame acks.
const ACK_INTERVAL: u64 = 32;
/// Reconnect backoff ceiling (the floor is 5 ms, doubling per attempt).
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_millis(250);
/// How long a broken established link of a node with a directory keeps
/// re-resolving, re-dialing and resuming before declaring itself dead.
pub const RECONNECT_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a dark link's ingest cursor survives before the resume GC
/// sweeps it.  Must comfortably exceed any peer's [`RECONNECT_TIMEOUT`] —
/// a client that comes back later than this resumes from cursor 0 and
/// would re-deliver its unacknowledged tail (its own reconnect deadline
/// kills the link long before that can happen).
const RESUME_RETENTION: Duration = Duration::from_secs(300);

/// In-band queue marker for a flush request: a process-wide singleton
/// whose clones share one backing allocation, recognised by *pointer
/// identity* — client frames can never collide with it, whatever their
/// content.
fn flush_marker() -> Frame {
    static MARKER: std::sync::OnceLock<Frame> = std::sync::OnceLock::new();
    MARKER
        .get_or_init(|| Bytes::from_static(b"\0melissa-flush\0"))
        .clone()
}

fn is_flush_marker(frame: &Frame) -> bool {
    let marker = flush_marker();
    frame.len() == marker.len() && frame.as_ptr() == marker.as_ptr()
}

/// Configuration of one node's TCP transport.
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// Listener bind address, `host:port` (port 0 = ephemeral).
    pub bind: String,
    /// Host published to the directory (defaults to the bind host — set
    /// it when the node binds a wildcard or sits behind another address).
    pub advertise_host: Option<String>,
    /// Deployment directory address (`host:port`); `None` resolves every
    /// name from the node's own endpoint table (single-node semantics: no
    /// reconnection, a broken link *is* a dead peer).  With a directory,
    /// links self-heal for [`RECONNECT_TIMEOUT`].
    pub directory: Option<String>,
    /// Liveness-lease renewal period toward a remote directory.
    pub lease_renew: Duration,
    /// Wire compression this node proposes for its outbound links,
    /// negotiated per link at handshake (the acceptor echoes the mode it
    /// accepts).  Compression happens strictly inside the frame payload:
    /// length framing, flush barriers, cursor acks and exactly-once
    /// resume are oblivious to it, and the acceptor decompresses before
    /// ingest so receivers always see the original payload bytes.
    pub compression: WireCompression,
}

impl TcpTransportConfig {
    /// Single-node loopback configuration (the [`TcpTransport::new`]
    /// defaults): ephemeral loopback listener, in-process resolution, no
    /// reconnection.
    pub fn local() -> Self {
        Self {
            bind: "127.0.0.1:0".to_string(),
            advertise_host: None,
            directory: None,
            lease_renew: Duration::from_secs(2),
            compression: WireCompression::Off,
        }
    }

    /// Multi-node configuration: loopback-bound ephemeral listener (set
    /// [`bind`](Self::bind)/[`advertise_host`](Self::advertise_host) for
    /// a real interface), names published to and resolved through the
    /// directory at `directory`, links self-heal for [`RECONNECT_TIMEOUT`].
    pub fn node(directory: &str) -> Self {
        Self {
            bind: "127.0.0.1:0".to_string(),
            advertise_host: None,
            directory: Some(directory.to_string()),
            lease_renew: Duration::from_secs(2),
            compression: WireCompression::Off,
        }
    }
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        Self::local()
    }
}

/// Per-link ingest cursor on the receiving node, shared by every
/// connection generation of one `(endpoint, link id)`.
#[derive(Debug, Default)]
struct ResumeSlot {
    /// Bumped by each (re-)handshake of the link; a serving thread whose
    /// generation is stale has been *fenced* by a newer connection and
    /// must stop without ingesting further frames.
    generation: AtomicU64,
    /// Data frames of this link pushed into the ingest queue, guarded so
    /// a re-handshake reads a cursor no in-flight push can outrun (the
    /// push happens while the lock is held).
    ingested: Mutex<u64>,
    /// When the link went dark (its last serving thread exited with no
    /// successor); `None` while a connection serves it.  Slots dark for
    /// longer than [`RESUME_RETENTION`] are swept at the endpoint's next
    /// handshake, so the resume map cannot grow with every link an
    /// elastic endpoint ever served.
    retired_at: Mutex<Option<Instant>>,
}

struct Endpoint {
    ingest: HwmSender,
    hwm: u32,
    /// Ingest cursors per link id (exactly-once resume).
    resume: Mutex<HashMap<u64, Arc<ResumeSlot>>>,
}

/// Socket calls and the data frames they carried, and what the wire
/// codec did, summed over every link of one node (see
/// [`TcpTransport::wire_io`]).
#[derive(Debug, Default)]
struct WireIo {
    writes: AtomicU64,
    frames_written: AtomicU64,
    reads: AtomicU64,
    frames_read: AtomicU64,
    codec_encode_nanos: AtomicU64,
    codec_decode_nanos: AtomicU64,
    codec_bytes_in: AtomicU64,
    codec_bytes_out: AtomicU64,
    codec_raw_frames: AtomicU64,
}

/// A point-in-time copy of one node's socket-call counters: how many
/// `writev`s its link writers and how many `recv`s its acceptors issued
/// for data, and how many data frames those carried — so frames per
/// system call, the figure burst writes and block reads exist to raise,
/// can be read off a live transport — and what the wire codec cost and
/// saved on the links that negotiated it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireIoSnapshot {
    /// Gathered writes issued by this node's link writers.
    pub writes: u64,
    /// Data frames those writes carried (retransmissions included).
    pub frames_written: u64,
    /// Socket reads issued by this node's acceptors.
    pub reads: u64,
    /// Data frames carved out of those reads.
    pub frames_read: u64,
    /// Time this node's link writers spent wire-encoding bursts on links
    /// that negotiated the codec.
    pub codec_encode_nanos: u64,
    /// Time this node's acceptors spent decoding compressed frames.
    pub codec_decode_nanos: u64,
    /// Payload bytes of the data frames sent on codec links: their
    /// `LinkStats` `bytes`.
    pub codec_bytes_in: u64,
    /// What those frames put on the wire behind their length prefixes —
    /// an image, or the payload itself: their `LinkStats` `wire_bytes`
    /// less four bytes a frame.
    pub codec_bytes_out: u64,
    /// How many of them went raw: too short to try, or not shrinking.
    pub codec_raw_frames: u64,
}

impl WireIoSnapshot {
    /// What was counted after `earlier` was taken.
    pub fn since(self, earlier: WireIoSnapshot) -> WireIoSnapshot {
        WireIoSnapshot {
            writes: self.writes - earlier.writes,
            frames_written: self.frames_written - earlier.frames_written,
            reads: self.reads - earlier.reads,
            frames_read: self.frames_read - earlier.frames_read,
            codec_encode_nanos: self.codec_encode_nanos - earlier.codec_encode_nanos,
            codec_decode_nanos: self.codec_decode_nanos - earlier.codec_decode_nanos,
            codec_bytes_in: self.codec_bytes_in - earlier.codec_bytes_in,
            codec_bytes_out: self.codec_bytes_out - earlier.codec_bytes_out,
            codec_raw_frames: self.codec_raw_frames - earlier.codec_raw_frames,
        }
    }
}

struct TcpInner {
    addr: SocketAddr,
    /// `host:port` published to the directory for every bound name.
    advertised: String,
    /// The deployment directory (`None` on a single node, which resolves
    /// from `endpoints`).
    directory: Option<Arc<DirectoryClient>>,
    endpoints: Mutex<HashMap<String, Endpoint>>,
    /// Send-side stats of the links whose sender or writer still lives,
    /// for the rollup.  Locked before `retired` where both are held.
    links: Mutex<Vec<(String, Arc<LinkStats>)>>,
    /// Stats of the links that are gone, folded once: per endpoint name
    /// ([`names::settled`]: one-shot reply links share `retired/reply`),
    /// and a retired scope's under `retired/…`.
    retired: Mutex<Ledger>,
    /// Live serving-side connections (endpoint name, token, stream) —
    /// the handle [`TcpTransport::sever_connections`] cuts.
    serving: Mutex<Vec<(String, u64, TcpStream)>>,
    /// Links re-established by this node's senders (shared with the
    /// writer threads, which can outlive the transport handle).
    reconnects: Arc<AtomicU64>,
    /// Wire compression proposed for every outbound link of this node.
    compression: WireCompression,
    /// Socket-call counters (shared with writer and serving threads).
    wire_io: Arc<WireIo>,
    shutdown: AtomicBool,
}

impl TcpInner {
    /// Lists a new link, and folds every listed link whose sender and
    /// writer are both gone into the ledger, so the list holds live links
    /// only — a long-lived node dials two links per control RPC (the
    /// request and its reply) — and the rollup's totals stay the same.
    fn list_link(&self, name: &str, stats: Arc<LinkStats>) {
        let mut links = self.links.lock();
        let mut ledger = self.retired.lock();
        // The list's handle is the last once both are gone.
        let gone = |(_, stats): &mut (String, Arc<LinkStats>)| Arc::strong_count(stats) == 1;
        for (name, stats) in links.extract_if(.., gone) {
            ledger.push(names::settled(&name), stats);
        }
        links.push((name.to_string(), stats));
    }
}

/// Real-socket [`Transport`]: one listener per node, endpoint demux in
/// the handshake, name resolution through the node's directory.
///
/// One instance is one node of a deployment.  Shared behind
/// `Arc<dyn Transport>`; dropping the last handle shuts the listener down
/// (established links drain and close as their endpoints drop).
pub struct TcpTransport {
    inner: Arc<TcpInner>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
    /// Dropping this stops the lease-renewal heartbeat.
    _lease_stop: Option<std::sync::mpsc::Sender<()>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addr", &self.inner.addr)
            .field("advertised", &self.inner.advertised)
            .field(
                "directory",
                &self.inner.directory.as_ref().map(|d| d.addr()),
            )
            .finish()
    }
}

impl TcpTransport {
    /// Binds a single-node loopback listener that resolves names from its
    /// own endpoint table, and starts the accept thread.
    pub fn new() -> std::io::Result<TcpTransport> {
        Self::with_config(TcpTransportConfig::local())
    }

    /// Builds a node from an explicit configuration: binds the listener,
    /// connects the directory client (when configured), starts the accept
    /// thread and the lease-renewal heartbeat.
    pub fn with_config(config: TcpTransportConfig) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let advertise_host = match &config.advertise_host {
            Some(h) => h.clone(),
            None => match config.bind.rsplit_once(':') {
                Some((host, _)) if !host.is_empty() => host.to_string(),
                _ => addr.ip().to_string(),
            },
        };
        let advertised = format!("{advertise_host}:{}", addr.port());
        let directory = match &config.directory {
            Some(dir) => Some(Arc::new(DirectoryClient::connect(dir).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::ConnectionRefused, e.to_string())
            })?)),
            None => None,
        };
        let inner = Arc::new(TcpInner {
            addr,
            advertised,
            directory,
            endpoints: Mutex::new(HashMap::new()),
            links: Mutex::new(Vec::new()),
            retired: Mutex::new(Ledger::default()),
            serving: Mutex::new(Vec::new()),
            reconnects: Arc::new(AtomicU64::new(0)),
            compression: config.compression,
            wire_io: Arc::default(),
            shutdown: AtomicBool::new(false),
        });
        let accept_handle = spawn_accept_loop(listener, &inner, |i| &i.shutdown, serve_connection);
        // The lease heartbeat keeps every published name alive in the
        // remote directory — and, because renewals re-publish the
        // name→address pairs, repopulates a restarted directory.
        let lease_stop = inner.directory.clone().map(|dir| {
            let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
            let period = config.lease_renew;
            std::thread::spawn(move || loop {
                match stop_rx.recv_timeout(period) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        let _ = dir.renew();
                    }
                    _ => return,
                }
            });
            stop_tx
        });
        Ok(TcpTransport {
            inner,
            accept_handle: Mutex::new(Some(accept_handle)),
            _lease_stop: lease_stop,
        })
    }

    /// The listener's socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Links this node's senders re-established after a connection loss.
    pub fn reconnects(&self) -> u64 {
        self.inner.reconnects.load(Ordering::Relaxed)
    }

    /// This node's socket-call counters so far.
    pub fn wire_io(&self) -> WireIoSnapshot {
        let io = &self.inner.wire_io;
        WireIoSnapshot {
            writes: io.writes.load(Ordering::Relaxed),
            frames_written: io.frames_written.load(Ordering::Relaxed),
            reads: io.reads.load(Ordering::Relaxed),
            frames_read: io.frames_read.load(Ordering::Relaxed),
            codec_encode_nanos: io.codec_encode_nanos.load(Ordering::Relaxed),
            codec_decode_nanos: io.codec_decode_nanos.load(Ordering::Relaxed),
            codec_bytes_in: io.codec_bytes_in.load(Ordering::Relaxed),
            codec_bytes_out: io.codec_bytes_out.load(Ordering::Relaxed),
            codec_raw_frames: io.codec_raw_frames.load(Ordering::Relaxed),
        }
    }

    /// Severs every established serving-side connection into `name` —
    /// deterministic link-failure injection (a "network partition" at one
    /// endpoint) for reconnect tests and the multi-node example.  Returns
    /// the number of connections cut.
    pub fn sever_connections(&self, name: &str) -> usize {
        let serving = self.inner.serving.lock();
        let mut n = 0;
        for (ep, _, stream) in serving.iter() {
            if ep == name {
                let _ = stream.shutdown(Shutdown::Both);
                n += 1;
            }
        }
        n
    }

    /// Severs every established serving-side connection on this node.
    pub fn sever_all_connections(&self) -> usize {
        let serving = self.inner.serving.lock();
        for (_, _, stream) in serving.iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        serving.len()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread with a throwaway connection so it
        // observes the flag and exits (closing the listener).
        let _ = TcpStream::connect_timeout(&self.inner.addr, HANDSHAKE_TIMEOUT);
        if let Some(h) = self.accept_handle.lock().take() {
            let _ = h.join();
        }
    }
}

/// Process-unique link id: a time/pid nonce mixed per connection, so
/// links from different OS processes can never collide on one endpoint's
/// resume cursors.
fn next_link_id() -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    static NONCE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nonce = *NONCE.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        mix(t ^ ((std::process::id() as u64) << 32))
    });
    mix(nonce.wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed)))
}

impl Transport for TcpTransport {
    fn bind(&self, name: &str, hwm: usize) -> BoxReceiver {
        let (ingest, rx) = channel(hwm);
        self.inner.endpoints.lock().insert(
            name.to_string(),
            Endpoint {
                ingest,
                hwm: u32::try_from(hwm).unwrap_or(u32::MAX),
                resume: Mutex::new(HashMap::new()),
            },
        );
        // Publish scoped-name → this node.  Best effort: the lease
        // heartbeat re-publishes on every renewal, so a transient
        // directory outage only delays visibility.
        if let Some(directory) = &self.inner.directory {
            let _ = directory.publish(name, &self.inner.advertised);
        }
        Box::new(rx)
    }

    fn connect(&self, name: &str) -> Result<BoxSender, ConnectError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ConnectError::Io {
                detail: "transport is shut down".into(),
            });
        }
        let addr = match &self.inner.directory {
            // A single node: a name it has bound is its own listener; any
            // other is not bound yet (connect-before-bind, retryable).
            None if self.inner.endpoints.lock().contains_key(name) => self.inner.advertised.clone(),
            None => {
                return Err(ConnectError::NotFound {
                    name: name.to_string(),
                })
            }
            Some(directory) => match directory.resolve(name) {
                Ok(Some(addr)) => addr,
                // A directory that does not know the name: the caller
                // dialled a name nobody published (mis-scoped endpoint,
                // or the owner's lease lapsed).
                Ok(None) => {
                    return Err(ConnectError::NameNotFound {
                        name: name.to_string(),
                        directory: directory.addr().to_string(),
                    })
                }
                Err(e) => {
                    return Err(ConnectError::Io {
                        detail: format!("resolving '{name}': {e}"),
                    })
                }
            },
        };
        let link_id = next_link_id();
        let proposed = self.inner.compression;
        let (stream, hwm, _resume, accepted) = match dial_handshake(&addr, name, link_id, proposed)
        {
            Ok(ok) => ok,
            Err(DialError::NotFound) => {
                // Stale directory entry (endpoint unbound or node
                // restarting): retryable, like connect-before-bind.
                return Err(ConnectError::NotFound {
                    name: name.to_string(),
                });
            }
            Err(DialError::Io(detail)) => return Err(ConnectError::Io { detail }),
        };

        // The send-side bounded HWM queue, drained by the writer thread.
        let (tx, rx) = channel(hwm.max(1));
        // This link has a wire: from here on its snapshots report actual
        // socket bytes, not the payload fallback.
        tx.stats().mark_wire_tracked();
        self.inner.list_link(name, Arc::clone(tx.stats()));
        let shared = Arc::new(LinkShared::default());
        let core = Arc::new(LinkCore {
            name: name.to_string(),
            link_id,
            directory: self.inner.directory.clone(),
            reconnects: Arc::clone(&self.inner.reconnects),
            compression: proposed,
            wire_io: Arc::clone(&self.inner.wire_io),
        });
        let writer_shared = Arc::clone(&shared);
        let writer_stats = Arc::clone(tx.stats());
        std::thread::spawn(move || {
            writer_loop(stream, rx, writer_shared, core, writer_stats, accepted)
        });
        Ok(Box::new(TcpSender { queue: tx, shared }))
    }

    fn unbind(&self, name: &str) {
        self.inner.endpoints.lock().remove(name);
        if let Some(directory) = &self.inner.directory {
            let _ = directory.unpublish(name);
        }
    }

    fn bound_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.endpoints.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Sums the send-side stats of every connection per endpoint name
    /// (bound-but-never-connected endpoints report zeros).  A node only
    /// sees the links *it* opened — in a multi-node deployment each node
    /// reports its own outbound telemetry, summed by the launcher.
    fn link_stats(&self) -> Vec<(String, LinkStatsSnapshot)> {
        let bound: Vec<(String, LinkStatsSnapshot)> = self
            .inner
            .endpoints
            .lock()
            .keys()
            .map(|name| (name.clone(), LinkStatsSnapshot::default()))
            .collect();
        // Both locks at once: a link folded between the two reads would
        // count twice or not at all.
        let links = self.inner.links.lock();
        let live = links
            .iter()
            .map(|(name, stats)| (name.clone(), LinkStatsSnapshot::of(stats)));
        self.inner
            .retired
            .lock()
            .rollup(bound.into_iter().chain(live))
    }

    /// Unbinds (and unpublishes) every endpoint under `scope/`, and moves
    /// the stats of this node's links into it, and a zero entry for each
    /// name it unbinds, under `retired/…`.
    fn retire_scope(&self, scope: &str) {
        let mut unbound = Vec::new();
        self.inner.endpoints.lock().retain(|name, _| {
            let keep = names::retired(scope, name).is_none();
            if !keep {
                unbound.push(name.clone());
            }
            keep
        });
        if let Some(directory) = &self.inner.directory {
            for name in &unbound {
                let _ = directory.unpublish(name);
            }
        }
        // An unbound name keeps its rollup entry under `retired/…`, links
        // or not, as it had one while bound.
        let unbound = unbound.into_iter().map(|name| (name, Arc::default()));
        let mut links = self.inner.links.lock();
        let in_scope = links.extract_if(.., |(name, _)| names::retired(scope, name).is_some());
        self.inner
            .retired
            .lock()
            .retire_scope(scope, unbound.chain(in_scope));
    }

    fn backend_name(&self) -> &'static str {
        if self.inner.directory.is_some() {
            "tcp-node"
        } else {
            "tcp"
        }
    }

    fn reconnects(&self) -> u64 {
        TcpTransport::reconnects(self)
    }

    fn wire_io(&self) -> WireIoSnapshot {
        TcpTransport::wire_io(self)
    }
}

/// Everything a writer thread needs to re-establish its link.
struct LinkCore {
    name: String,
    link_id: u64,
    /// Where the link re-resolves its name; `None` (a single node)
    /// disables reconnection.
    directory: Option<Arc<DirectoryClient>>,
    /// The owning transport's reconnect counter.
    reconnects: Arc<AtomicU64>,
    /// Compression this link proposes on every (re-)handshake.
    compression: WireCompression,
    /// The owning transport's socket-call counters.
    wire_io: Arc<WireIo>,
}

/// Progress state shared by one link's sender clones, its writer thread
/// and the per-connection ack readers.
#[derive(Debug, Default)]
struct LinkShared {
    /// Serialises flush-epoch assignment with marker enqueueing, so epoch
    /// order equals queue order even with concurrent flushers.
    enqueue: Mutex<u64>,
    progress: Mutex<ProgressState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct ProgressState {
    /// Receiver-acknowledged ingest cursor (monotonic across reconnects).
    acked: u64,
    /// Highest flush epoch whose barrier has been confirmed.
    flush_done: u64,
    /// Outstanding flush barriers: `(epoch, data-seq target)`, both
    /// nondecreasing (markers are dequeued in enqueue order).
    pending_flush: VecDeque<(u64, u64)>,
    /// Connection generation (bumped per (re)connect; stale ack readers
    /// cannot mark a newer connection broken).
    conn_gen: u64,
    /// The current connection broke; the writer should heal or die.
    broken: bool,
    /// The link is permanently dead.
    dead: bool,
}

impl LinkShared {
    /// Receiver acked its cursor: prune satisfied flush barriers.
    fn absorb_ack(&self, count: u64) {
        let mut p = self.progress.lock();
        p.acked = p.acked.max(count);
        while let Some(&(epoch, target)) = p.pending_flush.front() {
            if target <= p.acked {
                p.pending_flush.pop_front();
                p.flush_done = p.flush_done.max(epoch);
            } else {
                break;
            }
        }
        self.cv.notify_all();
    }

    /// Writer side: a flush marker with `target` data frames before it.
    fn push_pending(&self, epoch: u64, target: u64) {
        let mut p = self.progress.lock();
        if target <= p.acked {
            p.flush_done = p.flush_done.max(epoch);
        } else {
            p.pending_flush.push_back((epoch, target));
        }
        self.cv.notify_all();
    }

    fn has_pending(&self) -> bool {
        !self.progress.lock().pending_flush.is_empty()
    }

    fn acked(&self) -> u64 {
        self.progress.lock().acked
    }

    /// Registers a new connection generation and clears the broken flag.
    fn new_conn(&self) -> u64 {
        let mut p = self.progress.lock();
        p.conn_gen += 1;
        p.broken = false;
        p.conn_gen
    }

    /// Ack-reader side: connection `gen` died.
    fn mark_broken(&self, gen: u64) {
        let mut p = self.progress.lock();
        if p.conn_gen == gen {
            p.broken = true;
        }
        self.cv.notify_all();
    }

    fn is_broken(&self) -> bool {
        self.progress.lock().broken
    }

    /// Writer side: the link is dead for good; fail all waiting flushes.
    fn mark_dead(&self) {
        self.progress.lock().dead = true;
        self.cv.notify_all();
    }
}

/// Sending half of one TCP link: a bounded HWM queue whose drain side is
/// the link's writer thread.  Clones share the queue and its stats,
/// exactly like in-process sender clones.
#[derive(Debug, Clone)]
struct TcpSender {
    queue: HwmSender,
    shared: Arc<LinkShared>,
}

impl Sender for TcpSender {
    fn send(&self, frame: Frame) -> Result<(), Disconnected> {
        self.queue.send(frame)
    }

    fn send_timeout(&self, frame: Frame, timeout: Duration) -> Result<(), SendTimeoutError> {
        self.queue.send_timeout(frame, timeout)
    }

    fn send_batch(
        &self,
        frames: &mut VecDeque<Frame>,
        timeout: Duration,
    ) -> Result<(), SendBatchError> {
        self.queue.send_batch(frames, Some(timeout))
    }

    /// Rides an in-band marker through the send queue, the socket and the
    /// acceptor: when the receiver's cursor ack covers every data frame
    /// sent before this call, they all sit in the endpoint's ingest
    /// queue.  The barrier survives a connection loss — the healed link
    /// retransmits the unacknowledged tail and re-arms the barrier — so
    /// the flush ordering contract holds across link failures.
    fn flush(&self, timeout: Duration) -> Result<(), FlushError> {
        let deadline = instant_after(Instant::now(), timeout);
        let epoch = {
            let mut next = self.shared.enqueue.lock();
            // The marker is uncounted (telemetry stays data-only) but
            // HWM-blocking: a flush on a full link waits its turn — up to
            // the same deadline the ack wait honours, so `flush(timeout)`
            // never overstays its contract even against a wedged peer.
            self.queue
                .send_uncounted_timeout(flush_marker(), timeout)
                .map_err(|e| match e {
                    SendTimeoutError::Timeout(_) => FlushError::Timeout,
                    SendTimeoutError::Disconnected(_) => FlushError::Disconnected,
                })?;
            *next += 1;
            *next
        };
        let mut progress = self.shared.progress.lock();
        loop {
            if progress.flush_done >= epoch {
                return Ok(());
            }
            if progress.dead {
                return Err(FlushError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(FlushError::Timeout);
            }
            progress = self.shared.cv.wait_timeout(progress, left);
        }
    }

    fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(self.queue.stats())
    }

    fn queued(&self) -> usize {
        self.queue.queued()
    }

    fn clone_box(&self) -> BoxSender {
        Box::new(self.clone())
    }
}

/// Starts the thread that accepts connections on `listener` until
/// `shutdown(state)` is set, serving each on a thread of its own.  The
/// transport's listener and the directory's both run it.
pub(crate) fn spawn_accept_loop<S: Send + Sync + 'static>(
    listener: TcpListener,
    state: &Arc<S>,
    shutdown: fn(&S) -> &AtomicBool,
    serve: fn(TcpStream, Arc<S>),
) -> JoinHandle<()> {
    let state = Arc::clone(state);
    std::thread::spawn(move || loop {
        let accepted = listener.accept();
        if shutdown(&state).load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn_state = Arc::clone(&state);
                std::thread::spawn(move || serve(stream, conn_state));
            }
            // Transient accept failure (e.g. EMFILE): keep listening.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    })
}

/// Per-connection acceptor: handshake (endpoint demux + resume cursor),
/// then pump frames into the bound endpoint's ingest queue — advancing
/// and periodically acknowledging the link's cursor — until EOF, I/O
/// error, endpoint drop, or a newer connection of the same link fences
/// this one.
fn serve_connection(mut stream: TcpStream, inner: Arc<TcpInner>) {
    static SERVE_TOKEN: AtomicU64 = AtomicU64::new(0);

    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(Some(hello)) = read_frame(&mut stream, MAX_HANDSHAKE_FRAME) else {
        return;
    };
    // Wire-compression negotiation: this build understands every mode —
    // compressed frames are self-describing via the length-prefix flag
    // bit — so the acceptor accepts whatever was proposed and echoes it.
    let Ok(Hello {
        name,
        link_id,
        compression,
    }) = Hello::from_frame(&hello)
    else {
        return;
    };

    let (ingest, hwm, slot) = {
        let endpoints = inner.endpoints.lock();
        match endpoints.get(&name) {
            Some(ep) => {
                let mut resume = ep.resume.lock();
                // Opportunistic GC: drop cursors of links that have been
                // dark longer than any sane reconnect window, so an
                // elastic endpoint's resume map stays proportional to
                // its *live* links, not to every link it ever served.
                let now = Instant::now();
                resume.retain(|_, s| {
                    s.retired_at
                        .lock()
                        .is_none_or(|t| now.duration_since(t) < RESUME_RETENTION)
                });
                let slot = Arc::clone(resume.entry(link_id).or_default());
                *slot.retired_at.lock() = None; // this link is live again
                (ep.ingest.clone(), ep.hwm, slot)
            }
            None => {
                drop(endpoints);
                // Connect-before-bind (or a stale directory entry):
                // report "not here" and close; the client's bounded
                // retry loop tries again.
                let _ = write_frame(&mut stream, &HelloReply::NotFound.to_frame());
                return;
            }
        }
    };

    // Fence any earlier serving thread of this link, then read the
    // cursor: the lock orders us after any in-flight ingest push, so the
    // cursor we reply can never under-report what reached the queue.
    let my_gen = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
    // Marks the link dark for the resume GC — only while we still own
    // the newest generation (a reconnected successor is the live owner).
    let retire = |slot: &ResumeSlot| {
        if slot.generation.load(Ordering::SeqCst) == my_gen {
            *slot.retired_at.lock() = Some(Instant::now());
        }
    };
    let reply = HelloReply::Accepted {
        hwm,
        resume: *slot.ingested.lock(),
        compression,
    };
    if write_frame(&mut stream, &reply.to_frame()).is_err()
        || stream.set_read_timeout(None).is_err()
    {
        retire(&slot);
        return;
    }

    // Register for `sever_connections`, deregister on exit.
    let token = SERVE_TOKEN.fetch_add(1, Ordering::Relaxed);
    if let Ok(handle) = stream.try_clone() {
        inner.serving.lock().push((name.clone(), token, handle));
    }
    let ack_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            inner.serving.lock().retain(|(_, t, _)| *t != token);
            retire(&slot);
            return;
        }
    };

    let mut reader = BlockReader::new(stream, Arc::clone(&inner.wire_io));
    let mut items: Vec<WireItem> = Vec::new();
    let mut run: VecDeque<Frame> = VecDeque::new();
    let mut since_ack: u64 = 0;
    // Pushes the data frames read so far — one batch — into the bounded
    // ingest queue and returns the link's cursor after them; `None` when
    // this thread must stop.  Blocking here is the receiver-side half of
    // the HWM backpressure chain.  The cursor lock is held across the
    // push so the count a re-handshake reads always covers it.
    let push = |run: &mut VecDeque<Frame>| -> Option<u64> {
        let mut cursor = slot.ingested.lock();
        // Stop without counting when fenced by a reconnected link's newer
        // connection; stop after counting what got through when the
        // endpoint receiver is gone (stop/crash/rebind).
        if slot.generation.load(Ordering::SeqCst) != my_gen {
            return None;
        }
        let offered = run.len();
        let delivered = ingest.send_batch(run, None);
        *cursor += (offered - run.len()) as u64;
        delivered.ok().map(|()| *cursor)
    };
    'serve: while let Ok(true) = reader.read_run(&mut items, MAX_DATA_FRAME) {
        // Whatever one read delivered goes in as one batch; a flush
        // request splits it, because its ack must cover exactly the
        // frames before it.
        let mut items = items.drain(..).peekable();
        while let Some(item) = items.next() {
            if let WireItem::Frame(frame) = item {
                run.push_back(frame);
                if matches!(items.peek(), Some(WireItem::Frame(_))) {
                    continue;
                }
            }
            let pushed = run.len() as u64;
            let Some(count) = push(&mut run) else {
                break 'serve;
            };
            since_ack += pushed;
            // Every earlier frame is in the ingest queue by now, so acking
            // the cursor on a flush request is exactly the delivery
            // barrier; otherwise the ack is the periodic one that bounds
            // the sender's retransmit buffer.
            if pushed == 0 || since_ack >= ACK_INTERVAL {
                since_ack = 0;
                if send_ack(&ack_half, count).is_err() {
                    break 'serve;
                }
            }
        }
    }
    let _ = reader.stream.shutdown(Shutdown::Both);
    inner.serving.lock().retain(|(_, t, _)| *t != token);
    retire(&slot);
}

/// Writes one cursor ack on the connection's back channel.
fn send_ack(mut stream: &TcpStream, count: u64) -> std::io::Result<()> {
    let mut buf = [0u8; 9];
    buf[0] = ACK_TAG;
    buf[1..9].copy_from_slice(&count.to_le_bytes());
    stream.write_all(&buf)?;
    stream.flush()
}

/// Link dial/handshake failure.
enum DialError {
    /// The node answered, but the endpoint is not bound there.
    NotFound,
    /// Socket-level failure.
    Io(String),
}

/// Dials `addr` and handshakes `(name, link_id)` with a wire-compression
/// proposal, returning the stream, the endpoint's HWM, the receiver's
/// resume cursor for this link and the compression mode the acceptor
/// accepted.  Idempotent: re-running it for the same link simply fences
/// the earlier connection and reports how far the receiver got.
fn dial_handshake(
    addr: &str,
    name: &str,
    link_id: u64,
    proposed: WireCompression,
) -> Result<(TcpStream, usize, u64, WireCompression), DialError> {
    let io_err = |detail: String| DialError::Io(detail);
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| io_err(format!("bad address '{addr}': {e}")))?
        .next()
        .ok_or_else(|| io_err(format!("address '{addr}' resolves to nothing")))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, HANDSHAKE_TIMEOUT).map_err(|e| io_err(e.to_string()))?;
    stream
        .set_nodelay(true)
        .map_err(|e| io_err(e.to_string()))?;
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| io_err(e.to_string()))?;

    let hello = Hello {
        name: name.to_string(),
        link_id,
        compression: proposed,
    };
    write_frame(&mut stream, &hello.to_frame()).map_err(|e| io_err(e.to_string()))?;
    let reply =
        match read_frame(&mut stream, MAX_HANDSHAKE_FRAME).map_err(|e| io_err(e.to_string()))? {
            Some(frame) => frame,
            None => return Err(io_err("acceptor closed during handshake".into())),
        };
    match HelloReply::from_frame(&reply).map_err(|e| io_err(format!("handshake reply: {e}")))? {
        HelloReply::NotFound => Err(DialError::NotFound),
        HelloReply::Accepted {
            hwm,
            resume,
            compression,
        } => {
            stream
                .set_read_timeout(None)
                .map_err(|e| io_err(e.to_string()))?;
            Ok((stream, hwm as usize, resume, compression))
        }
    }
}

/// One live socket of a link: the write half plus the raw stream (for
/// shutdown).  Creating one spawns its ack reader.  There is no
/// `BufWriter` here by design: the writer thread gathers queued frames
/// into vectored bursts itself and hands each burst to the socket whole,
/// so a stream-level buffer would only add a copy and a flush state
/// machine.
struct Conn {
    stream: TcpStream,
    out: TcpStream,
}

impl Conn {
    fn start(stream: TcpStream, shared: &Arc<LinkShared>) -> Option<Conn> {
        let gen = shared.new_conn();
        let read_half = stream.try_clone().ok()?;
        let write_half = stream.try_clone().ok()?;
        let reader_shared = Arc::clone(shared);
        std::thread::spawn(move || ack_reader(read_half, reader_shared, gen));
        Some(Conn {
            stream,
            out: write_half,
        })
    }

    /// Writes one burst with gathered (vectored) writes: one `writev`
    /// over the encoded frames in place per socket round — no staging
    /// copy, so the kernel reads frame bytes straight from where the
    /// sender encoded them.  Partial writes (socket buffer full
    /// mid-burst) resume from the exact byte offset; the OS caps each
    /// `writev` at `IOV_MAX` slices, which the loop absorbs the same way.
    /// Returns the number of `writev` calls it took.
    fn write_burst(&mut self, mut burst: &mut [IoSlice<'_>]) -> std::io::Result<u64> {
        let mut calls = 0;
        while !burst.is_empty() {
            match self.out.write_vectored(burst) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut burst, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            calls += 1;
        }
        Ok(calls)
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// One queued frame's exact wire image: the 4-byte length prefix and the
/// payload body as a shared [`Bytes`] handle.  An uncompressed frame's
/// body is the sender's payload itself — zero-copy; the vectored burst
/// write puts it on the wire straight from the caller's allocation.  A
/// compressed frame's body is a window onto its burst's block of codec
/// images (see [`stage_burst`]).  The retransmit buffer stores these
/// verbatim, so a healed link re-sends byte-identical frames without
/// re-encoding.
struct WireImage {
    prefix: [u8; 4],
    body: Bytes,
}

impl WireImage {
    /// The image of `payload`: `image` of the burst's `block` when the
    /// codec shrank it (the prefix then carries [`COMPRESSED_FLAG`]),
    /// the raw length-prefixed layout — sharing the payload bytes —
    /// otherwise.
    fn new(payload: Frame, image: Option<std::ops::Range<usize>>, block: Option<&Bytes>) -> Self {
        match (image, block) {
            (Some(image), Some(block)) => WireImage {
                prefix: (image.len() as u32 | COMPRESSED_FLAG).to_le_bytes(),
                body: block.slice(image),
            },
            _ => WireImage {
                prefix: (payload.len() as u32).to_le_bytes(),
                body: payload,
            },
        }
    }

    fn len(&self) -> usize {
        self.prefix.len() + self.body.len()
    }

    /// Appends this image's slices to a gathered burst (borrows, no byte
    /// copies).
    fn push_to<'a>(&'a self, burst: &mut Vec<IoSlice<'a>>) {
        burst.push(IoSlice::new(&self.prefix));
        if !self.body.is_empty() {
            burst.push(IoSlice::new(&self.body));
        }
    }
}

/// One staged element of a burst: a queued frame (or the flush marker)
/// and, when the codec shrank it, where its image lies in the burst's
/// block.
type Staged = (Frame, Option<std::ops::Range<usize>>);

/// Takes the next burst off `queued` into `staged` — frames in queue
/// order until their wire images reach [`BURST_BUDGET`] — running every
/// frame of [`MIN_COMPRESS_LEN`] or more through the lossless payload
/// codec when the link negotiated it.  The images of the frames that
/// shrink are written end to end into **one block per burst**, which is
/// returned (a frame that is small or does not shrink keeps the raw
/// layout); `room` is how much the block is sized for, the payload bytes
/// still queued.  A compressed link so costs one allocation per burst,
/// not a dozen per frame, and counts its codec time and bytes in `io`.
fn stage_burst(
    queued: &mut impl Iterator<Item = Frame>,
    compression: WireCompression,
    scratch: &mut PlaneScratch,
    room: usize,
    staged: &mut Vec<Staged>,
    io: &WireIo,
) -> Option<Bytes> {
    let codec = compression.wire_codec_enabled();
    let started = codec.then(Instant::now);
    let mut block = Vec::new();
    let (mut bytes_in, mut bytes_out, mut raw_frames) = (0, 0, 0);
    let mut burst_len = 0;
    for frame in queued {
        if is_flush_marker(&frame) {
            burst_len += FLUSH_WIRE.len();
            staged.push((frame, None));
        } else {
            let image = (codec && frame.len() >= MIN_COMPRESS_LEN)
                .then(|| {
                    if block.capacity() == 0 {
                        block.reserve(room.min(BURST_BUDGET));
                    }
                    compress_into(&frame, scratch, &mut block)
                })
                .flatten()
                .map(|len| block.len() - len..block.len());
            let body_len = image.as_ref().map_or(frame.len(), |image| image.len());
            bytes_in += frame.len() as u64;
            bytes_out += body_len as u64;
            raw_frames += image.is_none() as u64;
            burst_len += 4 + body_len;
            staged.push((frame, image));
        }
        if burst_len >= BURST_BUDGET {
            break;
        }
    }
    if let Some(started) = started {
        let nanos = started.elapsed().as_nanos() as u64;
        io.codec_encode_nanos.fetch_add(nanos, Ordering::Relaxed);
        io.codec_bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        io.codec_bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        io.codec_raw_frames.fetch_add(raw_frames, Ordering::Relaxed);
    }
    (!block.is_empty()).then(|| Bytes::from(block))
}

/// Drains cursor acks from the back channel into the link progress;
/// flags the connection broken when the socket dies.
fn ack_reader(stream: TcpStream, shared: Arc<LinkShared>, gen: u64) {
    let mut r = BufReader::with_capacity(256, stream);
    let mut buf = [0u8; 9];
    loop {
        match r.read_exact(&mut buf) {
            Ok(()) if buf[0] == ACK_TAG => {
                shared.absorb_ack(u64::from_le_bytes(buf[1..9].try_into().expect("8 bytes")));
            }
            _ => break,
        }
    }
    shared.mark_broken(gen);
}

/// What one element of a burst is: the next frame of the retransmit
/// buffer, or a flush barrier.
#[derive(Clone, Copy)]
enum Part {
    Frame,
    Flush,
}

/// Connection writer thread: drains the send-side HWM queue in
/// **bursts** — every wakeup takes all queued frames in one go
/// (wire-encoding and compressing each in order, see [`stage_burst`]) and
/// hands the socket one vectored write per [`BURST_BUDGET`] over the
/// encodings in place,
/// so a stream of frames costs one syscall per burst instead of one
/// write-plus-flush per frame, with no staging copy of the payload
/// bytes.  Keeps every unacknowledged frame *in its wire encoding* for
/// retransmission, and heals the link (resolve → dial → idempotent
/// re-handshake → resume) with bounded backoff when the connection
/// breaks.
fn writer_loop(
    stream: TcpStream,
    rx: crate::endpoint::ChannelReceiver,
    shared: Arc<LinkShared>,
    core: Arc<LinkCore>,
    stats: Arc<LinkStats>,
    negotiated: WireCompression,
) {
    let mut conn = match Conn::start(stream, &shared) {
        Some(c) => c,
        None => {
            shared.mark_dead();
            return;
        }
    };
    // The mode the *current* connection's acceptor accepted (re-read on
    // every reconnect handshake; already-encoded frames retransmit
    // verbatim either way).
    let mut compression = negotiated;
    // Data frames handed to any socket so far (the link's send cursor).
    let mut seq: u64 = 0;
    // Flush markers dequeued so far (equals the senders' epoch counter).
    let mut epoch: u64 = 0;
    // Sent-but-unacknowledged frames in wire encoding, oldest first.
    let mut unacked: VecDeque<(u64, WireImage)> = VecDeque::new();
    // Frames taken off the queue at one wakeup, the burst being staged
    // from them and its parts in write order (all reused), and the
    // codec's working storage.
    let mut inbox: Vec<Frame> = Vec::new();
    let mut staged: Vec<Staged> = Vec::with_capacity(64);
    let mut burst: Vec<Part> = Vec::with_capacity(64);
    let mut scratch = PlaneScratch::default();
    // On a self-healing link an idle wait is a bounded poll, so a broken
    // connection interrupts an idle link within one tick; with
    // reconnection disabled there is nothing to heal and the writer
    // blocks for free (breakage still surfaces at the next write or
    // flush, the single-node contract).
    let idle_wait = core
        .directory
        .is_some()
        .then_some(Duration::from_millis(25));

    'link: loop {
        // Drop frames the receiver has acknowledged.
        let acked = shared.acked();
        while unacked.front().is_some_and(|&(s, _)| s <= acked) {
            unacked.pop_front();
        }
        // Heal a connection the ack reader (or an earlier write) found
        // broken — even while the queue is idle, so an outstanding flush
        // barrier can complete without waiting for new traffic.
        if shared.is_broken() {
            if !reconnect(
                &mut conn,
                &mut unacked,
                &shared,
                &core,
                &stats,
                &mut compression,
            ) {
                break 'link;
            }
            continue;
        }
        match rx.recv_batch(&mut inbox, usize::MAX, idle_wait) {
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => continue 'link,
            Err(RecvTimeoutError::Disconnected) => break 'link, // senders gone
        }
        let mut room: usize = inbox.iter().map(|frame| frame.len()).sum();
        let mut queued = inbox.drain(..).peekable();
        while queued.peek().is_some() {
            // Gather a burst: frames in queue order, up to the burst
            // budget.  Its data frames go to the back of the retransmit
            // buffer, which is where the write reads them from — no
            // staging copy.
            let io = &core.wire_io;
            let block = stage_burst(
                &mut queued,
                compression,
                &mut scratch,
                room,
                &mut staged,
                io,
            );
            burst.clear();
            let first = unacked.len();
            for (frame, image) in staged.drain(..) {
                room -= frame.len();
                if is_flush_marker(&frame) {
                    // Barrier: everything up to `seq` must reach the
                    // ingest queue.  Register first so a concurrent ack
                    // (or a reconnect resume) can satisfy it, then the
                    // in-burst request asks for the receiver's cursor.
                    epoch += 1;
                    shared.push_pending(epoch, seq);
                    burst.push(Part::Flush);
                } else {
                    seq += 1;
                    let wire = WireImage::new(frame, image, block.as_ref());
                    stats.add_wire_bytes(wire.len() as u64);
                    unacked.push_back((seq, wire));
                    burst.push(Part::Frame);
                }
            }
            let written = {
                let mut frames = unacked.range(first..);
                let mut slices = Vec::with_capacity(2 * burst.len());
                for part in &burst {
                    match part {
                        Part::Flush => slices.push(IoSlice::new(&FLUSH_WIRE)),
                        Part::Frame => {
                            let (_, wire) = frames.next().expect("one image per frame part");
                            wire.push_to(&mut slices);
                        }
                    }
                }
                conn.write_burst(&mut slices)
            };
            match written {
                Ok(calls) => {
                    let frames = (unacked.len() - first) as u64;
                    core.wire_io.writes.fetch_add(calls, Ordering::Relaxed);
                    core.wire_io
                        .frames_written
                        .fetch_add(frames, Ordering::Relaxed);
                }
                Err(_) => {
                    if !reconnect(
                        &mut conn,
                        &mut unacked,
                        &shared,
                        &core,
                        &stats,
                        &mut compression,
                    ) {
                        break 'link;
                    }
                }
            }
        }
    }
    conn.kill();
    shared.mark_dead();
}

/// Re-establishes a broken link: resolve the name through the directory,
/// dial and re-handshake (idempotently — the reply carries the receiver's
/// cursor), retransmit exactly the unacknowledged tail **in its original
/// wire encoding** (a compressed frame is re-sent byte-identical, once),
/// re-arm any outstanding flush barrier.  Exponential backoff from 5 ms
/// up to [`RECONNECT_BACKOFF_MAX`], bounded overall by
/// [`RECONNECT_TIMEOUT`] (a link without a directory does not reconnect).
fn reconnect(
    conn: &mut Conn,
    unacked: &mut VecDeque<(u64, WireImage)>,
    shared: &Arc<LinkShared>,
    core: &Arc<LinkCore>,
    stats: &Arc<LinkStats>,
    compression: &mut WireCompression,
) -> bool {
    conn.kill();
    let Some(directory) = &core.directory else {
        return false;
    };
    let deadline = Instant::now() + RECONNECT_TIMEOUT;
    let mut backoff = Duration::from_millis(5);
    loop {
        let attempt = directory
            .resolve(&core.name)
            .ok()
            .flatten()
            .and_then(|addr| {
                dial_handshake(&addr, &core.name, core.link_id, core.compression).ok()
            });
        if let Some((stream, _hwm, resume, accepted)) = attempt {
            // The receiver's cursor is authoritative: everything at or
            // below it arrived (possibly via an ack that never reached
            // us), and satisfies any flush barrier it covers.
            shared.absorb_ack(resume);
            let acked = shared.acked();
            while unacked.front().is_some_and(|&(s, _)| s <= acked) {
                unacked.pop_front();
            }
            if let Some(mut fresh) = Conn::start(stream, shared) {
                // One gathered retransmit burst: the unacknowledged wire
                // frames verbatim, plus one re-armed barrier covering
                // every outstanding flush (after the retransmitted tail,
                // the receiver's cursor reaches the link's send cursor,
                // past all targets).
                let mut burst = Vec::with_capacity(2 * unacked.len() + 1);
                for (_, wire) in unacked.iter() {
                    wire.push_to(&mut burst);
                }
                // Retransmitted data bytes are wire traffic too (the
                // re-armed barrier's 4 bytes stay uncounted, like every
                // flush request).
                let data_len: usize = unacked.iter().map(|(_, wire)| wire.len()).sum();
                if shared.has_pending() {
                    burst.push(IoSlice::new(&FLUSH_WIRE));
                }
                if let Ok(calls) = fresh.write_burst(&mut burst) {
                    stats.add_wire_bytes(data_len as u64);
                    core.wire_io.writes.fetch_add(calls, Ordering::Relaxed);
                    core.wire_io
                        .frames_written
                        .fetch_add(unacked.len() as u64, Ordering::Relaxed);
                    *conn = fresh;
                    *compression = accepted;
                    core.reconnects.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                fresh.kill();
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        std::thread::sleep(backoff.min(left));
        backoff = (backoff * 2).min(RECONNECT_BACKOFF_MAX);
    }
}

/// One decoded wire element on an established connection.
enum WireItem {
    /// An opaque data frame for the endpoint's ingest queue.
    Frame(Bytes),
    /// The sender's flush barrier asking for a cursor ack.
    FlushRequest,
}

/// The acceptor's read side: pulls the socket's bytes in **blocks** and
/// carves every complete wire element out of each block, so a burst of
/// frames costs one `read` — not a length read and a payload read per
/// frame — and reaches the ingest queue as one batch.
///
/// A data frame is handed out as a window onto the block it arrived in
/// (zero-copy: the kernel's copy into the block is the only one on this
/// side); the block is then given up to its frames and reading continues
/// in a fresh one, with the incomplete tail moved over.  When a read
/// fills less than a quarter of the block — a lone control frame, a
/// trickling sender — the few frames are copied out instead and the
/// block is kept, so a queued frame never pins much more memory than it
/// holds.  A prefix carrying [`COMPRESSED_FLAG`] is decompressed here,
/// **before** the frame enters the ingest queue, so receivers, protocol
/// decode and the ingest cursor only ever see original payload bytes:
/// the compressed frames of one read are decoded into one block of their
/// own and handed out as windows onto that.
struct BlockReader<R> {
    stream: R,
    /// The block being filled, zero-initialised to its whole length;
    /// `[..filled]` is wire data not yet handed out.
    block: Vec<u8>,
    filled: usize,
    /// The wire codec's working storage.
    scratch: PlaneScratch,
    io: Arc<WireIo>,
}

impl<R: Read> BlockReader<R> {
    fn new(stream: R, io: Arc<WireIo>) -> Self {
        Self {
            stream,
            block: vec![0; READ_BLOCK],
            filled: 0,
            scratch: PlaneScratch::default(),
            io,
        }
    }

    /// Blocks for one `read`, then appends every wire element that is
    /// now complete to `items`, in wire order (possibly none: a frame
    /// longer than what has arrived so far).  `Ok(false)` on a clean EOF
    /// at an element boundary; a frame longer than `cap`, a corrupt
    /// compressed image or an EOF mid-frame are errors.
    fn read_run(&mut self, items: &mut Vec<WireItem>, cap: usize) -> std::io::Result<bool> {
        let n = loop {
            match self.stream.read(&mut self.block[self.filled..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        if n == 0 {
            return match self.filled {
                0 => Ok(false),
                _ => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )),
            };
        }
        self.filled += n;
        self.io.reads.fetch_add(1, Ordering::Relaxed);

        // Where the complete elements lie in the block.
        let mut spans: Vec<Span> = Vec::new();
        let mut at = 0;
        // Room the element that is still arriving needs, prefix included,
        // and what the compressed frames so far decode to.
        let mut pending = 0;
        let mut restored_len = 0;
        while let Some(prefix) = self.block[at..self.filled].first_chunk::<4>() {
            let raw = u32::from_le_bytes(*prefix);
            if raw == FLUSH_REQUEST {
                spans.push(Span::Flush);
                at += 4;
                continue;
            }
            let len = (raw & !COMPRESSED_FLAG) as usize;
            if len > cap {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("frame length {len} exceeds cap {cap}"),
                ));
            }
            let end = at + 4 + len;
            if end > self.filled {
                pending = 4 + len;
                break;
            }
            let body = at + 4..end;
            let restored = match raw & COMPRESSED_FLAG {
                0 => None,
                // The decoded length rides the image header; the codec
                // bounds it by what the image can hold, the frame cap
                // bounds it here, before anything is allocated for it.
                _ => match decoded_len(&self.block[body.clone()]) {
                    Ok(len) if len <= cap => {
                        restored_len += len;
                        Some(restored_len - len..restored_len)
                    }
                    Ok(_) => return Err(corrupt_frame("decoded length exceeds the frame cap")),
                    Err(e) => return Err(corrupt_frame(e)),
                },
            };
            spans.push(Span::Frame { body, restored });
            at = end;
        }
        let (mut n_frames, mut plain_bytes, mut n_compressed) = (0u64, 0, 0);
        for span in &spans {
            if let Span::Frame { body, restored } = span {
                n_frames += 1;
                match restored {
                    None => plain_bytes += body.len(),
                    Some(_) => n_compressed += 1,
                }
            }
        }
        self.io.frames_read.fetch_add(n_frames, Ordering::Relaxed);

        // Undo the wire codec: every compressed frame of this read into
        // one block (a large one is zeroed lazily by the allocator, so
        // lying headers cost address space until a frame actually decodes
        // that far).
        let restored_block = match n_compressed {
            0 => None,
            _ => {
                let started = Instant::now();
                let mut block = vec![0; restored_len];
                for span in &spans {
                    if let Span::Frame {
                        body,
                        restored: Some(restored),
                    } = span
                    {
                        let image = &self.block[body.clone()];
                        decompress_into(image, &mut self.scratch, &mut block[restored.clone()])
                            .map_err(corrupt_frame)?;
                    }
                }
                let nanos = started.elapsed().as_nanos() as u64;
                self.io
                    .codec_decode_nanos
                    .fetch_add(nanos, Ordering::Relaxed);
                Some(Bytes::from(block))
            }
        };

        // Give the block up to its frames when they make up a fair share
        // of it (compressed ones need no storage: they are decoded into
        // their own), and start the next block with the incomplete tail.
        let tail = at..self.filled;
        let shared = (plain_bytes * 4 >= self.block.len()).then(|| {
            let mut next = vec![0; READ_BLOCK.max(pending)];
            next[..tail.len()].copy_from_slice(&self.block[tail.clone()]);
            Bytes::from(std::mem::replace(&mut self.block, next))
        });
        for span in spans {
            items.push(match span {
                Span::Flush => WireItem::FlushRequest,
                Span::Frame { body, restored } => {
                    WireItem::Frame(match (restored, &restored_block, &shared) {
                        (Some(window), Some(block), _) => block.slice(window),
                        (_, _, Some(block)) => block.slice(body),
                        (_, _, None) => Bytes::copy_from_slice(&self.block[body]),
                    })
                }
            });
        }
        if shared.is_some() {
            // The tail is already at the front of the fresh block.
        } else if self.block.len() < pending {
            // The frame still arriving is longer than the block: it gets
            // one of its own length — zeroed lazily by the allocator, so
            // a lying prefix costs address space, not memory.
            let mut longer = vec![0; pending];
            longer[..tail.len()].copy_from_slice(&self.block[tail.clone()]);
            self.block = longer;
        } else {
            self.block.copy_within(tail.clone(), 0);
        }
        self.filled = tail.len();
        Ok(true)
    }
}

/// Where one complete wire element lies in a read block.
enum Span {
    Flush,
    Frame {
        /// The payload, past its length prefix.
        body: std::ops::Range<usize>,
        /// Where a compressed frame's payload lies in the read's block of
        /// restored payloads.
        restored: Option<std::ops::Range<usize>>,
    },
}

/// A compressed frame the codec refuses: fatal to its connection, as a
/// frame longer than the cap is.
fn corrupt_frame(why: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt compressed frame: {why}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::round_trip;

    fn frame(text: &'static [u8]) -> Frame {
        Bytes::from_static(text)
    }

    #[test]
    fn bind_connect_send_receive_over_loopback() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("server/0", 8);
        let tx = t.connect("server/0").unwrap();
        tx.send(frame(b"hello")).unwrap();
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"hello"
        );
        assert_eq!(tx.stats().messages_sent(), 1);
        assert_eq!(tx.stats().bytes_sent(), 5);
    }

    #[test]
    fn frames_preserve_order_and_content() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("ordered", 4);
        let tx = t.connect("ordered").unwrap();
        let payloads: Vec<Frame> = (0..50u8)
            .map(|i| Bytes::from(vec![i; (i as usize % 7) + 1]))
            .collect();
        for p in &payloads {
            tx.send(p.clone()).unwrap();
        }
        for p in &payloads {
            assert_eq!(&rx.recv_timeout(Duration::from_secs(5)).unwrap(), p);
        }
    }

    #[test]
    fn empty_frames_survive_the_wire() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("empty", 2);
        let tx = t.connect("empty").unwrap();
        tx.send(Bytes::new()).unwrap();
        tx.send(frame(b"after")).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_empty());
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"after"
        );
    }

    #[test]
    fn connect_to_unbound_name_is_not_found() {
        let t = TcpTransport::new().unwrap();
        assert!(matches!(
            t.connect("nobody"),
            Err(ConnectError::NotFound { .. })
        ));
    }

    /// A single node answers `connect` from its own endpoint table: the
    /// same `NotFound` before a bind and after an unbind, which
    /// `connect_retry` keeps retrying until the bind lands.
    #[test]
    fn single_node_connect_before_bind_is_a_retryable_not_found() {
        let t = TcpTransport::new().unwrap();
        assert_eq!(t.backend_name(), "tcp");
        assert!(matches!(
            t.connect_retry("early", Duration::from_millis(20)),
            Err(ConnectError::NotFound { name }) if name == "early"
        ));
        let rx = t.bind("early", 4);
        t.connect("early")
            .expect("bound names resolve")
            .send(frame(b"hi"))
            .unwrap();
        assert_eq!(&rx.recv_timeout(Duration::from_secs(5)).unwrap()[..], b"hi");
        t.unbind("early");
        assert!(matches!(
            t.connect("early"),
            Err(ConnectError::NotFound { .. })
        ));
    }

    /// A hello without its compression proposal is not a hello: the
    /// acceptor closes the connection instead of negotiating `Off`.
    #[test]
    fn a_short_hello_closes_the_connection() {
        let t = TcpTransport::new().unwrap();
        let _rx = t.bind("victim", 4);
        let hello = Hello {
            name: "victim".into(),
            link_id: 7,
            compression: WireCompression::Off,
        }
        .to_frame();
        for (frame, answered) in [(&hello[..], true), (&hello[..hello.len() - 2], false)] {
            let mut stream = TcpStream::connect(t.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write_frame(&mut stream, frame).unwrap();
            let reply = read_frame(&mut stream, MAX_HANDSHAKE_FRAME);
            assert_eq!(
                matches!(reply, Ok(Some(_))),
                answered,
                "{} hello bytes",
                frame.len()
            );
        }
    }

    #[test]
    fn connect_before_bind_rendezvous_via_bounded_retry() {
        let t = Arc::new(TcpTransport::new().unwrap());
        let t2 = Arc::clone(&t);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            t2.bind("late", 4)
        });
        // Bounded retry: polls NotFound until the bind lands.
        let tx = t
            .connect_retry("late", Duration::from_secs(5))
            .expect("late bind must be found");
        let rx = binder.join().unwrap();
        tx.send(frame(b"made it")).unwrap();
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"made it"
        );
    }

    #[test]
    fn rebind_after_crash_reaches_the_new_endpoint() {
        let t = TcpTransport::new().unwrap();
        let rx1 = t.bind("srv", 4);
        let tx1 = t.connect("srv").unwrap();
        tx1.send(frame(b"before crash")).unwrap();
        assert_eq!(
            &rx1.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"before crash"
        );
        // "Crash": the old receiver is dropped, then the restarted server
        // re-binds the same name.
        drop(rx1);
        let rx2 = t.bind("srv", 4);
        let tx2 = t.connect("srv").unwrap();
        tx2.send(frame(b"after restart")).unwrap();
        assert_eq!(
            &rx2.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"after restart"
        );
        // The old link dies cleanly: its reader saw the dropped receiver
        // and closed the socket, so sends fail once the writer notices
        // (single-node transports do not reconnect).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match tx1.send(frame(b"zombie")) {
                Err(Disconnected) => break,
                Ok(()) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "old link never observed the disconnect"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // The rebound endpoint never saw the zombie frames.
        assert!(rx2.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn hwm_backpressure_blocks_sends_and_is_accounted() {
        let t = TcpTransport::new().unwrap();
        // Tiny HWM + large frames: the undrained ingest queue, the socket
        // buffers and the send queue all fill, and sends block.
        let rx = t.bind("pressure", 1);
        let tx = t.connect("pressure").unwrap();
        let big = Bytes::from(vec![0u8; 4 * 1024 * 1024]);
        let sender = {
            let tx = tx.clone_box();
            let big = big.clone();
            std::thread::spawn(move || {
                for _ in 0..8 {
                    tx.send(big.clone()).unwrap();
                }
            })
        };
        // Drain slowly so the producer experiences backpressure.
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(20));
            let f = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(f.len(), big.len());
        }
        sender.join().unwrap();
        assert!(
            tx.stats().sends_blocked() > 0,
            "no send ever hit the high-water mark"
        );
        assert!(tx.stats().blocked_time() > Duration::ZERO);
    }

    #[test]
    fn send_timeout_times_out_against_a_stalled_link() {
        let t = TcpTransport::new().unwrap();
        let _rx = t.bind("stalled", 1);
        let tx = t.connect("stalled").unwrap();
        let big = Bytes::from(vec![0u8; 4 * 1024 * 1024]);
        // Fill queue + socket buffers until a deadline send gives up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match tx.send_timeout(big.clone(), Duration::from_millis(50)) {
                Ok(()) => assert!(std::time::Instant::now() < deadline, "never filled"),
                Err(SendTimeoutError::Timeout(f)) => {
                    assert_eq!(f.len(), big.len());
                    break;
                }
                Err(SendTimeoutError::Disconnected(_)) => panic!("link died unexpectedly"),
            }
        }
    }

    #[test]
    fn dropped_endpoint_disconnects_the_sender() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("gone", 2);
        let tx = t.connect("gone").unwrap();
        tx.send(frame(b"one")).unwrap();
        drop(rx);
        // The reader closes the connection once it observes the dropped
        // receiver; the writer thread then fails and drops the queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match tx.send(frame(b"x")) {
                Err(Disconnected) => break,
                Ok(()) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "sender never observed the dropped endpoint"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    #[test]
    fn link_stats_sum_connections_per_endpoint() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("data", 8);
        let tx1 = t.connect("data").unwrap();
        let tx2 = t.connect("data").unwrap();
        tx1.send(frame(b"abc")).unwrap();
        tx2.send(frame(b"de")).unwrap();
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = t.link_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "data");
        assert_eq!(stats[0].1.messages, 2);
        assert_eq!(stats[0].1.bytes, 5);
    }

    /// A long-lived node serving control RPCs — each one a dialled
    /// request and a dialled reply, the daemon's pattern — keeps a link
    /// list and a rollup the size of what is live, with every frame still
    /// counted once; unanswered and unreached round trips leave no reply
    /// endpoint behind either.
    #[test]
    fn links_of_finished_rpcs_fold_into_a_bounded_ledger() {
        const RPCS: u64 = 500;
        const LIVE: usize = 64;
        let t = Arc::new(TcpTransport::new().unwrap());
        let ctl = t.bind("ctl/daemon", 8);
        let server = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                while let Ok(request) = ctl.recv() {
                    let reply_to = String::from_utf8(request.to_vec()).unwrap();
                    if reply_to.is_empty() {
                        break;
                    }
                    t.connect(&reply_to).unwrap().send(frame(b"ok")).unwrap();
                }
            })
        };
        let mut most_links = 0;
        let mut most_rollup = 0;
        let request = |reply_to: &str| Bytes::copy_from_slice(reply_to.as_bytes());
        let timeout = Duration::from_secs(5);
        for _ in 0..RPCS {
            let reply = round_trip(t.as_ref(), "ctl/daemon", request, timeout, timeout);
            assert_eq!(&reply.unwrap()[..], b"ok");
            most_links = most_links.max(t.inner.links.lock().len());
            most_rollup = most_rollup.max(t.link_stats().len());
        }
        for _ in 0..5 {
            crate::api::tests::round_trip_each_outcome(t.as_ref());
        }
        t.connect("ctl/daemon").unwrap().send(frame(b"")).unwrap();
        server.join().unwrap();
        assert!(most_links <= LIVE, "{most_links} links listed");
        assert!(most_rollup <= LIVE + 2, "{most_rollup} rollup entries");
        let stats = t.link_stats();
        let total = |name: &str| {
            let found = stats.iter().find(|(n, _)| n == name);
            found.map_or(0, |(_, s)| s.messages)
        };
        let replies: u64 = stats
            .iter()
            .filter(|(name, _)| names::is_reply(name) || name == "retired/reply")
            .map(|(_, s)| s.messages)
            .sum();
        assert_eq!(total("ctl/daemon"), RPCS + 1, "{stats:?}");
        assert_eq!((replies, total("svc")), (RPCS + 5, 10), "{stats:?}");
    }

    #[test]
    fn retiring_a_scope_unbinds_it_and_keeps_its_totals() {
        let t = TcpTransport::new().unwrap();
        for study in 1..=3u64 {
            let scope = names::study_scope(study);
            let name = names::server_worker_in(&scope, 0);
            let rx = t.bind(&name, 4);
            let _main = t.bind(&names::server_main_in(&scope), 4);
            let tx = t.connect(&name).unwrap();
            tx.send(frame(b"abc")).unwrap();
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
            drop((tx, rx));
            t.retire_scope(&scope);
            assert!(matches!(
                t.connect(&name),
                Err(ConnectError::NotFound { .. })
            ));
        }
        assert!(t.bound_names().is_empty(), "{:?}", t.bound_names());
        let stats = t.link_stats();
        let rollup: Vec<_> = stats
            .iter()
            .map(|(name, s)| (&name[..], s.messages, s.bytes))
            .collect();
        // The never-dialled `main` endpoints keep a zero entry, as bound.
        assert_eq!(
            rollup,
            [("retired/server/0", 3, 9), ("retired/server/main", 0, 0)]
        );
        assert!(t.inner.links.lock().is_empty());
    }

    #[test]
    fn unbind_prevents_new_connections_but_keeps_existing_links() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("u", 4);
        let tx = t.connect("u").unwrap();
        t.unbind("u");
        assert!(matches!(t.connect("u"), Err(ConnectError::NotFound { .. })));
        tx.send(frame(b"still works")).unwrap();
        assert_eq!(
            &rx.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"still works"
        );
    }

    #[test]
    fn dropping_the_transport_closes_the_listener() {
        let addr;
        {
            let t = TcpTransport::new().unwrap();
            addr = t.local_addr();
            let _rx = t.bind("x", 1);
        }
        // The accept thread has exited and the listener is closed: a new
        // dial must fail (immediately or after the refused handshake).
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        assert!(
            refused.is_err() || {
                // Rarely the OS accepts into a dead backlog; the read then
                // fails or EOFs instead of handshaking.
                let mut s = refused.unwrap();
                s.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let mut buf = [0u8; 1];
                !matches!(s.read(&mut buf), Ok(n) if n > 0)
            },
            "listener still alive after drop"
        );
    }

    /// A data-frame-shaped payload: 3 header-tail bytes + a smooth f64
    /// field, the shape the wire codec is tuned for.
    fn field_frame(n: usize, phase: f64) -> Frame {
        // Each frame is a contiguous slab of a fine global grid — the
        // way data frames carve up a large solver field — so
        // neighbouring samples differ only in the low mantissa bytes.
        let mut payload = vec![7u8, 8, 9];
        for i in 0..n {
            let x = (i as f64 / n as f64 + phase) / 64.0;
            let v = 300.0 + 40.0 * (std::f64::consts::TAU * x).sin();
            payload.extend_from_slice(&v.to_le_bytes());
        }
        Bytes::from(payload)
    }

    /// Keyed xorshift noise: a payload the codec cannot shrink.
    fn noise_frame(len: usize) -> Frame {
        let mut x = 0x9E37_79B9u64;
        let noise = std::iter::repeat_with(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        });
        Bytes::from(noise.take(len).collect::<Vec<u8>>())
    }

    #[test]
    fn compressed_link_delivers_bit_identical_payloads() {
        let mut config = TcpTransportConfig::local();
        config.compression = WireCompression::Transpose;
        let t = TcpTransport::with_config(config).unwrap();
        let rx = t.bind("zipped", 16);
        let tx = t.connect("zipped").unwrap();
        let frames: Vec<Frame> = (0..40).map(|i| field_frame(512, i as f64 * 0.1)).collect();
        for f in &frames {
            tx.send(f.clone()).unwrap();
        }
        for f in &frames {
            assert_eq!(
                &rx.recv_timeout(Duration::from_secs(5)).unwrap(),
                f,
                "decode-on-ingest must restore the exact payload bytes"
            );
        }
        // The whole point: fewer wire bytes than payload bytes.
        let stats = t.link_stats();
        let snap = &stats[0].1;
        assert_eq!(
            snap.bytes,
            frames.iter().map(|f| f.len() as u64).sum::<u64>()
        );
        assert!(
            snap.wire_bytes < snap.bytes / 2,
            "smooth fields must compress ≥ 2×: {} wire vs {} payload",
            snap.wire_bytes,
            snap.bytes
        );
    }

    #[test]
    fn incompressible_frames_ride_raw_even_when_compression_is_on() {
        let mut config = TcpTransportConfig::local();
        config.compression = WireCompression::Transpose;
        let t = TcpTransport::with_config(config).unwrap();
        let rx = t.bind("entropy", 8);
        let tx = t.connect("entropy").unwrap();
        // Noise: the codec must fall back to raw framing.
        let f = noise_frame(4096);
        tx.send(f.clone()).unwrap();
        assert_eq!(&rx.recv_timeout(Duration::from_secs(5)).unwrap(), &f);
        let stats = t.link_stats();
        // Raw fallback: exactly payload + 4-byte prefix on the wire.
        assert_eq!(stats[0].1.wire_bytes, f.len() as u64 + 4);
    }

    #[test]
    fn uncompressed_links_account_wire_framing_overhead() {
        let t = TcpTransport::new().unwrap();
        let rx = t.bind("plain", 8);
        let tx = t.connect("plain").unwrap();
        tx.send(frame(b"abc")).unwrap();
        tx.send(frame(b"de")).unwrap();
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = t.link_stats();
        assert_eq!(stats[0].1.bytes, 5);
        // 2 frames × 4-byte prefix + 5 payload bytes.
        assert_eq!(stats[0].1.wire_bytes, 13);
    }

    /// The wire images a link's writer makes of `frames` as one burst.
    fn wire_images(frames: &[Frame], compression: WireCompression) -> Vec<WireImage> {
        let mut staged = Vec::new();
        let room = frames.iter().map(|f| f.len()).sum();
        let block = stage_burst(
            &mut frames.iter().cloned(),
            compression,
            &mut PlaneScratch::default(),
            room,
            &mut staged,
            &WireIo::default(),
        );
        staged
            .into_iter()
            .map(|(frame, image)| WireImage::new(frame, image, block.as_ref()))
            .collect()
    }

    /// The bytes `frame` crosses the wire as.
    fn wire_bytes(frame: &Frame, compression: WireCompression) -> Vec<u8> {
        let image = &wire_images(std::slice::from_ref(frame), compression)[0];
        [&image.prefix[..], &image.body[..]].concat()
    }

    /// Everything a reader over `wire` yields until EOF, frames only.
    fn read_all(wire: Vec<u8>) -> std::io::Result<Vec<Bytes>> {
        let mut reader = BlockReader::new(std::io::Cursor::new(wire), Arc::default());
        let mut items = Vec::new();
        while reader.read_run(&mut items, MAX_DATA_FRAME)? {}
        Ok(items
            .into_iter()
            .filter_map(|item| match item {
                WireItem::Frame(frame) => Some(frame),
                WireItem::FlushRequest => None,
            })
            .collect())
    }

    #[test]
    fn compressed_wire_container_roundtrips_through_the_reader() {
        let f = field_frame(256, 0.0);
        let wire = wire_bytes(&f, WireCompression::Transpose);
        assert!(wire.len() < f.len(), "field frame must shrink on the wire");
        let raw_prefix = u32::from_le_bytes(wire[..4].try_into().unwrap());
        assert!(raw_prefix & COMPRESSED_FLAG != 0);
        assert_eq!(read_all(wire).unwrap(), [f]);
    }

    #[test]
    fn corrupt_compressed_frames_are_io_errors_not_panics() {
        let f = field_frame(256, 0.0);
        let wire = wire_bytes(&f, WireCompression::Transpose);
        // Flip a byte in the image body and lie about the decoded size.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(read_all(bad).is_err());
        let mut huge = wire.to_vec();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // decoded-length header
        assert!(read_all(huge).is_err());
    }

    /// A reader that hands its bytes out in the given portions, one per
    /// `read` — the way a socket delivers a stream in arbitrary pieces.
    struct Portions {
        wire: Vec<u8>,
        at: usize,
        sizes: std::vec::IntoIter<usize>,
    }

    impl Read for Portions {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let left = self.wire.len() - self.at;
            let n = self.sizes.next().unwrap_or(left).min(left).min(buf.len());
            buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn block_reader_carves_the_same_elements_however_the_stream_is_cut() {
        // Small frames, an empty one, flush requests, one frame longer
        // than a block and one that fills most of a block (shared) — cut
        // mid-prefix, mid-body and across block boundaries.
        let frames: Vec<Bytes> = [5usize, 0, 8192, READ_BLOCK + 77, 3, READ_BLOCK / 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &n)| Bytes::from((0..n).map(|k| (k * 31 + i) as u8).collect::<Vec<u8>>()))
            .collect();
        let mut wire = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            wire.extend_from_slice(&wire_bytes(f, WireCompression::Off));
            if i % 3 == 1 {
                wire.extend_from_slice(&FLUSH_WIRE);
            }
        }
        for portion in [1usize, 2, 3, 7, 4095, 8200, 100_000, usize::MAX] {
            let n_reads = wire.len() / portion.min(wire.len()) + 2;
            let stream = Portions {
                wire: wire.clone(),
                at: 0,
                sizes: vec![portion; n_reads].into_iter(),
            };
            let mut reader = BlockReader::new(stream, Arc::default());
            let (mut items, mut flushes_before) = (Vec::new(), Vec::new());
            while reader.read_run(&mut items, MAX_DATA_FRAME).unwrap() {}
            let mut got = Vec::new();
            for item in items {
                match item {
                    WireItem::Frame(f) => got.push(f),
                    WireItem::FlushRequest => flushes_before.push(got.len()),
                }
            }
            assert_eq!(got, frames, "portion {portion}");
            assert_eq!(flushes_before, [2, 5], "portion {portion}");
        }
        // An EOF inside an element is an error, not a clean end.
        for cut in [2, 4 + 3, wire.len() - 1] {
            assert!(read_all(wire[..cut].to_vec()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn a_full_read_shares_its_block_and_a_sparse_one_keeps_it() {
        let big = Bytes::from(vec![7u8; READ_BLOCK / 2]);
        let mut wire = wire_bytes(&big, WireCompression::Off);
        wire.extend_from_slice(&wire_bytes(&frame(b"tiny"), WireCompression::Off));
        let stream = Portions {
            wire,
            at: 0,
            sizes: vec![4 + big.len()].into_iter(),
        };
        let mut reader = BlockReader::new(stream, Arc::default());
        let mut items = Vec::new();
        let first_block = reader.block.as_ptr();
        assert!(reader.read_run(&mut items, MAX_DATA_FRAME).unwrap());
        match &items[..] {
            [WireItem::Frame(f)] => {
                assert_eq!(f, &big);
                // Zero-copy: the frame is the block's bytes past the prefix.
                assert_eq!(f.as_ptr(), first_block.wrapping_add(4));
            }
            _ => panic!("expected exactly the big frame"),
        }
        // Reading went on in a fresh block; eight bytes do not take it along.
        let second_block = reader.block.as_ptr();
        assert_ne!(second_block, first_block);
        assert!(reader.read_run(&mut items, MAX_DATA_FRAME).unwrap());
        assert!(matches!(&items[1], WireItem::Frame(f) if f == &frame(b"tiny")));
        assert_eq!(reader.block.as_ptr(), second_block);
        assert!(!reader.read_run(&mut items, MAX_DATA_FRAME).unwrap());
    }

    #[test]
    fn a_burst_of_compressed_frames_is_one_block_out_and_one_block_in() {
        // Field frames that shrink, noise that does not, a frame too
        // short to try and a flush marker, as one burst.
        let mut frames: Vec<Frame> = (0..6).map(|i| field_frame(512, i as f64 * 0.1)).collect();
        frames.insert(2, noise_frame(4096));
        frames.insert(4, frame(b"short"));
        frames.insert(5, flush_marker());
        let io = WireIo::default();
        let mut staged = Vec::new();
        let room = frames.iter().map(|f| f.len()).sum();
        let block = stage_burst(
            &mut frames.iter().cloned(),
            WireCompression::Transpose,
            &mut PlaneScratch::default(),
            room,
            &mut staged,
            &io,
        )
        .expect("six frames shrank");
        assert_eq!(staged.len(), frames.len());
        let mut wire = Vec::new();
        let mut next_image = block.as_ptr();
        for (queued, (staged, image)) in frames.iter().zip(staged) {
            assert_eq!(staged.as_ptr(), queued.as_ptr());
            if is_flush_marker(&staged) {
                assert!(image.is_none());
                wire.extend_from_slice(&FLUSH_WIRE);
                continue;
            }
            let shrank = image.is_some();
            assert_eq!(shrank, queued.len() > 4096, "{} bytes", queued.len());
            let image = WireImage::new(staged, image, Some(&block));
            if shrank {
                // Windows onto the one block, end to end.
                assert_eq!(image.body.as_ptr(), next_image);
                next_image = next_image.wrapping_add(image.body.len());
            } else {
                assert_eq!(image.body.as_ptr(), queued.as_ptr());
            }
            wire.extend_from_slice(&image.prefix);
            wire.extend_from_slice(&image.body);
        }
        assert_eq!(next_image, block.as_ptr().wrapping_add(block.len()));
        let data_bytes: u64 =
            frames.iter().map(|f| f.len() as u64).sum::<u64>() - flush_marker().len() as u64;
        assert_eq!(io.codec_bytes_in.load(Ordering::Relaxed), data_bytes);
        assert_eq!(
            io.codec_bytes_out.load(Ordering::Relaxed),
            (wire.len() - 4 * frames.len()) as u64
        );
        assert_eq!(io.codec_raw_frames.load(Ordering::Relaxed), 2);

        // The reader decodes the six into one block of their own.
        let mut reader = BlockReader::new(std::io::Cursor::new(wire), Arc::default());
        let mut items = Vec::new();
        assert!(reader.read_run(&mut items, MAX_DATA_FRAME).unwrap());
        let got: Vec<&Bytes> = items
            .iter()
            .filter_map(|item| match item {
                WireItem::Frame(frame) => Some(frame),
                WireItem::FlushRequest => None,
            })
            .collect();
        let sent: Vec<&Bytes> = frames.iter().filter(|f| !is_flush_marker(f)).collect();
        assert_eq!(got, sent);
        let restored: Vec<&&Bytes> = got.iter().filter(|f| f.len() > 4096).collect();
        for pair in restored.windows(2) {
            assert_eq!(
                pair[1].as_ptr(),
                pair[0].as_ptr().wrapping_add(pair[0].len()),
                "restored payloads lie end to end in one block"
            );
        }
    }

    #[test]
    fn codec_counters_match_the_link_stats_less_framing() {
        let mut config = TcpTransportConfig::local();
        config.compression = WireCompression::Transpose;
        let t = TcpTransport::with_config(config).unwrap();
        let rx = t.bind("counted", 64);
        let tx = t.connect("counted").unwrap();
        // Frames that shrink, one that does not, one too short to try.
        let mut frames: Vec<Frame> = (0..20).map(|i| field_frame(512, i as f64 * 0.1)).collect();
        frames.push(noise_frame(999));
        frames.push(frame(b"tiny"));
        let mut batch: VecDeque<Frame> = frames.iter().cloned().collect();
        tx.send_batch(&mut batch, Duration::from_secs(5)).unwrap();
        tx.flush(Duration::from_secs(5)).unwrap();
        for f in &frames {
            assert_eq!(&rx.recv_timeout(Duration::from_secs(5)).unwrap(), f);
        }
        let link = &t.link_stats()[0].1;
        let io = t.wire_io();
        assert_eq!(io.codec_bytes_in, link.bytes);
        assert_eq!(io.codec_bytes_out, link.wire_bytes - 4 * link.messages);
        assert_eq!(io.codec_raw_frames, 2);
        assert!(io.codec_encode_nanos > 0 && io.codec_decode_nanos > 0);
        // A link that did not negotiate the codec counts nothing.
        let plain = TcpTransport::new().unwrap();
        let rx = plain.bind("uncounted", 4);
        plain
            .connect("uncounted")
            .unwrap()
            .send(frames[0].clone())
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let io = plain.wire_io();
        assert_eq!(
            (
                io.codec_bytes_in,
                io.codec_encode_nanos,
                io.codec_decode_nanos
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn link_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(next_link_id()), "link id collision");
        }
    }
}
