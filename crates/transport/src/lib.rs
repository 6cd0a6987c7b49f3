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
//!   [`link_stats`](Transport::link_stats) backpressure rollup;
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
//! [`directory::names`].  Single-server deployments use the unscoped
//! names (`"server/main"`, `"server/<w>"`, `"launcher"`); a sharded
//! multi-server study prefixes every endpoint of shard `k` with
//! `"shard<k>/"` ([`directory::names::shard_scope`]), so `N` complete
//! server instances — handshake endpoint, worker data endpoints and a
//! per-shard launcher control inbox — coexist in **one** name space
//! without collisions.
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
//!   any backend, including the directory-resolved self-healing path).
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
pub mod tcp;

pub use api::{
    make_transport, make_transport_with, BoxReceiver, BoxSender, ConnectError, Disconnected,
    LinkStatsSnapshot, Receiver, RecvTimeoutError, SendBatchError, SendTimeoutError, Sender,
    Transport, TransportKind, TryRecvError,
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
