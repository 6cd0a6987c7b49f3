//! Melissa client: the simulation-side API (paper Section 4.1.3).
//!
//! Melissa keeps intrusion into the simulation code minimal — three calls:
//! [`GroupClient::connect`] (the *Initialise* function: dynamic connection
//! and partition retrieval), [`GroupClient::send_timestep`] +
//! [`GroupClient::end_timestep`] (the *Process* function: two-stage
//! gather + N×M redistribution, handed to the links once per timestep),
//! and [`GroupClient::finish`] / dropping the client (the *Finalize*
//! function: flush and disconnect).
//!
//! *Process* is a **per-timestep hand-off**.  `send_timestep` only
//! encodes: each `Data` frame is written in one pass from the caller's
//! borrowed rank chunk into the block of the server worker it is for, the
//! frames of one timestep lying end to end.  `end_timestep` then gives
//! every worker its block as one batch of frames that are windows onto it
//! ([`Sender::send_batch`]) — the same frames, in the same per-link order
//! and with the same bytes as a send per frame, at one allocation, one
//! queue hand-off and at most one wake-up of the receiving side per
//! timestep and worker.
//!
//! [`Sender::send_batch`]: melissa_transport::Sender::send_batch
//!
//! The client speaks only the backend-agnostic [`Transport`] /
//! [`melissa_transport::Sender`] trait surface, so a group connects the
//! same way whether the deployment runs in-process or over TCP.  The
//! group's [`KillSwitch`] is checked before every hand-off and every
//! flush, so a killed group stops sending at the next worker's batch.
//!
//! Stage 1 of the transfer (gathering each rank's chunk from the `p + 2`
//! simulations onto the main simulation) is performed by the caller, who
//! owns the simulations; stage 2 (slab-intersecting redistribution to the
//! server workers) happens here.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::BytesMut;
use melissa_mesh::{CellRange, SlabPartition};
use melissa_transport::directory::names;
use melissa_transport::{BoxSender, Frame, KillSwitch, Transport};

use crate::protocol::{DataHeader, Message};

/// Client-side connection failure.
#[derive(Debug)]
pub enum ClientError {
    /// The server endpoint is not bound (server down or not yet up).
    ServerUnavailable,
    /// No `ConnectReply` within the timeout.
    HandshakeTimeout,
    /// The handshake reply arrived but was not a well-formed
    /// `ConnectReply` — a wire bug or protocol mismatch, *not* a timeout.
    BadHandshake {
        /// What was wrong with the reply.
        detail: String,
    },
    /// The deployment directory does not know the endpoint: a mis-scoped
    /// name (e.g. a group routed to a shard that was never deployed), or
    /// the owning node's lease lapsed.  Names the looked-up key and the
    /// directory address, so a configuration error reads as one instead
    /// of a generic retry-exhausted timeout.
    NameNotFound {
        /// The endpoint name that was looked up.
        name: String,
        /// The directory it was looked up in.
        directory: String,
    },
    /// A data send failed (server worker gone) or timed out on a full
    /// buffer — the group treats this as its own failure and exits; the
    /// launcher will restart it.
    SendFailed,
    /// The group's kill switch flipped mid-send.
    Killed,
    /// A multi-tenant service refused the connection because the tenant
    /// is over one of its admission quotas.  Unlike
    /// [`ServerUnavailable`](Self::ServerUnavailable) this is *not*
    /// retryable-by-waiting at the same pressure: the tenant must finish
    /// (or cancel) existing work first.
    QuotaExceeded {
        /// The tenant whose quota was exhausted.
        tenant: String,
        /// Which quota: `"queue"`, `"studies"`, `"groups"` or `"units"`.
        resource: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ServerUnavailable => write!(f, "server unavailable"),
            ClientError::HandshakeTimeout => write!(f, "connection handshake timed out"),
            ClientError::BadHandshake { detail } => {
                write!(f, "malformed connection handshake reply: {detail}")
            }
            ClientError::NameNotFound { name, directory } => {
                write!(
                    f,
                    "endpoint '{name}' not published in directory {directory}"
                )
            }
            ClientError::SendFailed => write!(f, "data send failed"),
            ClientError::Killed => write!(f, "killed"),
            ClientError::QuotaExceeded { tenant, resource } => {
                write!(f, "tenant '{tenant}' exceeded its {resource} quota")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A transport connect failure: a directory miss keeps its identity (the
/// mis-scoped name and where it was looked up), an admission rejection
/// keeps the tenant and the exhausted resource; everything else is the
/// generic retryable "server unavailable".
impl From<melissa_transport::ConnectError> for ClientError {
    fn from(e: melissa_transport::ConnectError) -> Self {
        match e {
            melissa_transport::ConnectError::NameNotFound { name, directory } => {
                ClientError::NameNotFound { name, directory }
            }
            melissa_transport::ConnectError::QuotaExceeded { tenant, resource } => {
                ClientError::QuotaExceeded { tenant, resource }
            }
            _ => ClientError::ServerUnavailable,
        }
    }
}

/// One server worker's share of the timestep being encoded.
#[derive(Debug, Default)]
struct Staged {
    /// The frames, end to end.
    block: BytesMut,
    /// Where each frame ends in `block`.
    ends: Vec<usize>,
}

/// A connected simulation-group client.
#[derive(Debug)]
pub struct GroupClient {
    group_id: u64,
    instance: u32,
    partition: SlabPartition,
    senders: Vec<BoxSender>,
    /// Per server worker, what [`send_timestep`](Self::send_timestep) has
    /// encoded since the last [`end_timestep`](Self::end_timestep).
    staged: Vec<Staged>,
    /// The hand-off queue, reused from batch to batch.
    batch: VecDeque<Frame>,
    send_timeout: Duration,
    kill: KillSwitch,
    /// Messages sent so far.
    pub messages_sent: u64,
    /// Payload bytes sent so far.
    pub bytes_sent: u64,
}

impl GroupClient {
    /// *Initialise*: binds a reply endpoint, asks the server main process
    /// for partition information, then opens direct connections to every
    /// server worker.
    ///
    /// Connecting to the server main endpoint uses the transport's
    /// bounded-retry rendezvous ([`Transport::connect_retry`]), so a group
    /// job scheduled before the server finishes binding simply waits — the
    /// connect-before-bind semantics real deployments rely on.
    ///
    /// `scope` selects the server instance: empty for the classic
    /// single-server deployment, or a shard prefix (`"shard<k>"`) in a
    /// sharded study, where the group-hash router decides which shard
    /// ingests this group.
    pub fn connect(
        transport: &dyn Transport,
        scope: &str,
        group_id: u64,
        instance: u32,
        reply_hwm: usize,
        timeout: Duration,
        kill: KillSwitch,
    ) -> Result<GroupClient, ClientError> {
        let reply_name = names::group_reply_in(scope, group_id, instance);
        let reply_rx = transport.bind(&reply_name, reply_hwm.max(1));
        let handshake = || -> Result<_, ClientError> {
            let main_tx = transport.connect_retry(&names::server_main_in(scope), timeout)?;
            main_tx
                .send(Message::ConnectRequest { group_id, instance }.encode())
                .map_err(|_| ClientError::ServerUnavailable)?;
            reply_rx
                .recv_timeout(timeout)
                .map_err(|_| ClientError::HandshakeTimeout)
        };
        // The reply endpoint goes whichever way the handshake ends.
        let reply = handshake();
        transport.unbind(&reply_name);
        let reply = reply?;
        let (n_workers, n_cells) = match Message::decode(&reply) {
            Ok(Message::ConnectReply {
                n_workers, n_cells, ..
            }) => (n_workers, n_cells),
            Ok(other) => {
                return Err(ClientError::BadHandshake {
                    detail: format!("unexpected message {other:?}"),
                })
            }
            Err(e) => {
                return Err(ClientError::BadHandshake {
                    detail: format!("undecodable frame: {e}"),
                })
            }
        };

        let partition = SlabPartition::new(n_cells as usize, n_workers as usize);
        let senders = (0..n_workers as usize)
            .map(|w| transport.connect(&names::server_worker_in(scope, w)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ClientError::from)?;
        Ok(GroupClient {
            group_id,
            instance,
            partition,
            staged: senders.iter().map(|_| Staged::default()).collect(),
            senders,
            batch: VecDeque::new(),
            send_timeout: timeout,
            kill,
            messages_sent: 0,
            bytes_sent: 0,
        })
    }

    /// The group id this client serves.
    pub fn group_id(&self) -> u64 {
        self.group_id
    }

    /// The server's slab partition (for tests).
    pub fn partition(&self) -> &SlabPartition {
        &self.partition
    }

    /// *Process*, stage 2: redistributes one role's gathered rank chunks
    /// among the server workers.  `chunks` are `(global range, values)`
    /// pairs as produced by the solver's rank decomposition; each chunk is
    /// split along the static slab intersections (paper Fig. 4) and each
    /// piece encoded, straight from the borrowed slice, behind the frames
    /// already waiting for its worker.  Nothing leaves before
    /// [`end_timestep`](Self::end_timestep).
    pub fn send_timestep(
        &mut self,
        role: u16,
        timestep: u32,
        chunks: &[(CellRange, Vec<f64>)],
    ) -> Result<(), ClientError> {
        if self.kill.is_killed() {
            return Err(ClientError::Killed);
        }
        for (range, values) in chunks {
            debug_assert_eq!(range.len, values.len());
            for (worker, sub) in self.partition.redistribution(*range) {
                let offset = sub.start - range.start;
                let values = &values[offset..offset + sub.len];
                let header = DataHeader {
                    group_id: self.group_id,
                    instance: self.instance,
                    role,
                    timestep,
                    start: sub.start as u64,
                };
                let staged = &mut self.staged[worker];
                header.encode_frame(&mut staged.block, values);
                staged.ends.push(staged.block.len());
            }
        }
        Ok(())
    }

    /// *Process*, hand-off: gives every server worker the frames encoded
    /// for it since the last call, as one batch in encoding order.
    pub fn end_timestep(&mut self) -> Result<(), ClientError> {
        for (staged, sender) in self.staged.iter_mut().zip(&self.senders) {
            if staged.ends.is_empty() {
                continue;
            }
            if self.kill.is_killed() {
                return Err(ClientError::Killed);
            }
            // The next timestep's block will be as long as this one.
            let next = BytesMut::with_capacity(staged.block.len());
            let block = std::mem::replace(&mut staged.block, next).freeze();
            let mut from = 0;
            for end in staged.ends.drain(..) {
                self.batch.push_back(block.slice(from..end));
                from = end;
            }
            let n_frames = self.batch.len();
            let payload_bytes = block.len() - n_frames * DataHeader::ENCODED_LEN;
            if sender
                .send_batch(&mut self.batch, self.send_timeout)
                .is_err()
            {
                self.batch.clear();
                return Err(if self.kill.is_killed() {
                    ClientError::Killed
                } else {
                    ClientError::SendFailed
                });
            }
            self.messages_sent += n_frames as u64;
            self.bytes_sent += payload_bytes as u64;
        }
        Ok(())
    }

    /// *Finalize*: hands off whatever is still staged, then flushes every
    /// data link, guaranteeing the group's frames sit in the server
    /// workers' ingest queues before the job reports completion.
    /// In-process this is immediate; over TCP it round-trips a barrier
    /// per link — which is what pins the ingest order of sequential
    /// studies and makes their statistics bit-identical across backends.
    pub fn finish(&mut self) -> Result<(), ClientError> {
        self.end_timestep()?;
        for sender in &self.senders {
            if self.kill.is_killed() {
                return Err(ClientError::Killed);
            }
            sender
                .flush(self.send_timeout)
                .map_err(|_| ClientError::SendFailed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_transport::ChannelTransport;

    // Handshake and send paths are exercised end-to-end in the server
    // integration tests; here we cover the failure modes that need no
    // server.

    /// A failed connect fails fast and takes its reply endpoint with it,
    /// on both backends.
    #[test]
    fn connect_without_server_fails_fast() {
        use melissa_transport::{make_transport, TransportKind};
        for kind in [TransportKind::InProcess, TransportKind::Tcp] {
            let transport = make_transport(kind);
            let before = transport.bound_names();
            let err = GroupClient::connect(
                transport.as_ref(),
                "shard3",
                1,
                0,
                8,
                Duration::from_millis(50),
                KillSwitch::new(),
            )
            .unwrap_err();
            assert!(matches!(err, ClientError::ServerUnavailable));
            assert_eq!(transport.bound_names(), before);
        }
    }

    #[test]
    fn handshake_timeout_when_server_main_is_silent() {
        let transport = ChannelTransport::new();
        // Bind server/main but never answer.
        let _main_rx = transport.bind(&names::server_main_in(""), 8);
        let before = transport.bound_names();
        let err = GroupClient::connect(
            &transport,
            "",
            1,
            0,
            8,
            Duration::from_millis(50),
            KillSwitch::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::HandshakeTimeout));
        assert_eq!(transport.bound_names(), before);
    }

    #[test]
    fn malformed_handshake_reply_is_bad_handshake_not_timeout() {
        let transport = ChannelTransport::new();
        let main_rx = transport.bind(&names::server_main_in(""), 8);
        // A fake server main that answers the handshake with garbage.
        let t2 = transport.clone();
        let fake_server = std::thread::spawn(move || {
            let req = main_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("connect request");
            let (group_id, instance) = match Message::decode(&req) {
                Ok(Message::ConnectRequest { group_id, instance }) => (group_id, instance),
                other => panic!("unexpected request {other:?}"),
            };
            let reply_tx = t2
                .connect(&names::group_reply_in("", group_id, instance))
                .expect("reply endpoint");
            reply_tx
                .send(bytes::Bytes::from_static(&[255, 1, 2, 3]))
                .unwrap();
        });
        let err = GroupClient::connect(
            &transport,
            "",
            1,
            0,
            8,
            Duration::from_secs(5),
            KillSwitch::new(),
        )
        .unwrap_err();
        fake_server.join().unwrap();
        assert!(
            matches!(err, ClientError::BadHandshake { .. }),
            "wire bug misreported as {err:?}"
        );
    }

    #[test]
    fn wrong_message_type_in_handshake_is_bad_handshake() {
        let transport = ChannelTransport::new();
        let main_rx = transport.bind(&names::server_main_in(""), 8);
        let t2 = transport.clone();
        let fake_server = std::thread::spawn(move || {
            let req = main_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("connect request");
            let (group_id, instance) = match Message::decode(&req) {
                Ok(Message::ConnectRequest { group_id, instance }) => (group_id, instance),
                other => panic!("unexpected request {other:?}"),
            };
            let reply_tx = t2
                .connect(&names::group_reply_in("", group_id, instance))
                .expect("reply endpoint");
            // A decodable message of the wrong kind.
            reply_tx.send(Message::ServerReady.encode()).unwrap();
        });
        let err = GroupClient::connect(
            &transport,
            "",
            1,
            0,
            8,
            Duration::from_secs(5),
            KillSwitch::new(),
        )
        .unwrap_err();
        fake_server.join().unwrap();
        match err {
            ClientError::BadHandshake { detail } => {
                assert!(detail.contains("ServerReady"), "detail: {detail}")
            }
            other => panic!("wire bug misreported as {other:?}"),
        }
    }
}
