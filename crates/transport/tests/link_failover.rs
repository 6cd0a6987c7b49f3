//! Link-failure tests over real sockets, on a single node and across
//! directory-resolved nodes.  The contract: a killed connection fails its
//! link — queued sends, later sends and a waiting [`Sender::flush`] fail
//! with a disconnect at once — and what arrived before the loss is an
//! in-order prefix of what was sent, with no duplicate.  Nothing is
//! resent; recovering the lost frames is the study's job (the failed
//! group is relaunched and the server discards what it replays).

use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use melissa_transport::api::FlushError;
use melissa_transport::{
    BoxReceiver, ConnectError, DirectoryServer, FaultPolicy, FaultySender, KillSwitch, Sender,
    TcpTransport, TcpTransportConfig, Transport, WireCompression,
};

const RECV_DEADLINE: Duration = Duration::from_secs(20);

/// One deployment fixture: a directory plus two nodes resolving through
/// it (a "server" node that binds and a "client" node that connects).
struct TwoNodes {
    _directory: DirectoryServer,
    server: Arc<TcpTransport>,
    client: Arc<TcpTransport>,
}

fn two_nodes() -> TwoNodes {
    let directory =
        DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).expect("directory listener");
    let addr = directory.local_addr().to_string();
    let server =
        Arc::new(TcpTransport::with_config(TcpTransportConfig::node(&addr)).expect("server node"));
    let client =
        Arc::new(TcpTransport::with_config(TcpTransportConfig::node(&addr)).expect("client node"));
    TwoNodes {
        _directory: directory,
        server,
        client,
    }
}

fn indexed_frame(i: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    b.put_u64_le(i);
    b.put_slice(&[0xEE; 8]);
    b.freeze()
}

/// An indexed frame the wire codec shrinks: a smooth `f64` ramp behind
/// the index.
fn field_frame(i: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + 64 * 8);
    b.put_u64_le(i);
    for k in 0..64 {
        b.put_f64_le(300.0 + 0.25 * (i as f64 + k as f64 / 64.0));
    }
    b.freeze()
}

fn frame_index(f: &Bytes) -> u64 {
    u64::from_le_bytes(f[..8].try_into().expect("indexed frame"))
}

#[test]
fn names_resolve_across_nodes_through_the_directory() {
    let nodes = two_nodes();
    let rx = nodes.server.bind("shard0/server/0", 8);
    // The client node never bound anything: the frame crosses two real
    // listeners via the directory.
    let tx = nodes
        .client
        .connect_retry("shard0/server/0", Duration::from_secs(5))
        .expect("directory-resolved connect");
    tx.send(Bytes::from_static(b"cross-node")).unwrap();
    assert_eq!(&rx.recv_timeout(RECV_DEADLINE).unwrap()[..], b"cross-node");
    assert_eq!(nodes.client.backend_name(), "tcp-node");
}

/// Streams indexed frames over a link into `rx` until a send fails,
/// cuts the link's connection once `before_cut` frames have arrived, and
/// returns what arrived and how many sends succeeded.
fn stream_until_cut(
    server: &TcpTransport,
    client: &TcpTransport,
    (name, rx): (&str, &BoxReceiver),
    before_cut: u64,
) -> (Vec<u64>, u64) {
    let tx = client
        .connect_retry(name, Duration::from_secs(5))
        .expect("connect");
    let sender = std::thread::spawn(move || {
        let mut sent = 0;
        while tx.send(field_frame(sent)).is_ok() {
            sent += 1;
        }
        // Dead for good: a flush fails too.
        assert!(tx.flush(Duration::from_secs(30)).is_err());
        sent
    });
    let mut got: Vec<u64> = (0..before_cut)
        .map(|_| frame_index(&rx.recv_timeout(RECV_DEADLINE).expect("streaming")))
        .collect();
    assert_eq!(server.sever_connections(name), 1, "one live connection");
    let sent = sender.join().expect("the sender saw its link die");
    while let Ok(f) = rx.recv_timeout(Duration::from_millis(300)) {
        got.push(frame_index(&f));
    }
    (got, sent)
}

#[test]
fn a_killed_connection_fails_its_link_and_delivers_an_in_order_prefix() {
    for compression in [WireCompression::Off, WireCompression::Transpose] {
        let nodes = two_nodes();
        let mut config = TcpTransportConfig::node(&nodes._directory.local_addr().to_string());
        config.compression = compression;
        let client = Arc::new(TcpTransport::with_config(config).expect("client node"));
        let rx = nodes.server.bind("data", 16);
        let (got, sent) = stream_until_cut(&nodes.server, &client, ("data", &rx), 200);
        assert_eq!(
            got,
            (0..got.len() as u64).collect::<Vec<_>>(),
            "{compression:?}: a gap or a duplicate"
        );
        assert!(
            got.len() as u64 <= sent,
            "{compression:?}: {} frames arrived of {sent} sent",
            got.len()
        );
        // The codec was on exactly when negotiated, and shrank the frames.
        let io = client.wire_io();
        match compression {
            WireCompression::Off => assert_eq!(io.codec_bytes_in, 0),
            _ => assert!(io.codec_bytes_out < io.codec_bytes_in / 2, "{io:?}"),
        }
        // Nothing heals the dead link; a new connect makes a new one.
        let tx = client.connect("data").expect("connect again");
        tx.send(field_frame(u64::MAX)).unwrap();
        tx.flush(Duration::from_secs(5)).expect("a new link works");
        let rest = std::iter::from_fn(|| rx.try_recv().ok()).map(|f| frame_index(&f));
        assert_eq!(rest.last(), Some(u64::MAX));
    }
}

#[test]
fn a_connection_lost_while_a_flush_waits_fails_the_flush_at_once() {
    // One node, an endpoint of HWM 1 nobody drains: the acceptor blocks
    // on the full ingest queue, so the flush request is never answered.
    let node = TcpTransport::new().expect("node");
    let _rx = node.bind("stuck", 1);
    let tx = node.connect("stuck").expect("connect");
    for i in 0..4 {
        tx.send(indexed_frame(i)).unwrap();
    }
    let flusher = {
        let tx = tx.clone_box();
        std::thread::spawn(move || {
            let waited = std::time::Instant::now();
            let flushed = tx.flush(Duration::from_secs(30));
            (flushed, waited.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(!flusher.is_finished(), "nothing acknowledged the flush");
    assert_eq!(node.sever_connections("stuck"), 1);
    let (flushed, waited) = flusher.join().expect("flusher");
    assert_eq!(flushed, Err(FlushError::Disconnected));
    assert!(
        waited < Duration::from_secs(2),
        "the flush waited {waited:?} on a dead link"
    );
    assert!(
        tx.send(indexed_frame(4)).is_err(),
        "the dead link took a send"
    );
}

#[test]
fn faulty_sender_kill_still_means_death_despite_self_healing_links() {
    // A KillSwitch models the *process* dying over a live node link: the
    // link is fine, and still nothing goes through.
    let nodes = two_nodes();
    let _rx = nodes.server.bind("killed", 16);
    let tx = nodes
        .client
        .connect_retry("killed", Duration::from_secs(5))
        .expect("connect");
    let kill = KillSwitch::new();
    let faulty = FaultySender::new(tx, FaultPolicy::default(), kill.clone());
    faulty.send(indexed_frame(0)).unwrap();
    kill.kill();
    assert!(faulty.send(indexed_frame(1)).is_err());
    assert!(faulty.flush(Duration::from_secs(1)).is_err());
}

#[test]
fn mis_scoped_endpoint_names_the_directory_in_its_failure() {
    let nodes = two_nodes();
    let _rx = nodes.server.bind("shard0/server/main", 8);
    // Connecting to a shard that was never deployed must not melt into a
    // generic retry-exhausted timeout: the error carries the looked-up
    // name and the directory that was asked.
    let err = nodes
        .client
        .connect_retry("shard7/server/main", Duration::from_millis(300))
        .expect_err("mis-scoped endpoint cannot resolve");
    match err {
        ConnectError::NameNotFound { name, directory } => {
            assert_eq!(name, "shard7/server/main");
            assert_eq!(directory, nodes._directory.local_addr().to_string());
        }
        other => panic!("expected NameNotFound, got {other:?} ({other})"),
    }
}

#[test]
fn lease_heartbeat_keeps_names_alive_under_a_short_lease_directory() {
    // Lease shorter than the test, renewal faster than the lease: the
    // name must stay resolvable the whole time.
    let directory =
        DirectoryServer::bind("127.0.0.1:0", Duration::from_millis(300)).expect("directory");
    let addr = directory.local_addr().to_string();
    let mut cfg = TcpTransportConfig::node(&addr);
    cfg.lease_renew = Duration::from_millis(50);
    let server = TcpTransport::with_config(cfg).expect("server node");
    let client = TcpTransport::with_config(TcpTransportConfig::node(&addr)).expect("client node");
    let rx = server.bind("leased", 8);
    std::thread::sleep(Duration::from_millis(900)); // several lease windows
    let tx = client
        .connect("leased")
        .expect("renewed lease keeps the name resolvable");
    tx.send(Bytes::from_static(b"alive")).unwrap();
    assert_eq!(&rx.recv_timeout(RECV_DEADLINE).unwrap()[..], b"alive");
}
