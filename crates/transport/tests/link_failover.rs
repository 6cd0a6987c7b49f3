//! Link-failure tests over the directory-resolved multi-node path: an
//! established TCP connection killed mid-stream must heal (resolve →
//! re-dial with backoff → idempotent re-handshake → resume) and deliver
//! **every frame exactly once**, in order — including through the
//! [`Sender::flush`] delivery barrier and composed with the
//! deterministic fault-injection layer ([`FaultySender`]).

use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use melissa_transport::{
    ConnectError, DirectoryServer, FaultPolicy, FaultySender, KillSwitch, Sender, TcpTransport,
    TcpTransportConfig, Transport, WireCompression,
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

#[test]
fn killed_connection_mid_stream_delivers_every_frame_exactly_once() {
    let nodes = two_nodes();
    let rx = nodes.server.bind("data", 16);
    let tx = nodes
        .client
        .connect_retry("data", Duration::from_secs(5))
        .expect("connect");

    const N: u64 = 1200;
    let sender = {
        let tx = tx.clone_box();
        std::thread::spawn(move || {
            for i in 0..N {
                tx.send(indexed_frame(i)).expect("send through failover");
                if i % 150 == 0 {
                    // Give the kill injection stream positions to bite at.
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            tx.flush(Duration::from_secs(30)).expect("final barrier");
        })
    };
    // Kill the established connection three times while the stream runs.
    let killer = {
        let server = Arc::clone(&nodes.server);
        std::thread::spawn(move || {
            let mut cut = 0usize;
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(40));
                cut += server.sever_connections("data");
            }
            cut
        })
    };

    for expect in 0..N {
        let f = rx
            .recv_timeout(RECV_DEADLINE)
            .unwrap_or_else(|e| panic!("frame {expect} never arrived after reconnects: {e:?}"));
        assert_eq!(
            frame_index(&f),
            expect,
            "stream must be gap-free and duplicate-free across reconnects"
        );
    }
    sender.join().expect("sender thread");
    let cut = killer.join().expect("killer thread");
    assert!(cut > 0, "the fault injection never cut a live connection");
    assert!(
        nodes.client.reconnects() > 0,
        "{cut} connections were cut but no link ever reconnected"
    );
    // Nothing extra after the final frame: exactly once, not at-least-once.
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
}

#[test]
fn connection_severed_mid_batch_delivers_every_frame_once_and_the_barrier_holds() {
    let nodes = two_nodes();
    let rx = nodes.server.bind("batched", 16);
    let tx = nodes
        .client
        .connect_retry("batched", Duration::from_secs(5))
        .expect("connect");

    // Batches four times the HWM deep: each one is in the send queue, on
    // the socket, in a read block and in the ingest queue at once, so a
    // cut always lands inside a batch.
    const BATCHES: u64 = 30;
    const PER_BATCH: u64 = 64;
    const N: u64 = BATCHES * PER_BATCH;
    let sender = {
        let tx = tx.clone_box();
        std::thread::spawn(move || {
            for b in 0..BATCHES {
                let mut batch: std::collections::VecDeque<Bytes> = (b * PER_BATCH
                    ..(b + 1) * PER_BATCH)
                    .map(indexed_frame)
                    .collect();
                tx.send_batch(&mut batch, Duration::from_secs(30))
                    .expect("batch through failover");
                if b % 5 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            tx.flush(Duration::from_secs(30)).expect("final barrier");
        })
    };
    let killer = {
        let server = Arc::clone(&nodes.server);
        std::thread::spawn(move || {
            let mut cut = 0usize;
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(25));
                cut += server.sever_connections("batched");
            }
            cut
        })
    };
    for expect in 0..N - 16 {
        let f = rx
            .recv_timeout(RECV_DEADLINE)
            .unwrap_or_else(|e| panic!("frame {expect} never arrived after reconnects: {e:?}"));
        assert_eq!(
            frame_index(&f),
            expect,
            "gap or duplicate across a reconnect"
        );
    }
    // The last 16 fit the ingest queue: once the barrier has returned
    // they are in it, not merely on their way.
    sender.join().expect("sender thread");
    let mut tail = Vec::new();
    while let Ok(f) = rx.try_recv() {
        tail.push(frame_index(&f));
    }
    assert_eq!(tail, (N - 16..N).collect::<Vec<_>>());
    assert!(killer.join().expect("killer thread") > 0, "nothing was cut");
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
}

#[test]
fn compressed_link_survives_mid_stream_sever_with_exactly_once_delivery() {
    // Same exactly-once contract as above, but with the in-frame wire
    // codec negotiated on the link and frames that actually compress: a
    // healed connection must retransmit the *compressed* unacked tail
    // byte-identically, and the resume cursor must keep counting frames
    // (not wire bytes) so nothing is lost or doubled.
    let directory =
        DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).expect("directory listener");
    let addr = directory.local_addr().to_string();
    let server =
        Arc::new(TcpTransport::with_config(TcpTransportConfig::node(&addr)).expect("server node"));
    let mut client_cfg = TcpTransportConfig::node(&addr);
    client_cfg.compression = WireCompression::Transpose;
    let client = Arc::new(TcpTransport::with_config(client_cfg).expect("client node"));

    let rx = server.bind("zipped-data", 16);
    let tx = client
        .connect_retry("zipped-data", Duration::from_secs(5))
        .expect("connect");

    // Compressible indexed frames: a smooth f64 ramp keyed by the index.
    let field_frame = |i: u64| -> Bytes {
        let mut b = BytesMut::with_capacity(8 + 64 * 8);
        b.put_u64_le(i);
        for k in 0..64 {
            let x = (i as f64) + k as f64 / 64.0;
            b.put_f64_le(300.0 + 0.25 * x);
        }
        b.freeze()
    };

    const N: u64 = 600;
    let sender = {
        let tx = tx.clone_box();
        std::thread::spawn(move || {
            for i in 0..N {
                tx.send(field_frame(i)).expect("send through failover");
                if i % 100 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            tx.flush(Duration::from_secs(30)).expect("final barrier");
        })
    };
    let killer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let mut cut = 0usize;
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(30));
                cut += server.sever_connections("zipped-data");
            }
            cut
        })
    };

    for expect in 0..N {
        let f = rx
            .recv_timeout(RECV_DEADLINE)
            .unwrap_or_else(|e| panic!("frame {expect} never arrived after reconnects: {e:?}"));
        assert_eq!(
            f,
            field_frame(expect),
            "frame {expect} must arrive bit-identical, gap-free and duplicate-free"
        );
    }
    sender.join().expect("sender thread");
    let cut = killer.join().expect("killer thread");
    assert!(cut > 0, "the fault injection never cut a live connection");
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());

    // The codec was really on: fewer wire bytes than payload bytes.
    let stats = client.link_stats();
    let link = stats
        .iter()
        .find_map(|(name, s)| (name == "zipped-data").then_some(s))
        .expect("link rollup");
    assert!(
        link.wire_bytes < link.bytes,
        "compressed link moved {} wire bytes for {} payload bytes",
        link.wire_bytes,
        link.bytes
    );
}

#[test]
fn flush_barrier_holds_across_a_killed_connection() {
    let nodes = two_nodes();
    let rx = nodes.server.bind("flush", 128);
    let tx = nodes
        .client
        .connect_retry("flush", Duration::from_secs(5))
        .expect("connect");
    for i in 0..50u64 {
        tx.send(indexed_frame(i)).unwrap();
    }
    // Cut whatever is established; the pending tail must be retransmitted
    // and the barrier re-armed on the healed connection.
    nodes.server.sever_connections("flush");
    tx.flush(Duration::from_secs(30))
        .expect("flush must survive the reconnect");
    // The barrier's contract: all 50 frames sit in the ingest queue NOW.
    let mut got = Vec::new();
    while let Ok(f) = rx.try_recv() {
        got.push(frame_index(&f));
    }
    assert_eq!(got, (0..50).collect::<Vec<_>>());
}

#[test]
fn faulty_sender_drops_compose_over_the_healed_path() {
    // The φ-sequence drop layer sits ABOVE the transport: reconnects must
    // not re-drop or re-deliver — the delivered set is exactly the frames
    // the deterministic fault policy forwards, once each.
    let nodes = two_nodes();
    let rx = nodes.server.bind("faulty", 16);
    let tx = nodes
        .client
        .connect_retry("faulty", Duration::from_secs(5))
        .expect("connect");
    let drop_probability = 0.25;
    let faulty = FaultySender::new(
        tx,
        FaultPolicy {
            drop_probability,
            delay: Duration::ZERO,
        },
        KillSwitch::new(),
    );

    const N: u64 = 600;
    const PHI: f64 = 0.618_033_988_749_894_9;
    let forwarded: Vec<u64> = (0..N)
        .filter(|&i| (i as f64 * PHI).fract() >= drop_probability)
        .collect();

    let killer = {
        let server = Arc::clone(&nodes.server);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            server.sever_connections("faulty")
        })
    };
    // Drain concurrently (the ingest queue is far smaller than the
    // stream; an undrained endpoint would turn the barrier into the HWM
    // backpressure stall it is designed to respect).
    let expected = forwarded.len();
    let drainer = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(expected);
        for _ in 0..expected {
            match rx.recv_timeout(RECV_DEADLINE) {
                Ok(f) => got.push(frame_index(&f)),
                Err(e) => panic!("stream dried up after {} frames: {e:?}", got.len()),
            }
        }
        // Nothing extra: exactly once, not at-least-once.
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        got
    });
    for i in 0..N {
        faulty.send(indexed_frame(i)).expect("send");
        if i % 100 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    faulty.flush(Duration::from_secs(30)).expect("barrier");
    killer.join().expect("killer thread");

    let got = drainer.join().expect("drainer thread");
    assert_eq!(
        got, forwarded,
        "healed path must deliver exactly the φ-forwarded frames, once each, in order"
    );
}

#[test]
fn faulty_sender_kill_still_means_death_despite_self_healing_links() {
    // A KillSwitch models the *process* dying — self-healing transport
    // links must not resurrect it.
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
