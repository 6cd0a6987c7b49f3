//! A crashed server stops at once and integrates nothing after the
//! crash, on both backends.  Its workers wait for frames with no timeout,
//! so what ends them is the frame the crash sends each loop.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::BytesMut;
use melissa::protocol::DataHeader;
use melissa::server::{Server, ServerConfig, ServerShared};
use melissa_transport::directory::names;
use melissa_transport::{make_transport, BoxReceiver, Transport, TransportKind};

const N_CELLS: usize = 8;

fn start(kind: TransportKind) -> (Arc<dyn Transport>, Server, BoxReceiver) {
    let transport: Arc<dyn Transport> = make_transport(kind);
    let launcher_rx = transport.bind(&names::launcher_in(""), 64);
    let launcher_tx = transport.connect(&names::launcher_in("")).unwrap();
    let config = ServerConfig {
        scope: String::new(),
        n_workers: 2,
        n_cells: N_CELLS,
        p: 1,
        n_timesteps: 1,
        hwm: 16,
        group_timeout: Duration::from_secs(60),
        checkpoint_interval: Duration::from_secs(3600),
        checkpoint_dir: PathBuf::from("unused-no-checkpoint-is-written"),
        report_interval: Duration::from_secs(3600),
        track_ci: false,
        ci_variance_floor: 1e-12,
        restore: false,
        thresholds: Vec::new(),
        quantile_probs: Vec::new(),
        telemetry: None,
    };
    let server = Server::start(config, Arc::clone(&transport), launcher_tx);
    (transport, server, launcher_rx)
}

/// Abandons `server` on a thread of its own and fails the test if that
/// does not return within `limit` (a worker still asleep would hang it).
fn abandon_within(server: Server, limit: Duration) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.abandon();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(limit)
        .expect("abandon returned: every loop woke on the crash");
}

fn integrated(shared: &ServerShared) -> u64 {
    shared.messages_received.load(Ordering::Relaxed)
}

#[test]
fn an_abandoned_server_with_idle_workers_returns_and_discards_their_states() {
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let (_transport, server, _launcher_rx) = start(kind);
        let shared = Arc::clone(server.shared());
        abandon_within(server, Duration::from_secs(20));
        assert_eq!(integrated(&shared), 0);
        assert_eq!(shared.checkpoints_written.load(Ordering::Relaxed), 0);
    }
}

#[test]
fn a_crashed_servers_workers_integrate_no_frame_after_the_crash() {
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let (transport, server, _launcher_rx) = start(kind);
        let shared = Arc::clone(server.shared());
        server.crash();
        assert!(server.crashed());
        // One whole group, both roles of its one timestep, on each worker.
        for w in 0..2 {
            let tx = transport.connect(&names::server_worker_in("", w)).unwrap();
            for role in 0..3u16 {
                let header = DataHeader {
                    group_id: 1,
                    instance: 0,
                    role,
                    timestep: 0,
                    start: (w * N_CELLS / 2) as u64,
                };
                let mut frame = BytesMut::new();
                header.encode_frame(&mut frame, &[1.0; N_CELLS / 2]);
                let _ = tx.send_timeout(frame.freeze(), Duration::from_secs(1));
            }
            let _ = tx.flush(Duration::from_millis(250));
        }
        abandon_within(server, Duration::from_secs(20));
        assert_eq!(integrated(&shared), 0);
        assert!(shared.finished_groups().is_empty());
    }
}
