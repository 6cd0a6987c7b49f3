//! No panic reachable from the network: a running server worker is fed
//! frames no client would send — out-of-range role, timestep and cell
//! range, a value count that does not match the frame's length, every
//! prefix of a valid frame, plain noise — between the frames of a real
//! group, and must refuse each one, count it, and integrate the group
//! exactly as if the hostile frames had never arrived.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use melissa::protocol::{DataHeader, Message};
use melissa::server::state::WorkerState;
use melissa::server::{Server, ServerConfig};
use melissa_mesh::SlabPartition;
use melissa_telemetry::Telemetry;
use melissa_transport::directory::names;
use melissa_transport::{make_transport, Transport, TransportKind};

const N_CELLS: usize = 24;
const P: usize = 2;
const N_TIMESTEPS: usize = 3;

fn server_config(telemetry: Arc<Telemetry>) -> ServerConfig {
    ServerConfig {
        scope: String::new(),
        n_workers: 1,
        n_cells: N_CELLS,
        p: P,
        n_timesteps: N_TIMESTEPS,
        hwm: 4, // smaller than a batch: the hostile stream also crosses the HWM
        group_timeout: Duration::from_secs(60),
        checkpoint_interval: Duration::from_secs(3600),
        checkpoint_dir: PathBuf::from("unused-no-checkpoint-is-written"),
        report_interval: Duration::from_secs(3600),
        track_ci: false,
        ci_variance_floor: 1e-12,
        restore: false,
        thresholds: vec![0.5],
        quantile_probs: vec![0.5],
        telemetry: Some(telemetry),
    }
}

fn field(group: u64, role: usize, ts: usize) -> Vec<f64> {
    (0..N_CELLS)
        .map(|c| (group as f64) + 0.5 * role as f64 - 0.25 * ts as f64 + 0.01 * c as f64)
        .collect()
}

fn data_frame(header: DataHeader, values: &[f64]) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    header.encode_frame(&mut buf, values);
    buf.freeze()
}

/// The frames a worker must refuse, built around one valid frame.
fn hostile_frames() -> Vec<Bytes> {
    let good = DataHeader {
        group_id: 1,
        instance: 0,
        role: 0,
        timestep: 0,
        start: 0,
    };
    let values = field(1, 0, 0);
    let mut hostile = vec![
        data_frame(
            DataHeader {
                role: (P + 2) as u16,
                ..good
            },
            &values,
        ),
        data_frame(
            DataHeader {
                role: u16::MAX,
                ..good
            },
            &values,
        ),
        data_frame(
            DataHeader {
                timestep: N_TIMESTEPS as u32,
                ..good
            },
            &values,
        ),
        data_frame(
            DataHeader {
                timestep: u32::MAX,
                ..good
            },
            &values,
        ),
        // Starts inside the slab, runs one cell past its end.
        data_frame(DataHeader { start: 1, ..good }, &values),
        // Starts past the slab; starts where `start + n` overflows.
        data_frame(
            DataHeader {
                start: N_CELLS as u64 + 1,
                ..good
            },
            &values[..1],
        ),
        data_frame(
            DataHeader {
                start: u64::MAX,
                ..good
            },
            &values[..2],
        ),
        Bytes::new(),
        Bytes::from_static(&[0xEE, 1, 2, 3]),
    ];
    // A value count that disagrees with the frame's length, both ways.
    let valid = data_frame(good, &values);
    let count_at = DataHeader::ENCODED_LEN - 8;
    for claimed in [
        0u64,
        values.len() as u64 - 1,
        values.len() as u64 + 1,
        u64::MAX,
    ] {
        let mut lying = valid.to_vec();
        lying[count_at..count_at + 8].copy_from_slice(&claimed.to_le_bytes());
        hostile.push(Bytes::from(lying));
    }
    // Every prefix truncation of a valid frame.
    hostile.extend((0..valid.len()).map(|cut| valid.slice(..cut)));
    // And a control message cut short.
    let checkpoint = Message::Checkpoint {
        dir: "somewhere".into(),
    }
    .encode();
    hostile.push(checkpoint.slice(..checkpoint.len() - 2));
    hostile
}

#[test]
fn a_live_worker_refuses_hostile_frames_and_keeps_ingesting() {
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let transport: Arc<dyn Transport> = make_transport(kind.clone());
        let _launcher_rx = transport.bind(&names::launcher_in(""), 64);
        let launcher_tx = transport.connect(&names::launcher_in("")).unwrap();
        let telemetry = Telemetry::new(0);
        let config = server_config(Arc::clone(&telemetry));
        let server = Server::start(config, Arc::clone(&transport), launcher_tx);
        let tx = transport.connect(&names::server_worker_in("", 0)).unwrap();

        // One group's frames, with the whole hostile set before, between
        // and after them.
        let hostile = hostile_frames();
        let mut reference = WorkerState::with_stats(
            0,
            SlabPartition::new(N_CELLS, 1).worker_range(0),
            P,
            N_TIMESTEPS,
            &[0.5],
            &[0.5],
        );
        let mut sent_hostile = 0u64;
        let mut frames = std::collections::VecDeque::new();
        for ts in 0..N_TIMESTEPS {
            for role in 0..P + 2 {
                frames.extend(hostile.iter().cloned());
                sent_hostile += hostile.len() as u64;
                let values = field(1, role, ts);
                reference.on_data(1, role as u16, ts as u32, 0, &values);
                frames.push_back(data_frame(
                    DataHeader {
                        group_id: 1,
                        instance: 0,
                        role: role as u16,
                        timestep: ts as u32,
                        start: 0,
                    },
                    &values,
                ));
            }
        }
        frames.extend(hostile.iter().cloned());
        sent_hostile += hostile.len() as u64;
        // Half as one batch, the rest frame by frame.
        let mut singles = frames.split_off(frames.len() / 2);
        tx.send_batch(&mut frames, Duration::from_secs(20)).unwrap();
        for frame in singles.drain(..) {
            tx.send(frame).unwrap();
        }
        tx.flush(Duration::from_secs(20)).unwrap();

        let shared = Arc::clone(server.shared());
        let states = server.stop(); // panics if the worker thread did
        let rejected = shared
            .frames_rejected
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            rejected, sent_hostile,
            "{kind}: every hostile frame is counted"
        );
        // The scrape's registry carries the same count.
        let scraped = telemetry.registry().snapshot().counters;
        assert!(
            scraped.contains(&("frames_rejected_total".to_string(), sent_hostile)),
            "{kind}: {scraped:?}"
        );
        assert_eq!(shared.finished_groups(), vec![1], "{kind}");
        let state = &states[0];
        assert_eq!(state.messages_received, reference.messages_received);
        assert_eq!(state.finished_groups(), reference.finished_groups());
        for ts in 0..N_TIMESTEPS {
            assert_eq!(state.sobol(ts), reference.sobol(ts), "{kind} ts {ts}");
            assert_eq!(state.moments(ts), reference.moments(ts), "{kind} ts {ts}");
            assert_eq!(state.minmax(ts), reference.minmax(ts), "{kind} ts {ts}");
            assert_eq!(
                state.quantiles(ts),
                reference.quantiles(ts),
                "{kind} ts {ts}"
            );
        }
    }
}
