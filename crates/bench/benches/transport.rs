//! Transport micro-benchmarks: the in-process channel backend vs the TCP
//! loopback backend, through the same `Transport`/`Sender`/`Receiver`
//! trait surface the framework uses.
//!
//! Two shapes:
//!
//! * `roundtrip` — send one frame, receive it back on the same thread:
//!   the per-frame latency floor of the whole stack (queue, writer
//!   thread, socket, reader thread, ingest queue for TCP; one bounded
//!   queue for in-process).
//! * `stream32` — send a 32-frame burst, then drain it: amortises the
//!   hand-off latency, closer to a simulation group emitting a timestep.
//! * `stream32_batch` — the same burst as a group client hands it over
//!   since per-timestep hand-off: one `send_batch` of 32 frames cut from
//!   one block, drained with `recv_batch`.
//!
//! plus `transport_compress`: the in-frame f64 wire codec in isolation
//! and the streamed shape with compression off vs on (payload-byte
//! throughput, i.e. effective application bandwidth), and
//! `checkpoint_restore`: one worker's checkpoint written and read back,
//! what a server crash-restore pays per worker.
//!
//! Recorded baselines live in `BENCH_transport.json` at the repo root.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use melissa::server::checkpoint::{read_checkpoint, write_checkpoint};
use melissa::server::state::WorkerState;
use melissa_mesh::SlabPartition;
use melissa_transport::compress::{compress_into, decoded_len, decompress_into, PlaneScratch};
use melissa_transport::{
    compress_payload, decompress_payload, make_transport, make_transport_with, DirectoryClient,
    DirectoryServer, TcpTransport, TcpTransportConfig, Transport, TransportKind, WireCompression,
};

const BURST: usize = 32;

/// A smooth solver-like field payload (3 header-tail bytes + f64 grid):
/// the fixture the wire codec's acceptance ratio is measured on.
fn smooth_payload(n_doubles: usize) -> Bytes {
    let mut payload = vec![0xAB, 0xCD, 0xEF];
    for i in 0..n_doubles {
        let x = i as f64 / n_doubles as f64;
        let tau = std::f64::consts::TAU;
        let v = 300.0 + 40.0 * (tau * x).sin() + 5.0 * (5.0 * tau * x).cos();
        payload.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(payload)
}

fn bench_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_roundtrip");
    g.sample_size(7);
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        for size in [256usize, 4096, 65536] {
            let t = make_transport(kind.clone());
            let rx = t.bind("bench", 64);
            let tx = t.connect("bench").unwrap();
            let frame = Bytes::from(vec![0u8; size]);
            g.throughput(Throughput::Bytes(size as u64));
            g.bench_with_input(BenchmarkId::new(kind.to_string(), size), &size, |b, _| {
                b.iter(|| {
                    tx.send(frame.clone()).unwrap();
                    rx.recv().unwrap()
                })
            });
        }
    }
    g.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_stream32");
    g.sample_size(7);
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        for size in [4096usize, 8192, 65536] {
            let t = make_transport(kind.clone());
            let rx = t.bind("bench", BURST + 1);
            let tx = t.connect("bench").unwrap();
            let frame = Bytes::from(vec![0u8; size]);
            g.throughput(Throughput::Bytes((size * BURST) as u64));
            g.bench_with_input(BenchmarkId::new(kind.to_string(), size), &size, |b, _| {
                b.iter(|| {
                    for _ in 0..BURST {
                        tx.send(frame.clone()).unwrap();
                    }
                    for _ in 0..BURST {
                        rx.recv().unwrap();
                    }
                })
            });
        }
    }
    g.finish();
}

/// `stream32` handed over per burst instead of per frame: the frames are
/// windows onto one block, go out in one `send_batch` and come back in as
/// few `recv_batch`es as the link delivers them in.
fn bench_stream_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_stream32_batch");
    g.sample_size(7);
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        for size in [4096usize, 8192, 65536] {
            let t = make_transport(kind.clone());
            let rx = t.bind("bench", BURST + 1);
            let tx = t.connect("bench").unwrap();
            let block = Bytes::from(vec![0u8; size * BURST]);
            let mut burst: VecDeque<Bytes> = VecDeque::with_capacity(BURST);
            let mut inbox: Vec<Bytes> = Vec::with_capacity(BURST);
            g.throughput(Throughput::Bytes((size * BURST) as u64));
            g.bench_with_input(BenchmarkId::new(kind.to_string(), size), &size, |b, _| {
                b.iter(|| {
                    burst.extend((0..BURST).map(|i| block.slice(i * size..(i + 1) * size)));
                    tx.send_batch(&mut burst, Duration::from_secs(10)).unwrap();
                    while inbox.len() < BURST {
                        rx.recv_batch(&mut inbox, BURST, Duration::from_secs(10))
                            .unwrap();
                    }
                    inbox.clear();
                })
            });
        }
    }
    g.finish();
}

/// The bandwidth-lean wire path: the in-frame f64 codec in isolation
/// (compress/decompress throughput and ratio on the smooth-field
/// fixture), and the streamed TCP shape with compression off vs on —
/// throughput is accounted in *payload* bytes, so the compressed row
/// reads as effective application bandwidth.
fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_compress");
    g.sample_size(7);

    let payload = smooth_payload(8192); // one 64 KiB data frame
    let compressed = compress_payload(&payload).expect("smooth field compresses");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("codec_compress/65536", |b| {
        b.iter(|| compress_payload(&payload).unwrap())
    });
    g.bench_function("codec_decompress/65536", |b| {
        b.iter(|| decompress_payload(&compressed).unwrap())
    });

    // Real solver frames (8 227 B, most byte planes incompressible), coded
    // the way a link codes them: one scratch, images end to end in one
    // block per pass.
    let frames = melissa_bench::tube_frames(7, 100, 10);
    let total: usize = frames.iter().map(|f| f.len()).sum();
    let mut scratch = PlaneScratch::default();
    let mut block = Vec::with_capacity(total);
    let mut restored = vec![0u8; 8227];
    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function("codec_compress/tube8k", |b| {
        b.iter(|| {
            block.clear();
            for frame in &frames {
                compress_into(frame, &mut scratch, &mut block);
            }
            block.len()
        })
    });
    let images: Vec<Vec<u8>> = frames.iter().filter_map(|f| compress_payload(f)).collect();
    g.bench_function("codec_decompress/tube8k", |b| {
        b.iter(|| {
            for image in &images {
                let n = decoded_len(image).unwrap();
                decompress_into(image, &mut scratch, &mut restored[..n]).unwrap();
            }
        })
    });

    for compression in [WireCompression::Off, WireCompression::Transpose] {
        let t = make_transport_with(TransportKind::Tcp, compression);
        let rx = t.bind("bench", BURST + 1);
        let tx = t.connect("bench").unwrap();
        g.throughput(Throughput::Bytes((payload.len() * BURST) as u64));
        g.bench_with_input(
            BenchmarkId::new("stream32_field", compression.label()),
            &(),
            |b, _| {
                b.iter(|| {
                    for _ in 0..BURST {
                        tx.send(payload.clone()).unwrap();
                    }
                    for _ in 0..BURST {
                        rx.recv().unwrap();
                    }
                })
            },
        );
    }
    g.finish();
}

/// The multi-node name-resolution path: one `resolve` request/reply
/// round trip against a live directory server (what every `connect`
/// pays before dialing), and a full directory-resolved node-to-node
/// frame round trip for comparison with the single-node TCP numbers.
fn bench_directory(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_directory");
    g.sample_size(7);

    let server =
        DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(60)).expect("directory listener");
    let addr = server.local_addr().to_string();
    let client = DirectoryClient::connect(&addr).expect("directory client");
    client
        .publish("bench/endpoint", "127.0.0.1:9999")
        .expect("publish");
    g.bench_function("resolve", |b| {
        b.iter(|| client.resolve("bench/endpoint").expect("resolve"))
    });

    let node_a = TcpTransport::with_config(TcpTransportConfig::node(&addr)).expect("node a");
    let node_b = TcpTransport::with_config(TcpTransportConfig::node(&addr)).expect("node b");
    let rx = node_a.bind("bench/rt", 64);
    let tx = node_b
        .connect_retry("bench/rt", Duration::from_secs(5))
        .expect("cross-node connect");
    let frame = Bytes::from(vec![0u8; 4096]);
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("node_roundtrip/4096", |b| {
        b.iter(|| {
            tx.send(frame.clone()).unwrap();
            rx.recv().unwrap()
        })
    });
    g.finish();
}

/// What a crash-restore pays per server worker: checkpoint one
/// integrated 4096-cell worker state to disk (written, synced, renamed)
/// and read it back as the restored worker does.
fn bench_checkpoint_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_restore");
    g.sample_size(7);

    const N_CELLS: usize = 4096;
    let partition = SlabPartition::new(N_CELLS, 1);
    let slab = partition.worker_range(0);
    let mut state = WorkerState::with_stats(0, slab, 6, 10, &[0.5], &[]);
    let frame = vec![0.25f64; slab.len];
    for role in 0..8u16 {
        state.on_data(3, role, 0, slab.start as u64, &frame);
    }
    let dir = std::env::temp_dir().join(format!("melissa-bench-restore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench checkpoint dir");
    g.bench_function("write_then_read", |b| {
        b.iter(|| {
            write_checkpoint(&dir, &state).expect("write");
            read_checkpoint(&dir, 0).expect("read")
        })
    });
    std::fs::remove_dir_all(&dir).ok();
    g.finish();
}

criterion_group!(
    benches,
    bench_roundtrip,
    bench_stream,
    bench_stream_batch,
    bench_compress,
    bench_directory,
    bench_checkpoint_restore
);
criterion_main!(benches);
