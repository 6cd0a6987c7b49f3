//! Staged replay: one group's real frames driven, single-threaded, through
//! every public function a study calls on them, each call timed from
//! outside — next to what this host can do at best (memcpy, raw loopback,
//! thread spawn), measured in the same process.
//!
//! The live decorators see only what crosses `Transport` and
//! `Dispatcher`; the layers in between (solver, client chunking, protocol
//! codec, wire codec, server ingest, checkpoint codec, shard merge, result
//! assembly, daemon RPCs) have no such seam, so they are measured here on
//! the same frames and states, without contention.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa::protocol::Message;
use melissa::server::checkpoint::{pack_state, read_checkpoint, unpack_state, write_checkpoint};
use melissa::server::state::WorkerState;
use melissa::shard::reduce_worker_states;
use melissa::{Study, StudyResults};
use melissa_daemon::{Daemon, DaemonClient, DaemonConfig, StudyState, TenantQuota};
use melissa_mesh::SlabPartition;
use melissa_telemetry::ScrapeFormat;
use melissa_transport::{
    compress_payload, decompress_payload, make_transport, make_transport_with, Frame, Transport,
    TransportKind, WireCompression,
};

use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{Fixture, Workload};

const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = 1024.0 * MIB;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Runs every stage and records its metrics.  Returns the single-threaded
/// seconds one group spends in solver, client chunking and protocol
/// encoding — what a live `group.exec` span contains besides its
/// transport children.
pub fn replay(fix: &Fixture, scratch: &Path, m: &mut Values) -> Result<f64, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    host_ceilings(m)?;

    let t0 = Instant::now();
    black_box(fix.config.solver.prerun());
    m.insert("solver.prerun_s", secs(t0));

    let (frames, group_cpu_s) = group_frames(fix, m);
    let payload: usize = frames.iter().map(|(_, f)| f.len()).sum();

    let t0 = Instant::now();
    for (_, frame) in &frames {
        black_box(Message::decode(frame).map_err(|e| format!("decode of an encoded frame: {e}"))?);
    }
    m.insert("protocol.decode_gib_s", payload as f64 / GIB / secs(t0));

    wire_codec(&frames, m)?;

    let bytes = payload as f64 / MIB;
    let (s, _) = stream(make_transport(TransportKind::InProcess), &frames)?;
    m.insert("channel.stream_mib_s", bytes / s);
    let (s, rtt_us) = stream(
        make_transport_with(TransportKind::Tcp, WireCompression::Off),
        &frames,
    )?;
    m.insert("tcp.stream_mib_s", bytes / s);
    m.insert("tcp.flush_rtt_us", rtt_us);
    let (s, _) = stream(
        make_transport_with(TransportKind::Tcp, WireCompression::Transpose),
        &frames,
    )?;
    m.insert("tcp.stream_transpose_mib_s", bytes / s);

    let shards = ingest(fix, &frames, m)?;
    drop(frames);
    checkpoint_codec(fix, &shards[0], scratch, m)?;
    reduce_and_assemble(fix, shards, m);
    daemon_rpcs(fix, scratch, m)?;
    Ok(group_cpu_s)
}

// ---------------------------------------------------------------------
// Host ceilings
// ---------------------------------------------------------------------

/// Largest cache any CPU-0 index reports, in bytes (0 if sysfs is silent).
fn last_level_cache_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            digits.parse::<usize>().ok().map(|n| n * scale)
        })
        .max()
        .unwrap_or(0)
}

fn host_ceilings(m: &mut Values) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    m.insert("host.nproc", nproc as f64);

    // Arrays four times the last-level cache, so the copy is served by
    // memory and not by cache — capped, because a virtual machine reports
    // the whole socket's cache (260 MiB here) of which it owns a slice,
    // and faulting in gigabytes would cost more than every other stage.
    let llc = last_level_cache_bytes();
    let len = (4 * llc).clamp(64 << 20, 256 << 20);
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            len as f64 / GIB / secs(t0)
        })
        .collect();
    m.insert("host.memcpy_gib_s", median(&rates));
    println!(
        "info host memcpy array {} MiB, last-level cache {} MiB",
        len >> 20,
        llc >> 20
    );
    drop((src, dst));

    m.insert("host.loopback_mib_s", raw_loopback_mib_s()?);

    let spawns: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::spawn(|| {}).join().expect("empty thread");
            secs(t0) * 1e6
        })
        .collect();
    m.insert("host.thread_spawn_us", median(&spawns));
    Ok(())
}

/// Raw `write`/`read` over one loopback socket: 64 KiB blocks, one
/// writer, one reader — the most any TCP link here could carry.
fn raw_loopback_mib_s() -> Result<f64, String> {
    const BLOCK: usize = 64 << 10;
    const TOTAL: usize = 256 << 20;
    let io = |e: std::io::Error| format!("raw loopback: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let reader = std::thread::spawn(move || -> std::io::Result<usize> {
        let (mut conn, _) = listener.accept()?;
        let mut buf = vec![0u8; BLOCK];
        let mut seen = 0;
        loop {
            match conn.read(&mut buf)? {
                0 => return Ok(seen),
                n => seen += n,
            }
        }
    });
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    let block = vec![7u8; BLOCK];
    let t0 = Instant::now();
    for _ in 0..TOTAL / BLOCK {
        conn.write_all(&block).map_err(io)?;
    }
    drop(conn);
    let seen = reader.join().expect("loopback reader").map_err(io)?;
    let elapsed = secs(t0);
    if seen != TOTAL {
        return Err(format!("raw loopback delivered {seen} of {TOTAL} bytes"));
    }
    Ok(TOTAL as f64 / MIB / elapsed)
}

// ---------------------------------------------------------------------
// Group side: solver, client chunking, protocol encode
// ---------------------------------------------------------------------

/// Drives group 0 the way `run_group` and `GroupClient::send_timestep`
/// do, timing each stage, and keeps every frame with its target worker.
fn group_frames(fix: &Fixture, m: &mut Values) -> (Vec<(usize, Frame)>, f64) {
    let c = &fix.config;
    let slabs = SlabPartition::new(fix.n_cells(), c.server_workers);
    let mut sims = fix.group_sims(0);
    let (mut advance, mut chunking, mut redistribute, mut encode) = (0.0, 0.0, 0.0, 0.0);
    let mut frames = Vec::new();
    for ts in 0..c.solver.n_timesteps as u32 {
        let t0 = Instant::now();
        for sim in &mut sims {
            sim.advance();
        }
        advance += secs(t0);
        for rank in 0..c.ranks_per_simulation {
            for (role, sim) in sims.iter().enumerate() {
                let t0 = Instant::now();
                let chunks = sim.rank_chunks(rank);
                chunking += secs(t0);

                let t0 = Instant::now();
                let mut pieces = Vec::new();
                for (range, values) in &chunks {
                    for (worker, sub) in slabs.redistribution(*range) {
                        let offset = sub.start - range.start;
                        pieces.push((worker, sub.start, values[offset..offset + sub.len].to_vec()));
                    }
                }
                redistribute += secs(t0);

                let t0 = Instant::now();
                for (worker, start, values) in pieces {
                    let frame = Message::Data {
                        group_id: 0,
                        instance: 0,
                        role: role as u16,
                        timestep: ts,
                        start: start as u64,
                        values,
                    }
                    .encode();
                    frames.push((worker, frame));
                }
                encode += secs(t0);
            }
        }
    }
    let cells = (fix.n_cells() * c.solver.n_timesteps * sims.len()) as f64;
    let payload: usize = frames.iter().map(|(_, f)| f.len()).sum();
    m.insert("solver.advance_ns_per_cell", advance * 1e9 / cells);
    m.insert("solver.no_output_s_per_group", advance + chunking);
    m.insert(
        "client.chunk_ns_per_cell",
        (chunking + redistribute) * 1e9 / cells,
    );
    m.insert("protocol.encode_gib_s", payload as f64 / GIB / encode);
    (frames, advance + chunking + redistribute + encode)
}

// ---------------------------------------------------------------------
// Wire codec and links
// ---------------------------------------------------------------------

fn wire_codec(frames: &[(usize, Frame)], m: &mut Values) -> Result<(), String> {
    let (mut raw, mut wire) = (0usize, 0usize);
    let (mut enc, mut dec) = (0.0, 0.0);
    for (_, frame) in frames {
        let t0 = Instant::now();
        let image = compress_payload(frame);
        enc += secs(t0);
        raw += frame.len();
        match image {
            // Not shrinking: the link sends such a frame raw.
            None => wire += frame.len(),
            Some(image) => {
                wire += image.len();
                let t0 = Instant::now();
                let back = decompress_payload(&image).map_err(|e| format!("decompress: {e}"))?;
                dec += secs(t0);
                if back[..] != frame[..] {
                    return Err("wire codec round trip changed a frame".into());
                }
            }
        }
    }
    m.insert("compress.encode_mib_s", raw as f64 / MIB / enc);
    m.insert(
        "compress.decode_mib_s",
        if dec == 0.0 {
            0.0
        } else {
            raw as f64 / MIB / dec
        },
    );
    m.insert("compress.ratio", raw as f64 / wire as f64);
    Ok(())
}

/// Streams every frame over one link of `transport` into a draining
/// consumer and flushes; returns the seconds that took and the median
/// round trip of a flush on the then idle link, in microseconds.
fn stream(transport: Arc<dyn Transport>, frames: &[(usize, Frame)]) -> Result<(f64, f64), String> {
    let rx = transport.bind("replay/sink", 64);
    let expected = frames.len();
    let consumer = std::thread::spawn(move || {
        for seen in 0..expected {
            if rx.recv_timeout(Duration::from_secs(20)).is_err() {
                return Err(format!("link delivered {seen} of {expected} frames"));
            }
        }
        Ok(rx)
    });
    let tx = transport
        .connect_retry("replay/sink", Duration::from_secs(5))
        .map_err(|e| format!("replay link: {e}"))?;
    let t0 = Instant::now();
    for (_, frame) in frames {
        tx.send(frame.clone())
            .map_err(|e| format!("replay link send: {e}"))?;
    }
    tx.flush(Duration::from_secs(20))
        .map_err(|e| format!("replay link flush: {e}"))?;
    // The receiver comes back so the endpoint stays bound for the
    // idle-link flushes below.
    let _rx = consumer.join().expect("link consumer")?;
    let elapsed = secs(t0);
    let mut rtts = Vec::with_capacity(50);
    for _ in 0..50 {
        let t0 = Instant::now();
        tx.flush(Duration::from_secs(5))
            .map_err(|e| format!("idle flush: {e}"))?;
        rtts.push(secs(t0) * 1e6);
    }
    Ok((elapsed, median(&rtts)))
}

// ---------------------------------------------------------------------
// Server side: ingest, checkpoint codec, shard merge, result assembly
// ---------------------------------------------------------------------

/// Feeds the group's frames to fresh worker states twice — as group 0
/// into one state set and as group 1 into another, so the two sets can be
/// merged like two shards — timing `on_data` by its outcome: `false`
/// (chunk copied into an assembly) or `true` (assembly complete, fused
/// sweep ran).
fn ingest(
    fix: &Fixture,
    frames: &[(usize, Frame)],
    m: &mut Values,
) -> Result<Vec<Vec<WorkerState>>, String> {
    let c = &fix.config;
    let slabs = SlabPartition::new(fix.n_cells(), c.server_workers);
    let p = c.group_size() - 2;
    let (mut assemble, mut assembled_cells) = (0.0, 0usize);
    let (mut sweep, mut swept_cells) = (0.0, 0usize);
    let mut shards = Vec::new();
    for group in 0..2u64 {
        let mut states: Vec<WorkerState> = (0..c.server_workers)
            .map(|w| {
                WorkerState::with_stats(
                    w,
                    slabs.worker_range(w),
                    p,
                    c.solver.n_timesteps,
                    &c.thresholds,
                    &c.quantile_probs,
                )
            })
            .collect();
        for (worker, frame) in frames {
            let Ok(Message::Data {
                role,
                timestep,
                start,
                values,
                ..
            }) = Message::decode(frame)
            else {
                return Err("replayed frame is not a Data message".into());
            };
            let state = &mut states[*worker];
            let t0 = Instant::now();
            let swept = state.on_data(group, role, timestep, start, &values);
            let dt = secs(t0);
            if swept {
                sweep += dt;
                swept_cells += state.slab().len;
            } else {
                assemble += dt;
                assembled_cells += values.len();
            }
        }
        if states.iter().any(|s| s.finished_groups() != [group]) {
            return Err(format!("replayed group {group} was not fully integrated"));
        }
        shards.push(states);
    }
    m.insert(
        "server.assemble_ns_per_cell",
        assemble * 1e9 / assembled_cells as f64,
    );
    m.insert("server.sweep_ns_per_cell", sweep * 1e9 / swept_cells as f64);
    Ok(shards)
}

fn checkpoint_codec(
    fix: &Fixture,
    states: &[WorkerState],
    scratch: &Path,
    m: &mut Values,
) -> Result<(), String> {
    let dir = scratch.join("checkpoint");
    let (mut pack, mut unpack, mut write, mut read) = (0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut file_bytes) = (0usize, 0u64);
    for state in states {
        let t0 = Instant::now();
        let packed = pack_state(state);
        pack += secs(t0);
        bytes += packed.len();

        let t0 = Instant::now();
        black_box(unpack_state(&packed, state.worker_id()).map_err(|e| format!("unpack: {e}"))?);
        unpack += secs(t0);

        // The file round trip (pack + write + fsync + rename, then read +
        // unpack) on one worker only: the sync dominates and the second
        // file would tell nothing new.
        if state.worker_id() == 0 {
            let t0 = Instant::now();
            file_bytes =
                write_checkpoint(&dir, state).map_err(|e| format!("write checkpoint: {e}"))?;
            write = secs(t0);

            let t0 = Instant::now();
            black_box(read_checkpoint(&dir, 0).map_err(|e| format!("read checkpoint: {e}"))?);
            read = secs(t0);
        }
    }
    let mib = bytes as f64 / MIB;
    m.insert("checkpoint.pack_mib_s", mib / pack);
    m.insert("checkpoint.unpack_mib_s", mib / unpack);
    m.insert("checkpoint.write_mib_s", file_bytes as f64 / MIB / write);
    m.insert("checkpoint.read_mib_s", file_bytes as f64 / MIB / read);
    m.insert(
        "checkpoint.bytes_per_worker",
        bytes as f64 / states.len() as f64,
    );
    m.insert(
        "server.state_bytes_per_cell_ts",
        bytes as f64 / (fix.n_cells() * fix.config.solver.n_timesteps) as f64,
    );
    Ok(())
}

fn reduce_and_assemble(fix: &Fixture, shards: Vec<Vec<WorkerState>>, m: &mut Values) {
    let c = &fix.config;
    let cell_ts = (fix.n_cells() * c.solver.n_timesteps) as f64;
    let t0 = Instant::now();
    let reduced = reduce_worker_states(&shards);
    let reduce = secs(t0);
    drop(shards);
    m.insert("shard.reduce_s", reduce);
    m.insert("shard.reduce_ns_per_cell_ts", reduce * 1e9 / cell_ts);

    let p = c.group_size() - 2;
    let n_ts = c.solver.n_timesteps;
    let t0 = Instant::now();
    let results = StudyResults::from_worker_states(p, n_ts, fix.n_cells(), reduced);
    for ts in [0, n_ts / 2, n_ts - 1] {
        for k in 0..p {
            black_box(results.first_order_field(ts, k));
            black_box(results.total_order_field(ts, k));
        }
        black_box(results.mean_field(ts));
        black_box(results.variance_field(ts));
        black_box(results.min_field(ts));
        black_box(results.max_field(ts));
        for idx in 0..results.quantile_probs().len() {
            black_box(results.quantile_field(ts, idx));
        }
    }
    m.insert("study.results_s", secs(t0));
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

fn p50_us(rounds: usize, mut call: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        call()?;
        samples.push(secs(t0) * 1e6);
    }
    Ok(median(&samples))
}

/// Submit, status and scrape round trips against an idle daemon, and the
/// latency a tiny study gains from being hosted instead of run standalone.
fn daemon_rpcs(fix: &Fixture, scratch: &Path, m: &mut Values) -> Result<(), String> {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            pool_units: crate::workloads::CONCURRENCY,
            max_active_studies: crate::workloads::CONCURRENCY,
            // A tenant that may run nothing: its submissions take the
            // whole encode / frame / decode / admit / reply path and are
            // rejected, so no study starts.
            quotas: vec![(
                "zero".to_string(),
                TenantQuota {
                    max_studies: 0,
                    max_groups: 0,
                    max_units: 0,
                },
            )],
            ..DaemonConfig::default()
        },
    );
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
    let mut tiny = Workload::DaemonSmall.config(fix.config.seed, false);
    tiny.checkpoint_dir = scratch.join("hosted");

    let result = (|| {
        m.insert(
            "daemon.submit_rpc_p50_us",
            p50_us(100, || match client.submit("zero", 0, tiny.clone()) {
                Err(_) => Ok(()),
                Ok(id) => Err(format!("zero-quota tenant was admitted as study {id}")),
            })?,
        );

        let hosted = |tag: &str| -> Result<f64, String> {
            let t0 = Instant::now();
            let id = client
                .submit(tag, 0, tiny.clone())
                .map_err(|e| format!("submit: {e}"))?;
            let status = client
                .wait(id, Duration::from_secs(60))
                .map_err(|e| format!("wait: {e}"))?;
            if status.state != StudyState::Done {
                return Err(format!("hosted study ended {:?}", status.state));
            }
            Ok(secs(t0) * 1e3)
        };
        let standalone = || -> Result<f64, String> {
            let mut config = tiny.clone();
            config.checkpoint_dir = scratch.join("standalone");
            let t0 = Instant::now();
            Study::new(config).run()?;
            Ok(secs(t0) * 1e3)
        };
        // Alternate which side goes first so drift hits both alike.
        let (mut hosted_ms, mut standalone_ms) = (Vec::new(), Vec::new());
        for pair in 0..3 {
            if pair % 2 == 0 {
                hosted_ms.push(hosted("pairs")?);
                standalone_ms.push(standalone()?);
            } else {
                standalone_ms.push(standalone()?);
                hosted_ms.push(hosted("pairs")?);
            }
        }
        m.insert(
            "daemon.hosting_overhead_ms",
            median(&hosted_ms) - median(&standalone_ms),
        );

        // Study 1 is finished and stays in the daemon's registry.
        m.insert(
            "daemon.status_rpc_p50_us",
            p50_us(100, || {
                client
                    .status(1)
                    .map(|_| ())
                    .map_err(|e| format!("status: {e}"))
            })?,
        );
        m.insert(
            "telemetry.scrape_rpc_p50_us",
            p50_us(50, || {
                client.scrape_daemon(ScrapeFormat::Json).map(|text| {
                    black_box(text);
                })
            })?,
        );
        Ok(())
    })();
    daemon.stop();
    result
}
