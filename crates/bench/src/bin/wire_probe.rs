//! Diagnostic probe for the TCP wire path: runs ONE shape per process
//! (`SHAPE=rt` lock-step roundtrips, `SHAPE=st` streamed bursts,
//! `SHAPE=ts` / `SHAPE=ts1` a paced timestep stream handed over per
//! timestep / per frame, `SHAPE=codec` the wire codec alone on real
//! solver frames beside a `memcpy` of the same bytes) so CPU time and
//! context switches can be attributed per shape rather than averaged
//! across them.  This is the
//! tool that separated per-frame writer overhead (syscalls + wakeups,
//! fixed by burst batching) from cache-capacity effects (deep pipelines
//! cycling more buffer than the cache holds) during the
//! `transport_stream32/tcp/65536` investigation, and that counts what a
//! frame pays for on the way to a server worker: frames per `writev`,
//! frames per `recv`, voluntary context switches per frame.
//!
//! Knobs (env): `SHAPE=rt|st|ts|ts1|codec`, `BURST` (frames per burst or
//! timestep, default 32), `ROUNDS` (bursts or timesteps, default 40),
//! `FRAME` (bytes, default 65536; the study's frames are 8227), `HWM`
//! (link high-water mark of `rt`/`st`, default `BURST + 1` so a streamed
//! burst never blocks on backpressure), `PAUSE_US` (the `ts` producer's
//! pause between timesteps, default 2000), `ZIP=1` (the `ts` shapes
//! stream real solver frames over a link that negotiated the Transpose
//! codec, and the codec's time and bytes on that link are printed).
//!
//! Not part of the acceptance suite — `wire_smoke` asserts; this prints.

use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa_bench::{
    context_switches, cpu_ticks, large_allocs, stream_cost, tube_frames, CountingAlloc,
};
use melissa_transport::compress::{compress_into, decoded_len, decompress_into, PlaneScratch};
use melissa_transport::{TcpTransport, TcpTransportConfig, Transport, WireCompression};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let shape = std::env::var("SHAPE").unwrap_or_else(|_| "st".into());
    let burst = env_or("BURST", 32);
    let rounds = env_or("ROUNDS", 40);
    let frame_len = env_or("FRAME", 65536);
    if shape == "codec" {
        return codec_alone();
    }
    let zip = env_or("ZIP", 0) != 0;
    let mut config = TcpTransportConfig::local();
    if zip {
        config.compression = WireCompression::Transpose;
    }
    let t = TcpTransport::with_config(config).expect("loopback listener");
    if shape.starts_with("ts") {
        let pause = Duration::from_micros(env_or("PAUSE_US", 2000) as u64);
        let source = match zip {
            true => tube_frames(7, 100, 10),
            false => vec![Bytes::from(vec![0x5Au8; frame_len])],
        };
        let allocs = large_allocs();
        let cost = stream_cost(&t, "probe", &source, burst, rounds, pause, shape == "ts");
        println!(
            "{shape}: {} frames of {} B in {:.1} ms, {:.1} us cpu/frame, \
             {:.2}v+{:.2}iv switches/frame, {:.1} frames/writev, {:.1} frames/recv, \
             {:.2} allocations >= 4 KiB/frame",
            cost.frames,
            source[0].len(),
            cost.elapsed.as_secs_f64() * 1e3,
            cost.cpu_ticks as f64 * 10_000.0 / cost.frames as f64,
            cost.voluntary_per_frame(),
            cost.involuntary as f64 / cost.frames as f64,
            cost.frames_per_write(),
            cost.frames_per_read(),
            (large_allocs() - allocs) as f64 / cost.frames as f64,
        );
        if zip {
            let io = cost.io;
            let mib_s = |nanos: u64| io.codec_bytes_in as f64 / 1.048576e-3 / nanos as f64;
            println!(
                "codec on the link: encode {:.1} ms ({:.0} MiB/s), decode {:.1} ms ({:.0} MiB/s), \
                 {} B in, {} B out (ratio {:.3}), {} frames raw",
                io.codec_encode_nanos as f64 / 1e6,
                mib_s(io.codec_encode_nanos),
                io.codec_decode_nanos as f64 / 1e6,
                mib_s(io.codec_decode_nanos),
                io.codec_bytes_in,
                io.codec_bytes_out,
                io.codec_bytes_in as f64 / io.codec_bytes_out as f64,
                io.codec_raw_frames,
            );
        }
        return;
    }
    let rx = t.bind("probe", env_or("HWM", burst + 1));
    let tx = t.connect("probe").unwrap();
    let frame = Bytes::from(vec![0u8; frame_len]);
    for _ in 0..8 {
        tx.send(frame.clone()).unwrap();
        rx.recv().unwrap();
    }
    let io0 = t.wire_io();
    let (v0, nv0) = context_switches();
    let cpu0 = cpu_ticks();
    let t0 = Instant::now();
    for _ in 0..rounds {
        match shape.as_str() {
            "rt" => {
                for _ in 0..burst {
                    tx.send(frame.clone()).unwrap();
                    rx.recv().unwrap();
                }
            }
            _ => {
                for _ in 0..burst {
                    tx.send(frame.clone()).unwrap();
                }
                for _ in 0..burst {
                    rx.recv().unwrap();
                }
            }
        }
    }
    let el = t0.elapsed();
    let cpu = cpu_ticks() - cpu0;
    let n_frames = (rounds * burst) as f64;
    let mib = (rounds * burst * frame_len) as f64 / (1024.0 * 1024.0) / el.as_secs_f64();
    let (v1, nv1) = context_switches();
    let io = t.wire_io().since(io0);
    println!(
        "{shape}: {mib:.1} MiB/s, {:.1} us cpu/frame, {:.1}v+{:.1}iv switches/frame, \
         {:.1} frames/writev, {:.1} frames/recv",
        cpu as f64 * 10_000.0 / n_frames,
        (v1 - v0) as f64 / n_frames,
        (nv1 - nv0) as f64 / n_frames,
        io.frames_written as f64 / io.writes.max(1) as f64,
        io.frames_read as f64 / io.reads.max(1) as f64,
    );
}

/// `SHAPE=codec`: the wire codec on real solver frames the way a link
/// runs it — one scratch, images end to end in one block — best of
/// `ROUNDS` passes, beside a `memcpy` of the same frames into one block.
fn codec_alone() {
    let frames = tube_frames(7, 100, 10);
    let total: usize = frames.iter().map(|f| f.len()).sum();
    let rounds = env_or("ROUNDS", 40);
    let best_mib_s = |pass: &mut dyn FnMut()| {
        let best = (0..rounds)
            .map(|_| {
                let t0 = Instant::now();
                pass();
                t0.elapsed()
            })
            .min()
            .expect("at least one round");
        total as f64 / (1024.0 * 1024.0) / best.as_secs_f64()
    };
    let mut scratch = PlaneScratch::default();
    let mut block: Vec<u8> = Vec::with_capacity(total);
    let mut ends = Vec::with_capacity(frames.len());
    let encode = best_mib_s(&mut || {
        block.clear();
        ends.clear();
        for frame in &frames {
            compress_into(frame, &mut scratch, &mut block);
            ends.push(block.len());
        }
    });
    let images = block.clone();
    let mut restored = vec![0u8; total];
    let decode = best_mib_s(&mut || {
        let (mut image_at, mut at) = (0, 0);
        for &end in &ends {
            let image = &images[image_at..end];
            let len = decoded_len(image).expect("a whole image");
            decompress_into(image, &mut scratch, &mut restored[at..at + len]).expect("decodes");
            (image_at, at) = (end, at + len);
        }
    });
    let copy = best_mib_s(&mut || {
        block.clear();
        for frame in &frames {
            block.extend_from_slice(frame);
        }
        std::hint::black_box(&block);
    });
    println!(
        "codec: {} frames of {} B, ratio {:.3}: encode {encode:.0} MiB/s, decode {decode:.0} MiB/s, \
         memcpy {copy:.0} MiB/s",
        frames.len(),
        frames[0].len(),
        total as f64 / images.len() as f64,
    );
}
