//! Diagnostic probe for the TCP wire path: runs ONE shape per process
//! (`SHAPE=rt` lock-step roundtrips, `SHAPE=st` streamed bursts,
//! `SHAPE=ts` / `SHAPE=ts1` a paced timestep stream handed over per
//! timestep / per frame) so CPU time and context switches can be
//! attributed per shape rather than averaged across them.  This is the
//! tool that separated per-frame writer overhead (syscalls + wakeups,
//! fixed by burst batching) from cache-capacity effects (deep pipelines
//! cycling more buffer than the cache holds) during the
//! `transport_stream32/tcp/65536` investigation, and that counts what a
//! frame pays for on the way to a server worker: frames per `writev`,
//! frames per `recv`, voluntary context switches per frame.
//!
//! Knobs (env): `SHAPE=rt|st|ts|ts1`, `BURST` (frames per burst or
//! timestep, default 32), `ROUNDS` (bursts or timesteps, default 40),
//! `FRAME` (bytes, default 65536; the study's frames are 8227), `HWM`
//! (link high-water mark of `rt`/`st`, default `BURST + 1` so a streamed
//! burst never blocks on backpressure), `PAUSE_US` (the `ts` producer's
//! pause between timesteps, default 2000).
//!
//! Not part of the acceptance suite — `wire_smoke` asserts; this prints.

use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa_bench::{context_switches, cpu_ticks, stream_cost};
use melissa_transport::{TcpTransport, Transport};

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
    let t = TcpTransport::new().expect("loopback listener");
    if shape.starts_with("ts") {
        let pause = Duration::from_micros(env_or("PAUSE_US", 2000) as u64);
        let cost = stream_cost(&t, "probe", frame_len, burst, rounds, pause, shape == "ts");
        println!(
            "{shape}: {} frames of {frame_len} B in {:.1} ms, {:.1} us cpu/frame, \
             {:.2}v+{:.2}iv switches/frame, {:.1} frames/writev, {:.1} frames/recv",
            cost.frames,
            cost.elapsed.as_secs_f64() * 1e3,
            cost.cpu_ticks as f64 * 10_000.0 / cost.frames as f64,
            cost.voluntary_per_frame(),
            cost.involuntary as f64 / cost.frames as f64,
            cost.frames_per_write(),
            cost.frames_per_read(),
        );
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
