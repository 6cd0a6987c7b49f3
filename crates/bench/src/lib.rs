//! # melissa-bench — experiment harnesses
//!
//! One binary per figure/table of the paper's evaluation (Section 5),
//! plus Criterion micro-benchmarks in `benches/`:
//!
//! | target | regenerates |
//! |---|---|
//! | `fig6` | Fig. 6a–6d: running groups/cores and group execution times for the 15- and 32-node server studies |
//! | `table_scalars` | Sec. 5.3 scalars: wall times, CPU hours, server share, peaks, message rates, memory, data volume |
//! | `fig7_sobol_maps` | Fig. 7: first-order Sobol' maps at timestep 80, with the Sec. 5.5 interpretation as assertions |
//! | `fig8_variance_map` | Fig. 8: the variance map co-visualisation |
//! | `fault_tolerance` | Sec. 5.4: checkpoint/restart costs, detection latencies, live fault drills |
//! | `convergence_ci` | Sec. 3.4: confidence-interval convergence and coverage on analytic test functions |
//! | `fig_quantiles` | Quantile follow-up paper (arXiv:1905.04180): Robbins–Monro quantile convergence vs runs on the analytic test functions |
//!
//! Run them with `cargo run -p melissa-bench --release --bin <name>`.
//! Each prints a paper-vs-measured table; CSV series are written under
//! `target/experiments/`.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use melissa_transport::tcp::WireIoSnapshot;
use melissa_transport::{TcpTransport, Transport};

/// Directory where harnesses drop their CSV/VTK outputs.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Formats a paper-vs-measured comparison row.
pub fn row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<44} | {paper:>18} | {measured:>18}")
}

/// Prints the header of a paper-vs-measured table.
pub fn table_header(title: &str) {
    println!("\n=== {title} ===");
    println!("{}", row("quantity", "paper", "measured/model"));
    println!("{}", "-".repeat(88));
}

/// Process CPU time (utime + stime over all threads), in clock ticks
/// (100 Hz ⇒ 10 000 µs per tick).
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after = stat.rsplit(')').next().expect("comm field");
    let f: Vec<&str> = after.split_whitespace().collect();
    f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime")
}

/// Total (voluntary, involuntary) context switches across every live
/// thread of this process.  A voluntary switch is a thread going to sleep
/// — on a queue, a socket, a futex — so their number per frame is the
/// number of hand-offs a frame pays a wake-up for.
pub fn context_switches() -> (u64, u64) {
    let (mut v, mut nv) = (0u64, 0u64);
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let status = entry.expect("task entry").path().join("status");
        let Ok(text) = std::fs::read_to_string(status) else {
            continue; // the thread exited between the listing and the read
        };
        for line in text.lines() {
            let grab = |l: &str| l.split_whitespace().nth(1).and_then(|n| n.parse().ok());
            if line.starts_with("voluntary_ctxt_switches") {
                v += grab(line).unwrap_or(0u64);
            } else if line.starts_with("nonvoluntary_ctxt_switches") {
                nv += grab(line).unwrap_or(0u64);
            }
        }
    }
    (v, nv)
}

/// What a stream of frames over one TCP link cost the process.
#[derive(Debug, Clone, Copy)]
pub struct StreamCost {
    /// Frames delivered.
    pub frames: u64,
    /// Wall time from the first send to the last receive.
    pub elapsed: Duration,
    /// CPU ticks (see [`cpu_ticks`]) over that time.
    pub cpu_ticks: u64,
    /// Voluntary context switches of all threads over that time.
    pub voluntary: u64,
    /// Involuntary ones.
    pub involuntary: u64,
    /// Socket calls and the frames they carried.
    pub io: WireIoSnapshot,
}

impl StreamCost {
    /// Voluntary context switches per delivered frame.
    pub fn voluntary_per_frame(&self) -> f64 {
        self.voluntary as f64 / self.frames as f64
    }

    /// Frames per `writev` of the link writer.
    pub fn frames_per_write(&self) -> f64 {
        self.io.frames_written as f64 / self.io.writes.max(1) as f64
    }

    /// Frames per `recv` of the acceptor.
    pub fn frames_per_read(&self) -> f64 {
        self.io.frames_read as f64 / self.io.reads.max(1) as f64
    }
}

/// Streams `timesteps` runs of `per_timestep` frames of `frame_len` bytes
/// over a fresh link of `transport` the way a simulation group feeds a
/// server worker — a producer thread that encodes its frames and pauses
/// `pause` between timesteps (its solver), a consumer that takes whatever
/// is queued — and reports what that cost.  `batched` writes a timestep
/// into one block and hands it over with one [`send_batch`](melissa_transport::Sender::send_batch) of
/// frames cut from it, draining with `recv_batch`; otherwise every frame
/// is written, sent and received on its own, the shape of the data path
/// before per-timestep hand-off, where the link is done with a frame
/// before the producer has encoded the next.
pub fn stream_cost(
    transport: &TcpTransport,
    name: &str,
    frame_len: usize,
    per_timestep: usize,
    timesteps: usize,
    pause: Duration,
    batched: bool,
) -> StreamCost {
    let rx = transport.bind(name, 2 * per_timestep);
    let tx = transport.connect(name).expect("just bound");
    let timestep = move || -> VecDeque<Bytes> {
        let block = Bytes::from(vec![0x5Au8; frame_len * per_timestep]);
        (0..per_timestep)
            .map(|i| block.slice(i * frame_len..(i + 1) * frame_len))
            .collect()
    };
    // Warm the link (threads started, socket buffers grown).
    let mut warm = timestep();
    tx.send_batch(&mut warm, Duration::from_secs(10))
        .expect("warm-up");
    for _ in 0..per_timestep {
        rx.recv().expect("warm-up");
    }

    let io0 = transport.wire_io();
    let (v0, nv0) = context_switches();
    let cpu0 = cpu_ticks();
    let t0 = Instant::now();
    let total = per_timestep * timesteps;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..timesteps {
                if batched {
                    tx.send_batch(&mut timestep(), Duration::from_secs(10))
                        .expect("send");
                } else {
                    for _ in 0..per_timestep {
                        tx.send(Bytes::from(vec![0x5Au8; frame_len])).expect("send");
                    }
                }
                std::thread::sleep(pause);
            }
        });
        let mut got = 0;
        let mut inbox = Vec::with_capacity(per_timestep);
        while got < total {
            if batched {
                got += rx
                    .recv_batch(&mut inbox, usize::MAX, Duration::from_secs(10))
                    .expect("recv");
                inbox.clear();
            } else {
                rx.recv().expect("recv");
                got += 1;
            }
        }
    });
    let elapsed = t0.elapsed();
    let (v1, nv1) = context_switches();
    StreamCost {
        frames: total as u64,
        elapsed,
        cpu_ticks: cpu_ticks() - cpu0,
        voluntary: v1 - v0,
        involuntary: nv1 - nv0,
        io: transport.wire_io().since(io0),
    }
}
