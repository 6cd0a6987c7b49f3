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
//!
//! `fig6`, `table_scalars` and the cost-model half of `fault_tolerance`
//! print the [`curie`] replay: the paper's Curie runs rebuilt from its own
//! calibrated numbers, not a measurement of this workspace.

pub mod curie;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use melissa::protocol::DataHeader;
use melissa_sobol::design::PickFreeze;
use melissa_solver::decomposed::DecomposedSimulation;
use melissa_solver::{InjectionParams, UseCaseConfig};
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

/// Real solver frames: the `Data` frames group 0 of a tube-bundle study
/// with design seed `seed` sends on every `every`-th of its first
/// `timesteps` timesteps — the default 64 × 32 × 4 mesh over two ranks,
/// so each frame carries one rank's 1 024-cell slice of one k-plane
/// (8 227 B), eight simulations and eight slices a timestep.  The wire
/// codec's real input: on these, six or seven of a frame's eight byte
/// planes do not compress at all, where the smooth analytic field
/// flatters it.
pub fn tube_frames(seed: u64, timesteps: usize, every: usize) -> Vec<Bytes> {
    const RANKS: usize = 2;
    let solver = UseCaseConfig::default();
    let flow = Arc::new(solver.prerun());
    let design = PickFreeze::generate(1, &InjectionParams::parameter_space(), seed);
    let mut sims: Vec<DecomposedSimulation> = design
        .group(0)
        .rows()
        .iter()
        .map(|row| {
            let params = InjectionParams::from_row(row);
            DecomposedSimulation::new(&solver, Arc::clone(&flow), params, RANKS)
        })
        .collect();
    let mut frames = Vec::new();
    for timestep in 0..timesteps.min(solver.n_timesteps) {
        for sim in &mut sims {
            sim.advance();
        }
        if (timestep + 1) % every != 0 {
            continue;
        }
        for rank in 0..RANKS {
            for (role, sim) in sims.iter().enumerate() {
                for (range, values) in sim.rank_chunks(rank) {
                    let header = DataHeader {
                        group_id: 0,
                        instance: 0,
                        role: role as u16,
                        timestep: timestep as u32,
                        start: range.start as u64,
                    };
                    let mut frame =
                        BytesMut::with_capacity(DataHeader::ENCODED_LEN + 8 * range.len);
                    header.encode_frame(&mut frame, &values);
                    frames.push(frame.freeze());
                }
            }
        }
    }
    frames
}

/// The system allocator, counting requests of 4 KiB or more — a field
/// frame's worth.  A harness that asserts on allocations per frame
/// installs it as its `#[global_allocator]` and reads [`large_allocs`].
pub struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations of at least 4 KiB this process has made so far, all
/// threads (0 unless [`CountingAlloc`] is the global allocator).
pub fn large_allocs() -> u64 {
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

fn count_alloc(size: usize) {
    if size >= 4096 {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter that owns no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
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

/// Streams `timesteps` runs of `per_timestep` frames — copies of
/// `source`'s, which are all of one length, taken in turn — over a fresh
/// link of `transport` the way a simulation group feeds a server worker —
/// a producer thread that encodes its frames and pauses `pause` between
/// timesteps (its solver), a consumer that takes whatever is queued — and
/// reports what that cost.  `batched` writes a timestep into one block
/// and hands it over with one [`send_batch`](melissa_transport::Sender::send_batch) of
/// frames cut from it, draining with `recv_batch`; otherwise every frame
/// is written, sent and received on its own, the shape of the data path
/// before per-timestep hand-off, where the link is done with a frame
/// before the producer has encoded the next.
pub fn stream_cost(
    transport: &TcpTransport,
    name: &str,
    source: &[Bytes],
    per_timestep: usize,
    timesteps: usize,
    pause: Duration,
    batched: bool,
) -> StreamCost {
    let rx = transport.bind(name, 2 * per_timestep);
    let tx = transport.connect(name).expect("just bound");
    let frame_len = source[0].len();
    let mut sources = source.iter().cycle();
    // The next `frames` frames, encoded end to end into one block.
    let encoded = |sources: &mut std::iter::Cycle<std::slice::Iter<Bytes>>, frames| -> Bytes {
        let mut block = Vec::with_capacity(frames * frame_len);
        for frame in sources.take(frames) {
            block.extend_from_slice(frame);
        }
        Bytes::from(block)
    };
    let timestep = |sources: &mut _| -> VecDeque<Bytes> {
        let block = encoded(sources, per_timestep);
        (0..per_timestep)
            .map(|i| block.slice(i * frame_len..(i + 1) * frame_len))
            .collect()
    };
    // Warm the link (threads started, socket buffers grown).
    let mut warm = timestep(&mut sources);
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
                    tx.send_batch(&mut timestep(&mut sources), Duration::from_secs(10))
                        .expect("send");
                } else {
                    for _ in 0..per_timestep {
                        tx.send(encoded(&mut sources, 1)).expect("send");
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
