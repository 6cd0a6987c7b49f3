//! A calibrated replay of the paper's full-scale Curie runs (Section 5.3).
//!
//! The paper's evaluation ran on ~1800 Curie nodes.  This module replays
//! those runs in simulated time to regenerate the *shapes* of
//! Figures 6a–6d and the scalar results of Sections 5.3–5.4.  Its inputs
//! are the paper's numbers, through the calibration in [`params`]: it
//! reproduces the paper's ratios, not this code's.  No study runs it, and
//! nothing it prints is a measurement of this workspace.
//!
//! * 1000 groups × 8 simulations × 100 timesteps on a 9.6 M-cell mesh;
//! * each group job takes 32 nodes (8 × 64 cores), and every job is
//!   submitted to a FIFO batch queue at t = 0 behind a 500-job submission
//!   throttle, on a machine whose usable nodes ramp up over time;
//! * the server ingests at a per-node bandwidth; when the aggregate
//!   outstanding data exceeds the buffering capacity (ZeroMQ HWM), group
//!   sends block — the Study-1 backpressure;
//! * the *classical* baseline writes each timestep to a shared Lustre
//!   file system instead; *no output* writes nothing.
//!
//! Submodules: [`params`] (calibration constants with paper provenance)
//! and [`faults`] (checkpoint/restart cost model for Section 5.4).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

pub mod faults;
pub mod params;

pub use params::{FullScaleParams, OutputKind};

/// A `(time, value)` series: the data behind one Fig. 6 curve.
#[derive(Debug, Default)]
pub struct TimeSeries {
    samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Appends a sample; times must be non-decreasing.
    fn push(&mut self, t: f64, v: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(lt, _)| t >= lt),
            "time went backwards"
        );
        self.samples.push((t, v));
    }

    /// Maximum value, or `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.samples.iter().map(|&(_, v)| v).reduce(f64::max)
    }

    /// Value at time `t` (step interpolation: the last sample at or before
    /// `t`), or `None` before the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        match self
            .samples
            .binary_search_by(|&(st, _)| st.partial_cmp(&t).unwrap())
        {
            Ok(i) => Some(self.samples[i].1),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].1),
        }
    }

    /// Mean of the values over a time window `[t0, t1]` (sample mean, not
    /// time-weighted).
    pub fn window_mean(&self, t0: f64, t1: f64) -> Option<f64> {
        let (n, sum) = self
            .samples
            .iter()
            .filter(|&&(t, _)| t >= t0 && t <= t1)
            .fold((0, 0.0), |(n, sum), &(_, v)| (n + 1, sum + v));
        (n > 0).then(|| sum / n as f64)
    }

    /// Downsamples to at most `n` evenly spaced samples (for printing).
    pub fn downsample(&self, n: usize) -> Vec<(f64, f64)> {
        if self.samples.len() <= n || n == 0 {
            return self.samples.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.samples[(i as f64 * step) as usize])
            .collect()
    }

    /// Serialises as `time,value` CSV lines under a header.
    pub fn to_csv(&self, value_name: &str) -> String {
        let mut out = format!("time,{value_name}\n");
        for &(t, v) in &self.samples {
            out.push_str(&format!("{t},{v}\n"));
        }
        out
    }
}

/// A time-ordered event heap.  Events at equal times pop in the order they
/// were scheduled, which keeps the replay deterministic.  Times are never
/// negative, so an `f64`'s bits order like its value.
struct Events<E> {
    heap: BinaryHeap<Reverse<(u64, u64, E)>>,
    seq: u64,
    now: f64,
}

impl<E: Ord> Events<E> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or earlier than the last popped event.
    fn schedule(&mut self, time: f64, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.heap.push(Reverse((time.to_bits(), self.seq, event)));
        self.seq += 1;
    }

    /// Pops the earliest event.
    fn pop(&mut self) -> Option<(f64, E)> {
        let Reverse((bits, _, event)) = self.heap.pop()?;
        self.now = f64::from_bits(bits);
        Some((self.now, event))
    }
}

/// The batch system as the replay drives it.  Every group job asks for the
/// same nodes and is submitted at t = 0 in id order, so jobs
/// `[0, started)` have started, the FIFO queue holds `[started, admitted)`
/// and the submission throttle holds `[admitted, jobs)`.
struct Batch {
    jobs: u64,
    job_nodes: usize,
    /// Nodes the machine leaves to the groups.
    nodes: usize,
    /// Availability ramp: usable nodes at t = 0, and its slope.
    initial_nodes: usize,
    nodes_per_s: f64,
    started: u64,
    admitted: u64,
    used_nodes: usize,
}

impl Batch {
    /// Starts queued jobs in order while the availability ramp allows (no
    /// backfill: with equal jobs there is nothing to backfill).  Returns
    /// the started job ids.
    fn start_ready(&mut self, t: f64) -> Range<u64> {
        let usable = ((self.initial_nodes as f64 + self.nodes_per_s * t) as usize).min(self.nodes);
        let first = self.started;
        while self.started < self.admitted && self.used_nodes + self.job_nodes <= usable {
            self.used_nodes += self.job_nodes;
            self.started += 1;
        }
        first..self.started
    }

    /// A running job finished: its nodes free up, and its throttle slot
    /// admits the next held job into the queue.
    fn finish(&mut self) {
        self.used_nodes -= self.job_nodes;
        self.admitted = (self.admitted + 1).min(self.jobs);
    }

    /// Whether some job still waits, queued or held.
    fn waiting(&self) -> bool {
        self.started < self.jobs
    }
}

/// Replay events.  The heap needs them ordered, but never compares two:
/// every `(time, seq)` key is unique.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Re-examine the queue (resources may have freed / ramp advanced).
    TryStart,
    /// A group finished a timestep.
    GroupStep {
        /// Group id.
        group: u64,
        /// Timestep just finished (0-based).
        ts: u32,
    },
}

/// Traces and scalars of one replayed study.
#[derive(Debug)]
pub struct StudyTraces {
    /// Running simulation groups over time (Fig. 6a/6c upper panel).
    pub running_groups: TimeSeries,
    /// Cores in use over time, including the server (Fig. 6a/6c lower).
    pub cores_used: TimeSeries,
    /// Instantaneous average execution time per group (Fig. 6b/6d):
    /// the projected full-run duration at the current per-timestep cycle.
    pub group_exec_time: TimeSeries,
    /// Wall-clock duration of the whole study, seconds.
    pub wall_time_s: f64,
    /// CPU hours burned by the simulations (∫ sim cores dt).
    pub cpu_hours_sims: f64,
    /// CPU hours burned by the server (server cores × wall time).
    pub cpu_hours_server: f64,
    /// Peak concurrent groups.
    pub peak_groups: u32,
    /// Peak cores in use (simulations + server).
    pub peak_cores: u32,
    /// Total data treated by the server, bytes.
    pub data_bytes: f64,
    /// Peak per-server-process message rate, messages/minute.
    pub peak_msgs_per_min_per_proc: f64,
    /// Modelled server memory, bytes.
    pub server_memory_bytes: f64,
    /// Total time groups spent blocked on full buffers, seconds
    /// (backpressure; zero when the server keeps up).
    pub blocked_group_seconds: f64,
}

impl StudyTraces {
    /// Mean group execution time over the steady phase (between 25 % and
    /// 75 % of the wall time) — the number to compare against the
    /// classical / no-output reference lines.
    pub fn steady_group_time(&self) -> f64 {
        let w = self.wall_time_s;
        self.group_exec_time
            .window_mean(0.25 * w, 0.75 * w)
            .unwrap_or(f64::NAN)
    }
}

/// Replays one full-scale study.
///
/// `server_nodes` selects the experiment (the paper runs 15 and 32); it is
/// ignored for the classical and no-output modes.
pub fn simulate_study(
    params: &FullScaleParams,
    kind: OutputKind,
    server_nodes: u32,
) -> StudyTraces {
    let server_cores = if kind == OutputKind::Melissa {
        server_nodes * params.cores_per_node
    } else {
        0
    };
    // The server is up before the groups, so its allocation is modelled
    // by shrinking the machine; the launcher then submits every group job
    // at t = 0.
    let group_nodes = if kind == OutputKind::Melissa {
        assert!(
            server_nodes <= params.machine_nodes,
            "the server needs more nodes than the machine has"
        );
        params.machine_nodes - server_nodes
    } else {
        params.machine_nodes
    };
    assert!(
        params.nodes_per_group() <= group_nodes,
        "a group job needs more nodes than the machine has"
    );
    assert!(
        params.submission_throttle > 0,
        "throttle must allow at least one submission"
    );
    let mut batch = Batch {
        jobs: params.groups as u64,
        job_nodes: params.nodes_per_group() as usize,
        nodes: group_nodes as usize,
        initial_nodes: params.avail_initial_nodes as usize,
        nodes_per_s: params.avail_nodes_per_s,
        started: 0,
        admitted: params.groups.min(params.submission_throttle) as u64,
        used_nodes: 0,
    };
    let mut queue = Events::new();
    queue.schedule(0.0, Event::TryStart);

    let mut running_count: u32 = 0;
    let mut finished: u32 = 0;

    let mut traces = StudyTraces {
        running_groups: TimeSeries::default(),
        cores_used: TimeSeries::default(),
        group_exec_time: TimeSeries::default(),
        wall_time_s: 0.0,
        cpu_hours_sims: 0.0,
        cpu_hours_server: 0.0,
        peak_groups: 0,
        peak_cores: 0,
        data_bytes: 0.0,
        peak_msgs_per_min_per_proc: 0.0,
        server_memory_bytes: params.server_state_bytes(),
        blocked_group_seconds: 0.0,
    };

    let group_cores = (params.nodes_per_group() * params.cores_per_node) as f64;
    let mut last_t = 0.0f64;
    let mut ramp_poll_until_full = true;

    // Per-timestep cycle of a group under the current load.
    let cycle = |running_count: u32, group: u64| -> (f64, f64) {
        // Returns (cycle seconds, blocked seconds within the cycle).
        let compute = |base: f64| base * params.jitter(group);
        match kind {
            OutputKind::NoOutput => (compute(params.compute_s_per_ts), 0.0),
            OutputKind::Classical => {
                let writers = (running_count.max(1) as f64) * params.sims_per_group() as f64;
                let per_writer = params
                    .per_sim_write_bps
                    .min(params.lustre_total_bps / writers);
                let write = params.bytes_per_sim_ts() / per_writer;
                (compute(params.compute_s_per_ts) + write, 0.0)
            }
            OutputKind::Melissa => {
                let unthrottled = params.melissa_cycle_unthrottled() - params.compute_s_per_ts
                    + compute(params.compute_s_per_ts);
                let throttled = running_count.max(1) as f64 * params.bytes_per_group_ts()
                    / params.server_capacity_bps(server_nodes);
                if throttled > unthrottled {
                    (throttled, throttled - unthrottled)
                } else {
                    (unthrottled, 0.0)
                }
            }
        }
    };

    let record = |traces: &mut StudyTraces, t: f64, running_count: u32| {
        traces.running_groups.push(t, running_count as f64);
        let cores = running_count as f64 * group_cores + server_cores as f64;
        traces.cores_used.push(t, cores);
        traces.peak_groups = traces.peak_groups.max(running_count);
        traces.peak_cores = traces.peak_cores.max(cores as u32);
    };

    while let Some((t, ev)) = queue.pop() {
        // CPU-hour integration over [last_t, t].
        traces.cpu_hours_sims += running_count as f64 * group_cores * (t - last_t) / 3600.0;
        last_t = t;

        match ev {
            Event::TryStart => {
                for g in batch.start_ready(t) {
                    running_count += 1;
                    let (c, blocked) = cycle(running_count, g);
                    traces.blocked_group_seconds += blocked;
                    queue.schedule(t + c, Event::GroupStep { group: g, ts: 0 });
                }
                record(&mut traces, t, running_count);
                // Poll the availability ramp until the machine is fully
                // usable and the queue has drained.
                if ramp_poll_until_full && batch.waiting() {
                    queue.schedule(t + 20.0, Event::TryStart);
                } else {
                    ramp_poll_until_full = false;
                }
            }
            Event::GroupStep { group, ts } => {
                if kind == OutputKind::Melissa {
                    traces.data_bytes += params.bytes_per_group_ts();
                }
                if ts + 1 == params.timesteps {
                    running_count -= 1;
                    finished += 1;
                    batch.finish();
                    record(&mut traces, t, running_count);
                    queue.schedule(t, Event::TryStart);
                } else {
                    let (c, blocked) = cycle(running_count, group);
                    traces.blocked_group_seconds += blocked;
                    queue.schedule(t + c, Event::GroupStep { group, ts: ts + 1 });
                }
                // Instantaneous average group execution time: the
                // projected whole-run duration at the current cycle.
                let (c, _) = cycle(running_count.max(1), group);
                traces.group_exec_time.push(t, c * params.timesteps as f64);

                // Peak per-process message rate (Melissa only): one message
                // per (rank, intersecting slab) per group timestep.
                if kind == OutputKind::Melissa && running_count > 0 {
                    let server_procs = (server_nodes * params.cores_per_node) as f64;
                    let ranks = params.cores_per_sim as f64;
                    let cells_per_rank = params.cells as f64 / ranks;
                    let cells_per_proc = params.cells as f64 / server_procs;
                    let slabs_per_rank = (cells_per_rank / cells_per_proc).ceil().max(1.0);
                    let msgs_per_group_ts = ranks * slabs_per_rank;
                    let rate = running_count as f64 * msgs_per_group_ts / c / server_procs * 60.0;
                    traces.peak_msgs_per_min_per_proc = traces.peak_msgs_per_min_per_proc.max(rate);
                }
            }
        }

        if finished == params.groups {
            traces.wall_time_s = t;
            break;
        }
    }

    traces.cpu_hours_server = server_cores as f64 * traces.wall_time_s / 3600.0;
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> FullScaleParams {
        // A scaled-down study so tests run instantly: 60 groups.
        FullScaleParams {
            groups: 60,
            ..FullScaleParams::default()
        }
    }

    #[test]
    fn all_groups_finish_and_traces_are_consistent() {
        let p = small_params();
        let t = simulate_study(&p, OutputKind::Melissa, 32);
        assert!(t.wall_time_s > 0.0);
        assert_eq!(t.running_groups.value_at(t.wall_time_s), Some(0.0));
        assert!(t.peak_groups > 0);
        let expect_bytes = p.total_study_bytes();
        assert!((t.data_bytes - expect_bytes).abs() < 1e-6 * expect_bytes);
    }

    #[test]
    fn undersized_server_causes_backpressure_oversized_does_not() {
        let p = FullScaleParams {
            groups: 200,
            ..FullScaleParams::default()
        };
        let t15 = simulate_study(&p, OutputKind::Melissa, 15);
        let t32 = simulate_study(&p, OutputKind::Melissa, 32);
        assert!(
            t15.blocked_group_seconds > 0.0,
            "15-node server must saturate"
        );
        assert_eq!(
            t32.blocked_group_seconds, 0.0,
            "32-node server must keep up"
        );
        // Study 1 groups slow down; Study 2 stays near the unthrottled time.
        assert!(t15.steady_group_time() > 1.3 * t32.steady_group_time());
    }

    #[test]
    fn melissa_beats_classical_when_server_keeps_up() {
        let p = small_params();
        let melissa = simulate_study(&p, OutputKind::Melissa, 32);
        let classical = simulate_study(&p, OutputKind::Classical, 0);
        let no_output = simulate_study(&p, OutputKind::NoOutput, 0);
        assert!(melissa.steady_group_time() < classical.steady_group_time());
        assert!(no_output.steady_group_time() < melissa.steady_group_time());
    }

    #[test]
    fn cpu_hours_accounting_is_positive_and_ordered() {
        let p = small_params();
        let t = simulate_study(&p, OutputKind::Melissa, 32);
        assert!(t.cpu_hours_sims > 0.0);
        assert!(t.cpu_hours_server > 0.0);
        // The server burns a small share of the total (paper: 1–2.1 %).
        let share = t.cpu_hours_server / (t.cpu_hours_server + t.cpu_hours_sims);
        assert!(share < 0.1, "server share {share}");
    }

    #[test]
    fn concurrency_ramps_up_then_down() {
        let p = small_params();
        let t = simulate_study(&p, OutputKind::Melissa, 32);
        let w = t.wall_time_s;
        let early = t.running_groups.value_at(0.02 * w).unwrap_or(0.0);
        let peak = t.running_groups.max_value().unwrap();
        assert!(early < peak, "expected a ramp: early {early}, peak {peak}");
    }

    #[test]
    fn curie_matches_paper_peak() {
        // 1807 thin nodes of 16 cores: the 28 912-core peak of Fig. 6a.
        let p = FullScaleParams::default();
        assert_eq!(p.machine_nodes * p.cores_per_node, 28_912);
    }

    fn batch(jobs: u64, throttle: u64, nodes: usize, initial_nodes: usize, slope: f64) -> Batch {
        Batch {
            jobs,
            job_nodes: 1,
            nodes,
            initial_nodes,
            nodes_per_s: slope,
            started: 0,
            admitted: jobs.min(throttle),
            used_nodes: 0,
        }
    }

    #[test]
    fn throttle_holds_excess_submissions() {
        let mut b = batch(4, 2, 100, 100, 0.0);
        assert_eq!(b.start_ready(0.0), 0..2);
        assert!(b.waiting());
        // Finishing one frees a throttle slot: a held job becomes queued.
        b.finish();
        assert_eq!(b.start_ready(5.0), 2..3);
        b.finish();
        assert_eq!(b.start_ready(6.0), 3..4);
        assert!(!b.waiting());
    }

    #[test]
    fn availability_ramp_gates_starts() {
        let mut b = batch(1, 100, 100, 0, 1.0);
        b.job_nodes = 10;
        assert!(b.start_ready(0.0).is_empty());
        assert!(b.start_ready(5.0).is_empty());
        assert_eq!(b.start_ready(10.0), 0..1);
    }

    #[test]
    fn fifo_start_respects_capacity() {
        let mut b = batch(3, 100, 2, 2, 0.0);
        assert_eq!(b.start_ready(0.0), 0..2);
        assert!(b.start_ready(1.0).is_empty());
        b.finish();
        assert_eq!(b.start_ready(2.0), 2..3);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = Events::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = Events::new();
        for i in (0..10).rev() {
            q.schedule(5.0, i);
        }
        for i in (0..10).rev() {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = Events::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn nan_time_panics() {
        Events::new().schedule(f64::NAN, ());
    }

    fn series() -> TimeSeries {
        let mut s = TimeSeries::default();
        s.push(0.0, 1.0);
        s.push(10.0, 5.0);
        s.push(20.0, 3.0);
        s
    }

    #[test]
    fn step_interpolation() {
        let s = series();
        assert_eq!(s.value_at(-1.0), None);
        assert_eq!(s.value_at(0.0), Some(1.0));
        assert_eq!(s.value_at(9.9), Some(1.0));
        assert_eq!(s.value_at(10.0), Some(5.0));
        assert_eq!(s.value_at(100.0), Some(3.0));
    }

    #[test]
    fn extremes_and_window() {
        let s = series();
        assert_eq!(s.max_value(), Some(5.0));
        assert_eq!(s.window_mean(5.0, 25.0), Some(4.0));
        assert_eq!(s.window_mean(100.0, 200.0), None);
    }

    #[test]
    fn csv_format() {
        let csv = series().to_csv("cores");
        assert!(csv.starts_with("time,cores\n"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn downsample_keeps_bounds() {
        let mut s = TimeSeries::default();
        for i in 0..100 {
            s.push(i as f64, i as f64);
        }
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].0, 0.0);
    }
}
