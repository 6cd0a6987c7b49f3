//! The full-scale discrete-event study simulation (Figures 6a–6d).
//!
//! Replays one complete study — 1000 group jobs through the batch
//! scheduler onto the machine, stepping timestep by timestep — under one
//! of the three output modes, and records the traces the paper plots:
//! running groups / cores over time (Fig. 6a/6c) and the instantaneous
//! average group execution time (Fig. 6b/6d), plus the Section 5.3
//! scalar results.

use melissa_scheduler::{Availability, BatchSim, Cluster, EventQueue, JobRequest, TimeSeries};

use super::params::{FullScaleParams, OutputKind};

/// DES events.
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

/// Traces and scalars of one simulated study.
#[derive(Debug, Clone)]
pub struct StudyTraces {
    /// Output mode simulated.
    pub kind: OutputKind,
    /// Server nodes (Melissa mode only; 0 otherwise).
    pub server_nodes: u32,
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

/// Simulates one full-scale study.
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
    let availability = Availability::Ramp {
        initial: params.avail_initial_nodes as usize,
        nodes_per_second: params.avail_nodes_per_s,
    };
    let mut batch = BatchSim::new(
        Cluster::new(group_nodes as usize, params.cores_per_node as usize),
        availability,
        params.submission_throttle as usize,
    );
    let mut queue: EventQueue<Event> = EventQueue::new();

    for g in 0..params.groups as u64 {
        batch.submit(
            0.0,
            JobRequest {
                id: g,
                nodes: params.nodes_per_group() as usize,
                walltime: 86_400.0,
            },
        );
    }
    queue.schedule(0.0, Event::TryStart);

    let mut running: Vec<bool> = vec![false; params.groups as usize];
    let mut running_count: u32 = 0;
    let mut finished: u32 = 0;

    let mut traces = StudyTraces {
        kind,
        server_nodes: if kind == OutputKind::Melissa {
            server_nodes
        } else {
            0
        },
        running_groups: TimeSeries::new(),
        cores_used: TimeSeries::new(),
        group_exec_time: TimeSeries::new(),
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
                let started = batch.start_ready(t);
                for g in started {
                    running[g as usize] = true;
                    running_count += 1;
                    let (c, blocked) = cycle(running_count, g);
                    traces.blocked_group_seconds += blocked;
                    queue.schedule(t + c, Event::GroupStep { group: g, ts: 0 });
                }
                record(&mut traces, t, running_count);
                // Poll the availability ramp until the machine is fully
                // usable and the queue has drained.
                if ramp_poll_until_full && (batch.queued_count() > 0 || batch.held_count() > 0) {
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
                    running[group as usize] = false;
                    running_count -= 1;
                    finished += 1;
                    batch.finish(t, group);
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
}
