//! The five workloads: configurations, the no-output leg, the timed
//! rounds through the public entry points, and the correctness gate.
//!
//! One *round* is one study (or, for the daemon, one closed-loop batch of
//! studies) bracketed by two no-output legs, each leg shared with the
//! neighbouring round.  Pairing them is what lets host-speed drift cancel
//! in `transit_ratio`; a run repeats rounds for `--seconds` and reports
//! medians over rounds.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa::{Study, StudyConfig, StudyOutput, StudyResults, StudyRuntime};
use melissa_daemon::{Daemon, DaemonClient, DaemonConfig, StudyState};
use melissa_mesh::SlabPartition;
use melissa_scheduler::{Dispatcher, FairRunner, JobRunner};
use melissa_sobol::design::PickFreeze;
use melissa_solver::decomposed::DecomposedSimulation;
use melissa_solver::{FrozenFlow, InjectionParams, OutputMode, Simulation, UseCaseConfig};
use melissa_transport::{
    make_transport, make_transport_with, LinkStatsSnapshot, Transport, TransportKind,
    WireCompression,
};

use crate::trace::{is_data_endpoint, Tracer, TracingDispatcher, TracingTransport};

/// Concurrency of every workload: the load is generated by this one
/// process on a 2-core host, so two groups, two server workers and two
/// daemon clients.
pub const CONCURRENCY: usize = 2;

/// Threads of a no-output leg: what a live study keeps busy (two group
/// jobs and two server workers).
const LEG_THREADS: usize = 2 * CONCURRENCY;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TubeInproc,
    TubeTcp,
    TubeTcpTranspose,
    ShardedReduce,
    DaemonSmall,
}

impl Workload {
    /// Same order as `metrics::WORKLOADS`.
    pub const ALL: [Workload; 5] = [
        Workload::TubeInproc,
        Workload::TubeTcp,
        Workload::TubeTcpTranspose,
        Workload::ShardedReduce,
        Workload::DaemonSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TubeInproc => "tube_inproc",
            Workload::TubeTcp => "tube_tcp",
            Workload::TubeTcpTranspose => "tube_tcp_transpose",
            Workload::ShardedReduce => "sharded_reduce",
            Workload::DaemonSmall => "daemon_small",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The three workloads that run one study configuration over
    /// different links and must therefore agree on the statistics.
    pub fn is_tube(self) -> bool {
        matches!(
            self,
            Workload::TubeInproc | Workload::TubeTcp | Workload::TubeTcpTranspose
        )
    }

    /// The study configuration.  `seed` feeds the design seed and the
    /// shard-router seed (and, for the daemon, the per-study seeds) and
    /// nothing else.  `smoke` shrinks every workload to the tiny solver.
    pub fn config(self, seed: u64, smoke: bool) -> StudyConfig {
        let mut c = StudyConfig {
            seed,
            shard_seed: seed ^ 0x6d65_6c69_7373_6121,
            ranks_per_simulation: 2,
            server_workers: CONCURRENCY,
            max_concurrent_groups: CONCURRENCY,
            hwm: 64,
            // No periodic checkpoints: their count would depend on the
            // wall clock and the metrics would not repeat.
            checkpoint_interval: Duration::from_secs(3600),
            telemetry: true,
            wall_limit: Duration::from_secs(150),
            ..StudyConfig::default()
        };
        match self {
            Workload::TubeInproc | Workload::TubeTcp | Workload::TubeTcpTranspose => {
                c.n_groups = 8;
            }
            Workload::ShardedReduce => {
                c.n_groups = 4;
                c.n_shards = 2;
                // The study-end drain scales with cells x timesteps of
                // state, not with groups; 40 timesteps keep one round
                // near two seconds with the drain still half of it.
                c.solver.n_timesteps = 40;
            }
            Workload::DaemonSmall => {
                c.n_groups = 8;
                c.solver = UseCaseConfig::tiny();
            }
        }
        match self {
            Workload::TubeTcp => c.transport = TransportKind::Tcp,
            Workload::TubeTcpTranspose => {
                c.transport = TransportKind::Tcp;
                c.wire_compression = WireCompression::Transpose;
            }
            _ => {}
        }
        if smoke {
            c.solver = UseCaseConfig::tiny();
            c.n_groups = 4;
        }
        c
    }

    /// Groups in one no-output leg: a multiple of `LEG_THREADS`, about a
    /// fifth of a round.
    fn no_output_groups(self, smoke: bool) -> usize {
        if smoke {
            return LEG_THREADS;
        }
        match self {
            Workload::DaemonSmall => 6 * LEG_THREADS,
            Workload::ShardedReduce => 2 * LEG_THREADS,
            _ => LEG_THREADS,
        }
    }
}

/// Studies each daemon client submits (then waits for) per round.
const DAEMON_STUDIES_PER_CLIENT: usize = 5;

// ---------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s —
/// `CLK_TCK` is 100 on every Linux this runs on).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces: skip past its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime/stime are at offsets 11 and 12.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

// ---------------------------------------------------------------------
// Fixture, no-output leg and reference statistics
// ---------------------------------------------------------------------

/// What the benchmark derives from the seed on its own side: the design
/// rows and the frozen flow of the workload's solver configuration.
pub struct Fixture {
    pub workload: Workload,
    pub smoke: bool,
    pub config: StudyConfig,
    pub flow: Arc<FrozenFlow>,
    pub design: PickFreeze,
    /// Data frames one simulation sends per timestep (rank chunks split
    /// along the server's slab partition).
    pub frames_per_sim_timestep: u64,
}

/// The design a study of `config` draws (as `launcher::StudyContext` does).
fn draw_design(config: &StudyConfig) -> PickFreeze {
    PickFreeze::generate(
        config.n_groups,
        &InjectionParams::parameter_space(),
        config.seed,
    )
}

impl Fixture {
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Self {
        let config = workload.config(seed, smoke);
        config.validate().expect("workload configuration is valid");
        let flow = Arc::new(config.solver.prerun());
        // Exactly the study's rows: `PickFreeze::generate` draws all of A
        // before B, so a longer design would have other B rows.  A longer
        // no-output leg cycles through these.
        let design = draw_design(&config);
        let probe = DecomposedSimulation::new(
            &config.solver,
            Arc::clone(&flow),
            InjectionParams::from_row(&design.group(0).rows()[0]),
            config.ranks_per_simulation,
        );
        let slabs = SlabPartition::new(config.solver.mesh().n_cells(), config.server_workers);
        let frames_per_sim_timestep = (0..config.ranks_per_simulation)
            .flat_map(|rank| probe.rank_chunks(rank))
            .map(|(range, _)| slabs.redistribution(range).len() as u64)
            .sum();
        Self {
            workload,
            smoke,
            config,
            flow,
            design,
            frames_per_sim_timestep,
        }
    }

    pub fn n_cells(&self) -> usize {
        self.config.solver.mesh().n_cells()
    }

    /// The `p + 2` lockstep simulations of design row `group`.
    pub fn group_sims(&self, group: usize) -> Vec<DecomposedSimulation> {
        self.design
            .group(group)
            .rows()
            .iter()
            .map(|row| {
                DecomposedSimulation::new(
                    &self.config.solver,
                    Arc::clone(&self.flow),
                    InjectionParams::from_row(row),
                    self.config.ranks_per_simulation,
                )
            })
            .collect()
    }

    /// The paper's "no output" line: the same design rows through the
    /// same solver, every timestep's rank chunks produced and dropped.
    /// Returns wall seconds per group.
    ///
    /// The groups run on [`LEG_THREADS`] threads, as many as a live study
    /// keeps busy, not on one per core: with one thread per core the leg
    /// takes as long as the slower core, and on a host whose cores change
    /// speed independently that made the leg twice as noisy as the study
    /// it is compared with (ratio spread 40 % against 13 %, interleaved
    /// runs).  Oversubscribed, the OS balances both the same way.
    pub fn no_output_leg(&self, groups: usize) -> f64 {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..LEG_THREADS {
                scope.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups {
                        break;
                    }
                    let mut sims = self.group_sims(g % self.design.n_rows());
                    for _ in 0..self.config.solver.n_timesteps {
                        for sim in &mut sims {
                            sim.advance();
                        }
                        for rank in 0..self.config.ranks_per_simulation {
                            for sim in &sims {
                                black_box(sim.rank_chunks(rank));
                            }
                        }
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64() / groups as f64
    }
}

/// Statistics of one seeded study computed without the program's
/// transfer and server layers: the monolithic solver on the `Y^A`/`Y^B`
/// rows, folded per cell and timestep.  Min/max are order-independent and
/// must match a study bit for bit; mean and variance to rounding.
pub struct Reference {
    n_groups: usize,
    /// `[timestep][cell]`
    min: Vec<Vec<f64>>,
    max: Vec<Vec<f64>>,
    mean_a: Vec<Vec<f64>>,
    var_a: Vec<Vec<f64>>,
}

impl Reference {
    pub fn compute(solver: &UseCaseConfig, flow: &Arc<FrozenFlow>, design: &PickFreeze) -> Self {
        let n_groups = design.n_rows();
        let n_ts = solver.n_timesteps;
        let n_cells = solver.mesh().n_cells();
        let mut min = vec![vec![f64::INFINITY; n_cells]; n_ts];
        let mut max = vec![vec![f64::NEG_INFINITY; n_cells]; n_ts];
        let mut sum = vec![vec![0.0; n_cells]; n_ts];
        let mut sumsq = vec![vec![0.0; n_cells]; n_ts];
        for g in 0..n_groups {
            let rows = design.group(g);
            // Roles A and B are rows 0 and 1 of a group.
            for (role, row) in rows.rows().iter().take(2).enumerate() {
                let mut sim = Simulation::new(
                    solver,
                    Arc::clone(flow),
                    InjectionParams::from_row(row),
                    OutputMode::NoOutput,
                );
                sim.run(|ts, field| {
                    for (i, &y) in field.iter().enumerate() {
                        min[ts][i] = min[ts][i].min(y);
                        max[ts][i] = max[ts][i].max(y);
                        if role == 0 {
                            sum[ts][i] += y;
                            sumsq[ts][i] += y * y;
                        }
                    }
                });
            }
        }
        let n = n_groups as f64;
        let mean_a: Vec<Vec<f64>> = sum
            .iter()
            .map(|s| s.iter().map(|&x| x / n).collect())
            .collect();
        let var_a = sum
            .iter()
            .zip(&sumsq)
            .map(|(s, q)| {
                s.iter()
                    .zip(q)
                    .map(|(&s, &q)| {
                        if n_groups < 2 {
                            0.0
                        } else {
                            (q - s * s / n) / (n - 1.0)
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            n_groups,
            min,
            max,
            mean_a,
            var_a,
        }
    }
}

/// Order-independent facts about one study's statistics, printed so a
/// suite can compare the `tube_*` workloads with one another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checks {
    /// FNV-1a over the bits of every min and max field.
    pub envelope_digest: u64,
    pub mean_sum: f64,
    pub variance_sum: f64,
    pub first_order_sum: f64,
}

fn fnv1a(hash: &mut u64, values: &[f64]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Checks a finished study's statistics against the reference; returns
/// the digest and sums, or what is wrong.
pub fn verify_results(results: &StudyResults, reference: &Reference) -> Result<Checks, String> {
    let n_ts = results.n_timesteps();
    if n_ts != reference.min.len() || results.n_cells() != reference.min[0].len() {
        return Err("result shape differs from the reference".into());
    }
    let mut checks = Checks {
        envelope_digest: 0xcbf2_9ce4_8422_2325,
        mean_sum: 0.0,
        variance_sum: 0.0,
        first_order_sum: 0.0,
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    for ts in 0..n_ts {
        if results.groups_integrated(ts) != reference.n_groups as u64 {
            return Err(format!(
                "timestep {ts}: {} groups integrated, expected {}",
                results.groups_integrated(ts),
                reference.n_groups
            ));
        }
        let (min, max) = (results.min_field(ts), results.max_field(ts));
        let same_bits =
            |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        if !same_bits(&min, &reference.min[ts]) || !same_bits(&max, &reference.max[ts]) {
            return Err(format!(
                "timestep {ts}: min/max envelope differs from the reference bit pattern"
            ));
        }
        fnv1a(&mut checks.envelope_digest, &min);
        fnv1a(&mut checks.envelope_digest, &max);
        let mean = results.mean_field(ts);
        let var = results.variance_field(ts);
        for i in 0..mean.len() {
            if !close(mean[i], reference.mean_a[ts][i]) {
                return Err(format!(
                    "timestep {ts} cell {i}: mean {} vs reference {}",
                    mean[i], reference.mean_a[ts][i]
                ));
            }
            if !close(var[i], reference.var_a[ts][i]) {
                return Err(format!(
                    "timestep {ts} cell {i}: variance {} vs reference {}",
                    var[i], reference.var_a[ts][i]
                ));
            }
        }
        checks.mean_sum += mean.iter().sum::<f64>();
        checks.variance_sum += var.iter().sum::<f64>();
    }
    // Indices and order statistics at the first, middle and last
    // timestep.  A Robbins-Monro estimate starts at the first sample and
    // moves by at most the running range per step, so it can leave
    // [min, max] by at most that range (and is pinned where the range is
    // zero); with 2 x n_groups samples nothing tighter holds, not even
    // monotonicity in the probability.
    for ts in [0, n_ts / 2, n_ts - 1] {
        checks.first_order_sum += results.first_order_field(ts, 0).iter().sum::<f64>();
        let (min, max) = (&reference.min[ts], &reference.max[ts]);
        for idx in 0..results.quantile_probs().len() {
            let q = results.quantile_field(ts, idx);
            for i in 0..q.len() {
                let range = max[i] - min[i];
                if !(q[i] >= min[i] - range && q[i] <= max[i] + range) {
                    return Err(format!(
                        "timestep {ts} cell {i}: quantile {} = {} outside [{}, {}] widened by its range",
                        results.quantile_probs()[idx],
                        q[i],
                        min[i],
                        max[i]
                    ));
                }
            }
        }
    }
    if !checks.first_order_sum.is_finite() {
        return Err("first-order index sum is not finite".into());
    }
    Ok(checks)
}

/// Checks the launcher's accounting of a standalone study.
fn verify_report(out: &StudyOutput, fix: &Fixture) -> Result<(), String> {
    let r = &out.report;
    let c = &fix.config;
    let sims = (c.n_groups * c.group_size()) as u64;
    let messages = sims * c.solver.n_timesteps as u64 * fix.frames_per_sim_timestep;
    let bytes = sims * c.solver.n_timesteps as u64 * c.solver.field_bytes();
    let facts = [
        (
            "groups_finished",
            r.groups_finished as u64,
            c.n_groups as u64,
        ),
        ("groups_abandoned", r.groups_abandoned.len() as u64, 0),
        ("group_restarts", u64::from(r.group_restarts), 0),
        ("server_restarts", u64::from(r.server_restarts), 0),
        ("replays_discarded", r.replays_discarded, 0),
        ("data_messages", r.data_messages, messages),
        ("data_bytes", r.data_bytes, bytes),
    ];
    for (what, got, want) in facts {
        if got != want {
            return Err(format!("report.{what} = {got}, expected {want}"));
        }
    }
    if fix.workload == Workload::TubeTcpTranspose && r.link_bytes < r.link_wire_bytes {
        return Err(format!(
            "wire ratio below 1: {} payload bytes became {} on the wire",
            r.link_bytes, r.link_wire_bytes
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub groups: u64,
    pub sims: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub wire_bytes: u64,
    /// The round's speedometer: wall seconds per group of the no-output
    /// legs run right before and right after it (their mean), filled in
    /// by the run loop.
    pub no_output_s_per_group: f64,
    /// Submit (or call) to completion, one entry per study.
    pub latencies_ms: Vec<f64>,
    pub groups_failed: u64,
    pub problems: Vec<String>,
    pub checks: Option<Checks>,
    /// Link rollup of the data endpoints over the round (traced rounds).
    pub link: LinkStatsSnapshot,
}

impl Round {
    pub fn wall_per_group(&self) -> f64 {
        self.wall_s / self.groups as f64
    }
}

/// The environment a run's rounds share, built (and timed) by set-up.
pub struct Env {
    pub fix: Fixture,
    scratch: PathBuf,
    daemon: Option<DaemonEnv>,
    /// What every round of a standalone workload is checked against (the
    /// daemon's studies each have their own seed and a cheap reference
    /// computed on demand).
    reference: Option<Reference>,
    next_study: u64,
    rounds: u64,
}

struct DaemonEnv {
    transport: Arc<dyn Transport>,
    daemon: Daemon,
}

fn start_daemon(transport: Arc<dyn Transport>) -> DaemonEnv {
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            pool_units: CONCURRENCY,
            max_active_studies: CONCURRENCY,
            ..DaemonConfig::default()
        },
    );
    DaemonEnv { transport, daemon }
}

/// Sum of the link counters of every `…server/<w>` data endpoint.
fn data_link_rollup(transport: &dyn Transport) -> LinkStatsSnapshot {
    let mut sum = LinkStatsSnapshot::default();
    for (name, snap) in transport.link_stats() {
        if is_data_endpoint(&name) {
            sum.absorb(&snap);
        }
    }
    sum
}

fn link_delta(after: LinkStatsSnapshot, before: LinkStatsSnapshot) -> LinkStatsSnapshot {
    LinkStatsSnapshot {
        messages: after.messages - before.messages,
        bytes: after.bytes - before.bytes,
        wire_bytes: after.wire_bytes - before.wire_bytes,
        blocked_sends: after.blocked_sends - before.blocked_sends,
        blocked_nanos: after.blocked_nanos - before.blocked_nanos,
    }
}

impl Env {
    /// Set-up: everything between process start and the first measured
    /// interval — scratch directory, fixture (pre-run flow and design for
    /// the no-output leg), daemon start, and a 2-group tiny warm-up study
    /// through the workload's own entry point and link type.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        smoke: bool,
        scratch: &Path,
    ) -> Result<Env, String> {
        std::fs::create_dir_all(scratch)
            .map_err(|e| format!("scratch {}: {e}", scratch.display()))?;
        let fix = Fixture::new(workload, seed, smoke);
        let daemon = (workload == Workload::DaemonSmall)
            .then(|| start_daemon(make_transport(TransportKind::InProcess)));
        let env = Env {
            fix,
            scratch: scratch.to_path_buf(),
            daemon,
            reference: None,
            next_study: 0,
            rounds: 0,
        };
        let warm = StudyConfig {
            n_groups: 2,
            solver: UseCaseConfig::tiny(),
            checkpoint_dir: env.scratch.join("warmup"),
            ..env.fix.config.clone()
        };
        match &env.daemon {
            Some(d) => {
                let client = DaemonClient::new(Arc::clone(&d.transport), Duration::from_secs(10));
                let id = client
                    .submit("warmup", 0, warm)
                    .map_err(|e| format!("warm-up submit: {e}"))?;
                let status = client
                    .wait(id, Duration::from_secs(60))
                    .map_err(|e| format!("warm-up wait: {e}"))?;
                if status.state != StudyState::Done {
                    return Err(format!("warm-up study ended {:?}", status.state));
                }
            }
            None => {
                let out = Study::new(warm)
                    .run()
                    .map_err(|e| format!("warm-up study: {e}"))?;
                if out.report.groups_finished != 2 {
                    return Err("warm-up study did not finish its groups".into());
                }
            }
        }
        Ok(env)
    }

    /// Computes the reference statistics (not part of set-up or of any
    /// measured interval).
    pub fn prepare_reference(&mut self) {
        if self.fix.workload != Workload::DaemonSmall {
            self.reference = Some(Reference::compute(
                &self.fix.config.solver,
                &self.fix.flow,
                &self.fix.design,
            ));
        }
    }

    /// Stops what set-up started and removes the scratch directory.
    pub fn tear_down(self) {
        if let Some(d) = self.daemon {
            d.daemon.stop();
        }
        // Checkpoints are scratch data; a leftover directory is untidy,
        // not wrong.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }

    /// One no-output leg of the workload's size; wall seconds per group.
    pub fn no_output_leg(&self) -> f64 {
        self.fix
            .no_output_leg(self.fix.workload.no_output_groups(self.fix.smoke))
    }

    /// One study (daemon: one closed-loop batch); `tracer` switches the
    /// live decorators on.  The caller runs the legs around it.
    pub fn round(&mut self, tracer: Option<&Arc<Tracer>>) -> Round {
        let n = self.rounds;
        self.rounds += 1;
        match self.fix.workload {
            Workload::DaemonSmall => {
                let first = self.next_study;
                self.next_study += (CONCURRENCY * DAEMON_STUDIES_PER_CLIENT) as u64;
                self.daemon_round(first, tracer)
            }
            _ => self.study_round(n, tracer),
        }
    }

    fn study_round(&self, n: u64, tracer: Option<&Arc<Tracer>>) -> Round {
        let fix = &self.fix;
        let mut config = fix.config.clone();
        config.checkpoint_dir = self.scratch.join(format!("round{n}"));
        let groups = config.n_groups as u64;
        let mut round = Round {
            groups,
            sims: config.n_simulations() as u64,
            ..Round::default()
        };
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let result = match tracer {
            None => Study::new(config).run(),
            Some(tracer) => {
                let transport: Arc<dyn Transport> = Arc::new(TracingTransport::new(
                    make_transport_with(config.transport.clone(), config.wire_compression),
                    Arc::clone(tracer),
                ));
                let runner: Arc<dyn Dispatcher> = Arc::new(TracingDispatcher::new(
                    Arc::new(JobRunner::new(config.max_concurrent_groups)),
                    Arc::clone(tracer),
                ));
                let result = Study::new(config).run_in(StudyRuntime {
                    transport: Some(Arc::clone(&transport)),
                    runner: Some(runner),
                    ..StudyRuntime::default()
                });
                round.link = data_link_rollup(transport.as_ref());
                result
            }
        };
        round.wall_s = t0.elapsed().as_secs_f64();
        round.cpu_s = cpu_seconds() - cpu0;
        round.latencies_ms.push(round.wall_s * 1e3);
        match result {
            Ok(out) => {
                round.wire_bytes = out.report.link_wire_bytes;
                round.groups_failed = groups - (out.report.groups_finished as u64).min(groups);
                let reference = self.reference.as_ref().expect("prepare_reference ran");
                match verify_report(&out, fix)
                    .and_then(|()| verify_results(&out.results, reference))
                {
                    Ok(checks) => round.checks = Some(checks),
                    Err(e) => round.problems.push(e),
                }
            }
            Err(e) => {
                round.groups_failed = groups;
                round.problems.push(format!("study failed: {e}"));
            }
        }
        round
    }

    /// Two closed-loop clients: each submits a tiny study, waits for it,
    /// and only then submits the next.
    /// `first` numbers the round's studies (their seeds are the run's
    /// seed plus that number).
    fn daemon_round(&self, first: u64, tracer: Option<&Arc<Tracer>>) -> Round {
        let fix = &self.fix;
        // A traced round gets a daemon of its own on a decorated
        // transport; started and stopped outside the measured interval.
        let traced = tracer.map(|t| {
            let inner = make_transport(TransportKind::InProcess);
            start_daemon(Arc::new(TracingTransport::new(inner, Arc::clone(t))))
        });
        let denv = traced
            .as_ref()
            .or(self.daemon.as_ref())
            .expect("set-up started a daemon");
        let studies = CONCURRENCY * DAEMON_STUDIES_PER_CLIENT;
        let groups = (studies * fix.config.n_groups) as u64;
        let mut round = Round {
            groups,
            sims: groups * fix.config.group_size() as u64,
            ..Round::default()
        };

        let link0 = data_link_rollup(denv.transport.as_ref());
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        // (study seed, daemon id or error, latency)
        let outcomes: Vec<(u64, Result<u64, String>, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONCURRENCY)
                .map(|c| {
                    let transport = Arc::clone(&denv.transport);
                    scope.spawn(move || {
                        let client = DaemonClient::new(transport, Duration::from_secs(10));
                        let tenant = format!("client{c}");
                        (0..DAEMON_STUDIES_PER_CLIENT)
                            .map(|i| {
                                let k = first + (c * DAEMON_STUDIES_PER_CLIENT + i) as u64;
                                let mut config = fix.config.clone();
                                config.seed = fix.config.seed.wrapping_add(k);
                                config.checkpoint_dir = self.scratch.join("hosted");
                                let seed = config.seed;
                                let t = Instant::now();
                                let done = client
                                    .submit(&tenant, 0, config)
                                    .and_then(|id| client.wait(id, Duration::from_secs(60)))
                                    .map_err(|e| e.to_string())
                                    .and_then(|s| match s.state {
                                        StudyState::Done => Ok(s.study),
                                        other => Err(format!("study {} ended {other:?}", s.study)),
                                    });
                                (seed, done, t.elapsed().as_secs_f64() * 1e3)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        round.wall_s = t0.elapsed().as_secs_f64();
        round.cpu_s = cpu_seconds() - cpu0;
        round.link = link_delta(data_link_rollup(denv.transport.as_ref()), link0);
        round.wire_bytes = round.link.wire_bytes;

        // Outside the interval: fetch every study's statistics and check
        // them against that seed's reference.
        let client = DaemonClient::new(Arc::clone(&denv.transport), Duration::from_secs(10));
        for (seed, done, latency_ms) in outcomes {
            round.latencies_ms.push(latency_ms);
            let verdict = done.and_then(|id| {
                let results = client
                    .results(id)
                    .map_err(|e| format!("results of study {id}: {e}"))?;
                let mut config = fix.config.clone();
                config.seed = seed;
                let design = draw_design(&config);
                let reference = Reference::compute(&config.solver, &fix.flow, &design);
                verify_results(&results, &reference).map_err(|e| format!("study {id}: {e}"))
            });
            if let Err(e) = verdict {
                round.groups_failed += fix.config.n_groups as u64;
                round.problems.push(e);
            }
        }

        if let (Some(tracer), Some(denv)) = (tracer, traced) {
            denv.daemon.stop();
            // The daemon takes no dispatcher, so the scheduler spans come
            // from the same tiny study run standalone on the scheduler the
            // daemon uses: a fair-runner stream behind the decorator.
            self.traced_fair_runner_studies(tracer, &mut round);
        }
        round
    }

    fn traced_fair_runner_studies(&self, tracer: &Arc<Tracer>, round: &mut Round) {
        let fair = FairRunner::new(CONCURRENCY);
        for k in 0..2 {
            let mut config = self.fix.config.clone();
            config.checkpoint_dir = self.scratch.join(format!("fair{k}"));
            let stream = fair.open_stream("bench", 0, config.max_concurrent_groups);
            let stream_id = stream.id();
            let transport: Arc<dyn Transport> = Arc::new(TracingTransport::new(
                make_transport(TransportKind::InProcess),
                Arc::clone(tracer),
            ));
            let runner: Arc<dyn Dispatcher> =
                Arc::new(TracingDispatcher::new(Arc::new(stream), Arc::clone(tracer)));
            let result = Study::new(config).run_in(StudyRuntime {
                transport: Some(Arc::clone(&transport)),
                runner: Some(runner),
                ..StudyRuntime::default()
            });
            fair.close_stream(stream_id);
            // The tracer counted these frames too: keep the link rollup
            // it is compared with in step.
            round.link.absorb(&data_link_rollup(transport.as_ref()));
            if let Err(e) = result {
                round
                    .problems
                    .push(format!("traced fair-runner study: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_match_the_metric_tables() {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        let documented: Vec<_> = crate::metrics::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, documented);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            w.config(7, false).validate().expect("valid");
            w.config(7, true).validate().expect("valid smoke");
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seed_reaches_only_the_seeds() {
        let a = Workload::TubeTcp.config(1, false);
        let mut b = Workload::TubeTcp.config(2, false);
        assert_ne!((a.seed, a.shard_seed), (b.seed, b.shard_seed));
        b.seed = a.seed;
        b.shard_seed = a.shard_seed;
        assert_eq!(a, b);
    }

    #[test]
    fn process_accounting_reads_procfs() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before && x > 0);
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn a_smoke_study_passes_the_correctness_gate() {
        let fix = Fixture::new(Workload::TubeInproc, 11, true);
        let reference = Reference::compute(&fix.config.solver, &fix.flow, &fix.design);
        let mut config = fix.config.clone();
        // Never written: the study takes no periodic checkpoint.
        config.checkpoint_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../target/study_bench/test-gate");
        let out = Study::new(config).run().expect("smoke study");
        verify_report(&out, &fix).expect("report");
        let checks = verify_results(&out.results, &reference).expect("results");
        assert!(checks.mean_sum > 0.0);
        // A reference drawn from another seed must not pass.
        let other = Fixture::new(Workload::TubeInproc, 12, true);
        let wrong = Reference::compute(&other.config.solver, &other.flow, &other.design);
        assert!(verify_results(&out.results, &wrong).is_err());
        assert!(fix.no_output_leg(3) > 0.0);
    }
}
