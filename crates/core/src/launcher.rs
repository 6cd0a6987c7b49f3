//! Melissa Launcher: study orchestration and fault supervision
//! (paper Sections 4.1.4 and 4.2).
//!
//! The launcher draws the pick-freeze design, starts Melissa Server, then
//! submits every simulation group as an independent job.  While the study
//! runs it supervises everything:
//!
//! * **unfinished groups** — the server reports groups whose inter-message
//!   gap exceeded the timeout; the launcher kills and resubmits them;
//! * **zombie groups** — jobs the scheduler sees running that never
//!   contacted the server; detected by reconciling server reports with job
//!   state, then killed and resubmitted;
//! * **server faults** — heartbeat loss triggers a full recovery: kill
//!   everything, restart the server from its last checkpoint, resubmit all
//!   unfinished groups (discard-on-replay makes over-submission safe);
//! * **retry caps** — a group failing more than `max_group_retries` times
//!   is abandoned (never replaced by a redrawn row, which would bias the
//!   statistics — paper Section 4.2.2);
//! * **convergence loopback** — optional early stop once the widest
//!   confidence interval falls below the target (Section 4.1.5).
//!
//! The supervision machinery is factored per *shard*: [`run_study`] runs
//! one supervisor over one server instance for the classic single-server
//! study, while the sharded runner ([`crate::shard`]) runs one supervisor
//! per server instance, all sharing the batch runner (the global node
//! budget), the study clock and the convergence coordination.  Each
//! supervisor owns its shard's failover completely — including the
//! checkpoint-restore server recovery — so a shard failure never stalls
//! the other shards.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa_sobol::design::PickFreeze;
use melissa_solver::injection::InjectionParams;
use melissa_solver::FrozenFlow;
use melissa_telemetry::{EventKind, Telemetry};
use melissa_transport::directory::names;
use melissa_transport::{
    make_transport_with, KillSwitch, LivenessTracker, LoadMonitor, Receiver, RecvTimeoutError,
    Transport,
};
use parking_lot::Mutex;

use crate::config::StudyConfig;
use crate::fault::FaultPlan;
use crate::group::{run_group, GroupContext, GroupOutcome};
use crate::protocol::Message;
use crate::report::StudyReport;
use crate::server::checkpoint::read_checkpoint;
use crate::server::state::WorkerState;
use crate::server::{Server, ServerConfig};
use crate::shard::{GroupRouter, RoutingTable};
use crate::study::{StudyOutput, StudyResults};
use melissa_mesh::SlabPartition;
use melissa_scheduler::{Dispatcher, JobRunner};

/// The execution environment a study runs in.
///
/// The defaults reproduce the standalone launcher exactly: a fresh
/// transport built from [`StudyConfig::transport`], a private
/// ticket-FIFO [`JobRunner`] sized to
/// [`StudyConfig::max_concurrent_groups`], the flat endpoint namespace
/// and no external cancellation.  A multi-tenant service overrides all
/// four — the shared transport, a per-study [`Dispatcher`] slice of the
/// shared node pool, a `study<id>` scope isolating every endpoint name
/// and checkpoint path, and a cancel switch wired to its `cancel` RPC —
/// and the supervision machinery in between runs unchanged.
#[derive(Default)]
pub struct StudyRuntime {
    /// Transport override (`None` builds one from the configuration).
    pub transport: Option<Arc<dyn Transport>>,
    /// Group-job dispatcher override (`None` builds a private
    /// [`JobRunner`] with `max_concurrent_groups` units).
    pub runner: Option<Arc<dyn Dispatcher>>,
    /// Outer endpoint scope: every endpoint the study binds — servers,
    /// launcher inboxes, telemetry — nests under it (empty keeps the
    /// classic flat namespace).
    pub scope: String,
    /// Cooperative cancellation: once killed, every shard supervisor
    /// stops its jobs and server and the study returns a "cancelled"
    /// error.
    pub cancel: KillSwitch,
}

/// Tracking entry for one active group job.
struct ActiveJob {
    handle: melissa_scheduler::JobHandle,
    instance: u32,
    started_at: Instant,
}

/// One group crossing an epoch fence: everything the adopting shard needs
/// to resume it — per-worker discard floors (the flush-barrier result) and
/// the instance number the replayed job will run as.
pub(crate) struct MigratedGroup {
    pub id: u64,
    /// One integration floor per server worker, in worker order: the last
    /// timestep that worker fully integrated before the fence (`-1` if
    /// none).  The target adopts these as discard-on-replay floors so the
    /// migrated instance's replay skips exactly what the source kept.
    pub floors: Vec<i64>,
    /// Instance number the target submits the replayed group job as.
    pub next_instance: u32,
}

/// One fence's handoff from a source supervisor to a target supervisor,
/// delivered through the [`Coordination`] mailboxes.  An *empty* handoff
/// (no groups) still counts toward the target's expected-handoff quota so
/// scripted targets never wait for groups that finished before the fence.
pub(crate) struct Handoff {
    pub from: usize,
    pub epoch: u64,
    pub groups: Vec<MigratedGroup>,
}

/// Cross-shard convergence coordination: every shard supervisor publishes
/// its latest convergence signals here, and the *aggregate* (max over
/// shards, each shard's CI being over fewer groups and therefore wider)
/// drives the early-stop decision for the whole study — adaptive stopping
/// works unchanged under sharding.
pub(crate) struct Coordination {
    /// Per-shard latest max CI width (∞ until the shard reports one).
    ci: Mutex<Vec<f64>>,
    /// Per-shard latest max Robbins–Monro quantile step (∞ until the
    /// shard reports one; 0 when order statistics are disabled).
    qstep: Mutex<Vec<f64>>,
    /// Per-shard finished-group counts.
    finished: Mutex<Vec<usize>>,
    /// Set once the aggregate signal crosses the target: every shard
    /// cancels its remaining groups.
    early_stop: AtomicBool,
    /// The epoch-fenced routing table shared by every supervisor and
    /// client: base group-hash assignment plus fenced per-group overrides
    /// ([`crate::shard::RoutingTable`]).
    pub(crate) routing: RoutingTable,
    /// Per-slot migration mailboxes: a fencing supervisor pushes its
    /// [`Handoff`] here and the target drains its own mailbox each
    /// supervision tick.
    mailboxes: Vec<Mutex<Vec<Handoff>>>,
}

impl Coordination {
    pub(crate) fn new(n_slots: usize, routing: RoutingTable) -> Self {
        Self {
            ci: Mutex::new(vec![f64::INFINITY; n_slots]),
            qstep: Mutex::new(vec![f64::INFINITY; n_slots]),
            finished: Mutex::new(vec![0; n_slots]),
            early_stop: AtomicBool::new(false),
            routing,
            mailboxes: (0..n_slots).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Delivers a fence's handoff to the target slot's mailbox.
    pub(crate) fn push_handoff(&self, slot: usize, handoff: Handoff) {
        self.mailboxes[slot].lock().push(handoff);
    }

    /// Drains the slot's mailbox (FIFO in push order).
    pub(crate) fn take_handoffs(&self, slot: usize) -> Vec<Handoff> {
        std::mem::take(&mut *self.mailboxes[slot].lock())
    }

    fn publish(&self, shard: usize, ci: f64, qstep: f64, finished: usize) {
        self.ci.lock()[shard] = ci;
        self.qstep.lock()[shard] = qstep;
        self.finished.lock()[shard] = finished;
    }

    /// Aggregate CI signal: the max over shards (∞ until every shard with
    /// groups has reported).
    fn max_ci(&self) -> f64 {
        self.ci.lock().iter().copied().fold(0.0, f64::max)
    }

    /// Aggregate quantile-step signal: the max over shards (∞ until every
    /// shard with groups has reported one).
    fn max_qstep(&self) -> f64 {
        self.qstep.lock().iter().copied().fold(0.0, f64::max)
    }

    fn total_finished(&self) -> usize {
        self.finished.lock().iter().sum()
    }
}

/// Everything the per-shard supervisors share: configuration, the drawn
/// design, the pre-run flow, the transport, the batch runner (global node
/// budget), the study clock and the convergence coordination.
pub(crate) struct StudyContext {
    pub config: StudyConfig,
    pub faults: FaultPlan,
    pub transport: Arc<dyn Transport>,
    pub design: PickFreeze,
    pub flow: Arc<FrozenFlow>,
    pub runner: Arc<dyn Dispatcher>,
    /// Outer endpoint scope every shard scope nests under (empty for a
    /// standalone study, `study<id>` under the daemon).
    pub outer: String,
    /// External cancellation (never killed for a standalone study).
    pub cancel: KillSwitch,
    pub coord: Coordination,
    pub p: usize,
    pub n_cells: usize,
    pub started: Instant,
    /// Supervisor slots this study runs: the `n_shards` launch-time
    /// shards, plus one joiner slot per scripted scale-out target beyond
    /// them ([`FaultPlan::n_supervisors`]).
    pub n_slots: usize,
    /// Per-slot live telemetry (empty when
    /// [`StudyConfig::telemetry`] is off): shared registry, event ring
    /// and routing-epoch gauge, all stamped against the study clock.
    pub telemetry: Vec<Arc<Telemetry>>,
}

impl StudyContext {
    /// Draws the design, runs the shared pre-run and sets up the runtime
    /// shared by all shard supervisors, inside the given [`StudyRuntime`]
    /// (the default runtime reproduces the standalone launcher; the
    /// daemon injects its shared transport and dispatcher, the study
    /// scope and the cancel switch here).
    pub(crate) fn new_in(config: StudyConfig, faults: FaultPlan, rt: StudyRuntime) -> Self {
        let transport = rt.transport.unwrap_or_else(|| {
            make_transport_with(config.transport.clone(), config.wire_compression)
        });
        let space = InjectionParams::parameter_space();
        let design = PickFreeze::generate(config.n_groups, &space, config.seed);
        let p = space.dim();
        let flow = Arc::new(config.solver.prerun());
        let n_cells = config.solver.mesh().n_cells();
        let runner: Arc<dyn Dispatcher> = rt
            .runner
            .unwrap_or_else(|| Arc::new(JobRunner::new(config.max_concurrent_groups)));
        let n_slots = faults.n_supervisors(config.n_shards);
        let routing =
            RoutingTable::new(GroupRouter::new(config.n_shards.max(1), config.shard_seed));
        let coord = Coordination::new(n_slots, routing);
        let started = Instant::now();
        // One telemetry hub per supervisor slot, all on the shared study
        // clock so cross-shard event timestamps are comparable.
        let telemetry = if config.telemetry {
            (0..n_slots)
                .map(|k| Telemetry::with_origin(k as u32, started))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            config,
            faults,
            transport,
            design,
            flow,
            runner,
            outer: rt.scope,
            cancel: rt.cancel,
            coord,
            p,
            n_cells,
            started,
            n_slots,
            telemetry,
        }
    }

    /// Slot `slot`'s telemetry hub (`None` when telemetry is disabled).
    pub(crate) fn telemetry(&self, slot: usize) -> Option<&Arc<Telemetry>> {
        self.telemetry.get(slot)
    }

    /// The server configuration of the shard in slot `slot` scoped by
    /// `scope` (the empty scope is the single-server deployment and keeps
    /// the flat checkpoint directory; shards checkpoint into per-shard
    /// subdirectories so worker files never collide).
    pub(crate) fn server_config(&self, slot: usize, scope: &str) -> ServerConfig {
        let checkpoint_dir = if scope.is_empty() {
            self.config.checkpoint_dir.clone()
        } else {
            self.config.checkpoint_dir.join(scope)
        };
        ServerConfig {
            scope: scope.to_string(),
            n_workers: self.config.server_workers,
            n_cells: self.n_cells,
            p: self.p,
            n_timesteps: self.config.solver.n_timesteps,
            hwm: self.config.hwm,
            group_timeout: self.config.group_timeout,
            checkpoint_interval: self.config.checkpoint_interval,
            checkpoint_dir,
            report_interval: Duration::from_millis(50),
            track_ci: self.config.target_ci_width.is_some(),
            ci_variance_floor: self.config.ci_variance_floor,
            restore: false,
            thresholds: self.config.thresholds.clone(),
            quantile_probs: self.config.quantile_probs.clone(),
            telemetry: self.telemetry(slot).cloned(),
        }
    }
}

/// What one shard supervisor hands back: the final worker statistics and
/// the shard's slice of the study accounting.
pub(crate) struct ShardRun {
    pub states: Vec<crate::server::state::WorkerState>,
    /// Per-shard accounting (counters, events, convergence signals);
    /// `wall_time` and assembly-level fields are filled by the caller.
    pub report: StudyReport,
}

/// Runs a complete study under the launcher's supervision.
pub fn run_study(config: StudyConfig, faults: FaultPlan) -> Result<StudyOutput, String> {
    run_study_on(config, faults, None)
}

/// [`run_study`] over a caller-provided transport.  Passing the transport
/// in lets a live scraper (e.g. `examples/melissa_top.rs`) connect to the
/// study's `telemetry/shard<k>` endpoints while it runs; `None` builds
/// one from [`StudyConfig::transport`].
pub fn run_study_on(
    config: StudyConfig,
    faults: FaultPlan,
    transport: Option<Arc<dyn Transport>>,
) -> Result<StudyOutput, String> {
    run_study_in(
        config,
        faults,
        StudyRuntime {
            transport,
            ..StudyRuntime::default()
        },
    )
}

/// [`run_study`] inside a caller-built [`StudyRuntime`]: shared
/// transport, injected dispatcher, outer endpoint scope and external
/// cancellation.  This is the entry point the multi-tenant daemon uses
/// to run many isolated studies over one node pool; with the default
/// runtime it is exactly [`run_study`].
pub fn run_study_in(
    config: StudyConfig,
    faults: FaultPlan,
    rt: StudyRuntime,
) -> Result<StudyOutput, String> {
    config.validate()?;
    faults.validate(config.n_shards)?;
    if config.n_shards > 1 {
        return crate::shard::run_sharded_study(config, faults, rt);
    }
    let ctx = StudyContext::new_in(config, faults, rt);
    let groups: Vec<u64> = (0..ctx.config.n_groups as u64).collect();
    let scope = ctx.outer.clone();
    let run = supervise_shard(&ctx, 0, &scope, &groups)?;

    let mut report = run.report;
    let results = StudyResults::from_worker_states(
        ctx.p,
        ctx.config.solver.n_timesteps,
        ctx.n_cells,
        run.states,
    );
    report.wall_time = ctx.started.elapsed();
    Ok(StudyOutput { results, report })
}

/// Supervises one server instance (shard) over its group subset to
/// completion: submission, failure handling, checkpoint-restore failover
/// and the convergence loopback.  This is the single-server launcher loop
/// of the paper, parameterised by endpoint scope so `N` of them can run
/// against one transport.
pub(crate) fn supervise_shard(
    ctx: &StudyContext,
    shard: usize,
    scope: &str,
    groups: &[u64],
) -> Result<ShardRun, String> {
    let config = &ctx.config;
    let wall_limit = config.wall_limit;
    let transport = &ctx.transport;
    let launcher_rx = transport.bind(&names::launcher_in(scope), 1024);

    let mut report = StudyReport::new(config.n_groups);
    report.n_shards = config.n_shards;
    // Stamp journal events against the shared study clock, tagged with
    // this supervisor's slot, so per-shard journals merge on one axis.
    report.origin = ctx.started;
    report.shard = shard as u32;
    if shard >= config.n_shards {
        // A joiner slot: no groups at launch, everything arrives by
        // handoff (elastic scale-out).
        report.shards_joined = 1;
    }

    // Live telemetry handles (all no-ops when disabled): control-path
    // gauges each supervision tick, histograms on completion/migration.
    let tele = ctx.telemetry(shard);
    let queue_gauge = tele.map(|t| t.registry().gauge("runner_queue_depth"));
    let free_gauge = tele.map(|t| t.registry().gauge("runner_free_units"));
    let turnaround_hist = tele.map(|t| t.registry().histogram("group_turnaround_nanos"));
    let drain_hist = tele.map(|t| t.registry().histogram("migrate_drain_nanos"));
    let adopt_hist = tele.map(|t| t.registry().histogram("migrate_adopt_nanos"));

    let server_config = ctx.server_config(shard, scope);

    // Start the server and wait for readiness.
    let launcher_tx = transport
        .connect(&names::launcher_in(scope))
        .expect("just bound");
    let mut server = Server::start(
        server_config.clone(),
        Arc::clone(transport),
        launcher_tx.clone(),
    );
    wait_for_ready(launcher_rx.as_ref(), config.server_timeout)?;

    let outcomes: Arc<Mutex<HashMap<(u64, u32), GroupOutcome>>> =
        Arc::new(Mutex::new(HashMap::new()));

    let submit = |g: u64, instance: u32, server_kill: KillSwitch| -> melissa_scheduler::JobHandle {
        // Sharded studies route through the epoch-fenced table *at submit
        // time*, so a group resubmitted after a fence connects to its new
        // owner; the single-server study keeps its (possibly
        // study-scoped) flat scope.  The routing table speaks bare shard
        // scopes, so a daemon-hosted sharded study nests them under its
        // outer study scope here.
        let job_scope = if config.n_shards > 1 {
            names::scoped(&ctx.outer, &ctx.coord.routing.scope_of(g))
        } else {
            scope.to_string()
        };
        let ctx_job = GroupContext {
            scope: job_scope,
            group_id: g,
            instance,
            rows: ctx.design.group(g as usize).rows().to_vec(),
            solver: config.solver.clone(),
            flow: Arc::clone(&ctx.flow),
            ranks: config.ranks_per_simulation,
            transport: Arc::clone(transport),
            timeout: config.group_timeout,
            fault: ctx.faults.group_fault(g, instance),
            link_fault: config.link_fault.clone(),
            wire_compression: config.wire_compression,
        };
        let outcomes = Arc::clone(&outcomes);
        let _ = server_kill;
        ctx.runner.submit_boxed(
            1,
            Box::new(move |kill| {
                let outcome = run_group(ctx_job, kill);
                outcomes.lock().insert((g, instance), outcome);
            }),
        )
    };

    // Submit every group of this shard once, in increasing id order (the
    // runner's ticket FIFO turns that into a deterministic start order).
    let mut active: HashMap<u64, ActiveJob> = HashMap::new();
    for &g in groups {
        let handle = submit(g, 0, server.kill.clone());
        active.insert(
            g,
            ActiveJob {
                handle,
                instance: 0,
                started_at: Instant::now(),
            },
        );
    }

    // A shard with no groups still answers the convergence coordination
    // (a neutral signal) so the aggregate does not stay pinned at ∞.
    if groups.is_empty() {
        ctx.coord.publish(shard, 0.0, 0.0, 0);
    }

    // Supervision state.
    let server_liveness = LivenessTracker::new(config.server_timeout);
    server_liveness.record(0u32);
    // Load-aware supervision (the congestion-collapse fix): the loop's
    // own timed waits measure how starved this process is, and both
    // failure detectors — the server heartbeat and the zombie check —
    // stretch by the observed factor instead of shipping inflated
    // wall-clock limits that would slow detection on a healthy host.
    let load = LoadMonitor::new();
    let poll = Duration::from_millis(10);
    let load_gauge = tele.map(|t| t.registry().gauge("load_factor_milli"));
    let mut known_finished: HashSet<u64> = HashSet::new();
    let mut known_running: HashSet<u64> = HashSet::new();
    let mut retries: HashMap<u64, u32> = HashMap::new();
    let mut abandoned: HashSet<u64> = HashSet::new();
    let mut last_ci = f64::INFINITY;
    let mut last_quantile_step = f64::INFINITY;
    let mut last_quantile_steps: Vec<f64> = Vec::new();
    let mut early_stopped = false;
    // Live ownership: groups this supervisor currently owns.  Shrinks
    // when a fence migrates groups away, grows when a handoff arrives.
    let mut my_groups: HashSet<u64> = groups.iter().copied().collect();
    // Scripted chaos: server kills (transient and permanent) and
    // outbound migrations, each a sorted queue consumed by trigger.
    let kills = ctx.faults.kills_for_shard(shard);
    let mut kill_idx = 0usize;
    let migrations = ctx.faults.migrations_from(shard);
    let mut mig_idx = 0usize;
    let expected_handoffs = ctx.faults.expected_handoffs(shard);
    let mut handoffs_received = 0usize;
    // Floors adopted from inbound handoffs, remembered so a later
    // permanent death hands off at least these floors even if the local
    // checkpoint predates the adoption.
    let mut adopted_floors: HashMap<u64, Vec<i64>> = HashMap::new();
    // Counters carried across server restarts (a crashed server's shared
    // counters would otherwise vanish from the final report).
    let mut carried = [0u64; 4];

    loop {
        // External cancellation (the daemon's `cancel` RPC): stop every
        // job and the server cleanly, then report the study cancelled.
        if ctx.cancel.is_killed() {
            for (_, job) in active.iter() {
                job.handle.kill.kill();
            }
            for (_, job) in active.drain() {
                job.handle.join();
            }
            server.abandon();
            return Err(format!(
                "study cancelled: finished {}/{}",
                known_finished.len(),
                my_groups.len()
            ));
        }
        if ctx.started.elapsed() > wall_limit {
            return Err(format!(
                "study exceeded wall limit {:?}: finished {}/{}",
                wall_limit,
                known_finished.len(),
                my_groups.len()
            ));
        }

        // Control-path gauges, refreshed every supervision tick: how deep
        // the FCFS queue is and how much of the node budget is free.
        if let Some(g) = &queue_gauge {
            g.set(ctx.runner.queued_jobs());
        }
        if let Some(g) = &free_gauge {
            g.set(ctx.runner.free_units() as u64);
        }
        if let Some(g) = &load_gauge {
            g.set((load.factor() * 1000.0) as u64);
        }
        // The heartbeat detector follows the measured scheduling delay
        // (one relaxed store; factor 1 on a healthy host).
        server_liveness.set_timeout(load.scale(config.server_timeout));

        // 1. Drain launcher inbox.
        let wait_started = Instant::now();
        match launcher_rx.recv_timeout(poll) {
            Ok(frame) => {
                if let Ok(msg) = Message::decode(&frame) {
                    match msg {
                        Message::Heartbeat { .. } | Message::ServerReady => {
                            server_liveness.record(0u32);
                        }
                        Message::ServerReport {
                            finished_groups,
                            running_groups,
                            max_ci_width,
                            max_quantile_step,
                            quantile_steps,
                            blocked_sends,
                            blocked_nanos,
                        } => {
                            server_liveness.record(0u32);
                            known_finished.extend(finished_groups);
                            known_running = running_groups.into_iter().collect();
                            last_ci = max_ci_width;
                            last_quantile_step = max_quantile_step;
                            last_quantile_steps = quantile_steps;
                            ctx.coord.publish(
                                shard,
                                last_ci,
                                last_quantile_step,
                                known_finished.len(),
                            );
                            // Live backpressure accounting (the Fig. 6
                            // signal): keeps the report current mid-study
                            // and across server crashes; the final stop
                            // path overwrites it with the authoritative
                            // end-of-study transport rollup.
                            report.blocked_sends = blocked_sends;
                            report.blocked_time = Duration::from_nanos(blocked_nanos);
                        }
                        Message::GroupTimeout { group_id }
                            if !known_finished.contains(&group_id)
                                && my_groups.contains(&group_id) =>
                        {
                            log_ev(
                                &mut report,
                                tele,
                                EventKind::GroupTimeout { group: group_id },
                            );
                            handle_group_failure(
                                group_id,
                                &mut active,
                                &mut retries,
                                &mut abandoned,
                                &mut report,
                                tele,
                                config.max_group_retries,
                                &submit,
                                &server.kill,
                            );
                        }
                        _ => {}
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                load.observe(poll, wait_started.elapsed());
            }
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
        }

        // 1.5. Inbound handoffs: adopt migrated groups (floors first —
        // the ban lift + discard floors must be in place before the
        // replayed instance's first frame — then resubmit).
        for handoff in ctx.coord.take_handoffs(shard) {
            handoffs_received += 1;
            let adopted_any = !handoff.groups.is_empty();
            let adopt_started = Instant::now();
            if adopted_any {
                log_ev(
                    &mut report,
                    tele,
                    EventKind::GroupsAdopted {
                        epoch: handoff.epoch,
                        n_groups: handoff.groups.len() as u64,
                        from: handoff.from as u32,
                    },
                );
            }
            for mg in handoff.groups {
                server.adopt_floors(mg.id, &mg.floors);
                await_adopt_acks(&server, mg.id, config.migration_timeout)
                    .map_err(|e| format!("shard {shard}: {e}"))?;
                my_groups.insert(mg.id);
                adopted_floors.insert(mg.id, mg.floors);
                retries.insert(mg.id, mg.next_instance);
                report.group_restarts += 1;
                let handle = submit(mg.id, mg.next_instance, server.kill.clone());
                active.insert(
                    mg.id,
                    ActiveJob {
                        handle,
                        instance: mg.next_instance,
                        started_at: Instant::now(),
                    },
                );
            }
            if adopted_any {
                // Persist the adoption: a transient crash right after
                // this point must restore the adopted floors, not
                // resurrect pre-fence state.
                server.checkpoint_now(&server_config.checkpoint_dir);
                if let Some(h) = &adopt_hist {
                    h.record(adopt_started.elapsed().as_nanos() as u64);
                }
            }
        }

        // 2. Scripted live migrations (drain-and-move under an epoch
        // fence).
        while mig_idx < migrations.len()
            && known_finished.len() >= migrations[mig_idx].after_finished_groups
        {
            let m = migrations[mig_idx].clone();
            mig_idx += 1;
            let finished_now: HashSet<u64> =
                server.shared().finished_groups().into_iter().collect();
            let drain_started = Instant::now();
            let mut candidates: Vec<u64> = match &m.moves {
                crate::fault::MigrationMoves::Groups(gs) => gs
                    .iter()
                    .copied()
                    .filter(|g| {
                        my_groups.contains(g) && !finished_now.contains(g) && !abandoned.contains(g)
                    })
                    .collect(),
                crate::fault::MigrationMoves::AllUnfinished => my_groups
                    .iter()
                    .copied()
                    .filter(|g| !finished_now.contains(g) && !abandoned.contains(g))
                    .collect(),
            };
            candidates.sort_unstable();
            let mut moves: Vec<(u64, usize)> = Vec::new();
            let mut handoff_groups: Vec<MigratedGroup> = Vec::new();
            let last_ts = config.solver.n_timesteps as i64 - 1;
            for &g in &candidates {
                // Stop the sender first: after the join no new frames for
                // the group enter the transport, so the flush barrier
                // below fences a *final* floor.
                if let Some(job) = active.remove(&g) {
                    job.handle.kill.kill();
                    job.handle.join();
                }
                server.migrate_out(g);
                let floors = await_migrate_floors(&server, g, config.migration_timeout)
                    .map_err(|e| format!("shard {shard}: {e}"))?;
                if floors.iter().any(|&f| f >= last_ts) {
                    // Finishing filter: some worker already integrated the
                    // group's last timestep — too late to move.  Re-adopt
                    // locally (lifts the ban) and resubmit if any worker
                    // still wants data.
                    server.adopt_floors(g, &floors);
                    await_adopt_acks(&server, g, config.migration_timeout)
                        .map_err(|e| format!("shard {shard}: {e}"))?;
                    log_ev(
                        &mut report,
                        tele,
                        EventKind::FinishedDuringFence {
                            group: g,
                            shard: shard as u32,
                        },
                    );
                    if !server.shared().finished_groups().contains(&g) {
                        let instance = retries.get(&g).copied().unwrap_or(0) + 1;
                        retries.insert(g, instance);
                        report.group_restarts += 1;
                        let handle = submit(g, instance, server.kill.clone());
                        active.insert(
                            g,
                            ActiveJob {
                                handle,
                                instance,
                                started_at: Instant::now(),
                            },
                        );
                    }
                    continue;
                }
                my_groups.remove(&g);
                known_running.remove(&g);
                let next_instance = retries.get(&g).copied().unwrap_or(0) + 1;
                moves.push((g, m.to));
                handoff_groups.push(MigratedGroup {
                    id: g,
                    floors,
                    next_instance,
                });
            }
            let epoch = ctx.coord.routing.fence(&moves);
            if let Some(t) = tele {
                t.set_routing_epoch(epoch);
            }
            if let Some(h) = &drain_hist {
                h.record(drain_started.elapsed().as_nanos() as u64);
            }
            report.groups_migrated += handoff_groups.len() as u64;
            log_ev(
                &mut report,
                tele,
                EventKind::MigrationFence {
                    epoch,
                    n_groups: handoff_groups.len() as u64,
                    from: shard as u32,
                    to: m.to as u32,
                },
            );
            // Persist the post-fence floors before anything else can
            // fail: a transient restore must never resurrect a migrated
            // group's pre-fence state.
            server.checkpoint_now(&server_config.checkpoint_dir);
            ctx.coord.push_handoff(
                m.to,
                Handoff {
                    from: shard,
                    epoch,
                    groups: handoff_groups,
                },
            );
            if my_groups.is_empty() {
                // Drained by scale-in: neutralise the convergence signal
                // so this slot cannot pin the aggregate.
                ctx.coord.publish(shard, 0.0, 0.0, known_finished.len());
            }
        }

        // 2.5. Scripted server kills: transient (crash-restore in place)
        // or permanent (the shard is gone; re-home to a peer).
        // At most one kill fires per supervision pass: a transient kill
        // must crash-restore (step 3) before the next script entry, and a
        // permanent one never comes back at all.
        if kill_idx < kills.len() && known_finished.len() >= kills[kill_idx].after_finished_groups {
            let k = kills[kill_idx].clone();
            kill_idx += 1;
            if !k.permanent {
                log_ev(
                    &mut report,
                    tele,
                    EventKind::ServerKillInjected {
                        finished: known_finished.len() as u64,
                    },
                );
                server.kill.kill();
            } else {
                let to = k
                    .rehome_to
                    .expect("validated: permanent kills name a re-home target");
                log_ev(
                    &mut report,
                    tele,
                    EventKind::ShardDeathInjected {
                        finished: known_finished.len() as u64,
                        rehome_to: to as u32,
                    },
                );
                return rehome_dead_shard(
                    ctx,
                    shard,
                    to,
                    server,
                    &server_config,
                    active,
                    report,
                    my_groups,
                    abandoned,
                    retries,
                    adopted_floors,
                    &migrations[mig_idx..],
                    &kills[kill_idx..],
                    carried,
                    (last_ci, last_quantile_step, last_quantile_steps),
                    early_stopped,
                );
            }
        }

        // 3. Server fault recovery (per-shard failover: the restored
        // instance rebinds the same scoped endpoints, and the stable
        // group-hash routing re-routes exactly this shard's unfinished
        // groups back to it).
        if server.kill.is_killed() || !server_liveness.expired().is_empty() {
            report.server_restarts += 1;
            log_ev(&mut report, tele, EventKind::ServerRestarted);
            // Kill all running jobs (their sends would hang on dead
            // endpoints), then restart the server from its checkpoint.
            for (_, job) in active.iter() {
                job.handle.kill.kill();
            }
            for (_, job) in active.drain() {
                job.handle.join();
            }
            {
                use std::sync::atomic::Ordering::Relaxed;
                let s = server.shared();
                carried[0] += s.messages_received.load(Relaxed);
                carried[1] += s.bytes_received.load(Relaxed);
                carried[2] += s.replays_discarded.load(Relaxed);
                carried[3] += s.checkpoints_written.load(Relaxed);
            }
            server.abandon();
            let restore_cfg = ServerConfig {
                restore: true,
                ..server_config.clone()
            };
            server = Server::start(restore_cfg, Arc::clone(transport), launcher_tx.clone());
            wait_for_ready(launcher_rx.as_ref(), config.server_timeout)?;
            server_liveness.record(0u32);
            // Only the restored checkpoint's bookkeeping counts now: any
            // group the launcher believed finished but the server lost
            // since its last checkpoint must be restarted too (paper
            // Section 4.2.3: "the groups considered as finished by the
            // launcher but not the server").
            known_finished = server.shared().finished_groups().into_iter().collect();
            known_running.clear();
            // Resubmit everything not finished; discard-on-replay absorbs
            // any duplicated timesteps.  Iterates current ownership (not
            // the launch-time list) in sorted order so restarts after a
            // fence stay deterministic.
            let mut mine: Vec<u64> = my_groups.iter().copied().collect();
            mine.sort_unstable();
            for g in mine {
                if known_finished.contains(&g) || abandoned.contains(&g) {
                    continue;
                }
                let instance = retries.get(&g).copied().unwrap_or(0) + 1;
                retries.insert(g, instance);
                log_ev(
                    &mut report,
                    tele,
                    EventKind::GroupResubmitted { group: g, instance },
                );
                report.group_restarts += 1;
                let handle = submit(g, instance, server.kill.clone());
                active.insert(
                    g,
                    ActiveJob {
                        handle,
                        instance,
                        started_at: Instant::now(),
                    },
                );
            }
            continue;
        }

        // 4. Reconcile job states (completed / died / zombie).
        let mut to_fail: Vec<u64> = Vec::new();
        let mut to_remove: Vec<u64> = Vec::new();
        for (&g, job) in active.iter_mut() {
            // A job still waiting its turn on a busy shared pool is not
            // silent — keep its zombie clock at zero until the
            // dispatcher actually grants it capacity.
            if !job.handle.has_started() && !job.handle.is_finished() {
                job.started_at = Instant::now();
            }
            if job.handle.is_finished() {
                let outcome = outcomes.lock().get(&(g, job.instance)).cloned();
                match outcome {
                    Some(GroupOutcome::Completed { .. }) => {
                        if let Some(h) = &turnaround_hist {
                            h.record(job.started_at.elapsed().as_nanos() as u64);
                        }
                        to_remove.push(g);
                    }
                    Some(GroupOutcome::Died { .. }) | Some(GroupOutcome::Aborted { .. }) => {
                        log_ev(
                            &mut report,
                            tele,
                            EventKind::GroupDied {
                                group: g,
                                instance: job.instance,
                                detail: format!("{outcome:?}"),
                            },
                        );
                        to_fail.push(g);
                    }
                    None => to_remove.push(g), // killed before recording
                }
            } else {
                // Zombie detection: the job has been "running" longer than
                // the timeout but the server has never heard from it.
                // Scaled by the observed scheduling delay: a slow host
                // or a queue-starved tenant stretches the bound, a
                // healthy host keeps 2× the nominal timeout.
                let silent = !known_running.contains(&g) && !known_finished.contains(&g);
                if silent && job.started_at.elapsed() > load.scale(config.group_timeout * 2) {
                    log_ev(
                        &mut report,
                        tele,
                        EventKind::GroupZombie {
                            group: g,
                            instance: job.instance,
                        },
                    );
                    to_fail.push(g);
                }
            }
        }
        for g in to_remove {
            active.remove(&g);
        }
        for g in to_fail {
            if known_finished.contains(&g) {
                active.remove(&g);
                continue;
            }
            handle_group_failure(
                g,
                &mut active,
                &mut retries,
                &mut abandoned,
                &mut report,
                tele,
                config.max_group_retries,
                &submit,
                &server.kill,
            );
        }

        // 5. Convergence loopback: stop early once every configured
        // *aggregate* signal (max over shards: CI width and/or quantile
        // step) converged — with both targets set, the study stops on
        // whichever estimate is slowest.  Whichever supervisor observes
        // the crossing flips the shared flag; all shards then cancel
        // their remaining groups.
        if config.target_ci_width.is_some() || config.target_quantile_step.is_some() {
            let global_ci = ctx.coord.max_ci();
            let global_qstep = ctx.coord.max_qstep();
            let ci_ok = config
                .target_ci_width
                .is_none_or(|t| global_ci.is_finite() && global_ci < t);
            let qstep_ok = config
                .target_quantile_step
                .is_none_or(|t| global_qstep.is_finite() && global_qstep < t);
            if ci_ok && qstep_ok && ctx.coord.total_finished() > 0 {
                ctx.coord.early_stop.store(true, Ordering::Relaxed);
            }
            if ctx.coord.early_stop.load(Ordering::Relaxed) && !early_stopped {
                early_stopped = true;
                log_ev(
                    &mut report,
                    tele,
                    EventKind::EarlyStop {
                        max_ci: global_ci,
                        max_qstep: global_qstep,
                        cancelled: active.len() as u64,
                    },
                );
                for (_, job) in active.iter() {
                    job.handle.kill.kill();
                }
                for (_, job) in active.drain() {
                    job.handle.join();
                }
            }
        }

        // 6. Completion: every owned group settled *and* the chaos script
        // fully played out (unfired fences would leave their targets
        // waiting on the handoff quota forever).
        let script_done = mig_idx >= migrations.len()
            && kill_idx >= kills.len()
            && handoffs_received >= expected_handoffs;
        let settled = known_finished
            .iter()
            .filter(|g| my_groups.contains(g))
            .count()
            + abandoned.len()
            >= my_groups.len();
        let done = early_stopped || (script_done && settled);
        if done && active.is_empty() {
            break;
        }
    }

    // An early-stopped supervisor still owes its script's targets their
    // handoff envelopes — deliver them empty so no peer blocks on the
    // quota.
    for m in migrations.iter().skip(mig_idx) {
        ctx.coord.push_handoff(
            m.to,
            Handoff {
                from: shard,
                epoch: ctx.coord.routing.epoch(),
                groups: Vec::new(),
            },
        );
    }
    for k in kills.iter().skip(kill_idx) {
        if let (true, Some(t)) = (k.permanent, k.rehome_to) {
            ctx.coord.push_handoff(
                t,
                Handoff {
                    from: shard,
                    epoch: ctx.coord.routing.epoch(),
                    groups: Vec::new(),
                },
            );
        }
    }

    // Final server stop: collect statistics states.
    let link = server.data_link_stats();
    let shared = Arc::clone(server.shared());
    let states = server.stop();

    report.groups_finished = known_finished.len();
    // Final publish — but never for an empty shard, whose `last_ci` was
    // never updated from ∞: overwriting its neutral signal would pin the
    // aggregate at infinity and permanently disable early stop.  (Judged
    // on *current* ownership: a shard drained by scale-in published its
    // neutral signal at the fence, a joiner that adopted groups has real
    // signals to publish.)
    if !my_groups.is_empty() {
        ctx.coord
            .publish(shard, last_ci, last_quantile_step, known_finished.len());
    }
    report.groups_abandoned = {
        let mut v: Vec<u64> = abandoned.into_iter().collect();
        v.sort_unstable();
        v
    };
    report.data_messages = carried[0]
        + shared
            .messages_received
            .load(std::sync::atomic::Ordering::Relaxed);
    report.data_bytes = carried[1]
        + shared
            .bytes_received
            .load(std::sync::atomic::Ordering::Relaxed);
    report.replays_discarded = carried[2]
        + shared
            .replays_discarded
            .load(std::sync::atomic::Ordering::Relaxed);
    report.checkpoints_written = carried[3]
        + shared
            .checkpoints_written
            .load(std::sync::atomic::Ordering::Relaxed);
    report.transport = transport.backend_name().to_string();
    report.blocked_sends = link.blocked_sends;
    report.blocked_time = link.blocked_time();
    report.link_messages = link.messages;
    report.link_bytes = link.bytes;
    report.link_wire_bytes = link.wire_bytes;
    report.early_stopped = early_stopped;
    report.final_max_ci = last_ci;
    report.final_max_quantile_step = last_quantile_step;
    report.quantile_probs = config.quantile_probs.clone();
    report.final_quantile_steps = last_quantile_steps;
    report.transport_reconnects = transport.reconnects();
    report.routing_epoch = ctx.coord.routing.epoch();

    Ok(ShardRun { states, report })
}

/// The permanent-death exit of a shard supervisor: the server is gone for
/// good, so its last checkpoint *is* its statistics lineage.  Every group
/// not finished by every worker of that lineage is fenced to `to` with
/// per-worker floors (checkpointed floor, raised to any floor this shard
/// itself adopted earlier), and the checkpointed states are returned as
/// this slot's contribution to the study-end reduction.
#[allow(clippy::too_many_arguments)]
fn rehome_dead_shard(
    ctx: &StudyContext,
    shard: usize,
    to: usize,
    server: Server,
    server_config: &ServerConfig,
    mut active: HashMap<u64, ActiveJob>,
    mut report: StudyReport,
    my_groups: HashSet<u64>,
    abandoned: HashSet<u64>,
    retries: HashMap<u64, u32>,
    adopted_floors: HashMap<u64, Vec<i64>>,
    pending_migrations: &[crate::fault::Migration],
    pending_kills: &[crate::fault::ShardKill],
    carried: [u64; 4],
    signals: (f64, f64, Vec<f64>),
    early_stopped: bool,
) -> Result<ShardRun, String> {
    let config = &ctx.config;
    let tele = ctx.telemetry(shard);
    for (_, job) in active.iter() {
        job.handle.kill.kill();
    }
    for (_, job) in active.drain() {
        job.handle.join();
    }
    let link = server.data_link_stats();
    let shared = Arc::clone(server.shared());
    server.abandon();

    // The lineage is whatever the last checkpoint holds; an unreadable
    // worker hands off cold (floor −1 ⇒ full replay at the target).
    let n_workers = config.server_workers;
    let partition = SlabPartition::new(ctx.n_cells, n_workers);
    let mut lineage: Vec<WorkerState> = Vec::with_capacity(n_workers);
    for w in 0..n_workers {
        match read_checkpoint(&server_config.checkpoint_dir, w) {
            Ok(mut st) => {
                st.ensure_quantiles(&config.quantile_probs);
                lineage.push(st);
            }
            Err(e) => {
                log_ev(
                    &mut report,
                    tele,
                    EventKind::CheckpointUnreadable {
                        worker: w as u32,
                        detail: e.to_string(),
                    },
                );
                lineage.push(WorkerState::with_stats(
                    w,
                    partition.worker_range(w),
                    ctx.p,
                    config.solver.n_timesteps,
                    &config.thresholds,
                    &config.quantile_probs,
                ));
            }
        }
    }

    // Only groups finished by *every* worker of the lineage stay; the
    // rest re-home (a partially finished group replays its tail on the
    // target, discard floors preventing any double integration).
    let finished_everywhere: HashSet<u64> = lineage[0]
        .finished_groups()
        .iter()
        .copied()
        .filter(|g| lineage.iter().all(|s| s.finished_groups().contains(g)))
        .collect();
    let mut moved: Vec<u64> = my_groups
        .iter()
        .copied()
        .filter(|g| !abandoned.contains(g) && !finished_everywhere.contains(g))
        .collect();
    moved.sort_unstable();
    let mut handoff_groups: Vec<MigratedGroup> = Vec::with_capacity(moved.len());
    for &g in &moved {
        let floors: Vec<i64> = (0..n_workers)
            .map(|w| {
                let remembered = adopted_floors.get(&g).map(|f| f[w]).unwrap_or(-1);
                lineage[w].completed_floor(g).max(remembered)
            })
            .collect();
        handoff_groups.push(MigratedGroup {
            id: g,
            floors,
            next_instance: retries.get(&g).copied().unwrap_or(0) + 1,
        });
    }
    let fence: Vec<(u64, usize)> = moved.iter().map(|&g| (g, to)).collect();
    let epoch = ctx.coord.routing.fence(&fence);
    if let Some(t) = tele {
        t.set_routing_epoch(epoch);
    }
    report.groups_migrated += handoff_groups.len() as u64;
    report.shards_rehomed = 1;
    log_ev(
        &mut report,
        tele,
        EventKind::ShardRehomed {
            epoch,
            n_groups: handoff_groups.len() as u64,
            from: shard as u32,
            to: to as u32,
        },
    );
    ctx.coord.push_handoff(
        to,
        Handoff {
            from: shard,
            epoch,
            groups: handoff_groups,
        },
    );
    // The rest of this shard's script will never fire; its targets still
    // count the handoffs, so deliver empty envelopes.
    for m in pending_migrations {
        ctx.coord.push_handoff(
            m.to,
            Handoff {
                from: shard,
                epoch,
                groups: Vec::new(),
            },
        );
    }
    for k in pending_kills {
        if let (true, Some(t)) = (k.permanent, k.rehome_to) {
            ctx.coord.push_handoff(
                t,
                Handoff {
                    from: shard,
                    epoch,
                    groups: Vec::new(),
                },
            );
        }
    }

    report.groups_finished = my_groups
        .iter()
        .filter(|g| finished_everywhere.contains(g))
        .count();
    // Neutralise the convergence signal: a dead slot must not pin the
    // aggregate at its last (stale) value or at ∞.
    ctx.coord.publish(shard, 0.0, 0.0, report.groups_finished);
    report.groups_abandoned = {
        let mut v: Vec<u64> = abandoned.into_iter().collect();
        v.sort_unstable();
        v
    };
    report.data_messages = carried[0] + shared.messages_received.load(Ordering::Relaxed);
    report.data_bytes = carried[1] + shared.bytes_received.load(Ordering::Relaxed);
    report.replays_discarded = carried[2] + shared.replays_discarded.load(Ordering::Relaxed);
    report.checkpoints_written = carried[3] + shared.checkpoints_written.load(Ordering::Relaxed);
    report.transport = ctx.transport.backend_name().to_string();
    report.blocked_sends = link.blocked_sends;
    report.blocked_time = link.blocked_time();
    report.link_messages = link.messages;
    report.link_bytes = link.bytes;
    report.link_wire_bytes = link.wire_bytes;
    report.early_stopped = early_stopped;
    report.final_max_ci = signals.0;
    report.final_max_quantile_step = signals.1;
    report.quantile_probs = config.quantile_probs.clone();
    report.final_quantile_steps = signals.2;
    report.transport_reconnects = ctx.transport.reconnects();
    report.routing_epoch = epoch;
    Ok(ShardRun {
        states: lineage,
        report,
    })
}

/// Polls the migration flush barrier: every worker has drained the Data
/// frames queued ahead of the group's `MigrateOut` and reported its final
/// integration floor.
fn await_migrate_floors(
    server: &Server,
    group: u64,
    timeout: Duration,
) -> Result<Vec<i64>, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(floors) = server.take_migrate_floors(group) {
            return Ok(floors);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "migration flush barrier for group {group} timed out"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls until every worker has acknowledged the group's adopted floors
/// (the replayed instance must not start before the floors are in place).
fn await_adopt_acks(server: &Server, group: u64, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        if server.take_adopt_acks(group) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("floor adoption for group {group} timed out"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Lease timeout of the study directory: nodes renew every couple of
/// seconds (`TcpTransportConfig::node`), so a name going silent for this
/// long means its process is gone.
pub const DIRECTORY_LEASE: Duration = Duration::from_secs(10);

/// Multi-node bootstrap: starts the deployment's directory service on an
/// ephemeral loopback port and returns it together with its `host:port`.
///
/// The launcher owns the directory for the lifetime of the study and
/// hands the address to every child process — conventionally via the
/// [`MELISSA_DIRECTORY`](melissa_transport::DIRECTORY_ENV) environment
/// variable — whose `TcpNode` transports then publish and resolve every
/// scoped endpoint through it (see `examples/multinode_study.rs` for the
/// full launch sequence).
pub fn bootstrap_directory() -> Result<(melissa_transport::DirectoryServer, String), String> {
    let server = melissa_transport::DirectoryServer::bind("127.0.0.1:0", DIRECTORY_LEASE)
        .map_err(|e| format!("binding the study directory: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok((server, addr))
}

/// Waits for a `ServerReady` on the launcher inbox.
fn wait_for_ready(rx: &dyn Receiver, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("server did not become ready in time".into());
        }
        match rx.recv_timeout(left) {
            Ok(frame) => {
                if let Ok(Message::ServerReady) = Message::decode(&frame) {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                return Err("server did not become ready in time".into())
            }
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
        }
    }
}

/// Journals an event through the report and mirrors the stamped copy into
/// the shard's live telemetry ring (a no-op when telemetry is off).
fn log_ev(report: &mut StudyReport, tele: Option<&Arc<Telemetry>>, kind: impl Into<EventKind>) {
    let event = report.log(kind);
    if let Some(t) = tele {
        t.record_event(event);
    }
}

/// Kills (if needed) and resubmits a failed group, honouring the retry cap.
#[allow(clippy::too_many_arguments)]
fn handle_group_failure<F>(
    g: u64,
    active: &mut HashMap<u64, ActiveJob>,
    retries: &mut HashMap<u64, u32>,
    abandoned: &mut HashSet<u64>,
    report: &mut StudyReport,
    tele: Option<&Arc<Telemetry>>,
    max_retries: u32,
    submit: &F,
    server_kill: &KillSwitch,
) where
    F: Fn(u64, u32, KillSwitch) -> melissa_scheduler::JobHandle,
{
    if abandoned.contains(&g) {
        return;
    }
    if let Some(job) = active.remove(&g) {
        job.handle.kill.kill();
        job.handle.join();
    }
    let n = retries.entry(g).or_insert(0);
    *n += 1;
    if *n > max_retries {
        abandoned.insert(g);
        log_ev(
            report,
            tele,
            EventKind::GroupAbandoned {
                group: g,
                retries: max_retries,
            },
        );
        return;
    }
    let instance = *n;
    report.group_restarts += 1;
    log_ev(
        report,
        tele,
        EventKind::GroupRestarted { group: g, instance },
    );
    let handle = submit(g, instance, server_kill.clone());
    active.insert(
        g,
        ActiveJob {
            handle,
            instance,
            started_at: Instant::now(),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty shard publishes a neutral CI once and nothing may
    /// overwrite it: a stray ∞ from a shard that never computes a CI
    /// would pin the aggregate and permanently disable early stop.
    #[test]
    fn empty_shard_neutral_signal_keeps_the_aggregate_usable() {
        let coord = Coordination::new(2, RoutingTable::new(GroupRouter::new(2, 7)));
        assert_eq!(coord.max_ci(), f64::INFINITY, "unreported shards gate");
        assert_eq!(coord.max_qstep(), f64::INFINITY, "qstep gates too");
        coord.publish(1, 0.0, 0.0, 0); // empty shard: neutral, published once
        coord.publish(0, 0.02, 0.004, 3); // busy shard converged
        assert_eq!(coord.max_ci(), 0.02);
        assert_eq!(coord.max_qstep(), 0.004);
        assert_eq!(coord.total_finished(), 3);
        assert!(!coord.early_stop.load(Ordering::Relaxed));
    }

    #[test]
    fn bootstrap_directory_serves_a_reachable_store() {
        let (server, addr) = bootstrap_directory().expect("directory bootstrap");
        let client = melissa_transport::DirectoryClient::connect(&addr).expect("dial directory");
        use melissa_transport::Directory as _;
        client.publish("server/0", "127.0.0.1:1234").unwrap();
        assert_eq!(
            client.resolve("server/0").unwrap(),
            Some("127.0.0.1:1234".into())
        );
        drop(server);
    }
}
