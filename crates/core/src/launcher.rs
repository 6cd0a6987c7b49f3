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
//! * **retry caps** — a group failing more than [`MAX_GROUP_RETRIES`] times
//!   is abandoned (never replaced by a redrawn row, which would bias the
//!   statistics — paper Section 4.2.2);
//! * **convergence loopback** — optional early stop once the widest
//!   confidence interval falls below the target (Section 4.1.5).
//!
//! The supervision machinery is factored per *shard*: [`run_study`] runs
//! one supervisor per server instance ([`crate::shard`]), all sharing the
//! batch runner (the global node budget), the study clock and the
//! convergence coordination.  The classic single-server study is the
//! one-shard study, under the flat endpoint names.  Each
//! supervisor owns its shard's failover completely — including the
//! checkpoint-restore server recovery — so a shard failure never stalls
//! the other shards.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use melissa_sobol::design::PickFreeze;
use melissa_solver::injection::InjectionParams;
use melissa_solver::FrozenFlow;
use melissa_sync::Mutex;
use melissa_telemetry::{Counter, EventKind, Gauge, Histogram, Telemetry};
use melissa_transport::directory::names;
use melissa_transport::{
    make_transport_with, BoxReceiver, BoxSender, KillSwitch, LoadMonitor, Receiver,
    RecvTimeoutError, Transport,
};

use crate::config::StudyConfig;
use crate::fault::{FaultPlan, Migration, MigrationMoves, ShardKill};
use crate::group::{run_group, GroupContext, GroupOutcome};
use crate::protocol::Message;
use crate::report::StudyReport;
use crate::server::checkpoint::read_checkpoint;
use crate::server::state::WorkerState;
use crate::server::{instant_after, Server, ServerConfig, ServerShared};
use crate::shard::{GroupRouter, RoutingTable};
use crate::study::StudyOutput;
use melissa_mesh::SlabPartition;
use melissa_scheduler::{Dispatcher, JobRunner};

/// A group that fails more often than this is abandoned, never replaced
/// by a redrawn row (paper Section 4.2.2).
pub const MAX_GROUP_RETRIES: u32 = 3;

/// Deadline for one live-migration step (epoch fence, flush-barrier
/// acknowledgements from every source worker, floor adoption on the
/// target) before the supervisor declares the rebalance failed
/// ([`crate::shard`]'s routing-epoch protocol).
pub const MIGRATION_TIMEOUT: Duration = Duration::from_secs(30);

/// The execution environment a study runs in.
///
/// The defaults are the standalone launcher: a fresh transport built
/// from [`StudyConfig::transport`], a private [`JobRunner`] (a
/// one-tenant pool, FIFO) sized to
/// [`StudyConfig::max_concurrent_groups`], the flat endpoint namespace
/// and no external cancellation.  A multi-tenant service overrides all
/// four — the shared transport, a per-study [`Dispatcher`] stream on the
/// shared node pool (the same runner, many tenants), a `study<id>` scope
/// isolating every endpoint name and checkpoint path, and a cancel
/// switch wired to its `cancel` RPC — and the supervision machinery in
/// between runs unchanged.
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
    /// Stamped by the job itself when the dispatcher starts it; empty for
    /// the whole queued wait, so a job waiting its turn on a busy shared
    /// pool never looks like a zombie.
    started_at: Arc<OnceLock<Instant>>,
}

/// Per-slot senders into the supervisors' launcher inboxes, for the
/// payload-free [`Message::Wake`]: whoever changes something a supervisor
/// reads from shared memory — its mailbox, the early-stop flag, the
/// cancel switch — wakes it instead of leaving it to find out on a tick.
/// A slot is `None` before its supervisor starts (its first pass looks at
/// everything anyway) and after it ends.
pub(crate) struct Wakers(Vec<Mutex<Option<BoxSender>>>);

impl Wakers {
    fn wake(&self, slot: usize) {
        if let Some(tx) = &*self.0[slot].lock() {
            // A full inbox already holds plenty of reasons to wake up.
            let _ = tx.send_timeout(Message::Wake.encode(), Duration::ZERO);
        }
    }

    fn wake_all(&self) {
        (0..self.0.len()).for_each(|slot| self.wake(slot));
    }
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
    /// Per-shard latest `(max CI width, max Robbins–Monro quantile step,
    /// finished groups)`.  Both signals are ∞ until the shard reports
    /// one; the quantile step is 0 when order statistics are disabled.
    signals: Mutex<Vec<(f64, f64, usize)>>,
    /// Set once the aggregate signal crosses the target: every shard
    /// cancels its remaining groups.
    early_stop: AtomicBool,
    /// The epoch-fenced routing table shared by every supervisor and
    /// client: base group-hash assignment plus fenced per-group overrides
    /// ([`crate::shard::RoutingTable`]).
    pub(crate) routing: RoutingTable,
    /// Per-slot migration mailboxes: a fencing supervisor pushes its
    /// [`Handoff`] here, wakes the target, and the target drains its own
    /// mailbox (FIFO in push order).
    mailboxes: Vec<Mutex<Vec<Handoff>>>,
    wakers: Arc<Wakers>,
}

impl Coordination {
    fn new(n_slots: usize, routing: RoutingTable) -> Self {
        Self {
            signals: Mutex::new(vec![(f64::INFINITY, f64::INFINITY, 0); n_slots]),
            early_stop: AtomicBool::new(false),
            routing,
            mailboxes: (0..n_slots).map(|_| Mutex::new(Vec::new())).collect(),
            wakers: Arc::new(Wakers((0..n_slots).map(|_| Mutex::new(None)).collect())),
        }
    }

    fn publish(&self, shard: usize, ci: f64, qstep: f64, finished: usize) {
        self.signals.lock()[shard] = (ci, qstep, finished);
    }

    /// The aggregate `(CI width, quantile step, finished groups)`: each
    /// signal the max over shards (∞ until every shard with groups has
    /// reported one), the count their sum.
    fn aggregate(&self) -> (f64, f64, usize) {
        self.signals
            .lock()
            .iter()
            .fold((0.0, 0.0, 0), |(ci, qstep, finished), s| {
                (ci.max(s.0), qstep.max(s.1), finished + s.2)
            })
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
    /// The study clock's origin, taken before anything else the study
    /// does, the pre-run included.
    pub started: Instant,
    /// Time the shared pre-run took (part of the study's wall time).
    pub prerun_time: Duration,
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
        let started = Instant::now();
        let transport = rt.transport.unwrap_or_else(|| {
            make_transport_with(config.transport.clone(), config.wire_compression)
        });
        let space = InjectionParams::parameter_space();
        let design = PickFreeze::generate(config.n_groups, &space, config.seed);
        let p = space.dim();
        let flow = Arc::new(config.solver.prerun());
        let prerun_time = started.elapsed();
        let n_cells = config.solver.mesh().n_cells();
        let runner: Arc<dyn Dispatcher> = rt
            .runner
            .unwrap_or_else(|| Arc::new(JobRunner::new(config.max_concurrent_groups)));
        let n_slots = faults.n_supervisors(config.n_shards);
        let routing =
            RoutingTable::new(GroupRouter::new(config.n_shards.max(1), config.shard_seed));
        let coord = Coordination::new(n_slots, routing);
        let wakers = Arc::clone(&coord.wakers);
        rt.cancel.on_kill(move || wakers.wake_all());
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
            prerun_time,
            n_slots,
            telemetry,
        }
    }

    /// The endpoint scope of supervisor slot `slot`: a one-shard study
    /// keeps the flat names under the outer scope (`server/<w>`), a
    /// sharded one gives every slot its own prefix (`shard<k>/server/<w>`).
    /// Checkpoint paths follow the scope ([`server_config`](Self::server_config)).
    pub(crate) fn slot_scope(&self, slot: usize) -> String {
        if self.config.n_shards == 1 {
            self.outer.clone()
        } else {
            names::scoped(&self.outer, &names::shard_scope(slot))
        }
    }

    /// Slot `slot`'s telemetry hub (`None` when telemetry is disabled).
    pub(crate) fn telemetry(&self, slot: usize) -> Option<&Arc<Telemetry>> {
        self.telemetry.get(slot)
    }

    /// The server configuration of the shard in slot `slot`, under its
    /// [`slot_scope`](Self::slot_scope) (the empty scope keeps the flat
    /// checkpoint directory; any other checkpoints into its own
    /// subdirectory so worker files never collide).
    pub(crate) fn server_config(&self, slot: usize) -> ServerConfig {
        let scope = self.slot_scope(slot);
        let checkpoint_dir = if scope.is_empty() {
            self.config.checkpoint_dir.clone()
        } else {
            self.config.checkpoint_dir.join(&scope)
        };
        ServerConfig {
            scope,
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

/// Runs a complete study under the launcher's supervision, inside a
/// [`StudyRuntime`]: the default runtime is the standalone launcher;
/// the multi-tenant daemon passes a shared transport, an injected
/// dispatcher, an outer endpoint scope and external cancellation to run
/// many isolated studies over one node pool.  Called through
/// [`Study`](crate::study::Study).
pub fn run_study(
    config: StudyConfig,
    faults: FaultPlan,
    rt: StudyRuntime,
) -> Result<StudyOutput, String> {
    config.validate()?;
    faults.validate(config.n_shards)?;
    crate::shard::run_shards(config, faults, rt)
}

/// Supervises one server instance (shard) over its group subset to
/// completion: submission, failure handling, checkpoint-restore failover
/// and the convergence loopback.  This is the single-server launcher loop
/// of the paper, under slot `shard`'s endpoint scope
/// ([`StudyContext::slot_scope`]) so `N` of them can run against one
/// transport.
pub(crate) fn supervise_shard(
    ctx: &StudyContext,
    shard: usize,
    groups: &[u64],
) -> Result<ShardRun, String> {
    ShardSupervisor::start(ctx, shard, groups)?.run()
}

/// What ended a supervisor's wait on its inbox (the `reason` label of
/// `supervisor_wakeups_total`).
#[derive(Clone, Copy)]
enum Wakeup {
    /// A server message: heartbeat, report, group timeout.
    Message,
    /// A group job of this shard ended.
    JobEnded,
    /// A peer's [`Message::Wake`].
    Wake,
    /// Nothing arrived before the earliest deadline.  A fault-free study
    /// never counts one.
    Deadline,
}

impl Wakeup {
    /// The `reason` label values, in variant order.
    const REASONS: [&'static str; 4] = ["message", "job_ended", "wake", "deadline"];
}

/// A supervisor's handles into its shard's live telemetry: control-path
/// gauges refreshed every pass, histograms recorded on completion and
/// migration, wake-ups counted by reason.
struct Probes {
    queue_depth: Gauge,
    free_units: Gauge,
    load_factor: Gauge,
    turnaround: Histogram,
    drain: Histogram,
    adopt: Histogram,
    /// Indexed by [`Wakeup`].
    wakeups: [Counter; 4],
}

impl Probes {
    fn new(tele: &Telemetry) -> Self {
        let r = tele.registry();
        Self {
            queue_depth: r.gauge("runner_queue_depth"),
            free_units: r.gauge("runner_free_units"),
            load_factor: r.gauge("load_factor_milli"),
            turnaround: r.histogram("group_turnaround_nanos"),
            drain: r.histogram("migrate_drain_nanos"),
            adopt: r.histogram("migrate_adopt_nanos"),
            wakeups: Wakeup::REASONS.map(|reason| {
                r.counter(&format!("supervisor_wakeups_total{{reason=\"{reason}\"}}"))
            }),
        }
    }
}

/// The supervision loop of one server instance, as explicit state with
/// one method per step of [`run`](Self::run).
///
/// Dropping it — after [`finish`](Self::finish), on any `Err` return or
/// on a panic — kills and joins its group jobs and abandons its server,
/// so no job or server thread outlives the supervisor.
struct ShardSupervisor<'a> {
    ctx: &'a StudyContext,
    shard: usize,
    /// The shard's server configuration; its `scope` is the endpoint
    /// scope everything of this shard binds under.
    server_config: ServerConfig,
    launcher_rx: BoxReceiver,
    launcher_tx: BoxSender,
    /// The running server instance (`None` only once `finish` took it).
    server: Option<Server>,
    /// When the server last gave a sign of life.
    server_seen: Instant,
    /// Load-aware supervision (the congestion-collapse fix): the server's
    /// heartbeats are due every `report_interval`, so how late they
    /// arrive measures how starved this process is, and both failure
    /// detectors — the server heartbeat and the zombie check — stretch
    /// by the observed factor instead of shipping inflated wall-clock
    /// limits that would slow detection on a healthy host.
    load: LoadMonitor,
    last_heartbeat: Instant,
    tele: Option<&'a Arc<Telemetry>>,
    probes: Option<Probes>,
    /// This shard's accounting, kept current as the study runs: the
    /// latest convergence signals (`final_*`, `early_stopped`) as the
    /// server reports them, and the server counters (`data_messages`,
    /// `data_bytes`, `replays_discarded`, `checkpoints_written`,
    /// `checkpoints_failed`) summed each time a server instance ends, so
    /// a crashed server's share survives into the final report.
    report: StudyReport,
    /// `frames_rejected` of the server instances that have ended; the
    /// running instance's count rides its reports on top of this.
    rejected_by_ended_servers: u64,

    outcomes: Arc<Mutex<HashMap<(u64, u32), GroupOutcome>>>,
    active: HashMap<u64, ActiveJob>,
    /// Highest instance number each group has run as.
    retries: HashMap<u64, u32>,
    abandoned: HashSet<u64>,
    /// Live ownership: shrinks when a fence migrates groups away, grows
    /// when a handoff arrives.
    my_groups: HashSet<u64>,
    known_finished: HashSet<u64>,
    known_running: HashSet<u64>,

    /// Scripted chaos: server kills (transient and permanent) and
    /// outbound migrations, each a sorted queue consumed by trigger.
    kills: VecDeque<ShardKill>,
    migrations: VecDeque<Migration>,
    /// Inbound handoffs (migrations and re-homings targeting this slot)
    /// not yet received; ownership is final only at zero.
    handoffs_awaited: usize,
    /// Floors adopted from inbound handoffs, remembered so a later
    /// permanent death hands off at least these floors even if the local
    /// checkpoint predates the adoption.
    adopted_floors: HashMap<u64, Vec<i64>>,
}

impl Drop for ShardSupervisor<'_> {
    fn drop(&mut self) {
        *self.ctx.coord.wakers.0[self.shard].lock() = None;
        self.stop_all_jobs();
        if let Some(server) = self.server.take() {
            server.abandon();
        }
    }
}

impl<'a> ShardSupervisor<'a> {
    /// Starts the shard's server, waits for readiness and submits every
    /// group of the shard once, in increasing id order (the runner's
    /// FIFO turns that into a deterministic start order).
    fn start(ctx: &'a StudyContext, shard: usize, groups: &[u64]) -> Result<Self, String> {
        let config = &ctx.config;
        let server_config = ctx.server_config(shard);
        let launcher = names::launcher_in(&server_config.scope);
        let launcher_rx = ctx.transport.bind(&launcher, 1024);
        let launcher_tx = ctx.transport.connect(&launcher).expect("just bound");
        *ctx.coord.wakers.0[shard].lock() = Some(launcher_tx.clone());

        let mut report = StudyReport::new(config.n_groups);
        report.n_shards = config.n_shards;
        // Stamp journal events against the shared study clock, tagged with
        // this supervisor's slot, so per-shard journals merge on one axis.
        report.origin = ctx.started;
        report.shard = shard as u32;
        report.final_max_quantile_step = f64::INFINITY;
        report.quantile_probs = config.quantile_probs.clone();
        if shard >= config.n_shards {
            // A joiner slot: no groups at launch, everything arrives by
            // handoff (elastic scale-out).
            report.shards_joined = 1;
        }

        let tele = ctx.telemetry(shard);
        let server = Server::start(
            server_config.clone(),
            Arc::clone(&ctx.transport),
            launcher_tx.clone(),
        );
        let mut sup = Self {
            ctx,
            shard,
            server_config,
            launcher_rx,
            launcher_tx,
            server: Some(server),
            server_seen: Instant::now(),
            load: LoadMonitor::new(),
            last_heartbeat: Instant::now(),
            tele,
            probes: tele.map(|t| Probes::new(t)),
            report,
            rejected_by_ended_servers: 0,
            outcomes: Arc::new(Mutex::new(HashMap::new())),
            active: HashMap::new(),
            retries: HashMap::new(),
            abandoned: HashSet::new(),
            my_groups: groups.iter().copied().collect(),
            known_finished: HashSet::new(),
            known_running: HashSet::new(),
            kills: ctx.faults.kills_for_shard(shard).into(),
            migrations: ctx.faults.migrations_from(shard).into(),
            handoffs_awaited: ctx.faults.expected_handoffs(shard),
            adopted_floors: HashMap::new(),
        };
        wait_for_ready(sup.launcher_rx.as_ref(), config.server_timeout)?;
        for &g in groups {
            sup.launch(g, 0);
        }
        // A shard with no groups still answers the convergence
        // coordination (a neutral signal) so the aggregate does not stay
        // pinned at ∞.
        if groups.is_empty() {
            ctx.coord.publish(shard, 0.0, 0.0, 0);
        }
        sup.server_seen = Instant::now();
        Ok(sup)
    }

    /// The supervision loop: one pass per event until every owned group
    /// settled and the chaos script played out, the study stopped early,
    /// or this shard died for good.  Everything that can change what a
    /// pass decides arrives as a frame on the launcher inbox — a server
    /// message, a job's [`Message::JobEnded`], a peer's
    /// [`Message::Wake`] — or is one of the three deadlines
    /// [`next_deadline`](Self::next_deadline) watches; between events the
    /// supervisor sleeps.
    fn run(mut self) -> Result<ShardRun, String> {
        loop {
            self.check_limits()?;
            self.refresh_probes();
            self.adopt_handoffs()?;
            self.fire_migrations()?;
            if let Some(to) = self.fire_kill() {
                return Ok(self.finish(Some(to)));
            }
            if self.recover_server()? {
                continue;
            }
            self.reconcile_jobs();
            self.check_convergence();
            if self.done() {
                return Ok(self.finish(None));
            }
            self.wait_for_event()?;
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until finish")
    }

    /// Journals an event through the report and mirrors the stamped copy
    /// into the shard's live telemetry ring (a no-op when telemetry is
    /// off).
    fn log_ev(&mut self, kind: EventKind) {
        let event = self.report.log(kind);
        if let Some(t) = self.tele {
            t.record_event(event);
        }
    }

    /// Publishes this shard's latest convergence signals and progress to
    /// the cross-shard coordination.
    fn publish_signals(&self) {
        self.ctx.coord.publish(
            self.shard,
            self.report.final_max_ci,
            self.report.final_max_quantile_step,
            self.known_finished.len(),
        );
    }

    /// The instance number group `g`'s next job runs as.
    fn next_instance(&self, g: u64) -> u32 {
        self.retries.get(&g).copied().unwrap_or(0) + 1
    }

    /// Submits instance `instance` of group `g` and tracks the job.
    fn launch(&mut self, g: u64, instance: u32) {
        let ctx = self.ctx;
        let config = &ctx.config;
        // Groups route through the epoch-fenced table *at submit time*, so
        // a group resubmitted after a fence connects to its new owner.
        let job = GroupContext {
            scope: ctx.slot_scope(ctx.coord.routing.shard_of(g)),
            group_id: g,
            instance,
            rows: ctx.design.group(g as usize).rows().to_vec(),
            solver: config.solver.clone(),
            flow: Arc::clone(&ctx.flow),
            ranks: config.ranks_per_simulation,
            transport: Arc::clone(&ctx.transport),
            timeout: config.group_timeout,
            fault: ctx.faults.group_fault(g, instance),
        };
        let outcomes = Arc::clone(&self.outcomes);
        let started_at = Arc::new(OnceLock::new());
        let started = Arc::clone(&started_at);
        let inbox = self.launcher_tx.clone();
        let handle = ctx.runner.submit_boxed(
            1,
            Box::new(move |kill| {
                let _ = started.set(Instant::now());
                let outcome = run_group(job, kill);
                outcomes.lock().insert((g, instance), outcome);
                // A wake-up, not the record: the outcome above is what
                // the supervisor settles on, so a frame lost to a full
                // inbox costs a delay until the next server message, and
                // a supervisor joining this job never waits on its own
                // inbox.
                let ended = Message::JobEnded {
                    group_id: g,
                    instance,
                };
                let _ = inbox.send_timeout(ended.encode(), Duration::ZERO);
            }),
        );
        self.active.insert(
            g,
            ActiveJob {
                handle,
                instance,
                started_at,
            },
        );
    }

    /// Resubmits group `g` as `instance`, counted as a restart.
    fn relaunch(&mut self, g: u64, instance: u32) {
        self.retries.insert(g, instance);
        self.report.group_restarts += 1;
        self.launch(g, instance);
    }

    /// Kills and joins group `g`'s job, if it has one.
    fn stop_job(&mut self, g: u64) {
        if let Some(job) = self.active.remove(&g) {
            job.handle.kill.kill();
            job.handle.join();
        }
    }

    /// Kills every job, then joins them all.
    fn stop_all_jobs(&mut self) {
        for job in self.active.values() {
            job.handle.kill.kill();
        }
        for (_, job) in self.active.drain() {
            job.handle.join();
        }
    }

    /// Kills (if needed) and resubmits a failed group, honouring the
    /// retry cap.
    fn handle_group_failure(&mut self, g: u64) {
        if self.abandoned.contains(&g) {
            return;
        }
        self.stop_job(g);
        let instance = self.next_instance(g);
        if instance > MAX_GROUP_RETRIES {
            self.abandoned.insert(g);
            self.log_ev(EventKind::GroupAbandoned {
                group: g,
                retries: MAX_GROUP_RETRIES,
            });
            return;
        }
        self.log_ev(EventKind::GroupRestarted { group: g, instance });
        self.relaunch(g, instance);
    }

    /// Folds an ended server instance's counters into the report.
    fn absorb_counters(&mut self, shared: &ServerShared) {
        self.report.data_messages += shared.messages_received.load(Ordering::Relaxed);
        self.report.data_bytes += shared.bytes_received.load(Ordering::Relaxed);
        self.report.replays_discarded += shared.replays_discarded.load(Ordering::Relaxed);
        self.report.checkpoints_written += shared.checkpoints_written.load(Ordering::Relaxed);
        self.report.checkpoints_failed += shared.checkpoints_failed.load(Ordering::Relaxed);
        self.rejected_by_ended_servers += shared.frames_rejected.load(Ordering::Relaxed);
        self.report.frames_rejected = self.rejected_by_ended_servers;
    }

    /// External cancellation (the daemon's `cancel` RPC) and the study
    /// wall limit.
    fn check_limits(&self) -> Result<(), String> {
        let progress = || {
            format!(
                "finished {}/{}",
                self.known_finished.len(),
                self.my_groups.len()
            )
        };
        if self.ctx.cancel.is_killed() {
            return Err(format!("study cancelled: {}", progress()));
        }
        let wall_limit = self.ctx.config.wall_limit;
        if self.ctx.started.elapsed() > wall_limit {
            return Err(format!(
                "study exceeded wall limit {wall_limit:?}: {}",
                progress()
            ));
        }
        Ok(())
    }

    /// Control-path gauges — how deep the FCFS queue is, how much of the
    /// node budget is free, how starved this process is.
    fn refresh_probes(&self) {
        if let Some(p) = &self.probes {
            p.queue_depth.set(self.ctx.runner.queued_jobs());
            p.free_units.set(self.ctx.runner.free_units() as u64);
            p.load_factor.set((self.load.factor() * 1000.0) as u64);
        }
    }

    /// How long the server may stay silent before it counts as dead:
    /// follows the measured scheduling delay (factor 1 on a healthy
    /// host).
    fn server_timeout(&self) -> Duration {
        self.load.scale(self.ctx.config.server_timeout)
    }

    /// Zombie bound, scaled by the observed scheduling delay: a slow host
    /// or a queue-starved tenant stretches it, a healthy host keeps 2×
    /// the nominal timeout.
    fn zombie_after(&self) -> Duration {
        self.load.scale(self.ctx.config.group_timeout * 2)
    }

    /// Whether group `g`'s job is one the server has never heard from
    /// (the only jobs the zombie bound applies to).
    fn is_silent(&self, g: u64) -> bool {
        !self.known_running.contains(&g) && !self.known_finished.contains(&g)
    }

    /// The earliest instant at which a pass has something to do although
    /// no frame arrived: the study wall limit, the server's liveness
    /// expiry, or a started, still silent job's zombie bound.
    fn next_deadline(&self) -> Instant {
        let zombie_after = self.zombie_after();
        let zombies = self
            .active
            .iter()
            .filter(|(&g, _)| self.is_silent(g))
            .filter_map(|(_, job)| {
                job.started_at
                    .get()
                    .map(|&t| instant_after(t, zombie_after))
            });
        zombies
            .chain([
                instant_after(self.ctx.started, self.ctx.config.wall_limit),
                instant_after(self.server_seen, self.server_timeout()),
            ])
            .min()
            .expect("two deadlines always exist")
    }

    fn count_wakeup(&self, reason: Wakeup) {
        if let Some(p) = &self.probes {
            p.wakeups[reason as usize].inc();
        }
    }

    /// The last step of a pass: blocks on the launcher inbox until a
    /// frame arrives or the earliest deadline passes, and handles the
    /// frame.
    fn wait_for_event(&mut self) -> Result<(), String> {
        // A frame that was not queued yet when the wait began is received
        // when it arrives (give or take this thread's scheduling delay —
        // the very thing the load monitor measures).
        let live = self.launcher_rx.is_empty();
        // The margin keeps the strict `>` checks of the next pass true.
        let deadline = instant_after(self.next_deadline(), Duration::from_millis(1));
        let wait = deadline.saturating_duration_since(Instant::now());
        let frame = match self.launcher_rx.recv_timeout(wait) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => {
                self.count_wakeup(Wakeup::Deadline);
                return Ok(());
            }
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
        };
        let message = Message::decode(&frame);
        self.count_wakeup(match message {
            Ok(Message::JobEnded { .. }) => Wakeup::JobEnded,
            Ok(Message::Wake) => Wakeup::Wake,
            _ => Wakeup::Message,
        });
        match message {
            Ok(Message::Heartbeat { .. }) => {
                let now = Instant::now();
                if live {
                    self.load.observe(
                        self.server_config.report_interval,
                        now.duration_since(self.last_heartbeat),
                    );
                }
                self.last_heartbeat = now;
                self.server_seen = now;
            }
            Ok(Message::ServerReady) => self.server_seen = Instant::now(),
            Ok(Message::ServerReport {
                finished_groups,
                running_groups,
                max_ci_width,
                max_quantile_step,
                quantile_steps,
                blocked_sends,
                blocked_nanos,
                frames_rejected,
            }) => {
                self.server_seen = Instant::now();
                self.known_finished.extend(finished_groups);
                self.known_running = running_groups.into_iter().collect();
                self.report.final_max_ci = max_ci_width;
                self.report.final_max_quantile_step = max_quantile_step;
                self.report.final_quantile_steps = quantile_steps;
                self.publish_signals();
                // Live backpressure accounting (the Fig. 6 signal): keeps
                // the report current mid-study and across server crashes;
                // `finish` overwrites it with the authoritative
                // end-of-study transport rollup.
                self.report.blocked_sends = blocked_sends;
                self.report.blocked_time = Duration::from_nanos(blocked_nanos);
                self.report.frames_rejected = self.rejected_by_ended_servers + frames_rejected;
            }
            Ok(Message::GroupTimeout { group_id })
                if !self.known_finished.contains(&group_id)
                    && self.my_groups.contains(&group_id) =>
            {
                self.log_ev(EventKind::GroupTimeout { group: group_id });
                self.handle_group_failure(group_id);
            }
            // `JobEnded` and `Wake` carry nothing to handle: what they
            // announce is in `outcomes`, the mailbox, the flags — the
            // next pass reads it.
            _ => {}
        }
        Ok(())
    }

    /// Installs a group's replay floors on every worker and waits for the
    /// acknowledgements (the replayed instance must not start before the
    /// floors are in place).
    fn install_floors(&self, g: u64, floors: &[i64]) -> Result<(), String> {
        let (server, shard) = (self.server(), self.shard);
        server.adopt_floors(g, floors);
        server
            .shared()
            .await_acks(MIGRATION_TIMEOUT, || {
                server.take_adopt_acks(g).then_some(())
            })
            .ok_or_else(|| format!("shard {shard}: floor adoption for group {g} timed out"))
    }

    /// Step 1: adopts migrated groups from inbound handoffs (floors first
    /// — the ban lift and discard floors must be in place before the
    /// replayed instance's first frame — then resubmit).
    fn adopt_handoffs(&mut self) -> Result<(), String> {
        let inbound = std::mem::take(&mut *self.ctx.coord.mailboxes[self.shard].lock());
        for handoff in inbound {
            self.handoffs_awaited = self.handoffs_awaited.saturating_sub(1);
            if handoff.groups.is_empty() {
                continue;
            }
            let adopt_started = Instant::now();
            self.log_ev(EventKind::GroupsAdopted {
                epoch: handoff.epoch,
                n_groups: handoff.groups.len() as u64,
                from: handoff.from as u32,
            });
            for mg in handoff.groups {
                self.install_floors(mg.id, &mg.floors)?;
                self.my_groups.insert(mg.id);
                self.adopted_floors.insert(mg.id, mg.floors);
                self.relaunch(mg.id, mg.next_instance);
            }
            // Persist the adoption: a transient crash right after this
            // point must restore the adopted floors, not resurrect
            // pre-fence state.
            self.server()
                .checkpoint_now(&self.server_config.checkpoint_dir);
            if let Some(p) = &self.probes {
                p.adopt.record(adopt_started.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }

    /// Step 2: fires every scripted live migration whose trigger point
    /// has been reached.
    fn fire_migrations(&mut self) -> Result<(), String> {
        while let Some(m) = self
            .migrations
            .pop_front_if(|m| self.known_finished.len() >= m.after_finished_groups)
        {
            self.migrate(&m)?;
        }
        Ok(())
    }

    /// One drain-and-move under an epoch fence.
    fn migrate(&mut self, m: &Migration) -> Result<(), String> {
        let finished_now: HashSet<u64> = self
            .server()
            .shared()
            .finished_groups()
            .into_iter()
            .collect();
        let drain_started = Instant::now();
        let pool: Vec<u64> = match &m.moves {
            MigrationMoves::Groups(gs) => gs.clone(),
            MigrationMoves::AllUnfinished => self.my_groups.iter().copied().collect(),
        };
        let mut candidates: Vec<u64> = pool
            .into_iter()
            .filter(|g| {
                self.my_groups.contains(g)
                    && !finished_now.contains(g)
                    && !self.abandoned.contains(g)
            })
            .collect();
        candidates.sort_unstable();
        let mut moved: Vec<MigratedGroup> = Vec::new();
        for g in candidates {
            if let Some(floors) = self.fence_out(g)? {
                moved.push(MigratedGroup {
                    id: g,
                    floors,
                    next_instance: self.next_instance(g),
                });
            }
        }
        let n_groups = moved.len() as u64;
        let epoch = self.fence(&moved, m.to);
        if let Some(p) = &self.probes {
            p.drain.record(drain_started.elapsed().as_nanos() as u64);
        }
        self.log_ev(EventKind::MigrationFence {
            epoch,
            n_groups,
            from: self.shard as u32,
            to: m.to as u32,
        });
        // Persist the post-fence floors before anything else can fail: a
        // transient restore must never resurrect a migrated group's
        // pre-fence state.
        self.server()
            .checkpoint_now(&self.server_config.checkpoint_dir);
        self.hand_off(m.to, epoch, moved);
        if self.my_groups.is_empty() {
            // Drained by scale-in: neutralise the convergence signal so
            // this slot cannot pin the aggregate.
            self.ctx
                .coord
                .publish(self.shard, 0.0, 0.0, self.known_finished.len());
        }
        Ok(())
    }

    /// Stops group `g`'s job and fences the group out of this server.
    /// Returns the final per-worker floors, or `None` if the group stays
    /// because it was already finishing.
    fn fence_out(&mut self, g: u64) -> Result<Option<Vec<i64>>, String> {
        // Stop the sender first: after the join no new frames for the
        // group enter the transport, so the flush barrier below fences a
        // *final* floor.
        self.stop_job(g);
        let (server, shard) = (self.server(), self.shard);
        server.migrate_out(g);
        // The flush barrier: every worker drains the Data frames queued
        // ahead of the group's `MigrateOut` and reports its final floor.
        let floors = server
            .shared()
            .await_acks(MIGRATION_TIMEOUT, || server.take_migrate_floors(g))
            .ok_or_else(|| {
                format!("shard {shard}: migration flush barrier for group {g} timed out")
            })?;
        let last_ts = self.ctx.config.solver.n_timesteps as i64 - 1;
        if floors.iter().any(|&f| f >= last_ts) {
            // Finishing filter: some worker already integrated the group's
            // last timestep — too late to move.  Re-adopt locally (lifts
            // the ban) and resubmit if any worker still wants data.
            self.install_floors(g, &floors)?;
            self.log_ev(EventKind::FinishedDuringFence {
                group: g,
                shard: self.shard as u32,
            });
            if !self.server().shared().finished_groups().contains(&g) {
                self.relaunch(g, self.next_instance(g));
            }
            return Ok(None);
        }
        self.my_groups.remove(&g);
        self.known_running.remove(&g);
        Ok(Some(floors))
    }

    /// Re-routes `groups` to slot `to` under a new routing epoch.
    fn fence(&mut self, groups: &[MigratedGroup], to: usize) -> u64 {
        let moves: Vec<(u64, usize)> = groups.iter().map(|mg| (mg.id, to)).collect();
        let epoch = self.ctx.coord.routing.fence(&moves);
        if let Some(t) = self.tele {
            t.set_routing_epoch(epoch);
        }
        self.report.groups_migrated += groups.len() as u64;
        epoch
    }

    /// Delivers a fence's handoff to the target slot's mailbox and wakes
    /// the target.
    fn hand_off(&self, to: usize, epoch: u64, groups: Vec<MigratedGroup>) {
        self.ctx.coord.mailboxes[to].lock().push(Handoff {
            from: self.shard,
            epoch,
            groups,
        });
        self.ctx.coord.wakers.wake(to);
    }

    /// Step 3: fires at most one scripted server kill per pass — a
    /// transient kill must crash-restore (step 4) before the next script
    /// entry, and a permanent one never comes back at all.  Returns the
    /// re-homing target of a permanent death.
    fn fire_kill(&mut self) -> Option<usize> {
        let finished = self.known_finished.len();
        let k = self
            .kills
            .pop_front_if(|k| finished >= k.after_finished_groups)?;
        let finished = finished as u64;
        if !k.permanent {
            self.log_ev(EventKind::ServerKillInjected { finished });
            self.server().kill.kill();
            return None;
        }
        let to = k
            .rehome_to
            .expect("validated: permanent kills name a re-home target");
        self.log_ev(EventKind::ShardDeathInjected {
            finished,
            rehome_to: to as u32,
        });
        Some(to)
    }

    /// Step 4: server fault recovery (per-shard failover: the restored
    /// instance rebinds the same scoped endpoints, and the stable
    /// group-hash routing re-routes exactly this shard's unfinished
    /// groups back to it).  Returns whether a recovery ran.
    fn recover_server(&mut self) -> Result<bool, String> {
        if !self.server().kill.is_killed() && self.server_seen.elapsed() <= self.server_timeout() {
            return Ok(false);
        }
        self.report.server_restarts += 1;
        self.log_ev(EventKind::ServerRestarted);
        // Kill all running jobs (their sends would hang on dead
        // endpoints), then restart the server from its checkpoint.
        self.stop_all_jobs();
        let dead = self.server.take().expect("server runs until finish");
        self.absorb_counters(dead.shared());
        dead.abandon();
        let restore_cfg = ServerConfig {
            restore: true,
            ..self.server_config.clone()
        };
        self.server = Some(Server::start(
            restore_cfg,
            Arc::clone(&self.ctx.transport),
            self.launcher_tx.clone(),
        ));
        wait_for_ready(self.launcher_rx.as_ref(), self.ctx.config.server_timeout)?;
        self.server_seen = Instant::now();
        // Only the restored checkpoint's bookkeeping counts now: any
        // group the launcher believed finished but the server lost since
        // its last checkpoint must be restarted too (paper Section 4.2.3:
        // "the groups considered as finished by the launcher but not the
        // server").
        self.known_finished = self
            .server()
            .shared()
            .finished_groups()
            .into_iter()
            .collect();
        self.known_running.clear();
        // Resubmit everything not finished; discard-on-replay absorbs any
        // duplicated timesteps.  Iterates current ownership (not the
        // launch-time list) in sorted order so restarts after a fence
        // stay deterministic.
        let mut mine: Vec<u64> = self.my_groups.iter().copied().collect();
        mine.sort_unstable();
        for g in mine {
            if self.known_finished.contains(&g) || self.abandoned.contains(&g) {
                continue;
            }
            let instance = self.next_instance(g);
            self.log_ev(EventKind::GroupResubmitted { group: g, instance });
            self.relaunch(g, instance);
        }
        Ok(true)
    }

    /// Step 5: reconciles job states (completed / died / zombie).  A job
    /// has ended once its outcome is recorded; the join that follows only
    /// waits for the dispatcher to take its unit back, so the next study
    /// step (a resubmission, closing the stream) finds the pool settled.
    fn reconcile_jobs(&mut self) {
        let zombie_after = self.zombie_after();
        let mut settled: Vec<u64> = Vec::new();
        let mut failed: Vec<u64> = Vec::new();
        let mut failures: Vec<EventKind> = Vec::new();
        let outcomes = self.outcomes.lock();
        for (&g, job) in &self.active {
            let outcome = outcomes.get(&(g, job.instance));
            match outcome {
                Some(GroupOutcome::Completed { .. }) => {
                    if let (Some(p), Some(started)) = (&self.probes, job.started_at.get()) {
                        p.turnaround.record(started.elapsed().as_nanos() as u64);
                    }
                    settled.push(g);
                }
                Some(GroupOutcome::Died { .. }) | Some(GroupOutcome::Aborted { .. }) => {
                    failed.push(g);
                    failures.push(EventKind::GroupDied {
                        group: g,
                        instance: job.instance,
                        detail: format!("{outcome:?}"),
                    });
                }
                // Ended without recording anything (the job panicked).
                None if job.handle.is_finished() => settled.push(g),
                // Zombie: "running" past the bound, yet the server has
                // never heard from it.
                None if self.is_silent(g)
                    && job
                        .started_at
                        .get()
                        .is_some_and(|t| t.elapsed() > zombie_after) =>
                {
                    failed.push(g);
                    failures.push(EventKind::GroupZombie {
                        group: g,
                        instance: job.instance,
                    });
                }
                None => {}
            }
        }
        drop(outcomes);
        for g in settled {
            if let Some(job) = self.active.remove(&g) {
                job.handle.join();
            }
        }
        for event in failures {
            self.log_ev(event);
        }
        for g in failed {
            if self.known_finished.contains(&g) {
                self.stop_job(g);
            } else {
                self.handle_group_failure(g);
            }
        }
    }

    /// Step 6: the convergence loopback.  Stops early once every
    /// configured *aggregate* signal (max over shards: CI width and/or
    /// quantile step) converged — with both targets set, the study stops
    /// on whichever estimate is slowest.  Whichever supervisor observes
    /// the crossing flips the shared flag; all shards then cancel their
    /// remaining groups.
    fn check_convergence(&mut self) {
        let (config, coord) = (&self.ctx.config, &self.ctx.coord);
        if config.target_ci_width.is_none() && config.target_quantile_step.is_none() {
            return;
        }
        let (global_ci, global_qstep, finished) = coord.aggregate();
        let ci_ok = config
            .target_ci_width
            .is_none_or(|t| global_ci.is_finite() && global_ci < t);
        let qstep_ok = config
            .target_quantile_step
            .is_none_or(|t| global_qstep.is_finite() && global_qstep < t);
        if ci_ok && qstep_ok && finished > 0 && !coord.early_stop.swap(true, Ordering::Relaxed) {
            // This supervisor saw the crossing; the others learn of it now.
            coord.wakers.wake_all();
        }
        if coord.early_stop.load(Ordering::Relaxed) && !self.report.early_stopped {
            self.report.early_stopped = true;
            self.log_ev(EventKind::EarlyStop {
                max_ci: global_ci,
                max_qstep: global_qstep,
                cancelled: self.active.len() as u64,
            });
            self.stop_all_jobs();
        }
    }

    /// Step 7: completion — every owned group settled *and* the chaos
    /// script fully played out (unfired fences would leave their targets
    /// waiting on the handoff quota forever), or the study stopped early;
    /// either way with no job left running.
    fn done(&self) -> bool {
        let script_done =
            self.migrations.is_empty() && self.kills.is_empty() && self.handoffs_awaited == 0;
        let settled = self
            .known_finished
            .iter()
            .filter(|g| self.my_groups.contains(g))
            .count()
            + self.abandoned.len()
            >= self.my_groups.len();
        (self.report.early_stopped || (script_done && settled)) && self.active.is_empty()
    }

    /// The one exit: ends the server, settles this slot's obligations to
    /// its peers and fills the report.  `rehome_to: None` is the live
    /// exit — the server stops cleanly and its states are the shard's
    /// statistics.  `Some(slot)` is the permanent-death exit — the server
    /// is gone for good, so its last checkpoint *is* its statistics
    /// lineage, and every group that lineage has not finished re-homes to
    /// `slot`.
    fn finish(&mut self, rehome_to: Option<usize>) -> ShardRun {
        let server = self.server.take().expect("server runs until finish");
        let link = server.data_link_stats();
        let shared = Arc::clone(server.shared());
        let states = match rehome_to {
            None => {
                self.push_owed_handoffs();
                let states = server.stop();
                self.report.groups_finished = self.known_finished.len();
                // Never publish for an empty shard, whose CI signal never
                // left ∞: overwriting its neutral signal would pin the
                // aggregate at infinity and permanently disable early stop.  (Judged on *current* ownership: a
                // shard drained by scale-in published its neutral signal
                // at the fence, a joiner that adopted groups has real
                // signals to publish.)
                if !self.my_groups.is_empty() {
                    self.publish_signals();
                }
                states
            }
            Some(to) => {
                self.stop_all_jobs();
                server.abandon();
                let lineage = self.checkpoint_lineage();
                self.rehome(to, &lineage);
                self.push_owed_handoffs();
                lineage
            }
        };
        self.absorb_counters(&shared);
        let transport = &self.ctx.transport;
        let report = &mut self.report;
        report.groups_abandoned = self.abandoned.iter().copied().collect();
        report.groups_abandoned.sort_unstable();
        report.transport = transport.backend_name().to_string();
        report.blocked_sends = link.blocked_sends;
        report.blocked_time = link.blocked_time();
        report.link_messages = link.messages;
        report.link_bytes = link.bytes;
        report.link_wire_bytes = link.wire_bytes;
        report.transport_reconnects = transport.reconnects();
        report.routing_epoch = self.ctx.coord.routing.epoch();
        ShardRun {
            states,
            report: report.clone(),
        }
    }

    /// The unfired rest of this slot's script still counts toward its
    /// targets' handoff quotas; deliver those envelopes empty so no peer
    /// waits on a fence that will never fire (early stop, permanent
    /// death).
    fn push_owed_handoffs(&self) {
        let migrations = self.migrations.iter().map(|m| m.to);
        let rehomings = self
            .kills
            .iter()
            .filter(|k| k.permanent)
            .filter_map(|k| k.rehome_to);
        for to in migrations.chain(rehomings) {
            self.hand_off(to, self.ctx.coord.routing.epoch(), Vec::new());
        }
    }

    /// The dead server's statistics lineage: whatever its last checkpoint
    /// holds.  An unreadable worker hands off cold (floor −1 ⇒ full
    /// replay at the target).
    fn checkpoint_lineage(&mut self) -> Vec<WorkerState> {
        let ctx = self.ctx;
        let config = &ctx.config;
        let partition = SlabPartition::new(ctx.n_cells, config.server_workers);
        let mut lineage = Vec::with_capacity(config.server_workers);
        for w in 0..config.server_workers {
            match read_checkpoint(&self.server_config.checkpoint_dir, w) {
                Ok(mut st) => {
                    st.ensure_quantiles(&config.quantile_probs);
                    lineage.push(st);
                }
                Err(e) => {
                    self.log_ev(EventKind::CheckpointUnreadable {
                        worker: w as u32,
                        detail: e.to_string(),
                    });
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
        lineage
    }

    /// Fences every group the `lineage` has not finished to slot `to`,
    /// with per-worker floors (checkpointed floor, raised to any floor
    /// this shard itself adopted earlier).
    fn rehome(&mut self, to: usize, lineage: &[WorkerState]) {
        // Only groups finished by *every* worker of the lineage stay; the
        // rest re-home (a partially finished group replays its tail on
        // the target, discard floors preventing any double integration).
        let finished_everywhere = |g: &u64| lineage.iter().all(|s| s.finished_groups().contains(g));
        let mut moved: Vec<u64> = self
            .my_groups
            .iter()
            .copied()
            .filter(|g| !self.abandoned.contains(g) && !finished_everywhere(g))
            .collect();
        moved.sort_unstable();
        let handoff_groups: Vec<MigratedGroup> = moved
            .iter()
            .map(|&g| MigratedGroup {
                id: g,
                floors: lineage
                    .iter()
                    .enumerate()
                    .map(|(w, st)| {
                        let remembered = self.adopted_floors.get(&g).map_or(-1, |f| f[w]);
                        st.completed_floor(g).max(remembered)
                    })
                    .collect(),
                next_instance: self.next_instance(g),
            })
            .collect();
        let epoch = self.fence(&handoff_groups, to);
        self.report.shards_rehomed = 1;
        self.log_ev(EventKind::ShardRehomed {
            epoch,
            n_groups: handoff_groups.len() as u64,
            from: self.shard as u32,
            to: to as u32,
        });
        self.hand_off(to, epoch, handoff_groups);
        self.report.groups_finished = self
            .my_groups
            .iter()
            .filter(|g| finished_everywhere(g))
            .count();
        // Neutralise the convergence signal: a dead slot must not pin the
        // aggregate at its last (stale) value or at ∞.
        self.ctx
            .coord
            .publish(self.shard, 0.0, 0.0, self.report.groups_finished);
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
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(frame) if matches!(Message::decode(&frame), Ok(Message::ServerReady)) => {
                return Ok(())
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {
                return Err("server did not become ready in time".into())
            }
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
        }
    }
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
        let (ci, qstep, _) = coord.aggregate();
        assert_eq!(ci, f64::INFINITY, "unreported shards gate");
        assert_eq!(qstep, f64::INFINITY, "qstep gates too");
        coord.publish(1, 0.0, 0.0, 0); // empty shard: neutral, published once
        coord.publish(0, 0.02, 0.004, 3); // busy shard converged
        assert_eq!(coord.aggregate(), (0.02, 0.004, 3));
        assert!(!coord.early_stop.load(Ordering::Relaxed));
    }

    /// Both exits of a supervisor go through `finish`: a shard that dies
    /// for good and the peer that adopts its groups fill the same report
    /// fields.
    #[test]
    fn both_supervisor_exits_fill_the_same_report_fields() {
        let mut config = StudyConfig::tiny();
        config.n_shards = 2;
        config.n_groups = 4;
        config.max_concurrent_groups = 1;
        config.checkpoint_dir =
            std::env::temp_dir().join(format!("melissa-ut-exits-{}", std::process::id()));
        let router = GroupRouter::from_config(&config);
        let groups: Vec<Vec<u64>> = (0..2).map(|k| router.groups_for_shard(k, 4)).collect();
        let victim = if groups[0].len() >= groups[1].len() {
            0
        } else {
            1
        };
        let adopter = 1 - victim;
        let faults = FaultPlan::none().with_shard_kill(ShardKill {
            shard: victim,
            after_finished_groups: 1,
            permanent: true,
            rehome_to: Some(adopter),
        });
        let ctx = StudyContext::new_in(config, faults, StudyRuntime::default());

        let runs: Vec<ShardRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|k| {
                    let (ctx, groups) = (&ctx, &groups[k]);
                    s.spawn(move || supervise_shard(ctx, k, groups))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("supervisor panicked")
                        .expect("shard failed")
                })
                .collect()
        });
        std::fs::remove_dir_all(&ctx.config.checkpoint_dir).ok();

        let (dead, live) = (&runs[victim].report, &runs[adopter].report);
        assert_eq!((dead.shards_rehomed, live.shards_rehomed), (1, 0));
        assert!(dead
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ShardRehomed { .. })));
        assert_eq!(dead.groups_finished + live.groups_finished, 4);
        for (exit, r) in [("permanent death", dead), ("live", live)] {
            assert_eq!(r.transport, "in-process", "{exit}");
            assert!(
                r.link_messages > 0 && r.link_bytes > 0,
                "{exit}: link rollup"
            );
            assert_eq!(
                r.link_wire_bytes, r.link_bytes,
                "{exit}: no wire in process"
            );
            assert_eq!(r.routing_epoch, 1, "{exit}: one fence was raised");
            assert!(r.data_messages > 0 && r.data_bytes > 0, "{exit}: ingest");
            assert_eq!(r.quantile_probs, ctx.config.quantile_probs, "{exit}");
            assert_eq!(r.transport_reconnects, 0, "{exit}");
        }
    }

    /// The regression test of the event-driven loop: a fault-free study
    /// is carried by frames alone — server messages and its jobs'
    /// `JobEnded` — so no wait ever runs into a deadline, nobody needs a
    /// `Wake`, and the number of passes is bounded by the work, not by
    /// the wall clock divided by a tick.
    #[test]
    fn fault_free_study_never_wakes_on_a_deadline() {
        use melissa_transport::TransportKind;
        for kind in [TransportKind::InProcess, TransportKind::Tcp] {
            let mut config = StudyConfig::tiny();
            config.transport = kind.clone();
            config.checkpoint_dir = std::env::temp_dir()
                .join(format!("melissa-ut-wakeups-{kind}-{}", std::process::id()));
            let n_groups = config.n_groups as u64;
            let ctx = StudyContext::new_in(config, FaultPlan::none(), StudyRuntime::default());
            let groups: Vec<u64> = (0..n_groups).collect();
            let run = supervise_shard(&ctx, 0, &groups).expect("study");
            let periods = (ctx.started.elapsed().as_millis() / 50) as u64 + 1;
            std::fs::remove_dir_all(&ctx.config.checkpoint_dir).ok();
            assert_eq!(run.report.groups_finished as u64, n_groups, "{kind}");

            let counters = ctx.telemetry(0).expect("on").registry().snapshot().counters;
            let wakeups = |reason: &str| {
                let name = format!("supervisor_wakeups_total{{reason=\"{reason}\"}}");
                let found = counters.iter().find(|(n, _)| *n == name);
                found
                    .unwrap_or_else(|| panic!("{kind}: no counter {name}"))
                    .1
            };
            assert_eq!(wakeups("deadline"), 0, "{kind}: a wait timed out");
            assert_eq!(wakeups("wake"), 0, "{kind}: nothing to be woken for");
            assert!(
                (1..=n_groups).contains(&wakeups("job_ended")),
                "{kind}: {} job_ended wake-ups",
                wakeups("job_ended")
            );
            // One pushed report per group, a heartbeat and a report per
            // 50 ms period, and slack for a period boundary.
            let messages = wakeups("message");
            assert!(
                messages <= n_groups + 2 * periods + 4,
                "{kind}: {messages} message wake-ups over {periods} report periods"
            );
        }
    }

    #[test]
    fn bootstrap_directory_serves_a_reachable_store() {
        let (server, addr) = bootstrap_directory().expect("directory bootstrap");
        let client = melissa_transport::DirectoryClient::connect(&addr).expect("dial directory");
        client.publish("server/0", "127.0.0.1:1234").unwrap();
        assert_eq!(
            client.resolve("server/0").unwrap(),
            Some("127.0.0.1:1234".into())
        );
        drop(server);
    }
}
