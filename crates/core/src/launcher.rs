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
//! one-shard study, under the same `shard0/…` names.  Each
//! supervisor owns its shard's failover completely — including the
//! checkpoint-restore server recovery — so a shard failure never stalls
//! the other shards.  A supervisor is a pure decision core
//! (`supervisor.rs`, which reads no clock) and the driver here, which
//! carries out its actions.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa_sobol::design::PickFreeze;
use melissa_solver::injection::InjectionParams;
use melissa_solver::FrozenFlow;
use melissa_telemetry::{Counter, Gauge, Histogram, Telemetry};
use melissa_transport::directory::names;
use melissa_transport::sync::Mutex;
use melissa_transport::{
    instant_after, make_transport_with, BoxReceiver, BoxSender, KillSwitch, Receiver,
    RecvTimeoutError, Transport,
};

use crate::config::StudyConfig;
use crate::fault::FaultPlan;
use crate::group::{run_group, GroupContext, GroupOutcome};
use crate::protocol::Message;
use crate::report::StudyReport;
use crate::server::{Server, ServerConfig};
use crate::study::StudyOutput;
use crate::supervisor::{Action, Event, SupervisorState};
use melissa_scheduler::{Dispatcher, JobHandle, JobRunner};

/// A group that fails more often than this is abandoned, never replaced
/// by a redrawn row (paper Section 4.2.2).
pub const MAX_GROUP_RETRIES: u32 = 3;

/// The server's heartbeat and report period.
pub(crate) const REPORT_INTERVAL: Duration = Duration::from_millis(50);

/// The execution environment a study runs in.
///
/// The defaults are the standalone launcher: a fresh transport built
/// from [`StudyConfig::transport`], a private [`JobRunner`] (a
/// one-tenant pool, FIFO) sized to
/// [`StudyConfig::max_concurrent_groups`], no outer endpoint scope
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
    /// Outer endpoint scope: every shard's endpoints — server inboxes,
    /// launcher inbox — nest under it (empty: they are `shard<k>/…`).
    pub scope: String,
    /// Cooperative cancellation: once killed, every shard supervisor
    /// stops its jobs and server and the study returns a "cancelled"
    /// error.
    pub cancel: KillSwitch,
}

/// Per-shard senders into the supervisors' launcher inboxes, for the
/// payload-free [`Message::Wake`]: whoever changes something a supervisor
/// reads from shared memory — the early-stop flag, the cancel switch —
/// wakes it instead of leaving it to find out on a tick.  An entry is
/// `None` before its supervisor starts (its first pass looks at
/// everything anyway) and after it ends.
pub(crate) struct Wakers(Vec<Mutex<Option<BoxSender>>>);

impl Wakers {
    fn wake_all(&self) {
        for tx in &self.0 {
            if let Some(tx) = &*tx.lock() {
                // A full inbox already holds plenty of reasons to wake up.
                let _ = tx.send_timeout(Message::Wake.encode(), Duration::ZERO);
            }
        }
    }
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
    wakers: Arc<Wakers>,
}

impl Coordination {
    fn new(n_shards: usize) -> Self {
        Self {
            signals: Mutex::new(vec![(f64::INFINITY, f64::INFINITY, 0); n_shards]),
            early_stop: AtomicBool::new(false),
            wakers: Arc::new(Wakers((0..n_shards).map(|_| Mutex::new(None)).collect())),
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
    /// Server shards this study runs, one supervisor each.
    pub n_shards: usize,
    /// Per-shard live telemetry (empty when
    /// [`StudyConfig::telemetry`] is off): shared registry and event
    /// ring, both stamped against the study clock.
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
        let n_shards = config.n_shards.max(1);
        let coord = Coordination::new(n_shards);
        let wakers = Arc::clone(&coord.wakers);
        rt.cancel.on_kill(move || wakers.wake_all());
        // One telemetry hub per shard, all on the shared study clock so
        // cross-shard event timestamps are comparable.
        let telemetry = if config.telemetry {
            (0..n_shards)
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
            n_shards,
            telemetry,
        }
    }

    /// Shard `shard`'s telemetry hub (`None` when telemetry is disabled).
    pub(crate) fn telemetry(&self, shard: usize) -> Option<&Arc<Telemetry>> {
        self.telemetry.get(shard)
    }

    /// The server configuration of shard `shard`, under its endpoint
    /// scope `[study<id>/]shard<k>` (one-shard studies included), which
    /// is also its checkpoint subdirectory
    /// (`<checkpoint_dir>/[study<id>/]shard<k>/`), so worker files never
    /// collide.
    pub(crate) fn server_config(&self, shard: usize) -> ServerConfig {
        let scope = names::scoped(&self.outer, &names::shard_scope(shard));
        ServerConfig {
            checkpoint_dir: self.config.checkpoint_dir.join(&scope),
            scope,
            n_workers: self.config.server_workers,
            n_cells: self.n_cells,
            p: self.p,
            n_timesteps: self.config.solver.n_timesteps,
            hwm: self.config.hwm,
            group_timeout: self.config.group_timeout,
            checkpoint_interval: self.config.checkpoint_interval,
            report_interval: REPORT_INTERVAL,
            track_ci: self.config.target_ci_width.is_some(),
            ci_variance_floor: self.config.ci_variance_floor,
            restore: false,
            thresholds: self.config.thresholds.clone(),
            quantile_probs: self.config.quantile_probs.clone(),
            telemetry: self.telemetry(shard).cloned(),
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
/// of the paper, under shard `shard`'s endpoint scope
/// ([`StudyContext::server_config`]) so `N` of them can run against one
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
/// gauges refreshed every pass, a histogram recorded on completion,
/// wake-ups counted by reason.
struct Probes {
    queue_depth: Gauge,
    free_units: Gauge,
    load_factor: Gauge,
    /// Indexed by [`Span`](crate::supervisor::Span).
    spans: [Histogram; 1],
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
            spans: ["group_turnaround"].map(|span| r.histogram(&format!("{span}_nanos"))),
            wakeups: Wakeup::REASONS.map(|reason| {
                r.counter(&format!("supervisor_wakeups_total{{reason=\"{reason}\"}}"))
            }),
        }
    }
}

/// The driver of one shard's supervision: it owns every effect — the
/// launcher inbox, the server, the group jobs, the shared coordination,
/// the telemetry — and leaves every decision to its [`SupervisorState`].
/// Each pass reads the clock once, turns what changed into [`Event`]s,
/// carries out the [`Action`]s they yield, and blocks on the inbox until
/// the state's next deadline.
///
/// Dropping it — after the last action, on any `Err` return or on a
/// panic — kills and joins its group jobs and abandons its server, so no
/// job or server thread outlives the supervisor.
struct ShardSupervisor<'a> {
    ctx: &'a StudyContext,
    shard: usize,
    /// The shard's server configuration; its `scope` is the endpoint
    /// scope everything of this shard binds under.
    server_config: ServerConfig,
    launcher_rx: BoxReceiver,
    launcher_tx: BoxSender,
    /// The running server instance (`None` once it ended).
    server: Option<Server>,
    tele: Option<&'a Arc<Telemetry>>,
    probes: Option<Probes>,
    state: SupervisorState,
    /// What the group jobs report — their start stamps and outcomes —
    /// in the order it happened.
    job_events: Arc<Mutex<Vec<Event>>>,
    jobs: HashMap<u64, JobHandle>,
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
    /// Starts the shard's server and waits for its readiness.
    fn start(ctx: &'a StudyContext, shard: usize, groups: &[u64]) -> Result<Self, String> {
        let server_config = ctx.server_config(shard);
        let launcher = names::launcher_in(&server_config.scope);
        let launcher_rx = ctx.transport.bind(&launcher, 1024);
        let launcher_tx = ctx.transport.connect(&launcher).expect("just bound");
        *ctx.coord.wakers.0[shard].lock() = Some(launcher_tx.clone());
        let transport = Arc::clone(&ctx.transport);
        let server = Server::start(server_config.clone(), transport, launcher_tx.clone());
        let (config, faults, now) = (&ctx.config, &ctx.faults, Instant::now());
        let state = SupervisorState::new(config, faults, shard, groups, ctx.started, now);
        let tele = ctx.telemetry(shard);
        let sup = Self {
            ctx,
            shard,
            server_config,
            launcher_rx,
            launcher_tx,
            server: Some(server),
            tele,
            probes: tele.map(|t| Probes::new(t)),
            state,
            job_events: Arc::new(Mutex::new(Vec::new())),
            jobs: HashMap::new(),
        };
        wait_for_ready(sup.launcher_rx.as_ref(), ctx.config.server_timeout)?;
        Ok(sup)
    }

    /// The supervision loop, until an action ends it.  Everything that
    /// can change a decision arrives as a frame on the launcher inbox — a
    /// server message, a job's [`Message::JobEnded`], a peer's
    /// [`Message::Wake`] — or is a deadline; between events the
    /// supervisor sleeps.
    fn run(mut self) -> Result<ShardRun, String> {
        let finished = self.server().shared().finished_groups();
        let mut next = Event::ServerUp(None, finished);
        loop {
            let now = Instant::now();
            for event in std::iter::once(next).chain(self.observe()) {
                if let Some(run) = self.drive(event, now)? {
                    return Ok(run);
                }
            }
            self.refresh_probes();
            next = self.wait_for_event()?;
        }
    }

    /// What changed in shared memory: the cancel switch, job start stamps
    /// and outcomes, the convergence coordination.
    fn observe(&mut self) -> Vec<Event> {
        let coord = &self.ctx.coord;
        let mut events = Vec::new();
        if self.ctx.cancel.is_killed() {
            events.push(Event::Cancelled);
        }
        events.append(&mut self.job_events.lock());
        let early_stop = coord.early_stop.load(Ordering::Relaxed);
        events.push(Event::Signals(coord.aggregate(), early_stop));
        events
    }

    /// Steps one event and carries out its actions; a blocking action's
    /// result is stepped next, at the instant it came back.  Returns the
    /// shard's run once an action ends it.
    fn drive(&mut self, event: Event, now: Instant) -> Result<Option<ShardRun>, String> {
        let (mut next, mut now) = (Some(event), now);
        while let Some(event) = next.take() {
            for action in self.state.step(event, now) {
                match action {
                    Action::Finish => return Ok(Some(self.finish())),
                    Action::Fail(error) => return Err(error),
                    action => next = self.execute(action)?,
                }
            }
            now = Instant::now();
        }
        Ok(None)
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until finish")
    }

    /// Carries out one action; restarting the server returns the
    /// restored server's [`Event::ServerUp`].
    fn execute(&mut self, action: Action) -> Result<Option<Event>, String> {
        let (coord, shard) = (&self.ctx.coord, self.shard);
        match action {
            Action::RestartServer => return self.restart_server().map(Some),
            Action::Submit(g, instance) => self.submit(g, instance),
            // For a job that recorded its outcome the join only waits for
            // the dispatcher to take its unit back, so the next step finds
            // the pool settled.
            Action::Stop(g) => {
                if let Some(job) = self.jobs.remove(&g) {
                    job.kill.kill();
                    job.join();
                }
            }
            Action::StopAll => self.stop_all_jobs(),
            Action::CrashServer => self.server().crash(),
            Action::Publish(ci, qstep, finished) => coord.publish(shard, ci, qstep, finished),
            // This supervisor saw the crossing; the others learn of it now.
            Action::RaiseEarlyStop if !coord.early_stop.swap(true, Ordering::Relaxed) => {
                coord.wakers.wake_all()
            }
            Action::Record(span, since) => {
                if let Some(p) = &self.probes {
                    p.spans[span as usize].record(since.elapsed().as_nanos() as u64);
                }
            }
            Action::Journal(event) => {
                if let Some(t) = self.tele {
                    t.record_event(event);
                }
            }
            _ => {}
        }
        Ok(None)
    }

    /// Submits instance `instance` of group `g` and tracks the job.
    fn submit(&mut self, g: u64, instance: u32) {
        let ctx = self.ctx;
        let config = &ctx.config;
        let job = GroupContext {
            scope: self.server_config.scope.clone(),
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
        let events = Arc::clone(&self.job_events);
        let inbox = self.launcher_tx.clone();
        let handle = ctx.runner.submit_boxed(
            1,
            Box::new(move |kill| {
                events
                    .lock()
                    .push(Event::JobStarted(g, instance, Instant::now()));
                // A panicking group is a failed instance: it is retried,
                // then abandoned, like one whose server link failed.
                let outcome = catch_unwind(AssertUnwindSafe(|| run_group(job, kill)))
                    .unwrap_or_else(|payload| GroupOutcome::Aborted {
                        reason: format!("group job panicked: {}", panic_message(&*payload)),
                    });
                events.lock().push(Event::JobEnded(g, instance, outcome));
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
        self.jobs.insert(g, handle);
    }

    /// Kills every job, then joins them all.
    fn stop_all_jobs(&mut self) {
        for job in self.jobs.values() {
            job.kill.kill();
        }
        for (_, job) in self.jobs.drain() {
            job.join();
        }
    }

    /// Control-path gauges — how deep the FCFS queue is, how much of the
    /// node budget is free, how starved this process is.
    fn refresh_probes(&self) {
        if let Some(p) = &self.probes {
            p.queue_depth.set(self.ctx.runner.queued_jobs());
            p.free_units.set(self.ctx.runner.free_units() as u64);
            p.load_factor
                .set((self.state.load.factor() * 1000.0) as u64);
        }
    }

    /// Blocks on the launcher inbox until a frame arrives or the state's
    /// next deadline passes.
    fn wait_for_event(&mut self) -> Result<Event, String> {
        // A frame that was not queued yet when the wait began is received
        // when it arrives (give or take this thread's scheduling delay —
        // the very thing the load monitor measures).
        let live = self.launcher_rx.is_empty();
        let deadline = self.state.next_deadline();
        let received = self
            .launcher_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()));
        let (reason, event) = match received.map(|frame| Message::decode(&frame)) {
            Err(RecvTimeoutError::Timeout) => (Wakeup::Deadline, Event::Deadline),
            Err(RecvTimeoutError::Disconnected) => return Err("launcher inbox closed".into()),
            Ok(Ok(message)) => {
                let reason = match message {
                    Message::JobEnded { .. } => Wakeup::JobEnded,
                    Message::Wake => Wakeup::Wake,
                    _ => Wakeup::Message,
                };
                (reason, Event::Frame(message, live))
            }
            // An undecodable frame tells the state nothing but the time.
            Ok(Err(_)) => (Wakeup::Message, Event::Deadline),
        };
        if let Some(p) = &self.probes {
            p.wakeups[reason as usize].inc();
        }
        Ok(event)
    }

    /// Abandons the crashed server, starts one restored from its
    /// checkpoint under the same scoped endpoints and waits for it.
    fn restart_server(&mut self) -> Result<Event, String> {
        let dead = self.server.take().expect("server runs until finish");
        let ended = dead.shared().counters();
        dead.abandon();
        let restore_cfg = ServerConfig {
            restore: true,
            ..self.server_config.clone()
        };
        let transport = Arc::clone(&self.ctx.transport);
        let server = Server::start(restore_cfg, transport, self.launcher_tx.clone());
        self.server = Some(server);
        wait_for_ready(self.launcher_rx.as_ref(), self.ctx.config.server_timeout)?;
        let finished = self.server().shared().finished_groups();
        Ok(Event::ServerUp(Some(ended), finished))
    }

    /// The one exit: stops the server cleanly — its states are the
    /// shard's statistics — and fills the report.
    fn finish(&mut self) -> ShardRun {
        let server = self.server.take().expect("server runs until finish");
        let (link, shared) = (server.data_link_stats(), Arc::clone(server.shared()));
        let states = server.stop();
        let transport = &self.ctx.transport;
        let mut report = self.state.final_report(shared.counters());
        report.transport = transport.backend_name().to_string();
        report.blocked_sends = link.blocked_sends;
        report.blocked_time = link.blocked_time();
        report.link_messages = link.messages;
        report.link_bytes = link.bytes;
        report.link_wire_bytes = link.wire_bytes;
        report.transport_reconnects = transport.reconnects();
        ShardRun { states, report }
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

/// The message a panic was raised with (`panic!` with or without
/// arguments), or a placeholder for any other payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<String>() {
        Some(message) => message,
        None => payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(no message)"),
    }
}

/// Waits for a `ServerReady` on the launcher inbox.
fn wait_for_ready(rx: &dyn Receiver, timeout: Duration) -> Result<(), String> {
    let deadline = instant_after(Instant::now(), timeout);
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
    use crate::shard::GroupRouter;
    use melissa_telemetry::EventKind;

    /// An empty shard publishes a neutral CI once and nothing may
    /// overwrite it: a stray ∞ from a shard that never computes a CI
    /// would pin the aggregate and permanently disable early stop.
    #[test]
    fn empty_shard_neutral_signal_keeps_the_aggregate_usable() {
        let coord = Coordination::new(2);
        let (ci, qstep, _) = coord.aggregate();
        assert_eq!(ci, f64::INFINITY, "unreported shards gate");
        assert_eq!(qstep, f64::INFINITY, "qstep gates too");
        coord.publish(1, 0.0, 0.0, 0); // empty shard: neutral, published once
        coord.publish(0, 0.02, 0.004, 3); // busy shard converged
        assert_eq!(coord.aggregate(), (0.02, 0.004, 3));
        assert!(!coord.early_stop.load(Ordering::Relaxed));
    }

    /// A shard whose server crash-restores from its checkpoint leaves
    /// through the same `finish` as a fault-free peer and fills the same
    /// report fields.
    #[test]
    fn crash_restored_and_fault_free_shards_fill_the_same_report_fields() {
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
        let peer = 1 - victim;
        let faults = FaultPlan::none().with_server_kill_after_on_shard(1, victim);
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

        let (restored, clean) = (&runs[victim].report, &runs[peer].report);
        assert_eq!((restored.server_restarts, clean.server_restarts), (1, 0));
        assert!(restored
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ServerKillInjected { .. })));
        assert_eq!(restored.groups_finished + clean.groups_finished, 4);
        for (exit, r) in [("crash-restored", restored), ("fault-free", clean)] {
            assert_eq!(r.transport, "in-process", "{exit}");
            assert!(
                r.link_messages > 0 && r.link_bytes > 0,
                "{exit}: link rollup"
            );
            assert_eq!(
                r.link_wire_bytes, r.link_bytes,
                "{exit}: no wire in process"
            );
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

    /// A supervisor that panics mid-study takes its group jobs down with
    /// it: unwinding drops its `ShardSupervisor`, whose `Drop` kills and
    /// joins every job it submitted and abandons its server, so the pool
    /// is whole when the study returns its error.
    #[test]
    fn a_panicking_supervisor_kills_and_joins_its_jobs() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        /// Runs jobs that hold their unit until killed, and panics on the
        /// third submission once the first two run.
        struct PanicsOnThird {
            inner: JobRunner,
            submitted: AtomicUsize,
            started: (mpsc::Sender<()>, Mutex<mpsc::Receiver<()>>),
            killed: Arc<AtomicUsize>,
            ended: Arc<AtomicUsize>,
        }
        impl Dispatcher for PanicsOnThird {
            fn submit_boxed(
                &self,
                units: usize,
                _group: Box<dyn FnOnce(&KillSwitch) + Send>,
            ) -> JobHandle {
                if self.submitted.fetch_add(1, Ordering::SeqCst) == 2 {
                    let started = self.started.1.lock();
                    for _ in 0..2 {
                        started.recv_timeout(Duration::from_secs(30)).unwrap();
                    }
                    panic!("the third submission");
                }
                let started = self.started.0.clone();
                let (killed, ended) = (Arc::clone(&self.killed), Arc::clone(&self.ended));
                let job = move |kill: &KillSwitch| {
                    started.send(()).unwrap();
                    if kill.wait(Duration::from_secs(30)) {
                        killed.fetch_add(1, Ordering::SeqCst);
                    }
                    ended.fetch_add(1, Ordering::SeqCst);
                };
                self.inner.submit_boxed(units, Box::new(job))
            }
            fn queued_jobs(&self) -> u64 {
                self.inner.queued_jobs()
            }
            fn free_units(&self) -> usize {
                self.inner.free_units()
            }
            fn total_units(&self) -> usize {
                self.inner.total_units()
            }
        }

        let mut config = StudyConfig::tiny();
        (config.n_groups, config.max_concurrent_groups) = (4, 2);
        config.checkpoint_dir =
            std::env::temp_dir().join(format!("melissa-ut-unwind-{}", std::process::id()));
        let (started_tx, started_rx) = mpsc::channel();
        let runner = Arc::new(PanicsOnThird {
            inner: JobRunner::new(2),
            submitted: AtomicUsize::new(0),
            started: (started_tx, Mutex::new(started_rx)),
            killed: Arc::default(),
            ended: Arc::default(),
        });
        let rt = StudyRuntime {
            runner: Some(Arc::clone(&runner) as Arc<dyn Dispatcher>),
            ..StudyRuntime::default()
        };
        let dir = config.checkpoint_dir.clone();
        let err = crate::Study::new(config).run_in(rt).err();
        std::fs::remove_dir_all(&dir).ok();
        let err = err.expect("the supervisor panicked");
        assert!(err.contains("shard 0: supervisor panicked"), "{err}");
        assert_eq!(runner.killed.load(Ordering::SeqCst), 2, "kills seen");
        assert_eq!(runner.ended.load(Ordering::SeqCst), 2, "jobs joined");
        assert_eq!(
            runner.free_units(),
            runner.total_units(),
            "the pool is whole"
        );
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
