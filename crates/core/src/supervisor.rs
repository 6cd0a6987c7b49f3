//! The shard supervisor's decisions, without I/O (paper Section 4.2).
//!
//! [`SupervisorState`] is what one shard supervisor knows — owned,
//! running, finished and abandoned groups, retries, the chaos script,
//! awaited handoffs, adopted floors, the report and its journal — and
//! [`step`](SupervisorState::step) is everything it decides: handed one
//! [`Event`] and the instant it was seen, it answers with the [`Action`]s
//! to carry out.  It owns no thread, lock, link or server and never reads
//! the clock, so a zombie bound, a silent server or the wall limit is a
//! comparison with the `now` it is given.  The driver in
//! [`crate::launcher`] turns what it sees into events and carries out the
//! actions; an action whose result the state needs (*answers* below) ends
//! its batch, and its result is the next event.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use melissa_telemetry::{EventKind, StudyEvent};
use melissa_transport::{instant_after, LoadMonitor};

use crate::config::StudyConfig;
use crate::fault::{FaultPlan, Migration, MigrationMoves, ShardKill};
use crate::group::GroupOutcome;
use crate::launcher::{MAX_GROUP_RETRIES, REPORT_INTERVAL};
use crate::protocol::Message;
use crate::report::StudyReport;
use crate::server::state::WorkerState;
use crate::server::ServerCounters;

/// One group crossing an epoch fence: everything the adopting shard needs
/// to resume it.
#[derive(Debug, Clone)]
pub(crate) struct MigratedGroup {
    pub id: u64,
    /// Per server worker, the last timestep it fully integrated before
    /// the fence (`-1` if none): the target adopts these as
    /// discard-on-replay floors, so the replay skips what the source kept.
    pub floors: Vec<i64>,
    /// Instance number the target submits the replayed group job as.
    pub next_instance: u32,
}

/// One fence's handoff between supervisors.  An *empty* one still counts
/// toward the target's expected-handoff quota, so a scripted target never
/// waits for groups that finished before the fence.
#[derive(Debug, Clone)]
pub(crate) struct Handoff {
    pub from: usize,
    pub epoch: u64,
    pub groups: Vec<MigratedGroup>,
}

/// What a supervisor learns.
pub(crate) enum Event {
    /// A frame from the launcher inbox, and whether the inbox was empty
    /// as the wait for it began (only then does a heartbeat's gap measure
    /// scheduling delay).
    Frame(Message, bool),
    /// Nothing (decodable) arrived before
    /// [`SupervisorState::next_deadline`].
    Deadline,
    Cancelled,
    /// The dispatcher started job `(group, instance)` at an instant.
    JobStarted(u64, u32, Instant),
    JobEnded(u64, u32, GroupOutcome),
    Handoff(Handoff),
    /// The cross-shard `(CI width, quantile step, finished groups)` and
    /// the early-stop flag.
    Signals((f64, f64, usize), bool),
    /// A server is ready — the first (`None`), or one restored from its
    /// checkpoint with the dead one's counters — and what it holds
    /// finished.
    ServerUp(Option<ServerCounters>, Vec<u64>),
    /// Each fenced-out group's final per-worker floors.
    FencedOut(Vec<(u64, Vec<i64>)>),
    /// The routing epoch a fence raised.
    Fenced(u64),
    /// The dead server's checkpointed states (cold for each unreadable
    /// worker, listed with its error).
    Lineage(Vec<WorkerState>, Vec<(u32, String)>),
}

/// A histogram the supervisor feeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Span {
    Turnaround,
    Drain,
    Adopt,
}

/// What a supervisor does.
pub(crate) enum Action {
    Submit(u64, u32),
    /// Kill and join a group's job.
    Stop(u64),
    /// Kill every job, then join them all.
    StopAll,
    CrashServer,
    /// Abandon the server, start one restored from its checkpoint;
    /// answers [`Event::ServerUp`].
    RestartServer,
    /// Fence groups out through the flush barrier; answers
    /// [`Event::FencedOut`].
    FenceOut(Vec<u64>),
    /// Install replay floors and wait until every worker has them.
    InstallFloors(Vec<(u64, Vec<i64>)>),
    /// Re-route groups to a slot under a new routing epoch; answers
    /// [`Event::Fenced`].
    Fence(Vec<u64>, usize),
    Checkpoint,
    /// Deliver a handoff to a slot and wake it (a `None` epoch is the
    /// routing table's current one).
    HandOff(usize, Option<u64>, Vec<MigratedGroup>),
    /// Publish this shard's `(CI width, quantile step, finished groups)`.
    Publish(f64, f64, usize),
    /// Raise the study's early-stop flag and wake every peer.
    RaiseEarlyStop,
    /// Record the time since an instant.
    Record(Span, Instant),
    /// Mirror a journal event into the live telemetry ring.
    Journal(StudyEvent),
    /// Abandon the dead server and read its checkpoints; answers
    /// [`Event::Lineage`].
    ReadLineage,
    /// End the run: the live server's states (`None`) or the dead one's
    /// lineage are the shard's statistics.
    Finish(Option<Vec<WorkerState>>),
    Fail(String),
}

/// A tracked job: its instance, start stamp (a job queued on a busy pool
/// never looks like a zombie) and outcome.
struct Job(u32, Option<Instant>, Option<GroupOutcome>);

/// What the state waits for.
enum Pending {
    Restart,
    /// The flush barriers of a migration to a slot, begun at an instant.
    FenceOut(usize, Instant),
    /// The lineage of a dead server re-homing to a slot.
    Lineage(usize),
    /// The epoch of a fence moving groups to a slot: a migration begun at
    /// an instant, or a re-homing with the dead server's lineage.
    Fence(usize, Vec<MigratedGroup>, Instant, Option<Vec<WorkerState>>),
    /// `Finish` or `Fail` was emitted.
    Over,
}

/// The decision core of one shard supervisor.
pub(crate) struct SupervisorState {
    shard: usize,
    config: StudyConfig,
    /// The study clock's origin; the wall limit counts from it.
    started: Instant,
    /// How late the server's heartbeats arrive measures how starved this
    /// process is; the server timeout and the zombie bound stretch by it.
    pub(crate) load: LoadMonitor,
    server_seen: Instant,
    last_heartbeat: Instant,
    signals: (f64, f64, usize),
    early_stop: bool,
    pending: Option<Pending>,
    /// The instant of the event being stepped, and the actions it yields.
    now: Instant,
    out: Vec<Action>,
    report: StudyReport,
    /// `frames_rejected` of the server instances that have ended; the
    /// running one's count rides its reports on top of this.
    rejected_by_ended_servers: u64,
    active: HashMap<u64, Job>,
    /// Highest instance number each group has run as.
    retries: HashMap<u64, u32>,
    abandoned: HashSet<u64>,
    /// Live ownership: shrinks when a fence migrates groups away, grows
    /// when a handoff arrives.
    my_groups: HashSet<u64>,
    known_finished: HashSet<u64>,
    known_running: HashSet<u64>,
    /// The chaos script, each a sorted queue consumed by trigger.
    kills: VecDeque<ShardKill>,
    migrations: VecDeque<Migration>,
    /// Inbound handoffs not yet received; ownership is final only at 0.
    handoffs_awaited: usize,
    /// Floors adopted from inbound handoffs: a later permanent death hands
    /// off at least these even if the checkpoint predates them.
    adopted_floors: HashMap<u64, Vec<i64>>,
}

impl SupervisorState {
    /// Slot `shard`, owning `groups`, its server started at `now`;
    /// nothing is submitted before the first [`Event::ServerUp`].
    pub(crate) fn new(
        config: &StudyConfig,
        faults: &FaultPlan,
        shard: usize,
        groups: &[u64],
        started: Instant,
        now: Instant,
    ) -> Self {
        let mut report = StudyReport::new(config.n_groups);
        report.n_shards = config.n_shards;
        // Stamped on the shared study clock and tagged with this slot, so
        // per-shard journals merge on one axis.
        report.origin = started;
        report.shard = shard as u32;
        report.final_max_quantile_step = f64::INFINITY;
        report.quantile_probs = config.quantile_probs.clone();
        // A joiner slot: everything arrives by handoff.
        report.shards_joined = u32::from(shard >= config.n_shards);
        Self {
            shard,
            config: config.clone(),
            started,
            load: LoadMonitor::new(),
            server_seen: now,
            last_heartbeat: now,
            signals: (f64::INFINITY, f64::INFINITY, 0),
            early_stop: false,
            pending: None,
            now,
            out: Vec::new(),
            report,
            rejected_by_ended_servers: 0,
            active: HashMap::new(),
            retries: HashMap::new(),
            abandoned: HashSet::new(),
            my_groups: groups.iter().copied().collect(),
            known_finished: HashSet::new(),
            known_running: HashSet::new(),
            kills: faults.kills_for_shard(shard).into(),
            migrations: faults.migrations_from(shard).into(),
            handoffs_awaited: faults.expected_handoffs(shard),
            adopted_floors: HashMap::new(),
        }
    }

    /// Takes in one event seen at `now` and decides what follows.
    pub(crate) fn step(&mut self, event: Event, now: Instant) -> Vec<Action> {
        self.now = now;
        match event {
            Event::Frame(message, live) => self.on_message(message, live),
            Event::Deadline => {}
            Event::Cancelled => {
                let progress = self.progress();
                self.end(Action::Fail(format!("study cancelled: {progress}")));
            }
            Event::JobStarted(g, instance, at) => {
                if let Some(job) = self.job(g, instance) {
                    job.1 = Some(at);
                }
            }
            Event::JobEnded(g, instance, outcome) => {
                if let Some(job) = self.job(g, instance) {
                    job.2 = Some(outcome);
                }
            }
            Event::Handoff(handoff) => self.adopt(handoff),
            Event::Signals(signals, early_stop) => {
                self.signals = signals;
                self.early_stop |= early_stop;
            }
            Event::ServerUp(ended, finished) => self.server_up(ended, finished),
            Event::FencedOut(fenced) => self.fenced_out(fenced),
            Event::Fenced(epoch) => self.fenced(epoch),
            Event::Lineage(lineage, unreadable) => self.rehome(lineage, unreadable),
        }
        self.decide();
        std::mem::take(&mut self.out)
    }

    /// The earliest instant at which a step has something to do although
    /// nothing happened: the wall limit, the server's liveness expiry, or
    /// a started, still silent job's zombie bound.
    pub(crate) fn next_deadline(&self) -> Instant {
        let zombie_after = self.zombie_after();
        let zombies = (self.active.iter())
            .filter(|(&g, _)| self.is_silent(g))
            .filter_map(|(_, job)| job.1.map(|t| instant_after(t, zombie_after)));
        let wall = instant_after(self.started, self.config.wall_limit);
        let server = instant_after(self.server_seen, self.server_timeout());
        zombies.fold(wall.min(server), Instant::min)
    }

    /// The report, with the last server instance's counters folded in.
    pub(crate) fn final_report(&mut self, ended: ServerCounters) -> StudyReport {
        self.absorb(ended);
        self.report.groups_abandoned = self.abandoned.iter().copied().collect();
        self.report.groups_abandoned.sort_unstable();
        self.report.clone()
    }

    fn emit(&mut self, action: Action) {
        self.out.push(action);
    }

    fn log(&mut self, kind: EventKind) {
        let event = self.report.log_at(kind, self.now);
        self.emit(Action::Journal(event));
    }

    fn end(&mut self, action: Action) {
        self.pending = Some(Pending::Over);
        self.emit(action);
    }

    fn progress(&self) -> String {
        let (finished, owned) = (self.known_finished.len(), self.my_groups.len());
        format!("finished {finished}/{owned}")
    }

    fn job(&mut self, g: u64, instance: u32) -> Option<&mut Job> {
        self.active.get_mut(&g).filter(|job| job.0 == instance)
    }

    fn publish_signals(&mut self) {
        let (r, finished) = (&self.report, self.known_finished.len());
        let signals = Action::Publish(r.final_max_ci, r.final_max_quantile_step, finished);
        self.emit(signals);
    }

    /// The instance number group `g`'s next job runs as.
    fn next_instance(&self, g: u64) -> u32 {
        self.retries.get(&g).copied().unwrap_or(0) + 1
    }

    fn launch(&mut self, g: u64, instance: u32) {
        self.active.insert(g, Job(instance, None, None));
        self.emit(Action::Submit(g, instance));
    }

    /// Resubmits group `g` as `instance`, counted as a restart.
    fn relaunch(&mut self, g: u64, instance: u32) {
        self.retries.insert(g, instance);
        self.report.group_restarts += 1;
        self.launch(g, instance);
    }

    fn stop_job(&mut self, g: u64) {
        if self.active.remove(&g).is_some() {
            self.emit(Action::Stop(g));
        }
    }

    fn stop_all(&mut self) {
        self.active.clear();
        self.emit(Action::StopAll);
    }

    /// Kills (if needed) and resubmits a failed group, honouring the
    /// retry cap.
    fn group_failed(&mut self, g: u64) {
        if self.abandoned.contains(&g) {
            return;
        }
        self.stop_job(g);
        let instance = self.next_instance(g);
        if instance > MAX_GROUP_RETRIES {
            self.abandoned.insert(g);
            let retries = MAX_GROUP_RETRIES;
            return self.log(EventKind::GroupAbandoned { group: g, retries });
        }
        self.log(EventKind::GroupRestarted { group: g, instance });
        self.relaunch(g, instance);
    }

    fn absorb(&mut self, c: ServerCounters) {
        let r = &mut self.report;
        r.data_messages += c.messages;
        r.data_bytes += c.bytes;
        r.replays_discarded += c.replays_discarded;
        r.checkpoints_written += c.checkpoints_written;
        r.checkpoints_failed += c.checkpoints_failed;
        self.rejected_by_ended_servers += c.frames_rejected;
        r.frames_rejected = self.rejected_by_ended_servers;
    }

    fn server_timeout(&self) -> Duration {
        self.load.scale(self.config.server_timeout)
    }

    /// Zombie bound: 2× the group timeout, stretched by the load factor.
    fn zombie_after(&self) -> Duration {
        self.load.scale(self.config.group_timeout * 2)
    }

    /// Whether the server never heard from group `g` (the only jobs the
    /// zombie bound applies to).
    fn is_silent(&self, g: u64) -> bool {
        !self.known_running.contains(&g) && !self.known_finished.contains(&g)
    }

    fn on_message(&mut self, message: Message, live: bool) {
        let now = self.now;
        match message {
            Message::Heartbeat { .. } => {
                if live {
                    let gap = now.saturating_duration_since(self.last_heartbeat);
                    self.load.observe(REPORT_INTERVAL, gap);
                }
                (self.last_heartbeat, self.server_seen) = (now, now);
            }
            Message::ServerReady => self.server_seen = now,
            Message::ServerReport {
                finished_groups,
                running_groups,
                max_ci_width,
                max_quantile_step,
                quantile_steps,
                blocked_sends,
                blocked_nanos,
                frames_rejected,
            } => {
                self.server_seen = now;
                self.known_finished.extend(finished_groups);
                self.known_running = running_groups.into_iter().collect();
                self.report.final_max_ci = max_ci_width;
                self.report.final_max_quantile_step = max_quantile_step;
                self.report.final_quantile_steps = quantile_steps;
                self.publish_signals();
                // Live backpressure accounting, until the driver writes the
                // end-of-study transport rollup.
                self.report.blocked_sends = blocked_sends;
                self.report.blocked_time = Duration::from_nanos(blocked_nanos);
                self.report.frames_rejected = self.rejected_by_ended_servers + frames_rejected;
            }
            Message::GroupTimeout { group_id: g }
                if !self.known_finished.contains(&g) && self.my_groups.contains(&g) =>
            {
                self.log(EventKind::GroupTimeout { group: g });
                self.group_failed(g);
            }
            // `JobEnded` and `Wake` only wake the driver up.
            _ => {}
        }
    }

    /// A server is ready.  At start every owned group is submitted once,
    /// in increasing id order (the runner's FIFO makes that the start
    /// order).  After a restore only the checkpoint's bookkeeping counts:
    /// a group the launcher believed finished but the server lost is
    /// resubmitted too (paper Section 4.2.3).
    fn server_up(&mut self, ended: Option<ServerCounters>, finished: Vec<u64>) {
        let restart = ended.is_some();
        if let Some(counters) = ended {
            self.absorb(counters);
        }
        (self.pending, self.server_seen) = (None, self.now);
        self.known_finished = finished.into_iter().collect();
        self.known_running.clear();
        let mut mine: Vec<u64> = (self.my_groups.iter().copied())
            .filter(|g| !self.known_finished.contains(g) && !self.abandoned.contains(g))
            .collect();
        mine.sort_unstable();
        for g in mine {
            if restart {
                let instance = self.next_instance(g);
                self.log(EventKind::GroupResubmitted { group: g, instance });
                self.relaunch(g, instance);
            } else {
                self.launch(g, 0);
            }
        }
        // A shard with no groups answers the convergence coordination
        // with a neutral signal, so the aggregate is not pinned at ∞.
        if !restart && self.my_groups.is_empty() {
            self.emit(Action::Publish(0.0, 0.0, 0));
        }
    }

    /// Every decision that follows from what is known at `now`, in a
    /// fixed order: the wall limit, the chaos script, server recovery,
    /// jobs, convergence, completion.
    fn decide(&mut self) {
        if self.pending.is_some() {
            return;
        }
        let wall_limit = self.config.wall_limit;
        if self.now >= instant_after(self.started, wall_limit) {
            let error = format!(
                "study exceeded wall limit {wall_limit:?}: {}",
                self.progress()
            );
            return self.end(Action::Fail(error));
        }
        let finished = self.known_finished.len();
        if let Some(m) = (self.migrations).pop_front_if(|m| finished >= m.after_finished_groups) {
            return self.fence_out(m);
        }
        // At most one kill per step: a transient kill crash-restores
        // before the next script entry, a permanent one ends the run.
        let kill = (self.kills).pop_front_if(|k| finished >= k.after_finished_groups);
        let crashed = kill.is_some();
        if let Some(k) = kill {
            let finished = finished as u64;
            if k.permanent {
                let to = k
                    .rehome_to
                    .expect("validated: permanent kills name a re-home target");
                let rehome_to = to as u32;
                self.log(EventKind::ShardDeathInjected {
                    finished,
                    rehome_to,
                });
                self.stop_all();
                self.pending = Some(Pending::Lineage(to));
                return self.emit(Action::ReadLineage);
            }
            self.log(EventKind::ServerKillInjected { finished });
            self.emit(Action::CrashServer);
        }
        if crashed || self.now >= instant_after(self.server_seen, self.server_timeout()) {
            // Running jobs die first: their sends would hang on dead
            // endpoints.
            self.report.server_restarts += 1;
            self.log(EventKind::ServerRestarted);
            self.stop_all();
            self.pending = Some(Pending::Restart);
            return self.emit(Action::RestartServer);
        }
        self.reconcile_jobs();
        self.check_convergence();
        if self.done() {
            self.owe_handoffs();
            self.report.groups_finished = finished;
            // An empty shard's neutral signal must not become ∞ (judged
            // on current ownership: a drained shard published its neutral
            // signal at the fence).
            if !self.my_groups.is_empty() {
                self.publish_signals();
            }
            self.end(Action::Finish(None));
        }
    }

    /// Settles jobs that completed, died or turned zombie — "running"
    /// past the bound, yet never heard of by the server.
    fn reconcile_jobs(&mut self) {
        let zombie_after = self.zombie_after();
        let mut groups: Vec<u64> = self.active.keys().copied().collect();
        groups.sort_unstable();
        let mut failures: Vec<(u64, EventKind)> = Vec::new();
        for g in groups {
            let Job(instance, started, outcome) = &self.active[&g];
            let (instance, started) = (*instance, *started);
            let failure = match outcome {
                Some(GroupOutcome::Completed { .. }) => {
                    if let Some(t) = started {
                        self.emit(Action::Record(Span::Turnaround, t));
                    }
                    self.stop_job(g);
                    continue;
                }
                Some(outcome) => {
                    let detail = format!("{outcome:?}");
                    EventKind::GroupDied {
                        group: g,
                        instance,
                        detail,
                    }
                }
                None if self.is_silent(g)
                    && started.is_some_and(|t| self.now >= instant_after(t, zombie_after)) =>
                {
                    EventKind::GroupZombie { group: g, instance }
                }
                None => continue,
            };
            failures.push((g, failure));
        }
        let failed: Vec<u64> = failures.iter().map(|&(g, _)| g).collect();
        for (_, event) in failures {
            self.log(event);
        }
        for g in failed {
            if self.known_finished.contains(&g) {
                self.stop_job(g);
            } else {
                self.group_failed(g);
            }
        }
    }

    /// The convergence loopback: stop early once every configured
    /// *aggregate* signal converged.  Whichever supervisor sees the
    /// crossing raises the shared flag; every shard then cancels its
    /// remaining groups.
    fn check_convergence(&mut self) {
        let (ci_target, qstep_target) = (
            self.config.target_ci_width,
            self.config.target_quantile_step,
        );
        if ci_target.is_none() && qstep_target.is_none() {
            return;
        }
        let (max_ci, max_qstep, finished) = self.signals;
        let ci_ok = ci_target.is_none_or(|t| max_ci.is_finite() && max_ci < t);
        let qstep_ok = qstep_target.is_none_or(|t| max_qstep.is_finite() && max_qstep < t);
        if ci_ok && qstep_ok && finished > 0 && !self.early_stop {
            self.early_stop = true;
            self.emit(Action::RaiseEarlyStop);
        }
        if self.early_stop && !self.report.early_stopped {
            self.report.early_stopped = true;
            let cancelled = self.active.len() as u64;
            self.log(EventKind::EarlyStop {
                max_ci,
                max_qstep,
                cancelled,
            });
            self.stop_all();
        }
    }

    /// Completion: every owned group settled *and* the chaos script
    /// played out (an unfired fence would leave its target waiting on its
    /// quota forever), or the study stopped early; with no job running.
    fn done(&self) -> bool {
        let script_done =
            self.migrations.is_empty() && self.kills.is_empty() && self.handoffs_awaited == 0;
        let owned_finished = self.known_finished.intersection(&self.my_groups).count();
        let settled = owned_finished + self.abandoned.len() >= self.my_groups.len();
        (self.report.early_stopped || (script_done && settled)) && self.active.is_empty()
    }

    /// The unfired rest of this slot's script still counts toward its
    /// targets' quotas: deliver those handoffs empty.
    fn owe_handoffs(&mut self) {
        let migrations = self.migrations.iter().map(|m| m.to);
        let rehomings = (self.kills.iter().filter(|k| k.permanent)).filter_map(|k| k.rehome_to);
        let owed: Vec<usize> = migrations.chain(rehomings).collect();
        for to in owed {
            self.emit(Action::HandOff(to, None, Vec::new()));
        }
    }

    /// An inbound handoff: floors first — the ban lift and discard floors
    /// must be in place before the replayed instance's first frame.
    fn adopt(&mut self, handoff: Handoff) {
        self.handoffs_awaited = self.handoffs_awaited.saturating_sub(1);
        if handoff.groups.is_empty() {
            return;
        }
        let (epoch, n_groups, from) = (handoff.epoch, handoff.groups.len() as u64, handoff.from);
        let from = from as u32;
        self.log(EventKind::GroupsAdopted {
            epoch,
            n_groups,
            from,
        });
        let floors = handoff.groups.iter().map(|mg| (mg.id, mg.floors.clone()));
        self.emit(Action::InstallFloors(floors.collect()));
        for mg in handoff.groups {
            self.my_groups.insert(mg.id);
            self.adopted_floors.insert(mg.id, mg.floors);
            self.relaunch(mg.id, mg.next_instance);
        }
        // Persist the adoption: a transient crash right after must restore
        // the adopted floors, not pre-fence state.
        self.emit(Action::Checkpoint);
        self.emit(Action::Record(Span::Adopt, self.now));
    }

    /// A migration: the owned, unfinished, not abandoned groups it names
    /// leave through the flush barrier, their senders stopped first so
    /// the barrier fences a *final* floor.
    fn fence_out(&mut self, m: Migration) {
        let pool: Vec<u64> = match m.moves {
            MigrationMoves::Groups(gs) => gs,
            MigrationMoves::AllUnfinished => self.my_groups.iter().copied().collect(),
        };
        let mut candidates: Vec<u64> = (pool.into_iter())
            .filter(|g| !self.known_finished.contains(g) && !self.abandoned.contains(g))
            .filter(|g| self.my_groups.contains(g))
            .collect();
        candidates.sort_unstable();
        for &g in &candidates {
            self.stop_job(g);
        }
        self.pending = Some(Pending::FenceOut(m.to, self.now));
        self.emit(Action::FenceOut(candidates));
    }

    /// The flush barriers' floors.  A group some worker already fully
    /// integrated is too late to move: it is re-adopted locally (lifting
    /// the ban) and resubmitted unless every worker finished it.
    fn fenced_out(&mut self, fenced: Vec<(u64, Vec<i64>)>) {
        let Some(Pending::FenceOut(to, started)) = self.pending.take() else {
            return;
        };
        let (last_ts, shard) = (self.config.solver.n_timesteps as i64 - 1, self.shard as u32);
        let mut moved = Vec::new();
        for (id, floors) in fenced {
            let next_instance = self.next_instance(id);
            if floors.iter().any(|&f| f >= last_ts) {
                let finished = floors.iter().all(|&f| f >= last_ts);
                self.emit(Action::InstallFloors(vec![(id, floors)]));
                self.log(EventKind::FinishedDuringFence { group: id, shard });
                if !finished {
                    self.relaunch(id, next_instance);
                }
            } else {
                self.my_groups.remove(&id);
                self.known_running.remove(&id);
                moved.push(MigratedGroup {
                    id,
                    floors,
                    next_instance,
                });
            }
        }
        self.fence(to, moved, started, None);
    }

    /// Re-routes `groups` to slot `to`; [`Event::Fenced`] resumes at
    /// [`Self::fenced`].
    fn fence(
        &mut self,
        to: usize,
        groups: Vec<MigratedGroup>,
        at: Instant,
        lineage: Option<Vec<WorkerState>>,
    ) {
        self.emit(Action::Fence(groups.iter().map(|mg| mg.id).collect(), to));
        self.pending = Some(Pending::Fence(to, groups, at, lineage));
    }

    fn fenced(&mut self, epoch: u64) {
        let Some(Pending::Fence(to, groups, started, lineage)) = self.pending.take() else {
            return;
        };
        let (n_groups, from, to32) = (groups.len() as u64, self.shard as u32, to as u32);
        self.report.groups_migrated += n_groups;
        let Some(lineage) = lineage else {
            self.emit(Action::Record(Span::Drain, started));
            self.log(EventKind::MigrationFence {
                epoch,
                n_groups,
                from,
                to: to32,
            });
            // Persist the post-fence floors before anything else can fail:
            // a transient restore must never resurrect a migrated group's
            // pre-fence state.
            self.emit(Action::Checkpoint);
            self.emit(Action::HandOff(to, Some(epoch), groups));
            if self.my_groups.is_empty() {
                // Drained by scale-in: a neutral signal.
                self.emit(Action::Publish(0.0, 0.0, self.known_finished.len()));
            }
            return;
        };
        self.report.shards_rehomed = 1;
        self.log(EventKind::ShardRehomed {
            epoch,
            n_groups,
            from,
            to: to32,
        });
        self.emit(Action::HandOff(to, Some(epoch), groups));
        let owned = self.my_groups.iter();
        let finished = owned.filter(|&&g| finished_everywhere(&lineage, g)).count();
        self.report.groups_finished = finished;
        // A dead slot must not pin the aggregate at a stale value.
        self.emit(Action::Publish(0.0, 0.0, finished));
        self.owe_handoffs();
        self.end(Action::Finish(Some(lineage)));
    }

    /// The permanent-death exit: the dead server's last checkpoint *is*
    /// its statistics lineage, and every group it has not finished on
    /// every worker re-homes, with per-worker floors (the checkpointed
    /// floor, raised to any floor this slot adopted).
    fn rehome(&mut self, lineage: Vec<WorkerState>, unreadable: Vec<(u32, String)>) {
        let Some(Pending::Lineage(to)) = self.pending.take() else {
            return;
        };
        for (worker, detail) in unreadable {
            self.log(EventKind::CheckpointUnreadable { worker, detail });
        }
        let mut moved: Vec<u64> = (self.my_groups.iter().copied())
            .filter(|&g| !self.abandoned.contains(&g) && !finished_everywhere(&lineage, g))
            .collect();
        moved.sort_unstable();
        let floor = |g: u64, w: usize, st: &WorkerState| {
            let adopted = self.adopted_floors.get(&g).map_or(-1, |f| f[w]);
            st.completed_floor(g).max(adopted)
        };
        let groups = (moved.iter())
            .map(|&id| {
                let floors = lineage.iter().enumerate().map(|(w, st)| floor(id, w, st));
                let next_instance = self.next_instance(id);
                MigratedGroup {
                    id,
                    floors: floors.collect(),
                    next_instance,
                }
            })
            .collect();
        self.fence(to, groups, self.now, Some(lineage));
    }
}

/// Whether every worker of `lineage` finished group `g` (only those stay
/// with a dead shard; the rest replay their tail on the target).
fn finished_everywhere(lineage: &[WorkerState], g: u64) -> bool {
    lineage.iter().all(|s| s.finished_groups().contains(&g))
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;
    use proptest::TestCaseError;

    use super::*;

    /// A state over groups `0..n` whose first server came up at `base`,
    /// its load monitor fed `late` heartbeat gaps of twice the period.
    fn started(
        config: &StudyConfig,
        faults: &FaultPlan,
        n: u64,
        late: usize,
    ) -> (SupervisorState, Instant) {
        let base = Instant::now();
        let groups: Vec<u64> = (0..n).collect();
        let mut s = SupervisorState::new(config, faults, 0, &groups, base, base);
        for _ in 0..late {
            s.load.observe(REPORT_INTERVAL, REPORT_INTERVAL * 2);
        }
        let submitted = s.step(Event::ServerUp(None, Vec::new()), base);
        assert_eq!(submitted.len(), n as usize, "one submission per group");
        (s, base)
    }

    fn journal(actions: &[Action]) -> Vec<&EventKind> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Journal(e) => Some(&e.kind),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_silent_started_job_turns_zombie_exactly_at_its_bound() {
        let config = StudyConfig::tiny();
        for late in [0, 8] {
            let (mut s, base) = started(&config, &FaultPlan::none(), 2, late);
            let factor = s.load.factor();
            assert_eq!(factor > 1.0, late > 0, "load factor {factor}");
            let at = base + Duration::from_millis(200);
            assert!(s.step(Event::JobStarted(1, 0, at), at).is_empty());
            let bound = at + (config.group_timeout * 2).mul_f64(factor);
            assert_eq!(s.next_deadline(), bound, "factor {factor}");

            let early = s.step(Event::Deadline, bound - Duration::from_nanos(1));
            assert!(early.is_empty(), "factor {factor}: acted before the bound");
            let actions = s.step(Event::Deadline, bound);
            assert_eq!(
                journal(&actions),
                [
                    &EventKind::GroupZombie {
                        group: 1,
                        instance: 0
                    },
                    &EventKind::GroupRestarted {
                        group: 1,
                        instance: 1
                    },
                ],
                "factor {factor}"
            );
            assert!(actions.iter().any(|a| matches!(a, Action::Stop(1))));
            assert!(actions.iter().any(|a| matches!(a, Action::Submit(1, 1))));
        }
    }

    #[test]
    fn a_silent_server_restarts_at_its_timeout() {
        let config = StudyConfig::tiny();
        for late in [0, 8] {
            let (mut s, base) = started(&config, &FaultPlan::none(), 3, late);
            let factor = s.load.factor();
            let seen = base + Duration::from_secs(1);
            let ready = Event::Frame(Message::ServerReady, false);
            assert!(s.step(ready, seen).is_empty());
            let expiry = seen + config.server_timeout.mul_f64(factor);
            assert_eq!(s.next_deadline(), expiry, "factor {factor}");

            assert!(s
                .step(Event::Deadline, expiry - Duration::from_nanos(1))
                .is_empty());
            let actions = s.step(Event::Deadline, expiry);
            assert_eq!(journal(&actions), [&EventKind::ServerRestarted]);
            assert!(matches!(
                actions[1..],
                [Action::StopAll, Action::RestartServer]
            ));
            // Nothing is decided until the restored server is up; then
            // every unfinished group is resubmitted as its next instance.
            assert!(s.step(Event::Deadline, expiry).is_empty());
            let up = Event::ServerUp(Some(ServerCounters::default()), vec![1]);
            let resubmitted: Vec<(u64, u32)> = s
                .step(up, expiry)
                .into_iter()
                .filter_map(|a| match a {
                    Action::Submit(group, instance) => Some((group, instance)),
                    _ => None,
                })
                .collect();
            assert_eq!(resubmitted, [(0, 1), (2, 1)], "factor {factor}");
            assert_eq!(s.report.server_restarts, 1);
            assert_eq!(
                s.next_deadline(),
                expiry + config.server_timeout.mul_f64(factor)
            );
        }
    }

    #[test]
    fn the_wall_limit_ends_the_study_with_its_error() {
        let mut config = StudyConfig::tiny();
        config.wall_limit = Duration::from_secs(2);
        for late in [0, 8] {
            let (mut s, base) = started(&config, &FaultPlan::none(), 2, late);
            let limit = base + config.wall_limit;
            // The wall limit is not stretched by load.
            assert_eq!(s.next_deadline(), limit, "late {late}");
            assert!(s
                .step(Event::Deadline, limit - Duration::from_nanos(1))
                .is_empty());
            let actions = s.step(Event::Deadline, limit);
            match &actions[..] {
                [Action::Fail(e)] => assert_eq!(e, "study exceeded wall limit 2s: finished 0/2"),
                _ => panic!("late {late}: the wall limit did not end the study"),
            }
        }
    }

    /// Plays a state against a model of what it was told, answering its
    /// blocking actions, and checks every action against the invariants.
    struct Harness {
        s: SupervisorState,
        now: Instant,
        n: u64,
        launched: HashSet<(u64, u32)>,
        active: HashMap<u64, u32>,
        /// What the server holds finished, and what the state was told.
        reported: Vec<u64>,
        known: HashSet<u64>,
        abandoned: HashSet<u64>,
        outcomes: Vec<(u64, u32)>,
        over: Option<bool>,
    }

    impl Harness {
        fn step(&mut self, event: Event) -> Result<(), TestCaseError> {
            let mut next = Some(event);
            while let Some(event) = next.take() {
                prop_assert!(self.over.is_none(), "stepped after the end");
                let (known, abandoned) = (self.known.clone(), self.abandoned.clone());
                let (mut failed, mut answered) = (Vec::new(), HashSet::new());
                for action in self.s.step(event, self.now) {
                    match action {
                        Action::Submit(group, instance) => {
                            prop_assert!(
                                self.launched.insert((group, instance)),
                                "({group}, {instance}) launched twice"
                            );
                            prop_assert!(!self.known.contains(&group), "{group} is finished");
                            prop_assert!(!self.abandoned.contains(&group), "{group} abandoned");
                            self.active.insert(group, instance);
                        }
                        Action::Stop(g) => {
                            prop_assert!(self.active.remove(&g).is_some(), "{g} not running");
                        }
                        Action::StopAll => self.active.clear(),
                        Action::RestartServer => {
                            self.known = self.reported.iter().copied().collect();
                            let counters = Some(ServerCounters::default());
                            next = Some(Event::ServerUp(counters, self.reported.clone()));
                        }
                        Action::Journal(e) => match e.kind {
                            EventKind::GroupDied { group, .. }
                            | EventKind::GroupZombie { group, .. }
                            | EventKind::GroupTimeout { group } => failed.push(group),
                            EventKind::GroupRestarted { group, instance } => {
                                prop_assert!(instance <= MAX_GROUP_RETRIES);
                                answered.insert(group);
                            }
                            EventKind::GroupAbandoned { group, retries } => {
                                answered.insert(group);
                                prop_assert_eq!(retries, MAX_GROUP_RETRIES);
                                let last = self.launched.iter().filter(|j| j.0 == group);
                                let last = last.map(|j| j.1).max();
                                prop_assert!(last >= Some(MAX_GROUP_RETRIES), "{group}");
                                self.abandoned.insert(group);
                            }
                            _ => {}
                        },
                        Action::Finish(_) => {
                            prop_assert!(self.active.is_empty(), "finished with jobs");
                            let settled =
                                |g| self.known.contains(&g) || self.abandoned.contains(&g);
                            prop_assert!((0..self.n).all(settled), "finished early");
                            self.over = Some(true);
                        }
                        Action::Fail(e) => {
                            prop_assert!(e.contains("wall limit"), "{e}");
                            self.over = Some(false);
                        }
                        _ => {}
                    }
                }
                // A failure of an unfinished group is retried or, past the
                // cap, abandoned in the same step.
                for g in failed {
                    if !known.contains(&g) && !abandoned.contains(&g) {
                        prop_assert!(answered.contains(&g), "{g} failed, unanswered");
                    }
                }
            }
            Ok(())
        }

        fn report(&mut self, running: Vec<u64>) -> Result<(), TestCaseError> {
            self.known.extend(&self.reported);
            let message = Message::ServerReport {
                finished_groups: self.reported.clone(),
                running_groups: running,
                max_ci_width: f64::INFINITY,
                max_quantile_step: 0.0,
                quantile_steps: Vec::new(),
                blocked_sends: 0,
                blocked_nanos: 0,
                frames_rejected: 0,
            };
            self.step(Event::Frame(message, false))
        }

        fn ended(
            &mut self,
            group: u64,
            instance: u32,
            completed: bool,
        ) -> Result<(), TestCaseError> {
            self.outcomes.push((group, instance));
            let outcome = if completed {
                GroupOutcome::Completed {
                    messages: 0,
                    bytes: 0,
                }
            } else {
                GroupOutcome::Died {
                    after_timestep: None,
                }
            };
            self.step(Event::JobEnded(group, instance, outcome))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Job ends in any order, duplicate and late ends, reports adding
        /// finished groups, group timeouts, silent jobs and servers, and
        /// scripted server crashes: no job runs twice, nothing known
        /// finished is relaunched, a failed group is retried at once until
        /// the cap and then abandoned, and the run ends only once the
        /// shard is done — which it reaches as soon as every group is
        /// reported finished.
        #[test]
        fn supervisor_decisions_hold_their_invariants(
            n in 1u64..5,
            kill_after in 0usize..8,
            ops in prop::collection::vec((0u8..8, 0u64..5, 0u32..4000), 1..48),
        ) {
            let faults = match kill_after {
                k if k <= n as usize => FaultPlan::none().with_server_kill_after(k),
                _ => FaultPlan::none(),
            };
            let base = Instant::now();
            let groups: Vec<u64> = (0..n).collect();
            let config = StudyConfig::tiny();
            let mut h = Harness {
                s: SupervisorState::new(&config, &faults, 0, &groups, base, base),
                now: base,
                n,
                launched: HashSet::new(),
                active: HashMap::new(),
                reported: Vec::new(),
                known: HashSet::new(),
                abandoned: HashSet::new(),
                outcomes: Vec::new(),
                over: None,
            };
            h.step(Event::ServerUp(None, Vec::new()))?;
            for (op, g, x) in ops {
                if h.over.is_some() {
                    break;
                }
                let g = g % n;
                let instance = h.active.get(&g).copied();
                match op {
                    0 | 1 => {
                        // The running instance's end, or a stale one's.
                        let instance = instance.filter(|_| !x.is_multiple_of(3)).unwrap_or(x % 5);
                        h.ended(g, instance, op == 0)?;
                    }
                    2 => {
                        if !h.reported.contains(&g) {
                            h.reported.push(g);
                        }
                        let running = h.active.keys().copied().filter(|r| (r + x as u64).is_multiple_of(2));
                        h.report(running.collect())?;
                    }
                    3 => h.step(Event::Frame(Message::GroupTimeout { group_id: g }, false))?,
                    4 => if let Some(instance) = instance {
                        h.step(Event::JobStarted(g, instance, h.now))?;
                    },
                    5 => {
                        h.now += Duration::from_millis(x as u64);
                        h.step(Event::Deadline)?;
                    }
                    6 => h.step(Event::Frame(Message::Heartbeat { sender: 0 }, x.is_multiple_of(2)))?,
                    _ => if let Some(&(group, instance)) = h.outcomes.get(x as usize % h.outcomes.len().max(1)) {
                        h.ended(group, instance, x.is_multiple_of(2))?;
                    },
                }
            }
            if h.over.is_none() {
                // Every group finishes and every job completes: done.
                h.reported = groups.clone();
                h.report(Vec::new())?;
                let running: Vec<(u64, u32)> = h.active.iter().map(|(&g, &i)| (g, i)).collect();
                for (group, instance) in running {
                    h.ended(group, instance, true)?;
                }
                prop_assert_eq!(h.over, Some(true));
            }
        }
    }
}
