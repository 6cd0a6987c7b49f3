//! The shard supervisor's decisions, without I/O (paper Section 4.2).
//!
//! [`SupervisorState`] is what one shard supervisor knows — owned,
//! running, finished and abandoned groups, retries, the scripted server
//! kills, the report and its journal — and
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
use crate::fault::FaultPlan;
use crate::group::GroupOutcome;
use crate::launcher::{MAX_GROUP_RETRIES, REPORT_INTERVAL};
use crate::protocol::Message;
use crate::report::StudyReport;
use crate::server::ServerCounters;

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
    /// The cross-shard `(CI width, quantile step, finished groups)` and
    /// the early-stop flag.
    Signals((f64, f64, usize), bool),
    /// A server is ready — the first (`None`), or one restored from its
    /// checkpoint with the dead one's counters — what it holds finished,
    /// and the workers whose checkpoint it could not read, with why.
    ServerUp(Option<ServerCounters>, Vec<u64>, Vec<(usize, String)>),
}

/// A histogram the supervisor feeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Span {
    Turnaround,
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
    /// Publish this shard's `(CI width, quantile step, finished groups)`.
    Publish(f64, f64, usize),
    /// Raise the study's early-stop flag and wake every peer.
    RaiseEarlyStop,
    /// Record the time since an instant.
    Record(Span, Instant),
    /// Mirror a journal event into the live telemetry ring.
    Journal(StudyEvent),
    /// End the run: the live server's states are the shard's statistics.
    Finish,
    Fail(String),
}

/// A tracked job: its instance, start stamp (a job queued on a busy pool
/// never looks like a zombie) and outcome.
struct Job(u32, Option<Instant>, Option<GroupOutcome>);

/// What the state waits for.
enum Pending {
    Restart,
    /// `Finish` or `Fail` was emitted.
    Over,
}

/// The decision core of one shard supervisor.
pub(crate) struct SupervisorState {
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
    /// The groups the router gave this shard.
    my_groups: HashSet<u64>,
    known_finished: HashSet<u64>,
    known_running: HashSet<u64>,
    /// The scripted server kills' trigger points, a sorted queue
    /// consumed as each fires.
    kills: VecDeque<usize>,
}

impl SupervisorState {
    /// Shard `shard`, owning `groups`, its server started at `now`;
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
        // Stamped on the shared study clock and tagged with this shard, so
        // per-shard journals merge on one axis.
        report.origin = started;
        report.shard = shard as u32;
        report.final_max_quantile_step = f64::INFINITY;
        report.quantile_probs = config.quantile_probs.clone();
        Self {
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
            Event::Signals(signals, early_stop) => {
                self.signals = signals;
                self.early_stop |= early_stop;
            }
            Event::ServerUp(ended, finished, unreadable) => {
                self.server_up(ended, finished, unreadable)
            }
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
    /// resubmitted too (paper Section 4.2.3), and so is every group a
    /// worker with an unreadable checkpoint lost.
    fn server_up(
        &mut self,
        ended: Option<ServerCounters>,
        finished: Vec<u64>,
        unreadable: Vec<(usize, String)>,
    ) {
        let restart = ended.is_some();
        if let Some(counters) = ended {
            self.absorb(counters);
        }
        for (worker, detail) in unreadable {
            let worker = worker as u32;
            self.log(EventKind::CheckpointUnreadable { worker, detail });
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
    /// fixed order: the wall limit, the kill script, server recovery,
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
        // At most one kill per step: it crash-restores before the next
        // script entry.
        let crashed = (self.kills).pop_front_if(|k| finished >= *k).is_some();
        if crashed {
            let finished = finished as u64;
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
            self.report.groups_finished = finished;
            // An empty shard's neutral signal must not become ∞.
            if !self.my_groups.is_empty() {
                self.publish_signals();
            }
            self.end(Action::Finish);
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

    /// Completion: every owned group settled, or the study stopped
    /// early; with no job running.  A scripted kill still pending here
    /// can never fire: one whose trigger is reached fires first, in
    /// [`decide`](Self::decide), and once every group is finished or
    /// abandoned the finished count cannot grow to meet the others.
    fn done(&self) -> bool {
        let owned_finished = self.known_finished.intersection(&self.my_groups).count();
        let settled = owned_finished + self.abandoned.len() >= self.my_groups.len();
        (self.report.early_stopped || settled) && self.active.is_empty()
    }
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
        let submitted = s.step(Event::ServerUp(None, Vec::new(), Vec::new()), base);
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
            let up = Event::ServerUp(Some(ServerCounters::default()), vec![1], Vec::new());
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

    /// A kill scripted after the shard's third group can never fire once
    /// one of its three groups is abandoned: the shard ends as soon as
    /// the other two finish, not at the wall limit.
    #[test]
    fn a_kill_that_abandoned_groups_made_unreachable_is_not_waited_for() {
        let config = StudyConfig::tiny();
        let faults = FaultPlan::none().with_server_kill_after(3);
        let (mut s, base) = started(&config, &faults, 3, 0);
        let report = Message::ServerReport {
            finished_groups: vec![0, 1],
            running_groups: Vec::new(),
            max_ci_width: f64::INFINITY,
            max_quantile_step: 0.0,
            quantile_steps: Vec::new(),
            blocked_sends: 0,
            blocked_nanos: 0,
            frames_rejected: 0,
        };
        let at = |ms| base + Duration::from_millis(ms);
        assert!(s.step(Event::Frame(report, false), at(10)).len() == 1);
        let completed = || GroupOutcome::Completed {
            messages: 1,
            bytes: 1,
        };
        for g in [0, 1] {
            s.step(Event::JobEnded(g, 0, completed()), at(20));
        }
        // Group 2 dies as every instance it is allowed.
        let died = || GroupOutcome::Died {
            after_timestep: None,
        };
        for instance in 0..MAX_GROUP_RETRIES {
            let actions = s.step(Event::JobEnded(2, instance, died()), at(30));
            assert!(actions.iter().any(|a| matches!(a, Action::Submit(2, _))));
        }
        let last = s.step(Event::JobEnded(2, MAX_GROUP_RETRIES, died()), at(40));
        assert!(journal(&last).contains(&&EventKind::GroupAbandoned {
            group: 2,
            retries: MAX_GROUP_RETRIES
        }));
        assert!(
            matches!(last.last(), Some(Action::Finish)),
            "the shard waits for a kill that cannot fire"
        );
        assert!(!journal(&last).contains(&&EventKind::ServerKillInjected { finished: 2 }));
    }

    /// A restarted server's unreadable checkpoints are journaled, one
    /// event per worker, before its groups are resubmitted.
    #[test]
    fn a_restored_servers_unreadable_checkpoints_are_journaled() {
        let config = StudyConfig::tiny();
        let faults = FaultPlan::none().with_server_kill_after(1);
        let (mut s, base) = started(&config, &faults, 2, 0);
        let report = Message::ServerReport {
            finished_groups: vec![0],
            running_groups: vec![1],
            max_ci_width: f64::INFINITY,
            max_quantile_step: 0.0,
            quantile_steps: Vec::new(),
            blocked_sends: 0,
            blocked_nanos: 0,
            frames_rejected: 0,
        };
        let crash = s.step(Event::Frame(report, false), base);
        assert!(matches!(crash.last(), Some(Action::RestartServer)));
        let unreadable = vec![(1, "checkpoint truncated".to_string())];
        let up = Event::ServerUp(Some(ServerCounters::default()), Vec::new(), unreadable);
        let actions = s.step(up, base);
        assert_eq!(
            journal(&actions),
            [
                &EventKind::CheckpointUnreadable {
                    worker: 1,
                    detail: "checkpoint truncated".into()
                },
                &EventKind::GroupResubmitted {
                    group: 0,
                    instance: 1
                },
                &EventKind::GroupResubmitted {
                    group: 1,
                    instance: 1
                },
            ]
        );
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
                            let reported = self.reported.clone();
                            next = Some(Event::ServerUp(counters, reported, Vec::new()));
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
                        Action::Finish => {
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
            h.step(Event::ServerUp(None, Vec::new(), Vec::new()))?;
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
