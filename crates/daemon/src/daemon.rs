//! The multi-tenant study daemon: a persistent service hosting many
//! concurrent studies over one shared node pool.
//!
//! [`Daemon::start`] binds two endpoints on the caller's transport:
//!
//! * [`names::daemon_ctl`] — the control plane.  Clients submit
//!   serialized [`StudyConfig`]s with a tenant id and priority and drive
//!   the study lifecycle (`status`, `cancel`, `results`) through
//!   [`crate::protocol`] request/reply frames.
//! * [`names::daemon_telemetry`] — the daemon-level aggregate snapshot
//!   ([`crate::snapshot::DaemonSnapshot`]), served over the standard
//!   scrape protocol.
//!
//! Each admitted study runs under the unchanged launcher supervision
//! machinery inside its own endpoint scope (`study<id>/…`, so routing,
//! checkpoints, telemetry and migration stay isolated per study) and
//! dispatches its groups through a per-study
//! [`StreamHandle`](melissa_scheduler::StreamHandle) into the
//! shared deficit-round-robin [`FairRunner`] pool.  The stream cap
//! equals the study's `max_concurrent_groups`, so a daemon-hosted study
//! starts its groups in exactly the order and with exactly the
//! concurrency the standalone launcher would — which is why a
//! daemon-submitted study is bit-identical to the same-seed standalone
//! run even with other tenants' studies interleaved on the pool.
//!
//!
//! The control loop is event-driven: it blocks on the control inbox and
//! nothing else.  Clients post requests there; a hosted study's thread
//! posts `StudyEnded` as its last act; a forwarder thread re-posts
//! whatever arrives on the telemetry endpoint; [`Daemon::stop`] posts
//! `Shutdown`.  Every frame is handled to completion — a study's end
//! reaps its thread, releases its admission reservation, *then* answers
//! the clients waiting on it, then promotes the queue — so a client that
//! learns a study is done can rely on its quota being back.
//!
//! [`names::daemon_ctl`]: melissa_transport::directory::names::daemon_ctl
//! [`names::daemon_telemetry`]: melissa_transport::directory::names::daemon_telemetry

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::BufMut;
use melissa::server::checkpoint::write_state;
use melissa::server::state::WorkerState;
use melissa::{Study, StudyConfig, StudyRuntime};
use melissa_scheduler::FairRunner;
use melissa_sync::Mutex;
use melissa_telemetry::ScrapeRequest;
use melissa_transport::codec::{Bytes, BytesMut, Wire};
use melissa_transport::directory::names;
use melissa_transport::{BoxReceiver, BoxSender, KillSwitch, Transport};

use crate::admission::{AdmissionController, TenantQuota};
use crate::protocol::{ControlFrame, DaemonOp, DaemonReply, DaemonRequest, StudyState};
use crate::snapshot::{CtlWakeups, DaemonSnapshot, StudySnapshot, TenantSnapshot};

/// Deployment knobs for a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Node units in the shared fair-scheduler pool (concurrent group
    /// jobs across every hosted study).
    pub pool_units: usize,
    /// Studies supervised concurrently; admitted studies beyond this
    /// wait in the bounded queue.
    pub max_active_studies: usize,
    /// Wait-queue bound — a submission arriving with no active slot and
    /// a full queue is rejected (`"queue"`), never blocked.
    pub queue_cap: usize,
    /// Quota for tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, TenantQuota)>,
    /// Per-tenant fair-share weights (default 1).
    pub weights: Vec<(String, u64)>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            pool_units: 8,
            max_active_studies: 4,
            queue_cap: 16,
            default_quota: TenantQuota::default(),
            quotas: Vec::new(),
            weights: Vec::new(),
        }
    }
}

/// A finished study's stored outcome: the shape of its statistics and
/// where they are on disk, never the statistics themselves.
struct Finished {
    p: u64,
    n_timesteps: u64,
    n_cells: u64,
    groups_finished: u64,
    /// One results file per server worker, in worker order.
    results: Vec<PathBuf>,
    error: Option<String>,
}

impl Finished {
    fn failed(error: String) -> Self {
        Self {
            p: 0,
            n_timesteps: 0,
            n_cells: 0,
            groups_finished: 0,
            results: Vec::new(),
            error: Some(error),
        }
    }
}

/// File name of worker `w`'s final statistics in a study's results
/// directory — beside, never over, its `melissa_worker_<w>.ckpt`.
fn results_file(dir: &Path, worker_id: usize) -> PathBuf {
    dir.join(format!("melissa_results_{worker_id}.v4"))
}

/// Writes each reduced worker state of a finished study once, in the v4
/// layout the `Results` reply carries, and returns the paths.  Each state
/// is streamed into its file ([`write_state`]): no packed image of it is
/// ever in memory, only a staging buffer the size of one timestep's
/// largest array.  No fsync: only this process reads the files back,
/// through a record that dies with it.
fn write_results(dir: &Path, workers: &[WorkerState]) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("creating results directory {}: {e}", dir.display()))?;
    workers
        .iter()
        .map(|state| {
            let path = results_file(dir, state.worker_id());
            std::fs::File::create(&path)
                .and_then(|mut file| write_state(state, &mut file))
                .map_err(|e| format!("writing results file {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// The frame of `reply` — a `Results` reply with no workers yet — with
/// the files at `paths` as its workers, allocated once at its exact size
/// and each file read straight into it.  The declared reply ends in its
/// workers' `u64` count; the frame is the bytes ahead of that count, the
/// real count, then per file its length and its bytes: the `Vec<Bytes>`
/// layout of the `workers` field.
fn results_frame(reply: &DaemonReply, paths: &[PathBuf]) -> Result<Bytes, String> {
    let reading =
        |path: &Path, e: std::io::Error| format!("reading results file {}: {e}", path.display());
    let files = paths
        .iter()
        .map(|path| {
            let file = std::fs::File::open(path).map_err(|e| reading(path, e))?;
            let len = file.metadata().map_err(|e| reading(path, e))?.len() as usize;
            Ok((path, file, len))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let count = files.len();
    let head = reply.to_frame();
    let head = &head[..head.len() - count.wire_len()];
    let images: usize = files.iter().map(|(.., len)| len.wire_len() + len).sum();
    let total = head.len() + count.wire_len() + images;
    let mut frame = BytesMut::with_capacity(total);
    frame.put_slice(head);
    count.put(&mut frame);
    for (path, mut file, len) in files {
        len.put(&mut frame);
        let at = frame.len();
        frame.resize(at + len, 0);
        file.read_exact(&mut frame[at..])
            .map_err(|e| reading(path, e))?;
    }
    debug_assert_eq!(frame.len(), total);
    Ok(frame.freeze())
}

/// One hosted study's shared record.
struct StudyRecord {
    id: u64,
    tenant: String,
    priority: u8,
    n_groups: usize,
    units: usize,
    state: Mutex<StudyState>,
    cancel: KillSwitch,
    /// Taken by the supervisor thread at promotion.
    config: Mutex<Option<StudyConfig>>,
    finished: Mutex<Option<Finished>>,
}

impl StudyRecord {
    fn state(&self) -> StudyState {
        *self.state.lock()
    }
}

/// A running daemon instance.  Dropping (or [`stop`](Daemon::stop)ping)
/// cancels every hosted study and joins the control loop;
/// [`join`](Daemon::join) waits for a client's `shutdown` RPC instead.
///
/// The daemon's memory is bounded by the studies it is running: a study
/// writes its final statistics to results files in its own scope
/// directory, `<checkpoint_dir>/study<id>/`, before it is reported
/// `Done`, and its endpoints are released when it ends.  What stays per
/// finished study is a small record — state, tenant, shape, the paths —
/// for `status` and `results`.
pub struct Daemon {
    transport: Arc<dyn Transport>,
    ctl: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon on `transport`: binds the control and telemetry
    /// endpoints (both are up when this returns) and spawns the control
    /// loop.
    pub fn start(transport: Arc<dyn Transport>, config: DaemonConfig) -> Self {
        let ctl_rx = transport.bind(&names::daemon_ctl(), 64);
        let tele_rx = transport.bind(&names::daemon_telemetry(), 64);
        let loop_transport = Arc::clone(&transport);
        let ctl = std::thread::Builder::new()
            .name("melissad-ctl".into())
            .spawn(move || control_loop(loop_transport, config, ctl_rx, tele_rx))
            .expect("spawn daemon control loop");
        Self {
            transport,
            ctl: Some(ctl),
        }
    }

    /// Cancels every hosted study and joins the control loop.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks until the control loop exits — once a client's `shutdown`
    /// RPC has been served and every hosted study has ended.
    pub fn join(mut self) {
        if let Some(ctl) = self.ctl.take() {
            let _ = ctl.join();
        }
    }

    fn shutdown(&mut self) {
        let Some(ctl) = self.ctl.take() else {
            return;
        };
        // Nothing bound means the loop has exited already (a client's
        // `shutdown` RPC got there first).
        if let Ok(tx) = self.transport.connect(&names::daemon_ctl()) {
            let request = DaemonRequest {
                reply_to: String::new(),
                op: DaemonOp::Shutdown,
            };
            let _ = tx.send(request.to_frame());
        }
        let _ = ctl.join();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything the control loop owns.
struct DaemonState {
    transport: Arc<dyn Transport>,
    config: DaemonConfig,
    fair: FairRunner,
    admission: AdmissionController,
    registry: HashMap<u64, Arc<StudyRecord>>,
    queue: VecDeque<u64>,
    running: HashMap<u64, JoinHandle<()>>,
    /// Reply endpoints of `Wait` requests on studies that have not ended
    /// yet, answered when they do.
    waiters: HashMap<u64, Vec<String>>,
    /// The loop's own inbox, for study threads to post `StudyEnded` on.
    ctl_tx: BoxSender,
    wakeups: CtlWakeups,
    next_id: u64,
    started_at: Instant,
    shutting_down: bool,
}

fn control_loop(
    transport: Arc<dyn Transport>,
    config: DaemonConfig,
    ctl_rx: BoxReceiver,
    tele_rx: BoxReceiver,
) {
    let ctl_tx = transport
        .connect(&names::daemon_ctl())
        .expect("bound by Daemon::start");

    // `Receiver` has no select: a forwarder blocks on the telemetry
    // endpoint and re-posts what arrives onto the control inbox, so a
    // scrape is answered when it arrives and the loop below has one
    // thing to wait for.
    let forwarding_over = KillSwitch::new();
    let forwarder = {
        let (over, ctl_tx) = (forwarding_over.clone(), ctl_tx.clone());
        std::thread::Builder::new()
            .name("melissad-tele".into())
            .spawn(move || {
                while let Ok(frame) = tele_rx.recv() {
                    if over.is_killed() || ctl_tx.send(ControlFrame::scrape(&frame)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn daemon telemetry forwarder")
    };

    let fair = FairRunner::new(config.pool_units);
    for (tenant, weight) in &config.weights {
        fair.set_weight(tenant, *weight);
    }
    let mut admission = AdmissionController::new(config.queue_cap, config.default_quota);
    for (tenant, quota) in &config.quotas {
        admission.set_quota(tenant, *quota);
    }

    let mut st = DaemonState {
        transport: Arc::clone(&transport),
        config,
        fair,
        admission,
        registry: HashMap::new(),
        queue: VecDeque::new(),
        running: HashMap::new(),
        waiters: HashMap::new(),
        ctl_tx,
        wakeups: CtlWakeups::default(),
        next_id: 1,
        started_at: Instant::now(),
        shutting_down: false,
    };

    while let Ok(frame) = ctl_rx.recv() {
        st.handle_frame(&frame);
        if st.shutting_down && st.running.is_empty() {
            break;
        }
    }

    // Unblock the forwarder with one last frame (it forwards nothing once
    // the switch is flipped), then take both endpoints down.
    forwarding_over.kill();
    if let Ok(tx) = transport.connect(&names::daemon_telemetry()) {
        let _ = tx.send(bytes::Bytes::new());
    }
    let _ = forwarder.join();
    transport.unbind(&names::daemon_ctl());
    transport.unbind(&names::daemon_telemetry());
}

impl DaemonState {
    /// Handles one frame off the control inbox, to completion.
    fn handle_frame(&mut self, frame: &[u8]) {
        match ControlFrame::decode(frame) {
            Ok(ControlFrame::Request(req)) => {
                self.wakeups.request += 1;
                if let Some(reply) = self.handle_request(&req) {
                    self.send_reply(&req.reply_to, reply);
                }
            }
            Ok(ControlFrame::StudyEnded { study }) => {
                self.wakeups.study_ended += 1;
                self.handle_study_ended(study);
            }
            Ok(ControlFrame::Scrape(request)) => {
                self.wakeups.scrape += 1;
                self.handle_scrape_frame(&request);
            }
            Err(_) => return, // not a control frame; drop it
        }
        // A submission queued a study, or an end or a cancellation freed
        // a slot.
        self.promote_queued();
    }

    /// The reply frame to send now, or `None` for a `Wait` that has to
    /// wait.
    fn handle_request(&mut self, req: &DaemonRequest) -> Option<Bytes> {
        let reply = match &req.op {
            DaemonOp::Submit {
                tenant,
                priority,
                config,
            } => self.handle_submit(tenant, *priority, config),
            DaemonOp::Status { study } => self.status_reply(*study),
            DaemonOp::Wait { study } => {
                // "Ended" is more than a terminal state: the study's
                // thread publishes that just before it exits, and only
                // the `StudyEnded` handler returns its reservation.
                let ended = self.registry.get(study).is_none_or(|rec| {
                    rec.state().is_terminal() && !self.running.contains_key(study)
                });
                if !ended {
                    self.waiters
                        .entry(*study)
                        .or_default()
                        .push(req.reply_to.clone());
                    return None;
                }
                self.status_reply(*study)
            }
            DaemonOp::Cancel { study } => self.handle_cancel(*study),
            DaemonOp::Results { study } => return Some(self.handle_results(*study)),
            DaemonOp::Shutdown => {
                self.begin_shutdown();
                DaemonReply::ShuttingDown
            }
        };
        Some(reply.to_frame())
    }

    fn status_reply(&self, study: u64) -> DaemonReply {
        let Some(rec) = self.registry.get(&study) else {
            return DaemonReply::Error {
                detail: format!("study {study} not found"),
            };
        };
        let groups_finished = rec
            .finished
            .lock()
            .as_ref()
            .map_or(0, |f| f.groups_finished);
        DaemonReply::Status {
            study,
            state: rec.state(),
            tenant: rec.tenant.clone(),
            groups_finished,
            n_groups: rec.n_groups as u64,
        }
    }

    /// Tells everyone waiting on `study` how it ended.
    fn answer_waiters(&mut self, study: u64) {
        let reply = self.status_reply(study).to_frame();
        for reply_to in self.waiters.remove(&study).unwrap_or_default() {
            self.send_reply(&reply_to, reply.clone());
        }
    }

    /// A study thread announced its exit: reap it, return its admission
    /// reservation, and only then let its waiters know — their next
    /// submission is judged against the quota it just gave back.
    fn handle_study_ended(&mut self, study: u64) {
        // The frame is the thread's last act, after it published a
        // terminal state: anything else under this tag is noise, and the
        // join below is short.
        let ended = self
            .registry
            .get(&study)
            .is_some_and(|rec| rec.state().is_terminal());
        if !ended {
            return;
        }
        let Some(handle) = self.running.remove(&study) else {
            return;
        };
        let _ = handle.join();
        // Its statistics are on disk and its threads are gone: unbind
        // whatever the study left bound and fold its link history into
        // the `retired/…` totals, so nothing of it stays in memory but
        // its record.
        self.transport.retire_scope(&names::study_scope(study));
        let rec = &self.registry[&study];
        self.admission
            .release(&rec.tenant, rec.n_groups, rec.units, false);
        self.answer_waiters(study);
    }

    fn handle_submit(&mut self, tenant: &str, priority: u8, config: &StudyConfig) -> DaemonReply {
        if self.shutting_down {
            return DaemonReply::Error {
                detail: "daemon is shutting down".to_string(),
            };
        }
        if let Err(e) = config.validate() {
            return DaemonReply::Error {
                detail: format!("invalid study config: {e}"),
            };
        }
        let units = config.max_concurrent_groups;
        let would_queue = self.running.len() >= self.config.max_active_studies;
        if let Err(resource) = self
            .admission
            .admit(tenant, config.n_groups, units, would_queue)
        {
            return DaemonReply::Rejected {
                tenant: tenant.to_string(),
                resource: resource.to_string(),
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        let rec = Arc::new(StudyRecord {
            id,
            tenant: tenant.to_string(),
            priority,
            n_groups: config.n_groups,
            units,
            state: Mutex::new(StudyState::Queued),
            cancel: KillSwitch::new(),
            config: Mutex::new(Some(config.clone())),
            finished: Mutex::new(None),
        });
        self.registry.insert(id, rec);
        self.queue.push_back(id);
        // The promotion pass that ends this frame's handling starts it if
        // a slot is free; `would_queue` only reserved the queue slot.
        DaemonReply::Submitted { study: id }
    }

    fn handle_cancel(&mut self, study: u64) -> DaemonReply {
        let Some(rec) = self.registry.get(&study).cloned() else {
            return DaemonReply::Error {
                detail: format!("study {study} not found"),
            };
        };
        match rec.state() {
            StudyState::Queued => {
                self.queue.retain(|&id| id != study);
                *rec.state.lock() = StudyState::Cancelled;
                self.admission
                    .release(&rec.tenant, rec.n_groups, rec.units, true);
                self.answer_waiters(study);
            }
            StudyState::Running => rec.cancel.kill(),
            // Terminal states: cancel is an idempotent no-op.
            _ => {}
        }
        DaemonReply::Cancelled { study }
    }

    /// The `Results` reply frame (or an `Error` reply's).  The shape and
    /// the paths are taken under the record's lock, the files are read
    /// after it is released.
    fn handle_results(&self, study: u64) -> Bytes {
        self.results_of(study)
            .and_then(|(reply, paths)| {
                results_frame(&reply, &paths).map_err(|e| format!("study {study}: {e}"))
            })
            .unwrap_or_else(|detail| DaemonReply::Error { detail }.to_frame())
    }

    /// A finished study's `Results` reply without its workers, and where
    /// they are on disk; or why it has none.
    fn results_of(&self, study: u64) -> Result<(DaemonReply, Vec<PathBuf>), String> {
        let rec = self
            .registry
            .get(&study)
            .ok_or_else(|| format!("study {study} not found"))?;
        let state = rec.state();
        let finished = rec.finished.lock();
        match (state, finished.as_ref()) {
            (StudyState::Done, Some(f)) => {
                let reply = DaemonReply::Results {
                    p: f.p,
                    n_timesteps: f.n_timesteps,
                    n_cells: f.n_cells,
                    groups_finished: f.groups_finished,
                    workers: Vec::new(),
                };
                Ok((reply, f.results.clone()))
            }
            (StudyState::Failed, Some(f)) => Err(format!(
                "study {study} failed: {}",
                f.error.as_deref().unwrap_or("unknown error")
            )),
            (StudyState::Cancelled, _) => Err(format!("study {study} was cancelled")),
            _ => Err(format!("study {study} is {state}; results not ready")),
        }
    }

    /// Promotes queued studies into free active slots, FIFO.  Group-level
    /// fairness across tenants is the fair scheduler's job; this is only
    /// the supervisor-thread cap.
    fn promote_queued(&mut self) {
        while !self.shutting_down && self.running.len() < self.config.max_active_studies {
            let Some(id) = self.queue.pop_front() else {
                break;
            };
            let rec = Arc::clone(&self.registry[&id]);
            let config = rec.config.lock().take().expect("queued study has a config");
            self.admission.promoted();
            *rec.state.lock() = StudyState::Running;
            let stream = self
                .fair
                .open_stream(&rec.tenant, rec.priority, rec.units.max(1));
            let fair = self.fair.clone();
            let transport = Arc::clone(&self.transport);
            let ctl_tx = self.ctl_tx.clone();
            let results_dir = config.checkpoint_dir.join(names::study_scope(id));
            let handle = std::thread::Builder::new()
                .name(format!("melissad-study{id}"))
                .spawn(move || {
                    let runtime = StudyRuntime {
                        transport: Some(transport),
                        runner: Some(Arc::new(stream.clone())),
                        scope: names::study_scope(rec.id),
                        cancel: rec.cancel.clone(),
                    };
                    let outcome = Study::new(config).run_in(runtime);
                    fair.close_stream(stream.id());
                    // The statistics leave memory here, before `Done` is
                    // published: the record keeps where they went.
                    let outcome = outcome.and_then(|out| {
                        let results = write_results(&results_dir, out.results.workers())?;
                        Ok(Finished {
                            p: out.results.dim() as u64,
                            n_timesteps: out.results.n_timesteps() as u64,
                            n_cells: out.results.n_cells() as u64,
                            groups_finished: out.report.groups_finished as u64,
                            results,
                            error: None,
                        })
                    });
                    let state = match outcome {
                        Ok(finished) => {
                            *rec.finished.lock() = Some(finished);
                            StudyState::Done
                        }
                        Err(e) => {
                            *rec.finished.lock() = Some(Finished::failed(e));
                            if rec.cancel.is_killed() {
                                StudyState::Cancelled
                            } else {
                                StudyState::Failed
                            }
                        }
                    };
                    *rec.state.lock() = state;
                    let _ = ctl_tx.send(ControlFrame::study_ended(rec.id));
                })
                .expect("spawn study supervisor");
            self.running.insert(id, handle);
        }
    }

    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        // Queued studies are cancelled in place; running ones get their
        // kill switch and are reaped as they exit.
        while let Some(id) = self.queue.pop_front() {
            let rec = &self.registry[&id];
            *rec.state.lock() = StudyState::Cancelled;
            self.admission
                .release(&rec.tenant, rec.n_groups, rec.units, true);
            self.answer_waiters(id);
        }
        for rec in self.registry.values() {
            if rec.state() == StudyState::Running {
                rec.cancel.kill();
            }
        }
    }

    fn handle_scrape_frame(&mut self, frame: &[u8]) {
        let Ok(req) = ScrapeRequest::from_frame(frame) else {
            return;
        };
        let reply = self.snapshot().encode_reply(req.format);
        if let Ok(tx) = self.transport.connect(&req.reply_to) {
            let _ = tx.send(reply);
        }
    }

    fn send_reply(&self, reply_to: &str, reply: Bytes) {
        // The client binds its reply endpoint before it sends, so the
        // endpoint is either there or the client is gone (a waiter whose
        // deadline passed): never wait for it on this thread, which
        // serves every tenant.
        if let Ok(tx) = self.transport.connect(reply_to) {
            let _ = tx.send(reply);
        }
    }

    /// Builds the daemon-level aggregate snapshot.
    fn snapshot(&self) -> DaemonSnapshot {
        let usage = self.fair.tenant_usage();
        let mut tenants: Vec<TenantSnapshot> = usage
            .into_iter()
            .map(|u| {
                let load = self.admission.load(&u.tenant);
                TenantSnapshot {
                    tenant: u.tenant,
                    weight: u.weight,
                    queued_jobs: u.queued,
                    running_jobs: u.running_jobs,
                    running_units: u.running_units,
                    dispatched_jobs: u.dispatched,
                    studies: load.studies,
                    groups_reserved: load.groups,
                    units_reserved: load.units,
                }
            })
            .collect();
        // Tenants that submitted but never dispatched a job yet still
        // deserve a row.
        for rec in self.registry.values() {
            if !tenants.iter().any(|t| t.tenant == rec.tenant) {
                let load = self.admission.load(&rec.tenant);
                tenants.push(TenantSnapshot {
                    tenant: rec.tenant.clone(),
                    weight: 1,
                    queued_jobs: 0,
                    running_jobs: 0,
                    running_units: 0,
                    dispatched_jobs: 0,
                    studies: load.studies,
                    groups_reserved: load.groups,
                    units_reserved: load.units,
                });
            }
        }
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut studies: Vec<StudySnapshot> = self
            .registry
            .values()
            .map(|r| StudySnapshot {
                id: r.id,
                tenant: r.tenant.clone(),
                priority: r.priority,
                state: r.state(),
                n_groups: r.n_groups as u64,
            })
            .collect();
        studies.sort_by_key(|s| s.id);
        DaemonSnapshot {
            uptime_nanos: self.started_at.elapsed().as_nanos() as u64,
            pool_units: self.fair.total_units(),
            free_units: self.fair.free_units(),
            active_studies: self.running.len(),
            max_active_studies: self.config.max_active_studies,
            queue_depth: self.admission.queue_depth(),
            queue_cap: self.admission.queue_cap(),
            admission: self.admission.stats(),
            ctl_wakeups: self.wakeups,
            tenants,
            studies,
        }
    }
}
