//! Melissa Server: the parallel in transit statistics engine
//! (paper Section 4.1.1).
//!
//! The server runs `M` worker processes (threads here), each owning an
//! even slab of the mesh.  Workers independently pump their inbound
//! message queues and update their local statistics — "updating the
//! statistics is a local operation that requires neither communication nor
//! synchronization between the server processes".  A *main* process
//! handles dynamic connection requests, periodic heartbeats/reports to the
//! launcher, group-timeout detection and checkpoint triggers — and here
//! also telemetry scrapes, which arrive on the same `server/main` inbox.
//!
//! The server consumes only the backend-agnostic [`Transport`] /
//! [`Sender`](melissa_transport::Sender) /
//! [`Receiver`](melissa_transport::Receiver) surface: the same code
//! serves a single-process in-process study and a multi-socket TCP
//! deployment, with identical statistics and backpressure telemetry.
//! Every endpoint binds under [`ServerConfig::scope`], so a sharded
//! study ([`crate::shard`]) runs `N` complete instances of this server
//! side by side on one transport.
//!
//! Per `(timestep, cell)` the workers track the ubiquitous Sobol' state,
//! field moments, the min/max envelope, threshold-exceedance counters
//! and — when [`ServerConfig::quantile_probs`] is non-empty — per-cell
//! Robbins–Monro quantile estimates (`melissa_stats::quantiles`, the
//! order-statistics family of the quantile follow-up paper
//! arXiv:1905.04180), all folded in by one fused tiled sweep per
//! completed assembly.  Alongside the Sobol' CI width, workers report the
//! widest possible next quantile step as the order-statistics convergence
//! signal.

pub mod checkpoint;
pub mod state;

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use melissa_mesh::SlabPartition;
use melissa_telemetry::{CodecScrape, LinkScrape, ScrapeSnapshot, Telemetry};
use melissa_transport::directory::names;
use melissa_transport::sync::Mutex;
use melissa_transport::{
    instant_after, BoxReceiver, BoxSender, KillSwitch, LinkStatsSnapshot, LivenessTracker,
    RecvTimeoutError, Transport,
};

use crate::protocol::{DataView, Message};
use checkpoint::{read_checkpoint, write_checkpoint};
use state::WorkerState;

/// Server deployment configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Endpoint scope this instance binds under: in a study, its shard's
    /// `[study<id>/]shard<k>`, giving `"shard2/server/main"`,
    /// `"shard2/server/<w>"` — so several full server instances coexist
    /// on one transport (a server started on its own may bind the bare
    /// names of the empty scope).
    pub scope: String,
    /// Number of worker processes.
    pub n_workers: usize,
    /// Global cell count.
    pub n_cells: usize,
    /// Number of variable parameters.
    pub p: usize,
    /// Timesteps per simulation.
    pub n_timesteps: usize,
    /// Link high-water mark.
    pub hwm: usize,
    /// Inter-message timeout for unfinished-group detection.
    pub group_timeout: Duration,
    /// Checkpoint period.
    pub checkpoint_interval: Duration,
    /// Checkpoint directory.
    pub checkpoint_dir: PathBuf,
    /// Report/heartbeat period towards the launcher.
    pub report_interval: Duration,
    /// Whether workers maintain the convergence-control CI signal
    /// (costs one CI sweep per finished group).
    pub track_ci: bool,
    /// Variance floor masking degenerate cells in the CI sweep.
    pub ci_variance_floor: f64,
    /// Restore worker states from checkpoint files on start.
    pub restore: bool,
    /// Thresholds for per-cell exceedance probabilities (paper Sec. 4.1's
    /// "other iterative statistics"; empty disables).
    pub thresholds: Vec<f64>,
    /// Target probabilities for per-cell Robbins–Monro quantile estimates
    /// (the follow-up paper arXiv:1905.04180; empty disables order
    /// statistics).
    pub quantile_probs: Vec<f64>,
    /// Live telemetry hub of this shard (`None` disables instrumentation
    /// and leaves scrapes unanswered).  When set, the server times ingest
    /// sweeps and checkpoint writes/restores into the shared registry,
    /// counts the main thread's wake-ups, and answers
    /// [`Message::Scrape`] on its `server/main` inbox.
    pub telemetry: Option<Arc<Telemetry>>,
}

/// State shared between server threads and readable by the launcher.
pub struct ServerShared {
    /// Per-group last-message liveness (unfinished-group detection).
    pub liveness: LivenessTracker<u64>,
    /// Groups with at least one message on any worker.
    pub started: Mutex<HashSet<u64>>,
    /// Per-group count of workers that integrated its final timestep.
    finished_counts: Mutex<HashMap<u64, usize>>,
    /// Groups finished on *every* worker.
    pub finished: Mutex<HashSet<u64>>,
    /// Per-worker latest convergence-control signal (max CI width over the
    /// worker's slab; ∞ until known).
    worker_ci: Mutex<Vec<f64>>,
    /// Per-worker latest quantile-convergence signal (max Robbins–Monro
    /// step width over the worker's slab; ∞ until known, 0 when order
    /// statistics are disabled).
    worker_quantile_step: Mutex<Vec<f64>>,
    /// Per-worker latest per-probability quantile steps (`None` until the
    /// worker reports; the vectors share the configured probability
    /// order).
    worker_quantile_steps: Mutex<Vec<Option<Vec<f64>>>>,
    /// Total data payload bytes ingested.
    pub bytes_received: AtomicU64,
    /// Total data messages ingested.
    pub messages_received: AtomicU64,
    /// Total replayed messages discarded.
    pub replays_discarded: AtomicU64,
    /// Frames the workers refused: not decodable, or `Data` whose role,
    /// timestep or cell range is not part of this study.  Nothing a
    /// well-behaved client sends is ever counted here.
    pub frames_rejected: AtomicU64,
    /// Checkpoint writes performed (all workers).
    pub checkpoints_written: AtomicU64,
    /// Checkpoint writes that failed (all workers); the worker keeps
    /// ingesting, and the last good checkpoint stays the restore point.
    pub checkpoints_failed: AtomicU64,
    /// The workers of a restarted server whose checkpoint exists but
    /// could not be read, with the reason: they started from cold
    /// statistics, and their unfinished groups are rebuilt by replay.
    pub(crate) unreadable_checkpoints: Mutex<Vec<(usize, String)>>,
    n_workers: usize,
}

/// A server instance's ingest and checkpoint counters at one moment.
#[derive(Debug, Default)]
pub(crate) struct ServerCounters {
    pub messages: u64,
    pub bytes: u64,
    pub replays_discarded: u64,
    pub checkpoints_written: u64,
    pub checkpoints_failed: u64,
    pub frames_rejected: u64,
}

impl ServerShared {
    fn new(n_workers: usize, group_timeout: Duration, quantiles_enabled: bool) -> Self {
        // With order statistics disabled the quantile signal is
        // identically 0 (not ∞): nothing will ever report one.
        let initial_step = if quantiles_enabled {
            f64::INFINITY
        } else {
            0.0
        };
        Self {
            liveness: LivenessTracker::new(group_timeout),
            started: Mutex::new(HashSet::new()),
            finished_counts: Mutex::new(HashMap::new()),
            finished: Mutex::new(HashSet::new()),
            worker_ci: Mutex::new(vec![f64::INFINITY; n_workers]),
            worker_quantile_step: Mutex::new(vec![initial_step; n_workers]),
            worker_quantile_steps: Mutex::new(vec![None; n_workers]),
            bytes_received: AtomicU64::new(0),
            messages_received: AtomicU64::new(0),
            replays_discarded: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoints_failed: AtomicU64::new(0),
            unreadable_checkpoints: Mutex::new(Vec::new()),
            n_workers,
        }
    }

    /// Counts one more worker done with `group`; `true` when that was the
    /// last one, i.e. the group just finished on every worker.
    fn record_group_finished_on_worker(&self, group: u64) -> bool {
        let mut counts = self.finished_counts.lock();
        let c = counts.entry(group).or_insert(0);
        *c += 1;
        let finished = *c == self.n_workers;
        if finished {
            self.finished.lock().insert(group);
            self.liveness.forget(&group);
        }
        finished
    }

    /// The ingest and checkpoint counters as they stand.
    pub(crate) fn counters(&self) -> ServerCounters {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerCounters {
            messages: load(&self.messages_received),
            bytes: load(&self.bytes_received),
            replays_discarded: load(&self.replays_discarded),
            checkpoints_written: load(&self.checkpoints_written),
            checkpoints_failed: load(&self.checkpoints_failed),
            frames_rejected: load(&self.frames_rejected),
        }
    }

    /// Snapshot of fully finished groups.
    pub fn finished_groups(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.finished.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Snapshot of started-but-unfinished groups.
    pub fn running_groups(&self) -> Vec<u64> {
        let finished = self.finished.lock();
        let mut v: Vec<u64> = self
            .started
            .lock()
            .iter()
            .copied()
            .filter(|g| !finished.contains(g))
            .collect();
        v.sort_unstable();
        v
    }

    /// Global convergence signal: the widest CI over all workers
    /// (∞ until every worker has reported one).
    pub fn max_ci_width(&self) -> f64 {
        self.worker_ci.lock().iter().copied().fold(0.0, f64::max)
    }

    /// Global quantile-convergence signal: the widest possible next
    /// Robbins–Monro step over all workers (∞ until every worker has
    /// reported one; 0 when order statistics are disabled).
    pub fn max_quantile_step(&self) -> f64 {
        self.worker_quantile_step
            .lock()
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    fn set_worker_ci(&self, worker: usize, width: f64) {
        self.worker_ci.lock()[worker] = width;
    }

    fn set_worker_quantile_step(&self, worker: usize, width: f64) {
        self.worker_quantile_step.lock()[worker] = width;
    }

    /// Per-probability aggregate of the quantile-convergence signals:
    /// element `i` is the widest per-worker step of probability `i`, so a
    /// study tracking extreme percentiles sees its slowest estimate.
    /// Empty until every worker has reported once (the scalar
    /// [`max_quantile_step`](Self::max_quantile_step) stays ∞ over the
    /// same window, gating any early stop).
    pub fn max_quantile_steps(&self) -> Vec<f64> {
        let per_worker = self.worker_quantile_steps.lock();
        let mut out: Vec<f64> = Vec::new();
        for steps in per_worker.iter() {
            match steps {
                None => return Vec::new(),
                Some(v) => {
                    if out.len() < v.len() {
                        out.resize(v.len(), 0.0);
                    }
                    for (o, &w) in out.iter_mut().zip(v) {
                        *o = o.max(w);
                    }
                }
            }
        }
        out
    }

    fn set_worker_quantile_steps(&self, worker: usize, steps: Vec<f64>) {
        self.worker_quantile_steps.lock()[worker] = Some(steps);
    }
}

/// Worker `w`'s state read back from its checkpoint, its bookkeeping
/// seeding `shared`; `None` — the worker starts from cold statistics —
/// when there is no checkpoint (a crash before the first one) or it
/// cannot be read, which `shared` notes with the reason.
fn restore(cfg: &ServerConfig, shared: &ServerShared, w: usize) -> Option<WorkerState> {
    let started = Instant::now();
    let state = match read_checkpoint(&cfg.checkpoint_dir, w) {
        Ok(mut state) => {
            // The configured probability vector wins over whatever the
            // checkpoint tracked.
            state.ensure_quantiles(&cfg.quantile_probs);
            for &g in state.finished_groups() {
                shared.started.lock().insert(g);
                shared.record_group_finished_on_worker(g);
            }
            shared.started.lock().extend(state.running_groups());
            Some(state)
        }
        Err(checkpoint::CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            shared
                .unreadable_checkpoints
                .lock()
                .push((w, e.to_string()));
            None
        }
    };
    if let Some(t) = &cfg.telemetry {
        t.registry()
            .histogram("checkpoint_restore_nanos")
            .record(started.elapsed().as_nanos() as u64);
    }
    state
}

/// A running Melissa Server instance.
pub struct Server {
    /// Flipped by [`crash`](Self::crash): every thread stops without
    /// finalising, and in-memory statistics are lost.
    kill: KillSwitch,
    shared: Arc<ServerShared>,
    transport: Arc<dyn Transport>,
    scope: String,
    n_workers: usize,
    main_handle: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<WorkerState>>,
    worker_senders: Vec<BoxSender>,
    main_sender: BoxSender,
}

impl Server {
    /// Binds endpoints and starts the main and worker threads.  Sends
    /// `ServerReady` to the launcher endpoint once up.
    pub fn start(
        config: ServerConfig,
        transport: Arc<dyn Transport>,
        launcher_tx: BoxSender,
    ) -> Server {
        assert!(config.n_workers > 0 && config.n_cells >= config.n_workers);
        let shared = Arc::new(ServerShared::new(
            config.n_workers,
            config.group_timeout,
            !config.quantile_probs.is_empty(),
        ));
        let kill = KillSwitch::new();
        let partition = SlabPartition::new(config.n_cells, config.n_workers);

        // Bind everything *before* any thread runs so clients can connect
        // as soon as ServerReady is out.
        let main_rx = transport.bind(&names::server_main_in(&config.scope), config.hwm);
        let worker_rxs: Vec<BoxReceiver> = (0..config.n_workers)
            .map(|w| transport.bind(&names::server_worker_in(&config.scope, w), config.hwm))
            .collect();
        let worker_senders: Vec<BoxSender> = (0..config.n_workers)
            .map(|w| {
                transport
                    .connect(&names::server_worker_in(&config.scope, w))
                    .expect("just bound")
            })
            .collect();
        let main_sender = transport
            .connect(&names::server_main_in(&config.scope))
            .expect("just bound");

        // A restarted server reads every worker's checkpoint before any
        // thread runs — one reader per worker — so what it restored, and
        // which checkpoints it could not read, is known once `start`
        // returns.
        let mut restored: Vec<Option<WorkerState>> = if config.restore {
            std::thread::scope(|s| {
                let reads: Vec<_> = (0..config.n_workers)
                    .map(|w| {
                        let (config, shared) = (&config, &*shared);
                        let reader = std::thread::Builder::new().name(format!("srv-restore{w}"));
                        let spawned = reader.spawn_scoped(s, move || restore(config, shared, w));
                        spawned.expect("the OS refused a checkpoint reader thread")
                    })
                    .collect();
                let joined = reads.into_iter().map(|r| r.join());
                joined
                    .map(|r| r.expect("a checkpoint reader panicked"))
                    .collect()
            })
        } else {
            (0..config.n_workers).map(|_| None).collect()
        };

        let worker_handles: Vec<JoinHandle<WorkerState>> = worker_rxs
            .into_iter()
            .zip(&mut restored)
            .enumerate()
            .map(|(w, (rx, restored))| {
                let cfg = config.clone();
                let shared = Arc::clone(&shared);
                let kill = kill.clone();
                let main_tx = main_sender.clone();
                let slab = partition.worker_range(w);
                let restored = restored.take();
                let worker = std::thread::Builder::new().name(format!("srv-w{w}"));
                let spawned = worker.spawn(move || {
                    let state = restored.unwrap_or_else(|| {
                        WorkerState::with_stats(
                            w,
                            slab,
                            cfg.p,
                            cfg.n_timesteps,
                            &cfg.thresholds,
                            &cfg.quantile_probs,
                        )
                    });
                    worker_loop(state, rx, main_tx, shared, kill, cfg)
                });
                spawned.expect("the OS refused a server worker thread")
            })
            .collect();

        let main_handle = {
            let cfg = config.clone();
            let shared = Arc::clone(&shared);
            let kill = kill.clone();
            let transport = Arc::clone(&transport);
            let senders = worker_senders.clone();
            std::thread::Builder::new()
                .name("srv-main".into())
                .spawn(move || {
                    main_loop(cfg, transport, shared, kill, launcher_tx, senders, main_rx)
                })
                .expect("the OS refused the server main thread")
        };

        Server {
            kill,
            shared,
            transport,
            scope: config.scope,
            n_workers: config.n_workers,
            main_handle,
            worker_handles,
            worker_senders,
            main_sender,
        }
    }

    /// Shared observability handle.
    pub fn shared(&self) -> &Arc<ServerShared> {
        &self.shared
    }

    /// Study-level rollup of the server's data-endpoint link statistics
    /// (every link toward a `server/<w>` endpoint, whichever side opened
    /// it — the paper's Fig. 6 backpressure telemetry).
    pub fn data_link_stats(&self) -> LinkStatsSnapshot {
        data_link_rollup(self.transport.as_ref(), &self.scope, self.n_workers)
    }

    /// Requests an immediate checkpoint of all workers.
    pub fn checkpoint_now(&self, dir: &std::path::Path) {
        let msg = Message::Checkpoint {
            dir: dir.to_string_lossy().into_owned(),
        }
        .encode();
        for s in &self.worker_senders {
            let _ = s.send(msg.clone());
        }
    }

    /// Stops the server cleanly and returns the worker states (the final
    /// statistics).
    pub fn stop(self) -> Vec<WorkerState> {
        let _ = self.main_sender.send(Message::Stop.encode());
        let _ = self.main_handle.join();
        self.worker_handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    }

    /// Simulates a server crash: flips the kill switch, then wakes the
    /// main loop and every worker with a frame.  Each loop looks at the
    /// switch right after every wake, so nothing is integrated, reported
    /// or checkpointed after this returns.  A wake that finds an inbox
    /// full is dropped: that loop has frames to wake on already.
    pub fn crash(&self) {
        self.kill.kill();
        let wake = Message::ReportNow.encode();
        for s in self.worker_senders.iter().chain([&self.main_sender]) {
            let _ = s.send_timeout(wake.clone(), Duration::ZERO);
        }
    }

    /// Whether [`crash`](Self::crash) was called.
    pub fn crashed(&self) -> bool {
        self.kill.is_killed()
    }

    /// Abandons a crashed server: joins threads and **discards** their
    /// in-memory statistics (they died; only checkpoints survive).
    pub fn abandon(self) {
        self.crash();
        let _ = self.main_handle.join();
        for h in self.worker_handles {
            let _ = h.join();
        }
    }
}

/// Builds one shard's point-in-time scrape snapshot: study progress and
/// convergence from the shared server state, link counters from the
/// transport rollup (scoped to this instance's endpoints), and the
/// registry + recent-event window from the telemetry hub.
fn scrape_snapshot(
    cfg: &ServerConfig,
    transport: &dyn Transport,
    shared: &ServerShared,
    tele: &Arc<Telemetry>,
) -> ScrapeSnapshot {
    let scope_prefix = format!("{}/", cfg.scope);
    let links: Vec<LinkScrape> = transport
        .link_stats()
        .into_iter()
        .filter(|(name, _)| cfg.scope.is_empty() || name.starts_with(&scope_prefix))
        .map(|(name, s)| LinkScrape::of(&name, &s))
        .collect();
    // Each lock is taken in its own statement so the guard drops before
    // the next acquisition.  Folding these into the struct literal below
    // would keep every temporary guard alive until the end of the whole
    // expression — and `running_groups()` re-locks `finished`, which
    // self-deadlocks on the non-reentrant mutex.
    let groups_finished = shared.finished.lock().len() as u64;
    let groups_running = shared.running_groups().len() as u64;
    let max_ci_width = shared.max_ci_width();
    let max_quantile_step = shared.max_quantile_step();
    let metrics = tele.registry().snapshot();
    let events = tele.recent_events(64);
    ScrapeSnapshot {
        shard: tele.shard(),
        backend: transport.backend_name().to_string(),
        uptime_nanos: tele.uptime_nanos(),
        groups_finished,
        groups_running,
        max_ci_width,
        max_quantile_step,
        // Groups never move between shards, so the routing never leaves
        // its first epoch.
        routing_epoch: 0,
        // Links never reconnect: a broken one fails its group instead.
        reconnects: 0,
        wire_codec: CodecScrape::of(&transport.wire_io()),
        links,
        metrics,
        events,
    }
}

/// Sums the per-endpoint link rollup over this instance's `server/<w>`
/// data endpoints (scoped, so each shard's rollup counts only its own
/// links).
fn data_link_rollup(transport: &dyn Transport, scope: &str, n_workers: usize) -> LinkStatsSnapshot {
    let per_endpoint: HashMap<String, LinkStatsSnapshot> =
        transport.link_stats().into_iter().collect();
    let mut total = LinkStatsSnapshot::default();
    for w in 0..n_workers {
        if let Some(s) = per_endpoint.get(&names::server_worker_in(scope, w)) {
            total.absorb(s);
        }
    }
    total
}

/// One in this many Data frames is wall-clock-timed into the
/// `ingest_sweep_nanos` histogram.  Sampling keeps the instrumented
/// ingest path within its <2 % overhead budget even on hosts where the
/// monotonic clock is a full syscall (containers without a vDSO fast
/// path, where a clock read costs microseconds) — the sampled
/// distribution remains representative because frame kinds arrive
/// round-robin (measured by `melissa-bench`'s `telemetry_ab` into
/// `BENCH_telemetry.json`).
pub const INGEST_SAMPLE_STRIDE: u64 = 64;

/// Frames a worker takes from its inbox at a time: everything a few
/// concurrent groups' timesteps can have queued, so a busy worker locks
/// its queue — and the bookkeeping all workers share — once per batch.
const INGEST_BATCH: usize = 256;

/// Worker thread: pump the inbox, update local statistics, obey control
/// messages.  Returns the final state on clean stop.
///
/// The inbox is drained a batch at a time — whatever is queued when the
/// worker comes for it, which with per-timestep hand-off is a group's
/// timestep or several — and `Data` frames are ingested through the
/// borrowed [`DataView`], straight from the frame's bytes into the
/// assembly.  What all workers share is touched once per batch: the
/// message and byte totals, and per group the liveness clock and the
/// started set.
fn worker_loop(
    mut state: WorkerState,
    rx: BoxReceiver,
    main_tx: BoxSender,
    shared: Arc<ServerShared>,
    kill: KillSwitch,
    cfg: ServerConfig,
) -> WorkerState {
    // Handles resolved once, outside the pump: per-frame cost with
    // telemetry on is a clock-read pair on one in [`INGEST_SAMPLE_STRIDE`]
    // frames.
    let registry = cfg.telemetry.as_ref().map(|t| t.registry());
    let ingest_hist = registry.map(|r| r.histogram("ingest_sweep_nanos"));
    let ckpt_hist = registry.map(|r| r.histogram("checkpoint_write_nanos"));
    let ckpt_failures = registry.map(|r| r.counter("checkpoint_failures_total"));
    let rejected_total = registry.map(|r| r.counter("frames_rejected_total"));
    let mut ingest_tick = 0u64;
    // A group that just finished on every worker is news the launcher
    // acts on (it frees a pool unit, may end the study): have the main
    // loop report it now instead of at the next report period.
    let report_now = || {
        let _ = main_tx.send(Message::ReportNow.encode());
    };
    let mut inbox: Vec<melissa_transport::Frame> = Vec::with_capacity(INGEST_BATCH);
    // Groups whose liveness and started entries this batch has already
    // refreshed (a batch holds frames of a handful of groups).
    let mut seen: Vec<u64> = Vec::new();
    loop {
        // Waits for frames only: a crash wakes the worker with one.
        let received = rx.recv_batch(&mut inbox, INGEST_BATCH, Duration::MAX);
        if kill.is_killed() {
            return state; // crash: caller discards the state
        }
        match received {
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return state,
        }
        let now = Instant::now();
        seen.clear();
        let (mut messages, mut bytes, mut rejected) = (0u64, 0u64, 0u64);
        let replays_before = state.replays_discarded;
        let mut stop = false;
        for frame in inbox.drain(..) {
            if DataView::is_data(&frame) {
                let Ok(view) = DataView::parse(&frame) else {
                    rejected += 1;
                    continue;
                };
                let group_id = view.header.group_id;
                ingest_tick = ingest_tick.wrapping_add(1);
                let sweep_started = (ingest_hist.is_some()
                    && ingest_tick.is_multiple_of(INGEST_SAMPLE_STRIDE))
                .then(Instant::now);
                let Ok(completed) = state.on_frame(&view) else {
                    rejected += 1;
                    continue;
                };
                if let (Some(h), Some(t0)) = (&ingest_hist, sweep_started) {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
                messages += 1;
                bytes += (view.len() * 8) as u64;
                if !seen.contains(&group_id) {
                    seen.push(group_id);
                    shared.liveness.record_at(group_id, now);
                    shared.started.lock().insert(group_id);
                }
                if completed && view.header.timestep as usize + 1 == state.n_timesteps() {
                    let finished = shared.record_group_finished_on_worker(group_id);
                    if cfg.track_ci {
                        let w = state.max_ci_width(cfg.ci_variance_floor);
                        shared.set_worker_ci(state.worker_id(), w);
                    }
                    if state.tracks_quantiles() {
                        let (step, widths) = state.quantile_steps();
                        shared.set_worker_quantile_step(state.worker_id(), step);
                        shared.set_worker_quantile_steps(state.worker_id(), widths);
                    }
                    // After the signals, so the pushed report carries
                    // them.
                    if finished {
                        report_now();
                    }
                }
                continue;
            }
            match Message::decode(&frame) {
                Ok(Message::Checkpoint { dir }) => {
                    let write_started = Instant::now();
                    if write_checkpoint(std::path::Path::new(&dir), &state).is_ok() {
                        shared.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                        if let Some(h) = &ckpt_hist {
                            h.record(write_started.elapsed().as_nanos() as u64);
                        }
                    } else {
                        shared.checkpoints_failed.fetch_add(1, Ordering::Relaxed);
                        if let Some(c) = &ckpt_failures {
                            c.add(1);
                        }
                    }
                }
                Ok(Message::Stop) => {
                    // Frames queued behind a stop are not ingested.
                    stop = true;
                    break;
                }
                Ok(_) => {}
                Err(_) => rejected += 1,
            }
        }
        inbox.clear();
        shared
            .messages_received
            .fetch_add(messages, Ordering::Relaxed);
        shared.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        shared
            .replays_discarded
            .fetch_add(state.replays_discarded - replays_before, Ordering::Relaxed);
        if rejected > 0 {
            shared
                .frames_rejected
                .fetch_add(rejected, Ordering::Relaxed);
            if let Some(c) = &rejected_total {
                c.add(rejected);
            }
        }
        if stop {
            return state;
        }
    }
}

/// Main thread: connection handshakes, telemetry scrapes, heartbeats,
/// reports, group-timeout detection, periodic checkpoints.  It blocks on
/// its one inbox until a frame arrives — a crash sends one — or the
/// report or checkpoint deadline passes; nothing else wakes it.
fn main_loop(
    cfg: ServerConfig,
    transport: Arc<dyn Transport>,
    shared: Arc<ServerShared>,
    kill: KillSwitch,
    launcher_tx: BoxSender,
    worker_senders: Vec<BoxSender>,
    main_rx: BoxReceiver,
) {
    let mut period_started = Instant::now();
    let mut next_report = instant_after(period_started, cfg.report_interval);
    let mut next_checkpoint = instant_after(period_started, cfg.checkpoint_interval);
    // Load-aware unfinished-group detection: how late the loop wakes for
    // its report deadline probes how starved this process is, and the
    // group-liveness timeout stretches by the observed factor.  On a
    // healthy host the factor is 1 and detection latency is exactly
    // `group_timeout`; on an oversubscribed one a slow group is no longer
    // declared unfinished just because the whole study is being
    // scheduled late.
    let load = melissa_transport::LoadMonitor::new();
    let _ = launcher_tx.send(Message::ServerReady.encode());
    loop {
        let deadline = next_report.min(next_checkpoint);
        let received = main_rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
        if kill.is_killed() {
            return;
        }
        let mut report_now = false;
        // What woke the loop: the `reason` of `server_main_wakeups_total`,
        // the twin of the supervisor's `supervisor_wakeups_total`.
        let reason = match received {
            Ok(frame) => match Message::decode(&frame) {
                Ok(Message::ConnectRequest { group_id, instance }) => {
                    let reply = Message::ConnectReply {
                        n_workers: cfg.n_workers as u32,
                        n_cells: cfg.n_cells as u64,
                        p: cfg.p as u32,
                        n_timesteps: cfg.n_timesteps as u32,
                    };
                    if let Ok(tx) =
                        transport.connect(&names::group_reply_in(&cfg.scope, group_id, instance))
                    {
                        let _ = tx.send(reply.encode());
                    }
                    "message"
                }
                // Strictly read-only against atomic snapshots — the
                // ingest path never sees a scraper, so scraping cannot
                // perturb any statistic — and answered only on a round
                // trip's own reply endpoint.
                Ok(Message::Scrape { reply_to, format }) => {
                    if let Some(tele) = &cfg.telemetry {
                        if names::is_rpc_reply(&reply_to) {
                            let snap = scrape_snapshot(&cfg, transport.as_ref(), &shared, tele);
                            if let Ok(tx) = transport.connect(&reply_to) {
                                let _ = tx.send(snap.encode_reply(format));
                            }
                        }
                    }
                    "scrape"
                }
                Ok(Message::ReportNow) => {
                    report_now = true;
                    "message"
                }
                Ok(Message::Checkpoint { dir }) => {
                    let msg = Message::Checkpoint { dir }.encode();
                    for s in &worker_senders {
                        let _ = s.send(msg.clone());
                    }
                    "message"
                }
                Ok(Message::Stop) => {
                    let stop = Message::Stop.encode();
                    for s in &worker_senders {
                        let _ = s.send(stop.clone());
                    }
                    return;
                }
                _ => "message",
            },
            // The probe: the report period, timed from its start to the
            // wake-up at its deadline, so the ratio is always over a whole
            // period however many frames arrived in between.
            Err(RecvTimeoutError::Timeout) if deadline == next_report => {
                load.observe(
                    next_report.saturating_duration_since(period_started),
                    period_started.elapsed(),
                );
                "report"
            }
            Err(RecvTimeoutError::Timeout) => "checkpoint",
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if let Some(tele) = &cfg.telemetry {
            let name = format!("server_main_wakeups_total{{reason=\"{reason}\"}}");
            tele.registry().counter(&name).inc();
        }

        // The periodic heartbeat + report is the liveness protocol (and,
        // by its punctuality, the launcher's load probe); a group
        // finishing pushes one more report in between.
        let now = Instant::now();
        let periodic = now >= next_report;
        if periodic {
            period_started = now;
            next_report = instant_after(now, cfg.report_interval);
            shared.liveness.set_timeout(load.scale(cfg.group_timeout));
            let _ = launcher_tx.send(Message::Heartbeat { sender: 0 }.encode());
        }
        if periodic || report_now {
            let link = data_link_rollup(transport.as_ref(), &cfg.scope, cfg.n_workers);
            let report = Message::ServerReport {
                finished_groups: shared.finished_groups(),
                running_groups: shared.running_groups(),
                max_ci_width: shared.max_ci_width(),
                max_quantile_step: shared.max_quantile_step(),
                quantile_steps: shared.max_quantile_steps(),
                blocked_sends: link.blocked_sends,
                blocked_nanos: link.blocked_nanos,
                frames_rejected: shared.frames_rejected.load(Ordering::Relaxed),
            };
            let _ = launcher_tx.send(report.encode());
        }
        if periodic {
            for g in shared.liveness.expired_at(now) {
                shared.liveness.forget(&g);
                let _ = launcher_tx.send(Message::GroupTimeout { group_id: g }.encode());
            }
        }

        if now >= next_checkpoint {
            next_checkpoint = instant_after(now, cfg.checkpoint_interval);
            let msg = Message::Checkpoint {
                dir: cfg.checkpoint_dir.to_string_lossy().into_owned(),
            }
            .encode();
            for s in &worker_senders {
                let _ = s.send(msg.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_transport::{make_transport, TransportKind};

    /// The main thread of a shard nobody talks to wakes for its report
    /// deadline and nothing else: over 0.5 s at a 50 ms report period it
    /// counts about ten wake-ups, where a 10 ms poll would count fifty.
    #[test]
    fn an_idle_shard_wakes_only_for_its_report_deadline() {
        for kind in [TransportKind::InProcess, TransportKind::Tcp] {
            let transport = make_transport(kind.clone());
            let scope = names::shard_scope(0);
            let _launcher_rx = transport.bind(&names::launcher_in(&scope), 1024);
            let launcher_tx = transport.connect(&names::launcher_in(&scope)).unwrap();
            let tele = Telemetry::new(0);
            let config = ServerConfig {
                scope,
                n_workers: 2,
                n_cells: 8,
                p: 1,
                n_timesteps: 1,
                hwm: 16,
                group_timeout: Duration::from_secs(60),
                checkpoint_interval: Duration::from_secs(3600),
                checkpoint_dir: PathBuf::from("unused-no-checkpoint-is-written"),
                report_interval: Duration::from_millis(50),
                track_ci: false,
                ci_variance_floor: 1e-12,
                restore: false,
                thresholds: Vec::new(),
                quantile_probs: Vec::new(),
                telemetry: Some(Arc::clone(&tele)),
            };
            let server = Server::start(config, transport, launcher_tx);
            std::thread::sleep(Duration::from_millis(500));
            let counters = tele.registry().snapshot().counters;
            server.stop();
            let count = |reason: &str| {
                let name = format!("server_main_wakeups_total{{reason=\"{reason}\"}}");
                counters.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1)
            };
            let reasons = ["message", "scrape", "report", "checkpoint"];
            let all: u64 = reasons.iter().map(|reason| count(reason)).sum();
            assert!(count("report") >= 1, "{kind}: {counters:?}");
            assert!(all <= 13, "{kind}: {all} wake-ups in 0.5 s: {counters:?}");
        }
    }
}
