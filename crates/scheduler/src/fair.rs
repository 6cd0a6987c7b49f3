//! The job runner: weighted fair scheduling of capacity-limited thread
//! jobs across tenants sharing one node pool.
//!
//! This is the workspace's one grant protocol.  Every job is enqueued on
//! the submitting thread and waits — as a queue entry, not as a thread —
//! until the scheduler grants it capacity; granted jobs are run, in grant
//! order, by the pool's persistent worker threads (one per unit, started
//! with the pool), which release the job's units when it returns.  No
//! thread is ever spawned for a job.  A pool one study
//! owns ([`JobRunner`](crate::runtime::JobRunner)) is the one-tenant,
//! one-stream case, where everything below reduces to FIFO; with many
//! tenants a single queue would let one tenant's burst head-of-line-block
//! everyone else, so [`FairRunner`] is a **weighted multi-queue**:
//!
//! * one queue per tenant, served by **deficit round robin** — each visit
//!   credits the tenant `quantum × weight` cost units and dispatches
//!   queued jobs while the deficit and free capacity allow, so over any
//!   window a backlogged tenant receives capacity proportional to its
//!   weight and no tenant can be starved for more than one ring cycle
//!   (the starvation bound, tested below);
//! * **priority within a tenant** — higher-priority jobs of the same
//!   tenant dispatch first; within one priority class, submission order
//!   (FIFO) is preserved;
//! * **streams** — a stream groups one study's jobs and caps how many of
//!   them run at once.  A study that needs sequential dispatch for
//!   bit-reproducibility opens a stream with `max_concurrent = 1`; its
//!   groups then start strictly in submission order no matter how other
//!   tenants' jobs interleave on the shared pool.
//!
//! All scheduling decisions are taken under one lock in a deterministic
//! ring order; dispatch order is a pure function of the submission and
//! completion sequence, never of thread wake-up races — which is what
//! lets a sequential study reproduce bit-identical statistics.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use melissa_sync::{Condvar, Mutex};
use melissa_transport::KillSwitch;

use crate::runtime::{Dispatcher, JobHandle, JobState};

/// The work of one job.
type Work = Box<dyn FnOnce(&KillSwitch) + Send>;

/// One submitted job: queued in its tenant's queue until the ring grants
/// it capacity, then in the ready queue until a worker takes it.
struct Pending {
    seq: u64,
    units: usize,
    priority: u8,
    stream: Option<u64>,
    /// Index of the job's tenant (tenants are never removed).
    tenant: usize,
    work: Work,
    /// Shared with the job's [`JobHandle`].
    job: Arc<JobState>,
}

/// Per-tenant scheduling state: a DRR deficit and a priority-ordered
/// queue.
struct TenantState {
    name: String,
    weight: u64,
    deficit: u64,
    queue: Vec<Pending>,
    running_jobs: usize,
    running_units: usize,
    dispatched: u64,
}

/// Per-stream state: how many of the stream's jobs run right now, and
/// the cap.
#[derive(Debug)]
struct StreamState {
    running: usize,
    cap: usize,
    queued: u64,
}

struct FairState {
    free: usize,
    quantum: u64,
    next_seq: u64,
    next_stream: u64,
    tenants: Vec<TenantState>,
    ring_pos: usize,
    /// Jobs granted capacity that no worker has taken yet, in grant
    /// order.  Each holds its units, so there are never more of them than
    /// idle workers.
    ready: VecDeque<Pending>,
    /// Set when the last runner handle is dropped: workers exit once
    /// every submitted job has run.
    shutdown: bool,
    /// Whether the tenant at `ring_pos` has already received its quantum
    /// for the visit in progress (a capacity-interrupted visit resumes
    /// without a second credit).
    credited: bool,
    streams: HashMap<u64, StreamState>,
}

struct FairShared {
    state: Mutex<FairState>,
    /// Idle workers wait here for a ready job.
    work: Condvar,
}

/// The pool's worker threads, shared by every clone of the runner; the
/// last clone to go shuts them down.
struct Workers {
    shared: Arc<FairShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work.notify_all();
        let me = std::thread::current().id();
        for handle in self.handles.drain(..) {
            // A job that held the last clone drops it on a worker, which
            // cannot join itself; it exits on its own right after.
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// Live usage of one tenant, for admission control and telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// Tenant id.
    pub tenant: String,
    /// DRR weight.
    pub weight: u64,
    /// Jobs queued (submitted, not yet dispatched).
    pub queued: u64,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Units currently held by running jobs.
    pub running_units: usize,
    /// Jobs dispatched over the tenant's lifetime.
    pub dispatched: u64,
}

/// A deficit-round-robin fair scheduler over a shared capacity pool,
/// run by one persistent worker thread per unit.
#[derive(Clone)]
pub struct FairRunner {
    shared: Arc<FairShared>,
    total_units: usize,
    _workers: Arc<Workers>,
}

impl FairState {
    fn tenant_index(&mut self, tenant: &str) -> usize {
        if let Some(i) = self.tenants.iter().position(|t| t.name == tenant) {
            return i;
        }
        self.tenants.push(TenantState {
            name: tenant.to_string(),
            weight: 1,
            deficit: 0,
            queue: Vec::new(),
            running_jobs: 0,
            running_units: 0,
            dispatched: 0,
        });
        self.tenants.len() - 1
    }

    /// Whether the job's stream (if any) is below its concurrency cap.
    fn stream_has_room(&self, job: &Pending) -> bool {
        job.stream.is_none_or(|sid| {
            let s = &self.streams[&sid];
            s.running < s.cap
        })
    }

    /// Index into `tenants[ti].queue` of the next dispatchable job:
    /// highest priority first, submission order within a priority class,
    /// skipping jobs whose stream is at its concurrency cap or that need
    /// more units than are free.
    fn eligible(&self, ti: usize) -> Option<usize> {
        self.tenants[ti]
            .queue
            .iter()
            .enumerate()
            .filter(|(_, job)| job.units <= self.free && self.stream_has_room(job))
            .min_by_key(|(_, job)| (std::cmp::Reverse(job.priority), job.seq))
            .map(|(qi, _)| qi)
    }

    /// Whether tenant `ti` has a queued job it could pay for out of its
    /// current deficit if capacity were free (stream caps respected,
    /// free units ignored).
    fn has_affordable(&self, ti: usize) -> bool {
        let t = &self.tenants[ti];
        t.queue
            .iter()
            .any(|job| job.units as u64 <= t.deficit && self.stream_has_room(job))
    }

    /// Runs the DRR ring until no further job can be dispatched.  Called
    /// under the lock whenever queues or capacity change; every dispatch
    /// moves the job to the back of `ready` for a worker to take.
    ///
    /// A tenant's visit is credited `quantum × weight` exactly once; if
    /// the pool runs dry mid-visit while the tenant still has
    /// deficit-affordable work, the ring **holds position** and the visit
    /// resumes (without a second credit) when units free up — this is
    /// what makes weights meaningful on a pool that hands out one unit at
    /// a time.  When leftover free units are merely too small for the
    /// tenant's next job, the ring moves on (work-conserving: small jobs
    /// from other tenants may still fit) and the tenant keeps its deficit
    /// for its next visit.
    fn schedule(&mut self) {
        let n = self.tenants.len();
        if n == 0 {
            return;
        }
        // A visit that cannot serve its tenant is "idle"; a full ring of
        // idle visits means no job is dispatchable (out of capacity,
        // stream-capped, deficit-starved, or empty queues) and the ring
        // parks where it is until the next credit cycle below.
        let mut idle_visits = 0;
        while idle_visits < n {
            if self.free == 0 {
                // Nothing can dispatch; the ring keeps its position (and
                // any in-progress visit its credit) for the next release.
                return;
            }
            let ti = self.ring_pos % n;
            match self.eligible(ti) {
                Some(_) => {
                    if !self.credited {
                        let (quantum, w) = (self.quantum, self.tenants[ti].weight);
                        let t = &mut self.tenants[ti];
                        t.deficit = t.deficit.saturating_add(quantum * w);
                        self.credited = true;
                    }
                    idle_visits = 0;
                    while let Some(qi) = self.eligible(ti) {
                        let cost = self.tenants[ti].queue[qi].units as u64;
                        if cost > self.tenants[ti].deficit {
                            break;
                        }
                        let job = self.tenants[ti].queue.remove(qi);
                        let t = &mut self.tenants[ti];
                        t.deficit -= cost;
                        t.running_jobs += 1;
                        t.running_units += job.units;
                        t.dispatched += 1;
                        self.free -= job.units;
                        if let Some(sid) = job.stream {
                            let s = self.streams.get_mut(&sid).expect("stream exists");
                            s.running += 1;
                            s.queued -= 1;
                        }
                        self.ready.push_back(job);
                    }
                    if self.free == 0 && self.has_affordable(ti) {
                        // Visit interrupted by capacity, not exhausted:
                        // resume here (still credited) on the next call.
                        return;
                    }
                    // Classic DRR: a queue drained within its visit
                    // forfeits the leftover credit, otherwise a bursty
                    // tenant could bank deficit across idle spells and
                    // blow the starvation bound on its next burst.
                    if self.tenants[ti].queue.is_empty() {
                        self.tenants[ti].deficit = 0;
                    }
                }
                None => {
                    // Classic DRR: an empty queue forfeits its credit so
                    // idle tenants cannot bank an unbounded burst.
                    if self.tenants[ti].queue.is_empty() {
                        self.tenants[ti].deficit = 0;
                    }
                    idle_visits += 1;
                }
            }
            self.ring_pos = (self.ring_pos + 1) % n;
            self.credited = false;
        }
    }

    /// Takes a still-queued job out of its tenant's queue (`None` once it
    /// has been granted capacity).
    fn remove_queued(&mut self, tenant: usize, seq: u64) -> Option<Pending> {
        let queue = &mut self.tenants[tenant].queue;
        let job = queue.remove(queue.iter().position(|j| j.seq == seq)?);
        if let Some(sid) = job.stream {
            self.streams.get_mut(&sid).expect("stream exists").queued -= 1;
        }
        Some(job)
    }

    /// Returns an ended job's units to the pool.
    fn release(&mut self, tenant: usize, stream: Option<u64>, units: usize) {
        self.free += units;
        if let Some(st) = stream.and_then(|sid| self.streams.get_mut(&sid)) {
            st.running -= 1;
        }
        let t = &mut self.tenants[tenant];
        t.running_jobs -= 1;
        t.running_units -= units;
    }

    fn drained(&self) -> bool {
        self.ready.is_empty() && self.tenants.iter().all(|t| t.queue.is_empty())
    }
}

impl FairShared {
    /// Runs the ring and wakes a worker per ready job.  Called under the
    /// lock.
    fn dispatch(&self, s: &mut FairState) {
        s.schedule();
        for _ in 0..s.ready.len() {
            self.work.notify_one();
        }
    }

    /// A worker's life: take the oldest ready job, run it, release its
    /// units; wait when there is none.
    fn work(&self) {
        let mut s = self.state.lock();
        loop {
            let Some(granted) = s.ready.pop_front() else {
                if s.shutdown && s.drained() {
                    return;
                }
                s = self.work.wait(s);
                continue;
            };
            drop(s);
            let Pending {
                units,
                stream,
                tenant,
                work,
                job,
                ..
            } = granted;
            // Killed between grant and start: never runs, like a job
            // killed while queued.
            if !job.kill.is_killed() {
                job.started.store(true, Ordering::Relaxed);
                // A panicking job must not take its worker — and the
                // units it holds — with it.
                let _ = catch_unwind(AssertUnwindSafe(|| work(&job.kill)));
            }
            s = self.state.lock();
            s.release(tenant, stream, units);
            // This worker takes the first newly ready job itself.
            s.schedule();
            for _ in 1..s.ready.len() {
                self.work.notify_one();
            }
            // Units and stream slot are back before anyone joining the
            // job can observe it ended.
            job.finish();
            if s.shutdown {
                self.work.notify_all();
            }
        }
    }

    /// The kill hook of a submitted job: a job still queued is dequeued
    /// and ends without ever running (it never consumes the tenant's
    /// deficit); a granted or running one observes its switch.
    fn dequeue(&self, tenant: usize, seq: u64) {
        let removed = {
            let mut s = self.state.lock();
            let removed = s.remove_queued(tenant, seq);
            if removed.is_some() {
                self.dispatch(&mut s);
            }
            removed
        };
        // The entry (and the work closure in it) drops outside the lock.
        if let Some(job) = removed {
            job.job.finish();
        }
    }
}

impl FairRunner {
    /// Creates a fair runner over `units` shared resource units — and
    /// starts its `units` worker threads — with a DRR quantum of one cost
    /// unit (= one node unit per ring visit).
    ///
    /// # Panics
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> Self {
        Self::with_quantum(units, 1)
    }

    /// Creates a fair runner with an explicit DRR `quantum` (cost units
    /// credited per ring visit).  A larger quantum trades fairness
    /// granularity for fewer preemption points: a tenant may dispatch up
    /// to `quantum × weight` cost units per visit before the ring moves
    /// on, which is exactly the starvation bound other tenants observe.
    ///
    /// # Panics
    /// Panics if `units == 0` or `quantum == 0`.
    pub fn with_quantum(units: usize, quantum: u64) -> Self {
        assert!(units > 0, "need at least one resource unit");
        assert!(quantum > 0, "DRR quantum must be positive");
        let shared = Arc::new(FairShared {
            state: Mutex::new(FairState {
                free: units,
                quantum,
                next_seq: 0,
                next_stream: 0,
                tenants: Vec::new(),
                ring_pos: 0,
                ready: VecDeque::new(),
                shutdown: false,
                credited: false,
                streams: HashMap::new(),
            }),
            work: Condvar::new(),
        });
        // Every running job holds at least one unit, so `units` workers
        // can run whatever the ring grants.
        let handles = (0..units)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("job-pool-{k}"))
                    .spawn(move || shared.work())
                    .expect("spawn job-pool worker")
            })
            .collect();
        Self {
            _workers: Arc::new(Workers {
                shared: Arc::clone(&shared),
                handles,
            }),
            shared,
            total_units: units,
        }
    }

    /// Total resource units in the shared pool.
    pub fn total_units(&self) -> usize {
        self.total_units
    }

    /// Units currently free.
    pub fn free_units(&self) -> usize {
        self.shared.state.lock().free
    }

    /// Sets a tenant's DRR weight (default 1).  Takes effect at the
    /// tenant's next ring visit.
    pub fn set_weight(&self, tenant: &str, weight: u64) {
        assert!(weight > 0, "DRR weight must be positive");
        let mut s = self.shared.state.lock();
        let ti = s.tenant_index(tenant);
        s.tenants[ti].weight = weight;
    }

    /// Live usage per tenant, in ring (first-submission) order.
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        let s = self.shared.state.lock();
        s.tenants
            .iter()
            .map(|t| TenantUsage {
                tenant: t.name.clone(),
                weight: t.weight,
                queued: t.queue.len() as u64,
                running_jobs: t.running_jobs,
                running_units: t.running_units,
                dispatched: t.dispatched,
            })
            .collect()
    }

    /// Jobs queued across all tenants.
    pub fn queued_jobs(&self) -> u64 {
        let s = self.shared.state.lock();
        s.tenants.iter().map(|t| t.queue.len() as u64).sum()
    }

    /// Opens a stream for one study's jobs: submissions through the
    /// returned handle share the study's tenant/priority and at most
    /// `max_concurrent` of them run at once (use 1 for the sequential
    /// dispatch that bit-reproducible studies require).
    pub fn open_stream(&self, tenant: &str, priority: u8, max_concurrent: usize) -> StreamHandle {
        assert!(max_concurrent > 0, "stream needs concurrency ≥ 1");
        let mut s = self.shared.state.lock();
        s.tenant_index(tenant);
        let id = s.next_stream;
        s.next_stream += 1;
        s.streams.insert(
            id,
            StreamState {
                running: 0,
                cap: max_concurrent,
                queued: 0,
            },
        );
        StreamHandle {
            runner: self.clone(),
            tenant: tenant.to_string(),
            priority,
            stream: id,
        }
    }

    /// Drops a finished stream's bookkeeping.  The stream must be idle
    /// (no queued or running jobs).
    pub fn close_stream(&self, id: u64) {
        let mut s = self.shared.state.lock();
        if let Some(st) = s.streams.get(&id) {
            assert!(
                st.running == 0 && st.queued == 0,
                "closing stream {id} with {} running / {} queued jobs",
                st.running,
                st.queued
            );
            s.streams.remove(&id);
        }
    }

    /// Submits a job for `tenant` at `priority` needing `units` units.
    /// The job queues until the DRR ring grants it capacity and a pool
    /// worker runs it; `work` must poll its [`KillSwitch`].  Killing a
    /// queued job dequeues it at once, without running (it never consumes
    /// the tenant's deficit).
    ///
    /// # Panics
    /// Panics if `units` is zero or exceeds the pool capacity.
    pub fn submit<F>(&self, tenant: &str, priority: u8, units: usize, work: F) -> JobHandle
    where
        F: FnOnce(&KillSwitch) + Send + 'static,
    {
        self.submit_in(tenant, priority, None, units, Box::new(work))
    }

    fn submit_in(
        &self,
        tenant: &str,
        priority: u8,
        stream: Option<u64>,
        units: usize,
        work: Work,
    ) -> JobHandle {
        assert!(units > 0, "a job must need at least one unit");
        assert!(
            units <= self.total_units,
            "job needs {units} units > capacity {}",
            self.total_units
        );
        let job = Arc::new(JobState::new());
        // Enqueue on the submitting thread: submission order is queue
        // order, whichever worker ends up running the job.
        let (seq, ti) = {
            let mut s = self.shared.state.lock();
            let seq = s.next_seq;
            s.next_seq += 1;
            if let Some(sid) = stream {
                s.streams
                    .get_mut(&sid)
                    .expect("submitting into a closed stream")
                    .queued += 1;
            }
            let ti = s.tenant_index(tenant);
            s.tenants[ti].queue.push(Pending {
                seq,
                units,
                priority,
                stream,
                tenant: ti,
                work,
                job: Arc::clone(&job),
            });
            self.shared.dispatch(&mut s);
            (seq, ti)
        };
        // Weak: the hook lives in the switch, the switch in the queue
        // entry, the entry in the shared state.
        let shared: Weak<FairShared> = Arc::downgrade(&self.shared);
        job.kill.on_kill(move || {
            if let Some(shared) = shared.upgrade() {
                shared.dequeue(ti, seq);
            }
        });
        JobHandle {
            kill: job.kill.clone(),
            state: job,
        }
    }
}

/// One study's submission handle into a shared [`FairRunner`] pool:
/// fixed tenant and priority, stream-capped concurrency.  Implements
/// [`Dispatcher`], so a [`StudyContext`] runs on it unchanged.
///
/// [`StudyContext`]: https://docs.rs/melissa
#[derive(Clone)]
pub struct StreamHandle {
    runner: FairRunner,
    tenant: String,
    priority: u8,
    stream: u64,
}

impl StreamHandle {
    /// The stream id (pass to [`FairRunner::close_stream`] when done).
    pub fn id(&self) -> u64 {
        self.stream
    }
}

impl Dispatcher for StreamHandle {
    fn submit_boxed(&self, units: usize, work: Work) -> JobHandle {
        self.runner
            .submit_in(&self.tenant, self.priority, Some(self.stream), units, work)
    }

    fn queued_jobs(&self) -> u64 {
        let s = self.runner.shared.state.lock();
        s.streams.get(&self.stream).map_or(0, |st| st.queued)
    }

    fn free_units(&self) -> usize {
        self.runner.free_units()
    }

    fn total_units(&self) -> usize {
        self.runner.total_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A gate job that holds its unit until released, so tests can build
    /// a deterministic backlog before any scheduling decision is taken.
    fn gate(runner: &FairRunner, tenant: &str) -> (KillSwitch, JobHandle) {
        let release = KillSwitch::new();
        let wait = release.clone();
        let h = runner.submit(tenant, 0, 1, move |_| {
            while !wait.is_killed() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        while runner.free_units() != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        (release, h)
    }

    #[test]
    fn capacity_limits_concurrency() {
        let runner = FairRunner::new(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                let peak = Arc::clone(&peak);
                let current = Arc::clone(&current);
                runner.submit(if i % 2 == 0 { "a" } else { "b" }, 0, 1, move |_| {
                    let c = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(c, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    current.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(runner.free_units(), 2);
        let usage = runner.tenant_usage();
        assert_eq!(usage.iter().map(|u| u.dispatched).sum::<u64>(), 6);
        assert!(usage.iter().all(|u| u.running_jobs == 0 && u.queued == 0));
    }

    #[test]
    fn one_tenant_equal_priority_is_fifo() {
        let runner = FairRunner::new(1);
        let (release, blocker) = gate(&runner, "t");
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<JobHandle> = (0..8usize)
            .map(|i| {
                let order = Arc::clone(&order);
                runner.submit("t", 0, 1, move |_| order.lock().push(i))
            })
            .collect();
        release.kill();
        blocker.join();
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn higher_priority_jumps_the_tenant_queue() {
        let runner = FairRunner::new(1);
        let (release, blocker) = gate(&runner, "t");
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (name, prio) in [("low-1", 0u8), ("low-2", 0), ("high", 7)] {
            let order = Arc::clone(&order);
            handles.push(runner.submit("t", prio, 1, move |_| order.lock().push(name)));
        }
        release.kill();
        blocker.join();
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), vec!["high", "low-1", "low-2"]);
    }

    #[test]
    fn stream_cap_serializes_a_study_on_a_wide_pool() {
        let runner = FairRunner::new(4);
        let stream = runner.open_stream("t", 0, 1);
        let current = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<JobHandle> = (0..6usize)
            .map(|i| {
                let current = Arc::clone(&current);
                let peak = Arc::clone(&peak);
                let order = Arc::clone(&order);
                stream.submit_boxed(
                    1,
                    Box::new(move |_| {
                        let c = current.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(c, Ordering::SeqCst);
                        order.lock().push(i);
                        std::thread::sleep(Duration::from_millis(5));
                        current.fetch_sub(1, Ordering::SeqCst);
                    }),
                )
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "stream cap violated");
        assert_eq!(*order.lock(), (0..6).collect::<Vec<_>>());
        runner.close_stream(stream.id());
    }

    #[test]
    fn killed_queued_job_never_runs_and_frees_nothing() {
        let runner = FairRunner::new(1);
        let (release, blocker) = gate(&runner, "t");
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let doomed = runner.submit("t", 0, 1, move |_| {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        doomed.kill.kill();
        doomed.join();
        assert_eq!(runner.queued_jobs(), 0);
        release.kill();
        blocker.join();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(runner.free_units(), 1);
    }

    #[test]
    fn many_jobs_run_on_the_pool_workers_only() {
        let units = 3;
        let runner = FairRunner::new(units);
        let threads = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let handles: Vec<JobHandle> = (0..200)
            .map(|i| {
                let threads = Arc::clone(&threads);
                runner.submit(if i % 3 == 0 { "a" } else { "b" }, 0, 1, move |_| {
                    threads.lock().insert(std::thread::current().id());
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let threads = threads.lock();
        assert!(
            (1..=units).contains(&threads.len()),
            "200 jobs ran on {} threads, pool has {units}",
            threads.len()
        );
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn killed_queued_stream_job_ends_at_once_and_leaves_the_stream_idle() {
        let runner = FairRunner::new(1);
        let (release, blocker) = gate(&runner, "t");
        let stream = runner.open_stream("t", 0, 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let doomed: Vec<JobHandle> = (0..3)
            .map(|_| {
                let ran = Arc::clone(&ran);
                stream.submit_boxed(
                    1,
                    Box::new(move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }),
                )
            })
            .collect();
        assert_eq!(stream.queued_jobs(), 3);
        // The blocker still holds the only unit: these joins return
        // because the kill dequeued the jobs, not because they ran.
        for job in doomed {
            job.kill.kill();
            assert!(job.is_finished() && !job.has_started());
            job.join();
        }
        assert_eq!(runner.queued_jobs(), 0);
        runner.close_stream(stream.id());
        release.kill();
        blocker.join();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(runner.free_units(), 1);
    }

    #[test]
    fn weights_split_capacity_proportionally() {
        // Heavy tenant weight 2, light weight 1, both with deep backlogs
        // on one unit: each ring cycle serves two heavy jobs then one
        // light job.
        let runner = FairRunner::new(1);
        runner.set_weight("heavy", 2);
        let (release, blocker) = gate(&runner, "warm");
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..6 {
            let order = Arc::clone(&order);
            handles.push(runner.submit("heavy", 0, 1, move |_| order.lock().push(format!("h{i}"))));
        }
        for i in 0..3 {
            let order = Arc::clone(&order);
            handles.push(runner.submit("light", 0, 1, move |_| order.lock().push(format!("l{i}"))));
        }
        release.kill();
        blocker.join();
        for h in handles {
            h.join();
        }
        let order = order.lock().clone();
        // In every prefix the heavy tenant leads by at most its weight's
        // share: after k light jobs at least 2k heavy jobs have run.
        for (pos, job) in order.iter().enumerate() {
            if job.starts_with('l') {
                let l_done = order[..=pos].iter().filter(|j| j.starts_with('l')).count();
                let h_done = order[..=pos].iter().filter(|j| j.starts_with('h')).count();
                assert!(
                    h_done >= 2 * (l_done - 1),
                    "light job {job} at {pos} ran before its weight share: {order:?}"
                );
            }
        }
    }
}
