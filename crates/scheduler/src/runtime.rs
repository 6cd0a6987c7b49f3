//! Real concurrent job runner for live studies.
//!
//! Executes simulation-group jobs under a capacity limit: a job waits in
//! a queue for free resource units (the stand-in for cluster nodes), is
//! run by one of the pool's worker threads, and releases its units —
//! exactly the lifecycle the batch simulator models, but on real work.
//! Every job receives a [`KillSwitch`] so the launcher can kill and
//! resubmit it (paper Section 4.2.2).
//!
//! This module holds what every runner shares — the [`JobHandle`] a
//! submission returns and the [`Dispatcher`] surface supervisors submit
//! through — and [`JobRunner`], the pool a standalone study owns.  The
//! grant protocol and the worker pool live in [`crate::fair`]: a
//! `JobRunner` is the one-tenant, one-stream case of the [`FairRunner`],
//! so a standalone study and a daemon-hosted one dispatch through the
//! same code.
//!
//! Queued jobs start in **submission order** (FCFS, the batch-scheduler
//! default): a job is enqueued on the submitting thread, granted capacity
//! under one lock, and taken by the workers in grant order.  Deterministic
//! start order is what lets a sequential study reproduce bit-identical
//! statistics across transport backends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use melissa_transport::sync::{Condvar, Mutex};
use melissa_transport::KillSwitch;

use crate::fair::{FairRunner, StreamHandle};

/// What a job's handle, its queue entry and the worker running it share.
pub(crate) struct JobState {
    pub(crate) kill: KillSwitch,
    /// Set the moment a worker starts the job's work (stays `false` for
    /// the whole queued wait).
    pub(crate) started: AtomicBool,
    /// Set once the job has ended — its work returned, or a kill took it
    /// out of the queue before it ever ran — and its units are back in
    /// the pool.
    ended: Mutex<bool>,
    ended_cv: Condvar,
}

impl JobState {
    pub(crate) fn new() -> Self {
        Self {
            kill: KillSwitch::new(),
            started: AtomicBool::new(false),
            ended: Mutex::new(false),
            ended_cv: Condvar::new(),
        }
    }

    pub(crate) fn finish(&self) {
        *self.ended.lock() = true;
        self.ended_cv.notify_all();
    }
}

/// Handle to a submitted job.
pub struct JobHandle {
    /// The job's kill switch (flipping it asks the job to stop; a job
    /// still queued is dequeued on the spot and never runs).
    pub kill: KillSwitch,
    pub(crate) state: Arc<JobState>,
}

impl JobHandle {
    /// Waits for the job to end.
    pub fn join(self) {
        let mut ended = self.state.ended.lock();
        while !*ended {
            ended = self.state.ended_cv.wait(ended);
        }
    }

    /// Whether the job has ended.
    pub fn is_finished(&self) -> bool {
        *self.state.ended.lock()
    }

    /// Whether the job has been granted capacity and begun running.
    /// Supervisors use this to tell a queued job (waiting its turn on a
    /// busy shared pool — not a fault) from a started-but-silent one
    /// (a zombie candidate).
    pub fn has_started(&self) -> bool {
        self.state.started.load(Ordering::Relaxed)
    }
}

/// A capacity pool that group supervisors can submit jobs into.
///
/// Implemented by the fair runner's [`StreamHandle`] (one study's slice
/// of a pool many studies share under deficit-round-robin arbitration)
/// and by [`JobRunner`] (a pool one study owns, which is a `StreamHandle`
/// on a private pool).  The launcher only needs this surface, which is what
/// lets a study run unchanged inside the multi-tenant daemon.
pub trait Dispatcher: Send + Sync {
    /// Submits a job needing `units` units; the work closure must poll
    /// its [`KillSwitch`].
    fn submit_boxed(&self, units: usize, work: Box<dyn FnOnce(&KillSwitch) + Send>) -> JobHandle;

    /// Jobs submitted through *this* dispatcher not yet granted capacity.
    fn queued_jobs(&self) -> u64;

    /// Units currently free in the underlying pool.
    fn free_units(&self) -> usize;

    /// Total units in the underlying pool.
    fn total_units(&self) -> usize;
}

/// A capacity-limited job runner with FCFS start order: the pool a
/// standalone study owns (`units` worker threads, started with it).
///
/// It is a [`FairRunner`] with one tenant and one stream as wide as the
/// pool, where deficit round robin reduces to FIFO.
#[derive(Clone)]
pub struct JobRunner {
    stream: StreamHandle,
}

impl Dispatcher for JobRunner {
    fn submit_boxed(&self, units: usize, work: Box<dyn FnOnce(&KillSwitch) + Send>) -> JobHandle {
        self.stream.submit_boxed(units, work)
    }

    fn queued_jobs(&self) -> u64 {
        self.stream.queued_jobs()
    }

    fn free_units(&self) -> usize {
        self.stream.free_units()
    }

    fn total_units(&self) -> usize {
        self.stream.total_units()
    }
}

impl JobRunner {
    /// Creates a runner with `units` resource units.
    ///
    /// # Panics
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> Self {
        Self {
            stream: FairRunner::new(units).open_stream("", 0, units),
        }
    }

    /// Submits a job needing `units` units.  The job is enqueued at
    /// submission and waits there until it reaches the head of the queue
    /// *and* capacity is available (FCFS batch-queue semantics); a pool
    /// worker then runs `work` and releases the units.  `work` must poll
    /// the passed [`KillSwitch`] to honour kills.
    ///
    /// # Panics
    /// Panics if `units` is zero or exceeds the runner's total capacity
    /// (the job could never start).
    pub fn submit<F>(&self, units: usize, work: F) -> JobHandle
    where
        F: FnOnce(&KillSwitch) + Send + 'static,
    {
        self.submit_boxed(units, Box::new(work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_transport::sync::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn capacity_limits_concurrency() {
        let runner = JobRunner::new(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle> = (0..6)
            .map(|_| {
                let peak = Arc::clone(&peak);
                let current = Arc::clone(&current);
                runner.submit(1, move |_| {
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
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(runner.free_units(), 2);
    }

    #[test]
    fn queued_jobs_start_in_submission_order() {
        let runner = JobRunner::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<JobHandle> = (0..8usize)
            .map(|i| {
                let order = Arc::clone(&order);
                runner.submit(1, move |_| {
                    order.lock().push(i);
                    std::thread::sleep(Duration::from_millis(2));
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn killed_queued_job_passes_its_turn() {
        let runner = JobRunner::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let blocker = runner.submit(1, |_| std::thread::sleep(Duration::from_millis(50)));
        let doomed = {
            let order = Arc::clone(&order);
            runner.submit(1, move |_| order.lock().push("doomed"))
        };
        let survivor = {
            let order = Arc::clone(&order);
            runner.submit(1, move |_| order.lock().push("survivor"))
        };
        doomed.kill.kill();
        doomed.join();
        blocker.join();
        survivor.join();
        assert_eq!(*order.lock(), vec!["survivor"]);
        assert_eq!(runner.free_units(), 1);
    }

    #[test]
    fn running_job_observes_kill() {
        let runner = JobRunner::new(1);
        let iterations = Arc::new(AtomicUsize::new(0));
        let iters = Arc::clone(&iterations);
        let job = runner.submit(1, move |kill| {
            while !kill.is_killed() {
                iters.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        job.kill.kill();
        job.join();
        assert!(iterations.load(Ordering::SeqCst) > 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_job_panics() {
        let runner = JobRunner::new(1);
        runner.submit(2, |_| {});
    }

    #[test]
    fn queued_jobs_tracks_the_fcfs_queue() {
        let runner = JobRunner::new(1);
        assert_eq!(runner.queued_jobs(), 0);
        let release = KillSwitch::new();
        let gate = release.clone();
        let blocker = runner.submit(1, move |_| {
            while !gate.is_killed() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Wait until the blocker actually holds the unit.
        while runner.free_units() != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(runner.queued_jobs(), 0, "running jobs are not queued");
        let queued = runner.submit(1, |_| {});
        assert_eq!(runner.queued_jobs(), 1);
        release.kill();
        blocker.join();
        queued.join();
        assert_eq!(runner.queued_jobs(), 0);
    }
}
