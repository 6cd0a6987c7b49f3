//! # melissa-scheduler — batch scheduler simulator and concurrent job runner
//!
//! Melissa's elasticity rests on the batch scheduler: every simulation
//! group is an independent job, submitted separately, started whenever
//! resources free up, and killable/resubmittable at any time (paper
//! Sections 4.1.4 and 4.2).  The paper's experiments ran under a
//! production scheduler on the Curie machine; this crate rebuilds the two
//! pieces the reproduction needs:
//!
//! * [`des`] + [`cluster`] + [`batch`] — a **discrete-event batch-scheduler
//!   simulator** (FIFO queue, submission throttle, node-level allocation,
//!   machine-availability ramp, job traces) that drives the full-scale
//!   performance model behind Figures 6a–6d;
//! * [`fair`] — the **real concurrent job runner**: capacity-limited jobs
//!   with cooperative kill switches, granted under one lock by deficit
//!   round robin across tenants, priority within a tenant and per-stream
//!   concurrency caps, and run by a persistent pool of one worker thread
//!   per unit (a job is a queue entry until a worker takes it — no thread
//!   per job).  It lets many studies share one node pool under the
//!   multi-tenant daemon;
//! * [`runtime`] — what every submission shares (the [`JobHandle`], the
//!   [`Dispatcher`] surface supervisors submit through) and
//!   [`JobRunner`], the pool a standalone study owns: the one-tenant case
//!   of the fair runner, where round robin is FIFO.
//!
//! [`trace`] provides the time-series recorder used by both.

pub mod batch;
pub mod cluster;
pub mod des;
pub mod fair;
pub mod runtime;
pub mod trace;

pub use batch::{Availability, BatchSim, JobRecord, JobRequest, JobState};
pub use cluster::Cluster;
pub use des::EventQueue;
pub use fair::{FairRunner, StreamHandle, TenantUsage};
pub use runtime::{Dispatcher, JobHandle, JobRunner};
pub use trace::TimeSeries;
