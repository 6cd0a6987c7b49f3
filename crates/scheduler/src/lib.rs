//! # melissa-scheduler — the concurrent job runner
//!
//! Melissa's elasticity rests on the batch scheduler: every simulation
//! group is an independent job, submitted separately, started whenever
//! resources free up, and killable/resubmittable at any time (paper
//! Sections 4.1.4 and 4.2).  This crate is the runner that plays that
//! part for every study:
//!
//! * [`fair`] — capacity-limited jobs with cooperative kill switches,
//!   granted under one lock by deficit round robin across tenants,
//!   priority within a tenant and per-stream concurrency caps, and run by
//!   a persistent pool of one worker thread per unit (a job is a queue
//!   entry until a worker takes it — no thread per job).  It lets many
//!   studies share one node pool under the multi-tenant daemon;
//! * [`runtime`] — what every submission shares (the [`JobHandle`], the
//!   [`Dispatcher`] surface supervisors submit through) and
//!   [`JobRunner`], the pool a standalone study owns: the one-tenant case
//!   of the fair runner, where round robin is FIFO.
//!
//! The replay of the paper's Curie batch queue behind Figures 6a–6d is
//! not product code; it lives in the bench crate (`melissa_bench::curie`).

pub mod fair;
pub mod runtime;

pub use fair::{FairRunner, StreamHandle, TenantUsage};
pub use runtime::{Dispatcher, JobHandle, JobRunner};
