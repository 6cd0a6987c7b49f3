//! # melissa — large scale in transit sensitivity analysis
//!
//! A from-scratch Rust reproduction of **Melissa** (Terraz, Ribes,
//! Fournier, Iooss, Raffin — *Melissa: Large Scale In Transit Sensitivity
//! Analysis Avoiding Intermediate Files*, SC'17): a fault-tolerant,
//! elastic, file-avoiding framework computing ubiquitous Sobol' indices
//! from thousands of simulation runs with **zero intermediate storage**.
//!
//! ## Architecture (paper Fig. 3)
//!
//! * [`server`] — the parallel Melissa Server: worker threads own mesh
//!   slabs and fold incoming simulation results into iterative statistics
//!   the moment they arrive, then discard the data;
//! * [`client`] + [`group`] — simulation groups of `p + 2` rank-decomposed
//!   solver instances, connected dynamically over the ZeroMQ-substitute
//!   transport, forwarding every timestep through the two-stage
//!   gather/redistribute pattern (paper Fig. 4);
//! * [`launcher`] — study orchestration and the full fault-tolerance
//!   protocol (group timeouts, zombies, server checkpoint/restart, retry
//!   caps, convergence loopback);
//! * [`shard`] — the elasticity layer above one server: `N` complete
//!   server instances behind a seeded group-hash router, merged by a
//!   deterministic reduction at study end, with per-shard failover;
//! * [`study`] — the one-call high-level API;
//! * [`scrape`] — live telemetry snapshots of a running study's shards.
//!
//! A repository-level tour of these layers — the data-flow diagram of the
//! paper mapped to module paths and the bit-exactness invariant each
//! layer preserves — lives in `docs/ARCHITECTURE.md`.
//!
//! ## Study lifecycle
//!
//! Every study, sharded or not, moves through four phases:
//!
//! 1. **Launch** — [`Study::run`] validates the [`StudyConfig`], draws
//!    the pick-freeze design (`n_groups` rows of `p + 2` parameter
//!    vectors), starts the server instance(s) and submits every group to
//!    the batch runner.  With [`StudyConfig::n_shards`]` > 1` the seeded
//!    group-hash router ([`shard::GroupRouter`]) decides which server
//!    instance each group reports to.
//! 2. **Ingest** — groups stream every timestep to the server workers,
//!    which fold each completed `(group, timestep)` assembly into the
//!    iterative statistics in one fused sweep and discard the data; the
//!    launcher meanwhile supervises faults (kill/resubmit, checkpoint
//!    restore) and watches the convergence signals.
//! 3. **Finalize** — groups flush their links, the server(s) stop, and a
//!    sharded study folds the per-shard worker states, in place, into
//!    one state set ([`shard::reduce_owned_states`]).
//! 4. **Report** — the final [`StudyOutput`] carries the assembled
//!    statistics maps ([`StudyResults`]) and the launcher's full
//!    accounting ([`StudyReport`]: restarts, data volume, backpressure,
//!    convergence signals, the failure/restart log).
//!
//! ## Quick start
//!
//! ```no_run
//! use melissa::{Study, StudyConfig};
//!
//! let mut config = StudyConfig::tiny();
//! config.n_groups = 16;
//! let output = Study::new(config).run().expect("study failed");
//! println!("{}", output.report);
//! let s_map = output.results.first_order_field(10, 0);
//! assert_eq!(s_map.len(), output.results.n_cells());
//! ```
//!
//! See [`StudyConfig`] for the deployment knobs (transport backend, shard
//! count) and [`shard`] for the multi-server guarantees.

pub mod client;
pub mod config;
pub mod fault;
pub mod group;
pub mod launcher;
pub mod protocol;
pub mod report;
pub mod scrape;
pub mod server;
pub mod shard;
pub mod study;
mod supervisor;

pub use config::StudyConfig;
pub use fault::{FaultPlan, GroupFault};
pub use launcher::StudyRuntime;
pub use report::StudyReport;
pub use shard::{GroupRouter, NodeMap};
pub use study::{Study, StudyOutput, StudyResults};
