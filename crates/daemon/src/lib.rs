//! # melissa-daemon — Melissa as a multi-tenant service
//!
//! The standalone launcher runs one study per process.  This crate runs
//! Melissa as a *persistent daemon* hosting many concurrent studies from
//! many tenants over one shared node pool:
//!
//! * [`protocol`] — the control-plane wire protocol: serialized
//!   [`StudyConfig`](melissa::StudyConfig) submissions with tenant id
//!   and priority, plus the `status`/`cancel`/`results` lifecycle RPCs,
//!   all over the study transport's length-prefixed frames;
//! * [`admission`] — per-tenant quotas (concurrent studies, groups,
//!   node units) and a bounded submission queue with explicit
//!   reject-over-block semantics;
//! * [`daemon`] — the service itself: each admitted study runs the
//!   unchanged launcher supervision inside its own `study<id>/…`
//!   endpoint scope and dispatches groups through a per-study stream
//!   into the shared deficit-round-robin
//!   [`FairRunner`](melissa_scheduler::FairRunner) pool;
//! * [`snapshot`] — the daemon-level telemetry aggregate (queue depths,
//!   per-tenant usage, admission decisions), scraped on the control
//!   endpoint in the shard scrape's formats;
//! * [`client`] — the tenant-side [`DaemonClient`], with admission
//!   rejections typed end to end as
//!   [`ClientError::QuotaExceeded`](melissa::client::ClientError).
//!
//! The load-bearing invariant: because each study's stream caps its
//! concurrency at the study's own `max_concurrent_groups` and the fair
//! scheduler dispatches a stream's jobs in submission order, a
//! daemon-hosted study is **bit-identical** to the same-seed standalone
//! run — even with other tenants' studies interleaved on the pool.
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use melissa::StudyConfig;
//! use melissa_daemon::{Daemon, DaemonClient, DaemonConfig};
//! use melissa_transport::{make_transport, TransportKind};
//!
//! let transport = make_transport(TransportKind::InProcess);
//! let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
//! let client = DaemonClient::new(transport, Duration::from_secs(5));
//! let id = client.submit("acme", 0, StudyConfig::tiny()).expect("admitted");
//! client.wait(id, Duration::from_secs(120)).expect("finished");
//! let results = client.results(id).expect("results");
//! println!("S_1 map has {} cells", results.n_cells());
//! daemon.stop();
//! ```

pub mod admission;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod snapshot;

pub use admission::{AdmissionController, AdmissionStats, TenantLoad, TenantQuota};
pub use client::{DaemonClient, StudyStatus};
pub use daemon::{Daemon, DaemonConfig};
pub use protocol::{DaemonOp, DaemonReply, DaemonRequest, StudyState};
pub use snapshot::{CtlWakeups, DaemonSnapshot, StudySnapshot, TenantSnapshot};
