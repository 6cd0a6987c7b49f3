//! The tenant-side client for the daemon control plane.
//!
//! [`DaemonClient`] drives the lifecycle RPCs — `submit`, `status`,
//! `wait`, `cancel`, `results` — over the study transport itself: each
//! call binds a throwaway reply endpoint, sends one [`DaemonRequest`]
//! frame to [`names::daemon_ctl`], and waits for the single reply
//! (`wait`'s is held back by the daemon until the study ends).  Errors are
//! the typed [`ClientError`] the rest of the framework uses; an
//! admission rejection surfaces as
//! [`ClientError::QuotaExceeded`] with the exhausted resource name, end
//! to end from the daemon's admission controller.
//!
//! Live progress never flows through the control plane: scrape the
//! per-study endpoints ([`scrape_study`](DaemonClient::scrape_study))
//! or the daemon aggregate
//! ([`scrape_daemon`](DaemonClient::scrape_daemon)) instead.
//!
//! [`names::daemon_ctl`]: melissa_transport::directory::names::daemon_ctl

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use melissa::client::ClientError;
use melissa::server::checkpoint::unpack_state;
use melissa::{StudyConfig, StudyResults};
use melissa_telemetry::{scrape_endpoint_reply, ScrapeFormat, ScrapeReply};
use melissa_transport::codec::Wire;
use melissa_transport::directory::names;
use melissa_transport::{ConnectError, Transport};

use crate::protocol::{DaemonOp, DaemonReply, DaemonRequest, StudyState};

static REPLY_NONCE: AtomicU64 = AtomicU64::new(0);

/// A study's lifecycle view, as returned by
/// [`status`](DaemonClient::status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyStatus {
    /// The study id.
    pub study: u64,
    /// Current lifecycle state.
    pub state: StudyState,
    /// Owning tenant.
    pub tenant: String,
    /// Groups fully integrated (filled once the study finishes).
    pub groups_finished: u64,
    /// Groups in the design.
    pub n_groups: u64,
}

/// A client handle onto one daemon's control plane.
pub struct DaemonClient {
    transport: Arc<dyn Transport>,
    timeout: Duration,
}

fn connect_failure(e: ConnectError) -> ClientError {
    match e {
        ConnectError::NameNotFound { name, directory } => {
            ClientError::NameNotFound { name, directory }
        }
        ConnectError::QuotaExceeded { tenant, resource } => {
            ClientError::QuotaExceeded { tenant, resource }
        }
        ConnectError::NotFound { .. } | ConnectError::Io { .. } => ClientError::ServerUnavailable,
    }
}

impl DaemonClient {
    /// Creates a client speaking to the daemon bound on `transport`.
    /// `timeout` bounds every request round trip.
    pub fn new(transport: Arc<dyn Transport>, timeout: Duration) -> Self {
        Self { transport, timeout }
    }

    /// One request/reply round trip against the control endpoint.
    fn request(&self, op: DaemonOp) -> Result<DaemonReply, ClientError> {
        self.request_within(op, self.timeout)
    }

    /// A round trip whose reply may take up to `reply_timeout`.
    fn request_within(
        &self,
        op: DaemonOp,
        reply_timeout: Duration,
    ) -> Result<DaemonReply, ClientError> {
        let reply_to = format!(
            "ctl/reply/{}/{}",
            std::process::id(),
            REPLY_NONCE.fetch_add(1, Ordering::Relaxed)
        );
        let rx = self.transport.bind(&reply_to, 8);
        let result = (|| {
            let tx = self
                .transport
                .connect_retry(&names::daemon_ctl(), self.timeout)
                .map_err(connect_failure)?;
            let request = DaemonRequest {
                reply_to: reply_to.clone(),
                op,
            };
            tx.send(request.to_frame())
                .map_err(|_| ClientError::SendFailed)?;
            let frame = rx
                .recv_timeout(reply_timeout)
                .map_err(|_| ClientError::HandshakeTimeout)?;
            DaemonReply::from_shared(&frame).map_err(|e| ClientError::BadHandshake {
                detail: format!("daemon reply: {e}"),
            })
        })();
        self.transport.unbind(&reply_to);
        result
    }

    /// Submits a study under `tenant` at intra-tenant `priority`
    /// (0 = highest) and returns the daemon-assigned study id.  An
    /// admission rejection returns [`ClientError::QuotaExceeded`].
    pub fn submit(
        &self,
        tenant: &str,
        priority: u8,
        config: StudyConfig,
    ) -> Result<u64, ClientError> {
        match self.request(DaemonOp::Submit {
            tenant: tenant.to_string(),
            priority,
            config: Box::new(config),
        })? {
            DaemonReply::Submitted { study } => Ok(study),
            DaemonReply::Rejected { tenant, resource } => {
                Err(ClientError::QuotaExceeded { tenant, resource })
            }
            other => Err(unexpected("submit", &other)),
        }
    }

    /// Fetches a study's lifecycle state.
    pub fn status(&self, study: u64) -> Result<StudyStatus, ClientError> {
        status_of("status", self.request(DaemonOp::Status { study })?)
    }

    /// Cancels a queued or running study (idempotent on finished ones).
    pub fn cancel(&self, study: u64) -> Result<(), ClientError> {
        match self.request(DaemonOp::Cancel { study })? {
            DaemonReply::Cancelled { .. } => Ok(()),
            other => Err(unexpected("cancel", &other)),
        }
    }

    /// Fetches a finished study's statistics, reassembled into the same
    /// [`StudyResults`] the standalone launcher returns — worker states
    /// travel in the bit-exact checkpoint codec, so every statistics
    /// field matches a same-seed standalone run to the last bit.
    ///
    /// The daemon does not keep them in memory: a study writes them once,
    /// before it is `Done`, to one results file per server worker under
    /// `<checkpoint_dir>/study<id>/`, and every call reads those files
    /// again.  A file that is gone or unreadable comes back as a
    /// [`ClientError::BadHandshake`] naming its path.
    ///
    /// Who holds which copy: the daemon reads the files straight into one
    /// reply frame of exactly its size; on an in-process transport that
    /// frame is the one this call receives, over TCP the frame the link
    /// read.  Each worker is unpacked from its window of that frame, with
    /// no copy of its bytes, and the frame is freed once the last worker
    /// is unpacked — at the peak, one packed image of the results and the
    /// unpacked states.
    pub fn results(&self, study: u64) -> Result<StudyResults, ClientError> {
        match self.request(DaemonOp::Results { study })? {
            DaemonReply::Results {
                p,
                n_timesteps,
                n_cells,
                workers,
                ..
            } => {
                let states = workers
                    .into_iter()
                    .enumerate()
                    .map(|(i, blob)| {
                        unpack_state(&blob, i).map_err(|e| ClientError::BadHandshake {
                            detail: format!("worker state {i}: {e}"),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(StudyResults::from_worker_states(
                    p as usize,
                    n_timesteps as usize,
                    n_cells as usize,
                    states,
                ))
            }
            other => Err(unexpected("results", &other)),
        }
    }

    /// Blocks until the study reaches a terminal state, or `deadline`
    /// passes (then [`ClientError::HandshakeTimeout`]).  One request: the
    /// daemon answers it when the study has ended *and* its admission
    /// reservation is back, so a submission made on return is judged
    /// against the freed quota.
    pub fn wait(&self, study: u64, deadline: Duration) -> Result<StudyStatus, ClientError> {
        status_of(
            "wait",
            self.request_within(DaemonOp::Wait { study }, deadline)?,
        )
    }

    /// Asks the daemon to cancel everything and exit.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.request(DaemonOp::Shutdown)? {
            DaemonReply::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Scrapes the daemon-level aggregate snapshot (queue depths,
    /// per-tenant usage, admission decisions) as rendered text.
    pub fn scrape_daemon(&self, format: ScrapeFormat) -> Result<String, String> {
        match scrape_endpoint_reply(
            &self.transport,
            &names::daemon_telemetry(),
            format,
            self.timeout,
        )? {
            ScrapeReply::Text(t) => Ok(t),
            ScrapeReply::Snapshot(_) => Err("daemon snapshot should render as text".to_string()),
        }
    }

    /// Scrapes live progress from a hosted study's shard `shard` — the
    /// study's own per-shard telemetry endpoint inside its
    /// `study<id>/…` scope.
    pub fn scrape_study(
        &self,
        study: u64,
        shard: usize,
        format: ScrapeFormat,
    ) -> Result<ScrapeReply, String> {
        melissa_telemetry::scrape_reply_in(
            &self.transport,
            &names::study_scope(study),
            shard,
            format,
            self.timeout,
        )
    }
}

/// The [`StudyStatus`] a `status` or `wait` reply carries.
fn status_of(rpc: &str, reply: DaemonReply) -> Result<StudyStatus, ClientError> {
    match reply {
        DaemonReply::Status {
            study,
            state,
            tenant,
            groups_finished,
            n_groups,
        } => Ok(StudyStatus {
            study,
            state,
            tenant,
            groups_finished,
            n_groups,
        }),
        other => Err(unexpected(rpc, &other)),
    }
}

fn unexpected(rpc: &str, reply: &DaemonReply) -> ClientError {
    let detail = match reply {
        DaemonReply::Error { detail } => format!("{rpc}: {detail}"),
        other => format!("{rpc}: unexpected reply {other:?}"),
    };
    ClientError::BadHandshake { detail }
}
