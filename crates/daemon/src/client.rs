//! The tenant-side client for the daemon control plane.
//!
//! [`DaemonClient`] drives the lifecycle RPCs — `submit`, `status`,
//! `wait`, `cancel`, `results` — and the daemon scrape over the study
//! transport itself: each call is one [`round_trip`] of a
//! [`DaemonRequest`] to [`names::daemon_ctl`] (`wait`'s reply is held
//! back by the daemon until the study ends).  Errors are
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

use std::sync::Arc;
use std::time::Duration;

use melissa::client::ClientError;
use melissa::server::checkpoint::unpack_state;
use melissa::{StudyConfig, StudyResults};
use melissa_telemetry::{ScrapeFormat, ScrapeReply};
use melissa_transport::codec::Wire;
use melissa_transport::directory::names;
use melissa_transport::{round_trip, Frame, RoundTripError, Transport};

use crate::protocol::{DaemonOp, DaemonReply, DaemonRequest, StudyState};

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
        let frame = self.round_trip(op, reply_timeout)?;
        DaemonReply::from_shared(&frame).map_err(|e| ClientError::BadHandshake {
            detail: format!("daemon reply: {e}"),
        })
    }

    /// Sends `op` to the control endpoint and returns the raw reply frame.
    fn round_trip(&self, op: DaemonOp, reply_timeout: Duration) -> Result<Frame, ClientError> {
        let request = |reply_to: &str| {
            DaemonRequest {
                reply_to: reply_to.to_string(),
                op,
            }
            .to_frame()
        };
        round_trip(
            self.transport.as_ref(),
            &names::daemon_ctl(),
            request,
            self.timeout,
            reply_timeout,
        )
        .map_err(|e| match e {
            RoundTripError::Connect(e) => ClientError::from(e),
            RoundTripError::Send(_) => ClientError::SendFailed,
            RoundTripError::Reply(_) => ClientError::HandshakeTimeout,
        })
    }

    /// Submits a study under `tenant` at intra-tenant `priority`
    /// (0 = highest) and returns the daemon-assigned study id.  An
    /// admission rejection returns [`ClientError::QuotaExceeded`]; a
    /// config that `StudyConfig::validate` refuses is not admitted and
    /// returns [`ClientError::BadHandshake`] with the reason.
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
    /// per-tenant usage, admission decisions) as rendered text: a
    /// [`DaemonOp::Scrape`] on the control endpoint, answered with a
    /// scrape reply frame.
    pub fn scrape_daemon(&self, format: ScrapeFormat) -> Result<String, String> {
        let frame = self
            .round_trip(DaemonOp::Scrape { format }, self.timeout)
            .map_err(|e| format!("daemon scrape: {e}"))?;
        match ScrapeReply::decode(&frame).map_err(|e| format!("daemon scrape reply: {e}"))? {
            ScrapeReply::Text(t) => Ok(t),
            ScrapeReply::Snapshot(_) => Err("daemon snapshot should render as text".to_string()),
        }
    }

    /// Scrapes live progress from a hosted study's shard `shard`: a
    /// scrape of its `study<id>/shard<k>/server/main` inbox.
    pub fn scrape_study(
        &self,
        study: u64,
        shard: usize,
        format: ScrapeFormat,
    ) -> Result<ScrapeReply, String> {
        melissa::scrape::scrape_reply_in(
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
