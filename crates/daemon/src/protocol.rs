//! The daemon control-plane wire protocol.
//!
//! Submissions, lifecycle RPCs and their replies travel over the study
//! transport's length-prefixed frames as declared [`Wire`] messages —
//! each one a field list, with the layout of every field type fixed by
//! the codec (no serde in this reproduction).  A client binds a throwaway
//! reply endpoint, sends a [`DaemonRequest`] naming it to
//! [`names::daemon_ctl`], and waits for one [`DaemonReply`] frame (a
//! scrape reply frame for [`DaemonOp::Scrape`]) — one
//! [`round_trip`], as a telemetry scrape is, so the control plane works
//! unchanged over every backend (in-process, TCP, multi-node TCP).
//!
//! [`names::daemon_ctl`]: melissa_transport::directory::names::daemon_ctl
//! [`round_trip`]: melissa_transport::round_trip

use bytes::Bytes;
use melissa::StudyConfig;
use melissa_telemetry::ScrapeFormat;
use melissa_transport::codec::{Wire, WireResult};

/// Lifecycle state of a submitted study, as reported by `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyState {
    /// Admitted, waiting for an active-study slot.
    Queued,
    /// Supervisor thread live, groups dispatching on the shared pool.
    Running,
    /// Finished successfully; results are available.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled by the tenant (from the queue or mid-run).
    Cancelled,
}

impl StudyState {
    /// No further transitions happen from this state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            StudyState::Done | StudyState::Failed | StudyState::Cancelled
        )
    }
}

melissa_transport::wire_enum!(StudyState {
    0 => Queued,
    1 => Running,
    2 => Done,
    3 => Failed,
    4 => Cancelled,
});

impl std::fmt::Display for StudyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StudyState::Queued => "queued",
            StudyState::Running => "running",
            StudyState::Done => "done",
            StudyState::Failed => "failed",
            StudyState::Cancelled => "cancelled",
        };
        write!(f, "{s}")
    }
}

/// The operation a control-plane request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonOp {
    /// Submit a study for admission under a tenant id and an
    /// intra-tenant priority (0 = highest).
    Submit {
        /// Tenant the study is accounted to.
        tenant: String,
        /// Priority within the tenant's fair-share (0 = highest).
        priority: u8,
        /// The full study configuration.
        config: Box<StudyConfig>,
    },
    /// Ask for a study's lifecycle state.
    Status {
        /// The study id returned at submission.
        study: u64,
    },
    /// Cancel a queued or running study.
    Cancel {
        /// The study id returned at submission.
        study: u64,
    },
    /// Fetch a finished study's statistics.
    Results {
        /// The study id returned at submission.
        study: u64,
    },
    /// Ask the daemon to cancel everything and exit its control loop.
    Shutdown,
    /// Ask for a study's lifecycle state *once it is terminal*: the
    /// daemon holds the reply (a [`DaemonReply::Status`]) back until the
    /// study has ended and its admission reservation is released, so one
    /// request replaces a `Status` poll.
    Wait {
        /// The study id returned at submission.
        study: u64,
    },
    /// Ask for the daemon-level aggregate snapshot.  The reply is a
    /// scrape reply frame ([`DaemonSnapshot::encode_reply`]), not a
    /// [`DaemonReply`].
    ///
    /// [`DaemonSnapshot::encode_reply`]: crate::DaemonSnapshot::encode_reply
    Scrape {
        /// The rendering asked for.
        format: ScrapeFormat,
    },
}

/// One control-plane request frame: where to reply, and what to do.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonRequest {
    /// Endpoint the client bound for the reply.
    pub reply_to: String,
    /// The requested operation.
    pub op: DaemonOp,
}

melissa_transport::wire_enum!(DaemonOp {
    1 => Submit { tenant, priority, config },
    2 => Status { study },
    3 => Cancel { study },
    4 => Results { study },
    5 => Shutdown,
    6 => Wait { study },
    7 => Scrape { format },
});

melissa_transport::wire_struct!(DaemonRequest { reply_to, op });

/// What the daemon's control loop can find on its inbox: a client's
/// request, or the frame a study thread posts there as its last act, so
/// that the loop has a single thing to block on.
pub(crate) enum ControlFrame {
    /// A client request.
    Request(DaemonRequest),
    /// A study thread's last act: study `study` has published its
    /// terminal state and is exiting.
    StudyEnded {
        /// The study that ended.
        study: u64,
    },
}

/// Leads a `StudyEnded` frame.  A request leads with the `u32` length of
/// its reply endpoint's name, which no frame is long enough to make this
/// large.
const STUDY_ENDED: u32 = u32::MAX;

impl ControlFrame {
    /// The frame announcing that `study`'s thread is exiting.
    pub(crate) fn study_ended(study: u64) -> Bytes {
        (STUDY_ENDED, study).to_frame()
    }

    /// Decodes whatever arrived on the control inbox.
    pub(crate) fn decode(frame: &[u8]) -> WireResult<Self> {
        match frame.strip_prefix(&STUDY_ENDED.to_le_bytes()) {
            Some(study) => u64::from_frame(study).map(|study| ControlFrame::StudyEnded { study }),
            None => DaemonRequest::from_frame(frame).map(ControlFrame::Request),
        }
    }
}

/// One control-plane reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonReply {
    /// The study was admitted under this id.
    Submitted {
        /// Daemon-assigned study id.
        study: u64,
    },
    /// Admission refused the submission — the typed rejection the client
    /// surfaces as `ClientError::QuotaExceeded`.
    Rejected {
        /// The tenant whose quota was hit.
        tenant: String,
        /// Which quota: `"queue"`, `"studies"`, `"groups"` or `"units"`.
        resource: String,
    },
    /// Lifecycle state of a study.
    Status {
        /// The study id.
        study: u64,
        /// Current lifecycle state.
        state: StudyState,
        /// Owning tenant.
        tenant: String,
        /// Groups fully integrated (0 until the study finishes; live
        /// progress comes from the per-study scrape endpoints).
        groups_finished: u64,
        /// Groups in the study's design.
        n_groups: u64,
    },
    /// Cancellation acknowledged (the state flips asynchronously for a
    /// running study).
    Cancelled {
        /// The study id.
        study: u64,
    },
    /// A finished study's statistics: the final per-worker states in the
    /// checkpoint codec, plus the shape needed to reassemble
    /// `StudyResults` bit-identically on the client.
    Results {
        /// Number of varied parameters.
        p: u64,
        /// Timesteps per simulation.
        n_timesteps: u64,
        /// Mesh cells.
        n_cells: u64,
        /// Groups fully integrated.
        groups_finished: u64,
        /// One packed `WorkerState` per server worker, slab order —
        /// windows of the received frame when decoded with
        /// [`Wire::from_shared`].
        workers: Vec<Bytes>,
    },
    /// The request could not be served (unknown study, results not
    /// ready, study failed).
    Error {
        /// Human-readable reason.
        detail: String,
    },
    /// Shutdown acknowledged.
    ShuttingDown,
}

melissa_transport::wire_enum!(DaemonReply {
    1 => Submitted { study },
    2 => Rejected { tenant, resource },
    3 => Status { study, state, tenant, groups_finished, n_groups },
    4 => Cancelled { study },
    5 => Results { p, n_timesteps, n_cells, groups_finished, workers },
    6 => Error { detail },
    7 => ShuttingDown,
});

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use melissa_transport::codec::WireError;
    use melissa_transport::{TransportKind, WireCompression};

    use super::*;

    fn exotic_config() -> StudyConfig {
        let mut c = StudyConfig::tiny();
        c.n_groups = 37;
        c.transport = TransportKind::TcpNode {
            host: "0.0.0.0".into(),
            port: 7171,
            advertise: Some("10.0.0.3".into()),
            directory: None,
        };
        c.n_shards = 3;
        c.seed = 0xdead_beef;
        c.target_ci_width = Some(0.05);
        c.target_quantile_step = None;
        c.thresholds = vec![0.25, 0.75];
        c.checkpoint_dir = PathBuf::from("/tmp/melissa-daemon-test");
        c.telemetry = false;
        c.wire_compression = WireCompression::Transpose;
        c
    }

    #[test]
    fn study_config_round_trips_every_field() {
        let c = exotic_config();
        let back = StudyConfig::from_frame(&c.to_frame()).expect("decode");
        assert_eq!(back.n_groups, c.n_groups);
        assert_eq!(back.transport, c.transport);
        assert_eq!(back.n_shards, c.n_shards);
        assert_eq!(back.shard_seed, c.shard_seed);
        assert_eq!(back.solver, c.solver);
        assert_eq!(back.ranks_per_simulation, c.ranks_per_simulation);
        assert_eq!(back.server_workers, c.server_workers);
        assert_eq!(back.hwm, c.hwm);
        assert_eq!(back.max_concurrent_groups, c.max_concurrent_groups);
        assert_eq!(back.seed, c.seed);
        assert_eq!(back.group_timeout, c.group_timeout);
        assert_eq!(back.server_timeout, c.server_timeout);
        assert_eq!(back.checkpoint_interval, c.checkpoint_interval);
        assert_eq!(back.checkpoint_dir, c.checkpoint_dir);
        assert_eq!(back.target_ci_width, c.target_ci_width);
        assert_eq!(back.ci_variance_floor, c.ci_variance_floor);
        assert_eq!(back.target_quantile_step, c.target_quantile_step);
        assert_eq!(back.wall_limit, c.wall_limit);
        assert_eq!(back.thresholds, c.thresholds);
        assert_eq!(back.quantile_probs, c.quantile_probs);
        assert_eq!(back.telemetry, c.telemetry);
        assert_eq!(back.wire_compression, c.wire_compression);
        assert_eq!(back, c);
    }

    #[test]
    fn default_config_round_trips() {
        let c = StudyConfig::default();
        assert_eq!(StudyConfig::from_frame(&c.to_frame()), Ok(c));
    }

    #[test]
    fn requests_round_trip() {
        let ops = vec![
            DaemonOp::Submit {
                tenant: "acme".into(),
                priority: 2,
                config: Box::new(exotic_config()),
            },
            DaemonOp::Status { study: 7 },
            DaemonOp::Cancel { study: 9 },
            DaemonOp::Results { study: 11 },
            DaemonOp::Shutdown,
            DaemonOp::Wait { study: 13 },
            DaemonOp::Scrape {
                format: ScrapeFormat::Prometheus,
            },
        ];
        for op in ops {
            let req = DaemonRequest {
                reply_to: "ctl/reply/1/2".into(),
                op,
            };
            assert_eq!(DaemonRequest::from_frame(&req.to_frame()), Ok(req));
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = vec![
            DaemonReply::Submitted { study: 1 },
            DaemonReply::Rejected {
                tenant: "acme".into(),
                resource: "studies".into(),
            },
            DaemonReply::Status {
                study: 3,
                state: StudyState::Running,
                tenant: "acme".into(),
                groups_finished: 4,
                n_groups: 8,
            },
            DaemonReply::Cancelled { study: 5 },
            DaemonReply::Results {
                p: 2,
                n_timesteps: 4,
                n_cells: 64,
                groups_finished: 8,
                workers: vec![vec![1, 2, 3].into(), Bytes::new(), vec![0xff; 17].into()],
            },
            DaemonReply::Error {
                detail: "study 42 not found".into(),
            },
            DaemonReply::ShuttingDown,
        ];
        for reply in replies {
            assert_eq!(DaemonReply::from_frame(&reply.to_frame()), Ok(reply));
        }
    }

    #[test]
    fn control_frames_tell_requests_from_internal_posts() {
        let buf = DaemonRequest {
            reply_to: "ctl/reply/1/2".into(),
            op: DaemonOp::Wait { study: 4 },
        }
        .to_frame();
        assert!(matches!(
            ControlFrame::decode(&buf),
            Ok(ControlFrame::Request(DaemonRequest {
                op: DaemonOp::Wait { study: 4 },
                ..
            }))
        ));
        assert!(matches!(
            ControlFrame::decode(&ControlFrame::study_ended(9)),
            Ok(ControlFrame::StudyEnded { study: 9 })
        ));
        let truncated = &ControlFrame::study_ended(9)[..8];
        assert!(ControlFrame::decode(truncated).is_err());
        assert!(ControlFrame::decode(&[0xff, 0xff, 0xff, 0xff, 77]).is_err());
    }

    #[test]
    fn truncated_frames_fail_loud() {
        let buf = DaemonRequest {
            reply_to: "r".into(),
            op: DaemonOp::Status { study: 1 },
        }
        .to_frame();
        assert_eq!(
            DaemonRequest::from_frame(&buf[..buf.len() - 1]),
            Err(WireError::Truncated { what: "study" })
        );
    }

    #[test]
    fn study_states_expose_terminality() {
        assert!(!StudyState::Queued.is_terminal());
        assert!(!StudyState::Running.is_terminal());
        assert!(StudyState::Done.is_terminal());
        assert!(StudyState::Failed.is_terminal());
        assert!(StudyState::Cancelled.is_terminal());
        assert_eq!(StudyState::Running.to_string(), "running");
    }
}
