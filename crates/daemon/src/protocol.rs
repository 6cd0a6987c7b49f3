//! The daemon control-plane wire protocol.
//!
//! Submissions, lifecycle RPCs and their replies travel over the study
//! transport's length-prefixed frames as hand-rolled little-endian
//! messages (same codec discipline as the data plane — no serde in this
//! reproduction).  A client binds a throwaway reply endpoint, sends a
//! [`DaemonRequest`] naming it to [`names::daemon_ctl`], and waits for
//! one [`DaemonReply`] frame — the same request/reply shape as the
//! telemetry scrape protocol, so the control plane works unchanged over
//! every backend (in-process, TCP, multi-node TCP).
//!
//! [`names::daemon_ctl`]: melissa_transport::directory::names::daemon_ctl

use std::path::PathBuf;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use melissa::StudyConfig;
use melissa_solver::UseCaseConfig;
use melissa_transport::codec::{
    get_f64, get_f64_vec, get_str, get_u16, get_u32, get_u64, get_u8, put_f64_slice, put_str,
    WireError, WireResult,
};
use melissa_transport::{FaultPolicy, TransportKind};

fn put_duration(buf: &mut BytesMut, d: Duration) {
    buf.put_u64_le(d.as_nanos() as u64);
}

fn get_duration(buf: &mut &[u8], what: &'static str) -> WireResult<Duration> {
    Ok(Duration::from_nanos(get_u64(buf, what)?))
}

fn put_opt_f64(buf: &mut BytesMut, v: Option<f64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_f64_le(v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_f64(buf: &mut &[u8], what: &'static str) -> WireResult<Option<f64>> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        _ => Ok(Some(get_f64(buf, what)?)),
    }
}

fn put_opt_str(buf: &mut BytesMut, v: &Option<String>) {
    match v {
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_str(buf: &mut &[u8], what: &'static str) -> WireResult<Option<String>> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        _ => Ok(Some(get_str(buf, what)?)),
    }
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u64_le(b.len() as u64);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut &[u8], what: &'static str) -> WireResult<Vec<u8>> {
    let len = get_u64(buf, what)? as usize;
    if buf.len() < len {
        return Err(WireError::Truncated { what });
    }
    let (head, rest) = buf.split_at(len);
    let out = head.to_vec();
    *buf = rest;
    Ok(out)
}

fn encode_transport_kind(buf: &mut BytesMut, kind: &TransportKind) {
    match kind {
        TransportKind::InProcess => buf.put_u8(0),
        TransportKind::Tcp => buf.put_u8(1),
        TransportKind::TcpNode {
            host,
            port,
            advertise,
            directory,
        } => {
            buf.put_u8(2);
            put_str(buf, host);
            buf.put_u16_le(*port);
            put_opt_str(buf, advertise);
            put_opt_str(buf, directory);
        }
    }
}

fn decode_transport_kind(buf: &mut &[u8]) -> WireResult<TransportKind> {
    match get_u8(buf, "transport kind")? {
        0 => Ok(TransportKind::InProcess),
        1 => Ok(TransportKind::Tcp),
        2 => Ok(TransportKind::TcpNode {
            host: get_str(buf, "transport host")?,
            port: get_u16(buf, "transport port")?,
            advertise: get_opt_str(buf, "transport advertise host")?,
            directory: get_opt_str(buf, "transport directory")?,
        }),
        _ => Err(WireError::Invalid {
            what: "unknown transport kind",
        }),
    }
}

/// Serialises a full [`StudyConfig`] (every deployment and statistics
/// knob, so a daemon-run study is the byte-for-byte configuration the
/// tenant submitted).
pub fn encode_study_config(buf: &mut BytesMut, c: &StudyConfig) {
    buf.put_u64_le(c.n_groups as u64);
    encode_transport_kind(buf, &c.transport);
    buf.put_u64_le(c.n_shards as u64);
    buf.put_u64_le(c.shard_seed);
    buf.put_u64_le(c.solver.nx as u64);
    buf.put_u64_le(c.solver.ny as u64);
    buf.put_u64_le(c.solver.nz as u64);
    buf.put_f64_le(c.solver.lx);
    buf.put_f64_le(c.solver.ly);
    buf.put_f64_le(c.solver.lz);
    buf.put_f64_le(c.solver.u_inlet);
    buf.put_f64_le(c.solver.diffusivity);
    buf.put_u64_le(c.solver.n_timesteps as u64);
    buf.put_f64_le(c.solver.total_time);
    buf.put_f64_le(c.solver.prerun_tol);
    buf.put_u64_le(c.ranks_per_simulation as u64);
    buf.put_u64_le(c.server_workers as u64);
    buf.put_u64_le(c.hwm as u64);
    buf.put_u64_le(c.max_concurrent_groups as u64);
    buf.put_u64_le(c.seed);
    put_duration(buf, c.group_timeout);
    put_duration(buf, c.server_timeout);
    put_duration(buf, c.checkpoint_interval);
    put_str(buf, &c.checkpoint_dir.to_string_lossy());
    buf.put_u32_le(c.max_group_retries);
    put_opt_f64(buf, c.target_ci_width);
    buf.put_f64_le(c.ci_variance_floor);
    put_opt_f64(buf, c.target_quantile_step);
    put_duration(buf, c.wall_limit);
    put_duration(buf, c.migration_timeout);
    let (wire_mode, wire_bits) = c.wire_compression.to_wire();
    buf.put_u8(wire_mode);
    buf.put_u8(wire_bits);
    buf.put_f64_le(c.link_fault.drop_probability);
    put_duration(buf, c.link_fault.delay);
    put_f64_slice(buf, &c.thresholds);
    put_f64_slice(buf, &c.quantile_probs);
    buf.put_u8(c.telemetry as u8);
}

/// Decodes a configuration produced by [`encode_study_config`].
pub fn decode_study_config(buf: &mut &[u8]) -> WireResult<StudyConfig> {
    Ok(StudyConfig {
        n_groups: get_u64(buf, "n_groups")? as usize,
        transport: decode_transport_kind(buf)?,
        n_shards: get_u64(buf, "n_shards")? as usize,
        shard_seed: get_u64(buf, "shard_seed")?,
        solver: UseCaseConfig {
            nx: get_u64(buf, "solver nx")? as usize,
            ny: get_u64(buf, "solver ny")? as usize,
            nz: get_u64(buf, "solver nz")? as usize,
            lx: get_f64(buf, "solver lx")?,
            ly: get_f64(buf, "solver ly")?,
            lz: get_f64(buf, "solver lz")?,
            u_inlet: get_f64(buf, "solver u_inlet")?,
            diffusivity: get_f64(buf, "solver diffusivity")?,
            n_timesteps: get_u64(buf, "solver n_timesteps")? as usize,
            total_time: get_f64(buf, "solver total_time")?,
            prerun_tol: get_f64(buf, "solver prerun_tol")?,
        },
        ranks_per_simulation: get_u64(buf, "ranks_per_simulation")? as usize,
        server_workers: get_u64(buf, "server_workers")? as usize,
        hwm: get_u64(buf, "hwm")? as usize,
        max_concurrent_groups: get_u64(buf, "max_concurrent_groups")? as usize,
        seed: get_u64(buf, "seed")?,
        group_timeout: get_duration(buf, "group_timeout")?,
        server_timeout: get_duration(buf, "server_timeout")?,
        checkpoint_interval: get_duration(buf, "checkpoint_interval")?,
        checkpoint_dir: PathBuf::from(get_str(buf, "checkpoint_dir")?),
        max_group_retries: get_u32(buf, "max_group_retries")?,
        target_ci_width: get_opt_f64(buf, "target_ci_width")?,
        ci_variance_floor: get_f64(buf, "ci_variance_floor")?,
        target_quantile_step: get_opt_f64(buf, "target_quantile_step")?,
        wall_limit: get_duration(buf, "wall_limit")?,
        migration_timeout: get_duration(buf, "migration_timeout")?,
        wire_compression: melissa_transport::WireCompression::from_wire(
            get_u8(buf, "wire compression mode")?,
            get_u8(buf, "wire compression bits")?,
        ),
        link_fault: FaultPolicy {
            drop_probability: get_f64(buf, "link fault drop probability")?,
            delay: get_duration(buf, "link fault delay")?,
        },
        thresholds: get_f64_vec(buf, "thresholds")?,
        quantile_probs: get_f64_vec(buf, "quantile_probs")?,
        telemetry: get_u8(buf, "telemetry flag")? != 0,
    })
}

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

    fn as_byte(self) -> u8 {
        match self {
            StudyState::Queued => 0,
            StudyState::Running => 1,
            StudyState::Done => 2,
            StudyState::Failed => 3,
            StudyState::Cancelled => 4,
        }
    }

    fn from_byte(b: u8) -> WireResult<Self> {
        match b {
            0 => Ok(StudyState::Queued),
            1 => Ok(StudyState::Running),
            2 => Ok(StudyState::Done),
            3 => Ok(StudyState::Failed),
            4 => Ok(StudyState::Cancelled),
            _ => Err(WireError::Invalid {
                what: "unknown study state",
            }),
        }
    }
}

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
}

/// One control-plane request frame: where to reply, and what to do.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonRequest {
    /// Endpoint the client bound for the reply.
    pub reply_to: String,
    /// The requested operation.
    pub op: DaemonOp,
}

impl DaemonRequest {
    /// Serialises the request.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        put_str(buf, &self.reply_to);
        match &self.op {
            DaemonOp::Submit {
                tenant,
                priority,
                config,
            } => {
                buf.put_u8(1);
                put_str(buf, tenant);
                buf.put_u8(*priority);
                encode_study_config(buf, config);
            }
            DaemonOp::Status { study } => {
                buf.put_u8(2);
                buf.put_u64_le(*study);
            }
            DaemonOp::Cancel { study } => {
                buf.put_u8(3);
                buf.put_u64_le(*study);
            }
            DaemonOp::Results { study } => {
                buf.put_u8(4);
                buf.put_u64_le(*study);
            }
            DaemonOp::Shutdown => buf.put_u8(5),
            DaemonOp::Wait { study } => {
                buf.put_u8(6);
                buf.put_u64_le(*study);
            }
        }
    }

    /// Decodes a request frame.
    pub fn decode_from(buf: &mut &[u8]) -> WireResult<Self> {
        let reply_to = get_str(buf, "request reply endpoint")?;
        let op = match get_u8(buf, "request op tag")? {
            1 => DaemonOp::Submit {
                tenant: get_str(buf, "submit tenant")?,
                priority: get_u8(buf, "submit priority")?,
                config: Box::new(decode_study_config(buf)?),
            },
            2 => DaemonOp::Status {
                study: get_u64(buf, "status study id")?,
            },
            3 => DaemonOp::Cancel {
                study: get_u64(buf, "cancel study id")?,
            },
            4 => DaemonOp::Results {
                study: get_u64(buf, "results study id")?,
            },
            5 => DaemonOp::Shutdown,
            6 => DaemonOp::Wait {
                study: get_u64(buf, "wait study id")?,
            },
            _ => {
                return Err(WireError::Invalid {
                    what: "unknown request op",
                })
            }
        };
        Ok(Self { reply_to, op })
    }
}

/// What the daemon's control loop can find on its inbox: a client's
/// request, or one of the frames the daemon's own threads post there so
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
    /// A frame that arrived on the daemon telemetry endpoint.
    Scrape(Vec<u8>),
}

/// Leads an internal control frame.  A request leads with the `u32`
/// length of its reply endpoint's name, which no frame is long enough to
/// make this large.
const INTERNAL: u32 = u32::MAX;

impl ControlFrame {
    /// The frame announcing that `study`'s thread is exiting.
    pub(crate) fn study_ended(study: u64) -> bytes::Bytes {
        let mut buf = BytesMut::with_capacity(13);
        buf.put_u32_le(INTERNAL);
        buf.put_u8(1);
        buf.put_u64_le(study);
        buf.freeze()
    }

    /// Wraps a frame received on the telemetry endpoint for the control
    /// inbox.
    pub(crate) fn scrape(request: &[u8]) -> bytes::Bytes {
        let mut buf = BytesMut::with_capacity(5 + request.len());
        buf.put_u32_le(INTERNAL);
        buf.put_u8(2);
        buf.put_slice(request);
        buf.freeze()
    }

    /// Decodes whatever arrived on the control inbox.
    pub(crate) fn decode(mut frame: &[u8]) -> WireResult<Self> {
        if !frame.starts_with(&INTERNAL.to_le_bytes()) {
            return DaemonRequest::decode_from(&mut frame).map(ControlFrame::Request);
        }
        frame = &frame[4..];
        match get_u8(&mut frame, "internal frame tag")? {
            1 => Ok(ControlFrame::StudyEnded {
                study: get_u64(&mut frame, "ended study id")?,
            }),
            2 => Ok(ControlFrame::Scrape(frame.to_vec())),
            _ => Err(WireError::Invalid {
                what: "unknown internal frame",
            }),
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
        /// One packed `WorkerState` per server worker, slab order.
        workers: Vec<Vec<u8>>,
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

impl DaemonReply {
    /// Serialises the reply.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            DaemonReply::Submitted { study } => {
                buf.put_u8(1);
                buf.put_u64_le(*study);
            }
            DaemonReply::Rejected { tenant, resource } => {
                buf.put_u8(2);
                put_str(buf, tenant);
                put_str(buf, resource);
            }
            DaemonReply::Status {
                study,
                state,
                tenant,
                groups_finished,
                n_groups,
            } => {
                buf.put_u8(3);
                buf.put_u64_le(*study);
                buf.put_u8(state.as_byte());
                put_str(buf, tenant);
                buf.put_u64_le(*groups_finished);
                buf.put_u64_le(*n_groups);
            }
            DaemonReply::Cancelled { study } => {
                buf.put_u8(4);
                buf.put_u64_le(*study);
            }
            DaemonReply::Results {
                p,
                n_timesteps,
                n_cells,
                groups_finished,
                workers,
            } => {
                buf.put_u8(5);
                buf.put_u64_le(*p);
                buf.put_u64_le(*n_timesteps);
                buf.put_u64_le(*n_cells);
                buf.put_u64_le(*groups_finished);
                buf.put_u32_le(workers.len() as u32);
                for w in workers {
                    put_bytes(buf, w);
                }
            }
            DaemonReply::Error { detail } => {
                buf.put_u8(6);
                put_str(buf, detail);
            }
            DaemonReply::ShuttingDown => buf.put_u8(7),
        }
    }

    /// Decodes a reply frame.
    pub fn decode_from(buf: &mut &[u8]) -> WireResult<Self> {
        Ok(match get_u8(buf, "reply tag")? {
            1 => DaemonReply::Submitted {
                study: get_u64(buf, "submitted study id")?,
            },
            2 => DaemonReply::Rejected {
                tenant: get_str(buf, "rejected tenant")?,
                resource: get_str(buf, "rejected resource")?,
            },
            3 => DaemonReply::Status {
                study: get_u64(buf, "status study id")?,
                state: StudyState::from_byte(get_u8(buf, "status state")?)?,
                tenant: get_str(buf, "status tenant")?,
                groups_finished: get_u64(buf, "status groups finished")?,
                n_groups: get_u64(buf, "status n_groups")?,
            },
            4 => DaemonReply::Cancelled {
                study: get_u64(buf, "cancelled study id")?,
            },
            5 => {
                let p = get_u64(buf, "results p")?;
                let n_timesteps = get_u64(buf, "results n_timesteps")?;
                let n_cells = get_u64(buf, "results n_cells")?;
                let groups_finished = get_u64(buf, "results groups finished")?;
                let n_workers = get_u32(buf, "results worker count")?;
                let mut workers = Vec::with_capacity(n_workers as usize);
                for _ in 0..n_workers {
                    workers.push(get_bytes(buf, "results worker state")?);
                }
                DaemonReply::Results {
                    p,
                    n_timesteps,
                    n_cells,
                    groups_finished,
                    workers,
                }
            }
            6 => DaemonReply::Error {
                detail: get_str(buf, "error detail")?,
            },
            7 => DaemonReply::ShuttingDown,
            _ => {
                return Err(WireError::Invalid {
                    what: "unknown reply tag",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
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
        c.link_fault.drop_probability = 0.125;
        c.link_fault.delay = Duration::from_micros(250);
        c.thresholds = vec![0.25, 0.75];
        c.checkpoint_dir = PathBuf::from("/tmp/melissa-daemon-test");
        c.telemetry = false;
        c.wire_compression = melissa_transport::WireCompression::Truncate { mantissa_bits: 24 };
        c
    }

    fn round_trip_config(c: &StudyConfig) -> StudyConfig {
        let mut buf = BytesMut::new();
        encode_study_config(&mut buf, c);
        let mut slice: &[u8] = &buf;
        let back = decode_study_config(&mut slice).expect("decode");
        assert!(slice.is_empty(), "trailing bytes after config");
        back
    }

    #[test]
    fn study_config_round_trips_every_field() {
        let c = exotic_config();
        let back = round_trip_config(&c);
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
        assert_eq!(back.max_group_retries, c.max_group_retries);
        assert_eq!(back.target_ci_width, c.target_ci_width);
        assert_eq!(back.ci_variance_floor, c.ci_variance_floor);
        assert_eq!(back.target_quantile_step, c.target_quantile_step);
        assert_eq!(back.wall_limit, c.wall_limit);
        assert_eq!(back.migration_timeout, c.migration_timeout);
        assert_eq!(
            back.link_fault.drop_probability,
            c.link_fault.drop_probability
        );
        assert_eq!(back.link_fault.delay, c.link_fault.delay);
        assert_eq!(back.thresholds, c.thresholds);
        assert_eq!(back.quantile_probs, c.quantile_probs);
        assert_eq!(back.telemetry, c.telemetry);
        assert_eq!(back.wire_compression, c.wire_compression);
    }

    #[test]
    fn default_config_round_trips() {
        let c = StudyConfig::default();
        let back = round_trip_config(&c);
        assert_eq!(back.n_groups, c.n_groups);
        assert_eq!(back.transport, c.transport);
        assert_eq!(back.quantile_probs, c.quantile_probs);
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
        ];
        for op in ops {
            let req = DaemonRequest {
                reply_to: "ctl/reply/1/2".into(),
                op,
            };
            let mut buf = BytesMut::new();
            req.encode_into(&mut buf);
            let mut slice: &[u8] = &buf;
            let back = DaemonRequest::decode_from(&mut slice).expect("decode");
            assert!(slice.is_empty());
            assert_eq!(req, back);
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
                workers: vec![vec![1, 2, 3], vec![], vec![0xff; 17]],
            },
            DaemonReply::Error {
                detail: "study 42 not found".into(),
            },
            DaemonReply::ShuttingDown,
        ];
        for reply in replies {
            let mut buf = BytesMut::new();
            reply.encode_into(&mut buf);
            let mut slice: &[u8] = &buf;
            let back = DaemonReply::decode_from(&mut slice).expect("decode");
            assert!(slice.is_empty());
            assert_eq!(reply, back);
        }
    }

    #[test]
    fn control_frames_tell_requests_from_internal_posts() {
        let mut buf = BytesMut::new();
        DaemonRequest {
            reply_to: "ctl/reply/1/2".into(),
            op: DaemonOp::Wait { study: 4 },
        }
        .encode_into(&mut buf);
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
        assert!(matches!(
            ControlFrame::decode(&ControlFrame::scrape(b"req")),
            Ok(ControlFrame::Scrape(inner)) if inner == b"req"
        ));
        let truncated = &ControlFrame::study_ended(9)[..8];
        assert!(ControlFrame::decode(truncated).is_err());
        assert!(ControlFrame::decode(&[0xff, 0xff, 0xff, 0xff, 77]).is_err());
    }

    #[test]
    fn truncated_frames_fail_loud() {
        let mut buf = BytesMut::new();
        DaemonRequest {
            reply_to: "r".into(),
            op: DaemonOp::Status { study: 1 },
        }
        .encode_into(&mut buf);
        let mut slice: &[u8] = &buf[..buf.len() - 1];
        assert!(DaemonRequest::decode_from(&mut slice).is_err());
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
