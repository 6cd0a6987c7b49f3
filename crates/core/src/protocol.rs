//! Melissa wire protocol: the messages exchanged between simulation
//! groups, the parallel server and the launcher.
//!
//! Encoded with the fixed little-endian layout of
//! [`melissa_transport::codec`]: one tag byte selects the variant, and
//! every variant but `Data` is declared as its field list; `Data`, the
//! one on the hot path, is written and read in place by [`DataHeader`]
//! and [`DataView`].  Every message carries enough identity (`group_id`,
//! `instance`, `timestep`) for the server's discard-on-replay policy
//! (paper Section 4.2.1).

use bytes::{BufMut, Bytes, BytesMut};
use melissa_telemetry::ScrapeFormat;
use melissa_transport::codec::{
    copy_words_from_le, get_u16, get_u32, get_u64, get_u8, words_from_le, Wire, WireError,
    WireResult,
};

/// One Melissa protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Group → server main: request partition info at connection time.
    /// The server replies on the group's reply endpoint
    /// (`group/<id>/<instance>/reply`).
    ConnectRequest {
        /// Simulation-group id (design row).
        group_id: u64,
        /// Restart instance (0 for the first launch).
        instance: u32,
    },
    /// Server main → group: everything the client needs to open direct
    /// connections to the workers (paper Section 4.1.3).
    ConnectReply {
        /// Number of server worker processes.
        n_workers: u32,
        /// Global cell count (defines the slab partition).
        n_cells: u64,
        /// Number of variable parameters `p`.
        p: u32,
        /// Expected number of timesteps per simulation.
        n_timesteps: u32,
    },
    /// Group rank → server worker: one role's field chunk for one timestep.
    Data {
        /// Simulation-group id.
        group_id: u64,
        /// Restart instance.
        instance: u32,
        /// Simulation role index (`A`=0, `B`=1, `C^k`=2+k).
        role: u16,
        /// Timestep id.
        timestep: u32,
        /// First global cell id of the chunk.
        start: u64,
        /// Chunk values.
        values: Vec<f64>,
    },
    /// Server main → launcher: liveness heartbeat.
    Heartbeat {
        /// Reporting process id (0 = server main).
        sender: u32,
    },
    /// Server main → launcher: bound and ready to accept connections.
    ServerReady,
    /// Server main → launcher: periodic study-progress report
    /// (paper Fig. 3: "Melissa Server regularly sends reports to the
    /// launcher for detecting failures or adapting the study").
    ServerReport {
        /// Groups every worker has fully integrated.
        finished_groups: Vec<u64>,
        /// Groups with at least one received message, not yet finished.
        running_groups: Vec<u64>,
        /// Widest 95 % confidence interval across all tracked indices
        /// (convergence-control signal, Section 4.1.5).
        max_ci_width: f64,
        /// Widest possible next Robbins–Monro quantile step across all
        /// workers (the order-statistics convergence signal; 0 when
        /// quantiles are disabled).
        max_quantile_step: f64,
        /// Per-probability quantile steps (same order as the configured
        /// probabilities), so studies tracking extreme percentiles can
        /// stop on the slowest estimate.  Empty when quantiles are
        /// disabled or not every worker has reported yet.
        quantile_steps: Vec<f64>,
        /// Study-level rollup: sends toward the server's data endpoints
        /// that hit the high-water mark (the Fig. 6 backpressure signal,
        /// live).
        blocked_sends: u64,
        /// Study-level rollup: nanoseconds those sends spent blocked.
        blocked_nanos: u64,
        /// Frames this server instance's workers refused so far: not
        /// decodable, or `Data` that does not fit the study (role,
        /// timestep or cell range out of bounds).  Anything but 0 means a
        /// peer speaks another protocol or the link corrupts bytes.
        frames_rejected: u64,
    },
    /// Server main → launcher: a group exceeded the message timeout
    /// (unfinished-group fault, Section 4.2.2).
    GroupTimeout {
        /// The silent group.
        group_id: u64,
    },
    /// Launcher → server: checkpoint now (also triggered periodically by
    /// the server itself).
    Checkpoint {
        /// Directory for the per-process checkpoint files.
        dir: String,
    },
    /// Launcher → server: finish cleanly (final checkpoint + stop).
    Stop,
    /// Group job → launcher: this instance's job has recorded its outcome
    /// and is about to return its pool unit.  Posted by the job itself,
    /// so the supervisor settles it on arrival instead of finding it on a
    /// later tick.
    JobEnded {
        /// Simulation-group id.
        group_id: u64,
        /// Restart instance.
        instance: u32,
    },
    /// Anyone → launcher: something the supervisor reads from shared
    /// memory changed — the study-wide early stop was raised, the study
    /// was cancelled.  Carries nothing;
    /// the supervisor re-examines its state.
    Wake,
    /// Server worker → server main: a group just finished on every
    /// worker — send the launcher a `ServerReport` now rather than at the
    /// next report period.
    ReportNow,
    /// Scraper → server main: send this shard's telemetry snapshot, in
    /// `format`, to `reply_to` — a [`round_trip`](melissa_transport::round_trip)
    /// reply endpoint, or nothing is sent ([`crate::scrape`]).
    Scrape {
        /// The scraper's one-shot reply endpoint.
        reply_to: String,
        /// Requested snapshot format.
        format: ScrapeFormat,
    },
}

/// Everything a `Data` frame says about its values: whose they are and
/// where they go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// Simulation-group id.
    pub group_id: u64,
    /// Restart instance.
    pub instance: u32,
    /// Simulation role index (`A`=0, `B`=1, `C^k`=2+k).
    pub role: u16,
    /// Timestep id.
    pub timestep: u32,
    /// First global cell id of the chunk.
    pub start: u64,
}

impl DataHeader {
    /// Encoded bytes ahead of the values: tag, the five fields above and
    /// the value count.
    pub const ENCODED_LEN: usize = 1 + 8 + 4 + 2 + 4 + 8 + 8;

    /// Appends the frame of [`Message::Data`] with this header and
    /// `values` to `buf` — the bytes [`Message::encode`] produces for it,
    /// written in one pass over the caller's slice, so a sender can lay a
    /// whole timestep's frames end to end in one block without an owned
    /// copy of any chunk.
    pub fn encode_frame(&self, buf: &mut BytesMut, values: &[f64]) {
        buf.put_u8(DATA);
        buf.put_u64_le(self.group_id);
        buf.put_u32_le(self.instance);
        buf.put_u16_le(self.role);
        buf.put_u32_le(self.timestep);
        buf.put_u64_le(self.start);
        values.len().put(buf);
        f64::put_seq(values, buf);
    }
}

/// A `Data` frame read in place: the header decoded, the values still
/// the frame's little-endian bytes.  The receive-side counterpart of
/// [`DataHeader::encode_frame`] — the server copies the values straight
/// from the frame into its assembly, with no `Vec<f64>` in between.
///
/// [`parse`](Self::parse) accepts exactly the frames
/// [`Message::encode`] produces for [`Message::Data`]: the tag, and a
/// length of [`DataHeader::ENCODED_LEN`]` + 8·n` for the `n` the frame
/// itself claims — nothing short, nothing trailing.  Whether the header
/// fits the study (role, timestep, cell range) is for the receiver to
/// check against its own configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataView<'a> {
    /// The decoded header.
    pub header: DataHeader,
    payload: &'a [u8],
}

impl<'a> DataView<'a> {
    /// Whether `frame` carries the `Data` tag (and so is for
    /// [`parse`](Self::parse) rather than [`Message::decode`]).
    pub fn is_data(frame: &[u8]) -> bool {
        frame.first() == Some(&DATA)
    }

    /// Validates `frame` as a `Data` frame and borrows its values.
    pub fn parse(frame: &'a [u8]) -> WireResult<Self> {
        let mut buf = frame;
        if get_u8(&mut buf, "tag")? != DATA {
            return Err(WireError::Invalid {
                what: "not a data frame",
            });
        }
        let header = DataHeader {
            group_id: get_u64(&mut buf, "group_id")?,
            instance: get_u32(&mut buf, "instance")?,
            role: get_u16(&mut buf, "role")?,
            timestep: get_u32(&mut buf, "timestep")?,
            start: get_u64(&mut buf, "start")?,
        };
        let n = get_u64(&mut buf, "values")?;
        match n.checked_mul(8) {
            Some(n_bytes) if n_bytes == buf.len() as u64 => Ok(Self {
                header,
                payload: buf,
            }),
            Some(n_bytes) if n_bytes > buf.len() as u64 => {
                Err(WireError::Truncated { what: "values" })
            }
            _ => Err(WireError::Invalid {
                what: "data frame length does not match its value count",
            }),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.payload.len() / 8
    }

    /// True for a frame that carries no values.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Copies the values into `dst` (a plain copy on little-endian
    /// hosts).
    ///
    /// # Panics
    /// Panics unless `dst.len() == self.len()`.
    pub fn copy_values_to(&self, dst: &mut [f64]) {
        copy_words_from_le(dst, self.payload);
    }

    /// The values as an owned vector.
    pub fn values(&self) -> Vec<f64> {
        words_from_le(self.payload)
    }
}

/// The `Data` tag byte, which [`DataHeader::encode_frame`] and
/// [`DataView::parse`] own; every other variant is declared below.
const DATA: u8 = 3;

// Tags 10 and 11 carried the retired live-migration messages: they
// decode as unknown tags and are never reused.
melissa_transport::wire_enum!(Message {
    1 => ConnectRequest { group_id, instance },
    2 => ConnectReply { n_workers, n_cells, p, n_timesteps },
    4 => Heartbeat { sender },
    5 => ServerReady,
    6 => ServerReport {
        finished_groups,
        running_groups,
        max_ci_width,
        max_quantile_step,
        quantile_steps,
        blocked_sends,
        blocked_nanos,
        frames_rejected,
    },
    7 => GroupTimeout { group_id },
    8 => Checkpoint { dir },
    9 => Stop,
    12 => JobEnded { group_id, instance },
    13 => Wake,
    14 => ReportNow,
    15 => Scrape { reply_to, format },
} else (put_data, get_data, data_len));

/// Writes the one variant the declaration leaves out, `Data`.
fn put_data(msg: &Message, buf: &mut BytesMut) {
    if let Message::Data {
        group_id,
        instance,
        role,
        timestep,
        start,
        values,
    } = msg
    {
        let header = DataHeader {
            group_id: *group_id,
            instance: *instance,
            role: *role,
            timestep: *timestep,
            start: *start,
        };
        header.encode_frame(buf, values);
    }
}

/// The length of the frame [`put_data`] writes.
fn data_len(msg: &Message) -> usize {
    match msg {
        Message::Data { values, .. } => DataHeader::ENCODED_LEN + 8 * values.len(),
        _ => 0,
    }
}

/// Reads a `Data` frame — the rest of `buf`, tag included — through
/// [`DataView::parse`] and one bulk copy of its values into the owned
/// `Vec<f64>` this type carries.
fn get_data(buf: &mut &[u8]) -> WireResult<Message> {
    if buf.first() != Some(&DATA) {
        return Err(WireError::Invalid {
            what: "unknown Message tag",
        });
    }
    let view = DataView::parse(buf)?;
    *buf = &[];
    let DataHeader {
        group_id,
        instance,
        role,
        timestep,
        start,
    } = view.header;
    Ok(Message::Data {
        group_id,
        instance,
        role,
        timestep,
        start,
        values: view.values(),
    })
}

impl Message {
    /// Encodes the message to a frame of exactly its length.
    pub fn encode(&self) -> Bytes {
        self.to_frame()
    }

    /// Decodes a frame: exactly one message, nothing trailing.
    ///
    /// A receiver that only wants a `Data` frame's values somewhere else
    /// (the server's assembly) uses [`DataView`] directly and skips the
    /// owned vector.
    pub fn decode(frame: &Bytes) -> WireResult<Message> {
        Message::from_frame(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = msg.encode();
        assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::ConnectRequest {
            group_id: 42,
            instance: 3,
        });
        roundtrip(Message::ConnectReply {
            n_workers: 8,
            n_cells: 1 << 33,
            p: 6,
            n_timesteps: 100,
        });
        roundtrip(Message::Data {
            group_id: 7,
            instance: 1,
            role: 5,
            timestep: 99,
            start: 12345,
            values: vec![1.0, -2.5, 1e300, f64::MIN_POSITIVE],
        });
        roundtrip(Message::Heartbeat { sender: 0 });
        roundtrip(Message::ServerReady);
        roundtrip(Message::ServerReport {
            finished_groups: vec![1, 2, 3],
            running_groups: vec![],
            max_ci_width: 0.25,
            max_quantile_step: 0.125,
            quantile_steps: vec![0.124, 0.0625, 0.124],
            blocked_sends: 42,
            blocked_nanos: 1_000_000,
            frames_rejected: 3,
        });
        roundtrip(Message::GroupTimeout { group_id: 9 });
        roundtrip(Message::Checkpoint {
            dir: "/tmp/ckpt".into(),
        });
        roundtrip(Message::Stop);
        roundtrip(Message::JobEnded {
            group_id: 5,
            instance: 2,
        });
        roundtrip(Message::Wake);
        roundtrip(Message::ReportNow);
        roundtrip(Message::Scrape {
            reply_to: "reply/1/2".into(),
            format: ScrapeFormat::Prometheus,
        });
    }

    #[test]
    fn garbage_is_rejected() {
        let frame = Bytes::from_static(&[200, 1, 2, 3]);
        assert!(Message::decode(&frame).is_err());
        let empty = Bytes::new();
        assert!(Message::decode(&empty).is_err());
    }

    #[test]
    fn truncated_data_message_is_rejected() {
        let msg = Message::Data {
            group_id: 1,
            instance: 0,
            role: 0,
            timestep: 0,
            start: 0,
            values: vec![1.0; 10],
        };
        let frame = msg.encode();
        let cut = frame.slice(0..frame.len() - 4);
        assert!(Message::decode(&cut).is_err());
    }

    fn data_message(values: Vec<f64>) -> Message {
        Message::Data {
            group_id: 0xA1B2_C3D4_E5F6_0718,
            instance: 3,
            role: 5,
            timestep: 99,
            start: 12345,
            values,
        }
    }

    #[test]
    fn data_view_reads_what_encode_wrote_and_rejects_every_other_length() {
        let values = vec![1.0, -2.5, f64::from_bits(0x7ff8_dead_beef_0001), -0.0];
        let frame = data_message(values.clone()).encode();
        assert_eq!(frame.len(), DataHeader::ENCODED_LEN + 8 * values.len());
        let view = DataView::parse(&frame).unwrap();
        assert_eq!(
            view.header,
            DataHeader {
                group_id: 0xA1B2_C3D4_E5F6_0718,
                instance: 3,
                role: 5,
                timestep: 99,
                start: 12345,
            }
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut copied = vec![0.0; view.len()];
        view.copy_values_to(&mut copied);
        assert_eq!(bits(&copied), bits(&values));
        assert_eq!(bits(&view.values()), bits(&values));
        // Every strict prefix is truncated; trailing bytes are a length
        // mismatch; both through the view and through `decode`.
        for cut in 0..frame.len() {
            assert!(DataView::parse(&frame[..cut]).is_err(), "prefix {cut}");
            assert!(
                Message::decode(&frame.slice(..cut)).is_err(),
                "prefix {cut}"
            );
        }
        for extra in [1usize, 7, 8, 9] {
            let mut long = frame.to_vec();
            long.extend(std::iter::repeat_n(0u8, extra));
            assert!(DataView::parse(&long).is_err(), "{extra} trailing bytes");
        }
        // A count that cannot be a byte length at all.
        let mut huge = frame.to_vec();
        huge[27..35].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(DataView::parse(&huge).is_err());
        assert!(!DataView::is_data(&Message::Stop.encode()));
        assert!(DataView::parse(&Message::Stop.encode()).is_err());
    }

    #[test]
    fn encode_frame_lays_frames_end_to_end_exactly_as_encode_does() {
        let chunks: [&[f64]; 3] = [&[1.5, 2.5, 3.5], &[], &[f64::MAX; 600]];
        let mut block = BytesMut::new();
        let mut ends = Vec::new();
        let mut want = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            let header = DataHeader {
                group_id: 7,
                instance: 1,
                role: i as u16,
                timestep: 4,
                start: 100 * i as u64,
            };
            header.encode_frame(&mut block, chunk);
            ends.push(block.len());
            want.push(
                Message::Data {
                    group_id: 7,
                    instance: 1,
                    role: i as u16,
                    timestep: 4,
                    start: 100 * i as u64,
                    values: chunk.to_vec(),
                }
                .encode(),
            );
        }
        let block = block.freeze();
        let mut from = 0;
        for (end, want) in ends.into_iter().zip(want) {
            assert_eq!(block.slice(from..end), want);
            from = end;
        }
    }

    #[test]
    fn data_message_size_is_dominated_by_payload() {
        let msg = Message::Data {
            group_id: 1,
            instance: 0,
            role: 0,
            timestep: 0,
            start: 0,
            values: vec![0.0; 1000],
        };
        let frame = msg.encode();
        assert!(
            frame.len() >= 8000 && frame.len() < 8100,
            "frame {} bytes",
            frame.len()
        );
    }
}
