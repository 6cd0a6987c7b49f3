//! One contract for every declared [`Wire`] type, and the bytes that must
//! not move.
//!
//! * [`assert_wire_contract`] holds each control-plane message to the
//!   codec's promises: an exact round trip (NaN payloads and `-0.0`
//!   included), trailing bytes refused, every strict prefix an error,
//!   every single-bit flip and 10 000 arbitrary inputs decoded or refused
//!   without a panic — and no allocation of 16 MiB or more, whatever a
//!   count in the bytes claims.  `wire_len` is the frame's length, and a
//!   decode that shares the frame gives the value a copying one does.
//!   [`covers!`] makes the samples name every enum variant: a variant it
//!   does not list fails to compile.
//! * [`Message`] frames and the TCP hello/reply are pinned to the bytes
//!   the hand-written codecs wrote before they became declarations.
//! * The five decoders that once sized a `Vec` from a count off the wire
//!   refuse a count of `u64::MAX` with a typed error.

use std::fmt::Debug;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use melissa::protocol::Message;
use melissa::StudyConfig;
use melissa_daemon::{DaemonOp, DaemonReply, DaemonRequest, StudyState};
use melissa_solver::UseCaseConfig;
use melissa_telemetry::{
    CodecScrape, EventKind, HistogramSnapshot, LinkScrape, MetricsSnapshot, Registry, ScrapeFormat,
    ScrapeReply, ScrapeSnapshot, StudyEvent,
};
use melissa_transport::codec::{read_frame, write_frame, Bytes, Wire, WireError};
use melissa_transport::directory::{DirectoryReply, DirectoryRequest};
use melissa_transport::tcp::{Hello, HelloReply};
use melissa_transport::{
    DirectoryClient, DirectoryServer, TcpTransport, TcpTransportConfig, Transport, TransportKind,
    WireCompression,
};

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

/// Records the largest single allocation the test binary ever asks for.
#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// Nothing here legitimately allocates more than a few frames' worth; a
/// size taken from a hostile count would dwarf this.
const ALLOC_CEILING: usize = 16 << 20;

/// A quiet NaN with a payload: only a bit-exact codec keeps it.
const NAN: f64 = f64::from_bits(0x7ff8_dead_beef_0001);

/// Asserts that `samples` hold a value of every pattern listed; the
/// `match` stops compiling when the enum gains a variant no pattern names.
macro_rules! covers {
    ($samples:expr, $($pat:pat),+ $(,)?) => {{
        let samples = &$samples;
        for sample in samples.iter() {
            match sample {
                $($pat)|+ => {}
            }
        }
        $(assert!(
            samples.iter().any(|s| matches!(s, $pat)),
            "no sample of {}",
            stringify!($pat)
        );)+
    }};
}

/// A small xorshift generator: the arbitrary inputs are the same on every
/// run.
struct Junk(u64);

impl Junk {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Holds `T`'s codec to its contract on `samples` (see the module docs).
fn assert_wire_contract<T: Wire + Debug>(samples: &[T]) {
    let frames: Vec<_> = samples.iter().map(Wire::to_frame).collect();
    for (sample, frame) in samples.iter().zip(&frames) {
        let back = T::from_frame(frame).unwrap_or_else(|e| panic!("{sample:?}: {e}"));
        assert_eq!(back.to_frame(), *frame, "{sample:?} re-encodes differently");
        assert_eq!(format!("{back:?}"), format!("{sample:?}"));
        assert_eq!(sample.wire_len(), frame.len(), "wire_len of {sample:?}");
        let shared = T::from_shared(frame).unwrap_or_else(|e| panic!("{sample:?}: {e}"));
        assert_eq!(shared.to_frame(), *frame, "{sample:?} shared decode");
        let mut long = frame.to_vec();
        long.push(0);
        assert!(T::from_frame(&long).is_err(), "{sample:?} + 1 byte decoded");
        for cut in 0..frame.len() {
            assert!(
                T::from_frame(&frame[..cut]).is_err(),
                "{cut} bytes of {sample:?} decoded"
            );
        }
        let mut flipped = frame.to_vec();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = T::from_frame(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
    // Half pure noise, half a real frame's head with noise behind it (so
    // the junk reaches the deeper fields too), at most 512 bytes each.
    let mut junk = Junk(0x2545_F491_4F6C_DD1D);
    for i in 0..10_000 {
        let len = junk.below(513);
        let mut input = Vec::with_capacity(len);
        if i % 2 == 1 {
            let frame = &frames[junk.below(frames.len())];
            input.extend_from_slice(&frame[..len.min(frame.len())]);
        }
        while input.len() < len {
            input.push(junk.next() as u8);
        }
        let _ = T::from_frame(&input);
    }
    let peak = common::largest_alloc();
    assert!(
        peak < ALLOC_CEILING,
        "a {peak}-byte allocation was requested"
    );
}

// ---------------------------------------------------------------------
// The melissa protocol
// ---------------------------------------------------------------------

/// One `Message` per variant, with the hex `Message::encode` wrote for it
/// before the declarations replaced the hand-written codec; `Scrape`,
/// which came later, with the hex its field list gives by the same rules
/// (tag, `u32` length and UTF-8 of `reply_to`, the format byte).
fn golden_messages() -> Vec<(Message, &'static str)> {
    vec![
        (
            Message::ConnectRequest {
                group_id: 42,
                instance: 3,
            },
            "012a0000000000000003000000",
        ),
        (
            Message::ConnectReply {
                n_workers: 8,
                n_cells: 1 << 33,
                p: 6,
                n_timesteps: 100,
            },
            "020800000000000000020000000600000064000000",
        ),
        (
            Message::Data {
                group_id: 7,
                instance: 1,
                role: 5,
                timestep: 99,
                start: 12345,
                values: vec![1.0, -0.0, NAN],
            },
            "0307000000000000000100000005006300000039300000000000000300000000000000\
             000000000000f03f00000000000000800100efbeaddef87f",
        ),
        (Message::Heartbeat { sender: 2 }, "0402000000"),
        (Message::ServerReady, "05"),
        (
            Message::ServerReport {
                finished_groups: vec![1, 2, 3],
                running_groups: vec![],
                max_ci_width: 0.25,
                max_quantile_step: f64::from_bits(0x7ff8_0000_0000_0001),
                quantile_steps: vec![0.125, -0.0],
                blocked_sends: 42,
                blocked_nanos: 1_000_000,
                frames_rejected: 3,
            },
            "060300000000000000010000000000000002000000000000000300000000000000000000\
             0000000000000000000000d03f010000000000f87f0200000000000000000000000000c0\
             3f00000000000000802a0000000000000040420f00000000000300000000000000",
        ),
        (Message::GroupTimeout { group_id: 9 }, "070900000000000000"),
        (
            Message::Checkpoint {
                dir: "/tmp/ckpt/é".into(),
            },
            "080c0000002f746d702f636b70742fc3a9",
        ),
        (Message::Stop, "09"),
        (
            Message::JobEnded {
                group_id: 5,
                instance: 2,
            },
            "0c050000000000000002000000",
        ),
        (Message::Wake, "0d"),
        (Message::ReportNow, "0e"),
        (
            Message::Scrape {
                reply_to: "reply/1/2".into(),
                format: ScrapeFormat::Prometheus,
            },
            "0f090000007265706c792f312f3202",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn messages_keep_their_bytes_and_the_contract() {
    let golden = golden_messages();
    for (message, bytes) in &golden {
        assert_eq!(hex(&message.encode()), *bytes, "{message:?} moved");
        assert_eq!(
            format!("{:?}", Message::decode(&unhex(bytes).into()).unwrap()),
            format!("{message:?}")
        );
    }
    let mut samples: Vec<Message> = golden.into_iter().map(|(m, _)| m).collect();
    samples.push(Message::Data {
        group_id: u64::MAX,
        instance: 0,
        role: 0,
        timestep: 0,
        start: 0,
        values: vec![],
    });
    samples.extend(FORMATS.iter().map(|&format| Message::Scrape {
        reply_to: String::new(),
        format,
    }));
    covers!(
        samples,
        Message::ConnectRequest { .. },
        Message::ConnectReply { .. },
        Message::Data { .. },
        Message::Heartbeat { .. },
        Message::ServerReady,
        Message::ServerReport { .. },
        Message::GroupTimeout { .. },
        Message::Checkpoint { .. },
        Message::Stop,
        Message::JobEnded { .. },
        Message::Wake,
        Message::ReportNow,
        Message::Scrape { .. },
    );
    assert_wire_contract(&samples);
}

/// The tags of deleted variants decode as unknown tags, never as another
/// message: `Message` 10 and 11 (the live-migration messages, at the
/// bytes their goldens pinned) and `EventKind` 9–13 (the shard-death and
/// migration events, as the codec that had them encoded them).
#[test]
fn retired_tags_stay_retired() {
    for bytes in ["0a1100000000000000", "0b1200000000000000ffffffffffffffff"] {
        assert_eq!(
            Message::decode(&unhex(bytes).into()),
            Err(WireError::Invalid {
                what: "unknown Message tag"
            }),
            "{bytes}"
        );
    }
    for bytes in [
        "09020000000000000001000000",
        "0a010000000000000003000000000000000000000002000000",
        "0b0100000000000000030000000000000000000000",
        "0c060000000000000001000000",
        "0d020000000000000004000000000000000100000000000000",
    ] {
        assert_eq!(
            EventKind::from_frame(&unhex(bytes)),
            Err(WireError::Invalid {
                what: "unknown EventKind tag"
            }),
            "{bytes}"
        );
    }
}

// ---------------------------------------------------------------------
// The daemon control plane
// ---------------------------------------------------------------------

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

/// Every field away from its default, floats at their oddest.
fn configs() -> Vec<StudyConfig> {
    let odd = StudyConfig {
        target_ci_width: Some(-0.0),
        target_quantile_step: Some(NAN),
        ci_variance_floor: NAN,
        thresholds: vec![NAN, -0.0, f64::INFINITY],
        quantile_probs: vec![],
        wall_limit: Duration::new(7, 999_999_999),
        transport: TransportKind::Tcp,
        wire_compression: WireCompression::Transpose,
        ..StudyConfig::default()
    };
    vec![exotic_config(), StudyConfig::default(), odd]
}

const FORMATS: [ScrapeFormat; 3] = [
    ScrapeFormat::Binary,
    ScrapeFormat::Json,
    ScrapeFormat::Prometheus,
];

fn daemon_ops() -> Vec<DaemonOp> {
    let mut ops: Vec<DaemonOp> = configs()
        .into_iter()
        .map(|config| DaemonOp::Submit {
            tenant: "acme".into(),
            priority: 2,
            config: Box::new(config),
        })
        .collect();
    ops.extend([
        DaemonOp::Status { study: 7 },
        DaemonOp::Cancel { study: 9 },
        DaemonOp::Results { study: 11 },
        DaemonOp::Shutdown,
        DaemonOp::Wait { study: u64::MAX },
    ]);
    ops.extend(FORMATS.map(|format| DaemonOp::Scrape { format }));
    covers!(
        ops,
        DaemonOp::Submit { .. },
        DaemonOp::Status { .. },
        DaemonOp::Cancel { .. },
        DaemonOp::Results { .. },
        DaemonOp::Shutdown,
        DaemonOp::Wait { .. },
        DaemonOp::Scrape { .. },
    );
    ops
}

const STATES: [StudyState; 5] = [
    StudyState::Queued,
    StudyState::Running,
    StudyState::Done,
    StudyState::Failed,
    StudyState::Cancelled,
];

fn daemon_replies() -> Vec<DaemonReply> {
    let mut replies: Vec<DaemonReply> = STATES
        .into_iter()
        .map(|state| DaemonReply::Status {
            study: 3,
            state,
            tenant: "acme".into(),
            groups_finished: 4,
            n_groups: 8,
        })
        .collect();
    replies.extend([
        DaemonReply::Submitted { study: 1 },
        DaemonReply::Rejected {
            tenant: "acme".into(),
            resource: "studies".into(),
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
    ]);
    covers!(
        replies,
        DaemonReply::Submitted { .. },
        DaemonReply::Rejected { .. },
        DaemonReply::Status { .. },
        DaemonReply::Cancelled { .. },
        DaemonReply::Results { .. },
        DaemonReply::Error { .. },
        DaemonReply::ShuttingDown,
    );
    replies
}

#[test]
fn daemon_rpc_keeps_the_wire_contract() {
    let ops = daemon_ops();
    let requests: Vec<DaemonRequest> = ops
        .iter()
        .cloned()
        .map(|op| DaemonRequest {
            reply_to: "ctl/reply/1/2".into(),
            op,
        })
        .collect();
    assert_wire_contract(&requests);
    assert_wire_contract(&ops);
    assert_wire_contract(&daemon_replies());
    assert_wire_contract(&configs());
    let configs = configs();
    let solvers: Vec<UseCaseConfig> = configs.iter().map(|c| c.solver.clone()).collect();
    assert_wire_contract(&solvers);
    let kinds = vec![
        TransportKind::InProcess,
        TransportKind::Tcp,
        TransportKind::tcp_node(None),
        exotic_config().transport,
    ];
    covers!(
        kinds,
        TransportKind::InProcess,
        TransportKind::Tcp,
        TransportKind::TcpNode { .. },
    );
    assert_wire_contract(&kinds);
    let compressions = [WireCompression::Off, WireCompression::Transpose];
    covers!(
        compressions,
        WireCompression::Off,
        WireCompression::Transpose,
    );
    assert_wire_contract(&compressions);
    covers!(
        STATES,
        StudyState::Queued,
        StudyState::Running,
        StudyState::Done,
        StudyState::Failed,
        StudyState::Cancelled,
    );
    assert_wire_contract(&STATES);
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

fn event_kinds() -> Vec<EventKind> {
    let kinds = vec![
        EventKind::GroupTimeout { group: 3 },
        EventKind::GroupRestarted {
            group: 7,
            instance: 1,
        },
        EventKind::GroupDied {
            group: 2,
            instance: 4,
            detail: "Died { code: 1 }".into(),
        },
        EventKind::GroupZombie {
            group: 9,
            instance: 0,
        },
        EventKind::GroupAbandoned {
            group: 5,
            retries: 3,
        },
        EventKind::GroupResubmitted {
            group: 1,
            instance: 2,
        },
        EventKind::ServerRestarted,
        EventKind::ServerKillInjected { finished: 4 },
        EventKind::CheckpointUnreadable {
            worker: 2,
            detail: "io: not found".into(),
        },
        EventKind::EarlyStop {
            max_ci: -0.0,
            max_qstep: NAN,
            cancelled: 5,
        },
        EventKind::Info {
            text: "free text, \"quoted\" é".into(),
        },
    ];
    covers!(
        kinds,
        EventKind::GroupTimeout { .. },
        EventKind::GroupRestarted { .. },
        EventKind::GroupDied { .. },
        EventKind::GroupZombie { .. },
        EventKind::GroupAbandoned { .. },
        EventKind::GroupResubmitted { .. },
        EventKind::ServerRestarted,
        EventKind::ServerKillInjected { .. },
        EventKind::CheckpointUnreadable { .. },
        EventKind::EarlyStop { .. },
        EventKind::Info { .. },
    );
    kinds
}

fn events() -> Vec<StudyEvent> {
    event_kinds()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| StudyEvent {
            seq: i as u64,
            at_nanos: 1000 + i as u64,
            shard: (i % 3) as u32,
            kind,
        })
        .collect()
}

fn metrics() -> MetricsSnapshot {
    let reg = Registry::new();
    reg.counter("frames_rejected_total").add(42);
    reg.counter("supervisor_wakeups_total{reason=\"deadline\"}");
    reg.gauge("runner_queue_depth").set(u64::MAX);
    let h = reg.histogram("ingest_sweep_nanos");
    for v in [0, 3, 1024, u64::MAX] {
        h.record(v);
    }
    reg.snapshot()
}

fn snapshots() -> Vec<ScrapeSnapshot> {
    let links = vec![
        LinkScrape {
            endpoint: "shard1/server/0".into(),
            messages: 10,
            bytes: 4096,
            wire_bytes: 2048,
            blocked_sends: 1,
            blocked_nanos: 999,
        },
        LinkScrape {
            endpoint: String::new(),
            messages: 0,
            bytes: 0,
            wire_bytes: 0,
            blocked_sends: 0,
            blocked_nanos: u64::MAX,
        },
    ];
    let busy = ScrapeSnapshot {
        shard: 1,
        backend: "tcp".into(),
        uptime_nanos: 123_456_789,
        groups_finished: 4,
        groups_running: 2,
        max_ci_width: -0.0,
        max_quantile_step: NAN,
        routing_epoch: 3,
        reconnects: 2,
        wire_codec: CodecScrape {
            encode_nanos: 1_500_000_000,
            decode_nanos: 250_000,
            bytes_in: 8192,
            bytes_out: 6000,
            raw_frames: 3,
        },
        links,
        metrics: metrics(),
        events: events()[..3].to_vec(),
    };
    let idle = ScrapeSnapshot {
        shard: 0,
        backend: String::new(),
        uptime_nanos: 0,
        groups_finished: 0,
        groups_running: 0,
        max_ci_width: f64::NAN,
        max_quantile_step: f64::INFINITY,
        routing_epoch: 0,
        reconnects: 0,
        wire_codec: CodecScrape::default(),
        links: vec![],
        metrics: MetricsSnapshot::default(),
        events: vec![],
    };
    vec![busy, idle]
}

#[test]
fn telemetry_formats_keep_the_wire_contract() {
    assert_wire_contract(&event_kinds());
    assert_wire_contract(&events());
    assert_wire_contract(&[events(), vec![]]);
    let metrics = metrics();
    assert_wire_contract(
        &metrics
            .histograms
            .iter()
            .map(|(_, h)| h.clone())
            .collect::<Vec<_>>(),
    );
    assert_wire_contract(&[HistogramSnapshot::empty()]);
    assert_wire_contract(&[metrics, MetricsSnapshot::default()]);
    covers!(
        FORMATS,
        ScrapeFormat::Binary,
        ScrapeFormat::Json,
        ScrapeFormat::Prometheus,
    );
    assert_wire_contract(&FORMATS);
    let snapshots = snapshots();
    assert_wire_contract(&snapshots[0].links);
    assert_wire_contract(&[snapshots[0].wire_codec, CodecScrape::default()]);
    assert_wire_contract(&snapshots);
}

// ---------------------------------------------------------------------
// The directory and the TCP handshake
// ---------------------------------------------------------------------

#[test]
fn directory_and_handshake_keep_the_wire_contract() {
    let entries = vec![
        ("server/0".to_string(), "10.0.0.7:9000".to_string()),
        (String::new(), "é:1".to_string()),
    ];
    let requests = vec![
        DirectoryRequest::Publish {
            name: "server/0".into(),
            addr: "10.0.0.7:9000".into(),
        },
        DirectoryRequest::Resolve {
            name: "server/1".into(),
        },
        DirectoryRequest::Unpublish {
            name: "server/0".into(),
        },
        DirectoryRequest::Renew {
            entries: entries.clone(),
        },
        DirectoryRequest::Renew { entries: vec![] },
        DirectoryRequest::List,
    ];
    covers!(
        requests,
        DirectoryRequest::Publish { .. },
        DirectoryRequest::Resolve { .. },
        DirectoryRequest::Unpublish { .. },
        DirectoryRequest::Renew { .. },
        DirectoryRequest::List,
    );
    assert_wire_contract(&requests);
    let replies = vec![
        DirectoryReply::Done,
        DirectoryReply::NotFound,
        DirectoryReply::Found {
            addr: "10.0.0.7:9000".into(),
        },
        DirectoryReply::Entries { entries },
    ];
    covers!(
        replies,
        DirectoryReply::Done,
        DirectoryReply::NotFound,
        DirectoryReply::Found { .. },
        DirectoryReply::Entries { .. },
    );
    assert_wire_contract(&replies);
    assert_wire_contract(&[golden_hello(), {
        let mut h = golden_hello();
        h.compression = WireCompression::Off;
        h
    }]);
    let replies = vec![golden_reply(), HelloReply::NotFound];
    covers!(replies, HelloReply::Accepted { .. }, HelloReply::NotFound);
    assert_wire_contract(&replies);
}

fn golden_hello() -> Hello {
    Hello {
        name: "victim".into(),
        link_id: 0x0123_4567_89ab_cdef,
        compression: WireCompression::Transpose,
    }
}

fn golden_reply() -> HelloReply {
    HelloReply::Accepted {
        hwm: 4,
        resume: 0,
        compression: WireCompression::Transpose,
    }
}

/// The handshake as the hand-written codec wrote it.
const HELLO: &str = "0600000076696374696defcdab89674523010100";
const REPLY: &str = "000400000000000000000000000100";
const NOT_FOUND: &str = "01";

/// Both ends of a live link still speak the old handshake bytes: a node's
/// dialer sends them, and its acceptor answers them.
#[test]
fn the_handshake_keeps_its_bytes_on_a_live_link() {
    assert_eq!(hex(&golden_hello().to_frame()), HELLO);
    assert_eq!(hex(&golden_reply().to_frame()), REPLY);
    assert_eq!(hex(&HelloReply::NotFound.to_frame()), NOT_FOUND);

    // The dialer: a node resolves "victim" to a listener of ours.
    let directory = DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
    let dir_addr = directory.local_addr().to_string();
    let fake = TcpListener::bind("127.0.0.1:0").unwrap();
    DirectoryClient::connect(&dir_addr)
        .unwrap()
        .publish("victim", &fake.local_addr().unwrap().to_string())
        .unwrap();
    let mut config = TcpTransportConfig::node(&dir_addr);
    config.compression = WireCompression::Transpose;
    let dialer = TcpTransport::with_config(config).unwrap();
    let acceptor = std::thread::spawn(move || {
        let (mut stream, _) = fake.accept().unwrap();
        let hello = read_frame(&mut stream, 1 << 16).unwrap().unwrap();
        write_frame(&mut stream, &unhex(NOT_FOUND)).unwrap();
        stream.flush().unwrap();
        hello
    });
    assert!(
        dialer.connect("victim").is_err(),
        "our listener said NotFound"
    );
    let mut sent = acceptor.join().unwrap();
    // The link id is process-unique; everything else is fixed.
    sent[10..18].copy_from_slice(&golden_hello().link_id.to_le_bytes());
    assert_eq!(hex(&sent), HELLO);

    // The acceptor: the golden hello to a bound endpoint of HWM 4.
    let mut config = TcpTransportConfig::local();
    config.compression = WireCompression::Transpose;
    let node = TcpTransport::with_config(config).unwrap();
    let _rx = node.bind("victim", 4);
    let mut stream = TcpStream::connect(node.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &unhex(HELLO)).unwrap();
    let reply = read_frame(&mut stream, 1 << 16).unwrap().unwrap();
    assert_eq!(hex(&reply), REPLY);
}

// ---------------------------------------------------------------------
// Counts of u64::MAX: five decoders that used to allocate first
// ---------------------------------------------------------------------

const HUGE: [u8; 8] = u64::MAX.to_le_bytes();

fn is_truncated<T: Debug>(decoded: Result<T, WireError>) -> bool {
    matches!(decoded, Err(WireError::Truncated { .. }))
}

#[test]
fn an_event_journal_claiming_u64_max_events_is_refused() {
    assert!(is_truncated(Vec::<StudyEvent>::from_frame(&HUGE)));
}

#[test]
fn a_metrics_snapshot_claiming_u64_max_counters_is_refused() {
    assert!(is_truncated(MetricsSnapshot::from_frame(&HUGE)));
    // … or histograms, behind two honest empty lists.
    let mut frame = vec![0; 16];
    frame.extend(HUGE);
    assert!(is_truncated(MetricsSnapshot::from_frame(&frame)));
}

#[test]
fn a_scrape_reply_claiming_u64_max_links_is_refused() {
    let mut snapshot = snapshots().swap_remove(1);
    snapshot.links = vec![];
    let mut frame = snapshot.to_frame().to_vec();
    // Schema, shard, empty backend, seven words, five codec words.
    let at = 4 + 4 + 4 + 7 * 8 + 5 * 8;
    assert_eq!(frame[at..at + 8], [0; 8], "the empty link list");
    frame[at..at + 8].copy_from_slice(&HUGE);
    assert!(is_truncated(ScrapeSnapshot::from_frame(&frame)));
    frame.insert(0, 0); // a binary reply, as a scraper receives it
    assert!(is_truncated(ScrapeReply::decode(&frame)));
}

#[test]
fn a_results_reply_claiming_u64_max_workers_is_refused() {
    let empty = DaemonReply::Results {
        p: 2,
        n_timesteps: 4,
        n_cells: 64,
        groups_finished: 8,
        workers: vec![],
    };
    let mut frame = empty.to_frame().to_vec();
    let at = frame.len() - 8;
    frame[at..].copy_from_slice(&HUGE);
    assert!(is_truncated(DaemonReply::from_frame(&frame)));
}

/// A directory that answers every request with a listing of `u64::MAX`
/// entries: the client reports a protocol error and lives on.
#[test]
fn a_directory_listing_claiming_u64_max_entries_is_refused() {
    let hostile = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = hostile.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = hostile.accept().unwrap();
        while let Ok(Some(_request)) = read_frame(&mut stream, 1 << 16) {
            let mut reply = vec![3]; // DirectoryReply::Entries
            reply.extend(HUGE);
            write_frame(&mut stream, &reply).unwrap();
        }
    });
    let client = DirectoryClient::connect(&addr).unwrap();
    let listed = client.list();
    assert!(
        matches!(
            listed,
            Err(melissa_transport::DirectoryError::Protocol { .. })
        ),
        "{listed:?}"
    );
    drop(client);
    server.join().unwrap();
}
