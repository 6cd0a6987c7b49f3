//! End-to-end wire-compression parity: a seeded sequential study with
//! lossless in-frame compression (`WireCompression::Transpose`) must be
//! **bit-identical** to the same study with compression off, over both
//! backends — the codec sits entirely inside the frame payload, so
//! nothing above the transport can tell it was ever there.
//!
//! The TCP run also proves the compression actually happened: its
//! study-level `link_wire_bytes` rollup must come in below the payload
//! `link_bytes` (smooth solver fields compress well), while the
//! uncompressed run pays the framing overhead on top of the payload.

use std::time::Duration;

use melissa::{Study, StudyConfig, StudyOutput};
use melissa_transport::{TransportKind, WireCompression};

fn seeded_config(kind: TransportKind, compression: WireCompression, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.transport = kind;
    config.wire_compression = compression;
    config.n_groups = 3;
    config.max_concurrent_groups = 1; // deterministic integration order
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-zip-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

fn run(kind: TransportKind, compression: WireCompression, tag: &str) -> StudyOutput {
    Study::new(seeded_config(kind.clone(), compression, tag))
        .run()
        .unwrap_or_else(|e| panic!("{kind}/{compression} study failed: {e}"))
}

fn assert_statistics_match(reference: &StudyOutput, other: &StudyOutput) {
    assert_eq!(reference.report.data_messages, other.report.data_messages);
    assert_eq!(reference.report.data_bytes, other.report.data_bytes);
    assert_eq!(reference.results.first_bit_mismatch(&other.results), None);
}

#[test]
fn compressed_studies_are_bit_identical_to_uncompressed_over_both_backends() {
    let tcp_off = run(TransportKind::Tcp, WireCompression::Off, "tcp-off");
    let tcp_zip = run(TransportKind::Tcp, WireCompression::Transpose, "tcp-zip");
    let inproc_zip = run(
        TransportKind::InProcess,
        WireCompression::Transpose,
        "ip-zip",
    );

    // Bit parity: compression changed nothing above the transport.
    assert_statistics_match(&tcp_off, &tcp_zip);
    assert_statistics_match(&tcp_off, &inproc_zip);

    // ... but it did change the wire.  Compressed TCP moves fewer bytes
    // than the payload it carries; uncompressed TCP pays framing on top.
    assert!(tcp_zip.report.link_wire_bytes > 0);
    assert!(
        tcp_zip.report.link_wire_bytes < tcp_zip.report.link_bytes,
        "wire {} not below payload {}",
        tcp_zip.report.link_wire_bytes,
        tcp_zip.report.link_bytes
    );
    assert!(
        tcp_off.report.link_wire_bytes >= tcp_off.report.link_bytes,
        "uncompressed wire {} below payload {}",
        tcp_off.report.link_wire_bytes,
        tcp_off.report.link_bytes
    );
    // The in-process backend has no wire: the rollup falls back to the
    // payload bytes so the bytes/wire ratio reads 1.0.
    assert_eq!(
        inproc_zip.report.link_wire_bytes,
        inproc_zip.report.link_bytes
    );
}
