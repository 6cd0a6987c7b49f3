//! A complete in transit study over **real TCP loopback sockets**.
//!
//! Same framework stack as `tube_bundle` — launcher, batch runner,
//! simulation groups, two-stage transfer, parallel server — but every
//! frame crosses an actual `std::net` socket through the
//! `TcpTransport` backend instead of an in-process channel.  The study is
//! then repeated over the in-process backend with the same seed, and the
//! resulting Sobol' maps are compared **bit for bit**: the transport is a
//! pluggable backend, not a source of numerical noise.
//!
//! A third leg re-runs the TCP study with **lossless in-frame wire
//! compression** (`WireCompression::Transpose`): still bit-identical —
//! the codec lives strictly inside the frame payload — while the link
//! moves measurably fewer bytes than the payload it carries.
//!
//! Run with: `cargo run --release --example tcp_study`

use std::time::Duration;

use melissa_repro::melissa::{Study, StudyConfig};
use melissa_repro::transport::{TransportKind, WireCompression};

fn config(kind: TransportKind, compression: WireCompression, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.transport = kind;
    config.wire_compression = compression;
    config.n_groups = 6;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-ex-tcp-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

fn main() {
    println!("== study over TCP loopback ==");
    let tcp = Study::new(config(TransportKind::Tcp, WireCompression::Off, "tcp"))
        .run()
        .expect("TCP study failed");
    println!("{}", tcp.report);

    println!("== same seeded study, in-process ==");
    let inproc = Study::new(config(
        TransportKind::InProcess,
        WireCompression::Off,
        "inproc",
    ))
    .run()
    .expect("in-process study failed");
    println!("{}", inproc.report);

    println!("== same seeded study, TCP with wire compression ==");
    let zipped = Study::new(config(
        TransportKind::Tcp,
        WireCompression::Transpose,
        "zip",
    ))
    .run()
    .expect("compressed TCP study failed");
    println!("{}", zipped.report);

    // The whole point of the trait surface: identical statistics —
    // across backends AND with the wire codec on.
    let diff = tcp.results.first_bit_mismatch(&inproc.results);
    assert_eq!(diff, None, "tcp vs in-process");
    let diff = tcp.results.first_bit_mismatch(&zipped.results);
    assert_eq!(diff, None, "tcp vs tcp under compression");
    println!(
        "parity: every statistic at every timestep bit-identical across backends \
         ({} data frames over real sockets, {:.1} MiB, {} blocked sends)",
        tcp.report.data_messages,
        tcp.report.data_mib(),
        tcp.report.blocked_sends,
    );
    assert!(
        zipped.report.link_wire_bytes < zipped.report.link_bytes,
        "compressed study moved {} wire bytes for {} payload bytes",
        zipped.report.link_wire_bytes,
        zipped.report.link_bytes
    );
    println!(
        "wire: {:.1} MiB payload went over the socket as {:.1} MiB \
         ({:.2}x compression), statistics untouched",
        zipped.report.link_bytes as f64 / (1024.0 * 1024.0),
        zipped.report.link_wire_bytes as f64 / (1024.0 * 1024.0),
        zipped.report.link_bytes as f64 / zipped.report.link_wire_bytes as f64,
    );
}
