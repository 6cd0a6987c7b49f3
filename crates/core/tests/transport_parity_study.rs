//! End-to-end backend parity: the same seeded study run over the
//! in-process backend and over real TCP loopback sockets must produce
//! **bit-identical** statistics — Sobol' indices, moments, min/max
//! envelope, threshold exceedance and Robbins–Monro quantiles.
//!
//! Sequential group execution (`max_concurrent_groups = 1`) pins the
//! integration order, so any divergence is a transport bug (reordered,
//! duplicated, corrupted or lost frames), not floating-point
//! non-determinism.

use std::time::Duration;

use melissa::{Study, StudyConfig, StudyOutput};
use melissa_transport::TransportKind;

fn seeded_config(kind: TransportKind, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.transport = kind;
    config.n_groups = 3;
    config.max_concurrent_groups = 1; // deterministic integration order
    config.thresholds = vec![0.1, 0.5];
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-tp-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

fn run(kind: TransportKind, tag: &str) -> StudyOutput {
    Study::new(seeded_config(kind.clone(), tag))
        .run()
        .unwrap_or_else(|e| panic!("{kind} study failed: {e}"))
}

#[test]
fn tcp_study_statistics_are_bit_identical_to_in_process() {
    let reference = run(TransportKind::InProcess, "ref");
    let over_tcp = run(TransportKind::Tcp, "tcp");

    assert_eq!(over_tcp.report.transport, "tcp");
    assert_eq!(reference.report.transport, "in-process");
    assert_eq!(over_tcp.report.groups_finished, 3);
    assert_eq!(over_tcp.report.group_restarts, 0);
    assert_eq!(over_tcp.report.server_restarts, 0);
    // Same payload traffic reached the server over both backends.
    assert_eq!(
        over_tcp.report.data_messages,
        reference.report.data_messages
    );
    assert_eq!(over_tcp.report.data_bytes, reference.report.data_bytes);

    assert!(
        !reference.results.quantile_probs().is_empty(),
        "tiny config tracks quantiles by default"
    );
    assert_eq!(
        reference.results.first_bit_mismatch(&over_tcp.results),
        None,
        "in-process vs tcp"
    );
}

#[test]
fn tcp_study_with_concurrent_groups_completes() {
    // Concurrency relaxes the bit-exactness guarantee (group integration
    // order becomes scheduling-dependent on *both* backends) but the TCP
    // data path must still deliver every frame of overlapping groups.
    let mut config = seeded_config(TransportKind::Tcp, "conc");
    config.n_groups = 4;
    config.max_concurrent_groups = 2;
    let output = Study::new(config).run().expect("study failed");
    assert_eq!(output.report.groups_finished, 4);
    assert_eq!(output.report.groups_abandoned.len(), 0);
    let last = output.results.n_timesteps() - 1;
    assert_eq!(output.results.groups_integrated(last), 4);
    // The link rollup saw real traffic.
    assert!(output.report.link_messages > 0);
    assert!(output.report.link_bytes >= output.report.data_bytes);
}
