//! End-to-end daemon service tests: the multi-tenant acceptance
//! criterion (a daemon-submitted study is bit-identical to the same-seed
//! standalone run, even with two tenants' studies interleaved on one
//! shared pool), the typed quota-rejection path, and the cancel path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa::client::ClientError;
use melissa::protocol::Message;
use melissa::{Study, StudyConfig, StudyResults};
use melissa_daemon::{Daemon, DaemonClient, DaemonConfig, StudyState, TenantQuota};
use melissa_telemetry::ScrapeFormat;
use melissa_transport::directory::names;
use melissa_transport::{
    make_transport, Disconnected, LinkStatsSnapshot, Transport, TransportKind,
};

fn seeded_config(seed: u64, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = 3;
    config.max_concurrent_groups = 1; // deterministic integration order
    config.seed = seed;
    config.thresholds = vec![0.1, 0.5];
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-daemon-it-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

fn assert_results_bit_identical(daemon: &StudyResults, standalone: &StudyResults) {
    assert_eq!(
        daemon.first_bit_mismatch(standalone),
        None,
        "daemon vs standalone"
    );
}

/// The tentpole acceptance test: two tenants, two concurrent studies on
/// one shared pool, each bit-identical to its same-seed standalone run.
#[test]
fn interleaved_tenant_studies_match_standalone_bit_for_bit() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            pool_units: 4,
            max_active_studies: 4,
            ..DaemonConfig::default()
        },
    );
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let acme_cfg = seeded_config(2017, "acme");
    let globex_cfg = seeded_config(4242, "globex");

    let acme = client
        .submit("acme", 0, acme_cfg.clone())
        .expect("acme admitted");
    let globex = client
        .submit("globex", 0, globex_cfg.clone())
        .expect("globex admitted");
    assert_ne!(acme, globex);

    let acme_status = client.wait(acme, Duration::from_secs(240)).expect("acme");
    let globex_status = client
        .wait(globex, Duration::from_secs(240))
        .expect("globex");
    assert_eq!(acme_status.state, StudyState::Done);
    assert_eq!(globex_status.state, StudyState::Done);
    assert_eq!(acme_status.groups_finished, 3);
    assert_eq!(globex_status.tenant, "globex");

    let acme_results = client.results(acme).expect("acme results");
    let globex_results = client.results(globex).expect("globex results");

    let mut acme_ref_cfg = acme_cfg;
    acme_ref_cfg.checkpoint_dir = acme_ref_cfg.checkpoint_dir.join("standalone");
    let acme_ref = Study::new(acme_ref_cfg).run().expect("standalone acme");
    let mut globex_ref_cfg = globex_cfg;
    globex_ref_cfg.checkpoint_dir = globex_ref_cfg.checkpoint_dir.join("standalone");
    let globex_ref = Study::new(globex_ref_cfg).run().expect("standalone globex");

    assert_results_bit_identical(&acme_results, &acme_ref.results);
    assert_results_bit_identical(&globex_results, &globex_ref.results);

    daemon.stop();
}

/// A daemon on real TCP loopback sockets serves the same bits as the
/// standalone in-process run.
#[test]
fn daemon_study_over_tcp_matches_standalone() {
    let transport = make_transport(TransportKind::Tcp);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let mut config = seeded_config(99, "tcp");
    config.n_groups = 2;
    let id = client.submit("acme", 0, config.clone()).expect("admitted");
    let status = client.wait(id, Duration::from_secs(240)).expect("finish");
    assert_eq!(status.state, StudyState::Done);
    let results = client.results(id).expect("results");

    config.checkpoint_dir = config.checkpoint_dir.join("standalone");
    let reference = Study::new(config).run().expect("standalone");
    assert_results_bit_identical(&results, &reference.results);

    daemon.stop();
}

/// Admission rejections surface as typed `ClientError::QuotaExceeded`
/// end to end, and releasing the quota readmits the tenant.
#[test]
fn quota_rejections_are_typed_and_released_on_completion() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            default_quota: TenantQuota {
                max_studies: 1,
                max_groups: 16,
                max_units: 4,
            },
            ..DaemonConfig::default()
        },
    );
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    // A study that can never run: its design alone exceeds the quota.
    let mut oversized = seeded_config(7, "oversized");
    oversized.n_groups = 17;
    match client.submit("acme", 0, oversized) {
        Err(ClientError::QuotaExceeded { tenant, resource }) => {
            assert_eq!(tenant, "acme");
            assert_eq!(resource, "groups");
        }
        other => panic!("expected a groups quota rejection, got {other:?}"),
    }

    // Concurrency quota: a second in-flight study is rejected while the
    // first is live, and another tenant is unaffected.
    let first = client
        .submit("acme", 0, seeded_config(8, "first"))
        .expect("first study admitted");
    match client.submit("acme", 0, seeded_config(9, "second")) {
        Err(ClientError::QuotaExceeded { tenant, resource }) => {
            assert_eq!(tenant, "acme");
            assert_eq!(resource, "studies");
        }
        other => panic!("expected a studies quota rejection, got {other:?}"),
    }
    client
        .submit("globex", 0, seeded_config(10, "other-tenant"))
        .expect("other tenants keep their own quota");

    // Once the first study finishes its reservation is returned.
    let status = client.wait(first, Duration::from_secs(240)).expect("first");
    assert_eq!(status.state, StudyState::Done);
    let mut readmitted = Err(ClientError::ServerUnavailable);
    for _ in 0..100 {
        readmitted = client.submit("acme", 0, seeded_config(11, "readmitted"));
        if readmitted.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    readmitted.expect("quota released after completion");

    daemon.stop();
}

/// Cancelling a running study stops it, reports `Cancelled`, and makes
/// `results` fail loud.
#[test]
fn cancel_stops_a_running_study() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let mut config = seeded_config(13, "cancel");
    config.n_groups = 64; // long enough to still be running when cancelled
    let id = client.submit("acme", 0, config).expect("admitted");

    // Wait until the study is actually running, then cancel it.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.status(id).expect("status");
        if status.state == StudyState::Running {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "study never started running (state {})",
            status.state
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    client.cancel(id).expect("cancel acknowledged");

    let status = client.wait(id, Duration::from_secs(60)).expect("terminal");
    assert_eq!(status.state, StudyState::Cancelled);
    match client.results(id) {
        Err(ClientError::BadHandshake { detail }) => {
            assert!(detail.contains("cancelled"), "detail: {detail}")
        }
        Err(other) => panic!("expected a cancelled-results error, got {other:?}"),
        Ok(_) => panic!("cancelled study must not return results"),
    }

    // Cancel is idempotent; unknown studies fail loud.
    client.cancel(id).expect("idempotent cancel");
    assert!(client.status(9999).is_err());

    daemon.stop();
}

/// A tenant's study that fails mid-run (here: its wall limit) fails
/// *cleanly*: it reaches `Failed` with the supervisor's error, its jobs
/// and server threads are gone, the pool is whole again — and the other
/// tenant's concurrent study never notices.
#[test]
fn failed_study_frees_its_resources_and_spares_its_neighbour() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            pool_units: 4,
            max_active_studies: 4,
            ..DaemonConfig::default()
        },
    );
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let mut doomed_cfg = seeded_config(31, "doomed");
    doomed_cfg.n_groups = 16;
    doomed_cfg.wall_limit = Duration::from_millis(5);
    let healthy_cfg = seeded_config(32, "healthy");
    let doomed = client.submit("acme", 0, doomed_cfg).expect("admitted");
    let healthy = client
        .submit("globex", 0, healthy_cfg.clone())
        .expect("admitted");

    let status = client
        .wait(doomed, Duration::from_secs(60))
        .expect("doomed");
    assert_eq!(status.state, StudyState::Failed);
    match client.results(doomed) {
        Err(ClientError::BadHandshake { detail }) => {
            assert!(detail.contains("exceeded wall limit"), "detail: {detail}")
        }
        Err(other) => panic!("expected the wall-limit failure, got {other:?}"),
        Ok(_) => panic!("a failed study must not return results"),
    }

    let status = client
        .wait(healthy, Duration::from_secs(240))
        .expect("healthy");
    assert_eq!(status.state, StudyState::Done);
    let results = client.results(healthy).expect("healthy results");
    let mut reference_cfg = healthy_cfg;
    reference_cfg.checkpoint_dir = reference_cfg.checkpoint_dir.join("standalone");
    let reference = Study::new(reference_cfg).run().expect("standalone");
    assert_results_bit_identical(&results, &reference.results);

    // Nothing of the failed study is left running: the pool is whole, and
    // its server threads took their receivers with them.
    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(
        json.contains("\"pool_units\":4,\"free_units\":4"),
        "json: {json}"
    );
    let scope = names::study_scope(doomed);
    let data_tx = transport
        .connect(&names::server_worker_in(&scope, 0))
        .expect("endpoint names outlive their study");
    assert_eq!(
        data_tx.send(Message::Stop.encode()),
        Err(Disconnected),
        "the failed study's server is still receiving"
    );

    daemon.stop();
}

/// The daemon-level telemetry endpoint aggregates queue depths,
/// per-tenant usage and admission decisions over the scrape protocol.
#[test]
fn daemon_telemetry_snapshot_aggregates_tenants_and_admissions() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            default_quota: TenantQuota {
                max_studies: 1,
                max_groups: 16,
                max_units: 4,
            },
            ..DaemonConfig::default()
        },
    );
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let id = client
        .submit("acme", 0, seeded_config(21, "tele"))
        .expect("admitted");
    // Force one typed rejection so the counters move.
    assert!(client
        .submit("acme", 0, seeded_config(22, "tele2"))
        .is_err());

    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(json.contains("\"tenant\":\"acme\""), "json: {json}");
    assert!(json.contains("\"admitted\":1"), "json: {json}");
    assert!(json.contains("\"rejected_studies\":1"), "json: {json}");

    let prom = client
        .scrape_daemon(ScrapeFormat::Prometheus)
        .expect("prometheus");
    assert!(prom.contains("melissad_pool_units"), "prom: {prom}");
    assert!(
        prom.contains("melissad_admissions_total{decision=\"rejected\",resource=\"studies\"} 1"),
        "prom: {prom}"
    );

    let status = client.wait(id, Duration::from_secs(240)).expect("finish");
    assert_eq!(status.state, StudyState::Done);
    daemon.stop();
}

/// A client that stopped waiting (its deadline passed, its reply endpoint
/// is unbound) costs the control thread one failed `connect`, not a
/// retry loop: the next tenant's RPCs are served at once.
#[test]
fn vanished_waiter_does_not_stall_other_tenants() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            max_active_studies: 1,
            ..DaemonConfig::default()
        },
    );
    let rpc_timeout = Duration::from_secs(10);
    let client = DaemonClient::new(Arc::clone(&transport), rpc_timeout);

    // `running` holds the only active slot for the whole test, so
    // `queued` stays queued until it is cancelled.
    let mut long_cfg = seeded_config(41, "long");
    long_cfg.n_groups = 16;
    let running = client.submit("acme", 0, long_cfg).expect("admitted");
    let queued = client
        .submit("acme", 0, seeded_config(42, "queued"))
        .expect("queued");
    assert!(matches!(
        client.wait(queued, Duration::from_millis(1)),
        Err(ClientError::HandshakeTimeout)
    ));

    // Cancelling a queued study answers its waiters inside the handler,
    // the vanished one first; then another tenant submits.
    let started = Instant::now();
    client.cancel(queued).expect("cancel");
    let other = client
        .submit("globex", 0, seeded_config(43, "other"))
        .expect("admitted");
    assert!(
        started.elapsed() < rpc_timeout / 10,
        "cancel + submit took {:?} behind a vanished waiter",
        started.elapsed()
    );
    let status = client.wait(queued, Duration::from_secs(10)).expect("wait");
    assert_eq!(status.state, StudyState::Cancelled);

    client.cancel(running).expect("cancel");
    client.cancel(other).expect("cancel");
    daemon.stop();
}

/// Hosting the n-th identical study costs what hosting the second did:
/// one `Wait` frame per `DaemonClient::wait` (not a `status` poll per
/// tick), the same data-link traffic as the standalone run, and a link
/// rollup that stopped growing after the first study was reaped.
#[test]
fn identical_hosted_studies_cost_the_same_frames_and_leave_the_same_ledger() {
    fn rollup(transport: &Arc<dyn Transport>) -> (usize, u64, LinkStatsSnapshot) {
        let stats = transport.link_stats();
        let mut data = LinkStatsSnapshot::default();
        let mut ctl_messages = 0;
        for (name, snap) in &stats {
            let mut parts = name.rsplit('/');
            let worker = parts.next().unwrap_or("");
            if parts.next() == Some("server") && worker.parse::<usize>().is_ok() {
                data.absorb(snap);
            }
            if *name == names::daemon_ctl() {
                ctl_messages = snap.messages;
            }
        }
        (stats.len(), ctl_messages, data)
    }

    let mut config = seeded_config(77, "ledger");
    config.n_groups = 2;
    let mut standalone_cfg = config.clone();
    standalone_cfg.checkpoint_dir = standalone_cfg.checkpoint_dir.join("standalone");
    let standalone = Study::new(standalone_cfg).run().expect("standalone").report;
    // The report is filled before the launcher sends each server worker
    // its one-byte `Stop`; the transport's rollup, read later, has those.
    let stops = config.server_workers as u64;

    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let mut ledger_sizes = Vec::new();
    for _ in 0..10 {
        let (_, ctl_before, data_before) = rollup(&transport);
        let id = client.submit("acme", 0, config.clone()).expect("admitted");
        let status = client.wait(id, Duration::from_secs(240)).expect("finish");
        assert_eq!(status.state, StudyState::Done);
        let (ledger_size, ctl_after, data_after) = rollup(&transport);
        ledger_sizes.push(ledger_size);
        assert_eq!(
            ctl_after - ctl_before,
            3,
            "control frames of study {id}: its submit, its wait, its end"
        );
        assert_eq!(
            (
                data_after.messages - data_before.messages,
                data_after.bytes - data_before.bytes,
                data_after.wire_bytes - data_before.wire_bytes,
            ),
            (
                standalone.link_messages + stops,
                standalone.link_bytes + stops,
                standalone.link_wire_bytes + stops,
            ),
            "data-link traffic of study {id}"
        );
    }
    assert_eq!(ledger_sizes[9], ledger_sizes[1], "sizes: {ledger_sizes:?}");

    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(
        json.contains(
            "\"daemon_ctl_wakeups_total\":{\"request\":20,\"study_ended\":10,\"scrape\":1}"
        ),
        "json: {json}"
    );
    daemon.stop();
}
