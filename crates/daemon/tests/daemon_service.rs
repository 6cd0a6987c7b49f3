//! End-to-end daemon service tests: the multi-tenant acceptance
//! criterion (a daemon-submitted study is bit-identical to the same-seed
//! standalone run, even with two tenants' studies interleaved on one
//! shared pool), the typed quota-rejection path, and the cancel path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use melissa::client::ClientError;
use melissa::protocol::Message;
use melissa::scrape::scrape_reply_in;
use melissa::server::{Server, ServerConfig};
use melissa::{Study, StudyConfig, StudyResults};
use melissa_daemon::{
    Daemon, DaemonClient, DaemonConfig, DaemonOp, DaemonReply, DaemonRequest, StudyState,
    TenantQuota,
};
use melissa_telemetry::{ScrapeFormat, ScrapeReply, Telemetry};
use melissa_transport::codec::{Bytes, Wire};
use melissa_transport::directory::names;
use melissa_transport::{
    make_transport, round_trip, BoxReceiver, BoxSender, ChannelTransport, ConnectError,
    LinkStatsSnapshot, Transport, TransportKind,
};

/// `VmRSS` is one figure per process, and the harness runs this file's
/// tests on threads of one: the test that reads it holds this for
/// writing, every other test holds it for reading.
static RSS_WINDOW: RwLock<()> = RwLock::new(());

fn shared_process() -> RwLockReadGuard<'static, ()> {
    RSS_WINDOW.read().unwrap_or_else(PoisonError::into_inner)
}

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

/// The results files a hosted study wrote under its scope directory.
fn results_files(checkpoint_dir: &Path, study: u64) -> Vec<PathBuf> {
    let dir = checkpoint_dir.join(names::study_scope(study));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("melissa_results_"))
        })
        .collect();
    files.sort();
    files
}

/// The `Results` reply frame exactly as the daemon sends it, fetched with
/// a bare request instead of through `DaemonClient`.
fn results_reply_frame(transport: &Arc<dyn Transport>, study: u64) -> Bytes {
    let request = |reply_to: &str| {
        let op = DaemonOp::Results { study };
        DaemonRequest {
            reply_to: reply_to.into(),
            op,
        }
        .to_frame()
    };
    let timeout = Duration::from_secs(10);
    round_trip(
        transport.as_ref(),
        &names::daemon_ctl(),
        request,
        timeout,
        timeout,
    )
    .expect("a reply")
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
    let _process = shared_process();
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
    let scratch = [&acme_cfg, &globex_cfg].map(|cfg| cfg.checkpoint_dir.clone());

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
    // The statistics live in the study's results files, read anew on
    // every call: a second call returns the same bits.
    let again = client.results(acme).expect("acme results again");
    assert_eq!(acme_results.first_bit_mismatch(&again), None, "second call");
    let files = results_files(&acme_cfg.checkpoint_dir, acme);
    assert_eq!(files.len(), acme_cfg.server_workers, "files: {files:?}");
    // The reply the daemon reads the files into is, byte for byte, the
    // declared reply carrying them as read whole.
    let declared = DaemonReply::Results {
        p: acme_results.dim() as u64,
        n_timesteps: acme_results.n_timesteps() as u64,
        n_cells: acme_results.n_cells() as u64,
        groups_finished: acme_status.groups_finished,
        workers: files
            .iter()
            .map(|path| Bytes::from(std::fs::read(path).expect("results file")))
            .collect(),
    };
    assert_eq!(results_reply_frame(&transport, acme), declared.to_frame());

    let mut acme_ref_cfg = acme_cfg;
    acme_ref_cfg.checkpoint_dir = acme_ref_cfg.checkpoint_dir.join("standalone");
    let acme_ref = Study::new(acme_ref_cfg).run().expect("standalone acme");
    let mut globex_ref_cfg = globex_cfg;
    globex_ref_cfg.checkpoint_dir = globex_ref_cfg.checkpoint_dir.join("standalone");
    let globex_ref = Study::new(globex_ref_cfg).run().expect("standalone globex");

    assert_results_bit_identical(&acme_results, &acme_ref.results);
    assert_results_bit_identical(&globex_results, &globex_ref.results);

    // A results file removed after `Done` is a typed error naming it.
    std::fs::remove_file(&files[1]).expect("remove a results file");
    match client.results(acme) {
        Err(ClientError::BadHandshake { detail }) => assert!(
            detail.contains(&files[1].display().to_string()),
            "detail: {detail}"
        ),
        Err(other) => panic!("expected a missing-file error, got {other:?}"),
        Ok(_) => panic!("a study missing a results file must not return results"),
    }

    daemon.stop();
    for dir in scratch {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A daemon on real TCP loopback sockets serves the same bits as the
/// standalone in-process run.
#[test]
fn daemon_study_over_tcp_matches_standalone() {
    let _process = shared_process();
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
    let _process = shared_process();
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
    let _process = shared_process();
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

/// `Daemon::join` blocks until a client's `shutdown` RPC has ended the
/// control loop, the way `melissad` serves.
#[test]
fn join_returns_once_a_client_asks_for_shutdown() {
    let _process = shared_process();
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
    let asker = std::thread::spawn(move || client.shutdown());
    daemon.join();
    asker
        .join()
        .expect("client thread")
        .expect("shutdown acknowledged");
    assert!(transport.connect(&names::daemon_ctl()).is_err());
}

/// A tenant's study that fails — mid-run (here: its wall limit), or at
/// its end because its results directory cannot be created — fails
/// *cleanly*: it reaches `Failed` with the error, its jobs, server
/// threads and endpoints are gone, the pool is whole again — and the
/// other tenant's concurrent study, and the next one, never notice.
#[test]
fn failed_study_frees_its_resources_and_spares_its_neighbour() {
    let _process = shared_process();
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
    // A regular file where the checkpoint directory should be: the study
    // runs, and then cannot create its results directory under it.
    let mut unwritable_cfg = seeded_config(33, "unwritable");
    std::fs::write(&unwritable_cfg.checkpoint_dir, b"not a directory").expect("scratch file");
    unwritable_cfg.n_groups = 1;
    let doomed = client.submit("acme", 0, doomed_cfg).expect("admitted");
    let healthy = client
        .submit("globex", 0, healthy_cfg.clone())
        .expect("admitted");
    let unwritable = client
        .submit("initech", 0, unwritable_cfg.clone())
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
        .wait(unwritable, Duration::from_secs(240))
        .expect("unwritable");
    assert_eq!(status.state, StudyState::Failed);
    let results_dir = unwritable_cfg
        .checkpoint_dir
        .join(names::study_scope(unwritable));
    match client.results(unwritable) {
        Err(ClientError::BadHandshake { detail }) => assert!(
            detail.contains(&results_dir.display().to_string()),
            "detail: {detail}"
        ),
        Err(other) => panic!("expected the results-directory failure, got {other:?}"),
        Ok(_) => panic!("a study without results files must not return results"),
    }

    let status = client
        .wait(healthy, Duration::from_secs(240))
        .expect("healthy");
    assert_eq!(status.state, StudyState::Done);
    let results = client.results(healthy).expect("healthy results");
    let mut reference_cfg = healthy_cfg.clone();
    reference_cfg.checkpoint_dir = reference_cfg.checkpoint_dir.join("standalone");
    let reference = Study::new(reference_cfg).run().expect("standalone");
    assert_results_bit_identical(&results, &reference.results);

    // Nothing of the failed studies is left: the pool is whole, and
    // their scopes hold no endpoint.
    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(
        json.contains("\"pool_units\":4,\"free_units\":4"),
        "json: {json}"
    );
    for study in [doomed, unwritable] {
        let scope = format!("{}/", names::study_scope(study));
        let left: Vec<String> = transport
            .bound_names()
            .into_iter()
            .filter(|name| name.starts_with(&scope))
            .collect();
        assert!(left.is_empty(), "study {study} left {left:?} bound");
    }

    // The next study on the same daemon completes.
    let mut next_cfg = healthy_cfg;
    next_cfg.n_groups = 1;
    let next = client.submit("initech", 0, next_cfg).expect("admitted");
    let status = client.wait(next, Duration::from_secs(240)).expect("next");
    assert_eq!(status.state, StudyState::Done);
    client.results(next).expect("next results");

    daemon.stop();
    std::fs::remove_file(&unwritable_cfg.checkpoint_dir).ok();
}

/// A config `StudyConfig::validate` refuses never becomes a study: the
/// submit returns the reason, and the daemon goes on answering.  Here the
/// tubes block every row of the mesh, so the pre-run could carry no flow.
#[test]
fn submit_refuses_a_config_that_does_not_validate() {
    let _process = shared_process();
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
    let mut blocked = seeded_config(41, "blocked");
    (blocked.solver.nx, blocked.solver.ny, blocked.solver.nz) = (8, 4, 1);
    match client.submit("acme", 0, blocked) {
        Err(ClientError::BadHandshake { detail }) => {
            assert!(detail.contains("no fluid path"), "detail: {detail}")
        }
        other => panic!("expected the validation error, got {other:?}"),
    }
    let mut no_output = seeded_config(42, "no-output");
    no_output.solver.n_timesteps = 0;
    let mut refused = vec![no_output];
    for (k, total_time) in [0.0, -1.0, f64::NAN].into_iter().enumerate() {
        let mut timeless = seeded_config(43 + k as u64, "timeless");
        timeless.solver.total_time = total_time;
        refused.push(timeless);
    }
    // An HWM wider than the TCP handshake's u32, and a checkpoint
    // interval of zero (a study that would never finish).
    let mut wide = seeded_config(46, "wide-hwm");
    wide.hwm = usize::MAX;
    let mut no_interval = seeded_config(47, "no-interval");
    no_interval.checkpoint_interval = Duration::ZERO;
    refused.extend([wide, no_interval]);
    for config in refused {
        match client.submit("acme", 0, config) {
            Err(ClientError::BadHandshake { detail }) => assert!(
                ["total_time", "n_timesteps", "HWM", "checkpoint_interval"]
                    .iter()
                    .any(|what| detail.contains(what)),
                "detail: {detail}"
            ),
            other => panic!("expected the validation error, got {other:?}"),
        }
    }
    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(json.contains("\"free_units\":"), "json: {json}");
    assert!(json.contains("\"admitted\":0"), "json: {json}");
    daemon.stop();
}

/// The widest HWM that validates is a bound, not an allocation: a tiny
/// study with it runs to `Done` on both backends.
#[test]
fn the_widest_valid_hwm_runs_to_done_on_both_backends() {
    let _process = shared_process();
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let transport = make_transport(kind);
        let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
        let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
        let mut config = seeded_config(48, "widest-hwm");
        config.hwm = u32::MAX as usize;
        let id = client.submit("acme", 0, config).expect("admitted");
        let status = client.wait(id, Duration::from_secs(240)).expect("finish");
        assert_eq!(status.state, StudyState::Done, "{status:?}");
        daemon.stop();
    }
}

/// The daemon-level telemetry endpoint aggregates queue depths,
/// per-tenant usage and admission decisions over the scrape protocol.
#[test]
fn daemon_telemetry_snapshot_aggregates_tenants_and_admissions() {
    let _process = shared_process();
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

/// A tenant name is client-chosen text.  In the Prometheus scrape its
/// quote, backslash and newline are escaped, so each tenant family holds
/// one series for it and it cannot end a series early to forge another;
/// the JSON scrape stays one well-formed document.
#[test]
fn a_hostile_tenant_name_cannot_forge_series() {
    let _process = shared_process();
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
    let hostile = "x\"} 1\nmelissad_pool_units 0\n# \\";
    let id = client
        .submit(hostile, 0, seeded_config(51, "hostile"))
        .expect("admitted");

    let prom = client
        .scrape_daemon(ScrapeFormat::Prometheus)
        .expect("prometheus");
    let escaped = r#"x\"} 1\nmelissad_pool_units 0\n# \\"#;
    for family in [
        "melissad_tenant_queued_jobs",
        "melissad_tenant_running_jobs",
        "melissad_tenant_running_units",
        "melissad_tenant_studies",
        "melissad_tenant_dispatched_jobs_total",
    ] {
        let series: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .collect();
        let expected = format!("{family}{{tenant=\"{escaped}\"}} ");
        assert!(
            series.len() == 1 && series[0].starts_with(&expected),
            "{family}: {series:?} in:\n{prom}"
        );
    }
    let state = format!("melissad_study_state{{study=\"{id}\",tenant=\"{escaped}\",state=");
    assert_eq!(prom.lines().filter(|l| l.starts_with(&state)).count(), 1);
    // Every line is a TYPE line or one `melissad_` series with a numeric
    // value, and the forged family holds only the daemon's own series.
    for line in prom.lines() {
        let series = line.starts_with("melissad_")
            && line
                .rsplit_once(' ')
                .is_some_and(|(_, v)| v.parse::<f64>().is_ok());
        assert!(
            line.starts_with("# TYPE melissad_") || series,
            "line {line:?} in:\n{prom}"
        );
    }
    let pool = prom
        .lines()
        .filter(|l| l.starts_with("melissad_pool_units"));
    assert_eq!(pool.count(), 1, "prom: {prom}");

    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(is_json(&json), "json: {json}");
    assert!(!is_json("{\"tenant\":\"x\ny\"}") && !is_json(r#"{"a":1,}"#));
    assert!(json.contains(r#""tenant":"x\"} 1\nmelissad_pool_units 0\n# \\""#));
    let status = client.wait(id, Duration::from_secs(240)).expect("finish");
    assert_eq!(status.state, StudyState::Done);
    daemon.stop();
}

/// Whether `text` is one JSON value written compactly, as the scrape
/// writes it (no whitespace between tokens): objects, arrays, strings,
/// numbers and `null`.
fn is_json(text: &str) -> bool {
    fn eat(b: &[u8], i: &mut usize, c: u8) -> bool {
        let hit = b.get(*i) == Some(&c);
        *i += usize::from(hit);
        hit
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if !eat(b, i, b'"') {
            return false;
        }
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => return true,
                b'\\' if b.get(*i).is_some_and(|e| b"\"\\/bfnrtu".contains(e)) => *i += 1,
                c if c < 0x20 || c == b'\\' => return false,
                _ => {}
            }
        }
        false
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        let close = match b.get(*i) {
            Some(b'{') => b'}',
            Some(b'[') => b']',
            Some(b'"') => return string(b, i),
            _ => {
                let start = *i;
                while b
                    .get(*i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    *i += 1;
                }
                let token = std::str::from_utf8(&b[start..*i]).unwrap_or("");
                return token == "null" || token.parse::<f64>().is_ok();
            }
        };
        *i += 1;
        if eat(b, i, close) {
            return true;
        }
        loop {
            let key = close != b'}' || (string(b, i) && eat(b, i, b':'));
            if !key || !value(b, i) {
                return false;
            }
            if eat(b, i, close) {
                return true;
            }
            if !eat(b, i, b',') {
                return false;
            }
        }
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i) && i == text.len()
}

/// The in-process transport, except that it names its backend
/// differently from its second call on.  Each of a two-shard study's
/// supervisors stamps the name on its report, and the study thread's
/// merge of the two asserts they agree: a panic on a hosted study's own
/// thread that no config can cause.
#[derive(Debug)]
struct TwoFacedTransport {
    inner: ChannelTransport,
    named: AtomicU64,
}

impl Transport for TwoFacedTransport {
    fn bind(&self, name: &str, hwm: usize) -> BoxReceiver {
        self.inner.bind(name, hwm)
    }

    fn connect(&self, name: &str) -> Result<BoxSender, ConnectError> {
        self.inner.connect(name)
    }

    fn unbind(&self, name: &str) {
        self.inner.unbind(name)
    }

    fn bound_names(&self) -> Vec<String> {
        self.inner.bound_names()
    }

    fn link_stats(&self) -> Vec<(String, LinkStatsSnapshot)> {
        self.inner.link_stats()
    }

    fn retire_scope(&self, scope: &str) {
        self.inner.retire_scope(scope)
    }

    fn backend_name(&self) -> &'static str {
        match self.named.fetch_add(1, Ordering::Relaxed) {
            0 => "in-process",
            _ => "in-process, again",
        }
    }
}

/// A hosted study whose own thread panics ends `Failed` with the panic's
/// message, and gives back what it held — its pool units, its admission
/// reservation, its scope's endpoints — so the daemon stops at once.
#[test]
fn a_study_whose_thread_panics_fails_and_the_daemon_still_stops() {
    let _process = shared_process();
    let transport: Arc<dyn Transport> = Arc::new(TwoFacedTransport {
        inner: ChannelTransport::new(),
        named: AtomicU64::new(0),
    });
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
    let mut config = seeded_config(61, "two-faced");
    (config.n_shards, config.telemetry) = (2, false);
    let id = client.submit("acme", 0, config.clone()).expect("admitted");

    let status = client.wait(id, Duration::from_secs(60)).expect("ended");
    assert_eq!(status.state, StudyState::Failed);
    let Err(ClientError::BadHandshake { detail }) = client.results(id) else {
        panic!("a failed study's results are its error");
    };
    assert!(
        detail.contains("study thread panicked: assertion")
            && detail.contains("shards disagree on the transport backend"),
        "detail: {detail}"
    );
    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    for whole in [
        "\"pool_units\":8,\"free_units\":8",
        "\"studies\":0,\"groups_reserved\":0",
    ] {
        assert!(json.contains(whole), "json: {json}");
    }
    let scope = format!("{}/", names::study_scope(id));
    let bound = transport.bound_names();
    assert!(
        !bound.iter().any(|name| name.starts_with(&scope)),
        "{bound:?}"
    );

    let (stopped, on_stop) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        daemon.stop();
        stopped.send(())
    });
    on_stop
        .recv_timeout(Duration::from_secs(5))
        .expect("the daemon stops");
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
}

/// A client that stopped waiting (its deadline passed, its reply endpoint
/// is unbound) costs the control thread one failed `connect`, not a
/// retry loop: the next tenant's RPCs are served at once.
#[test]
fn vanished_waiter_does_not_stall_other_tenants() {
    let _process = shared_process();
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

/// This process's resident set, in bytes (Linux only).
#[cfg(target_os = "linux")]
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .expect("a VmRSS line");
    kib * 1024
}

/// Hosting the n-th identical study costs what hosting the second did:
/// one `Wait` frame per `DaemonClient::wait` (not a `status` poll per
/// tick), the same data-link traffic as the standalone run, a link
/// rollup and an endpoint table that stopped growing after the first
/// study was reaped, and — its statistics being on disk — no resident
/// memory in proportion to them.
#[test]
fn identical_hosted_studies_cost_the_same_frames_and_leave_the_same_ledger() {
    let _alone = RSS_WINDOW.write().unwrap_or_else(PoisonError::into_inner);
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
    let mut bound_sizes = Vec::new();
    let mut rss = Vec::new();
    let mut results_bytes = Vec::new();
    let mut last = 0;
    for _ in 0..10 {
        let (_, ctl_before, data_before) = rollup(&transport);
        let id = client.submit("acme", 0, config.clone()).expect("admitted");
        last = id;
        let status = client.wait(id, Duration::from_secs(240)).expect("finish");
        assert_eq!(status.state, StudyState::Done);
        #[cfg(target_os = "linux")]
        rss.push(vm_rss_bytes());
        let (ledger_size, ctl_after, data_after) = rollup(&transport);
        ledger_sizes.push(ledger_size);
        bound_sizes.push(transport.bound_names().len());
        results_bytes.push(
            results_files(&config.checkpoint_dir, id)
                .iter()
                .map(|path| std::fs::metadata(path).expect("results file").len())
                .sum::<u64>(),
        );
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
    assert_eq!(bound_sizes[9], bound_sizes[1], "bound: {bound_sizes:?}");
    // Studies 3..=10 packed this many bytes of statistics; a daemon that
    // kept them would have grown by about as much.
    let kept: u64 = results_bytes[2..].iter().sum();
    assert!(kept > 0, "results bytes: {results_bytes:?}");
    if let (Some(second), Some(tenth)) = (rss.get(1), rss.get(9)) {
        let growth = tenth.saturating_sub(*second);
        assert!(
            2 * growth < kept,
            "RSS grew {growth} B over 8 studies holding {kept} B of results (rss: {rss:?})"
        );
    }

    let json = client.scrape_daemon(ScrapeFormat::Json).expect("json");
    assert!(
        json.contains(
            "\"daemon_ctl_wakeups_total\":{\"request\":20,\"study_ended\":10,\"scrape\":1}"
        ),
        "json: {json}"
    );

    // Fetching one study's statistics again and again costs no resident
    // memory that stays: twenty calls grow the process by less than one
    // packed worker state.  The first two calls are the baseline: glibc
    // returns the first reply frame to the system and raises its mmap
    // threshold past it, so the second frame comes from the heap, which
    // keeps it for the calls after.
    #[cfg(target_os = "linux")]
    {
        let packed = results_files(&config.checkpoint_dir, last)
            .iter()
            .map(|path| std::fs::metadata(path).expect("results file").len())
            .max()
            .expect("a results file");
        let mut rss = Vec::new();
        for _ in 0..22 {
            let results = client.results(last).expect("results");
            assert_eq!(results.n_timesteps(), config.solver.n_timesteps);
            drop(results);
            rss.push(vm_rss_bytes());
        }
        let growth = rss[21].saturating_sub(rss[1]);
        assert!(
            growth < packed,
            "RSS grew {growth} B over 20 results calls, a packed state is {packed} B (rss: {rss:?})"
        );
    }
    daemon.stop();
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
}

/// A service answers a request only on a round trip's own reply endpoint
/// (`reply/<pid>/<nonce>`).  On both backends, a `Status`, a `Submit`
/// and a shard scrape that name a live shard's launcher inbox as their
/// `reply_to` execute nothing and push nothing into that inbox, while the
/// same requests sent through `round_trip` are answered.
#[test]
fn a_request_whose_reply_to_is_another_inbox_is_dropped() {
    let _process = shared_process();
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let transport = make_transport(kind.clone());
        let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
        let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
        let config = seeded_config(71, "reply-to");

        // A live shard of study 7, whose launcher inbox is the victim.
        let scope = names::scoped(&names::study_scope(7), &names::shard_scope(0));
        let victim = names::launcher_in(&scope);
        let victim_rx = transport.bind(&victim, 64);
        let server = Server::start(
            ServerConfig {
                scope: scope.clone(),
                n_workers: 1,
                n_cells: 4,
                p: 1,
                n_timesteps: 1,
                hwm: 16,
                group_timeout: Duration::from_secs(60),
                checkpoint_interval: Duration::from_secs(3600),
                checkpoint_dir: config.checkpoint_dir.clone(),
                report_interval: Duration::from_secs(3600),
                track_ci: false,
                ci_variance_floor: 1e-12,
                restore: false,
                thresholds: Vec::new(),
                quantile_probs: Vec::new(),
                telemetry: Some(Telemetry::new(0)),
            },
            Arc::clone(&transport),
            transport.connect(&victim).expect("just bound"),
        );
        let ready = victim_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("ready");
        assert_eq!(Message::decode(&ready), Ok(Message::ServerReady), "{kind}");
        let victim_stats = |transport: &Arc<dyn Transport>| {
            let stats = transport.link_stats();
            let found = stats.into_iter().find(|(name, _)| *name == victim);
            found.map(|(_, s)| (s.messages, s.bytes))
        };
        let before = victim_stats(&transport);

        let ctl = transport.connect(&names::daemon_ctl()).expect("ctl");
        for op in [
            DaemonOp::Status { study: 1 },
            DaemonOp::Submit {
                tenant: "mallory".into(),
                priority: 0,
                config: Box::new(config.clone()),
            },
        ] {
            let reply_to = victim.clone();
            ctl.send(DaemonRequest { reply_to, op }.to_frame())
                .expect("sent");
        }
        let main = transport
            .connect(&names::server_main_in(&scope))
            .expect("server/main");
        let scrape = Message::Scrape {
            reply_to: victim.clone(),
            format: ScrapeFormat::Binary,
        };
        main.send(scrape.encode()).expect("sent");

        // The same requests through round trips are answered, and the
        // dropped `Submit` took no study id.
        assert!(matches!(
            client.status(1),
            Err(ClientError::BadHandshake { .. })
        ));
        let id = client.submit("acme", 0, config.clone()).expect("admitted");
        assert_eq!(id, 1, "{kind}: the dropped submission ran");
        let reply = scrape_reply_in(&transport, "study7", 0, ScrapeFormat::Binary, WAIT);
        let Ok(ScrapeReply::Snapshot(snap)) = reply else {
            panic!("{kind}: the shard did not answer a round trip: {reply:?}");
        };
        assert_eq!(snap.shard, 0);

        // Nothing reached the victim, not even late.
        let straggler = victim_rx.recv_timeout(Duration::from_millis(300));
        assert!(straggler.is_err(), "{kind}: a reply reached {victim}");
        assert_eq!(victim_stats(&transport), before, "{kind}: {victim}");

        client.cancel(id).expect("cancel");
        server.stop();
        daemon.stop();
        std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    }
}

const WAIT: Duration = Duration::from_secs(10);

/// A hosted study's shards are one inbox each, at an address derived
/// from the study id and the shard index: while a 2-shard study runs,
/// shard `k` answers a scrape as shard `k`, and its scope
/// `study<id>/shard<k>` holds exactly `server/main`, `server/<w>` and
/// `launcher` (a connecting group's one-frame handshake reply aside);
/// nothing is bound under `telemetry/`.
#[test]
fn a_hosted_study_binds_one_inbox_per_shard() {
    let _process = shared_process();
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let transport = make_transport(kind.clone());
        let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
        let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));
        let mut config = seeded_config(72, "one-inbox");
        (config.n_shards, config.n_groups) = (2, 6);
        let n_workers = config.server_workers;
        let id = client.submit("acme", 0, config.clone()).expect("admitted");
        let mut answered = [false; 2];
        while answered.contains(&false) {
            let status = client.status(id).expect("status");
            if status.state.is_terminal() {
                break;
            }
            for (k, seen) in answered.iter_mut().enumerate() {
                let Ok(ScrapeReply::Snapshot(snap)) =
                    client.scrape_study(id, k, ScrapeFormat::Binary)
                else {
                    continue;
                };
                let bound = transport.bound_names();
                assert_eq!(snap.shard, k as u32, "{kind}: wrong shard answered");
                let scope = names::scoped(&names::study_scope(id), &names::shard_scope(k));
                let mut held: Vec<&str> = bound
                    .iter()
                    .filter_map(|name| name.strip_prefix(&scope)?.strip_prefix('/'))
                    .filter(|rest| !rest.starts_with("group/"))
                    .collect();
                held.sort();
                let mut expected = vec!["launcher".to_string(), "server/main".to_string()];
                expected.extend((0..n_workers).map(|w| format!("server/{w}")));
                expected.sort();
                assert_eq!(held, expected, "{kind}: {scope} in {bound:?}");
                assert!(
                    !bound
                        .iter()
                        .any(|n| n.split('/').any(|part| part == "telemetry")),
                    "{kind}: a telemetry endpoint in {bound:?}"
                );
                *seen = true;
            }
        }
        assert_eq!(answered, [true; 2], "{kind}");
        let status = client.wait(id, Duration::from_secs(240)).expect("ended");
        assert_eq!(status.state, StudyState::Done, "{kind}");
        daemon.stop();
        std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    }
}
