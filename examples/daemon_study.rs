//! Melissa as a service: two tenants share one daemon's node pool.
//!
//! For each transport backend (in-process channels, then real TCP
//! loopback sockets) the example starts a [`Daemon`], submits two
//! tenants' seeded studies concurrently over the control plane, and
//! watches them run through the per-study scrape endpoints and the
//! daemon-level aggregate snapshot.  When both studies finish, their
//! statistics come back over the `results` RPC and are asserted
//! **bit-identical** to same-seed standalone `Study::run` references —
//! multi-tenant hosting on a shared pool perturbs nothing.
//!
//! Along the way it shows the admission controller doing its job: a
//! submission past the tenant's concurrent-study quota is rejected with
//! a typed `QuotaExceeded { tenant, resource }` instead of queueing
//! forever.
//!
//! Run with: `cargo run --release --example daemon_study`

use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa_repro::daemon::{Daemon, DaemonClient, DaemonConfig, StudyState, TenantQuota};
use melissa_repro::melissa::client::ClientError;
use melissa_repro::melissa::{Study, StudyConfig};
use melissa_repro::telemetry::{ScrapeFormat, ScrapeReply};
use melissa_repro::transport::{make_transport, TransportKind};

const N_GROUPS: usize = 4;
const WAIT: Duration = Duration::from_secs(240);

fn seeded_config(kind: TransportKind, seed: u64, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.max_concurrent_groups = 1; // submission order ⇒ bit-reproducible
    config.transport = kind;
    config.seed = seed;
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-ex-daemon-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

fn run_backend(kind: TransportKind, name: &str) {
    println!("== two tenants, one pool, {name} ==");
    let transport = make_transport(kind.clone());
    let daemon = Daemon::start(
        Arc::clone(&transport),
        DaemonConfig {
            pool_units: 4,
            default_quota: TenantQuota {
                max_studies: 1,
                ..TenantQuota::default()
            },
            ..DaemonConfig::default()
        },
    );
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let acme_cfg = seeded_config(kind.clone(), 2017, &format!("acme-{name}"));
    let globex_cfg = seeded_config(kind.clone(), 4242, &format!("globex-{name}"));
    let acme = client
        .submit("acme", 0, acme_cfg.clone())
        .expect("acme admitted");
    let globex = client
        .submit("globex", 0, globex_cfg.clone())
        .expect("globex admitted");
    println!("submitted: acme → study {acme}, globex → study {globex}");

    // The admission controller rejects past quota instead of blocking.
    match client.submit("acme", 0, acme_cfg.clone()) {
        Err(ClientError::QuotaExceeded { tenant, resource }) => {
            println!("admission: second acme study rejected ({tenant} is out of {resource})")
        }
        other => panic!("expected a typed quota rejection, got {other:?}"),
    }

    // Watch both studies through the per-study scrape endpoints and the
    // daemon aggregate while they share the pool.  Endpoints appear and
    // vanish with each study's server lifecycle, so misses are normal.
    let mut study_hits = 0usize;
    let mut daemon_hits = 0usize;
    let deadline = Instant::now() + WAIT;
    loop {
        let a = client.status(acme).expect("acme status");
        let g = client.status(globex).expect("globex status");
        for (id, status) in [(acme, &a), (globex, &g)] {
            if status.state != StudyState::Running {
                continue;
            }
            if let Ok(ScrapeReply::Snapshot(snap)) =
                client.scrape_study(id, 0, ScrapeFormat::Binary)
            {
                study_hits += 1;
                println!(
                    "study {id} shard 0: {} finished, {} running ({} frames so far)",
                    snap.groups_finished,
                    snap.groups_running,
                    snap.links.iter().map(|l| l.messages).sum::<u64>(),
                );
            }
        }
        if let Ok(json) = client.scrape_daemon(ScrapeFormat::Json) {
            daemon_hits += 1;
            if daemon_hits == 1 {
                let cut = json.char_indices().nth(200).map_or(json.len(), |(i, _)| i);
                println!("daemon snapshot:   {}…", &json[..cut]);
            }
        }
        if a.state.is_terminal() && g.state.is_terminal() {
            assert_eq!(a.state, StudyState::Done, "acme failed");
            assert_eq!(g.state, StudyState::Done, "globex failed");
            break;
        }
        assert!(Instant::now() < deadline, "studies never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    println!("live scrapes landed: {study_hits} per-study, {daemon_hits} daemon-aggregate");
    assert!(
        daemon_hits > 0,
        "the daemon never answered an aggregate scrape"
    );

    let acme_hosted = client.results(acme).expect("acme results");
    let globex_hosted = client.results(globex).expect("globex results");
    daemon.stop();

    // Same-seed standalone references, fresh checkpoint scopes.
    for (tag, cfg, hosted) in [
        ("acme", acme_cfg, &acme_hosted),
        ("globex", globex_cfg, &globex_hosted),
    ] {
        let mut reference = cfg;
        reference.checkpoint_dir = reference.checkpoint_dir.join("standalone");
        let out = Study::new(reference).run().expect("standalone reference");
        let diff = hosted.first_bit_mismatch(&out.results);
        assert_eq!(diff, None, "{name}/{tag}: daemon vs standalone");
    }
    println!("{name}: both tenants bit-identical to standalone");
}

fn main() {
    run_backend(TransportKind::InProcess, "in-process");
    run_backend(TransportKind::Tcp, "tcp");
    println!(
        "DAEMON PASS: every statistic at every timestep bit-identical between daemon-hosted \
         and standalone runs across both backends"
    );
}
