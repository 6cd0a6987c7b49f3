//! `top` for a running Melissa study: scrapes every shard's
//! `shard<k>/server/main` inbox over the study's own transport and
//! renders per-shard progress while the statistics are being computed.
//!
//! The same seeded 2-shard study runs four times — unscraped and
//! scraped-while-running, over in-process channels and over real TCP
//! loopback sockets.  The scraper shares the study's transport fabric
//! and hammers the shards' `server/main` inboxes the whole time; the
//! example then asserts the scraped runs' statistics are
//! **bit-identical** to the unscraped references: live observability
//! perturbs nothing.
//!
//! Along the way it prints one JSON and one Prometheus-format snapshot,
//! the other two wire formats a scraper can ask for.
//!
//! Run with: `cargo run --release --example melissa_top`
//!
//! With `-- --daemon` the top view points at a multi-tenant daemon
//! instead: the study is submitted over the control plane, the per-shard
//! rows come from the study's `study<id>/shard<k>/server/main` inboxes,
//! and each render is followed by the daemon-level aggregate
//! (queue depth, per-tenant usage, admission counters), scraped on the
//! daemon's control endpoint.

use std::sync::Arc;
use std::time::{Duration, Instant};

use melissa_repro::daemon::{Daemon, DaemonClient, DaemonConfig, StudyState};
use melissa_repro::melissa::scrape::{scrape, scrape_text};
use melissa_repro::melissa::{Study, StudyConfig, StudyOutput};
use melissa_repro::telemetry::{ScrapeFormat, ScrapeReply, ScrapeSnapshot};
use melissa_repro::transport::{make_transport, TransportKind};

const N_SHARDS: usize = 2;
const N_GROUPS: usize = 6;
const POLL_EVERY: Duration = Duration::from_millis(25);
const RENDER_EVERY: Duration = Duration::from_millis(250);

fn config(kind: TransportKind, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.n_shards = N_SHARDS;
    config.transport = kind;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.group_timeout = Duration::from_secs(15);
    config.server_timeout = Duration::from_secs(15);
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-ex-top-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

/// One rendered frame of the live view.
fn render(rows: &[ScrapeSnapshot]) {
    println!(
        "shard  backend      up(s)   fin  run     frames       bytes        wire  zip  rcon  events"
    );
    for s in rows {
        let (frames, bytes, wire) = s.links.iter().fold((0u64, 0u64, 0u64), |acc, l| {
            (acc.0 + l.messages, acc.1 + l.bytes, acc.2 + l.wire_bytes)
        });
        // Live payload/wire ratio: 1.00x on uncompressed or in-process
        // links (whose wire rollup falls back to the payload bytes).
        let zip = if wire > 0 {
            format!("{:.2}x", bytes as f64 / wire as f64)
        } else {
            "-".into()
        };
        println!(
            "{:>5}  {:<11} {:>6.1} {:>5} {:>4} {:>10} {:>11} {:>11} {:>4} {:>5} {:>7}",
            s.shard,
            s.backend,
            s.uptime_nanos as f64 / 1e9,
            s.groups_finished,
            s.groups_running,
            frames,
            bytes,
            wire,
            zip,
            s.reconnects,
            s.events.len(),
        );
    }
}

/// Runs the study on a shared transport while the main thread polls all
/// shards' scrape endpoints and renders a live table.
fn run_live(kind: TransportKind, tag: &str) -> StudyOutput {
    let cfg = config(kind.clone(), tag);
    std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    let dir = cfg.checkpoint_dir.clone();
    let transport = make_transport(kind);
    let study_transport = Arc::clone(&transport);
    let study = std::thread::spawn(move || {
        Study::new(cfg)
            .run_on(study_transport)
            .expect("study failed")
    });

    // Render the first successful poll immediately.
    let mut last_render = Instant::now() - RENDER_EVERY;
    let mut printed_formats = false;
    let (mut polls, mut hits) = (0usize, 0usize);
    // Why the last poll went unanswered: a shard not up yet or gone,
    // or a reply this build cannot read (another scrape schema).
    let mut last_miss = String::new();
    while !study.is_finished() {
        std::thread::sleep(POLL_EVERY);
        let mut rows = Vec::new();
        for k in 0..N_SHARDS {
            polls += 1;
            // Polls race the study lifecycle: endpoints appear when each
            // shard's server starts and vanish when it stops, so misses
            // are normal at the edges.
            match scrape(&transport, k, Duration::from_millis(400)) {
                Ok(snap) => {
                    assert_eq!(snap.shard, k as u32, "scrape answered by the wrong shard");
                    hits += 1;
                    rows.push(snap);
                }
                Err(miss) => last_miss = miss,
            }
        }
        if !rows.is_empty() && last_render.elapsed() >= RENDER_EVERY {
            last_render = Instant::now();
            render(&rows);
        }
        if !printed_formats && !rows.is_empty() {
            // Exercise the two text wire formats once; retried next poll
            // if the shard went away between the binary and text scrapes.
            let shard = rows[0].shard as usize;
            let json = scrape_text(
                &transport,
                shard,
                ScrapeFormat::Json,
                Duration::from_millis(400),
            );
            let prom = scrape_text(
                &transport,
                shard,
                ScrapeFormat::Prometheus,
                Duration::from_millis(400),
            );
            if let (Ok(json), Ok(prom)) = (json, prom) {
                let cut = json.char_indices().nth(160).map_or(json.len(), |(i, _)| i);
                println!("json scrape:       {}…", &json[..cut]);
                let head: Vec<&str> = prom.lines().take(4).collect();
                println!("prometheus scrape: {}", head.join(" | "));
                printed_formats = true;
            }
        }
    }
    let out = study.join().expect("study thread panicked");
    println!("live scrape: {hits}/{polls} polls answered mid-study");
    assert!(hits > 0, "no live scrape ever landed: {last_miss}");
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Same traffic, and every statistic at every timestep bit for bit.
fn assert_bit_identical(what: &str, a: &StudyOutput, b: &StudyOutput) {
    assert_eq!(
        a.report.data_messages, b.report.data_messages,
        "{what}: traffic"
    );
    assert_eq!(a.report.data_bytes, b.report.data_bytes, "{what}: bytes");
    assert_eq!(
        a.report.groups_finished, b.report.groups_finished,
        "{what}: groups"
    );
    let diff = a.results.first_bit_mismatch(&b.results);
    assert_eq!(diff, None, "{what}: statistics");
}

fn run_reference(kind: TransportKind, tag: &str) -> StudyOutput {
    let cfg = config(kind, tag);
    std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    let dir = cfg.checkpoint_dir.clone();
    let out = Study::new(cfg).run().expect("reference study failed");
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// The `--daemon` variant: same live table, but the study runs inside a
/// multi-tenant daemon and the scraper uses the study's scoped shard
/// endpoints plus the daemon-level aggregate.
fn run_daemon_top() {
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(10));

    let cfg = config(TransportKind::InProcess, "daemon-top");
    std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    let dir = cfg.checkpoint_dir.clone();
    let id = client.submit("acme", 0, cfg).expect("study admitted");
    println!("submitted as tenant acme → study {id}");

    let mut last_render = Instant::now() - RENDER_EVERY;
    let (mut polls, mut hits, mut aggregate_hits) = (0usize, 0usize, 0usize);
    let mut last_miss = String::new();
    let deadline = Instant::now() + Duration::from_secs(240);
    loop {
        let status = client.status(id).expect("status");
        if status.state.is_terminal() {
            assert_eq!(status.state, StudyState::Done, "hosted study failed");
            assert_eq!(status.groups_finished as usize, N_GROUPS);
            break;
        }
        assert!(Instant::now() < deadline, "hosted study never finished");
        std::thread::sleep(POLL_EVERY);

        let mut rows = Vec::new();
        for k in 0..N_SHARDS {
            polls += 1;
            // Same lifecycle races as the standalone view: the scoped
            // endpoints exist only while the study's servers are up.
            match client.scrape_study(id, k, ScrapeFormat::Binary) {
                Ok(ScrapeReply::Snapshot(snap)) => {
                    assert_eq!(snap.shard, k as u32, "scrape answered by the wrong shard");
                    hits += 1;
                    rows.push(*snap);
                }
                Ok(ScrapeReply::Text(_)) => {}
                Err(miss) => last_miss = miss,
            }
        }
        if !rows.is_empty() && last_render.elapsed() >= RENDER_EVERY {
            last_render = Instant::now();
            render(&rows);
            if let Ok(json) = client.scrape_daemon(ScrapeFormat::Json) {
                aggregate_hits += 1;
                let cut = json.char_indices().nth(160).map_or(json.len(), |(i, _)| i);
                println!("daemon aggregate:  {}…", &json[..cut]);
            }
        }
    }
    println!("live scrape: {hits}/{polls} shard polls answered, {aggregate_hits} aggregates");
    assert!(hits > 0, "no per-study scrape ever landed: {last_miss}");
    assert!(
        aggregate_hits > 0,
        "the daemon never answered an aggregate scrape"
    );
    let results = client.results(id).expect("results");
    assert_eq!(
        results.n_timesteps(),
        StudyConfig::tiny().solver.n_timesteps
    );
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
    println!("TOP PASS (daemon): hosted study observed live through scoped + aggregate endpoints");
}

fn main() {
    if std::env::args().any(|a| a == "--daemon") {
        run_daemon_top();
        return;
    }
    for (kind, name) in [
        (TransportKind::InProcess, "in-process"),
        (TransportKind::Tcp, "tcp"),
    ] {
        println!("== unscraped reference, {name} ==");
        let reference = run_reference(kind.clone(), &format!("ref-{name}"));
        println!(
            "reference done: {} groups, {} frames",
            reference.report.groups_finished, reference.report.data_messages
        );
        println!("== same seeded study, scraped live, {name} ==");
        let live = run_live(kind, &format!("live-{name}"));
        assert_bit_identical(name, &reference, &live);
    }
    println!(
        "TOP PASS: every statistic at every timestep bit-identical with and without live scraping"
    );
}
