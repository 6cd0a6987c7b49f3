//! Live-scrape non-perturbation: a seeded sequential study that is
//! scraped continuously over its own transport while it runs must
//! produce statistics **bit-identical** to the same study left alone —
//! over both messaging backends.
//!
//! The scrape path serves read-only snapshots of lock-free atomics off
//! the ingest path, so polling it cannot reorder, delay or duplicate a
//! single data frame.  These tests are the executable form of that
//! guarantee.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use melissa::scrape::{scrape, scrape_reply_in, scrape_text};
use melissa::{Study, StudyConfig, StudyOutput};
use melissa_telemetry::{ScrapeFormat, ScrapeReply};
use melissa_transport::{make_transport, TransportKind};

fn seeded_config(kind: TransportKind, tag: &str) -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.transport = kind;
    config.n_groups = 3;
    config.max_concurrent_groups = 1; // deterministic integration order
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-tele-{tag}-{}", std::process::id()));
    config.wall_limit = Duration::from_secs(300);
    config
}

/// Runs the study on a shared transport while a sibling thread polls the
/// shard's scrape endpoint as fast as it can; returns the output and the
/// number of successful mid-run scrapes.
fn run_scraped(kind: TransportKind, tag: &str) -> (StudyOutput, usize) {
    let transport = make_transport(kind.clone());
    let scraper_transport = Arc::clone(&transport);
    let done = Arc::new(AtomicBool::new(false));
    let done_scraper = Arc::clone(&done);
    let ok = Arc::new(AtomicUsize::new(0));
    let ok_scraper = Arc::clone(&ok);

    let scraper = std::thread::spawn(move || {
        let mut checked_text = false;
        while !done_scraper.load(Ordering::Relaxed) {
            if let Ok(snap) = scrape(&scraper_transport, 0, Duration::from_millis(500)) {
                assert_eq!(snap.shard, 0, "scrape answered by the wrong shard");
                assert!(!snap.backend.is_empty(), "snapshot misses backend name");
                assert!(snap.uptime_nanos > 0, "snapshot misses study uptime");
                ok_scraper.fetch_add(1, Ordering::Relaxed);
                if !checked_text {
                    // Exercise both rendered formats once mid-run.
                    let json = scrape_text(
                        &scraper_transport,
                        0,
                        ScrapeFormat::Json,
                        Duration::from_millis(500),
                    );
                    if let Ok(json) = json {
                        assert!(
                            json.contains("\"shard\""),
                            "JSON scrape misses shard: {json}"
                        );
                    }
                    let prom = scrape_text(
                        &scraper_transport,
                        0,
                        ScrapeFormat::Prometheus,
                        Duration::from_millis(500),
                    );
                    if let Ok(prom) = prom {
                        assert!(
                            prom.contains("melissa_groups_finished"),
                            "Prometheus scrape misses gauges: {prom}"
                        );
                        assert!(
                            prom.contains("melissa_wire_codec_seconds_total{shard=\"0\",dir"),
                            "Prometheus scrape misses the wire codec's counters: {prom}"
                        );
                        checked_text = true;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let output = Study::new(seeded_config(kind, tag))
        .run_on(transport)
        .expect("scraped study failed");
    done.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread panicked");
    (output, ok.load(Ordering::Relaxed))
}

fn assert_outputs_match(reference: &StudyOutput, scraped: &StudyOutput) {
    assert_eq!(
        reference.report.data_messages, scraped.report.data_messages,
        "scraping changed the ingested traffic"
    );
    assert_eq!(reference.report.data_bytes, scraped.report.data_bytes);
    assert_eq!(
        reference.report.groups_finished,
        scraped.report.groups_finished
    );

    assert_eq!(
        reference.results.first_bit_mismatch(&scraped.results),
        None,
        "unscraped vs scraped"
    );
}

#[test]
fn scraped_study_is_bit_identical_in_process() {
    let reference = Study::new(seeded_config(TransportKind::InProcess, "ref-ip"))
        .run()
        .expect("reference study failed");
    let (scraped, n_scrapes) = run_scraped(TransportKind::InProcess, "scr-ip");
    assert!(n_scrapes >= 1, "no scrape ever landed mid-run");
    assert_eq!(scraped.report.transport_reconnects, 0);
    assert_outputs_match(&reference, &scraped);
}

#[test]
fn scraped_study_is_bit_identical_over_tcp() {
    let reference = Study::new(seeded_config(TransportKind::Tcp, "ref-tcp"))
        .run()
        .expect("reference study failed");
    let (scraped, n_scrapes) = run_scraped(TransportKind::Tcp, "scr-tcp");
    assert!(n_scrapes >= 1, "no scrape ever landed mid-run");
    assert_outputs_match(&reference, &scraped);
}

#[test]
fn report_carries_the_typed_journal_and_epoch() {
    let output = Study::new(seeded_config(TransportKind::InProcess, "journal"))
        .run()
        .expect("study failed");
    // Typed journal: a clean run may be event-free, but the Display path
    // must render every typed entry.
    let text = output.report.to_string();
    for event in &output.report.events {
        assert!(text.contains(&event.kind.render()), "report: {text}");
    }
    // Satellite surface: the reconnect counter is first-class.
    assert_eq!(output.report.transport_reconnects, 0);
}

/// Every shard is one inbox at an address derived from the study scope
/// and its index: while a 1-shard and a 2-shard study run, each shard
/// answers a scrape sent to `shard<k>/server/main` as shard `k`, and at
/// that moment its scope holds exactly `server/main`, `server/<w>` and
/// `launcher` — besides a connecting group's handshake reply, which the
/// group binds for one frame — and nothing is bound under `telemetry/`.
#[test]
fn every_shard_answers_scrapes_on_its_one_inbox() {
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        for n_shards in [1, 2] {
            let mut config = seeded_config(kind.clone(), &format!("inbox-{n_shards}"));
            config.n_shards = n_shards;
            config.n_groups = 6;
            let n_workers = config.server_workers;
            let dir = config.checkpoint_dir.clone();
            let transport = make_transport(kind.clone());
            let study_transport = Arc::clone(&transport);
            let study = std::thread::spawn(move || Study::new(config).run_on(study_transport));
            let mut answered = vec![false; n_shards];
            while !study.is_finished() && answered.contains(&false) {
                for (k, seen) in answered.iter_mut().enumerate() {
                    let reply = scrape_reply_in(&transport, "", k, ScrapeFormat::Binary, WAIT);
                    let Ok(ScrapeReply::Snapshot(snap)) = reply else {
                        continue;
                    };
                    let bound = transport.bound_names();
                    assert_eq!(snap.shard, k as u32, "{kind}: wrong shard answered");
                    assert_one_inbox(&bound, &format!("shard{k}"), n_workers);
                    *seen = true;
                }
            }
            study.join().expect("study thread").expect("study failed");
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(answered, vec![true; n_shards], "{kind}: {n_shards} shards");
        }
    }
}

const WAIT: Duration = Duration::from_millis(500);

/// Asserts that `scope` holds exactly one shard's endpoints in `bound`
/// (a group's handshake reply aside), and that no name anywhere is a
/// telemetry endpoint.
fn assert_one_inbox(bound: &[String], scope: &str, n_workers: usize) {
    let mut expected: Vec<String> = ["server/main".to_string(), "launcher".to_string()]
        .into_iter()
        .chain((0..n_workers).map(|w| format!("server/{w}")))
        .collect();
    expected.sort();
    let prefix = format!("{scope}/");
    let mut held: Vec<String> = bound
        .iter()
        .filter_map(|name| name.strip_prefix(&prefix))
        .filter(|rest| !rest.starts_with("group/"))
        .map(str::to_string)
        .collect();
    held.sort();
    assert_eq!(held, expected, "{scope} in {bound:?}");
    assert!(
        !bound
            .iter()
            .any(|name| name.split('/').any(|part| part == "telemetry")),
        "a telemetry endpoint in {bound:?}"
    );
}
