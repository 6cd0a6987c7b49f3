//! The shard scrape client: live telemetry snapshots of a running
//! study, over the study's own transport.
//!
//! Shard `k` of a study answers a [`Message::Scrape`] on its
//! `[study<id>/]shard<k>/server/main` inbox — the one that takes group
//! handshakes — with a [`ScrapeSnapshot`] in one of three formats.  A
//! scrape is one [`round_trip`]: a throwaway reply endpoint, the request
//! naming it, one reply frame back; so it works over every backend
//! (in-process, TCP, multi-node TCP via the directory) with no extra
//! endpoint, listener or HTTP stack.  The snapshot and reply types live
//! in `melissa-telemetry`.

use std::sync::Arc;
use std::time::Duration;

use melissa_telemetry::{ScrapeFormat, ScrapeReply, ScrapeSnapshot};
use melissa_transport::directory::names;
use melissa_transport::{round_trip, Transport};

use crate::protocol::Message;

/// Scrapes shard `shard` of the study scoped by `study` (`""` for a
/// standalone study, `"study<id>"` under the multi-tenant daemon) and
/// returns the reply.
///
/// Fails with a human-readable error when nothing answers within
/// `timeout`: the shard is not up yet or has ended, or its telemetry is
/// off.
pub fn scrape_reply_in(
    transport: &Arc<dyn Transport>,
    study: &str,
    shard: usize,
    format: ScrapeFormat,
    timeout: Duration,
) -> Result<ScrapeReply, String> {
    let endpoint = names::server_main_in(&names::scoped(study, &names::shard_scope(shard)));
    let request = |reply_to: &str| {
        Message::Scrape {
            reply_to: reply_to.to_string(),
            format,
        }
        .encode()
    };
    let frame = round_trip(transport.as_ref(), &endpoint, request, timeout, timeout)
        .map_err(|e| format!("scrape of '{endpoint}': {e}"))?;
    ScrapeReply::decode(&frame).map_err(|e| format!("scrape reply decode: {e}"))
}

/// Scrapes a structured snapshot (binary format) from a standalone
/// study's shard.
pub fn scrape(
    transport: &Arc<dyn Transport>,
    shard: usize,
    timeout: Duration,
) -> Result<ScrapeSnapshot, String> {
    match scrape_reply_in(transport, "", shard, ScrapeFormat::Binary, timeout)? {
        ScrapeReply::Snapshot(s) => Ok(*s),
        ScrapeReply::Text(_) => Err("expected a binary snapshot, got text".to_string()),
    }
}

/// Scrapes a rendered text snapshot (JSON or Prometheus) from a
/// standalone study's shard.
pub fn scrape_text(
    transport: &Arc<dyn Transport>,
    shard: usize,
    format: ScrapeFormat,
    timeout: Duration,
) -> Result<String, String> {
    match scrape_reply_in(transport, "", shard, format, timeout)? {
        ScrapeReply::Text(t) => Ok(t),
        ScrapeReply::Snapshot(_) => Err("expected text, got a binary snapshot".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_telemetry::Registry;
    use melissa_transport::{make_transport, TransportKind};

    #[test]
    fn scrape_round_trips_over_the_in_process_transport() {
        let transport = make_transport(TransportKind::InProcess);
        let main_rx = transport.bind(&names::server_main_in(&names::shard_scope(1)), 8);
        let registry = Registry::new();
        registry.counter("reconnects").add(2);
        let snap = ScrapeSnapshot {
            shard: 1,
            backend: "in-process".into(),
            uptime_nanos: 123_456_789,
            groups_finished: 4,
            groups_running: 2,
            max_ci_width: 0.25,
            max_quantile_step: 0.5,
            routing_epoch: 0,
            reconnects: 2,
            wire_codec: Default::default(),
            links: Vec::new(),
            metrics: registry.snapshot(),
            events: Vec::new(),
        };
        let t2 = Arc::clone(&transport);
        let serve = std::thread::spawn(move || {
            let frame = main_rx.recv().expect("request");
            let Ok(Message::Scrape { reply_to, format }) = Message::decode(&frame) else {
                panic!("not a scrape request");
            };
            assert!(names::is_rpc_reply(&reply_to), "{reply_to}");
            let tx = t2.connect(&reply_to).expect("reply connect");
            tx.send(snap.encode_reply(format)).expect("reply send");
        });
        let got = scrape(&transport, 1, Duration::from_secs(5)).expect("scrape");
        serve.join().unwrap();
        assert_eq!(got.shard, 1);
        assert_eq!(got.groups_finished, 4);
        assert_eq!(got.metrics.counters.len(), 1);
    }
}
