//! The in-process backend: named bounded channels behind the
//! [`Transport`] trait.
//!
//! The paper (Section 4.1.3): when a simulation group starts, its main
//! simulation *dynamically* connects to Melissa Server — first to the
//! server's main process to retrieve partition information, then directly
//! to each needed server process.  [`ChannelTransport`] is the
//! reproduction's in-process rendezvous: server processes
//! [`bind`](Transport::bind) named endpoints (`"server/0"`, …) and clients
//! [`connect`](Transport::connect) to them by name at any time, including
//! while other jobs run — which is what makes the framework *elastic*
//! (simulation groups are independent jobs that attach whenever the batch
//! scheduler starts them).
//!
//! This backend defines the reference semantics the TCP backend
//! ([`crate::tcp::TcpTransport`]) reproduces over real sockets: every
//! sender clone of one endpoint shares one bounded HWM queue and one
//! [`LinkStats`] counter set.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use melissa_sync::Mutex;

use crate::api::{BoxReceiver, BoxSender, ConnectError, LinkStatsSnapshot, Sender as _, Transport};
use crate::endpoint::{channel, HwmSender, LinkStats};

/// What the ledger keeps of one endpoint name's past generations (the
/// endpoints a rebind replaced or an unbind removed).
#[derive(Debug, Default)]
struct Retired {
    /// Sum of the generations no sender holds any more: their counters
    /// can no longer move.
    folded: LinkStatsSnapshot,
    /// Generations some sender still holds, and may still count on.
    draining: Vec<Arc<LinkStats>>,
}

impl Retired {
    fn push(&mut self, stats: Arc<LinkStats>) {
        self.draining.push(stats);
        // The ledger's is the last handle once every sender clone of a
        // generation is gone.
        let folded = &mut self.folded;
        self.draining.retain(|stats| {
            let settled = Arc::strong_count(stats) == 1;
            if settled {
                folded.absorb(&LinkStatsSnapshot::of(stats));
            }
            !settled
        });
    }

    fn snapshot(&self) -> LinkStatsSnapshot {
        let mut sum = self.folded;
        for stats in &self.draining {
            sum.absorb(&LinkStatsSnapshot::of(stats));
        }
        sum
    }
}

/// In-process rendezvous service mapping endpoint names to bounded HWM
/// channels.  Cheap to clone (shared state); one per deployment.
#[derive(Debug, Clone, Default)]
pub struct ChannelTransport {
    endpoints: Arc<Mutex<HashMap<String, HwmSender>>>,
    /// Stats of endpoints replaced by a rebind or removed by an unbind,
    /// one entry per name, so the study-level rollup keeps counting
    /// pre-restart traffic — the same every-frame-once accounting the
    /// TCP backend gets from its per-connection link registry.  One-shot
    /// reply endpoints are not kept: no rollup reads them, and a
    /// long-lived service binds one per request.
    retired: Arc<Mutex<BTreeMap<String, Retired>>>,
    /// Scopes given to [`Transport::retire_scope`]: their endpoints and
    /// ledger entries stay as they are (what a scope left bound stays
    /// connectable), and the rollup counts them under `retired/…`.
    retired_scopes: Arc<Mutex<HashSet<String>>>,
}

impl ChannelTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves a replaced or removed endpoint's stats to the ledger.
    fn retire(&self, name: &str, old: HwmSender) {
        if names::is_reply(name) {
            return;
        }
        let stats = Arc::clone(old.stats());
        drop(old);
        self.retired
            .lock()
            .entry(name.to_string())
            .or_default()
            .push(stats);
    }
}

impl Transport for ChannelTransport {
    /// Binds a new endpoint under `name` with the given high-water mark,
    /// returning its receiving half.  Rebinding a name replaces the old
    /// endpoint (the restart path: a recovered server re-binds its names).
    fn bind(&self, name: &str, hwm: usize) -> BoxReceiver {
        let (tx, rx) = channel(hwm);
        let old = self.endpoints.lock().insert(name.to_string(), tx);
        if let Some(old) = old {
            self.retire(name, old);
        }
        Box::new(rx)
    }

    /// Connects to a bound endpoint, returning a sender clone sharing the
    /// endpoint's queue and statistics.
    fn connect(&self, name: &str) -> Result<BoxSender, ConnectError> {
        self.endpoints
            .lock()
            .get(name)
            .map(|tx| tx.clone_box())
            .ok_or_else(|| ConnectError::NotFound {
                name: name.to_string(),
            })
    }

    /// Removes an endpoint (subsequent `connect`s fail; existing senders
    /// keep working until the receiver is dropped).
    fn unbind(&self, name: &str) {
        let old = self.endpoints.lock().remove(name);
        if let Some(old) = old {
            self.retire(name, old);
        }
    }

    /// Names currently bound (sorted, for reports).
    fn bound_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.endpoints.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// One snapshot per endpoint name: all sender clones of an endpoint
    /// share one [`LinkStats`], so the live
    /// snapshot plus the retired generations (pre-rebind/unbind) is the
    /// complete every-frame-once rollup.  Names under a retired scope
    /// count under `retired/…`.
    fn link_stats(&self) -> Vec<(String, LinkStatsSnapshot)> {
        let retired_scopes = self.retired_scopes.lock();
        let key = |name: &str| match name.split_once('/') {
            Some((scope, rest)) if retired_scopes.contains(scope) => {
                names::scoped(names::RETIRED_SCOPE, rest)
            }
            _ => name.to_string(),
        };
        let mut rollup: BTreeMap<String, LinkStatsSnapshot> = BTreeMap::new();
        for (name, tx) in self.endpoints.lock().iter() {
            rollup
                .entry(key(name))
                .or_default()
                .absorb(&LinkStatsSnapshot::of(tx.stats()));
        }
        for (name, retired) in self.retired.lock().iter() {
            rollup
                .entry(key(name))
                .or_default()
                .absorb(&retired.snapshot());
        }
        rollup.into_iter().collect()
    }

    fn retire_scope(&self, scope: &str) {
        self.retired_scopes.lock().insert(scope.to_string());
    }

    fn backend_name(&self) -> &'static str {
        "in-process"
    }
}

// The canonical endpoint-name scheme lives in `crate::directory::names`
// (re-exported here for one release as `names` used to live in this
// module): naming belongs to the resolution layer, which since the
// multi-node refactor is the directory service, not this backend.
pub use crate::directory::names;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_connect_send_receive() {
        let t = ChannelTransport::new();
        let rx = t.bind("server/0", 8);
        let tx = t.connect("server/0").unwrap();
        tx.send(bytes::Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"hello");
    }

    #[test]
    fn connect_before_bind_fails_cleanly() {
        let t = ChannelTransport::new();
        assert!(matches!(
            t.connect("server/0"),
            Err(ConnectError::NotFound { .. })
        ));
    }

    #[test]
    fn connect_retry_rendezvous_with_a_late_bind() {
        let t = ChannelTransport::new();
        let t2 = t.clone();
        let binder = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            t2.bind("late", 4)
        });
        let tx = t
            .connect_retry("late", std::time::Duration::from_secs(2))
            .expect("late bind must be found");
        let rx = binder.join().unwrap();
        tx.send(bytes::Bytes::from_static(b"hi")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"hi");
    }

    #[test]
    fn rebinding_replaces_the_endpoint() {
        let t = ChannelTransport::new();
        let rx1 = t.bind("x", 2);
        let tx1 = t.connect("x").unwrap();
        let rx2 = t.bind("x", 2);
        let tx2 = t.connect("x").unwrap();
        tx2.send(bytes::Bytes::from_static(b"new")).unwrap();
        assert_eq!(&rx2.recv().unwrap()[..], b"new");
        // The old sender still reaches the old receiver only.
        tx1.send(bytes::Bytes::from_static(b"old")).unwrap();
        assert_eq!(&rx1.recv().unwrap()[..], b"old");
        assert!(rx2.try_recv().is_err());
    }

    #[test]
    fn unbind_prevents_new_connections() {
        let t = ChannelTransport::new();
        let _rx = t.bind("y", 2);
        t.unbind("y");
        assert!(t.connect("y").is_err());
    }

    #[test]
    fn bound_names_are_sorted() {
        let t = ChannelTransport::new();
        let _a = t.bind("b", 1);
        let _b = t.bind("a", 1);
        assert_eq!(t.bound_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn link_stats_roll_up_per_endpoint() {
        let t = ChannelTransport::new();
        let _rx = t.bind("data", 8);
        let tx1 = t.connect("data").unwrap();
        let tx2 = t.connect("data").unwrap();
        tx1.send(bytes::Bytes::from_static(b"abc")).unwrap();
        tx2.send(bytes::Bytes::from_static(b"de")).unwrap();
        let stats = t.link_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "data");
        assert_eq!(stats[0].1.messages, 2);
        assert_eq!(stats[0].1.bytes, 5);
    }

    #[test]
    fn link_stats_survive_rebind_and_unbind() {
        // The restart path must not lose pre-restart telemetry from the
        // rollup (parity with the TCP backend's per-connection ledger).
        let t = ChannelTransport::new();
        let _rx1 = t.bind("data", 8);
        let tx1 = t.connect("data").unwrap();
        tx1.send(bytes::Bytes::from_static(b"ab")).unwrap();
        tx1.send(bytes::Bytes::from_static(b"cd")).unwrap();
        let _rx2 = t.bind("data", 8); // server restart rebinds
        let tx2 = t.connect("data").unwrap();
        tx2.send(bytes::Bytes::from_static(b"e")).unwrap();
        let stats = t.link_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.messages, 3, "pre-rebind frames lost");
        assert_eq!(stats[0].1.bytes, 5);
        t.unbind("data");
        let stats = t.link_stats();
        assert_eq!(stats[0].1.messages, 3, "unbind dropped history");
    }

    #[test]
    fn reply_endpoints_leave_nothing_in_the_ledger() {
        let t = ChannelTransport::new();
        for i in 0..100 {
            let name = format!("ctl/reply/1/{i}");
            let _rx = t.bind(&name, 2);
            t.connect(&name)
                .unwrap()
                .send(bytes::Bytes::from_static(b"r"))
                .unwrap();
            t.unbind(&name);
            let _rx = t.bind(&names::group_reply_in("study1", i, 0), 2);
            t.unbind(&names::group_reply_in("study1", i, 0));
        }
        assert!(t.link_stats().is_empty());
    }

    #[test]
    fn generations_of_one_name_fold_once_their_senders_are_gone() {
        let t = ChannelTransport::new();
        for _ in 0..50 {
            let _rx = t.bind("data", 4); // each bind retires the last one
            let tx = t.connect("data").unwrap();
            tx.send(bytes::Bytes::from_static(b"ab")).unwrap();
        }
        let stats = t.link_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].1.messages, stats[0].1.bytes), (50, 100));
        let ledger = t.retired.lock();
        assert_eq!(ledger.len(), 1);
        assert!(ledger["data"].draining.len() <= 1, "dead generations fold");
    }

    #[test]
    fn retiring_a_scope_keeps_the_totals_and_drops_the_names() {
        let t = ChannelTransport::new();
        let mut sizes = Vec::new();
        for study in 1..=4u64 {
            let scope = names::study_scope(study);
            // A restarted server: one generation in the ledger, one bound.
            for _ in 0..2 {
                let _rx = t.bind(&names::server_worker_in(&scope, 0), 4);
                let tx = t.connect(&names::server_worker_in(&scope, 0)).unwrap();
                tx.send(bytes::Bytes::from_static(b"abc")).unwrap();
            }
            let _main = t.bind(&names::server_main_in(&scope), 4);
            t.retire_scope(&scope);
            sizes.push(t.link_stats().len());
        }
        assert_eq!(sizes, vec![2; 4], "bounded by a study's shape");
        let stats: HashMap<String, LinkStatsSnapshot> = t.link_stats().into_iter().collect();
        assert_eq!(stats["retired/server/0"].messages, 8);
        assert_eq!(stats["retired/server/0"].bytes, 24);
        assert!(
            t.connect(&names::server_worker_in("study1", 0)).is_ok(),
            "what a scope left bound stays connectable"
        );
        // A scope that merely shares the prefix's letters is not touched.
        let _rx = t.bind("study10/server/0", 4);
        t.retire_scope("study1");
        assert!(t
            .link_stats()
            .iter()
            .any(|(name, _)| name == "study10/server/0"));
    }

    #[test]
    fn shard_scoped_endpoints_coexist_on_one_transport() {
        let t = ChannelTransport::new();
        let rx0 = t.bind(&names::server_worker_in(&names::shard_scope(0), 1), 4);
        let rx1 = t.bind(&names::server_worker_in(&names::shard_scope(1), 1), 4);
        let tx0 = t
            .connect(&names::server_worker_in(&names::shard_scope(0), 1))
            .unwrap();
        let tx1 = t
            .connect(&names::server_worker_in(&names::shard_scope(1), 1))
            .unwrap();
        tx0.send(bytes::Bytes::from_static(b"to-shard-0")).unwrap();
        tx1.send(bytes::Bytes::from_static(b"to-shard-1")).unwrap();
        assert_eq!(&rx0.recv().unwrap()[..], b"to-shard-0");
        assert_eq!(&rx1.recv().unwrap()[..], b"to-shard-1");
    }
}
