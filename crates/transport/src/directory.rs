//! The deployment directory service: endpoint names → node addresses.
//!
//! A single-process study resolves endpoint names inside the process (the
//! in-process channel map, or one TCP listener answering for every bound
//! name).  A *multi-node* deployment — server shards and simulation
//! groups on different machines, the paper's actual cluster shape —
//! needs a rendezvous that outlives any one process: this module's
//! **directory service**, a small TCP key→`host:port` store owned by the
//! launcher.
//!
//! * [`DirectoryServer`] hosts the store over TCP: one length-prefixed
//!   request/reply protocol, with a [`LivenessTracker`] lease per name —
//!   an entry whose owner stopped renewing expires and resolves as
//!   *not found*, so crashed nodes cannot poison the name space.
//! * [`DirectoryClient`] is the handle a multi-node
//!   [`crate::tcp::TcpTransport`] consults over one persistent TCP
//!   connection: `publish(name, addr)` when an endpoint binds,
//!   `resolve(name)` when a peer connects, `renew()` as the liveness
//!   lease heartbeat.  It remembers everything it published and
//!   re-publishes on every renewal, so a restarted directory server
//!   recovers its table from the next heartbeat round without any node
//!   noticing.
//!
//! A single-node TCP transport has no directory: it answers `connect`
//! from its own endpoint table.
//!
//! The directory address is seeded through the environment
//! ([`DIRECTORY_ENV`], `MELISSA_DIRECTORY=host:port`) or the launcher
//! handshake: the launcher binds the server, exports the address to every
//! child process, and each node's transport does the rest.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::codec::{read_frame, write_frame, Wire};
use crate::heartbeat::LivenessTracker;
use crate::sync::Mutex;
use crate::tcp::spawn_accept_loop;

/// Environment variable seeding the deployment's directory address
/// (`host:port`), exported by the launcher to every child process.
pub const DIRECTORY_ENV: &str = "MELISSA_DIRECTORY";

/// Reads the deployment directory address from [`DIRECTORY_ENV`].
pub fn directory_from_env() -> Option<String> {
    std::env::var(DIRECTORY_ENV).ok().filter(|s| !s.is_empty())
}

/// Directory requests/replies are tiny (names and addresses).
const MAX_DIR_FRAME: usize = 1 << 20;
/// Dial/request deadline against a wedged directory.
const DIR_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One request to the directory server (`name` is an endpoint name,
/// `addr` an advertised `host:port`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryRequest {
    /// Publish (or refresh) `name → addr` and its lease.
    Publish { name: String, addr: String },
    /// Resolve a name.
    Resolve { name: String },
    /// Withdraw a name.
    Unpublish { name: String },
    /// Re-publish every `(name, addr)` pair a client owns (the lease
    /// heartbeat).
    Renew { entries: Vec<(String, String)> },
    /// List every live entry.
    List,
}

crate::wire_enum!(DirectoryRequest {
    1 => Publish { name, addr },
    2 => Resolve { name },
    3 => Unpublish { name },
    4 => Renew { entries },
    5 => List,
});

/// The directory server's answer to one [`DirectoryRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryReply {
    /// Publish, unpublish or renew applied.
    Done,
    /// The resolved name is unknown or its lease lapsed.
    NotFound,
    /// The resolved name's address.
    Found { addr: String },
    /// Every live `(name, addr)` entry, unsorted.
    Entries { entries: Vec<(String, String)> },
}

crate::wire_enum!(DirectoryReply {
    0 => Done,
    1 => NotFound,
    2 => Found { addr },
    3 => Entries { entries },
});

/// Directory operation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// The directory could not be reached (or the connection died twice).
    Io {
        /// Human-readable description.
        detail: String,
    },
    /// The directory answered with something undecodable.
    Protocol {
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::Io { detail } => write!(f, "directory unreachable: {detail}"),
            DirectoryError::Protocol { detail } => {
                write!(f, "directory protocol error: {detail}")
            }
        }
    }
}

impl std::error::Error for DirectoryError {}

struct DirState {
    table: Mutex<HashMap<String, String>>,
    lease: LivenessTracker<String>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl DirState {
    // Every operation holds the table lock across its lease bookkeeping
    // (lock order: table, then the tracker's internal lock), so a
    // lease-lapse expiry can never interleave with a concurrent
    // publish/renew — which could otherwise strand a live entry with no
    // lease (immortal) or wipe a just-renewed one.

    fn publish(&self, name: String, addr: String, now: Instant) {
        let mut table = self.table.lock();
        self.lease.record_at(name.clone(), now);
        table.insert(name, addr);
    }

    fn resolve(&self, name: &str, now: Instant) -> Option<String> {
        let mut table = self.table.lock();
        if self.lease.is_late_at(&name.to_string(), now) {
            // Lease lapsed: the owning node is gone; expire the entry so
            // nobody dials a dead address.
            table.remove(name);
            self.lease.forget(&name.to_string());
            return None;
        }
        table.get(name).cloned()
    }

    fn unpublish(&self, name: &str) {
        let mut table = self.table.lock();
        table.remove(name);
        self.lease.forget(&name.to_string());
    }

    /// Entries whose lease is still live (unsorted).
    fn live_entries(&self, now: Instant) -> Vec<(String, String)> {
        let table = self.table.lock();
        table
            .iter()
            .filter(|(name, _)| !self.lease.is_late_at(name, now))
            .map(|(n, a)| (n.clone(), a.clone()))
            .collect()
    }
}

/// The TCP key→`host:port` store of one deployment, typically owned by
/// the launcher.  Accepts any number of concurrent clients; each name
/// carries a liveness lease renewed by its publisher's heartbeat.
pub struct DirectoryServer {
    state: Arc<DirState>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for DirectoryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectoryServer")
            .field("addr", &self.state.addr)
            .finish()
    }
}

impl DirectoryServer {
    /// Binds the directory listener on `bind` (`host:port`, port 0 =
    /// ephemeral) with the given lease timeout: a published name whose
    /// owner stays silent longer than `lease` resolves as *not found*.
    pub fn bind(bind: &str, lease: Duration) -> std::io::Result<DirectoryServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(DirState {
            table: Mutex::new(HashMap::new()),
            lease: LivenessTracker::new(lease),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let accept_handle = spawn_accept_loop(
            listener,
            &state,
            |s| &s.shutdown,
            serve_directory_client,
            ("dir-accept", "dir-rx"),
        );
        Ok(DirectoryServer {
            state,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The listener's socket address (pass as `host:port` to every node).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Live entries (sorted), for launcher diagnostics and tests.
    pub fn entries(&self) -> Vec<(String, String)> {
        let mut v = self.state.live_entries(Instant::now());
        v.sort();
        v
    }
}

impl Drop for DirectoryServer {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread so it observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.state.addr, DIR_IO_TIMEOUT);
        if let Some(h) = self.accept_handle.lock().take() {
            let _ = h.join();
        }
    }
}

/// One connected directory client: a persistent request/reply loop.
fn serve_directory_client(mut stream: TcpStream, state: Arc<DirState>) {
    let _ = stream.set_nodelay(true);
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let req = match read_frame(&mut stream, MAX_DIR_FRAME) {
            Ok(Some(frame)) => frame,
            _ => return, // clean EOF or broken client
        };
        // Re-check after the blocking read: a request that raced the
        // shutdown must not be answered from the dead server's table
        // (closing instead makes the client re-dial — and reach whoever
        // owns the address now).
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // An undecodable request drops the client.
        let Ok(req) = DirectoryRequest::from_frame(&req) else {
            return;
        };
        let reply = handle_request(req, &state).to_frame();
        if write_frame(&mut stream, &reply).is_err() || stream.flush().is_err() {
            return;
        }
    }
}

/// Applies one request.
fn handle_request(req: DirectoryRequest, state: &DirState) -> DirectoryReply {
    let now = Instant::now();
    match req {
        DirectoryRequest::Publish { name, addr } => {
            state.publish(name, addr, now);
            DirectoryReply::Done
        }
        DirectoryRequest::Resolve { name } => match state.resolve(&name, now) {
            Some(addr) => DirectoryReply::Found { addr },
            None => DirectoryReply::NotFound,
        },
        DirectoryRequest::Unpublish { name } => {
            state.unpublish(&name);
            DirectoryReply::Done
        }
        DirectoryRequest::Renew { entries } => {
            for (name, addr) in entries {
                state.publish(name, addr, now);
            }
            DirectoryReply::Done
        }
        DirectoryRequest::List => DirectoryReply::Entries {
            entries: state.live_entries(now),
        },
    }
}

/// Remote directory handle over one persistent TCP connection,
/// reconnecting once per request on a broken wire (self-healing across
/// directory restarts).
#[derive(Debug)]
pub struct DirectoryClient {
    addr: String,
    conn: Mutex<Option<TcpStream>>,
    /// Everything published through this handle, re-published on every
    /// [`renew`](DirectoryClient::renew).
    published: Mutex<HashMap<String, String>>,
}

/// Resolves `host:port` and dials with a deadline.
fn dial(addr: &str) -> Result<TcpStream, DirectoryError> {
    let io_err = |detail: String| DirectoryError::Io { detail };
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| io_err(format!("bad directory address '{addr}': {e}")))?
        .next()
        .ok_or_else(|| io_err(format!("directory address '{addr}' resolves to nothing")))?;
    let stream = TcpStream::connect_timeout(&sock, DIR_IO_TIMEOUT)
        .map_err(|e| io_err(format!("dialing directory {addr}: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| io_err(e.to_string()))?;
    stream
        .set_read_timeout(Some(DIR_IO_TIMEOUT))
        .map_err(|e| io_err(e.to_string()))?;
    Ok(stream)
}

impl DirectoryClient {
    /// Connects to the directory at `addr` (`host:port`), failing fast
    /// when it is unreachable.
    pub fn connect(addr: &str) -> Result<DirectoryClient, DirectoryError> {
        let client = DirectoryClient {
            addr: addr.to_string(),
            conn: Mutex::new(None),
            published: Mutex::new(HashMap::new()),
        };
        *client.conn.lock() = Some(dial(addr)?);
        Ok(client)
    }

    /// The directory's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/reply round, re-dialing once on a broken connection.
    fn request(&self, req: &DirectoryRequest) -> Result<DirectoryReply, DirectoryError> {
        let req = req.to_frame();
        let mut guard = self.conn.lock();
        for attempt in 0..2 {
            if guard.is_none() {
                *guard = Some(dial(&self.addr)?);
            }
            let stream = guard.as_mut().expect("just dialed");
            let round = write_frame(stream, &req)
                .and_then(|()| stream.flush())
                .and_then(|()| read_frame(stream, MAX_DIR_FRAME));
            match round {
                Ok(Some(reply)) => {
                    return DirectoryReply::from_frame(&reply).map_err(|e| {
                        DirectoryError::Protocol {
                            detail: e.to_string(),
                        }
                    })
                }
                Ok(None) | Err(_) if attempt == 0 => {
                    // Stale connection (directory restarted): re-dial once.
                    *guard = None;
                }
                Ok(None) => {
                    return Err(DirectoryError::Io {
                        detail: format!("directory {} closed the connection", self.addr),
                    })
                }
                Err(e) => {
                    *guard = None;
                    return Err(DirectoryError::Io {
                        detail: format!("directory {}: {e}", self.addr),
                    });
                }
            }
        }
        unreachable!("two attempts always return")
    }

    /// A request whose only good answer is [`DirectoryReply::Done`].
    fn apply(&self, req: &DirectoryRequest, what: &str) -> Result<(), DirectoryError> {
        match self.request(req)? {
            DirectoryReply::Done => Ok(()),
            _ => Err(unexpected(what)),
        }
    }

    /// Lists every live entry (sorted), for diagnostics.
    pub fn list(&self) -> Result<Vec<(String, String)>, DirectoryError> {
        match self.request(&DirectoryRequest::List)? {
            DirectoryReply::Entries { mut entries } => {
                entries.sort();
                Ok(entries)
            }
            _ => Err(unexpected("list")),
        }
    }
}

fn unexpected(what: &str) -> DirectoryError {
    DirectoryError::Protocol {
        detail: format!("unexpected {what} reply"),
    }
}

impl DirectoryClient {
    /// Publishes (or refreshes) `name → addr`, taking (or renewing) its
    /// liveness lease.
    pub fn publish(&self, name: &str, addr: &str) -> Result<(), DirectoryError> {
        self.published
            .lock()
            .insert(name.to_string(), addr.to_string());
        let req = DirectoryRequest::Publish {
            name: name.to_string(),
            addr: addr.to_string(),
        };
        self.apply(&req, "publish")
    }

    /// Resolves a name to the advertised `host:port` of the node that
    /// published it; `None` when the name is unknown or its lease lapsed.
    pub fn resolve(&self, name: &str) -> Result<Option<String>, DirectoryError> {
        let req = DirectoryRequest::Resolve {
            name: name.to_string(),
        };
        match self.request(&req)? {
            DirectoryReply::Found { addr } => Ok(Some(addr)),
            DirectoryReply::NotFound => Ok(None),
            _ => Err(unexpected("resolve")),
        }
    }

    /// Withdraws a name (subsequent resolves fail).
    pub fn unpublish(&self, name: &str) -> Result<(), DirectoryError> {
        self.published.lock().remove(name);
        let req = DirectoryRequest::Unpublish {
            name: name.to_string(),
        };
        self.apply(&req, "unpublish")
    }

    /// Renews the liveness lease of every name published through this
    /// handle, by **re-publishing** name→address pairs — which is what
    /// lets a restarted (state-less) directory server rebuild its table
    /// from the next renewal round.
    pub fn renew(&self) -> Result<(), DirectoryError> {
        let entries = self
            .published
            .lock()
            .iter()
            .map(|(n, a)| (n.clone(), a.clone()))
            .collect();
        self.apply(&DirectoryRequest::Renew { entries }, "renew")
    }
}

/// Canonical endpoint names of a Melissa deployment.
///
/// Every server instance of a study is a shard, one-shard studies
/// included: shard `k` binds its endpoints under
/// `[study<id>/]shard<k>/` ([`study_scope`](names::study_scope),
/// [`shard_scope`](names::shard_scope)), so `N` full server instances —
/// and many studies' — coexist on one name space without collisions:
/// `"shard0/server/main"`, `"shard0/server/0"`, `"study3/shard1/launcher"`,
/// ….  Shard `k` of any study is therefore addressed from the study's
/// scope and `k` alone; its `server/main` inbox takes handshakes and
/// telemetry scrapes alike.  The same names key every resolution layer —
/// the in-process channel map, a single node's TCP listener, and the
/// deployment directory.
pub mod names {
    /// The scope prefix of shard `k`, every server instance being one;
    /// under a daemon it nests in the study's scope
    /// (`scoped(&study_scope(id), &shard_scope(k))`).
    pub fn shard_scope(k: usize) -> String {
        format!("shard{k}")
    }

    /// Prefixes `name` with `scope` (no-op for the empty scope).
    pub fn scoped(scope: &str, name: &str) -> String {
        if scope.is_empty() {
            name.to_string()
        } else {
            format!("{scope}/{name}")
        }
    }

    /// The handshake endpoint of the server instance scoped by `scope`.
    pub fn server_main_in(scope: &str) -> String {
        scoped(scope, "server/main")
    }

    /// Worker `w`'s data endpoint of the server instance scoped by `scope`.
    pub fn server_worker_in(scope: &str, w: usize) -> String {
        scoped(scope, &format!("server/{w}"))
    }

    /// The launcher inbox dedicated to the server instance scoped by
    /// `scope` (per-shard control channels keep shard reports apart).
    pub fn launcher_in(scope: &str) -> String {
        scoped(scope, "launcher")
    }

    /// A group's handshake reply endpoint toward the server instance
    /// scoped by `scope`.
    pub fn group_reply_in(scope: &str, group_id: u64, instance: u32) -> String {
        scoped(scope, &format!("group/{group_id}/{instance}/reply"))
    }

    /// The launcher's collection endpoint draining shard `k`'s packed
    /// worker states at study end (the multi-node reduction inbox).
    pub fn collect_in(k: usize) -> String {
        format!("collect/shard{k}")
    }

    /// The scope prefix of study `id` under the multi-tenant daemon.
    /// Composes with shard scopes: study 3's shard 1 lives under
    /// `"study3/shard1"`, its endpoints under `"study3/shard1/…"`.
    pub fn study_scope(id: u64) -> String {
        format!("study{id}")
    }

    /// Where [`Transport::retire_scope`](crate::Transport::retire_scope)
    /// folds the link statistics of scopes that are gone.
    pub(crate) const RETIRED_SCOPE: &str = "retired";

    /// `retired/<rest>` for a name `scope/<rest>`; `None` for a name
    /// outside `scope`.
    pub(crate) fn retired(scope: &str, name: &str) -> Option<String> {
        let rest = name.strip_prefix(scope)?.strip_prefix('/')?;
        Some(scoped(RETIRED_SCOPE, rest))
    }

    /// The ledger entry a link to `name` is folded into once it is gone:
    /// the name itself, except that one-shot reply endpoints — a name per
    /// RPC — share one `retired/reply` total.
    pub(crate) fn settled(name: &str) -> String {
        if is_reply(name) {
            scoped(RETIRED_SCOPE, "reply")
        } else {
            name.to_string()
        }
    }

    /// Whether `name` is a one-shot reply endpoint — a group's handshake
    /// reply, a control or scrape RPC's reply: bound for one frame, and
    /// read by no statistics rollup.
    pub(crate) fn is_reply(name: &str) -> bool {
        name.split('/').any(|part| part == "reply")
    }

    /// The one-shot reply endpoint of [`round_trip`](crate::round_trip)
    /// number `nonce` in process `pid`: `reply/<pid>/<nonce>`.
    pub(crate) fn rpc_reply(pid: u32, nonce: u64) -> String {
        format!("reply/{pid}/{nonce}")
    }

    /// Whether `name` is the reply endpoint of a
    /// [`round_trip`](crate::round_trip), `reply/<pid>/<nonce>` — the
    /// only kind a service sends a reply to, so that no request can make
    /// it push a frame into another endpoint (a study's launcher inbox, a
    /// server worker's).  A group's handshake reply is not one.
    pub fn is_rpc_reply(name: &str) -> bool {
        let number = |part: &str| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit());
        let parts: Vec<&str> = name.split('/').collect();
        matches!(parts[..], ["reply", pid, nonce] if number(pid) && number(nonce))
    }

    /// The multi-tenant daemon's study-submission control endpoint.
    pub fn daemon_ctl() -> String {
        "ctl/daemon".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_round_trip_over_tcp() {
        let server = DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
        let addr = server.local_addr().to_string();
        let client = DirectoryClient::connect(&addr).unwrap();
        client.publish("server/0", "10.0.0.7:9000").unwrap();
        assert_eq!(
            client.resolve("server/0").unwrap(),
            Some("10.0.0.7:9000".into())
        );
        assert_eq!(client.resolve("server/1").unwrap(), None);
        assert_eq!(
            client.list().unwrap(),
            vec![("server/0".to_string(), "10.0.0.7:9000".to_string())]
        );
        client.unpublish("server/0").unwrap();
        assert_eq!(client.resolve("server/0").unwrap(), None);
        assert_eq!(client.addr(), addr);
    }

    #[test]
    fn two_clients_share_one_name_space() {
        let server = DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
        let addr = server.local_addr().to_string();
        let publisher = DirectoryClient::connect(&addr).unwrap();
        let resolver = DirectoryClient::connect(&addr).unwrap();
        publisher.publish("x", "1.2.3.4:1").unwrap();
        assert_eq!(resolver.resolve("x").unwrap(), Some("1.2.3.4:1".into()));
    }

    #[test]
    fn lapsed_lease_expires_the_entry() {
        let server = DirectoryServer::bind("127.0.0.1:0", Duration::from_millis(50)).unwrap();
        let client = DirectoryClient::connect(&server.local_addr().to_string()).unwrap();
        client.publish("dying", "1.2.3.4:1").unwrap();
        assert_eq!(client.resolve("dying").unwrap(), Some("1.2.3.4:1".into()));
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(
            client.resolve("dying").unwrap(),
            None,
            "silent publisher kept its name"
        );
        assert!(server.entries().is_empty());
    }

    #[test]
    fn renew_keeps_the_lease_alive_and_republishes() {
        let server = DirectoryServer::bind("127.0.0.1:0", Duration::from_millis(80)).unwrap();
        let client = DirectoryClient::connect(&server.local_addr().to_string()).unwrap();
        client.publish("kept", "1.2.3.4:1").unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(40));
            client.renew().unwrap();
        }
        assert_eq!(
            client.resolve("kept").unwrap(),
            Some("1.2.3.4:1".into()),
            "renewal did not keep the lease"
        );
    }

    #[test]
    fn client_redials_after_a_directory_restart() {
        // Bind, connect, kill the server, restart on the SAME port: the
        // client's next request must transparently re-dial, and renewal
        // must repopulate the fresh server's table.  Re-binding a
        // just-freed ephemeral port can race other tests grabbing
        // ephemeral ports, so the whole scenario retries on bind failure.
        for attempt in 0..5 {
            let server = DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
            let addr = server.local_addr().to_string();
            let client = DirectoryClient::connect(&addr).unwrap();
            client.publish("p", "5.6.7.8:2").unwrap();
            drop(server);
            let server2 = match DirectoryServer::bind(&addr, Duration::from_secs(30)) {
                Ok(s) => s,
                Err(_) if attempt < 4 => continue, // port stolen: retry
                Err(e) => panic!("could not re-bind the directory port: {e}"),
            };
            // The fresh server knows nothing yet.
            assert_eq!(client.resolve("p").unwrap(), None);
            // One renewal round restores everything this client published.
            client.renew().unwrap();
            assert_eq!(client.resolve("p").unwrap(), Some("5.6.7.8:2".into()));
            drop(server2);
            return;
        }
    }

    #[test]
    fn unreachable_directory_fails_fast() {
        // A port nobody listens on (bind + drop frees it).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(matches!(
            DirectoryClient::connect(&addr),
            Err(DirectoryError::Io { .. })
        ));
    }

    #[test]
    fn directory_env_round_trip() {
        // Avoid polluting other tests: use a scoped fake via direct parse.
        assert_eq!(DIRECTORY_ENV, "MELISSA_DIRECTORY");
    }

    #[test]
    fn canonical_names_are_stable() {
        assert_eq!(names::server_main_in(""), "server/main");
        assert_eq!(names::server_worker_in("", 3), "server/3");
        assert_eq!(names::launcher_in(""), "launcher");
        assert_eq!(names::group_reply_in("", 7, 2), "group/7/2/reply");
        assert_eq!(names::collect_in(2), "collect/shard2");
    }

    #[test]
    fn scoped_names_prefix_the_shard_and_empty_scope_is_legacy() {
        let scope = names::shard_scope(2);
        assert_eq!(scope, "shard2");
        assert_eq!(names::server_main_in(&scope), "shard2/server/main");
        assert_eq!(names::server_worker_in(&scope, 3), "shard2/server/3");
        assert_eq!(names::launcher_in(&scope), "shard2/launcher");
        assert_eq!(
            names::group_reply_in(&scope, 7, 2),
            "shard2/group/7/2/reply"
        );
    }

    #[test]
    fn study_scopes_compose() {
        assert_eq!(names::study_scope(3), "study3");
        assert_eq!(
            names::scoped("study3", &names::shard_scope(1)),
            "study3/shard1"
        );
        assert_eq!(names::daemon_ctl(), "ctl/daemon");
    }

    #[test]
    fn only_round_trip_reply_names_are_rpc_replies() {
        assert_eq!(names::rpc_reply(12, 7), "reply/12/7");
        assert!(names::is_rpc_reply(&names::rpc_reply(12, 7)));
        // A group's handshake reply is a reply name, not an RPC's.
        assert!(names::is_reply("group/7/2/reply"));
        for name in [
            "study1/shard0/launcher",
            "shard0/server/0",
            "group/7/2/reply",
            "shard0/group/7/2/reply",
            "x/reply/1/2",
            "reply/1/2/x",
            "reply/1",
            "reply//2",
            "reply/1/-2",
            "",
        ] {
            assert!(!names::is_rpc_reply(name), "{name}");
        }
    }
}
