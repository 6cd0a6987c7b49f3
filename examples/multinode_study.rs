//! A **multi-node** in transit study: server shards and simulation
//! groups as separate OS processes, rendezvousing through the directory
//! service over real TCP — the paper's actual cluster deployment shape.
//!
//! One binary, three roles (selected by `MELISSA_MN_ROLE`):
//!
//! * **orchestrator** (default) — runs the same-seed *in-process*
//!   reference study, then bootstraps the deployment: starts the
//!   directory service ([`bootstrap_directory`]), spawns one **server
//!   process per shard** (placed by [`NodeMap`]) and one **group process
//!   per simulation group** (strictly sequential, matching the
//!   in-process FCFS order), collects every shard's packed worker states
//!   over the transport at study end, reduces them, and asserts the
//!   statistics are **bit-identical** to the in-process run across every
//!   family;
//! * **server** — one shard: builds its own `TcpNode` transport (per-node
//!   listener, names published to the directory), runs a full Melissa
//!   Server under its scoped namespace, and ships `pack_state` bytes to
//!   the orchestrator's collection endpoint when told to stop;
//! * **group** — one simulation group: regenerates the seeded design,
//!   resolves its shard's endpoints through the directory, streams every
//!   timestep, flushes, exits.
//!
//! The run is then repeated with the paper's recovery drill (Section
//! 4.2): the first instance of group 0 crashes mid-stream — its process
//! exits non-zero, its links die with it, and what its shard's workers
//! got of the last timesteps is a prefix — and the orchestrator relaunches
//! it as instance 1, whose replayed timesteps the server discards up to
//! what it had integrated.  The study result is **still bit-identical**.
//! Links are not healed: a lost connection is a failed group, recovered
//! the same way.
//!
//! Mid-study the orchestrator also **scrapes** every shard's
//! `shard<k>/server/main` inbox through the directory (the
//! `melissa::scrape` live-observability path) and prints the snapshot —
//! proving the scrape works across OS processes and real sockets without
//! perturbing the bit-parity assertions that follow.
//!
//! Run with: `cargo run --release --example multinode_study`

use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use melissa_repro::melissa::group::{run_group, GroupContext, GroupOutcome};
use melissa_repro::melissa::launcher::bootstrap_directory;
use melissa_repro::melissa::protocol::Message;
use melissa_repro::melissa::scrape::scrape;
use melissa_repro::melissa::server::checkpoint::{pack_state, unpack_state};
use melissa_repro::melissa::server::state::WorkerState;
use melissa_repro::melissa::server::{Server, ServerConfig};
use melissa_repro::melissa::shard::{reduce_owned_states, GroupRouter, NodeMap};
use melissa_repro::melissa::study::StudyResults;
use melissa_repro::melissa::{GroupFault, Study, StudyConfig};
use melissa_repro::sobol::design::PickFreeze;
use melissa_repro::solver::injection::InjectionParams;
use melissa_repro::telemetry::Telemetry;
use melissa_repro::transport::directory::names;
use melissa_repro::transport::{
    KillSwitch, Receiver, TcpTransport, TcpTransportConfig, Transport, TransportKind, DIRECTORY_ENV,
};

const ROLE_ENV: &str = "MELISSA_MN_ROLE";
const SHARD_ENV: &str = "MELISSA_MN_SHARD";
const GROUP_ENV: &str = "MELISSA_MN_GROUP";
const INSTANCE_ENV: &str = "MELISSA_MN_INSTANCE";
const CRASH_ENV: &str = "MELISSA_MN_CRASH_AFTER";

const N_SHARDS: usize = 2;
const N_GROUPS: usize = 6;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// Instances a group may run as before the orchestrator gives up, as the
/// launcher's retry cap does.
const MAX_INSTANCES: u32 = 3;

/// The one study every role derives its world from: a pure function, so
/// separate OS processes agree on the design, the router, the partition
/// and the statistics configuration without exchanging a byte.
fn study_config() -> StudyConfig {
    let mut config = StudyConfig::tiny();
    config.n_groups = N_GROUPS;
    config.n_shards = N_SHARDS;
    config.max_concurrent_groups = 1; // sequential ⇒ bit-reproducible
    config.group_timeout = Duration::from_secs(30);
    config.server_timeout = Duration::from_secs(30);
    config.checkpoint_interval = Duration::from_secs(3600);
    config.wall_limit = Duration::from_secs(600);
    config
}

fn main() {
    match std::env::var(ROLE_ENV).as_deref() {
        Ok("server") => server_process(),
        Ok("group") => group_process(),
        _ => orchestrate(),
    }
}

// ---------------------------------------------------------------- roles

/// One shard's server, in its own OS process and on its own node.
fn server_process() {
    let dir_addr = std::env::var(DIRECTORY_ENV).expect("MELISSA_DIRECTORY not seeded");
    let shard: usize = std::env::var(SHARD_ENV)
        .expect("shard id")
        .parse()
        .expect("shard id");
    let scope = names::shard_scope(shard);
    let config = study_config();

    let transport: Arc<dyn Transport> =
        Arc::new(TcpTransport::with_config(TcpTransportConfig::node(&dir_addr)).expect("node"));

    let server_config = ServerConfig {
        scope: scope.clone(),
        n_workers: config.server_workers,
        n_cells: config.solver.mesh().n_cells(),
        p: InjectionParams::parameter_space().dim(),
        n_timesteps: config.solver.n_timesteps,
        hwm: config.hwm,
        group_timeout: config.group_timeout,
        checkpoint_interval: config.checkpoint_interval,
        checkpoint_dir: std::env::temp_dir()
            .join(format!("melissa-mn-ckpt-{shard}-{}", std::process::id())),
        report_interval: Duration::from_millis(200),
        track_ci: false,
        ci_variance_floor: 1e-12,
        restore: false,
        thresholds: config.thresholds.clone(),
        quantile_probs: config.quantile_probs.clone(),
        telemetry: Some(Telemetry::new(shard as u32)),
    };

    // Control endpoint (the orchestrator's stop signal) must exist before
    // ServerReady goes out, so the stop can never race the bind.
    let ctl_rx = transport.bind(&names::scoped(&scope, "ctl"), 4);
    // The launcher handshake: the orchestrator bound our per-shard inbox
    // on ITS node; the directory resolves it for us.
    let launcher_tx = transport
        .connect_retry(&names::launcher_in(&scope), CONNECT_TIMEOUT)
        .expect("launcher inbox unreachable");
    let server = Server::start(server_config, Arc::clone(&transport), launcher_tx);

    // Block until the orchestrator says the study is over.
    let _ = ctl_rx.recv();
    let replays = server.shared().replays_discarded.load(Ordering::Relaxed);
    eprintln!("[shard {shard}] replayed messages discarded: {replays}");
    let states = server.stop();

    // Ship the final worker states through the checkpoint codec to the
    // orchestrator's collection endpoint — the multi-node reduction path.
    let collect_tx = transport
        .connect_retry(&names::collect_in(shard), CONNECT_TIMEOUT)
        .expect("collection endpoint unreachable");
    for state in &states {
        let packed = pack_state(state);
        let mut frame = BytesMut::with_capacity(4 + packed.len());
        frame.put_u32_le(state.worker_id() as u32);
        frame.put_slice(&packed);
        collect_tx.send(frame.freeze()).expect("ship worker state");
    }
    collect_tx
        .flush(Duration::from_secs(60))
        .expect("collection barrier");
}

/// One simulation group, in its own OS process.
fn group_process() {
    let dir_addr = std::env::var(DIRECTORY_ENV).expect("MELISSA_DIRECTORY not seeded");
    let group_id: u64 = std::env::var(GROUP_ENV)
        .expect("group id")
        .parse()
        .expect("group id");
    let instance: u32 = std::env::var(INSTANCE_ENV)
        .expect("instance")
        .parse()
        .expect("instance");
    // The scripted crash: die after sending this timestep, as the
    // in-process fault plan's `CrashAfter` does.
    let fault = std::env::var(CRASH_ENV)
        .ok()
        .map(|ts| GroupFault::CrashAfter {
            at_timestep: ts.parse().expect("crash timestep"),
        });
    let config = study_config();
    let router = GroupRouter::from_config(&config);
    let scope = names::shard_scope(router.shard_of(group_id));
    let design = PickFreeze::generate(
        config.n_groups,
        &InjectionParams::parameter_space(),
        config.seed,
    );
    let transport: Arc<dyn Transport> =
        Arc::new(TcpTransport::with_config(TcpTransportConfig::node(&dir_addr)).expect("node"));

    let ctx = GroupContext {
        scope,
        group_id,
        instance,
        rows: design.group(group_id as usize).rows().to_vec(),
        solver: config.solver.clone(),
        flow: Arc::new(config.solver.prerun()),
        ranks: config.ranks_per_simulation,
        transport,
        timeout: config.group_timeout,
        fault,
    };
    match run_group(ctx, &KillSwitch::new()) {
        GroupOutcome::Completed { messages, bytes } => {
            eprintln!(
                "[group {group_id}.{instance}] completed: {messages} messages, {bytes} bytes"
            );
        }
        other => {
            eprintln!("[group {group_id}.{instance}] failed: {other:?}");
            std::process::exit(1);
        }
    }
}

// --------------------------------------------------------- orchestrator

fn orchestrate() {
    println!("== reference: same-seed in-process sharded study ==");
    let mut ref_config = study_config();
    ref_config.transport = TransportKind::InProcess;
    ref_config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-mn-ref-{}", std::process::id()));
    let reference = Study::new(ref_config).run().expect("reference study");
    println!("{}", reference.report);

    println!("== multi-node: server shards + groups as separate OS processes ==");
    let (clean, relaunched) = run_multinode(None);
    let diff = reference.results.first_bit_mismatch(&clean);
    assert_eq!(diff, None, "multi-node vs in-process");
    assert!(relaunched.is_empty(), "clean run relaunched {relaunched:?}");
    println!("parity: every statistic at every timestep bit-identical to the in-process run\n");

    println!("== multi-node again, group 0's first instance crashes mid-stream ==");
    let crash_after = (study_config().solver.n_timesteps / 2) as u32;
    let (crashed, relaunched) = run_multinode(Some(crash_after));
    let diff = reference.results.first_bit_mismatch(&crashed);
    assert_eq!(diff, None, "crash-and-relaunch multi-node vs in-process");
    assert_eq!(relaunched, [0], "exactly group 0 relaunched, once");
    println!(
        "parity: every statistic at every timestep bit-identical after group 0 crashed \
         after timestep {crash_after} and was relaunched as instance 1"
    );
}

/// Runs the whole study as separate OS processes and returns its results
/// and the group relaunched for each failed instance; `crash_after` arms
/// the scripted crash of group 0's first instance.
fn run_multinode(crash_after: Option<u32>) -> (StudyResults, Vec<u64>) {
    let config = study_config();
    let node_map = NodeMap::new(N_SHARDS); // one node per shard
    let (directory, dir_addr) = bootstrap_directory().expect("directory bootstrap");

    // The orchestrator is itself a node: it hosts the per-shard launcher
    // inboxes and the end-of-study state-collection endpoints.
    let transport: Arc<dyn Transport> =
        Arc::new(TcpTransport::with_config(TcpTransportConfig::node(&dir_addr)).expect("node"));
    let launcher_rxs: Vec<_> = (0..N_SHARDS)
        .map(|k| transport.bind(&names::launcher_in(&names::shard_scope(k)), 1024))
        .collect();
    let collect_rxs: Vec<_> = (0..N_SHARDS)
        .map(|k| transport.bind(&names::collect_in(k), 64))
        .collect();

    let exe = std::env::current_exe().expect("current exe");
    let mut servers: Vec<std::process::Child> = (0..N_SHARDS)
        .map(|k| {
            let mut cmd = Command::new(&exe);
            cmd.env(ROLE_ENV, "server")
                .env(SHARD_ENV, k.to_string())
                .env(DIRECTORY_ENV, &dir_addr);
            println!(
                "launcher: shard {k} -> node {} (own OS process, own listener)",
                node_map.node_of_shard(k)
            );
            cmd.spawn().expect("spawn server process")
        })
        .collect();

    for (k, rx) in launcher_rxs.iter().enumerate() {
        wait_ready(rx.as_ref(), Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("shard {k}: {e}"));
    }

    // Groups: independent OS processes, strictly sequential — the same
    // FCFS schedule as `max_concurrent_groups = 1` in-process, so every
    // shard sees its groups in the same order, bit for bit.  A group
    // whose process fails is relaunched as its next instance at once,
    // before the next group starts, as the launcher would.
    let mut relaunched = Vec::new();
    for g in 0..N_GROUPS as u64 {
        for instance in 0.. {
            let mut cmd = Command::new(&exe);
            cmd.env(ROLE_ENV, "group")
                .env(GROUP_ENV, g.to_string())
                .env(INSTANCE_ENV, instance.to_string())
                .env(DIRECTORY_ENV, &dir_addr);
            if let (Some(ts), 0, 0) = (crash_after, g, instance) {
                cmd.env(CRASH_ENV, ts.to_string());
            }
            let status = cmd.status().expect("spawn group process");
            if status.success() {
                break;
            }
            assert!(
                instance + 1 < MAX_INSTANCES,
                "group {g}: {MAX_INSTANCES} instances failed, the last with {status}"
            );
            println!("launcher: group {g} instance {instance} failed ({status}); relaunching");
            relaunched.push(g);
        }
        // Keep the per-shard control inboxes drained (reports/heartbeats).
        for rx in &launcher_rxs {
            while rx.try_recv().is_ok() {}
        }
        // Live scrape smoke: mid-study, pull every shard's telemetry
        // snapshot through the directory — the same path `melissa_top`
        // uses, here across OS processes and real sockets.
        if g == 0 {
            for k in 0..N_SHARDS {
                let snap = scrape(&transport, k, Duration::from_secs(30))
                    .unwrap_or_else(|e| panic!("scrape shard {k}: {e}"));
                assert_eq!(snap.shard, k as u32, "scrape routed to the wrong shard");
                println!(
                    "scrape[shard {k}]: {} finished, {} running, {} links, {} events",
                    snap.groups_finished,
                    snap.groups_running,
                    snap.links.len(),
                    snap.events.len()
                );
            }
        }
    }

    // Stop every shard and collect its packed worker states.
    let mut shard_states: Vec<Vec<WorkerState>> = Vec::new();
    for (k, collect_rx) in collect_rxs.iter().enumerate() {
        let ctl = transport
            .connect_retry(
                &names::scoped(&names::shard_scope(k), "ctl"),
                CONNECT_TIMEOUT,
            )
            .expect("ctl endpoint");
        ctl.send(Bytes::from_static(b"stop")).expect("stop signal");
        let mut states: Vec<Option<WorkerState>> =
            (0..config.server_workers).map(|_| None).collect();
        for _ in 0..config.server_workers {
            let frame = collect_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("shipped worker state");
            let w = u32::from_le_bytes(frame[..4].try_into().expect("worker id")) as usize;
            let state = unpack_state(&frame[4..], w).expect("unpack shipped state");
            assert!(
                states[w].replace(state).is_none(),
                "worker {w} shipped twice"
            );
        }
        shard_states.push(states.into_iter().map(Option::unwrap).collect());
    }
    for (k, child) in servers.iter_mut().enumerate() {
        let status = child.wait().expect("server process exit");
        assert!(
            status.success(),
            "shard {k} server process failed: {status}"
        );
    }
    drop(directory);

    // The shipped bytes were the wire crossing; the unpacked states are
    // owned here and fold in place.
    let reduced = reduce_owned_states(shard_states);
    let results = StudyResults::from_worker_states(
        InjectionParams::parameter_space().dim(),
        config.solver.n_timesteps,
        config.solver.mesh().n_cells(),
        reduced,
    );
    (results, relaunched)
}

/// Waits for a `ServerReady` on one shard's launcher inbox.
fn wait_ready(rx: &dyn Receiver, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("server process never became ready".into());
        }
        match rx.recv_timeout(left) {
            Ok(frame) => {
                if let Ok(Message::ServerReady) = Message::decode(&frame) {
                    return Ok(());
                }
            }
            Err(_) => return Err("server process never became ready".into()),
        }
    }
}
