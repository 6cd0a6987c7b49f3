//! What a finished study's statistics cost in memory on their way out of
//! the daemon, counted by a global allocator:
//!
//! * the study's end streams each worker state into its results file,
//!   with no allocation of a whole packed state;
//! * one `DaemonClient::results` call allocates one reply frame of the
//!   results files' size and unpacks the workers from it — no per-file
//!   read buffer, no regrown frame, no per-worker copy on the client.
//!
//! The two checks share one test: the counter sees every thread of the
//! process, so nothing else may run while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use melissa::StudyConfig;
use melissa_daemon::{Daemon, DaemonClient, DaemonConfig, StudyState};
use melissa_transport::directory::names;
use melissa_transport::{make_transport, TransportKind};

/// Allocations of at least this many bytes are whole-state sized: a
/// `StudyConfig::tiny()` worker packs to about 1.3 MB.
const LARGE: usize = 1 << 20;

static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, summing the sizes of the large
/// requests.
struct CountingAlloc;

fn record(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter that owns no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn large_bytes() -> usize {
    LARGE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn results_leave_the_daemon_in_one_copy() {
    let mut config = StudyConfig::tiny();
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-daemon-allocs-{}", std::process::id()));
    let transport = make_transport(TransportKind::InProcess);
    let daemon = Daemon::start(Arc::clone(&transport), DaemonConfig::default());
    let client = DaemonClient::new(Arc::clone(&transport), Duration::from_secs(30));

    // A whole hosted study, its results files written before `Done`.
    let before_study = large_bytes();
    let id = client.submit("acme", 0, config.clone()).expect("admitted");
    let status = client.wait(id, Duration::from_secs(240)).expect("finish");
    assert_eq!(status.state, StudyState::Done);
    let study_large = large_bytes() - before_study;

    let dir = config.checkpoint_dir.join(names::study_scope(id));
    let file_sizes: Vec<usize> = (0..config.server_workers)
        .map(|w| {
            let path = dir.join(format!("melissa_results_{w}.v4"));
            std::fs::metadata(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                .len() as usize
        })
        .collect();
    assert!(
        file_sizes.iter().all(|&len| len >= LARGE),
        "each worker's results must be whole-state sized for this test to mean anything: {file_sizes:?}"
    );
    assert_eq!(
        study_large, 0,
        "a tiny hosted study made allocations >= 1 MiB (results files {file_sizes:?})"
    );

    let files: usize = file_sizes.iter().sum();
    let before_results = large_bytes();
    let results = client.results(id).expect("results");
    let results_large = large_bytes() - before_results;
    assert_eq!(results.n_timesteps(), config.solver.n_timesteps);
    assert!(
        results_large as f64 <= 1.05 * files as f64,
        "one results call allocated {results_large} B in allocations >= 1 MiB \
         for {files} B of results files ({file_sizes:?})"
    );

    daemon.stop();
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
}
