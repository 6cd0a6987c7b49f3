//! The product names its long-lived threads, so that the CPU each role
//! uses can be read from `/proc/<pid>/task/*/stat`, whose `comm` field is
//! the name: while a TCP study runs, its link writers are `tcp-tx`, its
//! acceptor connections `tcp-rx` and its server main loop `srv-main`.
//! Linux only: elsewhere there is no `/proc` to read.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use melissa::{Study, StudyConfig};
use melissa_transport::TransportKind;

/// The names of this process's threads at this moment.
fn thread_names() -> BTreeSet<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists the threads");
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

#[test]
fn a_tcp_study_names_its_link_and_server_threads() {
    let mut config = StudyConfig::tiny();
    config.transport = TransportKind::Tcp;
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-names-{}", std::process::id()));
    // Every name seen from before the study starts until after it ends.
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut seen = BTreeSet::new();
            while !done.load(Ordering::SeqCst) {
                seen.extend(thread_names());
            }
            seen
        })
    };
    let output = Study::new(config).run();
    done.store(true, Ordering::SeqCst);
    let seen = watcher.join().expect("the watcher does not panic");
    output.expect("the study runs");
    for role in ["tcp-tx", "tcp-rx", "srv-main"] {
        assert!(seen.contains(role), "no thread named {role} among {seen:?}");
    }
}
