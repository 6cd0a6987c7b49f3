//! Generated study configurations through `Study::run`: every one either
//! runs or is refused by `StudyConfig::validate`, and nothing panics on
//! any thread of the study.
//!
//! Sizes stay small (meshes of at most 40 × 20 × 3 cells, at most four
//! server workers, ranks and groups), so no case starts more than a few
//! dozen threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

use melissa::{Study, StudyConfig};
use proptest::prelude::*;

static PANICS: AtomicUsize = AtomicUsize::new(0);
static LAST_PANIC: Mutex<String> = Mutex::new(String::new());

/// Counts every panic of the process, whichever thread raised it and
/// whoever caught it.
fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            *LAST_PANIC.lock().unwrap_or_else(|e| e.into_inner()) = info.to_string();
        }))
    });
}

/// A count in `1..=4`, or 0 (which no study accepts) one time in 16.
fn count(x: usize) -> usize {
    if x.is_multiple_of(16) {
        0
    } else {
        1 + x % 4
    }
}

/// `None`, a drawn value, or a value no signal can reach.
fn target(kind: u8, value: f64) -> Option<f64> {
    match kind {
        0..=2 => None,
        3 | 4 => Some(value),
        _ => Some(f64::NAN),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_configs_run_or_are_refused(
        extents in (0usize..512, 0usize..512, 1usize..4),
        sizes in (0usize..64, 0usize..64, 0usize..64, 0usize..256),
        hwm in 0usize..80,
        probs in prop::collection::vec((0u8..12, 0.0f64..1.0), 0..4),
        thresholds in prop::collection::vec(-2.0f64..2.0, 0..3),
        targets in (0u8..6, -0.05f64..0.5, 0u8..6, -0.05f64..0.5),
        timeouts in (0u64..2500, 0u64..2500),
    ) {
        count_panics();
        let mut config = StudyConfig::tiny();
        // Mostly meshes the tubes leave a fluid path through.
        let (nx, ny, nz) = extents;
        config.solver.nx = if nx.is_multiple_of(8) { 1 + nx % 16 } else { 16 + nx % 25 };
        config.solver.ny = if ny.is_multiple_of(8) { 1 + ny % 8 } else { 8 + ny % 13 };
        config.solver.nz = nz;
        let (ranks, workers, groups, timesteps) = sizes;
        config.ranks_per_simulation = count(ranks);
        config.server_workers = count(workers);
        config.n_groups = count(groups);
        config.solver.n_timesteps = count(timesteps) * (1 + timesteps % 3);
        config.hwm = hwm;
        // Mostly inside (0, 1), sometimes at or past an end.
        config.quantile_probs = (probs.into_iter())
            .map(|(k, p)| if k == 0 { 2.0 * p - 0.5 } else { 0.01 + 0.98 * p })
            .collect();
        config.thresholds = thresholds;
        config.target_ci_width = target(targets.0, targets.1);
        config.target_quantile_step = target(targets.2, targets.3);
        config.group_timeout = Duration::from_millis(timeouts.0);
        config.server_timeout = Duration::from_millis(timeouts.1);
        config.wall_limit = Duration::from_secs(20);
        let dir = std::env::temp_dir().join(format!("melissa-config-fuzz-{}", std::process::id()));
        config.checkpoint_dir = dir.clone();

        let before = PANICS.load(Ordering::SeqCst);
        let shown = format!("{config:?}");
        let run = catch_unwind(AssertUnwindSafe(|| Study::new(config).run()));
        let panics = PANICS.load(Ordering::SeqCst) - before;
        let last = LAST_PANIC.lock().unwrap_or_else(|e| e.into_inner()).clone();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(run.is_ok() && panics == 0, "{panics} panic(s), last: {last}\n{shown}");
    }
}
