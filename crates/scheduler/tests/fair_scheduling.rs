//! Fairness guarantees of the DRR [`FairRunner`], tested end to end:
//!
//! * **Starvation bound** (deterministic): a heavy tenant with a deep
//!   backlog cannot delay a light tenant's job beyond the DRR quantum —
//!   at most `quantum` heavy cost units dispatch between the light
//!   submission and its start.
//! * **Per-tenant FIFO** (property): under *any* interleaving of
//!   submissions across tenants and priorities, jobs of one tenant and
//!   priority class start in submission order.

use std::sync::Arc;
use std::time::Duration;

use melissa_scheduler::fair::FairRunner;
use melissa_scheduler::runtime::JobHandle;
use melissa_transport::sync::Mutex;
use melissa_transport::KillSwitch;
use proptest::prelude::*;

/// Occupies the pool's single unit until released, building a
/// deterministic backlog behind it.
fn gate(runner: &FairRunner, tenant: &str) -> (KillSwitch, JobHandle) {
    let release = KillSwitch::new();
    let wait = release.clone();
    let h = runner.submit(tenant, 0, 1, move |_| {
        while !wait.is_killed() {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    while runner.free_units() != 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    (release, h)
}

/// The two-tenant starvation bound: with quantum 1 and unit jobs, at
/// most **one** heavy job may start between a light tenant's submission
/// and its dispatch, no matter how deep the heavy backlog is.
#[test]
fn heavy_tenant_cannot_starve_light_tenant_beyond_drr_bound() {
    const QUANTUM: u64 = 1;
    const HEAVY_BACKLOG: usize = 16;
    let runner = FairRunner::with_quantum(1, QUANTUM);
    let (release, blocker) = gate(&runner, "heavy");

    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for i in 0..HEAVY_BACKLOG {
        let order = Arc::clone(&order);
        handles.push(runner.submit("heavy", 0, 1, move |_| {
            order.lock().push(format!("h{i}"));
        }));
    }
    // The light tenant shows up *after* the heavy backlog is queued.
    {
        let order = Arc::clone(&order);
        handles.push(runner.submit("light", 0, 1, move |_| {
            order.lock().push("light".into());
        }));
    }
    release.kill();
    blocker.join();
    for h in handles {
        h.join();
    }

    let order = order.lock().clone();
    assert_eq!(order.len(), HEAVY_BACKLOG + 1);
    let light_pos = order
        .iter()
        .position(|j| j == "light")
        .expect("light job ran");
    assert!(
        light_pos as u64 <= QUANTUM,
        "light tenant waited behind {light_pos} heavy jobs (DRR bound: {QUANTUM}): {order:?}"
    );
}

/// The bound scales with the quantum: quantum 3 admits at most three
/// heavy unit jobs ahead of the light one.
#[test]
fn starvation_bound_scales_with_quantum() {
    const QUANTUM: u64 = 3;
    let runner = FairRunner::with_quantum(1, QUANTUM);
    let (release, blocker) = gate(&runner, "heavy");
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..12 {
        let order = Arc::clone(&order);
        handles.push(runner.submit("heavy", 0, 1, move |_| order.lock().push("h")));
    }
    {
        let order = Arc::clone(&order);
        handles.push(runner.submit("light", 0, 1, move |_| order.lock().push("l")));
    }
    release.kill();
    blocker.join();
    for h in handles {
        h.join();
    }
    let order = order.lock().clone();
    let light_pos = order.iter().position(|j| *j == "l").unwrap();
    assert!(
        light_pos as u64 <= QUANTUM,
        "light job at {light_pos} > quantum {QUANTUM}: {order:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of submissions across tenants preserves each
    /// tenant's FIFO order (equal priority), and priority classes within
    /// a tenant each stay FIFO too.
    #[test]
    fn any_interleaving_preserves_per_tenant_fifo(
        // (tenant, priority) per submission, in submission order.
        subs in prop::collection::vec((0u8..3, 0u8..2), 1..24usize),
    ) {
        let runner = FairRunner::new(1);
        let (release, blocker) = gate(&runner, "gate");
        let order: Arc<Mutex<Vec<(u8, u8, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<JobHandle> = subs
            .iter()
            .enumerate()
            .map(|(i, &(tenant, prio))| {
                let order = Arc::clone(&order);
                runner.submit(&format!("t{tenant}"), prio, 1, move |_| {
                    order.lock().push((tenant, prio, i));
                })
            })
            .collect();
        release.kill();
        blocker.join();
        for h in handles {
            h.join();
        }
        let ran = order.lock().clone();
        prop_assert_eq!(ran.len(), subs.len(), "every job ran exactly once");
        for tenant in 0u8..3 {
            for prio in 0u8..2 {
                let class: Vec<usize> = ran
                    .iter()
                    .filter(|(t, p, _)| *t == tenant && *p == prio)
                    .map(|(_, _, i)| *i)
                    .collect();
                let mut sorted = class.clone();
                sorted.sort_unstable();
                prop_assert_eq!(
                    &class, &sorted,
                    "tenant {} priority {} ran out of submission order", tenant, prio
                );
            }
        }
    }
}
