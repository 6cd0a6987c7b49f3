//! The daemon snapshot's JSON and Prometheus text, byte for byte.
//!
//! The golden files were rendered by the hand-written renderers the
//! exposition writer replaced; they must never be regenerated from the
//! code under test.  The sample has two tenants, three studies and every
//! admission field set.

use melissa_daemon::{
    AdmissionStats, CtlWakeups, DaemonSnapshot, StudySnapshot, StudyState, TenantSnapshot,
};

fn tenant(tenant: &str, k: u64) -> TenantSnapshot {
    TenantSnapshot {
        tenant: tenant.into(),
        weight: k,
        queued_jobs: 4 * k,
        running_jobs: 3 * k as usize,
        running_units: 2 * k as usize,
        dispatched_jobs: 17 * k,
        studies: k as usize + 1,
        groups_reserved: 16 * k as usize,
        units_reserved: 5 * k as usize,
    }
}

fn study(id: u64, tenant: &str, priority: u8, state: StudyState) -> StudySnapshot {
    StudySnapshot {
        id,
        tenant: tenant.into(),
        priority,
        state,
        n_groups: 8 * id,
    }
}

fn sample() -> DaemonSnapshot {
    DaemonSnapshot {
        uptime_nanos: 5_999_999_999,
        pool_units: 8,
        free_units: 3,
        active_studies: 2,
        max_active_studies: 4,
        queue_depth: 1,
        queue_cap: 16,
        admission: AdmissionStats {
            admitted: 3,
            rejected_queue: 6,
            rejected_studies: 2,
            rejected_groups: 7,
            rejected_units: 1,
        },
        ctl_wakeups: CtlWakeups {
            request: 9,
            study_ended: 2,
            scrape: 1,
        },
        tenants: vec![tenant("acme", 2), tenant("beta-lab_1", 1)],
        studies: vec![
            study(1, "acme", 0, StudyState::Running),
            study(2, "beta-lab_1", 3, StudyState::Queued),
            study(3, "acme", 255, StudyState::Done),
        ],
    }
}

#[test]
fn json_is_byte_identical() {
    assert_eq!(
        sample().to_json(),
        include_str!("golden/daemon.json").trim_end()
    );
}

#[test]
fn prometheus_is_byte_identical() {
    assert_eq!(sample().to_prometheus(), include_str!("golden/daemon.prom"));
}
