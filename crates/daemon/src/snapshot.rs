//! The daemon-level observability snapshot: queue depths, per-tenant
//! usage and admission decisions aggregated across every hosted study.
//!
//! It is asked for on the control endpoint, as a
//! [`DaemonOp::Scrape`](crate::DaemonOp::Scrape) request, and answered
//! with the reply frame of the ordinary telemetry scrape protocol, so it
//! decodes as any shard scrape does.  The snapshot is a daemon-shaped
//! document rather than a shard [`ScrapeSnapshot`], so it is always
//! served as rendered text: JSON for
//! [`ScrapeFormat::Binary`]/[`ScrapeFormat::Json`] requests, a
//! Prometheus exposition for [`ScrapeFormat::Prometheus`] — both decode
//! on the client as [`melissa_telemetry::ScrapeReply::Text`].
//!
//! [`ScrapeSnapshot`]: melissa_telemetry::ScrapeSnapshot

use melissa_telemetry::exposition::{json, prometheus};
use melissa_telemetry::{reply_frame, ScrapeFormat};
use melissa_transport::Frame;

use crate::admission::AdmissionStats;
use crate::protocol::StudyState;

/// One tenant's aggregated usage: fair-scheduler counters plus the
/// admission reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub tenant: String,
    /// Deficit-round-robin weight.
    pub weight: u64,
    /// Group jobs waiting in the fair scheduler.
    pub queued_jobs: u64,
    /// Group jobs currently running on the pool.
    pub running_jobs: usize,
    /// Node units currently held.
    pub running_units: usize,
    /// Group jobs dispatched over the tenant's lifetime.
    pub dispatched_jobs: u64,
    /// Studies in flight (queued + running).
    pub studies: usize,
    /// Groups reserved by in-flight studies.
    pub groups_reserved: usize,
    /// Node units reserved by in-flight studies.
    pub units_reserved: usize,
}

/// One hosted study's lifecycle row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudySnapshot {
    /// Daemon-assigned study id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Intra-tenant priority.
    pub priority: u8,
    /// Current lifecycle state.
    pub state: StudyState,
    /// Groups in the design.
    pub n_groups: u64,
}

/// How often the control loop woke up, by what woke it.  The loop blocks
/// on its inbox, so this is also the number of frames it has handled —
/// an idle daemon's counters stand still.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtlWakeups {
    /// Client requests (`submit`, `status`, `wait`, `cancel`, `results`,
    /// `shutdown`).
    pub request: u64,
    /// Hosted studies that announced their end.
    pub study_ended: u64,
    /// Scrapes of the daemon aggregate (`Scrape` requests).
    pub scrape: u64,
}

/// A point-in-time view of the whole daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonSnapshot {
    /// Nanoseconds since the daemon started.
    pub uptime_nanos: u64,
    /// Node units in the shared pool.
    pub pool_units: usize,
    /// Units currently free.
    pub free_units: usize,
    /// Studies holding an active slot right now.
    pub active_studies: usize,
    /// Active-study slots.
    pub max_active_studies: usize,
    /// Admitted studies waiting for a slot.
    pub queue_depth: usize,
    /// Wait-queue bound.
    pub queue_cap: usize,
    /// Admission decision counters.
    pub admission: AdmissionStats,
    /// Control-loop wake-ups by reason (`daemon_ctl_wakeups_total`).
    pub ctl_wakeups: CtlWakeups,
    /// Per-tenant rollups.
    pub tenants: Vec<TenantSnapshot>,
    /// Per-study lifecycle rows.
    pub studies: Vec<StudySnapshot>,
}

/// How one per-tenant Prometheus family reads its value.
type TenantField = fn(&TenantSnapshot) -> u64;

impl DaemonSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let (a, w) = (&self.admission, &self.ctl_wakeups);
        let tenant = |t: &TenantSnapshot| {
            json::object([
                ("tenant", json::string(&t.tenant)),
                ("weight", t.weight.to_string()),
                ("queued_jobs", t.queued_jobs.to_string()),
                ("running_jobs", t.running_jobs.to_string()),
                ("running_units", t.running_units.to_string()),
                ("dispatched_jobs", t.dispatched_jobs.to_string()),
                ("studies", t.studies.to_string()),
                ("groups_reserved", t.groups_reserved.to_string()),
                ("units_reserved", t.units_reserved.to_string()),
            ])
        };
        let study = |s: &StudySnapshot| {
            json::object([
                ("id", s.id.to_string()),
                ("tenant", json::string(&s.tenant)),
                ("priority", s.priority.to_string()),
                ("state", json::string(&s.state.to_string())),
                ("n_groups", s.n_groups.to_string()),
            ])
        };
        json::object([
            ("uptime_nanos", self.uptime_nanos.to_string()),
            ("pool_units", self.pool_units.to_string()),
            ("free_units", self.free_units.to_string()),
            ("active_studies", self.active_studies.to_string()),
            ("max_active_studies", self.max_active_studies.to_string()),
            ("queue_depth", self.queue_depth.to_string()),
            ("queue_cap", self.queue_cap.to_string()),
            (
                "admission",
                json::object([
                    ("admitted", a.admitted.to_string()),
                    ("rejected_queue", a.rejected_queue.to_string()),
                    ("rejected_studies", a.rejected_studies.to_string()),
                    ("rejected_groups", a.rejected_groups.to_string()),
                    ("rejected_units", a.rejected_units.to_string()),
                ]),
            ),
            (
                "daemon_ctl_wakeups_total",
                json::object([
                    ("request", w.request.to_string()),
                    ("study_ended", w.study_ended.to_string()),
                    ("scrape", w.scrape.to_string()),
                ]),
            ),
            ("tenants", json::array(self.tenants.iter().map(tenant))),
            ("studies", json::array(self.studies.iter().map(study))),
        ])
    }

    /// Renders the snapshot as a Prometheus-style text exposition
    /// (`melissad_`-prefixed families, `tenant` labels).
    pub fn to_prometheus(&self) -> String {
        let mut p = prometheus::Writer::new("melissad_", Vec::new());
        let uptime = self.uptime_nanos / 1_000_000_000;
        p.single("uptime_seconds", "gauge", uptime);
        p.single("pool_units", "gauge", self.pool_units);
        p.single("free_units", "gauge", self.free_units);
        p.single("active_studies", "gauge", self.active_studies);
        p.single("queue_depth", "gauge", self.queue_depth);
        let a = &self.admission;
        let family = "admissions_total";
        p.family(family, "counter");
        p.series(family, &[("decision", "admitted")], a.admitted);
        for (r, v) in [
            ("queue", a.rejected_queue),
            ("studies", a.rejected_studies),
            ("groups", a.rejected_groups),
            ("units", a.rejected_units),
        ] {
            p.series(family, &[("decision", "rejected"), ("resource", r)], v);
        }
        let family = "daemon_ctl_wakeups_total";
        p.family(family, "counter");
        for (reason, v) in [
            ("request", self.ctl_wakeups.request),
            ("study_ended", self.ctl_wakeups.study_ended),
            ("scrape", self.ctl_wakeups.scrape),
        ] {
            p.series(family, &[("reason", reason)], v);
        }
        let tenant_families: [(&str, &str, TenantField); 5] = [
            ("tenant_queued_jobs", "gauge", |t| t.queued_jobs),
            ("tenant_running_jobs", "gauge", |t| t.running_jobs as u64),
            ("tenant_running_units", "gauge", |t| t.running_units as u64),
            ("tenant_studies", "gauge", |t| t.studies as u64),
            ("tenant_dispatched_jobs_total", "counter", |t| {
                t.dispatched_jobs
            }),
        ];
        for (family, kind, value) in tenant_families {
            p.family(family, kind);
            for t in &self.tenants {
                p.series(family, &[("tenant", t.tenant.as_str())], value(t));
            }
        }
        p.family("study_state", "gauge");
        for s in &self.studies {
            let (id, state) = (s.id.to_string(), s.state.to_string());
            let labels = [("study", &*id), ("tenant", &*s.tenant), ("state", &*state)];
            p.series("study_state", &labels, 1);
        }
        p.finish()
    }

    /// Renders the reply frame for a scrape request.  Binary requests are
    /// served JSON (the daemon aggregate has no fixed binary form), so
    /// every reply decodes as [`melissa_telemetry::ScrapeReply::Text`].
    pub fn encode_reply(&self, format: ScrapeFormat) -> Frame {
        match format {
            ScrapeFormat::Binary | ScrapeFormat::Json => {
                reply_frame(ScrapeFormat::Json, self.to_json().as_bytes())
            }
            ScrapeFormat::Prometheus => reply_frame(format, self.to_prometheus().as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_telemetry::ScrapeReply;

    fn sample() -> DaemonSnapshot {
        DaemonSnapshot {
            uptime_nanos: 5_000_000_000,
            pool_units: 8,
            free_units: 3,
            active_studies: 2,
            max_active_studies: 4,
            queue_depth: 1,
            queue_cap: 16,
            admission: AdmissionStats {
                admitted: 3,
                rejected_queue: 0,
                rejected_studies: 2,
                rejected_groups: 0,
                rejected_units: 1,
            },
            ctl_wakeups: CtlWakeups {
                request: 9,
                study_ended: 2,
                scrape: 1,
            },
            tenants: vec![TenantSnapshot {
                tenant: "acme".into(),
                weight: 2,
                queued_jobs: 4,
                running_jobs: 3,
                running_units: 3,
                dispatched_jobs: 17,
                studies: 2,
                groups_reserved: 16,
                units_reserved: 2,
            }],
            studies: vec![StudySnapshot {
                id: 1,
                tenant: "acme".into(),
                priority: 0,
                state: StudyState::Running,
                n_groups: 8,
            }],
        }
    }

    #[test]
    fn json_carries_queues_usage_and_admissions() {
        let json = sample().to_json();
        assert!(json.contains("\"queue_depth\":1"));
        assert!(json.contains("\"rejected_studies\":2"));
        assert!(json.contains(
            "\"daemon_ctl_wakeups_total\":{\"request\":9,\"study_ended\":2,\"scrape\":1}"
        ));
        assert!(json.contains("\"tenant\":\"acme\""));
        assert!(json.contains("\"dispatched_jobs\":17"));
        assert!(json.contains("\"state\":\"running\""));
    }

    #[test]
    fn prometheus_labels_tenants_and_decisions() {
        let text = sample().to_prometheus();
        assert!(text.contains("melissad_queue_depth 1"));
        assert!(
            text.contains("melissad_admissions_total{decision=\"rejected\",resource=\"units\"} 1")
        );
        assert!(text.contains("melissad_daemon_ctl_wakeups_total{reason=\"study_ended\"} 2"));
        assert!(text.contains("melissad_tenant_running_jobs{tenant=\"acme\"} 3"));
        assert!(
            text.contains("melissad_study_state{study=\"1\",tenant=\"acme\",state=\"running\"} 1")
        );
    }

    #[test]
    fn every_reply_format_decodes_as_scrape_text() {
        let snap = sample();
        for format in [
            ScrapeFormat::Binary,
            ScrapeFormat::Json,
            ScrapeFormat::Prometheus,
        ] {
            let frame = snap.encode_reply(format);
            match ScrapeReply::decode(&frame).expect("decode") {
                ScrapeReply::Text(t) => assert!(!t.is_empty()),
                ScrapeReply::Snapshot(_) => panic!("daemon snapshot must render as text"),
            }
        }
    }
}
