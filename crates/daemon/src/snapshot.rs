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

use bytes::{BufMut, BytesMut};
use melissa_telemetry::scrape::json_escape;
use melissa_telemetry::ScrapeFormat;
use melissa_transport::codec::Wire;
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

impl DaemonSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"uptime_nanos\":{},\"pool_units\":{},\"free_units\":{},\
             \"active_studies\":{},\"max_active_studies\":{},\
             \"queue_depth\":{},\"queue_cap\":{},",
            self.uptime_nanos,
            self.pool_units,
            self.free_units,
            self.active_studies,
            self.max_active_studies,
            self.queue_depth,
            self.queue_cap,
        ));
        out.push_str(&format!(
            "\"admission\":{{\"admitted\":{},\"rejected_queue\":{},\
             \"rejected_studies\":{},\"rejected_groups\":{},\"rejected_units\":{}}},",
            self.admission.admitted,
            self.admission.rejected_queue,
            self.admission.rejected_studies,
            self.admission.rejected_groups,
            self.admission.rejected_units,
        ));
        out.push_str(&format!(
            "\"daemon_ctl_wakeups_total\":{{\"request\":{},\"study_ended\":{},\"scrape\":{}}},",
            self.ctl_wakeups.request, self.ctl_wakeups.study_ended, self.ctl_wakeups.scrape,
        ));
        out.push_str("\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"weight\":{},\"queued_jobs\":{},\
                 \"running_jobs\":{},\"running_units\":{},\"dispatched_jobs\":{},\
                 \"studies\":{},\"groups_reserved\":{},\"units_reserved\":{}}}",
                json_escape(&t.tenant),
                t.weight,
                t.queued_jobs,
                t.running_jobs,
                t.running_units,
                t.dispatched_jobs,
                t.studies,
                t.groups_reserved,
                t.units_reserved,
            ));
        }
        out.push_str("],\"studies\":[");
        for (i, s) in self.studies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"tenant\":\"{}\",\"priority\":{},\
                 \"state\":\"{}\",\"n_groups\":{}}}",
                s.id,
                json_escape(&s.tenant),
                s.priority,
                s.state,
                s.n_groups,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot as a Prometheus-style text exposition
    /// (`melissad_`-prefixed families, `tenant` labels).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, name: &str, v: u64| {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        };
        gauge(
            &mut out,
            "melissad_uptime_seconds",
            self.uptime_nanos / 1_000_000_000,
        );
        gauge(&mut out, "melissad_pool_units", self.pool_units as u64);
        gauge(&mut out, "melissad_free_units", self.free_units as u64);
        gauge(
            &mut out,
            "melissad_active_studies",
            self.active_studies as u64,
        );
        gauge(&mut out, "melissad_queue_depth", self.queue_depth as u64);
        out.push_str("# TYPE melissad_admissions_total counter\n");
        out.push_str(&format!(
            "melissad_admissions_total{{decision=\"admitted\"}} {}\n",
            self.admission.admitted
        ));
        for (resource, v) in [
            ("queue", self.admission.rejected_queue),
            ("studies", self.admission.rejected_studies),
            ("groups", self.admission.rejected_groups),
            ("units", self.admission.rejected_units),
        ] {
            out.push_str(&format!(
                "melissad_admissions_total{{decision=\"rejected\",resource=\"{resource}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE melissad_daemon_ctl_wakeups_total counter\n");
        for (reason, v) in [
            ("request", self.ctl_wakeups.request),
            ("study_ended", self.ctl_wakeups.study_ended),
            ("scrape", self.ctl_wakeups.scrape),
        ] {
            out.push_str(&format!(
                "melissad_daemon_ctl_wakeups_total{{reason=\"{reason}\"}} {v}\n"
            ));
        }
        for (family, pick) in [
            ("melissad_tenant_queued_jobs", 0usize),
            ("melissad_tenant_running_jobs", 1),
            ("melissad_tenant_running_units", 2),
            ("melissad_tenant_studies", 3),
        ] {
            out.push_str(&format!("# TYPE {family} gauge\n"));
            for t in &self.tenants {
                let v = match pick {
                    0 => t.queued_jobs,
                    1 => t.running_jobs as u64,
                    2 => t.running_units as u64,
                    _ => t.studies as u64,
                };
                out.push_str(&format!("{family}{{tenant=\"{}\"}} {v}\n", t.tenant));
            }
        }
        out.push_str("# TYPE melissad_tenant_dispatched_jobs_total counter\n");
        for t in &self.tenants {
            out.push_str(&format!(
                "melissad_tenant_dispatched_jobs_total{{tenant=\"{}\"}} {}\n",
                t.tenant, t.dispatched_jobs
            ));
        }
        out.push_str("# TYPE melissad_study_state gauge\n");
        for s in &self.studies {
            out.push_str(&format!(
                "melissad_study_state{{study=\"{}\",tenant=\"{}\",state=\"{}\"}} 1\n",
                s.id, s.tenant, s.state
            ));
        }
        out
    }

    /// Renders the reply frame for a scrape request: one format byte,
    /// then the text body.  Binary requests are served JSON (the daemon
    /// aggregate has no fixed binary form), so every reply decodes as
    /// [`melissa_telemetry::ScrapeReply::Text`].
    pub fn encode_reply(&self, format: ScrapeFormat) -> Frame {
        let (format, body) = match format {
            ScrapeFormat::Binary | ScrapeFormat::Json => (ScrapeFormat::Json, self.to_json()),
            ScrapeFormat::Prometheus => (ScrapeFormat::Prometheus, self.to_prometheus()),
        };
        let mut buf = BytesMut::new();
        format.put(&mut buf);
        buf.put_slice(body.as_bytes());
        buf.freeze()
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
