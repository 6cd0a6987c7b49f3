//! The typed study-event journal: every failure/restart event a
//! supervisor used to log as free text, as a timestamped, shard-scoped,
//! codec-serializable value.
//!
//! Events are stamped against the *study clock* (a shared origin
//! `Instant`), so per-shard journals merge into one chronologically
//! ordered study log with a stable total order: sort by
//! `(at_nanos, shard, seq)`.  [`EventKind::render`] is the human-readable
//! form, used by the study report and the scrape JSON.

/// What happened — one variant per supervisor event class, with the
/// free-text escape hatch [`EventKind::Info`] for anything else.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The server reported a group silent past the timeout.
    GroupTimeout {
        /// The silent group.
        group: u64,
    },
    /// A failed group was killed and resubmitted.
    GroupRestarted {
        /// The restarted group.
        group: u64,
        /// The new instance number.
        instance: u32,
    },
    /// A group job ended without completing.
    GroupDied {
        /// The dead group.
        group: u64,
        /// The instance that died.
        instance: u32,
        /// The job outcome, rendered.
        detail: String,
    },
    /// A job ran past twice the group timeout without the server ever
    /// hearing from it.
    GroupZombie {
        /// The zombie group.
        group: u64,
        /// The zombie instance.
        instance: u32,
    },
    /// A group exhausted its retry budget and was given up.
    GroupAbandoned {
        /// The abandoned group.
        group: u64,
        /// The exhausted retry cap.
        retries: u32,
    },
    /// A group was resubmitted after a server checkpoint-restore.
    GroupResubmitted {
        /// The resubmitted group.
        group: u64,
        /// The new instance number.
        instance: u32,
    },
    /// Heartbeat loss (or a scripted kill) triggered a checkpoint-restore
    /// server failover.
    ServerRestarted,
    /// A scripted transient server kill fired.
    ServerKillInjected {
        /// Finished groups when the kill fired.
        finished: u64,
    },
    /// A worker checkpoint could not be read; that worker starts cold.
    CheckpointUnreadable {
        /// The worker whose checkpoint was unreadable.
        worker: u32,
        /// The read error, rendered.
        detail: String,
    },
    /// The aggregate convergence signal crossed its target.
    EarlyStop {
        /// Aggregate max CI width at the crossing.
        max_ci: f64,
        /// Aggregate max quantile step at the crossing.
        max_qstep: f64,
        /// Remaining groups cancelled.
        cancelled: u64,
    },
    /// Free-text event (anything without a dedicated variant).
    Info {
        /// The message.
        text: String,
    },
}

impl From<String> for EventKind {
    fn from(text: String) -> Self {
        EventKind::Info { text }
    }
}

impl From<&str> for EventKind {
    fn from(text: &str) -> Self {
        EventKind::Info { text: text.into() }
    }
}

impl EventKind {
    /// The human-readable form of the event, as the study report and the
    /// scrape JSON print it.
    pub fn render(&self) -> String {
        match self {
            EventKind::GroupTimeout { group } => {
                format!("server reported group {group} unresponsive (timeout)")
            }
            EventKind::GroupRestarted { group, instance } => {
                format!("restarting group {group} as instance {instance}")
            }
            EventKind::GroupDied {
                group,
                instance,
                detail,
            } => format!("group {group} instance {instance} ended abnormally: {detail}"),
            EventKind::GroupZombie { group, instance } => {
                format!("group {group} instance {instance} is a zombie (running, never reported)")
            }
            EventKind::GroupAbandoned { group, retries } => {
                format!("group {group} abandoned after {retries} retries")
            }
            EventKind::GroupResubmitted { group, instance } => {
                format!("resubmitting group {group} as instance {instance} after server restart")
            }
            EventKind::ServerRestarted => {
                "server failure detected: restarting from checkpoint".to_string()
            }
            EventKind::ServerKillInjected { finished } => {
                format!("FAULT INJECTION: killing server after {finished} finished groups")
            }
            EventKind::CheckpointUnreadable { worker, detail } => {
                format!("worker {worker} checkpoint unreadable ({detail}); cold start")
            }
            EventKind::EarlyStop {
                max_ci,
                max_qstep,
                cancelled,
            } => format!(
                "convergence reached (aggregate max CI width {max_ci:.4}, max quantile step \
                 {max_qstep:.4}): cancelling {cancelled} remaining groups"
            ),
            EventKind::Info { text } => text.clone(),
        }
    }
}

// Tags 9–13 carried the retired shard-death and migration events; they
// decode as unknown tags and are never reused.
melissa_transport::wire_enum!(EventKind {
    1 => GroupTimeout { group },
    2 => GroupRestarted { group, instance },
    3 => GroupDied { group, instance, detail },
    4 => GroupZombie { group, instance },
    5 => GroupAbandoned { group, retries },
    6 => GroupResubmitted { group, instance },
    7 => ServerRestarted,
    8 => ServerKillInjected { finished },
    14 => CheckpointUnreadable { worker, detail },
    15 => EarlyStop { max_ci, max_qstep, cancelled },
    16 => Info { text },
});

/// One journal entry: what happened, where and when.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyEvent {
    /// Per-shard monotonic sequence number (ties on `at_nanos` break by
    /// `(shard, seq)` — the stable cross-shard merge order).
    pub seq: u64,
    /// Nanoseconds since the study clock's origin (shared by every shard
    /// supervisor, so timestamps are comparable across shards).
    pub at_nanos: u64,
    /// The shard that logged the event.
    pub shard: u32,
    /// What happened.
    pub kind: EventKind,
}

impl StudyEvent {
    /// The stable total-order key for cross-shard merges.
    pub fn order_key(&self) -> (u64, u32, u64) {
        (self.at_nanos, self.shard, self.seq)
    }
}

melissa_transport::wire_struct!(StudyEvent {
    seq,
    at_nanos,
    shard,
    kind
});

#[cfg(test)]
mod tests {
    use melissa_transport::codec::Wire;

    use super::*;

    fn every_kind() -> Vec<EventKind> {
        vec![
            EventKind::GroupTimeout { group: 3 },
            EventKind::GroupRestarted {
                group: 7,
                instance: 1,
            },
            EventKind::GroupDied {
                group: 2,
                instance: 4,
                detail: "Died { code: 1 }".into(),
            },
            EventKind::GroupZombie {
                group: 9,
                instance: 0,
            },
            EventKind::GroupAbandoned {
                group: 5,
                retries: 3,
            },
            EventKind::GroupResubmitted {
                group: 1,
                instance: 2,
            },
            EventKind::ServerRestarted,
            EventKind::ServerKillInjected { finished: 4 },
            EventKind::CheckpointUnreadable {
                worker: 2,
                detail: "io: not found".into(),
            },
            EventKind::EarlyStop {
                max_ci: 0.02,
                max_qstep: 0.004,
                cancelled: 5,
            },
            EventKind::Info {
                text: "free text".into(),
            },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        let events: Vec<StudyEvent> = every_kind()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| StudyEvent {
                seq: i as u64,
                at_nanos: 1000 + i as u64,
                shard: (i % 3) as u32,
                kind,
            })
            .collect();
        assert_eq!(
            Vec::<StudyEvent>::from_frame(&events.to_frame()),
            Ok(events)
        );
    }

    #[test]
    fn renders_name_what_happened() {
        let kill = EventKind::ServerKillInjected { finished: 4 };
        assert!(kill.render().contains("FAULT INJECTION"));
        let resubmitted = EventKind::GroupResubmitted {
            group: 1,
            instance: 2,
        };
        assert!(resubmitted.render().contains("after server restart"));
        let zombie = EventKind::GroupZombie {
            group: 9,
            instance: 0,
        };
        assert!(zombie.render().contains("zombie"));
    }

    #[test]
    fn order_key_is_total_and_stable() {
        let mk = |at, shard, seq| StudyEvent {
            seq,
            at_nanos: at,
            shard,
            kind: EventKind::ServerRestarted,
        };
        let mut events = [mk(5, 1, 0), mk(5, 0, 1), mk(3, 2, 0), mk(5, 0, 0)];
        events.sort_by_key(|e| e.order_key());
        let keys: Vec<_> = events.iter().map(|e| e.order_key()).collect();
        assert_eq!(keys, vec![(3, 2, 0), (5, 0, 0), (5, 0, 1), (5, 1, 0)]);
    }
}
