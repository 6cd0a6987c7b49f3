//! The typed study-event journal: every failure/restart/rebalance event a
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
    /// A scripted permanent shard death fired.
    ShardDeathInjected {
        /// Finished groups when the death fired.
        finished: u64,
        /// The slot adopting this shard's groups.
        rehome_to: u32,
    },
    /// An epoch fence migrated groups away from this shard.
    MigrationFence {
        /// The new routing epoch.
        epoch: u64,
        /// Groups handed off.
        n_groups: u64,
        /// The source shard.
        from: u32,
        /// The target slot.
        to: u32,
    },
    /// A handoff arrived: this shard adopted migrated groups.
    GroupsAdopted {
        /// The fencing epoch.
        epoch: u64,
        /// Groups adopted.
        n_groups: u64,
        /// The source slot.
        from: u32,
    },
    /// A group finished while its migration fence was draining; it stays.
    FinishedDuringFence {
        /// The group that finished.
        group: u64,
        /// The shard it stays on.
        shard: u32,
    },
    /// A dead shard's unfinished groups were re-homed to a peer.
    ShardRehomed {
        /// The fencing epoch.
        epoch: u64,
        /// Groups re-homed.
        n_groups: u64,
        /// The dead shard.
        from: u32,
        /// The adopting slot.
        to: u32,
    },
    /// A worker checkpoint could not be read during permanent-death
    /// re-homing; that worker hands off cold.
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
            EventKind::ShardDeathInjected {
                finished,
                rehome_to,
            } => format!(
                "FAULT INJECTION: permanent shard death after {finished} finished groups; \
                 re-homing to slot {rehome_to}"
            ),
            EventKind::MigrationFence {
                epoch,
                n_groups,
                from,
                to,
            } => {
                format!("epoch {epoch}: migrating {n_groups} groups from shard {from} to slot {to}")
            }
            EventKind::GroupsAdopted {
                epoch,
                n_groups,
                from,
            } => format!("epoch {epoch}: adopting {n_groups} groups from slot {from}"),
            EventKind::FinishedDuringFence { group, shard } => {
                format!("group {group} finished during the fence; staying on shard {shard}")
            }
            EventKind::ShardRehomed {
                epoch,
                n_groups,
                from,
                to,
            } => format!(
                "epoch {epoch}: re-homing {n_groups} groups from dead shard {from} to slot {to}"
            ),
            EventKind::CheckpointUnreadable { worker, detail } => format!(
                "worker {worker} checkpoint unreadable on permanent death ({detail}); cold hand-off"
            ),
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

melissa_transport::wire_enum!(EventKind {
    1 => GroupTimeout { group },
    2 => GroupRestarted { group, instance },
    3 => GroupDied { group, instance, detail },
    4 => GroupZombie { group, instance },
    5 => GroupAbandoned { group, retries },
    6 => GroupResubmitted { group, instance },
    7 => ServerRestarted,
    8 => ServerKillInjected { finished },
    9 => ShardDeathInjected { finished, rehome_to },
    10 => MigrationFence { epoch, n_groups, from, to },
    11 => GroupsAdopted { epoch, n_groups, from },
    12 => FinishedDuringFence { group, shard },
    13 => ShardRehomed { epoch, n_groups, from, to },
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
    /// The shard slot that logged the event.
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
            EventKind::ShardDeathInjected {
                finished: 2,
                rehome_to: 1,
            },
            EventKind::MigrationFence {
                epoch: 1,
                n_groups: 3,
                from: 0,
                to: 2,
            },
            EventKind::GroupsAdopted {
                epoch: 1,
                n_groups: 3,
                from: 0,
            },
            EventKind::FinishedDuringFence { group: 6, shard: 1 },
            EventKind::ShardRehomed {
                epoch: 2,
                n_groups: 4,
                from: 1,
                to: 0,
            },
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
        let death = EventKind::ShardDeathInjected {
            finished: 2,
            rehome_to: 1,
        };
        assert!(death.render().contains("permanent shard death"));
        let adopt = EventKind::GroupsAdopted {
            epoch: 1,
            n_groups: 3,
            from: 0,
        };
        assert!(adopt.render().contains("adopting"));
        assert!(adopt.render().contains("groups from slot"));
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
