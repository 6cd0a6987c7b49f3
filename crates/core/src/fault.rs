//! Deterministic fault-injection plans for fault-tolerance experiments
//! (paper Section 5.4).
//!
//! A [`FaultPlan`] scripts the failures of one study run: which group
//! instances crash at which timestep, which stall (stragglers), and when
//! the server dies.  Faults target a specific *instance* so that the
//! restarted instance of the same group runs clean — matching the paper's
//! experiments where a killed group is resubmitted and completes.
//!
//! Server kills are scripted per shard: each one crashes one
//! shard's server once that shard has integrated a number of its own
//! groups, and the shard restarts in place from its last checkpoint —
//! the paper's Section 5.4 recovery.

use std::collections::HashMap;
use std::time::Duration;

use crate::config::StudyConfig;
use crate::shard::GroupRouter;

/// A scripted group fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupFault {
    /// The group process dies silently after sending timestep `at_timestep`
    /// (the *unfinished group* case: the server has partial data).
    CrashAfter {
        /// Last timestep sent before dying.
        at_timestep: u32,
    },
    /// The group dies before sending anything (the *zombie group* case:
    /// the scheduler sees it running but the server never hears from it).
    Zombie,
    /// The group stalls for `pause` before each timestep from
    /// `from_timestep` on (straggler).
    Stall {
        /// First slowed timestep.
        from_timestep: u32,
        /// Injected delay per timestep.
        pause: Duration,
    },
}

/// A scripted kill of one shard's server instance: it crashes and
/// restarts in place from its latest checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardKill {
    /// The shard whose server dies.
    shard: usize,
    /// Fires once the shard has fully integrated this many of its own
    /// groups (deterministic progress point).
    after_finished_groups: usize,
}

/// The complete fault script of a study run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Faults per (group id, instance).
    group_faults: HashMap<(u64, u32), GroupFault>,
    /// Scripted server kills, in the order they were added.
    shard_kills: Vec<ShardKill>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Scripts a fault for instance `instance` of `group_id`.
    pub fn with_group_fault(mut self, group_id: u64, instance: u32, fault: GroupFault) -> Self {
        self.group_faults.insert((group_id, instance), fault);
        self
    }

    /// Scripts a server kill after `n` groups have been fully integrated
    /// (on shard 0, the only server of an unsharded study).
    pub fn with_server_kill_after(self, n: usize) -> Self {
        self.with_server_kill_after_on_shard(n, 0)
    }

    /// Scripts a kill of shard `shard`'s server instance once that shard
    /// has fully integrated `n` of *its own* groups.
    pub fn with_server_kill_after_on_shard(mut self, n: usize, shard: usize) -> Self {
        self.shard_kills.push(ShardKill {
            shard,
            after_finished_groups: n,
        });
        self
    }

    /// The trigger points of every scripted kill of shard `shard`, in
    /// increasing order.
    pub(crate) fn kills_for_shard(&self, shard: usize) -> Vec<usize> {
        let kills = self.shard_kills.iter().filter(|k| k.shard == shard);
        let mut after: Vec<usize> = kills.map(|k| k.after_finished_groups).collect();
        after.sort_unstable();
        after
    }

    /// Refuses a kill that can never fire, which would leave its shard
    /// waiting for it until the wall limit: a kill of a shard the study
    /// does not run (its supervisor would never exist), or one whose
    /// trigger exceeds the number of groups the router gives that shard.
    pub fn validate(&self, config: &StudyConfig) -> Result<(), String> {
        let n_shards = config.n_shards;
        let router = GroupRouter::from_config(config);
        for k in &self.shard_kills {
            if k.shard >= n_shards {
                return Err(format!(
                    "server kill targets shard {} out of range (n_shards = {n_shards})",
                    k.shard
                ));
            }
            let groups = router.groups_for_shard(k.shard, config.n_groups).len();
            if k.after_finished_groups > groups {
                return Err(format!(
                    "server kill of shard {} after {} finished groups can never fire: \
                     the shard runs {groups} groups",
                    k.shard, k.after_finished_groups
                ));
            }
        }
        Ok(())
    }

    /// The fault scripted for a given group instance, if any.
    pub fn group_fault(&self, group_id: u64, instance: u32) -> Option<GroupFault> {
        self.group_faults.get(&(group_id, instance)).copied()
    }

    /// Whether the plan contains any fault.
    pub fn is_empty(&self) -> bool {
        self.group_faults.is_empty() && self.shard_kills.is_empty()
    }

    /// Number of scripted group faults.
    pub fn n_group_faults(&self) -> usize {
        self.group_faults.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_instance_scoped() {
        let plan = FaultPlan::none()
            .with_group_fault(3, 0, GroupFault::CrashAfter { at_timestep: 5 })
            .with_group_fault(4, 0, GroupFault::Zombie);
        assert_eq!(
            plan.group_fault(3, 0),
            Some(GroupFault::CrashAfter { at_timestep: 5 })
        );
        // The restarted instance runs clean.
        assert_eq!(plan.group_fault(3, 1), None);
        assert_eq!(plan.group_fault(4, 0), Some(GroupFault::Zombie));
        assert_eq!(plan.n_group_faults(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().with_server_kill_after(2).is_empty());
    }

    fn sized(n_shards: usize, n_groups: usize) -> StudyConfig {
        let mut config = StudyConfig::tiny();
        (config.n_shards, config.n_groups) = (n_shards, n_groups);
        config
    }

    #[test]
    fn validate_rejects_inconsistent_scripts() {
        // A kill of a shard the study does not run would never fire.
        let plan = FaultPlan::none().with_server_kill_after_on_shard(1, 5);
        let err = plan.validate(&sized(2, 8)).expect_err("shard 5 of 2");
        assert!(err.contains("shard 5 out of range"), "{err}");
        assert!(plan.validate(&sized(6, 64)).is_ok());
        // Kills remain legal in unsharded studies.
        assert!(FaultPlan::none()
            .with_server_kill_after(1)
            .validate(&sized(1, 3))
            .is_ok());
    }

    #[test]
    fn validate_rejects_a_kill_past_the_shards_groups() {
        // Neither shard finishes more groups than the router gives it.
        let config = sized(2, 5);
        let router = GroupRouter::from_config(&config);
        for shard in 0..2 {
            let groups = router.groups_for_shard(shard, 5).len();
            let fits = FaultPlan::none().with_server_kill_after_on_shard(groups, shard);
            assert!(fits.validate(&config).is_ok(), "shard {shard}");
            let late = FaultPlan::none().with_server_kill_after_on_shard(groups + 1, shard);
            let err = late.validate(&config).expect_err("can never fire");
            let want = format!(
                "server kill of shard {shard} after {} finished groups can never fire: \
                 the shard runs {groups} groups",
                groups + 1
            );
            assert_eq!(err, want);
        }
        // The unsharded form: a 3-group study finishes at most 3.
        let late = FaultPlan::none().with_server_kill_after(4);
        assert!(late.validate(&sized(1, 3)).is_err());
    }

    #[test]
    fn shard_kills_merge_legacy_slot_and_sort_by_trigger() {
        // The unsharded form scripts shard 0; it shares one list with the
        // per-shard form, and each shard's kills come out sorted by
        // trigger point whatever the order they were added in.
        let plan = FaultPlan::none()
            .with_server_kill_after_on_shard(4, 1)
            .with_server_kill_after(3)
            .with_server_kill_after_on_shard(2, 1)
            .with_server_kill_after_on_shard(1, 0);
        assert_eq!(plan.kills_for_shard(1), [2, 4]);
        assert_eq!(plan.kills_for_shard(0), [1, 3]);
        assert!(plan.kills_for_shard(2).is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn server_kill_targets_one_shard() {
        let plan = FaultPlan::none().with_server_kill_after_on_shard(3, 2);
        assert_eq!(plan.kills_for_shard(2), [3]);
        assert!(plan.kills_for_shard(0).is_empty());
        // The unsharded default targets shard 0 (the only server).
        let plan = FaultPlan::none().with_server_kill_after(1);
        assert_eq!(plan.kills_for_shard(0), [1]);
        assert!(plan.kills_for_shard(1).is_empty());
    }
}
