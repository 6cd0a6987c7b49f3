//! Simulation-group jobs: `p + 2` rank-decomposed solver instances run
//! synchronously, forwarding every timestep to Melissa Server.
//!
//! A group is one batch job (paper Section 4.1): its simulations advance
//! in lockstep so that each timestep's `p + 2` result fields reach the
//! server together and can be folded into the Sobol' state and discarded.
//! The group honours its kill switch between timesteps (launcher kills)
//! and executes scripted faults (crash / zombie / stall) for the
//! fault-tolerance experiments.
//!
//! In a sharded study the [`GroupContext::scope`] names the server
//! instance this group streams to (assigned by the group-hash router,
//! [`crate::shard::GroupRouter`]); the job itself is identical either
//! way — groups never know how many shards exist.

use std::sync::Arc;
use std::time::Duration;

use melissa_solver::decomposed::DecomposedSimulation;
use melissa_solver::{FrozenFlow, InjectionParams, UseCaseConfig};
use melissa_transport::{KillSwitch, Transport};

use crate::client::{ClientError, GroupClient};
use crate::fault::GroupFault;

/// Everything one group job needs to run.
pub struct GroupContext {
    /// Endpoint scope of the server instance this group reports to: empty
    /// for a single-server study, `"shard<k>"` when the group-hash router
    /// assigned the group to shard `k`.
    pub scope: String,
    /// Group id (design row).
    pub group_id: u64,
    /// Restart instance (0 = first launch).
    pub instance: u32,
    /// The `p + 2` parameter rows in canonical role order.
    pub rows: Vec<Vec<f64>>,
    /// Solver configuration.
    pub solver: UseCaseConfig,
    /// Shared frozen flow (the pre-run result).
    pub flow: Arc<FrozenFlow>,
    /// Ranks per simulation.
    pub ranks: usize,
    /// Messaging rendezvous (any backend behind the trait surface).
    pub transport: Arc<dyn Transport>,
    /// Connection/send timeout.
    pub timeout: Duration,
    /// Scripted fault for this instance, if any.
    pub fault: Option<GroupFault>,
}

/// Outcome of one group job run.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupOutcome {
    /// All timesteps sent.
    Completed {
        /// Data messages sent.
        messages: u64,
        /// Payload bytes sent.
        bytes: u64,
    },
    /// Died from a scripted fault or a kill at the given timestep.
    Died {
        /// Timesteps fully sent before death.
        after_timestep: Option<u32>,
    },
    /// Could not connect or a send failed (server fault).
    Aborted {
        /// The client error.
        reason: String,
    },
}

/// Runs one simulation group to completion, death or abort.
pub fn run_group(ctx: GroupContext, kill: &KillSwitch) -> GroupOutcome {
    // Zombie fault: the job occupies its resources but never contacts the
    // server (paper Section 4.2.2, second failure case).
    if matches!(ctx.fault, Some(GroupFault::Zombie)) {
        // Stay "running" until killed by the launcher.
        kill.wait(Duration::MAX);
        return GroupOutcome::Died {
            after_timestep: None,
        };
    }

    let mut client = match GroupClient::connect(
        ctx.transport.as_ref(),
        &ctx.scope,
        ctx.group_id,
        ctx.instance,
        64,
        ctx.timeout,
        kill.clone(),
    ) {
        Ok(c) => c,
        Err(e) => {
            return GroupOutcome::Aborted {
                reason: e.to_string(),
            }
        }
    };

    // The p + 2 simulations of the group, run in lockstep.
    let mut sims: Vec<DecomposedSimulation> = ctx
        .rows
        .iter()
        .map(|row| {
            DecomposedSimulation::new(
                &ctx.solver,
                Arc::clone(&ctx.flow),
                InjectionParams::from_row(row),
                ctx.ranks,
            )
        })
        .collect();

    let n_timesteps = ctx.solver.n_timesteps as u32;
    for ts in 0..n_timesteps {
        if kill.is_killed() {
            return GroupOutcome::Died {
                after_timestep: ts.checked_sub(1),
            };
        }
        // Scripted straggler stall.
        if let Some(GroupFault::Stall {
            from_timestep,
            pause,
        }) = ctx.fault
        {
            if ts >= from_timestep && kill.wait(pause) {
                return GroupOutcome::Died {
                    after_timestep: ts.checked_sub(1),
                };
            }
        }

        // Advance all simulations one timestep (synchronous group).
        for sim in &mut sims {
            sim.advance();
        }

        // Two-stage transfer.  Stage 1: for each rank, gather that rank's
        // chunks from all p + 2 simulations onto the main simulation
        // (role A's process) — in-process this is the chunk collection.
        // Stage 2: the client redistributes to the server slabs, and
        // hands each server worker its share of the timestep in one go.
        let mut process = || {
            for rank in 0..ctx.ranks {
                for (role, sim) in sims.iter().enumerate() {
                    client.send_timestep(role as u16, ts, &sim.rank_chunks(rank))?;
                }
            }
            client.end_timestep()
        };
        if let Err(e) = process() {
            return ended_by(e, ts.checked_sub(1));
        }

        // Scripted crash *after* sending this timestep.
        if let Some(GroupFault::CrashAfter { at_timestep }) = ctx.fault {
            if ts == at_timestep {
                return GroupOutcome::Died {
                    after_timestep: Some(ts),
                };
            }
        }
    }

    // Finalize: flush the data links so every frame is ingested-or-queued
    // server-side before the job slot frees (backend-independent ordering).
    if let Err(e) = client.finish() {
        return ended_by(e, Some(n_timesteps - 1));
    }

    GroupOutcome::Completed {
        messages: client.messages_sent,
        bytes: client.bytes_sent,
    }
}

/// The outcome of a job whose client failed with `e` after fully sending
/// `after_timestep`: a kill is the job's death, anything else an abort.
fn ended_by(e: ClientError, after_timestep: Option<u32>) -> GroupOutcome {
    match e {
        ClientError::Killed => GroupOutcome::Died { after_timestep },
        other => GroupOutcome::Aborted {
            reason: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melissa_sobol::design::PickFreeze;
    use melissa_solver::injection::InjectionParams;

    #[test]
    fn zombie_group_waits_for_kill_without_connecting() {
        let cfg = UseCaseConfig::tiny();
        let flow = Arc::new(cfg.prerun());
        let design = PickFreeze::generate(1, &InjectionParams::parameter_space(), 1);
        let ctx = GroupContext {
            scope: String::new(),
            group_id: 0,
            instance: 0,
            rows: design.group(0).rows().to_vec(),
            solver: cfg,
            flow,
            ranks: 2,
            // No server bound: connect would fail.
            transport: melissa_transport::make_transport(Default::default()),
            timeout: Duration::from_millis(100),
            fault: Some(GroupFault::Zombie),
        };
        let kill = KillSwitch::new();
        let k2 = kill.clone();
        let h = std::thread::spawn(move || run_group(ctx, &k2));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "zombie must linger");
        kill.kill();
        assert_eq!(
            h.join().unwrap(),
            GroupOutcome::Died {
                after_timestep: None
            }
        );
    }

    /// A killed straggler ends at once, not at the end of its pause: the
    /// supervisor that restarts it joins the job right after the kill.
    #[test]
    fn a_stalled_group_killed_mid_stall_ends_at_once() {
        use crate::protocol::Message;
        use melissa_transport::directory::names;

        let cfg = UseCaseConfig::tiny();
        let n_cells = cfg.mesh().n_cells() as u64;
        let flow = Arc::new(cfg.prerun());
        let design = PickFreeze::generate(1, &InjectionParams::parameter_space(), 1);
        let transport = melissa_transport::make_transport(Default::default());
        // A server stand-in: one worker endpoint and a handshake answer.
        let main_rx = transport.bind(&names::server_main_in(""), 8);
        let _worker_rx = transport.bind(&names::server_worker_in("", 0), 64);
        let t2 = Arc::clone(&transport);
        let server = std::thread::spawn(move || {
            let request = main_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            let Ok(Message::ConnectRequest { group_id, instance }) = Message::decode(&request)
            else {
                panic!("expected a connect request");
            };
            let reply = Message::ConnectReply {
                n_workers: 1,
                n_cells,
                p: 6,
                n_timesteps: 1,
            };
            t2.connect(&names::group_reply_in("", group_id, instance))
                .unwrap()
                .send(reply.encode())
                .unwrap();
        });
        let ctx = GroupContext {
            scope: String::new(),
            group_id: 0,
            instance: 0,
            rows: design.group(0).rows().to_vec(),
            solver: cfg,
            flow,
            ranks: 2,
            transport,
            timeout: Duration::from_secs(5),
            fault: Some(GroupFault::Stall {
                from_timestep: 0,
                pause: Duration::from_secs(30),
            }),
        };
        let kill = KillSwitch::new();
        let k2 = kill.clone();
        let job = std::thread::spawn(move || run_group(ctx, &k2));
        server.join().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!job.is_finished(), "the straggler must be stalled");
        let killed = std::time::Instant::now();
        kill.kill();
        let outcome = job.join().unwrap();
        assert!(
            killed.elapsed() < Duration::from_secs(1),
            "joined {:?} after the kill",
            killed.elapsed()
        );
        assert_eq!(
            outcome,
            GroupOutcome::Died {
                after_timestep: None
            }
        );
    }

    #[test]
    fn group_without_server_aborts() {
        let cfg = UseCaseConfig::tiny();
        let flow = Arc::new(cfg.prerun());
        let design = PickFreeze::generate(1, &InjectionParams::parameter_space(), 1);
        let ctx = GroupContext {
            scope: String::new(),
            group_id: 0,
            instance: 0,
            rows: design.group(0).rows().to_vec(),
            solver: cfg,
            flow,
            ranks: 2,
            transport: melissa_transport::make_transport(Default::default()),
            timeout: Duration::from_millis(50),
            fault: None,
        };
        let kill = KillSwitch::new();
        assert!(matches!(
            run_group(ctx, &kill),
            GroupOutcome::Aborted { .. }
        ));
    }
}
