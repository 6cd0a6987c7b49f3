//! End-to-end live studies through the full framework stack:
//! launcher → batch runner → simulation groups → two-stage transfer →
//! parallel server → iterative ubiquitous statistics.

use std::sync::Arc;
use std::time::Duration;

use melissa::protocol::Message;
use melissa::{FaultPlan, GroupFault, Study, StudyConfig};
use melissa_sobol::design::PickFreeze;
use melissa_sobol::UbiquitousSobol;
use melissa_solver::injection::InjectionParams;
use melissa_solver::simulation::{OutputMode, Simulation};
use melissa_telemetry::EventKind;
use melissa_transport::directory::names;
use melissa_transport::{make_transport, Disconnected, TransportKind};

/// Computes the expected Sobol' state by running the same design
/// in-process, without the framework (the ground truth).
fn direct_reference(config: &StudyConfig) -> Vec<UbiquitousSobol> {
    let space = InjectionParams::parameter_space();
    let design = PickFreeze::generate(config.n_groups, &space, config.seed);
    let flow = Arc::new(config.solver.prerun());
    let n_cells = config.solver.mesh().n_cells();
    let ts_count = config.solver.n_timesteps;
    let mut state: Vec<UbiquitousSobol> = (0..ts_count)
        .map(|_| UbiquitousSobol::new(space.dim(), n_cells))
        .collect();
    for g in design.groups() {
        // Run the p + 2 sims, collecting every timestep's field.
        let mut fields: Vec<Vec<Vec<f64>>> = vec![Vec::new(); ts_count];
        for row in g.rows() {
            let mut sim = Simulation::new(
                &config.solver,
                Arc::clone(&flow),
                InjectionParams::from_row(row),
                OutputMode::NoOutput,
            );
            sim.run(|ts, field| fields[ts].push(field.to_vec()));
        }
        for (ts, group_fields) in fields.iter().enumerate() {
            let refs: Vec<&[f64]> = group_fields.iter().map(|f| f.as_slice()).collect();
            state[ts].update_group(&refs);
        }
    }
    state
}

#[test]
fn live_study_matches_direct_computation_exactly() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 4;
    config.checkpoint_dir = std::env::temp_dir().join("melissa-it-live");
    let reference = direct_reference(&config);

    let output = Study::new(config.clone()).run().expect("study failed");
    assert_eq!(output.report.groups_finished, 4);
    assert_eq!(output.report.group_restarts, 0);
    assert_eq!(output.report.server_restarts, 0);

    let n_cells = config.solver.mesh().n_cells();
    for ts in [
        0usize,
        config.solver.n_timesteps / 2,
        config.solver.n_timesteps - 1,
    ] {
        assert_eq!(output.results.groups_integrated(ts), 4);
        for k in 0..6 {
            let got = output.results.first_order_field(ts, k);
            let want = reference[ts].first_order_field(k);
            assert_eq!(got.len(), n_cells);
            for c in 0..n_cells {
                assert!(
                    (got[c] - want[c]).abs() < 1e-10,
                    "ts {ts} k {k} cell {c}: {} vs {}",
                    got[c],
                    want[c]
                );
            }
        }
        let got_var = output.results.variance_field(ts);
        let want_var = reference[ts].variance_field();
        for c in 0..n_cells {
            assert!((got_var[c] - want_var[c]).abs() < 1e-10);
        }
    }
}

#[test]
fn ensemble_statistics_are_consistent() {
    // The paper's "other iterative statistics" (Section 4.1): min/max
    // envelope, threshold exceedance and higher moments over Y^A/Y^B.
    let mut config = StudyConfig::tiny();
    config.n_groups = 5;
    config.thresholds = vec![0.1];
    config.checkpoint_dir = std::env::temp_dir().join("melissa-it-ensemble");
    let ts = config.solver.n_timesteps - 1;

    let output = Study::new(config.clone()).run().expect("study failed");
    let mean = output.results.mean_field(ts);
    let min = output.results.min_field(ts);
    let max = output.results.max_field(ts);
    let var = output.results.variance_field(ts);
    let p_exceed = output.results.threshold_probability_field(ts, 0);
    let skew = output.results.skewness_field(ts);

    for c in 0..mean.len() {
        assert!(
            min[c] <= mean[c] + 1e-12 && mean[c] <= max[c] + 1e-12,
            "cell {c} ordering"
        );
        assert!(
            (0.0..=1.0).contains(&p_exceed[c]),
            "cell {c} probability {}",
            p_exceed[c]
        );
        assert!(skew[c].is_finite());
        // Degenerate cells (identical across the ensemble) have no spread.
        if var[c] == 0.0 {
            assert!(
                (max[c] - min[c]).abs() < 1e-12,
                "cell {c} spread without variance"
            );
        }
    }
    // Some cell must actually exceed 0.1 somewhere in the plume.
    assert!(p_exceed.iter().any(|&p| p > 0.0), "no exceedance anywhere");
    // And clean inlet-midline cells never do.
    assert!(
        p_exceed.contains(&0.0),
        "exceedance everywhere is implausible"
    );
}

#[test]
fn crashed_group_is_restarted_and_statistics_are_unbiased() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 3;
    config.checkpoint_dir = std::env::temp_dir().join("melissa-it-crash");
    let reference = direct_reference(&config);

    // Group 1 instance 0 dies after sending timestep 4; the restarted
    // instance replays everything and discard-on-replay keeps the
    // statistics exact.
    let faults =
        FaultPlan::none().with_group_fault(1, 0, GroupFault::CrashAfter { at_timestep: 4 });
    let output = Study::new(config.clone())
        .with_faults(faults)
        .run()
        .expect("study failed");

    assert_eq!(output.report.groups_finished, 3);
    assert!(output.report.group_restarts >= 1, "expected a restart");
    assert!(
        output.report.replays_discarded > 0,
        "replayed timesteps must have been discarded"
    );

    let last = config.solver.n_timesteps - 1;
    let got = output.results.first_order_field(last, 0);
    let want = reference[last].first_order_field(0);
    for c in 0..got.len() {
        assert!(
            (got[c] - want[c]).abs() < 1e-10,
            "cell {c}: {} vs {} (restart biased the statistics)",
            got[c],
            want[c]
        );
    }
}

#[test]
fn zombie_group_is_detected_and_restarted() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 2;
    config.group_timeout = Duration::from_millis(800);
    config.checkpoint_dir = std::env::temp_dir().join("melissa-it-zombie");

    let faults = FaultPlan::none().with_group_fault(0, 0, GroupFault::Zombie);
    let output = Study::new(config)
        .with_faults(faults)
        .run()
        .expect("study failed");
    assert_eq!(output.report.groups_finished, 2);
    assert!(output.report.group_restarts >= 1);
    assert!(
        output
            .report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::GroupZombie { group: 0, .. })),
        "zombie event missing from log: {:?}",
        output.report.events
    );
}

#[test]
fn straggler_group_triggers_timeout_and_recovery() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 2;
    config.group_timeout = Duration::from_millis(400);
    config.checkpoint_dir = std::env::temp_dir().join("melissa-it-stall");

    // Instance 0 of group 1 stalls 1 s per timestep from ts 2 on — well
    // past the 400 ms inter-message timeout: the server reports it and
    // the launcher kills and restarts it.
    let faults = FaultPlan::none().with_group_fault(
        1,
        0,
        GroupFault::Stall {
            from_timestep: 2,
            pause: Duration::from_millis(1000),
        },
    );
    let output = Study::new(config)
        .with_faults(faults)
        .run()
        .expect("study failed");
    assert_eq!(output.report.groups_finished, 2);
    assert!(
        output.report.group_restarts >= 1,
        "straggler must be restarted"
    );
}

#[test]
fn server_crash_recovers_from_checkpoint_with_exact_statistics() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 3;
    config.max_concurrent_groups = 1; // sequential: deterministic finish order
    config.checkpoint_interval = Duration::from_millis(200);
    config.server_timeout = Duration::from_millis(1200);
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-srv-{}", std::process::id()));
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    let reference = direct_reference(&config);

    let faults = FaultPlan::none().with_server_kill_after(1);
    let output = Study::new(config.clone())
        .with_faults(faults)
        .run()
        .expect("study failed");

    assert!(
        output.report.server_restarts >= 1,
        "server must have been restarted"
    );
    assert_eq!(output.report.groups_finished, 3);

    // Statistics must equal the uninterrupted reference: the checkpoint
    // preserved integrated groups and discard-on-replay absorbed replays.
    let last = config.solver.n_timesteps - 1;
    for k in 0..6 {
        let got = output.results.first_order_field(last, k);
        let want = reference[last].first_order_field(k);
        for c in 0..got.len() {
            assert!(
                (got[c] - want[c]).abs() < 1e-10,
                "k {k} cell {c}: {} vs {} after server restart",
                got[c],
                want[c]
            );
        }
    }
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
}

/// A worker whose checkpoint cannot be read when its server restarts
/// starts from cold statistics: the study's journal names that worker,
/// every group the server lost is replayed, and the statistics match the
/// fault-free run.  The corrupt file is in place before the study starts;
/// no checkpoint is due before the scripted kill, so it is what the
/// restart reads, while the other workers find no checkpoint at all (the
/// normal crash-before-first-checkpoint case, which is not journaled).
#[test]
fn an_unreadable_checkpoint_is_journaled_and_its_groups_are_rebuilt() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 3;
    config.max_concurrent_groups = 1;
    config.checkpoint_dir =
        std::env::temp_dir().join(format!("melissa-it-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();
    let reference = Study::new(config.clone()).run().expect("fault-free study");

    let shard_dir = config.checkpoint_dir.join(names::shard_scope(0));
    std::fs::create_dir_all(&shard_dir).unwrap();
    let corrupt = melissa::server::checkpoint::checkpoint_file(&shard_dir, 1);
    std::fs::write(&corrupt, b"not a checkpoint").unwrap();
    let output = Study::new(config.clone())
        .with_faults(FaultPlan::none().with_server_kill_after(1))
        .run()
        .expect("study failed");
    std::fs::remove_dir_all(&config.checkpoint_dir).ok();

    let report = &output.report;
    assert_eq!(report.server_restarts, 1, "{report}");
    let unreadable: Vec<u32> = report
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::CheckpointUnreadable { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect();
    assert_eq!(unreadable, [1], "{report}");
    assert_eq!(report.groups_finished, 3);
    assert_eq!(
        reference
            .results
            .first_order_exact_mismatch(&output.results),
        None
    );
}

/// A geometry the pre-run cannot carry flow through is an error from
/// `Study::run`, not a panic: here tube columns block all four rows.  So
/// is a run with no output timestep or no positive, finite horizon, and
/// it is refused at once, not at the study's wall limit.
#[test]
fn blocked_geometry_is_an_error_not_a_panic() {
    let mut config = StudyConfig::tiny();
    (config.solver.nx, config.solver.ny, config.solver.nz) = (8, 4, 1);
    let err = Study::new(config).run().err().expect("no flow can cross");
    assert!(err.contains("no fluid path"), "error: {err}");

    let mut no_output = StudyConfig::tiny();
    no_output.solver.n_timesteps = 0;
    let timeless = [0.0, -1.0, f64::NAN].map(|total_time| {
        let mut config = StudyConfig::tiny();
        config.solver.total_time = total_time;
        config
    });
    for mut config in timeless.into_iter().chain([no_output]) {
        config.n_groups = 2;
        config.wall_limit = Duration::from_secs(8);
        let began = std::time::Instant::now();
        let err = Study::new(config).run().err().expect("refused");
        assert!(
            err.contains("total_time") || err.contains("n_timesteps"),
            "error: {err}"
        );
        assert!(began.elapsed() < Duration::from_secs(1), "{err}");
    }
}

/// A checkpoint that cannot be written is counted, and the study goes on
/// to the same end.  The checkpoint directory's parent is a regular file,
/// so the write fails even for a user who may write anywhere.
#[test]
fn failed_checkpoints_are_counted_in_the_report() {
    let file = std::env::temp_dir().join(format!("melissa-it-ckpt-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("scratch file");
    let mut config = StudyConfig::tiny();
    config.n_groups = 2;
    config.checkpoint_dir = file.join("checkpoints");
    config.checkpoint_interval = Duration::from_millis(1);
    let output = Study::new(config).run();
    std::fs::remove_file(&file).ok();
    let report = output
        .expect("a failed checkpoint does not fail the study")
        .report;
    assert_eq!(report.groups_finished, 2);
    assert_eq!(report.checkpoints_written, 0);
    assert!(report.checkpoints_failed > 0, "{report}");
}

/// Every error exit of the supervisor tears the study down: after a
/// wall-limit failure nothing is left receiving on the caller's transport.
#[test]
fn wall_limit_failure_leaves_no_server_behind() {
    let mut config = StudyConfig::tiny();
    config.n_groups = 16;
    config.wall_limit = Duration::from_millis(5);
    config.checkpoint_dir = std::env::temp_dir().join("melissa-it-wall");

    let transport = make_transport(TransportKind::InProcess);
    let err = Study::new(config)
        .run_on(Arc::clone(&transport))
        .err()
        .expect("16 groups cannot finish in 5 ms");
    assert!(err.contains("exceeded wall limit"), "error: {err}");

    let data_tx = transport
        .connect(&names::server_worker_in(&names::shard_scope(0), 0))
        .expect("endpoint names outlive their study");
    assert_eq!(
        data_tx.send(Message::Stop.encode()),
        Err(Disconnected),
        "the failed study's server is still receiving"
    );
}
