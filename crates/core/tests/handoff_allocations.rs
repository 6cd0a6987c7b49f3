//! The data path allocates per batch, not per frame.
//!
//! A group hands each server worker one block per timestep, its frames
//! windows onto that block, and the worker copies their values straight
//! into its assembly — so the large allocations a group causes on the way
//! from rank chunk to statistics are a few per timestep, however many
//! frames the timestep is cut into.  Asserted under a counting allocator:
//! what one more group costs a study, less what its solver allocates on
//! its own, stays within a few allocations per batch.

use std::sync::Arc;

use melissa::{Study, StudyConfig};
use melissa_sobol::design::PickFreeze;
use melissa_solver::decomposed::DecomposedSimulation;
use melissa_solver::{InjectionParams, UseCaseConfig};

mod common;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

const N_TIMESTEPS: usize = 6;
const RANKS: usize = 1;

/// 32 × 16 × 2 cells on one rank: a rank chunk is one k-slice of 512
/// cells, so every frame carries exactly [`common::LARGE`] bytes of field
/// and anything that allocates per frame is counted.
fn solver() -> UseCaseConfig {
    UseCaseConfig {
        nx: 32,
        ny: 16,
        nz: 2,
        n_timesteps: N_TIMESTEPS,
        ..UseCaseConfig::tiny()
    }
}

fn study(n_groups: usize) -> StudyConfig {
    StudyConfig {
        n_groups,
        solver: solver(),
        ranks_per_simulation: RANKS,
        server_workers: 1,
        max_concurrent_groups: 1,
        ..StudyConfig::tiny()
    }
}

fn large_allocs_during(work: impl FnOnce()) -> usize {
    let before = common::large_allocs();
    work();
    common::large_allocs() - before
}

#[test]
fn a_group_costs_allocations_per_batch_not_per_frame() {
    let group_size = StudyConfig::tiny().group_size();
    let frames_per_batch = group_size * RANKS * solver().nz;
    assert!(
        frames_per_batch >= 16,
        "the bound below needs many frames per batch"
    );

    // What a group's solver allocates with nobody listening: its
    // simulations, and one owned chunk per frame-to-be.
    let flow = Arc::new(solver().prerun());
    let design = PickFreeze::generate(1, &InjectionParams::parameter_space(), 1);
    let solver_only = large_allocs_during(|| {
        let mut sims: Vec<DecomposedSimulation> = design
            .group(0)
            .rows()
            .iter()
            .map(|row| {
                DecomposedSimulation::new(
                    &solver(),
                    Arc::clone(&flow),
                    InjectionParams::from_row(row),
                    RANKS,
                )
            })
            .collect();
        for _ in 0..N_TIMESTEPS {
            for sim in &mut sims {
                sim.advance();
            }
            for rank in 0..RANKS {
                for sim in &sims {
                    std::hint::black_box(sim.rank_chunks(rank));
                }
            }
        }
    });
    assert!(
        solver_only >= N_TIMESTEPS * frames_per_batch,
        "the fixture's chunks must count as large ({solver_only} large allocations)"
    );

    // Everything a study allocates once — server state, assembly pool,
    // result maps — cancels between a 3-group and a 6-group study.
    let run = |n_groups: usize| {
        large_allocs_during(|| {
            let out = Study::new(study(n_groups)).run().expect("study runs");
            assert_eq!(out.report.groups_finished, n_groups);
            assert_eq!(
                out.report.data_messages as usize,
                n_groups * N_TIMESTEPS * frames_per_batch
            );
        })
    };
    let (small, large) = (run(3), run(6));
    let per_group = (large.saturating_sub(small)) as f64 / 3.0;
    let in_transit = per_group - solver_only as f64;
    let per_batch = in_transit / N_TIMESTEPS as f64;
    assert!(
        per_batch <= 4.0,
        "{per_batch:.1} large allocations per batch of {frames_per_batch} frames on the way \
         to the server ({small} for 3 groups, {large} for 6, {solver_only} per group in the \
         solver alone): the hand-off allocates per frame again"
    );
}
