//! Criterion micro-benchmarks of the hot kernels: iterative statistics
//! updates (the server's per-message work), Sobol' field updates, the
//! wire codec and the solver step.
//!
//! A row builds its inputs in its own closure, or forces a `LazyCell` it
//! shares with the rows beside it, so a run filtered to some rows builds
//! only what those rows read.

use std::cell::LazyCell;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use melissa_sobol::UbiquitousSobol;
use melissa_stats::quantiles::PAPER_PROBS;
use melissa_stats::{FieldMoments, FieldQuantiles, OnlineCovariance, OnlineMoments};

/// One field sample of `cells` values.
fn sine(cells: usize) -> Vec<f64> {
    (0..cells).map(|i| (i as f64).sin()).collect()
}

/// The `p + 2` fields of one group's timestep, role `r` shifted by
/// `r * shift` cells.
fn group_fields(p: usize, cells: usize, shift: usize) -> Vec<Vec<f64>> {
    (0..p + 2)
        .map(|r| (0..cells).map(|i| ((i + r * shift) as f64).cos()).collect())
        .collect()
}

fn bench_scalar_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("scalar_updates");
    g.throughput(Throughput::Elements(1));
    g.bench_function("online_moments_update", |b| {
        let mut acc = OnlineMoments::new();
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            acc.update(black_box(x % 97.0));
        });
    });
    g.bench_function("online_covariance_update", |b| {
        let mut acc = OnlineCovariance::new();
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            acc.update(black_box(x % 97.0), black_box(x % 89.0));
        });
    });
    g.finish();
}

fn bench_field_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("field_updates");
    for cells in [1024usize, 16_384, 131_072] {
        g.throughput(Throughput::Elements(cells as u64));
        g.bench_with_input(BenchmarkId::new("field_moments", cells), &cells, |b, _| {
            let sample = sine(cells);
            let mut acc = FieldMoments::new(cells);
            b.iter(|| acc.update(black_box(&sample)));
        });
    }
    g.finish();
}

/// Robbins–Monro quantile-update kernel: one field sample folded into the
/// tiled per-cell records at the follow-up paper's seven target
/// probabilities (stride 7 → 56 B/cell, one cache line), with the
/// envelope update it depends on.
fn bench_quantile_updates(c: &mut Criterion) {
    use melissa_stats::FieldMinMax;
    let mut g = c.benchmark_group("quantile_update");
    for cells in [16_384usize, 131_072] {
        g.throughput(Throughput::Elements(cells as u64));
        g.bench_with_input(
            BenchmarkId::new("field_quantiles_q7", cells),
            &cells,
            |b, _| {
                let sample = sine(cells);
                let mut acc = FieldQuantiles::new(cells, &PAPER_PROBS);
                let mut env = FieldMinMax::new(cells);
                b.iter(|| {
                    env.update(black_box(&sample));
                    acc.update(black_box(&sample), &env);
                });
            },
        );
    }
    g.finish();
}

fn bench_sobol_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("sobol_group_update");
    let p = 6;
    // 131 072 cells ≈ one server process's slab share of the paper's
    // 9.6 M-cell mesh at ~73 processes — the headline working-set size.
    for cells in [1024usize, 16_384, 131_072] {
        // Throughput: one group update touches (p + 2) × cells values.
        g.throughput(Throughput::Elements(((p + 2) * cells) as u64));
        g.bench_with_input(BenchmarkId::new("ubiquitous_p6", cells), &cells, |b, _| {
            let fields = group_fields(p, cells, 31);
            let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
            let mut acc = UbiquitousSobol::new(p, cells);
            b.iter(|| acc.update_group(black_box(&refs)));
        });
    }
    g.finish();
}

fn bench_sobol_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("sobol_merge");
    let p = 6;
    for cells in [16_384usize, 131_072] {
        g.throughput(Throughput::Elements(cells as u64));
        g.bench_with_input(BenchmarkId::new("ubiquitous_p6", cells), &cells, |b, _| {
            let fields: Vec<Vec<f64>> = (0..p + 2)
                .map(|r| (0..cells).map(|i| ((i + r * 17) as f64).sin()).collect())
                .collect();
            let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
            let mut other = UbiquitousSobol::new(p, cells);
            for _ in 0..3 {
                other.update_group(&refs);
            }
            let mut acc = UbiquitousSobol::new(p, cells);
            acc.update_group(&refs);
            b.iter(|| acc.merge(black_box(&other)));
        });
    }
    g.finish();
}

/// End-to-end server ingest: chunked `Data` arrival for all `p + 2` roles
/// of one `(group, timestep)`, through assembly completion and the fold
/// into Sobol' + moments + min/max + thresholds — the server's whole
/// per-message hot path.
fn bench_worker_ingest(c: &mut Criterion) {
    use melissa::server::state::WorkerState;
    use melissa_mesh::CellRange;

    let mut g = c.benchmark_group("server_ingest");
    let p = 6;
    // The paper's clients send per-rank chunks; 16 chunks/role models a
    // 16-rank simulation whose blocks all intersect this worker's slab.
    let chunks = 16usize;
    // Quantile-free vs seven-quantile ingest: the fused sweep with order
    // statistics enabled must stay within 25 % of the quantile-free
    // throughput (asserted against BENCH_kernels.json).
    let variants: [(&str, &[f64]); 2] = [("on_data_p6", &[]), ("on_data_p6_q7", &PAPER_PROBS)];
    for cells in [16_384usize, 131_072] {
        let fields = LazyCell::new(|| group_fields(p, cells, 13));
        let chunk_len = cells / chunks;
        g.throughput(Throughput::Elements(((p + 2) * cells) as u64));
        for (name, quantile_probs) in variants {
            g.bench_with_input(BenchmarkId::new(name, cells), &cells, |b, _| {
                let fields = &*fields;
                let mut st = WorkerState::with_stats(
                    0,
                    CellRange {
                        start: 0,
                        len: cells,
                    },
                    p,
                    1,
                    &[0.0, 0.5],
                    quantile_probs,
                );
                let mut group_id = 0u64;
                b.iter(|| {
                    // Fresh group id each iteration: replays of a completed
                    // (group, timestep) would be discarded, not ingested.
                    group_id += 1;
                    let mut completed = false;
                    for (role, field) in fields.iter().enumerate() {
                        for ch in 0..chunks {
                            let start = ch * chunk_len;
                            completed = st.on_data(
                                group_id,
                                role as u16,
                                0,
                                start as u64,
                                black_box(&field[start..start + chunk_len]),
                            );
                        }
                    }
                    assert!(completed, "assembly must complete every iteration");
                });
            });
        }
    }
    g.finish();
}

/// The fused sweep on its own, at the slab sizes the whole-study
/// benchmark runs it at: 288 cells (a `daemon_small` worker: 576 cells on
/// two workers) and 4 096 (a `tube_*` worker), `p = 6`, one threshold,
/// seven quantiles.  A sweep this small is where the cost of *starting*
/// it shows — the parallel dispatch, not the arithmetic.
///
/// Those two rows sweep one timestep's state over and over, hot in
/// cache.  A study does not: a `tube_*` worker holds 100 timesteps ×
/// 4 096 cells × 336 B = 137 MB and a group sweeps each timestep's state
/// once.  `p6_q7_cold` is that shape (one group over all 100 timesteps
/// per iteration, state from memory every time) and `p6_q7_k2` folds two
/// groups back to back per timestep, the second with the state still in
/// cache — what batching completed assemblies could buy.  `state_rmw`
/// below puts the traffic alone beside them.
fn bench_fused_sweep(c: &mut Criterion) {
    use melissa_sobol::FusedSlabUpdate;
    use melissa_stats::{FieldMinMax, FieldThreshold};

    let mut g = c.benchmark_group("fused_sweep");
    let p = 6;
    for cells in [288usize, 4096] {
        g.throughput(Throughput::Elements(cells as u64));
        g.bench_with_input(BenchmarkId::new("p6_q7", cells), &cells, |b, _| {
            let fields = group_fields(p, cells, 13);
            let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
            let mut sobol = UbiquitousSobol::new(p, cells);
            let mut moments = FieldMoments::new(cells);
            let mut minmax = FieldMinMax::new(cells);
            let mut thresholds = [FieldThreshold::new(cells, 0.5)];
            let mut quantiles = FieldQuantiles::new(cells, &PAPER_PROBS);
            b.iter(|| {
                FusedSlabUpdate::new(
                    &mut sobol,
                    &mut moments,
                    &mut minmax,
                    &mut thresholds,
                    Some(&mut quantiles),
                )
                .apply(black_box(&refs))
            });
        });
    }

    const CELLS: usize = 4096;
    const TIMESTEPS: usize = 100;
    let fields = LazyCell::new(|| group_fields(p, CELLS, 13));
    let mut study = LazyCell::new(|| {
        (0..TIMESTEPS)
            .map(|_| {
                (
                    UbiquitousSobol::new(p, CELLS),
                    FieldMoments::new(CELLS),
                    FieldMinMax::new(CELLS),
                    [FieldThreshold::new(CELLS, 0.5)],
                    FieldQuantiles::new(CELLS, &PAPER_PROBS),
                )
            })
            .collect::<Vec<_>>()
    });
    for (id, groups_per_pass) in [("p6_q7_cold", 1), ("p6_q7_k2", 2)] {
        g.throughput(Throughput::Elements(
            (groups_per_pass * TIMESTEPS * CELLS) as u64,
        ));
        g.bench_function(id, |b| {
            let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
            let study = LazyCell::force_mut(&mut study);
            b.iter(|| {
                for (sobol, moments, minmax, thresholds, quantiles) in study.iter_mut() {
                    for _ in 0..groups_per_pass {
                        FusedSlabUpdate::new(sobol, moments, minmax, thresholds, Some(quantiles))
                            .apply(black_box(&refs));
                    }
                }
            })
        });
    }
    g.finish();
}

/// What the cold sweep's memory traffic costs with no arithmetic: a
/// read-modify-write pass over as many bytes as a `tube_*` worker's state
/// (336 B per cell and timestep, 137 MB), and a `memcpy` of the same —
/// per cell and timestep, to set beside `fused_sweep/p6_q7_cold`.
fn bench_state_traffic(c: &mut Criterion) {
    const CELL_TIMESTEPS: usize = 4096 * 100;
    const WORDS: usize = 336 / 8;
    let mut g = c.benchmark_group("state_rmw");
    g.throughput(Throughput::Elements(CELL_TIMESTEPS as u64));
    let mut state = LazyCell::new(|| vec![1.0f64; CELL_TIMESTEPS * WORDS]);
    g.bench_function("336B", |b| {
        let state = LazyCell::force_mut(&mut state);
        b.iter(|| {
            for word in state.iter_mut() {
                *word += 1.0;
            }
            black_box(&state);
        })
    });
    g.bench_function("memcpy_336B", |b| {
        let state = &*state;
        let mut copy = vec![0.0f64; state.len()];
        b.iter(|| {
            copy.copy_from_slice(black_box(state));
            black_box(&copy);
        })
    });
    g.finish();
}

/// One worker's state after group `k` ran all `n_ts` timesteps: `p = 6`,
/// one threshold, the seven paper quantiles (336 B per cell and timestep).
fn filled_worker_state(k: usize, cells: usize, n_ts: usize) -> melissa::server::state::WorkerState {
    use melissa::server::state::WorkerState;
    use melissa_mesh::CellRange;

    let p = 6usize;
    let slab = CellRange {
        start: 0,
        len: cells,
    };
    let mut st = WorkerState::with_stats(0, slab, p, n_ts, &[0.5], &PAPER_PROBS);
    for ts in 0..n_ts as u32 {
        for role in 0..(p + 2) as u16 {
            let vals: Vec<f64> = (0..cells)
                .map(|i| ((i + role as usize * 13 + k * 31) as f64).cos())
                .collect();
            st.on_data(k as u64, role, ts, 0, &vals);
        }
    }
    st
}

/// Sharded-study reduction: fold K shards' worker states pairwise — the
/// study-end cost a multi-server deployment pays once for its elasticity.
fn bench_shard_reduce(c: &mut Criterion) {
    use melissa::server::state::WorkerState;
    use melissa::shard::reduce_worker_states;

    let mut g = c.benchmark_group("shard_reduce");
    let (cells, n_ts) = (16_384usize, 4usize);
    for n_shards in [4usize, 8] {
        g.throughput(Throughput::Elements((n_shards * cells * n_ts) as u64));
        g.bench_with_input(
            BenchmarkId::new("reduce_16k_cells_4ts", n_shards),
            &n_shards,
            |b, _| {
                let shards: Vec<Vec<WorkerState>> = (0..n_shards)
                    .map(|k| vec![filled_worker_state(k, cells, n_ts)])
                    .collect();
                // The borrowing adaptor, so every iteration sees the same
                // input: one clone of the shard states, then the in-place
                // fold the study runs on the states it owns.
                b.iter(|| black_box(reduce_worker_states(black_box(&shards))));
            },
        );
    }
    g.finish();
}

/// The worker-state codec where bytes are really needed (checkpoint
/// files, re-homing, remote shards, the daemon's `results` RPC), on the
/// `shard_reduce` state and on the 137 MB worker of the `tube_*`
/// study_bench workloads (half of an 8 192-cell mesh, 100 timesteps).
/// A row's throughput is its state's packed size, stated up front so the
/// state is built only for a selected row, and checked when it is.
fn bench_state_codec(c: &mut Criterion) {
    use melissa::server::checkpoint::{pack_state, unpack_state};

    let mut g = c.benchmark_group("state_codec");
    for (name, cells, n_ts, packed_len) in [
        ("16k_cells_4ts", 16_384usize, 4usize, 22_020_648usize),
        ("tube_worker_4k_cells_100ts", 4_096, 100, 137_634_600),
    ] {
        let state = LazyCell::new(|| filled_worker_state(0, cells, n_ts));
        let packed = LazyCell::new(|| {
            let packed = pack_state(&state);
            assert_eq!(packed.len(), packed_len, "{name}: packed size");
            packed
        });
        g.throughput(Throughput::Bytes(packed_len as u64));
        g.bench_function(BenchmarkId::new("pack", name), |b| {
            let state = &*state;
            b.iter(|| black_box(pack_state(black_box(state))));
        });
        g.bench_function(BenchmarkId::new("unpack", name), |b| {
            let packed = &*packed;
            b.iter(|| black_box(unpack_state(black_box(packed), 0).unwrap()));
        });
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    use melissa::protocol::Message;
    let mut g = c.benchmark_group("wire_codec");
    for cells in [1024usize, 16_384] {
        let msg = Message::Data {
            group_id: 7,
            instance: 0,
            role: 3,
            timestep: 42,
            start: 1000,
            values: (0..cells).map(|i| i as f64).collect(),
        };
        g.throughput(Throughput::Bytes((cells * 8) as u64));
        g.bench_with_input(BenchmarkId::new("encode", cells), &msg, |b, msg| {
            b.iter(|| black_box(msg.encode()));
        });
        let frame = msg.encode();
        g.bench_with_input(BenchmarkId::new("decode", cells), &frame, |b, frame| {
            b.iter(|| Message::decode(black_box(frame)).unwrap());
        });
    }
    g.finish();
}

fn bench_solver_step(c: &mut Criterion) {
    use melissa_solver::injection::{InjectionParams, InletProfile};
    use melissa_solver::transport::step_full;
    use melissa_solver::UseCaseConfig;
    let cfg = UseCaseConfig::default();
    let mesh = cfg.mesh();
    let flow = LazyCell::new(|| cfg.prerun());
    let params = InjectionParams {
        conc_upper: 1.0,
        conc_lower: 1.0,
        width_upper: 0.3,
        width_lower: 0.3,
        dur_upper: 1.0,
        dur_lower: 1.0,
    };
    let inlet = InletProfile::new(params, cfg.ly, cfg.total_time);
    let c0 = mesh.zero_field();
    let mut out = mesh.zero_field();

    let mut g = c.benchmark_group("solver");
    g.throughput(Throughput::Elements(mesh.n_cells() as u64));
    g.bench_function("transport_step_8k_cells", |b| {
        let flow = &*flow;
        let dt = flow.stable_dt(&mesh, cfg.diffusivity);
        b.iter(|| {
            step_full(
                &mesh,
                flow,
                &inlet,
                cfg.diffusivity,
                dt,
                0.1,
                black_box(&c0),
                &mut out,
            )
        });
    });
    // The pre-run every study starts with, serial on one core; a row's
    // elements are the mesh's cells (the sweep count is fixed per mesh).
    for (name, cfg) in [
        ("prerun_default", UseCaseConfig::default()),
        ("prerun_tiny", UseCaseConfig::tiny()),
    ] {
        g.throughput(Throughput::Elements(cfg.mesh().n_cells() as u64));
        g.bench_function(name, |b| b.iter(|| black_box(&cfg).prerun()));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scalar_updates,
    bench_field_updates,
    bench_quantile_updates,
    bench_sobol_updates,
    bench_sobol_merge,
    bench_worker_ingest,
    bench_fused_sweep,
    bench_state_traffic,
    bench_shard_reduce,
    bench_state_codec,
    bench_codec,
    bench_solver_step
);
criterion_main!(benches);
