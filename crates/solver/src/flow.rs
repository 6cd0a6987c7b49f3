//! The steady-flow *pre-run*: a potential-flow solve around the tube
//! bundle.
//!
//! The paper first runs a single 4000-timestep Code_Saturne simulation to
//! obtain a steady flow, then freezes velocity/pressure/turbulence and
//! solves only the dye scalar on top (Section 5.2).  The reproduction's
//! pre-run solves the Laplace equation for a velocity potential `φ` with
//! SOR on the solid-masked mesh (inlet/outlet Dirichlet, walls and tube
//! surfaces zero-flux), then differentiates `φ` into **face volume fluxes**.
//! Because the discrete Laplacian is built from exactly those face
//! couplings, the resulting flux field is discretely divergence-free —
//! which the conservation tests rely on.
//!
//! # The sweep schedule
//!
//! Every study runs this solve serially before its first group starts,
//! so its speed is part of every study's wall time.  A lexicographic
//! Gauss–Seidel sweep is latency-bound: each update starts from its x−
//! neighbour, which the update just before it wrote.  The sweep here does
//! the *same* updates in an order that keeps `BAND` (8) of them in flight:
//!
//! * Each fluid cell's update is built once per solve as a record: its
//!   stencil terms as `(coefficient, index)` pairs in the order x−, x+,
//!   y−, y+, z−, z+, and `den` summed in that order.  The inlet and
//!   outlet ghosts are two extra `phi` slots that hold `φ_in` and
//!   `φ_out`.  A cell with no coupled face (`den == 0`) gets no record.
//! * Records run plane by plane.  Within a plane they come in bands of
//!   `BAND` lines, and step `s` of the band starting at line `j0` visits
//!   the cells `(s − t, j0 + t)` for `t < BAND`.
//!
//! Why `φ`, the convergence test and the sweep count are bit-identical
//! to the lexicographic loop:
//!
//! * *Same neighbour values.*  Cell `(i, j, k)` runs at step `i + t`,
//!   where `t = j − j0`.  Its x− neighbour ran at the step before, its y−
//!   neighbour at the step before or in an earlier band, and its z−
//!   neighbour in an earlier plane: all three are new, as in the
//!   lexicographic loop.  Its x+ and y+ neighbours run at a later step or
//!   in a later band, and its z+ neighbour in a later plane: all three are
//!   still old, as there.  The cells of one step are diagonal to each
//!   other, so no update of a step reads another of the same step.
//! * *Same arithmetic.*  `num` starts at `0.0` and adds the terms in the
//!   reference order; `den` is summed in that order too.  An absent
//!   neighbour adds nothing.  The records are not padded to six terms
//!   with zero coefficients: that would add `0·φ` terms the reference
//!   never computes, and `+0.0` is not an additive identity for `−0.0`
//!   (`−0.0 + 0.0 = +0.0`), nor is `0·∞` zero.  Exactness would then rest
//!   on an argument about the values instead of on doing the same
//!   operations.  The outlet term, which the reference does add
//!   (`a·φ_out = +0.0`), is a real term here too.
//! * *Same convergence test.*  `max_delta` and `max_phi` are maxima, and
//!   `f64::max` does not depend on the order of its operands (it skips
//!   NaN on either side, and `abs` leaves no `−0.0` to tie with `+0.0`).
//!   So the maxima, their ratio, and therefore the sweep count are the
//!   same.

use melissa_mesh::StructuredMesh;

use crate::bundle::TubeBundle;

/// Frozen steady flow: face volume fluxes over a solid-masked mesh.
///
/// Flux arrays are indexed by face:
/// `flux_x[i + (nx+1)·(j + ny·k)]` is the volume flux (positive toward +x)
/// through the face at `x = i·dx`; similarly for y (`ny+1` faces) and z.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenFlow {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Face fluxes along x, `(nx+1)·ny·nz` entries.
    pub flux_x: Vec<f64>,
    /// Face fluxes along y, `nx·(ny+1)·nz` entries.
    pub flux_y: Vec<f64>,
    /// Face fluxes along z, `nx·ny·(nz+1)` entries.
    pub flux_z: Vec<f64>,
    /// Per-cell solid mask.
    pub solid: Vec<bool>,
    /// Number of SOR iterations the pre-run took to converge.
    pub prerun_iterations: usize,
}

impl FrozenFlow {
    /// Index into `flux_x`.
    #[inline]
    pub fn fx(&self, i: usize, j: usize, k: usize) -> usize {
        i + (self.nx + 1) * (j + self.ny * k)
    }

    /// Index into `flux_y`.
    #[inline]
    pub fn fy(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.nx * (j + (self.ny + 1) * k)
    }

    /// Index into `flux_z`.
    #[inline]
    pub fn fz(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.nx * (j + self.ny * k)
    }

    /// Solves the pre-run on `mesh` with the given bundle and mean inlet
    /// velocity, to relative SOR tolerance `tol`.
    ///
    /// # Panics
    /// Panics if the inlet column contains no fluid cells.
    pub fn solve(mesh: &StructuredMesh, bundle: &TubeBundle, u_inlet: f64, tol: f64) -> Self {
        let (nx, ny, nz) = mesh.dims();
        let solid = bundle.solid_mask(mesh);
        let (ax, ay, az) = couplings(mesh);
        let (phi, iters) = relax(mesh, &solid, tol, MAX_ITERS);
        let (phi_in, phi_out) = (PHI_IN, PHI_OUT);

        // Differentiate into face fluxes.
        let mut flow = FrozenFlow {
            nx,
            ny,
            nz,
            flux_x: vec![0.0; (nx + 1) * ny * nz],
            flux_y: vec![0.0; nx * (ny + 1) * nz],
            flux_z: vec![0.0; nx * ny * (nz + 1)],
            solid,
            prerun_iterations: iters,
        };
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..=nx {
                    let f = flow.fx(i, j, k);
                    flow.flux_x[f] = if i == 0 {
                        let c = mesh.cell_id(0, j, k);
                        if flow.solid[c] {
                            0.0
                        } else {
                            ax * (phi_in - phi[c])
                        }
                    } else if i == nx {
                        let c = mesh.cell_id(nx - 1, j, k);
                        if flow.solid[c] {
                            0.0
                        } else {
                            ax * (phi[c] - phi_out)
                        }
                    } else {
                        let l = mesh.cell_id(i - 1, j, k);
                        let r = mesh.cell_id(i, j, k);
                        if flow.solid[l] || flow.solid[r] {
                            0.0
                        } else {
                            ax * (phi[l] - phi[r])
                        }
                    };
                }
            }
        }
        for k in 0..nz {
            for j in 0..=ny {
                for i in 0..nx {
                    let f = flow.fy(i, j, k);
                    flow.flux_y[f] = if j == 0 || j == ny {
                        0.0
                    } else {
                        let l = mesh.cell_id(i, j - 1, k);
                        let r = mesh.cell_id(i, j, k);
                        if flow.solid[l] || flow.solid[r] {
                            0.0
                        } else {
                            ay * (phi[l] - phi[r])
                        }
                    };
                }
            }
        }
        for k in 0..=nz {
            for j in 0..ny {
                for i in 0..nx {
                    let f = flow.fz(i, j, k);
                    flow.flux_z[f] = if k == 0 || k == nz {
                        0.0
                    } else {
                        let l = mesh.cell_id(i, j, k - 1);
                        let r = mesh.cell_id(i, j, k);
                        if flow.solid[l] || flow.solid[r] {
                            0.0
                        } else {
                            az * (phi[l] - phi[r])
                        }
                    };
                }
            }
        }

        // Normalise to the requested mean inlet velocity.
        let inlet_flux: f64 = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(0, j, k)])
            .sum();
        assert!(inlet_flux > 0.0, "inlet is fully blocked");
        let (_, ly, lz) = mesh.extents();
        let target = u_inlet * ly * lz;
        let scale = target / inlet_flux;
        flow.flux_x.iter_mut().for_each(|f| *f *= scale);
        flow.flux_y.iter_mut().for_each(|f| *f *= scale);
        flow.flux_z.iter_mut().for_each(|f| *f *= scale);
        flow
    }

    /// Net volume outflow of a cell (discrete divergence × cell volume).
    pub fn cell_divergence(&self, mesh: &StructuredMesh, i: usize, j: usize, k: usize) -> f64 {
        let _ = mesh;
        self.flux_x[self.fx(i + 1, j, k)] - self.flux_x[self.fx(i, j, k)]
            + self.flux_y[self.fy(i, j + 1, k)]
            - self.flux_y[self.fy(i, j, k)]
            + self.flux_z[self.fz(i, j, k + 1)]
            - self.flux_z[self.fz(i, j, k)]
    }

    /// Largest stable explicit timestep for advection–diffusion on this
    /// flow (CFL + diffusion limits, with a safety factor).
    pub fn stable_dt(&self, mesh: &StructuredMesh, diffusivity: f64) -> f64 {
        let (nx, ny, nz) = mesh.dims();
        let (dx, dy, dz) = mesh.spacing();
        let vol = mesh.cell_volume();
        let mut min_dt = f64::INFINITY;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = mesh.cell_id(i, j, k);
                    if self.solid[c] {
                        continue;
                    }
                    let out = self.flux_x[self.fx(i + 1, j, k)].max(0.0)
                        + (-self.flux_x[self.fx(i, j, k)]).max(0.0)
                        + self.flux_y[self.fy(i, j + 1, k)].max(0.0)
                        + (-self.flux_y[self.fy(i, j, k)]).max(0.0)
                        + self.flux_z[self.fz(i, j, k + 1)].max(0.0)
                        + (-self.flux_z[self.fz(i, j, k)]).max(0.0);
                    if out > 0.0 {
                        min_dt = min_dt.min(vol / out);
                    }
                }
            }
        }
        let diff_limit = if diffusivity > 0.0 {
            0.5 / (diffusivity * (1.0 / (dx * dx) + 1.0 / (dy * dy) + 1.0 / (dz * dz)))
        } else {
            f64::INFINITY
        };
        0.45 * min_dt.min(diff_limit)
    }
}

/// Dirichlet potentials of the inlet ghost (`x = 0`) and the outlet ghost
/// (`x = lx`), each at distance `dx` from the first/last cell centres.
const PHI_IN: f64 = 1.0;
const PHI_OUT: f64 = 0.0;
/// SOR over-relaxation factor.
const OMEGA: f64 = 1.85;
/// Sweeps after which the solve stops even short of its tolerance.
const MAX_ITERS: usize = 200_000;
/// Lines per band: the independent updates one step of the schedule
/// offers the CPU.  Chosen by measurement on the default mesh: 1 (the
/// lexicographic order) takes ≈ 2.4× as long as 8, 4 takes ≈ 1.8×, and
/// 12 or 16 are no faster.
const BAND: usize = 8;

/// Face coupling coefficients `a = A / d` along x, y and z.
fn couplings(mesh: &StructuredMesh) -> (f64, f64, f64) {
    let (dx, dy, dz) = mesh.spacing();
    (dy * dz / dx, dx * dz / dy, dx * dy / dz)
}

/// One fluid cell's SOR update, fixed once per solve:
/// `phi[cell] ← (1 − ω)·phi[cell] + ω·(Σ coef·phi[idx]) / den` over its
/// first `len` terms, which come in the order x−, x+, y−, y+, z−, z+.
/// `phi` carries the inlet and outlet ghosts in two slots past the cells.
#[derive(Clone, Copy)]
struct Update {
    cell: u32,
    len: u32,
    den: f64,
    coef: [f64; 6],
    idx: [u32; 6],
}

impl Update {
    /// The update of fluid cell `(i, j, k)`; `None` when no face couples
    /// it (an isolated fluid cell keeps its initial value).
    fn of(mesh: &StructuredMesh, solid: &[bool], i: usize, j: usize, k: usize) -> Option<Self> {
        let (nx, ny, nz) = mesh.dims();
        let (ax, ay, az) = couplings(mesh);
        let (inlet, outlet) = (mesh.n_cells(), mesh.n_cells() + 1);
        let mut u = Update {
            cell: mesh.cell_id(i, j, k) as u32,
            len: 0,
            den: 0.0,
            coef: [0.0; 6],
            idx: [0; 6],
        };
        let mut couple = |coef: f64, n: usize| {
            if n >= inlet || !solid[n] {
                u.coef[u.len as usize] = coef;
                u.idx[u.len as usize] = n as u32;
                u.len += 1;
                u.den += coef;
            }
        };
        // x− neighbour or inlet ghost, then x+ neighbour or outlet ghost.
        couple(
            ax,
            if i == 0 {
                inlet
            } else {
                mesh.cell_id(i - 1, j, k)
            },
        );
        couple(
            ax,
            if i == nx - 1 {
                outlet
            } else {
                mesh.cell_id(i + 1, j, k)
            },
        );
        // y and z walls are zero-flux: their faces are simply absent.
        if j > 0 {
            couple(ay, mesh.cell_id(i, j - 1, k));
        }
        if j < ny - 1 {
            couple(ay, mesh.cell_id(i, j + 1, k));
        }
        if k > 0 {
            couple(az, mesh.cell_id(i, j, k - 1));
        }
        if k < nz - 1 {
            couple(az, mesh.cell_id(i, j, k + 1));
        }
        (u.den != 0.0).then_some(u)
    }
}

/// Every fluid cell's update in band-staggered order: plane by plane, in
/// bands of [`BAND`] lines, step `s` of a band starting at line `j0`
/// visits the cells `(s − t, j0 + t)` for `t < BAND`.
fn schedule(mesh: &StructuredMesh, solid: &[bool]) -> Vec<Update> {
    let (nx, ny, nz) = mesh.dims();
    let mut updates = Vec::with_capacity(solid.iter().filter(|&&s| !s).count());
    for k in 0..nz {
        for j0 in (0..ny).step_by(BAND) {
            let lines = BAND.min(ny - j0);
            for s in 0..nx + lines - 1 {
                for t in 0..lines.min(s + 1) {
                    let (i, j) = (s - t, j0 + t);
                    if i < nx && !solid[mesh.cell_id(i, j, k)] {
                        updates.extend(Update::of(mesh, solid, i, j, k));
                    }
                }
            }
        }
    }
    updates
}

/// SOR sweeps of the masked Laplace problem until the largest update,
/// relative to the largest `|φ|`, falls below `tol` (or `max_iters`
/// sweeps): the potential per cell (solid cells at their initial 0.5) and
/// the number of sweeps.
fn relax(mesh: &StructuredMesh, solid: &[bool], tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = mesh.n_cells();
    assert!(
        n + 2 <= u32::MAX as usize,
        "mesh too large for u32 cell ids"
    );
    let updates = schedule(mesh, solid);
    let mut phi = vec![0.5; n + 2];
    phi[n] = PHI_IN;
    phi[n + 1] = PHI_OUT;
    let mut iters = 0;
    loop {
        let mut max_delta: f64 = 0.0;
        let mut max_phi: f64 = 1e-30;
        for u in &updates {
            let len = u.len as usize;
            let mut num = 0.0;
            for (&a, &m) in u.coef[..len].iter().zip(&u.idx[..len]) {
                num += a * phi[m as usize];
            }
            let c = u.cell as usize;
            let new = (1.0 - OMEGA) * phi[c] + OMEGA * num / u.den;
            max_delta = max_delta.max((new - phi[c]).abs());
            max_phi = max_phi.max(new.abs());
            phi[c] = new;
        }
        iters += 1;
        if max_delta / max_phi < tol || iters >= max_iters {
            break;
        }
    }
    phi.truncate(n);
    (phi, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UseCaseConfig;
    use proptest::prelude::*;

    /// The lexicographic SOR loop the band-staggered schedule replaced,
    /// verbatim: the oracle the schedule must match bit for bit.
    fn relax_lexicographic(
        mesh: &StructuredMesh,
        solid: &[bool],
        tol: f64,
        max_iters: usize,
    ) -> (Vec<f64>, usize) {
        let (nx, ny, nz) = mesh.dims();
        let (dx, dy, dz) = mesh.spacing();
        let ax = dy * dz / dx;
        let ay = dx * dz / dy;
        let az = dx * dy / dz;
        let (phi_in, phi_out) = (1.0, 0.0);
        let mut phi = vec![0.5; mesh.n_cells()];
        let omega = 1.85;
        let mut iters = 0;
        loop {
            let mut max_delta: f64 = 0.0;
            let mut max_phi: f64 = 1e-30;
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        let c = mesh.cell_id(i, j, k);
                        if solid[c] {
                            continue;
                        }
                        let mut num = 0.0;
                        let mut den = 0.0;
                        // x− neighbour or inlet ghost.
                        if i == 0 {
                            num += ax * phi_in;
                            den += ax;
                        } else {
                            let n = mesh.cell_id(i - 1, j, k);
                            if !solid[n] {
                                num += ax * phi[n];
                                den += ax;
                            }
                        }
                        // x+ neighbour or outlet ghost.
                        if i == nx - 1 {
                            num += ax * phi_out;
                            den += ax;
                        } else {
                            let n = mesh.cell_id(i + 1, j, k);
                            if !solid[n] {
                                num += ax * phi[n];
                                den += ax;
                            }
                        }
                        // y neighbours (walls are zero-flux: omitted).
                        if j > 0 {
                            let n = mesh.cell_id(i, j - 1, k);
                            if !solid[n] {
                                num += ay * phi[n];
                                den += ay;
                            }
                        }
                        if j < ny - 1 {
                            let n = mesh.cell_id(i, j + 1, k);
                            if !solid[n] {
                                num += ay * phi[n];
                                den += ay;
                            }
                        }
                        // z neighbours (front/back walls zero-flux).
                        if k > 0 {
                            let n = mesh.cell_id(i, j, k - 1);
                            if !solid[n] {
                                num += az * phi[n];
                                den += az;
                            }
                        }
                        if k < nz - 1 {
                            let n = mesh.cell_id(i, j, k + 1);
                            if !solid[n] {
                                num += az * phi[n];
                                den += az;
                            }
                        }
                        if den == 0.0 {
                            continue; // isolated fluid cell
                        }
                        let new = (1.0 - omega) * phi[c] + omega * num / den;
                        max_delta = max_delta.max((new - phi[c]).abs());
                        max_phi = max_phi.max(new.abs());
                        phi[c] = new;
                    }
                }
            }
            iters += 1;
            if max_delta / max_phi < tol || iters >= max_iters {
                break;
            }
        }
        (phi, iters)
    }

    /// Runs the schedule and the oracle on one mask and compares the
    /// potential bit for bit and the sweep count exactly.
    fn same_as_oracle(
        mesh: &StructuredMesh,
        solid: &[bool],
        tol: f64,
        max_iters: usize,
    ) -> Result<usize, String> {
        let (phi, iters) = relax(mesh, solid, tol, max_iters);
        let (want, want_iters) = relax_lexicographic(mesh, solid, tol, max_iters);
        if iters != want_iters {
            return Err(format!("{iters} sweeps, oracle {want_iters}"));
        }
        match phi
            .iter()
            .zip(&want)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            Some(c) => Err(format!("cell {c}: {} vs oracle {}", phi[c], want[c])),
            None => Ok(iters),
        }
    }

    #[test]
    fn named_configurations_match_the_oracle() {
        let mut odd = UseCaseConfig::tiny();
        (odd.nx, odd.ny, odd.nz) = (37, 13, 3);
        for (name, cfg, sweeps) in [
            ("default", UseCaseConfig::default(), 884),
            ("tiny", UseCaseConfig::tiny(), 133),
            ("37x13x3", odd, 231),
        ] {
            let mesh = cfg.mesh();
            let solid = cfg.bundle().solid_mask(&mesh);
            let iters = same_as_oracle(&mesh, &solid, cfg.prerun_tol, MAX_ITERS)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(iters, sweeps, "{name}");
            assert_eq!(cfg.prerun().prerun_iterations, sweeps, "{name}");
        }
    }

    /// A random solid mask: each cell solid with probability `density`,
    /// `lines` fully solid x-lines, and (where the mesh allows) one fluid
    /// cell walled in on every side, which no face couples (`den == 0`).
    fn random_mask(mesh: &StructuredMesh, seed: u64, density: f64, lines: usize) -> Vec<bool> {
        let (nx, ny, nz) = mesh.dims();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut solid: Vec<bool> = (0..mesh.n_cells())
            .map(|_| ((next() >> 11) as f64 / (1u64 << 53) as f64) < density)
            .collect();
        for _ in 0..lines {
            let (j, k) = (next() as usize % ny, next() as usize % nz);
            (0..nx).for_each(|i| solid[mesh.cell_id(i, j, k)] = true);
        }
        if nx >= 3 {
            let (i, j, k) = (
                1 + next() as usize % (nx - 2),
                next() as usize % ny,
                next() as usize % nz,
            );
            solid[mesh.cell_id(i, j, k)] = false;
            solid[mesh.cell_id(i - 1, j, k)] = true;
            solid[mesh.cell_id(i + 1, j, k)] = true;
            if j > 0 {
                solid[mesh.cell_id(i, j - 1, k)] = true;
            }
            if j + 1 < ny {
                solid[mesh.cell_id(i, j + 1, k)] = true;
            }
            if k > 0 {
                solid[mesh.cell_id(i, j, k - 1)] = true;
            }
            if k + 1 < nz {
                solid[mesh.cell_id(i, j, k + 1)] = true;
            }
        }
        solid
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The band-staggered schedule is the lexicographic loop, bit for
        /// bit: narrow meshes (`ny < BAND`), ragged last bands, solid
        /// lines and uncoupled fluid cells included.
        #[test]
        fn schedule_matches_the_lexicographic_oracle(
            dims in (1usize..40, 1usize..40, 1usize..5),
            seed in 0u64..u64::MAX,
            density in 0.0f64..0.6,
            lines in 0usize..3,
            tight in 0usize..2,
        ) {
            let (nx, ny, nz) = dims;
            let mesh = StructuredMesh::new(nx, ny, nz, 2.0, 1.0, 0.25);
            let solid = random_mask(&mesh, seed, density, lines);
            let tol = [1e-6, 1e-9][tight];
            let checked = same_as_oracle(&mesh, &solid, tol, 2_000);
            prop_assert!(checked.is_ok(), "{}x{}x{} tol {}: {:?}", nx, ny, nz, tol, checked);
        }
    }

    fn setup() -> (StructuredMesh, FrozenFlow) {
        let mesh = StructuredMesh::new(48, 24, 2, 2.0, 1.0, 0.1);
        let bundle = TubeBundle::for_channel(2.0, 1.0);
        let flow = FrozenFlow::solve(&mesh, &bundle, 1.0, 1e-9);
        (mesh, flow)
    }

    #[test]
    fn flow_is_discretely_divergence_free() {
        let (mesh, flow) = setup();
        let (nx, ny, nz) = mesh.dims();
        let inlet_flux: f64 = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(0, j, k)])
            .sum();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if flow.solid[mesh.cell_id(i, j, k)] {
                        continue;
                    }
                    let div = flow.cell_divergence(&mesh, i, j, k).abs();
                    assert!(
                        div < 1e-5 * inlet_flux,
                        "divergence {div} at ({i},{j},{k}), inlet {inlet_flux}"
                    );
                }
            }
        }
    }

    #[test]
    fn inflow_equals_outflow() {
        let (mesh, flow) = setup();
        let (nx, ny, nz) = mesh.dims();
        let inlet: f64 = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(0, j, k)])
            .sum();
        let outlet: f64 = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(nx, j, k)])
            .sum();
        assert!(
            (inlet - outlet).abs() < 1e-6 * inlet,
            "inlet {inlet} outlet {outlet}"
        );
    }

    #[test]
    fn inlet_flux_matches_requested_velocity() {
        let (mesh, flow) = setup();
        let (_, ny, nz) = mesh.dims();
        let (_, ly, lz) = mesh.extents();
        let inlet: f64 = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(0, j, k)])
            .sum();
        assert!((inlet - 1.0 * ly * lz).abs() < 1e-9);
    }

    #[test]
    fn solid_faces_carry_no_flux() {
        let (mesh, flow) = setup();
        let (nx, ny, nz) = mesh.dims();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if !flow.solid[mesh.cell_id(i, j, k)] {
                        continue;
                    }
                    assert_eq!(flow.flux_x[flow.fx(i, j, k)], 0.0);
                    assert_eq!(flow.flux_x[flow.fx(i + 1, j, k)], 0.0);
                    assert_eq!(flow.flux_y[flow.fy(i, j, k)], 0.0);
                    assert_eq!(flow.flux_y[flow.fy(i, j + 1, k)], 0.0);
                }
            }
        }
    }

    #[test]
    fn flow_accelerates_between_tubes() {
        // Blockage must concentrate the flux: the peak x-face flux inside
        // the bundle exceeds the mean inlet face flux.
        let (mesh, flow) = setup();
        let (nx, ny, nz) = mesh.dims();
        let mean_inlet = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(0, j, k)])
            .sum::<f64>()
            / (ny * nz) as f64;
        let mid_i = nx / 2;
        let peak_mid = (0..nz)
            .flat_map(|k| (0..ny).map(move |j| (j, k)))
            .map(|(j, k)| flow.flux_x[flow.fx(mid_i, j, k)])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            peak_mid > 1.2 * mean_inlet,
            "peak {peak_mid} vs mean inlet {mean_inlet}"
        );
    }

    #[test]
    fn stable_dt_is_positive_and_finite() {
        let (mesh, flow) = setup();
        let dt = flow.stable_dt(&mesh, 1e-3);
        assert!(dt.is_finite() && dt > 0.0);
        // More diffusive problems require smaller steps.
        assert!(flow.stable_dt(&mesh, 1.0) < dt);
    }
}
