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
//! the *same* updates wavefront by wavefront, four cells per vector:
//!
//! * `φ` lives in a skewed layout (`Wavefront`).  Cell `(i, j, k)` sits
//!   at `(k + 1)·P + (i + j + 1)·S + j + 1`, with `S = ny + 4` and
//!   `P = (nx + ny + 1)·S`: each plane's anti-diagonal `i + j` is one
//!   contiguous run, and ghost slots pad every side.  So the six
//!   neighbours of a run of cells are six runs at fixed offsets: x∓ at
//!   `∓S`, y∓ at `∓(S + 1)` and z∓ at `∓P`.  The inlet and outlet ghosts
//!   (`i = −1` and `i = nx`) hold `φ_in` and `φ_out`.
//! * Per cell the layout holds one presence byte and `den`.  Bit `t` of
//!   the byte says whether term `t` of x−, x+, y−, y+, z−, z+ is coupled;
//!   bit 6 says whether the cell is updated at all (fluid, `den != 0`).
//!   A ghost slot's byte is 0.  `den` is the sum of the present terms'
//!   coefficients, in that order.
//! * The sweep visits the wavefronts `i + j + k` in increasing order, and
//!   a wavefront as one diagonal of each plane.  An AVX2 kernel, chosen at
//!   run time, updates four cells of a diagonal per step.  A diagonal's
//!   last step may reach past its last cell: `S` leaves three ghost slots
//!   past a row's last cell, which are never updated.  A scalar loop with
//!   the same arithmetic is the whole kernel on hosts without AVX2.
//!
//! Why `φ`, the convergence test and the sweep count are bit-identical
//! to the lexicographic loop:
//!
//! * *Same neighbour values.*  Cell `(i, j, k)` is on wavefront
//!   `i + j + k`.  Its x−, y− and z− neighbours are on the wavefront
//!   before: all three are new, as in the lexicographic loop.  Its x+, y+
//!   and z+ neighbours are on the wavefront after: all three are still
//!   old, as there.  No two cells of a wavefront are neighbours, so the
//!   cells of one wavefront are independent of each other.
//! * *Same arithmetic.*  `num` starts at `0.0` and adds the present terms
//!   in the reference order; `den` is summed in that order too.  A term
//!   absent from all four lanes is not computed, one present in all four
//!   is added as it is.  Where the lanes differ, an absent term is
//!   skipped by a lane select: the kernel puts `−0.0` in that lane instead
//!   of the product, and `x + (−0.0)` is `x` bit for bit for every `x`
//!   (`±0.0`, ∞ and NaN included), so the lane's `num` is what skipping
//!   the term leaves.  A `0·φ` term is never added: `+0.0` is not an
//!   additive identity for `−0.0` (`−0.0 + 0.0 = +0.0`), nor is `0·∞`
//!   zero.  The outlet term, which the reference does add
//!   (`a·φ_out = +0.0`), is a present term here too.  The kernel
//!   multiplies, adds and divides separately (no fused multiply-add), so
//!   each lane rounds as the scalar code does, and a cell that is not
//!   updated keeps its value by a lane select as well.
//! * *Same convergence test.*  `max_delta` and `max_phi` are maxima, and
//!   `f64::max` does not depend on the order of its operands (it skips
//!   NaN on either side, and `abs` leaves no `−0.0` to tie with `+0.0`);
//!   the vector maximum skips a NaN update the same way.  So the maxima,
//!   their ratio, and therefore the sweep count are the same.

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
    /// Panics if no fluid path joins the inlet to the outlet, which
    /// [`UseCaseConfig::validate`](crate::UseCaseConfig::validate) reports
    /// as an error first.
    pub fn solve(mesh: &StructuredMesh, bundle: &TubeBundle, u_inlet: f64, tol: f64) -> Self {
        let (nx, ny, nz) = mesh.dims();
        let solid = bundle.solid_mask(mesh);
        let (ax, ay, az) = couplings(mesh);
        let (phi, iters) = relax(mesh, &solid, tol, MAX_ITERS, avx2_available());
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
        // Unreachable from a validated config: `UseCaseConfig::validate`
        // admits only meshes whose fluid joins the inlet to the outlet, and
        // tolerances that leave φ near the converged potential, which falls
        // from φ_in along that path, so the inlet carries flow in.
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

/// Face coupling coefficients `a = A / d` along x, y and z.
fn couplings(mesh: &StructuredMesh) -> (f64, f64, f64) {
    let (dx, dy, dz) = mesh.spacing();
    (dy * dz / dx, dx * dz / dy, dx * dy / dz)
}

/// Stencil terms per cell, in the reference order x−, x+, y−, y+, z−, z+.
const TERMS: usize = 6;
/// Presence bit of a cell the sweep updates: fluid, with `den != 0`.
const UPDATED: u8 = 1 << TERMS;

/// The skewed layout of the module docs: where each cell's `φ` lives, and
/// per cell its presence byte and `den`, at the same index.
struct Wavefront {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Slots between consecutive diagonals of a plane (`S`).
    stride: usize,
    /// Slots between consecutive planes (`P`).
    plane: usize,
    /// Every plane's diagonals in sweep order, wavefront by wavefront, as
    /// `(first slot, cells)`.
    diagonals: Vec<(usize, usize)>,
    /// Offset of each term's neighbour from its cell.
    offsets: [isize; TERMS],
    /// Coefficient of each term.
    coef: [f64; TERMS],
    /// Presence bits: bit `t < TERMS` for term `t`, and [`UPDATED`].
    terms: Vec<u8>,
    /// `den` of each updated cell, and 1.0 elsewhere so that no vector
    /// lane divides by zero.
    den: Vec<f64>,
}

impl Wavefront {
    /// The layout of `mesh`, with each fluid cell's terms.
    fn new(mesh: &StructuredMesh, solid: &[bool]) -> Self {
        let (nx, ny, nz) = mesh.dims();
        let (ax, ay, az) = couplings(mesh);
        let stride = ny + 4;
        let plane = (nx + ny + 1) * stride;
        let len = (nz + 2) * plane;
        let (s, p) = (stride as isize, plane as isize);
        let mut w = Self {
            nx,
            ny,
            nz,
            stride,
            plane,
            diagonals: Vec::with_capacity(nz * (nx + ny - 1)),
            offsets: [-s, s, -(s + 1), s + 1, -p, p],
            coef: [ax, ax, ay, ay, az, az],
            terms: vec![0; len],
            den: vec![1.0; len],
        };
        // Wavefront `i + j + k = f` is diagonal `i + j = f − k` of each
        // plane `k` that has one.
        for f in 0..nx + ny + nz - 2 {
            for k in (0..nz).filter(|&k| k <= f && f - k < nx + ny - 1) {
                let d = f - k;
                let (first, last) = (d.saturating_sub(nx - 1), d.min(ny - 1));
                let run = (w.slot(d - first, first, k), last + 1 - first);
                w.diagonals.push(run);
            }
        }
        let fluid = |i, j, k| !solid[mesh.cell_id(i, j, k)];
        for k in 0..nz {
            for j in 0..ny {
                for i in (0..nx).filter(|&i| fluid(i, j, k)) {
                    // The inlet and outlet ghosts always couple; the y and
                    // z walls are zero-flux, so their faces are absent.
                    let present = [
                        i == 0 || fluid(i - 1, j, k),
                        i == nx - 1 || fluid(i + 1, j, k),
                        j > 0 && fluid(i, j - 1, k),
                        j + 1 < ny && fluid(i, j + 1, k),
                        k > 0 && fluid(i, j, k - 1),
                        k + 1 < nz && fluid(i, j, k + 1),
                    ];
                    let (mut bits, mut den) = (UPDATED, 0.0);
                    for t in (0..TERMS).filter(|&t| present[t]) {
                        bits |= 1 << t;
                        den += w.coef[t];
                    }
                    // An isolated fluid cell keeps its initial value.
                    if den != 0.0 {
                        let c = w.slot(i, j, k);
                        (w.terms[c], w.den[c]) = (bits, den);
                    }
                }
            }
        }
        w
    }

    /// Index of cell `(i, j, k)`.
    fn slot(&self, i: usize, j: usize, k: usize) -> usize {
        (k + 1) * self.plane + (i + j + 1) * self.stride + j + 1
    }

    /// The starting potential: every cell at 0.5, the inlet ghosts at
    /// `φ_in` and the outlet ghosts at `φ_out`.
    fn initial_potential(&self) -> Vec<f64> {
        let mut phi = vec![0.5; self.terms.len()];
        for k in 0..self.nz {
            for j in 0..self.ny {
                phi[self.slot(0, j, k) - self.stride] = PHI_IN;
                phi[self.slot(self.nx - 1, j, k) + self.stride] = PHI_OUT;
            }
        }
        phi
    }

    /// `phi` per cell, in mesh order.
    fn potential(&self, mesh: &StructuredMesh, phi: &[f64]) -> Vec<f64> {
        let mut cells = vec![0.0; mesh.n_cells()];
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    cells[mesh.cell_id(i, j, k)] = phi[self.slot(i, j, k)];
                }
            }
        }
        cells
    }

    /// One SOR sweep of `phi`: `(max_delta, max_phi)` over the updated
    /// cells.
    fn sweep(&self, phi: &mut [f64], vector: bool) -> (f64, f64) {
        if vector {
            assert!(avx2_available(), "no AVX2 on this host");
            // SAFETY: AVX2 support just checked.
            #[cfg(target_arch = "x86_64")]
            return unsafe { self.sweep_avx2(phi) };
        }
        let mut maxima = (0.0, 1e-30);
        for &(first, cells) in &self.diagonals {
            for c in first..first + cells {
                self.update(phi, c, &mut maxima);
            }
        }
        maxima
    }

    /// The update of the cell at `c`, in the reference arithmetic, folded
    /// into the sweep's `(max_delta, max_phi)`.
    fn update(&self, phi: &mut [f64], c: usize, maxima: &mut (f64, f64)) {
        let bits = self.terms[c];
        if bits & UPDATED == 0 {
            return;
        }
        let mut num = 0.0;
        for t in (0..TERMS).filter(|t| bits & (1 << t) != 0) {
            num += self.coef[t] * phi[c.wrapping_add_signed(self.offsets[t])];
        }
        let new = (1.0 - OMEGA) * phi[c] + OMEGA * num / self.den[c];
        maxima.0 = maxima.0.max((new - phi[c]).abs());
        maxima.1 = maxima.1.max(new.abs());
        phi[c] = new;
    }

    /// [`sweep`](Self::sweep) four cells of a diagonal at a time, each lane
    /// in the arithmetic of [`update`](Self::update).  A diagonal's last
    /// vector may reach past its last cell, onto ghost slots of the same
    /// row, whose presence byte is 0: they are never updated.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available ([`avx2_available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_avx2(&self, phi: &mut [f64]) -> (f64, f64) {
        use std::arch::x86_64::*;
        assert_eq!(phi.len(), self.terms.len());
        let coef = self.coef.map(|a| _mm256_set1_pd(a));
        // Shifting a lane's presence byte left by `63 − t` puts bit `t` in
        // the sign bit, which is all a blend reads.
        let shift: [__m256i; TERMS + 1] =
            std::array::from_fn(|t| _mm256_set1_epi64x(63 - t as i64));
        let keep = _mm256_set1_pd(1.0 - OMEGA);
        let omega = _mm256_set1_pd(OMEGA);
        let skip = _mm256_set1_pd(-0.0);
        let magnitude = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let (mut deltas, mut sizes) = (_mm256_setzero_pd(), _mm256_set1_pd(1e-30));
        for &(first, cells) in &self.diagonals {
            let base = phi.as_mut_ptr();
            for c in (first..first + cells).step_by(4) {
                // SAFETY: lane 0 is a cell, and lanes past the diagonal's
                // last cell are ghost slots of its row (`S = ny + 4` leaves
                // three past `j = ny − 1`).  A term's offset moves a lane to
                // the row or the plane on either side, which ghost rows and
                // planes pad: every access is inside `phi`, `terms` and
                // `den`, which have one length.
                unsafe {
                    let word = self.terms.as_ptr().add(c).cast::<u32>().read_unaligned();
                    // Whether `bit` is set in some lane, and in every lane.
                    let set = |bit: u8| {
                        let m = 0x0101_0101 * u32::from(bit);
                        (word & m != 0, word & m == m)
                    };
                    let (some_updated, all_updated) = set(UPDATED);
                    if !some_updated {
                        continue;
                    }
                    let bits = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(word as i32));
                    let lanes = |t: usize| _mm256_castsi256_pd(_mm256_sllv_epi64(bits, shift[t]));
                    let mut num = _mm256_setzero_pd();
                    for (t, (&a, &offset)) in coef.iter().zip(&self.offsets).enumerate() {
                        let (some, all) = set(1 << t);
                        if some {
                            let n = _mm256_loadu_pd(base.offset(c as isize + offset));
                            let mut term = _mm256_mul_pd(a, n);
                            if !all {
                                term = _mm256_blendv_pd(skip, term, lanes(t));
                            }
                            num = _mm256_add_pd(num, term);
                        }
                    }
                    let old = _mm256_loadu_pd(base.add(c));
                    let den = _mm256_loadu_pd(self.den.as_ptr().add(c));
                    let relaxed = _mm256_div_pd(_mm256_mul_pd(omega, num), den);
                    let mut new = _mm256_add_pd(_mm256_mul_pd(keep, old), relaxed);
                    let mut size = _mm256_and_pd(new, magnitude);
                    if !all_updated {
                        new = _mm256_blendv_pd(old, new, lanes(TERMS));
                        size = _mm256_blendv_pd(_mm256_setzero_pd(), size, lanes(TERMS));
                    }
                    let delta = _mm256_and_pd(_mm256_sub_pd(new, old), magnitude);
                    // `max_pd(x, acc)` keeps `acc` when `x` is NaN.
                    deltas = _mm256_max_pd(delta, deltas);
                    sizes = _mm256_max_pd(size, sizes);
                    _mm256_storeu_pd(base.add(c), new);
                }
            }
        }
        let (mut delta_lanes, mut size_lanes) = ([0.0; 4], [0.0; 4]);
        // SAFETY: each array holds four f64.
        unsafe {
            _mm256_storeu_pd(delta_lanes.as_mut_ptr(), deltas);
            _mm256_storeu_pd(size_lanes.as_mut_ptr(), sizes);
        }
        (
            delta_lanes.into_iter().fold(0.0, f64::max),
            size_lanes.into_iter().fold(1e-30, f64::max),
        )
    }
}

/// True when the AVX2 sweep is usable.
fn avx2_available() -> bool {
    // std caches the cpuid result; this is one relaxed atomic load.
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// SOR sweeps of the masked Laplace problem until the largest update,
/// relative to the largest `|φ|`, falls below `tol` (or `max_iters`
/// sweeps), on the AVX2 kernel when `vector` and on the scalar one
/// otherwise: the potential per cell (solid cells at their initial 0.5)
/// and the number of sweeps.
fn relax(
    mesh: &StructuredMesh,
    solid: &[bool],
    tol: f64,
    max_iters: usize,
    vector: bool,
) -> (Vec<f64>, usize) {
    let wavefront = Wavefront::new(mesh, solid);
    let mut phi = wavefront.initial_potential();
    let mut iters = 0;
    loop {
        let (max_delta, max_phi) = wavefront.sweep(&mut phi, vector);
        iters += 1;
        if max_delta / max_phi < tol || iters >= max_iters {
            break;
        }
    }
    (wavefront.potential(mesh, &phi), iters)
}

/// Whether fluid cells join the inlet column (`i = 0`) to the outlet
/// column (`i = nx − 1`) through shared faces: a flood fill from the
/// inlet's fluid cells.
pub(crate) fn inlet_reaches_outlet(mesh: &StructuredMesh, solid: &[bool]) -> bool {
    let (nx, ny, nz) = mesh.dims();
    // Solid cells count as visited: the fill never enters them.
    let mut seen = solid.to_vec();
    let mut stack = Vec::new();
    for k in 0..nz {
        for j in 0..ny {
            let c = mesh.cell_id(0, j, k);
            if !seen[c] {
                seen[c] = true;
                stack.push((0, j, k));
            }
        }
    }
    while let Some((i, j, k)) = stack.pop() {
        if i == nx - 1 {
            return true;
        }
        let faces = [
            (i > 0).then(|| (i - 1, j, k)),
            (i + 1 < nx).then_some((i + 1, j, k)),
            (j > 0).then(|| (i, j - 1, k)),
            (j + 1 < ny).then_some((i, j + 1, k)),
            (k > 0).then(|| (i, j, k - 1)),
            (k + 1 < nz).then_some((i, j, k + 1)),
        ];
        for (a, b, c) in faces.into_iter().flatten() {
            let n = mesh.cell_id(a, b, c);
            if !seen[n] {
                seen[n] = true;
                stack.push((a, b, c));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UseCaseConfig;
    use proptest::prelude::*;

    /// The lexicographic SOR loop, verbatim: the oracle both wavefront
    /// kernels must match bit for bit.
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

    /// The kernels this host can run: the scalar one, and the AVX2 one
    /// where the host has AVX2.
    fn kernels() -> Vec<(&'static str, bool)> {
        let mut kernels = vec![("scalar", false)];
        if avx2_available() {
            kernels.push(("avx2", true));
        }
        kernels
    }

    /// Runs one kernel and the oracle on one mask and compares the
    /// potential bit for bit and the sweep count exactly.
    fn same_as_oracle(
        mesh: &StructuredMesh,
        solid: &[bool],
        tol: f64,
        max_iters: usize,
        vector: bool,
    ) -> Result<usize, String> {
        let (phi, iters) = relax(mesh, solid, tol, max_iters, vector);
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
            for (kernel, vector) in kernels() {
                let iters = same_as_oracle(&mesh, &solid, cfg.prerun_tol, MAX_ITERS, vector)
                    .unwrap_or_else(|e| panic!("{name}, {kernel}: {e}"));
                assert_eq!(iters, sweeps, "{name}, {kernel}");
            }
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

        /// Each wavefront kernel is the lexicographic loop, bit for bit:
        /// solid lines, uncoupled fluid cells, single-column (`nx == 1`)
        /// and single-row (`ny == 1`) meshes, and meshes whose every
        /// diagonal is shorter than one vector (`ny < 4`) included.
        #[test]
        fn schedule_matches_the_lexicographic_oracle(
            dims in (1usize..40, 1usize..40, 1usize..5),
            shape in 0usize..4,
            seed in 0u64..u64::MAX,
            density in 0.0f64..0.6,
            lines in 0usize..3,
            tight in 0usize..2,
        ) {
            let (nx, ny, nz) = match shape {
                1 => (1, dims.1, dims.2),
                2 => (dims.0, 1, dims.2),
                3 => (dims.0, 1 + dims.1 % 3, dims.2),
                _ => dims,
            };
            let mesh = StructuredMesh::new(nx, ny, nz, 2.0, 1.0, 0.25);
            let solid = random_mask(&mesh, seed, density, lines);
            let tol = [1e-6, 1e-9][tight];
            for (kernel, vector) in kernels() {
                let checked = same_as_oracle(&mesh, &solid, tol, 2_000, vector);
                prop_assert!(
                    checked.is_ok(),
                    "{} {}x{}x{} tol {}: {:?}", kernel, nx, ny, nz, tol, checked
                );
            }
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
