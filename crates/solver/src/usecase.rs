//! Study configuration for the tube-bundle use case.
//!
//! The paper's experiment: 9 603 840 hexahedra, 100 timesteps, six
//! parameters, 1000 groups of 8 simulations.  The reproduction keeps the
//! same structure on a configurable (smaller) mesh; the defaults below are
//! sized so a full live study runs on a workstation.

use melissa_mesh::StructuredMesh;

use crate::bundle::TubeBundle;
use crate::flow::FrozenFlow;

/// The loosest pre-run tolerance [`UseCaseConfig::validate`] admits.  A
/// looser one can stop the solve far enough from convergence that the
/// inlet carries no net flow in: at 0.1, 31 of 4 260 meshes up to
/// 29 × 15 × 3 with a fluid path did so, and at 1e-2 none.
const MAX_PRERUN_TOL: f64 = 1e-6;

/// Geometry, physics and discretisation of the use case.
#[derive(Debug, Clone, PartialEq)]
pub struct UseCaseConfig {
    /// Cells along the flow direction.
    pub nx: usize,
    /// Cells across the channel.
    pub ny: usize,
    /// Cells along the tube axes.
    pub nz: usize,
    /// Channel length.
    pub lx: f64,
    /// Channel height.
    pub ly: f64,
    /// Channel depth.
    pub lz: f64,
    /// Mean inlet velocity.
    pub u_inlet: f64,
    /// Dye diffusivity.
    pub diffusivity: f64,
    /// Number of output timesteps (the paper uses 100; every output is sent
    /// to Melissa Server).
    pub n_timesteps: usize,
    /// Total simulated time; sized so the dye front crosses the whole
    /// domain within the run (the Fig. 7 interpretation depends on it).
    pub total_time: f64,
    /// SOR tolerance of the pre-run.
    pub prerun_tol: f64,
}

melissa_transport::wire_struct!(UseCaseConfig {
    nx,
    ny,
    nz,
    lx,
    ly,
    lz,
    u_inlet,
    diffusivity,
    n_timesteps,
    total_time,
    prerun_tol,
});

impl Default for UseCaseConfig {
    fn default() -> Self {
        Self {
            nx: 64,
            ny: 32,
            nz: 4,
            lx: 2.0,
            ly: 1.0,
            lz: 0.25,
            u_inlet: 1.0,
            diffusivity: 1e-3,
            n_timesteps: 100,
            total_time: 2.5,
            prerun_tol: 1e-9,
        }
    }
}

impl UseCaseConfig {
    /// A coarse configuration for fast unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            nx: 24,
            ny: 12,
            nz: 2,
            n_timesteps: 20,
            ..Self::default()
        }
    }

    /// Builds the mesh.
    pub fn mesh(&self) -> StructuredMesh {
        StructuredMesh::new(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)
    }

    /// Builds the tube bundle for this channel.
    pub fn bundle(&self) -> TubeBundle {
        TubeBundle::for_channel(self.lx, self.ly)
    }

    /// Checks what the pre-run needs: a mesh of at least one cell per axis
    /// with positive, finite extents, whose fluid cells join the inlet
    /// column to the outlet column through shared faces, and a tolerance
    /// in `(0, 1e-6]`.  Without such a path, or with a looser tolerance,
    /// the inlet may carry no net flow in, and [`prerun`](Self::prerun)
    /// cannot scale its fluxes to `u_inlet`.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.prerun_tol > 0.0 && self.prerun_tol <= MAX_PRERUN_TOL) {
            return Err(format!(
                "prerun_tol {} outside (0, {MAX_PRERUN_TOL}]",
                self.prerun_tol
            ));
        }
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(format!("mesh {nx}x{ny}x{nz} has an empty axis"));
        }
        for (axis, l) in [("lx", self.lx), ("ly", self.ly), ("lz", self.lz)] {
            if !(l.is_finite() && l > 0.0) {
                return Err(format!(
                    "channel extent {axis} = {l} is not positive and finite"
                ));
            }
        }
        let mesh = self.mesh();
        if !crate::flow::inlet_reaches_outlet(&mesh, &self.bundle().solid_mask(&mesh)) {
            return Err(format!(
                "the tubes block the {nx}x{ny}x{nz} mesh: no fluid path joins the inlet to the outlet"
            ));
        }
        Ok(())
    }

    /// Runs the pre-run (the frozen-flow solve).  This is the analogue of
    /// the paper's single 4000-timestep steady-state simulation.
    pub fn prerun(&self) -> FrozenFlow {
        FrozenFlow::solve(&self.mesh(), &self.bundle(), self.u_inlet, self.prerun_tol)
    }

    /// Output interval in simulated time.
    pub fn output_interval(&self) -> f64 {
        self.total_time / self.n_timesteps as f64
    }

    /// Bytes of one per-timestep field message for the whole mesh
    /// (f64 payload) — the unit of the paper's "48 TB avoided" accounting.
    pub fn field_bytes(&self) -> u64 {
        (self.nx * self.ny * self.nz * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let cfg = UseCaseConfig::default();
        let mesh = cfg.mesh();
        assert_eq!(mesh.n_cells(), 64 * 32 * 4);
        assert_eq!(cfg.field_bytes(), (64 * 32 * 4 * 8) as u64);
        assert!((cfg.output_interval() - 0.025).abs() < 1e-15);
    }

    #[test]
    fn blocked_or_degenerate_geometry_is_rejected() {
        UseCaseConfig::default().validate().unwrap();
        UseCaseConfig::tiny().validate().unwrap();
        // Tube columns at x = 3 and x = 5 block all four rows.
        let mut blocked = UseCaseConfig::tiny();
        (blocked.nx, blocked.ny, blocked.nz) = (8, 4, 1);
        let err = blocked.validate().unwrap_err();
        assert!(err.contains("no fluid path"), "{err}");
        let mut empty = UseCaseConfig::tiny();
        empty.ny = 0;
        assert!(empty.validate().is_err());
        let mut flat = UseCaseConfig::tiny();
        flat.lz = f64::NAN;
        assert!(flat.validate().is_err());
        for tol in [0.0, 1e-3, f64::NAN] {
            let loose = UseCaseConfig {
                prerun_tol: tol,
                ..UseCaseConfig::tiny()
            };
            assert!(loose.validate().is_err(), "prerun_tol {tol}");
        }
    }

    /// Every small geometry `validate` admits gets through the pre-run:
    /// the inlet carries flow in, so the normalisation does not panic.
    #[test]
    fn every_validated_small_geometry_gets_through_the_prerun() {
        let mut admitted = 0;
        for (nx, ny, nz) in
            (1..14).flat_map(|nx| (1..9).flat_map(move |ny| (1..3).map(move |nz| (nx, ny, nz))))
        {
            for prerun_tol in [1e-9, MAX_PRERUN_TOL] {
                let cfg = UseCaseConfig {
                    nx,
                    ny,
                    nz,
                    prerun_tol,
                    ..UseCaseConfig::tiny()
                };
                if cfg.validate().is_ok() {
                    let flow = cfg.prerun();
                    assert!(flow.flux_x.iter().all(|f| f.is_finite()), "{nx}x{ny}x{nz}");
                    admitted += 1;
                }
            }
        }
        assert!(admitted > 200, "{admitted} configurations admitted");
    }

    #[test]
    fn tiny_config_is_small() {
        let cfg = UseCaseConfig::tiny();
        assert!(cfg.mesh().n_cells() < 1000);
        assert!(cfg.n_timesteps <= 20);
    }
}
