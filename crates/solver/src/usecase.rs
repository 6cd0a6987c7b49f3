//! Study configuration for the tube-bundle use case.
//!
//! The paper's experiment: 9 603 840 hexahedra, 100 timesteps, six
//! parameters, 1000 groups of 8 simulations.  The reproduction keeps the
//! same structure on a configurable (smaller) mesh; the defaults below are
//! sized so a full live study runs on a workstation.

use melissa_mesh::StructuredMesh;

use crate::bundle::TubeBundle;
use crate::flow::FrozenFlow;

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
    fn tiny_config_is_small() {
        let cfg = UseCaseConfig::tiny();
        assert!(cfg.mesh().n_cells() < 1000);
        assert!(cfg.n_timesteps <= 20);
    }
}
