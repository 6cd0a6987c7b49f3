//! Study configuration: everything the launcher needs to run a complete
//! in transit sensitivity analysis.
//!
//! Every field is one a deployment sets.  Limits nobody tunes are
//! constants beside the code that enforces them: the group retry cap
//! ([`MAX_GROUP_RETRIES`](crate::launcher::MAX_GROUP_RETRIES), the
//! paper's Section 4.2.2) and the deadline of one migration step
//! ([`MIGRATION_TIMEOUT`](crate::launcher::MIGRATION_TIMEOUT)).  Link
//! faults (drops, delays) are not a study setting: a test that needs them
//! wraps a link in `melissa_transport::FaultySender` itself.

use std::path::PathBuf;
use std::time::Duration;

use melissa_solver::UseCaseConfig;

/// Configuration of one Melissa study.
///
/// Two knobs select the deployment shape without touching anything else:
/// [`transport`](Self::transport) picks the messaging backend and
/// [`n_shards`](Self::n_shards) the number of parallel server instances.
/// A seeded sequential study produces bit-identical statistics whichever
/// backend carries the frames:
///
/// ```no_run
/// use melissa::{Study, StudyConfig};
/// use melissa_transport::TransportKind;
///
/// let mut config = StudyConfig::tiny();
/// config.n_groups = 16;
/// config.transport = TransportKind::Tcp; // real loopback sockets
/// config.n_shards = 4;                   // four full server instances
/// config.max_concurrent_groups = 1;      // sequential ⇒ bit-reproducible
/// let output = Study::new(config).run().expect("study failed");
/// assert_eq!(output.report.n_shards, 4);
/// ```
///
/// With `n_shards > 1` a seeded group-hash router assigns every group to
/// exactly one shard and a reduction tree merges the shard statistics at
/// study end — see [`crate::shard`] for the routing and reduction
/// guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Number of simulation groups `n` (design rows).  The paper's study
    /// uses 1000 groups of `p + 2 = 8` simulations.
    pub n_groups: usize,
    /// Messaging backend: in-process channels (default) or real TCP
    /// loopback sockets.  A seeded study produces bit-identical
    /// statistics over either backend.
    pub transport: melissa_transport::TransportKind,
    /// Number of parallel server instances (shards).  `1` (default) runs
    /// the classic single Melissa Server; `N > 1` runs `N` full server
    /// instances that each ingest the disjoint group subset a seeded
    /// group-hash router assigns them, merged by a reduction tree at
    /// study end ([`crate::shard`]).
    pub n_shards: usize,
    /// Seed of the group-hash router (recorded here so the
    /// group-to-shard assignment is stable across restarts: a restored
    /// shard sees exactly the groups it owned before the failure).
    pub shard_seed: u64,
    /// Solver/use-case configuration (mesh, physics, timesteps).
    pub solver: UseCaseConfig,
    /// Ranks per simulation (the paper runs each Code_Saturne instance on
    /// 64 cores).
    pub ranks_per_simulation: usize,
    /// Number of parallel server worker processes.
    pub server_workers: usize,
    /// High-water mark (frames) of every data link.
    pub hwm: usize,
    /// Maximum simulation groups running concurrently (the stand-in for
    /// the machine's node budget).
    pub max_concurrent_groups: usize,
    /// RNG seed for the pick-freeze design.
    pub seed: u64,
    /// Inter-message timeout after which the server declares a group
    /// unfinished (paper Section 5.4 uses 300 s; scaled down for live
    /// runs).
    pub group_timeout: Duration,
    /// Launcher-side server heartbeat timeout.
    pub server_timeout: Duration,
    /// Interval between server checkpoints (paper: 600 s).
    pub checkpoint_interval: Duration,
    /// Directory for checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Optional convergence control: cancel remaining groups once the
    /// widest 95 % CI over all tracked indices drops below this
    /// (paper Sections 3.4 / 4.1.5).  `None` disables early stopping.
    pub target_ci_width: Option<f64>,
    /// Ignore Sobol' CIs on cells whose output variance is below this when
    /// evaluating convergence (the paper's "no sense where Var(Y) ≈ 0").
    pub ci_variance_floor: f64,
    /// Optional order-statistics convergence control, mirroring
    /// [`target_ci_width`](Self::target_ci_width): cancel remaining
    /// groups once the widest possible next Robbins–Monro quantile step —
    /// aggregated worker-wise, shard-wise and over every tracked
    /// probability, so studies tracking extreme percentiles (1 %/99 %)
    /// stop on their *slowest* estimate — drops below this.  When both
    /// targets are set the study stops only once **both** signals have
    /// converged.  `None` disables quantile-driven stopping.
    pub target_quantile_step: Option<f64>,
    /// Hard wall limit on the whole study (safety net for tests; a real
    /// deployment would use the batch system's walltime).
    pub wall_limit: Duration,
    /// Wire compression of the data links (TCP backends only; the
    /// in-process backend moves frames by reference and ignores it).
    /// [`Transpose`](melissa_transport::WireCompression::Transpose) is
    /// lossless: a compressed seeded study is bit-identical to an
    /// uncompressed one.
    pub wire_compression: melissa_transport::WireCompression,
    /// Thresholds for per-cell exceedance-probability statistics (the
    /// paper's "other iterative statistics", Section 4.1).
    pub thresholds: Vec<f64>,
    /// Target probabilities for per-cell Robbins–Monro quantile maps
    /// (the quantile follow-up paper, arXiv:1905.04180).  Defaults to the
    /// seven probabilities of its EDF-scale study; empty disables order
    /// statistics.
    pub quantile_probs: Vec<f64>,
    /// Live telemetry: when `true` (default) every shard runs a
    /// lock-free metrics registry, a typed event journal, and a
    /// `telemetry/shard<k>` scrape endpoint (see `melissa-telemetry`).
    /// Disabling removes even the residual ingest-path cost (a clock
    /// read and two relaxed atomic adds per sweep).
    pub telemetry: bool,
}

// Every field travels, so a daemon-run study is the byte-for-byte
// configuration its tenant submitted.
melissa_transport::wire_struct!(StudyConfig {
    n_groups,
    transport,
    n_shards,
    shard_seed,
    solver,
    ranks_per_simulation,
    server_workers,
    hwm,
    max_concurrent_groups,
    seed,
    group_timeout,
    server_timeout,
    checkpoint_interval,
    checkpoint_dir,
    target_ci_width,
    ci_variance_floor,
    target_quantile_step,
    wall_limit,
    wire_compression,
    thresholds,
    quantile_probs,
    telemetry,
});

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            n_groups: 50,
            transport: melissa_transport::TransportKind::InProcess,
            n_shards: 1,
            shard_seed: 0x6d65_6c69_7373_6121, // "melissa!"
            solver: UseCaseConfig::default(),
            ranks_per_simulation: 4,
            server_workers: 8,
            hwm: 64,
            max_concurrent_groups: 4,
            seed: 2017,
            group_timeout: Duration::from_secs(5),
            server_timeout: Duration::from_secs(10),
            checkpoint_interval: Duration::from_secs(60),
            checkpoint_dir: std::env::temp_dir().join("melissa-checkpoints"),
            target_ci_width: None,
            ci_variance_floor: 1e-12,
            target_quantile_step: None,
            wall_limit: Duration::from_secs(600),
            wire_compression: melissa_transport::WireCompression::Off,
            thresholds: vec![0.5],
            quantile_probs: melissa_stats::quantiles::PAPER_PROBS.to_vec(),
            telemetry: true,
        }
    }
}

impl StudyConfig {
    /// A minimal configuration for fast tests.
    pub fn tiny() -> Self {
        Self {
            n_groups: 8,
            solver: UseCaseConfig::tiny(),
            ranks_per_simulation: 2,
            server_workers: 3,
            hwm: 32,
            max_concurrent_groups: 2,
            group_timeout: Duration::from_millis(1500),
            server_timeout: Duration::from_secs(5),
            checkpoint_interval: Duration::from_secs(3600),
            wall_limit: Duration::from_secs(120),
            ..Self::default()
        }
    }

    /// Number of simulations per group (`p + 2`, with `p = 6` for the tube
    /// bundle use case).
    pub fn group_size(&self) -> usize {
        melissa_solver::injection::PARAM_NAMES.len() + 2
    }

    /// Total simulations in the study.
    pub fn n_simulations(&self) -> usize {
        self.n_groups * self.group_size()
    }

    /// Validates cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_groups == 0 {
            return Err("study needs at least one group".into());
        }
        if self.server_workers == 0 {
            return Err("server needs at least one worker".into());
        }
        if self.n_shards == 0 {
            return Err("study needs at least one shard".into());
        }
        self.solver.validate()?;
        if self.server_workers > self.solver.mesh().n_cells() {
            return Err("more server workers than mesh cells".into());
        }
        if self.ranks_per_simulation == 0 || self.ranks_per_simulation > self.solver.ny {
            return Err(format!(
                "ranks_per_simulation must be in 1..={} (y rows)",
                self.solver.ny
            ));
        }
        if self.max_concurrent_groups == 0 {
            return Err("need at least one concurrent group".into());
        }
        if self.hwm == 0 {
            return Err("HWM must be at least 1".into());
        }
        for &q in &self.quantile_probs {
            if !(q > 0.0 && q < 1.0) {
                return Err(format!("quantile probability {q} outside (0, 1)"));
            }
        }
        if let Some(step) = self.target_quantile_step {
            if step.is_nan() || step <= 0.0 {
                return Err(format!("target_quantile_step {step} must be positive"));
            }
            if self.quantile_probs.is_empty() {
                return Err(
                    "target_quantile_step needs quantile_probs (order statistics disabled)".into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        StudyConfig::default().validate().unwrap();
        StudyConfig::tiny().validate().unwrap();
    }

    #[test]
    fn group_size_matches_paper() {
        // Six parameters ⇒ groups of eight simulations (Section 5.2).
        assert_eq!(StudyConfig::default().group_size(), 8);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = StudyConfig::tiny();
        c.n_groups = 0;
        assert!(c.validate().is_err());

        let mut c = StudyConfig::tiny();
        c.ranks_per_simulation = 10_000;
        assert!(c.validate().is_err());

        let mut c = StudyConfig::tiny();
        c.hwm = 0;
        assert!(c.validate().is_err());

        let mut c = StudyConfig::tiny();
        c.quantile_probs = vec![0.5, 1.0];
        assert!(c.validate().is_err());

        let mut c = StudyConfig::tiny();
        c.n_shards = 0;
        assert!(c.validate().is_err());

        let mut c = StudyConfig::tiny();
        c.target_quantile_step = Some(0.0);
        assert!(c.validate().is_err());

        let mut c = StudyConfig::tiny();
        c.target_quantile_step = Some(0.05);
        c.quantile_probs.clear();
        assert!(c.validate().is_err());

        // Tube columns block every row: the pre-run could carry no flow.
        let mut c = StudyConfig::tiny();
        (c.solver.nx, c.solver.ny, c.solver.nz) = (8, 4, 1);
        assert!(c.validate().unwrap_err().contains("no fluid path"));

        let mut c = StudyConfig::tiny();
        c.solver.nx = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_quantile_probs_match_followup_paper() {
        let c = StudyConfig::default();
        assert_eq!(c.quantile_probs.len(), 7);
        assert_eq!(c.quantile_probs[3], 0.5, "median is tracked by default");
    }
}
