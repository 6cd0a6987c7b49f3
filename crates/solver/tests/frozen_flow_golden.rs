//! Golden digest of the frozen flow.
//!
//! Every study starts from `UseCaseConfig::prerun()`, and every frame a
//! study sends is computed on its fluxes, so a pre-run change that is not
//! bit-identical changes every statistic downstream.  These constants
//! were captured from the lexicographic SOR loop, kept as the
//! `relax_lexicographic` test oracle in `flow.rs`; they must never be
//! regenerated from the code under test.

use melissa_solver::{FrozenFlow, UseCaseConfig};

fn fnv1a64(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// FNV-1a over the bits of the three flux arrays, the solid mask and the
/// iteration count, each array prefixed by its length.
fn flow_digest(flow: &FrozenFlow) -> u64 {
    let mut h = 0xcbf29ce484222325;
    for flux in [&flow.flux_x, &flow.flux_y, &flow.flux_z] {
        h = fnv1a64(h, &(flux.len() as u64).to_le_bytes());
        for f in flux.iter() {
            h = fnv1a64(h, &f.to_bits().to_le_bytes());
        }
    }
    h = fnv1a64(h, &(flow.solid.len() as u64).to_le_bytes());
    for &s in &flow.solid {
        h = fnv1a64(h, &[u8::from(s)]);
    }
    fnv1a64(h, &(flow.prerun_iterations as u64).to_le_bytes())
}

#[test]
fn default_flow_matches_its_golden_digest() {
    let flow = UseCaseConfig::default().prerun();
    assert_eq!(flow.prerun_iterations, 884);
    assert_eq!(flow_digest(&flow), 0x884a_b181_a941_9045);
}

#[test]
fn tiny_flow_matches_its_golden_digest() {
    let flow = UseCaseConfig::tiny().prerun();
    assert_eq!(flow.prerun_iterations, 133);
    assert_eq!(flow_digest(&flow), 0xe5ba_8f1f_cff3_a287);
}
