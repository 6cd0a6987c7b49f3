//! Pick-freeze experiment design (paper Section 3.2).
//!
//! Two independent `n × p` sample matrices `A` and `B` are drawn from the
//! parameter space.  For each `k ∈ [1, p]`, `C^k` equals `A` with column `k`
//! replaced by column `k` of `B`.  Row `i` of all `p + 2` matrices forms one
//! *simulation group* of `p + 2` parameter sets, run synchronously so the
//! server can update every Sobol' index from a single timestep's results and
//! then discard the data.
//!
//! The rows of `(A, B)` are i.i.d., so it is statistically valid to extend a
//! design with freshly drawn rows ([`PickFreeze::extend_rows`]) when
//! convergence is not reached (paper Section 3.4).  A failed group is
//! restarted with its own row, never a redrawn one (Section 4.2.2).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::param::ParameterSpace;

/// Which member of a simulation group a given simulation is.
///
/// Group `i` runs `f(A_i)`, `f(B_i)` and `f(C^k_i)` for `k ∈ [0, p)`.
/// The wire format and the server bookkeeping identify each simulation by
/// this role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulationRole {
    /// Row of matrix `A`.
    MatrixA,
    /// Row of matrix `B`.
    MatrixB,
    /// Row of matrix `C^k` (0-based parameter index).
    MatrixC(usize),
}

impl SimulationRole {
    /// Enumerates the `p + 2` roles in canonical group order
    /// `[A, B, C^0, …, C^{p−1}]`.
    pub fn all(p: usize) -> Vec<SimulationRole> {
        let mut v = Vec::with_capacity(p + 2);
        v.push(SimulationRole::MatrixA);
        v.push(SimulationRole::MatrixB);
        v.extend((0..p).map(SimulationRole::MatrixC));
        v
    }

    /// Canonical position of this role inside a group (`A`=0, `B`=1,
    /// `C^k`=2+k).
    pub fn index(&self) -> usize {
        match *self {
            SimulationRole::MatrixA => 0,
            SimulationRole::MatrixB => 1,
            SimulationRole::MatrixC(k) => 2 + k,
        }
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    /// Panics if `idx >= p + 2`.
    pub fn from_index(idx: usize, p: usize) -> SimulationRole {
        match idx {
            0 => SimulationRole::MatrixA,
            1 => SimulationRole::MatrixB,
            k if k < p + 2 => SimulationRole::MatrixC(k - 2),
            _ => panic!("role index {idx} out of range for p = {p}"),
        }
    }
}

/// The `p + 2` parameter sets of one simulation group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRows {
    group_id: usize,
    /// Rows in canonical role order `[A_i, B_i, C^0_i, …]`.
    rows: Vec<Vec<f64>>,
}

impl GroupRows {
    /// The group identifier (row index in the design).
    pub fn group_id(&self) -> usize {
        self.group_id
    }

    /// All `p + 2` parameter sets in canonical role order.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The parameter set for a given role.
    pub fn row(&self, role: SimulationRole) -> &[f64] {
        &self.rows[role.index()]
    }

    /// Number of simulations in the group (`p + 2`).
    pub fn size(&self) -> usize {
        self.rows.len()
    }
}

/// A pick-freeze design: matrices `A` and `B` (row-major `n × p`).
#[derive(Debug, Clone, PartialEq)]
pub struct PickFreeze {
    p: usize,
    a: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
}

impl PickFreeze {
    /// Draws `n` rows for `A` and `B` from `space`, deterministically from
    /// `seed`.
    ///
    /// # Panics
    /// Panics if the parameter space is empty.
    pub fn generate(n: usize, space: &ParameterSpace, seed: u64) -> Self {
        assert!(space.dim() > 0, "parameter space must not be empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = (0..n).map(|_| space.sample_row(&mut rng)).collect();
        let b = (0..n).map(|_| space.sample_row(&mut rng)).collect();
        Self {
            p: space.dim(),
            a,
            b,
        }
    }

    /// Builds a design from explicit matrices (for tests and replay).
    ///
    /// # Panics
    /// Panics if shapes are inconsistent.
    pub fn from_matrices(a: Vec<Vec<f64>>, b: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            a.len(),
            b.len(),
            "A and B must have the same number of rows"
        );
        assert!(!a.is_empty(), "design must have at least one row");
        let p = a[0].len();
        assert!(p > 0, "design must have at least one parameter");
        for row in a.iter().chain(b.iter()) {
            assert_eq!(row.len(), p, "ragged design matrix");
        }
        Self { p, a, b }
    }

    /// Number of parameters `p`.
    pub fn dim(&self) -> usize {
        self.p
    }

    /// Number of rows `n` (equals the number of simulation groups).
    pub fn n_rows(&self) -> usize {
        self.a.len()
    }

    /// Number of simulations in the whole study: `n × (p + 2)`.
    pub fn n_simulations(&self) -> usize {
        self.n_rows() * (self.p + 2)
    }

    /// Row `i` of matrix `A`.
    pub fn row_a(&self, i: usize) -> &[f64] {
        &self.a[i]
    }

    /// Row `i` of matrix `B`.
    pub fn row_b(&self, i: usize) -> &[f64] {
        &self.b[i]
    }

    /// Row `i` of matrix `C^k`: `A_i` with coordinate `k` from `B_i`.
    pub fn row_c(&self, i: usize, k: usize) -> Vec<f64> {
        assert!(
            k < self.p,
            "parameter index {k} out of range (p = {})",
            self.p
        );
        let mut row = self.a[i].clone();
        row[k] = self.b[i][k];
        row
    }

    /// The `p + 2` parameter sets of group `i` in canonical role order.
    pub fn group(&self, i: usize) -> GroupRows {
        let mut rows = Vec::with_capacity(self.p + 2);
        rows.push(self.a[i].clone());
        rows.push(self.b[i].clone());
        for k in 0..self.p {
            rows.push(self.row_c(i, k));
        }
        GroupRows { group_id: i, rows }
    }

    /// Iterates over all simulation groups.
    pub fn groups(&self) -> impl Iterator<Item = GroupRows> + '_ {
        (0..self.n_rows()).map(|i| self.group(i))
    }

    /// Appends `extra` freshly drawn rows (adaptive continuation,
    /// paper Section 3.4).  Returns the ids of the new groups.
    pub fn extend_rows(&mut self, extra: usize, space: &ParameterSpace, seed: u64) -> Vec<usize> {
        assert_eq!(space.dim(), self.p, "parameter space dimension changed");
        let mut rng = StdRng::seed_from_u64(seed);
        let start = self.n_rows();
        for _ in 0..extra {
            self.a.push(space.sample_row(&mut rng));
            self.b.push(space.sample_row(&mut rng));
        }
        (start..self.n_rows()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;

    fn space3() -> ParameterSpace {
        ParameterSpace::new(vec![
            Parameter::uniform("x1", 0.0, 1.0),
            Parameter::uniform("x2", 0.0, 1.0),
            Parameter::uniform("x3", 0.0, 1.0),
        ])
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let s = space3();
        let d1 = PickFreeze::generate(10, &s, 99);
        let d2 = PickFreeze::generate(10, &s, 99);
        let d3 = PickFreeze::generate(10, &s, 100);
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn a_and_b_are_distinct_samples() {
        let d = PickFreeze::generate(5, &space3(), 1);
        for i in 0..5 {
            assert_ne!(d.row_a(i), d.row_b(i));
        }
    }

    #[test]
    fn ck_row_mixes_a_and_b_correctly() {
        let a = vec![vec![1.0, 2.0, 3.0]];
        let b = vec![vec![10.0, 20.0, 30.0]];
        let d = PickFreeze::from_matrices(a, b);
        assert_eq!(d.row_c(0, 0), vec![10.0, 2.0, 3.0]);
        assert_eq!(d.row_c(0, 1), vec![1.0, 20.0, 3.0]);
        assert_eq!(d.row_c(0, 2), vec![1.0, 2.0, 30.0]);
    }

    #[test]
    fn group_has_p_plus_2_rows_in_canonical_order() {
        let d = PickFreeze::generate(4, &space3(), 5);
        let g = d.group(2);
        assert_eq!(g.size(), 5);
        assert_eq!(g.group_id(), 2);
        assert_eq!(g.row(SimulationRole::MatrixA), d.row_a(2));
        assert_eq!(g.row(SimulationRole::MatrixB), d.row_b(2));
        assert_eq!(g.row(SimulationRole::MatrixC(1)), d.row_c(2, 1).as_slice());
        assert_eq!(d.n_simulations(), 4 * 5);
    }

    #[test]
    fn roles_roundtrip_through_indices() {
        for role in SimulationRole::all(6) {
            assert_eq!(SimulationRole::from_index(role.index(), 6), role);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn role_index_out_of_range_panics() {
        SimulationRole::from_index(9, 6);
    }

    #[test]
    fn extend_rows_appends_new_independent_groups() {
        let s = space3();
        let mut d = PickFreeze::generate(3, &s, 7);
        let before = d.clone();
        let new_ids = d.extend_rows(2, &s, 8);
        assert_eq!(new_ids, vec![3, 4]);
        assert_eq!(d.n_rows(), 5);
        // Existing rows untouched.
        for i in 0..3 {
            assert_eq!(d.row_a(i), before.row_a(i));
            assert_eq!(d.row_b(i), before.row_b(i));
        }
    }
}
