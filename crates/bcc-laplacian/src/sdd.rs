//! Gremban reduction: solving symmetric diagonally dominant (SDD) systems
//! with the Laplacian solver (used by Lemma 5.1 for the flow LP's
//! `AᵀDA` systems).
//!
//! Given an SDD matrix `M`, split it into its negative off-diagonal part
//! `M_n`, positive off-diagonal part `M_p`, the diagonal `C₁` of absolute
//! off-diagonal row sums and the excess diagonal `C₂ = diag(M) − C₁ ≥ 0`.
//! The `2n × 2n` matrix
//!
//! ```text
//! L = [ C₁ + C₂/2 + M_n      −C₂/2 − M_p    ]
//!     [ −C₂/2 − M_p          C₁ + C₂/2 + M_n ]
//! ```
//!
//! is a genuine graph Laplacian, and an (approximate) solution of
//! `L·[x₁; x₂] = [b; −b]` yields `x = (x₁ − x₂)/2` with `M x ≈ b`.
//! In the Broadcast Congested Clique, physical vertex `i` simulates both
//! virtual vertices `i` and `i + n`, doubling the round count of each step
//! (Section 5 of the paper).

use bcc_graph::Graph;
use bcc_runtime::Network;
use bcc_sparsifier::SparsifierConfig;

use crate::error::LaplacianError;
use crate::solver::{LaplacianSolver, ScratchArena};

/// A symmetric diagonally dominant matrix stored as symmetric COO triplets.
#[derive(Debug, Clone, PartialEq)]
pub struct SddMatrix {
    n: usize,
    /// Diagonal entries.
    diagonal: Vec<f64>,
    /// Strict upper-triangle off-diagonal entries `(i, j, value)` with `i < j`.
    off_diagonal: Vec<(usize, usize, f64)>,
}

/// Error returned when a matrix is not symmetric diagonally dominant.
#[derive(Debug, Clone, PartialEq)]
pub struct NotSddError(pub String);

impl std::fmt::Display for NotSddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not symmetric diagonally dominant: {}", self.0)
    }
}

impl std::error::Error for NotSddError {}

impl SddMatrix {
    /// Builds an SDD matrix from full symmetric triplets (both `(i, j)` and
    /// `(j, i)` may be present; they must agree). Diagonal dominance is
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`NotSddError`] if the triplets are asymmetric or some row is
    /// not diagonally dominant.
    pub fn from_triplets(
        n: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, NotSddError> {
        let mut diagonal = vec![0.0; n];
        let mut upper: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        let mut lower: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        for (i, j, v) in triplets {
            if i >= n || j >= n {
                return Err(NotSddError(format!("index ({i}, {j}) out of range")));
            }
            if i == j {
                diagonal[i] += v;
            } else if i < j {
                *upper.entry((i, j)).or_insert(0.0) += v;
            } else {
                *lower.entry((j, i)).or_insert(0.0) += v;
            }
        }
        for (&key, &v) in &lower {
            let u = upper.get(&key).copied().unwrap_or(0.0);
            if (u - v).abs() > 1e-9 * (1.0 + u.abs().max(v.abs())) {
                if upper.contains_key(&key) {
                    return Err(NotSddError(format!(
                        "asymmetric entries at {key:?}: {u} vs {v}"
                    )));
                }
                upper.insert(key, v);
            }
        }
        let off_diagonal: Vec<(usize, usize, f64)> = upper
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|((i, j), v)| (i, j, v))
            .collect();
        // Validate dominance, forgiving rounding relative to the row's scale
        // (an absolute slack would accept any row of small enough entries).
        let mut off_sum = vec![0.0; n];
        for &(i, j, v) in &off_diagonal {
            off_sum[i] += v.abs();
            off_sum[j] += v.abs();
        }
        for i in 0..n {
            let slack = 1e-9 * diagonal[i].abs().max(off_sum[i]);
            if diagonal[i] + slack < off_sum[i] {
                return Err(NotSddError(format!(
                    "row {i}: diagonal {} < off-diagonal sum {}",
                    diagonal[i], off_sum[i]
                )));
            }
        }
        Ok(SddMatrix {
            n,
            diagonal,
            off_diagonal,
        })
    }

    /// Dimension of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Applies the matrix to a vector.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y: Vec<f64> = self.diagonal.iter().zip(x).map(|(d, xi)| d * xi).collect();
        for &(i, j, v) in &self.off_diagonal {
            y[i] += v * x[j];
            y[j] += v * x[i];
        }
        y
    }

    /// The excess diagonal `C₂(i,i) = M(i,i) − Σ_{j≠i} |M(i,j)|` (all entries
    /// are non-negative for an SDD matrix).
    pub fn excess_diagonal(&self) -> Vec<f64> {
        let mut excess = self.diagonal.clone();
        for &(i, j, v) in &self.off_diagonal {
            excess[i] -= v.abs();
            excess[j] -= v.abs();
        }
        excess.iter_mut().for_each(|e| *e = e.max(0.0));
        excess
    }

    /// The Gremban graph on `2n` virtual vertices whose Laplacian is `L` from
    /// the module documentation.
    pub fn gremban_graph(&self) -> Graph {
        let n = self.n;
        let mut g = Graph::new(2 * n);
        for &(i, j, v) in &self.off_diagonal {
            if v < 0.0 {
                g.add_edge(i, j, -v);
                g.add_edge(i + n, j + n, -v);
            } else if v > 0.0 {
                g.add_edge(i, j + n, v);
                g.add_edge(j, i + n, v);
            }
        }
        for (i, &d) in self.excess_diagonal().iter().enumerate() {
            if d > 1e-14 {
                g.add_edge(i, i + n, d / 2.0);
            }
        }
        g
    }
}

/// How [`solve_sdd`] and [`solve_sdd_many`] realize the inner Laplacian
/// solve.
#[derive(Debug, Clone)]
pub enum SddSolveMode {
    /// The complete pipeline of Theorem 1.3: run the ad-hoc sparsifier on the
    /// Gremban graph, then preconditioned Chebyshev. Every round is charged.
    Full(SparsifierConfig),
    /// Skip the sparsifier computation and precondition with the (scaled)
    /// Gremban Laplacian itself (`κ = 3`), charging only the per-instance
    /// rounds of Theorem 1.3. This keeps large experiment sweeps tractable
    /// while exercising the identical communication pattern per instance.
    ExactPreconditioner,
}

/// Solves `M x = b` for an SDD matrix `M` via the Gremban reduction and the
/// Broadcast Congested Clique Laplacian solver (Lemma 5.1).
///
/// The virtual `2n`-vertex network is simulated by the `n` physical vertices;
/// the extra factor-of-two rounds are charged explicitly. A one-element
/// [`solve_sdd_many`].
///
/// # Errors
///
/// As for [`solve_sdd_many`].
pub fn solve_sdd(
    net: &mut Network,
    matrix: &SddMatrix,
    b: &[f64],
    epsilon: f64,
    mode: &SddSolveMode,
) -> Result<Vec<f64>, LaplacianError> {
    let mut solved = solve_sdd_many(net, matrix, &[b], epsilon, mode)?;
    Ok(solved.pop().expect("one solution per right-hand side"))
}

/// Solves `M x = b` for every `b` in `rhs`, sharing one Gremban graph and one
/// preconditioner (in [`SddSolveMode::Full`], one sparsifier run) across the
/// batch.
///
/// The right-hand sides `[b; −b]` are solved in lockstep by one
/// [`LaplacianSolver::try_solve_block_into`] on one virtual network. Each is
/// still charged exactly what its own [`solve_sdd`] call would charge, in
/// order: twice the virtual rounds of preprocessing plus its own solve, and
/// their bits. In the BCC every solve still pays for its preprocessing; only
/// the simulator stops repeating it. Solutions and ledgers are bit-identical
/// to solving the right-hand sides one at a time.
///
/// # Errors
///
/// * [`LaplacianError::DimensionMismatch`] — some `b` does not have length
///   `n` (checked before anything is charged).
/// * [`LaplacianError::InvalidEpsilon`] — `epsilon` is not positive, or is
///   NaN (checked before anything is charged; a larger `epsilon` than `1/2`
///   is clamped to `1/2`).
/// * [`LaplacianError::Disconnected`] — the Gremban graph is disconnected.
///   For the flow LP matrices of Section 5 the excess diagonal is strictly
///   positive, which makes it connected; a block-diagonal `M` does not.
pub fn solve_sdd_many<B: AsRef<[f64]>>(
    net: &mut Network,
    matrix: &SddMatrix,
    rhs: &[B],
    epsilon: f64,
    mode: &SddSolveMode,
) -> Result<Vec<Vec<f64>>, LaplacianError> {
    let n = matrix.n();
    if let Some(b) = rhs.iter().find(|b| b.as_ref().len() != n) {
        return Err(LaplacianError::DimensionMismatch {
            expected: n,
            actual: b.as_ref().len(),
        });
    }
    // Checked before `epsilon.min(0.5)` below, which would turn a NaN into ½.
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(LaplacianError::InvalidEpsilon { epsilon });
    }
    let gremban = matrix.gremban_graph();
    // The 2n virtual vertices live on a virtual network; physical vertex i
    // simulates virtual vertices i and i + n, so every virtual round costs two
    // physical rounds, charged below.
    let mut preprocessing_net = Network::clique(net.config(), gremban.n());
    let solver = match mode {
        SddSolveMode::Full(config) => {
            LaplacianSolver::try_preprocess(&mut preprocessing_net, &gremban, config)?
        }
        SddSolveMode::ExactPreconditioner => LaplacianSolver::try_exact_preconditioner(&gremban)?,
    };
    let preprocessing = preprocessing_net.ledger();
    // The right-hand sides [b; −b] as one block: entry i of lane j at i·k + j.
    let lanes = rhs.len();
    let mut block = vec![0.0; gremban.n() * lanes];
    for (j, b) in rhs.iter().enumerate() {
        for (i, &v) in b.as_ref().iter().enumerate() {
            block[i * lanes + j] = v;
            block[(i + n) * lanes + j] = -v;
        }
    }
    let mut virtual_net = Network::clique(net.config(), gremban.n());
    let mut solution = Vec::with_capacity(block.len());
    let mut lane_stats = Vec::with_capacity(lanes);
    solver.try_solve_block_into(
        &mut virtual_net,
        &block,
        lanes,
        epsilon.min(0.5),
        &mut ScratchArena::new(),
        &mut solution,
        &mut lane_stats,
    )?;
    for lane in &lane_stats {
        net.begin_phase("sdd solve (gremban)");
        net.ledger_mut().charge(
            2 * (preprocessing.total_rounds() + lane.rounds),
            preprocessing.total_bits() + lane.bits,
        );
    }
    Ok((0..lanes)
        .map(|j| {
            (0..n)
                .map(|i| (solution[i * lanes + j] - solution[(i + n) * lanes + j]) / 2.0)
                .collect()
        })
        .collect())
}

/// Centralized exact SDD solve (dense), used as ground truth in tests.
pub fn exact_sdd_solve(matrix: &SddMatrix, b: &[f64]) -> Vec<f64> {
    let n = matrix.n();
    let mut dense = bcc_linalg::DenseMatrix::zeros(n, n);
    for (i, &d) in matrix.diagonal.iter().enumerate() {
        dense.add_to(i, i, d);
    }
    for &(i, j, v) in &matrix.off_diagonal {
        dense.add_to(i, j, v);
        dense.add_to(j, i, v);
    }
    dense
        .solve(b)
        .or_else(|| dense.solve_psd(b, false))
        .expect("SDD system is solvable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_linalg::vector;
    use bcc_runtime::ModelConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn strictly_dominant(n: usize, seed: u64) -> SddMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        let mut row_sum = vec![0.0; n];
        for i in 0..n {
            for j in (i + 1)..n {
                // Always keep the path i — i+1 so the sparsity graph (and its
                // Gremban double cover) is connected regardless of the seed.
                if j == i + 1 || rng.gen::<f64>() < 0.4 {
                    let sign: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    let v: f64 = sign * rng.gen_range(0.5..2.0);
                    triplets.push((i, j, v));
                    row_sum[i] += v.abs();
                    row_sum[j] += v.abs();
                }
            }
        }
        for i in 0..n {
            triplets.push((i, i, row_sum[i] + 1.0 + rng.gen::<f64>()));
        }
        SddMatrix::from_triplets(n, triplets).unwrap()
    }

    #[test]
    fn rejects_non_dominant_matrices() {
        let err = SddMatrix::from_triplets(2, [(0, 0, 1.0), (1, 1, 1.0), (0, 1, -5.0)]);
        assert!(err.is_err());
        let err2 =
            SddMatrix::from_triplets(2, [(0, 1, 1.0), (1, 0, 2.0), (0, 0, 3.0), (1, 1, 3.0)]);
        assert!(err2.is_err());
    }

    #[test]
    fn dominance_slack_scales_with_the_row() {
        // Row 0 has diagonal 1e-10 against an off-diagonal sum of 2e-10, at
        // two scales; an absolute slack of 1e-9 accepted the small one.
        for scale in [1.0, 1e10] {
            let entries = [
                (0, 0, 1e-10),
                (0, 1, -2e-10),
                (1, 1, 1.0),
                (1, 2, -0.5),
                (2, 2, 1.0),
            ];
            let err = SddMatrix::from_triplets(3, entries.map(|(i, j, v)| (i, j, v * scale)))
                .expect_err("row 0 is not dominant");
            assert!(err.0.starts_with("row 0:"), "scale {scale}: {err}");
        }
        // Rounding within the slack is forgiven at either scale.
        for scale in [1e-12, 1.0, 1e12] {
            let rounded = (1.0 - 1e-12) * scale;
            let m = SddMatrix::from_triplets(2, [(0, 0, rounded), (1, 1, scale), (0, 1, -scale)]);
            assert!(m.is_ok(), "scale {scale}");
        }
    }

    #[test]
    fn gremban_graph_has_laplacian_structure() {
        let m = strictly_dominant(6, 1);
        let g = m.gremban_graph();
        assert_eq!(g.n(), 12);
        assert!(g.is_connected());
        // Applying the Gremban Laplacian to [x; -x] equals [Mx; -Mx].
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x: Vec<f64> = (0..6).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut stacked = x.clone();
        stacked.extend(x.iter().map(|v| -v));
        let ly = bcc_graph::laplacian::laplacian_apply(&g, &stacked);
        let mx = m.apply(&x);
        for i in 0..6 {
            assert!((ly[i] - mx[i]).abs() < 1e-9, "row {i}");
            assert!((ly[i + 6] + mx[i]).abs() < 1e-9, "row {}", i + 6);
        }
    }

    #[test]
    fn excess_diagonal_is_nonnegative() {
        let m = strictly_dominant(5, 3);
        assert!(m.excess_diagonal().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn sdd_solve_matches_exact_solution() {
        let m = strictly_dominant(8, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x_true: Vec<f64> = (0..8).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = m.apply(&x_true);
        let exact = exact_sdd_solve(&m, &b);
        assert!(vector::approx_eq(&exact, &x_true, 1e-8));

        let mut net = Network::clique(ModelConfig::bcc(), 8);
        let approx = solve_sdd(&mut net, &m, &b, 1e-6, &SddSolveMode::ExactPreconditioner).unwrap();
        assert!(
            vector::approx_eq(&approx, &x_true, 1e-3),
            "{approx:?} vs {x_true:?}"
        );
        assert!(net.ledger().total_rounds() > 0);
    }

    #[test]
    fn sdd_solve_full_pipeline_on_small_instance() {
        let m = strictly_dominant(6, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x_true: Vec<f64> = (0..6).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = m.apply(&x_true);
        let gremban = m.gremban_graph();
        let cfg = SparsifierConfig::laboratory(gremban.n(), gremban.m().max(2), 0.5, 9)
            .with_t(6)
            .with_k(2);
        let mut net = Network::clique(ModelConfig::bcc(), 6);
        let approx = solve_sdd(&mut net, &m, &b, 1e-5, &SddSolveMode::Full(cfg)).unwrap();
        assert!(
            vector::approx_eq(&approx, &x_true, 1e-2),
            "{approx:?} vs {x_true:?}"
        );
    }

    #[test]
    fn positive_off_diagonals_are_handled() {
        // M = [[3, 1], [1, 3]] has a positive off-diagonal entry.
        let m = SddMatrix::from_triplets(2, [(0, 0, 3.0), (1, 1, 3.0), (0, 1, 1.0)]).unwrap();
        let b = vec![4.0, 2.0];
        let exact = exact_sdd_solve(&m, &b);
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let approx = solve_sdd(&mut net, &m, &b, 1e-6, &SddSolveMode::ExactPreconditioner).unwrap();
        assert!(vector::approx_eq(&approx, &exact, 1e-4));
    }

    #[test]
    fn a_disconnected_gremban_graph_is_a_typed_error() {
        // A diagonal M has no off-diagonal edges: its Gremban graph is the n
        // disjoint excess edges i — i + n.
        let m = SddMatrix::from_triplets(2, [(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        for mode in [
            SddSolveMode::ExactPreconditioner,
            SddSolveMode::Full(SparsifierConfig::laboratory(4, 4, 0.5, 1)),
        ] {
            let err = solve_sdd(&mut net, &m, &[1.0, 1.0], 1e-6, &mode).unwrap_err();
            assert_eq!(err, LaplacianError::Disconnected);
        }
        assert_eq!(net.ledger().total_rounds(), 0);
    }

    #[test]
    fn a_non_positive_or_nan_epsilon_is_a_typed_error_before_any_charge() {
        let m = strictly_dominant(4, 9);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        for epsilon in [0.0, -1e-6, f64::NAN, f64::NEG_INFINITY] {
            for mode in [
                SddSolveMode::ExactPreconditioner,
                SddSolveMode::Full(SparsifierConfig::laboratory(8, 8, 0.5, 1)),
            ] {
                let err = solve_sdd(&mut net, &m, &[1.0; 4], epsilon, &mode).unwrap_err();
                let LaplacianError::InvalidEpsilon { epsilon: rejected } = err else {
                    panic!("epsilon {epsilon}: {err:?}");
                };
                assert_eq!(rejected.to_bits(), epsilon.to_bits());
            }
        }
        assert_eq!(net.ledger().total_rounds(), 0);
        assert_eq!(net.ledger().total_operations(), 0);
    }

    #[test]
    fn a_wrong_right_hand_side_length_is_a_typed_error_before_any_charge() {
        let m = strictly_dominant(4, 9);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let rhs = [vec![1.0; 4], vec![1.0; 3]];
        let err = solve_sdd_many(&mut net, &m, &rhs, 1e-6, &SddSolveMode::ExactPreconditioner)
            .unwrap_err();
        assert_eq!(
            err,
            LaplacianError::DimensionMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert_eq!(net.ledger().total_rounds(), 0);
    }

    #[test]
    fn a_nan_right_hand_side_is_a_typed_error_before_any_charge() {
        let m = strictly_dominant(4, 9);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        for mode in [
            SddSolveMode::ExactPreconditioner,
            SddSolveMode::Full(SparsifierConfig::laboratory(8, 8, 0.5, 1)),
        ] {
            let err = solve_sdd(&mut net, &m, &[1.0, f64::NAN, 0.0, 2.0], 1e-6, &mode).unwrap_err();
            assert_eq!(err, LaplacianError::MagnitudeOverflow);
        }
        assert_eq!(net.ledger().total_rounds(), 0);
        assert_eq!(net.ledger().total_operations(), 0);
    }
}
