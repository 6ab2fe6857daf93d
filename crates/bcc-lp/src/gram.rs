//! Scaled constraint matrices and the `(AᵀDA)⁻¹` oracle.
//!
//! Every iteration of the LP solver needs products with `A`, `Aᵀ` and a solve
//! with a Gram matrix `AᵀDA` for a positive diagonal `D`. Theorem 1.4
//! abstracts the latter as an oracle running in `T(n, m)` rounds; for the
//! min-cost-flow LP of Section 5 it is instantiated with the Gremban/SDD
//! Laplacian solver, while generic instances (and ground-truth tests) use a
//! dense local solve. The [`GramSolver`] trait captures that abstraction.

use bcc_linalg::{CsrMatrix, DenseMatrix};
use bcc_runtime::{payload, Network};

use crate::error::LpError;

/// `M = diag(d)·A` for a sparse `A` and positive diagonal `d` (length `m`).
///
/// This is the shape of every matrix the LP solver needs: the rescaled
/// constraint matrices `A_x = Φ''(x)^{-1/2}A` and `W^{1/2−1/p}A_x`.
#[derive(Debug, Clone)]
pub struct ScaledMatrix<'a> {
    a: &'a CsrMatrix,
    d: Vec<f64>,
}

impl<'a> ScaledMatrix<'a> {
    /// Creates `diag(d)·A`.
    ///
    /// # Panics
    ///
    /// Panics if `d` has the wrong length or non-positive entries.
    pub fn new(a: &'a CsrMatrix, d: Vec<f64>) -> Self {
        assert_eq!(d.len(), a.rows(), "one scale per row expected");
        assert!(
            d.iter().all(|&v| v > 0.0 && v.is_finite()),
            "scales must be positive"
        );
        ScaledMatrix { a, d }
    }

    /// Number of rows `m`.
    pub fn m(&self) -> usize {
        self.a.rows()
    }

    /// Number of columns `n`.
    pub fn n(&self) -> usize {
        self.a.cols()
    }

    /// The underlying constraint matrix.
    pub fn a(&self) -> &CsrMatrix {
        self.a
    }

    /// The row scales `d`.
    pub fn scales(&self) -> &[f64] {
        &self.d
    }

    /// `M x = D A x`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.a.matvec(x);
        for (yi, di) in y.iter_mut().zip(&self.d) {
            *yi *= di;
        }
        y
    }

    /// `Mᵀ y = Aᵀ D y`.
    pub fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.m(), "dimension mismatch");
        let scaled: Vec<f64> = y.iter().zip(&self.d).map(|(yi, di)| yi * di).collect();
        self.a.matvec_transpose(&scaled)
    }

    /// The diagonal of `MᵀM = AᵀD²A` viewed as the Gram scales `d²`.
    pub fn gram_diagonal_scales(&self) -> Vec<f64> {
        self.d.iter().map(|v| v * v).collect()
    }
}

/// An oracle that solves `(AᵀDA)x = y` to high precision, charging `T(n, m)`
/// rounds on the network (the assumption of Theorem 1.4).
pub trait GramSolver {
    /// Solves `(Aᵀ·diag(d)·A) x = y`.
    ///
    /// `d` has length `m` (strictly positive), `y` length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::GramSolve`] when the oracle's structural
    /// precondition fails — e.g. `AᵀDA` is not symmetric diagonally dominant
    /// for a solver routing through the Gremban/Laplacian reduction, or the
    /// Gram matrix is singular for a dense solver. The LP driver propagates
    /// the error instead of panicking.
    fn solve(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        y: &[f64],
    ) -> Result<Vec<f64>, LpError>;

    /// Solves `(Aᵀ·diag(d)·A) xᵢ = yᵢ` for every `yᵢ` in `ys`, one Gram
    /// matrix shared by the whole batch (the `k` sketch rows of a
    /// leverage-score evaluation). Charges exactly what the same
    /// [`GramSolver::solve`] calls in order would charge and returns the same
    /// solutions; an implementation may only save the local work of
    /// preparing the matrix once.
    ///
    /// # Errors
    ///
    /// As for [`GramSolver::solve`].
    fn solve_many(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        ys: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, LpError> {
        ys.iter().map(|y| self.solve(net, a, d, y)).collect()
    }

    /// A short description used in experiment reports.
    fn name(&self) -> &'static str {
        "gram-solver"
    }
}

/// Dense local Gram solver: assembles `AᵀDA` (an `n × n` matrix) and solves it
/// exactly.
///
/// Communication accounting: in the BCC each vertex owns the rows of `A`
/// touching it, so assembling its own row of the `n × n` Gram matrix is local;
/// exchanging the right-hand side and the solution costs one coordinate
/// broadcast each, plus `O(log(1/precision))` rounds of iterative refinement
/// in the general (non-SDD) case, which we charge as a small polylogarithmic
/// constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseGramSolver {
    /// Number of refinement sweeps charged per solve.
    pub charged_sweeps: u64,
}

impl DenseGramSolver {
    /// A solver charging the default 8 refinement sweeps.
    pub fn new() -> Self {
        DenseGramSolver { charged_sweeps: 8 }
    }
}

impl GramSolver for DenseGramSolver {
    fn solve(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        y: &[f64],
    ) -> Result<Vec<f64>, LpError> {
        assert_eq!(d.len(), a.rows(), "dimension mismatch");
        assert_eq!(y.len(), a.cols(), "dimension mismatch");
        let bits = u64::from(payload::bits_for_real(1e9, 1e-9));
        for _ in 0..self.charged_sweeps.max(1) {
            net.share_scalars(bits);
        }
        let gram = a.gram_with_diagonal(d);
        gram.solve(y)
            .or_else(|| gram.solve_psd(y, false))
            .ok_or_else(|| LpError::GramSolve {
                solver: self.name(),
                message: "AᵀDA is singular (rank-deficient constraint matrix)".into(),
            })
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

/// Assembles the dense Gram matrix `AᵀDA` (test helper / ground truth).
pub fn dense_gram(a: &CsrMatrix, d: &[f64]) -> DenseMatrix {
    a.gram_with_diagonal(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_linalg::vector;
    use bcc_runtime::ModelConfig;

    fn sample_a() -> CsrMatrix {
        // 4 variables, 2 constraints.
        CsrMatrix::from_triplets(
            4,
            2,
            &[
                (0, 0, 1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (2, 1, 1.0),
                (3, 0, 0.5),
                (3, 1, -0.5),
            ],
        )
    }

    #[test]
    fn scaled_matrix_products_match_dense() {
        let a = sample_a();
        let d = vec![1.0, 2.0, 3.0, 4.0];
        let m = ScaledMatrix::new(&a, d.clone());
        assert_eq!(m.m(), 4);
        assert_eq!(m.n(), 2);
        let x = vec![1.0, -1.0];
        let expected: Vec<f64> = a.matvec(&x).iter().zip(&d).map(|(v, di)| v * di).collect();
        assert_eq!(m.apply(&x), expected);
        let y = vec![1.0, 0.0, -1.0, 2.0];
        // ⟨Mx, y⟩ = ⟨x, Mᵀy⟩.
        let lhs = vector::dot(&m.apply(&x), &y);
        let rhs = vector::dot(&x, &m.apply_transpose(&y));
        assert!((lhs - rhs).abs() < 1e-12);
        assert_eq!(m.gram_diagonal_scales(), vec![1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    #[should_panic]
    fn non_positive_scales_rejected() {
        let a = sample_a();
        let _ = ScaledMatrix::new(&a, vec![1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn dense_gram_solver_inverts_the_gram_matrix() {
        let a = sample_a();
        let d = vec![0.5, 1.5, 2.0, 1.0];
        let solver = DenseGramSolver::new();
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let x_true = vec![2.0, -3.0];
        let y = dense_gram(&a, &d).matvec(&x_true);
        let x = solver.solve(&mut net, &a, &d, &y).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-9));
        assert!(net.ledger().total_rounds() > 0);
        assert_eq!(solver.name(), "dense");
    }
}
