//! Dense matrices and direct solvers.
//!
//! Dense linear algebra plays two roles in this reproduction:
//!
//! 1. **Local computation inside a vertex.** In the Broadcast Congested
//!    Clique, once the sparsifier `H` is known to every vertex, "solving a
//!    Laplacian system involving `L_H`" happens internally (Corollary 2.4) —
//!    the models charge nothing for local work, so any correct local method
//!    is faithful. We use Cholesky/LU factorizations on the (small, sparse)
//!    sparsifier.
//! 2. **Ground truth in tests.** Exact solves and eigenvalue computations on
//!    small instances verify the distributed algorithms.

use crate::vector;

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use bcc_linalg::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
/// let x = a.solve(&[1.0, 2.0]).unwrap();
/// let b = a.matvec(&x);
/// assert!((b[0] - 1.0).abs() < 1e-10 && (b[1] - 2.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut m = DenseMatrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Builds a diagonal matrix from a vector.
    pub fn diag(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = DenseMatrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m.set(i, i, v);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.cols + j] = value;
    }

    /// Adds `value` to entry `(i, j)`.
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.cols + j] += value;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| vector::dot(self.row(i), x))
            .collect()
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    pub fn matvec_transpose(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = self.row(i);
            for j in 0..self.cols {
                out[j] += row[j] * y[i];
            }
        }
        out
    }

    /// Matrix product `A · B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.add_to(i, j, aik * other.get(k, j));
                }
            }
        }
        out
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` if the matrix is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivoting.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut v = x[col];
            for j in (col + 1)..n {
                v -= a[col * n + j] * x[j];
            }
            x[col] = v / a[col * n + col];
        }
        Some(x)
    }

    /// Solves the positive semi-definite system `A x = b` in the least-squares
    /// sense by adding a tiny Tikhonov regularization `λI`, then removing the
    /// mean if `zero_mean` is set (appropriate for Laplacian systems whose
    /// kernel is the all-ones vector).
    pub fn solve_psd(&self, b: &[f64], zero_mean: bool) -> Option<Vec<f64>> {
        let n = self.rows;
        let scale = (0..n).map(|i| self.get(i, i).abs()).fold(0.0f64, f64::max);
        let lambda = (scale.max(1.0)) * 1e-12;
        let mut reg = self.clone();
        for i in 0..n {
            reg.add_to(i, i, lambda);
        }
        let x = reg.solve(b)?;
        Some(if zero_mean {
            vector::remove_mean(&x)
        } else {
            x
        })
    }

    /// Factors the regularized matrix of [`DenseMatrix::solve_psd`] once, so
    /// repeated right-hand sides skip the `O(n³)` elimination. The returned
    /// factorization produces **bit-identical** solutions to calling
    /// `solve_psd` on this matrix: elimination on `A + λI` is independent of
    /// `b`, so recording the pivot order and multipliers and replaying them
    /// on each `b` performs exactly the same arithmetic in the same order.
    ///
    /// Returns `None` when the regularized matrix is numerically singular
    /// (the case where `solve_psd` returns `None`).
    pub fn factor_psd(&self) -> Option<FactoredPsd> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        let n = self.rows;
        // Identical regularization to `solve_psd`.
        let scale = (0..n).map(|i| self.get(i, i).abs()).fold(0.0f64, f64::max);
        let lambda = (scale.max(1.0)) * 1e-12;
        let mut lu = self.data.clone();
        for i in 0..n {
            lu[i * n + i] += lambda;
        }
        let mut pivots = vec![0usize; n];
        for col in 0..n {
            // Partial pivoting — the same scan as `solve`.
            let mut pivot = col;
            let mut best = lu[col * n + col].abs();
            for r in (col + 1)..n {
                let v = lu[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            pivots[col] = pivot;
            if pivot != col {
                for j in 0..n {
                    lu.swap(col * n + j, pivot * n + j);
                }
            }
            let diag = lu[col * n + col];
            for r in (col + 1)..n {
                let factor = lu[r * n + col] / diag;
                if factor != 0.0 {
                    for j in (col + 1)..n {
                        lu[r * n + j] -= factor * lu[col * n + j];
                    }
                }
                // Store the multiplier in the (never again read) lower
                // triangle, including exact zeros: replaying `b` must skip
                // exactly the rows the eliminating solve skipped (a zero
                // multiplier times an infinite entry would produce NaN).
                lu[r * n + col] = factor;
            }
        }
        Some(FactoredPsd { n, lu, pivots })
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite
    /// matrix. Returns the lower-triangular factor, or `None` if the matrix
    /// is not (numerically) positive definite.
    pub fn cholesky(&self) -> Option<DenseMatrix> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Some(l)
    }

    /// Eigen-decomposition of a symmetric matrix by the cyclic Jacobi method.
    /// Returns eigenvalues in ascending order and the corresponding
    /// orthonormal eigenvectors as matrix columns.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetric_eigen(&self) -> (Vec<f64>, DenseMatrix) {
        assert_eq!(self.rows, self.cols, "eigen requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = DenseMatrix::identity(n);
        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a.get(i, j).powi(2);
                }
            }
            if off.sqrt() < 1e-13 * (1.0 + frobenius(&a)) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Apply the rotation to A (both sides) and accumulate in V.
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite eigenvalues"));
        let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut vectors = DenseMatrix::zeros(n, n);
        for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
            for r in 0..n {
                vectors.set(r, new_col, v.get(r, old_col));
            }
        }
        (eigenvalues, vectors)
    }
}

/// The reusable LU factorization produced by [`DenseMatrix::factor_psd`]:
/// the upper triangle of `lu` holds `U`, the strict lower triangle holds the
/// elimination multipliers, and `pivots[col]` is the row swapped into
/// position `col` during partial pivoting. Solving for a new right-hand side
/// costs `O(n²)` and, via [`FactoredPsd::solve_into`], zero allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredPsd {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl FactoredPsd {
    /// The order of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves into a caller-provided buffer without allocating; bit-identical
    /// to [`DenseMatrix::solve_psd`] on the matrix this was factored from.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `out` have the wrong length.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], zero_mean: bool) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        assert_eq!(out.len(), n, "dimension mismatch");
        out.copy_from_slice(b);
        // Replay the recorded row operations on `b` in elimination order.
        for col in 0..n {
            let pivot = self.pivots[col];
            if pivot != col {
                out.swap(col, pivot);
            }
            for r in (col + 1)..n {
                let factor = self.lu[r * n + col];
                if factor == 0.0 {
                    continue;
                }
                out[r] -= factor * out[col];
            }
        }
        // Back substitution against the stored upper triangle.
        for col in (0..n).rev() {
            let mut v = out[col];
            for j in (col + 1)..n {
                v -= self.lu[col * n + j] * out[j];
            }
            out[col] = v / self.lu[col * n + col];
        }
        if zero_mean {
            vector::remove_mean_in_place(out);
        }
    }

    /// [`FactoredPsd::solve_into`] on `lanes` right-hand sides at once, in
    /// the interleaved block layout of
    /// [`crate::vector::remove_lane_means_in_place`]: entry `i` of lane `j`
    /// sits at `i·lanes + j` in both `b` and `out`. Every lane of `out` is
    /// bit-identical to `solve_into` on that lane alone: each row operation
    /// of the replay is applied to all lanes before the next one, so every
    /// lane sees the same operations in the same order, and the lanes'
    /// independent dependency chains interleave. Zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `out` do not hold `n · lanes` entries.
    pub fn solve_block_into(&self, b: &[f64], out: &mut [f64], lanes: usize, zero_mean: bool) {
        let n = self.n;
        assert_eq!(b.len(), n * lanes, "dimension mismatch");
        assert_eq!(out.len(), n * lanes, "dimension mismatch");
        out.copy_from_slice(b);
        if lanes == 0 {
            return;
        }
        for col in 0..n {
            let pivot = self.pivots[col];
            if pivot != col {
                let (upper, lower) = out.split_at_mut(pivot * lanes);
                upper[col * lanes..(col + 1) * lanes].swap_with_slice(&mut lower[..lanes]);
            }
            let (eliminated, rest) = out.split_at_mut((col + 1) * lanes);
            let source = &eliminated[col * lanes..];
            for (r, row) in ((col + 1)..n).zip(rest.chunks_exact_mut(lanes)) {
                let factor = self.lu[r * n + col];
                if factor == 0.0 {
                    continue;
                }
                for (v, s) in row.iter_mut().zip(source) {
                    *v -= factor * s;
                }
            }
        }
        for col in (0..n).rev() {
            let (unsolved, solved) = out.split_at_mut((col + 1) * lanes);
            let row = &mut unsolved[col * lanes..];
            for (j, known) in ((col + 1)..n).zip(solved.chunks_exact(lanes)) {
                let coefficient = self.lu[col * n + j];
                for (v, x) in row.iter_mut().zip(known) {
                    *v -= coefficient * x;
                }
            }
            let diagonal = self.lu[col * n + col];
            for v in row.iter_mut() {
                *v /= diagonal;
            }
        }
        if zero_mean {
            vector::remove_lane_means_in_place(out, lanes);
        }
    }

    /// Allocating convenience wrapper over [`FactoredPsd::solve_into`].
    pub fn solve(&self, b: &[f64], zero_mean: bool) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.solve_into(b, &mut out, zero_mean);
        out
    }
}

fn frobenius(a: &DenseMatrix) -> f64 {
    let mut s = 0.0;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            s += a.get(i, j).powi(2);
        }
    }
    s.sqrt()
}

/// The extreme generalized eigenvalues `(λ_min, λ_max)` of the pencil
/// `A x = λ B x` restricted to the orthogonal complement of `kernel`
/// (pass the all-ones vector for Laplacian pencils, or an empty slice for
/// non-singular pencils). Used to *certify* that a sparsifier satisfies
/// `(1−ε) L_H ≼ L_G ≼ (1+ε) L_H`.
///
/// Both matrices must be symmetric positive semi-definite with the same
/// kernel.
pub fn generalized_extreme_eigenvalues(
    a: &DenseMatrix,
    b: &DenseMatrix,
    kernel: &[f64],
) -> (f64, f64) {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    let n = a.rows();
    // Build an orthonormal basis of the complement of `kernel` from the
    // eigenvectors of B (which is PSD with the same kernel): eigenvectors with
    // positive eigenvalue span range(B).
    let (evals, evecs) = b.symmetric_eigen();
    let tol = evals.iter().fold(0.0f64, |m, &v| m.max(v.abs())) * 1e-10 + 1e-300;
    let mut basis_cols: Vec<usize> = Vec::new();
    for (i, &lambda) in evals.iter().enumerate() {
        if lambda > tol {
            basis_cols.push(i);
        }
    }
    let _ = kernel;
    let k = basis_cols.len();
    if k == 0 {
        return (0.0, 0.0);
    }
    // Projected matrices A' = Vᵀ A V, B' = Vᵀ B V where V has the selected
    // eigenvectors as columns. B' is diagonal (the positive eigenvalues).
    let mut vmat = DenseMatrix::zeros(n, k);
    for (j, &col) in basis_cols.iter().enumerate() {
        for r in 0..n {
            vmat.set(r, j, evecs.get(r, col));
        }
    }
    let a_proj = vmat.transpose().matmul(&a.matmul(&vmat));
    // C = B'^{-1/2} A' B'^{-1/2}.
    let mut c = DenseMatrix::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            let scale = (evals[basis_cols[i]] * evals[basis_cols[j]]).sqrt();
            c.set(i, j, a_proj.get(i, j) / scale);
        }
    }
    let (gen_evals, _) = c.symmetric_eigen();
    (gen_evals[0], gen_evals[k - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_transpose() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.matvec_transpose(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at.get(2, 1), 6.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[4.0, 3.0]);
    }

    #[test]
    fn solve_random_system() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-10));
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_psd_handles_laplacian_like_singularity() {
        // Laplacian of a path on 3 vertices.
        let l = DenseMatrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ]);
        let b = vec![1.0, 0.0, -1.0]; // orthogonal to ones
        let x = l.solve_psd(&b, true).unwrap();
        let lx = l.matvec(&x);
        assert!(vector::approx_eq(&lx, &b, 1e-6));
        assert!(x.iter().sum::<f64>().abs() < 1e-9);
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        let a = DenseMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let reconstructed = l.matmul(&l.transpose());
        for i in 0..2 {
            for j in 0..2 {
                assert!((reconstructed.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
        let not_pd = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(not_pd.cholesky().is_none());
    }

    #[test]
    fn jacobi_eigen_diagonalizes_symmetric_matrix() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let (evals, evecs) = a.symmetric_eigen();
        // Known eigenvalues: 2 - sqrt(2), 2, 2 + sqrt(2).
        let expected = [2.0 - 2.0f64.sqrt(), 2.0, 2.0 + 2.0f64.sqrt()];
        for (have, want) in evals.iter().zip(expected) {
            assert!((have - want).abs() < 1e-9, "have {have}, want {want}");
        }
        // A v = λ v for each column.
        for c in 0..3 {
            let v: Vec<f64> = (0..3).map(|r| evecs.get(r, c)).collect();
            let av = a.matvec(&v);
            for r in 0..3 {
                assert!((av[r] - evals[c] * v[r]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn generalized_eigenvalues_of_identical_pencils_are_one() {
        let l = DenseMatrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ]);
        let (lo, hi) = generalized_extreme_eigenvalues(&l, &l, &[1.0, 1.0, 1.0]);
        assert!((lo - 1.0).abs() < 1e-8);
        assert!((hi - 1.0).abs() < 1e-8);
    }

    #[test]
    fn generalized_eigenvalues_detect_scaling() {
        let l = DenseMatrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ]);
        let mut l2 = l.clone();
        for i in 0..3 {
            for j in 0..3 {
                l2.set(i, j, 2.0 * l.get(i, j));
            }
        }
        // Pencil (2L, L): all generalized eigenvalues are 2.
        let (lo, hi) = generalized_extreme_eigenvalues(&l2, &l, &[1.0, 1.0, 1.0]);
        assert!((lo - 2.0).abs() < 1e-8);
        assert!((hi - 2.0).abs() < 1e-8);
    }

    #[test]
    fn factored_psd_is_bit_identical_to_solve_psd() {
        // A pivoting-exercising SPD-ish matrix and a Laplacian (singular,
        // regularized path), several right-hand sides each.
        let cases = [
            DenseMatrix::from_rows(&[
                vec![1e-6, 2.0, 0.0],
                vec![2.0, 3.0, 1.0],
                vec![0.0, 1.0, 4.0],
            ]),
            DenseMatrix::from_rows(&[
                vec![1.0, -1.0, 0.0],
                vec![-1.0, 2.0, -1.0],
                vec![0.0, -1.0, 1.0],
            ]),
        ];
        for a in &cases {
            let factored = a.factor_psd().expect("factorable");
            assert_eq!(factored.n(), 3);
            for (b, zero_mean) in [
                (vec![1.0, 0.0, -1.0], true),
                (vec![0.25, -7.5, 3.25], true),
                (vec![1.0, 2.0, 3.0], false),
            ] {
                let direct = a.solve_psd(&b, zero_mean).expect("solvable");
                let mut replayed = vec![f64::NAN; 3];
                factored.solve_into(&b, &mut replayed, zero_mean);
                assert_eq!(replayed, direct, "solve_into must be bit-identical");
                assert_eq!(factored.solve(&b, zero_mean), direct);
            }
        }
    }

    #[test]
    fn factor_psd_rejects_singular_after_regularization() {
        // A huge off-diagonal with zero diagonal stays singular relative to
        // the tiny λ regularization? No — pivoting handles it. Use the
        // genuinely unsalvageable all-zero matrix instead.
        let zero = DenseMatrix::zeros(2, 2);
        // λ = max(scale, 1)·1e-12 = 1e-12 ≥ 1e-300, so this *does* factor;
        // confirm it matches solve_psd rather than diverging.
        match (zero.factor_psd(), zero.solve_psd(&[1.0, 2.0], false)) {
            (Some(f), Some(x)) => assert_eq!(f.solve(&[1.0, 2.0], false), x),
            (None, None) => {}
            (f, x) => panic!("factor/solve disagree: {:?} vs {:?}", f.is_some(), x),
        }
    }

    #[test]
    fn diag_builder() {
        let d = DenseMatrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        assert_eq!(d.matvec(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }
}
