//! Dense matrices and direct solvers.
//!
//! Dense linear algebra plays two roles in this reproduction:
//!
//! 1. **Local computation inside a vertex.** In the Broadcast Congested
//!    Clique, once the sparsifier `H` is known to every vertex, "solving a
//!    Laplacian system involving `L_H`" happens internally (Corollary 2.4) —
//!    the models charge nothing for local work, so any correct local method
//!    is faithful. We use LU factorizations on the (small, sparse)
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
    /// The elimination is dense; only its result is stored compressed (see
    /// [`FactoredPsd`]).
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
                // Columns `col..` only: the multipliers of earlier steps stay
                // in the rows they were computed for, which is where the
                // step-by-step replay applies them.
                for j in col..n {
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
                // Store the multiplier in the lower triangle, which the
                // elimination does not read again, including exact zeros:
                // replaying `b` must skip exactly the rows the eliminating
                // solve skipped (a zero multiplier times an infinite entry
                // would produce NaN).
                lu[r * n + col] = factor;
            }
        }
        Some(FactoredPsd {
            n,
            pivots,
            // The replay skips exactly the zero multipliers the elimination
            // skipped, so only the others are kept.
            multipliers: PackedLines::pack(n, |col, r| lu[r * n + col], |factor| factor != 0.0),
            // Every entry but `+0.0`, so a row read back with its absent
            // entries as `+0.0` is the dense row, `−0.0`s included.
            upper: PackedLines::pack(n, |row, j| lu[row * n + j], |u| u.to_bits() != 0),
            diagonal: (0..n).map(|i| lu[i * n + i]).collect(),
        })
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

/// The reusable LU factorization produced by [`DenseMatrix::factor_psd`],
/// stored compressed: no `n × n` array survives the elimination.
///
/// * `pivots[col]` is the row swapped into position `col` at elimination
///   step `col`.
/// * Per step, its multipliers in row order: the nonzero ones with their
///   rows. A zero multiplier is one the elimination skipped, so the replay
///   skips it too.
/// * Per row of `U`, its strict-upper entries in column order: those whose
///   bits are not `+0.0` (a `−0.0` is kept), with their columns.
/// * The diagonal of `U`.
///
/// A step or row is kept whole instead, without indices, when it is short
/// (under 16 entries: skipping its few zeros saves less than its list
/// costs) or two thirds filled or more (the list would take more memory). So the factors
/// never take more memory than a dense `n × n` array, and a solve costs
/// `O(n + nnz)`, with `nnz` the stored entries, and, via
/// [`FactoredPsd::solve_into`], zero allocations. On a sparse factor (the
/// 12×12 grid's: 15% of `U` filled) that is several times less than the
/// `O(n²)` of a dense replay.
///
/// # Exactness
///
/// Every solve is bit-identical to [`DenseMatrix::solve_psd`]. The forward
/// replay performs the same operations as the elimination, which skips zero
/// multipliers as well. A whole row of `U` is back-substituted in the dense
/// order. A listed row subtracts `U[col][j]·x_j` for its stored `j > col`
/// only. Skipping a `(+0.0)·x_j` with `x_j` finite leaves a nonzero running
/// value unchanged; at most it flips the sign of a zero one, and the next
/// nonzero term makes both values equal again. So a listed row can end
/// differently only if its value ends at `±0`, or once some solved value is
/// not finite (`0·∞` is NaN). Such a row (per lane, in a block) is computed
/// again term by term in the dense order, absent entries read as `+0.0`,
/// which is exactly the dense arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredPsd {
    n: usize,
    pivots: Vec<usize>,
    /// Line `col`: the rows step `col` updates and their multipliers.
    multipliers: PackedLines,
    /// Line `row`: the columns and values of row `row` of `U` right of the
    /// diagonal.
    upper: PackedLines,
    diagonal: Vec<f64>,
}

/// One triangle of a factorization, stored by line: line `k` covers the
/// indices `k + 1..n`. Its values start at `starts[k].0` in `values`, and
/// the indices of a listed line, increasing, at `starts[k].1` in `indices`;
/// both end where line `k + 1`'s start.
#[derive(Debug, Clone, PartialEq)]
struct PackedLines {
    starts: Vec<(usize, usize)>,
    values: Vec<f64>,
    indices: Vec<u32>,
}

/// The stored entries of one line of [`PackedLines`].
enum Line<'a> {
    /// All entries `k + 1..n`, in order.
    Whole(&'a [f64]),
    /// The kept entries, at the given increasing indices.
    Listed(&'a [u32], &'a [f64]),
}

/// Lines shorter than this are kept whole.
const LISTED_LINE_MIN: usize = 16;

impl PackedLines {
    /// Packs `entry(k, i)` for every `k < i < n`: line `k` keeps the entries
    /// `keep` accepts with their indices, unless it has fewer than
    /// [`LISTED_LINE_MIN`] entries or those would take no less memory (12
    /// bytes an entry against 8); then it keeps all its entries.
    fn pack(n: usize, entry: impl Fn(usize, usize) -> f64, keep: impl Fn(f64) -> bool) -> Self {
        let kept = |k: usize| (k + 1..n).filter(|&i| keep(entry(k, i))).count();
        let whole = |k: usize, kept: usize| {
            let len = n - k - 1;
            len < LISTED_LINE_MIN || 3 * kept >= 2 * len
        };
        let (mut values, mut indices) = (0, 0);
        for k in 0..n {
            let kept = kept(k);
            if whole(k, kept) {
                values += n - k - 1;
            } else {
                values += kept;
                indices += kept;
            }
        }
        let mut lines = PackedLines {
            starts: Vec::with_capacity(n + 1),
            values: Vec::with_capacity(values),
            indices: Vec::with_capacity(indices),
        };
        for k in 0..n {
            lines.starts.push((lines.values.len(), lines.indices.len()));
            let whole = whole(k, kept(k));
            for i in k + 1..n {
                let value = entry(k, i);
                if whole {
                    lines.values.push(value);
                } else if keep(value) {
                    lines.values.push(value);
                    lines
                        .indices
                        .push(u32::try_from(i).expect("a dense factor has fewer than 2³² rows"));
                }
            }
        }
        lines.starts.push((lines.values.len(), lines.indices.len()));
        lines
    }

    /// Line `k`: whole if it has no indices and all its entries.
    #[inline]
    fn line(&self, k: usize) -> Line<'_> {
        let ((value, index), (value_end, index_end)) = (self.starts[k], self.starts[k + 1]);
        let values = &self.values[value..value_end];
        if index == index_end && values.len() == self.starts.len() - 2 - k {
            Line::Whole(values)
        } else {
            Line::Listed(&self.indices[index..index_end], values)
        }
    }
}

impl FactoredPsd {
    /// The order of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves into a caller-provided buffer without allocating; bit-identical
    /// to [`DenseMatrix::solve_psd`] on the matrix this was factored from.
    /// The one-lane instance of [`FactoredPsd::solve_lanes_into`].
    ///
    /// # Panics
    ///
    /// Panics if `b` or `out` have the wrong length.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], zero_mean: bool) {
        self.solve_lanes_into::<1>(b, out, zero_mean);
    }

    /// Solves `L` right-hand sides at once, interleaved: entry `i` of lane
    /// `j` sits at `i·L + j` in both `b` and `out`. Every lane of `out` is
    /// bit-identical to [`DenseMatrix::solve_psd`] on that lane alone: each
    /// row operation of the replay is applied to all lanes before the next
    /// one, so every lane sees the same operations in the same order, and
    /// the lanes' independent dependency chains interleave. The width is a
    /// compile-time constant, so each row is a fixed-size array the compiler
    /// unrolls. Zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `out` do not hold `n · L` entries.
    pub fn solve_lanes_into<const L: usize>(&self, b: &[f64], out: &mut [f64], zero_mean: bool) {
        let n = self.n;
        assert_eq!(b.len(), n * L, "dimension mismatch");
        assert_eq!(out.len(), n * L, "dimension mismatch");
        out.copy_from_slice(b);
        let (out, _) = out.as_chunks_mut::<L>();
        // Replay the recorded row operations on `b` in elimination order.
        for col in 0..n {
            let pivot = self.pivots[col];
            if pivot != col {
                out.swap(col, pivot);
            }
            let (eliminated, rest) = out.split_at_mut(col + 1);
            let source = eliminated[col];
            let eliminate = |row: &mut [f64; L], factor: f64| {
                for (v, s) in row.iter_mut().zip(source) {
                    *v -= factor * s;
                }
            };
            match self.multipliers.line(col) {
                Line::Whole(factors) => {
                    for (row, &factor) in rest.iter_mut().zip(factors) {
                        if factor != 0.0 {
                            eliminate(row, factor);
                        }
                    }
                }
                Line::Listed(rows, factors) => {
                    for (&r, &factor) in rows.iter().zip(factors) {
                        eliminate(&mut rest[r as usize - col - 1], factor);
                    }
                }
            }
        }
        // Back substitution against the stored upper triangle.
        let mut non_finite = [false; L];
        for col in (0..n).rev() {
            let (unsolved, solved) = out.split_at_mut(col + 1);
            let replayed = unsolved[col];
            let mut row = replayed;
            match self.upper.line(col) {
                Line::Whole(coefficients) => {
                    for (&coefficient, known) in coefficients.iter().zip(solved.iter()) {
                        for (v, x) in row.iter_mut().zip(known) {
                            *v -= coefficient * x;
                        }
                    }
                }
                Line::Listed(columns, coefficients) => {
                    for (&j, &coefficient) in columns.iter().zip(coefficients) {
                        for (v, x) in row.iter_mut().zip(&solved[j as usize - col - 1]) {
                            *v -= coefficient * x;
                        }
                    }
                    for lane in 0..L {
                        if row[lane] == 0.0 || non_finite[lane] {
                            row[lane] = self.dense_back_row(
                                col,
                                columns,
                                coefficients,
                                replayed[lane],
                                |j| solved[j - col - 1][lane],
                            );
                        }
                    }
                }
            }
            let diagonal = self.diagonal[col];
            for ((x, v), non_finite) in unsolved[col].iter_mut().zip(row).zip(&mut non_finite) {
                *x = v / diagonal;
                *non_finite |= !x.is_finite();
            }
        }
        if zero_mean {
            vector::remove_lane_means_in_place::<L>(out.as_flattened_mut());
        }
    }

    /// Row `col` of the back substitution, listed as `columns` and
    /// `coefficients`, in the dense order: `replayed − U[col][j]·x(j)` for
    /// `j = col + 1, …, n − 1`, term by term, every entry of `U` that is not
    /// listed read as `+0.0`.
    #[cold]
    #[inline(never)]
    fn dense_back_row(
        &self,
        col: usize,
        columns: &[u32],
        coefficients: &[f64],
        replayed: f64,
        x: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut stored = columns.iter().zip(coefficients).peekable();
        let mut v = replayed;
        for j in col + 1..self.n {
            let coefficient = stored
                .next_if(|&(&column, _)| column as usize == j)
                .map_or(0.0, |(_, &coefficient)| coefficient);
            v -= coefficient * x(j);
        }
        v
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
