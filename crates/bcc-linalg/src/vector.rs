//! Dense vector operations.
//!
//! All operations are free functions on `&[f64]` so that the distributed
//! algorithms (where each vertex owns one or a few coordinates) and the
//! centralized ground-truth code can share them.

/// `x + y`.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// `x − y`.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// `α·x`.
pub fn scale(x: &[f64], alpha: f64) -> Vec<f64> {
    x.iter().map(|a| alpha * a).collect()
}

/// In-place `x ← α·x`.
pub fn scale_in_place(x: &mut [f64], alpha: f64) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// In-place `y ← y + α·x`.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Inner product `⟨x, y⟩`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).max(0.0).sqrt()
}

/// Max norm `‖x‖_∞`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
}

/// 1-norm `‖x‖₁`.
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Weighted Euclidean norm `‖x‖_w = sqrt(Σ_i w_i x_i²)` (Section 4.1).
///
/// # Panics
///
/// Panics if the weights contain negative entries.
pub fn norm_weighted(x: &[f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), w.len(), "dimension mismatch");
    let s: f64 = x
        .iter()
        .zip(w)
        .map(|(xi, wi)| {
            assert!(*wi >= 0.0, "weights must be non-negative");
            wi * xi * xi
        })
        .sum();
    s.max(0.0).sqrt()
}

/// Mixed norm `‖x‖_{w+1} = ‖x‖_∞ + C_norm·‖x‖_w` (Section 4.1).
pub fn norm_mixed(x: &[f64], w: &[f64], c_norm: f64) -> f64 {
    norm_inf(x) + c_norm * norm_weighted(x, w)
}

/// `M`-norm `‖x‖_M = sqrt(xᵀ M x)` for a matrix given as an `apply` closure.
/// Returns 0 when the quadratic form is (numerically) slightly negative.
pub fn norm_matrix(x: &[f64], apply: impl Fn(&[f64]) -> Vec<f64>) -> f64 {
    dot(x, &apply(x)).max(0.0).sqrt()
}

/// Coordinate-wise product `x ∘ y`.
pub fn hadamard(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// Coordinate-wise quotient `x / y`.
///
/// # Panics
///
/// Panics (in debug builds) if a divisor is zero.
pub fn hadamard_div(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            debug_assert!(*b != 0.0, "division by zero");
            a / b
        })
        .collect()
}

/// Coordinate-wise application of a scalar function.
pub fn map(x: &[f64], f: impl Fn(f64) -> f64) -> Vec<f64> {
    x.iter().map(|&v| f(v)).collect()
}

/// Coordinate-wise median of three vectors (used by the Lewis-weight fixed
/// point iteration, Algorithm 7).
pub fn median3(a: &[f64], b: &[f64], c: &[f64]) -> Vec<f64> {
    assert!(
        a.len() == b.len() && b.len() == c.len(),
        "dimension mismatch"
    );
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((&x, &y), &z)| median3_scalar(x, y, z))
        .collect()
}

/// Median of three scalars.
pub fn median3_scalar(x: f64, y: f64, z: f64) -> f64 {
    let mut v = [x, y, z];
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("median3 requires comparable values")
    });
    v[1]
}

/// The constant-vector projection `x − mean(x)·1`, i.e. the projection onto
/// the orthogonal complement of the all-ones vector (the Laplacian range).
pub fn remove_mean(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    x.iter().map(|v| v - mean).collect()
}

/// [`remove_mean`] in place on every lane of a block of `L` interleaved
/// vectors, where entry `i` of lane `j` sits at `x[i·L + j]`. Each lane gets
/// exactly the arithmetic [`remove_mean`] performs on it alone: one sum in
/// order from `−0.0`, the neutral element `Iterator::sum::<f64>` starts from
/// (a lane of all `−0.0` keeps a mean of `−0.0`), one division, one
/// subtraction per entry. So every lane is bit-identical to it. The sums run
/// row by row, all lanes side by side. Zero allocations.
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `L`.
pub fn remove_lane_means_in_place<const L: usize>(x: &mut [f64]) {
    let (rows, rest) = x.as_chunks_mut::<L>();
    assert!(rest.is_empty(), "a block holds a whole number of lanes");
    if rows.is_empty() {
        return;
    }
    let mut sums = [-0.0; L];
    for row in rows.iter() {
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
    }
    for (j, sum) in sums.iter_mut().enumerate() {
        // Addition is commutative bit for bit except in which NaN it
        // returns, and the compiler may order the operands of the side-by-side
        // sums either way, so a NaN sum is taken again lane by lane.
        if sum.is_nan() {
            *sum = rows.iter().map(|row| row[j]).sum::<f64>();
        }
    }
    let n = rows.len() as f64;
    let means = sums.map(|sum| sum / n);
    for row in rows.iter_mut() {
        for (v, mean) in row.iter_mut().zip(means) {
            *v -= mean;
        }
    }
}

/// Returns `true` if `‖x − y‖_∞ ≤ tol`.
pub fn approx_eq(x: &[f64], y: &[f64], tol: f64) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, -5.0, 6.0];
        assert_eq!(add(&x, &y), vec![5.0, -3.0, 9.0]);
        assert_eq!(sub(&x, &y), vec![-3.0, 7.0, -3.0]);
        assert_eq!(scale(&x, 2.0), vec![2.0, 4.0, 6.0]);
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
        let mut z = y.clone();
        axpy(&mut z, 2.0, &x);
        assert_eq!(z, vec![6.0, -1.0, 12.0]);
    }

    #[test]
    fn norms() {
        let x = vec![3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm1(&x), 7.0);
        let w = vec![1.0, 4.0];
        assert_eq!(norm_weighted(&x, &w), (9.0f64 + 64.0).sqrt());
        assert_eq!(norm_mixed(&x, &w, 2.0), 4.0 + 2.0 * (73.0f64).sqrt());
    }

    #[test]
    #[should_panic]
    fn negative_weights_rejected() {
        norm_weighted(&[1.0], &[-1.0]);
    }

    #[test]
    fn hadamard_ops() {
        let x = vec![2.0, 3.0];
        let y = vec![4.0, 6.0];
        assert_eq!(hadamard(&x, &y), vec![8.0, 18.0]);
        assert_eq!(hadamard_div(&y, &x), vec![2.0, 2.0]);
        assert_eq!(map(&x, |v| v * v), vec![4.0, 9.0]);
    }

    #[test]
    fn median3_is_the_middle_value() {
        for perm in [
            (1.0, 2.0, 3.0),
            (1.0, 3.0, 2.0),
            (2.0, 1.0, 3.0),
            (2.0, 3.0, 1.0),
            (3.0, 1.0, 2.0),
            (3.0, 2.0, 1.0),
        ] {
            assert_eq!(median3_scalar(perm.0, perm.1, perm.2), 2.0, "{perm:?}");
        }
        assert_eq!(median3_scalar(5.0, 5.0, 1.0), 5.0);
        assert_eq!(
            median3(&[1.0, 9.0], &[2.0, 8.0], &[3.0, 7.0]),
            vec![2.0, 8.0]
        );
    }

    #[test]
    fn remove_mean_orthogonal_to_ones() {
        let x = vec![1.0, 2.0, 3.0, 10.0];
        let y = remove_mean(&x);
        assert!(y.iter().sum::<f64>().abs() < 1e-12);
        assert!(remove_mean(&[]).is_empty());
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        let x = vec![0.1, -2.75, 33.0, 1e-9];
        let mut scaled = x.clone();
        scale_in_place(&mut scaled, -1.7);
        assert_eq!(scaled, scale(&x, -1.7));
        let mut centered = x.clone();
        remove_lane_means_in_place::<1>(&mut centered);
        assert_eq!(centered, remove_mean(&x));
        let mut empty: Vec<f64> = Vec::new();
        remove_lane_means_in_place::<1>(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn lane_means_are_removed_lane_by_lane() {
        // Two lanes interleaved: [1, 2, 3] and [10, 20, 60].
        let mut block = vec![1.0, 10.0, 2.0, 20.0, 3.0, 60.0];
        remove_lane_means_in_place::<2>(&mut block);
        assert_eq!(block, vec![-1.0, -20.0, 0.0, -10.0, 1.0, 30.0]);
        let mut empty: Vec<f64> = Vec::new();
        remove_lane_means_in_place::<2>(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-9, 2.0], 1e-8));
        assert!(!approx_eq(&[1.0, 2.0], &[1.1, 2.0], 1e-8));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1e-8));
    }

    #[test]
    fn matrix_norm_uses_apply() {
        // M = diag(1, 4).
        let apply = |x: &[f64]| vec![x[0], 4.0 * x[1]];
        assert_eq!(norm_matrix(&[3.0, 1.0], apply), (9.0f64 + 4.0).sqrt());
    }
}
