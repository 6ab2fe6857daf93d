//! Conjugate gradient solvers.
//!
//! CG is only the centralized baseline (`bcc_laplacian::cg_baseline`, which
//! the `grid_power_network` example compares against): the distributed
//! solver's preconditioner replays stored LU factors ([`crate::FactoredPsd`])
//! instead. Operators are passed as closures so graph Laplacians can stay
//! matrix-free.

use crate::scratch::SolveScratch;
use crate::vector;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeSolve {
    /// The computed solution.
    pub solution: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A x‖₂`.
    pub residual_norm: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// The statistics of a scratch-based solve ([`conjugate_gradient_with`]);
/// the solution itself stays in [`SolveScratch::x`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A x‖₂`.
    pub residual_norm: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// Solves `A x = b` for a symmetric positive semi-definite operator `A` using
/// (optionally preconditioned) conjugate gradients.
///
/// * `apply_a` — the operator `x ↦ A x`.
/// * `precond` — an optional preconditioner `r ↦ M⁻¹ r`; pass `None` for
///   plain CG.
/// * `tolerance` — relative residual target `‖b − A x‖₂ ≤ tolerance·‖b‖₂`.
///
/// For singular PSD systems (Laplacians) the right-hand side must lie in the
/// range of `A`; the caller typically removes the mean from `b` first.
pub fn conjugate_gradient(
    apply_a: impl Fn(&[f64]) -> Vec<f64>,
    b: &[f64],
    precond: Option<&dyn Fn(&[f64]) -> Vec<f64>>,
    tolerance: f64,
    max_iterations: usize,
) -> IterativeSolve {
    let mut scratch = SolveScratch::new();
    let mut precond_into = precond.map(|m| {
        move |r: &[f64], z: &mut [f64]| {
            z.copy_from_slice(&m(r));
        }
    });
    let stats = conjugate_gradient_with(
        |x, out: &mut [f64]| out.copy_from_slice(&apply_a(x)),
        b,
        precond_into
            .as_mut()
            .map(|m| m as &mut dyn FnMut(&[f64], &mut [f64])),
        tolerance,
        max_iterations,
        &mut scratch,
    );
    IterativeSolve {
        solution: std::mem::take(&mut scratch.x),
        iterations: stats.iterations,
        residual_norm: stats.residual_norm,
        converged: stats.converged,
    }
}

/// The same iteration over caller-provided [`SolveScratch`] buffers and
/// writer-style operators: `apply_a(x, out)` stores `A x` in `out`,
/// `precond` (when given) stores `M⁻¹ r`. The solution is left in
/// [`SolveScratch::x`]; a warm scratch (already grown to dimension
/// `b.len()`) makes the whole solve allocation-free. Bit-identical to
/// [`conjugate_gradient`] — same operation order, same arithmetic.
pub fn conjugate_gradient_with(
    mut apply_a: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    mut precond: Option<&mut dyn FnMut(&[f64], &mut [f64])>,
    tolerance: f64,
    max_iterations: usize,
    scratch: &mut SolveScratch,
) -> IterativeStats {
    let n = b.len();
    scratch.reset(n);
    let SolveScratch { x, r, z, p, ap } = scratch;
    r.copy_from_slice(b);
    let b_norm = vector::norm2(b).max(1e-300);
    match precond.as_deref_mut() {
        Some(m) => m(r, z),
        None => z.copy_from_slice(r),
    }
    p.copy_from_slice(z);
    let mut rz = vector::dot(r, z);
    let mut iterations = 0;
    let mut residual_norm = vector::norm2(r);
    while iterations < max_iterations && residual_norm > tolerance * b_norm {
        apply_a(p, ap);
        let pap = vector::dot(p, ap);
        if pap.abs() < 1e-300 {
            break;
        }
        let alpha = rz / pap;
        vector::axpy(x, alpha, p);
        vector::axpy(r, -alpha, ap);
        match precond.as_deref_mut() {
            Some(m) => m(r, z),
            None => z.copy_from_slice(r),
        }
        let rz_new = vector::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        residual_norm = vector::norm2(r);
        iterations += 1;
    }
    IterativeStats {
        converged: residual_norm <= tolerance * b_norm,
        iterations,
        residual_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    #[test]
    fn solves_small_spd_system() {
        let a = DenseMatrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 5.0],
        ]);
        let x_true = vec![1.0, 2.0, -1.0];
        let b = a.matvec(&x_true);
        let result = conjugate_gradient(|x| a.matvec(x), &b, None, 1e-12, 100);
        assert!(result.converged);
        assert!(vector::approx_eq(&result.solution, &x_true, 1e-8));
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        // Badly scaled diagonal system.
        let n = 50;
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 100.0).collect();
        let apply = |x: &[f64]| -> Vec<f64> { x.iter().zip(&diag).map(|(a, d)| a * d).collect() };
        let b = vec![1.0; n];
        let plain = conjugate_gradient(apply, &b, None, 1e-10, 1000);
        let jacobi = |r: &[f64]| -> Vec<f64> { r.iter().zip(&diag).map(|(a, d)| a / d).collect() };
        let preconditioned = conjugate_gradient(apply, &b, Some(&jacobi), 1e-10, 1000);
        assert!(preconditioned.converged);
        assert!(plain.converged);
        assert!(preconditioned.iterations <= plain.iterations);
        assert!(preconditioned.iterations <= 3);
    }

    #[test]
    fn singular_laplacian_system_with_compatible_rhs() {
        // Path Laplacian on 3 vertices; b orthogonal to ones.
        let l = DenseMatrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ]);
        let b = vec![1.0, 0.0, -1.0];
        let result = conjugate_gradient(|x| l.matvec(x), &b, None, 1e-12, 50);
        assert!(result.converged);
        let lx = l.matvec(&result.solution);
        assert!(vector::approx_eq(&lx, &b, 1e-8));
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let result = conjugate_gradient(|x| x.to_vec(), &[0.0, 0.0], None, 1e-10, 10);
        assert_eq!(result.solution, vec![0.0, 0.0]);
        assert_eq!(result.iterations, 0);
        assert!(result.converged);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1e6]]);
        let result = conjugate_gradient(|x| a.matvec(x), &[1.0, 1.0], None, 1e-14, 1);
        assert_eq!(result.iterations, 1);
    }
}
