//! Lewis-weight computation (Definition 4.3, Algorithms 7 and 8).
//!
//! The `ℓ_p` Lewis weights of a matrix `M` are the unique fixed point of
//! `w = σ(W^{1/2 − 1/p} M)`. The paper uses the *regularized* weights
//! `g(x) = w_p(A_x) + n/(2m)` with `p = 1 − 1/log(4m)` as the weight function
//! of its interior-point method.
//!
//! Two computation routines are provided:
//!
//! * [`regularized_lewis_weights`] — the practical driver used by the LP
//!   solver: a damped fixed-point iteration started from the leverage scores.
//!   For `p < 4` the fixed-point map is a contraction, so a warm start plus a
//!   handful of iterations reaches the accuracy the path following needs.
//!   (This replaces the `p`-homotopy of Algorithm 8, whose step count —
//!   `Θ(√n·log m)` calls — exists to keep every intermediate call inside the
//!   tiny trust region of Algorithm 7.)
//! * [`compute_apx_weights`] — Algorithm 7 as stated: the damped update
//!   clipped to the multiplicative trust region `(1 ± r)·w⁽⁰⁾`, valid when
//!   the starting point is already close to the true weights.

use bcc_runtime::Network;

use crate::error::LpError;
use crate::gram::{GramSolver, ScaledMatrix};
use crate::leverage::{compute_leverage_scores, exact_leverage_scores, LeverageOptions};

/// Options shared by the Lewis-weight routines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LewisOptions {
    /// The `ℓ_p` exponent (the paper uses `p = 1 − 1/log(4m)`).
    pub p: f64,
    /// Accuracy passed to the leverage-score approximation.
    pub eta: f64,
    /// Number of fixed-point iterations.
    pub iterations: usize,
    /// Shared seed for the sketches.
    pub shared_seed: u64,
    /// Cap on the JL sketch dimension (laboratory runs), `None` = full.
    pub max_sketch_dimension: Option<usize>,
    /// When `true`, leverage scores are computed exactly (dense ground truth)
    /// instead of sketched — used by tests and ablations.
    pub exact_leverage: bool,
}

impl LewisOptions {
    /// The paper's exponent `p = 1 − 1/log₂(4m)` with laboratory iteration
    /// counts.
    pub fn laboratory(m: usize, shared_seed: u64) -> Self {
        LewisOptions {
            p: paper_exponent(m),
            eta: 0.25,
            iterations: 12,
            shared_seed,
            max_sketch_dimension: Some(40),
            exact_leverage: false,
        }
    }
}

/// The exponent `p = 1 − 1/log₂(4m)` from Definition 4.3.
pub fn paper_exponent(m: usize) -> f64 {
    1.0 - 1.0 / ((4 * m.max(1)) as f64).log2()
}

/// The regularization constant `c₀ = n/(2m)` from Definition 4.3.
pub fn regularization_constant(n: usize, m: usize) -> f64 {
    n as f64 / (2.0 * m.max(1) as f64)
}

fn leverage_of(
    net: &mut Network,
    m: &ScaledMatrix<'_>,
    w: &[f64],
    options: &LewisOptions,
    gram_solver: &dyn GramSolver,
    call_index: usize,
) -> Result<Vec<f64>, LpError> {
    // σ(W^{1/2 − 1/p} M): scale the rows of M by w_i^{1/2 − 1/p}.
    let exponent = 0.5 - 1.0 / options.p;
    let scales: Vec<f64> = m
        .scales()
        .iter()
        .zip(w)
        .map(|(d, wi)| d * wi.max(1e-300).powf(exponent))
        .collect();
    let rescaled = ScaledMatrix::new(m.a(), scales);
    if options.exact_leverage {
        Ok(exact_leverage_scores(&rescaled))
    } else {
        let lev_options = LeverageOptions {
            eta: options.eta,
            shared_seed: options
                .shared_seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(call_index as u64 + 1)),
            max_sketch_dimension: options.max_sketch_dimension,
        };
        compute_leverage_scores(net, &rescaled, &lev_options, gram_solver)
    }
}

/// Computes the regularized `ℓ_p` Lewis weights `g = w_p(M) + n/(2m)` of
/// `M = diag(d)·A` by damped fixed-point iteration started at the leverage
/// scores of `M`.
///
/// # Errors
///
/// Propagates [`LpError::GramSolve`] from the leverage-score computation.
pub fn regularized_lewis_weights(
    net: &mut Network,
    m: &ScaledMatrix<'_>,
    options: &LewisOptions,
    gram_solver: &dyn GramSolver,
) -> Result<Vec<f64>, LpError> {
    let raw = lewis_weights(net, m, options, gram_solver)?;
    let c0 = regularization_constant(m.n(), m.m());
    Ok(raw.into_iter().map(|w| w + c0).collect())
}

/// Computes (unregularized) `ℓ_p` Lewis weights by damped fixed-point
/// iteration.
///
/// # Errors
///
/// Propagates [`LpError::GramSolve`] from the leverage-score computation.
pub fn lewis_weights(
    net: &mut Network,
    m: &ScaledMatrix<'_>,
    options: &LewisOptions,
    gram_solver: &dyn GramSolver,
) -> Result<Vec<f64>, LpError> {
    assert!(
        options.p > 0.0 && options.p < 4.0,
        "the fixed point contracts only for p in (0, 4)"
    );
    net.begin_phase("lewis weights");
    // Start from the leverage scores of M itself (the p = 2 weights).
    let mut w: Vec<f64> = leverage_of(net, m, &vec![1.0; m.m()], options, gram_solver, 0)?
        .into_iter()
        .map(|s| s.clamp(1e-12, 1.0))
        .collect();
    for iteration in 0..options.iterations {
        let sigma = leverage_of(net, m, &w, options, gram_solver, iteration + 1)?;
        // Damped multiplicative update: w ← (w^{?}σ)… the undamped fixed point
        // is w = σ(W^{1/2−1/p}M); take a half-step in log space for stability.
        for (wi, si) in w.iter_mut().zip(&sigma) {
            let target = si.clamp(1e-12, 2.0);
            *wi = (wi.ln() * 0.5 + target.ln() * 0.5).exp();
        }
    }
    Ok(w)
}

/// Algorithm 7 (`ComputeApxWeights`): the damped update clipped to the
/// multiplicative trust region `(1 ± r)·w⁽⁰⁾`. Valid when
/// `‖(w⁽⁰⁾)⁻¹(w_p(M) − w⁽⁰⁾)‖_∞` is already small (Lemma 4.6). The LP solver
/// does not call it (its weight refresh is [`regularized_lewis_weights`]);
/// it is kept as the paper's algorithm, checked by its own test.
///
/// # Errors
///
/// Propagates [`LpError::GramSolve`] from the leverage-score computation.
pub fn compute_apx_weights(
    net: &mut Network,
    m: &ScaledMatrix<'_>,
    w0: &[f64],
    options: &LewisOptions,
    gram_solver: &dyn GramSolver,
) -> Result<Vec<f64>, LpError> {
    assert_eq!(w0.len(), m.m(), "one initial weight per row expected");
    let p = options.p;
    let big_l = 4.0f64.max(8.0 / p);
    let r = p * p * (4.0 - p) / 2.0f64.powi(20);
    let t = (80.0 * (p / 2.0 + 2.0 / p) * ((p * m.n() as f64 / (32.0 * options.eta)).max(2.0)).ln())
        .ceil() as usize;
    let iterations = t.min(options.iterations.max(1));
    let mut w = w0.to_vec();
    net.begin_phase("apx weights");
    for j in 0..iterations {
        let sigma = leverage_of(net, m, &w, options, gram_solver, j + 100)?;
        for i in 0..w.len() {
            let lo = (1.0 - r) * w0[i];
            let hi = (1.0 + r) * w0[i];
            let step = w[i] - (1.0 / big_l) * (w0[i] - (w0[i] / w[i].max(1e-300)) * sigma[i]);
            w[i] = bcc_linalg::vector::median3_scalar(lo, step, hi);
        }
    }
    Ok(w)
}

/// The fixed-point residual `‖w − σ(W^{1/2−1/p}M)‖_∞ / ‖w‖_∞` — a measure of
/// how close `w` is to being the true Lewis weights (diagnostic).
pub fn fixed_point_residual(m: &ScaledMatrix<'_>, w: &[f64], p: f64) -> f64 {
    let exponent = 0.5 - 1.0 / p;
    let scales: Vec<f64> = m
        .scales()
        .iter()
        .zip(w)
        .map(|(d, wi)| d * wi.max(1e-300).powf(exponent))
        .collect();
    let rescaled = ScaledMatrix::new(m.a(), scales);
    let sigma = exact_leverage_scores(&rescaled);
    let max_w = w.iter().fold(1e-300f64, |a, &b| a.max(b));
    w.iter()
        .zip(&sigma)
        .map(|(wi, si)| (wi - si).abs())
        .fold(0.0f64, f64::max)
        / max_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::DenseGramSolver;
    use bcc_linalg::CsrMatrix;
    use bcc_runtime::ModelConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_matrix(m: usize, n: usize, seed: u64) -> CsrMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..m {
            for c in 0..n {
                if rng.gen::<f64>() < 0.7 {
                    triplets.push((r, c, rng.gen::<f64>() * 2.0 - 1.0));
                }
            }
            triplets.push((r, r % n, 1.0 + rng.gen::<f64>()));
        }
        CsrMatrix::from_triplets(m, n, &triplets)
    }

    fn exact_options(_m: usize, p: f64) -> LewisOptions {
        LewisOptions {
            p,
            eta: 0.1,
            iterations: 30,
            shared_seed: 1,
            max_sketch_dimension: None,
            exact_leverage: true,
        }
    }

    #[test]
    fn paper_exponent_is_just_below_one() {
        let p = paper_exponent(100);
        assert!(p > 0.85 && p < 1.0);
        assert!(paper_exponent(10_000) > p);
    }

    #[test]
    fn lewis_weights_satisfy_the_fixed_point_equation() {
        let a = random_matrix(18, 4, 7);
        let m = ScaledMatrix::new(&a, vec![1.0; 18]);
        let p = paper_exponent(18);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let w =
            lewis_weights(&mut net, &m, &exact_options(18, p), &DenseGramSolver::new()).unwrap();
        let residual = fixed_point_residual(&m, &w, p);
        assert!(residual < 0.05, "residual {residual}");
    }

    #[test]
    fn lewis_weights_sum_is_close_to_rank() {
        // Leverage scores sum to n, and ℓ_p Lewis weights for p near 1 also
        // sum to Θ(n).
        let a = random_matrix(25, 5, 8);
        let m = ScaledMatrix::new(&a, vec![1.0; 25]);
        let p = paper_exponent(25);
        let mut net = Network::clique(ModelConfig::bcc(), 5);
        let w =
            lewis_weights(&mut net, &m, &exact_options(25, p), &DenseGramSolver::new()).unwrap();
        let sum: f64 = w.iter().sum();
        assert!(sum > 2.0 && sum < 10.0, "sum = {sum}");
        let g =
            regularized_lewis_weights(&mut net, &m, &exact_options(25, p), &DenseGramSolver::new())
                .unwrap();
        let reg_sum: f64 = g.iter().sum();
        assert!(
            (reg_sum - (sum + 2.5)).abs() < 1.0,
            "regularized sum {reg_sum}"
        );
        assert!(g.iter().all(|&x| x >= regularization_constant(5, 25)));
    }

    #[test]
    fn p_equal_two_recovers_leverage_scores() {
        let a = random_matrix(15, 3, 9);
        let m = ScaledMatrix::new(&a, vec![1.0; 15]);
        let mut net = Network::clique(ModelConfig::bcc(), 3);
        let w = lewis_weights(
            &mut net,
            &m,
            &exact_options(15, 2.0),
            &DenseGramSolver::new(),
        )
        .unwrap();
        let sigma = exact_leverage_scores(&m);
        for (wi, si) in w.iter().zip(&sigma) {
            assert!((wi - si).abs() < 1e-3, "{wi} vs {si}");
        }
    }

    #[test]
    fn sketched_weights_are_close_to_exact_weights() {
        let a = random_matrix(20, 4, 10);
        let m = ScaledMatrix::new(&a, vec![1.0; 20]);
        let p = paper_exponent(20);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let exact =
            lewis_weights(&mut net, &m, &exact_options(20, p), &DenseGramSolver::new()).unwrap();
        let sketched_options = LewisOptions {
            exact_leverage: false,
            eta: 0.2,
            iterations: 15,
            ..exact_options(20, p)
        };
        let sketched =
            lewis_weights(&mut net, &m, &sketched_options, &DenseGramSolver::new()).unwrap();
        let mean_rel: f64 = exact
            .iter()
            .zip(&sketched)
            .map(|(e, s)| (e - s).abs() / e.max(1e-6))
            .sum::<f64>()
            / exact.len() as f64;
        assert!(mean_rel < 0.6, "mean relative deviation {mean_rel}");
    }

    #[test]
    fn compute_apx_weights_stays_in_the_trust_region() {
        let a = random_matrix(16, 4, 11);
        let m = ScaledMatrix::new(&a, vec![1.0; 16]);
        let p = paper_exponent(16);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        // Start from the true weights: the clipped update must stay nearby.
        let w0 =
            lewis_weights(&mut net, &m, &exact_options(16, p), &DenseGramSolver::new()).unwrap();
        let options = LewisOptions {
            iterations: 5,
            ..exact_options(16, p)
        };
        let w = compute_apx_weights(&mut net, &m, &w0, &options, &DenseGramSolver::new()).unwrap();
        let r = p * p * (4.0 - p) / 2.0f64.powi(20);
        for (wi, w0i) in w.iter().zip(&w0) {
            assert!(*wi >= (1.0 - r) * w0i - 1e-12);
            assert!(*wi <= (1.0 + r) * w0i + 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn p_of_four_or_more_is_rejected() {
        let a = random_matrix(6, 2, 12);
        let m = ScaledMatrix::new(&a, vec![1.0; 6]);
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let _ = lewis_weights(
            &mut net,
            &m,
            &exact_options(6, 4.5),
            &DenseGramSolver::new(),
        );
    }
}
