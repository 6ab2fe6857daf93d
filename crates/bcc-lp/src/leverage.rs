//! Leverage-score approximation (Algorithm 6, Lemma 4.5).
//!
//! The leverage scores of `M ∈ R^{m×n}` are
//! `σ(M) = diag(M(MᵀM)⁻¹Mᵀ)`. Computing them exactly is as expensive as
//! inverting the Gram matrix for every standard basis vector, so the paper
//! approximates them via `σ(M)ᵢ = ‖M(MᵀM)⁻¹Mᵀ eᵢ‖₂²` and a
//! Johnson–Lindenstrauss sketch. Crucially, the sketch is expanded from
//! `O(log² m)` *shared* random bits (Kane–Nelson, Theorem 4.4): a leader
//! samples and broadcasts them, every vertex builds the same `Q` locally, and
//! the per-row evaluation only needs `k = Θ(log(m)/η²)` multiplications by
//! `M`, `Mᵀ` and Gram solves — all operations the Broadcast Congested Clique
//! supports.

use bcc_linalg::{DenseMatrix, JlSketch};
use bcc_runtime::Network;

use crate::error::LpError;
use crate::gram::{GramSolver, ScaledMatrix};

/// Parameters of the leverage-score approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeverageOptions {
    /// Target multiplicative accuracy `η` (each score within `(1 ± η)`).
    pub eta: f64,
    /// Shared seed the leader broadcasts.
    pub shared_seed: u64,
    /// Optional cap on the sketch dimension `k` (laboratory runs); `None`
    /// uses the full `Θ(log(m)/η²)` dimension.
    pub max_sketch_dimension: Option<usize>,
}

impl LeverageOptions {
    /// Options with the given accuracy and seed and no dimension cap.
    pub fn new(eta: f64, shared_seed: u64) -> Self {
        LeverageOptions {
            eta,
            shared_seed,
            max_sketch_dimension: None,
        }
    }
}

/// The JL sketches one LP solve has expanded, by `(k, m, seed)`. The
/// seeds of Algorithm 6 repeat at every Newton step (one per Lewis
/// iteration), and a sketch is a function of its `(k, m, seed)` alone, so a
/// solve expands each distinct one once and reuses it; the shared bits are
/// still charged at every evaluation. Memory grows by `k·m` entries per
/// distinct seed and is freed with the solve.
#[derive(Debug, Default)]
pub(crate) struct JlSketches {
    expanded: Vec<(u64, JlSketch)>,
}

impl JlSketches {
    /// `JlSketch::from_shared_seed(k, m, seed)`, expanded on first use.
    fn get(&mut self, k: usize, m: usize, seed: u64) -> &JlSketch {
        let index = self
            .expanded
            .iter()
            .position(|(s, q)| (*s, q.k(), q.m()) == (seed, k, m))
            .unwrap_or_else(|| {
                self.expanded
                    .push((seed, JlSketch::from_shared_seed(k, m, seed)));
                self.expanded.len() - 1
            });
        &self.expanded[index].1
    }
}

/// Approximates the leverage scores of `M = diag(d)·A` (Algorithm 6).
///
/// Charges on `net`: one leader election plus the broadcast of `Θ(log² m)`
/// shared bits ([`Network::share_random_bits`]), and `k` rounds of (matrix
/// product + Gram solve), the latter through one [`GramSolver::solve_many`]
/// call of `gram_solver`.
///
/// # Errors
///
/// Propagates [`LpError::GramSolve`] from the inner `(AᵀDA)⁻¹` oracle.
pub fn compute_leverage_scores(
    net: &mut Network,
    m: &ScaledMatrix<'_>,
    options: &LeverageOptions,
    gram_solver: &dyn GramSolver,
) -> Result<Vec<f64>, LpError> {
    leverage_scores_with(net, m, options, gram_solver, &mut JlSketches::default())
}

/// [`compute_leverage_scores`] with the sketches of the caller's LP solve.
pub(crate) fn leverage_scores_with(
    net: &mut Network,
    m: &ScaledMatrix<'_>,
    options: &LeverageOptions,
    gram_solver: &dyn GramSolver,
    sketches: &mut JlSketches,
) -> Result<Vec<f64>, LpError> {
    assert!(
        options.eta > 0.0 && options.eta < 1.0,
        "eta must lie in (0, 1)"
    );
    let rows = m.m();
    net.begin_phase("leverage scores");
    // Shared randomness: Θ(log² m) bits sampled by the leader (Theorem 4.4).
    let bits = JlSketch::shared_bits_needed(rows);
    net.share_random_bits(bits);
    let mut k = JlSketch::dimension_for(rows, options.eta);
    if let Some(cap) = options.max_sketch_dimension {
        k = k.min(cap.max(1));
    }
    let sketch = sketches.get(k, rows, options.shared_seed ^ bits);

    // p(j) = M (MᵀM)⁻¹ Mᵀ Q(j), evaluated right to left; the k Gram systems
    // share their matrix, so they are solved as one batch.
    let mt_q: Vec<Vec<f64>> = (0..k).map(|j| m.apply_transpose(sketch.row(j))).collect();
    let solved = gram_solver.solve_many(net, m.a(), &m.gram_diagonal_scales(), &mt_q)?;
    let mut sigma = vec![0.0; rows];
    for x in &solved {
        let p_j = m.apply(x);
        for (s, v) in sigma.iter_mut().zip(&p_j) {
            *s += v * v;
        }
    }
    Ok(sigma)
}

/// Exact leverage scores via a dense pseudo-inverse (ground truth for tests
/// and experiments; `O(n³ + mn²)` local work).
pub fn exact_leverage_scores(m: &ScaledMatrix<'_>) -> Vec<f64> {
    let rows = m.m();
    let cols = m.n();
    // Dense M.
    let mut dense = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for (c, v) in m.a().row(r) {
            dense.add_to(r, c, v * m.scales()[r]);
        }
    }
    let gram = dense.transpose().matmul(&dense);
    let mut scores = vec![0.0; rows];
    for i in 0..rows {
        let row_i: Vec<f64> = (0..cols).map(|c| dense.get(i, c)).collect();
        let solved = gram
            .solve(&row_i)
            .or_else(|| gram.solve_psd(&row_i, false))
            .expect("Gram matrix invertible");
        // σ_i = m_iᵀ (MᵀM)⁻¹ m_i.
        scores[i] = row_i.iter().zip(&solved).map(|(a, b)| a * b).sum();
    }
    scores
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
                if rng.gen::<f64>() < 0.6 {
                    triplets.push((r, c, rng.gen::<f64>() * 2.0 - 1.0));
                }
            }
            // Guarantee no zero rows.
            triplets.push((r, r % n, 1.0 + rng.gen::<f64>()));
        }
        CsrMatrix::from_triplets(m, n, &triplets)
    }

    #[test]
    fn a_sketch_is_expanded_once_per_dimension_and_seed() {
        let mut sketches = JlSketches::default();
        let rows = |q: &JlSketch| {
            (0..q.k())
                .flat_map(|j| q.row(j).to_vec())
                .collect::<Vec<_>>()
        };
        let expanded = rows(&JlSketch::from_shared_seed(4, 9, 7));
        assert_eq!(rows(sketches.get(4, 9, 7)), expanded);
        assert_eq!(rows(sketches.get(4, 9, 7)), expanded);
        assert_eq!(sketches.expanded.len(), 1);
        for (k, m, seed) in [(4, 9, 8), (3, 9, 7), (4, 10, 7)] {
            assert_eq!(
                rows(sketches.get(k, m, seed)),
                rows(&JlSketch::from_shared_seed(k, m, seed))
            );
        }
        assert_eq!(sketches.expanded.len(), 4);
    }

    #[test]
    fn exact_scores_sum_to_rank_and_lie_in_unit_interval() {
        let a = random_matrix(20, 5, 1);
        let m = ScaledMatrix::new(&a, vec![1.0; 20]);
        let scores = exact_leverage_scores(&m);
        let sum: f64 = scores.iter().sum();
        assert!((sum - 5.0).abs() < 1e-6, "sum = {sum}");
        assert!(scores.iter().all(|&s| s > -1e-9 && s < 1.0 + 1e-9));
    }

    #[test]
    fn scaling_a_row_up_increases_its_leverage() {
        let a = random_matrix(12, 4, 2);
        let base = ScaledMatrix::new(&a, vec![1.0; 12]);
        let mut scales = vec![1.0; 12];
        scales[3] = 10.0;
        let boosted = ScaledMatrix::new(&a, scales);
        let s0 = exact_leverage_scores(&base);
        let s1 = exact_leverage_scores(&boosted);
        assert!(s1[3] > s0[3]);
    }

    #[test]
    fn sketched_scores_approximate_exact_scores() {
        let a = random_matrix(40, 6, 3);
        let m = ScaledMatrix::new(&a, vec![1.0; 40]);
        let exact = exact_leverage_scores(&m);
        let mut net = Network::clique(ModelConfig::bcc(), 6);
        let options = LeverageOptions::new(0.5, 77);
        let approx =
            compute_leverage_scores(&mut net, &m, &options, &DenseGramSolver::new()).unwrap();
        // Average relative error well within the JL distortion.
        let mut total_rel = 0.0;
        for (e, ap) in exact.iter().zip(&approx) {
            if *e > 1e-6 {
                total_rel += (e - ap).abs() / e;
            }
        }
        let mean_rel = total_rel / exact.len() as f64;
        assert!(mean_rel < 0.5, "mean relative error {mean_rel}");
        assert!(net.ledger().total_rounds() > 0);
    }

    #[test]
    fn sketch_dimension_cap_is_respected_and_charged_less() {
        let a = random_matrix(30, 5, 4);
        let m = ScaledMatrix::new(&a, vec![1.0; 30]);
        let mut full_net = Network::clique(ModelConfig::bcc(), 5);
        let mut capped_net = Network::clique(ModelConfig::bcc(), 5);
        let full = LeverageOptions::new(0.5, 5);
        let capped = LeverageOptions {
            max_sketch_dimension: Some(4),
            ..full
        };
        let _ = compute_leverage_scores(&mut full_net, &m, &full, &DenseGramSolver::new()).unwrap();
        let _ =
            compute_leverage_scores(&mut capped_net, &m, &capped, &DenseGramSolver::new()).unwrap();
        assert!(capped_net.ledger().total_rounds() < full_net.ledger().total_rounds());
    }

    #[test]
    #[should_panic]
    fn eta_must_be_a_probability_like_accuracy() {
        let a = random_matrix(6, 2, 5);
        let m = ScaledMatrix::new(&a, vec![1.0; 6]);
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let _ = compute_leverage_scores(
            &mut net,
            &m,
            &LeverageOptions::new(1.5, 1),
            &DenseGramSolver::new(),
        );
    }
}
