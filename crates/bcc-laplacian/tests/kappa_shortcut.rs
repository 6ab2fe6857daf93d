//! Pins the constant κ of `LaplacianSolver::try_exact_preconditioner`.
//!
//! The exact preconditioner is the graph itself, so the certificate it used
//! to compute, `max((1 + ε)/(1 − ε), 3)` with `ε = achieved_epsilon(g, g)`,
//! equals 3 exactly whenever the eigensolve's rounding keeps `ε < 1/2`. This
//! test checks that over Gremban graphs of random SDD matrices whose
//! off-diagonal and excess weights span `1e±12`, the range the flow LP's
//! Gram systems are drawn from.

use bcc_laplacian::{LaplacianError, LaplacianSolver, SddMatrix};
use bcc_sparsifier::quality::achieved_epsilon;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const GRAPHS: usize = 1_000;

fn log_uniform(rng: &mut ChaCha8Rng) -> f64 {
    10f64.powf(24.0 * rng.gen::<f64>() - 12.0)
}

/// A random SDD matrix on `n` rows whose sparsity graph contains the path
/// `0 — 1 — … — n−1`. Off-diagonals are visited in the order
/// `SddMatrix::from_triplets` sums them, so each diagonal is at least its
/// row's off-diagonal sum in floating point too.
fn random_sdd(n: usize, rng: &mut ChaCha8Rng) -> SddMatrix {
    let mut triplets = Vec::new();
    let mut off_sum = vec![0.0f64; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if j == i + 1 || rng.gen::<f64>() < 0.5 {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                let v = sign * log_uniform(rng);
                triplets.push((i, j, v));
                off_sum[i] += v.abs();
                off_sum[j] += v.abs();
            }
        }
    }
    for (i, sum) in off_sum.iter().enumerate() {
        triplets.push((i, i, sum + log_uniform(rng)));
    }
    SddMatrix::from_triplets(n, triplets).expect("diagonally dominant by construction")
}

#[test]
fn the_exact_preconditioner_certificate_is_always_three() -> Result<(), LaplacianError> {
    let mut rng = ChaCha8Rng::seed_from_u64(2022);
    let mut checked = 0;
    while checked < GRAPHS {
        let n = rng.gen_range(2..=6);
        let g = random_sdd(n, &mut rng).gremban_graph();
        if !g.is_connected() {
            continue;
        }
        let epsilon = achieved_epsilon(&g, &g);
        assert!(
            epsilon < 0.5,
            "graph {checked}: the certificate reads ε = {epsilon}, so it was not 3"
        );
        assert_eq!(LaplacianSolver::try_exact_preconditioner(&g)?.kappa(), 3.0);
        checked += 1;
    }
    Ok(())
}
