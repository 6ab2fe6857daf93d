//! Pins the κ rule of `LaplacianSolver`: κ is the constant 3 whenever the
//! preconditioner graph equals `G`, and the certificate otherwise.
//!
//! With `H = G` the certificate, `max((1 + ε)/(1 − ε), 3)` with
//! `ε = achieved_epsilon(g, g)`, equals 3 exactly whenever the eigensolve's
//! rounding keeps `ε < 1/2`. These tests check that for the exact
//! preconditioner over Gremban graphs of random SDD matrices whose
//! off-diagonal and excess weights span `1e±12`, the range the flow LP's
//! Gram systems are drawn from, and for `try_preprocess` on sparse graphs
//! that the session's sparsifier configuration returns unchanged. Where the
//! sparsifier thins or reweights `G`, κ must still be the certificate's.

use bcc_graph::{generators, Graph};
use bcc_laplacian::{LaplacianError, LaplacianSolver, SddMatrix};
use bcc_runtime::{ModelConfig, Network};
use bcc_sparsifier::quality::achieved_epsilon;
use bcc_sparsifier::SparsifierConfig;
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

/// The sparsifier configuration `Session::laplacian` preprocesses with,
/// except for `t`.
fn config(g: &Graph, seed: u64, t: usize) -> SparsifierConfig {
    SparsifierConfig::laboratory(g.n(), g.m().max(2), 0.5, seed)
        .with_t(t)
        .with_k(2)
}

fn preprocess(g: &Graph, config: &SparsifierConfig) -> Result<LaplacianSolver, LaplacianError> {
    let mut net = Network::clique(ModelConfig::bcc(), g.n());
    LaplacianSolver::try_preprocess(&mut net, g, config)
}

#[test]
fn a_sparsifier_that_returns_the_graph_gives_kappa_three() -> Result<(), LaplacianError> {
    const SESSION_T: usize = 6;
    let mut rng = ChaCha8Rng::seed_from_u64(2022);
    let mut graphs = vec![
        generators::grid(4, 4),
        generators::grid(6, 9),
        generators::grid(12, 12),
    ];
    graphs.extend((0..3).map(|_| generators::random_connected(100, 0.1, 8, &mut rng)));
    for (index, g) in graphs.iter().enumerate() {
        for seed in [1, 7, 2022] {
            let solver = preprocess(g, &config(g, seed, SESSION_T))?;
            assert!(
                solver.sparsifier() == g,
                "graph {index}, seed {seed}: the sparsifier changed the graph"
            );
            assert_eq!(solver.kappa(), 3.0, "graph {index}, seed {seed}");
        }
        // The sparsifier returned G, so the certificate the shortcut skips
        // is that of (G, G) whatever the seed; it is O(n³), so certify each
        // graph once.
        let epsilon = achieved_epsilon(g, g);
        assert!(
            epsilon < 0.5,
            "graph {index}: the certificate reads ε = {epsilon}, so κ was not 3"
        );
    }
    Ok(())
}

#[test]
fn a_sparsifier_that_changes_the_graph_keeps_the_certificate() -> Result<(), LaplacianError> {
    // At t = 4, K_32 is thinned past ε = 1/2, and K_16 keeps every edge but
    // reweights some, so H ≠ G on the same edge set.
    for (g, seed, thinned) in [
        (generators::complete(32), 2, true),
        (generators::complete(16), 1, false),
    ] {
        let solver = preprocess(&g, &config(&g, seed, 4))?;
        assert!(solver.sparsifier() != &g);
        assert_eq!(solver.sparsifier().m() < g.m(), thinned);
        let epsilon = solver.sparsifier_epsilon();
        assert_eq!(epsilon > 0.5, thinned, "n = {}, ε = {epsilon}", g.n());
        let certified = ((1.0 + epsilon) / (1.0 - epsilon)).max(3.0);
        assert_eq!(solver.kappa(), certified, "n = {}, ε = {epsilon}", g.n());
    }
    Ok(())
}
