//! Property-based tests (proptest) on the core invariants of the
//! reproduction: spanner stretch, sparsifier spectral domination, Laplacian
//! solver error bounds, Gremban reduction correctness, mixed-ball projection
//! feasibility/optimality and flow feasibility/optimality.

use bcc_core::prelude::*;
use bcc_core::{graph::generators, graph::laplacian, linalg::vector};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random connected weighted graph described by (n, density, weight cap, seed).
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (6usize..28, 0usize..100, 1u64..8, any::<u64>()).prop_map(|(n, density, maxw, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::random_connected(n, density as f64 / 100.0, maxw, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn baswana_sen_spanner_has_the_promised_stretch(g in graph_strategy(), k in 2usize..4, seed in any::<u64>()) {
        let mut net = Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
        let out = baswana_sen_spanner(&mut net, &g, SpannerParams { k, seed });
        let spanner = g.subgraph(&out.f_plus);
        prop_assert!(bcc_core::spanner::verify::is_spanner_of(&spanner, &g, 2 * k - 1));
        // With p ≡ 1 nothing is ever sampled out.
        prop_assert!(out.f_minus.is_empty());
    }

    #[test]
    fn sparsifier_spectrally_dominates_and_stays_connected(g in graph_strategy(), seed in any::<u64>()) {
        let cfg = SparsifierConfig::laboratory(g.n(), g.m().max(2), 0.5, seed).with_t(4).with_k(2);
        let mut net = Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
        let out = sparsify_ad_hoc(&mut net, &g, &cfg);
        prop_assert!(out.sparsifier.is_connected());
        let eps = bcc_core::sparsifier::quality::achieved_epsilon(&g, &out.sparsifier);
        prop_assert!(eps.is_finite());
        // Every sparsifier edge weight is the original times a power of four.
        for (i, &orig) in out.edge_origin.iter().enumerate() {
            let ratio = out.sparsifier.edge(i).weight / g.edge(orig).weight;
            let log4 = ratio.log2() / 2.0;
            prop_assert!((log4 - log4.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn laplacian_solver_meets_its_error_guarantee(g in graph_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let raw: Vec<f64> = (0..g.n()).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = vector::remove_mean(&raw);
        let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
        let mut net = Network::clique(ModelConfig::bcc(), g.n());
        for eps in [0.25, 1e-3] {
            let solve = solver.try_solve(&mut net, &b, eps).expect("a valid right-hand side");
            let err = solver.relative_error(&b, &solve.solution);
            prop_assert!(err <= eps * 1.05, "eps {} err {}", eps, err);
        }
    }

    #[test]
    fn gremban_reduction_solves_sdd_systems(n in 3usize..10, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Random strictly dominant SDD matrix whose sparsity graph is
        // connected (the Gremban reduction targets connected systems; the
        // flow-LP matrices of Lemma 5.1 always are).
        let mut triplets = Vec::new();
        let mut row_sum = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if j == i + 1 || rng.gen::<f64>() < 0.5 {
                    let sign: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    let v = sign * (0.5 + rng.gen::<f64>());
                    triplets.push((i, j, v));
                    row_sum[i] += v.abs();
                    row_sum[j] += v.abs();
                }
            }
        }
        for i in 0..n {
            triplets.push((i, i, row_sum[i] + 0.5 + rng.gen::<f64>()));
        }
        let matrix = bcc_core::laplacian::SddMatrix::from_triplets(n, triplets).unwrap();
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = matrix.apply(&x_true);
        let mut net = Network::clique(ModelConfig::bcc(), n);
        let x = bcc_core::laplacian::solve_sdd(
            &mut net,
            &matrix,
            &b,
            1e-8,
            &bcc_core::laplacian::SddSolveMode::ExactPreconditioner,
        )
        .expect("the path keeps the Gremban graph connected");
        prop_assert!(vector::approx_eq(&x, &x_true, 1e-3), "{:?} vs {:?}", x, x_true);
    }

    #[test]
    fn mixed_ball_projection_is_feasible_and_locally_optimal(
        m in 2usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 6.0 - 3.0).collect();
        let l: Vec<f64> = (0..m).map(|_| 0.05 + rng.gen::<f64>() * 2.0).collect();
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let projection = bcc_core::lp::project_mixed_ball(&mut net, &a, &l);
        prop_assert!(bcc_core::lp::mixed_ball::is_in_mixed_ball(&projection.x, &l, 1e-6));
        // No random feasible point may beat it.
        for _ in 0..25 {
            let dir: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let norm = vector::norm2(&dir);
            let inf: f64 = dir.iter().zip(&l).map(|(x, li)| x.abs() / li).fold(0.0, f64::max);
            if norm + inf < 1e-9 {
                continue;
            }
            let scale = 0.999 / (norm + inf);
            let candidate: Vec<f64> = dir.iter().map(|v| v * scale).collect();
            let value = vector::dot(&candidate, &a);
            prop_assert!(projection.value >= value - 1e-6);
        }
    }

    #[test]
    fn dinic_and_ssp_agree_and_flows_are_feasible(n in 4usize..9, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let instance = generators::random_flow_instance(n, 0.3, 5, &mut rng);
        let max_flow = bcc_core::flow::dinic_max_flow(&instance);
        let mcmf = ssp_min_cost_max_flow(&instance);
        prop_assert_eq!(max_flow.value, mcmf.value);
        let as_f64: Vec<f64> = mcmf.flow.iter().map(|&f| f as f64).collect();
        prop_assert!(instance.is_feasible(&as_f64, 1e-9));
        prop_assert!(mcmf.cost <= max_flow.cost);
    }

    #[test]
    fn laplacian_quadratic_form_is_positive_semidefinite(g in graph_strategy(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..g.n()).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        prop_assert!(laplacian::quadratic_form(&g, &x) >= -1e-9);
        // The kernel contains the constant vectors.
        let c = vec![rng.gen::<f64>(); g.n()];
        prop_assert!(laplacian::quadratic_form(&g, &c).abs() < 1e-7);
    }
}

/// Theorem 1.3's guarantee, lane by lane, for right-hand sides solved in
/// lockstep: 32 seeded random connected graphs, half of them preconditioned
/// by the sparsifier, with one lane, one full group of ten and a padded
/// second group (13). Every lane must meet ε in the `L_G`-norm and carry the
/// bits and statistics of its own one-lane solve.
#[test]
fn lockstep_laplacian_solves_meet_the_guarantee_lane_by_lane_across_seeds() {
    use bcc_core::laplacian::ScratchArena;
    for seed in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(6..28);
        let g = generators::random_connected(n, rng.gen::<f64>(), rng.gen_range(1..8), &mut rng);
        let mut net = Network::clique(ModelConfig::bcc(), n);
        let solver = if seed % 2 == 0 {
            LaplacianSolver::try_exact_preconditioner(&g)
        } else {
            let config = SparsifierConfig::laboratory(n, g.m(), 0.5, seed)
                .with_t(6)
                .with_k(2);
            LaplacianSolver::try_preprocess(&mut net, &g, &config)
        }
        .expect("a connected graph on a matching network");
        let mut arena = ScratchArena::new();
        let (mut block_out, mut stats, mut single) = (Vec::new(), Vec::new(), Vec::new());
        for lanes in [1, 10, 13] {
            let vectors: Vec<Vec<f64>> = (0..lanes)
                .map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect())
                .collect();
            let block: Vec<f64> = (0..n * lanes)
                .map(|k| vectors[k % lanes][k / lanes])
                .collect();
            for eps in [0.25, 1e-3] {
                solver
                    .try_solve_block_into(
                        &mut net,
                        &block,
                        lanes,
                        eps,
                        &mut arena,
                        &mut block_out,
                        &mut stats,
                    )
                    .expect("valid right-hand sides");
                for (j, b) in vectors.iter().enumerate() {
                    let lane: Vec<f64> = block_out.iter().skip(j).step_by(lanes).copied().collect();
                    let err = solver.relative_error(b, &lane);
                    assert!(
                        err <= eps * 1.05,
                        "seed {seed}, {lanes} lanes, lane {j}, eps {eps}: error {err}"
                    );
                    let one = solver
                        .try_solve_into(&mut net, b, eps, &mut arena, &mut single)
                        .expect("a valid right-hand side");
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&lane),
                        bits(&single),
                        "seed {seed}, {lanes} lanes, lane {j}, eps {eps}"
                    );
                    assert_eq!(stats[j], one, "seed {seed}, {lanes} lanes, lane {j}");
                }
            }
        }
    }
}
