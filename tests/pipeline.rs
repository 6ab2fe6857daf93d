//! Cross-crate integration tests: the full Figure-1 pipeline
//! (spanner → sparsifier → Laplacian solver → LP solver → min-cost max-flow)
//! exercised end-to-end on seeded random instances.

use bcc_core::prelude::*;
use bcc_core::{graph::generators, linalg::vector, sparsifier::quality};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn spanner_feeds_sparsifier_feeds_laplacian_solver() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let graph = generators::random_connected(36, 0.35, 8, &mut rng);

    // Stage 1: a Baswana–Sen spanner of the graph (Broadcast CONGEST).
    let mut bc =
        Network::on_graph(ModelConfig::broadcast_congest(), graph.adjacency_lists()).unwrap();
    let spanner_out = baswana_sen_spanner(&mut bc, &graph, SpannerParams { k: 3, seed: 1 });
    let spanner = graph.subgraph(&spanner_out.f_plus);
    assert!(bcc_core::spanner::verify::is_spanner_of(
        &spanner, &graph, 5
    ));

    // Stage 2: a spectral sparsifier (Broadcast CONGEST), certified.
    let Outcome {
        value: sparsified,
        report: sparsifier_report,
    } = Session::builder()
        .seed(3)
        .build()
        .sparsify(&graph, 0.5)
        .unwrap();
    let sparsifier = sparsified.sparsifier;
    assert!(sparsifier.is_connected());
    let eps = quality::achieved_epsilon(&graph, &sparsifier);
    assert!(
        eps.is_finite(),
        "sparsifier must spectrally dominate the graph"
    );
    assert!(sparsifier_report.total_rounds > 0);

    // Stage 3: Laplacian solve (BCC) against the dense ground truth.
    let mut b = vec![0.0; graph.n()];
    b[3] = 2.0;
    b[17] = -2.0;
    let mut prepared = Session::builder()
        .seed(4)
        .build()
        .laplacian(&graph)
        .epsilon(1e-8)
        .preprocess()
        .unwrap();
    let x = prepared.solve(&b).unwrap().value.solution;
    let exact = bcc_core::laplacian::exact_solve(&graph, &b);
    let diff = vector::sub(&x, &exact);
    let rel = bcc_core::graph::laplacian::laplacian_norm(&graph, &diff)
        / bcc_core::graph::laplacian::laplacian_norm(&graph, &exact);
    assert!(rel < 1e-4, "relative L-norm error {rel}");
}

#[test]
fn full_flow_pipeline_matches_the_combinatorial_baseline() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let instance = generators::random_flow_instance(6, 0.3, 3, &mut rng);
    let baseline = ssp_min_cost_max_flow(&instance);
    let Outcome {
        value: result,
        report,
    } = Session::builder()
        .seed(5)
        .build()
        .min_cost_max_flow(&instance)
        .unwrap();
    assert!(result.rounded_feasible);
    assert_eq!(result.flow.value, baseline.value);
    assert_eq!(result.flow.cost, baseline.cost);
    // The pipeline communicates but stays far below the trivial "ship the
    // whole graph to one vertex" cost of Θ(m·log n / log n) = Θ(m) rounds…
    // sanity-check it is simply positive and the ledger has the phases.
    assert!(report.total_rounds > 0);
    assert!(report.has_phase("path following"));
    assert!(report.has_phase("mcmf"));
    // The structured breakdown preserves ledger order and renders the legacy
    // human-readable table through Display.
    assert!(report.to_string().contains("path following"));
    assert!(report.to_string().contains("TOTAL"));
}

#[test]
fn round_counts_scale_sublinearly_in_the_number_of_edges() {
    // Theorem 1.2's round bound is polylogarithmic in n (and independent of
    // m); doubling the density of the graph must not double the rounds.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let sparse = generators::random_connected(40, 0.1, 4, &mut rng);
    let dense = generators::random_connected(40, 0.8, 4, &mut rng);
    let mut session = Session::builder().seed(1).build();
    let sparse_report = session.sparsify(&sparse, 0.5).unwrap().report;
    let dense_report = session.sparsify(&dense, 0.5).unwrap().report;
    let edge_ratio = dense.m() as f64 / sparse.m() as f64;
    let round_ratio = dense_report.total_rounds as f64 / sparse_report.total_rounds as f64;
    assert!(edge_ratio > 3.0, "edge ratio {edge_ratio}");
    assert!(
        round_ratio < edge_ratio / 1.5,
        "rounds grew almost as fast as edges ({round_ratio} vs {edge_ratio})"
    );
}

#[test]
fn laplacian_solver_handles_multiple_right_hand_sides_cheaply() {
    // Theorem 1.3 separates preprocessing from per-instance cost: solving a
    // second system must be much cheaper than preprocessing + first solve.
    let graph = generators::grid(5, 5);
    let cfg = SparsifierConfig::laboratory(graph.n(), graph.m(), 0.5, 9)
        .with_t(6)
        .with_k(2);
    let mut net = Network::clique(ModelConfig::bcc(), graph.n());
    let solver = LaplacianSolver::preprocess(&mut net, &graph, &cfg);
    let preprocessing = solver.preprocessing_rounds();

    let mut b1 = vec![0.0; graph.n()];
    b1[0] = 1.0;
    b1[24] = -1.0;
    let solve1 = solver.solve(&mut net, &b1, 1e-6);
    let mut b2 = vec![0.0; graph.n()];
    b2[4] = 1.0;
    b2[20] = -1.0;
    let solve2 = solver.solve(&mut net, &b2, 1e-6);

    assert!(solve1.rounds < preprocessing);
    assert!(solve2.rounds < preprocessing);
    assert!(solver.relative_error(&b1, &solve1.solution) < 1e-5);
    assert!(solver.relative_error(&b2, &solve2.solution) < 1e-5);
}
