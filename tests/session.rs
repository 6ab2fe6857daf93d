//! Integration tests of the `bcc_core::Session` API: typed error paths on
//! malformed input, and the preprocess-once / solve-many amortization of
//! Theorem 1.3.

use bcc_core::prelude::*;
use bcc_core::{graph::generators, Error};

// ---------------------------------------------------------------------------
// Error paths: malformed input returns `Err`, never panics.
// ---------------------------------------------------------------------------

#[test]
fn disconnected_graph_returns_a_typed_error() {
    let disconnected = Graph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
    let session = Session::new();
    let err = session.laplacian(&disconnected).preprocess().unwrap_err();
    assert!(matches!(
        err,
        Error::Laplacian(bcc_core::laplacian::LaplacianError::Disconnected)
    ));
    assert!(err.to_string().contains("connected"));
}

#[test]
fn mismatched_rhs_length_returns_a_typed_error() {
    let graph = generators::grid(3, 3);
    let session = Session::new();
    let mut prepared = session.laplacian(&graph).preprocess().unwrap();
    let err = prepared.solve(&[1.0, -1.0]).unwrap_err();
    match err {
        Error::Laplacian(bcc_core::laplacian::LaplacianError::DimensionMismatch {
            expected,
            actual,
        }) => {
            assert_eq!(expected, 9);
            assert_eq!(actual, 2);
        }
        other => panic!("expected a dimension mismatch, got {other:?}"),
    }
}

#[test]
fn invalid_epsilon_values_return_typed_errors() {
    let graph = generators::grid(3, 3);
    let mut session = Session::new();
    assert!(matches!(
        session.sparsify(&graph, 0.0),
        Err(Error::InvalidEpsilon { .. })
    ));
    assert!(matches!(
        session.sparsify(&graph, f64::NAN),
        Err(Error::InvalidEpsilon { .. })
    ));
    let mut prepared = session.laplacian(&graph).preprocess().unwrap();
    let b = vec![0.0; 9];
    assert!(matches!(
        prepared.solve_with_epsilon(&b, 0.9),
        Err(Error::Laplacian(
            bcc_core::laplacian::LaplacianError::InvalidEpsilon { .. }
        ))
    ));
}

#[test]
fn empty_graph_and_empty_instance_return_typed_errors() {
    let mut session = Session::new();
    let empty = Graph::new(4);
    assert!(matches!(
        session.sparsify(&empty, 0.5),
        Err(Error::Sparsifier(
            bcc_core::sparsifier::SparsifierError::EmptyGraph
        ))
    ));
    let instance = FlowInstance::new(DiGraph::new(3), 0, 2);
    assert!(matches!(
        session.min_cost_max_flow(&instance),
        Err(Error::Flow(bcc_core::flow::FlowError::EmptyInstance))
    ));
}

#[test]
fn non_interior_lp_start_returns_a_typed_error() {
    use bcc_core::linalg::CsrMatrix;
    let lp = LpInstance {
        a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
        b: vec![1.0],
        c: vec![0.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let mut session = Session::new();
    let options = LpOptions::new(1e-3, lp.m(), 1).with_uniform_weights();
    // On the boundary: not strictly interior.
    let request = LpRequest::new(vec![1.0, 0.0], options.clone());
    assert!(matches!(
        session.lp(&lp, &request),
        Err(Error::Lp(bcc_core::lp::LpError::NotInterior))
    ));
    // Interior but off the equality manifold.
    let request = LpRequest::new(vec![0.4, 0.4], options.clone());
    assert!(matches!(
        session.lp(&lp, &request),
        Err(Error::Lp(bcc_core::lp::LpError::InfeasibleStart { .. }))
    ));
    // A malformed instance (inverted bounds).
    let mut bad = lp.clone();
    bad.lower[0] = 2.0;
    let request = LpRequest::new(vec![0.5, 0.5], options);
    assert!(matches!(
        session.lp(&bad, &request),
        Err(Error::Lp(bcc_core::lp::LpError::MalformedInstance(_)))
    ));
}

#[test]
fn sdd_gram_on_a_disconnected_gremban_graph_returns_a_typed_error() {
    use bcc_core::linalg::CsrMatrix;
    // A = I₂ is a valid LP, but its AᵀDA is diagonal, so the Gremban graph
    // is two disjoint edges and the Laplacian solver cannot run on it. The
    // Lewis-weight strategy meets it in a batched leverage-score solve, the
    // uniform one in a single centering solve.
    let lp = LpInstance {
        a: CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]),
        b: vec![0.5, 0.5],
        c: vec![1.0, -1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let mut session = Session::new();
    let lewis = LpOptions::new(1e-2, lp.m(), 1);
    for options in [lewis.clone(), lewis.with_uniform_weights()] {
        let request = LpRequest::new(vec![0.5, 0.5], options).with_sdd_gram(1e-8);
        match session.lp(&lp, &request) {
            Err(Error::Lp(bcc_core::lp::LpError::GramSolve { solver, message })) => {
                assert_eq!(solver, "gremban-laplacian");
                assert!(message.contains("connected"), "{message}");
            }
            other => panic!("expected a typed GramSolve error, got {other:?}"),
        }
    }
}

#[test]
fn sdd_gram_with_a_nan_or_non_positive_precision_returns_a_typed_error() {
    use bcc_core::linalg::CsrMatrix;
    // AᵀDA is 1×1 with a positive excess diagonal, so its Gremban graph is
    // one edge and the SDD oracle runs; only the precision is wrong. A NaN
    // precision used to be solved silently at ε = ½.
    let lp = LpInstance {
        a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
        b: vec![1.0],
        c: vec![0.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let mut session = Session::new();
    let options = LpOptions::new(1e-3, lp.m(), 1).with_uniform_weights();
    let request =
        |precision| LpRequest::new(vec![0.5, 0.5], options.clone()).with_sdd_gram(precision);
    assert!(session.lp(&lp, &request(1e-8)).is_ok());
    for precision in [f64::NAN, 0.0, -1e-8] {
        match session.lp(&lp, &request(precision)) {
            Err(Error::Lp(bcc_core::lp::LpError::GramSolve { solver, message })) => {
                assert_eq!(solver, "gremban-laplacian");
                assert!(message.contains("epsilon"), "{message}");
            }
            other => {
                panic!("precision {precision}: expected a typed GramSolve error, got {other:?}")
            }
        }
    }
}

#[test]
fn nan_demand_vector_is_rejected_not_solved() {
    use bcc_core::linalg::CsrMatrix;
    let lp = LpInstance {
        a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
        b: vec![f64::NAN],
        c: vec![0.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let mut session = Session::new();
    let options = LpOptions::new(1e-3, lp.m(), 1).with_uniform_weights();
    let request = LpRequest::new(vec![0.5, 0.5], options);
    // NaN data must be rejected up front, not flow through the solver as a
    // NaN "solution" (`norm_inf` ignores NaN, so the residual gate alone
    // would not catch it).
    assert!(matches!(
        session.lp(&lp, &request),
        Err(Error::Lp(bcc_core::lp::LpError::MalformedInstance(_)))
    ));
}

#[test]
fn nan_right_hand_side_is_rejected_before_any_solve_round() {
    use bcc_core::laplacian::LaplacianError::MagnitudeOverflow;
    let session = Session::new();
    let grid = generators::grid(3, 3);
    let mut b = vec![0.0; 9];
    b[0] = 1.0;
    b[4] = f64::NAN;
    for exact in [false, true] {
        let request = session.laplacian(&grid);
        let request = if exact {
            request.exact_preconditioner()
        } else {
            request
        };
        let mut prepared = request.preprocess().unwrap();
        assert!(
            matches!(prepared.solve(&b), Err(Error::Laplacian(MagnitudeOverflow))),
            "exact: {exact}"
        );
        assert_eq!(prepared.solves(), 0);
        assert_eq!(prepared.report(), prepared.preprocessing_report());
    }
}

#[test]
fn right_hand_sides_and_weights_near_f64_max_return_typed_errors() {
    use bcc_core::laplacian::LaplacianError::MagnitudeOverflow;
    let session = Session::new();
    // A 4-cycle with one heavy edge.
    let cycle =
        |weight: f64| Graph::from_edges(4, [(0, 1, weight), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
    fn overflows<T>(result: Result<T, Error>) -> bool {
        matches!(result, Err(Error::Laplacian(MagnitudeOverflow)))
    }

    // (‖b‖∞ + 1)·n·max_weight overflows in the solve, with unit weights and
    // a huge right-hand side, or with a unit right-hand side and a heavy
    // edge whose n·max_weight is still finite.
    let grid = generators::grid(3, 3);
    let mut b = vec![0.0; 9];
    b[0] = 1.7e308;
    b[8] = -1.7e308;
    let mut prepared = session.laplacian(&grid).preprocess().unwrap();
    assert!(overflows(prepared.solve(&b)));
    assert!(overflows(prepared.solve_many(&[b])));
    assert_eq!(prepared.solves(), 0);
    assert_eq!(prepared.report(), prepared.preprocessing_report());
    let heavy = cycle(3e307);
    let e0_minus_e3 = [1.0, 0.0, 0.0, -1.0];
    for exact in [false, true] {
        let request = session.laplacian(&heavy);
        let request = if exact {
            request.exact_preconditioner()
        } else {
            request
        };
        let mut prepared = request.preprocess().unwrap();
        assert!(overflows(prepared.solve(&e0_minus_e3)), "exact: {exact}");
    }

    // n·max_weight itself overflows: no right-hand side could be solved, so
    // preprocessing refuses the graph.
    let complete =
        generators::complete(12).map_weights(|e| if e.u + e.v == 1 { 1e308 } else { e.weight });
    assert!(overflows(session.laplacian(&cycle(1e308)).preprocess()));
    assert!(overflows(session.laplacian(&complete).preprocess()));
    assert!(overflows(
        session
            .laplacian(&cycle(1.3e308))
            .exact_preconditioner()
            .preprocess()
    ));
}

#[test]
fn parallel_edges_the_sparsifier_reweights_past_f64_max_return_typed_errors() {
    use bcc_core::laplacian::LaplacianError::MagnitudeOverflow;
    use bcc_core::sparsifier::SparsifierError::WeightOverflow;
    // A 4-cycle plus parallel (0, 1) edges of weight 1e307: every weight and
    // n·max_weight are finite, but the sparsifier multiplies the weight of an
    // edge outside its bundle by 4 in each iteration.
    for parallel in [6, 12] {
        let mut graph = generators::cycle(4);
        for _ in 0..parallel {
            graph.add_edge(0, 1, 1e307);
        }
        let mut session = Session::new();
        assert!(
            matches!(
                session.laplacian(&graph).preprocess(),
                Err(Error::Laplacian(MagnitudeOverflow))
            ),
            "{parallel} parallel edges"
        );
        assert!(matches!(
            session.sparsify(&graph, 4.0),
            Err(Error::Sparsifier(WeightOverflow))
        ));
        // The exact preconditioner reweights nothing, so it accepts the graph.
        assert!(session
            .laplacian(&graph)
            .exact_preconditioner()
            .preprocess()
            .is_ok());
    }
}

#[test]
fn session_lp_solves_a_valid_instance() {
    use bcc_core::linalg::CsrMatrix;
    let lp = LpInstance {
        a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
        b: vec![1.0],
        c: vec![0.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let mut session = Session::new();
    let options = LpOptions::new(1e-3, lp.m(), 1).with_uniform_weights();
    let request = LpRequest::new(vec![0.5, 0.5], options);
    let outcome = session.lp(&lp, &request).unwrap();
    assert!(lp.is_feasible(&outcome.value.x, 1e-6));
    assert!(outcome.value.objective < 5e-3);
    assert!(outcome.report.has_phase("lp solve"));
}

// ---------------------------------------------------------------------------
// Amortization: preprocess once, solve many.
// ---------------------------------------------------------------------------

#[test]
fn solve_many_amortizes_one_preprocessing_over_the_batch() {
    let graph = generators::grid(5, 5);
    let session = Session::builder().seed(9).build();

    // Serve a batch of four right-hand sides off one preprocessing pass.
    let mut prepared = session
        .laplacian(&graph)
        .epsilon(1e-6)
        .preprocess()
        .unwrap();
    let preprocessing = prepared.preprocessing_report().clone();
    let preprocessing_rounds = preprocessing.total_rounds;
    assert!(preprocessing_rounds > 0);

    let batch: Vec<Vec<f64>> = (1..5)
        .map(|k| {
            let mut b = vec![0.0; graph.n()];
            b[0] = 1.0;
            b[graph.n() - k] = -1.0;
            b
        })
        .collect();
    let outcome = prepared.solve_many(&batch).unwrap();
    assert_eq!(outcome.value.len(), 4);
    assert_eq!(prepared.solves(), 4);

    // The batch outcome's report covers the solves alone — preprocessing
    // does not leak into per-request metering.
    let phases: Vec<_> = outcome.report.phase_names().collect();
    assert_eq!(phases, vec!["laplacian solve"]);
    let solve_rounds = outcome.report.total_rounds;
    assert!(solve_rounds > 0);

    // The handle's cumulative ledger charges the preprocessing phases exactly
    // once: every phase charged during preprocessing has identical stats
    // after the batch, and the only growth is the per-solve phase.
    let cumulative = prepared.report();
    for (name, stats) in &preprocessing.breakdown {
        assert_eq!(
            cumulative.phase(name),
            Some(*stats),
            "preprocessing phase {name} must be charged exactly once"
        );
    }
    assert_eq!(
        cumulative.total_rounds,
        preprocessing_rounds + solve_rounds,
        "every charged round is either preprocessing (once) or per-solve"
    );

    // Each additional solve is far cheaper than preprocessing…
    assert!(solve_rounds / 4 < preprocessing_rounds);
    // …and every solution meets the accuracy contract.
    for (b, solve) in batch.iter().zip(&outcome.value) {
        assert!(prepared.solver().relative_error(b, &solve.solution) < 1e-5);
    }
}

#[test]
fn round_reports_round_trip_through_json_for_cost_telemetry() {
    let mut session = Session::builder().seed(5).build();
    let graph = generators::complete(10);
    let outcome = session.sparsify(&graph, 0.5).unwrap();
    assert!(!outcome.report.breakdown.is_empty());

    let json = serde_json::to_string(&outcome.report).unwrap();
    let back: RoundReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome.report);

    // Pretty output (the future BENCH_*.json shape) round-trips too.
    let pretty = serde_json::to_string_pretty(&session.cumulative_report()).unwrap();
    let back: RoundReport = serde_json::from_str(&pretty).unwrap();
    assert_eq!(back, session.cumulative_report());
}

#[test]
fn solve_many_matches_sequential_solves_bit_for_bit() {
    let graph = generators::grid(4, 4);
    let session = Session::builder().seed(21).build();
    let batch: Vec<Vec<f64>> = (0..3)
        .map(|k| {
            let mut b = vec![0.0; graph.n()];
            b[k] = 1.0;
            b[15 - k] = -1.0;
            b
        })
        .collect();

    let mut many = session.laplacian(&graph).preprocess().unwrap();
    let batched = many.solve_many(&batch).unwrap();

    let mut sequential = session.laplacian(&graph).preprocess().unwrap();
    for (b, from_batch) in batch.iter().zip(&batched.value) {
        let solo = sequential.solve(b).unwrap();
        assert_eq!(solo.value.solution, from_batch.solution);
    }
    assert_eq!(sequential.report(), many.report());
}
