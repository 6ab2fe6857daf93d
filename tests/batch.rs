//! Integration tests of serving a closed batch: every request submitted into
//! one `StreamEngine::serve` scope, then its tickets waited on in submission
//! order. A malformed request fails alone, with a typed error, and neither
//! poisons the rest of the batch nor is rebuilt when it comes back.

use bcc_core::prelude::*;
use bcc_core::stream::{StreamEngine, StreamOutput};
use bcc_core::{graph::generators, Error, Request, Response};

const MASTER_SEED: u64 = 2022;

type BatchResults = Vec<Result<bcc_core::Outcome<Response>, Error>>;

/// Serves `requests` as one closed batch: submit them all into one scope,
/// then wait on the tickets in submission order.
fn serve_batch(engine: &mut StreamEngine, requests: &[Request]) -> StreamOutput<BatchResults> {
    engine.serve(|client| {
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| client.submit(r.clone(), Priority::Bulk).unwrap())
            .collect();
        tickets.into_iter().map(|t| client.wait(t)).collect()
    })
}

#[test]
fn a_malformed_request_fails_alone_without_poisoning_the_batch() {
    let grid = generators::grid(4, 4);
    let mut b = vec![0.0; grid.n()];
    b[0] = 1.0;
    b[15] = -1.0;
    let disconnected = Graph::from_edges(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]);

    let requests = vec![
        Request::laplacian(grid.clone(), b.clone()),
        Request::laplacian(disconnected.clone(), vec![0.0; 6]),
        Request::sparsify(generators::complete(10), f64::NAN),
        Request::laplacian(grid.clone(), b.clone()),
        Request::sparsify(generators::complete(10), 0.5),
    ];
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(3).build();
    let output = serve_batch(&mut engine, &requests);

    let results = &output.value;
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1],
        Err(Error::Laplacian(
            bcc_core::laplacian::LaplacianError::Disconnected
        ))
    ));
    assert!(matches!(results[2], Err(Error::InvalidEpsilon { .. })));
    assert!(results[3].is_ok());
    assert!(results[4].is_ok());

    let report = &output.report;
    assert_eq!(report.failures, 2);
    assert!(!report.per_request[1].ok);
    assert!(report.per_request[1]
        .error
        .as_deref()
        .unwrap()
        .contains("connected"));
    assert!(report.per_request[2]
        .error
        .as_deref()
        .unwrap()
        .contains("epsilon"));
    assert_eq!(report.per_request[1].report.total_rounds, 0);

    // The healthy solves on the shared grid are identical to those of an
    // unpoisoned batch.
    let mut clean_engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let clean = serve_batch(
        &mut clean_engine,
        &[
            Request::laplacian(grid.clone(), b.clone()),
            Request::laplacian(grid, b),
        ],
    );
    let poisoned_first = results[0].as_ref().unwrap();
    let clean_first = clean.value[0].as_ref().unwrap();
    assert_eq!(poisoned_first.value, clean_first.value);

    // The failed preprocessing is cached too, and contributes no rounds:
    // resubmitting the disconnected graph in a later batch returns the same
    // typed error without building (or charging) the sparsifier again.
    let failed_entry = report
        .preprocessing
        .iter()
        .find(|p| {
            p.fingerprint == bcc_core::graph::fingerprint::fingerprint(&disconnected).to_hex()
        })
        .unwrap();
    assert_eq!(failed_entry.report.total_rounds, 0);
    let misses = engine.cache_stats().misses;
    let retry = serve_batch(
        &mut engine,
        &[Request::laplacian(disconnected, vec![0.0; 6])],
    );
    assert_eq!(retry.value[0].as_ref().err(), results[1].as_ref().err());
    assert_eq!(retry.report.cache_misses, 0);
    assert_eq!(retry.report.cache_hits, 1);
    assert!(retry.report.preprocessing[0].cached);
    assert_eq!(engine.cache_stats().misses, misses);
}

#[test]
fn sdd_gram_choice_on_a_general_lp_is_a_typed_error_not_a_panic() {
    // A generic box LP whose AᵀDA is not diagonally dominant (row (1, 3)
    // makes the (0, 1) off-diagonal 3·d₀ overwhelm the column-0 diagonal
    // d₀ + d₂): the Gremban route's precondition fails and the batch reports
    // it as a typed error.
    let lp = LpInstance {
        a: bcc_core::linalg::CsrMatrix::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (0, 1, 3.0), (1, 1, 1.0), (2, 0, 1.0)],
        ),
        b: vec![0.7, 1.4],
        c: vec![1.0, 1.0, 1.0],
        lower: vec![0.0, 0.0, 0.0],
        upper: vec![1.0, 1.0, 1.0],
    };
    let request = LpRequest::new(
        vec![0.3, 0.5, 0.4],
        LpOptions::new(1e-2, lp.m(), 3).with_uniform_weights(),
    )
    .with_sdd_gram(1e-8);

    let mut engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let output = serve_batch(&mut engine, &[Request::lp(lp, request)]);
    match &output.value[0] {
        Err(Error::Lp(bcc_core::lp::LpError::GramSolve { solver, message })) => {
            assert_eq!(*solver, "gremban-laplacian");
            assert!(message.contains("diagonally dominant"), "{message}");
        }
        other => panic!("expected a typed GramSolve error, got {other:?}"),
    }
    assert_eq!(output.report.failures, 1);
}
