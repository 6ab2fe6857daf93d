//! Integration tests of the `bcc_core::stream` serving engine: bit-identity
//! with a sequential `Session` loop across all four pipelines (for any
//! worker count, priority mix and submission/collection interleaving),
//! backpressure and rejection paths, drain-on-shutdown, bounded-cache
//! eviction correctness, and a golden snapshot of the `StreamReport` JSON
//! schema that `BENCH_stream.json` consumers rely on.

use std::collections::HashMap;

use bcc_core::cache::Lru;
use bcc_core::prelude::*;
use bcc_core::stream::{
    PreprocessingCost, RequestCost, StreamClient, StreamEngine, StreamReport, Ticket,
};
use bcc_core::{graph::generators, CacheStats, Error, Request, Response};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const MASTER_SEED: u64 = 2022;

/// A mixed workload touching all four pipelines, with repeated Laplacian
/// topologies so the cache has something to amortize. Priorities alternate
/// to exercise both queues.
fn mixed_workload() -> Vec<(Request, Priority)> {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let grid = generators::grid(4, 4);
    let mut b1 = vec![0.0; grid.n()];
    b1[0] = 1.0;
    b1[15] = -1.0;
    let mut b2 = vec![0.0; grid.n()];
    b2[3] = 1.0;
    b2[12] = -1.0;
    let other = generators::random_connected(12, 0.4, 4, &mut rng);
    let mut b3 = vec![0.0; other.n()];
    b3[0] = 2.0;
    b3[11] = -2.0;

    let lp = LpInstance {
        a: bcc_core::linalg::CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
        b: vec![1.0],
        c: vec![0.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let lp_request = LpRequest::new(
        vec![0.5, 0.5],
        LpOptions::new(1e-3, lp.m(), 7).with_uniform_weights(),
    );

    let flow = generators::random_flow_instance(5, 0.3, 3, &mut rng);

    vec![
        (
            Request::sparsify(generators::complete(14), 0.5),
            Priority::Interactive,
        ),
        (Request::laplacian(grid.clone(), b1), Priority::Bulk),
        (Request::laplacian(grid, b2), Priority::Bulk), // same topology: cache hit
        (Request::laplacian(other, b3), Priority::Interactive),
        (Request::lp(lp, lp_request), Priority::Interactive),
        (Request::min_cost_max_flow(flow), Priority::Bulk),
    ]
}

/// The documented sequential equivalent of a stream scope: per-submission
/// sessions at the derived seed for sparsify/lp/mcmf, one prepared handle
/// per distinct graph at the master seed for Laplacian solves, keyed by
/// submission index.
fn sequential_reference(requests: &[Request]) -> Vec<Result<bcc_core::Outcome<Response>, Error>> {
    let engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let mut prepared: HashMap<u128, Result<PreparedLaplacian, Error>> = HashMap::new();
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut session = Session::builder().seed(engine.request_seed(i)).build();
            match request {
                Request::Sparsify { graph, epsilon } => session
                    .sparsify(graph, *epsilon)
                    .map(|o| o.map(Response::Sparsify)),
                Request::Laplacian { graph, b, .. } => {
                    let key = bcc_core::graph::fingerprint::fingerprint(graph).as_u128();
                    let handle = prepared.entry(key).or_insert_with(|| {
                        Session::builder()
                            .seed(MASTER_SEED)
                            .build()
                            .laplacian(graph)
                            .preprocess()
                    });
                    match handle {
                        Ok(handle) => handle.solve(b).map(|o| o.map(Response::Laplacian)),
                        Err(e) => Err(e.clone()),
                    }
                }
                Request::Lp { instance, request } => {
                    session.lp(instance, request).map(|o| o.map(Response::Lp))
                }
                Request::MinCostMaxFlow { instance, options } => match options {
                    Some(opts) => session.min_cost_max_flow_with(instance, opts),
                    None => session.min_cost_max_flow(instance),
                }
                .map(|o| o.map(Response::MinCostMaxFlow)),
            }
        })
        .collect()
}

fn assert_results_match(
    got: &[Result<bcc_core::Outcome<Response>, Error>],
    want: &[Result<bcc_core::Outcome<Response>, Error>],
) {
    assert_eq!(got.len(), want.len());
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.value, want.value, "submission {i} value");
                assert_eq!(got.report, want.report, "submission {i} report");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "submission {i} error"),
            other => panic!("submission {i}: stream and sequential disagree: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-identity: stream == sequential Session loop at equal seeds, for any
// worker count, priority mix and interleaving of submission and collection.
// ---------------------------------------------------------------------------

#[test]
fn interleaved_stream_is_bit_identical_to_the_sequential_session_loop() {
    let workload = mixed_workload();
    let reference =
        sequential_reference(&workload.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());

    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(4).build();
    let output = engine.serve(|client| {
        // Interleave submission and collection: submit two, collect the
        // first, submit the rest, then collect everything else in reverse
        // submission order. Scheduling and collection order must not matter.
        let mut tickets: Vec<Ticket> = Vec::new();
        for (request, priority) in &workload[..2] {
            tickets.push(client.submit(request.clone(), *priority).unwrap());
        }
        let first = client.wait(tickets[0]);
        for (request, priority) in &workload[2..] {
            tickets.push(client.submit(request.clone(), *priority).unwrap());
        }
        let mut collected: Vec<(u64, Result<bcc_core::Outcome<Response>, Error>)> =
            vec![(tickets[0].index(), first)];
        for ticket in tickets[1..].iter().rev() {
            collected.push((ticket.index(), client.wait(*ticket)));
        }
        collected.sort_by_key(|(index, _)| *index);
        collected
            .into_iter()
            .map(|(_, result)| result)
            .collect::<Vec<_>>()
    });

    assert_results_match(&output.value, &reference);
    assert!(output.uncollected.is_empty(), "everything was collected");
    assert_eq!(output.report.requests, workload.len() as u64);
    assert_eq!(output.report.failures, 0);
    assert_eq!(output.report.interactive, 3);
    assert_eq!(output.report.bulk, 3);
    assert_eq!(output.report.cache_hits, 1, "repeated grid topology");
    assert_eq!(output.report.cache_misses, 2, "two distinct topologies");

    // The per-request accounting: submission order, derived seeds,
    // per-solve reports.
    for (i, cost) in output.report.per_request.iter().enumerate() {
        assert_eq!(cost.index, i as u64);
        assert_eq!(cost.seed, engine.request_seed(i));
        assert!(cost.ok);
        assert_eq!(
            cost.report,
            reference[i].as_ref().unwrap().report,
            "submission {i} metered report"
        );
    }
}

#[test]
fn worker_count_and_interleaving_do_not_change_results_or_report() {
    let workload = mixed_workload();

    // Engine A: one worker, submit-all-then-wait-all.
    let mut one = StreamEngine::builder().seed(MASTER_SEED).workers(1).build();
    let out_one = one.serve(|client| {
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|(r, p)| client.submit(r.clone(), *p).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });

    // Engine B: seven workers, lock-step submit-then-wait (a completely
    // different interleaving — at most one request in flight at a time).
    let mut many = StreamEngine::builder().seed(MASTER_SEED).workers(7).build();
    let out_many = many.serve(|client| {
        workload
            .iter()
            .map(|(r, p)| {
                let ticket = client.submit(r.clone(), *p).unwrap();
                client.wait(ticket)
            })
            .collect::<Vec<_>>()
    });

    assert_results_match(&out_one.value, &out_many.value);
    // The whole report — per-request costs, cache accounting, priorities,
    // totals, even the cache-level counters (the cache is unbounded here) —
    // is scheduling-independent.
    assert_eq!(out_one.report, out_many.report);
}

#[test]
fn request_seeds_are_deterministic_and_distinct() {
    let engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let again = StreamEngine::builder().seed(MASTER_SEED).build();
    let seeds: Vec<u64> = (0..64).map(|i| engine.request_seed(i)).collect();
    for (i, &s) in seeds.iter().enumerate() {
        assert_eq!(s, again.request_seed(i), "derivation is a pure function");
    }
    let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        seeds.len(),
        "derived seeds must not collide"
    );
    assert_ne!(
        StreamEngine::builder().seed(1).build().request_seed(0),
        engine.request_seed(0),
        "different master seeds derive different request seeds"
    );
}

#[test]
fn priorities_affect_scheduling_only_never_results() {
    let workload = mixed_workload();
    let mut bulk_only = StreamEngine::builder().seed(MASTER_SEED).workers(3).build();
    let out_bulk = bulk_only.serve(|client| {
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|(r, _)| client.submit(r.clone(), Priority::Bulk).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });
    let mut interactive_only = StreamEngine::builder().seed(MASTER_SEED).workers(3).build();
    let out_interactive = interactive_only.serve(|client| {
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|(r, _)| client.submit(r.clone(), Priority::Interactive).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });
    assert_results_match(&out_bulk.value, &out_interactive.value);
    assert_eq!(out_bulk.report.bulk, workload.len() as u64);
    assert_eq!(out_interactive.report.interactive, workload.len() as u64);
    assert_eq!(out_bulk.report.total, out_interactive.report.total);
}

// ---------------------------------------------------------------------------
// Backpressure: the bounded queue blocks or rejects, per policy.
// ---------------------------------------------------------------------------

#[test]
fn block_policy_admits_everything_through_a_tiny_queue() {
    let grid = generators::grid(4, 4);
    let requests: Vec<Request> = (1..=8)
        .map(|k| {
            let mut b = vec![0.0; grid.n()];
            b[k % grid.n()] = 1.0;
            b[grid.n() - 1 - k % grid.n()] -= 1.0;
            Request::laplacian(grid.clone(), b)
        })
        .collect();
    let reference = sequential_reference(&requests);

    let mut engine = StreamEngine::builder()
        .seed(MASTER_SEED)
        .workers(2)
        .queue_capacity(1)
        .backpressure(BackpressurePolicy::Block)
        .build();
    let output = engine.serve(|client| {
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| {
                client
                    .submit(r.clone(), Priority::Bulk)
                    .expect("blocking backpressure never rejects")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });
    assert_results_match(&output.value, &reference);
    assert_eq!(output.report.rejected, 0);
    assert_eq!(output.report.requests, 8);
}

#[test]
fn reject_policy_surfaces_a_typed_overloaded_error() {
    // One worker, a two-slot queue, and a worker-occupying first request: a
    // rapid burst behind it must overflow the queue. (The burst outnumbers
    // the queue by enough that the single busy worker cannot drain it,
    // whatever the thread timing.)
    let burst = 16usize;
    let capacity = 2usize;
    let mut engine = StreamEngine::builder()
        .seed(MASTER_SEED)
        .workers(1)
        .queue_capacity(capacity)
        .backpressure(BackpressurePolicy::Reject)
        .build();

    let grid = generators::grid(4, 4);
    let mut b = vec![0.0; grid.n()];
    b[0] = 1.0;
    b[15] = -1.0;

    let output = engine.serve(|client| {
        let slow = client
            .submit(
                Request::sparsify(generators::complete(16), 0.5),
                Priority::Interactive,
            )
            .expect("the queue is empty at the first submission");
        let mut accepted = vec![slow];
        let mut rejected = 0u64;
        for _ in 0..burst {
            match client.submit(Request::laplacian(grid.clone(), b.clone()), Priority::Bulk) {
                Ok(ticket) => accepted.push(ticket),
                Err(Error::Overloaded { capacity: c }) => {
                    assert_eq!(c, capacity);
                    rejected += 1;
                }
                Err(other) => panic!("expected Overloaded, got {other}"),
            }
        }
        (accepted, rejected)
    });

    let (accepted, rejected) = output.value;
    assert!(rejected > 0, "the burst must overflow the two-slot queue");
    assert_eq!(output.report.rejected, rejected);
    assert_eq!(output.report.requests, accepted.len() as u64);
    // Rejected submissions consume no index: the admitted sequence is dense,
    // so it is bit-identical to a sequential loop over the admitted requests.
    let mut admitted_requests = vec![Request::sparsify(generators::complete(16), 0.5)];
    admitted_requests
        .extend((1..accepted.len()).map(|_| Request::laplacian(grid.clone(), b.clone())));
    let reference = sequential_reference(&admitted_requests);
    let drained: Vec<_> = output.uncollected.into_iter().map(|(_, r)| r).collect();
    assert_results_match(&drained, &reference);
    assert_eq!(output.report.failures, 0);
}

// ---------------------------------------------------------------------------
// Shutdown: returning from the serve scope drains every admitted request.
// ---------------------------------------------------------------------------

#[test]
fn drain_on_shutdown_completes_every_unconsumed_ticket() {
    let workload = mixed_workload();
    let reference =
        sequential_reference(&workload.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(3).build();
    let output = engine.serve(|client| {
        for (request, priority) in &workload {
            client.submit(request.clone(), *priority).unwrap();
        }
        // Return without waiting for anything: the engine must drain.
    });
    assert_eq!(output.uncollected.len(), workload.len());
    for (expected_index, (index, _)) in output.uncollected.iter().enumerate() {
        assert_eq!(*index, expected_index as u64, "submission order");
    }
    let drained: Vec<_> = output.uncollected.into_iter().map(|(_, r)| r).collect();
    assert_results_match(&drained, &reference);
    assert_eq!(output.report.requests, workload.len() as u64);
    assert_eq!(output.report.failures, 0);
}

#[test]
fn failures_are_isolated_and_metered_as_in_batch() {
    let grid = generators::grid(4, 4);
    let mut b = vec![0.0; grid.n()];
    b[0] = 1.0;
    b[15] = -1.0;
    let disconnected = Graph::from_edges(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]);
    // A generic box LP whose AᵀDA is not diagonally dominant (row (1, 3)
    // makes the (0, 1) off-diagonal 3·d₀ overwhelm the column-0 diagonal
    // d₀ + d₂): the Gremban route's precondition fails, which must surface
    // as a typed error, not a panic.
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
    let sdd_gram = LpRequest::new(
        vec![0.3, 0.5, 0.4],
        LpOptions::new(1e-2, lp.m(), 3).with_uniform_weights(),
    )
    .with_sdd_gram(1e-8);
    let workload = [
        (Request::laplacian(grid.clone(), b.clone()), Priority::Bulk),
        (
            Request::laplacian(disconnected.clone(), vec![0.0; 6]),
            Priority::Interactive,
        ),
        (
            Request::sparsify(generators::complete(10), f64::NAN),
            Priority::Bulk,
        ),
        (Request::laplacian(grid, b), Priority::Bulk),
        (Request::lp(lp, sdd_gram), Priority::Bulk),
    ];

    // Collect the broken submission before the rest are even submitted.
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(3).build();
    let output = engine.serve(|client| {
        let submit = |k: usize| {
            let (request, priority) = &workload[k];
            client.submit(request.clone(), *priority).unwrap()
        };
        let healthy = submit(0);
        let broken = client.wait(submit(1));
        let rest: Vec<Ticket> = (2..workload.len()).map(submit).collect();
        let mut results = vec![client.wait(healthy), broken];
        results.extend(rest.into_iter().map(|t| client.wait(t)));
        results
    });
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
    match &results[4] {
        Err(Error::Lp(bcc_core::lp::LpError::GramSolve { solver, message })) => {
            assert_eq!(*solver, "gremban-laplacian");
            assert!(message.contains("diagonally dominant"), "{message}");
        }
        other => panic!("expected a typed GramSolve error, got {other:?}"),
    }
    assert_eq!(output.report.failures, 3);
    assert!(!output.report.per_request[1].ok);
    assert!(output.report.per_request[1]
        .error
        .as_deref()
        .unwrap()
        .contains("connected"));
    assert_eq!(output.report.per_request[1].report.total_rounds, 0);
    // The failed preprocessing is cached (and reported) with zero rounds.
    let failed_entry = output
        .report
        .preprocessing
        .iter()
        .find(|p| {
            p.fingerprint == bcc_core::graph::fingerprint::fingerprint(&disconnected).to_hex()
        })
        .unwrap();
    assert_eq!(failed_entry.report.total_rounds, 0);
    // Failures are excluded from the estimation-error replay, exactly as
    // the live calibration loop skips them: the interactive class's only
    // submission failed, so it has nothing predicted or measured.
    let interactive = output
        .report
        .scheduler
        .class(Priority::Interactive)
        .unwrap();
    assert_eq!(interactive.predicted_rounds, 0);
    assert_eq!(interactive.actual_rounds, 0);
    assert_eq!(interactive.estimation_error(), None);

    // The same submissions served as a closed batch (submit all, then wait
    // in order, on one worker) fail and are metered identically.
    let mut batch_engine = StreamEngine::builder().seed(MASTER_SEED).workers(1).build();
    let batch = batch_engine.serve(|client| {
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|(r, p)| client.submit(r.clone(), *p).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });
    // (Compared through `Debug`: the NaN epsilon never equals itself.)
    for (i, (got, want)) in output.value.iter().zip(&batch.value).enumerate() {
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got.value, want.value, "submission {i}"),
            (Err(got), Err(want)) => assert_eq!(format!("{got:?}"), format!("{want:?}")),
            other => panic!("submission {i}: stream and batch disagree: {other:?}"),
        }
    }
    assert_eq!(output.report, batch.report);
}

// ---------------------------------------------------------------------------
// Cache amortization: preprocessing charged once per distinct fingerprint.
// ---------------------------------------------------------------------------

#[test]
fn preprocessing_is_charged_once_per_distinct_fingerprint() {
    let grid = generators::grid(5, 5);
    let requests: Vec<Request> = (1..6)
        .map(|k| {
            let mut b = vec![0.0; grid.n()];
            b[0] = 1.0;
            b[grid.n() - k] = -1.0;
            Request::laplacian(grid.clone(), b)
        })
        .collect();
    // One closed batch per scope: submit everything, then wait in order.
    let serve_batch = |engine: &mut StreamEngine| {
        engine.serve(|client| {
            let tickets: Vec<Ticket> = requests
                .iter()
                .map(|r| client.submit(r.clone(), Priority::Bulk).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| client.wait(t))
                .collect::<Vec<_>>()
        })
    };

    let mut engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let first = serve_batch(&mut engine);
    assert!(first.value.iter().all(|r| r.is_ok()));
    let report = &first.report;
    assert_eq!(report.requests, 5);
    assert_eq!(report.preprocessing.len(), 1, "one distinct topology");
    assert_eq!(report.cache_misses, 1);
    assert_eq!(report.cache_hits, 4);
    assert!(!report.preprocessing[0].cached);
    assert_eq!(report.preprocessing[0].requests, 5);

    let preprocessing_rounds = report.preprocessing[0].report.total_rounds;
    assert!(preprocessing_rounds > 0);
    let solve_rounds: u64 = report
        .per_request
        .iter()
        .map(|r| r.report.total_rounds)
        .sum();
    assert!(solve_rounds > 0);
    // The scope total is exactly "preprocessing once + every solve".
    assert_eq!(
        report.total.total_rounds,
        preprocessing_rounds + solve_rounds
    );
    // Amortization: one solve is far cheaper than the preprocessing it skips.
    assert!(solve_rounds / 5 < preprocessing_rounds);

    // A second scope on the same engine reuses the cache: the entry reports
    // as pre-cached and its preprocessing is no longer part of the total.
    let second = serve_batch(&mut engine);
    assert_eq!(second.report.cache_hits, 5);
    assert_eq!(second.report.cache_misses, 0);
    assert!(second.report.preprocessing[0].cached);
    assert_eq!(
        second.report.total.total_rounds,
        second
            .report
            .per_request
            .iter()
            .map(|r| r.report.total_rounds)
            .sum::<u64>()
    );
    assert_eq!(engine.cached_graphs(), 1);

    // The engine's cumulative ledger agrees: two scopes of solves, one
    // preprocessing.
    assert_eq!(
        engine.cumulative_report().total_rounds,
        first.report.total.total_rounds + second.report.total.total_rounds
    );

    // Clearing the cache makes the next scope pay preprocessing again.
    engine.clear_cache();
    assert_eq!(engine.cached_graphs(), 0);
    let third = serve_batch(&mut engine);
    assert_eq!(third.report.cache_misses, 1);
    assert!(!third.report.preprocessing[0].cached);
}

// ---------------------------------------------------------------------------
// Bounded cache: capacity is enforced, eviction never changes results.
// ---------------------------------------------------------------------------

#[test]
fn cache_eviction_under_capacity_one_is_correct_and_bounded() {
    // Alternate between two topologies so a capacity-1 cache must evict on
    // (nearly) every switch, with 4 workers racing on it.
    let a = generators::grid(4, 4);
    let c = generators::grid(3, 5);
    let mut requests = Vec::new();
    for k in 1..=3 {
        for g in [&a, &c] {
            let mut b = vec![0.0; g.n()];
            b[k % g.n()] = 1.0;
            b[g.n() - 1 - k % g.n()] -= 1.0;
            requests.push(Request::laplacian(g.clone(), b));
        }
    }
    let reference = sequential_reference(&requests);

    let mut bounded = StreamEngine::builder()
        .seed(MASTER_SEED)
        .workers(4)
        .cache_capacity(1)
        .build();
    let output = bounded.serve(|client| {
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| client.submit(r.clone(), Priority::Bulk).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });

    // Eviction re-pays preprocessing but never changes a result.
    assert_results_match(&output.value, &reference);
    // The bound is enforced...
    assert!(bounded.cached_graphs() <= 1, "cache exceeded its capacity");
    assert_eq!(output.report.cache.capacity, Some(1));
    assert!(output.report.cache.entries <= 1);
    // ...and was actually exercised.
    let stats = bounded.cache_stats();
    assert!(
        stats.evictions >= 1,
        "two alternating topologies under capacity 1 must evict: {stats:?}"
    );
    assert!(
        stats.misses >= 2,
        "at least one build per distinct topology: {stats:?}"
    );

    // With one worker, dispatch follows submission order, so the engine's
    // hit, miss and eviction counts are exactly a replay of the same
    // fingerprint sequence through the shared eviction rule — the rule the
    // load simulator charges preprocessing by.
    let topologies = [a, c, generators::grid(2, 7)];
    let sequence = [0, 1, 0, 2, 1, 0, 2];
    let mut serial = StreamEngine::builder()
        .seed(MASTER_SEED)
        .workers(1)
        .cache_capacity(2)
        .build();
    serial.serve(|client| {
        let tickets: Vec<Ticket> = sequence
            .iter()
            .map(|&t| {
                let g = &topologies[t];
                let mut b = vec![0.0; g.n()];
                b[0] = 1.0;
                b[g.n() - 1] = -1.0;
                client
                    .submit(Request::laplacian(g.clone(), b), Priority::Bulk)
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            client.wait(ticket).unwrap();
        }
    });
    let mut lru = Lru::new(Some(2));
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for t in sequence {
        if lru.get(&t).is_some() {
            hits += 1;
        } else {
            misses += 1;
            evictions += lru.insert(t, ()).len() as u64;
        }
    }
    assert!(evictions > 0, "the sequence overflows capacity 2");
    let stats = serial.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions),
        (hits, misses, evictions),
        "the engine evicts by the shared rule: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// WFQ scheduling: weights, rate limits and custom classes affect latency
// only; deadlines expire queued work with a typed error.
// ---------------------------------------------------------------------------

#[test]
fn wfq_weights_rate_limits_and_custom_classes_never_change_results() {
    let workload = mixed_workload();
    let requests: Vec<Request> = workload.iter().map(|(r, _)| r.clone()).collect();
    let reference = sequential_reference(&requests);

    // A deliberately adversarial configuration: inverted weights, a tight
    // token bucket on interactive traffic, and a third (custom) class in the
    // mix. None of it may leak into results — WFQ only reorders completion.
    let classes = [
        Priority::custom(7),
        Priority::Bulk,
        Priority::Interactive,
        Priority::custom(7),
        Priority::Bulk,
        Priority::Interactive,
    ];
    let mut engine = StreamEngine::builder()
        .seed(MASTER_SEED)
        .workers(4)
        .class_weight(Priority::Bulk, 6)
        .class_weight(Priority::Interactive, 1)
        .class_weight(Priority::custom(7), 3)
        .class_rate_limit(Priority::Interactive, RateLimit::new(1, 3))
        .build();
    assert_eq!(engine.class_weight(Priority::Bulk), 6);
    assert_eq!(
        engine.class_rate_limit(Priority::Interactive),
        Some(RateLimit::new(1, 3))
    );
    let output = engine.serve(|client| {
        let tickets: Vec<Ticket> = requests
            .iter()
            .zip(classes)
            .map(|(r, class)| client.submit(r.clone(), class).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });
    assert_results_match(&output.value, &reference);

    // The scheduler counters reflect the class mix deterministically.
    let scheduler = &output.report.scheduler;
    assert_eq!(scheduler.policy, "wfq");
    let labels: Vec<&str> = scheduler.classes.iter().map(|c| c.class.as_str()).collect();
    assert_eq!(labels, vec!["interactive", "bulk", "custom-7"]);
    for class in [Priority::Interactive, Priority::Bulk, Priority::custom(7)] {
        let stats = scheduler.class(class).unwrap();
        assert_eq!(stats.submitted, 2, "{class:?}");
        assert_eq!(stats.dispatched, 2, "every admitted job dispatches");
        assert_eq!(stats.expired, 0);
    }
    assert_eq!(
        scheduler.class(Priority::Interactive).unwrap().rate_limit,
        Some(RateLimit::new(1, 3))
    );
    assert_eq!(scheduler.class(Priority::Bulk).unwrap().weight, 6);
    assert_eq!(output.report.expired, 0);
}

#[test]
fn a_zero_deadline_expires_in_queue_with_a_typed_error() {
    let grid = generators::grid(4, 4);
    let mut b = vec![0.0; grid.n()];
    b[0] = 1.0;
    b[15] = -1.0;

    // One worker pinned on a slow job: the deadline submission behind it is
    // still queued when its (already elapsed) deadline is checked.
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(1).build();
    let output = engine.serve(|client| {
        let slow = client
            .submit(
                Request::sparsify(generators::complete(16), 0.5),
                Priority::Interactive,
            )
            .unwrap();
        let doomed = client
            .submit_with_deadline(
                Request::laplacian(grid.clone(), b.clone()),
                Priority::Bulk,
                std::time::Duration::ZERO,
            )
            .unwrap();
        (client.wait(slow), client.wait(doomed))
    });
    let (slow, doomed) = output.value;
    assert!(slow.is_ok(), "work without a deadline is untouched");
    assert!(matches!(doomed, Err(Error::DeadlineExceeded { .. })));

    // The expiry is fully accounted: a failure, per class and in total.
    assert_eq!(output.report.expired, 1);
    assert_eq!(output.report.failures, 1);
    let bulk = output.report.scheduler.class(Priority::Bulk).unwrap();
    assert_eq!(bulk.expired, 1);
    assert_eq!(bulk.dispatched, 0, "expired work is never dispatched");
    let cost = &output.report.per_request[1];
    assert!(!cost.ok);
    assert!(cost.error.as_deref().unwrap().contains("deadline exceeded"));
    assert_eq!(cost.report.total_rounds, 0, "expired work is never metered");
    assert_eq!(
        cost.fingerprint, None,
        "expired work never touches the Laplacian cache"
    );
    assert!(
        output.report.preprocessing.is_empty(),
        "no preprocessing was built for the expired topology"
    );

    // Even with idle workers an already-elapsed deadline expires: deadlines
    // are checked before every dispatch, so zero-deadline work is never run.
    let mut idle = StreamEngine::builder().seed(MASTER_SEED).workers(4).build();
    let output = idle.serve(|client| {
        let doomed = client
            .submit_with_deadline(
                Request::laplacian(grid.clone(), b.clone()),
                Priority::Interactive,
                std::time::Duration::ZERO,
            )
            .unwrap();
        client.wait(doomed)
    });
    assert!(matches!(output.value, Err(Error::DeadlineExceeded { .. })));
    assert_eq!(output.report.expired, 1);
}

#[test]
fn dispatched_work_always_completes_within_a_generous_deadline() {
    let workload = mixed_workload();
    let reference =
        sequential_reference(&workload.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(3).build();
    let output = engine.serve(|client| {
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|(r, p)| {
                client
                    .submit_with_deadline(r.clone(), *p, std::time::Duration::from_secs(3600))
                    .unwrap()
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| client.wait(t))
            .collect::<Vec<_>>()
    });
    // A deadline that never trips changes nothing: bit-identical results,
    // zero expirations, every job dispatched.
    assert_results_match(&output.value, &reference);
    assert_eq!(output.report.expired, 0);
    assert_eq!(output.report.failures, 0);
    let dispatched: u64 = output
        .report
        .scheduler
        .classes
        .iter()
        .map(|c| c.dispatched)
        .sum();
    assert_eq!(dispatched, workload.len() as u64);
}

// ---------------------------------------------------------------------------
// Injectable clocks: a frozen VirtualClock makes every time-dependent
// decision — deadline expiry and the latency report — deterministic.
// ---------------------------------------------------------------------------

#[test]
fn a_frozen_virtual_clock_expires_zero_deadlines_deterministically() {
    let grid = generators::grid(4, 4);
    let mut b = vec![0.0; grid.n()];
    b[0] = 1.0;
    b[15] = -1.0;

    // Under a frozen clock, time-dependent behavior is a pure function of
    // the submissions: an already-elapsed deadline expires on every run and
    // every worker count, a generous one never trips.
    for workers in [1, 4] {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let mut engine = StreamEngine::builder()
            .seed(MASTER_SEED)
            .workers(workers)
            .clock(clock)
            .build();
        let output = engine.serve(|client| {
            let doomed = client
                .submit_with_deadline(
                    Request::laplacian(grid.clone(), b.clone()),
                    Priority::Interactive,
                    std::time::Duration::ZERO,
                )
                .unwrap();
            let safe = client
                .submit_with_deadline(
                    Request::laplacian(grid.clone(), b.clone()),
                    Priority::Bulk,
                    std::time::Duration::from_secs(3600),
                )
                .unwrap();
            (client.wait(doomed), client.wait(safe))
        });
        let (doomed, safe) = output.value;
        assert!(matches!(doomed, Err(Error::DeadlineExceeded { .. })));
        assert!(safe.is_ok(), "a frozen clock never reaches a real deadline");
        assert_eq!(output.report.expired, 1);
    }
}

#[test]
fn a_frozen_virtual_clock_reports_all_zero_latency_samples() {
    let workload = mixed_workload();
    let mut reports = Vec::new();
    for workers in [1, 3] {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let mut engine = StreamEngine::builder()
            .seed(MASTER_SEED)
            .workers(workers)
            .clock(clock)
            .build();
        let output = engine.serve(|client| {
            let tickets: Vec<Ticket> = workload
                .iter()
                .map(|(r, p)| client.submit(r.clone(), *p).unwrap())
                .collect();
            for t in tickets {
                let _ = client.wait(t);
            }
        });
        // Every completion was timestamped against a clock that never moved,
        // so each percentile of each axis collapses to exactly zero.
        let completed: u64 = output
            .report
            .scheduler
            .classes
            .iter()
            .map(|c| c.dispatched)
            .sum();
        let sampled: u64 = output
            .latency
            .classes
            .iter()
            .map(|c| c.end_to_end.samples)
            .sum();
        assert_eq!(sampled, completed, "one sample per dispatched request");
        for class in &output.latency.classes {
            for axis in [&class.queue_wait, &class.end_to_end] {
                assert_eq!(axis.p50_ns, 0);
                assert_eq!(axis.p95_ns, 0);
                assert_eq!(axis.p99_ns, 0);
                assert_eq!(axis.max_ns, 0);
            }
        }
        reports.push(output.latency);
    }
    // With wall time out of the picture the whole latency report is
    // reproducible across worker counts.
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn a_frozen_virtual_clock_traces_a_reconciled_lifecycle() {
    let workload = mixed_workload();
    for workers in [1, 3] {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let sink = TelemetrySink::enabled();
        let mut engine = StreamEngine::builder()
            .seed(MASTER_SEED)
            .workers(workers)
            .clock(clock)
            .telemetry(sink.clone())
            .build();
        let output = engine.serve(|client| {
            let tickets: Vec<Ticket> = workload
                .iter()
                .map(|(r, p)| client.submit(r.clone(), *p).unwrap())
                .collect();
            for t in tickets {
                let _ = client.wait(t);
            }
        });
        let records = sink.trace_records();
        assert_eq!(sink.dropped_events(), 0);
        // A frozen clock pins every event timestamp at zero whatever the
        // worker interleaving — the trace's time axis is deterministic.
        assert!(records.iter().all(|r| r.at_ns == 0));
        let count = |event: TraceEvent| records.iter().filter(|r| r.event == event).count() as u64;
        let dispatched: u64 = output
            .report
            .scheduler
            .classes
            .iter()
            .map(|c| c.dispatched)
            .sum();
        // The lifecycle reconciles exactly with the engine's accounting:
        // one event per state transition, none dropped or double-fired.
        assert_eq!(count(TraceEvent::Submitted), output.report.requests);
        assert_eq!(count(TraceEvent::Queued), output.report.requests);
        assert_eq!(count(TraceEvent::Dispatched), dispatched);
        assert_eq!(count(TraceEvent::SolveBegin), dispatched);
        assert_eq!(count(TraceEvent::SolveEnd), dispatched);
        assert_eq!(count(TraceEvent::Collected), output.report.requests);
        assert_eq!(count(TraceEvent::Expired), output.report.expired);
        // The exported timeline is well-formed and carries one instant
        // event per record plus per-lane metadata.
        let chrome = sink.chrome_trace().expect("enabled sink exports");
        assert!(chrome.starts_with('{') && chrome.ends_with('}'));
        assert_eq!(
            chrome.matches("\"ph\":\"i\"").count(),
            records.len(),
            "one instant event per trace record"
        );
    }
}

// ---------------------------------------------------------------------------
// The unified cost model: size-aware tags and deadline-aware admission steer
// latency only; estimation error is reported deterministically.
// ---------------------------------------------------------------------------

#[test]
fn cost_aware_tags_are_bit_identical_across_workers_weights_limits_and_deadlines() {
    let workload = mixed_workload();
    let requests: Vec<Request> = workload.iter().map(|(r, _)| r.clone()).collect();
    let reference = sequential_reference(&requests);

    // The estimation-error baseline every configuration must reproduce: a
    // single-worker scope over the same submissions.
    let reference_report = {
        let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(1).build();
        engine
            .serve(|client| {
                for (r, p) in &workload {
                    client.submit(r.clone(), *p).unwrap();
                }
            })
            .report
    };

    // Sweep worker counts, adversarial weights, a rate limit and generous
    // deadlines: none of it may leak into results.
    for workers in [1, 3, 7] {
        let mut engine = StreamEngine::builder()
            .seed(MASTER_SEED)
            .workers(workers)
            .class_weight(Priority::Bulk, 5)
            .class_weight(Priority::Interactive, 1)
            .class_rate_limit(Priority::Bulk, RateLimit::new(1, 3))
            .build();
        let output = engine.serve(|client| {
            let tickets: Vec<Ticket> = workload
                .iter()
                .map(|(r, p)| {
                    client
                        .submit_with_deadline(r.clone(), *p, std::time::Duration::from_secs(3600))
                        .unwrap()
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| client.wait(t))
                .collect::<Vec<_>>()
        });
        assert_results_match(&output.value, &reference);
        assert_eq!(output.report.expired, 0, "generous deadlines never trip");
        assert_eq!(output.report.infeasible, 0);

        // The reported estimation error is a deterministic replay of
        // the calibration loop in submission order: identical whatever
        // the worker count.
        let scheduler = &output.report.scheduler;
        for class in &scheduler.classes {
            if class.class == "interactive" {
                // sparsify + laplacian + lp all completed under this
                // class; the replay observed every one of them.
                assert!(class.actual_rounds > 0);
            }
        }
        for (got, want) in scheduler
            .classes
            .iter()
            .zip(&reference_report.scheduler.classes)
        {
            assert_eq!(got.class, want.class);
            assert_eq!(got.predicted_rounds, want.predicted_rounds, "{}", got.class);
            assert_eq!(got.actual_rounds, want.actual_rounds, "{}", got.class);
        }
    }
}

#[test]
fn calibration_tightens_the_estimation_error_across_scopes() {
    // First scope: the model runs on priors, so predicted and actual can
    // be far apart. Second scope over the same workload: the replay starts
    // fresh each scope, but within one scope later requests of a kind are
    // predicted from earlier observations of that kind — repeated
    // laplacian solves on one topology converge onto the measured rate.
    let grid = generators::grid(4, 4);
    let requests: Vec<Request> = (1..=6)
        .map(|k| {
            let mut b = vec![0.0; grid.n()];
            b[k % grid.n()] = 1.0;
            b[grid.n() - 1 - k % grid.n()] -= 1.0;
            Request::laplacian(grid.clone(), b)
        })
        .collect();
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(2).build();
    let output = engine.serve(|client| {
        for r in &requests {
            client.submit(r.clone(), Priority::Bulk).unwrap();
        }
    });
    let bulk = output.report.scheduler.class(Priority::Bulk).unwrap();
    assert!(bulk.actual_rounds > 0);
    assert!(bulk.predicted_rounds > 0, "the prior predicts something");
    let error = bulk.estimation_error().expect("rounds were charged");
    // Six solves on one topology: after the first observation the replay
    // predicts at the measured per-unit rate, so the aggregate error is
    // far below the uncalibrated prior's (which mispredicts every solve).
    let prior_only = bcc_core::CostModel::new();
    let (kind, dims) = requests[0].cost_profile();
    let prior_predicted = prior_only.prior_estimate(kind, dims) * requests.len() as u64;
    let prior_error =
        (prior_predicted.abs_diff(bulk.actual_rounds)) as f64 / bulk.actual_rounds as f64;
    assert!(
        error <= prior_error,
        "calibration must not be worse than the prior: {error} vs {prior_error}"
    );
    // The live engine model is calibrated too, and the cache recorded its
    // rebuild estimation error.
    assert!(
        engine
            .cost_model()
            .observations(bcc_core::CostKind::LaplacianSolve)
            >= 6
    );
    assert!(output.report.cache.rebuild_actual_rounds > 0);
    assert!(output.report.cache.rebuild_predicted_rounds > 0);
}

#[test]
fn an_idle_engine_never_rejects_a_deadline_as_infeasible() {
    // Regression guard for deadline-aware admission: with no backlog the
    // expected wait is zero, so even a zero deadline — and even on a fully
    // calibrated engine — must be admitted (and then expire in the queue
    // with DeadlineExceeded, never DeadlineInfeasible).
    let grid = generators::grid(4, 4);
    let mut b = vec![0.0; grid.n()];
    b[0] = 1.0;
    b[15] = -1.0;
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(2).build();

    // Calibrate the service rate with a completed scope.
    engine.serve(|client| {
        let t = client
            .submit(Request::laplacian(grid.clone(), b.clone()), Priority::Bulk)
            .unwrap();
        client.wait(t).unwrap();
    });
    assert!(
        engine.cost_model().service_rate().is_some(),
        "the service rate is calibrated"
    );

    // Idle engine, zero deadline: admitted, then expired — not infeasible.
    let output = engine.serve(|client| {
        let doomed = client
            .submit_with_deadline(
                Request::laplacian(grid.clone(), b.clone()),
                Priority::Bulk,
                std::time::Duration::ZERO,
            )
            .expect("an idle engine admits every deadline");
        client.wait(doomed)
    });
    assert!(matches!(output.value, Err(Error::DeadlineExceeded { .. })));
    assert_eq!(output.report.infeasible, 0);

    // And a generous deadline on the idle engine just completes.
    let output = engine.serve(|client| {
        let t = client
            .submit_with_deadline(
                Request::laplacian(grid.clone(), b.clone()),
                Priority::Bulk,
                std::time::Duration::from_secs(3600),
            )
            .unwrap();
        client.wait(t)
    });
    assert!(output.value.is_ok());
    assert_eq!(output.report.infeasible, 0);
    assert_eq!(output.report.expired, 0);

    // Cold-bucket case: the engine is busy and its service rate is
    // calibrated, but the probe's own `(kind, size-bucket)` cell has never
    // been observed — its round estimate is a guess, so admission must stay
    // permissive no matter how tight the deadline. It is admitted and then
    // expires (or completes), never DeadlineInfeasible.
    let output = engine.serve(|client| {
        let backlog: Vec<Ticket> = (0..4)
            .map(|_| {
                client
                    .submit(Request::laplacian(grid.clone(), b.clone()), Priority::Bulk)
                    .unwrap()
            })
            .collect();
        let cold = client
            .submit_with_deadline(
                Request::sparsify(generators::complete(10), 0.5),
                Priority::Bulk,
                std::time::Duration::ZERO,
            )
            .expect("an uncalibrated bucket is never rejected as infeasible");
        let verdict = client.wait(cold);
        for t in backlog {
            client.wait(t).unwrap();
        }
        verdict
    });
    assert_eq!(output.report.infeasible, 0);
    match output.value {
        Ok(_) | Err(Error::DeadlineExceeded { .. }) => {}
        Err(other) => panic!("expected success or expiry, got {other}"),
    }
}

#[test]
fn an_infeasible_deadline_is_rejected_at_admission_with_a_typed_error() {
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(1).build();

    // Scope 1 calibrates the service rate (sparsify rounds and duration).
    engine.serve(|client| {
        let t = client
            .submit(
                Request::sparsify(generators::complete(14), 0.5),
                Priority::Interactive,
            )
            .unwrap();
        client.wait(t).unwrap();
    });

    // Scope 2: the single worker is pinned on the first slow job while a
    // second is still queued — a zero deadline behind that backlog is
    // infeasible by any calibrated estimate.
    let output = engine.serve(|client| {
        let running = client
            .submit(
                Request::sparsify(generators::complete(16), 0.5),
                Priority::Interactive,
            )
            .unwrap();
        let queued = client
            .submit(
                Request::sparsify(generators::complete(14), 0.5),
                Priority::Interactive,
            )
            .unwrap();
        // The probe shares the sparsify `(kind, bucket)` cell scope 1
        // warmed — a cold bucket would be admitted unconditionally.
        let verdict = client.submit_with_deadline(
            Request::sparsify(generators::complete(14), 0.5),
            Priority::Interactive,
            std::time::Duration::ZERO,
        );
        let rejected = match verdict {
            Err(Error::DeadlineInfeasible {
                deadline,
                expected_wait,
            }) => {
                assert_eq!(deadline, std::time::Duration::ZERO);
                assert!(expected_wait > std::time::Duration::ZERO);
                true
            }
            Ok(ticket) => {
                // The worker drained the queue faster than we submitted (a
                // scheduling race this test tolerates): the submission was
                // admitted against an empty backlog.
                let _ = client.wait(ticket);
                false
            }
            Err(other) => panic!("expected DeadlineInfeasible, got {other}"),
        };
        let _ = client.wait(running);
        let _ = client.wait(queued);
        rejected
    });
    if output.value {
        assert_eq!(output.report.infeasible, 1);
        let class = output
            .report
            .scheduler
            .class(Priority::Interactive)
            .unwrap();
        assert_eq!(class.infeasible, 1);
        // The rejection consumed no submission index.
        assert_eq!(output.report.requests, 2);
    }
}

#[test]
fn wait_timeout_returns_a_typed_error_and_keeps_the_ticket_redeemable() {
    let requests = [
        Request::sparsify(generators::complete(24), 0.5),
        Request::sparsify(generators::complete(16), 0.5),
    ];
    let reference = sequential_reference(&requests);
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(1).build();
    let output = engine.serve(|client| {
        // Pin the single worker on a slow job; the probe queued behind it
        // cannot possibly have completed when the zero wait looks for it.
        let slow = client
            .submit(requests[0].clone(), Priority::Interactive)
            .unwrap();
        let probe = client
            .submit(requests[1].clone(), Priority::Interactive)
            .unwrap();
        let timed_out = client.wait_timeout(probe, std::time::Duration::ZERO);
        assert!(matches!(timed_out, Err(Error::WaitTimeout { .. })));
        if let Err(e) = timed_out {
            assert!(e.to_string().contains("timed out"));
        }
        // The ticket stays redeemable: a later (generous) timed wait
        // collects the result.
        [slow, probe]
            .into_iter()
            .map(|t| client.wait_timeout(t, std::time::Duration::from_secs(600)))
            .collect::<Vec<_>>()
    });
    assert_results_match(&output.value, &reference);
    assert!(output.uncollected.is_empty());
    assert_eq!(output.report.failures, 0);
}

// ---------------------------------------------------------------------------
// Collection: each result leaves the scope once, through `poll`, `wait` or
// `wait_timeout`, or at the drain in `uncollected`; which of them takes it
// never changes the report.
// ---------------------------------------------------------------------------

/// Submits six requests whose outcomes a frozen [`VirtualClock`] fixes:
/// index 0 expires in the queue (a zero deadline, admitted before any
/// completion could calibrate deadline admission), index 2 fails on a
/// disconnected graph, and the other four succeed.
fn submit_collection_workload(client: &StreamClient<'_>) -> Vec<Ticket> {
    let grid = generators::grid(4, 4);
    let mut b1 = vec![0.0; grid.n()];
    b1[0] = 1.0;
    b1[15] = -1.0;
    let mut b2 = vec![0.0; grid.n()];
    b2[3] = 1.0;
    b2[12] = -1.0;
    let disconnected = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
    let doomed = client
        .submit_with_deadline(
            Request::laplacian(grid.clone(), b1.clone()),
            Priority::Interactive,
            std::time::Duration::ZERO,
        )
        .unwrap();
    let rest = [
        (Request::laplacian(grid.clone(), b1), Priority::Bulk),
        (
            Request::laplacian(disconnected, vec![0.0; 4]),
            Priority::Interactive,
        ),
        (
            Request::sparsify(generators::complete(10), 0.5),
            Priority::Bulk,
        ),
        (Request::laplacian(grid, b2), Priority::Bulk),
        (
            Request::sparsify(generators::grid(3, 4), 0.9),
            Priority::Interactive,
        ),
    ];
    let mut tickets = vec![doomed];
    tickets.extend(
        rest.into_iter()
            .map(|(request, priority)| client.submit(request, priority).unwrap()),
    );
    tickets
}

/// An engine on a frozen [`VirtualClock`], so that the zero deadline of
/// [`submit_collection_workload`] expires on every run.
fn frozen_engine() -> StreamEngine {
    StreamEngine::builder()
        .seed(MASTER_SEED)
        .workers(2)
        .clock(std::sync::Arc::new(VirtualClock::new()))
        .build()
}

#[test]
#[should_panic(expected = "already collected")]
fn a_second_wait_on_a_collected_ticket_panics() {
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(2).build();
    engine.serve(|client| {
        let ticket = client
            .submit(
                Request::sparsify(generators::grid(3, 4), 0.9),
                Priority::Bulk,
            )
            .unwrap();
        assert!(client.wait(ticket).is_ok());
        // The result is gone; waiting again would otherwise block forever.
        let _ = client.wait(ticket);
    });
}

#[test]
fn poll_after_collection_returns_none() {
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(2).build();
    let output = engine.serve(|client| {
        let submit = || {
            client
                .submit(
                    Request::sparsify(generators::grid(3, 4), 0.9),
                    Priority::Bulk,
                )
                .unwrap()
        };
        let waited = submit();
        assert!(client.wait(waited).is_ok());
        assert!(client.poll(waited).is_none(), "collected by wait");

        let polled = submit();
        let result = loop {
            match client.poll(polled) {
                Some(result) => break result,
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        assert!(result.is_ok());
        assert!(client.poll(polled).is_none(), "collected by poll");
    });
    assert!(output.uncollected.is_empty());
    assert_eq!(output.report.requests, 2);
}

#[test]
fn uncollected_holds_exactly_the_indices_nobody_collected_in_index_order() {
    let mut engine = frozen_engine();
    let output = engine.serve(|client| {
        let tickets = submit_collection_workload(client);
        // Collect 1, 3 and 5, each by a different path, in no index order.
        assert!(client.wait(tickets[3]).is_ok());
        assert!(client
            .wait_timeout(tickets[1], std::time::Duration::from_secs(600))
            .is_ok());
        let polled = loop {
            match client.poll(tickets[5]) {
                Some(result) => break result,
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        assert!(polled.is_ok());
    });
    let indices: Vec<u64> = output.uncollected.iter().map(|(i, _)| *i).collect();
    assert_eq!(indices, [0, 2, 4]);
    assert!(matches!(
        output.uncollected[0].1,
        Err(Error::DeadlineExceeded { .. })
    ));
    assert!(matches!(
        output.uncollected[1].1,
        Err(Error::Laplacian(
            bcc_core::laplacian::LaplacianError::Disconnected
        ))
    ));
    assert!(output.uncollected[2].1.is_ok());
    assert_eq!(output.report.requests, 6);
    assert_eq!(output.report.expired, 1);
    assert_eq!(output.report.failures, 2);
}

#[test]
fn collecting_only_some_tickets_leaves_the_report_unchanged() {
    let serve = |collect: &[usize]| {
        let mut engine = frozen_engine();
        let output = engine.serve(|client| {
            let tickets = submit_collection_workload(client);
            for &k in collect {
                let _ = client.wait(tickets[k]);
            }
        });
        assert_eq!(output.uncollected.len(), 6 - collect.len());
        output.report
    };
    let all = serve(&[0, 1, 2, 3, 4, 5]);
    assert_eq!(all.requests, 6);
    assert_eq!(all.expired, 1);
    assert_eq!(all.failures, 2);
    assert_eq!(serve(&[4, 0, 2]), all);
    assert_eq!(serve(&[]), all);
}

#[test]
fn stream_cumulative_ledger_accumulates_and_absorbs_into_sessions() {
    let workload = mixed_workload();
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).workers(2).build();
    let first = engine.serve(|client| {
        for (request, priority) in &workload {
            client.submit(request.clone(), *priority).unwrap();
        }
    });
    let after_one = engine.cumulative_report();
    assert_eq!(after_one, first.report.total);
    let second = engine.serve(|client| {
        for (request, priority) in &workload {
            client.submit(request.clone(), *priority).unwrap();
        }
    });
    // The second scope reuses every cached preprocessing.
    assert_eq!(second.report.cache_misses, 0);
    assert!(second.report.total.total_rounds < first.report.total.total_rounds);
    assert_eq!(
        engine.cumulative_report().total_rounds,
        first.report.total.total_rounds + second.report.total.total_rounds
    );

    // Scope totals merge into a serving Session's ledger.
    let mut session = Session::builder().seed(MASTER_SEED).build();
    session.absorb_report(&first.report.total);
    assert_eq!(session.cumulative_report(), first.report.total);
}

#[test]
#[should_panic(expected = "issued by serve scope")]
fn a_stale_ticket_from_an_earlier_scope_panics_instead_of_misredeeming() {
    let grid = generators::grid(3, 3);
    let mut b = vec![0.0; 9];
    b[0] = 1.0;
    b[8] = -1.0;
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let stale = engine
        .serve(|client| {
            client
                .submit(Request::laplacian(grid.clone(), b.clone()), Priority::Bulk)
                .unwrap()
        })
        .value;
    // Scope 2 reuses submission index 0; redeeming the scope-1 ticket would
    // silently return the wrong request's result — it must panic instead.
    engine.serve(|client| {
        client
            .submit(Request::laplacian(grid.clone(), b.clone()), Priority::Bulk)
            .unwrap();
        let _ = client.wait(stale);
    });
}

// ---------------------------------------------------------------------------
// Property: whatever the cost model predicts — adversarial zero, tiny or
// astronomically wrong priors included — scheduling stays starvation-free
// and results stay bit-identical to the sequential Session loop.
// ---------------------------------------------------------------------------

mod cost_model_properties {
    use super::*;
    use bcc_core::{CostKind, CostModel};
    use proptest::prelude::*;

    /// The adversarial prior palette: a selector indexes zero, tiny, the
    /// default-ish, huge, and u64::MAX rounds-per-unit priors.
    fn prior(selector: u64) -> u64 {
        [0, 1, 64, 1 << 30, u64::MAX][(selector % 5) as usize]
    }

    /// A small cross-pipeline workload with a repeated Laplacian topology,
    /// cheap enough to serve once per proptest case.
    fn small_workload() -> Vec<(Request, Priority)> {
        let grid = generators::grid(3, 3);
        let mut b1 = vec![0.0; grid.n()];
        b1[0] = 1.0;
        b1[8] = -1.0;
        let mut b2 = vec![0.0; grid.n()];
        b2[2] = 1.0;
        b2[6] = -1.0;
        let lp = LpInstance {
            a: bcc_core::linalg::CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
            b: vec![1.0],
            c: vec![0.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, 1.0],
        };
        let lp_request = LpRequest::new(
            vec![0.5, 0.5],
            LpOptions::new(1e-3, lp.m(), 7).with_uniform_weights(),
        );
        vec![
            (Request::laplacian(grid.clone(), b1), Priority::Bulk),
            (
                Request::sparsify(generators::complete(8), 0.5),
                Priority::Interactive,
            ),
            (Request::laplacian(grid, b2), Priority::Bulk),
            (Request::lp(lp, lp_request), Priority::Interactive),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn any_cost_model_output_preserves_bit_identity_and_starvation_freedom(
            selectors in (0u64..5, 0u64..5, 0u64..5, 0u64..5, 0u64..5),
            workers in 1usize..5,
            pool_min in 1usize..4,
            pool_span in 0usize..4,
        ) {
            let make_model = || CostModel::new()
                .with_prior(CostKind::Sparsify, prior(selectors.0))
                .with_prior(CostKind::LaplacianSolve, prior(selectors.1))
                .with_prior(CostKind::LaplacianPreprocess, prior(selectors.2))
                .with_prior(CostKind::Lp, prior(selectors.3))
                .with_prior(CostKind::Mcmf, prior(selectors.4));
            let workload = small_workload();
            let requests: Vec<Request> = workload.iter().map(|(r, _)| r.clone()).collect();
            let reference = sequential_reference(&requests);
            let serve_all = |engine: &mut StreamEngine| {
                engine.serve(|client| {
                    let tickets: Vec<Ticket> = workload
                        .iter()
                        .map(|(r, p)| client.submit(r.clone(), *p).unwrap())
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| client.wait(t))
                        .collect::<Vec<_>>()
                })
            };

            let mut engine = StreamEngine::builder()
                .seed(MASTER_SEED)
                .workers(workers)
                .cost_model(make_model())
                .build();
            // Every wait() returning is the starvation-freedom claim: no
            // tag assignment may leave a submission undispatched forever.
            let output = serve_all(&mut engine);
            assert_results_match(&output.value, &reference);
            prop_assert_eq!(output.report.requests, workload.len() as u64);
            prop_assert_eq!(output.report.failures, 0);
            let dispatched: u64 = output
                .report
                .scheduler
                .classes
                .iter()
                .map(|c| c.dispatched)
                .sum();
            prop_assert_eq!(dispatched, workload.len() as u64);

            // The elastic pool — whatever its bounds, and however the
            // adversarial priors skew the backlog-cost resize decisions —
            // changes only *when* workers run, never what they compute: the
            // full report (results, counters, calibration cells and all)
            // is bit-identical to the fixed-pool engine's.
            let mut elastic = StreamEngine::builder()
                .seed(MASTER_SEED)
                .elastic_workers(pool_min, pool_min + pool_span)
                .cost_model(make_model())
                .build();
            prop_assert_eq!(elastic.worker_bounds(), (pool_min, pool_min + pool_span));
            let elastic_output = serve_all(&mut elastic);
            assert_results_match(&elastic_output.value, &reference);
            prop_assert_eq!(&elastic_output.report, &output.report);
            let pool = elastic_output.pool;
            prop_assert_eq!(pool.min_workers, pool_min);
            prop_assert_eq!(pool.max_workers, pool_min + pool_span);
            prop_assert!(pool.peak_workers >= pool.min_workers);
            prop_assert!(pool.peak_workers <= pool.max_workers);

            // Telemetry stays strictly off the deterministic-report path:
            // a live sink (metrics registry + lifecycle tracing) must leave
            // the report bit-identical to the untelemetered engine's, and
            // the trace must reconcile exactly with the scheduler's own
            // dispatch accounting.
            let sink = TelemetrySink::with_capacity(8, 1024);
            let mut traced = StreamEngine::builder()
                .seed(MASTER_SEED)
                .workers(workers)
                .cost_model(make_model())
                .telemetry(sink.clone())
                .build();
            let traced_output = serve_all(&mut traced);
            assert_results_match(&traced_output.value, &reference);
            prop_assert_eq!(&traced_output.report, &output.report);
            let dispatched_events = sink
                .trace_records()
                .iter()
                .filter(|r| r.event == TraceEvent::Dispatched)
                .count() as u64;
            prop_assert_eq!(dispatched_events, dispatched);
            let snapshot = traced
                .telemetry()
                .metrics_snapshot()
                .expect("enabled sink snapshots");
            prop_assert_eq!(snapshot.counter("stream.dispatched"), dispatched);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden snapshot: the StreamReport JSON schema is stable.
// ---------------------------------------------------------------------------

/// A small handcrafted report with every field populated deterministically.
fn golden_report() -> StreamReport {
    let phase = |rounds: u64, bits: u64, operations: u64| bcc_core::runtime::PhaseStats {
        rounds,
        bits,
        operations,
    };
    StreamReport {
        schema: "bcc-stream-report/v2".to_string(),
        requests: 2,
        failures: 1,
        interactive: 1,
        bulk: 1,
        rejected: 3,
        expired: 1,
        infeasible: 2,
        scheduler: bcc_core::SchedulerStats {
            policy: "wfq".to_string(),
            classes: vec![
                bcc_core::ClassStats {
                    class: "interactive".to_string(),
                    weight: 4,
                    rate_limit: None,
                    submitted: 1,
                    dispatched: 1,
                    expired: 0,
                    throttled: 0,
                    infeasible: 0,
                    predicted_rounds: 2,
                    actual_rounds: 3,
                },
                bcc_core::ClassStats {
                    class: "bulk".to_string(),
                    weight: 1,
                    rate_limit: Some(bcc_core::RateLimit {
                        tokens: 2,
                        window: 8,
                    }),
                    submitted: 1,
                    dispatched: 0,
                    expired: 1,
                    throttled: 3,
                    infeasible: 2,
                    predicted_rounds: 0,
                    actual_rounds: 0,
                },
            ],
        },
        cache_hits: 0,
        cache_misses: 1,
        cache: CacheStats {
            hits: 0,
            misses: 1,
            evictions: 0,
            entries: 1,
            capacity: Some(4),
            rebuild_predicted_rounds: 10,
            rebuild_actual_rounds: 9,
        },
        total: RoundReport {
            total_rounds: 12,
            total_bits: 340,
            total_operations: 4,
            breakdown: vec![
                ("laplacian solve".to_string(), phase(3, 40, 2)),
                ("laplacian preprocessing".to_string(), phase(9, 300, 2)),
            ],
        },
        preprocessing: vec![PreprocessingCost {
            fingerprint: "000102030405060708090a0b0c0d0e0f".to_string(),
            requests: 1,
            cached: false,
            report: RoundReport {
                total_rounds: 9,
                total_bits: 300,
                total_operations: 2,
                breakdown: vec![("laplacian preprocessing".to_string(), phase(9, 300, 2))],
            },
        }],
        per_request: vec![
            RequestCost {
                index: 0,
                kind: "laplacian".to_string(),
                seed: 42,
                fingerprint: Some("000102030405060708090a0b0c0d0e0f".to_string()),
                cache_hit: false,
                ok: true,
                error: None,
                report: RoundReport {
                    total_rounds: 3,
                    total_bits: 40,
                    total_operations: 2,
                    breakdown: vec![("laplacian solve".to_string(), phase(3, 40, 2))],
                },
            },
            RequestCost {
                index: 1,
                kind: "sparsify".to_string(),
                seed: 43,
                fingerprint: None,
                cache_hit: false,
                ok: false,
                error: Some("sparsifier: the graph has no edges".to_string()),
                report: RoundReport {
                    total_rounds: 0,
                    total_bits: 0,
                    total_operations: 0,
                    breakdown: vec![],
                },
            },
        ],
        calibration: vec![bcc_core::cost::CalibrationCell {
            kind: "laplacian solve".to_string(),
            bucket: 3,
            observations: 1,
            basis_units: 12,
            actual_rounds: 3,
        }],
    }
}

#[test]
fn stream_report_json_schema_matches_the_golden_snapshot() {
    let json = serde_json::to_string_pretty(&golden_report()).unwrap();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/stream_report.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, format!("{json}\n")).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect(
        "tests/golden/stream_report.json exists (regenerate with scripts/regen-goldens.sh)",
    );
    assert_eq!(
        json,
        golden.trim_end(),
        "StreamReport JSON schema changed — regenerate tests/golden/stream_report.json with \
         scripts/regen-goldens.sh and bump STREAM_REPORT_SCHEMA if the change is not additive"
    );
    // And it round-trips.
    let back: StreamReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, golden_report());
}

#[test]
fn a_real_stream_report_exposes_the_documented_field_names() {
    let grid = generators::grid(3, 3);
    let mut b = vec![0.0; 9];
    b[0] = 1.0;
    b[8] = -1.0;
    let mut engine = StreamEngine::builder().seed(MASTER_SEED).build();
    let output = engine.serve(|client| {
        client
            .submit(Request::laplacian(grid.clone(), b.clone()), Priority::Bulk)
            .unwrap();
    });
    let json = serde_json::to_string(&output.report).unwrap();
    for field in [
        "\"schema\"",
        "\"requests\"",
        "\"failures\"",
        "\"interactive\"",
        "\"bulk\"",
        "\"rejected\"",
        "\"expired\"",
        "\"infeasible\"",
        "\"scheduler\"",
        "\"policy\"",
        "\"rebuild_predicted_rounds\"",
        "\"rebuild_actual_rounds\"",
        "\"classes\"",
        "\"class\"",
        "\"weight\"",
        "\"rate_limit\"",
        "\"submitted\"",
        "\"dispatched\"",
        "\"throttled\"",
        "\"predicted_rounds\"",
        "\"actual_rounds\"",
        "\"cache_hits\"",
        "\"cache_misses\"",
        "\"cache\"",
        "\"hits\"",
        "\"misses\"",
        "\"evictions\"",
        "\"entries\"",
        "\"capacity\"",
        "\"total\"",
        "\"preprocessing\"",
        "\"per_request\"",
        "\"total_rounds\"",
        "\"total_bits\"",
        "\"total_operations\"",
        "\"breakdown\"",
        "\"fingerprint\"",
        "\"cache_hit\"",
        "\"seed\"",
        "\"kind\"",
        "\"index\"",
        "\"ok\"",
        "\"error\"",
        "\"cached\"",
        "\"calibration\"",
        "\"bucket\"",
        "\"observations\"",
        "\"basis_units\"",
    ] {
        assert!(json.contains(field), "missing field {field} in {json}");
    }
    assert_eq!(output.report.schema, "bcc-stream-report/v2");
}
