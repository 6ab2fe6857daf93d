//! Streaming serving with weighted fair queueing: requests trickle in one
//! at a time across three scheduling classes and are collected as they
//! finish, while the engine's bounded LRU Laplacian cache amortizes
//! preprocessing across submissions.
//!
//! Interactive telemetry queries (load-flow solves against two shared grid
//! topologies) compete with bulk maintenance work (sparsifier rebuilds) and
//! a rate-limited custom "analytics" class. The WFQ scheduler apportions
//! dispatches by class weight — bulk work keeps flowing even under
//! interactive load, unlike the old strict two-class priority queue — a
//! token bucket caps the analytics share per scheduling window, and a
//! zero-deadline probe shows queued work expiring with the typed
//! `DeadlineExceeded` error instead of running late. Results stay
//! bit-identical to a sequential `Session` loop whatever the worker count,
//! weights or limits. Run with
//! `cargo run --release --example stream_serving`.

use std::time::Duration;

use bcc_core::graph::generators;
use bcc_core::stream::{Priority, RateLimit, Request, StreamEngine};

fn main() {
    let small_grid = generators::grid(5, 5);
    let large_grid = generators::grid(6, 6);
    let analytics = Priority::custom(0);

    let mut engine = StreamEngine::builder()
        .seed(2022)
        .queue_capacity(8)
        .cache_capacity(4)
        .class_weight(Priority::Interactive, 4)
        .class_weight(Priority::Bulk, 2)
        .class_weight(analytics, 1)
        .class_rate_limit(analytics, RateLimit::new(1, 4))
        .build();
    println!(
        "stream engine: {} workers, queue capacity {}, cache capacity {:?} (LRU eviction)",
        engine.workers(),
        engine.queue_capacity(),
        engine.cache_capacity(),
    );
    println!(
        "classes: interactive weight {}, bulk weight {}, analytics weight {} at {:?}\n",
        engine.class_weight(Priority::Interactive),
        engine.class_weight(Priority::Bulk),
        engine.class_weight(analytics),
        engine.class_rate_limit(analytics).unwrap(),
    );

    let output = engine.serve(|client| {
        let mut tickets = Vec::new();

        // Bulk maintenance traffic first...
        tickets.push(
            client
                .submit(
                    Request::sparsify(generators::complete(16), 0.5),
                    Priority::Bulk,
                )
                .expect("admitted"),
        );

        // ...an analytics sweep that the token bucket paces...
        tickets.push(
            client
                .submit(Request::sparsify(generators::complete(12), 1.0), analytics)
                .expect("admitted"),
        );

        // ...and a probe whose deadline has already passed: it will expire
        // in the queue with a typed error instead of running late.
        let mut demand = vec![0.0; small_grid.n()];
        demand[0] = 1.0;
        demand[small_grid.n() - 1] = -1.0;
        let doomed = client
            .submit_with_deadline(
                Request::laplacian(small_grid.clone(), demand),
                Priority::Interactive,
                Duration::ZERO,
            )
            .expect("admitted");
        tickets.push(doomed);
        println!(
            "submitted a zero-deadline probe (ticket {})",
            doomed.index()
        );

        // Interactive load-flow queries trickling in one at a time.
        for k in 1..=6 {
            let (grid, label) = if k % 2 == 0 {
                (&small_grid, "5x5")
            } else {
                (&large_grid, "6x6")
            };
            let n = grid.n();
            let mut demand = vec![0.0; n];
            demand[k % n] = 1.0;
            demand[n - 1 - k % n] = -1.0;
            let ticket = client
                .submit(
                    Request::laplacian(grid.clone(), demand),
                    Priority::Interactive,
                )
                .expect("admitted");
            println!(
                "submitted query #{} (ticket {}, {} grid, interactive)",
                k,
                ticket.index(),
                label
            );
            tickets.push(ticket);

            // Collect whatever already finished without blocking.
            tickets.retain(|t| match client.poll(*t) {
                Some(Ok(outcome)) => {
                    println!(
                        "  ticket {} done: {} rounds",
                        t.index(),
                        outcome.report.total_rounds
                    );
                    false
                }
                Some(Err(e)) => {
                    println!("  ticket {} failed: {e}", t.index());
                    false
                }
                None => true,
            });
        }

        // Block for the stragglers.
        for ticket in tickets {
            match client.wait(ticket) {
                Ok(outcome) => println!(
                    "  ticket {} done: {} rounds",
                    ticket.index(),
                    outcome.report.total_rounds
                ),
                Err(e) => println!("  ticket {} failed: {e}", ticket.index()),
            }
        }
    });

    let report = &output.report;
    println!(
        "\nserved {} requests ({} interactive / {} bulk, {} failed, {} rejected, {} expired)",
        report.requests,
        report.interactive,
        report.bulk,
        report.failures,
        report.rejected,
        report.expired,
    );
    println!("scheduler ({}):", report.scheduler.policy);
    for class in &report.scheduler.classes {
        println!(
            "  {:<12} weight {} limit {:<14} submitted {} dispatched {} expired {} throttled {}",
            class.class,
            class.weight,
            class
                .rate_limit
                .map(|r| format!("{}/{}", r.tokens, r.window))
                .unwrap_or_else(|| "none".to_string()),
            class.submitted,
            class.dispatched,
            class.expired,
            class.throttled,
        );
    }
    println!(
        "laplacian cache: {} distinct topologies, {} hits / {} misses (engine lifetime: {} hits, {} misses, {} evictions, {} entries)",
        report.preprocessing.len(),
        report.cache_hits,
        report.cache_misses,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.entries,
    );
    for entry in &report.preprocessing {
        println!(
            "  fingerprint {}… served {} requests, preprocessing {} rounds",
            &entry.fingerprint[..8],
            entry.requests,
            entry.report.total_rounds
        );
    }
    println!(
        "stream total: {} rounds / {} bits (preprocessing charged once per topology)",
        report.total.total_rounds, report.total.total_bits
    );
    // Worker-pool sizing counters: timing-dependent (resize decisions race
    // completions), so they ride on the output instead of the deterministic
    // report. A fixed pool shows 0 grows / 0 shrinks with peak == min.
    println!(
        "worker pool: {}..{} workers, {} grows / {} shrinks, peak {}",
        output.pool.min_workers,
        output.pool.max_workers,
        output.pool.grows,
        output.pool.shrinks,
        output.pool.peak_workers,
    );

    // A second scope on the same engine is served from the warm cache.
    let warm = engine.serve(|client| {
        let n = small_grid.n();
        let mut demand = vec![0.0; n];
        demand[0] = 1.0;
        demand[n - 1] = -1.0;
        let ticket = client
            .submit(
                Request::laplacian(small_grid.clone(), demand),
                Priority::Interactive,
            )
            .expect("admitted");
        client.wait(ticket).expect("well-formed query").report
    });
    println!(
        "warm rerun: {} rounds for one query ({} cache hit: {})",
        warm.value.total_rounds,
        warm.report.cache_hits,
        warm.report.cache_misses == 0
    );

    // The unified cost model priced every scheduling decision above
    // (size-aware WFQ tags are on by default); its predicted-vs-actual
    // per-class sums come back in the scheduler stats.
    println!("cost model estimation error (first scope):");
    for class in &report.scheduler.classes {
        if class.actual_rounds == 0 {
            continue;
        }
        let error = class
            .estimation_error()
            .map(|e| format!("{:.1}%", e * 100.0))
            .unwrap_or_else(|| "n/a".to_string());
        println!(
            "  {:<12} predicted {:>8} rounds, actual {:>8} rounds (error {})",
            class.class, class.predicted_rounds, class.actual_rounds, error
        );
    }
    println!(
        "  cache rebuilds predicted {} rounds (uncalibrated prior), actual {}",
        report.cache.rebuild_predicted_rounds, report.cache.rebuild_actual_rounds
    );

    // The engine also surfaces wall-clock latency percentiles per class:
    // queue wait (submission to dispatch) and end-to-end (submission to
    // completion). Under the default SystemClock these are real timings and
    // vary run to run; a VirtualClock makes them deterministic.
    println!("latency percentiles (first scope, wall clock):");
    for class in &output.latency.classes {
        println!(
            "  {:<12} wait p50/p95/p99 {:>9.3?}/{:>9.3?}/{:>9.3?}  e2e p50/p95/p99 {:>9.3?}/{:>9.3?}/{:>9.3?} ({} samples)",
            class.class,
            class.queue_wait.p50(),
            class.queue_wait.p95(),
            class.queue_wait.p99(),
            class.end_to_end.p50(),
            class.end_to_end.p95(),
            class.end_to_end.p99(),
            class.end_to_end.samples,
        );
    }
}
