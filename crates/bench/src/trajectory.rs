//! Machine-readable `BENCH_*.json` cost trajectories and the CI trend check.
//!
//! The experiment tables in [`crate`] are human-readable; serving systems and
//! CI want the same round/bit accounting as JSON. This module emits five
//! files into the repository root (see `write_bench_json`):
//!
//! * **`BENCH_pipelines.json`** — `Vec<PipelinePoint>`: one point per
//!   (pipeline, instance size), each carrying the structured
//!   [`RoundReport`] of that run. The cost *trajectory* of a pipeline is the
//!   sequence of its points in instance-size order.
//! * **`BENCH_batch.json`** — a [`BatchTrajectory`]: the two
//!   [`StreamReport`]s of one mixed batch served as two serve scopes of one
//!   [`bcc_core::StreamEngine`] (cold cache, then warm cache), demonstrating
//!   the preprocessing amortization across requests.
//! * **`BENCH_stream.json`** — a [`StreamTrajectory`]: the full
//!   [`StreamReport`] of a mixed-priority workload submitted one request at
//!   a time to a [`bcc_core::StreamEngine`].
//! * **`BENCH_load.json`** — a [`crate::load::LoadBench`]: the committed
//!   scenario library (`scenarios/*.json`) run through the deterministic
//!   virtual-clock load harness, one [`crate::load::LoadTrajectory`] per
//!   scenario with per-class latency percentiles and ramp-search results
//!   (schema documented in [`crate::load`]).
//! * **`BENCH_load_metrics.json`** — a [`crate::load::LoadMetricsBench`]:
//!   one `bcc-metrics/v1` [`bcc_core::MetricsSnapshot`] per scenario
//!   ([`crate::load::metrics_snapshot`]), so dashboards consume the same
//!   metrics schema for the engine's live telemetry and the harness's
//!   simulated runs.
//!
//! # Schema (`bcc-bench/v1`)
//!
//! `BENCH_pipelines.json` is a JSON array of objects with fields
//! `{schema, pipeline, n, m, seed, total_rounds, total_bits,
//! total_operations, wall_ns, report}`, where `report` is a serialized
//! [`RoundReport`]: `{total_rounds, total_bits, total_operations,
//! breakdown: [[phase, {rounds, bits, operations}], ...]}`. `wall_ns` is
//! the median wall-clock time of the run over [`WALL_CLOCK_REPEATS`]
//! repeats — an additive honesty field: the trend check validates its
//! presence and shape (a positive number) but never its magnitude, because
//! wall-clock time is machine-dependent where the round/bit counters are
//! deterministic.
//!
//! `BENCH_batch.json` is an object `{schema, seed, workers, cold, warm}`
//! where `cold` and `warm` are serialized [`StreamReport`]s
//! (`bcc-stream-report/v2`, laid out below); `cold` pays every
//! preprocessing, `warm` reuses the fingerprint-keyed cache.
//!
//! `BENCH_stream.json` is an object `{schema, seed, workers, report}` where
//! `report` is a serialized [`StreamReport`] (`bcc-stream-report/v2`, see
//! `bcc_core::stream`): request/class/backpressure/deadline counters, the
//! per-class WFQ scheduler counters (`report.scheduler.classes[*]` with
//! `{class, weight, rate_limit, submitted, dispatched, expired, throttled,
//! infeasible, predicted_rounds, actual_rounds}`, see
//! [`bcc_core::SchedulerStats`]), the bounded cache's
//! [`bcc_core::CacheStats`] (hit, miss and eviction counters, occupancy and
//! capacity, and the `rebuild_predicted_rounds` / `rebuild_actual_rounds`
//! build-estimation sums), the submission-order
//! `per_request` costs and the once-per-fingerprint `preprocessing` costs.
//!
//! The estimation-error fields (`predicted_rounds` / `actual_rounds` per
//! scheduler class, `rebuild_*_rounds` on the cache) were added by the
//! unified cost-model layer (`bcc_core::cost`), and the `calibration`
//! array (one entry per observed `(kind, size-bucket)` cell, with its
//! basis-unit and actual-round sums) by the size-bucketed rebuild of that
//! layer. Both additions were purely additive and kept the tags; the
//! report moved to `bcc-stream-report/v2` only when the cache's eviction
//! `policy` and per-policy `lru_evictions` / `cost_evictions` keys were
//! removed along with the cost-aware eviction policy. The estimation
//! numbers are produced by a deterministic submission-order replay of the
//! calibration loop, which is what makes them safe for [`check_trend`] to
//! guard.
//!
//! Field names in all three files are covered by golden-snapshot tests
//! (`tests/stream.rs` in the workspace root), so
//! consumers may rely on them across PRs; incompatible changes bump the
//! `schema` tags.
//!
//! # Trend check
//!
//! [`check_trend`] is the CI guard over these artifacts: it regenerates the
//! quick trajectories in memory and compares them against the *committed*
//! `BENCH_*.json` files, reporting an issue for schema drift, disappeared
//! trajectory points, or a >2x regression in any tracked counter (total
//! rounds / total bits). Because every trajectory is deterministic, an
//! unchanged tree always passes; the check exists so a PR that regresses a
//! pipeline's communication cost (or forgets to regenerate the committed
//! artifacts after an intentional change) fails loudly.
//!
//! Two further guards ride on the same check: [`load_trend_issues`] holds
//! the load harness's loss counters, latency percentiles and ramp results
//! to the committed `BENCH_load.json` (a halved sustainable rate or a >2x
//! percentile regression fails CI), and [`estimation_issues`] bounds every
//! scheduler class's **symmetric ratio** cost-model estimation error
//! (`max(predicted, actual) / min(predicted, actual) − 1`) at
//! [`ESTIMATION_ERROR_MAX`]. The symmetry matters: the previous
//! `|p − a| / a` metric saturated at 1.0 for under-prediction, which let
//! the interactive class's ~10⁴x LP round blind spot hide below a 2.0
//! bound; under the honest metric a miss that size scores ≈9999 and turns
//! the job red (see [`estimation_summary`], which also prints the
//! per-bucket calibration coefficients).
//!
//! A third guard, [`telemetry_issues`], is the telemetry sanity gate: it
//! re-runs the committed smoke scenario with lifecycle tracing
//! ([`crate::load::run_scenario_traced`]) and reconciles the trace against
//! the scheduler's own counters — the number of `dispatched` trace events
//! must equal the WFQ scheduler's dispatched sum exactly, and the solve-end
//! events must match the trajectory's completed count. A mismatch means an
//! instrumentation point was dropped or double-fired, which is precisely
//! the class of bug observability code breeds.

use std::io;
use std::path::{Path, PathBuf};

use bcc_core::graph::generators;
use bcc_core::prelude::*;
use bcc_core::{Request, RoundReport, StreamReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use bcc_core::telemetry::TraceEvent;

use crate::load::{LoadBench, LoadMetricsBench};

/// Schema tag of every `BENCH_*.json` artifact this module writes.
pub const BENCH_SCHEMA: &str = "bcc-bench/v1";

/// One measured point of a pipeline's cost trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePoint {
    /// Schema tag (`"bcc-bench/v1"`).
    pub schema: String,
    /// Pipeline name: `sparsify`, `laplacian`, `lp` or `mcmf`.
    pub pipeline: String,
    /// Vertex count of the instance (constraint count for `lp`).
    pub n: u64,
    /// Edge count of the instance (variable count for `lp`).
    pub m: u64,
    /// Session seed of the run.
    pub seed: u64,
    /// Total rounds charged.
    pub total_rounds: u64,
    /// Total bits charged.
    pub total_bits: u64,
    /// Total communication operations.
    pub total_operations: u64,
    /// Median wall-clock nanoseconds of the run over
    /// [`WALL_CLOCK_REPEATS`] repeats. Machine-dependent — the trend check
    /// validates only that the field is present and positive, never its
    /// magnitude.
    pub wall_ns: u64,
    /// Full per-phase breakdown of the run.
    pub report: RoundReport,
}

/// The `BENCH_batch.json` payload: one batch served cold, then warm, as two
/// serve scopes of one [`StreamEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchTrajectory {
    /// Schema tag (`"bcc-bench/v1"`).
    pub schema: String,
    /// Master seed of the engine.
    pub seed: u64,
    /// Worker threads used.
    pub workers: u64,
    /// The first run: every distinct fingerprint pays preprocessing.
    pub cold: StreamReport,
    /// The second run of the same workload: preprocessing served from cache.
    pub warm: StreamReport,
}

/// The `BENCH_stream.json` payload: one mixed-priority workload submitted
/// incrementally to a [`StreamEngine`] serve scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamTrajectory {
    /// Schema tag (`"bcc-bench/v1"`).
    pub schema: String,
    /// Master seed of the engine.
    pub seed: u64,
    /// Worker threads used (informational — the report is
    /// worker-count-independent).
    pub workers: u64,
    /// The full accounting of the serve scope.
    pub report: StreamReport,
}

/// Number of repeats of each pipeline run whose median wall-clock time a
/// [`PipelinePoint`] records. Every repeat is deterministic and produces the
/// identical report, so the extra runs only buy timing stability.
pub const WALL_CLOCK_REPEATS: usize = 3;

/// Runs `run` [`WALL_CLOCK_REPEATS`] times, returning the (identical) result
/// of the last repeat and the median wall-clock nanoseconds per repeat.
fn median_wall_ns<T>(mut run: impl FnMut() -> T) -> (T, u64) {
    let mut samples = [0u64; WALL_CLOCK_REPEATS];
    let mut result = None;
    for sample in samples.iter_mut() {
        let start = std::time::Instant::now();
        let value = run();
        *sample = u64::try_from(start.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        result = Some(value);
    }
    samples.sort_unstable();
    (
        result.expect("WALL_CLOCK_REPEATS > 0"),
        samples[WALL_CLOCK_REPEATS / 2],
    )
}

fn point(
    pipeline: &str,
    n: usize,
    m: usize,
    seed: u64,
    report: RoundReport,
    wall_ns: u64,
) -> PipelinePoint {
    PipelinePoint {
        schema: BENCH_SCHEMA.to_string(),
        pipeline: pipeline.to_string(),
        n: n as u64,
        m: m as u64,
        seed,
        total_rounds: report.total_rounds,
        total_bits: report.total_bits,
        total_operations: report.total_operations,
        wall_ns,
        report,
    }
}

/// Measures the cost trajectories of all four pipelines over growing
/// instances (`quick` shrinks the instance list for CI).
pub fn pipelines_trajectory(seed: u64, quick: bool) -> Vec<PipelinePoint> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut points = Vec::new();

    // Theorem 1.2 — sparsify complete graphs.
    let sparsify_sizes: &[usize] = if quick { &[12, 18] } else { &[12, 18, 26, 36] };
    for &n in sparsify_sizes {
        let g = generators::complete(n);
        let (outcome, wall_ns) = median_wall_ns(|| {
            let mut session = Session::builder().seed(seed).build();
            session
                .sparsify(&g, 0.5)
                .expect("complete graph sparsifies")
        });
        points.push(point(
            "sparsify",
            g.n(),
            g.m(),
            seed,
            outcome.report,
            wall_ns,
        ));
    }

    // Theorem 1.3 — preprocess + 3 solves on growing grids; the report is the
    // prepared handle's cumulative cost (preprocessing charged once).
    let grid_sides: &[usize] = if quick { &[4, 5] } else { &[4, 5, 6, 8] };
    for &side in grid_sides {
        let g = generators::grid(side, side);
        let (report, wall_ns) = median_wall_ns(|| {
            let session = Session::builder().seed(seed).build();
            let mut prepared = session
                .laplacian(&g)
                .preprocess()
                .expect("grids are connected");
            for k in 1..=3 {
                let mut b = vec![0.0; g.n()];
                b[0] = 1.0;
                b[g.n() - k] = -1.0;
                prepared.solve(&b).expect("well-formed right-hand side");
            }
            prepared.report()
        });
        points.push(point("laplacian", g.n(), g.m(), seed, report, wall_ns));
    }

    // Theorem 1.4 — the simple box LP at growing variable counts via chained
    // unit-demand constraints.
    let lp_vars: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    for &vars in lp_vars {
        let triplets: Vec<(usize, usize, f64)> = (0..vars).map(|i| (i, i / 2, 1.0)).collect();
        let constraints = vars.div_ceil(2);
        let lp = LpInstance {
            a: bcc_core::linalg::CsrMatrix::from_triplets(vars, constraints, &triplets),
            b: vec![1.0; constraints],
            c: (0..vars).map(|i| (i % 2) as f64).collect(),
            lower: vec![0.0; vars],
            upper: vec![1.0; vars],
        };
        let request = bcc_core::LpRequest::new(
            vec![0.5; vars],
            LpOptions::new(1e-3, lp.m(), seed).with_uniform_weights(),
        );
        let (outcome, wall_ns) = median_wall_ns(|| {
            let mut session = Session::builder().seed(seed).build();
            session.lp(&lp, &request).expect("interior start")
        });
        points.push(point("lp", lp.n(), lp.m(), seed, outcome.report, wall_ns));
    }

    // Theorem 1.1 — min-cost max-flow on random instances.
    let flow_sizes: &[usize] = if quick { &[5] } else { &[5, 6, 8] };
    for &n in flow_sizes {
        let instance = generators::random_flow_instance(n, 0.3, 3, &mut rng);
        let (outcome, wall_ns) = median_wall_ns(|| {
            let mut session = Session::builder().seed(seed).build();
            session
                .min_cost_max_flow(&instance)
                .expect("generated instances are non-empty")
        });
        points.push(point(
            "mcmf",
            instance.graph.n(),
            instance.graph.m(),
            seed,
            outcome.report,
            wall_ns,
        ));
    }

    points
}

/// The mixed workload of the batch experiment: Laplacian solves on a few
/// repeated topologies (exercising the fingerprint cache) plus sparsify and
/// flow traffic.
pub fn batch_workload(seed: u64, quick: bool) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C);
    let mut requests = Vec::new();
    let grids: Vec<_> = if quick { vec![4, 5] } else { vec![4, 5, 6] };
    let solves_per_grid = if quick { 4 } else { 8 };
    for side in grids {
        let g = generators::grid(side, side);
        for k in 1..=solves_per_grid {
            let mut b = vec![0.0; g.n()];
            b[k % g.n()] = 1.0;
            b[g.n() - 1 - (k % g.n())] -= 1.0;
            if b.iter().all(|v| *v == 0.0) {
                b[0] = 1.0;
                b[g.n() - 1] = -1.0;
            }
            requests.push(Request::laplacian(g.clone(), b));
        }
    }
    requests.push(Request::sparsify(generators::complete(14), 0.5));
    requests.push(Request::sparsify(generators::complete(18), 1.0));
    requests.push(Request::min_cost_max_flow(
        generators::random_flow_instance(5, 0.3, 3, &mut rng),
    ));
    requests
}

/// Runs the batch experiment: the same workload served cold then warm as
/// two serve scopes of one engine, so the two [`StreamReport`]s exhibit the
/// cache amortization.
pub fn batch_trajectory(seed: u64, quick: bool) -> BatchTrajectory {
    let workload: Vec<(Request, Priority)> = batch_workload(seed, quick)
        .into_iter()
        .map(|request| (request, Priority::Bulk))
        .collect();
    // One worker, the committed value: the report is independent of the
    // worker count, so pinning it keeps the artifact machine-independent.
    let mut engine = StreamEngine::builder().seed(seed).workers(1).build();
    let cold = serve_in_order(&mut engine, &workload);
    let warm = serve_in_order(&mut engine, &workload);
    BatchTrajectory {
        schema: BENCH_SCHEMA.to_string(),
        seed,
        workers: engine.workers() as u64,
        cold,
        warm,
    }
}

/// Serves `workload` as one scope of `engine` — submits every request, then
/// waits on the tickets in submission order, which is how a closed batch is
/// served — and returns the scope's report.
///
/// # Panics
///
/// Panics if any request fails: the committed workloads are all well-formed.
fn serve_in_order(engine: &mut StreamEngine, workload: &[(Request, Priority)]) -> StreamReport {
    engine
        .serve(|client| {
            let tickets: Vec<_> = workload
                .iter()
                .map(|(request, priority)| {
                    client
                        .submit(request.clone(), *priority)
                        .expect("blocking backpressure admits every submission")
                })
                .collect();
            for ticket in tickets {
                client
                    .wait(ticket)
                    .unwrap_or_else(|e| panic!("workload request failed: {e}"));
            }
        })
        .report
}

/// The mixed-priority workload of the streaming experiment: bulk Laplacian
/// traffic on repeated topologies interleaved with interactive sparsify /
/// LP / flow requests.
pub fn stream_workload(seed: u64, quick: bool) -> Vec<(Request, Priority)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57E4);
    let mut requests = Vec::new();
    let grids: Vec<usize> = if quick { vec![4, 5] } else { vec![4, 5, 6] };
    let solves_per_grid = if quick { 3 } else { 6 };
    for side in grids {
        let g = generators::grid(side, side);
        for k in 1..=solves_per_grid {
            let mut b = vec![0.0; g.n()];
            b[k % g.n()] = 1.0;
            b[g.n() - 1 - (k % g.n())] -= 1.0;
            requests.push((Request::laplacian(g.clone(), b), Priority::Bulk));
        }
    }
    requests.push((
        Request::sparsify(generators::complete(14), 0.5),
        Priority::Interactive,
    ));
    let lp = LpInstance {
        a: bcc_core::linalg::CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
        b: vec![1.0],
        c: vec![0.0, 1.0],
        lower: vec![0.0, 0.0],
        upper: vec![1.0, 1.0],
    };
    let lp_request = bcc_core::LpRequest::new(
        vec![0.5, 0.5],
        LpOptions::new(1e-3, lp.m(), seed).with_uniform_weights(),
    );
    requests.push((Request::lp(lp, lp_request), Priority::Interactive));
    requests.push((
        Request::min_cost_max_flow(generators::random_flow_instance(5, 0.3, 3, &mut rng)),
        Priority::Interactive,
    ));
    requests
}

/// Runs the streaming experiment: the workload is submitted one request at a
/// time under mixed priorities, exercising the incremental front-end the
/// `BENCH_stream.json` consumers track.
pub fn stream_trajectory(seed: u64, quick: bool) -> StreamTrajectory {
    let workload = stream_workload(seed, quick);
    // Pinned to one worker like `batch_trajectory`, for the same reason.
    let mut engine = StreamEngine::builder().seed(seed).workers(1).build();
    let report = serve_in_order(&mut engine, &workload);
    StreamTrajectory {
        schema: BENCH_SCHEMA.to_string(),
        seed,
        workers: engine.workers() as u64,
        report,
    }
}

/// Writes `BENCH_pipelines.json`, `BENCH_batch.json`, `BENCH_stream.json`,
/// `BENCH_load.json` and `BENCH_load_metrics.json` into `dir`, returning the
/// written paths. Each file is verified to parse back before returning.
///
/// The load artifact always runs the *committed* scenario library
/// (`scenarios/` at the repository root) — the scenario documents, not
/// `seed`/`quick`, size that run, so the artifact stays bit-identical
/// between quick and full regenerations.
///
/// # Errors
///
/// Propagates filesystem errors; a file that does not round-trip through the
/// JSON parser is reported as [`io::ErrorKind::InvalidData`].
pub fn write_bench_json(dir: &Path, seed: u64, quick: bool) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();

    let pipelines = pipelines_trajectory(seed, quick);
    let path = dir.join("BENCH_pipelines.json");
    let json = serde_json::to_string_pretty(&pipelines)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, format!("{json}\n"))?;
    let back: Vec<PipelinePoint> = serde_json::from_str(&json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if back != pipelines {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "BENCH_pipelines.json did not round-trip",
        ));
    }
    written.push(path);

    let batch = batch_trajectory(seed, quick);
    let path = dir.join("BENCH_batch.json");
    let json = serde_json::to_string_pretty(&batch)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, format!("{json}\n"))?;
    let back: BatchTrajectory = serde_json::from_str(&json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if back != batch {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "BENCH_batch.json did not round-trip",
        ));
    }
    written.push(path);

    let stream = stream_trajectory(seed, quick);
    let path = dir.join("BENCH_stream.json");
    let json = serde_json::to_string_pretty(&stream)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, format!("{json}\n"))?;
    let back: StreamTrajectory = serde_json::from_str(&json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if back != stream {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "BENCH_stream.json did not round-trip",
        ));
    }
    written.push(path);

    let load = fresh_load_bench()?;
    let path = dir.join("BENCH_load.json");
    let json = serde_json::to_string_pretty(&load)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, format!("{json}\n"))?;
    let back: LoadBench = serde_json::from_str(&json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if back != load {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "BENCH_load.json did not round-trip",
        ));
    }
    written.push(path);

    let metrics = crate::load::load_metrics_bench(&load);
    let path = dir.join("BENCH_load_metrics.json");
    let json = serde_json::to_string_pretty(&metrics)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, format!("{json}\n"))?;
    let back: LoadMetricsBench = serde_json::from_str(&json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if back != metrics {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "BENCH_load_metrics.json did not round-trip",
        ));
    }
    written.push(path);

    Ok(written)
}

/// Runs the committed scenario library through the load harness — the
/// in-memory side of `BENCH_load.json`, shared by [`write_bench_json`] and
/// [`check_trend`].
///
/// # Errors
///
/// Propagates [`crate::load::load_bench`] errors (missing library,
/// malformed scenario).
pub fn fresh_load_bench() -> io::Result<LoadBench> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    crate::load::load_bench(&repo_root().join("scenarios"), workers)
}

// ---------------------------------------------------------------------------
// CI trend check.
// ---------------------------------------------------------------------------

/// The regression threshold of the trend check: a tracked counter may grow
/// to at most this multiple of its committed value.
pub const TREND_MAX_RATIO: f64 = 2.0;

/// Flags `fresh` against `committed` for one tracked counter, appending an
/// issue when the counter regressed beyond [`TREND_MAX_RATIO`] (a counter
/// that was zero and became non-zero counts as a regression too).
fn check_counter(issues: &mut Vec<String>, what: &str, committed: u64, fresh: u64) {
    let regressed = if committed == 0 {
        fresh > 0
    } else {
        fresh as f64 > committed as f64 * TREND_MAX_RATIO
    };
    if regressed {
        issues.push(format!(
            "{what}: {fresh} vs committed {committed} (>{TREND_MAX_RATIO}x)"
        ));
    }
}

fn check_report_totals(
    issues: &mut Vec<String>,
    what: &str,
    committed: &RoundReport,
    fresh: &RoundReport,
) {
    check_counter(
        issues,
        &format!("{what} total_rounds"),
        committed.total_rounds,
        fresh.total_rounds,
    );
    check_counter(
        issues,
        &format!("{what} total_bits"),
        committed.total_bits,
        fresh.total_bits,
    );
}

/// Compares freshly measured trajectories against the committed ones,
/// returning one human-readable issue per schema drift, missing trajectory
/// point or >2x regression in a tracked counter (pure comparison logic; the
/// I/O lives in [`check_trend`]).
pub fn trend_issues(
    committed_pipelines: &[PipelinePoint],
    fresh_pipelines: &[PipelinePoint],
    committed_batch: &BatchTrajectory,
    fresh_batch: &BatchTrajectory,
    committed_stream: &StreamTrajectory,
    fresh_stream: &StreamTrajectory,
) -> Vec<String> {
    let mut issues = Vec::new();

    for point in committed_pipelines {
        if point.schema != BENCH_SCHEMA {
            issues.push(format!(
                "BENCH_pipelines.json: committed point {}({},{}) has schema {:?}, expected {:?} — \
                 regenerate the committed artifacts",
                point.pipeline, point.n, point.m, point.schema, BENCH_SCHEMA
            ));
        }
    }
    for committed in committed_pipelines {
        let key = (
            &committed.pipeline,
            committed.n,
            committed.m,
            committed.seed,
        );
        match fresh_pipelines
            .iter()
            .find(|p| (&p.pipeline, p.n, p.m, p.seed) == key)
        {
            None => issues.push(format!(
                "BENCH_pipelines.json: trajectory point {}({},{}) disappeared from the fresh run",
                committed.pipeline, committed.n, committed.m
            )),
            Some(fresh) => check_report_totals(
                &mut issues,
                &format!(
                    "pipeline {} (n={}, m={})",
                    committed.pipeline, committed.n, committed.m
                ),
                &committed.report,
                &fresh.report,
            ),
        }
    }

    for (name, committed, fresh) in [
        (
            "BENCH_batch.json",
            &committed_batch.schema,
            &fresh_batch.schema,
        ),
        (
            "BENCH_stream.json",
            &committed_stream.schema,
            &fresh_stream.schema,
        ),
    ] {
        if committed != fresh {
            issues.push(format!(
                "{name}: schema drift — committed {committed:?} vs fresh {fresh:?}"
            ));
        }
    }
    check_report_totals(
        &mut issues,
        "batch cold run",
        &committed_batch.cold.total,
        &fresh_batch.cold.total,
    );
    check_report_totals(
        &mut issues,
        "batch warm run",
        &committed_batch.warm.total,
        &fresh_batch.warm.total,
    );
    check_report_totals(
        &mut issues,
        "stream run",
        &committed_stream.report.total,
        &fresh_stream.report.total,
    );
    check_counter(
        &mut issues,
        "stream failures",
        committed_stream.report.failures,
        fresh_stream.report.failures,
    );
    // Scheduler-level guards: the tracked workload carries no deadlines, so
    // any expiration is a regression; rejected and infeasible admissions
    // likewise.
    check_counter(
        &mut issues,
        "stream expired (deadline) submissions",
        committed_stream.report.expired,
        fresh_stream.report.expired,
    );
    check_counter(
        &mut issues,
        "stream rejected submissions",
        committed_stream.report.rejected,
        fresh_stream.report.rejected,
    );
    check_counter(
        &mut issues,
        "stream infeasible-deadline rejections",
        committed_stream.report.infeasible,
        fresh_stream.report.infeasible,
    );
    // Cost-model guards: the per-class predicted/actual sums come from a
    // deterministic submission-order replay (bcc_core::cost), so on an
    // unchanged tree they reproduce exactly; a drift means the model (or
    // the workload's measured cost) changed and the artifacts need
    // regenerating.
    for committed in &committed_stream.report.scheduler.classes {
        let Some(fresh) = fresh_stream
            .report
            .scheduler
            .classes
            .iter()
            .find(|c| c.class == committed.class)
        else {
            issues.push(format!(
                "BENCH_stream.json: scheduler class {:?} disappeared from the fresh run",
                committed.class
            ));
            continue;
        };
        check_counter(
            &mut issues,
            &format!("stream class {} predicted_rounds", committed.class),
            committed.predicted_rounds,
            fresh.predicted_rounds,
        );
        check_counter(
            &mut issues,
            &format!("stream class {} actual_rounds", committed.class),
            committed.actual_rounds,
            fresh.actual_rounds,
        );
    }
    check_counter(
        &mut issues,
        "stream cache rebuild_predicted_rounds",
        committed_stream.report.cache.rebuild_predicted_rounds,
        fresh_stream.report.cache.rebuild_predicted_rounds,
    );
    check_counter(
        &mut issues,
        "stream cache rebuild_actual_rounds",
        committed_stream.report.cache.rebuild_actual_rounds,
        fresh_stream.report.cache.rebuild_actual_rounds,
    );
    issues
}

/// Compares a freshly simulated load run against the committed
/// `BENCH_load.json`, returning one issue per schema drift, disappeared
/// scenario or class, >2x regression in a loss counter or latency
/// percentile, halved completion count, or halved ramp-sustainable rate
/// (pure comparison logic; the I/O lives in [`check_trend`]).
pub fn load_trend_issues(committed: &LoadBench, fresh: &LoadBench) -> Vec<String> {
    let mut issues = Vec::new();
    if committed.schema != fresh.schema {
        issues.push(format!(
            "BENCH_load.json: schema drift — committed {:?} vs fresh {:?}",
            committed.schema, fresh.schema
        ));
    }
    for c in &committed.scenarios {
        let Some(f) = fresh.scenarios.iter().find(|s| s.scenario == c.scenario) else {
            issues.push(format!(
                "BENCH_load.json: scenario {:?} disappeared from the fresh run",
                c.scenario
            ));
            continue;
        };
        let what = |field: &str| format!("load scenario {} {field}", c.scenario);
        check_counter(&mut issues, &what("rejected"), c.rejected, f.rejected);
        check_counter(&mut issues, &what("expired"), c.expired, f.expired);
        check_counter(&mut issues, &what("infeasible"), c.infeasible, f.infeasible);
        check_counter(
            &mut issues,
            &what("total_rounds"),
            c.total_rounds,
            f.total_rounds,
        );
        if f.completed * 2 < c.completed {
            issues.push(format!(
                "{}: completed {} vs committed {} (less than half)",
                what("throughput"),
                f.completed,
                c.completed
            ));
        }
        for cc in &c.classes {
            let Some(fc) = f.classes.iter().find(|x| x.class == cc.class) else {
                issues.push(format!(
                    "BENCH_load.json: scenario {} class {:?} disappeared from the fresh run",
                    c.scenario, cc.class
                ));
                continue;
            };
            for (axis, committed_p, fresh_p) in [
                ("queue_wait", &cc.queue_wait, &fc.queue_wait),
                ("end_to_end", &cc.end_to_end, &fc.end_to_end),
            ] {
                let what =
                    |p: &str| format!("load scenario {} class {} {axis} {p}", c.scenario, cc.class);
                check_counter(
                    &mut issues,
                    &what("p50_ns"),
                    committed_p.p50_ns,
                    fresh_p.p50_ns,
                );
                check_counter(
                    &mut issues,
                    &what("p95_ns"),
                    committed_p.p95_ns,
                    fresh_p.p95_ns,
                );
                check_counter(
                    &mut issues,
                    &what("p99_ns"),
                    committed_p.p99_ns,
                    fresh_p.p99_ns,
                );
            }
        }
        match (&c.ramp, &f.ramp) {
            (Some(cr), Some(fr)) => {
                if fr.max_sustainable_rps < cr.max_sustainable_rps * 0.5 {
                    issues.push(format!(
                        "load scenario {} ramp: max sustainable rate {:.1} rps vs committed \
                         {:.1} rps (less than half)",
                        c.scenario, fr.max_sustainable_rps, cr.max_sustainable_rps
                    ));
                }
            }
            (Some(_), None) => issues.push(format!(
                "load scenario {}: ramp result disappeared from the fresh run",
                c.scenario
            )),
            (None, _) => {}
        }
    }
    issues
}

/// The wall-clock shape guard of `--check-trend`: every pipeline point must
/// carry a positive `wall_ns` (the regeneration pipeline always measures
/// one). The *magnitude* is deliberately unchecked — wall-clock time is
/// machine-dependent, so gating on it would make CI flaky; the field exists
/// for humans and dashboards, and this guard only keeps it from silently
/// disappearing or zeroing out.
pub fn wall_clock_issues(what: &str, points: &[PipelinePoint]) -> Vec<String> {
    points
        .iter()
        .filter(|p| p.wall_ns == 0)
        .map(|p| {
            format!(
                "{what}: pipeline {} (n={}, m={}) has wall_ns = 0 — the wall-clock field must \
                 be present and positive (regenerate the artifacts)",
                p.pipeline, p.n, p.m
            )
        })
        .collect()
}

/// The bound [`estimation_issues`] holds every scheduler class's symmetric
/// cost-model estimation error to: predicted and actual rounds must agree
/// within 1.5x in either direction.
pub const ESTIMATION_ERROR_MAX: f64 = 0.5;

/// Flags every scheduler class (and the cache's rebuild estimate) of a
/// stream trajectory whose symmetric ratio estimation error
/// ([`bcc_core::wfq::ClassStats::estimation_error`],
/// `max(predicted, actual) / min(predicted, actual) − 1`) exceeds
/// [`ESTIMATION_ERROR_MAX`].
///
/// The metric is deliberately symmetric: the earlier `|p − a| / a` form
/// saturated at 1.0 for any under-prediction, so the interactive class's
/// ~10⁴x LP round blind spot sat at ≈0.9999 and passed a 2.0 bound forever.
/// Under `max/min − 1` a 10,000x miss scores ≈9999 whichever side is short
/// and trips any sane bound — the regression test below pins that down.
/// [`estimation_summary`] prints the raw numbers either way.
pub fn estimation_issues(stream: &StreamTrajectory) -> Vec<String> {
    let mut issues = Vec::new();
    for class in &stream.report.scheduler.classes {
        if let Some(error) = class.estimation_error() {
            if error > ESTIMATION_ERROR_MAX {
                issues.push(format!(
                    "stream class {} estimation error {error:.2} exceeds \
                     {ESTIMATION_ERROR_MAX} (predicted {} vs actual {} rounds) — recalibrate \
                     the cost model or regenerate the artifacts",
                    class.class, class.predicted_rounds, class.actual_rounds
                ));
            }
        }
    }
    let cache = &stream.report.cache;
    if let Some(error) = bcc_core::wfq::symmetric_ratio_error(
        cache.rebuild_predicted_rounds,
        cache.rebuild_actual_rounds,
    ) {
        if error > ESTIMATION_ERROR_MAX {
            issues.push(format!(
                "stream cache rebuild estimation error {error:.2} exceeds \
                 {ESTIMATION_ERROR_MAX} (predicted {} vs actual {} rounds)",
                cache.rebuild_predicted_rounds, cache.rebuild_actual_rounds
            ));
        }
    }
    issues
}

/// A one-line human-readable summary of the cost model's estimation error
/// in a stream trajectory — printed by the bench CI job so the calibration
/// quality shows up in the job log without digging through
/// `BENCH_stream.json`.
pub fn estimation_summary(stream: &StreamTrajectory) -> String {
    let mut parts: Vec<String> = stream
        .report
        .scheduler
        .classes
        .iter()
        .filter(|c| c.predicted_rounds > 0 || c.actual_rounds > 0)
        .map(|c| {
            let error = c
                .estimation_error()
                .map(|e| format!("{:.1}%", e * 100.0))
                .unwrap_or_else(|| "n/a".to_string());
            format!(
                "{} pred={} act={} err={}",
                c.class, c.predicted_rounds, c.actual_rounds, error
            )
        })
        .collect();
    let cache = &stream.report.cache;
    parts.push(format!(
        "cache-rebuild pred={} act={}",
        cache.rebuild_predicted_rounds, cache.rebuild_actual_rounds
    ));
    // The per-bucket coefficients the replayed calibration settled on:
    // `kind[b<bucket>]=<rounds per basis unit>x<observations>`. This is the
    // calibration state a CI log reader needs to judge whether a class
    // error above comes from a cold bucket (prior-driven) or a drifting
    // measured rate.
    if !stream.report.calibration.is_empty() {
        let cells: Vec<String> = stream
            .report
            .calibration
            .iter()
            .map(|c| {
                let rate = c.actual_rounds as f64 / c.basis_units.max(1) as f64;
                format!("{}[b{}]={rate:.2}r/u x{}", c.kind, c.bucket, c.observations)
            })
            .collect();
        parts.push(format!("calibration {}", cells.join(" ")));
    }
    format!("stream estimation error: {}", parts.join("; "))
}

/// The telemetry sanity gate of `--check-trend`: runs the committed smoke
/// scenario with lifecycle tracing and reconciles the exported trace against
/// the scheduler's own accounting. Two identities must hold exactly:
///
/// * one `dispatched` trace event per WFQ dispatch — the trace's
///   [`TraceEvent::Dispatched`] count equals the sum of the scheduler
///   classes' `dispatched` counters;
/// * one `solve-end` trace event per completed request — the
///   [`TraceEvent::SolveEnd`] count equals the trajectory's `completed`
///   total.
///
/// Both runs are deterministic under the virtual clock, so any slack would
/// only hide dropped or double-fired instrumentation points.
///
/// # Errors
///
/// Propagates filesystem/parse errors for a missing or malformed
/// `scenarios/smoke.json`.
pub fn telemetry_issues(root: &Path) -> io::Result<Vec<String>> {
    let path = root.join("scenarios").join("smoke.json");
    let scenario = crate::load::read_scenario(&path)?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (trajectory, records, stats) =
        crate::load::run_scenario_traced(&scenario, workers).map_err(|e| parse_error(&path, e))?;

    let mut issues = Vec::new();
    let dispatched_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Dispatched))
        .count() as u64;
    let dispatched_scheduler: u64 = stats.classes.iter().map(|c| c.dispatched).sum();
    if dispatched_events != dispatched_scheduler {
        issues.push(format!(
            "telemetry: smoke scenario trace has {dispatched_events} dispatched events but the \
             scheduler dispatched {dispatched_scheduler} requests — an instrumentation point was \
             dropped or double-fired"
        ));
    }
    let solve_end_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::SolveEnd))
        .count() as u64;
    if solve_end_events != trajectory.completed {
        issues.push(format!(
            "telemetry: smoke scenario trace has {solve_end_events} solve-end events but the \
             trajectory completed {} requests — an instrumentation point was dropped or \
             double-fired",
            trajectory.completed
        ));
    }
    Ok(issues)
}

// Reading + parsing stay separate (instead of one generic helper bounded on
// `serde::Deserialize`) so this code compiles unchanged against both the
// offline serde shim and the real crate, whose owned-deserialization bound is
// spelled `DeserializeOwned` — see shims/README.md on keeping the swap
// manifest-only.
fn read_committed(path: &Path) -> io::Result<String> {
    std::fs::read_to_string(path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: {e} (regenerate with `cargo run -p bench --release --bin expts -- --quick-json`)",
                path.display()
            ),
        )
    })
}

fn parse_error(path: &Path, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {e}", path.display()),
    )
}

/// The CI bench trend check: regenerates the quick trajectories in memory
/// (never touching the committed files) and returns the list of issues from
/// [`trend_issues`] — empty means the committed `BENCH_*.json` artifacts are
/// still representative.
///
/// # Errors
///
/// Propagates filesystem/parse errors for missing or malformed committed
/// artifacts.
pub fn check_trend(root: &Path, seed: u64, quick: bool) -> io::Result<Vec<String>> {
    let path = root.join("BENCH_pipelines.json");
    let committed_pipelines: Vec<PipelinePoint> =
        serde_json::from_str(&read_committed(&path)?).map_err(|e| parse_error(&path, e))?;
    let path = root.join("BENCH_batch.json");
    let committed_batch: BatchTrajectory =
        serde_json::from_str(&read_committed(&path)?).map_err(|e| parse_error(&path, e))?;
    let path = root.join("BENCH_stream.json");
    let committed_stream: StreamTrajectory =
        serde_json::from_str(&read_committed(&path)?).map_err(|e| parse_error(&path, e))?;
    let path = root.join("BENCH_load.json");
    let committed_load: LoadBench =
        serde_json::from_str(&read_committed(&path)?).map_err(|e| parse_error(&path, e))?;
    let fresh_pipelines = pipelines_trajectory(seed, quick);
    let fresh_batch = batch_trajectory(seed, quick);
    let fresh_stream = stream_trajectory(seed, quick);
    let fresh_load = fresh_load_bench()?;
    let mut issues = trend_issues(
        &committed_pipelines,
        &fresh_pipelines,
        &committed_batch,
        &fresh_batch,
        &committed_stream,
        &fresh_stream,
    );
    issues.extend(load_trend_issues(&committed_load, &fresh_load));
    issues.extend(estimation_issues(&fresh_stream));
    issues.extend(wall_clock_issues(
        "BENCH_pipelines.json (committed)",
        &committed_pipelines,
    ));
    issues.extend(wall_clock_issues(
        "BENCH_pipelines.json (fresh)",
        &fresh_pipelines,
    ));

    let path = root.join("BENCH_load_metrics.json");
    let committed_metrics: LoadMetricsBench =
        serde_json::from_str(&read_committed(&path)?).map_err(|e| parse_error(&path, e))?;
    let fresh_metrics = crate::load::load_metrics_bench(&fresh_load);
    if committed_metrics != fresh_metrics {
        issues.push(
            "BENCH_load_metrics.json: committed metrics snapshots differ from the fresh run — \
             regenerate the committed artifacts"
                .to_string(),
        );
    }
    issues.extend(telemetry_issues(root)?);
    Ok(issues)
}

/// The repository root (two levels above this crate's manifest), where the
/// `BENCH_*.json` artifacts live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_trajectory_covers_all_four_pipelines() {
        let points = pipelines_trajectory(7, true);
        for pipeline in ["sparsify", "laplacian", "lp", "mcmf"] {
            let of_kind: Vec<_> = points.iter().filter(|p| p.pipeline == pipeline).collect();
            assert!(!of_kind.is_empty(), "missing {pipeline} points");
            for p in of_kind {
                assert_eq!(p.schema, BENCH_SCHEMA);
                assert!(p.total_rounds > 0);
                assert_eq!(p.total_rounds, p.report.total_rounds);
                assert!(p.wall_ns > 0, "every point measures wall-clock time");
            }
        }
    }

    #[test]
    fn wall_clock_guard_accepts_measured_points_and_flags_zeroes() {
        let points = pipelines_trajectory(7, true);
        assert!(wall_clock_issues("fresh", &points).is_empty());

        let mut zeroed = points.clone();
        zeroed[0].wall_ns = 0;
        let issues = wall_clock_issues("committed", &zeroed);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("wall_ns"), "{issues:?}");

        // The trend comparison itself never gates on the magnitude: a fresh
        // run 100x slower (or faster) than the committed one passes.
        let mut slower = points.clone();
        for p in &mut slower {
            p.wall_ns *= 100;
        }
        let batch = batch_trajectory(7, true);
        let stream = stream_trajectory(7, true);
        let issues = trend_issues(&points, &slower, &batch, &batch, &stream, &stream);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn batch_trajectory_shows_the_cache_amortization() {
        let t = batch_trajectory(7, true);
        assert_eq!(t.schema, BENCH_SCHEMA);
        assert_eq!(t.cold.requests, t.warm.requests);
        assert_eq!(t.cold.failures, 0);
        assert!(t.cold.cache_misses > 0, "cold run pays preprocessing");
        assert_eq!(t.warm.cache_misses, 0, "warm run is fully cached");
        assert!(
            t.warm.total.total_rounds < t.cold.total.total_rounds,
            "the warm batch must be cheaper than the cold one"
        );
    }

    #[test]
    fn write_bench_json_round_trips_into_a_temp_dir() {
        let dir = std::env::temp_dir().join("bcc-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let written = write_bench_json(&dir, 7, true).unwrap();
        assert_eq!(written.len(), 5);
        for path in written {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains("bcc-bench/v1"), "{path:?} missing schema tag");
        }
    }

    #[test]
    fn stream_trajectory_covers_mixed_priorities_without_failures() {
        let t = stream_trajectory(7, true);
        assert_eq!(t.schema, BENCH_SCHEMA);
        assert_eq!(t.report.schema, "bcc-stream-report/v2");
        assert_eq!(t.report.failures, 0);
        assert_eq!(t.report.rejected, 0);
        assert_eq!(t.report.expired, 0, "the tracked workload has no deadlines");
        assert!(t.report.interactive > 0, "interactive traffic present");
        assert!(t.report.bulk > 0, "bulk traffic present");
        assert!(t.report.cache_hits > 0, "repeated topologies hit the cache");
        assert!(t.report.total.total_rounds > 0);
        // The WFQ scheduler counters ride along in the payload.
        assert_eq!(t.report.scheduler.policy, "wfq");
        let dispatched: u64 = t
            .report
            .scheduler
            .classes
            .iter()
            .map(|c| c.dispatched)
            .sum();
        assert_eq!(dispatched, t.report.requests);
        // The trajectory is deterministic — CI's trend check relies on it.
        assert_eq!(t.report, stream_trajectory(7, true).report);
        // The cost-model estimation error rides along: the bulk class (all
        // Laplacian traffic) charged rounds and was predicted, and the
        // cache recorded its rebuild estimation sums.
        let bulk = t
            .report
            .scheduler
            .classes
            .iter()
            .find(|c| c.class == "bulk")
            .expect("bulk class present");
        assert!(bulk.predicted_rounds > 0);
        assert!(bulk.actual_rounds > 0);
        assert!(bulk.estimation_error().is_some());
        assert!(t.report.cache.rebuild_actual_rounds > 0);
        assert_eq!(t.report.infeasible, 0);
        let summary = estimation_summary(&t);
        assert!(summary.starts_with("stream estimation error:"), "{summary}");
        assert!(summary.contains("bulk pred="), "{summary}");
        assert!(summary.contains("cache-rebuild pred="), "{summary}");
    }

    #[test]
    fn trend_check_accepts_identical_trajectories() {
        let pipelines = pipelines_trajectory(7, true);
        let batch = batch_trajectory(7, true);
        let stream = stream_trajectory(7, true);
        let issues = trend_issues(&pipelines, &pipelines, &batch, &batch, &stream, &stream);
        assert!(issues.is_empty(), "unexpected issues: {issues:?}");
    }

    #[test]
    fn trend_check_flags_schema_drift_regressions_and_missing_points() {
        let pipelines = pipelines_trajectory(7, true);
        let batch = batch_trajectory(7, true);
        let stream = stream_trajectory(7, true);

        // >2x cost regression on one pipeline point.
        let mut slow = pipelines.clone();
        slow[0].report.total_rounds = pipelines[0].report.total_rounds * 2 + 1;
        let issues = trend_issues(&pipelines, &slow, &batch, &batch, &stream, &stream);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("total_rounds"), "{issues:?}");

        // A trajectory point disappearing from the fresh run.
        let missing = pipelines[1..].to_vec();
        let issues = trend_issues(&pipelines, &missing, &batch, &batch, &stream, &stream);
        assert!(
            issues.iter().any(|i| i.contains("disappeared")),
            "{issues:?}"
        );

        // Schema drift on the stream artifact.
        let mut drifted = stream.clone();
        drifted.schema = "bcc-bench/v2".to_string();
        let issues = trend_issues(&pipelines, &pipelines, &batch, &batch, &stream, &drifted);
        assert!(
            issues.iter().any(|i| i.contains("schema drift")),
            "{issues:?}"
        );

        // New stream failures count as a regression even from zero.
        let mut failing = stream.clone();
        failing.report.failures = 1;
        let issues = trend_issues(&pipelines, &pipelines, &batch, &batch, &stream, &failing);
        assert!(issues.iter().any(|i| i.contains("failures")), "{issues:?}");

        // So does a deadline expiration appearing in the tracked workload.
        let mut expiring = stream.clone();
        expiring.report.expired = 2;
        let issues = trend_issues(&pipelines, &pipelines, &batch, &batch, &stream, &expiring);
        assert!(issues.iter().any(|i| i.contains("expired")), "{issues:?}");

        // An infeasible-deadline rejection appearing likewise.
        let mut infeasible = stream.clone();
        infeasible.report.infeasible = 1;
        let issues = trend_issues(&pipelines, &pipelines, &batch, &batch, &stream, &infeasible);
        assert!(
            issues.iter().any(|i| i.contains("infeasible")),
            "{issues:?}"
        );

        // The estimation-error sums are guarded per class: a >2x drift in a
        // class's predicted rounds is flagged.
        let mut drifted_model = stream.clone();
        for class in &mut drifted_model.report.scheduler.classes {
            class.predicted_rounds = class.predicted_rounds * 3 + 1;
        }
        let issues = trend_issues(
            &pipelines,
            &pipelines,
            &batch,
            &batch,
            &stream,
            &drifted_model,
        );
        assert!(
            issues.iter().any(|i| i.contains("predicted_rounds")),
            "{issues:?}"
        );

        // Growth within the 2x budget passes.
        let mut within = pipelines.clone();
        within[0].report.total_rounds = pipelines[0].report.total_rounds * 2;
        let issues = trend_issues(&pipelines, &within, &batch, &batch, &stream, &stream);
        assert!(issues.is_empty(), "{issues:?}");
    }

    fn sample_load() -> LoadBench {
        use crate::load::{LoadClassPoint, LoadTrajectory, RampProbe, RampResult};
        use bcc_core::LatencyPercentiles;
        LoadBench {
            schema: BENCH_SCHEMA.to_string(),
            scenarios: vec![LoadTrajectory {
                schema: BENCH_SCHEMA.to_string(),
                scenario: "sample".to_string(),
                seed: 7,
                duration_ms: 100,
                offered: 50,
                completed: 44,
                rejected: 2,
                expired: 3,
                infeasible: 1,
                cache_hits: 5,
                cache_misses: 2,
                total_rounds: 9000,
                peak_workers: 2,
                classes: vec![LoadClassPoint {
                    class: "interactive".to_string(),
                    offered: 50,
                    completed: 44,
                    rejected: 2,
                    expired: 3,
                    infeasible: 1,
                    queue_wait: LatencyPercentiles::from_ns_samples(vec![100, 200, 900]),
                    end_to_end: LatencyPercentiles::from_ns_samples(vec![400, 600, 1800]),
                }],
                ramp: Some(RampResult {
                    max_sustainable_rps: 120.0,
                    probes: vec![RampProbe {
                        rps: 120.0,
                        offered: 50,
                        loss_fraction: 0.0,
                        p99_e2e_ms: 1.2,
                        sustainable: true,
                    }],
                }),
            }],
        }
    }

    #[test]
    fn load_trend_check_accepts_identical_runs_and_flags_regressions() {
        let committed = sample_load();
        assert!(load_trend_issues(&committed, &committed).is_empty());

        // A >2x latency percentile regression is flagged.
        let mut slow = committed.clone();
        slow.scenarios[0].classes[0].end_to_end.p99_ns *= 3;
        let issues = load_trend_issues(&committed, &slow);
        assert!(issues.iter().any(|i| i.contains("p99_ns")), "{issues:?}");

        // Halving the ramp's sustainable rate is flagged.
        let mut collapsed = committed.clone();
        collapsed.scenarios[0]
            .ramp
            .as_mut()
            .unwrap()
            .max_sustainable_rps = 50.0;
        let issues = load_trend_issues(&committed, &collapsed);
        assert!(
            issues.iter().any(|i| i.contains("max sustainable")),
            "{issues:?}"
        );

        // New loss (expired jumping >2x) is flagged.
        let mut lossy = committed.clone();
        lossy.scenarios[0].expired = committed.scenarios[0].expired * 2 + 1;
        let issues = load_trend_issues(&committed, &lossy);
        assert!(issues.iter().any(|i| i.contains("expired")), "{issues:?}");

        // Losing half the throughput is flagged even though lower counts
        // never trip the 2x growth rule.
        let mut starved = committed.clone();
        starved.scenarios[0].completed = committed.scenarios[0].completed / 2 - 1;
        let issues = load_trend_issues(&committed, &starved);
        assert!(
            issues.iter().any(|i| i.contains("less than half")),
            "{issues:?}"
        );

        // A scenario disappearing from the fresh run is flagged.
        let empty = LoadBench {
            schema: BENCH_SCHEMA.to_string(),
            scenarios: Vec::new(),
        };
        let issues = load_trend_issues(&committed, &empty);
        assert!(
            issues.iter().any(|i| i.contains("disappeared")),
            "{issues:?}"
        );
    }

    #[test]
    fn estimation_guard_passes_today_and_flags_an_overcharging_model() {
        // Seed 2022 is the tracked trajectory — the one the committed
        // artifacts record and CI's trend gate regenerates. The LP-family
        // priors are calibrated against it (a one-shot random MCMF instance
        // cannot be priced within 1.5x at every seed from a prior alone;
        // after one observation the size-bucketed calibration takes over).
        let stream = stream_trajectory(2022, true);
        let issues = estimation_issues(&stream);
        assert!(issues.is_empty(), "{issues:?}");

        // A model drifting into >1.5x over-charging turns the check red.
        let mut drifted = stream.clone();
        for class in &mut drifted.report.scheduler.classes {
            if class.actual_rounds > 0 {
                class.predicted_rounds = class.actual_rounds * 4;
            }
        }
        let issues = estimation_issues(&drifted);
        assert!(
            issues.iter().any(|i| i.contains("estimation error")),
            "{issues:?}"
        );
    }

    #[test]
    fn a_ten_thousand_x_under_prediction_trips_the_guard() {
        // Regression: the old `|p − a| / a` metric saturated at 1.0 for any
        // under-prediction, so exactly this shape — the interactive class's
        // 10,000x LP blind spot — passed a 2.0 bound forever. The symmetric
        // ratio metric scores it ≈9999 and the guard fires.
        let mut stream = stream_trajectory(2022, true);
        for class in &mut stream.report.scheduler.classes {
            if class.class == "interactive" {
                class.actual_rounds = 10_000;
                class.predicted_rounds = 1;
            }
        }
        let issues = estimation_issues(&stream);
        assert!(
            issues
                .iter()
                .any(|i| i.contains("interactive") && i.contains("estimation error")),
            "{issues:?}"
        );

        // The same blind spot existed on the cache's rebuild comparison.
        let mut stream = stream_trajectory(2022, true);
        stream.report.cache.rebuild_predicted_rounds = 1;
        stream.report.cache.rebuild_actual_rounds = 10_000;
        let issues = estimation_issues(&stream);
        assert!(
            issues.iter().any(|i| i.contains("cache rebuild")),
            "{issues:?}"
        );
    }
}
