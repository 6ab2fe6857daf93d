//! Streaming service layer: incremental submission, weighted fair queueing,
//! per-request deadlines and bounded backpressure over the paper's four
//! pipelines.
//!
//! A [`StreamEngine`] is a long-lived service: callers submit [`Request`]s
//! **one at a time** while earlier submissions are still in flight, tag each
//! with a scheduling class ([`Priority`]), and collect results through
//! [`Ticket`] handles ([`StreamClient::poll`] / [`StreamClient::wait`]) as
//! they complete — possibly far out of submission order. A closed batch is
//! one [`StreamEngine::serve`] scope that submits every request and then
//! waits on the tickets in order.
//!
//! # Scheduling: weighted fair queueing
//!
//! Dispatch order is decided by a **weighted fair queueing (WFQ)** scheduler
//! over an open set of classes. The two built-in classes
//! ([`Priority::Interactive`], default weight 4, and [`Priority::Bulk`],
//! default weight 1) can be joined by up to 256 caller-defined classes
//! ([`Priority::custom`]); per-class weights are configured with
//! [`StreamEngineBuilder::class_weight`]. Every admitted job receives a
//! virtual finish time `max(V, F_class) + 1/weight` (the classic
//! virtual-clock tag with unit-size jobs) and workers always dispatch the
//! queued job with the smallest tag — so a class with weight `w` receives a
//! `w`-proportional share of dispatches and **no class can be starved**: a
//! flood of interactive traffic merely advances the interactive finish tags
//! past the bulk ones, unlike the strict two-class priority queue this
//! scheduler replaced.
//!
//! A class may additionally carry a **token-bucket rate limit**
//! ([`StreamEngineBuilder::class_rate_limit`]): at most
//! [`RateLimit::tokens`] of its jobs are dispatched per scheduling window of
//! [`RateLimit::window`] consecutive dispatches. The limiter is
//! *work-conserving* — it shapes the order among competing classes but never
//! idles a worker: when every queued class is throttled, the smallest-tag
//! job runs anyway. Per-class submission/dispatch/expiry/throttle counters
//! are surfaced in [`StreamReport::scheduler`].
//!
//! # Size-aware tags: the unified cost model
//!
//! The virtual-clock tags are **size-aware**: instead of one unit per job,
//! a job charges its *estimated rounds* as predicted by the engine's shared
//! [`crate::cost::CostModel`] — `max(V, F_class) + cost / weight` — so a
//! giant LP consumes proportionally more of its class's share than a tiny
//! solve, which is what "weighted fair" should mean under the paper's
//! round-complexity cost model. The model calibrates itself online from
//! completed requests (see [`crate::cost`]); its predictions steer dispatch
//! order, deadline admission and the elastic pool, and per-class
//! predicted-vs-actual sums are reported in [`ClassStats::predicted_rounds`]
//! / [`ClassStats::actual_rounds`] (computed by a deterministic
//! submission-order replay of the calibration loop, so the report never
//! depends on scheduling).
//!
//! # Deadlines
//!
//! [`StreamClient::submit_with_deadline`] attaches a deadline to one
//! submission. Admission is **deadline-aware**: when the class's expected
//! wait — queued backlog cost divided by the class's weight share, converted
//! to wall-clock through the model's calibrated service rate
//! ([`WfqQueue::infeasible_wait`], the rule the load simulator applies too)
//! — already exceeds the deadline, the submission is rejected *at submit
//! time* with the typed [`Error::DeadlineInfeasible`] (counted in
//! [`ClassStats::infeasible`]; like [`Error::Overloaded`] rejections it
//! consumes no submission index). An engine that has never completed a
//! request has no calibrated service rate and admits everything — an idle
//! engine never calls a deadline infeasible.
//!
//! A request that was admitted but is **still queued** when its deadline
//! passes is never dispatched: it completes with the typed
//! [`Error::DeadlineExceeded`] instead (and counts into
//! [`ClassStats::expired`]). Work that was already dispatched always runs to
//! completion — a deadline bounds queueing delay, it never cancels running
//! work. Expired requests touch neither a worker session nor the Laplacian
//! cache and are metered with an empty [`RoundReport`].
//!
//! # The elastic worker pool
//!
//! The pool that serves the queue can be **elastic**
//! ([`StreamEngineBuilder::elastic_workers`]): the engine spawns
//! `max` worker threads but only a *target* number of them dispatch at any
//! moment; the rest park on the queue's condvar. The target is resized
//! between the configured bounds from the queue's **backlog cost ÷
//! calibrated service rate** ([`WfqQueue::desired_workers`]): when the
//! estimated wall-clock drain time of the queued rounds exceeds a 10 ms
//! horizon, workers unpark *before*
//! queued deadlines become infeasible; when the queue empties, the target
//! falls back to `min` and idle workers park again. While the service rate
//! is uncalibrated the pool falls back to one worker per queued job
//! (clamped to the bounds) — growth must not wait on a model that has
//! never observed a completion. [`StreamEngineBuilder::workers`] pins
//! `min = max` (a fixed pool, the previous behaviour and the default).
//! Pool resizing is timing-dependent, so its counters surface in
//! [`StreamOutput::pool`] — never in the deterministic [`StreamReport`] —
//! and bit-identity of results holds across any bounds and resize timing,
//! because per-submission seeds depend only on submission indices.
//!
//! # Determinism contract
//!
//! Scheduling never leaks into results. A submission's seed is a pure
//! function of the engine's master seed and its **submission index**
//! ([`StreamEngine::request_seed`], a splitmix64 derivation), and every
//! Laplacian solve runs on a prepared solver built at the master seed
//! alone, via the shared bounded cache of [`crate::cache`]. Concretely, a
//! serve scope is bit-identical to this sequential loop over its admitted
//! submissions:
//!
//! ```text
//! for (i, request) in submissions.iter().enumerate() {
//!     match request {
//!         // sparsify / lp / min-cost max-flow:
//!         _ => Session::builder().model(model).seed(engine.request_seed(i))
//!             .epsilon(epsilon).build().serve(request),
//!         // laplacian solve: one prepared handle per distinct graph,
//!         // preprocessed at the master seed, solves in index order:
//!         Laplacian { graph, b, .. } => prepared_for(graph).solve(b),
//!     }
//! }
//! ```
//!
//! It holds for **any** worker count, class/weight vector, rate limit, queue
//! capacity, cost-model configuration (whatever the model predicts —
//! including adversarial zero or enormous estimates) and
//! submission/collection interleaving — WFQ may only reorder *completion*,
//! never change a per-submission seed — and cache eviction only re-pays
//! preprocessing rounds, it never changes a result. Deadlines are the one
//! deliberate exception: whether a deadline expires (or is rejected as
//! infeasible at admission) depends on wall-clock scheduling, so only
//! submissions without (or with generous) deadlines are covered by the
//! bit-identity contract. `tests/stream.rs` enforces all of this.
//!
//! # Clocks and latency
//!
//! Every time-dependent decision — anchoring deadlines, sweeping expired
//! jobs, timestamping submissions, measuring the wall-clock service time
//! that calibrates deadline admission — reads the engine's injectable
//! [`Clock`] ([`StreamEngineBuilder::clock`], default
//! [`crate::clock::SystemClock`]). Injecting a
//! [`crate::clock::VirtualClock`] makes all of it deterministic: a frozen
//! virtual clock never expires a deadline and reports every latency sample
//! as exactly zero. Per-ticket timestamps are folded into per-class
//! queue-wait and end-to-end percentiles in [`StreamOutput::latency`]
//! (expired submissions are excluded — they never dispatched).
//!
//! # Shutdown and drain
//!
//! [`StreamEngine::serve`] scopes the worker pool around a closure. When the
//! closure returns, the engine **drains**: no new submissions are admitted,
//! every already-admitted request still executes (or expires, if its
//! deadline passes while it waits), and results the closure never collected
//! come back in [`StreamOutput::uncollected`]. The aggregated
//! [`StreamReport`] always covers *every* admitted submission.
//!
//! # One slot per submission
//!
//! A serve scope keeps what it knows about each admitted submission in one
//! slot, at the submission's index: admission records the request's kind,
//! class, fingerprint and cost profile, and the worker that runs it (or the
//! expiry sweep) records how it ended. Results wait in a table of their
//! own until a ticket collects them, so a ticket whose slot is complete and
//! whose result is gone was collected. After the drain, one pass over the
//! slots in index order folds them into the [`StreamReport`], the latency
//! percentiles and the calibration replay, which is why none of them
//! depends on completion order.
//!
//! # Example
//!
//! ```
//! use bcc_core::stream::{Priority, RateLimit, Request, StreamEngine};
//! use bcc_core::graph::generators;
//!
//! let grid = generators::grid(4, 4);
//! let mut b = vec![0.0; grid.n()];
//! b[0] = 1.0;
//! b[15] = -1.0;
//!
//! let mut engine = StreamEngine::builder()
//!     .seed(2022)
//!     .workers(2)
//!     .class_weight(Priority::Bulk, 2)
//!     .class_rate_limit(Priority::Bulk, RateLimit::new(1, 4))
//!     .build();
//! let output = engine.serve(|client| {
//!     let fast = client
//!         .submit(Request::laplacian(grid.clone(), b.clone()), Priority::Interactive)
//!         .unwrap();
//!     let slow = client
//!         .submit(Request::sparsify(generators::complete(12), 0.5), Priority::Bulk)
//!         .unwrap();
//!     // Results are collected as they finish, in any order.
//!     let solve = client.wait(fast).unwrap();
//!     let sparsifier = client.wait(slow).unwrap();
//!     (solve, sparsifier)
//! });
//! assert_eq!(output.report.requests, 2);
//! assert_eq!(output.report.failures, 0);
//! assert!(output.uncollected.is_empty());
//! ```

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bcc_graph::{fingerprint, GraphFingerprint};
use bcc_laplacian::ScratchArena;
use bcc_runtime::{ModelConfig, RoundReport};
use serde::{Deserialize, Serialize};

use crate::cache::{preprocessing_rounds, CacheStats, LaplacianCache};
use crate::clock::{Clock, SystemClock};
use crate::config::{ClassEntry, ConfigError, EngineConfig};
use crate::cost::{CalibrationCell, CostDims, CostKind, CostModel};
use crate::error::Error;
use crate::latency::{ClassLatency, LatencyPercentiles, LatencyReport};
use crate::session::{Outcome, Session};
use crate::telemetry::{EngineCounters, MetricsSnapshot, TelemetrySink, TraceEvent, NO_REQUEST};
use crate::wfq::{WfqJob, WfqQueue};

pub use crate::serve::{PreprocessingCost, Request, RequestCost, Response};
pub use crate::wfq::{ClassStats, Priority, RateLimit, SchedulerStats};

/// What [`StreamClient::submit`] does when the bounded admission queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until a queue slot frees (the default —
    /// no submission is ever lost).
    Block,
    /// Fail fast with [`Error::Overloaded`], leaving the caller to retry or
    /// shed load.
    Reject,
}

impl BackpressurePolicy {
    /// The policy name used in serialized configs: `"block"` or `"reject"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::Reject => "reject",
        }
    }
}

impl std::fmt::Display for BackpressurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Serializes as the policy name string ([`BackpressurePolicy::as_str`]).
impl Serialize for BackpressurePolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

/// Deserializes from the policy name: `"block"` or `"reject"`.
impl Deserialize for BackpressurePolicy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(name) => match name.as_str() {
                "block" => Ok(BackpressurePolicy::Block),
                "reject" => Ok(BackpressurePolicy::Reject),
                other => Err(serde::Error::custom(format!(
                    "unknown backpressure policy `{other}` (expected `block` or `reject`)"
                ))),
            },
            _ => Err(serde::Error::custom(
                "expected a backpressure-policy string",
            )),
        }
    }
}

/// Completion handle of one admitted submission, returned by
/// [`StreamClient::submit`]. Redeem it with [`StreamClient::poll`] or
/// [`StreamClient::wait`]; tickets never expire while the serve scope runs,
/// and unredeemed tickets surface in [`StreamOutput::uncollected`].
///
/// A ticket is bound to the serve scope that issued it: redeeming a ticket
/// kept from an earlier [`StreamEngine::serve`] call panics instead of
/// silently returning a later scope's result for the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    index: u64,
    priority: Priority,
    /// Serial number of the serve scope that issued this ticket.
    scope: u64,
}

impl Ticket {
    /// The submission index — the request's position in admission order,
    /// and the index its seed is derived from
    /// ([`StreamEngine::request_seed`]).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The scheduling class the request was submitted under.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// The version tag written into [`StreamReport::schema`].
pub const STREAM_REPORT_SCHEMA: &str = "bcc-stream-report/v2";

/// Aggregated, serializable accounting of one [`StreamEngine::serve`] scope
/// — the payload of the `BENCH_stream.json` and `BENCH_batch.json`
/// trajectories: per-submission [`RequestCost`]s in submission order,
/// once-per-fingerprint [`PreprocessingCost`]s, and the scheduler, cache
/// and calibration counters of the scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Schema tag consumers can dispatch on (`"bcc-stream-report/v2"`).
    pub schema: String,
    /// Number of admitted submissions.
    pub requests: u64,
    /// Number of failed submissions (typed pipeline errors plus deadline
    /// expirations).
    pub failures: u64,
    /// Submissions admitted under [`Priority::Interactive`].
    pub interactive: u64,
    /// Submissions admitted under [`Priority::Bulk`].
    pub bulk: u64,
    /// Submissions rejected with [`Error::Overloaded`] (never admitted; they
    /// consume no submission index and appear nowhere else in the report).
    pub rejected: u64,
    /// Submissions that expired in the queue with
    /// [`Error::DeadlineExceeded`] (also counted in
    /// [`StreamReport::failures`] and per class in
    /// [`ClassStats::expired`]).
    pub expired: u64,
    /// Submissions rejected at admission with
    /// [`Error::DeadlineInfeasible`] — their deadline was already infeasible
    /// given the queued backlog and the calibrated service rate. Like
    /// [`StreamReport::rejected`] they consume no submission index and
    /// appear nowhere else in the report (per class in
    /// [`ClassStats::infeasible`]).
    pub infeasible: u64,
    /// Per-class WFQ scheduler counters of this serve scope.
    pub scheduler: SchedulerStats,
    /// Laplacian submissions that reused a prepared solver (the first
    /// submission of a fingerprint not cached before the scope counts as
    /// the miss, every other one as a hit).
    pub cache_hits: u64,
    /// Laplacian submissions that paid preprocessing.
    pub cache_misses: u64,
    /// Cache-level hit/miss/eviction counters over the engine's lifetime,
    /// as of the end of this serve scope. Under capacity pressure with
    /// concurrent workers these can depend on scheduling (rebuilds after
    /// eviction). With an **unbounded** cache (the default) everything else
    /// in this report is scheduling-independent too (deadline and throttle
    /// counters aside); under a capacity bound, an eviction racing the first
    /// submission of a previously cached fingerprint can additionally flip
    /// that fingerprint's `cached` / hit classification (and with it the
    /// charged preprocessing in [`StreamReport::total`]) — *results* stay
    /// bit-identical regardless.
    pub cache: CacheStats,
    /// Total accounted communication cost of the scope: every successful
    /// submission's report plus each distinct *new* fingerprint's
    /// preprocessing charged exactly once, folded in submission order (so
    /// the total is independent of completion order).
    pub total: RoundReport,
    /// Per-distinct-fingerprint preprocessing costs, in first-submission
    /// order.
    pub preprocessing: Vec<PreprocessingCost>,
    /// Per-submission costs, in submission order.
    pub per_request: Vec<RequestCost>,
    /// The cost model's calibration state over this scope's workload — one
    /// entry per observed `(kind, size-bucket)` cell, in stable order.
    /// Snapshotted from the same deterministic submission-order replay that
    /// fills [`ClassStats::predicted_rounds`], so it is a pure function of
    /// the admitted workload (the live model's cell sums may differ only in
    /// which scope's completions they span, never in their totals).
    pub calibration: Vec<CalibrationCell>,
}

/// Everything one [`StreamEngine::serve`] scope returns.
#[derive(Debug)]
pub struct StreamOutput<T> {
    /// The closure's return value.
    pub value: T,
    /// Results of admitted submissions the closure never polled or waited
    /// for, in submission order — the engine drains them before shutting
    /// down rather than dropping them.
    pub uncollected: Vec<(u64, Result<Outcome<Response>, Error>)>,
    /// Aggregated accounting of every admitted submission.
    pub report: StreamReport,
    /// Per-class queue-wait and end-to-end latency percentiles of this
    /// scope, timestamped against the engine's [`Clock`]. Expired
    /// submissions are excluded (they never dispatched); under the default
    /// [`SystemClock`] the figures are wall-clock and timing-dependent,
    /// under a [`crate::clock::VirtualClock`] they are a pure function of
    /// how the test drove the clock.
    pub latency: LatencyReport,
    /// Worker-pool sizing counters of this scope. Resize decisions race
    /// completions, so these are timing-dependent — which is why they live
    /// here and not in the deterministic [`StreamReport`].
    pub pool: PoolStats,
}

/// Elastic worker-pool counters of one serve scope (see the [module
/// docs](self) on the pool). With a fixed pool (`min == max`, the default)
/// every field is trivial: the target never moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The configured lower worker bound.
    pub min_workers: usize,
    /// The configured upper worker bound (threads actually spawned).
    pub max_workers: usize,
    /// Times the target grew (workers unparked to absorb backlog).
    pub grows: u64,
    /// Times the target shrank (workers parked as the queue drained).
    pub shrinks: u64,
    /// The largest target reached during the scope.
    pub peak_workers: usize,
}

/// Builder of a [`StreamEngine`].
///
/// Every deterministic knob lives in one serde-roundtrippable
/// [`EngineConfig`] the builder holds internally — the fluent setters are
/// thin wrappers over its fields, [`StreamEngineBuilder::from_config`]
/// starts from a validated config, and [`StreamEngineBuilder::to_config`]
/// extracts the current one (to persist, or to hand to the `bcc-served`
/// daemon). Only the three run-time handles — [`CostModel`],
/// [`Clock`], [`TelemetrySink`] — stay outside the config.
#[derive(Debug, Clone)]
pub struct StreamEngineBuilder {
    /// All deterministic knobs, shared schema-for-schema with the serving
    /// daemon.
    config: EngineConfig,
    /// The cost model the engine starts from; `None` builds a default one.
    cost_model: Option<Arc<CostModel>>,
    /// The time source of the engine; `None` builds a [`SystemClock`].
    clock: Option<Arc<dyn Clock>>,
    /// The engine's telemetry sink; disabled by default.
    telemetry: TelemetrySink,
}

impl Default for StreamEngineBuilder {
    fn default() -> Self {
        StreamEngineBuilder {
            config: EngineConfig::default(),
            cost_model: None,
            clock: None,
            telemetry: TelemetrySink::disabled(),
        }
    }
}

impl StreamEngineBuilder {
    /// Starts a builder from a validated [`EngineConfig`] — the exact
    /// schema `bcc-served --config` reads from disk.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`EngineConfig::validate`];
    /// unlike the fluent setters (which clamp), a config read from a file
    /// fails loudly instead of being silently repaired.
    pub fn from_config(config: EngineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(StreamEngineBuilder {
            config,
            ..StreamEngineBuilder::default()
        })
    }

    /// The builder's current [`EngineConfig`] — round-trips through
    /// [`StreamEngineBuilder::from_config`] unchanged.
    pub fn to_config(&self) -> EngineConfig {
        self.config.clone()
    }

    /// Sets the clique model configuration of the worker sessions.
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the master seed per-submission seeds are derived from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the default solve accuracy of the worker sessions.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets a **fixed** worker-thread count (default: the machine's
    /// available parallelism, capped at 8). A count of 1 serves submissions
    /// strictly one at a time — useful to observe the determinism contract
    /// directly. Clears any [`StreamEngineBuilder::elastic_workers`]
    /// bounds.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = Some(workers.max(1));
        self.config.max_workers = None;
        self
    }

    /// Makes the worker pool **elastic** between `min` and `max` threads
    /// (both floored at 1; `max` floored at `min`). The engine spawns `max`
    /// threads but parks all beyond the current *target*, which is resized
    /// from the queued backlog cost ÷ the cost model's calibrated service
    /// rate — see the [module docs](self). Results stay bit-identical to
    /// any fixed pool; only latency (and the timing-dependent
    /// [`StreamOutput::pool`] counters) can differ.
    pub fn elastic_workers(mut self, min: usize, max: usize) -> Self {
        let min = min.max(1);
        self.config.workers = Some(min);
        self.config.max_workers = Some(max.max(min));
        self
    }

    /// Bounds the admission queue to `capacity` waiting submissions
    /// (default 64, minimum 1). What happens beyond the bound is decided by
    /// [`StreamEngineBuilder::backpressure`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the overflow behaviour of the bounded admission queue (default
    /// [`BackpressurePolicy::Block`]).
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Bounds the prepared-Laplacian cache to at most `capacity` entries
    /// (default: unbounded, minimum 1), evicting the least recently used
    /// entry ([`crate::cache::Lru`]). Eviction re-pays preprocessing on the
    /// next request for the evicted topology but never changes results.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = Some(capacity.max(1));
        self
    }

    /// Replaces the engine's [`CostModel`] (default: a fresh model with the
    /// standard priors). Useful to carry calibration across engines, or to
    /// inject adversarial priors in tests — any model, however wrong, may
    /// only affect latency, never results.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(Arc::new(model));
        self
    }

    /// Attaches a live [`TelemetrySink`] (default: a disabled sink, which
    /// reduces every instrumentation point to a single `Option` check).
    /// An **enabled** sink records lock-free engine counters, gauges and
    /// duration histograms into its [`crate::telemetry::MetricsRegistry`]
    /// and per-request lifecycle [`TraceEvent`]s timestamped on the
    /// engine's [`Clock`] — so traces taken under a
    /// [`crate::clock::VirtualClock`] are deterministic. Snapshot live
    /// metrics with [`StreamClient::telemetry_snapshot`] (or through a
    /// retained clone of the sink, which shares the same registry and
    /// tracer). Telemetry is strictly write-only: nothing it records feeds
    /// back into scheduling or results, so the determinism contract is
    /// unchanged with tracing on or off.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Injects the engine's time source (default: a fresh [`SystemClock`]).
    /// Every deadline anchor, expiry sweep, latency timestamp and
    /// service-rate observation reads this clock; injecting a
    /// [`crate::clock::VirtualClock`] makes them all deterministic (see
    /// [`crate::clock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Sets the WFQ weight of one scheduling class (clamped to at least 1).
    /// Defaults: [`Priority::Interactive`] 4, [`Priority::Bulk`] 1, custom
    /// classes 1. A class with weight `w` receives a `w`-proportional share
    /// of dispatches under contention.
    pub fn class_weight(mut self, class: Priority, weight: u32) -> Self {
        self.config.class_entry(class).weight = weight.max(1);
        self
    }

    /// Attaches a token-bucket [`RateLimit`] to one scheduling class
    /// (default: none). The limiter shapes dispatch order among competing
    /// classes and is work-conserving.
    pub fn class_rate_limit(mut self, class: Priority, limit: RateLimit) -> Self {
        self.config.class_entry(class).rate_limit = Some(limit.clamped());
        self
    }

    /// Copies model, seed and epsilon from an existing [`Session`], so the
    /// engine serves exactly what that session would serve.
    pub fn from_session(self, session: &Session) -> Self {
        self.model(session.model())
            .seed(session.seed())
            .epsilon(session.epsilon())
    }

    /// Finishes the builder.
    pub fn build(mut self) -> StreamEngine {
        let min_workers = self.config.workers.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(4)
        });
        let max_workers = self
            .config
            .max_workers
            .unwrap_or(min_workers)
            .max(min_workers);
        // Normalize: both built-in classes always exist, order is the
        // deterministic class order of the scheduler stats.
        self.config.class_entry(Priority::Interactive);
        self.config.class_entry(Priority::Bulk);
        let mut classes = self.config.classes;
        for entry in &mut classes {
            entry.weight = entry.weight.max(1);
            entry.rate_limit = entry.rate_limit.map(RateLimit::clamped);
        }
        classes.sort_by_key(|entry| entry.class.key());
        let cost = self
            .cost_model
            .unwrap_or_else(|| Arc::new(CostModel::new()));
        StreamEngine {
            model: self.config.model,
            seed: self.config.seed,
            epsilon: self.config.epsilon,
            cache: LaplacianCache::new(
                self.config.cache_capacity,
                Arc::clone(&cost),
                &self.telemetry,
            ),
            cost,
            telemetry: self.telemetry,
            min_workers,
            max_workers,
            queue_capacity: self.config.queue_capacity,
            backpressure: self.config.backpressure,
            clock: self.clock.unwrap_or_else(|| Arc::new(SystemClock::new())),
            classes,
            report: RoundReport::default(),
            scopes: 0,
        }
    }
}

/// A long-lived streaming server for the paper's four pipelines: incremental
/// submission, weighted fair queueing over an open class set, per-request
/// deadlines, bounded backpressure, graceful drain and the shared bounded
/// Laplacian cache. See the [module documentation](self) for the scheduling
/// discipline and the determinism contract.
#[derive(Debug)]
pub struct StreamEngine {
    model: ModelConfig,
    seed: u64,
    epsilon: f64,
    cache: LaplacianCache,
    /// The unified cost model: calibrated by completions (and cache
    /// builds), consulted by the scheduler, deadline admission and the
    /// elastic pool.
    cost: Arc<CostModel>,
    /// Disabled by default, in which case every emission site is a single
    /// `Option` check. Telemetry is write-only: nothing on the result or
    /// accounting path reads it.
    telemetry: TelemetrySink,
    /// Elastic pool bounds; a fixed pool has `min_workers == max_workers`.
    min_workers: usize,
    max_workers: usize,
    queue_capacity: usize,
    backpressure: BackpressurePolicy,
    /// The engine's time source (see [`crate::clock`]).
    clock: Arc<dyn Clock>,
    /// Normalized class configuration, sorted by class key.
    classes: Vec<ClassEntry>,
    /// Cumulative cost of every serve scope.
    report: RoundReport,
    /// Serve scopes run so far; brands tickets so stale ones fail loudly.
    scopes: u64,
}

impl Default for StreamEngine {
    fn default() -> Self {
        StreamEngine::builder().build()
    }
}

impl StreamEngine {
    /// Starts a builder with laboratory defaults (BCC model, seed 2022,
    /// `ε = 1e-6`, queue capacity 64, blocking backpressure,
    /// unbounded LRU cache, interactive:bulk weights 4:1, no rate limits).
    pub fn builder() -> StreamEngineBuilder {
        StreamEngineBuilder::default()
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread count: the number of threads a serve scope spawns.
    /// For an elastic pool this is the upper bound — threads beyond the
    /// current target park instead of dispatching.
    pub fn workers(&self) -> usize {
        self.max_workers
    }

    /// The elastic pool's `(min, max)` worker bounds. Equal for a fixed
    /// pool (the default).
    pub fn worker_bounds(&self) -> (usize, usize) {
        (self.min_workers, self.max_workers)
    }

    /// The admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The configured backpressure policy.
    pub fn backpressure(&self) -> BackpressurePolicy {
        self.backpressure
    }

    /// The engine's shared cost model — calibrated by completions, consulted
    /// by the scheduler, deadline admission and the elastic pool.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The engine's telemetry sink (disabled unless one was attached with
    /// [`StreamEngineBuilder::telemetry`]). Clones share the same registry
    /// and tracer, so a caller can export metrics and traces after (or
    /// during) a serve scope from its own handle.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The WFQ weight of a class (its default if never configured).
    pub fn class_weight(&self, class: Priority) -> u32 {
        self.classes
            .iter()
            .find(|entry| entry.class == class)
            .map(|entry| entry.weight)
            .unwrap_or_else(|| class.default_weight())
    }

    /// The rate limit of a class, if one was configured.
    pub fn class_rate_limit(&self, class: Priority) -> Option<RateLimit> {
        self.classes
            .iter()
            .find(|entry| entry.class == class)
            .and_then(|entry| entry.rate_limit)
    }

    /// Number of prepared Laplacian solvers currently cached (including
    /// cached preprocessing failures). Never exceeds the configured
    /// [`StreamEngineBuilder::cache_capacity`].
    pub fn cached_graphs(&self) -> usize {
        self.cache.len()
    }

    /// Hit/miss/eviction counters of the prepared-Laplacian cache over this
    /// engine's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The configured cache capacity bound (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache.capacity()
    }

    /// Drops every cached prepared solver (counters are kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The deterministic seed of submission `index`: a splitmix64 finalizer
    /// over the master seed and the index. A sequential [`Session`] seeded
    /// with this value reproduces the submission's result bit for bit
    /// (Laplacian preprocessing uses the master seed instead — it is shared
    /// across every submission on the same graph).
    pub fn request_seed(&self, index: usize) -> u64 {
        bcc_runtime::splitmix64(
            self.seed
                .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// A fresh worker session at the given seed, mirroring the engine's
    /// configuration.
    fn worker_session(&self, seed: u64) -> Session {
        Session::builder()
            .model(self.model)
            .seed(seed)
            .epsilon(self.epsilon)
            .build()
    }

    /// Cumulative communication cost of every serve scope this engine ran
    /// (per-submission costs plus each newly built preprocessing charged
    /// exactly once per scope).
    pub fn cumulative_report(&self) -> RoundReport {
        self.report.clone()
    }

    /// Runs a serve scope: spawns the worker pool, hands the closure a
    /// [`StreamClient`] for incremental submission and collection, and on
    /// closure return drains every admitted submission before aggregating.
    /// If the closure panics, the engine still shuts the workers down
    /// cleanly, then resumes the panic. If a *worker* panics (only reachable
    /// through a bug or a legacy panicking path below the typed API), the
    /// scope is poisoned: blocked `wait`/`submit` calls panic instead of
    /// hanging, and the panic propagates out of `serve`.
    pub fn serve<T>(&mut self, f: impl FnOnce(&StreamClient<'_>) -> T) -> StreamOutput<T> {
        self.scopes += 1;
        let shared = Shared {
            engine: self,
            pool: PoolState::new(self.min_workers, self.max_workers),
            queue: Mutex::new(StreamQueue::new(&self.classes)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            done: Mutex::new(DoneState::default()),
            done_cv: Condvar::new(),
            prep: Mutex::new(HashMap::new()),
            tcounters: self.telemetry.registry().map(EngineCounters::register),
        };
        let value = thread::scope(|scope| {
            // Spawn the pool's upper bound of threads; the ones beyond the
            // current target park in `worker_loop` until a resize (or the
            // drain) wakes them — parking is how the pool "shrinks" without
            // the lifetime gymnastics of spawning into a borrowed scope.
            let shared = &shared;
            for id in 0..self.max_workers {
                scope.spawn(move || worker_loop(shared, id));
            }
            let client = StreamClient { shared };
            let value = panic::catch_unwind(AssertUnwindSafe(|| f(&client)));
            // Close the queue: workers drain what was admitted, then exit;
            // the scope joins them before we aggregate.
            shared.queue.lock().expect("stream queue").closed = true;
            shared.not_empty.notify_all();
            shared.not_full.notify_all();
            match value {
                Ok(value) => value,
                Err(payload) => panic::resume_unwind(payload),
            }
        });
        let output = shared.finish(value);
        self.report.add(&output.report.total);
        output
    }
}

/// Stream-specific payload of one queued [`WfqJob`]: the request, its
/// fingerprint (computed once at admission) and its admission timestamp.
struct JobPayload {
    request: Request,
    fp: Option<GraphFingerprint>,
    /// Clock reading at the submit call, the zero point of the job's
    /// queue-wait and end-to-end latency samples.
    admitted_at: Duration,
}

/// One admitted submission travelling from the client to a worker: the
/// generic WFQ job carrying the stream payload. The job's `cost` is its
/// estimated rounds, including a preprocessing rebuild when its fingerprint
/// was uncached at admission.
type Job = WfqJob<JobPayload>;

/// The engine's admission queue: the generic [`WfqQueue`] discipline of
/// [`crate::wfq`] plus the serve-scope lifecycle flags that guard it.
struct StreamQueue {
    q: WfqQueue<JobPayload>,
    closed: bool,
    /// Set when a worker panicked: blocked submitters must panic, not hang.
    poisoned: bool,
    /// Submissions refused with [`Error::Overloaded`].
    rejected: u64,
}

impl StreamQueue {
    fn new(classes: &[ClassEntry]) -> Self {
        StreamQueue {
            q: WfqQueue::new(classes),
            closed: false,
            poisoned: false,
            rejected: 0,
        }
    }
}

/// Everything a serve scope keeps about one admitted submission, at its
/// index in [`DoneState::slots`] (see the [module docs](self)). Its result
/// waits in [`DoneState::results`] instead, so a collected slot keeps only
/// what the report needs.
struct Slot {
    kind: &'static str,
    priority: Priority,
    fingerprint: Option<GraphFingerprint>,
    /// Whether the fingerprint was cached at admission; the first
    /// submission of a fingerprint in the scope sets
    /// [`PreprocessingCost::cached`].
    pre_cached: bool,
    /// What the calibration replay prices the request by.
    cost_kind: CostKind,
    dims: CostDims,
    stage: Stage,
}

/// How far one submission has come.
enum Stage {
    /// Queued or running.
    Open,
    /// Expired in the queue: never dispatched, so it touched neither a
    /// worker session nor the cache and has no latency samples. Holds the
    /// display form of its [`Error::DeadlineExceeded`].
    Expired(String),
    /// Ran to completion: the request's cost (zero for a failure, whose
    /// partial work is discarded, not metered), the display form of its
    /// error, and admission → dispatch and admission → completion on the
    /// engine's clock, in nanoseconds.
    Ran {
        report: RoundReport,
        error: Option<String>,
        wait_ns: u64,
        e2e_ns: u64,
    },
}

#[derive(Default)]
struct DoneState {
    /// One slot per admitted submission, indexed by submission index.
    slots: Vec<Slot>,
    /// Results not yet collected by the client.
    results: HashMap<u64, Result<Outcome<Response>, Error>>,
    /// Set when a worker panicked: blocked waiters must panic, not hang.
    poisoned: bool,
}

/// The live sizing state of one serve scope's elastic worker pool. Every
/// spawned worker has an id in `0..max`; the ones with `id >= target` park
/// on the queue condvar instead of dispatching. All counters are
/// monotone/atomic — resizes race completions by design, which is why none
/// of this reaches the deterministic [`StreamReport`].
struct PoolState {
    min: usize,
    max: usize,
    /// Number of workers currently allowed to dispatch.
    target: AtomicUsize,
    grows: AtomicU64,
    shrinks: AtomicU64,
    peak: AtomicUsize,
}

impl PoolState {
    fn new(min: usize, max: usize) -> Self {
        PoolState {
            min,
            max,
            target: AtomicUsize::new(min),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            peak: AtomicUsize::new(min),
        }
    }

    fn target(&self) -> usize {
        self.target.load(Ordering::Relaxed)
    }

    /// Moves the target to `desired` (clamped to the bounds), counting the
    /// transition. Returns `true` when the pool grew — the caller must then
    /// wake parked workers.
    fn resize_to(&self, desired: usize) -> bool {
        let clamped = desired.clamp(self.min, self.max);
        let previous = self.target.swap(clamped, Ordering::Relaxed);
        if clamped > previous {
            self.grows.fetch_add(1, Ordering::Relaxed);
            self.peak.fetch_max(clamped, Ordering::Relaxed);
            true
        } else {
            if clamped < previous {
                self.shrinks.fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            min_workers: self.min,
            max_workers: self.max,
            grows: self.grows.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            peak_workers: self.peak.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the serve scope's client and workers.
struct Shared<'e> {
    engine: &'e StreamEngine,
    /// The elastic pool's live sizing state; its current target is also the
    /// worker count expected-wait estimates at admission divide by.
    pool: PoolState,
    queue: Mutex<StreamQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    done: Mutex<DoneState>,
    done_cv: Condvar,
    /// The preprocessing cost of each fingerprint the scope's requests ran
    /// on. A report, not the cache entry: an entry the cache evicts must
    /// not stay pinned for the scope's life.
    prep: Mutex<HashMap<u128, RoundReport>>,
    /// Pre-registered engine counter/gauge/histogram handles — `Some` iff
    /// the engine's telemetry sink is enabled, so one `Option` check gates
    /// every instrumentation point.
    tcounters: Option<EngineCounters>,
}

/// One class's share of the fold in [`Shared::finish`]: its latency samples
/// and the calibration replay's predicted and actual rounds.
#[derive(Default)]
struct ClassFold {
    wait_ns: Vec<u64>,
    e2e_ns: Vec<u64>,
    predicted: u64,
    actual: u64,
}

impl Shared<'_> {
    /// Emits one trace event on the engine's clock axis. Reads the clock
    /// only when the sink is enabled, so a disabled sink costs exactly the
    /// `is_enabled` check.
    fn trace(&self, lane: usize, event: TraceEvent, request: u64, detail: u64) {
        if self.engine.telemetry.is_enabled() {
            self.engine
                .telemetry
                .trace(lane, self.engine.clock.now(), event, request, detail);
        }
    }

    /// Folds the drained scope's slots, in submission order, into its
    /// output. Per slot: the class's latency samples (expired submissions
    /// never dispatched and have none); a replay of the calibration loop on
    /// a fresh replica of the engine's model, so the per-class predicted and
    /// actual rounds are a pure function of the admitted workload (expired
    /// and failed submissions are skipped, as the live loop skips them);
    /// and the cost accounting, where the first submission of a fingerprint
    /// is its miss unless the entry predated the scope. The total adds
    /// every submission's report in submission order, then each new
    /// fingerprint's preprocessing once, in first-use order.
    fn finish<T>(self, value: T) -> StreamOutput<T> {
        let engine = self.engine;
        let pool = self.pool.stats();
        let DoneState { slots, results, .. } = self.done.into_inner().expect("completion table");
        let mut prep = self.prep.into_inner().expect("preprocessing reports");
        let queue = self.queue.into_inner().expect("stream queue");
        let mut scheduler = queue.q.stats();
        let replay = engine.cost.fresh_replica();
        let mut classes: HashMap<Priority, ClassFold> = HashMap::new();
        let mut first_use: HashMap<u128, usize> = HashMap::new();
        let mut preprocessing: Vec<PreprocessingCost> = Vec::new();
        let mut per_request = Vec::with_capacity(slots.len());
        let mut total = RoundReport::default();
        for (index, slot) in slots.into_iter().enumerate() {
            let (fingerprint, report, error) = match slot.stage {
                Stage::Open => {
                    unreachable!("the drained scope completed every admitted submission")
                }
                Stage::Expired(error) => (None, RoundReport::default(), Some(error)),
                Stage::Ran {
                    report,
                    error,
                    wait_ns,
                    e2e_ns,
                } => {
                    let class = classes.entry(slot.priority).or_default();
                    class.wait_ns.push(wait_ns);
                    class.e2e_ns.push(e2e_ns);
                    if error.is_none() {
                        class.predicted += replay.estimate(slot.cost_kind, slot.dims);
                        class.actual += report.total_rounds;
                        replay.observe(slot.cost_kind, slot.dims, report.total_rounds);
                    }
                    (slot.fingerprint, report, error)
                }
            };
            let cache_hit = fingerprint.is_some_and(|fp| {
                let key = fp.as_u128();
                let at = *first_use.entry(key).or_insert_with(|| {
                    preprocessing.push(PreprocessingCost {
                        fingerprint: fp.to_hex(),
                        requests: 0,
                        cached: slot.pre_cached,
                        report: prep
                            .remove(&key)
                            .expect("every executed fingerprint recorded its preprocessing"),
                    });
                    preprocessing.len() - 1
                });
                let entry = &mut preprocessing[at];
                entry.requests += 1;
                entry.requests > 1 || entry.cached
            });
            total.add(&report);
            per_request.push(RequestCost {
                index: index as u64,
                kind: slot.kind.to_string(),
                seed: engine.request_seed(index),
                fingerprint: fingerprint.map(|fp| fp.to_hex()),
                cache_hit,
                ok: error.is_none(),
                error,
                report,
            });
        }
        // Each new fingerprint is the one miss of its requests.
        let mut cache_misses = 0;
        for new in preprocessing.iter().filter(|p| !p.cached) {
            total.add(&new.report);
            cache_misses += 1;
        }
        let laplacian_requests: u64 = preprocessing.iter().map(|p| p.requests).sum();
        let submitted = |class| scheduler.class(class).map_or(0, |stats| stats.submitted);
        let (interactive, bulk) = (submitted(Priority::Interactive), submitted(Priority::Bulk));

        let mut latency = Vec::with_capacity(scheduler.classes.len());
        for stats in &mut scheduler.classes {
            let class = Priority::parse_label(&stats.class)
                .and_then(|priority| classes.remove(&priority))
                .unwrap_or_default();
            stats.predicted_rounds = class.predicted;
            stats.actual_rounds = class.actual;
            latency.push(ClassLatency {
                class: stats.class.clone(),
                queue_wait: LatencyPercentiles::from_ns_samples(class.wait_ns),
                end_to_end: LatencyPercentiles::from_ns_samples(class.e2e_ns),
            });
        }
        let mut uncollected: Vec<_> = results.into_iter().collect();
        uncollected.sort_by_key(|(index, _)| *index);
        StreamOutput {
            value,
            uncollected,
            report: StreamReport {
                schema: STREAM_REPORT_SCHEMA.to_string(),
                requests: per_request.len() as u64,
                failures: per_request.iter().filter(|cost| !cost.ok).count() as u64,
                interactive,
                bulk,
                rejected: queue.rejected,
                expired: scheduler.expired(),
                infeasible: scheduler.infeasible(),
                scheduler,
                cache_hits: laplacian_requests - cache_misses,
                cache_misses,
                cache: engine.cache.stats(),
                total,
                preprocessing,
                per_request,
                // The replayed replica's final cells: the scope's
                // calibration state as a pure function of its workload.
                calibration: replay.calibration_cells(),
            },
            latency: LatencyReport { classes: latency },
            pool,
        }
    }
}

/// Re-evaluates the pool target against the live backlog (see
/// [`WfqQueue::desired_workers`]), emitting pool telemetry on a transition. Returns
/// `true` when the pool grew — the caller must then wake parked workers.
/// The before/after reads race concurrent resizes, which is fine: the
/// events are observability, the authoritative counters live in
/// [`PoolState`].
fn resize_pool(shared: &Shared<'_>, lane: usize, queue: &StreamQueue) -> bool {
    let before = shared.pool.target();
    let grew = shared.pool.resize_to(
        queue
            .q
            .desired_workers(shared.pool.min, shared.engine.cost.service_rate()),
    );
    if let Some(tc) = &shared.tcounters {
        let after = shared.pool.target();
        if after > before {
            tc.pool_grows.incr();
            tc.pool_target.set(after as u64);
            tc.pool_peak.set_max(after as u64);
            shared.trace(lane, TraceEvent::PoolGrow, NO_REQUEST, after as u64);
        } else if after < before {
            tc.pool_shrinks.incr();
            tc.pool_target.set(after as u64);
            shared.trace(lane, TraceEvent::PoolShrink, NO_REQUEST, after as u64);
        }
    }
    grew
}

/// One scheduling decision: either a job to execute, a batch of jobs that
/// expired in the queue, or shutdown.
// A `Work` value lives once per dispatch, not in bulk: the size skew
// between a popped job and the other variants does not matter here.
#[allow(clippy::large_enum_variant)]
enum Work {
    Run(Job),
    Expired(Vec<(Job, Duration)>),
    Done,
}

fn worker_loop(shared: &Shared<'_>, id: usize) {
    // Trace lane convention: lane 0 is admission/collection (the client
    // side), lane `1 + id` is this worker.
    let lane = 1 + id;
    // One scratch arena per worker thread: solve state is reused across every
    // job this worker executes, so a warm worker solves without allocating.
    let mut arena = ScratchArena::new();
    loop {
        let work = {
            let mut queue = shared.queue.lock().expect("stream queue");
            loop {
                // Re-evaluate the pool target against the live backlog:
                // this is the shrink path (the queue drained under us) and
                // a second chance for growth missed between admissions.
                // Once the scope is draining the target is moot — every
                // thread helps finish the admitted work.
                if !queue.closed {
                    if resize_pool(shared, lane, &queue) {
                        shared.not_empty.notify_all();
                    }
                    if id >= shared.pool.target() {
                        // Parked: over the target, so this thread must not
                        // dispatch. A grow resize or the drain wakes it.
                        if let Some(tc) = &shared.tcounters {
                            tc.pool_parks.incr();
                            shared.trace(lane, TraceEvent::WorkerPark, NO_REQUEST, id as u64);
                        }
                        queue = shared.not_empty.wait(queue).expect("stream queue");
                        continue;
                    }
                }
                // Sweep deadline expirations before every scheduling
                // decision: a job still queued past its deadline is failed
                // here, never dispatched.
                let expired = queue.q.take_expired(shared.engine.clock.now());
                if !expired.is_empty() {
                    shared.not_full.notify_all();
                    break Work::Expired(expired);
                }
                if let Some(job) = queue.q.pop() {
                    shared.not_full.notify_all();
                    break Work::Run(job);
                }
                if queue.closed {
                    break Work::Done;
                }
                queue = shared.not_empty.wait(queue).expect("stream queue");
            }
        };
        let job = match work {
            Work::Done => return,
            Work::Expired(expired) => {
                let mut done = shared.done.lock().expect("completion table");
                for (job, late_by) in expired {
                    if let Some(tc) = &shared.tcounters {
                        tc.expired.incr();
                        shared.trace(
                            lane,
                            TraceEvent::Expired,
                            job.index,
                            u64::try_from(late_by.as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                    let error = Error::DeadlineExceeded { late_by };
                    done.slots[job.index as usize].stage = Stage::Expired(error.to_string());
                    done.results.insert(job.index, Err(error));
                }
                drop(done);
                shared.done_cv.notify_all();
                continue;
            }
            Work::Run(job) => job,
        };
        // Malformed input surfaces as a typed `Err` result; a panic here is
        // reachable only through a bug or a legacy panicking path below the
        // typed API. Poison the scope before re-panicking so a client
        // blocked in `wait`/`submit` fails loudly instead of hanging, then
        // let `thread::scope` propagate the panic out of `serve`.
        let started = shared.engine.clock.now();
        if let Some(tc) = &shared.tcounters {
            let wait = started.saturating_sub(job.payload.admitted_at);
            tc.dispatched.incr();
            tc.queue_wait.record(wait);
            shared.trace(
                lane,
                TraceEvent::Dispatched,
                job.index,
                u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        let (result, built_rounds) = match panic::catch_unwind(AssertUnwindSafe(|| {
            execute_job(shared, lane, &job, &mut arena)
        })) {
            Ok(result) => result,
            Err(payload) => {
                shared.queue.lock().expect("stream queue").poisoned = true;
                shared.not_full.notify_all();
                shared.done.lock().expect("completion table").poisoned = true;
                shared.done_cv.notify_all();
                panic::resume_unwind(payload);
            }
        };
        let finished = shared.engine.clock.now();
        if let Some(tc) = &shared.tcounters {
            tc.completed.incr();
            tc.service.record(finished.saturating_sub(started));
        }
        // Feed the calibration loop: a successful completion's actual
        // rounds calibrate its kind's rate, and its wall-clock time
        // calibrates the service rate deadline admission converts rounds
        // with (counting any preprocessing this dispatch built — the build
        // shared the measured wall-clock). Failures are skipped — their
        // discarded partial work says nothing about the cost of work that
        // completes.
        if let Ok(outcome) = &result {
            let (kind, dims) = job.payload.request.cost_profile();
            let rounds = outcome.report.total_rounds;
            let cost = &shared.engine.cost;
            cost.observe(kind, dims, rounds);
            cost.observe_service(rounds + built_rounds, finished.saturating_sub(started));
        }
        // Latency samples on the engine's clock axis: admission → dispatch
        // and admission → completion, saturating because a virtual clock
        // may stand still between the readings.
        let wait_ns = u64::try_from(started.saturating_sub(job.payload.admitted_at).as_nanos())
            .unwrap_or(u64::MAX);
        let e2e_ns = u64::try_from(finished.saturating_sub(job.payload.admitted_at).as_nanos())
            .unwrap_or(u64::MAX);
        let (report, error) = match &result {
            Ok(outcome) => (outcome.report.clone(), None),
            Err(e) => (RoundReport::default(), Some(e.to_string())),
        };
        let mut done = shared.done.lock().expect("completion table");
        done.slots[job.index as usize].stage = Stage::Ran {
            report,
            error,
            wait_ns,
            e2e_ns,
        };
        done.results.insert(job.index, result);
        drop(done);
        shared.done_cv.notify_all();
    }
}

/// Executes one job on a fresh worker session seeded by its submission
/// index, returning its result plus the preprocessing rounds this call
/// *built* (zero on cache hits and for non-Laplacian jobs) — a build shares
/// the job's wall-clock, so the service-rate observation must count its
/// rounds alongside the solve's.
///
/// A Laplacian job solves **directly on the shared cache entry**:
/// `PreparedLaplacian::solve_shared` runs each solve on a fresh per-request
/// network with the worker's [`ScratchArena`], so no per-request clone of
/// the preprocessing state is needed and every solve starts from the same
/// pristine state regardless of scheduling. The entry is built at the
/// master seed, exactly as `Session::laplacian(graph).preprocess()` would:
/// a pure function of `(master seed, graph)`, which is what makes entries
/// shareable (and rebuildable after eviction) without affecting results.
fn execute_job(
    shared: &Shared<'_>,
    lane: usize,
    job: &Job,
    arena: &mut ScratchArena,
) -> (Result<Outcome<Response>, Error>, u64) {
    let engine = shared.engine;
    let index = job.index;
    let mut built_rounds = 0;
    let entry = match (&job.payload.request, job.payload.fp) {
        (Request::Laplacian { graph, .. }, Some(fp)) => {
            // The build closure runs exactly when this call is the one that
            // builds — which is exactly a cache miss, so the miss and the
            // build bracket are traced inside it. Waiting on (or finding)
            // another worker's build is the hit path.
            let (entry, built) = engine
                .cache
                .get_or_build(fp, CostDims::of_graph(graph), || {
                    shared.trace(lane, TraceEvent::CacheMiss, index, 0);
                    shared.trace(lane, TraceEvent::BuildBegin, index, 0);
                    let entry = engine
                        .worker_session(engine.seed)
                        .laplacian(graph)
                        .preprocess();
                    built_rounds = preprocessing_rounds(&entry);
                    shared.trace(lane, TraceEvent::BuildEnd, index, built_rounds);
                    entry
                });
            if !built {
                shared.trace(lane, TraceEvent::CacheHit, index, 0);
            }
            // Record the preprocessing cost once per distinct fingerprint —
            // a pure function of (master seed, graph), so whichever worker
            // records it first records the same value. A failed build
            // charged nothing.
            shared
                .prep
                .lock()
                .expect("preprocessing reports")
                .entry(fp.as_u128())
                .or_insert_with(|| match &*entry {
                    Ok(prepared) => prepared.preprocessing_report().clone(),
                    Err(_) => RoundReport::default(),
                });
            Some(entry)
        }
        _ => None,
    };
    shared.trace(lane, TraceEvent::SolveBegin, index, 0);
    let session = || engine.worker_session(engine.request_seed(index as usize));
    let result = match &job.payload.request {
        Request::Sparsify { graph, epsilon } => session()
            .sparsify(graph, *epsilon)
            .map(|o| o.map(Response::Sparsify)),
        Request::Laplacian { b, epsilon, .. } => {
            match entry
                .as_deref()
                .expect("laplacian jobs carry their cache entry")
            {
                Ok(prepared) => prepared
                    .solve_shared(b, *epsilon, arena)
                    .map(|o| o.map(Response::Laplacian)),
                Err(e) => Err(e.clone()),
            }
        }
        Request::Lp { instance, request } => {
            session().lp(instance, request).map(|o| o.map(Response::Lp))
        }
        Request::MinCostMaxFlow { instance, options } => {
            let mut session = session();
            match options {
                Some(opts) => session.min_cost_max_flow_with(instance, opts),
                None => session.min_cost_max_flow(instance),
            }
            .map(|o| o.map(Response::MinCostMaxFlow))
        }
    };
    let solved_rounds = result
        .as_ref()
        .map_or(0, |outcome| outcome.report.total_rounds);
    shared.trace(lane, TraceEvent::SolveEnd, index, solved_rounds);
    (result, built_rounds)
}

/// The submission/collection handle a serve scope's closure works with.
/// Submissions admit work into the bounded queue; collection takes completed
/// results out, in any order.
pub struct StreamClient<'s> {
    shared: &'s Shared<'s>,
}

impl StreamClient<'_> {
    /// Submits one request under a scheduling class, with no deadline.
    ///
    /// Admission is governed by the queue bound: with
    /// [`BackpressurePolicy::Block`] a full queue blocks until a worker
    /// frees a slot; with [`BackpressurePolicy::Reject`] it fails fast.
    /// Rejected submissions consume no submission index, so the admitted
    /// sequence stays dense and the determinism contract applies to exactly
    /// the requests that were admitted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overloaded`] under the reject policy when the queue
    /// is at capacity.
    pub fn submit(&self, request: Request, priority: Priority) -> Result<Ticket, Error> {
        self.admit(request, priority, None)
    }

    /// Submits one request under a scheduling class with a queueing
    /// deadline, measured from now.
    ///
    /// Admission is deadline-aware: when the class's expected wait — its
    /// queued backlog cost over its WFQ weight share, converted to
    /// wall-clock through the cost model's calibrated service rate —
    /// already exceeds the deadline, the submission is rejected here with
    /// [`Error::DeadlineInfeasible`] instead of queueing work that is
    /// doomed to expire. Like [`Error::Overloaded`] rejections it then
    /// consumes no submission index. An engine whose service rate is not
    /// yet calibrated (no completion observed) admits everything; in
    /// particular an **idle** engine has no backlog and never rejects.
    ///
    /// If the admitted request is still queued when the deadline passes, it
    /// is never dispatched and completes with [`Error::DeadlineExceeded`];
    /// once dispatched it always runs to completion. A zero deadline on a
    /// busy engine therefore always expires — the scheduler checks
    /// deadlines before every dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overloaded`] under the reject policy when the queue
    /// is at capacity, [`Error::DeadlineInfeasible`] when the expected wait
    /// already exceeds the deadline. An admitted submission's deadline
    /// surfaces later, through [`StreamClient::poll`] /
    /// [`StreamClient::wait`].
    pub fn submit_with_deadline(
        &self,
        request: Request,
        priority: Priority,
        deadline: Duration,
    ) -> Result<Ticket, Error> {
        self.admit(request, priority, Some(deadline))
    }

    fn admit(
        &self,
        request: Request,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Error> {
        // The deadline (and the latency zero point) is measured from the
        // submit call, so anchor it before admission can block on
        // backpressure — time spent waiting for a queue slot counts against
        // both.
        let engine = self.shared.engine;
        let admitted_at = engine.clock.now();
        let deadline_at = deadline.and_then(|d| admitted_at.checked_add(d));
        // Fingerprint and cost estimation outside the queue lock — they are
        // the only non-trivial parts of admission.
        let fp = match &request {
            Request::Laplacian { graph, .. } => Some(fingerprint(graph)),
            _ => None,
        };
        let pre_cached = fp.is_some_and(|fp| engine.cache.contains(fp));
        let kind = request.kind();
        let (cost_kind, dims) = request.cost_profile();
        // The job's estimated cost: its execution, plus the preprocessing
        // rebuild it will trigger if its topology is not cached right now.
        let model = &engine.cost;
        let mut cost = model.estimate(cost_kind, dims);
        if fp.is_some() && !pre_cached {
            cost = cost.saturating_add(model.estimate(CostKind::LaplacianPreprocess, dims));
        }

        let mut queue = self.shared.queue.lock().expect("stream queue");
        while queue.q.queued() >= engine.queue_capacity {
            assert!(
                !queue.poisoned,
                "a stream worker panicked while this submission was blocked on backpressure"
            );
            match engine.backpressure {
                BackpressurePolicy::Reject => {
                    queue.rejected += 1;
                    if let Some(tc) = &self.shared.tcounters {
                        tc.rejected.incr();
                        self.shared.trace(
                            0,
                            TraceEvent::Rejected,
                            NO_REQUEST,
                            engine.queue_capacity as u64,
                        );
                    }
                    return Err(Error::Overloaded {
                        capacity: engine.queue_capacity,
                    });
                }
                BackpressurePolicy::Block => {
                    queue = self.shared.not_full.wait(queue).expect("stream queue");
                }
            }
        }
        // Deadline-aware admission: refuse work whose deadline the queued
        // backlog already makes infeasible. Two calibration gates keep the
        // check honest: the service rate must have been observed (a fresh
        // engine admits everything), and the submission's own
        // `(kind, size-bucket)` cell must be calibrated — a cold bucket is
        // priced off a prior that can be wrong by orders of magnitude in
        // either direction, and a guess must never reject. The expected
        // wait divides by the pool's *current* target, so the verdict is
        // contemporaneous with the capacity that will serve the backlog.
        if let Some(deadline) = deadline {
            let expected_wait = model
                .service_rate()
                .filter(|_| model.is_calibrated(cost_kind, dims))
                .and_then(|service| {
                    let workers = self.shared.pool.target();
                    queue
                        .q
                        .infeasible_wait(priority, workers, deadline, service)
                });
            if let Some(expected_wait) = expected_wait {
                queue.q.reject_infeasible(priority);
                if let Some(tc) = &self.shared.tcounters {
                    tc.infeasible.incr();
                    self.shared.trace(
                        0,
                        TraceEvent::Infeasible,
                        NO_REQUEST,
                        u64::try_from(expected_wait.as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                return Err(Error::DeadlineInfeasible {
                    deadline,
                    expected_wait,
                });
            }
        }
        let index = queue.q.push(
            priority,
            JobPayload {
                request,
                fp,
                admitted_at,
            },
            deadline_at,
            cost,
        );
        if let Some(tc) = &self.shared.tcounters {
            tc.submitted.incr();
            tc.queued.incr();
            tc.queue_depth.set(queue.q.queued() as u64);
            self.shared.trace(0, TraceEvent::Submitted, index, cost);
            self.shared
                .trace(0, TraceEvent::Queued, index, queue.q.queued() as u64);
        }
        // Grow the pool before the new job's wait begins, not after a
        // worker notices the backlog: admission is where queued deadlines
        // start ticking. (`not_empty` is notified below either way.)
        resize_pool(self.shared, 0, &queue);
        // Open the submission's slot while still holding the queue lock: no
        // worker can pop the job before its slot exists, and slots are
        // pushed in index order.
        let mut done = self.shared.done.lock().expect("completion table");
        done.slots.push(Slot {
            kind,
            priority,
            fingerprint: fp,
            pre_cached,
            cost_kind,
            dims,
            stage: Stage::Open,
        });
        drop(done);
        drop(queue);
        self.shared.not_empty.notify_all();
        Ok(Ticket {
            index,
            priority,
            scope: engine.scopes,
        })
    }

    /// Panics on a ticket issued by a different serve scope — its index
    /// would otherwise silently redeem this scope's unrelated result.
    fn check_scope(&self, ticket: Ticket) {
        let scope = self.shared.engine.scopes;
        assert!(
            ticket.scope == scope,
            "stream ticket {} was issued by serve scope {}, not the current scope {scope}",
            ticket.index,
            ticket.scope,
        );
    }

    /// Takes the result of a completed submission, or `None` if it is still
    /// queued or running (or was already collected).
    ///
    /// # Panics
    ///
    /// Panics on a ticket kept from an earlier serve scope.
    pub fn poll(&self, ticket: Ticket) -> Option<Result<Outcome<Response>, Error>> {
        self.check_scope(ticket);
        let mut done = self.shared.done.lock().expect("completion table");
        self.take(&mut done, ticket.index)
    }

    /// Blocks until the submission completes and takes its result.
    ///
    /// # Panics
    ///
    /// Panics if the ticket's result was already collected (waiting on it
    /// again would otherwise block forever), if the ticket was kept from an
    /// earlier serve scope, or if a worker thread panicked while the wait
    /// was blocked.
    pub fn wait(&self, ticket: Ticket) -> Result<Outcome<Response>, Error> {
        self.wait_for(ticket, None)
            .expect("a wait without a timeout ends with the result")
    }

    /// Blocks until the submission completes and takes its result, or for
    /// at most `timeout` — returning the typed [`Error::WaitTimeout`]
    /// instead of blocking forever. A timed-out ticket stays redeemable:
    /// the submission keeps running and a later
    /// [`StreamClient::wait`] / [`StreamClient::poll`] /
    /// `wait_timeout` can still collect it (or it surfaces in
    /// [`StreamOutput::uncollected`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WaitTimeout`] when the submission has not completed
    /// within `timeout`; the submission's own result (or typed error) once
    /// it has.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`StreamClient::wait`]: a
    /// ticket whose result was already collected, a ticket kept from an
    /// earlier serve scope, or a worker panic while the wait was blocked.
    pub fn wait_timeout(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<Outcome<Response>, Error> {
        self.wait_for(ticket, Some(timeout))
            .unwrap_or(Err(Error::WaitTimeout { waited: timeout }))
    }

    /// The loop of [`StreamClient::wait`] and [`StreamClient::wait_timeout`]:
    /// takes the ticket's result once it is there, blocking for at most
    /// `timeout` (`None`: for as long as it takes). `None` when the timeout
    /// passed first.
    fn wait_for(
        &self,
        ticket: Ticket,
        timeout: Option<Duration>,
    ) -> Option<Result<Outcome<Response>, Error>> {
        self.check_scope(ticket);
        let started = Instant::now();
        let mut done = self.shared.done.lock().expect("completion table");
        loop {
            if let Some(result) = self.take(&mut done, ticket.index) {
                return Some(result);
            }
            assert!(
                matches!(done.slots[ticket.index as usize].stage, Stage::Open),
                "stream ticket {} was already collected",
                ticket.index
            );
            assert!(
                !done.poisoned,
                "a stream worker panicked while this wait was blocked"
            );
            let cv = &self.shared.done_cv;
            done = match timeout {
                None => cv.wait(done).expect("completion table"),
                Some(timeout) => {
                    let remaining = timeout.checked_sub(started.elapsed())?;
                    cv.wait_timeout(done, remaining)
                        .expect("completion table")
                        .0
                }
            };
        }
    }

    /// The one collection path: takes the result of submission `index` if
    /// it has completed and was not collected yet. Its slot stays behind,
    /// complete, for the report.
    fn take(&self, done: &mut DoneState, index: u64) -> Option<Result<Outcome<Response>, Error>> {
        let result = done.results.remove(&index)?;
        if let Some(tc) = &self.shared.tcounters {
            tc.collected.incr();
            self.shared.trace(0, TraceEvent::Collected, index, 0);
        }
        Some(result)
    }

    /// Snapshots the engine's live telemetry metrics, or `None` when no
    /// enabled [`TelemetrySink`] was attached
    /// ([`StreamEngineBuilder::telemetry`]).
    ///
    /// The lock-free engine counters and histograms are always current; on
    /// top of them this call *publishes* the point-in-time state of the
    /// subsystems that are not instrumented live — the WFQ per-class
    /// counters (`wfq.*`), the cache occupancy (`cache.entries` /
    /// `cache.capacity`), the cost model's calibration coverage (`cost.*`)
    /// and the pool's current target and peak (`pool.*` gauges) — then
    /// snapshots the whole registry. Snapshotting never blocks workers
    /// beyond the queue lock the publish step takes, and never perturbs
    /// scheduling or results.
    pub fn telemetry_snapshot(&self) -> Option<MetricsSnapshot> {
        let engine = self.shared.engine;
        let registry = engine.telemetry.registry()?;
        {
            let queue = self.shared.queue.lock().expect("stream queue");
            queue.q.publish_metrics(registry);
        }
        engine.cache.publish_metrics(registry);
        engine.cost.publish_metrics(registry);
        if let Some(tc) = &self.shared.tcounters {
            let pool = self.shared.pool.stats();
            tc.pool_target.set(self.shared.pool.target() as u64);
            tc.pool_peak.set_max(pool.peak_workers as u64);
        }
        Some(registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tickets_expose_index_and_priority() {
        let ticket = Ticket {
            index: 7,
            priority: Priority::Bulk,
            scope: 1,
        };
        assert_eq!(ticket.index(), 7);
        assert_eq!(ticket.priority(), Priority::Bulk);
        assert_eq!(ticket.priority().label(), "bulk");
        assert_eq!(Priority::custom(9).label(), "custom-9");
    }
}
