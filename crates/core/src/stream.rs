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

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bcc_graph::{fingerprint, GraphFingerprint};
use bcc_laplacian::ScratchArena;
use bcc_runtime::{ModelConfig, RoundReport};
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::clock::{Clock, SystemClock};
use crate::config::{ClassEntry, ConfigError, EngineConfig};
use crate::cost::{CalibrationCell, CostDims, CostKind, CostModel};
use crate::error::Error;
use crate::latency::{ClassLatency, LatencyPercentiles, LatencyReport};
use crate::serve::{EngineCore, RequestRecord};
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
        StreamEngine {
            core: EngineCore::new(
                self.config.model,
                self.config.seed,
                self.config.epsilon,
                self.config.cache_capacity,
                self.cost_model
                    .unwrap_or_else(|| Arc::new(CostModel::new())),
                self.telemetry,
            ),
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
    core: EngineCore,
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
        self.core.seed
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
        &self.core.cost
    }

    /// The engine's telemetry sink (disabled unless one was attached with
    /// [`StreamEngineBuilder::telemetry`]). Clones share the same registry
    /// and tracer, so a caller can export metrics and traces after (or
    /// during) a serve scope from its own handle.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.core.telemetry
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
        self.core.cache.len()
    }

    /// Hit/miss/eviction counters of the prepared-Laplacian cache over this
    /// engine's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// The configured cache capacity bound (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.core.cache.capacity()
    }

    /// Drops every cached prepared solver (counters are kept).
    pub fn clear_cache(&mut self) {
        self.core.cache.clear();
    }

    /// The deterministic seed of submission `index`: a splitmix64 finalizer
    /// over the master seed and the index. A sequential [`Session`] seeded
    /// with this value reproduces the submission's result bit for bit
    /// (Laplacian preprocessing uses the master seed instead — it is shared
    /// across every submission on the same graph).
    pub fn request_seed(&self, index: usize) -> u64 {
        self.core.request_seed(index)
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
            core: &self.core,
            scope: self.scopes,
            queue_capacity: self.queue_capacity,
            policy: self.backpressure,
            pool: PoolState::new(self.min_workers, self.max_workers),
            clock: self.clock.as_ref(),
            queue: Mutex::new(StreamQueue::new(&self.classes)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            done: Mutex::new(DoneState::default()),
            done_cv: Condvar::new(),
            meta: Mutex::new(Vec::new()),
            rejected: AtomicU64::new(0),
            prep: Mutex::new(HashMap::new()),
            tcounters: self.core.telemetry.registry().map(EngineCounters::register),
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
        let (uncollected, report, latency) = self.aggregate(&shared);
        self.report.add(&report.total);
        StreamOutput {
            value,
            uncollected,
            report,
            latency,
            pool: shared.pool.stats(),
        }
    }

    /// Folds every admitted submission into the deterministic
    /// [`StreamReport`] through the shared accounting core: per-request
    /// costs in submission order, analytic hit/miss accounting (first
    /// submission of a fingerprint is the miss), preprocessing charged once
    /// per distinct new fingerprint — all independent of completion order.
    #[allow(clippy::type_complexity)]
    fn aggregate(
        &self,
        shared: &Shared<'_>,
    ) -> (
        Vec<(u64, Result<Outcome<Response>, Error>)>,
        StreamReport,
        LatencyReport,
    ) {
        let mut meta = std::mem::take(&mut *shared.meta.lock().expect("submission meta"));
        meta.sort_by_key(|m| m.index);
        let mut done = shared.done.lock().expect("completion table");
        let prep = shared.prep.lock().expect("preprocessing reports");
        let mut scheduler = shared.queue.lock().expect("stream queue").q.stats();

        // Fold the per-ticket timestamps into per-class latency samples, in
        // submission order (so the fold itself is deterministic; the sample
        // values are as deterministic as the engine's clock). Expired
        // submissions never dispatched and carry no samples.
        let mut samples: HashMap<String, (Vec<u64>, Vec<u64>)> = HashMap::new();
        for m in &meta {
            let completion = done
                .costs
                .get(&m.index)
                .expect("the drained scope completed every admitted submission");
            if completion.expired {
                continue;
            }
            let entry = samples.entry(m.priority.label()).or_default();
            entry.0.push(completion.wait_ns);
            entry.1.push(completion.e2e_ns);
        }
        let latency = LatencyReport {
            classes: scheduler
                .classes
                .iter()
                .map(|class| {
                    let (wait, e2e) = samples.remove(&class.class).unwrap_or_default();
                    ClassLatency {
                        class: class.class.clone(),
                        queue_wait: LatencyPercentiles::from_ns_samples(wait),
                        end_to_end: LatencyPercentiles::from_ns_samples(e2e),
                    }
                })
                .collect(),
        };

        // Replay the calibration loop deterministically, in submission
        // order, on a fresh replica of the engine's model: the per-class
        // predicted/actual sums this produces are a pure function of the
        // admitted workload, independent of how scheduling interleaved the
        // live model's mid-flight estimates. Expired submissions never
        // executed, and failed ones charge no rounds and are not observed
        // by the live loop either — both are skipped on both sides of the
        // comparison.
        let replay = self.core.cost.fresh_replica();
        let mut errors: HashMap<String, (u64, u64)> = HashMap::new();
        for m in &meta {
            let completion = done
                .costs
                .get(&m.index)
                .expect("the drained scope completed every admitted submission");
            if completion.expired || !completion.ok {
                continue;
            }
            let predicted = replay.estimate(m.cost_kind, m.dims);
            let actual = completion.report.total_rounds;
            let entry = errors.entry(m.priority.label()).or_insert((0, 0));
            entry.0 += predicted;
            entry.1 += actual;
            replay.observe(m.cost_kind, m.dims, actual);
        }
        for class in &mut scheduler.classes {
            if let Some((predicted, actual)) = errors.get(&class.class) {
                class.predicted_rounds = *predicted;
                class.actual_rounds = *actual;
            }
        }
        // The replayed replica's final cells are the scope's calibration
        // state as a pure function of the admitted workload — the per-bucket
        // coefficients the report (and the CI estimation summary) exposes.
        let calibration = replay.calibration_cells();

        let mut interactive = 0u64;
        let mut bulk = 0u64;
        let records: Vec<RequestRecord> = meta
            .iter()
            .map(|m| {
                match m.priority {
                    Priority::Interactive => interactive += 1,
                    Priority::Bulk => bulk += 1,
                    Priority::Custom(_) => {}
                }
                let completion = done
                    .costs
                    .remove(&m.index)
                    .expect("the drained scope completed every admitted submission");
                // An expired submission never touched the cache: account it
                // like a fingerprint-less failure so no preprocessing is
                // demanded (or charged) on its behalf.
                let (fingerprint, pre_cached) = if completion.expired {
                    (None, false)
                } else {
                    (m.fingerprint, m.pre_cached)
                };
                RequestRecord {
                    index: m.index,
                    kind: m.kind,
                    fingerprint,
                    pre_cached,
                    ok: completion.ok,
                    error: completion.error,
                    report: completion.report,
                }
            })
            .collect();
        let accounting = self.core.account(records, |key| {
            prep.get(&key)
                .expect("every executed fingerprint recorded its preprocessing")
                .clone()
        });

        let mut uncollected: Vec<(u64, Result<Outcome<Response>, Error>)> =
            done.results.drain().collect();
        uncollected.sort_by_key(|(index, _)| *index);

        let report = StreamReport {
            schema: STREAM_REPORT_SCHEMA.to_string(),
            requests: meta.len() as u64,
            failures: accounting.failures,
            interactive,
            bulk,
            rejected: shared.rejected.load(Ordering::Relaxed),
            expired: scheduler.expired(),
            infeasible: scheduler.infeasible(),
            scheduler,
            cache_hits: accounting.cache_hits,
            cache_misses: accounting.cache_misses,
            cache: self.core.cache.stats(),
            total: accounting.total,
            preprocessing: accounting.preprocessing,
            per_request: accounting.per_request,
            calibration,
        };
        (uncollected, report, latency)
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
}

impl StreamQueue {
    fn new(classes: &[ClassEntry]) -> Self {
        StreamQueue {
            q: WfqQueue::new(classes),
            closed: false,
            poisoned: false,
        }
    }
}

/// Everything submitted about one request, recorded at admission time; the
/// deterministic half of the final [`RequestCost`].
struct SubmitMeta {
    index: u64,
    kind: &'static str,
    priority: Priority,
    fingerprint: Option<GraphFingerprint>,
    /// Whether the fingerprint was already cached when it was first
    /// submitted in this scope (the stream analogue of
    /// [`PreprocessingCost::cached`]).
    pre_cached: bool,
    /// The request's cost kind and instance dimensions — what the
    /// deterministic calibration replay prices it by at aggregation.
    cost_kind: CostKind,
    dims: CostDims,
}

/// What a worker records about one completed submission (the result payload
/// itself goes to the completion table for `poll`/`wait`).
struct Completion {
    ok: bool,
    error: Option<String>,
    report: RoundReport,
    /// Whether the submission expired in the queue instead of executing.
    expired: bool,
    /// Admission → dispatch on the engine's clock, nanoseconds (zero for
    /// expired submissions, which are excluded from the latency report).
    wait_ns: u64,
    /// Admission → completion on the engine's clock, nanoseconds.
    e2e_ns: u64,
}

#[derive(Default)]
struct DoneState {
    /// Results not yet collected by the client.
    results: HashMap<u64, Result<Outcome<Response>, Error>>,
    /// Cost records of every completion, consumed by aggregation.
    costs: HashMap<u64, Completion>,
    /// Indices whose results were already handed to the client (so a second
    /// `wait` on the same ticket can fail loudly instead of hanging).
    collected: HashSet<u64>,
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
    core: &'e EngineCore,
    /// Serial of the owning serve scope; tickets are branded with it.
    scope: u64,
    queue_capacity: usize,
    policy: BackpressurePolicy,
    /// The elastic pool's live sizing state; its current target is also the
    /// worker count expected-wait estimates at admission divide by.
    pool: PoolState,
    /// The engine's time source (see [`crate::clock`]).
    clock: &'e dyn Clock,
    queue: Mutex<StreamQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    done: Mutex<DoneState>,
    done_cv: Condvar,
    meta: Mutex<Vec<SubmitMeta>>,
    rejected: AtomicU64,
    prep: Mutex<HashMap<u128, RoundReport>>,
    /// Pre-registered engine counter/gauge/histogram handles — `Some` iff
    /// the engine's telemetry sink is enabled, so one `Option` check gates
    /// every instrumentation point.
    tcounters: Option<EngineCounters>,
}

impl Shared<'_> {
    /// Emits one trace event on the engine's clock axis. Reads the clock
    /// only when the sink is enabled, so a disabled sink costs exactly the
    /// `is_enabled` check.
    fn trace(&self, lane: usize, event: TraceEvent, request: u64, detail: u64) {
        if self.core.telemetry.is_enabled() {
            self.core
                .telemetry
                .trace(lane, self.clock.now(), event, request, detail);
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
            .desired_workers(shared.pool.min, shared.core.cost.service_rate()),
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
                let expired = queue.q.take_expired(shared.clock.now());
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
                    done.costs.insert(
                        job.index,
                        Completion {
                            ok: false,
                            error: Some(error.to_string()),
                            report: RoundReport::default(),
                            expired: true,
                            wait_ns: 0,
                            e2e_ns: 0,
                        },
                    );
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
        let started = shared.clock.now();
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
        let finished = shared.clock.now();
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
            shared.core.cost.observe(kind, dims, rounds);
            shared
                .core
                .cost
                .observe_service(rounds + built_rounds, finished.saturating_sub(started));
        }
        // Latency samples on the engine's clock axis: admission → dispatch
        // and admission → completion, saturating because a virtual clock
        // may stand still between the readings.
        let wait_ns = u64::try_from(started.saturating_sub(job.payload.admitted_at).as_nanos())
            .unwrap_or(u64::MAX);
        let e2e_ns = u64::try_from(finished.saturating_sub(job.payload.admitted_at).as_nanos())
            .unwrap_or(u64::MAX);
        let completion = match &result {
            Ok(outcome) => Completion {
                ok: true,
                error: None,
                report: outcome.report.clone(),
                expired: false,
                wait_ns,
                e2e_ns,
            },
            Err(e) => Completion {
                ok: false,
                error: Some(e.to_string()),
                report: RoundReport::default(),
                expired: false,
                wait_ns,
                e2e_ns,
            },
        };
        let mut done = shared.done.lock().expect("completion table");
        done.costs.insert(job.index, completion);
        done.results.insert(job.index, result);
        drop(done);
        shared.done_cv.notify_all();
    }
}

/// Executes one job, returning its result plus the preprocessing rounds
/// this call *built* (zero on cache hits and for non-Laplacian jobs) — a
/// build shares the job's wall-clock, so the service-rate observation must
/// count its rounds alongside the solve's.
fn execute_job(
    shared: &Shared<'_>,
    lane: usize,
    job: &Job,
    arena: &mut ScratchArena,
) -> (Result<Outcome<Response>, Error>, u64) {
    match job.payload.fp {
        Some(fp) => {
            let graph = match &job.payload.request {
                Request::Laplacian { graph, .. } => graph,
                _ => unreachable!("only laplacian jobs carry a fingerprint"),
            };
            // The build closure runs exactly when this call is the one that
            // builds — which is exactly a cache miss, so the miss and the
            // build bracket are traced inside it. Waiting on (or finding)
            // another worker's build is the hit path.
            let (entry, built) =
                shared
                    .core
                    .cache
                    .get_or_build(fp, CostDims::of_graph(graph), || {
                        shared.trace(lane, TraceEvent::CacheMiss, job.index, 0);
                        shared.trace(lane, TraceEvent::BuildBegin, job.index, 0);
                        let entry = shared.core.build_entry(graph);
                        shared.trace(lane, TraceEvent::BuildEnd, job.index, entry.1.total_rounds);
                        entry
                    });
            if !built {
                shared.trace(lane, TraceEvent::CacheHit, job.index, 0);
            }
            // Record the preprocessing cost once per distinct fingerprint —
            // a pure function of (master seed, graph), so whichever worker
            // records it first records the same value.
            shared
                .prep
                .lock()
                .expect("preprocessing reports")
                .entry(fp.as_u128())
                .or_insert_with(|| entry.1.clone());
            let built_rounds = if built { entry.1.total_rounds } else { 0 };
            shared.trace(lane, TraceEvent::SolveBegin, job.index, 0);
            let result = shared.core.execute(
                job.index as usize,
                &job.payload.request,
                Some(&entry),
                arena,
            );
            let solved_rounds = result
                .as_ref()
                .map(|outcome| outcome.report.total_rounds)
                .unwrap_or(0);
            shared.trace(lane, TraceEvent::SolveEnd, job.index, solved_rounds);
            (result, built_rounds)
        }
        None => {
            shared.trace(lane, TraceEvent::SolveBegin, job.index, 0);
            let result = shared
                .core
                .execute(job.index as usize, &job.payload.request, None, arena);
            let solved_rounds = result
                .as_ref()
                .map(|outcome| outcome.report.total_rounds)
                .unwrap_or(0);
            shared.trace(lane, TraceEvent::SolveEnd, job.index, solved_rounds);
            (result, 0)
        }
    }
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
        let admitted_at = self.shared.clock.now();
        let deadline_at = deadline.and_then(|d| admitted_at.checked_add(d));
        // Fingerprint and cost estimation outside the queue lock — they are
        // the only non-trivial parts of admission.
        let fp = match &request {
            Request::Laplacian { graph, .. } => Some(fingerprint(graph)),
            _ => None,
        };
        let pre_cached = fp.is_some_and(|fp| self.shared.core.cache.contains(fp));
        let kind = request.kind();
        let (cost_kind, dims) = request.cost_profile();
        // The job's estimated cost: its execution, plus the preprocessing
        // rebuild it will trigger if its topology is not cached right now.
        let model = &self.shared.core.cost;
        let mut cost = model.estimate(cost_kind, dims);
        if fp.is_some() && !pre_cached {
            cost = cost.saturating_add(model.estimate(CostKind::LaplacianPreprocess, dims));
        }

        let mut queue = self.shared.queue.lock().expect("stream queue");
        while queue.q.queued() >= self.shared.queue_capacity {
            assert!(
                !queue.poisoned,
                "a stream worker panicked while this submission was blocked on backpressure"
            );
            match self.shared.policy {
                BackpressurePolicy::Reject => {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    if let Some(tc) = &self.shared.tcounters {
                        tc.rejected.incr();
                        self.shared.trace(
                            0,
                            TraceEvent::Rejected,
                            NO_REQUEST,
                            self.shared.queue_capacity as u64,
                        );
                    }
                    return Err(Error::Overloaded {
                        capacity: self.shared.queue_capacity,
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
        // Record the admission while still holding the queue lock, so the
        // meta log is in submission order by construction.
        self.shared
            .meta
            .lock()
            .expect("submission meta")
            .push(SubmitMeta {
                index,
                kind,
                priority,
                fingerprint: fp,
                pre_cached,
                cost_kind,
                dims,
            });
        drop(queue);
        self.shared.not_empty.notify_all();
        Ok(Ticket {
            index,
            priority,
            scope: self.shared.scope,
        })
    }

    /// Panics on a ticket issued by a different serve scope — its index
    /// would otherwise silently redeem this scope's unrelated result.
    fn check_scope(&self, ticket: Ticket) {
        assert!(
            ticket.scope == self.shared.scope,
            "stream ticket {} was issued by serve scope {}, not the current scope {}",
            ticket.index,
            ticket.scope,
            self.shared.scope
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
        let result = done.results.remove(&ticket.index);
        if result.is_some() {
            done.collected.insert(ticket.index);
            self.mark_collected(ticket.index);
        }
        result
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
        self.check_scope(ticket);
        let mut done = self.shared.done.lock().expect("completion table");
        loop {
            if let Some(result) = done.results.remove(&ticket.index) {
                done.collected.insert(ticket.index);
                self.mark_collected(ticket.index);
                return result;
            }
            assert!(
                !done.collected.contains(&ticket.index),
                "stream ticket {} was already collected",
                ticket.index
            );
            assert!(
                !done.poisoned,
                "a stream worker panicked while this wait was blocked"
            );
            done = self.shared.done_cv.wait(done).expect("completion table");
        }
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
        self.check_scope(ticket);
        let started = Instant::now();
        let mut done = self.shared.done.lock().expect("completion table");
        loop {
            if let Some(result) = done.results.remove(&ticket.index) {
                done.collected.insert(ticket.index);
                self.mark_collected(ticket.index);
                return result;
            }
            assert!(
                !done.collected.contains(&ticket.index),
                "stream ticket {} was already collected",
                ticket.index
            );
            assert!(
                !done.poisoned,
                "a stream worker panicked while this wait was blocked"
            );
            let Some(remaining) = timeout.checked_sub(started.elapsed()) else {
                return Err(Error::WaitTimeout { waited: timeout });
            };
            let (guard, _timed_out) = self
                .shared
                .done_cv
                .wait_timeout(done, remaining)
                .expect("completion table");
            done = guard;
        }
    }

    /// Emits the collection telemetry of one redeemed ticket.
    fn mark_collected(&self, index: u64) {
        if let Some(tc) = &self.shared.tcounters {
            tc.collected.incr();
            self.shared.trace(0, TraceEvent::Collected, index, 0);
        }
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
        let registry = self.shared.core.telemetry.registry()?;
        {
            let queue = self.shared.queue.lock().expect("stream queue");
            queue.q.publish_metrics(registry);
        }
        self.shared.core.publish_metrics(registry);
        if let Some(tc) = &self.shared.tcounters {
            let pool = self.shared.pool.stats();
            tc.pool_target.set(self.shared.pool.target() as u64);
            tc.pool_peak.set_max(pool.peak_workers as u64);
        }
        Some(registry.snapshot())
    }

    /// Number of submissions admitted so far in this scope.
    pub fn submitted(&self) -> u64 {
        self.shared
            .queue
            .lock()
            .expect("stream queue")
            .q
            .next_index()
    }

    /// Number of submissions completed so far in this scope (collected or
    /// not).
    pub fn completed(&self) -> u64 {
        let done = self.shared.done.lock().expect("completion table");
        done.costs.len() as u64
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
