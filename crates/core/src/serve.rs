//! Serving internals: the request/response and cost-accounting vocabulary,
//! and the execution core [`crate::stream::StreamEngine`] is built on.
//!
//! [`Request`] / [`Response`] describe one unit of work for any of the
//! paper's four pipelines; [`RequestCost`] / [`PreprocessingCost`] meter it.
//! [`EngineCore`] owns the model configuration, the master seed, the default
//! accuracy, the [`LaplacianCache`] and the deterministic per-request seed
//! derivation — so a submission's result depends only on its index, never
//! on how the engine scheduled it.

use std::collections::HashMap;
use std::sync::Arc;

use bcc_flow::{McmfOptions, McmfResult};
use bcc_graph::{FlowInstance, Graph, GraphFingerprint};
use bcc_laplacian::LaplacianSolve;
use bcc_lp::{LpInstance, LpSolution};
use bcc_runtime::{ModelConfig, RoundLedger};
use bcc_sparsifier::SparsifierOutput;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheEntry, LaplacianCache};
use crate::cost::{CostDims, CostKind, CostModel};
use crate::error::Error;
use crate::report::RoundReport;
use crate::session::{LpRequest, Outcome, Session};
use crate::telemetry::{MetricsRegistry, TelemetrySink};

/// One pipeline request submitted to a serving engine.
// Requests are queue items, not hot-loop values: the size skew between an
// LP instance and a sparsify request does not matter at this granularity.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Request {
    /// Theorem 1.2 — compute a `(1 ± ε)`-spectral sparsifier.
    Sparsify {
        /// The input graph.
        graph: Graph,
        /// Target accuracy `ε`.
        epsilon: f64,
    },
    /// Theorem 1.3 — solve `L_G x = b`. Preprocessing is shared across the
    /// engine through the fingerprint-keyed cache.
    Laplacian {
        /// The input graph (the cache key is its fingerprint).
        graph: Graph,
        /// The right-hand side.
        b: Vec<f64>,
        /// Per-solve accuracy; `None` uses the engine default.
        epsilon: Option<f64>,
    },
    /// Theorem 1.4 — solve a linear program.
    Lp {
        /// The LP instance.
        instance: LpInstance,
        /// Starting point, options and Gram-solver choice.
        request: LpRequest,
    },
    /// Theorem 1.1 — exact min-cost max-flow.
    MinCostMaxFlow {
        /// The flow instance.
        instance: FlowInstance,
        /// Explicit options; `None` derives laboratory options from the
        /// request seed.
        options: Option<McmfOptions>,
    },
}

impl Request {
    /// A sparsify request.
    pub fn sparsify(graph: Graph, epsilon: f64) -> Self {
        Request::Sparsify { graph, epsilon }
    }

    /// A Laplacian-solve request at the engine's default accuracy.
    pub fn laplacian(graph: Graph, b: Vec<f64>) -> Self {
        Request::Laplacian {
            graph,
            b,
            epsilon: None,
        }
    }

    /// A Laplacian-solve request at an explicit accuracy.
    pub fn laplacian_with_epsilon(graph: Graph, b: Vec<f64>, epsilon: f64) -> Self {
        Request::Laplacian {
            graph,
            b,
            epsilon: Some(epsilon),
        }
    }

    /// An LP request.
    pub fn lp(instance: LpInstance, request: LpRequest) -> Self {
        Request::Lp { instance, request }
    }

    /// A min-cost max-flow request with laboratory options.
    pub fn min_cost_max_flow(instance: FlowInstance) -> Self {
        Request::MinCostMaxFlow {
            instance,
            options: None,
        }
    }

    /// The request's pipeline name, as recorded in [`RequestCost::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Sparsify { .. } => "sparsify",
            Request::Laplacian { .. } => "laplacian",
            Request::Lp { .. } => "lp",
            Request::MinCostMaxFlow { .. } => "mcmf",
        }
    }

    /// What a [`CostModel`] prices this request as: the execution cost kind
    /// plus the instance dimensions the prediction is derived from. The
    /// model turns the dimensions into a nonlinear basis (`m·log n`-shaped
    /// for graph kinds, solve-dominated for LP/MCMF) and scales it by the
    /// calibrated rate of the request's `(kind, size-bucket)` cell — see
    /// the [`crate::cost`] module docs. For Laplacian requests this is the
    /// *solve*; a possible preprocessing (re)build is priced separately
    /// under [`CostKind::LaplacianPreprocess`].
    pub fn cost_profile(&self) -> (CostKind, CostDims) {
        match self {
            Request::Sparsify { graph, .. } => (CostKind::Sparsify, CostDims::of_graph(graph)),
            Request::Laplacian { graph, .. } => {
                (CostKind::LaplacianSolve, CostDims::of_graph(graph))
            }
            Request::Lp { instance, .. } => (
                CostKind::Lp,
                CostDims {
                    n: instance.n() as u64,
                    m: instance.m() as u64,
                },
            ),
            Request::MinCostMaxFlow { instance, .. } => (
                CostKind::Mcmf,
                CostDims {
                    n: instance.graph.n() as u64,
                    m: instance.graph.m() as u64,
                },
            ),
        }
    }
}

/// The value computed by one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of a [`Request::Sparsify`].
    Sparsify(SparsifierOutput),
    /// Result of a [`Request::Laplacian`].
    Laplacian(LaplacianSolve),
    /// Result of a [`Request::Lp`].
    Lp(LpSolution),
    /// Result of a [`Request::MinCostMaxFlow`].
    MinCostMaxFlow(McmfResult),
}

impl Response {
    /// The sparsifier output, if this is a sparsify response.
    pub fn as_sparsify(&self) -> Option<&SparsifierOutput> {
        match self {
            Response::Sparsify(v) => Some(v),
            _ => None,
        }
    }

    /// The Laplacian solve, if this is a Laplacian response.
    pub fn as_laplacian(&self) -> Option<&LaplacianSolve> {
        match self {
            Response::Laplacian(v) => Some(v),
            _ => None,
        }
    }

    /// The LP solution, if this is an LP response.
    pub fn as_lp(&self) -> Option<&LpSolution> {
        match self {
            Response::Lp(v) => Some(v),
            _ => None,
        }
    }

    /// The flow result, if this is a min-cost max-flow response.
    pub fn as_min_cost_max_flow(&self) -> Option<&McmfResult> {
        match self {
            Response::MinCostMaxFlow(v) => Some(v),
            _ => None,
        }
    }
}

/// Cost accounting of one distinct Laplacian preprocessing in a serve
/// scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreprocessingCost {
    /// Hex form of the graph fingerprint keying the cache entry.
    pub fingerprint: String,
    /// Number of submissions in this scope routed through the entry.
    pub requests: u64,
    /// Whether the entry predated this scope (its preprocessing was charged
    /// by an earlier scope and is *not* part of this report's totals).
    pub cached: bool,
    /// Communication cost of the preprocessing stage (sparsifier build).
    pub report: RoundReport,
}

/// Cost accounting of one submission in a serve scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestCost {
    /// The submission index.
    pub index: u64,
    /// Pipeline name ([`Request::kind`]).
    pub kind: String,
    /// The derived per-request seed
    /// ([`crate::stream::StreamEngine::request_seed`]).
    pub seed: u64,
    /// Hex fingerprint of the request's graph (Laplacian requests only).
    pub fingerprint: Option<String>,
    /// Whether the request reused a prepared solver built for an earlier
    /// request (or an earlier scope) instead of paying preprocessing itself.
    pub cache_hit: bool,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The display form of the error, for failed requests.
    pub error: Option<String>,
    /// Communication cost of this request alone (for Laplacian requests:
    /// the solve, excluding shared preprocessing). Zero for failed requests:
    /// partial work preceding a typed error is discarded, not metered.
    pub report: RoundReport,
}

/// The scheduling-agnostic serving core: configuration, seed derivation, the
/// shared Laplacian cache and the shared [`CostModel`] every engine decision
/// is priced by. The stream engine's queue and worker pool layer on top of
/// this without touching result semantics.
#[derive(Debug)]
pub(crate) struct EngineCore {
    pub(crate) model: ModelConfig,
    pub(crate) seed: u64,
    pub(crate) epsilon: f64,
    pub(crate) cache: LaplacianCache,
    /// The unified cost model: calibrated by completions (and cache
    /// builds), consulted by the scheduler, deadline admission and the
    /// elastic pool.
    pub(crate) cost: Arc<CostModel>,
    /// The engine's telemetry sink: disabled by default, in which case
    /// every emission site is a single `Option` check. Telemetry is
    /// write-only — nothing on the result or accounting path reads it.
    pub(crate) telemetry: TelemetrySink,
}

impl EngineCore {
    pub(crate) fn new(
        model: ModelConfig,
        seed: u64,
        epsilon: f64,
        cache_capacity: Option<usize>,
        cost: Arc<CostModel>,
        telemetry: TelemetrySink,
    ) -> Self {
        EngineCore {
            model,
            seed,
            epsilon,
            cache: LaplacianCache::new(cache_capacity, Arc::clone(&cost), &telemetry),
            cost,
            telemetry,
        }
    }

    /// Publishes the point-in-time gauges of the core's shared components
    /// (cache occupancy, cost-model calibration) into `registry`; live event
    /// counters stream in as they happen instead.
    pub(crate) fn publish_metrics(&self, registry: &MetricsRegistry) {
        self.cache.publish_metrics(registry);
        self.cost.publish_metrics(registry);
    }

    /// The deterministic seed of request `index`: a splitmix64 finalizer
    /// over the master seed and the index, so a request observes the same
    /// randomness however the engine scheduled it.
    pub(crate) fn request_seed(&self, index: usize) -> u64 {
        bcc_runtime::splitmix64(
            self.seed
                .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// A fresh worker session at the given seed, mirroring the engine's
    /// configuration.
    pub(crate) fn worker_session(&self, seed: u64) -> Session {
        Session::builder()
            .model(self.model)
            .seed(seed)
            .epsilon(self.epsilon)
            .build()
    }

    /// Builds the cache entry of one graph at the master seed, exactly as
    /// `Session::laplacian(graph).preprocess()` would — a pure function of
    /// `(master seed, graph)`, which is what makes entries shareable (and
    /// rebuildable after eviction) without affecting results.
    pub(crate) fn build_entry(&self, graph: &Graph) -> CacheEntry {
        let session = self.worker_session(self.seed);
        match session.laplacian(graph).preprocess() {
            Ok(prepared) => {
                let report = prepared.preprocessing_report().clone();
                (Ok(prepared), report)
            }
            Err(e) => (
                Err(e),
                RoundReport {
                    total_rounds: 0,
                    total_bits: 0,
                    total_operations: 0,
                    breakdown: Vec::new(),
                },
            ),
        }
    }

    /// Executes one request on a fresh worker session seeded by the request
    /// index. Laplacian requests solve **directly on the shared cached
    /// entry** — `PreparedLaplacian::solve_shared` runs each solve on a
    /// fresh per-request network with the worker's [`ScratchArena`], so no
    /// per-request clone of the preprocessing state is needed and every
    /// solve still starts from the same pristine state regardless of
    /// scheduling.
    pub(crate) fn execute(
        &self,
        index: usize,
        request: &Request,
        entry: Option<&CacheEntry>,
        arena: &mut bcc_laplacian::ScratchArena,
    ) -> Result<Outcome<Response>, Error> {
        match request {
            Request::Sparsify { graph, epsilon } => self
                .worker_session(self.request_seed(index))
                .sparsify(graph, *epsilon)
                .map(|o| o.map(Response::Sparsify)),
            Request::Laplacian { b, epsilon, .. } => {
                let (prepared, _) = entry.expect("laplacian requests carry their cache entry");
                let prepared = prepared.as_ref().map_err(Error::clone)?;
                let outcome = prepared.solve_shared(b, *epsilon, arena)?;
                Ok(outcome.map(Response::Laplacian))
            }
            Request::Lp { instance, request } => self
                .worker_session(self.request_seed(index))
                .lp(instance, request)
                .map(|o| o.map(Response::Lp)),
            Request::MinCostMaxFlow { instance, options } => {
                let mut session = self.worker_session(self.request_seed(index));
                match options {
                    Some(opts) => session.min_cost_max_flow_with(instance, opts),
                    None => session.min_cost_max_flow(instance),
                }
                .map(|o| o.map(Response::MinCostMaxFlow))
            }
        }
    }

    /// Folds per-request completion records into the deterministic cost
    /// accounting of a serve scope: [`RequestCost`]s in submission order,
    /// analytic hit/miss classification (the first record of a fingerprint is
    /// the miss unless the entry pre-dated the scope), one
    /// [`PreprocessingCost`] per distinct fingerprint in first-use order, and
    /// a total charging every successful request plus each *new*
    /// preprocessing exactly once.
    ///
    /// `preprocessing_report_of` resolves a fingerprint to its preprocessing
    /// cost snapshot, recorded when the entry was built — a pure function of
    /// `(master seed, graph)`, which is what keeps the whole accounting
    /// scheduling-independent.
    pub(crate) fn account(
        &self,
        records: Vec<RequestRecord>,
        preprocessing_report_of: impl Fn(u128) -> RoundReport,
    ) -> Accounting {
        let mut order: Vec<(GraphFingerprint, bool)> = Vec::new();
        let mut uses: HashMap<u128, u64> = HashMap::new();
        let mut ledger = RoundLedger::new();
        let mut per_request = Vec::with_capacity(records.len());
        let mut failures = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        for record in records {
            let cache_hit = match record.fingerprint {
                Some(fp) => {
                    let count = uses.entry(fp.as_u128()).or_insert(0);
                    let first_use = *count == 0;
                    if first_use {
                        order.push((fp, record.pre_cached));
                    }
                    *count += 1;
                    // A repeat of an earlier fingerprint always hits; the
                    // first use hits only if the entry pre-dated the run.
                    let hit = !first_use || record.pre_cached;
                    if hit {
                        cache_hits += 1;
                    } else {
                        cache_misses += 1;
                    }
                    hit
                }
                None => false,
            };
            if !record.ok {
                failures += 1;
            }
            ledger.charge_phases(
                record
                    .report
                    .breakdown
                    .iter()
                    .map(|(n, s)| (n.as_str(), *s)),
            );
            per_request.push(RequestCost {
                index: record.index,
                kind: record.kind.to_string(),
                seed: self.request_seed(record.index as usize),
                fingerprint: record.fingerprint.map(|f| f.to_hex()),
                cache_hit,
                ok: record.ok,
                error: record.error,
                report: record.report,
            });
        }
        let preprocessing: Vec<PreprocessingCost> = order
            .iter()
            .map(|(fp, pre_cached)| {
                let report = preprocessing_report_of(fp.as_u128());
                if !pre_cached {
                    ledger.charge_phases(report.breakdown.iter().map(|(n, s)| (n.as_str(), *s)));
                }
                PreprocessingCost {
                    fingerprint: fp.to_hex(),
                    requests: uses[&fp.as_u128()],
                    cached: *pre_cached,
                    report,
                }
            })
            .collect();
        Accounting {
            failures,
            cache_hits,
            cache_misses,
            total: RoundReport::from_ledger(&ledger),
            preprocessing,
            per_request,
        }
    }
}

/// One request's completion record, as fed to [`EngineCore::account`]: the
/// deterministic admission metadata plus the execution outcome.
pub(crate) struct RequestRecord {
    pub(crate) index: u64,
    pub(crate) kind: &'static str,
    pub(crate) fingerprint: Option<GraphFingerprint>,
    /// Whether the fingerprint's cache entry pre-dated the scope (only the
    /// first record of each fingerprint is consulted).
    pub(crate) pre_cached: bool,
    pub(crate) ok: bool,
    pub(crate) error: Option<String>,
    pub(crate) report: RoundReport,
}

/// The result of [`EngineCore::account`], the deterministic half of a
/// [`crate::stream::StreamReport`].
pub(crate) struct Accounting {
    pub(crate) failures: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) total: RoundReport,
    pub(crate) preprocessing: Vec<PreprocessingCost>,
    pub(crate) per_request: Vec<RequestCost>,
}
