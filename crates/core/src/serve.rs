//! The serving vocabulary of [`crate::stream::StreamEngine`]: [`Request`] /
//! [`Response`] describe one unit of work for any of the paper's four
//! pipelines, and [`RequestCost`] / [`PreprocessingCost`] are the records a
//! serve scope's [`crate::stream::StreamReport`] meters it with.

use bcc_flow::{McmfOptions, McmfResult};
use bcc_graph::{FlowInstance, Graph};
use bcc_laplacian::LaplacianSolve;
use bcc_lp::{LpInstance, LpSolution};
use bcc_runtime::RoundReport;
use bcc_sparsifier::SparsifierOutput;
use serde::{Deserialize, Serialize};

use crate::cost::{CostDims, CostKind};
use crate::session::LpRequest;

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

    /// What a [`crate::cost::CostModel`] prices this request as: the
    /// execution cost kind plus the instance dimensions the prediction is
    /// derived from. The model turns the dimensions into a nonlinear basis
    /// (`m·log n`-shaped for graph kinds, solve-dominated for LP/MCMF) and
    /// scales it by the calibrated rate of the request's
    /// `(kind, size-bucket)` cell — see the [`crate::cost`] module docs. For
    /// Laplacian requests this is the *solve*; a possible preprocessing
    /// (re)build is priced separately under
    /// [`CostKind::LaplacianPreprocess`].
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
