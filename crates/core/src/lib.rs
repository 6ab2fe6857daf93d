//! # bcc-core
//!
//! Facade crate for the reproduction of *"The Laplacian Paradigm in the
//! Broadcast Congested Clique"* (Forster & de Vos, PODC 2022): re-exports the
//! whole workspace and serves the paper's four theorems through one typed,
//! fallible, reusable pipeline API — [`Session`].
//!
//! | Paper result | Entry point |
//! |---|---|
//! | Theorem 1.2 (spectral sparsifier, Broadcast CONGEST) | [`Session::sparsify`] |
//! | Theorem 1.3 (Laplacian solver, BCC) | [`Session::laplacian`] → [`PreparedLaplacian`] |
//! | Theorem 1.4 (LP solver, BCC) | [`Session::lp`] |
//! | Theorem 1.1 (min-cost max-flow, BCC) | [`Session::min_cost_max_flow`] |
//!
//! Every entry point validates its input and returns
//! `Result<`[`Outcome`]`<T>, `[`Error`]`>` — malformed input (disconnected
//! graphs, mismatched dimensions, infeasible starting points, invalid
//! topologies) surfaces as a typed error instead of a panic, and every
//! [`Outcome`] carries a structured, serializable [`RoundReport`] with the
//! per-phase round/bit accounting the theorems bound.
//!
//! ## Quickstart
//!
//! ```
//! use bcc_core::Session;
//!
//! // A session owns the model configuration, the master seed and a
//! // cumulative cost ledger; it serves any number of requests.
//! let mut session = Session::builder().seed(42).build();
//!
//! // Theorem 1.3: preprocess a graph once, then solve many right-hand
//! // sides — the preprocessing rounds are charged exactly once.
//! let graph = bcc_core::graph::generators::grid(4, 4);
//! let mut prepared = session.laplacian(&graph).preprocess().unwrap();
//! let mut b = vec![0.0; graph.n()];
//! b[0] = 1.0;
//! b[graph.n() - 1] = -1.0;
//! let solve = prepared.solve(&b).unwrap();
//! assert_eq!(solve.value.solution.len(), graph.n());
//! assert!(solve.report.has_phase("laplacian solve"));
//! assert!(prepared.preprocessing_report().total_rounds > 0);
//!
//! // Malformed input is an error, not a panic.
//! let disconnected = bcc_core::graph::Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
//! assert!(session.laplacian(&disconnected).preprocess().is_err());
//! ```
//!
//! ## Serving
//!
//! [`StreamEngine`] serves many requests over one fingerprint-keyed cache of
//! prepared Laplacian solvers, so the preprocessing of Theorem 1.3 is paid
//! once per distinct graph across all of them: submit [`Request`]s inside a
//! [`StreamEngine::serve`] scope and redeem their [`Ticket`]s. A closed batch
//! is one scope that submits every request, then waits on the tickets in
//! order. Configure the engine through [`config::EngineConfig`] — the one
//! serde-roundtrippable schema [`StreamEngineBuilder`] and the `bcc-served`
//! daemon consume.
//!
//! ## Live telemetry and tracing
//!
//! The serving engine accepts a [`telemetry::TelemetrySink`]: a cheap,
//! cloneable handle that is a no-op by default and, when enabled, records
//! lock-free metrics plus a per-request lifecycle timeline timestamped
//! through the engine's injectable [`Clock`] — under a [`VirtualClock`]
//! the exported trace is byte-for-byte deterministic, and telemetry never
//! feeds back into scheduling, so reports stay bit-identical with tracing
//! on or off.
//!
//! ```
//! use bcc_core::stream::{Priority, Request, StreamEngine};
//! use bcc_core::telemetry::{TelemetrySink, TraceEvent};
//!
//! let sink = TelemetrySink::enabled();
//! let mut engine = StreamEngine::builder()
//!     .seed(2022)
//!     .telemetry(sink.clone())
//!     .build();
//! engine.serve(|client| {
//!     let g = bcc_core::graph::generators::grid(3, 3);
//!     let t = client
//!         .submit(Request::sparsify(g, 0.5), Priority::Interactive)
//!         .unwrap();
//!     client.wait(t).unwrap();
//! });
//! // Metrics snapshot (JSON-serializable) and a Chrome trace-event
//! // timeline (load it into chrome://tracing or ui.perfetto.dev).
//! let metrics = sink.metrics_snapshot().unwrap();
//! assert_eq!(metrics.counter("stream.dispatched"), 1);
//! let dispatched = sink
//!     .trace_records()
//!     .iter()
//!     .filter(|r| r.event == TraceEvent::Dispatched)
//!     .count();
//! assert_eq!(dispatched as u64, metrics.counter("stream.dispatched"));
//! let timeline: String = sink.chrome_trace().unwrap();
//! assert!(timeline.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bcc_flow as flow;
pub use bcc_graph as graph;
pub use bcc_laplacian as laplacian;
pub use bcc_linalg as linalg;
pub use bcc_lp as lp;
pub use bcc_runtime as runtime;
pub use bcc_spanner as spanner;
pub use bcc_sparsifier as sparsifier;

pub mod algorithm;
pub mod cache;
pub mod clock;
pub mod config;
pub mod cost;
pub mod error;
pub mod latency;
pub mod report;
mod serve;
pub mod session;
pub mod stream;
pub mod telemetry;
pub mod tenant;
pub mod wfq;

pub use algorithm::{
    BccAlgorithm, LaplacianAlgorithm, LaplacianProblem, LpAlgorithm, LpProblem, McmfAlgorithm,
    SparsifyAlgorithm,
};
pub use cache::CacheStats;
pub use clock::{Clock, SystemClock, VirtualClock};
pub use config::{ClassEntry, ConfigError, EngineConfig, ENGINE_CONFIG_SCHEMA};
pub use cost::{CostDims, CostKind, CostModel};
pub use error::Error;
pub use latency::{ClassLatency, LatencyPercentiles, LatencyReport};
pub use report::RoundReport;
pub use session::{
    GramChoice, LaplacianRequest, LpRequest, Outcome, PreparedLaplacian, Session, SessionBuilder,
};
pub use stream::{
    BackpressurePolicy, ClassStats, Priority, RateLimit, Request, Response, SchedulerStats,
    StreamClient, StreamEngine, StreamEngineBuilder, StreamOutput, StreamReport, Ticket,
};
pub use telemetry::{MetricsSnapshot, TelemetrySink, TraceEvent, TraceRecord};
pub use tenant::{TenantAccounts, TenantConfig, TenantDirectory};

/// Commonly used types, re-exported for `use bcc_core::prelude::*`.
pub mod prelude {
    pub use crate::algorithm::BccAlgorithm;
    pub use crate::clock::{Clock, SystemClock, VirtualClock};
    pub use crate::config::EngineConfig;
    pub use crate::cost::{CostDims, CostKind, CostModel};
    pub use crate::error::Error;
    pub use crate::latency::{LatencyPercentiles, LatencyReport};
    pub use crate::report::RoundReport;
    pub use crate::session::{LpRequest, Outcome, PreparedLaplacian, Session};
    pub use crate::stream::{BackpressurePolicy, Priority, RateLimit, StreamEngine};
    pub use crate::telemetry::{MetricsSnapshot, TelemetrySink, TraceEvent};
    pub use bcc_flow::{ssp_min_cost_max_flow, try_min_cost_max_flow_bcc, McmfOptions};
    pub use bcc_graph::{DiGraph, FlowInstance, Graph};
    pub use bcc_laplacian::LaplacianSolver;
    pub use bcc_lp::{try_lp_solve, LpInstance, LpOptions};
    pub use bcc_runtime::{Model, ModelConfig, Network, RoundLedger};
    pub use bcc_spanner::{baswana_sen_spanner, SpannerParams};
    pub use bcc_sparsifier::{sparsify_ad_hoc, SparsifierConfig};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_accumulates_cumulative_telemetry() {
        let mut session = Session::builder().seed(9).build();
        let g = bcc_graph::generators::complete(12);
        let first = session.sparsify(&g, 0.5).unwrap();
        let after_one = session.cumulative_report();
        assert_eq!(after_one.total_rounds, first.report.total_rounds);
        let second = session.sparsify(&g, 1.0).unwrap();
        let after_two = session.cumulative_report();
        assert_eq!(
            after_two.total_rounds,
            first.report.total_rounds + second.report.total_rounds
        );
    }

    #[test]
    fn algorithms_run_generically_over_one_session() {
        fn drive<A: BccAlgorithm>(
            algorithm: &A,
            session: &mut Session,
            input: &A::Input,
        ) -> (String, u64) {
            let outcome = algorithm
                .run(session, input)
                .unwrap_or_else(|e| panic!("{e}"));
            (algorithm.name().to_string(), outcome.report.total_rounds)
        }

        let mut session = Session::builder().seed(4).build();
        let graph = bcc_graph::generators::grid(3, 4);
        let mut b = vec![0.0; graph.n()];
        b[0] = 1.0;
        b[11] = -1.0;

        let (name, rounds) = drive(&SparsifyAlgorithm { epsilon: 0.5 }, &mut session, &graph);
        assert_eq!(name, "sparsify");
        assert!(rounds > 0);

        let problem = LaplacianProblem {
            graph: graph.clone(),
            b,
        };
        let (name, rounds) = drive(
            &LaplacianAlgorithm { epsilon: 1e-4 },
            &mut session,
            &problem,
        );
        assert_eq!(name, "laplacian");
        assert!(rounds > 0);

        let flow = bcc_graph::DiGraph::from_arcs(3, [(0, 1, 2, 1), (1, 2, 2, 1)]);
        let instance = bcc_graph::FlowInstance::new(flow, 0, 2);
        let (name, rounds) = drive(&McmfAlgorithm, &mut session, &instance);
        assert_eq!(name, "min-cost max-flow");
        assert!(rounds > 0);

        // All three requests accumulated on the session ledger.
        assert!(session.cumulative_report().total_rounds > 0);
        assert_eq!(
            McmfAlgorithm.theorem(),
            "Theorem 1.1 (min-cost max-flow, BCC)"
        );
    }
}
