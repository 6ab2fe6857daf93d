//! Outside-in probes of the Laplacian layers, on one thread, for the traced
//! invocations of `solve_warm` and `served_mix`.

use std::collections::BTreeMap;

use bcc_core::graph::Graph;
use bcc_core::laplacian::ScratchArena;
use bcc_core::runtime::{ModelConfig, Network};
use bcc_core::sparsifier::{try_sparsify_ad_hoc, SparsifierConfig};
use bcc_core::Session;

use crate::gen::{self, Stream, ENGINE_SEED};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{Trace, NO_REQUEST};
use crate::verify::LaplacianCheck;

/// Timed solves per probed graph.
const SOLVES: u64 = 200;

/// One graph of a workload. `solves` names the right-hand-side stream and
/// the metric of its timed solves, for graphs whose solves are probed.
pub struct Probe<'a> {
    pub graph: &'a Graph,
    pub check: &'a LaplacianCheck,
    pub solves: Option<(Stream, &'static str)>,
}

/// Times `Session::laplacian(g).preprocess()` and `try_sparsify_ad_hoc`
/// with the configuration the session uses, summed over the graphs into
/// `laplacian.preprocess_ms` and `sparsifier.ms`, and the median of
/// `PreparedLaplacian::solve_shared` into each probe's solve metric
/// (`laplacian.solve_ms` also reports `laplacian.iterations`). Every answer
/// is checked.
pub fn laplacian_layers(
    probes: &[Probe<'_>],
    seed: u64,
    trace: &mut Trace,
    outcome: &mut Outcome,
    layers: &mut BTreeMap<String, f64>,
) {
    let mut preprocess_ms = 0.0;
    let mut sparsify_ms = 0.0;
    for probe in probes {
        let graph = probe.graph;
        let session = Session::builder().seed(ENGINE_SEED).build();
        let prepared = trace.span("laplacian.preprocess", NO_REQUEST, None, |_, _| {
            session.laplacian(graph).preprocess()
        });
        preprocess_ms += trace.spans().last().map_or(0.0, |s| s.ms());
        let config = SparsifierConfig::laboratory(graph.n(), graph.m().max(2), 0.5, ENGINE_SEED)
            .with_t(6)
            .with_k(2);
        let sparsified = trace.span("sparsifier.sparsify", NO_REQUEST, None, |_, _| {
            let mut net = Network::clique(ModelConfig::bcc(), graph.n());
            try_sparsify_ad_hoc(&mut net, graph, &config)
        });
        sparsify_ms += trace.spans().last().map_or(0.0, |s| s.ms());
        if sparsified.is_err() {
            outcome.problem("the sparsifier probe failed".into());
        }
        let Ok(prepared) = prepared else {
            outcome.problem("the preprocessing probe failed".into());
            continue;
        };
        let Some((stream, metric)) = probe.solves else {
            continue;
        };
        let mut arena = ScratchArena::new();
        let mut solve_ms = Vec::with_capacity(SOLVES as usize);
        for index in 0..SOLVES {
            let b = gen::rhs(graph.n(), seed, stream, index);
            let solved = trace.span("laplacian.solve", index, None, |_, _| {
                prepared.solve_shared(&b, None, &mut arena)
            });
            solve_ms.push(trace.spans().last().map_or(0.0, |s| s.ms()));
            let ok = solved.is_ok_and(|done| {
                if metric == "laplacian.solve_ms" {
                    layers.insert("laplacian.iterations".into(), done.value.iterations as f64);
                }
                probe.check.accepts(&b, &done.value.solution)
            });
            outcome.check(ok);
        }
        layers.insert(metric.into(), stats::median(&solve_ms).unwrap_or(0.0));
    }
    layers.insert("laplacian.preprocess_ms".into(), preprocess_ms);
    layers.insert("sparsifier.ms".into(), sparsify_ms);
}
