//! `mcmf`: exact min-cost max-flow through `Session::min_cost_max_flow`.
//!
//! One thread solves a seeded order of fixed flow-instance pools: light
//! instances on 4 vertices and heavy ones on 5. Nearly every round and
//! nearly all time go to the Gremban SDD solves inside LP path following,
//! while the engine, the cache, the sparsifier and the wire do nothing.
//!
//! The traced run repeats the option set-up of
//! `try_min_cost_max_flow_bcc` (`crates/bcc-flow/src/mcmf.rs`) around a
//! [`GramSolver`] wrapper that times the real `SddGramSolver`, and times a
//! shadow of each Gram system split into assembly, preconditioning and
//! Chebyshev. The decomposition must reproduce the untraced rounds and
//! flows exactly, or the run fails its checks.

use std::cell::RefCell;
use std::time::Instant;

use bcc_core::flow::{
    build_flow_lp, FlowLpConfig, McmfOptions, McmfResult, SddGramSolver, WeightStrategyChoice,
};
use bcc_core::graph::FlowInstance;
use bcc_core::laplacian::{LaplacianSolver, SddMatrix};
use bcc_core::linalg::CsrMatrix;
use bcc_core::lp::gram::GramSolver;
use bcc_core::lp::lewis::LewisOptions;
use bcc_core::lp::{try_lp_solve, LpError, LpOptions, WeightStrategy};
use bcc_core::runtime::{ModelConfig, Network};
use bcc_core::Session;

use crate::gen::{self, Stream, ENGINE_SEED};
use crate::machine::{self, Reference, Sut};
use crate::meter::{self, Class, Meter};
use crate::report::{Outcome, Rounds};
use crate::stats;
use crate::trace::Trace;
use crate::verify::FlowCheck;

/// Rounds over the light (4-vertex) and heavy (5-vertex) pools per second
/// of `--seconds`: the fixed work of a run. A round sends every instance of
/// its pool once, in a seeded order, and is timed as one chunk.
const LIGHT_ROUNDS_PER_SECOND: f64 = 0.35;
const HEAVY_ROUNDS_PER_SECOND: f64 = 0.25;
/// Distinct instances in each pool. Odd pools sent equally often put each
/// median inside the middle instance's repetitions, not between two
/// instances of different size.
const LIGHT_POOL: usize = 5;
const HEAVY_POOL: usize = 3;
const SETUPS: usize = 3;
/// Accuracy of each Gram solve, as `try_min_cost_max_flow_bcc` sets it.
const GRAM_PRECISION: f64 = 1e-8;

/// A flow pool with its optima.
pub struct Pool {
    pub instances: Vec<FlowInstance>,
    pub checks: Vec<FlowCheck>,
}

impl Pool {
    pub fn new(n: usize, count: usize) -> Self {
        let instances = gen::flow_pool(n, count);
        let checks = instances.iter().map(FlowCheck::new).collect();
        Pool { instances, checks }
    }
}

/// The run's requests, class and pool index, in rounds; light and heavy
/// rounds interleaved.
fn rounds(seed: u64, seconds: u64) -> Vec<Vec<(Class, usize)>> {
    let mut by_class = Vec::new();
    for (class, pool, per_second, stream) in [
        (
            Class::Light,
            LIGHT_POOL,
            LIGHT_ROUNDS_PER_SECOND,
            Stream::LightOrder,
        ),
        (
            Class::Heavy,
            HEAVY_POOL,
            HEAVY_ROUNDS_PER_SECOND,
            Stream::HeavyOrder,
        ),
    ] {
        let count = ((seconds as f64 * per_second).round() as usize).max(1);
        let order = gen::pooled_order(pool, count, seed, stream);
        by_class.push(
            order
                .chunks(pool)
                .map(|round| round.iter().map(|&i| (class, i)).collect())
                .collect(),
        );
    }
    gen::interleave(by_class)
}

/// The request stream of a run as bytes, for the determinism test.
#[cfg(test)]
pub fn stream_bytes(seed: u64, seconds: u64) -> Vec<u8> {
    let pools = [gen::flow_pool(4, LIGHT_POOL), gen::flow_pool(5, HEAVY_POOL)];
    let mut bytes = Vec::new();
    for (class, index) in rounds(seed, seconds).concat() {
        let instance = &pools[(class == Class::Heavy) as usize][index];
        for arc in instance.graph.arcs() {
            for v in [arc.from as i64, arc.to as i64, arc.capacity, arc.cost] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    bytes
}

fn session() -> Session {
    Session::builder().seed(ENGINE_SEED).build()
}

/// The options `Session::min_cost_max_flow` derives from the session seed.
fn options() -> McmfOptions {
    McmfOptions {
        seed: ENGINE_SEED,
        ..McmfOptions::default()
    }
}

/// Checks an answer against its pool's optimum.
pub fn accepts(check: &FlowCheck, result: &McmfResult) -> bool {
    check.accepts(
        &result.flow.flow,
        result.flow.value,
        result.flow.cost,
        result.rounded_feasible,
    )
}

/// A Gram oracle that times the real `SddGramSolver` and, outside that
/// span, a shadow solve of the same system split into its three stages.
struct TimedGram {
    inner: SddGramSolver,
    trace: RefCell<Trace>,
    parent: usize,
    request: u64,
}

impl GramSolver for TimedGram {
    fn solve(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        y: &[f64],
    ) -> Result<Vec<f64>, LpError> {
        let mut trace = self.trace.borrow_mut();
        let x = trace.span("lp.gram_solve", self.request, Some(self.parent), |_, _| {
            self.inner.solve(net, a, d, y)
        })?;
        shadow(&mut trace, self.parent, self.request, net.config(), a, d, y);
        Ok(x)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The stages of `SddGramSolver::solve` on a network of their own, as
/// children of the LP solve span, so they are not the LP's self time.
fn shadow(
    trace: &mut Trace,
    parent: usize,
    request: u64,
    model: ModelConfig,
    a: &CsrMatrix,
    d: &[f64],
    y: &[f64],
) {
    let gremban = trace.span("laplacian.sdd_assemble", request, Some(parent), |_, _| {
        let mut triplets = Vec::new();
        for r in 0..a.rows() {
            let entries: Vec<(usize, f64)> = a.row(r).collect();
            for &(ci, vi) in &entries {
                for &(cj, vj) in &entries {
                    if ci <= cj {
                        triplets.push((ci, cj, d[r] * vi * vj));
                    }
                }
            }
        }
        let graph = SddMatrix::from_triplets(a.cols(), triplets)
            .ok()
            .map(|m| m.gremban_graph());
        graph.filter(|g| g.is_connected())
    });
    let Some(gremban) = gremban else {
        return;
    };
    let solver = trace.span(
        "laplacian.sdd_precondition",
        request,
        Some(parent),
        |_, _| LaplacianSolver::try_exact_preconditioner(&gremban),
    );
    let Ok(solver) = solver else {
        return;
    };
    trace.span("laplacian.sdd_chebyshev", request, Some(parent), |_, _| {
        let mut net = Network::clique(model, gremban.n());
        let mut rhs = y.to_vec();
        rhs.extend(y.iter().map(|v| -v));
        let _ = solver.try_solve(&mut net, &rhs, GRAM_PRECISION.min(0.5));
    });
}

/// `try_min_cost_max_flow_bcc` step by step, traced. Returns the rounds
/// charged and the rounded flow, or `None` when the LP fails.
pub fn decompose(
    trace: &mut Trace,
    request: u64,
    instance: &FlowInstance,
    options: &McmfOptions,
) -> Option<(u64, Vec<i64>)> {
    let root = trace.start("mcmf.request", request, None);
    let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
    net.begin_phase("mcmf");
    let flow_lp = trace.span("flow.build_lp", request, Some(root), |_, _| {
        build_flow_lp(
            instance,
            &FlowLpConfig {
                seed: options.seed,
                paper_constants: options.paper_constants,
            },
        )
    });
    let mut lp_options = LpOptions::new(options.lp_epsilon, flow_lp.lp.m(), options.seed);
    lp_options.path.max_newton_steps = options.max_newton_steps;
    match options.strategy {
        WeightStrategyChoice::Uniform => lp_options = lp_options.with_uniform_weights(),
        WeightStrategyChoice::Lewis => {
            let mut lewis = LewisOptions::laboratory(flow_lp.lp.m(), options.seed);
            lewis.iterations = 6;
            lewis.max_sketch_dimension = Some(10);
            lewis.eta = 0.5;
            lp_options.strategy = WeightStrategy::RegularizedLewis { options: lewis };
            lp_options.path.weight_refresh_sweeps = 1;
        }
    }
    let solve = trace.start("lp.solve", request, Some(root));
    let gram = TimedGram {
        inner: SddGramSolver::new(GRAM_PRECISION),
        trace: RefCell::new(std::mem::replace(trace, Trace::new(Instant::now()))),
        parent: solve,
        request,
    };
    let solution = try_lp_solve(
        &mut net,
        &flow_lp.lp,
        &flow_lp.interior_point,
        &lp_options,
        &gram,
    );
    *trace = gram.trace.into_inner();
    trace.end(solve);
    let solution = solution.ok()?;
    let flow = trace.span("flow.round", request, Some(root), |_, _| {
        instance
            .graph
            .arcs()
            .iter()
            .zip(flow_lp.edge_flows(&solution.x))
            .map(|(arc, &f)| (f.round() as i64).clamp(0, arc.capacity))
            .collect()
    });
    trace.end(root);
    Some((net.ledger().total_rounds(), flow))
}

pub fn run(seed: u64, seconds: u64, traced: bool, trace: &mut Trace) -> Outcome {
    let mut outcome = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let pools = [Pool::new(4, LIGHT_POOL), Pool::new(5, HEAVY_POOL)];
    let pool = |class: Class| &pools[(class == Class::Heavy) as usize];
    let chunks = rounds(seed, seconds);
    let requests = chunks.concat();
    // One thread solves, so one thread measures the machine.
    let mut reference = Reference::new(1);
    let buffers = machine::own_buffers_kib();

    // Set-up: a session and one cold request to warm it.
    let (setup_s, mut session) =
        meter::timed_setups(SETUPS, &mut reference, Sut::InProcess, || {
            let mut session = session();
            let warm = session.min_cost_max_flow(&pool(Class::Light).instances[0]);
            assert!(warm.is_ok(), "the warm-up instance solves");
            session
        });
    outcome.setup_s = setup_s;

    let ticks = machine::cpu_ticks();
    let mut meter = Meter::new(Sut::InProcess);
    let mut charged = Rounds::default();
    // Per request, in sending order: its answer and its latency in ms.
    let mut results: Vec<(Option<McmfResult>, f64)> = Vec::with_capacity(requests.len());
    for chunk in &chunks {
        let started = meter.begin_chunk(&mut reference);
        let mut done = Vec::with_capacity(chunk.len());
        for &(class, index) in chunk {
            let t = Instant::now();
            let result = session.min_cost_max_flow(&pool(class).instances[index]);
            done.push((class, index, result, t.elapsed()));
        }
        meter.end_chunk(chunk[0].0, started, chunk.len() as u64);
        for (class, index, result, latency) in done {
            meter.latency(class, latency);
            let ok = match &result {
                Ok(solved) => {
                    charged.add(&solved.report);
                    accepts(&pool(class).checks[index], &solved.value)
                }
                Err(_) => false,
            };
            outcome.check(ok);
            results.push((result.ok().map(|o| o.value), latency.as_secs_f64() * 1e3));
        }
    }
    meter.finish(&mut reference);
    let steal = machine::steal_pct(ticks, machine::cpu_ticks());
    outcome.peak_rss_mb = machine::peak_rss_mib(buffers);
    outcome.figures = meter.figures();
    outcome.rounds = charged;
    outcome.reference(&reference);
    if !traced {
        return outcome;
    }

    let mut layers = std::mem::take(&mut outcome.layers);
    layers.insert("machine.steal_pct".to_string(), steal);
    outcome.rounds.layer_metrics(&mut layers);
    let solved: Vec<&McmfResult> = results.iter().filter_map(|r| r.0.as_ref()).collect();
    layers.insert(
        "lp.path_iterations".into(),
        solved.iter().map(|r| r.path_iterations as f64).sum::<f64>() / solved.len().max(1) as f64,
    );

    // The traced pass: each distinct instance once, decomposed. An
    // instance's work is fixed, so every untraced copy must match it.
    let options = options();
    let mut light_ids = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
    for (class, size, first_id) in [
        (Class::Light, LIGHT_POOL, 0),
        (Class::Heavy, HEAVY_POOL, LIGHT_POOL),
    ] {
        for index in 0..size {
            let id = (first_id + index) as u64;
            let started = Instant::now();
            let decomposed = decompose(trace, id, &pool(class).instances[index], &options);
            traced_ms += started.elapsed().as_secs_f64() * 1e3;
            let copies: Vec<&(Option<McmfResult>, f64)> = requests
                .iter()
                .zip(&results)
                .filter(|(request, _)| **request == (class, index))
                .map(|(_, result)| result)
                .collect();
            untraced_ms += copies.iter().map(|c| c.1).sum::<f64>() / copies.len().max(1) as f64;
            let same = !copies.is_empty()
                && copies.iter().all(|(untraced, _)| {
                    reproduces(
                        decomposed.as_ref(),
                        untraced.as_ref().map(|r| (r.rounds, &r.flow.flow[..])),
                    )
                });
            if !same {
                outcome.problem(format!(
                    "the traced decomposition of {class:?} instance {index} differs from the untraced run"
                ));
            }
            if class == Class::Light {
                light_ids.push(id);
            }
        }
    }
    let shadow_ms = decomposition_layers(trace, &light_ids, &mut layers);
    layers.insert(
        "machine.trace_overhead_pct".into(),
        100.0 * ((traced_ms - shadow_ms) / untraced_ms - 1.0),
    );
    outcome.layers = layers;
    outcome
}

/// Whether a decomposition charged the untraced rounds and found its flow.
pub fn reproduces(decomposed: Option<&(u64, Vec<i64>)>, untraced: Option<(u64, &[i64])>) -> bool {
    match (decomposed, untraced) {
        (Some((rounds, flow)), Some((untraced_rounds, untraced_flow))) => {
            *rounds == untraced_rounds && flow[..] == *untraced_flow
        }
        _ => false,
    }
}

/// The `lp.*` and `laplacian.sdd_*` metrics of decomposed requests: per
/// request of `requests`, the median of its layer totals, and the mean
/// number of Gram-oracle calls (Lewis-weight and leverage-score sketches
/// included). Returns the total shadow time in ms, which is not overhead.
pub fn decomposition_layers(
    trace: &Trace,
    requests: &[u64],
    layers: &mut std::collections::BTreeMap<String, f64>,
) -> f64 {
    let median_of = |by_request: Vec<(u64, f64)>| {
        let values: Vec<f64> = by_request
            .into_iter()
            .filter(|(r, _)| requests.contains(r))
            .map(|(_, ms)| ms)
            .collect();
        stats::median(&values).unwrap_or(0.0)
    };
    layers.insert(
        "lp.gram_solve_ms".into(),
        median_of(trace.total_ms_by_request("lp.gram_solve")),
    );
    layers.insert(
        "lp.other_ms".into(),
        median_of(trace.self_ms_by_request("lp.solve")),
    );
    let calls = trace
        .spans()
        .iter()
        .filter(|s| s.name == "lp.gram_solve" && requests.contains(&s.request))
        .count();
    layers.insert(
        "lp.gram_solves".into(),
        calls as f64 / requests.len().max(1) as f64,
    );
    let mut shadow_ms = 0.0;
    for (span, metric) in [
        ("laplacian.sdd_assemble", "laplacian.sdd_assemble_ms"),
        (
            "laplacian.sdd_precondition",
            "laplacian.sdd_precondition_ms",
        ),
        ("laplacian.sdd_chebyshev", "laplacian.sdd_chebyshev_ms"),
    ] {
        layers.insert(metric.into(), median_of(trace.total_ms_by_request(span)));
        shadow_ms += trace.durations_ms(span).iter().sum::<f64>();
    }
    shadow_ms
}
