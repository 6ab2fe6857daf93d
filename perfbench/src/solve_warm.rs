//! `solve_warm`: warm Laplacian solves through an in-process `StreamEngine`.
//!
//! Two workers; one client thread keeps four requests in flight, each with
//! a fresh seeded right-hand side. Phase A solves on the 12×12 grid
//! (light), phase B on a fixed random connected graph with 256 vertices
//! (heavy). Both graphs are preprocessed during set-up, so the measured
//! phase runs the warm Chebyshev/LU-replay path, engine dispatch and cache
//! hits, while the sparsifier, LP/flow and the wire sit idle.

use std::collections::VecDeque;
use std::time::Instant;

use bcc_core::graph::Graph;
use bcc_core::stream::{Priority, StreamEngine};
use bcc_core::Request;

use crate::gen::{self, Stream, ENGINE_SEED};
use crate::machine::{self, Reference, Sut};
use crate::meter::{self, Class, Meter};
use crate::probe::{self, Probe};
use crate::report::{Outcome, Rounds};
use crate::stats;
use crate::trace::Trace;
use crate::verify::LaplacianCheck;

const WORKERS: usize = 2;
const IN_FLIGHT: usize = 4;
/// Light requests per second of `--seconds`: the fixed work of phase A.
const LIGHT_PER_SECOND: f64 = 1500.0;
/// Heavy requests per second of `--seconds`: the fixed work of phase B.
const HEAVY_PER_SECOND: f64 = 250.0;
/// Requests per timed chunk, about a second of load each.
const LIGHT_CHUNK: u64 = 1500;
const HEAVY_CHUNK: u64 = 250;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests of the traced run's one-in-flight engine probe.
const PROBE_SOLVES: u64 = 200;
/// The engines' default accuracy, which every answer must meet.
const EPSILON: f64 = 1e-6;

struct Graphs {
    light: Graph,
    heavy: Graph,
    light_check: LaplacianCheck,
    heavy_check: LaplacianCheck,
}

impl Graphs {
    fn new() -> Self {
        let light = gen::light_graph();
        let heavy = gen::heavy_graph();
        Graphs {
            light_check: LaplacianCheck::new(&light, EPSILON),
            heavy_check: LaplacianCheck::new(&heavy, EPSILON),
            light,
            heavy,
        }
    }

    fn of(&self, class: Class) -> (&Graph, &LaplacianCheck, Stream) {
        match class {
            Class::Light => (&self.light, &self.light_check, Stream::LightRhs),
            Class::Heavy | Class::Miss => (&self.heavy, &self.heavy_check, Stream::HeavyRhs),
        }
    }
}

/// The chunks of a pass: class, first request index and request count;
/// phase A's and phase B's chunks interleaved.
fn plan(seconds: u64) -> Vec<(Class, u64, u64)> {
    let mut by_class = Vec::new();
    for (class, per_second, chunk) in [
        (Class::Light, LIGHT_PER_SECOND, LIGHT_CHUNK),
        (Class::Heavy, HEAVY_PER_SECOND, HEAVY_CHUNK),
    ] {
        let total = (seconds as f64 * per_second).round() as u64;
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < total {
            let count = chunk.min(total - start);
            chunks.push((class, start, count));
            start += count;
        }
        by_class.push(chunks);
    }
    gen::interleave(by_class)
}

/// The request stream of a run as bytes, for the determinism test.
#[cfg(test)]
pub fn stream_bytes(seed: u64, seconds: u64) -> Vec<u8> {
    let graphs = (gen::light_graph(), gen::heavy_graph());
    let mut bytes = Vec::new();
    for (class, start, count) in plan(seconds) {
        let (n, stream) = if class == Class::Light {
            (graphs.0.n(), Stream::LightRhs)
        } else {
            (graphs.1.n(), Stream::HeavyRhs)
        };
        for index in start..start + count {
            for v in gen::rhs(n, seed, stream, index) {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    bytes
}

/// Builds the engine and preprocesses both graphs through it.
fn setup(graphs: &Graphs) -> StreamEngine {
    let mut engine = StreamEngine::builder()
        .seed(ENGINE_SEED)
        .workers(WORKERS)
        .build();
    engine.serve(|client| {
        let tickets: Vec<_> = [Class::Light, Class::Heavy]
            .into_iter()
            .map(|class| {
                let (graph, _, stream) = graphs.of(class);
                let b = gen::rhs(graph.n(), 0, stream, u64::MAX);
                client
                    .submit(Request::laplacian(graph.clone(), b), Priority::Interactive)
                    .expect("an idle engine admits the warm-up")
            })
            .collect();
        for ticket in tickets {
            client.wait(ticket).expect("the warm-up solves");
        }
    });
    engine
}

/// One pass over the run's requests. With a trace, every request is a
/// `stream.request` span with `stream.submit` and `stream.wait` children.
fn pass(
    engine: &mut StreamEngine,
    graphs: &Graphs,
    seed: u64,
    seconds: u64,
    reference: &mut Reference,
    outcome: &mut Outcome,
    mut trace: Option<&mut Trace>,
) -> (Meter, Rounds) {
    let mut meter = Meter::new(Sut::InProcess);
    let mut rounds = Rounds::default();
    engine.serve(|client| {
        for (class, start, count) in plan(seconds) {
            let (graph, check, stream) = graphs.of(class);
            let id_base = if class == Class::Light { 0 } else { 1 << 32 };
            let rhs: Vec<Vec<f64>> = (start..start + count)
                .map(|i| gen::rhs(graph.n(), seed, stream, i))
                .collect();
            let mut results = Vec::with_capacity(count as usize);
            let started = meter.begin_chunk(reference);
            let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
            let mut next = 0u64;
            // A request is built as it is sent, as a client would, so that
            // only the requests in flight occupy memory.
            let submit = |trace: &mut Option<&mut Trace>, index: u64| {
                let request = Request::laplacian(graph.clone(), rhs[index as usize].clone());
                let span = trace
                    .as_deref_mut()
                    .map(|t| t.start("stream.request", id_base + index, None));
                let submitted = Instant::now();
                let sub = trace
                    .as_deref_mut()
                    .map(|t| t.start("stream.submit", id_base + index, span));
                let ticket = client.submit(request, Priority::Interactive);
                if let (Some(t), Some(sub)) = (trace.as_deref_mut(), sub) {
                    t.end(sub);
                }
                (ticket, submitted, span, index)
            };
            while next < count.min(IN_FLIGHT as u64) {
                in_flight.push_back(submit(&mut trace, next));
                next += 1;
            }
            while let Some((ticket, submitted, span, index)) = in_flight.pop_front() {
                let waited = trace
                    .as_deref_mut()
                    .map(|t| t.start("stream.wait", id_base + index, span));
                let result = ticket.and_then(|ticket| client.wait(ticket));
                let latency = submitted.elapsed();
                if let Some(t) = trace.as_deref_mut() {
                    t.end(waited.expect("traced"));
                    t.end(span.expect("traced"));
                }
                results.push((index, result, latency));
                if next < count {
                    in_flight.push_back(submit(&mut trace, next));
                    next += 1;
                }
            }
            meter.end_chunk(class, started, count);
            for (index, result, latency) in results {
                meter.latency(class, latency);
                let b = &rhs[index as usize];
                let ok = match &result {
                    Ok(done) => {
                        rounds.add(&done.report);
                        done.value
                            .as_laplacian()
                            .is_some_and(|solve| check.accepts(b, &solve.solution))
                    }
                    Err(_) => false,
                };
                outcome.check(ok);
            }
        }
        meter.finish(reference);
    });
    (meter, rounds)
}

/// Runs the workload; with `traced`, also the traced pass and the probes.
pub fn run(seed: u64, seconds: u64, traced: bool, trace: &mut Trace) -> Outcome {
    let mut outcome = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let graphs = Graphs::new();
    let mut reference = Reference::new(WORKERS);
    let buffers = machine::own_buffers_kib();
    let (setup_s, mut engine) =
        meter::timed_setups(SETUPS, &mut reference, Sut::InProcess, || setup(&graphs));
    outcome.setup_s = setup_s;

    let cache_before = engine.cache_stats();
    let ticks = machine::cpu_ticks();
    let (meter, rounds) = pass(
        &mut engine,
        &graphs,
        seed,
        seconds,
        &mut reference,
        &mut outcome,
        None,
    );
    let steal = machine::steal_pct(ticks, machine::cpu_ticks());
    let cache = engine.cache_stats();
    outcome.peak_rss_mb = machine::peak_rss_mib(buffers);
    outcome.figures = meter.figures();
    outcome.rounds = rounds;
    outcome.reference(&reference);
    if !traced {
        return outcome;
    }

    let mut layers = std::mem::take(&mut outcome.layers);
    layers.insert("machine.steal_pct".to_string(), steal);
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    layers.insert("cache.hit_ratio".into(), hits / (hits + misses).max(1.0));
    layers.insert("cache.misses".into(), misses);
    layers.insert(
        "cache.evictions".into(),
        (cache.evictions - cache_before.evictions) as f64,
    );
    outcome.rounds.layer_metrics(&mut layers);

    let (traced_meter, traced_rounds) = pass(
        &mut engine,
        &graphs,
        seed,
        seconds,
        &mut reference,
        &mut outcome,
        Some(trace),
    );
    if traced_rounds != outcome.rounds {
        outcome.problem("the traced pass charged different rounds".into());
    }
    layers.insert(
        "machine.trace_overhead_pct".into(),
        100.0 * (traced_meter.figures().wall_s / outcome.figures.wall_s - 1.0),
    );
    let submit_us: Vec<f64> = trace
        .durations_ms("stream.submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    layers.insert(
        "stream.submit_us".into(),
        stats::median(&submit_us).unwrap_or(0.0),
    );

    let probes = [
        Probe {
            graph: &graphs.light,
            check: &graphs.light_check,
            solves: Some((Stream::LightRhs, "laplacian.solve_ms")),
        },
        Probe {
            graph: &graphs.heavy,
            check: &graphs.heavy_check,
            solves: Some((Stream::HeavyRhs, "laplacian.heavy_solve_ms")),
        },
    ];
    probe::laplacian_layers(&probes, seed, trace, &mut outcome, &mut layers);

    // Engine overhead: the same light solves with one request in flight.
    let latencies = engine.serve(|client| {
        (0..PROBE_SOLVES)
            .map(|index| {
                let b = gen::rhs(graphs.light.n(), seed, Stream::LightRhs, index);
                let request = Request::laplacian(graphs.light.clone(), b.clone());
                let id = trace.start("stream.request", index, None);
                let started = Instant::now();
                let result = client
                    .submit(request, Priority::Interactive)
                    .and_then(|ticket| client.wait(ticket));
                let ms = started.elapsed().as_secs_f64() * 1e3;
                trace.end(id);
                let ok = result.is_ok_and(|done| {
                    done.value
                        .as_laplacian()
                        .is_some_and(|s| graphs.light_check.accepts(&b, &s.solution))
                });
                (ms, ok)
            })
            .collect::<Vec<_>>()
    });
    let mut one_in_flight = Vec::new();
    for (ms, ok) in latencies.value {
        outcome.check(ok);
        one_in_flight.push(ms);
    }
    layers.insert(
        "stream.overhead_ms".into(),
        stats::median(&one_in_flight).unwrap_or(0.0) - layers["laplacian.solve_ms"],
    );
    outcome.layers = layers;
    outcome
}
