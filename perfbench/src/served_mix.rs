//! `served_mix`: two tenants of a spawned `bcc-served` daemon, driven
//! through `bcc-client`.
//!
//! The daemon runs 2 workers and an LRU cache of 2 prepared graphs. One
//! client process opens two tenant connections on two threads, each a
//! closed loop with one request in flight. The interactive tenant solves on
//! a hot 12×12 grid, and every 8th request goes to one of three rotating
//! graphs on 100 vertices, so it always misses the cache, evicts and pays
//! preprocessing. The bulk tenant sends 4-vertex min-cost max-flow
//! requests, each with explicit `McmfOptions`, so no result depends on how
//! the two connections interleave.
//!
//! `latency_p50_ms` is the interactive hits' median, the tail the
//! interactive requests' p99 (the misses), `heavy_latency_p50_ms` the bulk
//! median.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bcc_client::wire::{decode_msg, encode_msg, ClientMsg, ServerMsg};
use bcc_client::{
    EngineConfig, ServedClient, WireError, WireFlowInstance, WireGraph, WireMcmfOptions,
    WireOutcome, WireRequest, WireResponse,
};
use bcc_core::flow::McmfOptions;
use bcc_core::graph::Graph;
use bcc_core::stream::{Priority, StreamClient, StreamEngineBuilder, StreamReport};
use bcc_core::Response;

use crate::gen::{self, Stream, ENGINE_SEED};
use crate::machine::{self, Reference, Sut};
use crate::mcmf::{self, Pool};
use crate::meter::{self, Class, Meter};
use crate::probe::{self, Probe};
use crate::report::{Outcome, Rounds};
use crate::stats;
use crate::trace::{Trace, NO_REQUEST};
use crate::verify::LaplacianCheck;

const WORKERS: usize = 2;
const CACHE_CAPACITY: usize = 2;
/// Every `MISS_EVERY`-th interactive request goes to a rotating graph.
const MISS_EVERY: u64 = 8;
/// Distinct bulk flow instances. An odd pool sent equally often puts the
/// bulk median inside the middle instance's repetitions.
const BULK_POOL: usize = 3;
/// Requests of each tenant per timed chunk, a round over the bulk pool;
/// a run has `--seconds` chunks.
const INTERACTIVE_CHUNK: u64 = 128;
const BULK_CHUNK: u64 = BULK_POOL as u64;
const SETUPS: usize = 3;
/// Interactive requests replayed in-process for `client.wire_overhead_ms`.
const REPLAY: u64 = 256;
/// Repetitions of the encode and decode probes.
const PROBES: usize = 200;
const EPSILON: f64 = 1e-6;
/// How long the daemon may take to bind its socket or to exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(20);

/// The bulk tenant's tag in request ids; interactive ids are their index.
const BULK_ID: u64 = 1 << 32;

struct Inputs {
    /// The hot grid, then the rotating graphs.
    graphs: Vec<Graph>,
    wire_graphs: Vec<WireGraph>,
    checks: Vec<LaplacianCheck>,
    bulk: Pool,
}

impl Inputs {
    fn new() -> Self {
        let mut graphs = vec![gen::light_graph()];
        graphs.extend(gen::rotating_graphs());
        Inputs {
            wire_graphs: graphs.iter().map(WireGraph::from_graph).collect(),
            checks: graphs
                .iter()
                .map(|g| LaplacianCheck::new(g, EPSILON))
                .collect(),
            graphs,
            bulk: Pool::new(4, BULK_POOL),
        }
    }
}

/// Which graph interactive request `index` solves on: 0 is the hot grid.
fn graph_of(index: u64) -> usize {
    if index % MISS_EVERY == MISS_EVERY - 1 {
        1 + ((index / MISS_EVERY) % 3) as usize
    } else {
        0
    }
}

fn interactive_rhs(inputs: &Inputs, seed: u64, index: u64) -> Vec<f64> {
    let n = inputs.graphs[graph_of(index)].n();
    gen::rhs(n, seed, Stream::LightRhs, index)
}

fn interactive_request(inputs: &Inputs, seed: u64, index: u64) -> WireRequest {
    WireRequest::Laplacian {
        graph: inputs.wire_graphs[graph_of(index)].clone(),
        b: interactive_rhs(inputs, seed, index),
        epsilon: None,
    }
}

/// Explicit options, so the daemon derives nothing from submission order.
fn bulk_options(pool_index: usize) -> McmfOptions {
    McmfOptions {
        seed: ENGINE_SEED + pool_index as u64,
        ..McmfOptions::default()
    }
}

fn bulk_request(inputs: &Inputs, pool_index: usize) -> WireRequest {
    WireRequest::MinCostMaxFlow {
        instance: WireFlowInstance::from_instance(&inputs.bulk.instances[pool_index]),
        options: Some(WireMcmfOptions::from_options(&bulk_options(pool_index))),
    }
}

/// One round over the bulk pool per chunk.
fn bulk_order(seed: u64, seconds: u64) -> Vec<usize> {
    gen::pooled_order(BULK_POOL, seconds as usize, seed, Stream::HeavyOrder)
}

/// The request stream of a run as the bytes sent, for the determinism test.
#[cfg(test)]
pub fn stream_bytes(seed: u64, seconds: u64) -> Vec<u8> {
    let inputs = Inputs::new();
    let mut bytes = Vec::new();
    for index in 0..seconds * INTERACTIVE_CHUNK {
        let msg = ClientMsg::Submit {
            request: interactive_request(&inputs, seed, index),
            deadline_ms: None,
        };
        bytes.extend(encode_msg(&msg).expect("requests encode"));
    }
    for pool_index in bulk_order(seed, seconds) {
        let msg = ClientMsg::Submit {
            request: bulk_request(&inputs, pool_index),
            deadline_ms: None,
        };
        bytes.extend(encode_msg(&msg).expect("requests encode"));
    }
    bytes
}

/// Whether a wire answer to interactive request `index` is right.
fn interactive_ok(inputs: &Inputs, seed: u64, index: u64, outcome: &WireOutcome) -> bool {
    match &outcome.value {
        WireResponse::Laplacian { solution, .. } => {
            inputs.checks[graph_of(index)].accepts(&interactive_rhs(inputs, seed, index), solution)
        }
        _ => false,
    }
}

/// Whether a wire answer to a bulk request on pool entry `pool_index` is
/// right.
fn bulk_ok(inputs: &Inputs, pool_index: usize, outcome: &WireOutcome) -> bool {
    match &outcome.value {
        WireResponse::MinCostMaxFlow {
            flow,
            value,
            cost,
            rounded_feasible,
            ..
        } => inputs.bulk.checks[pool_index].accepts(flow, *value, *cost, *rounded_feasible),
        _ => false,
    }
}

/// A running daemon with both tenants connected.
struct Daemon {
    child: Child,
    socket: PathBuf,
    interactive: Option<ServedClient>,
    bulk: Option<ServedClient>,
    connect_ms: Vec<f64>,
}

impl Daemon {
    /// Spawns the daemon, connects both tenants and warms the hot graph.
    fn start(bin: &Path, config: &Path, socket: PathBuf, inputs: &Inputs) -> Result<Self, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--config")
            .arg(config)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            socket,
            interactive: None,
            bulk: None,
            connect_ms: Vec::new(),
        };
        // The socket file appears at bind, a moment before the daemon
        // listens, so a refused connection is retried until the deadline.
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match std::os::unix::net::UnixStream::connect(&daemon.socket) {
                Ok(_) => break,
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("the daemon does not accept connections: {e}"))
                }
                Err(_) if daemon.child.try_wait().ok().flatten().is_some() => {
                    return Err("the daemon exited at start".into())
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        for tenant in ["interactive", "bulk"] {
            let started = Instant::now();
            let client = ServedClient::connect(&daemon.socket, tenant)
                .map_err(|e| format!("cannot connect tenant {tenant}: {e}"))?;
            daemon
                .connect_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            match tenant {
                "interactive" => daemon.interactive = Some(client),
                _ => daemon.bulk = Some(client),
            }
        }
        let client = daemon.interactive.as_mut().expect("connected");
        let warm = client
            .submit(interactive_request(inputs, 0, 0))
            .and_then(|ticket| client.wait(ticket))
            .map_err(|e| format!("the warm-up failed: {e}"))?;
        if !interactive_ok(inputs, 0, 0, &warm) {
            return Err("the warm-up answer is wrong".into());
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Shuts the daemon down gracefully and returns its final report.
    fn stop(mut self) -> Result<StreamReport, String> {
        drop(self.bulk.take());
        let report = self
            .interactive
            .take()
            .expect("connected")
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(report),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("the daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.interactive.take());
        drop(self.bulk.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One tenant's answers: request index, latency, result.
type Answers = Vec<(u64, Duration, Result<WireOutcome, WireError>)>;

/// One closed-loop request: `client.request` with `client.submit` and
/// `client.wait` children when traced.
fn call(
    client: &mut ServedClient,
    request: WireRequest,
    id: u64,
    trace: &mut Option<Trace>,
) -> (Duration, Result<WireOutcome, WireError>) {
    let root = trace.as_mut().map(|t| t.start("client.request", id, None));
    let started = Instant::now();
    let sub = trace.as_mut().map(|t| t.start("client.submit", id, root));
    let ticket = client.submit(request);
    if let (Some(t), Some(sub)) = (trace.as_mut(), sub) {
        t.end(sub);
    }
    let waited = trace.as_mut().map(|t| t.start("client.wait", id, root));
    let result = ticket.and_then(|ticket| client.wait(ticket));
    let latency = started.elapsed();
    if let (Some(t), Some(waited), Some(root)) = (trace.as_mut(), waited, root) {
        t.end(waited);
        t.end(root);
    }
    (latency, result)
}

/// One pass: `--seconds` chunks of load, both tenants released together
/// at each chunk start, the reference kernel run while the daemon idles.
fn pass(
    daemon: &mut Daemon,
    inputs: &Inputs,
    seed: u64,
    seconds: u64,
    reference: &mut Reference,
    outcome: &mut Outcome,
    trace: Option<&mut Trace>,
) -> (Meter, Rounds, Vec<WireOutcome>, Vec<Option<WireOutcome>>) {
    let mut meter = Meter::new(Sut::Process(daemon.pid()));
    let barrier = Barrier::new(3);
    let order = bulk_order(seed, seconds);
    let forks = trace.as_ref().map(|t| (t.fork(), t.fork()));
    let (interactive_trace, bulk_trace) = match forks {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    let interactive = daemon.interactive.as_mut().expect("connected");
    let bulk = daemon.bulk.as_mut().expect("connected");
    let ((mut answers, interactive_trace), (bulk_answers, bulk_trace)) = std::thread::scope(|s| {
        let barrier = &barrier;
        let order = &order;
        let interactive = s.spawn(move || {
            let mut trace = interactive_trace;
            let mut answers: Answers = Vec::new();
            for chunk in 0..seconds as usize {
                barrier.wait();
                let first = chunk as u64 * INTERACTIVE_CHUNK;
                for index in first..first + INTERACTIVE_CHUNK {
                    let request = interactive_request(inputs, seed, index);
                    let (latency, result) = call(interactive, request, index, &mut trace);
                    answers.push((index, latency, result));
                }
                barrier.wait();
            }
            (answers, trace)
        });
        let bulk = s.spawn(move || {
            let mut trace = bulk_trace;
            let mut answers: Answers = Vec::new();
            for chunk in 0..seconds as usize {
                barrier.wait();
                let first = chunk as u64 * BULK_CHUNK;
                for index in first..first + BULK_CHUNK {
                    let request = bulk_request(inputs, order[index as usize]);
                    let (latency, result) = call(bulk, request, BULK_ID + index, &mut trace);
                    answers.push((index, latency, result));
                }
                barrier.wait();
            }
            (answers, trace)
        });
        for _ in 0..seconds {
            meter.begin_chunk(reference);
            barrier.wait();
            let started = Instant::now();
            barrier.wait();
            // Every chunk carries the same mix, so all are of one kind.
            meter.end_chunk(Class::Light, started, INTERACTIVE_CHUNK + BULK_CHUNK);
        }
        meter.finish(reference);
        (
            interactive.join().expect("the interactive tenant thread"),
            bulk.join().expect("the bulk tenant thread"),
        )
    });
    if let Some(trace) = trace {
        trace.absorb(interactive_trace.expect("traced"));
        trace.absorb(bulk_trace.expect("traced"));
    }

    let mut rounds = Rounds::default();
    let mut hits = Vec::new();
    for (index, latency, result) in answers.drain(..) {
        let miss = graph_of(index) != 0;
        meter.latency(if miss { Class::Miss } else { Class::Light }, latency);
        let ok = result
            .as_ref()
            .is_ok_and(|done| interactive_ok(inputs, seed, index, done));
        if let Ok(done) = result {
            rounds.add(&done.report);
            if !miss && hits.len() < 64 {
                hits.push(done);
            }
        }
        outcome.check(ok);
    }
    let mut by_pool = vec![None; BULK_POOL];
    for (index, latency, result) in bulk_answers {
        meter.latency(Class::Heavy, latency);
        let pool_index = order[index as usize];
        let ok = result
            .as_ref()
            .is_ok_and(|done| bulk_ok(inputs, pool_index, done));
        if let Ok(done) = result {
            rounds.add(&done.report);
            by_pool[pool_index].get_or_insert(done);
        }
        outcome.check(ok);
    }
    (meter, rounds, hits, by_pool)
}

/// Runs the workload; with `traced`, also the traced pass and the probes.
pub fn run(
    bin: &Path,
    out_dir: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace: &mut Trace,
) -> Result<Outcome, String> {
    if !bin.is_file() {
        return Err(format!("no daemon binary at {}", bin.display()));
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let config = EngineConfig {
        seed: ENGINE_SEED,
        epsilon: EPSILON,
        workers: Some(WORKERS),
        cache_capacity: Some(CACHE_CAPACITY),
        ..EngineConfig::default()
    };
    let tag = std::process::id();
    let config_path = out_dir.join(format!("served-{tag}.json"));
    std::fs::write(
        &config_path,
        serde_json::to_string_pretty(&config).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("cannot write {}: {e}", config_path.display()))?;
    let result = measure(
        bin,
        out_dir,
        &config,
        &config_path,
        seed,
        seconds,
        traced,
        trace,
    );
    let _ = std::fs::remove_file(&config_path);
    result
}

fn measure(
    bin: &Path,
    out_dir: &Path,
    config: &EngineConfig,
    config_path: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace: &mut Trace,
) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let inputs = Inputs::new();
    let tag = std::process::id();
    let mut started_daemons = 0;
    let mut start = |inputs: &Inputs| {
        started_daemons += 1;
        let socket = out_dir.join(format!("served-{tag}-{started_daemons}.sock"));
        Daemon::start(bin, config_path, socket, inputs)
    };

    let mut reference = Reference::new(WORKERS);
    let mut connect_ms = Vec::new();
    let (setup_s, daemon) = meter::timed_setups(SETUPS, &mut reference, Sut::InProcess, || {
        let daemon = start(&inputs);
        if let Ok(d) = &daemon {
            connect_ms.extend_from_slice(&d.connect_ms);
        }
        daemon
    });
    let mut daemon = daemon?;
    outcome.setup_s = setup_s;
    let pid = daemon.pid();

    let counters = |daemon: &mut Daemon| {
        daemon
            .interactive
            .as_mut()
            .expect("connected")
            .telemetry_snapshot()
            .map(|s| {
                ["cache.hits", "cache.misses", "cache.evictions"].map(|name| s.counter(name) as f64)
            })
    };
    let before = if traced {
        counters(&mut daemon).ok()
    } else {
        None
    };
    let ticks = machine::cpu_ticks();
    let cpu_before = machine::process_cpu_ms(pid);
    let (meter, rounds, hits, bulk_by_pool) = pass(
        &mut daemon,
        &inputs,
        seed,
        seconds,
        &mut reference,
        &mut outcome,
        None,
    );
    let cpu_ms = machine::process_cpu_ms(pid) - cpu_before;
    let steal = machine::steal_pct(ticks, machine::cpu_ticks());
    outcome.peak_rss_mb = machine::vm_hwm_kib(Some(pid)) as f64 / 1024.0;
    let threads = machine::threads(pid);
    let after = if traced {
        counters(&mut daemon).ok()
    } else {
        None
    };
    let report = daemon.stop()?;
    if report.failures != 0 {
        outcome.problem(format!(
            "the daemon reports {} failed requests",
            report.failures
        ));
    }
    outcome.figures = meter.figures();
    outcome.rounds = rounds;
    outcome.reference(&reference);
    if !traced {
        return Ok(outcome);
    }

    let mut layers = std::mem::take(&mut outcome.layers);
    layers.insert("machine.steal_pct".into(), steal);
    outcome.rounds.layer_metrics(&mut layers);
    let requests = outcome.figures.requests as f64;
    layers.insert("served.cpu_ms_per_request".into(), cpu_ms / requests);
    layers.insert("served.threads".into(), threads as f64);
    if let (Some([h0, m0, e0]), Some([h1, m1, e1])) = (before, after) {
        let (hits, misses) = (h1 - h0, m1 - m0);
        layers.insert("cache.hit_ratio".into(), hits / (hits + misses).max(1.0));
        layers.insert("cache.misses".into(), misses);
        layers.insert("cache.evictions".into(), e1 - e0);
    } else {
        outcome.problem("no telemetry snapshot from the daemon".into());
    }
    layers.insert(
        "client.connect_ms".into(),
        stats::median(&connect_ms).unwrap_or(0.0),
    );

    // The traced pass, on a fresh daemon so the cache starts as it did.
    let mut daemon = start(&inputs)?;
    let (traced_meter, traced_rounds, _, _) = pass(
        &mut daemon,
        &inputs,
        seed,
        seconds,
        &mut reference,
        &mut outcome,
        Some(trace),
    );
    daemon.stop()?;
    if traced_rounds != outcome.rounds {
        outcome.problem("the traced pass charged different rounds".into());
    }
    layers.insert(
        "machine.trace_overhead_pct".into(),
        100.0 * (traced_meter.figures().wall_s / outcome.figures.wall_s - 1.0),
    );
    let hit_median = |name: &str| {
        let ms: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == name && s.request < BULK_ID && graph_of(s.request) == 0)
            .map(|s| s.ms())
            .collect();
        stats::median(&ms).unwrap_or(0.0)
    };
    layers.insert("client.submit_ms".into(), hit_median("client.submit"));
    layers.insert("client.wait_ms".into(), hit_median("client.wait"));

    // Encoding and decoding of the workload's own messages.
    if let Some(done) = hits.first() {
        let submit = ClientMsg::Submit {
            request: interactive_request(&inputs, seed, 0),
            deadline_ms: None,
        };
        let reply = ServerMsg::Done {
            ticket: 0,
            outcome: done.clone(),
        };
        let request_bytes = encode_msg(&submit).map_err(|e| e.to_string())?;
        let response_bytes = encode_msg(&reply).map_err(|e| e.to_string())?;
        layers.insert("client.request_bytes".into(), request_bytes.len() as f64);
        layers.insert("client.response_bytes".into(), response_bytes.len() as f64);
        let mut encode_us = Vec::with_capacity(PROBES);
        let mut decode_us = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            let encoded = trace.span("client.encode", NO_REQUEST, None, |_, _| {
                encode_msg(&submit)
            });
            encode_us.push(trace.spans().last().map_or(0.0, |s| s.ms() * 1e3));
            let decoded = trace.span("client.decode", NO_REQUEST, None, |_, _| {
                decode_msg::<ServerMsg>(&response_bytes)
            });
            decode_us.push(trace.spans().last().map_or(0.0, |s| s.ms() * 1e3));
            if encoded.as_ref() != Ok(&request_bytes) || !decoded.is_ok_and(|msg| msg == reply) {
                outcome.problem("a message did not encode or decode to itself".into());
                break;
            }
        }
        layers.insert(
            "client.encode_us".into(),
            stats::median(&encode_us).unwrap_or(0.0),
        );
        layers.insert(
            "client.decode_us".into(),
            stats::median(&decode_us).unwrap_or(0.0),
        );
    }

    // The interactive stream replayed in-process on the handshake config,
    // beside a bulk loop as on the wire.
    let in_process = replay(&inputs, seed, config, trace, &mut outcome);
    layers.insert(
        "client.wire_overhead_ms".into(),
        outcome.figures.latency_p50_ms - in_process,
    );

    probes(
        &inputs,
        seed,
        &bulk_by_pool,
        trace,
        &mut outcome,
        &mut layers,
    );
    outcome.layers = layers;
    Ok(outcome)
}

/// Median in-process latency of the first [`REPLAY`] interactive hits, ms.
fn replay(
    inputs: &Inputs,
    seed: u64,
    config: &EngineConfig,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> f64 {
    let mut engine = match StreamEngineBuilder::from_config(config.clone()) {
        Ok(builder) => builder.build(),
        Err(e) => {
            outcome.problem(format!(
                "the handshake config does not build an engine: {e}"
            ));
            return 0.0;
        }
    };
    let to_request = |request: WireRequest| {
        request
            .into_request()
            .expect("generated requests are valid")
    };
    let done = AtomicBool::new(false);
    let served = engine.serve(|client: &StreamClient<'_>| {
        std::thread::scope(|s| {
            let bulk = s.spawn(|| {
                let mut answers = Vec::new();
                let mut index = 0;
                while !done.load(Ordering::SeqCst) {
                    let pool_index = index % BULK_POOL;
                    let result = client
                        .submit(to_request(bulk_request(inputs, pool_index)), Priority::Bulk)
                        .and_then(|ticket| client.wait(ticket));
                    answers.push((pool_index, result));
                    index += 1;
                }
                answers
            });
            let mut hits = Vec::new();
            let mut answers = Vec::new();
            for index in 0..REPLAY {
                let request = to_request(interactive_request(inputs, seed, index));
                let id = trace.start("stream.request", index, None);
                let started = Instant::now();
                let result = client
                    .submit(request, Priority::Interactive)
                    .and_then(|ticket| client.wait(ticket));
                let ms = started.elapsed().as_secs_f64() * 1e3;
                trace.end(id);
                if graph_of(index) == 0 {
                    hits.push(ms);
                }
                answers.push((index, result));
            }
            done.store(true, Ordering::SeqCst);
            (hits, answers, bulk.join().expect("the bulk replay thread"))
        })
    });
    let (hits, answers, bulk_answers) = served.value;
    for (index, result) in answers {
        let ok = result.is_ok_and(|o| match o.value {
            Response::Laplacian(solve) => inputs.checks[graph_of(index)]
                .accepts(&interactive_rhs(inputs, seed, index), &solve.solution),
            _ => false,
        });
        outcome.check(ok);
    }
    for (pool_index, result) in bulk_answers {
        let ok = result.is_ok_and(|o| match o.value {
            Response::MinCostMaxFlow(flow) => mcmf::accepts(&inputs.bulk.checks[pool_index], &flow),
            _ => false,
        });
        outcome.check(ok);
    }
    stats::median(&hits).unwrap_or(0.0)
}

/// Outside-in probes of the layers below the daemon, one thread.
fn probes(
    inputs: &Inputs,
    seed: u64,
    bulk_by_pool: &[Option<WireOutcome>],
    trace: &mut Trace,
    outcome: &mut Outcome,
    layers: &mut BTreeMap<String, f64>,
) {
    // The hot grid's solves; every graph's preprocessing, as a miss pays it.
    let probes: Vec<Probe<'_>> = inputs
        .graphs
        .iter()
        .zip(&inputs.checks)
        .enumerate()
        .map(|(g, (graph, check))| Probe {
            graph,
            check,
            solves: (g == 0).then_some((Stream::LightRhs, "laplacian.solve_ms")),
        })
        .collect();
    probe::laplacian_layers(&probes, seed, trace, outcome, layers);

    // Each bulk pool entry once, decomposed and compared with its first
    // answer on the wire.
    let mut ids = Vec::with_capacity(BULK_POOL);
    let mut path_iterations = 0;
    for pool_index in 0..BULK_POOL {
        let id = BULK_ID + (1 << 16) + pool_index as u64;
        let instance = &inputs.bulk.instances[pool_index];
        let options = bulk_options(pool_index);
        let untraced = bulk_by_pool[pool_index]
            .as_ref()
            .and_then(|done| match &done.value {
                WireResponse::MinCostMaxFlow {
                    rounds,
                    flow,
                    path_iterations: iterations,
                    ..
                } => {
                    path_iterations += iterations;
                    Some((*rounds, &flow[..]))
                }
                _ => None,
            });
        let decomposed = mcmf::decompose(trace, id, instance, &options);
        if !mcmf::reproduces(decomposed.as_ref(), untraced) {
            outcome.problem(format!(
                "the traced decomposition of bulk instance {pool_index} differs from its solve"
            ));
        }
        ids.push(id);
    }
    mcmf::decomposition_layers(trace, &ids, layers);
    layers.insert(
        "lp.path_iterations".into(),
        path_iterations as f64 / BULK_POOL as f64,
    );
}
