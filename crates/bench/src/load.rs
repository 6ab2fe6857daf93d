//! The declarative load harness: scenario-driven traffic over the four
//! pipeline kinds, simulated on a virtual clock, reported as per-class
//! latency percentiles, with a ramp mode that binary-searches the maximum
//! sustainable arrival rate.
//!
//! # What a scenario is
//!
//! A [`Scenario`] is a serde document (schema tag `bcc-load-scenario/v1`;
//! the committed library lives in `scenarios/` at the repository root)
//! naming a request mix over the four pipeline kinds. Each [`ClassSpec`]
//! binds one scheduling class (a [`Priority`] label: `"interactive"`,
//! `"bulk"`, `"custom-<id>"`) to
//!
//! * a WFQ `weight`, an optional token-bucket `rate_limit` and an optional
//!   relative `deadline_ms` — exactly the per-class knobs of the real
//!   [`bcc_core::StreamEngine`];
//! * an [`Arrival`] process: open-loop Poisson at a mean rate, a constant
//!   (evenly spaced) rate, or periodic bursts with optional jitter;
//! * a [`RequestSpec`]: the pipeline kind and instance shape whose *measured*
//!   round cost the class's jobs charge (see "Demand profiling" below).
//!
//! Scenario-level fields size the simulated plant: `workers` parallel
//! servers (optionally elastic up to `max_workers`: the pool grows when the
//! queued backlog cost exceeds what the current workers drain within the
//! resize horizon and parks back down when the queue empties — the engine's
//! own rule, [`bcc_core::wfq::WfqQueue::desired_workers`]),
//! `service_rounds_per_ms` (how many rounds one server retires per
//! simulated millisecond), a bounded admission queue
//! (`queue_capacity`, `0` = unbounded) and a bounded preprocessing cache
//! (`cache_capacity` slots, `0` = unbounded) that Laplacian topologies
//! churn through. The simulator decides nothing the engine decides
//! differently: the cache evicts through the engine's
//! [`bcc_core::cache::Lru`], and a deadline is infeasible at admission by
//! the engine's [`bcc_core::wfq::WfqQueue::infeasible_wait`], both at the
//! scenario's fixed service rate. A simulated server holds one job at a
//! time, although an engine worker solves Laplacian requests queued on one
//! graph at one accuracy as one lockstep block: a block moves wall time,
//! not rounds (each request is charged what it would be charged alone), so
//! in a model whose servers retire rounds at a fixed rate it changes
//! nothing.
//!
//! # Virtual-clock guarantees
//!
//! The harness never reads wall-clock time. Arrival schedules are generated
//! by a seeded splitmix64 stream (a pure function of `(seed, class index)`,
//! shared across ramp probes so higher-rate runs are coupled monotonically),
//! and the run itself is a single-threaded discrete-event simulation over
//! the real [`bcc_core::wfq::WfqQueue`] discipline in integer virtual
//! nanoseconds. Request costs come from deterministic [`Session`] round
//! accounting, so the whole [`LoadTrajectory`] — every counter and every
//! percentile — is a pure function of the scenario document. Repeated runs
//! are bit-identical, and the *profiling* worker count (the only real
//! parallelism, see below) provably cannot affect the output.
//!
//! # Demand profiling
//!
//! Before simulating, the harness measures each class's request cost by
//! running a small, bounded set of variants of its [`RequestSpec`] through
//! fresh [`Session`]s (three seed variants per class; Laplacian classes use
//! `churn` distinct weight-perturbed topologies instead, each carrying its
//! own preprocessing fingerprint for the cache model). Arrival `k` of a
//! class charges variant `k mod variants` — so the simulation replays real,
//! measured round costs, not guesses. Profiling work items are independent
//! pure functions of the scenario seed; they are spread over
//! `profile_workers` threads purely for wall-clock speed.
//!
//! # Ramp search
//!
//! A scenario with a [`RampSpec`] also runs a bisection over the total
//! offered arrival rate: every class's arrival process is scaled
//! proportionally to probe rate `r`, the scenario is re-simulated, and the
//! probe is *sustainable* when the loss fraction
//! `(rejected + expired + infeasible) / offered` stays within
//! `max_loss_fraction` and (if `max_p99_ms > 0`) no class's end-to-end p99
//! exceeds it. `iterations` bisection steps between `min_rps` and `max_rps`
//! give [`RampResult::max_sustainable_rps`] — the highest probed rate that
//! was sustainable (`0.0` when even the lowest probe collapses).
//!
//! # Artifact
//!
//! [`load_bench`] runs the whole committed scenario library and produces the
//! `BENCH_load.json` payload ([`LoadBench`], schema `bcc-bench/v1` like its
//! sibling artifacts); `bench::trajectory::write_bench_json` writes it, and
//! CI requires it to match the committed file byte for byte.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bcc_core::cache::Lru;
use bcc_core::graph::generators;
use bcc_core::prelude::*;
use bcc_core::telemetry::{MetricsRegistry, MetricsSnapshot, TraceEvent, TraceRecord};
use bcc_core::wfq::{SchedulerStats, WfqQueue};
use bcc_core::{ClassEntry, LatencyPercentiles, RateLimit};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::trajectory::BENCH_SCHEMA;

/// Schema tag of every scenario document the harness accepts.
pub const SCENARIO_SCHEMA: &str = "bcc-load-scenario/v1";

/// Simulated nanoseconds per simulated millisecond.
const NS_PER_MS: u64 = 1_000_000;

/// Seed variants profiled per class for non-Laplacian request kinds.
const SEED_VARIANTS: usize = 3;

/// Hard cap on generated arrivals per class — a guard against a runaway
/// rate (e.g. an absurd ramp `max_rps`) allocating unboundedly, not a knob.
const MAX_ARRIVALS_PER_CLASS: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Scenario model.
// ---------------------------------------------------------------------------

/// One declarative load scenario (schema `bcc-load-scenario/v1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Schema tag ([`SCENARIO_SCHEMA`]).
    pub schema: String,
    /// Scenario name — the key a result is found by in `BENCH_load.json`.
    pub name: String,
    /// Human-readable intent of the scenario.
    pub description: String,
    /// Master seed of arrival generation and demand profiling.
    pub seed: u64,
    /// Length of the arrival window in simulated milliseconds (admitted
    /// work still drains to completion afterwards).
    pub duration_ms: u64,
    /// Service rate of one simulated worker, in rounds per simulated
    /// millisecond.
    pub service_rounds_per_ms: u64,
    /// Parallel simulated workers (the elastic pool's floor when
    /// `max_workers` is set).
    pub workers: u64,
    /// Elastic worker-pool ceiling (`0` = a fixed pool of `workers`): the
    /// simulated plant grows from `workers` toward this bound when the
    /// queued backlog cost exceeds what the current pool drains within the
    /// resize horizon, and parks back down to `workers` when the queue
    /// empties — the same backlog-cost ÷ service-rate rule
    /// ([`bcc_core::wfq::WfqQueue::desired_workers`]) as
    /// [`bcc_core::StreamEngine`]'s elastic pool.
    pub max_workers: u64,
    /// Admission queue bound (`0` = unbounded): arrivals past it are
    /// rejected, mirroring [`bcc_core::stream::BackpressurePolicy::Reject`].
    pub queue_capacity: u64,
    /// Preprocessing-cache slots (`0` = unbounded), evicted least recently
    /// used first ([`bcc_core::cache::Lru`]): a Laplacian job whose topology
    /// fingerprint misses pays its preprocessing rounds.
    pub cache_capacity: u64,
    /// The request mix, one entry per scheduling class.
    pub classes: Vec<ClassSpec>,
    /// Optional max-sustainable-rate ramp search.
    pub ramp: Option<RampSpec>,
}

/// One scheduling class of a scenario: scheduling knobs, arrival process
/// and request shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Class label, parsed by [`Priority::parse_label`] (`"interactive"`,
    /// `"bulk"` or `"custom-<id>"`).
    pub name: String,
    /// WFQ weight of the class.
    pub weight: u32,
    /// Optional token-bucket rate limit (same semantics as the engine's).
    pub rate_limit: Option<RateLimit>,
    /// Optional relative deadline: an arrival must dispatch within this many
    /// simulated milliseconds or it expires; admission rejects it outright
    /// when the expected queue wait already exceeds it.
    pub deadline_ms: Option<u64>,
    /// The class's arrival process.
    pub arrival: Arrival,
    /// The request kind and shape whose measured cost the class charges.
    pub request: RequestSpec,
}

/// An open-loop arrival process over the scenario's duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Poisson arrivals at a mean rate of `rps` requests per simulated
    /// second (exponential gaps via seeded inverse-transform sampling).
    Poisson {
        /// Mean arrival rate, requests per simulated second.
        rps: f64,
    },
    /// Evenly spaced arrivals at exactly `rps` requests per simulated
    /// second.
    Constant {
        /// Arrival rate, requests per simulated second.
        rps: f64,
    },
    /// `count` near-simultaneous arrivals at the start of every period of
    /// `every_ms`, each delayed by a uniform jitter in `[0, jitter_ms)`.
    Burst {
        /// Arrivals per burst.
        count: u64,
        /// Burst period in simulated milliseconds.
        every_ms: u64,
        /// Uniform per-arrival jitter bound in simulated milliseconds
        /// (`0` = perfectly simultaneous).
        jitter_ms: u64,
    },
}

/// The pipeline kind and instance shape a class's requests exercise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestSpec {
    /// Spectral sparsification of a complete graph on `n` vertices
    /// (Theorem 1.2).
    Sparsify {
        /// Vertex count of the complete graph.
        n: u64,
        /// Sparsification accuracy.
        epsilon: f64,
    },
    /// Laplacian solves on `rows × cols` grids (Theorem 1.3). `churn`
    /// distinct weight-perturbed topologies rotate through the arrivals, so
    /// a churn larger than the scenario's `cache_capacity` defeats the
    /// preprocessing cache (the cache-hostile fingerprint-churn workload).
    Laplacian {
        /// Grid rows.
        rows: u64,
        /// Grid columns.
        cols: u64,
        /// Distinct topologies rotating through the class (min 1).
        churn: u64,
    },
    /// The chained unit-demand box LP at `vars` variables (Theorem 1.4).
    Lp {
        /// LP variable count.
        vars: u64,
    },
    /// Min-cost max-flow on random instances of `n` vertices (Theorem 1.1).
    Mcmf {
        /// Vertex count of the flow instance.
        n: u64,
    },
}

/// The ramp-search configuration: bisect the total offered rate for the
/// highest load the scenario sustains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RampSpec {
    /// Lower bracket of the total offered rate, requests per second.
    pub min_rps: f64,
    /// Upper bracket of the total offered rate, requests per second.
    pub max_rps: f64,
    /// Largest tolerable `(rejected + expired + infeasible) / offered`.
    pub max_loss_fraction: f64,
    /// Largest tolerable per-class end-to-end p99 in simulated
    /// milliseconds (`0` = unbounded).
    pub max_p99_ms: f64,
    /// Bisection steps (each one simulated probe).
    pub iterations: u64,
}

impl Arrival {
    /// The process's nominal mean rate in requests per simulated second.
    pub fn nominal_rps(&self) -> f64 {
        match self {
            Arrival::Poisson { rps } | Arrival::Constant { rps } => *rps,
            Arrival::Burst {
                count, every_ms, ..
            } => *count as f64 * 1000.0 / (*every_ms).max(1) as f64,
        }
    }

    /// The same process scaled to `factor` times its nominal rate (burst
    /// counts round to the nearest integer, min 1).
    fn scaled(&self, factor: f64) -> Arrival {
        match self {
            Arrival::Poisson { rps } => Arrival::Poisson { rps: rps * factor },
            Arrival::Constant { rps } => Arrival::Constant { rps: rps * factor },
            Arrival::Burst {
                count,
                every_ms,
                jitter_ms,
            } => Arrival::Burst {
                count: ((*count as f64 * factor).round() as u64).max(1),
                every_ms: *every_ms,
                jitter_ms: *jitter_ms,
            },
        }
    }
}

impl Scenario {
    /// The scenario's total nominal offered rate: the sum of its classes'
    /// [`Arrival::nominal_rps`].
    pub fn nominal_rps(&self) -> f64 {
        self.classes.iter().map(|c| c.arrival.nominal_rps()).sum()
    }

    /// Checks the document for the invariants the simulator relies on,
    /// returning the first violation as a human-readable message.
    ///
    /// # Errors
    ///
    /// Rejects a wrong schema tag, an empty class list, an unparsable or
    /// duplicated class label, a zero worker count / service rate /
    /// duration, and non-positive arrival rates.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCENARIO_SCHEMA {
            return Err(format!(
                "scenario {:?}: schema {:?}, expected {SCENARIO_SCHEMA:?}",
                self.name, self.schema
            ));
        }
        if self.classes.is_empty() {
            return Err(format!("scenario {:?}: no classes", self.name));
        }
        if self.duration_ms == 0 || self.workers == 0 || self.service_rounds_per_ms == 0 {
            return Err(format!(
                "scenario {:?}: duration_ms, workers and service_rounds_per_ms must be positive",
                self.name
            ));
        }
        if self.max_workers != 0 && self.max_workers < self.workers {
            return Err(format!(
                "scenario {:?}: max_workers ({}) below workers ({})",
                self.name, self.max_workers, self.workers
            ));
        }
        for (i, class) in self.classes.iter().enumerate() {
            if Priority::parse_label(&class.name).is_none() {
                return Err(format!(
                    "scenario {:?}: class {i} has label {:?}, expected \
                     \"interactive\", \"bulk\" or \"custom-<id>\"",
                    self.name, class.name
                ));
            }
            if self.classes[..i].iter().any(|c| c.name == class.name) {
                return Err(format!(
                    "scenario {:?}: duplicate class label {:?}",
                    self.name, class.name
                ));
            }
            let positive = match class.arrival {
                Arrival::Poisson { rps } | Arrival::Constant { rps } => rps > 0.0,
                Arrival::Burst {
                    count, every_ms, ..
                } => count > 0 && every_ms > 0,
            };
            if !positive {
                return Err(format!(
                    "scenario {:?}: class {:?} has a non-positive arrival rate",
                    self.name, class.name
                ));
            }
        }
        if let Some(ramp) = &self.ramp {
            if !(ramp.min_rps > 0.0 && ramp.max_rps > ramp.min_rps) {
                return Err(format!(
                    "scenario {:?}: ramp needs 0 < min_rps < max_rps",
                    self.name
                ));
            }
            if ramp.iterations == 0 {
                return Err(format!(
                    "scenario {:?}: ramp needs iterations > 0",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// A copy of the scenario with every arrival process scaled to `factor`
    /// times its nominal rate and the ramp stripped — what one ramp probe
    /// simulates.
    fn scaled(&self, factor: f64) -> Scenario {
        let mut scaled = self.clone();
        scaled.ramp = None;
        for class in &mut scaled.classes {
            class.arrival = class.arrival.scaled(factor);
        }
        scaled
    }
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// The `BENCH_load.json` payload: one [`LoadTrajectory`] per committed
/// scenario, in library (file-name) order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadBench {
    /// Schema tag (`"bcc-bench/v1"`).
    pub schema: String,
    /// One result per scenario.
    pub scenarios: Vec<LoadTrajectory>,
}

/// The full deterministic result of one simulated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadTrajectory {
    /// Schema tag (`"bcc-bench/v1"`).
    pub schema: String,
    /// The scenario's name.
    pub scenario: String,
    /// The scenario's seed.
    pub seed: u64,
    /// The scenario's arrival-window length in simulated milliseconds.
    pub duration_ms: u64,
    /// Arrivals generated across all classes.
    pub offered: u64,
    /// Jobs that dispatched and completed.
    pub completed: u64,
    /// Arrivals rejected because the admission queue was full.
    pub rejected: u64,
    /// Admitted jobs that expired in the queue past their deadline.
    pub expired: u64,
    /// Arrivals rejected at admission because the expected wait already
    /// exceeded their deadline.
    pub infeasible: u64,
    /// Preprocessing-cache hits across dispatched Laplacian jobs.
    pub cache_hits: u64,
    /// Preprocessing-cache misses (each charged its preprocessing rounds).
    pub cache_misses: u64,
    /// Total rounds of service charged, preprocessing included.
    pub total_rounds: u64,
    /// Highest worker-pool target the elastic resize rule reached (equal to
    /// the scenario's `workers` when the pool is fixed).
    pub peak_workers: u64,
    /// Per-class counters and latency percentiles, in scenario class order.
    pub classes: Vec<LoadClassPoint>,
    /// The ramp-search result, when the scenario configured one.
    pub ramp: Option<RampResult>,
}

/// Counters and latency percentiles of one class in one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadClassPoint {
    /// Class label.
    pub class: String,
    /// Arrivals generated for the class.
    pub offered: u64,
    /// Jobs of the class that completed.
    pub completed: u64,
    /// Arrivals rejected on a full queue.
    pub rejected: u64,
    /// Admitted jobs that expired past their deadline.
    pub expired: u64,
    /// Arrivals rejected as deadline-infeasible at admission.
    pub infeasible: u64,
    /// Admission → dispatch percentiles over dispatched jobs (simulated
    /// nanoseconds; expired and rejected arrivals are excluded).
    pub queue_wait: LatencyPercentiles,
    /// Admission → completion percentiles over completed jobs.
    pub end_to_end: LatencyPercentiles,
}

/// The outcome of a scenario's ramp search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RampResult {
    /// The highest probed total rate that was sustainable (`0.0` when every
    /// probe collapsed).
    pub max_sustainable_rps: f64,
    /// Every bisection probe, in probe order.
    pub probes: Vec<RampProbe>,
}

/// One simulated probe of the ramp search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RampProbe {
    /// The probed total offered rate, requests per simulated second.
    pub rps: f64,
    /// Arrivals the probe generated.
    pub offered: u64,
    /// `(rejected + expired + infeasible) / offered` of the probe.
    pub loss_fraction: f64,
    /// The worst per-class end-to-end p99 of the probe, simulated
    /// milliseconds.
    pub p99_e2e_ms: f64,
    /// Whether the probe met the ramp's loss and latency bounds.
    pub sustainable: bool,
}

// ---------------------------------------------------------------------------
// Seeded arrival generation.
// ---------------------------------------------------------------------------

/// One step of the splitmix64 stream — the harness's only randomness: the
/// golden-gamma increment, then the shared finalizer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    bcc_core::runtime::splitmix64(*state)
}

/// A derived stream seed, mixing a purpose tag and an index into the master
/// seed.
fn mix(seed: u64, purpose: u64, index: u64) -> u64 {
    let mut state = seed
        ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    splitmix64(&mut state)
}

/// A uniform draw in the half-open interval `(0, 1]` — never zero, so
/// `ln(u)` is always finite.
fn unit_open(x: u64) -> f64 {
    ((x >> 11) as f64 + 1.0) / 9_007_199_254_740_992.0
}

/// The arrival schedule of one class, in sorted simulated nanoseconds since
/// the run's start. A pure function of `(seed, class_idx, arrival,
/// duration_ms)` — notably *not* of the other classes, so a ramp probe that
/// scales the rate reuses the same underlying uniform stream and arrival
/// schedules couple monotonically across probes.
pub fn class_arrivals(
    seed: u64,
    class_idx: usize,
    arrival: &Arrival,
    duration_ms: u64,
) -> Vec<u64> {
    let horizon = duration_ms.saturating_mul(NS_PER_MS);
    let mut state = mix(seed, 0xA881, class_idx as u64);
    let mut times = Vec::new();
    match arrival {
        Arrival::Poisson { rps } => {
            if *rps <= 0.0 {
                return times;
            }
            let mut t = 0.0f64;
            while times.len() < MAX_ARRIVALS_PER_CLASS {
                let u = unit_open(splitmix64(&mut state));
                t += -u.ln() / rps * 1e9;
                if t >= horizon as f64 {
                    break;
                }
                times.push(t as u64);
            }
        }
        Arrival::Constant { rps } => {
            if *rps <= 0.0 {
                return times;
            }
            let gap = 1e9 / rps;
            let mut k = 0u64;
            while times.len() < MAX_ARRIVALS_PER_CLASS {
                let t = k as f64 * gap;
                if t >= horizon as f64 {
                    break;
                }
                times.push(t as u64);
                k += 1;
            }
        }
        Arrival::Burst {
            count,
            every_ms,
            jitter_ms,
        } => {
            let every = (*every_ms).max(1) * NS_PER_MS;
            let mut start = 0u64;
            'bursts: while start < horizon {
                for _ in 0..*count {
                    if times.len() >= MAX_ARRIVALS_PER_CLASS {
                        break 'bursts;
                    }
                    let jitter = if *jitter_ms == 0 {
                        0
                    } else {
                        splitmix64(&mut state) % (*jitter_ms * NS_PER_MS)
                    };
                    let t = start + jitter;
                    if t < horizon {
                        times.push(t);
                    }
                }
                start += every;
            }
            times.sort_unstable();
        }
    }
    times
}

// ---------------------------------------------------------------------------
// Demand profiling.
// ---------------------------------------------------------------------------

/// The measured cost of one request variant: what one simulated job of the
/// variant charges.
#[derive(Debug, Clone)]
struct DemandVariant {
    /// Service rounds of the request proper (the Laplacian solve alone for
    /// Laplacian variants).
    rounds: u64,
    /// The simulated preprocessing-cache key, for kinds with preprocessing.
    fingerprint: Option<u64>,
    /// Preprocessing rounds charged when the fingerprint misses the cache.
    prep_rounds: u64,
}

/// Measures one `(class, variant)` demand through a fresh [`Session`] — a
/// pure function of `(scenario seed, class_idx, variant, spec)`, which is
/// what keeps the harness's output independent of profiling parallelism.
fn profile_variant(
    scenario_seed: u64,
    class_idx: usize,
    variant: usize,
    spec: &RequestSpec,
) -> DemandVariant {
    let vseed = mix(scenario_seed, class_idx as u64 + 1, variant as u64 + 1);
    match spec {
        RequestSpec::Sparsify { n, epsilon } => {
            let g = generators::complete((*n).max(3) as usize);
            let mut session = Session::builder().seed(vseed).build();
            let outcome = session
                .sparsify(&g, *epsilon)
                .expect("complete graphs sparsify");
            DemandVariant {
                rounds: outcome.report.total_rounds.max(1),
                fingerprint: None,
                prep_rounds: 0,
            }
        }
        RequestSpec::Laplacian { rows, cols, .. } => {
            // Variant = topology index: distinct weight perturbations give
            // distinct preprocessing fingerprints (the churn axis).
            let base = generators::grid((*rows).max(2) as usize, (*cols).max(2) as usize);
            let g = if variant == 0 {
                base
            } else {
                base.map_weights(|e| e.weight * (1.0 + variant as f64 * 0.001))
            };
            let session = Session::builder().seed(scenario_seed).build();
            let mut prepared = session
                .laplacian(&g)
                .preprocess()
                .expect("grids are connected");
            let prep_rounds = prepared.preprocessing_report().total_rounds;
            let n = g.n();
            let mut b = vec![0.0; n];
            b[0] = 1.0;
            b[n - 1] = -1.0;
            let solve = prepared.solve(&b).expect("well-formed right-hand side");
            DemandVariant {
                rounds: solve.report.total_rounds.max(1),
                fingerprint: Some(mix(0x4C61_704C, class_idx as u64, variant as u64)),
                prep_rounds,
            }
        }
        RequestSpec::Lp { vars } => {
            let vars = (*vars).max(2) as usize;
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
                LpOptions::new(1e-2, lp.m(), vseed).with_uniform_weights(),
            );
            let mut session = Session::builder().seed(vseed).build();
            let outcome = session.lp(&lp, &request).expect("interior start");
            DemandVariant {
                rounds: outcome.report.total_rounds.max(1),
                fingerprint: None,
                prep_rounds: 0,
            }
        }
        RequestSpec::Mcmf { n } => {
            let mut rng = ChaCha8Rng::seed_from_u64(vseed);
            let instance = generators::random_flow_instance((*n).max(4) as usize, 0.3, 3, &mut rng);
            let mut session = Session::builder().seed(vseed).build();
            let outcome = session
                .min_cost_max_flow(&instance)
                .expect("generated instances are non-empty");
            DemandVariant {
                rounds: outcome.report.total_rounds.max(1),
                fingerprint: None,
                prep_rounds: 0,
            }
        }
    }
}

/// How many demand variants a class profiles.
fn variant_count(spec: &RequestSpec) -> usize {
    match spec {
        RequestSpec::Laplacian { churn, .. } => (*churn).max(1) as usize,
        _ => SEED_VARIANTS,
    }
}

/// Profiles every class's demand variants, spreading the independent
/// measurements over `profile_workers` threads. Each measurement is a pure
/// function of its seeds, so the returned table — and therefore the whole
/// harness output — is identical for every worker count.
fn profile_demands(scenario: &Scenario, profile_workers: usize) -> Vec<Vec<DemandVariant>> {
    let items: Vec<(usize, usize)> = scenario
        .classes
        .iter()
        .enumerate()
        .flat_map(|(c, class)| (0..variant_count(&class.request)).map(move |v| (c, v)))
        .collect();
    let slots: Vec<Mutex<Option<DemandVariant>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..profile_workers.max(1).min(items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&(c, v)) = items.get(i) else { break };
                let demand = profile_variant(scenario.seed, c, v, &scenario.classes[c].request);
                *slots[i].lock().expect("no panics while holding the slot") = Some(demand);
            });
        }
    });
    let mut demands: Vec<Vec<DemandVariant>> =
        scenario.classes.iter().map(|_| Vec::new()).collect();
    for (&(c, _), slot) in items.iter().zip(&slots) {
        let demand = slot
            .lock()
            .expect("no panics while holding the slot")
            .take()
            .expect("every work item was measured");
        demands[c].push(demand);
    }
    demands
}

// ---------------------------------------------------------------------------
// The discrete-event simulation.
// ---------------------------------------------------------------------------

/// The payload of one simulated job in the [`WfqQueue`].
struct SimPayload {
    class_idx: usize,
    variant: usize,
    arrived: u64,
    /// The job's arrival ordinal in the merged (time, class, seq) order —
    /// the request id its trace events carry.
    req: u64,
}

/// Trace lanes of the simulated timeline: admission-side events
/// (submitted/queued/rejected/infeasible/expired).
const SIM_LANE_ADMIT: u32 = 0;
/// Dispatch-side events (dispatched, cache probe, solve-begin).
const SIM_LANE_DISPATCH: u32 = 1;
/// Completion events (solve-end).
const SIM_LANE_COMPLETE: u32 = 2;

/// Appends one trace record when tracing is on — the simulation's analogue
/// of the engine's [`bcc_core::TelemetrySink`], collecting into a plain
/// `Vec` because the single-threaded simulator needs neither lanes nor
/// bounded buffers.
fn push_trace(
    trace: &mut Option<&mut Vec<TraceRecord>>,
    at_ns: u64,
    lane: u32,
    event: TraceEvent,
    request: u64,
    detail: u64,
) {
    if let Some(records) = trace.as_deref_mut() {
        records.push(TraceRecord {
            at_ns,
            lane,
            request,
            event,
            detail,
        });
    }
}

#[derive(Default)]
struct ClassAccum {
    offered: u64,
    completed: u64,
    rejected: u64,
    expired: u64,
    infeasible: u64,
    wait_ns: Vec<u64>,
    e2e_ns: Vec<u64>,
}

/// Simulates one scenario against a profiled demand table, producing its
/// [`LoadTrajectory`] (without a ramp — [`run_scenario`] adds that).
fn simulate(scenario: &Scenario, demands: &[Vec<DemandVariant>]) -> LoadTrajectory {
    simulate_core(scenario, demands, None).0
}

/// The simulation proper: one scenario against a profiled demand table,
/// optionally recording every lifecycle event into `trace`, returning the
/// trajectory plus the [`WfqQueue`]'s own scheduler counters (the
/// reconciliation target of the telemetry sanity gate: the number of
/// `dispatched` trace events must equal the scheduler's dispatched sum).
/// Tracing is write-only — with `trace` on or off the trajectory is
/// byte-identical.
fn simulate_core(
    scenario: &Scenario,
    demands: &[Vec<DemandVariant>],
    mut trace: Option<&mut Vec<TraceRecord>>,
) -> (LoadTrajectory, SchedulerStats) {
    let priorities: Vec<Priority> = scenario
        .classes
        .iter()
        .map(|c| Priority::parse_label(&c.name).expect("validated label"))
        .collect();
    let class_cfg: Vec<ClassEntry> = scenario
        .classes
        .iter()
        .zip(&priorities)
        .map(|(spec, &class)| ClassEntry {
            class,
            weight: spec.weight,
            rate_limit: spec.rate_limit,
        })
        .collect();

    // Pre-generated arrivals, merged in deterministic (time, class, seq)
    // order.
    let mut arrivals: Vec<(u64, usize, u64)> = Vec::new();
    for (c, class) in scenario.classes.iter().enumerate() {
        for (seq, t) in class_arrivals(scenario.seed, c, &class.arrival, scenario.duration_ms)
            .into_iter()
            .enumerate()
        {
            arrivals.push((t, c, seq as u64));
        }
    }
    arrivals.sort_unstable();

    let min_workers = scenario.workers as usize;
    let max_workers = match scenario.max_workers {
        0 => min_workers,
        m => m as usize,
    };
    let rate = scenario.service_rounds_per_ms;
    let service_ns = |rounds: u64| -> u64 {
        u64::try_from((rounds as u128 * NS_PER_MS as u128) / rate as u128)
            .unwrap_or(u64::MAX)
            .max(1)
    };

    let mut queue: WfqQueue<SimPayload> = WfqQueue::new(&class_cfg);
    // The engine's eviction rule over preprocessing fingerprints; a
    // `cache_capacity` of 0 means unbounded.
    let mut cache: Lru<u64, ()> =
        Lru::new((scenario.cache_capacity > 0).then_some(scenario.cache_capacity as usize));
    let mut acc: Vec<ClassAccum> = scenario
        .classes
        .iter()
        .map(|_| ClassAccum::default())
        .collect();
    // Busy workers as (finish time, submission index, class, admitted-at,
    // arrival ordinal): the index keeps equal-time completions
    // deterministic.
    let mut busy: BinaryHeap<Reverse<(u64, u64, usize, u64, u64)>> = BinaryHeap::new();
    let mut pool_target = min_workers;
    let mut peak_workers = min_workers;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut total_rounds = 0u64;
    let mut ai = 0usize;

    // Sweeps expired jobs, resizes the pool, then feeds free workers — run
    // after every event.
    let mut dispatch_ready =
        |now: u64,
         queue: &mut WfqQueue<SimPayload>,
         busy: &mut BinaryHeap<Reverse<(u64, u64, usize, u64, u64)>>,
         target: &mut usize,
         acc: &mut Vec<ClassAccum>,
         trace: &mut Option<&mut Vec<TraceRecord>>| {
            for (job, late) in queue.take_expired(Duration::from_nanos(now)) {
                acc[job.payload.class_idx].expired += 1;
                push_trace(
                    trace,
                    now,
                    SIM_LANE_ADMIT,
                    TraceEvent::Expired,
                    job.payload.req,
                    u64::try_from(late.as_nanos()).unwrap_or(u64::MAX),
                );
            }
            // The engine's resize rule at the scenario's fixed service rate,
            // clamped to the configured bounds. A busy worker above a
            // shrunken target simply finishes its job (no preemption),
            // exactly like a parked engine worker.
            *target = queue
                .desired_workers(min_workers, Some((NS_PER_MS, rate)))
                .clamp(min_workers, max_workers);
            peak_workers = peak_workers.max(*target);
            while busy.len() < *target {
                let Some(job) = queue.pop() else { break };
                let c = job.payload.class_idx;
                let req = job.payload.req;
                let wait = now - job.payload.arrived;
                push_trace(
                    trace,
                    now,
                    SIM_LANE_DISPATCH,
                    TraceEvent::Dispatched,
                    req,
                    wait,
                );
                let demand = &demands[c][job.payload.variant];
                let mut rounds = demand.rounds;
                if let Some(fp) = demand.fingerprint {
                    if cache.get(&fp).is_some() {
                        cache_hits += 1;
                        push_trace(trace, now, SIM_LANE_DISPATCH, TraceEvent::CacheHit, req, 0);
                    } else {
                        cache.insert(fp, ());
                        cache_misses += 1;
                        rounds += demand.prep_rounds;
                        push_trace(
                            trace,
                            now,
                            SIM_LANE_DISPATCH,
                            TraceEvent::CacheMiss,
                            req,
                            demand.prep_rounds,
                        );
                    }
                }
                total_rounds += rounds;
                acc[c].wait_ns.push(wait);
                push_trace(
                    trace,
                    now,
                    SIM_LANE_DISPATCH,
                    TraceEvent::SolveBegin,
                    req,
                    rounds,
                );
                busy.push(Reverse((
                    now.saturating_add(service_ns(rounds)),
                    job.index,
                    c,
                    job.payload.arrived,
                    req,
                )));
            }
        };

    while ai < arrivals.len() || !busy.is_empty() {
        let next_completion = busy.peek().map(|Reverse((t, ..))| *t);
        let next_arrival = arrivals.get(ai).map(|&(t, ..)| t);
        let completion_first = match (next_completion, next_arrival) {
            (Some(ct), Some(at)) => ct <= at,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if completion_first {
            let Reverse((now, _index, c, arrived, req)) = busy.pop().expect("peeked");
            acc[c].completed += 1;
            acc[c].e2e_ns.push(now - arrived);
            push_trace(
                &mut trace,
                now,
                SIM_LANE_COMPLETE,
                TraceEvent::SolveEnd,
                req,
                now - arrived,
            );
            dispatch_ready(
                now,
                &mut queue,
                &mut busy,
                &mut pool_target,
                &mut acc,
                &mut trace,
            );
        } else {
            let (now, c, seq) = arrivals[ai];
            // The arrival's ordinal in the merged order is its request id.
            let req = ai as u64;
            ai += 1;
            acc[c].offered += 1;
            // Sweep before the capacity check so expired jobs free their
            // slots first, exactly like the engine's pre-dispatch sweep.
            for (job, late) in queue.take_expired(Duration::from_nanos(now)) {
                acc[job.payload.class_idx].expired += 1;
                push_trace(
                    &mut trace,
                    now,
                    SIM_LANE_ADMIT,
                    TraceEvent::Expired,
                    job.payload.req,
                    u64::try_from(late.as_nanos()).unwrap_or(u64::MAX),
                );
            }
            let full =
                scenario.queue_capacity > 0 && queue.queued() as u64 >= scenario.queue_capacity;
            if full {
                acc[c].rejected += 1;
                push_trace(
                    &mut trace,
                    now,
                    SIM_LANE_ADMIT,
                    TraceEvent::Rejected,
                    req,
                    scenario.queue_capacity,
                );
            } else {
                let priority = priorities[c];
                let variant = (seq as usize) % demands[c].len();
                let cost = demands[c][variant].rounds;
                let deadline = scenario.classes[c].deadline_ms.map(|d| d * NS_PER_MS);
                // The engine's admission rule at the scenario's fixed
                // service rate.
                let infeasible = deadline.is_some_and(|d| {
                    queue
                        .infeasible_wait(
                            priority,
                            pool_target,
                            Duration::from_nanos(d),
                            (NS_PER_MS, rate),
                        )
                        .is_some()
                });
                if infeasible {
                    acc[c].infeasible += 1;
                    queue.reject_infeasible(priority);
                    push_trace(
                        &mut trace,
                        now,
                        SIM_LANE_ADMIT,
                        TraceEvent::Infeasible,
                        req,
                        0,
                    );
                } else {
                    push_trace(
                        &mut trace,
                        now,
                        SIM_LANE_ADMIT,
                        TraceEvent::Submitted,
                        req,
                        cost,
                    );
                    queue.push(
                        priority,
                        SimPayload {
                            class_idx: c,
                            variant,
                            arrived: now,
                            req,
                        },
                        deadline.map(|d| Duration::from_nanos(now.saturating_add(d))),
                        cost,
                    );
                    push_trace(
                        &mut trace,
                        now,
                        SIM_LANE_ADMIT,
                        TraceEvent::Queued,
                        req,
                        queue.queued() as u64,
                    );
                }
            }
            dispatch_ready(
                now,
                &mut queue,
                &mut busy,
                &mut pool_target,
                &mut acc,
                &mut trace,
            );
        }
    }
    // Every admitted deadline job either dispatched or was swept at some
    // event; anything still queued here would mean the loop exited with
    // idle workers and work pending, which dispatch_ready rules out.
    debug_assert_eq!(queue.queued(), 0);

    let classes: Vec<LoadClassPoint> = scenario
        .classes
        .iter()
        .zip(acc)
        .map(|(spec, a)| LoadClassPoint {
            class: spec.name.clone(),
            offered: a.offered,
            completed: a.completed,
            rejected: a.rejected,
            expired: a.expired,
            infeasible: a.infeasible,
            queue_wait: LatencyPercentiles::from_ns_samples(a.wait_ns),
            end_to_end: LatencyPercentiles::from_ns_samples(a.e2e_ns),
        })
        .collect();
    let trajectory = LoadTrajectory {
        schema: BENCH_SCHEMA.to_string(),
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        duration_ms: scenario.duration_ms,
        offered: classes.iter().map(|c| c.offered).sum(),
        completed: classes.iter().map(|c| c.completed).sum(),
        rejected: classes.iter().map(|c| c.rejected).sum(),
        expired: classes.iter().map(|c| c.expired).sum(),
        infeasible: classes.iter().map(|c| c.infeasible).sum(),
        cache_hits,
        cache_misses,
        total_rounds,
        peak_workers: peak_workers as u64,
        classes,
        ramp: None,
    };
    (trajectory, queue.stats())
}

// ---------------------------------------------------------------------------
// Ramp search.
// ---------------------------------------------------------------------------

/// Bisects the total offered rate for the highest sustainable load (see the
/// [module documentation](self) for the sustainability predicate).
fn ramp_search(scenario: &Scenario, spec: &RampSpec, demands: &[Vec<DemandVariant>]) -> RampResult {
    let base = scenario.nominal_rps();
    let mut lo = spec.min_rps;
    let mut hi = spec.max_rps;
    let mut max_sustainable_rps = 0.0f64;
    let mut probes = Vec::new();
    for _ in 0..spec.iterations {
        let rps = (lo + hi) / 2.0;
        let run = simulate(&scenario.scaled(rps / base), demands);
        let lost = run.rejected + run.expired + run.infeasible;
        let loss_fraction = if run.offered == 0 {
            0.0
        } else {
            lost as f64 / run.offered as f64
        };
        let p99_e2e_ms = run
            .classes
            .iter()
            .map(|c| c.end_to_end.p99_ns)
            .max()
            .unwrap_or(0) as f64
            / NS_PER_MS as f64;
        let sustainable = loss_fraction <= spec.max_loss_fraction
            && (spec.max_p99_ms <= 0.0 || p99_e2e_ms <= spec.max_p99_ms);
        if sustainable {
            if rps > max_sustainable_rps {
                max_sustainable_rps = rps;
            }
            lo = rps;
        } else {
            hi = rps;
        }
        probes.push(RampProbe {
            rps,
            offered: run.offered,
            loss_fraction,
            p99_e2e_ms,
            sustainable,
        });
    }
    RampResult {
        max_sustainable_rps,
        probes,
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Profiles and simulates one scenario (ramp included when configured).
/// `profile_workers` threads share the demand-profiling work; the result is
/// identical for every worker count.
///
/// # Errors
///
/// Returns the [`Scenario::validate`] message of an invalid document.
pub fn run_scenario(scenario: &Scenario, profile_workers: usize) -> Result<LoadTrajectory, String> {
    scenario.validate()?;
    let demands = profile_demands(scenario, profile_workers);
    let mut trajectory = simulate(scenario, &demands);
    if let Some(spec) = &scenario.ramp {
        trajectory.ramp = Some(ramp_search(scenario, spec, &demands));
    }
    Ok(trajectory)
}

/// [`run_scenario`] with lifecycle tracing: additionally returns every
/// [`TraceRecord`] of the scenario's nominal run (ramp probes are simulated
/// untraced — the trace covers the committed trajectory, not the bisection)
/// and the [`WfqQueue`]'s own scheduler counters, the reconciliation target
/// of the telemetry sanity gate. The trajectory is byte-identical to
/// [`run_scenario`]'s, and — like everything in this harness — the trace is
/// a pure function of the scenario document: identical for every
/// `profile_workers` count and across repeated runs.
///
/// # Errors
///
/// Returns the [`Scenario::validate`] message of an invalid document.
#[allow(clippy::type_complexity)]
pub fn run_scenario_traced(
    scenario: &Scenario,
    profile_workers: usize,
) -> Result<(LoadTrajectory, Vec<TraceRecord>, SchedulerStats), String> {
    scenario.validate()?;
    let demands = profile_demands(scenario, profile_workers);
    let mut records = Vec::new();
    let (mut trajectory, stats) = simulate_core(scenario, &demands, Some(&mut records));
    if let Some(spec) = &scenario.ramp {
        trajectory.ramp = Some(ramp_search(scenario, spec, &demands));
    }
    Ok((trajectory, records, stats))
}

/// The `BENCH_load_metrics.json` payload: one metrics snapshot per
/// committed scenario, in library order — the harness's counters
/// republished through the engine's `bcc-metrics/v1` schema so dashboards
/// read one format for engine and harness telemetry alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadMetricsBench {
    /// Schema tag (`"bcc-bench/v1"`).
    pub schema: String,
    /// One entry per scenario.
    pub scenarios: Vec<ScenarioMetrics>,
}

/// The metrics snapshot of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMetrics {
    /// The scenario's name.
    pub scenario: String,
    /// The snapshot (schema `bcc-metrics/v1`).
    pub metrics: MetricsSnapshot,
}

/// Renders one trajectory as a [`MetricsSnapshot`]: scenario-level counters
/// under `load.*` (cache counters under the engine's `cache.*` names, the
/// pool peak under `pool.peak`), per-class counters and p99 gauges under
/// `load.<class>.*`. A pure function of the trajectory, so the export is as
/// deterministic as the simulation itself.
pub fn metrics_snapshot(t: &LoadTrajectory) -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    registry.counter("load.offered").add(t.offered);
    registry.counter("load.completed").add(t.completed);
    registry.counter("load.rejected").add(t.rejected);
    registry.counter("load.expired").add(t.expired);
    registry.counter("load.infeasible").add(t.infeasible);
    registry.counter("load.total_rounds").add(t.total_rounds);
    registry.counter("cache.hits").add(t.cache_hits);
    registry.counter("cache.misses").add(t.cache_misses);
    registry.gauge("pool.peak").set(t.peak_workers);
    for class in &t.classes {
        let name = |metric: &str| format!("load.{}.{metric}", class.class);
        registry.counter(&name("offered")).add(class.offered);
        registry.counter(&name("completed")).add(class.completed);
        registry.counter(&name("rejected")).add(class.rejected);
        registry.counter(&name("expired")).add(class.expired);
        registry.counter(&name("infeasible")).add(class.infeasible);
        registry
            .gauge(&name("wait_p99_ns"))
            .set(class.queue_wait.p99_ns);
        registry
            .gauge(&name("e2e_p99_ns"))
            .set(class.end_to_end.p99_ns);
    }
    registry.snapshot()
}

/// Builds the [`LoadMetricsBench`] artifact from a finished [`LoadBench`].
pub fn load_metrics_bench(bench: &LoadBench) -> LoadMetricsBench {
    LoadMetricsBench {
        schema: BENCH_SCHEMA.to_string(),
        scenarios: bench
            .scenarios
            .iter()
            .map(|t| ScenarioMetrics {
                scenario: t.scenario.clone(),
                metrics: metrics_snapshot(t),
            })
            .collect(),
    }
}

/// Parses and validates one scenario file.
///
/// # Errors
///
/// Propagates filesystem errors; parse and validation failures are reported
/// as [`io::ErrorKind::InvalidData`] with the file path.
pub fn read_scenario(path: &Path) -> io::Result<Scenario> {
    let text = std::fs::read_to_string(path)?;
    let scenario: Scenario = serde_json::from_str(&text).map_err(|e| invalid_data(path, e))?;
    scenario.validate().map_err(|e| invalid_data(path, e))?;
    Ok(scenario)
}

fn invalid_data(path: &Path, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {e}", path.display()),
    )
}

/// Reads every `*.json` scenario in `dir`, in file-name order — the
/// committed scenario library.
///
/// # Errors
///
/// Propagates directory and per-file errors ([`read_scenario`]); an empty
/// library is reported as [`io::ErrorKind::NotFound`].
pub fn scenario_library(dir: &Path) -> io::Result<Vec<Scenario>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no *.json scenarios", dir.display()),
        ));
    }
    paths.iter().map(|p| read_scenario(p)).collect()
}

/// Runs the whole scenario library in `dir`, producing the
/// `BENCH_load.json` payload.
///
/// # Errors
///
/// Propagates [`scenario_library`] errors; a scenario the validator accepts
/// never fails to run.
pub fn load_bench(dir: &Path, profile_workers: usize) -> io::Result<LoadBench> {
    let scenarios = scenario_library(dir)?;
    let mut results = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let trajectory = run_scenario(scenario, profile_workers)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        results.push(trajectory);
    }
    Ok(LoadBench {
        schema: BENCH_SCHEMA.to_string(),
        scenarios: results,
    })
}

/// A compact multi-line human summary of one trajectory — what the `load`
/// binary prints per scenario.
pub fn summarize(t: &LoadTrajectory) -> String {
    let mut out = format!(
        "scenario {}: offered {} completed {} rejected {} expired {} infeasible {} \
         (cache {}h/{}m, {} rounds, peak workers {})\n",
        t.scenario,
        t.offered,
        t.completed,
        t.rejected,
        t.expired,
        t.infeasible,
        t.cache_hits,
        t.cache_misses,
        t.total_rounds,
        t.peak_workers
    );
    for c in &t.classes {
        let ms = |ns: u64| ns as f64 / NS_PER_MS as f64;
        out.push_str(&format!(
            "  {:<12} wait p50/p95/p99 {:.3}/{:.3}/{:.3} ms  e2e p50/p95/p99 \
             {:.3}/{:.3}/{:.3} ms  ({} done, {} lost)\n",
            c.class,
            ms(c.queue_wait.p50_ns),
            ms(c.queue_wait.p95_ns),
            ms(c.queue_wait.p99_ns),
            ms(c.end_to_end.p50_ns),
            ms(c.end_to_end.p95_ns),
            ms(c.end_to_end.p99_ns),
            c.completed,
            c.rejected + c.expired + c.infeasible,
        ));
    }
    if let Some(ramp) = &t.ramp {
        out.push_str(&format!(
            "  ramp: max sustainable {:.1} rps over {} probes\n",
            ramp.max_sustainable_rps,
            ramp.probes.len()
        ));
        for p in &ramp.probes {
            out.push_str(&format!(
                "    probe {:.1} rps: loss {:.3} p99 {:.3} ms -> {}\n",
                p.rps,
                p.loss_fraction,
                p.p99_e2e_ms,
                if p.sustainable {
                    "sustainable"
                } else {
                    "collapse"
                }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            schema: SCENARIO_SCHEMA.to_string(),
            name: "tiny".to_string(),
            description: "unit-test scenario".to_string(),
            seed: 7,
            duration_ms: 50,
            service_rounds_per_ms: 2_000,
            workers: 2,
            max_workers: 0,
            queue_capacity: 16,
            cache_capacity: 2,
            classes: vec![
                ClassSpec {
                    name: "interactive".to_string(),
                    weight: 4,
                    rate_limit: None,
                    deadline_ms: Some(40),
                    arrival: Arrival::Poisson { rps: 120.0 },
                    request: RequestSpec::Sparsify { n: 8, epsilon: 1.0 },
                },
                ClassSpec {
                    name: "bulk".to_string(),
                    weight: 1,
                    rate_limit: None,
                    deadline_ms: None,
                    arrival: Arrival::Constant { rps: 200.0 },
                    request: RequestSpec::Laplacian {
                        rows: 3,
                        cols: 3,
                        churn: 3,
                    },
                },
            ],
            ramp: None,
        }
    }

    #[test]
    fn arrival_schedules_are_deterministic_and_sorted() {
        let arrival = Arrival::Poisson { rps: 200.0 };
        let a = class_arrivals(7, 0, &arrival, 100);
        let b = class_arrivals(7, 0, &arrival, 100);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(!a.is_empty());
        // A different class index draws a different stream.
        assert_ne!(a, class_arrivals(7, 1, &arrival, 100));
    }

    #[test]
    fn constant_arrivals_are_evenly_spaced() {
        let a = class_arrivals(7, 0, &Arrival::Constant { rps: 100.0 }, 100);
        assert_eq!(a.len(), 10);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 10 * NS_PER_MS);
    }

    #[test]
    fn bursts_land_inside_their_jitter_window() {
        let a = class_arrivals(
            7,
            0,
            &Arrival::Burst {
                count: 5,
                every_ms: 20,
                jitter_ms: 3,
            },
            40,
        );
        assert_eq!(a.len(), 10);
        for &t in &a[..5] {
            assert!(t < 3 * NS_PER_MS, "first burst within its jitter: {t}");
        }
        for &t in &a[5..] {
            assert!((20 * NS_PER_MS..23 * NS_PER_MS).contains(&t), "{t}");
        }
    }

    #[test]
    fn scaling_an_arrival_scales_its_nominal_rate() {
        let p = Arrival::Poisson { rps: 50.0 };
        assert_eq!(p.scaled(2.0).nominal_rps(), 100.0);
        let b = Arrival::Burst {
            count: 4,
            every_ms: 100,
            jitter_ms: 0,
        };
        assert_eq!(b.nominal_rps(), 40.0);
        assert_eq!(b.scaled(2.0).nominal_rps(), 80.0);
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        let good = tiny_scenario();
        assert_eq!(good.validate(), Ok(()));
        let mut bad = good.clone();
        bad.schema = "bcc-load-scenario/v0".to_string();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.classes[1].name = "interactive".to_string();
        assert!(bad.validate().unwrap_err().contains("duplicate"));
        let mut bad = good.clone();
        bad.classes[0].name = "urgent".to_string();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.workers = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.max_workers = 1;
        assert!(bad.validate().unwrap_err().contains("max_workers"));
        let mut bad = good.clone();
        bad.ramp = Some(RampSpec {
            min_rps: 10.0,
            max_rps: 5.0,
            max_loss_fraction: 0.1,
            max_p99_ms: 0.0,
            iterations: 4,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn the_simulation_is_deterministic_and_conserves_arrivals() {
        let scenario = tiny_scenario();
        let a = run_scenario(&scenario, 1).unwrap();
        let b = run_scenario(&scenario, 4).unwrap();
        assert_eq!(a, b, "profiling parallelism must not leak into results");
        assert_eq!(
            a.offered,
            a.completed + a.rejected + a.expired + a.infeasible,
            "every arrival is accounted for exactly once"
        );
        assert!(a.offered > 0);
        assert!(a.completed > 0);
        for class in &a.classes {
            assert_eq!(class.queue_wait.samples + class.expired, {
                // every dispatched job contributed a wait sample
                class.completed + class.expired
            });
            assert_eq!(class.end_to_end.samples, class.completed);
            assert!(class.end_to_end.p50_ns >= class.queue_wait.p50_ns);
        }
    }

    #[test]
    fn an_elastic_pool_absorbs_backlog_a_fixed_floor_cannot() {
        // Under-provision the floor so a backlog forms, then let the pool
        // stretch: the resize rule must actually grow (peak above the
        // floor) and the extra workers can only help the deadline class.
        let mut fixed = tiny_scenario();
        fixed.workers = 1;
        fixed.service_rounds_per_ms = 40;
        let mut elastic = fixed.clone();
        elastic.max_workers = 4;

        let f = run_scenario(&fixed, 1).unwrap();
        let e = run_scenario(&elastic, 1).unwrap();
        assert_eq!(f.peak_workers, 1, "a fixed pool never grows");
        assert!(
            e.peak_workers > 1 && e.peak_workers <= 4,
            "the elastic pool grew within bounds: {e:?}"
        );
        assert!(e.completed >= f.completed);
        assert!(e.expired + e.infeasible <= f.expired + f.infeasible);

        // A ceiling equal to the floor is exactly the fixed pool.
        let mut pinned = fixed.clone();
        pinned.max_workers = pinned.workers;
        let p = run_scenario(&pinned, 1).unwrap();
        assert_eq!(p, f);

        // And the elastic run is itself deterministic.
        assert_eq!(run_scenario(&elastic, 4).unwrap(), e);
    }

    #[test]
    fn fingerprint_churn_defeats_a_small_cache() {
        let mut scenario = tiny_scenario();
        // churn 3 > capacity 2 and round-robin variant selection: every
        // Laplacian dispatch misses.
        scenario.cache_capacity = 2;
        let t = run_scenario(&scenario, 1).unwrap();
        assert!(t.cache_misses > 0);
        assert_eq!(t.cache_hits, 0, "LRU of 2 never holds a rotation of 3");
        // An unbounded cache turns the same traffic into hits.
        scenario.cache_capacity = 0;
        let t = run_scenario(&scenario, 1).unwrap();
        assert!(t.cache_hits > 0);
        assert_eq!(t.cache_misses, 3, "one miss per distinct topology");
    }

    #[test]
    fn an_overloaded_scenario_loses_work_and_a_ramp_brackets_it() {
        let mut scenario = tiny_scenario();
        scenario.service_rounds_per_ms = 40;
        scenario.queue_capacity = 4;
        let t = run_scenario(&scenario, 1).unwrap();
        assert!(
            t.rejected + t.expired + t.infeasible > 0,
            "an under-provisioned plant must shed load: {t:?}"
        );
        scenario.ramp = Some(RampSpec {
            min_rps: 1.0,
            max_rps: 400.0,
            max_loss_fraction: 0.05,
            max_p99_ms: 0.0,
            iterations: 5,
        });
        let t = run_scenario(&scenario, 1).unwrap();
        let ramp = t.ramp.expect("ramp configured");
        assert_eq!(ramp.probes.len(), 5);
        assert!(ramp.max_sustainable_rps < 400.0);
        for probe in &ramp.probes {
            assert!(probe.rps >= 1.0 && probe.rps <= 400.0);
            if probe.sustainable {
                assert!(probe.rps <= ramp.max_sustainable_rps);
            }
        }
    }

    #[test]
    fn scenario_documents_round_trip_through_serde() {
        let mut scenario = tiny_scenario();
        scenario.ramp = Some(RampSpec {
            min_rps: 5.0,
            max_rps: 50.0,
            max_loss_fraction: 0.01,
            max_p99_ms: 25.0,
            iterations: 6,
        });
        scenario.classes[0].rate_limit = Some(RateLimit::new(3, 8));
        let json = serde_json::to_string_pretty(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
    }
}
