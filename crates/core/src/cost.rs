//! The unified cost model every engine decision is priced by.
//!
//! The paper's contribution is a *cost model* — round complexity in the
//! Broadcast Congested Clique — yet a serving stack that schedules, admits
//! and evicts as if every request were a unit job throws that information
//! away. [`CostModel`] closes the gap: it predicts the work of one request
//! (estimated rounds) from its pipeline kind and instance dimensions, and
//! **calibrates itself online** from the actual
//! [`RoundLedger`](bcc_runtime::RoundLedger) charges every completed request
//! reports back.
//!
//! Two engine layers consume the predictions:
//!
//! 1. **Scheduling** — [`crate::stream::StreamEngine`]'s weighted fair queue
//!    charges each job's virtual finish tag with its estimated cost instead
//!    of one unit, so one enormous LP does not count like one tiny solve
//!    when apportioning class shares.
//! 2. **Admission** — [`crate::stream::StreamClient::submit_with_deadline`]
//!    rejects at submit time with [`crate::Error::DeadlineInfeasible`] when
//!    the class's expected wait (backlog cost ÷ weight share, converted to
//!    wall-clock through the calibrated service rate,
//!    [`crate::wfq::WfqQueue::infeasible_wait`]) already exceeds the
//!    deadline — instead of queueing work that is doomed to expire.
//!
//! A third consumer spends the estimates directly on capacity: the stream
//! engine's **elastic worker pool**
//! ([`crate::stream::StreamEngineBuilder::elastic_workers`]) sizes itself
//! from backlog cost ÷ the calibrated service rate.
//!
//! # Basis functions: the shape of the prediction
//!
//! Every estimate is `basis(kind, dims) × rate(kind, bucket)`, where
//! `basis(kind, dims)` is a deterministic **work unit** count shaped like
//! the kind's actual round complexity — not a flat `n + m`. A linear basis
//! under-prices the LP family by four orders of magnitude: their rounds are
//! dominated by nested SDD solves inside every interior-point-style
//! iteration, so work grows far faster than instance size. The bases:
//!
//! | kind | basis | shape |
//! |------|-------|-------|
//! | [`CostKind::Sparsify`] | `m·⌈log₂ n⌉` | spectral rounds per edge scale with `log n` levels |
//! | [`CostKind::LaplacianSolve`] | `m·⌈log₂ n⌉` | preconditioned iterations touch `m` edges over `log n` depth |
//! | [`CostKind::LaplacianPreprocess`] | `m·⌈log₂ n⌉` | building the preconditioner is solve-shaped |
//! | [`CostKind::Lp`] | `⌈√m⌉·⌈log₂ t⌉ × t·⌈log₂ t⌉`, `t = n+m` | `√m·log` iterations, each an SDD-solve-shaped `t·log t` inner step |
//! | [`CostKind::Mcmf`] | LP basis `× ⌈log₂ t⌉` | cost scaling runs an LP-shaped phase per `log` scale |
//!
//! All bases floor at one unit so degenerate instances still carry weight,
//! and saturate rather than overflow on adversarial dimensions.
//!
//! # Size-bucketed calibration
//!
//! One scalar coefficient per kind is still wrong when small and huge
//! instances disagree about rounds-per-basis-unit (constant factors drift
//! with size). Observations are therefore binned into log₂-sized
//! **`(kind, size-bucket)` cells**: the bucket of an instance is
//! `⌊log₂(n + m)⌋` ([`CostDims::bucket`]), so each cell covers one binary
//! order of magnitude of instance size. Each cell keeps three monotone sums
//! — basis units, actual rounds, observations — so the fully-observed state
//! of a cell is independent of the order observations arrive in.
//!
//! [`CostModel::estimate`] resolves a prediction in three steps:
//!
//! 1. **Exact cell** — if the instance's own `(kind, bucket)` cell has
//!    observations, use its measured rate.
//! 2. **Nearest calibrated bucket** — otherwise fall back to the calibrated
//!    cell of the same kind with the smallest bucket distance, preferring
//!    the *smaller* bucket on ties (deterministic, and biased toward
//!    under-charging rather than over-charging unseen larger sizes).
//! 3. **Prior** — with no observations of the kind at all, fall back to
//!    `basis × prior(kind)` ([`CostModel::prior_estimate`]), a pure function
//!    of the arguments.
//!
//! Completed requests feed the loop through [`CostModel::observe`]. A cell
//! with observations is **calibrated** ([`CostModel::is_calibrated`]);
//! deadline admission treats an uncalibrated bucket as unpriceable and
//! never rejects on its account.
//!
//! The same loop also calibrates a **service rate** (wall-clock nanoseconds
//! per charged round, [`CostModel::observe_service`]): rounds are the
//! model's native currency, deadlines are wall-clock, and the service rate
//! is the bridge. Until the first completion calibrates it,
//! [`CostModel::service_rate`] returns `None` and deadline admission
//! stays permissive — an engine that has never served anything cannot call
//! any deadline infeasible.
//!
//! # Determinism contract
//!
//! Predictions steer *latency-side* decisions only — dispatch order,
//! admission verdicts, eviction victims, pool size. Results stay
//! bit-identical to the sequential [`crate::Session`] loop whatever the
//! model predicts (including adversarial zero or huge estimates —
//! `tests/stream.rs` proptests this). Reported estimation errors
//! ([`crate::stream::ClassStats`]) and the reported calibration snapshot
//! ([`CalibrationCell`]) are computed by **replaying** the calibration loop
//! in submission order at aggregation time, so they are pure functions of
//! the admitted workload: the live model's mid-flight estimates may diverge
//! under concurrency, but the *reported* predicted-vs-actual numbers never
//! do. Wall-clock-derived state (the service rate) is never reported.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bcc_graph::Graph;
use serde::{Deserialize, Serialize};

use crate::serve::Request;

/// The work categories the model prices separately. Each kind carries its
/// own prior, its own basis function and its own calibration cells — an LP
/// round budget says nothing about a sparsifier's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Theorem 1.2 — spectral sparsification of one graph.
    Sparsify,
    /// Theorem 1.3 — one Laplacian solve on a prepared topology (excludes
    /// preprocessing, which is priced as [`CostKind::LaplacianPreprocess`]).
    LaplacianSolve,
    /// Theorem 1.3 — building (or rebuilding, after eviction) the prepared
    /// solver of one topology.
    LaplacianPreprocess,
    /// Theorem 1.4 — one LP solve.
    Lp,
    /// Theorem 1.1 — one min-cost max-flow solve.
    Mcmf,
}

/// `⌈log₂ x⌉` floored at one — the depth factor the bases share. Uses
/// `leading_zeros` instead of the newer `ilog2` intrinsics so the crate
/// keeps its conservative toolchain floor.
fn log2_ceil(x: u64) -> u64 {
    let x = x.max(2);
    u64::from(64 - (x - 1).leading_zeros())
}

/// `⌈√x⌉`, exact for every `u64` (the float seed is corrected by integer
/// steps, so the result is deterministic across platforms).
fn isqrt_ceil(x: u64) -> u64 {
    if x <= 1 {
        return x;
    }
    let mut r = (x as f64).sqrt() as u64;
    while r.saturating_mul(r) > x {
        r -= 1;
    }
    while r.saturating_mul(r) < x {
        r += 1;
    }
    r
}

impl CostKind {
    const ALL: [CostKind; 5] = [
        CostKind::Sparsify,
        CostKind::LaplacianSolve,
        CostKind::LaplacianPreprocess,
        CostKind::Lp,
        CostKind::Mcmf,
    ];

    fn index(self) -> usize {
        match self {
            CostKind::Sparsify => 0,
            CostKind::LaplacianSolve => 1,
            CostKind::LaplacianPreprocess => 2,
            CostKind::Lp => 3,
            CostKind::Mcmf => 4,
        }
    }

    /// The stable label this kind is reported under (matches the pipeline
    /// names in per-request reports).
    pub fn label(self) -> &'static str {
        match self {
            CostKind::Sparsify => "sparsify",
            CostKind::LaplacianSolve => "laplacian-solve",
            CostKind::LaplacianPreprocess => "laplacian-preprocess",
            CostKind::Lp => "lp",
            CostKind::Mcmf => "mcmf",
        }
    }

    /// The nonlinear work-unit count of one instance of this kind — the
    /// *shape* of the prediction (see the [module docs](self) for the
    /// table). Floored at one unit, saturating on adversarial dimensions.
    pub fn basis(self, dims: CostDims) -> u64 {
        let t = dims.units();
        let depth = log2_ceil(dims.n.max(2));
        let base = match self {
            CostKind::Sparsify | CostKind::LaplacianSolve | CostKind::LaplacianPreprocess => {
                dims.m.max(1).saturating_mul(depth)
            }
            CostKind::Lp => lp_basis(t, dims.m),
            CostKind::Mcmf => lp_basis(t, dims.m).saturating_mul(log2_ceil(t)),
        };
        base.max(1)
    }

    /// The uncalibrated prior: rounds per *basis* unit assumed before the
    /// first observation of this kind. Deliberately coarse — one completion
    /// in the right size bucket is enough to replace it with a measured
    /// rate. The LP-family priors are large because even the nonlinear
    /// basis counts abstract units, while their measured rounds-per-unit on
    /// the tracked trajectory (`bench`'s seed-2022 stream workload, the one
    /// CI's trend gate prices) sit in the thousands — nested `sdd solve
    /// (gremban)` charges dominate every interior iteration.
    fn default_prior(self) -> u64 {
        match self {
            CostKind::Sparsify => 4,
            CostKind::LaplacianSolve => 2,
            CostKind::LaplacianPreprocess => 2,
            CostKind::Lp => 5_000,
            CostKind::Mcmf => 2_000,
        }
    }
}

/// `⌈√m⌉·⌈log₂ t⌉` interior-point-style iterations, each dominated by an
/// SDD-solve-shaped `t·⌈log₂ t⌉` inner step.
fn lp_basis(t: u64, m: u64) -> u64 {
    let depth = log2_ceil(t);
    let iterations = isqrt_ceil(m.max(1)).saturating_mul(depth);
    let inner = t.saturating_mul(depth);
    iterations.saturating_mul(inner)
}

/// The instance dimensions a prediction is derived from: vertices and edges
/// for graph pipelines, variables and constraints for LPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostDims {
    /// Vertex count (variable count for LPs).
    pub n: u64,
    /// Edge count (constraint count for LPs).
    pub m: u64,
}

/// Number of log₂ size buckets — one per possible bit position of
/// `n + m`, so every instance maps to exactly one bucket.
pub const SIZE_BUCKETS: usize = 64;

impl CostDims {
    /// Dimensions of a graph instance.
    pub fn of_graph(graph: &Graph) -> Self {
        CostDims {
            n: graph.n() as u64,
            m: graph.m() as u64,
        }
    }

    /// The raw size of an instance: `n + m`, floored at one so even
    /// degenerate instances carry a non-zero size.
    pub fn units(self) -> u64 {
        (self.n + self.m).max(1)
    }

    /// The calibration size bucket of this instance: `⌊log₂(n + m)⌋`, so
    /// each bucket covers one binary order of magnitude of instance size.
    pub fn bucket(self) -> usize {
        (63 - self.units().leading_zeros()) as usize
    }
}

/// Estimates are clamped to this many rounds, so adversarial priors cannot
/// push the scheduler's fixed-point tag arithmetic anywhere near overflow.
pub const MAX_ESTIMATE_ROUNDS: u64 = 1 << 40;

/// One `(kind, bucket)` calibration cell: monotone sums, so the
/// fully-observed state of a cell is independent of observation order.
#[derive(Debug, Default)]
struct Cell {
    /// Sum of `kind.basis(dims)` over every observation in this cell.
    basis_units: AtomicU64,
    /// Sum of actual rounds over every observation in this cell.
    actual_rounds: AtomicU64,
    /// Number of observations in this cell.
    observations: AtomicU64,
}

/// Per-kind calibration state: one cell per log₂ size bucket.
#[derive(Debug)]
struct KindState {
    cells: [Cell; SIZE_BUCKETS],
}

impl Default for KindState {
    fn default() -> Self {
        KindState {
            cells: std::array::from_fn(|_| Cell::default()),
        }
    }
}

/// One observed `(kind, size-bucket)` calibration cell, as snapshotted into
/// the deterministic stream report (replay-sourced — see the [module
/// docs](self) determinism contract). `actual_rounds / basis_units` is the
/// cell's calibrated rounds-per-basis-unit coefficient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationCell {
    /// The [`CostKind::label`] of the cell's kind.
    pub kind: String,
    /// The log₂ size bucket (`⌊log₂(n + m)⌋`).
    pub bucket: u64,
    /// Observations accumulated in the cell.
    pub observations: u64,
    /// Sum of basis units over the cell's observations.
    pub basis_units: u64,
    /// Sum of actual rounds over the cell's observations.
    pub actual_rounds: u64,
}

/// An online-calibrated predictor of per-request work (rounds), shared by
/// the scheduler, deadline admission, cache eviction and the elastic worker
/// pool. See the [module documentation](self) for the basis/bucket design
/// and the determinism contract.
///
/// The model is thread-safe: estimates are lock-free reads, observations are
/// lock-free sums. A model starts from per-kind priors
/// ([`CostModel::new`], or [`CostModel::with_prior`] to override them — the
/// hook the adversarial proptests use) and converges, bucket by bucket, to
/// the measured rounds-per-basis-unit rate of each `(kind, size)` cell as
/// completions feed back.
#[derive(Debug)]
pub struct CostModel {
    kinds: [KindState; 5],
    priors: [u64; 5],
    /// Service-rate calibration: total observed execution nanoseconds and
    /// the rounds they served. Never reported — wall-clock state stays out
    /// of the deterministic reports.
    service_nanos: AtomicU64,
    service_rounds: AtomicU64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

impl CostModel {
    /// A fresh model with the default per-kind priors and no observations.
    pub fn new() -> Self {
        CostModel {
            kinds: Default::default(),
            priors: CostKind::ALL.map(CostKind::default_prior),
            service_nanos: AtomicU64::new(0),
            service_rounds: AtomicU64::new(0),
        }
    }

    /// Overrides the prior (rounds per basis unit assumed before the first
    /// observation) of one kind. Zero is allowed — a zero prior predicts
    /// zero rounds until calibrated, which the scheduler must (and does)
    /// survive; estimates above [`MAX_ESTIMATE_ROUNDS`] are clamped.
    pub fn with_prior(mut self, kind: CostKind, rounds_per_unit: u64) -> Self {
        self.priors[kind.index()] = rounds_per_unit;
        self
    }

    /// A fresh, observation-free model with the same priors as `self` — the
    /// deterministic replica the report aggregation replays the calibration
    /// loop on.
    pub(crate) fn fresh_replica(&self) -> CostModel {
        CostModel {
            kinds: Default::default(),
            priors: self.priors,
            service_nanos: AtomicU64::new(0),
            service_rounds: AtomicU64::new(0),
        }
    }

    /// The uncalibrated prior estimate of one kind at the given dimensions:
    /// `basis × prior`, clamped to [`MAX_ESTIMATE_ROUNDS`]. A pure function
    /// of its arguments — this is the deterministic floor of
    /// [`CostModel::estimate`], and what the cache reports its
    /// predicted-rebuild sums with (the calibrated estimate depends on
    /// observation order, which scheduling controls).
    pub fn prior_estimate(&self, kind: CostKind, dims: CostDims) -> u64 {
        let basis = kind.basis(dims) as u128;
        let prior = self.priors[kind.index()] as u128;
        (basis * prior).min(MAX_ESTIMATE_ROUNDS as u128) as u64
    }

    /// Predicts the rounds one request of `kind` at `dims` will charge:
    /// `basis × rate` where the rate comes from the instance's own
    /// `(kind, bucket)` cell when calibrated, the nearest calibrated bucket
    /// of the kind otherwise (smaller bucket wins ties), and the prior when
    /// the kind has never been observed. Clamped to
    /// [`MAX_ESTIMATE_ROUNDS`].
    pub fn estimate(&self, kind: CostKind, dims: CostDims) -> u64 {
        let cells = &self.kinds[kind.index()].cells;
        let bucket = dims.bucket();
        let source = if cell_rate(&cells[bucket]).is_some() {
            Some(bucket)
        } else {
            nearest_calibrated(cells, bucket)
        };
        match source.and_then(|b| cell_rate(&cells[b])) {
            Some((base, actual)) => {
                let basis = kind.basis(dims) as u128;
                let scaled = basis * actual as u128 / base as u128;
                scaled.min(MAX_ESTIMATE_ROUNDS as u128) as u64
            }
            None => self.prior_estimate(kind, dims),
        }
    }

    /// Predicts the rounds of one [`Request`]: its execution kind at its
    /// instance dimensions. For Laplacian requests this prices the *solve*
    /// alone; a possible preprocessing rebuild is priced separately with
    /// [`CostKind::LaplacianPreprocess`].
    pub fn estimate_request(&self, request: &Request) -> u64 {
        let (kind, dims) = request.cost_profile();
        self.estimate(kind, dims)
    }

    /// Feeds one completed unit of work back into the calibration loop —
    /// into the `(kind, bucket)` cell of the observed instance only; every
    /// other cell's predictions are untouched.
    pub fn observe(&self, kind: CostKind, dims: CostDims, actual_rounds: u64) {
        let cell = &self.kinds[kind.index()].cells[dims.bucket()];
        cell.basis_units
            .fetch_add(kind.basis(dims), Ordering::Relaxed);
        cell.actual_rounds
            .fetch_add(actual_rounds, Ordering::Relaxed);
        cell.observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations of one kind so far, across all size buckets.
    pub fn observations(&self, kind: CostKind) -> u64 {
        self.kinds[kind.index()]
            .cells
            .iter()
            .map(|cell| cell.observations.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the `(kind, bucket)` cell of this instance has been observed
    /// at least once. Deadline admission treats an uncalibrated bucket as
    /// unpriceable: a request whose own cell is cold is never rejected as
    /// infeasible, because its tag (and the queue ahead of it) may be
    /// priced off a prior that is wrong by orders of magnitude.
    pub fn is_calibrated(&self, kind: CostKind, dims: CostDims) -> bool {
        self.kinds[kind.index()].cells[dims.bucket()]
            .observations
            .load(Ordering::Relaxed)
            > 0
    }

    /// Snapshot of every observed `(kind, bucket)` cell, in stable
    /// `(kind, bucket)` order. Deterministic when taken on a replayed
    /// replica (the reports do exactly that).
    pub fn calibration_cells(&self) -> Vec<CalibrationCell> {
        let mut out = Vec::new();
        for kind in CostKind::ALL {
            for (bucket, cell) in self.kinds[kind.index()].cells.iter().enumerate() {
                let observations = cell.observations.load(Ordering::Relaxed);
                if observations == 0 {
                    continue;
                }
                out.push(CalibrationCell {
                    kind: kind.label().to_string(),
                    bucket: bucket as u64,
                    observations,
                    basis_units: cell.basis_units.load(Ordering::Relaxed),
                    actual_rounds: cell.actual_rounds.load(Ordering::Relaxed),
                });
            }
        }
        out
    }

    /// Calibrates the service rate: `elapsed` of wall-clock execution served
    /// `rounds` charged rounds. Zero-round completions still count their
    /// time (they establish a floor for the rate).
    pub fn observe_service(&self, rounds: u64, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.service_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.service_rounds
            .fetch_add(rounds.max(1), Ordering::Relaxed);
    }

    /// Publishes the model's calibration state into a telemetry registry as
    /// gauges: per-kind observation counts (`cost.observations.<kind>`), the
    /// number of calibrated `(kind, bucket)` cells (`cost.calibrated_cells`)
    /// and the service-rate sums (`cost.service_rounds` /
    /// `cost.service_nanos`). Read-only — publishing never perturbs the
    /// calibration loop, so the deterministic replay at report aggregation
    /// is unaffected.
    pub fn publish_metrics(&self, registry: &crate::telemetry::MetricsRegistry) {
        let mut calibrated_cells = 0u64;
        for kind in CostKind::ALL {
            registry
                .gauge(&format!("cost.observations.{}", kind.label()))
                .set(self.observations(kind));
            calibrated_cells += self.kinds[kind.index()]
                .cells
                .iter()
                .filter(|cell| cell.observations.load(Ordering::Relaxed) > 0)
                .count() as u64;
        }
        registry
            .gauge("cost.calibrated_cells")
            .set(calibrated_cells);
        registry
            .gauge("cost.service_rounds")
            .set(self.service_rounds.load(Ordering::Relaxed));
        registry
            .gauge("cost.service_nanos")
            .set(self.service_nanos.load(Ordering::Relaxed));
    }

    /// The calibrated service rate as `(nanos, rounds)`: `rounds` charged
    /// rounds took `nanos` nanoseconds of wall-clock execution. `None` until
    /// the first [`CostModel::observe_service`]. The elastic pool sizes
    /// itself from it ([`crate::wfq::WfqQueue::desired_workers`]), and
    /// deadline admission converts expected waits by it
    /// ([`crate::wfq::WfqQueue::infeasible_wait`]).
    pub fn service_rate(&self) -> Option<(u64, u64)> {
        let rounds = self.service_rounds.load(Ordering::Relaxed);
        if rounds == 0 {
            return None;
        }
        Some((self.service_nanos.load(Ordering::Relaxed), rounds))
    }
}

/// The `(basis_units, actual_rounds)` sums of a cell, `None` while the cell
/// is cold.
fn cell_rate(cell: &Cell) -> Option<(u64, u64)> {
    if cell.observations.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let base = cell.basis_units.load(Ordering::Relaxed);
    if base == 0 {
        return None;
    }
    Some((base, cell.actual_rounds.load(Ordering::Relaxed)))
}

/// The calibrated cell closest to `bucket` by bucket distance, preferring
/// the smaller bucket on ties. Deterministic given the set of calibrated
/// cells.
fn nearest_calibrated(cells: &[Cell; SIZE_BUCKETS], bucket: usize) -> Option<usize> {
    for distance in 1..SIZE_BUCKETS {
        if let Some(lower) = bucket.checked_sub(distance) {
            if cell_rate(&cells[lower]).is_some() {
                return Some(lower);
            }
        }
        let upper = bucket + distance;
        if upper < SIZE_BUCKETS && cell_rate(&cells[upper]).is_some() {
            return Some(upper);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::generators;

    #[test]
    fn priors_drive_estimates_until_the_first_observation() {
        let model = CostModel::new();
        let dims = CostDims { n: 10, m: 20 };
        assert_eq!(
            model.estimate(CostKind::Sparsify, dims),
            CostKind::Sparsify.basis(dims) * CostKind::Sparsify.default_prior()
        );
        assert_eq!(
            model.estimate(CostKind::Sparsify, dims),
            model.prior_estimate(CostKind::Sparsify, dims)
        );
        // Kinds calibrate independently: observing LPs leaves sparsify on
        // its prior.
        model.observe(CostKind::Lp, CostDims { n: 4, m: 2 }, 600);
        assert_eq!(
            model.estimate(CostKind::Sparsify, dims),
            model.prior_estimate(CostKind::Sparsify, dims)
        );
        assert_eq!(model.observations(CostKind::Lp), 1);
        assert_eq!(model.observations(CostKind::Sparsify), 0);
    }

    #[test]
    fn bases_are_nonlinear_and_floored() {
        // m log n for the sparsifier/solver family.
        let dims = CostDims { n: 16, m: 24 };
        assert_eq!(CostKind::LaplacianSolve.basis(dims), 24 * 4);
        assert_eq!(CostKind::LaplacianPreprocess.basis(dims), 24 * 4);
        assert_eq!(CostKind::Sparsify.basis(CostDims { n: 14, m: 91 }), 91 * 4);
        // LP: ceil(sqrt m) * log t iterations, each t log t.
        // t = 3, log = 2 -> iterations 1*2 = 2, inner 3*2 = 6, basis 12.
        assert_eq!(CostKind::Lp.basis(CostDims { n: 2, m: 1 }), 12);
        // MCMF adds one more log factor over the LP shape.
        assert_eq!(
            CostKind::Mcmf.basis(CostDims { n: 2, m: 1 }),
            CostKind::Lp.basis(CostDims { n: 2, m: 1 }) * 2
        );
        // Degenerate instances carry one unit; adversarial ones saturate.
        assert_eq!(CostKind::Sparsify.basis(CostDims { n: 0, m: 0 }), 1);
        assert!(
            CostKind::Mcmf.basis(CostDims {
                n: u64::MAX / 2,
                m: u64::MAX / 2
            }) > 0
        );
    }

    #[test]
    fn log2_and_sqrt_helpers_are_exact() {
        assert_eq!(log2_ceil(0), 1);
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1 << 40), 40);
        assert_eq!(isqrt_ceil(0), 0);
        assert_eq!(isqrt_ceil(1), 1);
        assert_eq!(isqrt_ceil(2), 2);
        assert_eq!(isqrt_ceil(4), 2);
        assert_eq!(isqrt_ceil(5), 3);
        assert_eq!(isqrt_ceil(u64::MAX), 1 << 32);
    }

    #[test]
    fn buckets_cover_binary_orders_of_magnitude() {
        assert_eq!(CostDims { n: 0, m: 0 }.bucket(), 0);
        assert_eq!(CostDims { n: 1, m: 0 }.bucket(), 0);
        assert_eq!(CostDims { n: 1, m: 1 }.bucket(), 1);
        assert_eq!(CostDims { n: 2, m: 2 }.bucket(), 2);
        assert_eq!(CostDims { n: 16, m: 24 }.bucket(), 5);
        assert_eq!(CostDims { n: 25, m: 40 }.bucket(), 6);
        assert_eq!(
            CostDims {
                n: u64::MAX / 2,
                m: u64::MAX / 2
            }
            .bucket(),
            63
        );
    }

    #[test]
    fn calibration_converges_to_the_observed_rate_within_a_bucket() {
        let model = CostModel::new();
        // Two observations at 10 rounds per basis unit (m log n = 2*2=4 and
        // 8*3=24 units), landing in buckets 2 and 3; estimates in either
        // bucket see the measured rate.
        model.observe(CostKind::LaplacianSolve, CostDims { n: 3, m: 2 }, 40);
        model.observe(CostKind::LaplacianSolve, CostDims { n: 7, m: 8 }, 240);
        let dims = CostDims { n: 6, m: 4 };
        let estimate = model.estimate(CostKind::LaplacianSolve, dims);
        assert_eq!(estimate, CostKind::LaplacianSolve.basis(dims) * 10);
        // Order independence: the same observations in the other order give
        // the same calibrated state.
        let other = CostModel::new();
        other.observe(CostKind::LaplacianSolve, CostDims { n: 7, m: 8 }, 240);
        other.observe(CostKind::LaplacianSolve, CostDims { n: 3, m: 2 }, 40);
        assert_eq!(other.estimate(CostKind::LaplacianSolve, dims), estimate);
    }

    #[test]
    fn observations_in_one_bucket_leave_other_buckets_on_their_fallback() {
        let model = CostModel::new();
        let small = CostDims { n: 3, m: 2 }; // bucket 2
        let huge = CostDims {
            n: 1 << 20,
            m: 1 << 20,
        }; // bucket 21
        model.observe(CostKind::Sparsify, small, 1_000_000);
        assert!(model.is_calibrated(CostKind::Sparsify, small));
        assert!(!model.is_calibrated(CostKind::Sparsify, huge));
        // The huge bucket falls back to the nearest calibrated cell's rate,
        // not to a blend that would shift when the small bucket re-observes
        // proportionally.
        let rate_before = model.estimate(CostKind::Sparsify, huge);
        model.observe(CostKind::Sparsify, small, 1_000_000); // same rate again
        assert_eq!(model.estimate(CostKind::Sparsify, huge), rate_before);
    }

    #[test]
    fn fallback_prefers_the_nearest_then_smaller_bucket() {
        let model = CostModel::new();
        let lo = CostDims { n: 4, m: 2 }; // bucket 2, basis 2*2=4
        let hi = CostDims { n: 32, m: 32 }; // bucket 6, basis 32*5=160
        model.observe(CostKind::Sparsify, lo, 40); // 10 rounds/unit
        model.observe(CostKind::Sparsify, hi, 160); // 1 round/unit
                                                    // bucket 4 is equidistant from 2 and 6: the smaller bucket wins.
        let mid = CostDims { n: 8, m: 8 }; // bucket 4, basis 8*3=24
        assert_eq!(model.estimate(CostKind::Sparsify, mid), 24 * 10);
        // bucket 5 is strictly nearer to 6.
        let near_hi = CostDims { n: 16, m: 16 }; // bucket 5, basis 16*4=64
        assert_eq!(model.estimate(CostKind::Sparsify, near_hi), 64);
    }

    #[test]
    fn zero_and_adversarial_priors_are_clamped_not_ub() {
        let zero = CostModel::new().with_prior(CostKind::Sparsify, 0);
        assert_eq!(
            zero.estimate(CostKind::Sparsify, CostDims { n: 100, m: 1000 }),
            0
        );
        let huge = CostModel::new().with_prior(CostKind::Sparsify, u64::MAX);
        assert_eq!(
            huge.estimate(CostKind::Sparsify, CostDims { n: 100, m: 1000 }),
            MAX_ESTIMATE_ROUNDS,
            "estimates are clamped"
        );
        // Degenerate dimensions still carry one work unit.
        assert_eq!(CostDims { n: 0, m: 0 }.units(), 1);
    }

    #[test]
    fn request_profiles_price_the_execution_kind_at_instance_dims() {
        let g = generators::grid(3, 3);
        let dims = CostDims::of_graph(&g);
        assert_eq!(dims, CostDims { n: 9, m: 12 });
        let model = CostModel::new();
        let request = Request::laplacian(g.clone(), vec![0.0; g.n()]);
        assert_eq!(
            model.estimate_request(&request),
            model.estimate(CostKind::LaplacianSolve, dims)
        );
        let request = Request::sparsify(g, 0.5);
        assert_eq!(
            model.estimate_request(&request),
            model.estimate(CostKind::Sparsify, dims)
        );
    }

    #[test]
    fn calibration_cells_snapshot_observed_cells_in_stable_order() {
        let model = CostModel::new();
        assert!(model.calibration_cells().is_empty());
        model.observe(CostKind::Mcmf, CostDims { n: 3, m: 2 }, 100);
        model.observe(CostKind::Sparsify, CostDims { n: 16, m: 24 }, 50);
        model.observe(CostKind::Sparsify, CostDims { n: 16, m: 24 }, 70);
        let cells = model.calibration_cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].kind, "sparsify");
        assert_eq!(cells[0].bucket, 5);
        assert_eq!(cells[0].observations, 2);
        assert_eq!(cells[0].basis_units, 2 * 24 * 4);
        assert_eq!(cells[0].actual_rounds, 120);
        assert_eq!(cells[1].kind, "mcmf");
        assert_eq!(cells[1].observations, 1);
    }

    #[test]
    fn service_rate_is_none_until_calibrated_then_scales_linearly() {
        let model = CostModel::new();
        assert_eq!(model.service_rate(), None);
        model.observe_service(100, Duration::from_micros(200));
        assert_eq!(model.service_rate(), Some((200_000, 100)));
        model.observe_service(100, Duration::from_micros(600));
        assert_eq!(model.service_rate(), Some((800_000, 200)));
    }

    #[test]
    fn replicas_copy_priors_but_not_observations() {
        let model = CostModel::new().with_prior(CostKind::Mcmf, 7);
        model.observe(CostKind::Mcmf, CostDims { n: 1, m: 1 }, 9999);
        model.observe_service(100, Duration::from_micros(200));
        let replica = model.fresh_replica();
        let dims = CostDims { n: 2, m: 3 };
        assert_eq!(
            replica.estimate(CostKind::Mcmf, dims),
            CostKind::Mcmf.basis(dims) * 7
        );
        assert_eq!(replica.observations(CostKind::Mcmf), 0);
        assert_eq!(replica.service_rate(), None);
    }
}
