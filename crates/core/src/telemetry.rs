//! Live telemetry for the serving engine: a lock-free metrics registry, a
//! per-request lifecycle tracer, and exportable timelines.
//!
//! Every signal the engine emitted before this module existed was post-hoc:
//! [`crate::stream::StreamReport`] and the `BENCH_*.json` artifacts summarize
//! a run only after the serve scope closes. This module adds the *live* side
//! — counters you can read while workers are running, and a timeline you can
//! load into a trace viewer — without perturbing the deterministic report
//! path in any way.
//!
//! # Architecture
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`DurationHistogram`]s. Registration (by name, idempotent) takes a brief
//!   lock; the returned handles are plain atomics, so the *hot path* —
//!   incrementing a counter from a worker — is lock-free and wait-free.
//!   [`MetricsRegistry::snapshot`] reads every atomic at any time without
//!   stopping workers and returns a serializable [`MetricsSnapshot`].
//! * [`Tracer`] — bounded per-lane ring buffers of typed [`TraceRecord`]s
//!   (one lane per worker plus one for the admission/collection path). Each
//!   record carries a [`TraceEvent`] from the request lifecycle
//!   (submitted → admitted/rejected/infeasible → queued → dispatched →
//!   cache probe → solve → collected/expired, plus pool resize events) and a
//!   timestamp read from the engine's injectable [`crate::clock::Clock`] —
//!   under a [`crate::clock::VirtualClock`] the whole timeline is
//!   deterministic and byte-stable.
//! * [`TelemetrySink`] — the cheap, cloneable handle the engine builder
//!   accepts ([`crate::stream::StreamEngineBuilder::telemetry`]). A disabled
//!   sink is a `None`: every emission site checks one `Option` and does
//!   nothing else, so instrumentation is zero-cost when telemetry is off
//!   (the default).
//!
//! # Export formats
//!
//! * [`MetricsSnapshot`] serializes to JSON under the `bcc-metrics/v1`
//!   schema tag, with every metric list sorted by name for byte-stable
//!   output.
//! * [`chrome_trace_json`] renders trace records in the Chrome trace-event
//!   format (the JSON object form, `{"traceEvents": [...]}`): open
//!   `chrome://tracing` or <https://ui.perfetto.dev> and load the file.
//!   Timestamps are microseconds in `ts` with the exact nanosecond reading
//!   preserved in `args.ns`.
//!
//! # Determinism contract
//!
//! Telemetry is strictly write-only from the engine's point of view: no
//! scheduling, admission, caching or costing decision ever reads a metric or
//! a trace buffer. The full-report bit-identity guarantees of
//! [`crate::stream::StreamEngine`] therefore hold with tracing on or off —
//! the test suite asserts this.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use bcc_core::clock::VirtualClock;
//! use bcc_core::stream::{Priority, Request, StreamEngine};
//! use bcc_core::telemetry::TelemetrySink;
//!
//! let sink = TelemetrySink::enabled();
//! let mut engine = StreamEngine::builder()
//!     .seed(7)
//!     .clock(Arc::new(VirtualClock::new()))
//!     .telemetry(sink.clone())
//!     .build();
//! engine.serve(|client| {
//!     let g = bcc_core::graph::generators::grid(3, 3);
//!     let t = client
//!         .submit(Request::sparsify(g, 0.5), Priority::Interactive)
//!         .unwrap();
//!     client.wait(t).unwrap();
//!     // Metrics are inspectable mid-flight, without stopping workers.
//!     let live = client.telemetry_snapshot().unwrap();
//!     assert!(live.counter("stream.submitted") >= 1);
//! });
//! // The caller kept a clone of the sink: exports outlive the scope.
//! let snapshot = sink.metrics_snapshot().unwrap();
//! assert_eq!(snapshot.counter("stream.dispatched"), 1);
//! let trace = sink.chrome_trace().unwrap();
//! assert!(trace.starts_with("{\"displayTimeUnit\""));
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Schema tag written into every serialized [`MetricsSnapshot`].
pub const METRICS_SCHEMA: &str = "bcc-metrics/v1";

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` nanosecond range (`2^0` … `2^63`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Default number of trace lanes in an [`enabled`](TelemetrySink::enabled)
/// sink: lane 0 for the admission/collection path plus one lane per worker,
/// clamped into this range.
pub const DEFAULT_TRACE_LANES: usize = 64;

/// Default per-lane trace capacity of an
/// [`enabled`](TelemetrySink::enabled) sink, in records.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Metric primitives.
// ---------------------------------------------------------------------------

/// A monotone event counter. All operations are single atomic instructions.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge. All operations are single atomic instructions.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the gauge with `value`.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is currently lower (a running
    /// maximum).
    pub fn set_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed, log-bucketed duration histogram: bucket 0 counts exact zeros,
/// bucket `i ≥ 1` counts nanosecond values `v` with `2^(i-1) ≤ v < 2^i`
/// (so `u64::MAX` lands in bucket 64). Recording is a single atomic
/// increment — no locks, no allocation, no resizing.
#[derive(Debug)]
pub struct DurationHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram::default()
    }

    /// The bucket index a nanosecond value falls into: 0 for zero, else
    /// `⌊log₂ v⌋ + 1`.
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            64 - ns.leading_zeros() as usize
        }
    }

    /// The smallest nanosecond value of bucket `index` (0 for bucket 0,
    /// `2^(index-1)` otherwise).
    pub fn bucket_low_ns(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: the sum is advisory, the buckets exact.
        let mut sum = self.sum_ns.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(ns);
            match self
                .sum_ns
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
    }

    /// Records one [`Duration`] sample (saturating at the `u64` nanosecond
    /// range).
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// The count in one bucket.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registry and snapshot.
// ---------------------------------------------------------------------------

/// A registry of named metrics. Registration is idempotent — asking for the
/// same name twice returns the same underlying metric — and takes a brief
/// lock; the returned [`Arc`] handles are then updated lock-free. Callers on
/// hot paths should register once and cache the handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<DurationHistogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::new());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram registered under `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<DurationHistogram> {
        let mut map = self.histograms.lock().unwrap();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(DurationHistogram::new());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Reads every registered metric into a serializable snapshot, sorted
    /// by name. Workers keep running; the values are a consistent-enough
    /// point-in-time read (each atomic individually, not a global barrier).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| {
                let buckets = (0..HISTOGRAM_BUCKETS)
                    .filter_map(|i| {
                        let count = h.bucket_count(i);
                        (count > 0).then(|| HistogramBucket {
                            low_ns: DurationHistogram::bucket_low_ns(i),
                            count,
                        })
                    })
                    .collect();
                HistogramSnapshot {
                    name: name.clone(),
                    count: h.count(),
                    sum_ns: h.sum_ns(),
                    buckets,
                }
            })
            .collect();
        MetricsSnapshot {
            schema: METRICS_SCHEMA.to_string(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// The per-tenant serving counters a multi-tenant front-end (the
/// `bcc-served` daemon) registers for each tenant it authenticates, named
/// `tenant.<name>.submitted` / `tenant.<name>.completed` /
/// `tenant.<name>.quota_rejections` in the [`MetricsRegistry`] so they ride
/// along in every [`MetricsSnapshot`] export.
///
/// Registration is idempotent (the registry returns the same underlying
/// counters for repeated handshakes of one tenant), so every connection can
/// simply call [`TenantCounters::register`] and cache the handles for its
/// lifetime — the lock is paid once per connection, never per request.
#[derive(Debug, Clone)]
pub struct TenantCounters {
    /// Requests admitted into the engine on this tenant's behalf.
    pub submitted: Arc<Counter>,
    /// Results delivered back to this tenant (successful or failed).
    pub completed: Arc<Counter>,
    /// Submissions refused up front because the tenant's cache quota was
    /// exhausted.
    pub quota_rejections: Arc<Counter>,
}

impl TenantCounters {
    /// Resolves (creating on first use) the three counters of `tenant` in
    /// `registry`.
    pub fn register(registry: &MetricsRegistry, tenant: &str) -> Self {
        TenantCounters {
            submitted: registry.counter(&format!("tenant.{tenant}.submitted")),
            completed: registry.counter(&format!("tenant.{tenant}.completed")),
            quota_rejections: registry.counter(&format!("tenant.{tenant}.quota_rejections")),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: u64,
}

/// One non-empty histogram bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Smallest nanosecond value of the bucket (inclusive); the bucket ends
    /// just below twice this value (bucket 0 holds exact zeros).
    pub low_ns: u64,
    /// Number of samples in the bucket.
    pub count: u64,
}

/// One histogram in a [`MetricsSnapshot`]: total count, saturating sum and
/// the non-empty log buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds (saturating).
    pub sum_ns: u64,
    /// The non-empty buckets in ascending `low_ns` order.
    pub buckets: Vec<HistogramBucket>,
}

/// A point-in-time, serializable read of a [`MetricsRegistry`] (schema
/// [`METRICS_SCHEMA`]). Metric lists are sorted by name, so serializing a
/// snapshot of a deterministic run is byte-stable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema tag, [`METRICS_SCHEMA`].
    pub schema: String,
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of a counter by name (0 if absent — a never-incremented
    /// counter and an unregistered one are indistinguishable by design).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The value of a gauge by name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
            .unwrap_or(0)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

// ---------------------------------------------------------------------------
// Lifecycle tracing.
// ---------------------------------------------------------------------------

/// A typed request-lifecycle event. The request path is
/// `Submitted → {Queued | Rejected | Infeasible} → Dispatched →
/// {CacheHit | CacheMiss → BuildBegin → BuildEnd} → SolveBegin → SolveEnd →
/// Collected`, with `Expired` replacing dispatch for jobs whose deadline
/// passes in the queue; pool events interleave on worker lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEvent {
    /// A submission entered admission control.
    Submitted,
    /// Admission rejected the submission (queue full, `Reject` policy).
    Rejected,
    /// Admission rejected the submission as deadline-infeasible.
    Infeasible,
    /// The submission was accepted into the scheduler queue.
    Queued,
    /// A worker popped the job from the queue.
    Dispatched,
    /// The job's Laplacian cache probe hit (includes waiting on another
    /// worker's in-flight build of the same entry).
    CacheHit,
    /// The job's Laplacian cache probe missed; a build follows.
    CacheMiss,
    /// Preprocessing (cache entry build) started.
    BuildBegin,
    /// Preprocessing (cache entry build) finished.
    BuildEnd,
    /// Request execution started on a worker.
    SolveBegin,
    /// Request execution finished on a worker.
    SolveEnd,
    /// The caller collected the result (`poll`/`wait`).
    Collected,
    /// The job's deadline passed while it was still queued.
    Expired,
    /// The elastic pool raised its worker target (detail = new target).
    PoolGrow,
    /// The elastic pool lowered its worker target (detail = new target).
    PoolShrink,
    /// A worker parked because its id is outside the pool target.
    WorkerPark,
}

impl TraceEvent {
    /// The stable label used in exported timelines.
    pub fn label(self) -> &'static str {
        match self {
            TraceEvent::Submitted => "submitted",
            TraceEvent::Rejected => "rejected",
            TraceEvent::Infeasible => "infeasible",
            TraceEvent::Queued => "queued",
            TraceEvent::Dispatched => "dispatched",
            TraceEvent::CacheHit => "cache-hit",
            TraceEvent::CacheMiss => "cache-miss",
            TraceEvent::BuildBegin => "build-begin",
            TraceEvent::BuildEnd => "build-end",
            TraceEvent::SolveBegin => "solve-begin",
            TraceEvent::SolveEnd => "solve-end",
            TraceEvent::Collected => "collected",
            TraceEvent::Expired => "expired",
            TraceEvent::PoolGrow => "pool-grow",
            TraceEvent::PoolShrink => "pool-shrink",
            TraceEvent::WorkerPark => "worker-park",
        }
    }
}

/// Sentinel request id for records that concern no particular request
/// (pool events).
pub const NO_REQUEST: u64 = u64::MAX;

/// One trace record: what happened, to which request, on which lane, when
/// (nanoseconds since the engine clock's epoch), plus one event-specific
/// detail value (queue index, pool target, rounds — see [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Clock reading in nanoseconds since the engine clock's epoch.
    pub at_ns: u64,
    /// Lane the record was written to (0 = admission/collection path,
    /// `1 + worker id` for worker lanes).
    pub lane: u32,
    /// Submission index the event concerns, or [`NO_REQUEST`].
    pub request: u64,
    /// The lifecycle event.
    pub event: TraceEvent,
    /// Event-specific detail value.
    pub detail: u64,
}

/// Bounded per-lane ring buffers of [`TraceRecord`]s. Each lane has a single
/// writer (its worker), so the per-lane mutex is effectively uncontended;
/// when a lane is full, further records on it are counted as dropped rather
/// than overwriting history, so span counts in an un-dropped trace reconcile
/// exactly with the scheduler's counters.
#[derive(Debug)]
pub struct Tracer {
    lanes: Vec<Mutex<Vec<TraceRecord>>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer with `lanes` ring buffers of `capacity` records each (both
    /// floored at 1).
    pub fn new(lanes: usize, capacity: usize) -> Self {
        let lanes = lanes.max(1);
        Tracer {
            lanes: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Appends a record to `lane` (clamped to the last lane), dropping it
    /// if the lane is full.
    pub fn record(&self, lane: usize, record: TraceRecord) {
        let lane = lane.min(self.lanes.len() - 1);
        let mut buf = self.lanes[lane].lock().unwrap();
        if buf.len() < self.capacity {
            buf.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of records dropped because their lane was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All records, merged across lanes and sorted by `(at_ns, lane,
    /// intra-lane order)` — a deterministic total order whenever the
    /// underlying clock readings are deterministic.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut all: Vec<(u64, u32, usize, TraceRecord)> = Vec::new();
        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            let buf = lane.lock().unwrap();
            for (pos, rec) in buf.iter().enumerate() {
                all.push((rec.at_ns, lane_idx as u32, pos, *rec));
            }
        }
        all.sort_by_key(|&(at, lane, pos, _)| (at, lane, pos));
        all.into_iter().map(|(_, _, _, rec)| rec).collect()
    }
}

// ---------------------------------------------------------------------------
// The sink handle.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TelemetryCore {
    registry: MetricsRegistry,
    tracer: Tracer,
}

/// The handle the engine builder accepts: either disabled (the default — a
/// single `Option` check per emission site, no allocation, no atomics) or a
/// shared registry-plus-tracer. Cloning is cheap; every clone observes the
/// same metrics and traces, so callers keep a clone to export after the
/// serve scope ends.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<TelemetryCore>>,
}

impl TelemetrySink {
    /// The default disabled sink: every emission is a no-op.
    pub fn disabled() -> Self {
        TelemetrySink { inner: None }
    }

    /// An enabled sink with default tracer geometry
    /// ([`DEFAULT_TRACE_LANES`] × [`DEFAULT_TRACE_CAPACITY`]).
    pub fn enabled() -> Self {
        TelemetrySink::with_capacity(DEFAULT_TRACE_LANES, DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled sink with `lanes` trace ring buffers of `capacity`
    /// records each.
    pub fn with_capacity(lanes: usize, capacity: usize) -> Self {
        TelemetrySink {
            inner: Some(Arc::new(TelemetryCore {
                registry: MetricsRegistry::new(),
                tracer: Tracer::new(lanes, capacity),
            })),
        }
    }

    /// Whether the sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|core| &core.registry)
    }

    /// Records a lifecycle event (no-op when disabled). `at` is a reading
    /// of the engine's clock; `lane` 0 is the admission/collection path and
    /// `1 + worker id` a worker lane.
    pub fn trace(&self, lane: usize, at: Duration, event: TraceEvent, request: u64, detail: u64) {
        if let Some(core) = self.inner.as_deref() {
            core.tracer.record(
                lane,
                TraceRecord {
                    at_ns: u64::try_from(at.as_nanos()).unwrap_or(u64::MAX),
                    lane: lane.min(core.tracer.lanes() - 1) as u32,
                    request,
                    event,
                    detail,
                },
            );
        }
    }

    /// All trace records so far in deterministic order (empty when
    /// disabled). See [`Tracer::records`].
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.inner
            .as_deref()
            .map(|core| core.tracer.records())
            .unwrap_or_default()
    }

    /// Number of trace records dropped because a lane was full (0 when
    /// disabled).
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_deref()
            .map(|core| core.tracer.dropped())
            .unwrap_or(0)
    }

    /// A point-in-time metrics snapshot, when enabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry().map(MetricsRegistry::snapshot)
    }

    /// The recorded timeline in Chrome trace-event JSON, when enabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner
            .as_deref()
            .map(|core| chrome_trace_json(&[("engine".to_string(), core.tracer.records())]))
    }
}

// ---------------------------------------------------------------------------
// Pre-registered engine metric handles.
// ---------------------------------------------------------------------------

/// The standard stream-engine metrics, registered once at engine build so
/// the per-event hot path touches only cached atomic handles. Counter names
/// are `stream.*` and `pool.*`; the histograms record queue wait and worker
/// service time.
#[derive(Debug)]
pub struct EngineCounters {
    /// `stream.submitted`: submissions that entered admission control.
    pub submitted: Arc<Counter>,
    /// `stream.rejected`: submissions bounced by backpressure.
    pub rejected: Arc<Counter>,
    /// `stream.infeasible`: submissions bounced by deadline admission.
    pub infeasible: Arc<Counter>,
    /// `stream.queued`: submissions accepted into the scheduler queue.
    pub queued: Arc<Counter>,
    /// `stream.dispatched`: jobs popped by workers.
    pub dispatched: Arc<Counter>,
    /// `stream.completed`: jobs that finished executing.
    pub completed: Arc<Counter>,
    /// `stream.expired`: jobs whose deadline passed in the queue.
    pub expired: Arc<Counter>,
    /// `stream.collected`: results handed back through `poll`/`wait`.
    pub collected: Arc<Counter>,
    /// `pool.grows`: elastic pool target raises.
    pub pool_grows: Arc<Counter>,
    /// `pool.shrinks`: elastic pool target cuts.
    pub pool_shrinks: Arc<Counter>,
    /// `pool.parks`: workers parked outside the pool target.
    pub pool_parks: Arc<Counter>,
    /// `pool.target`: the current elastic pool worker target.
    pub pool_target: Arc<Gauge>,
    /// `pool.peak`: the highest pool target seen.
    pub pool_peak: Arc<Gauge>,
    /// `stream.queue_depth`: jobs in the scheduler queue right now.
    pub queue_depth: Arc<Gauge>,
    /// `stream.queue_wait_ns`: admission → dispatch, per dispatched job.
    pub queue_wait: Arc<DurationHistogram>,
    /// `stream.service_ns`: dispatch → completion, per executed job.
    pub service: Arc<DurationHistogram>,
}

impl EngineCounters {
    /// Registers (or re-attaches to) the standard engine metrics.
    pub fn register(registry: &MetricsRegistry) -> Self {
        EngineCounters {
            submitted: registry.counter("stream.submitted"),
            rejected: registry.counter("stream.rejected"),
            infeasible: registry.counter("stream.infeasible"),
            queued: registry.counter("stream.queued"),
            dispatched: registry.counter("stream.dispatched"),
            completed: registry.counter("stream.completed"),
            expired: registry.counter("stream.expired"),
            collected: registry.counter("stream.collected"),
            pool_grows: registry.counter("pool.grows"),
            pool_shrinks: registry.counter("pool.shrinks"),
            pool_parks: registry.counter("pool.parks"),
            pool_target: registry.gauge("pool.target"),
            pool_peak: registry.gauge("pool.peak"),
            queue_depth: registry.gauge("stream.queue_depth"),
            queue_wait: registry.histogram("stream.queue_wait_ns"),
            service: registry.histogram("stream.service_ns"),
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.
// ---------------------------------------------------------------------------

fn escape_json(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders trace records as a Chrome trace-event-format JSON document (the
/// object form). Each `(name, records)` group becomes one process (`pid` =
/// group index + 1, named via a `process_name` metadata event); lanes map
/// to threads (`tid`). Every record is an instant event whose `ts` is the
/// timestamp in whole microseconds, with the exact nanosecond reading, the
/// request id and the detail value under `args`. The output is a pure
/// function of the records, so deterministic traces export byte-identically.
pub fn chrome_trace_json(groups: &[(String, Vec<TraceRecord>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (idx, (name, records)) in groups.iter().enumerate() {
        let pid = idx + 1;
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\""
        ));
        escape_json(&mut out, name);
        out.push_str("\"}}");
        for r in records {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"args\":{{\"ns\":{},\"request\":{},\"detail\":{}}}}}",
                r.event.label(),
                pid,
                r.lane,
                r.at_ns / 1_000,
                r.at_ns,
                r.request,
                r.detail
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(registry.counter("x").get(), 3);
        let g = registry.gauge("y");
        g.set(7);
        g.set_max(5);
        assert_eq!(registry.gauge("y").get(), 7);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn tenant_counters_register_under_prefixed_names_idempotently() {
        let registry = MetricsRegistry::new();
        let first = TenantCounters::register(&registry, "acme");
        first.submitted.incr();
        first.submitted.incr();
        first.completed.incr();
        first.quota_rejections.incr();
        // A second handshake of the same tenant resolves the same counters.
        let second = TenantCounters::register(&registry, "acme");
        second.submitted.incr();
        assert_eq!(registry.counter("tenant.acme.submitted").get(), 3);
        assert_eq!(registry.counter("tenant.acme.completed").get(), 1);
        assert_eq!(registry.counter("tenant.acme.quota_rejections").get(), 1);
        // Distinct tenants get distinct counters.
        let other = TenantCounters::register(&registry, "umbrella");
        other.submitted.incr();
        assert_eq!(registry.counter("tenant.umbrella.submitted").get(), 1);
        assert_eq!(registry.counter("tenant.acme.submitted").get(), 3);
        // The prefixed names ride along in the snapshot export.
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"tenant.acme.submitted"), "{names:?}");
        assert!(names.contains(&"tenant.acme.quota_rejections"), "{names:?}");
        assert!(names.contains(&"tenant.umbrella.submitted"), "{names:?}");
    }

    #[test]
    fn histogram_bucket_boundaries_cover_the_full_u64_range() {
        // Satellite: 0, 1 and u64::MAX-adjacent durations land in the
        // documented buckets.
        assert_eq!(DurationHistogram::bucket_index(0), 0);
        assert_eq!(DurationHistogram::bucket_index(1), 1);
        assert_eq!(DurationHistogram::bucket_index(2), 2);
        assert_eq!(DurationHistogram::bucket_index(3), 2);
        assert_eq!(DurationHistogram::bucket_index(4), 3);
        assert_eq!(DurationHistogram::bucket_index((1 << 63) - 1), 63);
        assert_eq!(DurationHistogram::bucket_index(1 << 63), 64);
        assert_eq!(DurationHistogram::bucket_index(u64::MAX - 1), 64);
        assert_eq!(DurationHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(DurationHistogram::bucket_low_ns(0), 0);
        assert_eq!(DurationHistogram::bucket_low_ns(1), 1);
        assert_eq!(DurationHistogram::bucket_low_ns(64), 1 << 63);

        let h = DurationHistogram::new();
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(u64::MAX);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(64), 2);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum_ns(), u64::MAX);
    }

    #[test]
    fn snapshot_is_sorted_and_lookup_works() {
        let registry = MetricsRegistry::new();
        registry.counter("b").add(2);
        registry.counter("a").add(1);
        registry.gauge("g").set(5);
        registry.histogram("h").record(Duration::from_nanos(3));
        let snap = registry.snapshot();
        assert_eq!(snap.schema, METRICS_SCHEMA);
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("g"), 5);
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_ns, 3);
        assert_eq!(
            h.buckets,
            vec![HistogramBucket {
                low_ns: 2,
                count: 1
            }]
        );
        // The snapshot round-trips through JSON.
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn tracer_bounds_lanes_and_counts_drops() {
        let tracer = Tracer::new(2, 2);
        let rec = |at_ns, lane| TraceRecord {
            at_ns,
            lane,
            request: 1,
            event: TraceEvent::Queued,
            detail: 0,
        };
        tracer.record(0, rec(5, 0));
        tracer.record(1, rec(3, 1));
        tracer.record(9, rec(4, 1)); // lane clamped to 1
        tracer.record(1, rec(6, 1)); // lane 1 full: dropped
        assert_eq!(tracer.dropped(), 1);
        let records = tracer.records();
        let times: Vec<u64> = records.iter().map(|r| r.at_ns).collect();
        assert_eq!(times, [3, 4, 5]);
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.trace(0, Duration::from_nanos(1), TraceEvent::Queued, 0, 0);
        assert!(sink.trace_records().is_empty());
        assert!(sink.metrics_snapshot().is_none());
        assert!(sink.chrome_trace().is_none());
        assert_eq!(sink.dropped_events(), 0);
    }

    #[test]
    fn clones_of_an_enabled_sink_share_state() {
        let sink = TelemetrySink::enabled();
        let clone = sink.clone();
        clone.registry().unwrap().counter("n").add(4);
        sink.trace(1, Duration::from_nanos(2), TraceEvent::Dispatched, 7, 0);
        assert_eq!(sink.metrics_snapshot().unwrap().counter("n"), 4);
        let records = clone.trace_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].event, TraceEvent::Dispatched);
        assert_eq!(records[0].request, 7);
    }

    #[test]
    fn chrome_trace_export_is_valid_and_deterministic() {
        let records = vec![
            TraceRecord {
                at_ns: 1_500,
                lane: 0,
                request: 0,
                event: TraceEvent::Submitted,
                detail: 0,
            },
            TraceRecord {
                at_ns: 2_500,
                lane: 1,
                request: 0,
                event: TraceEvent::Dispatched,
                detail: 3,
            },
        ];
        let json = chrome_trace_json(&[("run \"a\"".to_string(), records.clone())]);
        // Structurally sound: one document, one metadata event plus one
        // instant event per record, balanced braces.
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        let again = chrome_trace_json(&[("run \"a\"".to_string(), records)]);
        assert_eq!(json, again);
        assert!(json.contains("\"ts\":1"));
        assert!(json.contains("\"ns\":2500"));
        assert!(json.contains("run \\\"a\\\""));
    }
}
