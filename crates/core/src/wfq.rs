//! The weighted-fair-queueing scheduler, extracted from the streaming
//! engine and generic over its job payload.
//!
//! [`crate::stream::StreamEngine`] and the `bench` crate's deterministic
//! load harness share one scheduling discipline: per-class FIFO queues,
//! virtual-finish-time dispatch (`max(V, F_class) + cost × VT_UNIT /
//! weight` in u128 fixed point), work-conserving token-bucket rate limits
//! whose windows count consecutive dispatches, deadline expiry sweeps, and
//! backlog-based expected-wait estimates for deadline-aware admission.
//! [`WfqQueue`] is that discipline with the payload abstracted away — the
//! engine queues real [`crate::stream::Request`]s behind it, the load
//! harness queues simulated arrivals, and both observe exactly the same
//! dispatch order for the same (class, cost, deadline) sequence.
//!
//! The queue also owns the elastic worker pool's sizing rule
//! ([`WfqQueue::desired_workers`]) and the deadline-admission rule
//! ([`WfqQueue::infeasible_wait`]), so the engine and the load harness size
//! their pools and refuse infeasible deadlines from the same backlog by the
//! same arithmetic.
//!
//! Deadlines are expressed on the engine's [`crate::clock::Clock`] axis:
//! a job's deadline is the clock reading (duration since the clock's
//! epoch) past which it must not dispatch, and [`WfqQueue::take_expired`]
//! sweeps against the current reading. The queue itself never reads a
//! clock — callers pass `now` in, which is what makes the discipline
//! drivable by a virtual clock.

use std::collections::VecDeque;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::config::ClassEntry;

/// Scheduling class of one submission. Classes form a small open set: the
/// two built-in classes plus up to 256 caller-defined ones
/// ([`Priority::custom`]). Each class has a WFQ weight (and optionally a
/// rate limit); dispatch order follows virtual-finish-time weighted fair
/// queueing, FIFO within a class. Classes affect *latency only* — results
/// are bit-identical whichever class a request is submitted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic (default WFQ weight 4).
    Interactive,
    /// Throughput traffic (default WFQ weight 1).
    Bulk,
    /// A caller-defined class (default WFQ weight 1 unless configured).
    /// Prefer the [`Priority::custom`] constructor.
    Custom(u8),
}

impl Priority {
    /// A caller-defined scheduling class. Classes with the same id share
    /// one queue, weight and rate limit.
    pub fn custom(id: u8) -> Self {
        Priority::Custom(id)
    }

    /// The class name used in [`ClassStats::class`]: `"interactive"`,
    /// `"bulk"` or `"custom-<id>"`.
    pub fn label(&self) -> String {
        match self {
            Priority::Interactive => "interactive".to_string(),
            Priority::Bulk => "bulk".to_string(),
            Priority::Custom(id) => format!("custom-{id}"),
        }
    }

    /// Parses a class label back into its [`Priority`] — the inverse of
    /// [`Priority::label`]. Accepts `"interactive"`, `"bulk"` and
    /// `"custom-<id>"` with `id` in `0..=255`.
    pub fn parse_label(label: &str) -> Option<Priority> {
        match label {
            "interactive" => Some(Priority::Interactive),
            "bulk" => Some(Priority::Bulk),
            _ => {
                let id = label.strip_prefix("custom-")?;
                id.parse::<u8>().ok().map(Priority::Custom)
            }
        }
    }

    /// Dense ordering key: built-in classes first, then customs by id. This
    /// is the deterministic order of [`SchedulerStats::classes`].
    pub(crate) fn key(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Bulk => 1,
            Priority::Custom(id) => 2 + id as usize,
        }
    }

    /// The default WFQ weight of the class.
    pub(crate) fn default_weight(self) -> u32 {
        match self {
            Priority::Interactive => 4,
            Priority::Bulk | Priority::Custom(_) => 1,
        }
    }
}

/// Serializes as the class label string ([`Priority::label`]), so configs
/// and scenario files spell classes the same way: `"interactive"`,
/// `"bulk"`, `"custom-7"`.
impl Serialize for Priority {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label())
    }
}

/// Deserializes from a class label string — the inverse of
/// [`Priority::label`], via [`Priority::parse_label`].
impl Deserialize for Priority {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(label) => Priority::parse_label(label).ok_or_else(|| {
                serde::Error::custom(format!(
                    "unknown scheduling-class label `{label}` \
                     (expected `interactive`, `bulk` or `custom-<id>`)"
                ))
            }),
            _ => Err(serde::Error::custom(
                "expected a scheduling-class label string",
            )),
        }
    }
}

/// A token-bucket rate limit on one scheduling class: at most `tokens`
/// dispatches of the class per scheduling window of `window` consecutive
/// dispatches (across all classes). The limiter is work-conserving — it
/// shapes dispatch order among competing classes but never idles a worker
/// when only throttled work is queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Dispatch budget of the class per window (min 1).
    pub tokens: u32,
    /// Window length, in consecutive dispatches across all classes (min 1).
    pub window: u32,
}

impl RateLimit {
    /// A rate limit of `tokens` dispatches per window of `window` total
    /// dispatches. Both are clamped to at least 1.
    pub fn new(tokens: u32, window: u32) -> Self {
        RateLimit {
            tokens: tokens.max(1),
            window: window.max(1),
        }
    }

    /// The same clamp as [`RateLimit::new`], re-applied where limits enter
    /// the scheduler — the public fields (and `Deserialize`) can bypass the
    /// constructor, and a zero window must never reach the window
    /// arithmetic.
    pub(crate) fn clamped(self) -> Self {
        RateLimit::new(self.tokens, self.window)
    }
}

/// Per-class scheduler counters of one queue's lifetime, surfaced in
/// [`SchedulerStats::classes`] (and through it in `BENCH_stream.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name ([`Priority::label`]).
    pub class: String,
    /// The configured WFQ weight.
    pub weight: u32,
    /// The configured rate limit, if any.
    pub rate_limit: Option<RateLimit>,
    /// Submissions admitted under this class.
    pub submitted: u64,
    /// Jobs of this class dispatched to a worker.
    pub dispatched: u64,
    /// Jobs that expired in the queue
    /// ([`crate::error::Error::DeadlineExceeded`]) and were never
    /// dispatched.
    pub expired: u64,
    /// Scheduling decisions that skipped this class because its rate-limit
    /// budget for the current window was spent. Timing-dependent under
    /// concurrency; always zero without a rate limit.
    pub throttled: u64,
    /// Submissions rejected at admission with
    /// [`crate::error::Error::DeadlineInfeasible`] (expected wait already
    /// past the deadline). Like rejected backpressure they consume no
    /// submission index. Timing-dependent under concurrency; always zero
    /// for deadline-less workloads.
    pub infeasible: u64,
    /// Sum of the cost model's predicted rounds over this class's executed
    /// submissions, computed by a deterministic submission-order replay of
    /// the calibration loop (so it is a pure function of the admitted
    /// workload — see [`crate::cost`]). Expired submissions are excluded:
    /// they never executed, so there is no actual to compare against.
    pub predicted_rounds: u64,
    /// Sum of the actual rounds this class's executed submissions charged —
    /// the measured half of [`ClassStats::predicted_rounds`]. Compare the
    /// two for the class's estimation error
    /// ([`ClassStats::estimation_error`]).
    pub actual_rounds: u64,
}

impl ClassStats {
    /// The class's symmetric ratio estimation error:
    /// `max(predicted, actual) / min(predicted, actual) − 1`
    /// ([`symmetric_ratio_error`]). A 2x miss reads 1.0 whichever side is
    /// short — unlike the earlier `|p − a| / a`, which saturated at 1.0 for
    /// any under-prediction and let a 10,000x miss pass a 2.0 bound
    /// forever. `None` only when both sides are zero (nothing happened),
    /// infinite when exactly one side is zero.
    pub fn estimation_error(&self) -> Option<f64> {
        symmetric_ratio_error(self.predicted_rounds, self.actual_rounds)
    }
}

/// The symmetric ratio error between a predicted and an actual quantity:
/// `max / min − 1`, so over- and under-prediction of the same magnitude
/// score the same and nothing saturates. `None` when both sides are zero
/// (no evidence either way), [`f64::INFINITY`] when exactly one is — a
/// model that predicted rounds for work that charged none (or none for
/// work that charged some) is wrong by any bound.
pub fn symmetric_ratio_error(predicted: u64, actual: u64) -> Option<f64> {
    let hi = predicted.max(actual);
    let lo = predicted.min(actual);
    if hi == 0 {
        return None;
    }
    if lo == 0 {
        return Some(f64::INFINITY);
    }
    Some(hi as f64 / lo as f64 - 1.0)
}

/// Scheduler-level accounting: the discipline plus one [`ClassStats`] per
/// class, in deterministic class order (built-ins first, then customs by
/// id).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// The scheduling discipline (`"wfq"`).
    pub policy: String,
    /// Per-class counters. The built-in classes are always present; custom
    /// classes appear once configured or used.
    pub classes: Vec<ClassStats>,
}

impl SchedulerStats {
    /// Counters of one class, by its [`Priority`].
    pub fn class(&self, priority: Priority) -> Option<&ClassStats> {
        let label = priority.label();
        self.classes.iter().find(|c| c.class == label)
    }

    /// Total deadline expirations across all classes.
    pub fn expired(&self) -> u64 {
        self.classes.iter().map(|c| c.expired).sum()
    }

    /// Total infeasible-deadline admission rejections across all classes.
    pub fn infeasible(&self) -> u64 {
        self.classes.iter().map(|c| c.infeasible).sum()
    }
}

/// One admitted job travelling through a [`WfqQueue`].
#[derive(Debug)]
pub struct WfqJob<T> {
    /// The submission index assigned at admission (dense, in admission
    /// order).
    pub index: u64,
    /// The scheduling class the job was admitted under.
    pub class: Priority,
    /// The caller's payload.
    pub payload: T,
    /// Queueing deadline on the owning clock's axis; a job still queued
    /// past it expires instead of dispatching.
    pub deadline: Option<Duration>,
    /// The job's estimated cost in rounds — what its virtual finish tag
    /// charged, and its contribution to the class backlog deadline
    /// admission prices.
    pub cost: u64,
    /// WFQ virtual finish tag, assigned at admission.
    finish: u128,
}

/// Virtual-time charge of one estimated round at weight 1. Tags are
/// `max(V, F_class) + cost × VT_UNIT / weight` in fixed-point arithmetic,
/// so any weight up to `u32::MAX` keeps a non-zero, exactly representable
/// per-round charge; with unit costs this degenerates to the classic
/// unit-job virtual clock. Costs are clamped to
/// [`crate::cost::MAX_ESTIMATE_ROUNDS`] (2⁴⁰), so `cost × VT_UNIT` stays
/// below 2⁷² and the u128 clock cannot realistically overflow.
const VT_UNIT: u128 = 1 << 32;

/// How long the elastic worker pool lets the queued backlog take to drain
/// at the service rate before unparking more workers
/// ([`WfqQueue::desired_workers`]). One horizon's worth of work per worker
/// keeps deadlines in the tens-of-milliseconds range feasible without
/// thrashing the pool on every small burst.
const POOL_DRAIN_HORIZON: Duration = Duration::from_millis(10);

/// One class inside the scheduler: its FIFO queue, WFQ state, rate-limit
/// window and counters.
struct ClassState<T> {
    priority: Priority,
    weight: u32,
    rate: Option<RateLimit>,
    queue: VecDeque<WfqJob<T>>,
    /// Summed estimated cost of the queued jobs — the class backlog
    /// deadline admission prices.
    queued_cost: u128,
    /// Finish tag of the last job admitted to this class.
    last_finish: u128,
    /// Rate-limit window this class last dispatched in.
    window_index: u64,
    /// Dispatches consumed in that window.
    window_used: u32,
    submitted: u64,
    dispatched: u64,
    expired: u64,
    throttled: u64,
    infeasible: u64,
}

impl<T> ClassState<T> {
    fn new(entry: &ClassEntry) -> Self {
        ClassState {
            priority: entry.class,
            weight: entry.weight.max(1),
            rate: entry.rate_limit.map(RateLimit::clamped),
            queue: VecDeque::new(),
            queued_cost: 0,
            last_finish: 0,
            window_index: 0,
            window_used: 0,
            submitted: 0,
            dispatched: 0,
            expired: 0,
            throttled: 0,
            infeasible: 0,
        }
    }

    /// Whether the class has spent its dispatch budget for the window the
    /// next dispatch slot falls into.
    fn throttled_at(&self, dispatches: u64) -> bool {
        let Some(rate) = self.rate else { return false };
        let window = dispatches / rate.window as u64;
        self.window_index == window && self.window_used >= rate.tokens
    }

    fn stats(&self) -> ClassStats {
        ClassStats {
            class: self.priority.label(),
            weight: self.weight,
            rate_limit: self.rate,
            submitted: self.submitted,
            dispatched: self.dispatched,
            expired: self.expired,
            throttled: self.throttled,
            infeasible: self.infeasible,
            // Filled in by the engine's deterministic replay at
            // aggregation; the live scheduler never sees actual costs.
            predicted_rounds: 0,
            actual_rounds: 0,
        }
    }
}

/// The weighted-fair-queueing admission queue: one FIFO per class, dispatch
/// by smallest virtual finish tag, token-bucket throttling, deadline expiry
/// sweeps. Within a class, FIFO in submission order (tags are monotone per
/// class by construction). Generic over the job payload `T` — see the
/// [module documentation](self).
pub struct WfqQueue<T> {
    /// Classes in deterministic key order; extended on demand for custom
    /// classes that were never configured.
    classes: Vec<ClassState<T>>,
    queued: usize,
    /// How many queued jobs carry a deadline, so the per-dispatch expiry
    /// sweep is free for deadline-less workloads.
    deadlined: usize,
    next_index: u64,
    /// WFQ virtual clock: the largest finish tag dispatched so far.
    virtual_time: u128,
    /// Total dispatches, the clock of the rate-limit windows.
    dispatches: u64,
}

impl<T> WfqQueue<T> {
    /// An empty queue over the given classes, in the order given (more join
    /// on first use with their default configuration). The weight is
    /// clamped to at least 1 and the rate limit as by [`RateLimit::new`].
    pub fn new(classes: &[ClassEntry]) -> Self {
        WfqQueue {
            classes: classes.iter().map(ClassState::new).collect(),
            queued: 0,
            deadlined: 0,
            next_index: 0,
            virtual_time: 0,
            dispatches: 0,
        }
    }

    /// Number of jobs currently queued (admitted, not yet dispatched or
    /// expired).
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Total estimated cost (rounds) of every queued job across all classes
    /// — the backlog the elastic worker pool sizes itself against, saturated
    /// to `u64`.
    pub fn backlog_rounds(&self) -> u64 {
        let total: u128 = self.classes.iter().map(|c| c.queued_cost).sum();
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// The worker count the queued backlog calls for — the elastic pool's
    /// sizing rule, which the caller clamps to its pool bounds:
    ///
    /// * `min` when the queue is empty;
    /// * one worker per queued job while `service` is `None` — with no
    ///   service rate to convert rounds by, a cold pool still fans out;
    /// * otherwise enough workers to drain the backlog within a 10 ms
    ///   horizon when each serves `rounds` rounds per `nanos` nanoseconds:
    ///   ⌈backlog × nanos / (rounds × horizon)⌉.
    pub fn desired_workers(&self, min: usize, service: Option<(u64, u64)>) -> usize {
        if self.queued == 0 {
            return min;
        }
        let Some((nanos, rounds)) = service else {
            return self.queued;
        };
        let work = u128::from(self.backlog_rounds()).saturating_mul(u128::from(nanos));
        let capacity = (u128::from(rounds) * POOL_DRAIN_HORIZON.as_nanos()).max(1);
        usize::try_from(work.div_ceil(capacity)).unwrap_or(usize::MAX)
    }

    /// The submission index the next admitted job will receive — i.e. how
    /// many jobs have been admitted so far.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// The class state of `priority`, created with defaults on first use.
    fn class_mut(&mut self, priority: Priority) -> &mut ClassState<T> {
        let key = priority.key();
        let pos = self
            .classes
            .iter()
            .position(|c| c.priority.key() >= key)
            .unwrap_or(self.classes.len());
        if self.classes.get(pos).is_none_or(|c| c.priority != priority) {
            self.classes
                .insert(pos, ClassState::new(&ClassEntry::default_for(priority)));
        }
        &mut self.classes[pos]
    }

    /// Admits one job, assigning its submission index and WFQ finish tag.
    /// `cost` is the job's estimated rounds; the tag charges
    /// `cost × VT_UNIT / weight` (unit-job scheduling passes `cost = 1`). A
    /// zero cost is legal — the tag simply does not advance, and the
    /// `(finish, index)` tie-break keeps dispatch FIFO and starvation-free
    /// regardless. `deadline` is a reading on the caller's clock axis,
    /// compared against the `now` passed to [`WfqQueue::take_expired`].
    pub fn push(
        &mut self,
        priority: Priority,
        payload: T,
        deadline: Option<Duration>,
        cost: u64,
    ) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        let virtual_time = self.virtual_time;
        let class = self.class_mut(priority);
        let finish =
            virtual_time.max(class.last_finish) + cost as u128 * VT_UNIT / class.weight as u128;
        class.last_finish = finish;
        class.submitted += 1;
        class.queued_cost += cost as u128;
        class.queue.push_back(WfqJob {
            index,
            class: priority,
            payload,
            deadline,
            cost,
            finish,
        });
        self.queued += 1;
        if deadline.is_some() {
            self.deadlined += 1;
        }
        index
    }

    /// The rounds a new submission of `priority` should expect to wait for
    /// before dispatch, given the queued backlog: the class's own backlog
    /// served at its WFQ weight share (but never more than the whole
    /// backlog — the scheduler is work-conserving), spread over the worker
    /// pool. Zero on an idle queue.
    pub fn expected_wait_rounds(&self, priority: Priority, workers: usize) -> u64 {
        let mut class_backlog = 0u128;
        let mut total_backlog = 0u128;
        let mut active_weight = 0u128;
        let mut class_weight = u128::from(
            self.classes
                .iter()
                .find(|c| c.priority == priority)
                .map(|c| c.weight)
                .unwrap_or_else(|| priority.default_weight()),
        );
        for class in &self.classes {
            total_backlog += class.queued_cost;
            if class.priority == priority {
                class_backlog = class.queued_cost;
                class_weight = u128::from(class.weight);
                active_weight += u128::from(class.weight);
            } else if !class.queue.is_empty() {
                active_weight += u128::from(class.weight);
            }
        }
        // The class's share of service is weight / active_weight, so its
        // backlog takes backlog ÷ share rounds of total service — capped at
        // the whole backlog, which a work-conserving scheduler never exceeds.
        let scaled = (class_backlog * active_weight / class_weight).min(total_backlog);
        u64::try_from(scaled / workers.max(1) as u128).unwrap_or(u64::MAX)
    }

    /// The deadline-admission rule: the wall-clock wait a new submission of
    /// `priority` should expect ([`WfqQueue::expected_wait_rounds`] over
    /// `workers`, converted at `rounds` rounds per `nanos` nanoseconds),
    /// returned only when it exceeds `deadline` — i.e. when the deadline is
    /// already infeasible. An idle queue expects no wait, so it never calls
    /// a deadline infeasible, not even a zero one.
    pub fn infeasible_wait(
        &self,
        priority: Priority,
        workers: usize,
        deadline: Duration,
        (nanos, rounds): (u64, u64),
    ) -> Option<Duration> {
        let wait_rounds = self.expected_wait_rounds(priority, workers);
        let wait = u128::from(wait_rounds) * u128::from(nanos) / u128::from(rounds.max(1));
        let wait = Duration::from_nanos(u64::try_from(wait).unwrap_or(u64::MAX));
        (wait > deadline).then_some(wait)
    }

    /// Charges one infeasible-deadline admission rejection to a class.
    pub fn reject_infeasible(&mut self, priority: Priority) {
        self.class_mut(priority).infeasible += 1;
    }

    /// Removes every queued job whose deadline has passed, returning each
    /// with how late it already is. Expired jobs are charged to their class
    /// and free their queue slots; they are never dispatched. Free when no
    /// queued job carries a deadline — the common case on the dispatch hot
    /// path.
    pub fn take_expired(&mut self, now: Duration) -> Vec<(WfqJob<T>, Duration)> {
        if self.deadlined == 0 {
            return Vec::new();
        }
        let mut expired = Vec::new();
        for class in &mut self.classes {
            let mut i = 0;
            while i < class.queue.len() {
                match class.queue[i].deadline {
                    Some(deadline) if deadline <= now => {
                        let job = class.queue.remove(i).expect("index in bounds");
                        class.expired += 1;
                        class.queued_cost -= job.cost as u128;
                        expired.push((job, now - deadline));
                    }
                    _ => i += 1,
                }
            }
        }
        self.queued -= expired.len();
        self.deadlined -= expired.len();
        expired.sort_by_key(|(job, _)| job.index);
        expired
    }

    /// The class whose head [`WfqQueue::pop`] dispatches next: the smallest
    /// virtual finish tag among the classes with rate-limit budget, else,
    /// when every queued class is throttled, the smallest tag anyway
    /// (work-conserving). Ties break by submission index. The flag tells
    /// whether a class with budget was found. Reads the queue only, so
    /// [`WfqQueue::peek`] and `pop` share one selection rule.
    fn select(&self) -> Option<(usize, bool)> {
        if self.queued == 0 {
            return None;
        }
        let mut best_allowed: Option<(u128, u64, usize)> = None;
        let mut best_any: Option<(u128, u64, usize)> = None;
        for (i, class) in self.classes.iter().enumerate() {
            let Some(head) = class.queue.front() else {
                continue;
            };
            let key = (head.finish, head.index, i);
            if best_any.is_none_or(|b| key < b) {
                best_any = Some(key);
            }
            if !class.throttled_at(self.dispatches) && best_allowed.is_none_or(|b| key < b) {
                best_allowed = Some(key);
            }
        }
        match best_allowed {
            Some((_, _, i)) => Some((i, true)),
            None => best_any.map(|(_, _, i)| (i, false)),
        }
    }

    /// The job [`WfqQueue::pop`] would dispatch now, without dispatching it
    /// or touching any counter.
    pub fn peek(&self) -> Option<&WfqJob<T>> {
        let (i, _) = self.select()?;
        self.classes[i].queue.front()
    }

    /// Dispatches the queued job with the smallest virtual finish tag whose
    /// class still has rate-limit budget; when every queued class is
    /// throttled, the smallest tag runs anyway (work-conserving). Ties break
    /// by submission index. A dispatch that passes over throttled classes
    /// counts one skip against each of them.
    pub fn pop(&mut self) -> Option<WfqJob<T>> {
        let (i, allowed) = self.select()?;
        if allowed {
            let dispatches = self.dispatches;
            for class in &mut self.classes {
                if !class.queue.is_empty() && class.throttled_at(dispatches) {
                    class.throttled += 1;
                }
            }
        }
        let job = self.classes[i].queue.pop_front().expect("head exists");
        debug_assert_eq!(self.classes[i].priority, job.class);
        self.queued -= 1;
        if job.deadline.is_some() {
            self.deadlined -= 1;
        }
        self.virtual_time = self.virtual_time.max(job.finish);
        self.dispatches += 1;
        let consumed_slot = self.dispatches - 1;
        let class = &mut self.classes[i];
        class.dispatched += 1;
        class.queued_cost -= job.cost as u128;
        if let Some(rate) = class.rate {
            let window = consumed_slot / rate.window as u64;
            if class.window_index != window {
                class.window_index = window;
                class.window_used = 0;
            }
            class.window_used += 1;
        }
        Some(job)
    }

    /// Per-class counters in deterministic class order.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            policy: "wfq".to_string(),
            classes: self.classes.iter().map(|c| c.stats()).collect(),
        }
    }

    /// Publishes the queue's state into a telemetry registry: global gauges
    /// (`wfq.queued`, `wfq.backlog_rounds`) plus one gauge per class counter
    /// (`wfq.<class>.submitted` / `.dispatched` / `.expired` / `.throttled`
    /// / `.infeasible`). The queue itself is the source of truth, so these
    /// are point-in-time gauges rather than live counters; read-only, never
    /// consulted by scheduling.
    pub fn publish_metrics(&self, registry: &crate::telemetry::MetricsRegistry) {
        registry.gauge("wfq.queued").set(self.queued as u64);
        registry
            .gauge("wfq.backlog_rounds")
            .set(self.backlog_rounds());
        for class in &self.classes {
            let stats = class.stats();
            let label = &stats.class;
            registry
                .gauge(&format!("wfq.{label}.submitted"))
                .set(stats.submitted);
            registry
                .gauge(&format!("wfq.{label}.dispatched"))
                .set(stats.dispatched);
            registry
                .gauge(&format!("wfq.{label}.expired"))
                .set(stats.expired);
            registry
                .gauge(&format!("wfq.{label}.throttled"))
                .set(stats.throttled);
            registry
                .gauge(&format!("wfq.{label}.infeasible"))
                .set(stats.infeasible);
        }
    }
}

impl<T> std::fmt::Debug for WfqQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfqQueue")
            .field("classes", &self.classes.len())
            .field("queued", &self.queued)
            .field("next_index", &self.next_index)
            .field("dispatches", &self.dispatches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(classes: &[(Priority, u32, Option<RateLimit>)]) -> Vec<ClassEntry> {
        classes
            .iter()
            .map(|&(class, weight, rate_limit)| ClassEntry {
                class,
                weight,
                rate_limit,
            })
            .collect()
    }

    fn push(s: &mut WfqQueue<()>, priority: Priority) -> u64 {
        s.push(priority, (), None, 1)
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for p in [
            Priority::Interactive,
            Priority::Bulk,
            Priority::custom(0),
            Priority::custom(255),
        ] {
            assert_eq!(Priority::parse_label(&p.label()), Some(p));
        }
        assert_eq!(Priority::parse_label("custom-256"), None);
        assert_eq!(Priority::parse_label("background"), None);
    }

    #[test]
    fn default_weights_schedule_interactive_ahead_of_bulk_fifo_within_class() {
        // With the default 4:1 weights a small mixed burst still dispatches
        // every interactive job first (their finish tags are 4x denser), and
        // FIFO order holds within each class.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 4, None),
            (Priority::Bulk, 1, None),
        ]));
        push(&mut s, Priority::Bulk);
        push(&mut s, Priority::Interactive);
        push(&mut s, Priority::Bulk);
        push(&mut s, Priority::Interactive);
        assert_eq!(s.queued(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|j| j.index).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
        assert_eq!(s.queued(), 0);
        assert!(s.pop().is_none());
    }

    #[test]
    fn wfq_never_starves_bulk_under_sustained_interactive_load() {
        // The regression the WFQ redesign fixes: under the old strict
        // two-class priority queue, one bulk job behind a sustained
        // interactive flood (one new interactive submission per dispatch)
        // was NEVER dispatched — interactive always popped first. Under WFQ
        // at weight 1:1 the bulk job's finish tag is passed by the second
        // interactive arrival, so it dispatches within a small, bounded
        // number of dispatches.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 1, None),
            (Priority::Bulk, 1, None),
        ]));
        push(&mut s, Priority::Interactive);
        let bulk_index = push(&mut s, Priority::Bulk);
        let mut bulk_dispatched_at = None;
        for step in 0..16 {
            let job = s.pop().expect("work is always queued");
            if job.index == bulk_index {
                bulk_dispatched_at = Some(step);
                break;
            }
            // Sustained interactive load: a fresh submission per dispatch.
            push(&mut s, Priority::Interactive);
        }
        let step = bulk_dispatched_at
            .expect("WFQ must dispatch the bulk job despite the interactive flood");
        assert!(
            step <= 3,
            "bulk work must complete within a bounded number of dispatches, took {step}"
        );
        // And the flood is still being served around it.
        assert!(s.classes[0].dispatched >= 1);
    }

    #[test]
    fn weights_apportion_dispatches_proportionally() {
        // Weight 3:1 over a long backlog: every window of 4 dispatches
        // carries 3 interactive and 1 bulk job.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 3, None),
            (Priority::Bulk, 1, None),
        ]));
        for _ in 0..12 {
            push(&mut s, Priority::Interactive);
        }
        for _ in 0..4 {
            push(&mut s, Priority::Bulk);
        }
        let order: Vec<Priority> = std::iter::from_fn(|| s.pop()).map(|j| j.class).collect();
        for (w, chunk) in order.chunks(4).take(3).enumerate() {
            let bulk = chunk.iter().filter(|p| **p == Priority::Bulk).count();
            assert_eq!(
                bulk, 1,
                "window {w} must carry one bulk dispatch: {order:?}"
            );
        }
    }

    #[test]
    fn rate_limited_class_stays_within_its_token_budget_while_contended() {
        // Bulk limited to 1 dispatch per window of 4; equal weights so only
        // the limiter shapes the schedule. While interactive work competes,
        // every window of 4 dispatches carries at most one bulk job.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 1, None),
            (Priority::Bulk, 1, Some(RateLimit::new(1, 4))),
        ]));
        for _ in 0..10 {
            push(&mut s, Priority::Bulk);
        }
        for _ in 0..10 {
            push(&mut s, Priority::Interactive);
        }
        let order: Vec<Priority> = std::iter::from_fn(|| s.pop()).map(|j| j.class).collect();
        assert_eq!(order.len(), 20, "the limiter never drops work");
        // Interactive lasts through the first three windows; within them the
        // budget must hold exactly.
        for (w, chunk) in order.chunks(4).take(3).enumerate() {
            let bulk = chunk.iter().filter(|p| **p == Priority::Bulk).count();
            assert!(
                bulk <= 1,
                "window {w} exceeded the bulk token budget: {order:?}"
            );
        }
        // Once only throttled work remains the scheduler stays
        // work-conserving: everything still drains.
        assert!(order[14..].iter().all(|p| *p == Priority::Bulk));
        let stats = s.stats();
        let bulk = stats.class(Priority::Bulk).unwrap();
        assert_eq!(bulk.dispatched, 10);
        assert!(
            bulk.throttled > 0,
            "the limiter must have bitten: {stats:?}"
        );
        assert_eq!(bulk.rate_limit, Some(RateLimit::new(1, 4)));
        assert_eq!(stats.policy, "wfq");
    }

    #[test]
    fn peek_shows_the_next_dispatch_and_changes_nothing() {
        // Weights, a rate limit that bites, and a custom class: at every
        // step `peek` names the job `pop` then dispatches, and a peek alone
        // leaves every counter and the dispatch order as they were.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 3, None),
            (Priority::Bulk, 1, Some(RateLimit::new(1, 3))),
        ]));
        for i in 0..24u64 {
            let class =
                [Priority::Bulk, Priority::Interactive, Priority::custom(2)][i as usize % 3];
            s.push(class, (), None, 1 + i % 4);
        }
        while let Some(next) = s.peek().map(|job| job.index) {
            let stats = s.stats();
            assert_eq!(s.peek().map(|job| job.index), Some(next));
            assert_eq!(s.stats(), stats, "a peek charges nothing");
            assert_eq!(s.pop().map(|job| job.index), Some(next));
        }
        assert!(s.pop().is_none());
        let bulk = s.stats().class(Priority::Bulk).cloned().unwrap();
        assert_eq!(bulk.dispatched, 8);
        assert!(bulk.throttled > 0, "the limiter must have bitten");
    }

    #[test]
    fn a_zero_window_rate_limit_is_clamped_not_a_division_panic() {
        // The pub fields (and Deserialize) can bypass RateLimit::new, so the
        // scheduler must clamp again: a literal zero window behaves as 1/1
        // instead of panicking on the window arithmetic.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 1, None),
            (
                Priority::Bulk,
                1,
                Some(RateLimit {
                    tokens: 0,
                    window: 0,
                }),
            ),
        ]));
        push(&mut s, Priority::Bulk);
        push(&mut s, Priority::Interactive);
        push(&mut s, Priority::Bulk);
        let order: Vec<Priority> = std::iter::from_fn(|| s.pop()).map(|j| j.class).collect();
        assert_eq!(order.len(), 3, "everything drains without panicking");
        assert_eq!(
            s.stats().class(Priority::Bulk).unwrap().rate_limit,
            Some(RateLimit::new(1, 1)),
            "the clamped limit is what the report surfaces"
        );
    }

    #[test]
    fn the_expiry_sweep_is_free_without_deadlines() {
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 4, None),
            (Priority::Bulk, 1, None),
        ]));
        push(&mut s, Priority::Bulk);
        assert_eq!(s.deadlined, 0);
        assert!(s.take_expired(Duration::from_secs(1)).is_empty());
        // A dispatched deadline job leaves the deadline count with it.
        s.push(Priority::Interactive, (), Some(Duration::from_secs(600)), 1);
        assert_eq!(s.deadlined, 1);
        while s.pop().is_some() {}
        assert_eq!(s.deadlined, 0);
    }

    #[test]
    fn expired_jobs_are_swept_before_dispatch_and_charged_to_their_class() {
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 4, None),
            (Priority::Bulk, 1, None),
        ]));
        let now = Duration::from_secs(5);
        s.push(Priority::Bulk, (), Some(now), 1);
        push(&mut s, Priority::Interactive);
        // The sweep a worker runs before every dispatch decision.
        let expired = s.take_expired(now + Duration::from_millis(1));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0.index, 0);
        assert_eq!(expired[0].1, Duration::from_millis(1));
        assert_eq!(s.queued(), 1, "expired jobs free their queue slots");
        // The survivor dispatches normally; counters split expiry from
        // dispatch.
        assert_eq!(s.pop().unwrap().index, 1);
        let stats = s.stats();
        assert_eq!(stats.class(Priority::Bulk).unwrap().expired, 1);
        assert_eq!(stats.class(Priority::Bulk).unwrap().dispatched, 0);
        assert_eq!(stats.class(Priority::Interactive).unwrap().dispatched, 1);
        assert_eq!(stats.expired(), 1);
    }

    #[test]
    fn custom_classes_join_the_schedule_with_default_weight() {
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 4, None),
            (Priority::Bulk, 1, None),
        ]));
        push(&mut s, Priority::custom(3));
        push(&mut s, Priority::Interactive);
        let order: Vec<Priority> = std::iter::from_fn(|| s.pop()).map(|j| j.class).collect();
        // Weight 4 interactive outruns the default-weight-1 custom class.
        assert_eq!(order, vec![Priority::Interactive, Priority::custom(3)]);
        let stats = s.stats();
        assert_eq!(stats.classes.len(), 3);
        assert_eq!(stats.classes[2].class, "custom-3");
        assert_eq!(stats.classes[2].weight, 1);
        assert_eq!(stats.class(Priority::custom(3)).unwrap().dispatched, 1);
    }

    #[test]
    fn cost_charged_tags_apportion_dispatches_by_work_not_job_count() {
        // Equal weights, but class A's jobs are three times the estimated
        // work of class B's: fair queueing over *work* means every window
        // of 4 dispatches carries one A job (3 units) and three B jobs
        // (3 units) — unit-job WFQ would alternate 2/2 instead.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 1, None),
            (Priority::Bulk, 1, None),
        ]));
        for _ in 0..4 {
            s.push(Priority::Interactive, (), None, 3);
        }
        for _ in 0..12 {
            s.push(Priority::Bulk, (), None, 1);
        }
        let order: Vec<Priority> = std::iter::from_fn(|| s.pop()).map(|j| j.class).collect();
        for (w, chunk) in order.chunks(4).take(3).enumerate() {
            let heavy = chunk
                .iter()
                .filter(|p| **p == Priority::Interactive)
                .count();
            assert_eq!(
                heavy, 1,
                "window {w} must carry exactly one heavy dispatch: {order:?}"
            );
        }
    }

    #[test]
    fn zero_cost_tags_degrade_to_global_fifo_without_starvation() {
        // An adversarial (or merely uncalibrated-to-zero) model charges
        // nothing: tags never advance, the (finish, index) tie-break takes
        // over, and everything still drains in submission order.
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 4, None),
            (Priority::Bulk, 1, None),
        ]));
        for i in 0..6 {
            let priority = if i % 2 == 0 {
                Priority::Bulk
            } else {
                Priority::Interactive
            };
            s.push(priority, (), None, 0);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|j| j.index).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn expected_wait_scales_with_backlog_weight_share_and_workers() {
        let mut s = WfqQueue::new(&config(&[
            (Priority::Interactive, 3, None),
            (Priority::Bulk, 1, None),
        ]));
        // An idle queue predicts zero wait for every class.
        assert_eq!(s.expected_wait_rounds(Priority::Bulk, 1), 0);
        assert_eq!(s.expected_wait_rounds(Priority::Interactive, 4), 0);
        // 100 rounds queued in each class; active weight is 3 + 1 = 4.
        s.push(Priority::Interactive, (), None, 100);
        s.push(Priority::Bulk, (), None, 100);
        // Bulk serves its backlog at a 1/4 share: 400 scaled rounds, capped
        // at the 200-round total backlog (work conservation), one worker.
        assert_eq!(s.expected_wait_rounds(Priority::Bulk, 1), 200);
        // Interactive's 3/4 share: 100 × 4 / 3 = 133 rounds.
        assert_eq!(s.expected_wait_rounds(Priority::Interactive, 1), 133);
        // More workers shrink the wait proportionally.
        assert_eq!(s.expected_wait_rounds(Priority::Bulk, 4), 50);
        // Infeasible rejections are charged to their class.
        s.reject_infeasible(Priority::Bulk);
        assert_eq!(s.stats().class(Priority::Bulk).unwrap().infeasible, 1);
        assert_eq!(s.stats().infeasible(), 1);
    }

    #[test]
    fn infeasible_wait_converts_the_expected_wait_at_the_service_rate() {
        // 2 microseconds per round.
        let service = (200_000, 100);
        let mut s = WfqQueue::new(&config(&[]));
        // An idle queue expects no wait, so no deadline is infeasible.
        assert_eq!(
            s.infeasible_wait(Priority::Bulk, 1, Duration::ZERO, service),
            None
        );
        s.push(Priority::Bulk, (), None, 50);
        // 50 queued rounds wait 100 µs: infeasible for a shorter deadline…
        assert_eq!(
            s.infeasible_wait(Priority::Bulk, 1, Duration::from_micros(99), service),
            Some(Duration::from_micros(100))
        );
        // …but not for a deadline it merely meets.
        assert_eq!(
            s.infeasible_wait(Priority::Bulk, 1, Duration::from_micros(100), service),
            None
        );
        // Two workers halve the wait.
        assert_eq!(
            s.infeasible_wait(Priority::Bulk, 2, Duration::from_micros(40), service),
            Some(Duration::from_micros(50))
        );
    }

    #[test]
    fn desired_workers_sizes_the_pool_from_the_backlog_and_service_rate() {
        let mut s = WfqQueue::new(&config(&[]));
        // An empty queue parks the pool back to its floor, calibrated or not.
        assert_eq!(s.desired_workers(2, None), 2);
        assert_eq!(s.desired_workers(2, Some((1_000_000, 1_000))), 2);
        for _ in 0..3 {
            s.push(Priority::Bulk, (), None, 5_000);
        }
        // Uncalibrated: one worker per queued job.
        assert_eq!(s.desired_workers(1, None), 3);
        // 1,000 rounds per millisecond drain 10,000 rounds per 10 ms
        // horizon, so the 15,000-round backlog calls for ⌈1.5⌉ = 2 workers.
        assert_eq!(s.desired_workers(1, Some((1_000_000, 1_000))), 2);
        // Exactly one horizon of work needs exactly one worker.
        assert_eq!(s.desired_workers(1, Some((1_000_000, 1_500))), 1);
        // A slower service rate (100 rounds per ms) needs 15.
        assert_eq!(s.desired_workers(1, Some((1_000_000, 100))), 15);
    }
}
