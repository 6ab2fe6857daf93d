//! A bounded, sharded cache of prepared Laplacian solvers with selectable
//! eviction policies.
//!
//! The serving engine ([`crate::stream::StreamEngine`]) routes every
//! Laplacian request through one of these caches, keyed by the deterministic
//! graph fingerprint of [`bcc_graph::fingerprint()`]: repeated solves on the
//! same topology pay the sparsifier preprocessing of Theorem 1.3 once, no
//! matter which worker (or which serve scope) serves them.
//!
//! The cache is **sharded** for concurrency (fingerprints are spread over
//! independently locked shards) and **bounded**: when a capacity is
//! configured, inserting beyond it evicts entries across all shards per the
//! configured [`EvictionPolicy`], so long-lived serving processes cannot
//! grow without limit:
//!
//! * [`EvictionPolicy::Lru`] (the default) evicts the globally
//!   least-recently-used entry — the right choice when request recency
//!   predicts reuse.
//! * [`EvictionPolicy::CostAware`] evicts the entry with the lowest
//!   *retention score* — `(1 + hits since insertion) × (1 + estimated
//!   rebuild rounds)`, where the rebuild estimate comes from the engine's
//!   shared [`CostModel`] ([`crate::cost::CostKind::LaplacianPreprocess`] at
//!   the entry's graph dimensions, calibrated online by the builds the
//!   cache itself observes) — so a rarely-hit, cheap-to-rebuild entry goes
//!   before an expensive, hot preprocessing even if the latter was used
//!   less recently. Ties break toward the least recently used. This is the
//!   policy to pick when topologies differ wildly in preprocessing cost
//!   (recomputation-heavy deadline-sensitive serving): the evicted rounds,
//!   not the evicted entry count, are what the next miss re-pays.
//!
//! Eviction never changes results — a prepared solver is a pure function of
//! `(master seed, graph)`, so a rebuilt entry is bit-identical to the
//! evicted one; the only observable effect is the re-paid preprocessing,
//! surfaced through the [`CacheStats`] counters (which also carry the
//! configured policy and per-policy eviction counts).
//!
//! Concurrent misses on the same fingerprint are collapsed: one worker
//! builds, the others wait on the build and then share the entry, so a
//! fingerprint is preprocessed at most once per miss-window regardless of
//! the worker count. The waiters count as **hits**, not misses —
//! [`CacheStats::misses`] counts completed preprocessing builds only — and
//! the build claim is released even if the build panics, so waiting workers
//! fail over to building instead of hanging.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bcc_graph::GraphFingerprint;
use serde::{Deserialize, Serialize};

use crate::cost::{CostDims, CostKind, CostModel};
use crate::error::Error;
use crate::report::RoundReport;
use crate::session::PreparedLaplacian;
use crate::telemetry::{Counter, MetricsRegistry, TelemetrySink};

/// A cache entry: the prepared handle (or the typed preprocessing error,
/// which is served to every request on that graph) plus its preprocessing
/// cost snapshot.
pub(crate) type CacheEntry = (Result<PreparedLaplacian, Error>, RoundReport);

/// Which entry a bounded [`crate::stream::StreamEngine`] cache evicts when
/// it exceeds its capacity. Selected on the engine builder
/// ([`crate::stream::StreamEngineBuilder::eviction_policy`]); the policy
/// only affects *which* preprocessing is re-paid later, never any result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the globally least-recently-used entry (the default).
    #[default]
    Lru,
    /// Evict the entry with the lowest rebuild-cost × recent-hit retention
    /// score, so hot or expensive preprocessings outlive cold, cheap ones.
    /// Rebuild costs are the shared [`CostModel`]'s calibrated estimates at
    /// the entry's graph dimensions.
    CostAware,
}

impl EvictionPolicy {
    /// The policy name surfaced in [`CacheStats::policy`]: `"lru"` or
    /// `"cost-aware"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::CostAware => "cost-aware",
        }
    }
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Serializes as the policy name string ([`EvictionPolicy::as_str`]).
impl Serialize for EvictionPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

/// Deserializes from the policy name: `"lru"` or `"cost-aware"`.
impl Deserialize for EvictionPolicy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(name) => match name.as_str() {
                "lru" => Ok(EvictionPolicy::Lru),
                "cost-aware" => Ok(EvictionPolicy::CostAware),
                other => Err(serde::Error::custom(format!(
                    "unknown eviction policy `{other}` (expected `lru` or `cost-aware`)"
                ))),
            },
            _ => Err(serde::Error::custom("expected an eviction-policy string")),
        }
    }
}

/// Serializable counters of a Laplacian cache, surfaced in
/// [`crate::stream::StreamReport`].
///
/// `hits` counts lookups served from an existing entry (including lookups
/// that waited for a concurrent build of the same fingerprint — collapsed
/// waiters are hits, never misses), `misses` counts completed preprocessing
/// builds, and `evictions` counts entries dropped to enforce the capacity
/// bound (attributed per policy in `lru_evictions` / `cost_evictions`). The
/// counters accumulate over the owning engine's lifetime; under capacity
/// pressure with concurrent workers they may depend on scheduling (an
/// evicted entry is rebuilt by whichever request needs it next), while
/// results never do.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that built (and cached) a new entry.
    pub misses: u64,
    /// Entries evicted to enforce the capacity bound (all policies).
    pub evictions: u64,
    /// Evictions decided by [`EvictionPolicy::Lru`].
    pub lru_evictions: u64,
    /// Evictions decided by [`EvictionPolicy::CostAware`].
    pub cost_evictions: u64,
    /// Entries currently cached (including cached preprocessing failures).
    pub entries: u64,
    /// The configured capacity bound; `None` means unbounded.
    pub capacity: Option<u64>,
    /// The configured eviction policy ([`EvictionPolicy::as_str`]).
    pub policy: String,
    /// Sum of the cost model's **prior** (uncalibrated) rebuild estimates
    /// over every completed preprocessing build — the predicted half of the
    /// cache's estimation error. The prior is a pure function of the graph
    /// dimensions, so with an unbounded cache this sum is
    /// scheduling-independent (the calibrated estimate is not: it depends
    /// on build completion order, so it steers eviction but is never
    /// reported).
    pub rebuild_predicted_rounds: u64,
    /// Sum of the actual preprocessing rounds over every completed build —
    /// the measured half of the cache's estimation error. Compare against
    /// [`CacheStats::rebuild_predicted_rounds`] to see how far the
    /// uncalibrated prior is from reality (the calibrated model closes
    /// exactly this gap).
    pub rebuild_actual_rounds: u64,
}

/// One cached slot: the entry plus the recency/usage bookkeeping the
/// eviction policies rank by.
struct Slot {
    entry: Arc<CacheEntry>,
    /// Graph dimensions of the cached topology — what the cost model prices
    /// a rebuild of this slot from.
    dims: CostDims,
    /// Last-use tick (LRU order; tie-break for cost-aware eviction).
    tick: u64,
    /// Hits served from this slot since it was inserted.
    uses: u64,
}

impl Slot {
    /// The cost-aware retention score: entries with many recent hits or an
    /// expensive *estimated* rebuild (per the shared [`CostModel`]) score
    /// high and survive, cold cheap entries score low and go first. `+1` on
    /// both factors keeps never-hit and zero-estimate entries comparable
    /// instead of collapsing to 0.
    fn retention_score(&self, cost: &CostModel) -> u128 {
        let rebuild = cost.estimate(CostKind::LaplacianPreprocess, self.dims);
        (1 + self.uses as u128) * (1 + rebuild as u128)
    }
}

/// Live telemetry counters mirroring the cache's own atomics into the
/// engine's metrics registry (`cache.*` names); absent when telemetry is
/// disabled, so the hot path pays one `Option` check.
struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// The sharded, bounded, fingerprint-keyed cache every engine worker
/// shares.
pub(crate) struct LaplacianCache {
    shards: Vec<Mutex<HashMap<u128, Slot>>>,
    capacity: Option<usize>,
    policy: EvictionPolicy,
    /// The engine's shared cost model: calibrated by every completed build,
    /// consulted by cost-aware eviction for rebuild estimates.
    cost: Arc<CostModel>,
    /// Monotonic logical clock; every lookup/insert stamps its slot.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    lru_evictions: AtomicU64,
    cost_evictions: AtomicU64,
    /// Sum of prior rebuild estimates over completed builds (see
    /// [`CacheStats::rebuild_predicted_rounds`]).
    rebuild_predicted: AtomicU64,
    /// Sum of actual preprocessing rounds over completed builds.
    rebuild_actual: AtomicU64,
    /// Fingerprints currently being preprocessed, so concurrent misses on the
    /// same graph collapse into one build.
    building: Mutex<HashSet<u128>>,
    built: Condvar,
    /// Live telemetry mirrors of the hit/miss/eviction counters.
    live: Option<CacheCounters>,
}

impl std::fmt::Debug for LaplacianCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaplacianCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Releases a fingerprint's build claim on drop, so a panicking build frees
/// its waiters (they fail over to building) instead of deadlocking them.
struct BuildClaim<'c> {
    cache: &'c LaplacianCache,
    key: u128,
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        self.cache
            .building
            .lock()
            .expect("building set")
            .remove(&self.key);
        self.cache.built.notify_all();
    }
}

impl LaplacianCache {
    /// An empty cache with `shards` shards, an optional capacity bound
    /// (total entries across all shards; `None` = unbounded), an eviction
    /// policy, the engine's shared cost model and the engine's telemetry
    /// sink (hit/miss/eviction counters mirror into `cache.*` metrics when
    /// the sink is enabled).
    pub(crate) fn new(
        shards: usize,
        capacity: Option<usize>,
        policy: EvictionPolicy,
        cost: Arc<CostModel>,
        telemetry: &TelemetrySink,
    ) -> Self {
        LaplacianCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            capacity,
            policy,
            cost,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            lru_evictions: AtomicU64::new(0),
            cost_evictions: AtomicU64::new(0),
            rebuild_predicted: AtomicU64::new(0),
            rebuild_actual: AtomicU64::new(0),
            building: Mutex::new(HashSet::new()),
            built: Condvar::new(),
            live: telemetry.registry().map(|registry| CacheCounters {
                hits: registry.counter("cache.hits"),
                misses: registry.counter("cache.misses"),
                evictions: registry.counter("cache.evictions"),
            }),
        }
    }

    /// Publishes the point-in-time gauges (entry count, capacity) into a
    /// metrics registry; the event counters stream in live instead.
    pub(crate) fn publish_metrics(&self, registry: &MetricsRegistry) {
        registry.gauge("cache.entries").set(self.len() as u64);
        if let Some(capacity) = self.capacity {
            registry.gauge("cache.capacity").set(capacity as u64);
        }
    }

    fn shard(&self, fp: GraphFingerprint) -> &Mutex<HashMap<u128, Slot>> {
        &self.shards[fp.shard(self.shards.len())]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of cached entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard").len())
            .sum()
    }

    /// The configured capacity bound.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured eviction policy.
    pub(crate) fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            lru_evictions: self.lru_evictions.load(Ordering::Relaxed),
            cost_evictions: self.cost_evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity.map(|c| c as u64),
            policy: self.policy.as_str().to_string(),
            rebuild_predicted_rounds: self.rebuild_predicted.load(Ordering::Relaxed),
            rebuild_actual_rounds: self.rebuild_actual.load(Ordering::Relaxed),
        }
    }

    /// Whether an entry for this fingerprint is currently cached (no counter
    /// or recency effect).
    pub(crate) fn contains(&self, fp: GraphFingerprint) -> bool {
        self.shard(fp)
            .lock()
            .expect("shard")
            .contains_key(&fp.as_u128())
    }

    /// Drops every cached entry (counters are kept).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("shard").clear();
        }
    }

    /// Looks an entry up, bumping its recency, usage count and the hit
    /// counter on success.
    fn lookup(&self, fp: GraphFingerprint) -> Option<Arc<CacheEntry>> {
        let mut shard = self.shard(fp).lock().expect("shard");
        let slot = shard.get_mut(&fp.as_u128())?;
        slot.tick = self.tick();
        slot.uses += 1;
        let entry = Arc::clone(&slot.entry);
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(live) = &self.live {
            live.hits.incr();
        }
        Some(entry)
    }

    /// Returns the cached entry for `fp` (a topology of dimensions `dims`),
    /// building (and caching) it with `build` on a miss. The boolean is
    /// `true` when this call built the entry. Concurrent callers on the
    /// same fingerprint wait for the one build instead of duplicating it
    /// (and count as **hits** once it lands); callers on other fingerprints
    /// are never blocked.
    ///
    /// Every completed build feeds the shared cost model: its actual
    /// preprocessing rounds calibrate the
    /// [`CostKind::LaplacianPreprocess`] rate, and the predicted/actual
    /// sums of [`CacheStats`] record how far the uncalibrated prior was
    /// from reality.
    pub(crate) fn get_or_build(
        &self,
        fp: GraphFingerprint,
        dims: CostDims,
        build: impl FnOnce() -> CacheEntry,
    ) -> (Arc<CacheEntry>, bool) {
        let key = fp.as_u128();
        loop {
            if let Some(entry) = self.lookup(fp) {
                return (entry, false);
            }
            let mut building = self.building.lock().expect("building set");
            if building.contains(&key) {
                // Another worker is preprocessing this graph: wait for it,
                // then re-check the cache (the entry may also have been
                // evicted again in the meantime — the loop handles both).
                let guard = self.built.wait(building).expect("building set");
                drop(guard);
                continue;
            }
            building.insert(key);
            drop(building);
            // The claim is released when this guard drops — including on a
            // panicking `build`, so waiters wake up and take over instead
            // of blocking forever.
            let claim = BuildClaim { cache: self, key };
            // Re-check: a build may have completed (insert + claim release)
            // between our failed lookup and claiming the build.
            if let Some(entry) = self.lookup(fp) {
                return (entry, false);
            }
            let entry = Arc::new(build());
            // Count the miss (and feed the calibration loop) only for a
            // *completed* build, so an aborted build never skews the
            // hit/miss ratio or the model.
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(live) = &self.live {
                live.misses.incr();
            }
            self.rebuild_predicted.fetch_add(
                self.cost
                    .prior_estimate(CostKind::LaplacianPreprocess, dims),
                Ordering::Relaxed,
            );
            self.rebuild_actual
                .fetch_add(entry.1.total_rounds, Ordering::Relaxed);
            self.cost
                .observe(CostKind::LaplacianPreprocess, dims, entry.1.total_rounds);
            self.insert(fp, dims, Arc::clone(&entry));
            drop(claim);
            return (entry, true);
        }
    }

    /// Inserts an entry, then evicts per the configured policy until the
    /// capacity bound holds again.
    fn insert(&self, fp: GraphFingerprint, dims: CostDims, entry: Arc<CacheEntry>) {
        let tick = self.tick();
        self.shard(fp).lock().expect("shard").insert(
            fp.as_u128(),
            Slot {
                entry,
                dims,
                tick,
                uses: 0,
            },
        );
        self.enforce_capacity();
    }

    /// Evicts entries while the cache exceeds its capacity, choosing the
    /// victim per the configured [`EvictionPolicy`]. Shards are locked one
    /// at a time, so this never deadlocks with concurrent lookups; a
    /// concurrent eviction of the same victim just re-checks the size and
    /// converges.
    ///
    /// Each eviction scans every shard for the global victim — O(n) in the
    /// entry count, which the capacity bounds. That favours exact global
    /// victim selection and simplicity over per-insert throughput; a
    /// per-shard bound or an ordered index would trade accuracy or memory
    /// for speed if bounded caches ever grow past a few hundred entries
    /// (each of which holds a full prepared solver, so in practice they do
    /// not).
    fn enforce_capacity(&self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.len() > capacity {
            // Rank = (primary score, tick): strictly smaller loses. LRU
            // ranks by recency alone; cost-aware ranks by retention score
            // with recency as the tie-break.
            let rank = |slot: &Slot| -> (u128, u64) {
                match self.policy {
                    EvictionPolicy::Lru => (0, slot.tick),
                    EvictionPolicy::CostAware => (slot.retention_score(&self.cost), slot.tick),
                }
            };
            // The most recently stamped slot (normally the entry whose
            // insert triggered this pass) is exempt while alternatives
            // exist: without the exemption the cost-aware policy would
            // evict every fresh zero-hit entry right after building it.
            let mut newest: Option<(usize, u128, u64)> = None;
            let mut entries = 0usize;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock().expect("shard");
                entries += shard.len();
                for (key, slot) in shard.iter() {
                    if newest.is_none_or(|(_, _, tick)| slot.tick > tick) {
                        newest = Some((i, *key, slot.tick));
                    }
                }
            }
            let exempt = (entries > 1).then_some(newest).flatten();
            let mut victim: Option<(usize, u128, (u128, u64))> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock().expect("shard");
                for (key, slot) in shard.iter() {
                    if exempt.is_some_and(|(ei, ek, _)| ei == i && ek == *key) {
                        continue;
                    }
                    let r = rank(slot);
                    if victim.is_none_or(|(_, _, best)| r < best) {
                        victim = Some((i, *key, r));
                    }
                }
            }
            let Some((i, key, _)) = victim else {
                break;
            };
            if self.shards[i].lock().expect("shard").remove(&key).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(live) = &self.live {
                    live.evictions.incr();
                }
                match self.policy {
                    EvictionPolicy::Lru => self.lru_evictions.fetch_add(1, Ordering::Relaxed),
                    EvictionPolicy::CostAware => {
                        self.cost_evictions.fetch_add(1, Ordering::Relaxed)
                    }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bcc_graph::{fingerprint, generators};

    /// A test cache with a fresh default cost model.
    fn cache_with(
        shards: usize,
        capacity: Option<usize>,
        policy: EvictionPolicy,
    ) -> LaplacianCache {
        LaplacianCache::new(
            shards,
            capacity,
            policy,
            Arc::new(CostModel::new()),
            &TelemetrySink::disabled(),
        )
    }

    /// `get_or_build` with the dims derived from the graph, as the engines
    /// call it.
    fn get_or_build_for(
        cache: &LaplacianCache,
        graph: &bcc_graph::Graph,
        build: impl FnOnce() -> CacheEntry,
    ) -> (Arc<CacheEntry>, bool) {
        cache.get_or_build(fingerprint(graph), CostDims::of_graph(graph), build)
    }

    fn entry_for(seed: u64, graph: &bcc_graph::Graph) -> CacheEntry {
        let session = Session::builder().seed(seed).build();
        match session.laplacian(graph).preprocess() {
            Ok(prepared) => {
                let report = prepared.preprocessing_report().clone();
                (Ok(prepared), report)
            }
            Err(e) => (
                Err(e),
                RoundReport {
                    total_rounds: 0,
                    total_bits: 0,
                    total_operations: 0,
                    breakdown: Vec::new(),
                },
            ),
        }
    }

    #[test]
    fn capacity_one_evicts_the_least_recently_used_entry() {
        let cache = cache_with(16, Some(1), EvictionPolicy::Lru);
        let a = generators::grid(3, 3);
        let b = generators::grid(2, 4);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);

        let (_, built) = get_or_build_for(&cache, &a, || entry_for(1, &a));
        assert!(built);
        assert_eq!(cache.len(), 1);

        let (_, built) = get_or_build_for(&cache, &b, || entry_for(1, &b));
        assert!(built, "second graph is a miss");
        assert_eq!(cache.len(), 1, "capacity bound holds");
        assert!(cache.contains(fb));
        assert!(!cache.contains(fa), "the older entry was evicted");

        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.lru_evictions, 1);
        assert_eq!(stats.cost_evictions, 0);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, Some(1));
        assert_eq!(stats.policy, "lru");

        // Re-requesting the evicted graph rebuilds it (a pure function of the
        // seed and graph, so the rebuilt entry is identical) and evicts the
        // other one.
        let (rebuilt, built) = get_or_build_for(&cache, &a, || entry_for(1, &a));
        assert!(built);
        let (original, _) = get_or_build_for(&cache, &a, || entry_for(1, &a));
        assert_eq!(rebuilt.1, original.1);
        assert!(!cache.contains(fb));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unbounded_cache_counts_hits_and_never_evicts() {
        let cache = cache_with(4, None, EvictionPolicy::Lru);
        let g = generators::grid(3, 3);
        let _fp = fingerprint(&g);
        let _ = get_or_build_for(&cache, &g, || entry_for(1, &g));
        for _ in 0..3 {
            let (_, built) = get_or_build_for(&cache, &g, || entry_for(1, &g));
            assert!(!built);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, None);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn lru_order_follows_recency_of_use_not_insertion() {
        let cache = cache_with(8, Some(2), EvictionPolicy::Lru);
        let a = generators::grid(3, 3);
        let b = generators::grid(2, 4);
        let c = generators::grid(2, 5);
        let (fa, fb, fc) = (fingerprint(&a), fingerprint(&b), fingerprint(&c));
        let _ = get_or_build_for(&cache, &a, || entry_for(1, &a));
        let _ = get_or_build_for(&cache, &b, || entry_for(1, &b));
        // Touch `a` so `b` becomes the LRU entry.
        let _ = get_or_build_for(&cache, &a, || entry_for(1, &a));
        let _ = get_or_build_for(&cache, &c, || entry_for(1, &c));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(fa));
        assert!(cache.contains(fc));
        assert!(!cache.contains(fb), "the least recently used entry went");
    }

    #[test]
    fn cost_aware_eviction_keeps_the_hot_entry_where_lru_would_drop_it() {
        // `a` is inserted first and hit three times; `b` is newer but hit
        // only once. LRU is decided by raw recency; the cost-aware policy
        // by hits × rebuild cost.
        let a = generators::grid(3, 3);
        let b = generators::grid(2, 4);
        let c = generators::grid(2, 5);
        let (fa, fb, _fc) = (fingerprint(&a), fingerprint(&b), fingerprint(&c));
        let exercise = |cache: &LaplacianCache| {
            let _ = get_or_build_for(cache, &a, || entry_for(1, &a));
            for _ in 0..3 {
                let _ = get_or_build_for(cache, &a, || entry_for(1, &a));
            }
            let _ = get_or_build_for(cache, &b, || entry_for(1, &b));
            let _ = get_or_build_for(cache, &b, || entry_for(1, &b));
            // The insert that overflows capacity 2.
            let _ = get_or_build_for(cache, &c, || entry_for(1, &c));
        };

        let lru = cache_with(8, Some(2), EvictionPolicy::Lru);
        exercise(&lru);
        assert!(!lru.contains(fa), "LRU drops the older-touched entry");
        assert!(lru.contains(fb));
        assert_eq!(lru.stats().lru_evictions, 1);

        let cost = cache_with(8, Some(2), EvictionPolicy::CostAware);
        exercise(&cost);
        assert!(
            cost.contains(fa),
            "the thrice-hit entry outscores the once-hit one"
        );
        assert!(!cost.contains(fb));
        let stats = cost.stats();
        assert_eq!(stats.policy, "cost-aware");
        assert_eq!(stats.cost_evictions, 1);
        assert_eq!(stats.lru_evictions, 0);
    }

    #[test]
    fn cost_aware_eviction_prefers_dropping_cheap_rebuilds() {
        // Never-hit entries tie on the usage factor, so the retention score
        // reduces to rebuild cost: the cheaper preprocessing goes first,
        // whatever the insertion order says.
        let cheap = generators::grid(2, 2);
        let dear = generators::grid(5, 5);
        let next = generators::grid(2, 3);
        let (fc_, fd, _fn_) = (fingerprint(&cheap), fingerprint(&dear), fingerprint(&next));
        let cheap_entry = entry_for(1, &cheap);
        let dear_entry = entry_for(1, &dear);
        assert!(
            dear_entry.1.total_rounds > cheap_entry.1.total_rounds,
            "the larger grid must cost more to preprocess"
        );

        let cache = cache_with(8, Some(2), EvictionPolicy::CostAware);
        // Insert the expensive entry FIRST so pure LRU would evict it.
        let _ = get_or_build_for(&cache, &dear, || entry_for(1, &dear));
        let _ = get_or_build_for(&cache, &cheap, || entry_for(1, &cheap));
        let _ = get_or_build_for(&cache, &next, || entry_for(1, &next));
        assert!(
            cache.contains(fd),
            "the expensive preprocessing must survive"
        );
        assert!(!cache.contains(fc_), "the cheap rebuild is the victim");
    }

    #[test]
    fn collapsed_concurrent_misses_count_the_waiters_as_hits() {
        // Regression test for the collapsed-miss accounting: N workers race
        // on one uncached fingerprint; exactly one build happens, and the
        // N-1 collapsed waiters are hits, never misses.
        let cache = cache_with(4, None, EvictionPolicy::Lru);
        let g = generators::grid(4, 4);
        let _fp = fingerprint(&g);
        let threads = 6;
        let barrier = std::sync::Barrier::new(threads);
        let builds: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (_, built) = get_or_build_for(&cache, &g, || {
                            // Widen the race window so the waiters really
                            // queue up behind this build.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            entry_for(1, &g)
                        });
                        built
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            builds.iter().filter(|b| **b).count(),
            1,
            "concurrent misses on one fingerprint collapse into one build"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.misses, 1,
            "collapsed waiters must not count as misses"
        );
        assert_eq!(
            stats.hits,
            threads as u64 - 1,
            "every collapsed waiter counts as a hit"
        );
    }

    #[test]
    fn a_panicking_build_releases_its_claim_so_waiters_take_over() {
        // The claim is RAII-released: if a build dies, a waiter must be able
        // to build instead of blocking forever on the never-notified claim.
        let cache = cache_with(4, None, EvictionPolicy::Lru);
        let g = generators::grid(3, 3);
        let fp = fingerprint(&g);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            get_or_build_for(&cache, &g, || panic!("injected preprocessing failure"))
        }));
        assert!(first.is_err(), "the injected panic propagates");
        let (_, built) = get_or_build_for(&cache, &g, || entry_for(1, &g));
        assert!(built, "the claim was released, so the retry builds");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "an aborted build is not a miss");
        assert!(cache.contains(fp));
    }
}
