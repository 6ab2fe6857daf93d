//! The prepared-solver cache and the one eviction rule it shares with the
//! load simulator.
//!
//! [`Lru`] is that rule: a map with an optional capacity that evicts the
//! least recently used entry. It reads no clock and takes no lock: the
//! serving engine wraps it in one mutex, `bench::load` drives it
//! single-threaded, and both evict exactly the same keys for the same
//! sequence of lookups and inserts.
//!
//! The serving engine ([`crate::stream::StreamEngine`]) routes every
//! Laplacian request through a cache of prepared solvers, keyed by the
//! deterministic graph fingerprint of [`bcc_graph::fingerprint()`]:
//! repeated solves on the same topology pay the sparsifier preprocessing of
//! Theorem 1.3 once, no matter which worker (or which serve scope) serves
//! them. When a capacity is configured, inserting beyond it evicts the
//! least recently used entry, so long-lived serving processes cannot grow
//! without limit.
//!
//! Eviction never changes results — a prepared solver is a pure function of
//! `(master seed, graph)`, so a rebuilt entry is bit-identical to the
//! evicted one; the only observable effect is the re-paid preprocessing,
//! surfaced through the [`CacheStats`] counters.
//!
//! Concurrent misses on the same fingerprint are collapsed: one worker
//! builds, the others wait on the build and then share the entry, so a
//! fingerprint is preprocessed at most once per miss-window regardless of
//! the worker count. The waiters count as **hits**, not misses —
//! [`CacheStats::misses`] counts completed preprocessing builds only — and
//! the build claim is released even if the build panics, so waiting workers
//! fail over to building instead of hanging.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bcc_graph::GraphFingerprint;
use serde::{Deserialize, Serialize};

use crate::cost::{CostDims, CostKind, CostModel};
use crate::error::Error;
use crate::report::RoundReport;
use crate::session::PreparedLaplacian;
use crate::telemetry::{Counter, MetricsRegistry, TelemetrySink};

/// A map with an optional capacity that evicts the least recently used
/// entry — the one eviction rule of the engine's prepared-solver cache and
/// of the load simulator's cache model.
///
/// Recency is a logical use counter, not a clock: [`Lru::get`] and
/// [`Lru::insert`] mark their key used, [`Lru::contains`] does not, so a
/// probe can never reorder eviction. Evicting scans every entry for the
/// least recently used one, which the capacity bounds.
///
/// ```
/// use bcc_core::cache::Lru;
///
/// let mut lru = Lru::new(Some(2));
/// assert!(lru.insert("a", 1).is_empty());
/// assert!(lru.insert("b", 2).is_empty());
/// assert_eq!(lru.get(&"a"), Some(&1)); // `b` is now the least recent
/// assert_eq!(lru.insert("c", 3), vec!["b"]);
/// assert!(lru.contains(&"a") && lru.contains(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    /// Each value with the use stamp of its last `get` or `insert`.
    entries: HashMap<K, (V, u64)>,
    capacity: Option<usize>,
    /// The latest use stamp; stamps are unique, so the victim is too.
    uses: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries; `None` is
    /// unbounded.
    pub fn new(capacity: Option<usize>) -> Self {
        Lru {
            entries: HashMap::new(),
            capacity,
            uses: 0,
        }
    }

    /// The capacity bound; `None` means unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is present. Does not mark it used.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// The value of `key`, marking it used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (value, used) = self.entries.get_mut(key)?;
        self.uses += 1;
        *used = self.uses;
        Some(value)
    }

    /// Inserts (or replaces) the value of `key` and marks it used, then
    /// evicts least recently used keys while the map is over capacity.
    /// Returns the evicted keys, oldest first.
    pub fn insert(&mut self, key: K, value: V) -> Vec<K> {
        self.uses += 1;
        self.entries.insert(key, (value, self.uses));
        let mut evicted = Vec::new();
        while self.capacity.is_some_and(|c| self.entries.len() > c) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| key.clone())
                .expect("a map over capacity is not empty");
            self.entries.remove(&victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A cache entry: the prepared handle (or the typed preprocessing error,
/// which is served to every request on that graph) plus its preprocessing
/// cost snapshot.
pub(crate) type CacheEntry = (Result<PreparedLaplacian, Error>, RoundReport);

/// Serializable counters of a Laplacian cache, surfaced in
/// [`crate::stream::StreamReport`].
///
/// `hits` counts lookups served from an existing entry (including lookups
/// that waited for a concurrent build of the same fingerprint — collapsed
/// waiters are hits, never misses), `misses` counts completed preprocessing
/// builds, and `evictions` counts entries dropped to enforce the capacity
/// bound. The counters accumulate over the owning engine's lifetime; under
/// capacity pressure with concurrent workers they may depend on scheduling
/// (an evicted entry is rebuilt by whichever request needs it next), while
/// results never do.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that built (and cached) a new entry.
    pub misses: u64,
    /// Entries evicted to enforce the capacity bound.
    pub evictions: u64,
    /// Entries currently cached (including cached preprocessing failures).
    pub entries: u64,
    /// The configured capacity bound; `None` means unbounded.
    pub capacity: Option<u64>,
    /// Sum of the cost model's **prior** (uncalibrated) rebuild estimates
    /// over every completed preprocessing build — the predicted half of the
    /// cache's estimation error. The prior is a pure function of the graph
    /// dimensions, so with an unbounded cache this sum is
    /// scheduling-independent (the calibrated estimate is not: it depends
    /// on build completion order, so it is never reported).
    pub rebuild_predicted_rounds: u64,
    /// Sum of the actual preprocessing rounds over every completed build —
    /// the measured half of the cache's estimation error. Compare against
    /// [`CacheStats::rebuild_predicted_rounds`] to see how far the
    /// uncalibrated prior is from reality (the calibrated model closes
    /// exactly this gap).
    pub rebuild_actual_rounds: u64,
}

/// Live telemetry counters mirroring the cache's own atomics into the
/// engine's metrics registry (`cache.*` names); absent when telemetry is
/// disabled, so the hot path pays one `Option` check.
struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// The bounded, fingerprint-keyed cache every engine worker shares.
pub(crate) struct LaplacianCache {
    entries: Mutex<Lru<u128, Arc<CacheEntry>>>,
    /// The engine's shared cost model, calibrated by every completed build.
    cost: Arc<CostModel>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
    /// An empty cache with an optional capacity bound (`None` = unbounded),
    /// the engine's shared cost model and the engine's telemetry sink
    /// (hit/miss/eviction counters mirror into `cache.*` metrics when the
    /// sink is enabled).
    pub(crate) fn new(
        capacity: Option<usize>,
        cost: Arc<CostModel>,
        telemetry: &TelemetrySink,
    ) -> Self {
        LaplacianCache {
            entries: Mutex::new(Lru::new(capacity)),
            cost,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
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
        if let Some(capacity) = self.capacity() {
            registry.gauge("cache.capacity").set(capacity as u64);
        }
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, Lru<u128, Arc<CacheEntry>>> {
        self.entries.lock().expect("cache entries")
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.lru().len()
    }

    /// The configured capacity bound.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.lru().capacity()
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let (entries, capacity) = {
            let lru = self.lru();
            (lru.len() as u64, lru.capacity().map(|c| c as u64))
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity,
            rebuild_predicted_rounds: self.rebuild_predicted.load(Ordering::Relaxed),
            rebuild_actual_rounds: self.rebuild_actual.load(Ordering::Relaxed),
        }
    }

    /// Whether an entry for this fingerprint is currently cached (no counter
    /// or recency effect).
    pub(crate) fn contains(&self, fp: GraphFingerprint) -> bool {
        self.lru().contains(&fp.as_u128())
    }

    /// Drops every cached entry (counters are kept).
    pub(crate) fn clear(&self) {
        self.lru().clear();
    }

    /// Looks an entry up, marking it used and counting a hit on success.
    fn lookup(&self, key: u128) -> Option<Arc<CacheEntry>> {
        let entry = self.lru().get(&key).map(Arc::clone)?;
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
            if let Some(entry) = self.lookup(key) {
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
            if let Some(entry) = self.lookup(key) {
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
            let evicted = self.lru().insert(key, Arc::clone(&entry)).len() as u64;
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                if let Some(live) = &self.live {
                    live.evictions.add(evicted);
                }
            }
            drop(claim);
            return (entry, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bcc_graph::{fingerprint, generators};

    /// A test cache with a fresh default cost model.
    fn cache_with(capacity: Option<usize>) -> LaplacianCache {
        LaplacianCache::new(
            capacity,
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
    fn lru_get_marks_a_key_used_but_contains_does_not() {
        let mut lru = Lru::new(Some(2));
        assert!(lru.insert(1u64, ()).is_empty());
        assert!(lru.insert(2, ()).is_empty());
        // A probe leaves 1 the least recently used key…
        assert!(lru.contains(&1));
        assert_eq!(lru.insert(3, ()), vec![1]);
        // …a lookup does not, and re-inserting a present key evicts nothing.
        assert!(lru.get(&2).is_some());
        assert!(lru.insert(2, ()).is_empty());
        assert_eq!(lru.insert(4, ()), vec![3]);
        assert!(lru.get(&1).is_none());
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.capacity(), Some(2));
    }

    #[test]
    fn lru_without_capacity_never_evicts_and_zero_capacity_holds_nothing() {
        let mut lru = Lru::new(None);
        for k in 0..100u64 {
            assert!(lru.insert(k, k).is_empty());
        }
        assert!(lru.insert(7, 70).is_empty());
        assert_eq!(lru.get(&7), Some(&70));
        assert_eq!(lru.len(), 100);
        lru.clear();
        assert!(lru.is_empty());

        let mut zero = Lru::new(Some(0));
        assert_eq!(zero.insert("k", 1), vec!["k"]);
        assert!(zero.is_empty());
    }

    #[test]
    fn capacity_one_evicts_the_least_recently_used_entry() {
        let cache = cache_with(Some(1));
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
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, Some(1));

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
        let cache = cache_with(None);
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
        let cache = cache_with(Some(2));
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
    fn collapsed_concurrent_misses_count_the_waiters_as_hits() {
        // Regression test for the collapsed-miss accounting: N workers race
        // on one uncached fingerprint; exactly one build happens, and the
        // N-1 collapsed waiters are hits, never misses.
        let cache = cache_with(None);
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
        let cache = cache_with(None);
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
