//! The workspace's one exact-LRU mechanism.
//!
//! [`LruMap`] is the data structure: a hash map whose entries carry a
//! monotone tick, plus a `BTreeMap<tick, key>` recency index from
//! which the victim — always the least-recently-used entry — is
//! taken. [`LruCache`] is the shared form every serving cache is an
//! instance of — ordering, plan, prepared-matrix and policy-summary:
//! one `Mutex` around an `LruMap`, and one [`CacheMetrics`] family of
//! five series.
//!
//! Lock discipline: the mutex is held for map operations only. A value
//! is never built under it — [`LruCache::get_or_insert_with`] runs its
//! builder between two short critical sections and the first insert
//! wins — and metrics are atomics updated after the guard is dropped.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::{Counter, Gauge, Registry};

/// A bounded map with exact least-recently-used eviction.
///
/// A touch only restamps the entry, so a hit costs one hash lookup;
/// the recency index learns of it when it next matters. Each key has
/// exactly one index entry, filed under the tick it had when last
/// filed — at or before its current stamp. Eviction pops the oldest
/// index entry: if its key has not been touched since, no other key
/// can be older (every other key's stamp is at least its own, later,
/// index tick) and it is the victim; otherwise the entry is refiled
/// under the key's current stamp and the next oldest is tried. Each
/// touch causes at most one refiling, so eviction is `O(log n)`
/// amortised, and the order is exactly that of an eagerly kept list.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, (V, u64)>,
    /// Recency index: tick → key, oldest first; possibly stale (above).
    recency: BTreeMap<u64, K>,
    tick: u64,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// An empty map holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up and touch: a found entry becomes most-recently-used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (value, stamp) = self.map.get_mut(key)?;
        self.tick += 1;
        *stamp = self.tick;
        Some(value)
    }

    /// Look up without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(value, _)| value)
    }

    /// Insert `value` as most-recently-used and return the entry that
    /// left the map to make room for it, if any: the previous value
    /// under the same key (a refresh), or the least-recently-used
    /// entry when a new key pushed the map past capacity. Never both —
    /// a refresh does not grow the map.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        if let Some((old, _)) = self.map.insert(key, (value, self.tick)) {
            // A refresh is a touch: the key's index entry stays put.
            return Some((key, old));
        }
        self.recency.insert(self.tick, key);
        if self.map.len() <= self.capacity {
            return None;
        }
        loop {
            let (filed, victim) = self
                .recency
                .pop_first()
                .expect("every key has an index entry");
            let stamp = self.map[&victim].1;
            if stamp == filed {
                let (old, _) = self.map.remove(&victim).expect("indexed above");
                return Some((victim, old));
            }
            self.recency.insert(stamp, victim);
        }
    }

    /// Every entry, in no particular order; recency is not touched.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(key, (value, _))| (key, value))
    }

    /// Panic unless every key has exactly one index entry, filed at or
    /// before its current stamp, and the map is within capacity.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.map.len(),
            self.recency.len(),
            "recency index out of sync with entries"
        );
        assert!(
            self.map.len() <= self.capacity,
            "{} entries exceed capacity {}",
            self.map.len(),
            self.capacity
        );
        let mut indexed = HashSet::new();
        for (filed, key) in &self.recency {
            assert!(indexed.insert(key), "a key is indexed twice");
            assert!(
                self.map.get(key).is_some_and(|(_, stamp)| filed <= stamp),
                "index entry {filed} has no entry stamped at or after it"
            );
        }
    }
}

/// The five series every cache family reports
/// (`<family>.{hits,misses,insertions,evictions,resident}`), resolved
/// once at construction so the hot path only touches atomics.
///
/// When several caches share one registry under the same labels (the
/// unlabeled process-global default), the series are totals across
/// those caches — what a scrape wants. Tests needing per-instance
/// exactness pass a private registry.
#[derive(Debug)]
pub struct CacheMetrics {
    /// Counted lookups that found their key.
    pub hits: Arc<Counter>,
    /// Counted lookups that did not.
    pub misses: Arc<Counter>,
    /// Values admitted (refreshes of a resident key included).
    pub insertions: Arc<Counter>,
    /// Entries pushed out by the LRU policy.
    pub evictions: Arc<Counter>,
    /// Entries currently resident.
    pub resident: Arc<Gauge>,
}

impl CacheMetrics {
    /// Resolve `<family>.*` in `registry` with `labels` on every series.
    pub fn new(registry: &Registry, family: &str, labels: &[(&str, &str)]) -> Self {
        let counter =
            |series: &str| registry.counter_labeled(&format!("{family}.{series}"), labels);
        CacheMetrics {
            hits: counter("hits"),
            misses: counter("misses"),
            insertions: counter("insertions"),
            evictions: counter("evictions"),
            resident: registry.gauge_labeled(&format!("{family}.resident"), labels),
        }
    }
}

/// A thread-safe, metered [`LruMap`]; values are handed out by clone
/// (every instance stores an `Arc` or a small `Copy` summary).
#[derive(Debug)]
pub struct LruCache<K, V> {
    state: Mutex<LruMap<K, V>>,
    metrics: CacheMetrics,
}

impl<K: Copy + Eq + Hash, V: Clone> LruCache<K, V> {
    /// A cache of at most `capacity` entries reporting into `metrics`.
    pub fn new(capacity: usize, metrics: CacheMetrics) -> Self {
        LruCache {
            state: Mutex::new(LruMap::new(capacity)),
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruMap<K, V>> {
        self.state
            .lock()
            .expect("no code path panics while holding the cache lock")
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The cache's series, for stats snapshots.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Look up, touch, and count a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.lock().get_mut(key).cloned();
        match found {
            Some(_) => self.metrics.hits.inc(),
            None => self.metrics.misses.inc(),
        }
        found
    }

    /// Look up without touching recency or counting anything.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.lock().peek(key).cloned()
    }

    /// Insert (or refresh) `key` and return the displaced entry, as
    /// [`LruMap::insert`] does.
    pub fn insert(&self, key: K, value: V) -> Option<(K, V)> {
        let displaced = self.lock().insert(key, value);
        self.count_insert(&key, &displaced);
        displaced
    }

    fn count_insert(&self, key: &K, displaced: &Option<(K, V)>) {
        self.metrics.insertions.inc();
        match displaced {
            None => self.metrics.resident.inc(),
            Some((victim, _)) if victim != key => self.metrics.evictions.inc(),
            Some(_) => {}
        }
    }

    /// [`LruCache::get`], building and inserting the value on a miss.
    /// `build` runs with the lock released; if another thread inserted
    /// the key meanwhile, that first insert wins and the fresh build is
    /// dropped. The flag is `true` when the first lookup hit.
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> (V, bool) {
        if let Some(value) = self.get(&key) {
            return (value, true);
        }
        let built = build();
        let mut state = self.lock();
        if let Some(winner) = state.get_mut(&key) {
            return (winner.clone(), false);
        }
        let displaced = state.insert(key, built.clone());
        drop(state);
        self.count_insert(&key, &displaced);
        (built, false)
    }

    /// [`LruMap::assert_consistent`], plus: the `resident` gauge equals
    /// the true occupancy. Only meaningful when no other cache shares
    /// this one's series (tests pass a private registry).
    pub fn assert_consistent(&self) {
        let state = self.lock();
        state.assert_consistent();
        assert_eq!(
            self.metrics.resident.get(),
            state.len() as i64,
            "resident gauge drifted from true occupancy"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> LruCache<u32, u64> {
        let metrics = CacheMetrics::new(&Registry::new(), "test.cache", &[]);
        LruCache::new(capacity, metrics)
    }

    /// The specification: entries in a `Vec`, least-recently-used first.
    struct Model {
        entries: Vec<(u32, u64)>,
        capacity: usize,
    }

    impl Model {
        fn position(&self, key: u32) -> Option<usize> {
            self.entries.iter().position(|(k, _)| *k == key)
        }

        fn peek(&self, key: u32) -> Option<u64> {
            self.position(key).map(|i| self.entries[i].1)
        }

        fn get(&mut self, key: u32) -> Option<u64> {
            let entry = self.entries.remove(self.position(key)?);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u32, value: u64) -> Option<(u32, u64)> {
            let displaced = match self.position(key) {
                Some(i) => Some(self.entries.remove(i)),
                None if self.entries.len() == self.capacity => Some(self.entries.remove(0)),
                None => None,
            };
            self.entries.push((key, value));
            displaced
        }
    }

    #[test]
    fn seeded_workload_matches_the_vec_ordered_model_step_by_step() {
        // Deterministic xorshift so a failure names a reproducible step.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cache = cache(13);
        let mut model = Model {
            entries: Vec::new(),
            capacity: 13,
        };
        let (mut gets, mut hits, mut inserts, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        for step in 0..4000 {
            let key = (next() % 40) as u32;
            match next() % 4 {
                0 => {
                    let want = model.get(key);
                    gets += 1;
                    hits += u64::from(want.is_some());
                    assert_eq!(cache.get(&key), want, "step {step}: get({key})");
                }
                1 => assert_eq!(
                    cache.peek(&key),
                    model.peek(key),
                    "step {step}: peek({key})"
                ),
                _ => {
                    let value = next();
                    let want = model.insert(key, value);
                    inserts += 1;
                    evictions += u64::from(want.is_some_and(|(victim, _)| victim != key));
                    assert_eq!(
                        cache.insert(key, value),
                        want,
                        "step {step}: insert({key}) displaced the wrong entry"
                    );
                }
            }
            assert_eq!(cache.len(), model.entries.len(), "step {step}: len");
            if step % 500 == 0 {
                cache.assert_consistent();
            }
        }
        cache.assert_consistent();
        let m = cache.metrics();
        assert_eq!((m.hits.get(), m.misses.get()), (hits, gets - hits));
        assert_eq!(
            (m.insertions.get(), m.evictions.get()),
            (inserts, evictions)
        );
        assert!(evictions > 0 && hits > 0, "workload must hit and overflow");
    }

    #[test]
    fn get_or_insert_with_builds_outside_the_lock_and_first_insert_wins() {
        let cache = cache(4);
        // The builder re-enters the cache: it would deadlock under the
        // lock. It also loses a race it stages against itself.
        let (value, hit) = cache.get_or_insert_with(7, || {
            assert_eq!(cache.peek(&7), None);
            cache.insert(7, 100);
            200
        });
        assert_eq!((value, hit), (100, false), "the first insert wins");
        assert_eq!(cache.get_or_insert_with(7, || unreachable!()), (100, true));
        assert_eq!(cache.get_or_insert_with(8, || 300), (300, false));
        cache.assert_consistent();
        let m = cache.metrics();
        assert_eq!((m.hits.get(), m.misses.get()), (1, 2));
        assert_eq!((m.insertions.get(), m.evictions.get()), (2, 0));
    }

    #[test]
    fn labeled_families_are_distinct_series() {
        let registry = Registry::new();
        let a = LruCache::new(2, CacheMetrics::new(&registry, "fam", &[("shard", "0")]));
        let b = LruCache::new(2, CacheMetrics::new(&registry, "fam", &[("shard", "1")]));
        a.insert(1u32, 1u64);
        b.insert(1, 1);
        b.insert(2, 2);
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge_labeled("fam.resident", &[("shard", "0")]),
            Some(1)
        );
        assert_eq!(
            snap.gauge_labeled("fam.resident", &[("shard", "1")]),
            Some(2)
        );
    }
}
