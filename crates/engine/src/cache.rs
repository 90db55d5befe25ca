//! The content-addressed ordering cache.
//!
//! Keys are (matrix content hash, algorithm spec); values are computed
//! permutations, held in an [`LruCache`], so every request in the
//! process after the first amortises one computation — the paper's
//! §4.7 cost argument operationalised.

use crate::lru::{CacheMetrics, LruCache};
use crate::AlgoSpec;
use sparsemat::Permutation;
use std::sync::Arc;
use telemetry::{Gauge, Registry};

/// Cache key: the matrix content address plus the parameterised
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OrderingKey {
    /// `CsrMatrix::content_hash()` of the input matrix.
    pub matrix_hash: u128,
    /// Algorithm and parameters.
    pub algo: AlgoSpec,
}

impl OrderingKey {
    pub fn new(matrix_hash: u128, algo: AlgoSpec) -> Self {
        OrderingKey { matrix_hash, algo }
    }
}

/// A cached reordering: the permutation, whether it applies
/// symmetrically, and the one-time cost that computing it incurred.
#[derive(Debug, Clone)]
pub struct CachedOrdering {
    /// `order[new] = old`, as everywhere in the workspace.
    pub perm: Permutation,
    /// True if rows *and* columns are permuted (everything but Gray).
    pub symmetric: bool,
    /// Wall-clock seconds the original computation took.
    pub compute_seconds: f64,
    /// Component→range map for component-structured algorithms (RCM,
    /// AMD), enabling the delta splice path on descendants of this
    /// matrix. `None` for global algorithms.
    pub ranges: Option<Vec<reorder::ComponentRange>>,
}

impl CachedOrdering {
    /// View as the `reorder` crate's result type.
    pub fn to_reorder_result(&self) -> reorder::ReorderResult {
        reorder::ReorderResult {
            perm: self.perm.clone(),
            symmetric: self.symmetric,
        }
    }

    /// Apply to a matrix (symmetric or row-only as recorded).
    pub fn apply(
        &self,
        a: &sparsemat::CsrMatrix,
    ) -> Result<sparsemat::CsrMatrix, sparsemat::SparseError> {
        self.apply_on(a, team::Exec::Sequential)
    }

    /// [`CachedOrdering::apply`] on an executor: the row copy runs in
    /// parallel after a prefix sum (byte-identical output — see
    /// [`reorder::ReorderResult::apply_on`]).
    pub fn apply_on(
        &self,
        a: &sparsemat::CsrMatrix,
        exec: team::Exec<'_>,
    ) -> Result<sparsemat::CsrMatrix, sparsemat::SparseError> {
        if self.symmetric {
            a.permute_symmetric_on(&self.perm, exec)
        } else {
            Ok(a.permute_rows_on(&self.perm, exec))
        }
    }
}

/// Approximate in-memory footprint of one cached ordering.
fn entry_bytes(value: &CachedOrdering) -> i64 {
    let ranges = value.ranges.as_ref().map_or(0, |r| {
        r.len() * std::mem::size_of::<reorder::ComponentRange>()
    });
    (std::mem::size_of::<CachedOrdering>() + value.perm.len() * std::mem::size_of::<u32>() + ranges)
        as i64
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted (computed orderings).
    pub insertions: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: u64,
    /// Approximate bytes held by resident permutations.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups that avoided a computation.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The content-addressed cache of reorderings: an [`LruCache`]
/// reporting `engine.cache.*`.
#[derive(Debug)]
pub(crate) struct OrderingCache {
    lru: LruCache<OrderingKey, Arc<CachedOrdering>>,
    /// `engine.cache.resident_bytes`: approximate bytes held by
    /// resident permutations.
    resident_bytes: Arc<Gauge>,
}

impl OrderingCache {
    /// A cache of `capacity` entries reporting `engine.cache.*` into
    /// `registry` with `labels` on every series (tests pass a private
    /// registry so counter assertions are exact).
    pub fn new(registry: &Registry, capacity: usize, labels: &[(&str, &str)]) -> Self {
        OrderingCache {
            lru: LruCache::new(
                capacity,
                CacheMetrics::new(registry, "engine.cache", labels),
            ),
            resident_bytes: registry.gauge_labeled("engine.cache.resident_bytes", labels),
        }
    }

    /// Look up a key, counting a hit or a miss.
    pub fn get(&self, key: &OrderingKey) -> Option<Arc<CachedOrdering>> {
        self.lru.get(key)
    }

    /// Lookup that counts nothing and leaves recency alone — the
    /// policy layer's "is this already a sunk cost?" probe and the
    /// splice path's ancestor walk.
    pub fn peek(&self, key: &OrderingKey) -> Option<Arc<CachedOrdering>> {
        self.lru.peek(key)
    }

    /// [`OrderingCache::peek`], counted as a hit when it finds the key:
    /// the engine's re-probe under its in-flight lock, where the miss
    /// was already counted.
    pub fn peek_counting_hit(&self, key: &OrderingKey) -> Option<Arc<CachedOrdering>> {
        let found = self.lru.peek(key)?;
        self.lru.metrics().hits.inc();
        Some(found)
    }

    /// Insert a freshly computed ordering, keeping the byte gauge
    /// exact.
    pub fn insert(&self, key: OrderingKey, value: Arc<CachedOrdering>) {
        let mut bytes = entry_bytes(&value);
        if let Some((_, displaced)) = self.lru.insert(key, value) {
            bytes -= entry_bytes(&displaced);
        }
        if bytes != 0 {
            self.resident_bytes.add(bytes);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let m = self.lru.metrics();
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            insertions: m.insertions.get(),
            evictions: m.evictions.get(),
            resident: m.resident.get().max(0) as u64,
            resident_bytes: self.resident_bytes.get().max(0) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache on a private registry so counter assertions are exact
    /// even with other tests running in parallel.
    fn test_cache(capacity: usize) -> OrderingCache {
        OrderingCache::new(&Registry::new(), capacity, &[])
    }

    fn key(i: u128) -> OrderingKey {
        OrderingKey::new(i, AlgoSpec::Rcm)
    }

    fn entry(n: usize) -> Arc<CachedOrdering> {
        Arc::new(CachedOrdering {
            perm: Permutation::identity(n),
            symmetric: true,
            compute_seconds: 0.01,
            ranges: None,
        })
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 4,
            misses: 1,
            insertions: 1,
            evictions: 0,
            resident: 1,
            resident_bytes: 64,
        };
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// The one series the generic LRU does not own: after refreshes
    /// and evictions of entries of varying size, `resident_bytes`
    /// equals the footprint of exactly the entries still resident.
    #[test]
    fn resident_bytes_tracks_refreshes_and_evictions() {
        let cache = test_cache(5);
        for i in 0..40u128 {
            // Keys 0..8 round-robin (every insert past the fifth
            // evicts), each refreshed at once with a different size.
            cache.insert(key(i % 8), entry(1 + (i as usize * 7) % 50));
            cache.insert(key(i % 8), entry(1 + (i as usize * 11) % 50));
        }
        let resident: Vec<_> = (0..8).filter_map(|i| cache.peek(&key(i))).collect();
        let s = cache.stats();
        assert_eq!((resident.len(), s.resident), (5, 5));
        assert_eq!((s.insertions, s.evictions), (80, 35));
        let bytes: i64 = resident.iter().map(|v| entry_bytes(v)).sum();
        assert_eq!(s.resident_bytes, bytes as u64);
    }

    #[test]
    fn reprobe_counts_a_hit_only_when_it_finds_one() {
        let cache = test_cache(4);
        assert!(cache.peek_counting_hit(&key(1)).is_none());
        cache.insert(key(1), entry(3));
        assert!(cache.peek_counting_hit(&key(1)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }
}
