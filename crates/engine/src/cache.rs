//! The content-addressed ordering cache.
//!
//! Keys are (matrix content hash, algorithm spec); values are computed
//! permutations, held in an [`LruCache`]. Optionally, permutations are
//! persisted to disk so separate processes — each figure/table binary
//! is its own process — amortise one computation across the whole
//! artifact run, which is the paper's §4.7 cost argument
//! operationalised.

use crate::lru::{CacheMetrics, LruCache};
use crate::AlgoSpec;
use sparsemat::Permutation;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use telemetry::{Counter, Gauge, Registry};

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

    /// Filename stem for disk persistence: hash plus algorithm token.
    fn file_stem(&self) -> String {
        format!("{:032x}-{}", self.matrix_hash, self.algo.cache_token())
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
    /// Wall-clock seconds the original computation took (zero when the
    /// entry was loaded from disk; the cost was paid by some earlier
    /// process).
    pub compute_seconds: f64,
    /// Component→range map for component-structured algorithms (RCM,
    /// AMD), enabling the delta splice path on descendants of this
    /// matrix. `None` for global algorithms and for entries loaded
    /// from the disk tier (the `perm-cache-v1` format does not carry
    /// ranges; such entries serve exact hits but not splices).
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
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that found nothing (neither memory nor disk).
    pub misses: u64,
    /// Entries admitted to memory (computed, or loaded from disk).
    pub insertions: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Lookups served from the disk store (counted separately from
    /// `hits`; they also repopulate memory).
    pub disk_hits: u64,
    /// Entries currently resident in memory.
    pub resident: u64,
    /// Approximate bytes held by resident permutations.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups that avoided a computation.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.disk_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// The content-addressed cache of reorderings: an [`LruCache`] of
/// `engine.cache.*` in memory, the `perm-cache-v1` files behind it.
#[derive(Debug)]
pub(crate) struct OrderingCache {
    lru: LruCache<OrderingKey, Arc<CachedOrdering>>,
    /// `engine.cache.disk_hits`: lookups the disk tier served.
    disk_hits: Arc<Counter>,
    /// `engine.cache.resident_bytes`: approximate bytes held by
    /// resident permutations.
    resident_bytes: Arc<Gauge>,
    persist_dir: Option<PathBuf>,
}

impl OrderingCache {
    /// A cache of `capacity` entries reporting `engine.cache.*` into
    /// `registry` with `labels` on every series (tests pass a private
    /// registry so counter assertions are exact), persisting under
    /// `persist_dir` (created on first write) when given.
    pub fn new(
        registry: &Registry,
        capacity: usize,
        labels: &[(&str, &str)],
        persist_dir: Option<PathBuf>,
    ) -> Self {
        OrderingCache {
            lru: LruCache::new(
                capacity,
                CacheMetrics::new(registry, "engine.cache", labels),
            ),
            disk_hits: registry.counter_labeled("engine.cache.disk_hits", labels),
            resident_bytes: registry.gauge_labeled("engine.cache.resident_bytes", labels),
            persist_dir,
        }
    }

    /// Look up a key, counting a hit or a miss. With a disk tier, a key
    /// absent from memory is read from disk first: found there, it is
    /// a disk hit (not a miss) and repopulates memory.
    pub fn get(&self, key: &OrderingKey) -> Option<Arc<CachedOrdering>> {
        if self.persist_dir.is_some() && self.lru.peek(key).is_none() {
            if let Some(v) = self.load_from_disk(key) {
                self.disk_hits.inc();
                let v = Arc::new(v);
                self.admit(*key, Arc::clone(&v));
                return Some(v);
            }
        }
        self.lru.get(key)
    }

    /// Memory-only lookup that counts nothing and leaves recency alone
    /// — the policy layer's "is this already a sunk cost?" probe and
    /// the splice path's ancestor walk.
    pub fn peek(&self, key: &OrderingKey) -> Option<Arc<CachedOrdering>> {
        self.lru.peek(key)
    }

    /// [`OrderingCache::peek`], counted as a hit when it finds the key:
    /// the engine's re-probe under its in-flight lock, where the miss
    /// was already counted and disk I/O would stall every submitter.
    pub fn peek_counting_hit(&self, key: &OrderingKey) -> Option<Arc<CachedOrdering>> {
        let found = self.lru.peek(key)?;
        self.lru.metrics().hits.inc();
        Some(found)
    }

    /// Put `value` in memory, keeping the byte gauge exact.
    fn admit(&self, key: OrderingKey, value: Arc<CachedOrdering>) {
        let mut bytes = entry_bytes(&value);
        if let Some((_, displaced)) = self.lru.insert(key, value) {
            bytes -= entry_bytes(&displaced);
        }
        if bytes != 0 {
            self.resident_bytes.add(bytes);
        }
    }

    /// Insert a freshly computed ordering and persist it if configured.
    pub fn insert(&self, key: OrderingKey, value: Arc<CachedOrdering>) {
        self.admit(key, Arc::clone(&value));
        if let Err(e) = self.store_to_disk(&key, &value) {
            eprintln!("engine cache: failed to persist {}: {e}", key.file_stem());
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
            disk_hits: self.disk_hits.get(),
            resident: m.resident.get().max(0) as u64,
            resident_bytes: self.resident_bytes.get().max(0) as u64,
        }
    }

    fn disk_path(&self, key: &OrderingKey) -> Option<PathBuf> {
        self.persist_dir
            .as_ref()
            .map(|d| d.join(format!("{}.perm", key.file_stem())))
    }

    /// On-disk format, one value per line: a header
    /// `perm-cache-v1 <len> <symmetric 0|1>` followed by the
    /// `order[new] = old` indices.
    fn store_to_disk(&self, key: &OrderingKey, value: &CachedOrdering) -> std::io::Result<()> {
        let Some(path) = self.disk_path(key) else {
            return Ok(());
        };
        if path.exists() {
            return Ok(());
        }
        std::fs::create_dir_all(path.parent().expect("cache files live in a directory"))?;
        // Write to a temp file and rename so concurrent readers never
        // see a torn entry.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(
                f,
                "perm-cache-v1 {} {}",
                value.perm.len(),
                u8::from(value.symmetric)
            )?;
            for &old in value.perm.order() {
                writeln!(f, "{old}")?;
            }
            f.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn load_from_disk(&self, key: &OrderingKey) -> Option<CachedOrdering> {
        let path = self.disk_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        parse_perm_file(&text).or_else(|| {
            eprintln!("engine cache: ignoring malformed file {}", path.display());
            None
        })
    }
}

fn parse_perm_file(text: &str) -> Option<CachedOrdering> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let mut parts = header.split_whitespace();
    if parts.next()? != "perm-cache-v1" {
        return None;
    }
    let len: usize = parts.next()?.parse().ok()?;
    let symmetric = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let order: Vec<u32> = lines
        .map(|l| l.trim().parse().ok())
        .collect::<Option<_>>()?;
    if order.len() != len {
        return None;
    }
    let perm = Permutation::from_new_to_old(order).ok()?;
    Some(CachedOrdering {
        perm,
        symmetric,
        compute_seconds: 0.0,
        ranges: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache on a private registry so counter assertions are exact
    /// even with other tests running in parallel.
    fn test_cache(capacity: usize, persist_dir: Option<PathBuf>) -> OrderingCache {
        OrderingCache::new(&Registry::new(), capacity, &[], persist_dir)
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
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "engine-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = test_cache(4, Some(dir.clone()));
        let perm = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        writer.insert(
            OrderingKey::new(42, AlgoSpec::Gray),
            Arc::new(CachedOrdering {
                perm: perm.clone(),
                symmetric: false,
                compute_seconds: 1.5,
                ranges: None,
            }),
        );

        // A fresh cache (cold memory) finds the entry on disk.
        let reader = test_cache(4, Some(dir.clone()));
        let got = reader
            .get(&OrderingKey::new(42, AlgoSpec::Gray))
            .expect("disk hit");
        assert_eq!(got.perm.order(), perm.order());
        assert!(!got.symmetric);
        let s = reader.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.misses, 0);
        // Second read is a memory hit.
        assert!(reader.get(&OrderingKey::new(42, AlgoSpec::Gray)).is_some());
        assert_eq!(reader.stats().hits, 1);
        // Different algorithm on the same matrix is still a miss.
        assert!(reader.get(&OrderingKey::new(42, AlgoSpec::Rcm)).is_none());
        assert_eq!(reader.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_disk_entry_is_ignored() {
        assert!(parse_perm_file("not-a-header\n0\n").is_none());
        assert!(parse_perm_file("perm-cache-v1 3 1\n0\n1\n").is_none()); // short
        assert!(parse_perm_file("perm-cache-v1 2 1\n0\n0\n").is_none()); // not a permutation
        assert!(parse_perm_file("perm-cache-v1 2 1\n1\n0\n").is_some());
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
            disk_hits: 1,
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
        let cache = test_cache(5, None);
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
        let cache = test_cache(4, None);
        assert!(cache.peek_counting_hit(&key(1)).is_none());
        cache.insert(key(1), entry(3));
        assert!(cache.peek_counting_hit(&key(1)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }
}
