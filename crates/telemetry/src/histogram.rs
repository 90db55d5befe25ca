//! Log-linear bucketed histograms with exact count/sum/min/max and
//! bucket-accurate quantiles.
//!
//! Values are unsigned integers in whatever unit the metric declares
//! (this workspace's convention: **nanoseconds** for every duration
//! histogram, see the README's metric naming scheme). Buckets follow
//! the HdrHistogram layout: each power of two is split into
//! `2^SUB_BITS = 16` linear sub-buckets, so the relative quantisation
//! error is at most 1/16 ≈ 6.25% — "within one bucket" — while the
//! whole `u64` range fits in under a thousand buckets (8 KiB).
//!
//! Every bucket is an `AtomicU64`, so a single histogram can be
//! recorded into from many threads without locks, and two histograms
//! can be **merged** ([`Histogram::merge_from`]): shard per thread or
//! per measurement, then fold the shards into the registry's histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: 16 linear buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Index of the last bucket (value `u64::MAX` lands here).
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB;

/// Bucket index for a value (log-linear, monotone in `value`).
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS
    let block = (msb - SUB_BITS + 1) as usize;
    (block << SUB_BITS) + ((value >> (msb - SUB_BITS)) as usize & (SUB - 1))
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let block = (index >> SUB_BITS) as u32;
    let sub = (index & (SUB - 1)) as u64;
    let msb = block + SUB_BITS - 1;
    (1u64 << msb) + (sub << (msb - SUB_BITS))
}

/// Width of a bucket (distance to the next bucket's lower bound).
fn bucket_width(index: usize) -> u64 {
    if index < SUB {
        return 1;
    }
    let block = (index >> SUB_BITS) as u32;
    1u64 << (block - 1)
}

/// A concurrent log-linear histogram.
///
/// `count`, `sum`, `min` and `max` are tracked exactly, so the mean and
/// extrema carry no quantisation error; quantiles are accurate to one
/// bucket (≤ 6.25% relative).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Last exemplar: an observed value and the trace ID of the request
    /// that produced it (0 = none yet). Two independent relaxed atomics
    /// — a racing pair of exemplar writers can interleave value and
    /// trace, which is acceptable for a debugging breadcrumb and keeps
    /// the hot path lock-free.
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in this workspace's duration unit
    /// (nanoseconds), clamped to at least 1 so a sub-nanosecond timing
    /// still counts.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.record(nanos.max(1));
    }

    /// Record a value and remember it as this series' **exemplar**:
    /// a concrete observation tied to the flight-recorder trace that
    /// produced it, exported in the JSON snapshot so "p99 is high" can
    /// be answered with "look at trace N". Last writer wins.
    #[inline]
    pub fn record_exemplar(&self, value: u64, trace_id: u64) {
        self.record(value);
        if trace_id != 0 {
            self.exemplar_value.store(value, Ordering::Relaxed);
            self.exemplar_trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// [`Histogram::record_duration`] with an exemplar trace ID (see
    /// [`Histogram::record_exemplar`]).
    #[inline]
    pub fn record_duration_exemplar(&self, d: Duration, trace_id: u64) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.record_exemplar(nanos.max(1), trace_id);
    }

    /// The last recorded exemplar, as `(value, trace_id)`; `None`
    /// until any exemplar is recorded.
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        let trace = self.exemplar_trace.load(Ordering::Relaxed);
        (trace != 0).then(|| (self.exemplar_value.load(Ordering::Relaxed), trace))
    }

    /// Number of recorded values **below the bucket containing
    /// `threshold`** — the bucket-accurate count of observations under
    /// a latency objective. Values sharing `threshold`'s bucket are
    /// excluded (a conservative undercount bounded by one bucket,
    /// ≤ 6.25% relative — the same quantisation as the quantiles), so
    /// an SLO's "good" count never claims observations that may have
    /// breached the threshold.
    pub fn count_below(&self, threshold: u64) -> u64 {
        self.buckets[..bucket_index(threshold)]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), accurate to one bucket: the
    /// midpoint of the bucket holding the rank-`ceil(q·count)` value,
    /// clamped to the exact observed `[min, max]`. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let mid = bucket_lower(i).saturating_add(bucket_width(i) / 2);
                return mid.clamp(self.min(), self.max());
            }
        }
        // Racy concurrent recording can leave `count` ahead of the
        // bucket sums for a moment; report the largest observed value.
        self.max()
    }

    /// Merge all of `other`'s recordings into `self` (shard fold).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The 99.9th percentile (see [`Histogram::quantile`]).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// A consistent point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            exemplar: self.exemplar(),
        }
    }
}

/// Point-in-time histogram summary used by the exporters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Exact mean (0.0 when empty).
    pub mean: f64,
    /// Median, accurate to one bucket.
    pub p50: u64,
    /// 90th percentile, accurate to one bucket.
    pub p90: u64,
    /// 99th percentile, accurate to one bucket.
    pub p99: u64,
    /// 99.9th percentile, accurate to one bucket.
    pub p999: u64,
    /// Last `(value, trace_id)` exemplar, if any was recorded.
    pub exemplar: Option<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_layout_is_monotone_and_exhaustive() {
        // Lower bounds must be strictly increasing and index() must be
        // the inverse of lower() on bucket boundaries.
        for i in 1..NUM_BUCKETS {
            assert!(bucket_lower(i) > bucket_lower(i - 1), "bucket {i}");
            assert_eq!(bucket_index(bucket_lower(i)), i, "bucket {i}");
            assert_eq!(
                bucket_lower(i - 1) + bucket_width(i - 1),
                bucket_lower(i),
                "bucket {i} width"
            );
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_statistics() {
        let h = Histogram::new();
        for v in [5u64, 10, 15, 1000, 2] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1032);
        assert_eq!(h.min(), 2);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 206.4).abs() < 1e-9);
    }

    #[test]
    fn count_and_sum_are_exact() {
        // What the SLO tracker reads: count/sum carry no bucket
        // quantisation, and durations land as nanoseconds.
        let h = Histogram::new();
        assert_eq!((h.count(), h.sum()), (0, 0));
        h.record_duration(Duration::from_millis(2));
        h.record_duration(Duration::from_millis(6));
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 8_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p99, s.p999),
            (0, 0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn p999_tracks_the_tail() {
        let h = Histogram::new();
        // 99 fast events and one 100x outlier: p99 must stay near the
        // bulk (rank 99 of 100) while p999 (rank 100) reaches the tail.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(100_000);
        assert!(h.quantile(0.99) < 2_000, "p99 {}", h.quantile(0.99));
        assert!(h.p999() >= 90_000, "p999 {}", h.p999());
        assert_eq!(h.snapshot().p999, h.p999());
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let merged = Histogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.min(), 1);
        assert_eq!(merged.max(), 99_000);
        // Merging an empty histogram changes nothing, including min.
        merged.merge_from(&Histogram::new());
        assert_eq!(merged.min(), 1);
        assert_eq!(merged.count(), a.count() + b.count());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i + 1);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(h.sum(), n * (n + 1) / 2);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), n);
    }

    #[test]
    fn count_below_is_bucket_accurate_and_conservative() {
        let h = Histogram::new();
        for v in [1u64, 5, 10, 100, 1_000, 1_000_000] {
            h.record(v);
        }
        // Small values land in exact (width-1) buckets: precise counts.
        assert_eq!(h.count_below(1), 0);
        assert_eq!(h.count_below(2), 1);
        assert_eq!(h.count_below(10), 2);
        assert_eq!(h.count_below(11), 3);
        // Everything below a huge threshold counts.
        assert_eq!(h.count_below(u64::MAX), 6);
        // Conservative: a value sharing the threshold's bucket is
        // excluded, never over-counted as "good".
        let same_bucket = 1_000_000 + 1;
        assert_eq!(bucket_index(same_bucket), bucket_index(1_000_000));
        assert_eq!(h.count_below(same_bucket), 5);
    }

    #[test]
    fn exemplar_tracks_last_traced_observation() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.record(10); // untraced recording leaves no exemplar
        assert_eq!(h.exemplar(), None);
        h.record_exemplar(500, 7);
        h.record_duration_exemplar(Duration::from_nanos(900), 9);
        assert_eq!(h.exemplar(), Some((900, 9)));
        assert_eq!(h.count(), 3, "exemplar recordings still count");
        assert_eq!(h.snapshot().exemplar, Some((900, 9)));
        // trace_id 0 means "not traced": value recorded, exemplar kept.
        h.record_exemplar(123, 0);
        assert_eq!(h.exemplar(), Some((900, 9)));
    }

    /// Exact quantile of a sorted sample at the same rank the histogram
    /// uses.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite requirement: histogram quantiles land within one
        /// bucket of the exact quantiles on arbitrary distributions.
        #[test]
        fn quantiles_within_one_bucket_of_exact(
            values in proptest::collection::vec(1u64..1_000_000_000, 1..400)
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q);
                let (be, bq) = (bucket_index(exact), bucket_index(est));
                prop_assert!(
                    be.abs_diff(bq) <= 1,
                    "q={q}: exact {exact} (bucket {be}) vs estimate {est} (bucket {bq})"
                );
            }
        }

        /// Satellite requirement: folding per-rep shards into one
        /// histogram observation-by-observation is indistinguishable
        /// from recording the concatenated stream into a single
        /// histogram — exact count and sum, and identical bucket
        /// occupancy (hence identical quantiles at every q).
        #[test]
        fn shard_merge_equals_concatenated_stream(
            shards in proptest::collection::vec(
                proptest::collection::vec(1u64..1_000_000_000, 0..60),
                1..8,
            )
        ) {
            let merged = Histogram::new();
            let single = Histogram::new();
            for shard_values in &shards {
                // One shard per measurement rep, folded immediately —
                // the measurement loop's aggregation pattern.
                let shard = Histogram::new();
                for &v in shard_values {
                    shard.record(v);
                    single.record(v);
                }
                merged.merge_from(&shard);
            }
            prop_assert_eq!(merged.count(), single.count());
            prop_assert_eq!(merged.sum(), single.sum());
            prop_assert_eq!(merged.min(), single.min());
            prop_assert_eq!(merged.max(), single.max());
            for (i, (m, s)) in merged.buckets.iter().zip(single.buckets.iter()).enumerate() {
                prop_assert_eq!(
                    m.load(Ordering::Relaxed),
                    s.load(Ordering::Relaxed),
                    "bucket {} diverged", i
                );
            }
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                prop_assert_eq!(merged.quantile(q), single.quantile(q), "q={}", q);
            }
            let threshold = 1_000u64;
            prop_assert_eq!(merged.count_below(threshold), single.count_below(threshold));
        }
    }
}
