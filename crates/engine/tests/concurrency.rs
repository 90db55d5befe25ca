//! Concurrency tests: simultaneous requests for one key, and batches
//! over many keys.

use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use std::sync::Arc;

/// N threads racing to request the same (matrix, algorithm) key all
/// get the same ordering. Nothing joins simultaneous misses, so each
/// request either hit the cache or computed: the two counts add up to
/// the submissions.
#[test]
fn concurrent_requests_for_one_key_get_equal_orders() {
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_capacity: 16,
        registry: Some(telemetry::Registry::new_arc()),
        ..EngineConfig::default()
    }));
    let handle = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(40, 40), 5));
    let spec = AlgoSpec::Hp { parts: 16 };

    const THREADS: usize = 8;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let handle = handle.clone();
                scope.spawn(move || engine.get(&handle, spec).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &results[1..] {
        assert_eq!(results[0].perm.order(), r.perm.order());
        assert_eq!(results[0].symmetric, r.symmetric);
    }

    let stats = engine.stats();
    assert_eq!(stats.submitted, THREADS as u64);
    assert!(stats.jobs_executed >= 1, "stats: {stats}");
    assert_eq!(
        stats.jobs_executed + stats.cache.hits,
        stats.submitted,
        "stats: {stats}"
    );
    assert_eq!(stats.cache.resident, 1, "stats: {stats}");
}

/// A parallel batch over many distinct keys completes fully and
/// deduplicates within the batch.
#[test]
fn parallel_batch_over_distinct_keys() {
    let engine = Engine::new(EngineConfig {
        workers: 4,
        cache_capacity: 256,
        registry: Some(telemetry::Registry::new_arc()),
        ..EngineConfig::default()
    });
    let matrices: Vec<MatrixHandle> = (0..6)
        .map(|s| MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(12, 12), s)))
        .collect();
    let suite = AlgoSpec::study_suite(4, 8);

    // Two passes over (matrix x algorithm): 72 requests, 36 unique.
    let tickets: Vec<_> = (0..2)
        .flat_map(|_| matrices.iter())
        .flat_map(|m| suite.iter().map(|&a| engine.submit(m, a)))
        .collect();
    assert_eq!(tickets.len(), 72);
    for t in tickets {
        t.wait().unwrap();
    }

    let stats = engine.stats();
    assert_eq!(stats.jobs_executed, 36, "stats: {stats}");
    assert_eq!(
        stats.cache.hits, 36,
        "every duplicate must be amortised; stats: {stats}"
    );
    assert!(stats.amortised_fraction() >= 0.5 - 1e-9);
}

/// Eviction under a tiny cache still serves correct results — entries
/// are recomputed when they come back.
#[test]
fn tiny_cache_recomputes_after_eviction() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_capacity: 2,
        registry: Some(telemetry::Registry::new_arc()),
        ..EngineConfig::default()
    });
    let handle = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(10, 10), 1));
    let suite = AlgoSpec::study_suite(2, 4);

    let first: Vec<_> = suite
        .iter()
        .map(|&a| engine.get(&handle, a).unwrap())
        .collect();
    // The suite (6 keys) overflows the 2-entry cache, so re-requesting
    // from the start recomputes, with identical results (determinism).
    let second: Vec<_> = suite
        .iter()
        .map(|&a| engine.get(&handle, a).unwrap())
        .collect();
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.perm.order(), b.perm.order());
        assert_eq!(a.symmetric, b.symmetric);
    }
    let stats = engine.stats();
    assert!(stats.cache.evictions > 0, "stats: {stats}");
    assert!(stats.jobs_executed > 6, "stats: {stats}");
}
