//! Property tests for the engine: a cache hit must be indistinguishable
//! from a fresh computation, for every algorithm in the study.

use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use proptest::prelude::*;
use sparsemat::{CooMatrix, CsrMatrix};

/// Strategy: a random connected-ish square matrix (ring + random
/// chords) so every reordering algorithm has a sensible input.
fn matrix_strategy() -> impl Strategy<Value = CsrMatrix> {
    (
        4usize..28,
        proptest::collection::vec((0usize..784, 0usize..784), 0..60),
    )
        .prop_map(|(n, chords)| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 4.0);
                coo.push_symmetric(i, (i + 1) % n, -1.0);
            }
            for (a, b) in chords {
                let (i, j) = (a % n, b % n);
                if i != j {
                    coo.push_symmetric(i, j, -0.5);
                }
            }
            CsrMatrix::from_coo(&coo)
        })
}

fn test_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        cache_capacity: 256,
        registry: Some(telemetry::Registry::new_arc()),
        ..EngineConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The serving contract: for every algorithm, the cached answer is
    /// bit-identical to what a fresh, engine-free computation returns.
    #[test]
    fn cache_hit_equals_fresh_computation(a in matrix_strategy()) {
        let engine = test_engine();
        let handle = MatrixHandle::from_matrix(a.clone());
        let mut specs = vec![AlgoSpec::Original];
        specs.extend(AlgoSpec::study_suite(4, 8));
        for spec in specs {
            let first = engine.get(&handle, spec).unwrap();
            let cached = engine.get(&handle, spec).unwrap();
            // Second call is a hit (same Arc, not just equal contents).
            prop_assert!(
                std::sync::Arc::ptr_eq(&first, &cached),
                "{} second call did not hit the cache",
                spec.name()
            );
            let fresh = spec.instantiate().compute(&a).unwrap();
            prop_assert_eq!(
                cached.perm.order(),
                fresh.perm.order(),
                "{} cached permutation differs from fresh computation",
                spec.name()
            );
            prop_assert_eq!(cached.symmetric, fresh.symmetric);
        }
        // Seven algorithms, each computed exactly once.
        let stats = engine.stats();
        prop_assert_eq!(stats.jobs_executed, 7);
        prop_assert_eq!(stats.cache.hits, 7);
    }

    /// The content address ignores construction history: a matrix
    /// rebuilt from shuffled triplets is the same cache entry.
    #[test]
    fn content_address_ignores_triplet_order(a in matrix_strategy()) {
        let mut triplets: Vec<(usize, usize, f64)> = a.iter().collect();
        triplets.reverse();
        let mut coo = CooMatrix::new(a.nrows(), a.ncols());
        for (i, j, v) in triplets {
            coo.push(i, j, v);
        }
        let b = CsrMatrix::from_coo(&coo);
        prop_assert_eq!(a.content_hash(), b.content_hash());

        // And the engine treats them as one key.
        let engine = test_engine();
        let ha = MatrixHandle::from_matrix(a);
        let hb = MatrixHandle::from_matrix(b);
        let ra = engine.get(&ha, AlgoSpec::Rcm).unwrap();
        let rb = engine.get(&hb, AlgoSpec::Rcm).unwrap();
        prop_assert!(std::sync::Arc::ptr_eq(&ra, &rb));
        prop_assert_eq!(engine.stats().jobs_executed, 1);
    }
}
