//! The allocation budget of a warm request, counted: a request whose
//! prepared entry exists allocates its `ResponseSlot` and nothing else
//! — whichever thread does it — and never reaches the engine (ROADMAP
//! item 1). Its `y` is a buffer an earlier answer handed back to the
//! shard's answer pool when it dropped.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running beside it would be counted too.

use alloccount::counted;
use engine::{AlgoSpec, EngineStats, MatrixHandle};
use servetier::{ServeTier, SpmvRequest, TenantSpec, TierConfig};
use spmv::KernelKind;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloccount::Counting = alloccount::Counting;

/// What a warm request must leave alone.
fn engine_counters(e: &EngineStats) -> [u64; 5] {
    [
        e.submitted,
        e.cache.hits,
        e.cache.misses,
        e.plans.hits,
        e.plans.misses,
    ]
}

#[test]
fn a_warm_request_allocates_only_its_slot_and_skips_the_engine() {
    // One-span plans, as `sysbench` configures the tier: the kernels
    // themselves allocate nothing (`crates/spmv/tests/no_alloc.rs`).
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        tenants: vec![TenantSpec::new("t0", 1)],
        spmv_threads: 1,
        registry: Some(telemetry::Registry::new_arc()),
        ..TierConfig::default()
    });
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(20, 20), 9));
    let x: Arc<Vec<f64>> = Arc::new((0..400).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect());
    let want = matrix.matrix().spmv_dense(&x);
    let request = |algo, kernel| SpmvRequest {
        tenant: "t0".into(),
        matrix: matrix.clone(),
        algo,
        kernel,
        x: Arc::clone(&x),
        priority: 0,
        deadline: None,
    };
    // A symmetric ordering (x is gathered) and a row-only one (it is
    // not), under every kernel.
    let keys: Vec<(AlgoSpec, KernelKind)> = [AlgoSpec::Rcm, AlgoSpec::Gray]
        .into_iter()
        .flat_map(|algo| KernelKind::all().map(|kernel| (algo, kernel)))
        .collect();

    // Warm-up: entries built, kernels planned, scratch and queue grown.
    for &(algo, kernel) in &keys {
        for _ in 0..3 {
            tier.serve(request(algo, kernel)).unwrap();
        }
    }

    const ROUNDS: u64 = 5;
    let before = tier.stats().shards[0];
    for _ in 0..ROUNDS {
        for &(algo, kernel) in &keys {
            // The request is the client's; the count starts at submit.
            let warm = request(algo, kernel);
            let mut response = None;
            let (allocs, _) = counted(|| response = Some(tier.submit(warm).wait().unwrap()));
            let response = response.unwrap();
            assert!(
                allocs <= 1,
                "{}/{kernel}: a warm request allocated {allocs} blocks",
                algo.name()
            );
            for (got, want) in response.y.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()));
            }
        }
    }
    let after = tier.stats().shards[0];
    let served = ROUNDS * keys.len() as u64;
    assert_eq!(after.prepared_hits - before.prepared_hits, served);
    assert_eq!(after.prepared_misses, before.prepared_misses);
    assert_eq!(
        engine_counters(&after.engine),
        engine_counters(&before.engine),
        "a warm request reached the engine"
    );
}
