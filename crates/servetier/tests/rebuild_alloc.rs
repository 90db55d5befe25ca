//! What the two cheap prepared misses may allocate, in bytes: a
//! *rebuild* (the entry was evicted, the engine still holds the
//! ordering) allocates the permuted matrix and small change — no clone
//! of the permutation, no staging buffer — and a first touch under
//! [`AlgoSpec::Original`] shares the request's matrix, so it allocates
//! no copy of it at all (ROADMAP item 2).
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use alloccount::counted;
use engine::{AlgoSpec, MatrixHandle};
use servetier::{ServeTier, SpmvRequest, TenantSpec, TierConfig};
use spmv::KernelKind;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloccount::Counting = alloccount::Counting;

#[test]
fn a_rebuild_allocates_the_permuted_matrix_and_an_original_touch_no_copy() {
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        tenants: vec![TenantSpec::new("t0", 1)],
        spmv_threads: 1,
        prepared_capacity: 1,
        registry: Some(telemetry::Registry::new_arc()),
        ..TierConfig::default()
    });
    // 256 rows: the response's `y` (2 KiB) is inside the slack below.
    let matrices = [3, 4]
        .map(|seed| MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(16, 16), seed)));
    let csr_bytes = matrices[0].matrix().csr_bytes();
    let x: Arc<Vec<f64>> = Arc::new((0..256).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect());
    // Bytes allocated, by any thread, from submit to answer.
    let serve_counting = |matrix: &MatrixHandle, algo| {
        // The request is the client's; the count starts at submit.
        let request = SpmvRequest {
            tenant: "t0".into(),
            matrix: matrix.clone(),
            algo,
            kernel: KernelKind::OneD,
            x: Arc::clone(&x),
            priority: 0,
            deadline: None,
        };
        let mut response = None;
        let (_, bytes) = counted(|| response = Some(tier.submit(request).wait().unwrap()));
        let response = response.unwrap();
        let want = matrix.matrix().spmv_dense(&x);
        for (got, want) in response.y.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()));
        }
        bytes
    };

    for algo in [AlgoSpec::Rcm, AlgoSpec::Gray] {
        // First touches, then the pair evicting each other: rebuilds.
        for matrix in &matrices {
            serve_counting(matrix, algo);
        }
        for round in 0..3 {
            for matrix in &matrices {
                let bytes = serve_counting(matrix, algo);
                assert!(
                    bytes <= csr_bytes + 4096,
                    "{} round {round}: a rebuild allocated {bytes} B for a {csr_bytes} B matrix",
                    algo.name()
                );
            }
        }
    }
    let shard = tier.stats().shards[0];
    assert_eq!((shard.prepared_misses, shard.prepared_hits), (16, 0));
    assert_eq!(shard.engine.jobs_executed, 4);

    // "Don't reorder" computes an identity ordering and copies nothing.
    // (A third matrix goes first, uncounted: the first identity job of
    // a process registers the `reorder.original` series.)
    let warm_up = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(16, 16), 5));
    serve_counting(&warm_up, AlgoSpec::Original);
    for matrix in &matrices {
        let bytes = serve_counting(matrix, AlgoSpec::Original);
        assert!(
            bytes < csr_bytes / 2,
            "an Original first touch allocated {bytes} B for a {csr_bytes} B matrix"
        );
    }
    assert_eq!(tier.stats().shards[0].engine.jobs_executed, 7);
}
