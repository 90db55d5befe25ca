//! Cross-crate integration: corpus → reorder → SpMV → features →
//! machine model, verifying the whole pipeline agrees with itself.

use reorder_study::prelude::*;

/// A reordered SpMV must compute a permutation of the original result:
/// for symmetric orderings y' = P y when x' = P x; for row-only
/// orderings (Gray) y' = P y with x unchanged.
#[test]
fn reordered_spmv_is_equivalent_for_every_algorithm() {
    let a = corpus::scramble(&corpus::mesh2d(40, 40), 5);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 101) as f64) / 100.0).collect();
    let y_ref = a.spmv_dense(&x);

    let team = ThreadTeam::new(3);
    for alg in all_algorithms(8, 16) {
        let r = alg.compute(&a).expect("square");
        let b = r.apply(&a).expect("apply");
        let (x_in, expect): (Vec<f64>, Vec<f64>) = if r.symmetric {
            (r.perm.apply_to_slice(&x), r.perm.apply_to_slice(&y_ref))
        } else {
            (x.clone(), r.perm.apply_to_slice(&y_ref))
        };
        // Exercise both parallel kernels on the shared team.
        let mut y1 = vec![0.0; n];
        execute(&b, &Plan::rows(&b, 3), &team, &x_in, &mut y1);
        let mut y2 = vec![0.0; n];
        execute(&b, &Plan::nonzeros(&b, 3), &team, &x_in, &mut y2);
        for i in 0..n {
            assert!(
                (y1[i] - expect[i]).abs() < 1e-9,
                "{}: 1D row {i} differs",
                alg.name()
            );
            assert!(
                (y2[i] - expect[i]).abs() < 1e-9,
                "{}: 2D row {i} differs",
                alg.name()
            );
        }
    }
}

/// Symmetric orderings preserve structural symmetry; all orderings
/// preserve the nonzero count.
#[test]
fn orderings_preserve_structure() {
    let a = corpus::make_spd(&corpus::scramble(&corpus::mesh2d(30, 30), 9));
    assert!(sparsemat::is_structurally_symmetric(&a));
    for alg in all_algorithms(4, 8) {
        let r = alg.compute(&a).expect("square");
        let b = r.apply(&a).expect("apply");
        assert_eq!(b.nnz(), a.nnz(), "{}", alg.name());
        b.validate().unwrap();
        if r.symmetric {
            assert!(
                sparsemat::is_structurally_symmetric(&b),
                "{} must preserve symmetry",
                alg.name()
            );
        }
    }
}

/// The machine model must rank a well-clustered order above a random
/// order on every machine — the mechanism behind every speedup table.
#[test]
fn machine_model_rewards_locality_everywhere() {
    let good = corpus::mesh2d(70, 70);
    let bad = corpus::scramble(&good, 3);
    for m in machines() {
        let g1 = simulate_spmv_1d(&good, &m).gflops;
        let b1 = simulate_spmv_1d(&bad, &m).gflops;
        assert!(g1 > b1, "{}: 1D locality not rewarded", m.name);
        let g2 = simulate_spmv_2d(&good, &m).gflops;
        let b2 = simulate_spmv_2d(&bad, &m).gflops;
        assert!(g2 > b2, "{}: 2D locality not rewarded", m.name);
    }
}

/// Measured (real) SpMV on this host must also see the benefit of
/// reordering a scrambled mesh with RCM — the end-to-end story.
#[test]
fn real_measurement_pipeline_runs() {
    let a = std::sync::Arc::new(corpus::scramble(&corpus::mesh2d(50, 50), 1));
    let cfg = MeasureConfig {
        repetitions: 5,
        warmup: 1,
        nthreads: 2,
    };
    let before = measure_spmv(&a, KernelKind::OneD, &cfg);
    let r = Rcm.compute(&a).unwrap();
    let b = std::sync::Arc::new(r.apply(&a).unwrap());
    let after = measure_spmv(&b, KernelKind::OneD, &cfg);
    // No performance assertion (CI noise); both must simply produce
    // valid measurements on the same nonzero count.
    assert!(before.max_gflops > 0.0 && after.max_gflops > 0.0);
    assert_eq!(
        before.nnz_min + before.nnz_max,
        after.nnz_min + after.nnz_max
    );
}

/// Features respond to reordering in the documented directions.
#[test]
fn features_respond_to_reordering() {
    let a = corpus::scramble(&corpus::banded(1500, 3), 7);
    let before = matrix_features(&a, 8);
    let rcm = Rcm.compute(&a).unwrap().apply(&a).unwrap();
    let after = matrix_features(&rcm, 8);
    assert!(after.bandwidth < before.bandwidth / 4);
    assert!(after.profile < before.profile / 4);
    assert!(after.off_diagonal_nnz < before.off_diagonal_nnz);

    let gp = Gp::new(8).compute(&a).unwrap().apply(&a).unwrap();
    let after_gp = matrix_features(&gp, 8);
    assert!(after_gp.off_diagonal_nnz < before.off_diagonal_nnz / 2);
}
