//! Property-based tests for the reordering algorithms: every algorithm
//! must produce a valid permutation of the right kind on arbitrary
//! square matrices, and structural invariants must hold.

use proptest::prelude::*;
use reorder::{all_algorithms, Rcm, ReorderAlgorithm};
use sparsemat::{is_structurally_symmetric, CooMatrix, CsrMatrix};

/// Arbitrary square matrix with a nonzero diagonal (typical for the
/// study's matrices) plus random entries — not necessarily symmetric.
fn matrix_strategy() -> impl Strategy<Value = CsrMatrix> {
    (
        4usize..60,
        proptest::collection::vec((0usize..3600, 0usize..3600), 0..160),
    )
        .prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 2.0);
            }
            for (a, b) in entries {
                coo.push(a % n, b % n, 1.0);
            }
            CsrMatrix::from_coo(&coo)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_algorithm_yields_valid_permutation(a in matrix_strategy()) {
        for alg in all_algorithms(4, 8) {
            let r = alg.compute(&a).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            prop_assert_eq!(r.perm.len(), a.nrows(), "{}", alg.name());
            let b = r.apply(&a).expect("apply");
            prop_assert!(b.validate().is_ok(), "{}", alg.name());
            prop_assert_eq!(b.nnz(), a.nnz(), "{}", alg.name());
        }
    }

    #[test]
    fn algorithms_are_deterministic(a in matrix_strategy()) {
        for alg in all_algorithms(4, 8) {
            let p1 = alg.compute(&a).unwrap().perm;
            let p2 = alg.compute(&a).unwrap().perm;
            prop_assert_eq!(p1, p2, "{} not deterministic", alg.name());
        }
    }

    #[test]
    fn symmetric_algorithms_preserve_symmetry(a in matrix_strategy()) {
        let s = sparsemat::symmetrize_pattern(&a).unwrap();
        for alg in all_algorithms(4, 8) {
            let r = alg.compute(&s).unwrap();
            if r.symmetric {
                let b = r.apply(&s).unwrap();
                prop_assert!(
                    is_structurally_symmetric(&b),
                    "{} broke symmetry",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn rcm_never_worsens_bandwidth_much_on_connected_bands(
        n in 20usize..200, bw in 1usize..5, seed in 0u64..50
    ) {
        // A banded matrix scrambled and then RCM'd ends with bandwidth
        // comparable to the original band (BFS recovers chain structure).
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            for d in 1..=bw {
                if i + d < n {
                    coo.push_symmetric(i, i + d, -1.0);
                }
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let scrambled = {
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let p = sparsemat::Permutation::from_new_to_old(order).unwrap();
            a.permute_symmetric(&p).unwrap()
        };
        let r = Rcm.compute(&scrambled).unwrap();
        let b = r.apply(&scrambled).unwrap();
        let band_of = |m: &CsrMatrix| {
            m.iter().map(|(i, j, _)| i.abs_diff(j)).max().unwrap_or(0)
        };
        prop_assert!(
            band_of(&b) <= 4 * bw + 2,
            "RCM bandwidth {} on a half-bw {} band",
            band_of(&b),
            bw
        );
    }

    #[test]
    fn permute_in_spmv_unpermute_out_matches_original(a in matrix_strategy()) {
        // The serving-tier answer path: reorder the matrix, permute the
        // input in, run each production kernel, unpermute the output —
        // the caller must see A·x in the original index space, for
        // symmetric orderings and the row-only Gray alike.
        use spmv::KernelKind;
        let a = std::sync::Arc::new(a);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        let expected = a.spmv_dense(&x);
        let team = team::ThreadTeam::new_in(&telemetry::Registry::new_arc(), 2);
        for alg in all_algorithms(4, 8) {
            let r = alg.compute(&a).unwrap();
            let b = std::sync::Arc::new(r.apply(&a).unwrap());
            let xp = r.permute_input(&x);
            for kind in KernelKind::all() {
                let kernel = kind.plan(&b, 2);
                let mut yp = vec![0.0; b.nrows()];
                kernel.execute(&team, &xp, &mut yp);
                let y = r.unpermute_output(&yp);
                for (i, (got, want)) in y.iter().zip(&expected).enumerate() {
                    // Column permutation changes summation order, so
                    // compare with a small relative tolerance.
                    let tol = 1e-9 * (1.0 + want.abs());
                    prop_assert!(
                        (got - want).abs() <= tol,
                        "{} × {}: y[{i}] = {got}, want {want}",
                        alg.name(),
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn gray_moves_only_rows(a in matrix_strategy()) {
        let r = reorder::Gray.compute(&a).unwrap();
        prop_assert!(!r.symmetric);
        let b = r.apply(&a).unwrap();
        // Each new row is byte-identical to the old row it came from.
        for new_i in 0..a.nrows() {
            let old_i = r.perm.new_to_old(new_i);
            prop_assert_eq!(b.row(new_i), a.row(old_i));
        }
    }
}
