//! Property-based tests: the parallel kernels must agree with the
//! sequential reference for every matrix shape and thread count.

use proptest::prelude::*;
use sparsemat::{CooMatrix, CsrMatrix, Permutation};
use spmv::{host_threads, imbalance_factor, KernelKind, Plan1d, Plan2d, ThreadTeam};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn matrix_strategy() -> impl Strategy<Value = CsrMatrix> {
    (
        1usize..50,
        1usize..50,
        proptest::collection::vec((0usize..2500, 0usize..2500, -4.0f64..4.0), 0..220),
    )
        .prop_map(|(nr, nc, entries)| {
            let mut coo = CooMatrix::new(nr, nc);
            for (i, j, v) in entries {
                coo.push(i % nr, j % nc, v);
            }
            CsrMatrix::from_coo(&coo)
        })
}

/// Assert all three kernels match `spmv_dense` on `a` for each
/// `(plan threads, team size)` pair, running through the unified trait
/// into a NaN-filled `y` (so an unwritten row fails). Where the
/// kernels promise the sequential left-to-right row sum — the 1D
/// kernel always, every kernel on a one-span plan — the match must be
/// exact; a row split across spans may differ by rounding.
fn assert_kernels_match(a: &Arc<CsrMatrix>, sizes: &[(usize, usize)]) {
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| ((i * 31 % 17) as f64) - 8.0)
        .collect();
    let want = a.spmv_dense(&x);
    for &(t, team_size) in sizes {
        let team = ThreadTeam::new(team_size);
        for kind in KernelKind::all() {
            let kernel = kind.plan(a, t);
            let mut y = vec![f64::NAN; a.nrows()];
            kernel.execute(&team, &x, &mut y);
            if kind == KernelKind::OneD || kernel.num_threads() == 1 {
                assert_eq!(y, want, "{kind} plan={t} team={team_size}: not exact");
            }
            for i in 0..a.nrows() {
                assert!(
                    (y[i] - want[i]).abs() < 1e-9 * (1.0 + want[i].abs()),
                    "{} plan={} team={} row {}: {} vs {}",
                    kind,
                    t,
                    team_size,
                    i,
                    y[i],
                    want[i]
                );
            }
        }
    }
}

/// Matching plan and team sizes for each thread count.
fn matched(threads: &[usize]) -> Vec<(usize, usize)> {
    threads.iter().map(|&t| (t, t)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The satellite property: 1D, 2D, and merge kernels agree with
    /// the dense reference across thread counts 1, 3, the host's
    /// parallelism, and oversubscription (nrows + 1).
    #[test]
    fn kernels_match_reference(a in matrix_strategy()) {
        let threads = [1, 3, host_threads(), a.nrows() + 1];
        assert_kernels_match(&Arc::new(a), &matched(&threads));
    }

    #[test]
    fn plan2d_is_nnz_balanced(a in matrix_strategy(), t in 1usize..12) {
        let p = Plan2d::new(&a, t);
        let counts = p.nnz_per_thread();
        prop_assert_eq!(counts.iter().sum::<usize>(), a.nnz());
        // Max differs from min by at most 1 (equal split up to rounding).
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1, "2D split not balanced: {:?}", counts);
    }

    #[test]
    fn plan1d_partitions_rows_exactly(a in matrix_strategy(), t in 1usize..12) {
        let p = Plan1d::new(&a, t);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for &(s, e) in &p.row_ranges {
            prop_assert_eq!(s, prev_end);
            prop_assert!(e >= s);
            covered += e - s;
            prev_end = e;
        }
        prop_assert_eq!(covered, a.nrows());
        prop_assert_eq!(prev_end, a.nrows());
    }

    #[test]
    fn imbalance_at_least_one(counts in proptest::collection::vec(0usize..10_000, 1..64)) {
        let f = imbalance_factor(&counts);
        prop_assert!(f >= 1.0 - 1e-12);
        // Equal counts => exactly 1.
        if counts.iter().all(|&c| c == counts[0]) && counts[0] > 0 {
            prop_assert!((f - 1.0).abs() < 1e-12);
        }
    }
}

/// Degenerate shapes the strategy rarely produces, pinned explicitly:
/// empty matrix, single row, and rows with no nonzeros at all.
#[test]
fn kernels_match_reference_on_edge_matrices() {
    // Empty matrix.
    let empty = Arc::new(CsrMatrix::from_coo(&CooMatrix::new(7, 7)));
    // Single-row matrix.
    let mut coo = CooMatrix::new(1, 9);
    for j in 0..9 {
        coo.push(0, j, j as f64 - 4.0);
    }
    let single_row = Arc::new(CsrMatrix::from_coo(&coo));
    // Mostly-empty rows.
    let mut coo = CooMatrix::new(25, 25);
    coo.push(3, 4, 2.5);
    coo.push(17, 0, -1.0);
    coo.push(24, 24, 4.0);
    let sparse_rows = Arc::new(CsrMatrix::from_coo(&coo));

    for a in [&empty, &single_row, &sparse_rows] {
        let threads = [1, 3, host_threads(), a.nrows() + 1];
        assert_kernels_match(a, &matched(&threads));
    }
}

/// The shapes a store-each-row-once kernel can get wrong: empty rows
/// no span's nonzeros reach (before the first, between two spans' row
/// ranges, after the last nonzero), one row straddling three or more
/// spans, and more threads than nonzeros.
fn pinned_shapes() -> Vec<Arc<CsrMatrix>> {
    fn with_row_nnz(counts: &[usize]) -> Arc<CsrMatrix> {
        let ncols = counts.iter().copied().max().unwrap_or(0).max(1);
        let mut coo = CooMatrix::new(counts.len(), ncols);
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                coo.push(i, j, ((i * 7 + j * 3) % 11) as f64 * 0.37 - 1.9);
            }
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }
    [
        // Equal rows: 2, 3, 4 and 6 spans all end on row ends, with
        // empty rows between them, before the first and after the last.
        vec![0, 0, 4, 0, 0, 4, 0, 4, 0, 0, 4, 0, 4, 0, 0, 0, 4, 0, 0],
        // Uneven rows: spans begin and end mid-row next to empty rows.
        vec![0, 5, 0, 0, 3, 0, 7, 0, 0, 0, 2, 0],
        // One row straddling up to eight spans.
        vec![1, 0, 60, 0, 1],
        vec![0, 33, 0],
        // More threads than nonzeros.
        vec![1, 0, 1],
        vec![0, 0, 1, 0],
    ]
    .iter()
    .map(|counts| with_row_nnz(counts))
    .collect()
}

/// Every row is defined on the pinned shapes, at every plan size 1..=8
/// on a matching and on a mismatched team.
#[test]
fn kernels_define_every_row_on_pinned_shapes() {
    let sizes: Vec<(usize, usize)> = (1..=8)
        .flat_map(|t| [(t, t), (t, if t == 3 { 2 } else { 3 })])
        .collect();
    for a in pinned_shapes() {
        assert_kernels_match(&a, &sizes);
    }
}

/// `execute_scatter` is `execute` then `apply_inverse_to_slice`, bit
/// for bit: every kernel × plan size 1..=8 × team size {plan, 1, 3, 8}
/// × the identity, the reversal and seeded random permutations, on the
/// pinned shapes, into a NaN-filled `y` (so an unwritten or doubly
/// mapped row fails).
#[test]
fn execute_scatter_is_execute_then_the_inverse_permutation() {
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut shuffled = |n: usize| {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Permutation::from_new_to_old(order).unwrap()
    };
    for a in pinned_shapes() {
        let n = a.nrows();
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 31 % 17) as f64) - 8.0)
            .collect();
        let identity = Permutation::identity(n);
        let perms = [
            identity.reversed(),
            identity,
            shuffled(n),
            shuffled(n),
            shuffled(n),
        ];
        for plan in 1..=8 {
            for team_size in [plan, 1, 3, 8] {
                let team = ThreadTeam::new(team_size);
                for kind in KernelKind::all() {
                    let kernel = kind.plan(&a, plan);
                    let mut direct = vec![f64::NAN; n];
                    kernel.execute(&team, &x, &mut direct);
                    for rows in &perms {
                        let mut scattered = vec![f64::NAN; n];
                        kernel.execute_scatter(&team, &x, &mut scattered, rows);
                        assert_eq!(
                            bits(&scattered),
                            bits(&rows.apply_inverse_to_slice(&direct)),
                            "{kind} plan={plan} team={team_size} rows={:?}",
                            rows.order()
                        );
                    }
                }
            }
        }
    }
}

/// A row map of the wrong length is refused before anything is stored.
#[test]
fn execute_scatter_rejects_a_mismatched_permutation_before_any_store() {
    let a = &pinned_shapes()[0];
    let x = vec![1.0; a.ncols()];
    let team = ThreadTeam::new(2);
    for kind in KernelKind::all() {
        let kernel = kind.plan(a, 3);
        for len in [a.nrows() - 1, a.nrows() + 1] {
            let rows = Permutation::identity(len);
            let mut y = vec![f64::NAN; a.nrows()];
            let refused = catch_unwind(AssertUnwindSafe(|| {
                kernel.execute_scatter(&team, &x, &mut y, &rows);
            }));
            assert!(refused.is_err(), "{kind}: a {len}-row map was accepted");
            assert!(
                y.iter().all(|v| v.is_nan()),
                "{kind}: stored before refusing"
            );
        }
    }
}
