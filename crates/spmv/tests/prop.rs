//! Property-based tests: the parallel kernels must agree with the
//! sequential reference for every matrix shape and thread count.

use proptest::prelude::*;
use sparsemat::{CooMatrix, CsrMatrix, Permutation};
use spmv::{host_threads, imbalance_factor, KernelKind, Plan, ThreadTeam};
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
        let p = Plan::nonzeros(&a, t);
        let counts = p.nnz_per_span();
        prop_assert_eq!(counts.iter().sum::<usize>(), a.nnz());
        // Max differs from min by at most 1 (equal split up to rounding).
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1, "2D split not balanced: {:?}", counts);
    }

    #[test]
    fn plan1d_partitions_rows_exactly(a in matrix_strategy(), t in 1usize..12) {
        let p = Plan::rows(&a, t);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for span in p.spans() {
            let (s, e) = (span.rows.start, span.rows.end);
            prop_assert_eq!(s, prev_end);
            prop_assert!(e >= s);
            covered += e - s;
            prev_end = e;
        }
        prop_assert_eq!(covered, a.nrows());
        prop_assert_eq!(prev_end, a.nrows());
    }

    #[test]
    fn plans_chain_and_cover(a in matrix_strategy(), t in 1usize..12) {
        assert_plans_chain_and_cover(&a, t);
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

/// The chain invariant the executor's stores rest on, for all three
/// cuts of `a` into `t` spans: the spans run from `(0, 0)` to
/// `(nrows, nnz)` without gap or overlap in either coordinate, so every
/// row end lies in exactly one of them; `carrying` counts the spans
/// that stop mid-row; and each cut clamps `t` to its own parallelism.
fn assert_plans_chain_and_cover(a: &CsrMatrix, t: usize) {
    let (nrows, nnz) = (a.nrows(), a.nnz());
    let chunk = nrows.div_ceil(t);
    let cuts = [
        ("rows", Plan::rows(a, t), nrows.div_ceil(chunk)),
        ("nonzeros", Plan::nonzeros(a, t), t.min(nnz).max(1)),
        ("merge_path", Plan::merge_path(a, t), t.min(nrows + nnz)),
    ];
    for (cut, plan, want_spans) in cuts {
        let spans = plan.spans();
        assert_eq!(spans.len(), want_spans, "{cut} t={t}: span count");
        assert_eq!((spans[0].rows.start, spans[0].nnz.start), (0, 0), "{cut}");
        let last = &spans[spans.len() - 1];
        assert_eq!((last.rows.end, last.nnz.end), (nrows, nnz), "{cut} t={t}");
        for w in spans.windows(2) {
            assert_eq!(w[0].rows.end, w[1].rows.start, "{cut} t={t}: rows chain");
            assert_eq!(w[0].nnz.end, w[1].nnz.start, "{cut} t={t}: nnz chain");
        }
        let mut owners = vec![0usize; nrows];
        for r in spans.iter().flat_map(|s| s.rows.clone()) {
            owners[r] += 1;
        }
        assert!(owners.iter().all(|&n| n == 1), "{cut} t={t}: {owners:?}");
        assert_eq!(plan.nnz_per_span().iter().sum::<usize>(), nnz, "{cut}");
        let stop_mid_row = spans
            .iter()
            .filter(|s| s.nnz.end > a.rowptr()[s.rows.end])
            .count();
        assert_eq!(plan.carrying(), stop_mid_row, "{cut} t={t}");
    }
    assert_eq!(Plan::rows(a, t).carrying(), 0);
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

/// [`assert_plans_chain_and_cover`] on the pinned shapes, t > rows and
/// t > nnz included.
#[test]
fn plans_chain_and_cover_on_pinned_shapes() {
    for a in pinned_shapes() {
        for t in 1..12 {
            assert_plans_chain_and_cover(&a, t);
        }
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

/// A plan cut for one matrix is refused on a matrix of another shape,
/// before anything is stored.
#[test]
fn a_plan_cut_for_another_matrix_is_rejected_before_any_store() {
    let shapes = pinned_shapes();
    let (a, other) = (&shapes[0], &shapes[1]);
    assert_ne!((a.nrows(), a.nnz()), (other.nrows(), other.nnz()));
    let x = vec![1.0; a.ncols()];
    let team = ThreadTeam::new(2);
    for kind in KernelKind::all() {
        let plan = kind.cut(other, 3);
        let mut y = vec![f64::NAN; a.nrows()];
        let refused = catch_unwind(AssertUnwindSafe(|| {
            spmv::execute(a, &plan, &team, &x, &mut y);
        }));
        assert!(refused.is_err(), "{kind}: a foreign plan was accepted");
        assert!(
            y.iter().all(|v| v.is_nan()),
            "{kind}: stored before refusing"
        );
    }
}
