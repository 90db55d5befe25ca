//! The work split: a [`Plan`] is a chain of [`Span`]s cut across the
//! merge grid of a CSR matrix, and the three kernels of the study
//! (§3.1) are three ways of choosing the cuts.
//!
//! The merge grid (Merrill & Garland \[20\]) has the row *ends* on one
//! axis and the nonzeros on the other; executing the matrix walks the
//! path from `(0, 0)` to `(nrows, nnz)` that takes row `r`'s nonzeros
//! and then its end. A point `(row, nz)` lies on that path when
//! `rowptr[row] <= nz <= rowptr[row + 1]`: `row` rows have ended and
//! `nz` nonzeros are consumed. Cutting the path at such points gives
//! every span a run of row ends (`rows`) and a run of nonzeros (`nnz`).

use sparsemat::CsrMatrix;
use std::ops::Range;

/// One piece of the merge path, executed by one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The rows whose *end* the span contains: it alone stores their
    /// `y[r]`.
    pub rows: Range<usize>,
    /// The nonzeros the span consumes. They begin inside row
    /// `rows.start` (mid-row when an earlier span carries into it) and
    /// run past `rowptr[rows.end]` when the span leaves row `rows.end`
    /// unfinished.
    pub nnz: Range<usize>,
}

/// A work split of one matrix: spans chained along its merge path.
///
/// The fields are private because the executor's unsynchronised stores
/// rest on them (the *chain invariant*, established by
/// `Plan::chain` for every constructor): the first span starts at
/// `(0, 0)`, each span starts where its predecessor ends in both
/// coordinates, and the last ends at `(nrows, nnz)`. Every row end
/// therefore lies in exactly one span.
#[derive(Debug, Clone)]
pub struct Plan {
    spans: Vec<Span>,
    /// The shape the plan was cut for; the executor refuses any other.
    nrows: usize,
    nnz: usize,
    /// How many spans leave a partial row behind (`nnz.end` past
    /// `rowptr[rows.end]`); zero means the executor needs no carries.
    carrying: usize,
}

impl Plan {
    /// The 1D row split: equal contiguous row blocks, OpenMP's
    /// `schedule(static)` on the row loop (§3.1). Every cut falls on a
    /// row end, so no span carries; the nonzeros per span — and hence
    /// the imbalance factor (§3.2) — depend entirely on the ordering.
    ///
    /// The block size is `ceil(nrows / nthreads)` and only non-empty
    /// blocks become spans, so asking for more threads than rows gives
    /// one row per span rather than idle phantoms that would dilute
    /// [`imbalance_factor`]. A matrix without rows gets one empty span,
    /// which keeps downstream statistics defined.
    pub fn rows(a: &CsrMatrix, nthreads: usize) -> Plan {
        let n = a.nrows();
        let chunk = n.div_ceil(nthreads.max(1)).max(1);
        let blocks = n.div_ceil(chunk).max(1);
        Plan::chain(
            a,
            (1..=blocks).map(|i| {
                let row = (i * chunk).min(n);
                (row, a.rowptr()[row])
            }),
        )
    }

    /// The 2D nonzero split: equal contiguous nonzero blocks, cut `i`
    /// at nonzero `nnz·i / t` (§3.1). A cut's row coordinate is the
    /// number of rows ending at or before it, so a block that stops
    /// mid-row carries that row's partial sum to the span holding its
    /// end.
    ///
    /// At most one span per nonzero; a matrix without nonzeros gets
    /// one span owning every row.
    pub fn nonzeros(a: &CsrMatrix, nthreads: usize) -> Plan {
        let k = a.nnz();
        let t = nthreads.max(1).min(k.max(1));
        let row_ends = &a.rowptr()[1..];
        Plan::chain(
            a,
            (1..=t).map(|i| {
                let cut = k * i / t;
                (row_ends.partition_point(|&end| end <= cut), cut)
            }),
        )
    }

    /// The merge-path split (Merrill & Garland): equal runs of merge
    /// items, *row ends + nonzeros*, cut `i` on diagonal
    /// `(nrows + nnz)·i / t`. This bounds a span's work even on
    /// matrices that are mostly empty rows, where equal nonzero blocks
    /// can still be skewed in row-pointer traffic.
    ///
    /// At most one span per merge item.
    pub fn merge_path(a: &CsrMatrix, nthreads: usize) -> Plan {
        let total = a.nrows() + a.nnz();
        let t = nthreads.max(1).min(total.max(1));
        Plan::chain(
            a,
            (1..=t).map(|i| merge_path_search(a.rowptr(), a.nrows(), total * i / t)),
        )
    }

    /// Chain spans from `(0, 0)` through `cuts`, each a `(row, nz)`
    /// point on `a`'s merge path, the last one its corner. Panics on
    /// anything else: this is where the invariant is established.
    fn chain(a: &CsrMatrix, cuts: impl Iterator<Item = (usize, usize)>) -> Plan {
        let rowptr = a.rowptr();
        let (nrows, nnz) = (a.nrows(), a.nnz());
        let mut spans = Vec::with_capacity(cuts.size_hint().0);
        let mut carrying = 0;
        let mut at = (0, 0);
        for (row, nz) in cuts {
            assert!(at.0 <= row && row <= nrows, "row cuts must ascend");
            assert!(
                at.1 <= nz && rowptr[row] <= nz && rowptr[(row + 1).min(nrows)] >= nz,
                "a cut must lie on the merge path"
            );
            carrying += usize::from(nz > rowptr[row]);
            spans.push(Span {
                rows: at.0..row,
                nnz: at.1..nz,
            });
            at = (row, nz);
        }
        assert_eq!(at, (nrows, nnz), "the last cut is the grid's corner");
        Plan {
            spans,
            nrows,
            nnz,
            carrying,
        }
    }

    /// The spans, in path order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nonzeros consumed by each span — the balance statistic of §3.2.
    pub fn nnz_per_span(&self) -> Vec<usize> {
        self.spans.iter().map(|s| s.nnz.len()).collect()
    }

    /// How many spans leave a partial row for a later span to finish.
    /// Zero for every [`Plan::rows`] plan, and for the other cuts when
    /// they happen to fall on row ends.
    pub fn carrying(&self) -> usize {
        self.carrying
    }

    /// `(nrows, nnz)` of the matrix the plan was cut for.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.nrows, self.nnz)
    }
}

/// The merge-path point on diagonal `d`: `(rows ended, nonzeros
/// consumed)` with the two summing to `d`, by binary search over the
/// row pointers.
fn merge_path_search(rowptr: &[usize], nrows: usize, d: usize) -> (usize, usize) {
    // After finishing row `i` the merge has consumed (i + 1) row ends
    // plus rowptr[i + 1] nonzeros, i.e. it sits at diagonal
    // (i + 1) + rowptr[i + 1]. Binary search for the largest count of
    // completed rows whose diagonal does not exceed `d`.
    let mut lo = d.saturating_sub(rowptr[nrows]);
    let mut hi = d.min(nrows);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if (mid + 1) + rowptr[mid + 1] <= d {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, d - lo)
}

/// The load imbalance factor: max over threads of nonzeros assigned,
/// divided by the mean (§3.2). 1.0 = perfectly balanced.
pub fn imbalance_factor(nnz_counts: &[usize]) -> f64 {
    if nnz_counts.is_empty() {
        return 1.0;
    }
    let max = *nnz_counts.iter().max().unwrap() as f64;
    let mean = nnz_counts.iter().sum::<usize>() as f64 / nnz_counts.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn matrix_with_row_nnz(counts: &[usize]) -> CsrMatrix {
        let n = counts.len();
        let ncols = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut coo = CooMatrix::new(n, ncols);
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                coo.push(i, j, 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn row_ranges(p: &Plan) -> Vec<Range<usize>> {
        p.spans().iter().map(|s| s.rows.clone()).collect()
    }

    #[test]
    fn rows_split_evenly() {
        let a = matrix_with_row_nnz(&[1; 10]);
        let p = Plan::rows(&a, 3);
        assert_eq!(row_ranges(&p), vec![0..4, 4..8, 8..10]);
        assert_eq!(p.nnz_per_span(), vec![4, 4, 2]);
        assert_eq!(p.carrying(), 0);
    }

    #[test]
    fn rows_with_more_threads_than_rows() {
        // Oversubscription clamps to one row per span: no empty
        // trailing spans, so the imbalance factor sees two busy
        // threads rather than two busy plus two phantom ones.
        let a = matrix_with_row_nnz(&[2, 2]);
        let p = Plan::rows(&a, 4);
        assert_eq!(row_ranges(&p), vec![0..1, 1..2]);
        assert_eq!(p.nnz_per_span(), vec![2, 2]);
        assert!((imbalance_factor(&p.nnz_per_span()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rows_never_emit_empty_spans() {
        // div_ceil chunking can strand threads even when nthreads <
        // nrows (e.g. 5 rows / 4 threads -> chunks of 2 -> 3 busy
        // threads); every emitted span must be non-empty.
        for nrows in 1..20usize {
            let a = matrix_with_row_nnz(&vec![1; nrows]);
            for t in 1..25usize {
                let p = Plan::rows(&a, t);
                assert!(p.spans().len() <= t.min(nrows), "rows={nrows} t={t}");
                for s in p.spans() {
                    assert!(!s.rows.is_empty(), "rows={nrows} t={t}: empty {s:?}");
                }
            }
        }
    }

    #[test]
    fn a_matrix_without_rows_gets_one_empty_span() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(0, 3));
        for plan in [
            Plan::rows(&a, 4),
            Plan::nonzeros(&a, 4),
            Plan::merge_path(&a, 4),
        ] {
            assert_eq!(
                plan.spans(),
                [Span {
                    rows: 0..0,
                    nnz: 0..0
                }]
            );
        }
    }

    #[test]
    fn imbalance_factor_detects_skew() {
        assert!((imbalance_factor(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((imbalance_factor(&[10, 5, 0]) - 2.0).abs() < 1e-12);
        assert_eq!(imbalance_factor(&[]), 1.0);
        assert_eq!(imbalance_factor(&[0, 0]), 1.0);
    }

    #[test]
    fn nonzeros_balance_a_skewed_matrix() {
        // One heavy row, many light.
        let a = matrix_with_row_nnz(&[12, 1, 1, 1, 1, 1, 1, 1, 1]); // 20 nnz
        let p = Plan::nonzeros(&a, 4);
        assert_eq!(p.nnz_per_span(), vec![5, 5, 5, 5]);
        // Row 0 is cut twice and ends in the third span.
        assert_eq!(row_ranges(&p), vec![0..0, 0..0, 0..4, 4..9]);
        assert_eq!(p.carrying(), 2);
    }

    #[test]
    fn nonzeros_clamp_to_nnz() {
        let a = matrix_with_row_nnz(&[1, 1]);
        let p = Plan::nonzeros(&a, 8);
        assert_eq!(p.nnz_per_span(), vec![1, 1]);
    }

    #[test]
    fn nonzeros_give_empty_rows_at_a_cut_to_the_earlier_span() {
        let a = matrix_with_row_nnz(&[0, 5, 0, 5, 0]);
        let p = Plan::nonzeros(&a, 2);
        assert_eq!(p.nnz_per_span(), vec![5, 5]);
        assert_eq!(row_ranges(&p), vec![0..3, 3..5]);
        assert_eq!(p.carrying(), 0);
    }

    #[test]
    fn a_single_huge_row_ends_in_the_last_span() {
        let a = matrix_with_row_nnz(&[100]);
        let p = Plan::nonzeros(&a, 4);
        assert_eq!(row_ranges(&p), vec![0..0, 0..0, 0..0, 0..1]);
        assert_eq!(p.carrying(), 3);
    }

    #[test]
    fn merge_path_search_endpoints() {
        // 3 rows with 2, 0, 3 nonzeros.
        let rowptr = [0usize, 2, 2, 5];
        assert_eq!(merge_path_search(&rowptr, 3, 0), (0, 0));
        // Full consumption: diagonal 8 = 3 rows + 5 nnz.
        assert_eq!(merge_path_search(&rowptr, 3, 8), (3, 5));
        // After consuming row 0 (2 nnz + 1 row-end = diagonal 3).
        assert_eq!(merge_path_search(&rowptr, 3, 3), (1, 2));
    }

    #[test]
    fn merge_path_balances_items_over_many_empty_rows() {
        // Merge-based SpMV's signature case: mostly empty rows.
        let mut coo = CooMatrix::new(1000, 1000);
        for i in (0..1000).step_by(100) {
            for j in 0..30 {
                coo.push(i, (i + j) % 1000, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let items: Vec<usize> = Plan::merge_path(&a, 8)
            .spans()
            .iter()
            .map(|s| s.rows.len() + s.nnz.len())
            .collect();
        assert!(imbalance_factor(&items) < 1.05, "merge items {items:?}");
    }

    #[test]
    fn merge_path_clamps_threads_to_merge_items() {
        // 2x2 with 1 nnz: diagonal length 3, so at most 3 spans.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let plan = Plan::merge_path(&a, 64);
        assert_eq!(plan.spans().len(), 3, "spans: {:?}", plan.spans());
        for s in plan.spans() {
            assert!(s.rows.len() + s.nnz.len() > 0);
        }
    }
}
