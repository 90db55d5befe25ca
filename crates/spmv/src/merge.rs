//! Merge-based CSR SpMV (Merrill & Garland \[20\]) — the kernel the
//! paper's 2D algorithm is a simplified version of (§3.1).
//!
//! The merge formulation views SpMV as a 2D merge of the row-pointer
//! sequence and the nonzero index sequence: a balanced diagonal of the
//! merge grid is assigned to each thread, splitting *rows + nonzeros*
//! evenly instead of nonzeros alone. This bounds each thread's work
//! even for matrices with huge numbers of empty rows, where the plain
//! 2D split can still be skewed in row-pointer traffic.
//!
//! Implemented here as a third kernel for baseline comparisons. All
//! three kernels sum a row segment left to right with one accumulator
//! (`exec::row_dot`), so on a one-span plan each equals the sequential
//! row sum of [`CsrMatrix::spmv_dense`] exactly, and the 1D kernel —
//! which never splits a row — does at any span count. A row the 2D or
//! merge kernel splits across spans is a sum of per-span partial sums
//! and agrees with the sequential sum to rounding only. Like the other
//! kernels it executes on the persistent [`ThreadTeam`], with spans
//! assigned to lanes round-robin.

use crate::exec::{lane_spans, row_dot, store_rows, Identity, RowMap, SendPtr};
use crate::plan::imbalance_factor;
use crate::team::ThreadTeam;
use sparsemat::CsrMatrix;

/// One thread's merge-path coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSpan {
    /// First row this thread touches.
    pub row_start: usize,
    /// First nonzero this thread consumes.
    pub nnz_start: usize,
    /// One-past-last row.
    pub row_end: usize,
    /// One-past-last nonzero.
    pub nnz_end: usize,
}

/// Precomputed merge-based execution plan.
#[derive(Debug, Clone)]
pub struct PlanMerge {
    /// Per-thread merge spans.
    pub spans: Vec<MergeSpan>,
}

/// Find the merge-path split point for diagonal `d`: the number of
/// rows `i` such that `i + rowptr-consumed` equals `d`, by binary
/// search over the row pointers.
fn merge_path_search(rowptr: &[usize], nrows: usize, d: usize) -> (usize, usize) {
    // Count the rows fully consumed at diagonal `d`: after finishing
    // row `i` the merge has consumed (i + 1) row-ends plus
    // rowptr[i + 1] nonzeros, i.e. it sits at diagonal
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
    let i = lo; // rows fully consumed
    let j = d - i; // nonzeros consumed
    (i, j)
}

impl PlanMerge {
    /// Build a merge plan for `nthreads` threads.
    ///
    /// The thread count is clamped to the merge-grid diagonal length
    /// `nrows + nnz` (each span must consume at least one merge item),
    /// so a plan never carries empty trailing spans.
    pub fn new(a: &CsrMatrix, nthreads: usize) -> PlanMerge {
        let nrows = a.nrows();
        let total = nrows + a.nnz(); // merge-grid diagonal length
        let t = nthreads.max(1).min(total.max(1));
        let rowptr = a.rowptr();
        let mut spans = Vec::with_capacity(t);
        let mut prev = merge_path_search(rowptr, nrows, 0);
        for k in 1..=t {
            let d = total * k / t;
            let cur = merge_path_search(rowptr, nrows, d);
            spans.push(MergeSpan {
                row_start: prev.0,
                nnz_start: prev.1,
                row_end: cur.0,
                nnz_end: cur.1,
            });
            prev = cur;
        }
        PlanMerge { spans }
    }

    /// Number of spans (= effective threads) in the plan.
    pub fn num_threads(&self) -> usize {
        self.spans.len()
    }

    /// Merge items (rows + nonzeros) per thread; the quantity the merge
    /// split equalises.
    pub fn items_per_thread(&self) -> Vec<usize> {
        self.spans
            .iter()
            .map(|s| (s.row_end - s.row_start) + (s.nnz_end - s.nnz_start))
            .collect()
    }

    /// Nonzeros consumed per thread — the cross-kernel balance metric
    /// shared with [`Plan1d`](crate::Plan1d) and
    /// [`Plan2d`](crate::Plan2d).
    pub fn nnz_per_thread(&self) -> Vec<usize> {
        self.spans.iter().map(|s| s.nnz_end - s.nnz_start).collect()
    }

    /// Imbalance of merge items across threads (≈1 by construction).
    pub fn imbalance(&self) -> f64 {
        imbalance_factor(&self.items_per_thread())
    }
}

/// Merge-based parallel SpMV: `y = A x`, executed on `team`.
///
/// The diagonals partition the merge items, so each row *end* belongs
/// to exactly one span: that span stores `y[r]` directly, and a span
/// leaving its last row unfinished hands the partial sum on as its one
/// carry, added in span order after the parallel region.
pub fn spmv_merge(a: &CsrMatrix, plan: &PlanMerge, team: &ThreadTeam, x: &[f64], y: &mut [f64]) {
    spmv_merge_mapped(a, plan, team, x, y, Identity);
}

/// [`spmv_merge`] storing row `r` at `y[map.at(r)]`.
pub(crate) fn spmv_merge_mapped(
    a: &CsrMatrix,
    plan: &PlanMerge,
    team: &ThreadTeam,
    x: &[f64],
    y: &mut [f64],
    map: impl RowMap,
) {
    assert_eq!(x.len(), a.ncols(), "x length mismatch");
    assert_eq!(y.len(), a.nrows(), "y length mismatch");
    assert!(map.covers(a.nrows()), "row map length mismatch");
    let y_ptr = SendPtr(y.as_mut_ptr());
    let lanes = team.size();

    // One carry slot per span but the last (which ends the last row),
    // each written only by the lane owning that span.
    let mut carries = vec![None::<f64>; plan.spans.len().saturating_sub(1)];
    let slots = carries.len();
    let carries_ptr = SendPtr(carries.as_mut_ptr());

    team.run(&|lane| {
        for (idx, span) in lane_spans(&plan.spans, lane, lanes) {
            // SAFETY: each row end lies in exactly one span and `map`
            // keeps the rows disjoint (see `SendPtr`); `y` has `nrows`
            // elements and `map` covers them (both asserted).
            let lo = unsafe {
                store_rows(
                    a,
                    span.row_start..span.row_end,
                    span.nnz_start,
                    x,
                    y_ptr,
                    map,
                )
            };
            // Trailing partial row (its end belongs to a later span).
            let hi = span.nnz_end;
            if lo < hi {
                let sum = row_dot(&a.colidx()[lo..hi], &a.values()[lo..hi], x);
                assert!(idx < slots, "the last span cannot carry");
                // SAFETY: slot `idx` exists (checked) and belongs
                // exclusively to the lane processing span `idx`.
                unsafe { *carries_ptr.get().add(idx) = Some(sum) };
            }
        }
    });

    // Sequential reduction: carries accumulate onto the finished part.
    for (span, carry) in plan.spans.iter().zip(&carries) {
        if let Some(v) = carry {
            y[map.at(span.row_end)] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn check(a: &CsrMatrix, threads: &[usize]) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 7 + 1) as f64).cos()).collect();
        let want = a.spmv_dense(&x);
        for &t in threads {
            let team = ThreadTeam::new(t);
            let plan = PlanMerge::new(a, t);
            let mut y = vec![f64::NAN; a.nrows()];
            spmv_merge(a, &plan, &team, &x, &mut y);
            for i in 0..a.nrows() {
                assert!(
                    (y[i] - want[i]).abs() < 1e-9 * (1.0 + want[i].abs()),
                    "t={t} row {i}: {} vs {}",
                    y[i],
                    want[i]
                );
            }
        }
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
    fn matches_reference_on_random_matrix() {
        let mut coo = CooMatrix::new(150, 150);
        let mut state = 5u64;
        for i in 0..150 {
            for _ in 0..4 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                coo.push(i, (state >> 33) as usize % 150, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        check(&a, &[1, 2, 3, 5, 8]);
    }

    #[test]
    fn handles_many_empty_rows() {
        // Merge-based SpMV's signature case: mostly empty rows.
        let mut coo = CooMatrix::new(1000, 1000);
        for i in (0..1000).step_by(100) {
            for j in 0..30 {
                coo.push(i, (i + j) % 1000, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        check(&a, &[1, 4, 7]);
        // Items per thread stay balanced even with empty rows.
        let plan = PlanMerge::new(&a, 8);
        assert!(
            plan.imbalance() < 1.05,
            "merge imbalance {}",
            plan.imbalance()
        );
    }

    #[test]
    fn handles_single_giant_row() {
        let mut coo = CooMatrix::new(4, 400);
        for j in 0..400 {
            coo.push(1, j, (j as f64) * 0.25);
        }
        let a = CsrMatrix::from_coo(&coo);
        check(&a, &[1, 3, 6]);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(5, 5));
        check(&a, &[1, 4]);
    }

    #[test]
    fn clamps_threads_to_merge_items() {
        // 2x2 with 1 nnz: diagonal length 3, so at most 3 spans.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let plan = PlanMerge::new(&a, 64);
        assert!(plan.num_threads() <= 3, "spans: {:?}", plan.spans);
        assert!(plan.items_per_thread().iter().all(|&n| n > 0));
        check(&a, &[64]);
    }

    #[test]
    fn nnz_per_thread_sums_to_total() {
        let mut coo = CooMatrix::new(40, 40);
        for i in 0..40 {
            coo.push(i, (i * 3) % 40, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let plan = PlanMerge::new(&a, 6);
        assert_eq!(plan.nnz_per_thread().iter().sum::<usize>(), a.nnz());
    }
}
