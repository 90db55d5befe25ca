//! The one span executor: every kernel of the study (§3.1) is a
//! [`Plan`] — a way of cutting the matrix into spans — run through
//! [`execute_mapped`] on a persistent [`ThreadTeam`].
//!
//! Spans go to the team's lanes round-robin, so a plan cut into `p`
//! spans runs correctly on a team of any size (a lane simply processes
//! every `team.size()`-th span). Matching the span count to the team
//! size gives the measurement-faithful one-span-per-lane execution.
//!
//! Rows are summed left to right with one accumulator ([`row_dot`]),
//! so a row that lies in one span — every row of a one-span plan, and
//! of a [`Plan::rows`] plan at any span count — equals the sequential
//! row sum of [`CsrMatrix::spmv_dense`] exactly. A row that
//! [`Plan::nonzeros`] or [`Plan::merge_path`] cuts across spans is the
//! sum of per-span partial sums and agrees with it to rounding only.

use crate::plan::Plan;
use crate::team::ThreadTeam;
use sparsemat::{ColIdx, CsrMatrix, Permutation};
use std::ops::Range;

/// Raw pointer wrapper allowing team lanes to write disjoint,
/// pre-validated parts of shared output storage.
///
/// SAFETY invariant — the one rule every concurrent store in this
/// crate rests on: **a span stores `y[r]` for exactly the rows whose
/// end it contains, and its own carry slot.** A [`Plan`]'s spans chain
/// from `(0, 0)` to `(nrows, nnz)` (its constructors' invariant; the
/// fields are private, so no caller can forge one), hence each row end
/// lies in exactly one span, the row ranges of distinct spans are
/// disjoint and in `0..nrows`, and carry slots are indexed by span.
/// Each `y[r]` is stored once, inside the parallel region; a row cut
/// across spans receives its carries only after it.
///
/// Row `r` is stored at `y[map.at(r)]` for the call's [`RowMap`], a
/// bijection on `0..nrows`: lanes that own disjoint rows still write
/// disjoint, in-range elements.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Accessing it through a method (rather than
    /// the field) makes closures capture the whole `SendPtr` — whose
    /// `Sync` impl carries the disjoint-write invariant — instead of
    /// precise-capturing the bare raw pointer, which is not `Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}
// SAFETY: see the struct docs — all concurrent writes through the
// pointer target disjoint elements.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Dot product of one row segment with `x`: a single accumulator,
/// left to right — the same sum, in the same order, as
/// [`CsrMatrix::spmv_dense`]. Walking the two windows in lockstep
/// leaves the `x` gather as the only bounds check per nonzero. (It
/// takes the windows, not the matrix and a range: slicing in here
/// measured 9 % fewer `kernel_grid` operations per second.)
#[inline(always)]
pub(crate) fn row_dot(cols: &[ColIdx], vals: &[f64], x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        sum += v * x[c as usize];
    }
    sum
}

/// Where a kernel stores each row's sum: row `r` of the matrix goes to
/// `y[map.at(r)]`. The two instantiations are [`Identity`]
/// ([`Kernel::execute`](crate::Kernel::execute): `y` in the matrix's
/// own row order) and `&Permutation`
/// ([`Kernel::execute_scatter`](crate::Kernel::execute_scatter): `y`
/// in the caller's). The kernels are generic over it so that both run
/// the same loops.
///
/// The stores through [`SendPtr`] rely on `at` being a bijection on
/// `0..nrows` whenever `covers(nrows)` holds. For a [`Permutation`]
/// that is the type's own invariant — its fields are private and every
/// constructor validates range and uniqueness — which is why the map
/// is that type and not a bare index slice.
pub(crate) trait RowMap: Copy + Sync {
    /// Whether the map is defined on exactly the rows `0..nrows`.
    fn covers(self, nrows: usize) -> bool;
    /// The output index of row `r`.
    fn at(self, r: usize) -> usize;
}

/// `y[r]` holds row `r`.
#[derive(Clone, Copy)]
pub(crate) struct Identity;

impl RowMap for Identity {
    #[inline(always)]
    fn covers(self, _nrows: usize) -> bool {
        true
    }
    #[inline(always)]
    fn at(self, r: usize) -> usize {
        r
    }
}

/// `y[p.new_to_old(r)]` holds row `r`: the rows of a matrix permuted
/// by `p` land where they came from.
impl RowMap for &Permutation {
    #[inline(always)]
    fn covers(self, nrows: usize) -> bool {
        self.len() == nrows
    }
    #[inline(always)]
    fn at(self, r: usize) -> usize {
        self.new_to_old(r)
    }
}

/// Store row `r`'s sum at `y[map.at(r)]` for every row of `rows`,
/// entering the first row at nonzero `lo` (its start, or mid-row for a
/// merge span) and finishing every row at its end; returns the nonzero
/// index reached. Empty rows store `0.0`.
///
/// # Safety
///
/// `y` must point at `a.nrows()` elements, `map` must cover
/// `a.nrows()`, and no other thread may access the elements `rows`
/// maps to during the call. (`rows.end <= a.nrows()` is checked here,
/// by the row-pointer slice.)
#[inline(always)]
pub(crate) unsafe fn store_rows(
    a: &CsrMatrix,
    rows: Range<usize>,
    mut lo: usize,
    x: &[f64],
    y: SendPtr<f64>,
    map: impl RowMap,
) -> usize {
    let ends = &a.rowptr()[rows.start + 1..=rows.end];
    for (r, &hi) in rows.zip(ends) {
        let sum = row_dot(&a.colidx()[lo..hi], &a.values()[lo..hi], x);
        *y.get().add(map.at(r)) = sum;
        lo = hi;
    }
    lo
}

/// `y = A x` under `plan`, executed on `team`; `y` is fully
/// overwritten, in `a`'s row order. What
/// [`Kernel::execute`](crate::Kernel::execute) runs, for callers that
/// hold the matrix and a plan rather than a planned kernel.
///
/// Panics, before any store, unless `plan` was cut for a matrix of
/// `a`'s shape.
pub fn execute(a: &CsrMatrix, plan: &Plan, team: &ThreadTeam, x: &[f64], y: &mut [f64]) {
    execute_mapped(a, plan, team, x, y, Identity);
}

/// [`execute`] storing row `r` at `y[map.at(r)]`.
///
/// A span stores every row whose end it contains — empty rows
/// included, so every `y[r]` is written — and hands a trailing partial
/// row on as its one carry, added in span order after the parallel
/// region (the paper's race-free boundary handling, §3.1).
pub(crate) fn execute_mapped(
    a: &CsrMatrix,
    plan: &Plan,
    team: &ThreadTeam,
    x: &[f64],
    y: &mut [f64],
    map: impl RowMap,
) {
    assert_eq!(x.len(), a.ncols(), "x length mismatch");
    assert_eq!(y.len(), a.nrows(), "y length mismatch");
    assert!(map.covers(a.nrows()), "row map length mismatch");
    assert_eq!(
        plan.shape(),
        (a.nrows(), a.nnz()),
        "plan cut for another matrix"
    );
    let spans = plan.spans();
    let y_ptr = SendPtr(y.as_mut_ptr());
    let lanes = team.size();

    // One carry slot per span but the last (which ends the last row),
    // each written only by the lane owning that span; none at all when
    // every cut falls on a row end.
    let slots = if plan.carrying() == 0 {
        0
    } else {
        spans.len() - 1
    };
    let mut carries = vec![None::<f64>; slots];
    let carries_ptr = SendPtr(carries.as_mut_ptr());

    team.run(&|lane| {
        for (idx, span) in spans.iter().enumerate().skip(lane).step_by(lanes) {
            // SAFETY: each row end lies in exactly one span and `map`
            // keeps the rows disjoint (see `SendPtr`); `y` has `nrows`
            // elements, `map` covers them and the plan's rows end at
            // `nrows` (all asserted).
            let lo = unsafe { store_rows(a, span.rows.clone(), span.nnz.start, x, y_ptr, map) };
            // Trailing partial row (its end belongs to a later span).
            let hi = span.nnz.end;
            if lo < hi {
                let sum = row_dot(&a.colidx()[lo..hi], &a.values()[lo..hi], x);
                assert!(idx < slots, "the plan counted no carry here");
                // SAFETY: slot `idx` exists (checked) and belongs
                // exclusively to the lane processing span `idx`.
                unsafe { *carries_ptr.get().add(idx) = Some(sum) };
            }
        }
    });

    // Sequential reduction: carries accumulate onto the finished part.
    for (span, carry) in spans.iter().zip(&carries) {
        if let Some(v) = carry {
            y[map.at(span.rows.end)] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;
    use sparsemat::CooMatrix;

    fn random_matrix(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut state = seed | 1;
        for i in 0..n {
            // Deterministic pseudo-random columns; duplicates are summed.
            for _ in 0..nnz_per_row {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % n;
                let v = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                coo.push(i, j, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn from_entries(
        nrows: usize,
        ncols: usize,
        entries: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        for (i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Every cut of `a` into `plan_t` spans, run on a `team_t`-lane
    /// team into a NaN-filled `y`, matches the sequential reference.
    fn check_against_reference(a: &CsrMatrix, sizes: &[(usize, usize)]) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 7 + 1) as f64).sin()).collect();
        let want = a.spmv_dense(&x);
        for &(plan_t, team_t) in sizes {
            let team = ThreadTeam::new(team_t);
            for kind in KernelKind::all() {
                let mut y = vec![f64::NAN; a.nrows()];
                execute(a, &kind.cut(a, plan_t), &team, &x, &mut y);
                for (i, (&got, &exp)) in y.iter().zip(want.iter()).enumerate() {
                    assert!(
                        (got - exp).abs() < 1e-9 * (1.0 + exp.abs()),
                        "{kind} plan={plan_t} team={team_t}: y[{i}] = {got}, want {exp}"
                    );
                }
            }
        }
    }

    fn matched(threads: &[usize]) -> Vec<(usize, usize)> {
        threads.iter().map(|&t| (t, t)).collect()
    }

    #[test]
    fn kernels_match_reference_on_random_matrices() {
        check_against_reference(&random_matrix(200, 6, 42), &matched(&[1, 2, 3, 4, 7, 16]));
        check_against_reference(&random_matrix(150, 4, 5), &matched(&[1, 2, 3, 5, 8]));
    }

    #[test]
    fn kernels_match_reference_on_rows_cut_across_spans() {
        // A dense first row over diagonal rows: it straddles several
        // spans of an equal-nonzero split.
        let n = 64;
        let dense_first = (0..n)
            .map(|j| (0, j, 1.0 + j as f64))
            .chain((1..n).map(|i| (i, i, 2.0)));
        check_against_reference(&from_entries(n, n, dense_first), &matched(&[1, 2, 4, 8]));
        // One giant row between empty ones.
        let giant = (0..400).map(|j| (1, j, (j as f64) * 0.25));
        check_against_reference(&from_entries(4, 400, giant), &matched(&[1, 3, 6]));
    }

    #[test]
    fn kernels_handle_empty_rows() {
        let a = from_entries(10, 10, [(2, 3, 1.0), (7, 1, -2.0)]);
        check_against_reference(&a, &matched(&[1, 2, 4]));
        // The merge path's signature case: mostly empty rows.
        let blocks = (0..1000)
            .step_by(100)
            .flat_map(|i| (0..30).map(move |j| (i, (i + j) % 1000, 1.0)));
        check_against_reference(&from_entries(1000, 1000, blocks), &matched(&[1, 4, 7]));
        // No nonzeros at all: every row is stored as zero.
        check_against_reference(&from_entries(6, 6, []), &matched(&[1, 2, 4]));
    }

    #[test]
    fn kernels_handle_more_threads_than_work() {
        check_against_reference(&from_entries(1, 1, [(0, 0, 3.0)]), &matched(&[1, 4]));
        check_against_reference(&random_matrix(5, 1, 9), &matched(&[16]));
        check_against_reference(&from_entries(2, 2, [(0, 0, 1.0)]), &matched(&[64]));
    }

    #[test]
    fn plan_and_team_sizes_may_differ() {
        // Round-robin span assignment: an 8-span plan on a 3-lane team
        // and a 2-span plan on an 8-lane team both stay correct.
        let a = random_matrix(120, 5, 7);
        check_against_reference(&a, &[(8, 3), (2, 8), (5, 1), (1, 4)]);
    }
}
