//! The 1D and 2D parallel SpMV kernels, executing on a persistent
//! [`ThreadTeam`] (§3.1).
//!
//! Each kernel distributes its plan's spans over the team's lanes
//! round-robin, so a plan built for `p` threads runs correctly on a
//! team of any size (a lane simply processes every `team.size()`-th
//! span). Matching the plan's thread count to the team size gives the
//! measurement-faithful one-span-per-lane execution.

use crate::plan::{Plan1d, Plan2d};
use crate::team::ThreadTeam;
use sparsemat::{ColIdx, CsrMatrix, Permutation};
use std::ops::Range;

/// Raw pointer wrapper allowing team lanes to write disjoint,
/// pre-validated parts of shared output storage.
///
/// SAFETY invariant (the disjoint-write invariant the kernel trait's
/// implementations rely on): every lane writes only the elements it
/// exclusively owns — contiguous row ranges for the 1D kernel
/// (`Plan1d` ranges partition the rows), owned rows for the 2D kernel
/// (`own_row_start..own_row_end` are disjoint across spans, an
/// invariant established by `Plan2d::new` and checked by its tests),
/// the rows whose *end* a span consumes for the merge kernel
/// (`row_start..row_end` chain from span to span), and per-span slots
/// indexed by span id for the partial-sum buffers. An owned `y[r]` is
/// stored once, inside the parallel region; rows shared between spans
/// (2D boundary rows, merge carries) are only combined after it.
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

/// The spans lane `lane` of a `lanes`-wide team executes: every
/// `lanes`-th one, round-robin (a team has at least one lane).
pub(crate) fn lane_spans<T>(
    spans: &[T],
    lane: usize,
    lanes: usize,
) -> impl Iterator<Item = (usize, &T)> {
    spans.iter().enumerate().skip(lane).step_by(lanes)
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

/// 1D parallel SpMV: `y = A x` with rows statically split into equal
/// contiguous blocks, one per plan span (§3.1), executed on `team`.
///
/// `y` is fully overwritten. Spans write disjoint row slices, so the
/// kernel is race-free by construction.
pub fn spmv_1d(a: &CsrMatrix, plan: &Plan1d, team: &ThreadTeam, x: &[f64], y: &mut [f64]) {
    spmv_1d_mapped(a, plan, team, x, y, Identity);
}

/// [`spmv_1d`] storing row `r` at `y[map.at(r)]`.
pub(crate) fn spmv_1d_mapped(
    a: &CsrMatrix,
    plan: &Plan1d,
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

    team.run(&|lane| {
        for (_, &(start, end)) in lane_spans(&plan.row_ranges, lane, lanes) {
            // SAFETY: row ranges partition `0..nrows` disjointly and
            // `map` keeps them disjoint (see `SendPtr`); `y` has
            // `nrows` elements and `map` covers them (both asserted).
            unsafe { store_rows(a, start..end, a.rowptr()[start], x, y_ptr, map) };
        }
    });
}

/// 2D parallel SpMV: `y = A x` with nonzeros statically split into
/// equal blocks (§3.1), executed on `team`.
///
/// A span stores the rows it owns directly — empty rows included, so
/// together with the boundary rows every `y[r]` is written. Its at most
/// two boundary rows (a leading one it enters mid-row, a trailing one
/// it leaves mid-row) become partial sums, combined sequentially in
/// span order after the parallel region, avoiding races on `y` exactly
/// as the paper describes.
pub fn spmv_2d(a: &CsrMatrix, plan: &Plan2d, team: &ThreadTeam, x: &[f64], y: &mut [f64]) {
    spmv_2d_mapped(a, plan, team, x, y, Identity);
}

/// [`spmv_2d`] storing row `r` at `y[map.at(r)]`.
pub(crate) fn spmv_2d_mapped(
    a: &CsrMatrix,
    plan: &Plan2d,
    team: &ThreadTeam,
    x: &[f64],
    y: &mut [f64],
    map: impl RowMap,
) {
    assert_eq!(x.len(), a.ncols(), "x length mismatch");
    assert_eq!(y.len(), a.nrows(), "y length mismatch");
    assert!(map.covers(a.nrows()), "row map length mismatch");
    let (colidx, values) = (a.colidx(), a.values());
    let y_ptr = SendPtr(y.as_mut_ptr());
    let lanes = team.size();

    // `[leading, trailing]` partial sum per span, each slot written only
    // by the lane owning that span; no slots when no row is shared.
    let slots = if plan.boundary_rows.is_empty() {
        0
    } else {
        plan.spans.len()
    };
    let mut partials = vec![[None::<f64>; 2]; slots];
    let partials_ptr = SendPtr(partials.as_mut_ptr());

    team.run(&|lane| {
        for (idx, span) in lane_spans(&plan.spans, lane, lanes) {
            let mut lo = span.nnz_start;
            let head = span.head_row().map(|r| {
                let hi = a.rowptr()[r + 1].min(span.nnz_end);
                let sum = row_dot(&colidx[lo..hi], &values[lo..hi], x);
                lo = hi;
                sum
            });
            // SAFETY: owned row ranges are disjoint across spans and
            // `map` keeps them disjoint (see `SendPtr`); `y` has
            // `nrows` elements and `map` covers them (both asserted).
            lo = unsafe { store_rows(a, span.own_row_start..span.own_row_end, lo, x, y_ptr, map) };
            let tail = span.tail_row().map(|_| {
                let hi = span.nnz_end;
                row_dot(&colidx[lo..hi], &values[lo..hi], x)
            });
            if head.is_some() || tail.is_some() {
                assert!(idx < slots, "plan lists no boundary rows");
                // SAFETY: slot `idx` exists (checked) and belongs
                // exclusively to the lane processing span `idx`.
                unsafe { *partials_ptr.get().add(idx) = [head, tail] };
            }
        }
    });

    // Sequential fixup: boundary rows get the sum of their partials.
    for &r in &plan.boundary_rows {
        y[map.at(r)] = 0.0;
    }
    for (span, [head, tail]) in plan.spans.iter().zip(&partials) {
        if let Some(v) = head {
            y[map.at(span.row_start)] += v;
        }
        if let Some(v) = tail {
            y[map.at(span.row_end)] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn skewed_matrix(n: usize) -> CsrMatrix {
        // First row is dense; the rest are diagonal.
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            coo.push(0, j, 1.0 + j as f64);
        }
        for i in 1..n {
            coo.push(i, i, 2.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    fn check_against_reference(a: &CsrMatrix, threads: &[usize]) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 7 + 1) as f64).sin()).collect();
        let want = a.spmv_dense(&x);
        for &t in threads {
            let team = ThreadTeam::new(t);
            let p1 = Plan1d::new(a, t);
            let mut y1 = vec![f64::NAN; a.nrows()];
            spmv_1d(a, &p1, &team, &x, &mut y1);
            for (i, (&got, &exp)) in y1.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got - exp).abs() < 1e-9 * (1.0 + exp.abs()),
                    "1D t={t}: y[{i}] = {got}, want {exp}"
                );
            }
            let p2 = Plan2d::new(a, t);
            let mut y2 = vec![f64::NAN; a.nrows()];
            spmv_2d(a, &p2, &team, &x, &mut y2);
            for (i, (&got, &exp)) in y2.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got - exp).abs() < 1e-9 * (1.0 + exp.abs()),
                    "2D t={t}: y[{i}] = {got}, want {exp}"
                );
            }
        }
    }

    #[test]
    fn kernels_match_reference_on_random_matrix() {
        let a = random_matrix(200, 6, 42);
        check_against_reference(&a, &[1, 2, 3, 4, 7, 16]);
    }

    #[test]
    fn kernels_match_reference_on_skewed_matrix() {
        // The dense first row straddles several 2D thread ranges.
        let a = skewed_matrix(64);
        check_against_reference(&a, &[1, 2, 4, 8]);
    }

    #[test]
    fn kernels_handle_empty_rows() {
        let mut coo = CooMatrix::new(10, 10);
        coo.push(2, 3, 1.0);
        coo.push(7, 1, -2.0);
        let a = CsrMatrix::from_coo(&coo);
        check_against_reference(&a, &[1, 2, 4]);
    }

    #[test]
    fn kernels_handle_single_row_matrix() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 3.0);
        let a = CsrMatrix::from_coo(&coo);
        check_against_reference(&a, &[1, 4]);
    }

    #[test]
    fn kernels_handle_more_threads_than_nnz() {
        let a = random_matrix(5, 1, 9);
        check_against_reference(&a, &[16]);
    }

    #[test]
    fn empty_matrix_yields_zero() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(6, 6));
        let x = vec![1.0; 6];
        let team = ThreadTeam::new(2);
        let mut y = vec![f64::NAN; 6];
        spmv_1d(&a, &Plan1d::new(&a, 2), &team, &x, &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
        let mut y2 = vec![f64::NAN; 6];
        spmv_2d(&a, &Plan2d::new(&a, 2), &team, &x, &mut y2);
        assert!(y2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn plan_and_team_sizes_may_differ() {
        // Round-robin span assignment: an 8-span plan on a 3-lane team
        // and a 2-span plan on an 8-lane team both stay correct.
        let a = random_matrix(120, 5, 7);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).cos()).collect();
        let want = a.spmv_dense(&x);
        for (plan_t, team_t) in [(8, 3), (2, 8), (5, 1), (1, 4)] {
            let team = ThreadTeam::new(team_t);
            let p1 = Plan1d::new(&a, plan_t);
            let mut y = vec![f64::NAN; a.nrows()];
            spmv_1d(&a, &p1, &team, &x, &mut y);
            let p2 = Plan2d::new(&a, plan_t);
            let mut y2 = vec![f64::NAN; a.nrows()];
            spmv_2d(&a, &p2, &team, &x, &mut y2);
            for i in 0..a.nrows() {
                assert!(
                    (y[i] - want[i]).abs() < 1e-9 * (1.0 + want[i].abs()),
                    "1D plan={plan_t} team={team_t} row {i}"
                );
                assert!(
                    (y2[i] - want[i]).abs() < 1e-9 * (1.0 + want[i].abs()),
                    "2D plan={plan_t} team={team_t} row {i}"
                );
            }
        }
    }
}
