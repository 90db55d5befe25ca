use sparsemat::CsrMatrix;

/// Static 1D plan: equal contiguous row blocks, one per thread.
///
/// Mirrors OpenMP's `schedule(static)` on the row loop (§3.1). The
/// per-thread nonzero counts this induces — and hence the imbalance
/// factor (§3.2) — depend entirely on the matrix ordering.
#[derive(Debug, Clone)]
pub struct Plan1d {
    /// `row_ranges[t] = (start, end)`: rows assigned to thread `t`.
    pub row_ranges: Vec<(usize, usize)>,
}

impl Plan1d {
    /// Build the plan for `nthreads` threads over `a`'s rows.
    ///
    /// The thread count is clamped to the *effective* parallelism: the
    /// chunk size is `ceil(nrows / nthreads)` (OpenMP static
    /// semantics), and only as many ranges are emitted as non-empty
    /// chunks exist. Requesting more threads than rows therefore no
    /// longer produces trailing empty `(n, n)` ranges, so
    /// [`nnz_per_thread`] and [`imbalance_factor`] average over threads
    /// that actually work, not idle phantoms.
    pub fn new(a: &CsrMatrix, nthreads: usize) -> Plan1d {
        let n = a.nrows();
        if n == 0 {
            // A single empty range keeps downstream statistics defined.
            return Plan1d {
                row_ranges: vec![(0, 0)],
            };
        }
        let chunk = n.div_ceil(nthreads.max(1)).max(1);
        // Effective thread count: the number of non-empty chunks.
        let t = n.div_ceil(chunk);
        let row_ranges = (0..t)
            .map(|i| {
                let start = (i * chunk).min(n);
                let end = ((i + 1) * chunk).min(n);
                (start, end)
            })
            .collect();
        Plan1d { row_ranges }
    }

    /// Number of threads the plan actually uses (≤ the requested
    /// count; see [`Plan1d::new`]).
    pub fn num_threads(&self) -> usize {
        self.row_ranges.len()
    }

    /// Alias for [`Plan1d::num_threads`], named for call sites that
    /// care about the requested-vs-effective distinction.
    pub fn effective_threads(&self) -> usize {
        self.row_ranges.len()
    }

    /// Nonzeros processed by each thread under this plan.
    pub fn nnz_per_thread(&self, a: &CsrMatrix) -> Vec<usize> {
        self.row_ranges
            .iter()
            .map(|&(s, e)| a.rowptr()[e] - a.rowptr()[s])
            .collect()
    }
}

/// One thread's work description in the 2D plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSpan {
    /// First nonzero index (inclusive).
    pub nnz_start: usize,
    /// Last nonzero index (exclusive).
    pub nnz_end: usize,
    /// Row containing `nnz_start`.
    pub row_start: usize,
    /// Row containing `nnz_end - 1` (inclusive bound).
    pub row_end: usize,
    /// First row owned by this thread (written directly): every row
    /// whose nonzeros all lie in the span, plus the empty rows between
    /// the previous span's last row and `row_start`.
    pub own_row_start: usize,
    /// One past the last owned row (the last span also owns the empty
    /// rows after the final nonzero).
    pub own_row_end: usize,
}

impl ThreadSpan {
    /// True if the thread has no nonzeros at all.
    pub fn is_empty(&self) -> bool {
        self.nnz_start >= self.nnz_end
    }

    /// The leading boundary row: `row_start`, when the span enters it
    /// mid-row.
    pub(crate) fn head_row(&self) -> Option<usize> {
        (self.own_row_start > self.row_start).then_some(self.row_start)
    }

    /// The trailing boundary row: `row_end`, when the span leaves it
    /// mid-row and it is not already the leading one (a span inside a
    /// single row has one partial sum, not two).
    pub(crate) fn tail_row(&self) -> Option<usize> {
        (self.own_row_end <= self.row_end && !self.is_empty()).then_some(self.row_end)
    }
}

/// Static 2D plan: equal contiguous nonzero blocks, one per thread,
/// with boundary rows (shared between adjacent threads) resolved by a
/// sequential partial-sum fixup.
///
/// Every row is either owned by exactly one span or a boundary row, so
/// the kernel needs no pass over the rows to define all of `y`.
#[derive(Debug, Clone)]
pub struct Plan2d {
    /// Per-thread spans.
    pub spans: Vec<ThreadSpan>,
    /// Rows partially covered by at least one thread, ascending; zeroed
    /// before the fixup accumulates partial sums into them.
    pub boundary_rows: Vec<usize>,
}

impl Plan2d {
    /// Build the plan for `nthreads` threads over `a`'s nonzeros.
    ///
    /// Like [`Plan1d::new`], the thread count is clamped to the
    /// effective parallelism (at most one thread per nonzero), so no
    /// empty spans are emitted for oversubscribed requests; a matrix
    /// without nonzeros gets one empty span owning every row.
    pub fn new(a: &CsrMatrix, nthreads: usize) -> Plan2d {
        let k = a.nnz();
        let n = a.nrows();
        if k == 0 {
            return Plan2d {
                spans: vec![ThreadSpan {
                    nnz_start: 0,
                    nnz_end: 0,
                    row_start: 0,
                    row_end: 0,
                    own_row_start: 0,
                    own_row_end: n,
                }],
                boundary_rows: Vec::new(),
            };
        }
        let t = nthreads.max(1).min(k);
        let rowptr = a.rowptr();
        // The (non-empty) row holding nonzero `i`: the last `r` with
        // `rowptr[r] <= i`.
        let row_of = |i: usize| rowptr.partition_point(|&p| p <= i) - 1;
        let mut spans = Vec::with_capacity(t);
        let mut boundary_rows: Vec<usize> = Vec::new();
        // One past the last row any earlier span reaches.
        let mut reached = 0;
        for i in 0..t {
            let nnz_start = k * i / t;
            let nnz_end = k * (i + 1) / t;
            let row_start = row_of(nnz_start);
            let row_end = row_of(nnz_end - 1);
            // A span starting on a row start also takes the empty rows
            // skipped since the previous span (which then ended on a
            // row end, at `reached`).
            let own_row_start = if rowptr[row_start] == nnz_start {
                reached
            } else {
                row_start + 1
            };
            let own_row_end = if i + 1 == t {
                n
            } else if rowptr[row_end + 1] == nnz_end {
                row_end + 1
            } else {
                row_end
            };
            let span = ThreadSpan {
                nnz_start,
                nnz_end,
                row_start,
                row_end,
                own_row_start,
                own_row_end: own_row_end.max(own_row_start),
            };
            // Spans ascend, so a shared row can only repeat the last.
            for r in [span.head_row(), span.tail_row()].into_iter().flatten() {
                if boundary_rows.last() != Some(&r) {
                    boundary_rows.push(r);
                }
            }
            spans.push(span);
            reached = row_end + 1;
        }
        Plan2d {
            spans,
            boundary_rows,
        }
    }

    /// Number of threads the plan was built for.
    pub fn num_threads(&self) -> usize {
        self.spans.len()
    }

    /// Nonzeros processed by each thread (equal by construction, up to
    /// rounding).
    pub fn nnz_per_thread(&self) -> Vec<usize> {
        self.spans.iter().map(|s| s.nnz_end - s.nnz_start).collect()
    }
}

/// Nonzeros per thread of a 1D row split — the quantity behind the
/// load imbalance factor of §3.2.
pub fn nnz_per_thread(a: &CsrMatrix, nthreads: usize) -> Vec<usize> {
    Plan1d::new(a, nthreads).nnz_per_thread(a)
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

    #[test]
    fn plan1d_splits_rows_evenly() {
        let a = matrix_with_row_nnz(&[1; 10]);
        let p = Plan1d::new(&a, 3);
        assert_eq!(p.row_ranges, vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(p.nnz_per_thread(&a), vec![4, 4, 2]);
    }

    #[test]
    fn plan1d_more_threads_than_rows() {
        // Oversubscription clamps to one row per thread: no empty
        // trailing ranges, so the imbalance factor sees two busy
        // threads rather than two busy plus two phantom ones.
        let a = matrix_with_row_nnz(&[2, 2]);
        let p = Plan1d::new(&a, 4);
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.effective_threads(), 2);
        assert_eq!(p.row_ranges, vec![(0, 1), (1, 2)]);
        assert_eq!(p.nnz_per_thread(&a), vec![2, 2]);
        assert!((imbalance_factor(&p.nnz_per_thread(&a)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan1d_never_emits_empty_ranges() {
        // div_ceil chunking can strand threads even when nthreads <
        // nrows (e.g. 5 rows / 4 threads -> chunks of 2 -> 3 busy
        // threads); every emitted range must be non-empty.
        for nrows in 1..20usize {
            let a = matrix_with_row_nnz(&vec![1; nrows]);
            for t in 1..25usize {
                let p = Plan1d::new(&a, t);
                assert!(p.num_threads() <= t.min(nrows), "rows={nrows} t={t}");
                for &(s, e) in &p.row_ranges {
                    assert!(s < e, "rows={nrows} t={t}: empty range ({s},{e})");
                }
                let covered: usize = p.row_ranges.iter().map(|&(s, e)| e - s).sum();
                assert_eq!(covered, nrows);
            }
        }
    }

    #[test]
    fn plan2d_clamps_to_nnz() {
        let a = matrix_with_row_nnz(&[1, 1]);
        let p = Plan2d::new(&a, 8);
        assert_eq!(p.num_threads(), 2);
        assert!(p.spans.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn imbalance_factor_detects_skew() {
        assert!((imbalance_factor(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((imbalance_factor(&[10, 5, 0]) - 2.0).abs() < 1e-12);
        assert_eq!(imbalance_factor(&[]), 1.0);
        assert_eq!(imbalance_factor(&[0, 0]), 1.0);
    }

    #[test]
    fn plan2d_balances_nnz() {
        // Skewed rows: one heavy row, many light.
        let a = matrix_with_row_nnz(&[12, 1, 1, 1, 1, 1, 1, 1, 1]); // 20 nnz
        let p = Plan2d::new(&a, 4);
        let counts = p.nnz_per_thread();
        assert_eq!(counts.iter().sum::<usize>(), 20);
        assert_eq!(counts, vec![5, 5, 5, 5]);
        assert!((imbalance_factor(&counts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan2d_span_invariants() {
        // Dense-ish rows, then empty rows before the first, between
        // spans' row ranges and after the last nonzero, then none.
        for counts in [
            vec![3, 7, 2, 9, 1, 4, 6],
            vec![0, 0, 4, 0, 0, 4, 0, 9, 0, 0],
            vec![0; 5],
        ] {
            let a = matrix_with_row_nnz(&counts);
            let rowptr = a.rowptr();
            for t in 1..=8 {
                let p = Plan2d::new(&a, t);
                for s in p.spans.iter().filter(|s| !s.is_empty()) {
                    // nnz range within the row range.
                    assert!(rowptr[s.row_start] <= s.nnz_start);
                    assert!(rowptr[s.row_end + 1] >= s.nnz_end);
                    // Owned rows fully inside the nnz range.
                    for r in s.own_row_start..s.own_row_end {
                        assert!(rowptr[r] >= s.nnz_start);
                        assert!(rowptr[r + 1] <= s.nnz_end);
                    }
                }
                // Every row is owned by exactly one span or is a
                // boundary row, never both: the kernel relies on this
                // to define all of `y` without a pass over the rows.
                let mut owners = vec![0usize; a.nrows()];
                for s in &p.spans {
                    for r in s.own_row_start..s.own_row_end {
                        owners[r] += 1;
                    }
                }
                for (r, &n) in owners.iter().enumerate() {
                    let boundary = p.boundary_rows.contains(&r);
                    assert_eq!(n + boundary as usize, 1, "{counts:?} t={t}: row {r}");
                }
                assert!(p.boundary_rows.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn plan2d_single_huge_row_spanning_threads() {
        let a = matrix_with_row_nnz(&[100]);
        let p = Plan2d::new(&a, 4);
        assert_eq!(p.boundary_rows, vec![0]);
        for s in &p.spans {
            assert_eq!(
                s.own_row_start, s.own_row_end,
                "no thread owns the row fully"
            );
        }
    }

    #[test]
    fn plan2d_with_empty_rows() {
        let a = matrix_with_row_nnz(&[0, 5, 0, 5, 0]);
        let p = Plan2d::new(&a, 2);
        let counts = p.nnz_per_thread();
        assert_eq!(counts, vec![5, 5]);
    }

    #[test]
    fn plan2d_more_threads_than_nnz() {
        let a = matrix_with_row_nnz(&[1, 1]);
        let p = Plan2d::new(&a, 8);
        assert_eq!(p.nnz_per_thread().iter().sum::<usize>(), 2);
    }
}
