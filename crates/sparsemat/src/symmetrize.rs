use crate::{ColIdx, CsrMatrix, SparseError};
use team::Exec;

/// Rows per chunk for the parallel row loops in this crate. Row work
/// is O(row nnz), so a few hundred rows amortise a chunk claim while
/// still load-balancing skewed matrices.
pub(crate) const PAR_ROW_GRAIN: usize = 512;

/// True if the sparsity pattern of a square matrix is symmetric
/// (an entry at `(i, j)` implies an entry at `(j, i)`; values are
/// ignored) — precisely: if the pattern of `a.transpose()` equals
/// `a`'s, array for array, for any `CsrMatrix` (unsorted or duplicate
/// columns included).
///
/// The transpose is never built. It would fill its row `j` with the
/// rows `i` that store column `j`, in storage order; so walk the
/// entries in that order with one cursor per row, starting at the
/// row's first entry, and require entry `(i, j)` to find `i` under
/// row `j`'s cursor before advancing it. The first mismatch, or a
/// cursor at its row's end, answers `false`. If every entry passes,
/// each of the `nnz` visits consumed a slot of its own inside the
/// right row, so every row is consumed exactly — the transpose's row
/// pointers are `a`'s too.
pub fn is_structurally_symmetric(a: &CsrMatrix) -> bool {
    if !a.is_square() {
        return false;
    }
    let (rowptr, colidx) = (a.rowptr(), a.colidx());
    let mut cursor = rowptr[..a.nrows()].to_vec();
    for i in 0..a.nrows() {
        for &j in &colidx[rowptr[i]..rowptr[i + 1]] {
            let at = cursor[j as usize];
            if at == rowptr[j as usize + 1] || colidx[at] as usize != i {
                return false;
            }
            cursor[j as usize] = at + 1;
        }
    }
    true
}

/// The structural symmetrisation `A + Aᵀ` (pattern only, values 1.0).
///
/// The symmetric reorderings in the paper (RCM, AMD, ND, GP) operate on
/// the undirected graph of a structurally symmetric matrix; for
/// unsymmetric inputs, §3.3 prescribes using the pattern of `A + Aᵀ`.
/// Diagonal entries are preserved as-is; the result has a symmetric
/// pattern by construction.
pub fn symmetrize_pattern(a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
    symmetrize_pattern_on(a, Exec::Sequential)
}

/// [`symmetrize_pattern`] on an executor: a two-pass count-then-fill
/// transpose merge.
///
/// Pass 1 counts each merged row's length in parallel; a sequential
/// prefix sum turns the counts into row pointers; pass 2 re-runs the
/// sorted two-pointer merge of `A.row(i)` and `Aᵀ.row(i)` directly
/// into each row's pre-computed segment. Every row is filled
/// independently at offsets fixed by the prefix sum, so the output is
/// byte-identical for every executor and team size.
pub fn symmetrize_pattern_on(a: &CsrMatrix, exec: Exec<'_>) -> Result<CsrMatrix, SparseError> {
    if !a.is_square() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    let t = a.transpose();
    // Pass 1: merged row lengths.
    let mut rowptr = vec![0usize; n + 1];
    exec.for_each_window(
        n,
        PAR_ROW_GRAIN,
        &mut rowptr[1..],
        |i| i,
        |rows, out| {
            for (slot, i) in out.iter_mut().zip(rows) {
                *slot = merged_row_len(a.row(i).0, t.row(i).0);
            }
        },
    );
    // Prefix sum: counts become row pointers.
    for i in 0..n {
        rowptr[i + 1] += rowptr[i];
    }
    let nnz = rowptr[n];
    // Pass 2: merge each row into its segment.
    let mut colidx: Vec<ColIdx> = vec![0; nnz];
    exec.for_each_window(
        n,
        PAR_ROW_GRAIN,
        &mut colidx[..],
        |i| rowptr[i],
        |rows, out| {
            let base = rowptr[rows.start];
            for i in rows {
                let row = rowptr[i] - base..rowptr[i + 1] - base;
                merge_rows_into(&mut out[row], a.row(i).0, t.row(i).0);
            }
        },
    );
    Ok(CsrMatrix::from_parts_unchecked(
        n,
        n,
        rowptr,
        colidx,
        vec![1.0; nnz],
    ))
}

/// Number of distinct column indices in the union of two sorted rows.
fn merged_row_len(ca: &[ColIdx], cb: &[ColIdx]) -> usize {
    let (mut p, mut q, mut len) = (0, 0, 0);
    while p < ca.len() && q < cb.len() {
        match ca[p].cmp(&cb[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                p += 1;
                q += 1;
            }
        }
        len += 1;
    }
    len + (ca.len() - p) + (cb.len() - q)
}

/// Two-pointer merge of two sorted rows into `out`, which must have
/// exactly [`merged_row_len`] elements.
fn merge_rows_into(out: &mut [ColIdx], ca: &[ColIdx], cb: &[ColIdx]) {
    let (mut p, mut q, mut k) = (0, 0, 0);
    while p < ca.len() && q < cb.len() {
        match ca[p].cmp(&cb[q]) {
            std::cmp::Ordering::Less => {
                out[k] = ca[p];
                p += 1;
            }
            std::cmp::Ordering::Greater => {
                out[k] = cb[q];
                q += 1;
            }
            std::cmp::Ordering::Equal => {
                out[k] = ca[p];
                p += 1;
                q += 1;
            }
        }
        k += 1;
    }
    for &c in &ca[p..] {
        out[k] = c;
        k += 1;
    }
    for &c in &cb[q..] {
        out[k] = c;
        k += 1;
    }
    debug_assert_eq!(k, out.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn symmetric_matrix_detected() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, 2.0);
        coo.push(2, 2, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        assert!(is_structurally_symmetric(&a));
    }

    #[test]
    fn unsymmetric_matrix_detected() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(2, 2, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        assert!(!is_structurally_symmetric(&a));
    }

    #[test]
    fn rectangular_is_not_symmetric() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        assert!(!is_structurally_symmetric(&a));
    }

    #[test]
    fn symmetrize_adds_transpose_entries() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(0, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let s = symmetrize_pattern(&a).unwrap();
        s.validate().unwrap();
        assert!(is_structurally_symmetric(&s));
        assert_eq!(s.nnz(), 5); // (0,0), (0,1), (1,0), (1,2), (2,1)
        assert!(s.get(1, 0).is_some());
        assert!(s.get(2, 1).is_some());
    }

    #[test]
    fn symmetrize_is_idempotent_on_symmetric_patterns() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push_symmetric(0, 3, 1.0);
        coo.push_symmetric(1, 2, 1.0);
        coo.push(2, 2, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let s = symmetrize_pattern(&a).unwrap();
        assert!(s.same_pattern(&a));
    }

    #[test]
    fn symmetrize_rejects_rectangular() {
        let coo = CooMatrix::new(2, 3);
        let a = CsrMatrix::from_coo(&coo);
        assert!(symmetrize_pattern(&a).is_err());
    }

    #[test]
    fn parallel_symmetrize_matches_sequential() {
        // Deterministic scattered unsymmetric patterns: one chunk, and
        // three ragged chunks whose vertices 3 mod 5 are isolated (empty
        // rows, so empty segments in the fill).
        for (n, keep) in [
            (200, (|_| true) as fn(usize) -> bool),
            (1300, |v| v % 5 != 3),
        ] {
            let mut coo = CooMatrix::new(n, n);
            let mut state = 0x9e3779b97f4a7c15u64;
            for i in 0..n {
                for _ in 0..6 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let j = (state >> 33) as usize % n;
                    if keep(i) && keep(j) {
                        coo.push(i, j, 1.0);
                    }
                }
            }
            let a = CsrMatrix::from_coo(&coo);
            let seq = symmetrize_pattern(&a).unwrap();
            let registry = telemetry::Registry::new_arc();
            for size in [1usize, 2, 4] {
                let t = team::ThreadTeam::new_in(&registry, size);
                let par = symmetrize_pattern_on(&a, Exec::Team(&t)).unwrap();
                assert_eq!(seq.rowptr(), par.rowptr(), "n {n} team size {size}");
                assert_eq!(seq.colidx(), par.colidx(), "n {n} team size {size}");
            }
        }
    }
}
