//! Separated block diagonal (SBD) ordering, after Yzelman and
//! Bisseling \[27\] (§2.1.3 of the paper).
//!
//! The column-net hypergraph of the matrix is bisected recursively;
//! at each level the rows incident to *cut* nets form a separator block
//! placed between the two pure blocks:
//!
//! ```text
//! [ pure-left | separator | pure-right ]
//! ```
//!
//! Recursing within the pure blocks yields the cache-oblivious
//! separated-block-diagonal form: any contiguous range of rows touches
//! a limited column range plus a small number of separators, which is
//! what gives SpMV its cache-oblivious locality. Like GP/HP the
//! permutation is applied symmetrically.

use crate::traits::{ReorderAlgorithm, ReorderResult};
use partition::{partition_hypergraph, HypergraphPartitionConfig};
use sparsegraph::Hypergraph;
use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Separated block diagonal reordering (hypergraph-based).
#[derive(Debug, Clone)]
pub struct Sbd {
    /// Recursion stops below this many rows.
    pub leaf_size: usize,
    /// Imbalance tolerance per bisection.
    pub ubfactor: f64,
    /// RNG seed threaded into the partitioner.
    pub seed: u64,
}

impl Default for Sbd {
    fn default() -> Self {
        Sbd {
            leaf_size: 64,
            ubfactor: 1.10,
            seed: 0x5BD,
        }
    }
}

impl Sbd {
    fn recurse(&self, a: &CsrMatrix, rows: &[u32], seed: u64, order: &mut Vec<u32>) {
        if rows.len() <= self.leaf_size {
            order.extend_from_slice(rows);
            return;
        }
        // Build the sub-matrix column-net structure implicitly: a net
        // (column) is cut iff rows touching it land in both parts.
        let sub = submatrix_rows(a, rows);
        let h = Hypergraph::column_net(&sub);
        let cfg = HypergraphPartitionConfig {
            num_parts: 2,
            ubfactor: self.ubfactor,
            seed: seed ^ self.seed,
        };
        let parts = partition_hypergraph(&h, &cfg);
        // Classify columns by the parts of their rows.
        let mut col_mask = vec![0u8; sub.ncols()]; // bit0: part0, bit1: part1
        for (local, &p) in parts.iter().enumerate() {
            let (cols, _) = sub.row(local);
            for &c in cols {
                col_mask[c as usize] |= 1 << p;
            }
        }
        // A row is a separator row if it touches any cut column.
        let mut left = Vec::new();
        let mut sep = Vec::new();
        let mut right = Vec::new();
        for (local, &global) in rows.iter().enumerate() {
            let (cols, _) = sub.row(local);
            let boundary = cols.iter().any(|&c| col_mask[c as usize] == 0b11);
            if boundary {
                sep.push(global);
            } else if parts[local] == 0 {
                left.push(global);
            } else {
                right.push(global);
            }
        }
        // Degenerate split (everything boundary): stop recursing.
        if left.is_empty() && right.is_empty() {
            order.extend_from_slice(rows);
            return;
        }
        self.recurse(a, &left, seed.wrapping_mul(0x9E37).wrapping_add(21), order);
        order.extend_from_slice(&sep);
        self.recurse(a, &right, seed.wrapping_mul(0x9E37).wrapping_add(22), order);
    }
}

/// Extract the row-induced submatrix with columns restricted to those
/// present (renumbered compactly) so nets vanish when their rows leave.
fn submatrix_rows(a: &CsrMatrix, rows: &[u32]) -> CsrMatrix {
    let mut col_map = std::collections::HashMap::new();
    let mut rowptr = vec![0usize];
    let mut colidx: Vec<u32> = Vec::new();
    for &r in rows {
        let (cols, _) = a.row(r as usize);
        for &c in cols {
            let next_id = col_map.len() as u32;
            let id = *col_map.entry(c).or_insert(next_id);
            colidx.push(id);
        }
        rowptr.push(colidx.len());
    }
    // Sort columns within each row (renumbering broke the order).
    for w in 0..rows.len() {
        colidx[rowptr[w]..rowptr[w + 1]].sort_unstable();
    }
    let ncols = col_map.len().max(1);
    let nnz = colidx.len();
    CsrMatrix::from_parts_unchecked(rows.len(), ncols, rowptr, colidx, vec![1.0; nnz])
}

impl ReorderAlgorithm for Sbd {
    fn name(&self) -> &'static str {
        "SBD"
    }

    fn compute(&self, a: &CsrMatrix) -> Result<ReorderResult, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let rows: Vec<u32> = (0..a.nrows() as u32).collect();
        let mut order = Vec::with_capacity(a.nrows());
        self.recurse(a, &rows, 1, &mut order);
        Ok(ReorderResult {
            perm: Permutation::from_new_to_old(order)?,
            symmetric: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn banded(n: usize, half_bw: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(half_bw)..(i + half_bw + 1).min(n) {
                coo.push(i, j, 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn sbd_is_valid_symmetric_permutation() {
        let a = banded(400, 3);
        let r = Sbd::default().compute(&a).unwrap();
        assert!(r.symmetric);
        assert_eq!(r.perm.len(), 400);
        let b = r.apply(&a).unwrap();
        b.validate().unwrap();
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn sbd_reduces_offdiagonal_nnz_on_scrambled_band() {
        let a = banded(600, 2);
        // Scramble.
        let mut order: Vec<u32> = (0..600).collect();
        let mut state = 11u64;
        for i in (1..600usize).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(3);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        let s = a.permute_symmetric(&p).unwrap();
        let offdiag = |m: &CsrMatrix, t: usize| {
            let block = m.nrows().div_ceil(t);
            m.iter().filter(|&(i, j, _)| i / block != j / block).count()
        };
        let r = Sbd::default().compute(&s).unwrap();
        let b = r.apply(&s).unwrap();
        assert!(
            offdiag(&b, 8) < offdiag(&s, 8) / 2,
            "SBD should restore block-diagonal shape: {} -> {}",
            offdiag(&s, 8),
            offdiag(&b, 8)
        );
    }

    #[test]
    fn sbd_small_matrix_is_identity_order() {
        let a = banded(30, 1); // below leaf_size
        let r = Sbd::default().compute(&a).unwrap();
        assert!(r.perm.is_identity());
    }

    #[test]
    fn sbd_deterministic() {
        let a = banded(300, 2);
        let p1 = Sbd::default().compute(&a).unwrap().perm;
        let p2 = Sbd::default().compute(&a).unwrap().perm;
        assert_eq!(p1, p2);
    }

    #[test]
    fn sbd_rejects_rectangular() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(2, 3));
        assert!(Sbd::default().compute(&a).is_err());
    }
}
