//! Hypergraph partitioning (HP) reordering — PaToH-style column-net
//! partitioning with the cut-net metric (§3.3).
//!
//! Rows become vertices and columns become nets; the hypergraph is
//! partitioned into `parts` parts (the paper fixes 128-way
//! partitioning) with the cut-net objective and the same row-balance
//! criterion as GP. Rows and columns are then renumbered by grouping
//! parts, exactly as in GP; the permutation is applied symmetrically.

use crate::exec::ReorderExec;
use crate::gp::partition_to_order;
use crate::traits::{ReorderAlgorithm, ReorderResult};
use partition::partition_hypergraph;
use sparsegraph::Hypergraph;
use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Hypergraph-partitioning-based reordering.
#[derive(Debug, Clone)]
pub struct Hp {
    parts: usize,
}

impl Hp {
    /// An HP reordering into `parts` parts with the cut-net metric (the
    /// paper adopts 128).
    pub fn new(parts: usize) -> Self {
        Hp { parts }
    }
}

impl ReorderAlgorithm for Hp {
    fn name(&self) -> &'static str {
        "HP"
    }

    fn compute_on(&self, a: &CsrMatrix, _: &ReorderExec<'_>) -> Result<ReorderResult, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let h = Hypergraph::column_net(a);
        let part_of = partition_hypergraph(&h, self.parts);
        let order = partition_to_order(&part_of);
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

    fn shuffle(a: &CsrMatrix, seed: u64) -> CsrMatrix {
        let n = a.nrows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        a.permute_symmetric(&p).unwrap()
    }

    fn offdiag_nnz(a: &CsrMatrix, t: usize) -> usize {
        let n = a.nrows();
        let block = n.div_ceil(t);
        a.iter().filter(|&(i, j, _)| i / block != j / block).count()
    }

    #[test]
    fn hp_produces_valid_symmetric_permutation() {
        let a = shuffle(&banded(200, 2), 5);
        let r = Hp::new(4).compute(&a).unwrap();
        assert!(r.symmetric);
        assert_eq!(r.perm.len(), 200);
        let b = r.apply(&a).unwrap();
        b.validate().unwrap();
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn hp_reduces_offdiagonal_nonzeros() {
        let a = shuffle(&banded(240, 2), 17);
        let t = 4;
        let before = offdiag_nnz(&a, t);
        let r = Hp::new(t).compute(&a).unwrap();
        let b = r.apply(&a).unwrap();
        let after = offdiag_nnz(&b, t);
        assert!(
            after < before,
            "HP should reduce off-diagonal nnz: {before} -> {after}"
        );
    }

    #[test]
    fn hp_rejects_rectangular() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(3, 5));
        assert!(Hp::new(2).compute(&a).is_err());
    }

    #[test]
    fn hp_works_on_unsymmetric_patterns_without_symmetrisation() {
        // HP applies naturally to unsymmetric matrices (§3.3).
        let mut coo = CooMatrix::new(60, 60);
        for i in 0..60 {
            coo.push(i, i, 1.0);
            coo.push(i, (i * 7 + 3) % 60, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let r = Hp::new(4).compute(&a).unwrap();
        assert_eq!(r.perm.len(), 60);
        r.apply(&a).unwrap().validate().unwrap();
    }
}
