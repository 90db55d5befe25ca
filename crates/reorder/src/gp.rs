//! Graph partitioning (GP) reordering — METIS-style multilevel
//! recursive bisection with the edge-cut objective (§3.3).
//!
//! The matrix graph is partitioned into `parts` parts balanced on
//! the number of rows (unweighted vertices, the paper's configuration),
//! then rows and columns are renumbered by grouping parts together:
//! all rows of part 0 first, then part 1, and so on, preserving the
//! original relative order inside each part. Off-diagonal blocks of the
//! reordered matrix then correspond exactly to cut edges, which is why
//! GP directly minimises the off-diagonal nonzero count (§4.5).

use crate::exec::ReorderExec;
use crate::traits::{ReorderAlgorithm, ReorderResult};
use partition::partition_graph;
use sparsegraph::Graph;
use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Graph-partitioning-based reordering.
#[derive(Debug, Clone)]
pub struct Gp {
    parts: usize,
}

impl Gp {
    /// A GP reordering into `parts` parts, row-balanced with the
    /// edge-cut objective as in the paper. `parts` should match the
    /// core count of the execution platform (the paper partitions into
    /// 16, 32, 48, 64, 72 or 128 parts, matching Table 2).
    pub fn new(parts: usize) -> Self {
        Gp { parts }
    }
}

/// Turn a part assignment into an ordering that groups parts
/// contiguously, preserving original order within each part: a stable
/// sort of the ascending vertex ids by part, whose scratch is O(n)
/// however many parts there are.
pub(crate) fn partition_to_order(part_of: &[u32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..part_of.len() as u32).collect();
    order.sort_by_key(|&v| part_of[v as usize]);
    order
}

impl ReorderAlgorithm for Gp {
    fn name(&self) -> &'static str {
        "GP"
    }

    fn compute_on(&self, a: &CsrMatrix, _: &ReorderExec<'_>) -> Result<ReorderResult, SparseError> {
        let g = Graph::from_matrix(a)?;
        let part_of = partition_graph(&g, self.parts);
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

    fn grid_matrix(n: usize) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * n + c;
        let mut coo = CooMatrix::new(n * n, n * n);
        for r in 0..n {
            for c in 0..n {
                let i = idx(r, c);
                coo.push(i, i, 4.0);
                if r + 1 < n {
                    coo.push_symmetric(i, idx(r + 1, c), -1.0);
                }
                if c + 1 < n {
                    coo.push_symmetric(i, idx(r, c + 1), -1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Off-diagonal nonzero count for an even t-way row split (§3.2).
    fn offdiag_nnz(a: &CsrMatrix, t: usize) -> usize {
        let n = a.nrows();
        let block = n.div_ceil(t);
        a.iter().filter(|&(i, j, _)| i / block != j / block).count()
    }

    /// An `n × n` grid matrix under a seeded symmetric shuffle.
    fn shuffled_grid(n: usize, seed: u64) -> CsrMatrix {
        let a = grid_matrix(n);
        let n = a.nrows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        a.permute_symmetric(&p).unwrap()
    }

    #[test]
    fn gp_reduces_offdiagonal_nonzeros_on_shuffled_grid() {
        // Shuffle a grid matrix, then check GP pulls nonzeros back into
        // diagonal blocks.
        let shuffled = shuffled_grid(16, 99); // 256 rows

        let t = 4;
        let gp = Gp::new(t);
        let r = gp.compute(&shuffled).unwrap();
        let b = r.apply(&shuffled).unwrap();
        let before = offdiag_nnz(&shuffled, t);
        let after = offdiag_nnz(&b, t);
        assert!(
            after < before / 2,
            "GP should cut off-diagonal nnz at least in half: {before} -> {after}"
        );
    }

    #[test]
    fn partition_to_order_groups_parts() {
        let order = partition_to_order(&[1, 0, 1, 0, 2]);
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn gp_permutation_is_valid_and_symmetric() {
        let a = grid_matrix(8);
        let r = Gp::new(4).compute(&a).unwrap();
        assert!(r.symmetric);
        assert_eq!(r.perm.len(), 64);
        let b = r.apply(&a).unwrap();
        b.validate().unwrap();
        assert_eq!(b.nnz(), a.nnz());
    }

    /// Zero parts is one part, for GP and HP alike — the clamp the
    /// partitioners apply — not an index into an empty bucket list. And
    /// 2³² parts are `u32::MAX` parts, not a part range that truncates
    /// to empty and bisects until the stack overflows.
    #[test]
    fn zero_parts_order_as_one_part() {
        let a = shuffled_grid(12, 7);
        let order = |r: ReorderResult| r.perm.order().to_vec();
        let most = u32::MAX as usize;
        for (parts, as_parts) in [(0, 1), (1 << 32, most)] {
            assert_eq!(
                order(Gp::new(parts).compute(&a).unwrap()),
                order(Gp::new(as_parts).compute(&a).unwrap())
            );
            assert_eq!(
                order(crate::Hp::new(parts).compute(&a).unwrap()),
                order(crate::Hp::new(as_parts).compute(&a).unwrap())
            );
        }
    }

    #[test]
    fn gp_single_part_is_identity() {
        let a = grid_matrix(4);
        let r = Gp::new(1).compute(&a).unwrap();
        assert!(r.perm.is_identity());
    }
}
