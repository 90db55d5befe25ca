//! Nested dissection ordering [8, 14].
//!
//! A vertex separator splits the graph into two halves; the halves are
//! ordered first (recursively) and the separator vertices are numbered
//! last. Small leaf subgraphs are ordered with minimum degree, the same
//! hybrid METIS's `METIS_NodeND` uses. Small separators at every level
//! keep Cholesky fill low (§2.1.2).

use crate::amd::amd_order_on;
use crate::exec::ReorderExec;
use crate::traits::{ReorderAlgorithm, ReorderResult};
use partition::vertex_separator;
use sparsegraph::{Graph, LocalIds};
use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Nested dissection reordering.
#[derive(Debug, Clone, Copy)]
pub struct Nd {
    /// Subgraphs at or below this size are ordered with minimum degree
    /// instead of further dissection.
    pub leaf_size: usize,
    /// Imbalance tolerance for the separator bisections.
    pub ubfactor: f64,
    /// RNG seed threaded into the partitioner.
    pub seed: u64,
}

impl Default for Nd {
    fn default() -> Self {
        Nd {
            leaf_size: 64,
            ubfactor: 1.10,
            seed: 0xD15EC7,
        }
    }
}

impl Nd {
    /// Compute the nested dissection order of a graph with leaf AMD
    /// orderings on the given execution context. The dissection itself is
    /// sequential; the leaves' round-based quotient-graph updates run
    /// on `rx`'s executor. The order is byte-identical for every
    /// executor (see [`amd_order_on`]).
    fn dissection_order_on(&self, g: &Graph, rx: &ReorderExec<'_>) -> Vec<u32> {
        let n = g.num_vertices();
        let vertices: Vec<u32> = (0..n as u32).collect();
        let mut order = Vec::with_capacity(n);
        let mut ids = LocalIds::default();
        self.recurse(g, &vertices, self.seed, &mut order, rx, &mut ids);
        debug_assert_eq!(order.len(), n);
        order
    }

    /// Append the order of the subgraph induced by `vertices`
    /// (ascending) to `order`; `ids` is the one global→local map every
    /// node of the recursion extracts its subgraph with.
    fn recurse(
        &self,
        g_full: &Graph,
        vertices: &[u32],
        seed: u64,
        order: &mut Vec<u32>,
        rx: &ReorderExec<'_>,
        ids: &mut LocalIds,
    ) {
        let sub = g_full.subgraph(vertices, ids);
        if vertices.len() > self.leaf_size {
            let mut sep = vertex_separator(&sub, self.ubfactor, seed);
            // A degenerate separator (e.g. a clique where one side is
            // empty) stops the dissection: minimum degree orders the
            // rest below.
            if !sep.left.is_empty() && !sep.right.is_empty() {
                drop(sub);
                let parts = [&mut sep.left, &mut sep.right, &mut sep.separator];
                for l in parts.into_iter().flat_map(|p| p.iter_mut()) {
                    *l = vertices[*l as usize];
                }
                let seed = seed.wrapping_mul(0x9E37);
                self.recurse(g_full, &sep.left, seed.wrapping_add(11), order, rx, ids);
                self.recurse(g_full, &sep.right, seed.wrapping_add(12), order, rx, ids);
                // Separator vertices are numbered last at this level.
                order.extend_from_slice(&sep.separator);
                return;
            }
        }
        let local = amd_order_on(&sub, true, 0, rx).0;
        order.extend(local.iter().map(|&l| vertices[l as usize]));
    }
}

impl ReorderAlgorithm for Nd {
    fn name(&self) -> &'static str {
        "ND"
    }

    fn compute(&self, a: &CsrMatrix) -> Result<ReorderResult, SparseError> {
        self.compute_on(a, &ReorderExec::sequential())
    }

    fn compute_on(
        &self,
        a: &CsrMatrix,
        rx: &ReorderExec<'_>,
    ) -> Result<ReorderResult, SparseError> {
        let g = Graph::from_matrix(a)?;
        let order = self.dissection_order_on(&g, rx);
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

    fn symbolic_fill(a: &CsrMatrix, perm: &Permutation) -> usize {
        let b = a.permute_symmetric(perm).unwrap();
        let n = b.nrows();
        let mut rows: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
        for (i, j, _) in b.iter() {
            if j > i {
                rows[i].insert(j);
            }
        }
        let mut fill = 0usize;
        for k in 0..n {
            let nbrs: Vec<usize> = rows[k].iter().copied().collect();
            for (x, &i) in nbrs.iter().enumerate() {
                for &j in &nbrs[x + 1..] {
                    if rows[i].insert(j) {
                        fill += 1;
                    }
                }
            }
        }
        fill
    }

    #[test]
    fn nd_is_a_valid_permutation() {
        let a = grid_matrix(12);
        let r = Nd::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 144);
        assert!(r.symmetric);
        r.apply(&a).unwrap().validate().unwrap();
    }

    #[test]
    fn nd_reduces_fill_versus_natural_on_grid() {
        let a = grid_matrix(14);
        let natural = Permutation::identity(196);
        let nd = Nd::default().compute(&a).unwrap().perm;
        let fill_nat = symbolic_fill(&a, &natural);
        let fill_nd = symbolic_fill(&a, &nd);
        assert!(
            fill_nd < fill_nat,
            "ND fill {fill_nd} should beat natural {fill_nat}"
        );
    }

    #[test]
    fn nd_small_graph_falls_back_to_amd() {
        let a = grid_matrix(4); // 16 vertices < leaf_size
        let r = Nd::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 16);
    }

    #[test]
    fn nd_deterministic() {
        let a = grid_matrix(10);
        let p1 = Nd::default().compute(&a).unwrap().perm;
        let p2 = Nd::default().compute(&a).unwrap().perm;
        assert_eq!(p1, p2);
    }

    #[test]
    fn nd_on_disconnected_graph() {
        // Two grids side by side with no coupling, plus isolated rows.
        let g = grid_matrix(6);
        let n = g.nrows();
        let mut coo = CooMatrix::new(2 * n + 3, 2 * n + 3);
        for (i, j, v) in g.iter() {
            coo.push(i, j, v);
            coo.push(n + i, n + j, v);
        }
        for k in 0..3 {
            coo.push(2 * n + k, 2 * n + k, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let r = Nd::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 2 * n + 3);
        r.apply(&a).unwrap().validate().unwrap();
    }
}
