//! Nested dissection ordering [8, 14].
//!
//! A vertex separator splits the graph into two halves; the halves are
//! ordered first (recursively) and the separator vertices are numbered
//! last. Small leaf subgraphs are ordered with minimum degree, the same
//! hybrid METIS's `METIS_NodeND` uses. Small separators at every level
//! keep Cholesky fill low (§2.1.2).

use crate::amd::{amd_order_on, AmdWork};
use crate::exec::{build_ordering_graph, ReorderExec};
use crate::traits::{ReorderAlgorithm, ReorderResult};
use partition::{vertex_separator, BisectWork};
use sparsegraph::{Graph, SubgraphWork};
use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Subgraphs at or below this size are ordered with minimum degree
/// instead of further dissection.
const LEAF_SIZE: usize = 64;

/// RNG seed threaded into the partitioner.
const SEED: u64 = 0xD15EC7;

/// Nested dissection reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nd;

/// The workspaces one dissection's nodes share: subgraph extraction,
/// the separators' bisections, the leaves' AMD, and the list a node's
/// vertices are regrouped through.
#[derive(Default)]
struct NdWork {
    sub: SubgraphWork,
    bisect: BisectWork,
    amd: AmdWork,
    regrouped: Vec<u32>,
}

/// Compute the nested dissection order of a graph with leaf AMD
/// orderings on the given execution context. The dissection itself is
/// sequential; the leaves' round-based quotient-graph updates run
/// on `rx`'s executor. The order is byte-identical for every
/// executor (see [`amd_order_on`]).
fn dissection_order_on(g: &Graph, rx: &ReorderExec<'_>) -> Vec<u32> {
    let n = g.num_vertices();
    let mut vertices: Vec<u32> = (0..n as u32).collect();
    let mut order = Vec::with_capacity(n);
    recurse(
        g,
        &mut vertices,
        SEED,
        &mut order,
        rx,
        &mut NdWork::default(),
    );
    debug_assert_eq!(order.len(), n);
    order
}

/// Append the order of the subgraph induced by `vertices`
/// (ascending) to `order`, regrouping `vertices` in place as the
/// dissection splits it.
fn recurse(
    g_full: &Graph,
    vertices: &mut [u32],
    seed: u64,
    order: &mut Vec<u32>,
    rx: &ReorderExec<'_>,
    ws: &mut NdWork,
) {
    let sub = g_full.subgraph(vertices, &mut ws.sub);
    if vertices.len() > LEAF_SIZE {
        let sep = vertex_separator(sub, seed, &mut ws.bisect);
        // A degenerate separator (e.g. a clique where one side is
        // empty) stops the dissection: minimum degree orders the
        // rest below.
        if !sep.left.is_empty() && !sep.right.is_empty() {
            // Left, right, separator, each still ascending in global
            // ids, since the local ones follow `vertices`.
            let (left, right) = (sep.left.len(), sep.right.len());
            let local = sep.left.iter().chain(&sep.right).chain(&sep.separator);
            ws.regrouped.clear();
            ws.regrouped.extend(local.map(|&l| vertices[l as usize]));
            vertices.copy_from_slice(&ws.regrouped);
            let (left_part, rest) = vertices.split_at_mut(left);
            let (right_part, separator) = rest.split_at_mut(right);
            let seed = seed.wrapping_mul(0x9E37);
            recurse(g_full, left_part, seed.wrapping_add(11), order, rx, ws);
            recurse(g_full, right_part, seed.wrapping_add(12), order, rx, ws);
            // Separator vertices are numbered last at this level.
            order.extend_from_slice(separator);
            return;
        }
    }
    amd_order_on(sub, 0, rx, &mut ws.amd);
    order.extend(ws.amd.order().iter().map(|&l| vertices[l as usize]));
}

impl ReorderAlgorithm for Nd {
    fn name(&self) -> &'static str {
        "ND"
    }

    fn compute_on(
        &self,
        a: &CsrMatrix,
        rx: &ReorderExec<'_>,
    ) -> Result<ReorderResult, SparseError> {
        let g = build_ordering_graph(a, rx)?;
        let order = dissection_order_on(&g, rx);
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
        let r = Nd.compute(&a).unwrap();
        assert_eq!(r.perm.len(), 144);
        assert!(r.symmetric);
        r.apply(&a).unwrap().validate().unwrap();
    }

    #[test]
    fn nd_reduces_fill_versus_natural_on_grid() {
        let a = grid_matrix(14);
        let natural = Permutation::identity(196);
        let nd = Nd.compute(&a).unwrap().perm;
        let fill_nat = symbolic_fill(&a, &natural);
        let fill_nd = symbolic_fill(&a, &nd);
        assert!(
            fill_nd < fill_nat,
            "ND fill {fill_nd} should beat natural {fill_nat}"
        );
    }

    #[test]
    fn nd_small_graph_falls_back_to_amd() {
        let a = grid_matrix(4); // 16 vertices < LEAF_SIZE
        let r = Nd.compute(&a).unwrap();
        assert_eq!(r.perm.len(), 16);
    }

    #[test]
    fn nd_deterministic() {
        let a = grid_matrix(10);
        let p1 = Nd.compute(&a).unwrap().perm;
        let p2 = Nd.compute(&a).unwrap().perm;
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
        let r = Nd.compute(&a).unwrap();
        assert_eq!(r.perm.len(), 2 * n + 3);
        r.apply(&a).unwrap().validate().unwrap();
    }
}
