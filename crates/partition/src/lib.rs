#![allow(clippy::needless_range_loop)]

//! Multilevel graph and hypergraph partitioning.
//!
//! This crate is the from-scratch stand-in for METIS \[18\] and PaToH \[3\]
//! used by the GP, HP and ND reorderings of the paper. It implements the
//! classic multilevel paradigm:
//!
//! 1. **Coarsening** — heavy-edge matching contracts the graph until it
//!    is small;
//! 2. **Initial partitioning** — greedy graph growing from several
//!    starting vertices on the coarsest graph;
//! 3. **Uncoarsening** — the partition is projected back level by level
//!    and improved with boundary Fiduccia–Mattheyses refinement.
//!
//! A greedy vertex-cover pass converts an edge-cut bisection into the
//! vertex separator needed by nested dissection.
//!
//! The hypergraph partitioner mirrors the same structure on the
//! column-net model with the cut-net objective (the PaToH configuration
//! chosen in §3.3 of the paper). One recursive-bisection driver extends
//! both models' 2-way kernels to `k` parts.

mod coarsen;
mod fm;
mod hgraph;
mod initial;
mod recursive;
mod rng;
mod separator;

pub use hgraph::partition_hypergraph;
pub use recursive::{partition_graph, BisectWork};
pub use separator::{vertex_separator, Separator};

use sparsegraph::Graph;

/// A 2-way partition of a graph: part id (0 or 1) per vertex plus the
/// achieved edge cut and part weights.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bisection {
    /// Part assignment per vertex (0 or 1).
    pub part_of: Vec<u8>,
    /// Total weight of cut edges.
    pub cut: i64,
    /// Vertex weight of part 0 and part 1.
    pub part_weights: [i64; 2],
}

impl Bisection {
    /// Recompute cut and part weights from scratch (O(E)).
    #[cfg(test)]
    pub fn recompute(g: &Graph, part_of: Vec<u8>) -> Bisection {
        let (cut, part_weights) = cut_and_weights(g, &part_of);
        Bisection {
            part_of,
            cut,
            part_weights,
        }
    }

    /// Whether the cut and part weights are those of `part_of` — the
    /// invariant the partitioner keeps without recomputing them.
    pub(crate) fn is_exact(&self, g: &Graph) -> bool {
        cut_and_weights(g, &self.part_of) == (self.cut, self.part_weights)
    }
}

/// The load imbalance of the heavier of two parts of `part_weights`
/// relative to its target weight share.
pub(crate) fn imbalance(part_weights: [i64; 2], target: [i64; 2]) -> f64 {
    let i0 = part_weights[0] as f64 / target[0].max(1) as f64;
    let i1 = part_weights[1] as f64 / target[1].max(1) as f64;
    i0.max(i1)
}

/// Edge cut and part weights of a bisection, from scratch (O(E)).
pub(crate) fn cut_and_weights(g: &Graph, part_of: &[u8]) -> (i64, [i64; 2]) {
    let mut cut = 0i64;
    let mut part_weights = [0i64; 2];
    for v in 0..g.num_vertices() {
        part_weights[part_of[v] as usize] += g.vertex_weight(v);
        for (u, w) in g.neighbors_weighted(v) {
            if part_of[u as usize] != part_of[v] {
                cut += w;
            }
        }
    }
    (cut / 2, part_weights)
}

/// Edge cut of a k-way partition (each cut edge counted once).
pub fn edge_cut(g: &Graph, part_of: &[u32]) -> i64 {
    let mut cut = 0i64;
    for v in 0..g.num_vertices() {
        for (u, w) in g.neighbors_weighted(v) {
            if part_of[u as usize] != part_of[v] {
                cut += w;
            }
        }
    }
    cut / 2
}

/// Weight of each part in a k-way partition.
pub fn part_weights(g: &Graph, part_of: &[u32], k: usize) -> Vec<i64> {
    let mut w = vec![0i64; k];
    for v in 0..g.num_vertices() {
        w[part_of[v] as usize] += g.vertex_weight(v);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len());
        }
        Graph::from_adjacency(xadj, adjncy).unwrap()
    }

    #[test]
    fn edge_cut_counts_once() {
        let g = path_graph(4);
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 1);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 3);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn part_weights_sum_to_total() {
        let g = path_graph(5);
        let w = part_weights(&g, &[0, 1, 1, 2, 0], 3);
        assert_eq!(w, vec![2, 2, 1]);
        assert_eq!(w.iter().sum::<i64>(), g.total_vertex_weight());
    }

    #[test]
    fn bisection_recompute() {
        let g = path_graph(6);
        let b = Bisection::recompute(&g, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(b.cut, 1);
        assert_eq!(b.part_weights, [3, 3]);
        assert!((imbalance(b.part_weights, [3, 3]) - 1.0).abs() < 1e-12);
    }
}
