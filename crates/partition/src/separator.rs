//! Vertex separators for nested dissection.
//!
//! An edge-cut bisection is converted into a vertex separator by taking
//! a small vertex cover of the cut edges: removing the cover vertices
//! disconnects the two sides. We use the classic greedy cover (always
//! pick the endpoint covering the most uncovered cut edges), which in
//! practice yields separators close to the boundary size of the smaller
//! side — good enough to reproduce ND's fill-reducing behaviour.

use crate::recursive::multilevel_bisect;
use sparsegraph::Graph;

/// Allowed imbalance of the bisection under a separator (10 %, looser
/// than the k-way partitioners' 5 %).
const UBFACTOR: f64 = 1.10;

/// The three-way split produced by separator extraction.
#[derive(Debug, Clone)]
pub struct Separator {
    /// Vertices of the first remaining side.
    pub left: Vec<u32>,
    /// Vertices of the second remaining side.
    pub right: Vec<u32>,
    /// Separator vertices (removing them disconnects left from right).
    pub separator: Vec<u32>,
}

/// Compute a vertex separator of `g` via multilevel edge bisection and
/// greedy vertex cover of the cut edges.
pub fn vertex_separator(g: &Graph, seed: u64) -> Separator {
    let n = g.num_vertices();
    if n <= 1 {
        return Separator {
            left: (0..n as u32).collect(),
            right: Vec::new(),
            separator: Vec::new(),
        };
    }
    let total = g.total_vertex_weight();
    let bis = multilevel_bisect(g, [total / 2, total - total / 2], UBFACTOR, seed);

    // Collect cut edges.
    let mut cut_edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        if bis.part_of[v] != 0 {
            continue;
        }
        for &u in g.neighbors(v) {
            if bis.part_of[u as usize] == 1 {
                cut_edges.push((v as u32, u));
            }
        }
    }

    // Greedy vertex cover: repeatedly take the vertex incident to the
    // most uncovered cut edges.
    let mut cover_count = vec![0u32; n];
    for &(a, b) in &cut_edges {
        cover_count[a as usize] += 1;
        cover_count[b as usize] += 1;
    }
    let mut in_separator = vec![false; n];
    let mut alive: Vec<(u32, u32)> = cut_edges;
    while !alive.is_empty() {
        let (&(ea, eb), _) = alive
            .iter()
            .zip(0..)
            .max_by_key(|(&(a, b), _)| cover_count[a as usize].max(cover_count[b as usize]))
            .expect("alive non-empty");
        let pick = if cover_count[ea as usize] >= cover_count[eb as usize] {
            ea
        } else {
            eb
        };
        in_separator[pick as usize] = true;
        // Remove covered edges and decrement counts.
        alive.retain(|&(a, b)| {
            if a == pick || b == pick {
                cover_count[a as usize] -= 1;
                cover_count[b as usize] -= 1;
                false
            } else {
                true
            }
        });
    }

    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut separator = Vec::new();
    for v in 0..n {
        if in_separator[v] {
            separator.push(v as u32);
        } else if bis.part_of[v] == 0 {
            left.push(v as u32);
        } else {
            right.push(v as u32);
        }
    }
    Separator {
        left,
        right,
        separator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Graph {
        let idx = |r: usize, c: usize| (r * n + c) as u32;
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r > 0 {
                    adjncy.push(idx(r - 1, c));
                }
                if r + 1 < n {
                    adjncy.push(idx(r + 1, c));
                }
                if c > 0 {
                    adjncy.push(idx(r, c - 1));
                }
                if c + 1 < n {
                    adjncy.push(idx(r, c + 1));
                }
                xadj.push(adjncy.len());
            }
        }
        Graph::from_adjacency(xadj, adjncy).unwrap()
    }

    /// Check the separator property: no edge directly connects left and
    /// right.
    fn assert_separates(g: &Graph, s: &Separator) {
        let n = g.num_vertices();
        let mut side = vec![0u8; n]; // 0 = left, 1 = right, 2 = sep
        for &v in &s.right {
            side[v as usize] = 1;
        }
        for &v in &s.separator {
            side[v as usize] = 2;
        }
        for v in 0..n {
            if side[v] == 2 {
                continue;
            }
            for &u in g.neighbors(v) {
                if side[u as usize] != 2 {
                    assert_eq!(
                        side[v], side[u as usize],
                        "edge ({v}, {u}) crosses the separator"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_separator_is_small_and_valid() {
        let n = 12;
        let g = grid(n);
        let s = vertex_separator(&g, 42);
        assert_separates(&g, &s);
        assert_eq!(
            s.left.len() + s.right.len() + s.separator.len(),
            g.num_vertices()
        );
        assert!(
            s.separator.len() <= 2 * n,
            "separator of size {} on a {n}x{n} grid (expected ~{n})",
            s.separator.len()
        );
        assert!(!s.left.is_empty() && !s.right.is_empty());
        // The sides should be roughly balanced.
        let ratio = s.left.len() as f64 / s.right.len() as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "sides too uneven: {ratio}");
    }

    #[test]
    fn tiny_graphs_degenerate_gracefully() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let s = vertex_separator(&g, 1);
        assert_eq!(s.left.len(), 1);
        assert!(s.separator.is_empty());

        let g2 = Graph::from_adjacency(vec![0, 1, 2], vec![1, 0]).unwrap();
        let s2 = vertex_separator(&g2, 1);
        assert_separates(&g2, &s2);
        assert_eq!(s2.left.len() + s2.right.len() + s2.separator.len(), 2);
    }

    #[test]
    fn path_separator_is_single_vertex() {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        let n = 31;
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len());
        }
        let g = Graph::from_adjacency(xadj, adjncy).unwrap();
        let s = vertex_separator(&g, 7);
        assert_separates(&g, &s);
        assert!(
            s.separator.len() <= 2,
            "path separator should be 1-2 vertices, got {}",
            s.separator.len()
        );
    }
}
