use crate::{bfs_levels_with, Graph, DEFAULT_PAR_FRONTIER_MIN};
use team::Exec;

/// Find a pseudo-peripheral vertex of the component containing `start`,
/// using the George–Liu algorithm \[10\].
///
/// Starting from `start`, repeatedly build a rooted level structure and
/// restart from a minimum-degree vertex of the last (deepest) level,
/// until the eccentricity stops increasing. The returned vertex is a
/// good Cuthill–McKee starting point: its BFS level structure is deep
/// and narrow, which translates into small bandwidth after reordering.
pub fn pseudo_peripheral_vertex(g: &Graph, start: usize) -> usize {
    pseudo_peripheral_vertex_with(g, start, Exec::Sequential, DEFAULT_PAR_FRONTIER_MIN)
}

/// [`pseudo_peripheral_vertex`] on an executor. The repeated level
/// structures dominate the finder's cost and parallelise through
/// [`bfs_levels_with`] (`frontier_min` is its parallel-expansion
/// cutover; the returned vertex is identical for every threshold); the
/// min-degree candidate selection keeps its first-minimum (within-level
/// order) semantics, which parallel BFS preserves exactly.
pub fn pseudo_peripheral_vertex_with(
    g: &Graph,
    start: usize,
    exec: Exec<'_>,
    frontier_min: usize,
) -> usize {
    let mut root = start;
    let mut b = bfs_levels_with(g, root, exec, frontier_min);
    loop {
        let last = b
            .levels
            .last()
            .expect("BFS always produces at least one level");
        // Minimum-degree vertex of the deepest level.
        let candidate = *last
            .iter()
            .min_by_key(|&&v| g.degree(v as usize))
            .expect("levels are non-empty") as usize;
        if candidate == root {
            return root;
        }
        let b2 = bfs_levels_with(g, candidate, exec, frontier_min);
        if b2.depth() > b.depth() {
            root = candidate;
            b = b2;
        } else {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_levels;

    fn path(n: usize) -> Graph {
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
    fn path_endpoint_is_peripheral() {
        let g = path(7);
        let v = pseudo_peripheral_vertex(&g, 3);
        assert!(v == 0 || v == 6, "expected a path endpoint, got {v}");
    }

    #[test]
    fn starting_at_endpoint_stays_peripheral() {
        let g = path(7);
        let v = pseudo_peripheral_vertex(&g, 0);
        let depth = bfs_levels(&g, v).depth();
        assert_eq!(depth, 7, "peripheral vertex must realise full diameter");
    }

    #[test]
    fn star_graph_returns_leaf() {
        // Star: center 0 connected to 1..=4.
        let mut xadj = vec![0usize, 4];
        let mut adjncy: Vec<u32> = vec![1, 2, 3, 4];
        for _ in 1..=4 {
            adjncy.push(0);
            xadj.push(adjncy.len());
        }
        let g = Graph::from_adjacency(xadj, adjncy).unwrap();
        let v = pseudo_peripheral_vertex(&g, 0);
        assert!(v >= 1, "a leaf is more eccentric than the center");
    }

    #[test]
    fn grid_corner_found_from_center() {
        // 5x5 grid graph.
        let n = 5;
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
        let g = Graph::from_adjacency(xadj, adjncy).unwrap();
        let v = pseudo_peripheral_vertex(&g, 12); // center
        let ecc = bfs_levels(&g, v).depth() - 1;
        assert_eq!(ecc, 8, "grid pseudo-peripheral vertex should be a corner");
    }
}
