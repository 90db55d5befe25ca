use crate::{Graph, LevelStructure};
use team::Exec;

/// Find a pseudo-peripheral vertex of the component containing `start`,
/// using the George–Liu algorithm \[10\].
///
/// Starting from `start`, repeatedly build a rooted level structure and
/// restart from a minimum-degree vertex of the last (deepest) level,
/// until the eccentricity stops increasing. The returned vertex is a
/// good Cuthill–McKee starting point: its BFS level structure is deep
/// and narrow, which translates into small bandwidth after reordering.
///
/// Every search runs in the caller's `levels`; on return it holds the
/// level structure rooted at the returned vertex. The searches dominate
/// the finder's cost and parallelise through
/// [`LevelStructure::run_on`] (`frontier_min` is its cutover; the
/// returned vertex is identical for every threshold); the candidate is
/// the *first* minimum-degree vertex of the deepest level in visit
/// order, which every executor reproduces exactly.
pub fn pseudo_peripheral_vertex_with(
    g: &Graph,
    start: usize,
    levels: &mut LevelStructure,
    exec: Exec<'_>,
    frontier_min: usize,
) -> usize {
    let mut root = start;
    levels.run_on(g, root, exec, frontier_min, |_| {});
    loop {
        let depth = levels.depth();
        let candidate = *levels
            .last_level()
            .iter()
            .min_by_key(|&&v| g.degree(v as usize))
            .expect("levels are non-empty") as usize;
        if candidate == root {
            return root;
        }
        levels.run_on(g, candidate, exec, frontier_min, |_| {});
        if levels.depth() <= depth {
            return candidate;
        }
        root = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_peripheral_vertex(g: &Graph, start: usize) -> usize {
        let mut levels = LevelStructure::new(g.num_vertices());
        pseudo_peripheral_vertex_with(g, start, &mut levels, Exec::Sequential, usize::MAX)
    }

    fn depth_from(g: &Graph, root: usize) -> usize {
        let mut levels = LevelStructure::new(g.num_vertices());
        levels.run_on(g, root, Exec::Sequential, usize::MAX, |_| {});
        levels.depth()
    }

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
        let depth = depth_from(&g, v);
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
        let ecc = depth_from(&g, v) - 1;
        assert_eq!(ecc, 8, "grid pseudo-peripheral vertex should be a corner");
    }
}
