use crate::Graph;
use std::sync::atomic::{AtomicU32, Ordering};
use team::Exec;

/// Frontier positions per chunk in the parallel expansion; each
/// position costs O(degree) work.
const FRONTIER_GRAIN: usize = 512;

/// Below this frontier width the one-pass sequential expansion wins:
/// a team dispatch costs microseconds, claiming a few hundred edges
/// costs less. PR 5's measurements (CHANGES.md) showed its 1024
/// cutover flipping whole level-set traversals onto the two-phase path
/// on hosts where the dispatch never pays for itself; PR 7 re-measured
/// with the tunable (see DESIGN §9) and keeps 4096 as the default —
/// wide enough that only genuinely massive frontiers pay for a
/// dispatch, while `ReorderExec::with_frontier_min` lets multicore
/// hosts tune it back down.
pub const DEFAULT_PAR_FRONTIER_MIN: usize = 4096;

/// The result of a level-structured breadth-first search.
///
/// `levels[k]` holds the vertices at distance `k` from the root;
/// `level_of[v]` is the distance of `v`, or `usize::MAX` if `v` is
/// unreachable from the root.
#[derive(Debug, Clone)]
pub struct BfsLevels {
    /// Vertices grouped by distance from the root.
    pub levels: Vec<Vec<u32>>,
    /// Distance of every vertex (`usize::MAX` if unreachable).
    pub level_of: Vec<usize>,
}

impl BfsLevels {
    /// Number of levels (the *depth* or eccentricity + 1 of the root
    /// within its component).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Width of the widest level.
    pub fn width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of vertices reached (size of the root's component).
    pub fn num_reached(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// Breadth-first search from `root`, producing the rooted level
/// structure used by Cuthill–McKee and the pseudo-peripheral finder.
///
/// Only the connected component containing `root` is traversed.
pub fn bfs_levels(g: &Graph, root: usize) -> BfsLevels {
    let n = g.num_vertices();
    assert!(root < n, "BFS root {root} out of range for {n} vertices");
    let mut level_of = vec![usize::MAX; n];
    let mut levels: Vec<Vec<u32>> = Vec::new();
    let mut frontier = vec![root as u32];
    level_of[root] = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        let depth = levels.len() + 1;
        for &v in &frontier {
            for &u in g.neighbors(v as usize) {
                if level_of[u as usize] == usize::MAX {
                    level_of[u as usize] = depth;
                    next.push(u);
                }
            }
        }
        levels.push(frontier);
        frontier = next;
    }
    BfsLevels { levels, level_of }
}

/// [`bfs_levels`] on an executor: frontiers wide enough to amortise a
/// dispatch are expanded in parallel via [`expand_frontier_with`], and
/// the result is byte-identical to the sequential search (see the
/// determinism argument there). Levels narrower than `frontier_min`
/// (default cutover: [`DEFAULT_PAR_FRONTIER_MIN`]) are expanded by the
/// one-pass sequential loop even on a team. The threshold changes
/// wall-clock only — the returned level structure is identical for
/// every value.
pub fn bfs_levels_with(g: &Graph, root: usize, exec: Exec<'_>, frontier_min: usize) -> BfsLevels {
    if exec.lanes() == 1 {
        return bfs_levels(g, root);
    }
    let n = g.num_vertices();
    assert!(root < n, "BFS root {root} out of range for {n} vertices");
    let mut level_of = vec![usize::MAX; n];
    let scratch = FrontierScratch::new(n);
    let mut levels: Vec<Vec<u32>> = Vec::new();
    let mut frontier = vec![root as u32];
    level_of[root] = 0;
    while !frontier.is_empty() {
        let depth = levels.len() + 1;
        let next = expand_frontier_with(
            g,
            &frontier,
            |u| level_of[u] == usize::MAX,
            &scratch,
            exec,
            frontier_min,
            |_| {},
        );
        for &u in &next {
            level_of[u as usize] = depth;
        }
        levels.push(std::mem::replace(&mut frontier, next));
    }
    BfsLevels { levels, level_of }
}

/// Per-vertex claim slots reused across the levels of one traversal
/// (allocate once per search or per ordering, not per level).
///
/// A slot holds the frontier position of the parent that claimed the
/// vertex this level, or `u32::MAX` when unclaimed. Slots are restored
/// to `u32::MAX` by [`expand_frontier_with`] before it returns.
pub struct FrontierScratch {
    claims: Vec<AtomicU32>,
}

impl FrontierScratch {
    /// Claim slots for a graph with `n` vertices.
    pub fn new(n: usize) -> FrontierScratch {
        FrontierScratch {
            claims: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
        }
    }

    /// Number of vertices the scratch covers.
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// Whether the scratch covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }
}

/// Expand one BFS level: return the vertices adjacent to `frontier`
/// for which `unvisited` holds, each appearing exactly once, grouped
/// by the *lowest-positioned* frontier parent that reaches them and
/// ordered within a parent's group by `sort_children` (pass a no-op
/// for adjacency order). The caller marks the returned vertices
/// visited before the next expansion. Frontiers narrower than
/// `frontier_min` always take the one-pass sequential expansion;
/// output is identical for every threshold — only the dispatch
/// decision changes.
///
/// # Determinism
///
/// The sequential one-pass expansion ("first parent to scan a vertex
/// claims it") assigns every vertex to its minimum-position parent,
/// because parents are scanned in frontier order. The parallel path
/// computes the same assignment explicitly — a `fetch_min` race over
/// parent positions is order-independent — then concatenates per-chunk
/// child lists in chunk order, which is frontier order. Both paths
/// therefore return the exact same vertex sequence for every executor
/// and team size; narrow frontiers take the sequential path outright.
pub fn expand_frontier_with<P, S>(
    g: &Graph,
    frontier: &[u32],
    unvisited: P,
    scratch: &FrontierScratch,
    exec: Exec<'_>,
    frontier_min: usize,
    sort_children: S,
) -> Vec<u32>
where
    P: Fn(usize) -> bool + Sync,
    S: Fn(&mut Vec<u32>) + Sync,
{
    debug_assert!(scratch.len() >= g.num_vertices());
    let claims = &scratch.claims;
    if exec.lanes() == 1 || frontier.len() < frontier_min {
        // One-pass: claims double as claimed-this-level flags, so the
        // first (= minimum-position) parent wins, as in the parallel
        // path.
        let mut next: Vec<u32> = Vec::new();
        let mut children: Vec<u32> = Vec::new();
        for (i, &v) in frontier.iter().enumerate() {
            children.clear();
            for &u in g.neighbors(v as usize) {
                let slot = &claims[u as usize];
                if unvisited(u as usize) && slot.load(Ordering::Relaxed) == u32::MAX {
                    slot.store(i as u32, Ordering::Relaxed);
                    children.push(u);
                }
            }
            sort_children(&mut children);
            next.extend_from_slice(&children);
        }
        for &u in &next {
            claims[u as usize].store(u32::MAX, Ordering::Relaxed);
        }
        return next;
    }
    // Claim phase: every unvisited neighbour records its
    // minimum-position parent. The `run` barrier between the two
    // phases orders these relaxed writes before the reads below.
    exec.parallel_for(frontier.len(), FRONTIER_GRAIN, |range| {
        for i in range {
            for &u in g.neighbors(frontier[i] as usize) {
                if unvisited(u as usize) {
                    claims[u as usize].fetch_min(i as u32, Ordering::Relaxed);
                }
            }
        }
    });
    // Collect phase: each parent gathers the children it won, chunks
    // concatenate in frontier order.
    let chunks = exec.map_chunks(frontier.len(), FRONTIER_GRAIN, |_, range| {
        let mut out: Vec<u32> = Vec::new();
        let mut children: Vec<u32> = Vec::new();
        for i in range {
            children.clear();
            for &u in g.neighbors(frontier[i] as usize) {
                if unvisited(u as usize) && claims[u as usize].load(Ordering::Relaxed) == i as u32 {
                    children.push(u);
                }
            }
            sort_children(&mut children);
            out.extend_from_slice(&children);
        }
        out
    });
    let mut next: Vec<u32> = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        next.extend(chunk);
    }
    for &u in &next {
        claims[u as usize].store(u32::MAX, Ordering::Relaxed);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bfs_on_path_has_linear_levels() {
        let g = path(5);
        let b = bfs_levels(&g, 0);
        assert_eq!(b.depth(), 5);
        assert_eq!(b.width(), 1);
        assert_eq!(b.num_reached(), 5);
        for v in 0..5 {
            assert_eq!(b.level_of[v], v);
        }
    }

    #[test]
    fn bfs_from_middle() {
        let g = path(5);
        let b = bfs_levels(&g, 2);
        assert_eq!(b.depth(), 3);
        assert_eq!(b.levels[0], vec![2]);
        let mut l1 = b.levels[1].clone();
        l1.sort();
        assert_eq!(l1, vec![1, 3]);
    }

    #[test]
    fn bfs_ignores_other_components() {
        // Two disconnected edges: 0-1, 2-3.
        let g = Graph::from_adjacency(vec![0, 1, 2, 3, 4], vec![1, 0, 3, 2]).unwrap();
        let b = bfs_levels(&g, 0);
        assert_eq!(b.num_reached(), 2);
        assert_eq!(b.level_of[2], usize::MAX);
        assert_eq!(b.level_of[3], usize::MAX);
    }

    #[test]
    fn bfs_single_vertex() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let b = bfs_levels(&g, 0);
        assert_eq!(b.depth(), 1);
        assert_eq!(b.levels[0], vec![0]);
    }

    /// A random-ish graph with wide levels: a union of rings plus
    /// chords, deterministic from a seed.
    fn chorded(n: usize, seed: u64) -> Graph {
        let mut edges = std::collections::BTreeSet::new();
        for v in 0..n {
            edges.insert((
                (v as u32).min(((v + 1) % n) as u32),
                (v as u32).max(((v + 1) % n) as u32),
            ));
        }
        let mut state = seed;
        for _ in 0..3 * n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) as usize % n) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((state >> 33) as usize % n) as u32;
            if a != b {
                edges.insert((a.min(b), a.max(b)));
            }
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for mut nbrs in adj {
            nbrs.sort_unstable();
            adjncy.extend_from_slice(&nbrs);
            xadj.push(adjncy.len());
        }
        Graph::from_adjacency(xadj, adjncy).unwrap()
    }

    #[test]
    fn parallel_bfs_matches_sequential() {
        let g = chorded(20_000, 42);
        let registry = telemetry::Registry::new_arc();
        let seq = bfs_levels(&g, 0);
        // A low explicit threshold forces the two-phase path onto this
        // graph's levels regardless of where the tuned default sits.
        const FORCED_MIN: usize = 1024;
        assert!(
            seq.width() >= FORCED_MIN,
            "test graph must be wide enough to hit the two-phase path (width {})",
            seq.width()
        );
        for size in [1usize, 2, 4, 8] {
            let t = team::ThreadTeam::new_in(&registry, size);
            let par = bfs_levels_with(&g, 0, Exec::Team(&t), FORCED_MIN);
            assert_eq!(seq.level_of, par.level_of, "team size {size}");
            assert_eq!(seq.levels, par.levels, "team size {size}");
            // The default threshold must agree as well.
            let par_default = bfs_levels_with(&g, 0, Exec::Team(&t), DEFAULT_PAR_FRONTIER_MIN);
            assert_eq!(seq.level_of, par_default.level_of, "team size {size}");
        }
    }

    #[test]
    fn expand_frontier_restores_scratch() {
        let g = path(10);
        let scratch = FrontierScratch::new(10);
        let visited = [
            true, false, false, false, false, false, false, false, false, false,
        ];
        let next = expand_frontier_with(
            &g,
            &[0],
            |u| !visited[u],
            &scratch,
            Exec::Sequential,
            DEFAULT_PAR_FRONTIER_MIN,
            |_| {},
        );
        assert_eq!(next, vec![1]);
        for c in &scratch.claims {
            assert_eq!(c.load(Ordering::Relaxed), u32::MAX);
        }
    }
}
