use crate::Graph;
use std::sync::atomic::{AtomicU32, Ordering};
use team::Exec;

/// Frontier positions per chunk in the parallel expansion; each
/// position costs O(degree) work.
const FRONTIER_GRAIN: usize = 512;

/// Below this level width the in-place sequential expansion wins: a
/// team dispatch costs microseconds, appending a few hundred edges
/// costs less. PR 5's measurements (CHANGES.md) showed its 1024
/// cutover flipping whole level-set traversals onto the two-phase path
/// on hosts where the dispatch never pays for itself; PR 7 re-measured
/// with the tunable (see DESIGN §9) and keeps 4096 as the default —
/// wide enough that only genuinely massive frontiers pay for a
/// dispatch, while `ReorderExec::with_frontier_min` lets multicore
/// hosts tune it back down.
pub const DEFAULT_PAR_FRONTIER_MIN: usize = 4096;

/// A rooted level structure — the breadth-first search behind
/// Cuthill–McKee and the pseudo-peripheral finder — kept flat and
/// reusable: one structure serves every search of an ordering, and a
/// search allocates nothing.
///
/// `order` is the BFS queue, which *is* the root's component in visit
/// order; level `k` is the contiguous range
/// `order[level_start[k]..level_start[k + 1]]`. A vertex is visited by
/// the current search iff `stamp[v] == epoch`, so starting a search is
/// `epoch += 1` rather than an O(n) clear, and `stamp[v] == 0` means
/// no search of this structure has ever reached `v`
/// ([`LevelStructure::untouched`]) — which is how RCM finds the next
/// component without a separate connectivity pass.
///
/// See DESIGN §9 for why the expansion is branch-free and why every
/// executor produces the same bytes.
#[derive(Debug)]
pub struct LevelStructure {
    /// Visit order of the last search in `order[..reached]`, plus one
    /// slack slot the branch-free append may write but never keeps.
    order: Vec<u32>,
    /// `depth + 1` offsets into `order`; empty before the first search.
    level_start: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Minimum-position-parent slots of the two-phase expansion: empty
    /// until a level first takes it, `u32::MAX` between levels.
    claims: Vec<AtomicU32>,
}

impl LevelStructure {
    /// A structure for searches of graphs with `n` vertices.
    pub fn new(n: usize) -> LevelStructure {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        LevelStructure {
            order: vec![0; n + 1],
            // A path has as many levels as vertices: reserved, not
            // touched, so no search ever grows it.
            level_start: Vec::with_capacity(n + 2),
            stamp: vec![0; n],
            epoch: 0,
            claims: Vec::new(),
        }
    }

    /// Breadth-first search from `root` over its connected component,
    /// on an executor. `per_parent`
    /// sees the children each parent just appended and may reorder
    /// them (Cuthill–McKee sorts by degree; plain BFS passes a no-op).
    /// Levels at least `frontier_min` wide expand on `exec`'s lanes
    /// when it has more than one; the result is identical for every
    /// executor, team size and threshold.
    pub fn run_on<S>(
        &mut self,
        g: &Graph,
        root: usize,
        exec: Exec<'_>,
        frontier_min: usize,
        per_parent: S,
    ) where
        S: Fn(&mut [u32]) + Sync,
    {
        let n = g.num_vertices();
        assert!(root < n, "BFS root {root} out of range for {n} vertices");
        assert_eq!(
            self.stamp.len(),
            n,
            "level structure sized for another graph"
        );
        self.next_epoch();
        self.stamp[root] = self.epoch;
        self.order[0] = root as u32;
        self.level_start.clear();
        self.level_start.push(0);
        let (mut lo, mut tail) = (0, 1);
        while lo < tail {
            let hi = tail;
            self.level_start.push(hi as u32);
            tail = if exec.lanes() > 1 && hi - lo >= frontier_min {
                self.expand_level_two_phase(g, lo, hi, exec, &per_parent)
            } else {
                self.expand_level(g, lo, hi, &per_parent)
            };
            lo = hi;
        }
    }

    /// Start a new search: bump the epoch, clearing the stamps only
    /// when the counter wraps (once per 2³² searches).
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Expand level `order[lo..hi]` in place and return the new tail.
    /// Branch-free: every neighbour is written at the tail, which
    /// advances only past an unvisited one, so a visited neighbour is
    /// overwritten by the next write (the slack slot takes the last).
    fn expand_level<S>(&mut self, g: &Graph, lo: usize, hi: usize, per_parent: &S) -> usize
    where
        S: Fn(&mut [u32]),
    {
        let epoch = self.epoch;
        let mut tail = hi;
        for i in lo..hi {
            let first = tail;
            for &u in g.neighbors(self.order[i] as usize) {
                let seen = &mut self.stamp[u as usize];
                self.order[tail] = u;
                tail += usize::from(*seen != epoch);
                *seen = epoch;
            }
            per_parent(&mut self.order[first..tail]);
        }
        tail
    }

    /// [`LevelStructure::expand_level`] for one wide level on a team:
    /// the same children under the same parents in the same order
    /// (DESIGN §9), found by a `fetch_min` race over parent positions.
    fn expand_level_two_phase<S>(
        &mut self,
        g: &Graph,
        lo: usize,
        hi: usize,
        exec: Exec<'_>,
        per_parent: &S,
    ) -> usize
    where
        S: Fn(&mut [u32]) + Sync,
    {
        if self.claims.is_empty() {
            self.claims
                .resize_with(self.stamp.len(), || AtomicU32::new(u32::MAX));
        }
        let (epoch, stamp, claims) = (self.epoch, &self.stamp, &self.claims);
        let frontier = &self.order[lo..hi];
        // Claim phase: every unvisited neighbour records its
        // minimum-position parent. The `run` barrier between the two
        // phases orders these relaxed writes before the reads below.
        exec.parallel_for(frontier.len(), FRONTIER_GRAIN, |range| {
            for i in range {
                for &u in g.neighbors(frontier[i] as usize) {
                    if stamp[u as usize] != epoch {
                        claims[u as usize].fetch_min(i as u32, Ordering::Relaxed);
                    }
                }
            }
        });
        // Collect phase: each parent gathers the children it won.
        let chunks = exec.map_chunks(frontier.len(), FRONTIER_GRAIN, |_, range| {
            let mut out: Vec<u32> = Vec::new();
            for i in range {
                let first = out.len();
                out.extend(g.neighbors(frontier[i] as usize).iter().filter(|&&u| {
                    stamp[u as usize] != epoch
                        && claims[u as usize].load(Ordering::Relaxed) == i as u32
                }));
                per_parent(&mut out[first..]);
            }
            out
        });
        let mut tail = hi;
        for chunk in chunks {
            self.order[tail..tail + chunk.len()].copy_from_slice(&chunk);
            tail += chunk.len();
        }
        for &u in &self.order[hi..tail] {
            self.stamp[u as usize] = epoch;
            self.claims[u as usize].store(u32::MAX, Ordering::Relaxed);
        }
        tail
    }

    /// Number of levels of the last search (the root's eccentricity
    /// within its component, plus one).
    pub fn depth(&self) -> usize {
        self.level_start.len().saturating_sub(1)
    }

    /// Width of the widest level.
    pub fn width(&self) -> usize {
        self.level_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The vertices at distance `k` from the root, in visit order.
    pub fn level(&self, k: usize) -> &[u32] {
        &self.order[self.level_start[k] as usize..self.level_start[k + 1] as usize]
    }

    /// The deepest level.
    pub fn last_level(&self) -> &[u32] {
        self.level(self.depth() - 1)
    }

    /// Every vertex the last search reached — the root's connected
    /// component — in visit order.
    pub fn reached(&self) -> &[u32] {
        &self.order[..self.level_start.last().map_or(0, |&end| end as usize)]
    }

    /// Whether no search of this structure has reached `v` yet.
    pub fn untouched(&self, v: usize) -> bool {
        self.stamp[v] == 0
    }
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

    fn searched(g: &Graph, root: usize) -> LevelStructure {
        let mut b = LevelStructure::new(g.num_vertices());
        b.run_on(g, root, Exec::Sequential, usize::MAX, |_| {});
        b
    }

    #[test]
    fn bfs_on_path_has_linear_levels() {
        let g = path(5);
        let b = searched(&g, 0);
        assert_eq!(b.depth(), 5);
        assert_eq!(b.width(), 1);
        assert_eq!(b.reached().len(), 5);
        for k in 0..5 {
            assert_eq!(b.level(k), &[k as u32]);
        }
    }

    #[test]
    fn bfs_from_middle() {
        let g = path(5);
        let b = searched(&g, 2);
        assert_eq!(b.depth(), 3);
        assert_eq!(b.level(0), &[2]);
        let mut l1 = b.level(1).to_vec();
        l1.sort();
        assert_eq!(l1, vec![1, 3]);
        assert_eq!(b.last_level().len(), 2);
    }

    #[test]
    fn bfs_ignores_other_components() {
        // Two disconnected edges: 0-1, 2-3.
        let g = Graph::from_adjacency(vec![0, 1, 2, 3, 4], vec![1, 0, 3, 2]).unwrap();
        let mut b = searched(&g, 0);
        assert_eq!(b.reached(), &[0, 1]);
        assert!(!b.untouched(1) && b.untouched(2) && b.untouched(3));
        // A second search forgets the first one's visits but not that
        // they happened.
        b.run_on(&g, 3, Exec::Sequential, usize::MAX, |_| {});
        assert_eq!(b.reached(), &[3, 2]);
        assert!(!b.untouched(0));
    }

    #[test]
    fn bfs_single_vertex() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let b = searched(&g, 0);
        assert_eq!(b.depth(), 1);
        assert_eq!(b.level(0), &[0]);
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
        let seq = searched(&g, 0);
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
            let mut par = LevelStructure::new(g.num_vertices());
            for frontier_min in [FORCED_MIN, DEFAULT_PAR_FRONTIER_MIN] {
                par.run_on(&g, 0, Exec::Team(&t), frontier_min, |_| {});
                assert_eq!(seq.level_start, par.level_start, "team size {size}");
                assert_eq!(seq.reached(), par.reached(), "team size {size}");
            }
            // The two-phase path ran (on a real team) and left every
            // claim slot free for the next level.
            assert_eq!(par.claims.is_empty(), size == 1);
            assert!(par
                .claims
                .iter()
                .all(|c| c.load(Ordering::Relaxed) == u32::MAX));
        }
    }
}
