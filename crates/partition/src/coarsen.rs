//! Graph coarsening via heavy-edge matching (HEM).
//!
//! Vertices are visited in a shuffled order; each unmatched vertex is
//! matched with the unmatched neighbour connected by the heaviest edge
//! (ties broken by lower vertex weight, favouring balanced coarse
//! vertices). Matched pairs are contracted into coarse vertices whose
//! weights are summed and whose parallel edges are merged with summed
//! weights — exactly the coarsening step of METIS's multilevel scheme.

use crate::rng::SplitMix;
use sparsegraph::Graph;

/// One coarsening level: the coarse graph and the fine→coarse vertex map.
#[derive(Debug, Clone)]
pub(crate) struct CoarseLevel {
    /// The contracted graph.
    pub graph: Graph,
    /// `coarse_of[v]` is the coarse vertex containing fine vertex `v`.
    pub coarse_of: Vec<u32>,
}

/// The coarsening levels of one bisection and their scratch, kept
/// across the bisections of a partitioning call: a level is built in
/// the arrays an earlier bisection's level of the same depth left, so
/// after the first (largest) bisection none of them grows.
#[derive(Default)]
pub(crate) struct Coarsening {
    /// The current bisection's levels, finest first.
    pub levels: Vec<CoarseLevel>,
    /// Levels no current one reuses yet, the finest on top.
    spare: Vec<CoarseLevel>,
    /// Matching: the matching itself and the visit order.
    match_of: Vec<u32>,
    visit: Vec<u32>,
    /// Contraction: coarse neighbour -> slot in the current row.
    slot_of: Vec<u32>,
}

impl Coarsening {
    /// Coarsen `g` until the graph has at most `target_size` vertices
    /// or progress stalls, replacing `levels`. Each level is contracted
    /// from the one before it (the first from `g`), borrowed in place.
    pub(crate) fn coarsen(&mut self, g: &Graph, target_size: usize, rng: &mut SplitMix) {
        self.spare.extend(self.levels.drain(..).rev());
        loop {
            let current = self.levels.last().map_or(g, |l| &l.graph);
            let n = current.num_vertices();
            if n <= target_size {
                break;
            }
            heavy_edge_matching(current, rng, &mut self.match_of, &mut self.visit);
            let level = contract(current, &self.match_of, &mut self.slot_of, self.spare.pop());
            if level.graph.num_vertices() as f64 / n as f64 > 0.95 {
                self.spare.push(level);
                break; // nearly no matching possible; stop
            }
            self.levels.push(level);
        }
    }
}

/// Compute a heavy-edge matching into `match_of`, where `match_of[v]
/// == v` for unmatched vertices — and only for them, since a graph has
/// no self-loops, so `match_of` is also the matched flag. `visit` is
/// scratch.
pub(crate) fn heavy_edge_matching(
    g: &Graph,
    rng: &mut SplitMix,
    match_of: &mut Vec<u32>,
    visit: &mut Vec<u32>,
) {
    let n = g.num_vertices();
    match_of.clear();
    match_of.extend(0..n as u32);
    visit.clear();
    visit.extend(0..n as u32);
    rng.shuffle(visit);
    let matched = |match_of: &[u32], v: u32| match_of[v as usize] != v;
    for &v in visit.iter() {
        if matched(match_of, v) {
            continue;
        }
        let mut best: Option<(u32, i64)> = None;
        for (u, w) in g.neighbors_weighted(v as usize) {
            if matched(match_of, u) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bw)) => {
                    w > bw
                        || (w == bw && g.vertex_weight(u as usize) < g.vertex_weight(bu as usize))
                }
            };
            if better {
                best = Some((u, w));
            }
        }
        if let Some((u, _)) = best {
            match_of[v as usize] = u;
            match_of[u as usize] = v;
        }
    }
}

/// Contract a graph along a matching, producing the next coarser level
/// in `reuse`'s arrays if given; `slot_of` is scratch.
pub(crate) fn contract(
    g: &Graph,
    match_of: &[u32],
    slot_of: &mut Vec<u32>,
    reuse: Option<CoarseLevel>,
) -> CoarseLevel {
    let n = g.num_vertices();
    let (mut xadj, mut adjncy, mut vwgt, mut ewgt, mut coarse_of) = match reuse {
        Some(CoarseLevel { graph, coarse_of }) => {
            let (xadj, adjncy, vwgt, ewgt) = graph.into_parts();
            (xadj, adjncy, vwgt, ewgt, coarse_of)
        }
        None => Default::default(),
    };
    // Assign coarse ids: each matched pair (v, u) with v < u gets one id.
    coarse_of.clear();
    coarse_of.resize(n, u32::MAX);
    let mut ncoarse = 0u32;
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        let u = match_of[v] as usize;
        coarse_of[v] = ncoarse;
        coarse_of[u] = ncoarse; // u == v for unmatched vertices
        ncoarse += 1;
    }
    let nc = ncoarse as usize;

    // Accumulate coarse vertex weights.
    vwgt.clear();
    vwgt.resize(nc, 0);
    for v in 0..n {
        vwgt[coarse_of[v] as usize] += g.vertex_weight(v);
    }

    // Build coarse adjacency by merging the two fine adjacency lists of
    // each coarse vertex with a dense scatter buffer. Ids were handed
    // out in order of each pair's smaller member, so walking the
    // leaders `v <= match_of[v]` ascending visits coarse vertices in id
    // order, and each one's members are its leader and then its match.
    // The coarse adjacency is at most the fine one, so no array grows
    // past what is reserved here.
    xadj.clear();
    xadj.reserve(nc + 1);
    xadj.push(0usize);
    adjncy.clear();
    adjncy.reserve(g.adjncy().len());
    ewgt.clear();
    ewgt.reserve(g.adjncy().len());
    slot_of.clear();
    slot_of.resize(nc, u32::MAX);
    for v in 0..n {
        let m = match_of[v] as usize;
        if m < v {
            continue; // v is a follower: its leader's row covers it
        }
        let c = coarse_of[v];
        let row_start = adjncy.len();
        let members: &[usize] = if m == v { &[v] } else { &[v, m] };
        for &x in members {
            for (u, w) in g.neighbors_weighted(x) {
                let cu = coarse_of[u as usize];
                if cu == c {
                    continue; // internal edge disappears
                }
                let slot = slot_of[cu as usize];
                if slot != u32::MAX && (slot as usize) >= row_start {
                    ewgt[slot as usize] += w;
                } else {
                    slot_of[cu as usize] = adjncy.len() as u32;
                    adjncy.push(cu);
                    ewgt.push(w);
                }
            }
        }
        xadj.push(adjncy.len());
        // Reset scatter buffer for the next row.
        for &a in &adjncy[row_start..] {
            slot_of[a as usize] = u32::MAX;
        }
    }

    CoarseLevel {
        graph: Graph::from_parts_unchecked(xadj, adjncy, vwgt, ewgt),
        coarse_of,
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

    fn matching(g: &Graph, seed: u64) -> Vec<u32> {
        let mut match_of = Vec::new();
        heavy_edge_matching(g, &mut SplitMix::new(seed), &mut match_of, &mut Vec::new());
        match_of
    }

    fn coarsened(g: &Graph, target_size: usize, seed: u64) -> Vec<CoarseLevel> {
        let mut c = Coarsening::default();
        c.coarsen(g, target_size, &mut SplitMix::new(seed));
        c.levels
    }

    #[test]
    fn matching_is_symmetric_and_adjacent() {
        let g = grid(6);
        let m = matching(&g, 1);
        for v in 0..g.num_vertices() {
            let u = m[v] as usize;
            assert_eq!(m[u] as usize, v, "matching must be symmetric");
            if u != v {
                assert!(
                    g.neighbors(v).contains(&(u as u32)),
                    "matched vertices must be adjacent"
                );
            }
        }
    }

    #[test]
    fn contraction_preserves_total_vertex_weight() {
        let g = grid(8);
        let level = contract(&g, &matching(&g, 2), &mut Vec::new(), None);
        assert_eq!(level.graph.total_vertex_weight(), g.total_vertex_weight());
        assert!(level.graph.num_vertices() < g.num_vertices());
        // Every fine vertex maps to a valid coarse vertex.
        for v in 0..g.num_vertices() {
            assert!((level.coarse_of[v] as usize) < level.graph.num_vertices());
        }
    }

    #[test]
    fn contraction_preserves_cut_weight_across_fixed_split() {
        // Contract a graph and verify: edge weight between coarse
        // vertices equals the number of fine edges between their
        // members.
        let g = grid(4);
        let level = contract(&g, &matching(&g, 3), &mut Vec::new(), None);
        let cg = &level.graph;
        // Total edge weight is conserved minus internal (contracted) edges.
        let internal: i64 = (0..g.num_vertices())
            .map(|v| {
                g.neighbors_weighted(v)
                    .filter(|&(u, _)| level.coarse_of[u as usize] == level.coarse_of[v])
                    .map(|(_, w)| w)
                    .sum::<i64>()
            })
            .sum::<i64>()
            / 2;
        assert_eq!(cg.total_edge_weight(), g.total_edge_weight() - internal);
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = grid(12); // 144 vertices
        let levels = coarsened(&g, 20, 4);
        assert!(!levels.is_empty());
        let last = &levels.last().unwrap().graph;
        assert!(
            last.num_vertices() <= 40,
            "coarsest graph still has {} vertices",
            last.num_vertices()
        );
        // Monotone shrinkage.
        let mut prev = g.num_vertices();
        for l in levels {
            assert!(l.graph.num_vertices() < prev);
            prev = l.graph.num_vertices();
        }
    }

    /// Levels built in the arrays of an earlier, larger or smaller,
    /// coarsening are those a fresh one builds.
    #[test]
    fn reused_levels_equal_fresh_ones() {
        let mut reused = Coarsening::default();
        for (side, seed) in [(12, 1), (20, 2), (6, 3), (16, 4), (9, 5)] {
            let g = grid(side);
            reused.coarsen(&g, 10, &mut SplitMix::new(seed));
            let fresh = coarsened(&g, 10, seed);
            assert_eq!(reused.levels.len(), fresh.len(), "grid {side}");
            for (a, b) in reused.levels.iter().zip(&fresh) {
                assert_eq!((&a.graph, &a.coarse_of), (&b.graph, &b.coarse_of));
            }
        }
    }

    #[test]
    fn coarsen_stalls_gracefully_on_edgeless_graph() {
        let g = Graph::from_adjacency(vec![0, 0, 0, 0, 0], vec![]).unwrap();
        assert!(
            coarsened(&g, 2, 5).is_empty(),
            "no matching possible on edgeless graph"
        );
    }
}
