//! Multilevel bisection and recursive k-way partitioning.

use crate::coarsen::Coarsening;
use crate::fm::{fm_refine, FmWork};
use crate::initial::{greedy_growing_bisection, GrowWork};
use crate::rng::SplitMix;
use crate::separator::{CoverWork, Separator};
use crate::Bisection;
use sparsegraph::{Graph, SubgraphWork};
use std::ops::Range;

/// Coarsening stops below this many vertices.
const COARSEN_TO: usize = 120;
/// Trials for the initial bisection on the coarsest graph.
const INITIAL_TRIALS: usize = 6;
/// Maximum FM passes per uncoarsening level.
const FM_PASSES: usize = 8;

/// Allowed imbalance of every k-way bisection, GP's and HP's (5 %;
/// METIS's default load balance tolerance is in the same range).
pub(crate) const UBFACTOR: f64 = 1.05;

/// The seed of GP's root bisection, and what each child adds to its
/// parent's scrambled seed (left, right).
const SEED: u64 = 0x5EED;
const CHILD_SEEDS: [u64; 2] = [1, 2];

/// The arrays of a run of multilevel bisections — one
/// [`partition_graph`] call's, or one nested dissection's separators
/// ([`crate::vertex_separator`]). Every array is refilled by the next
/// bisection, so after the first, largest one none of them grows. No
/// bisection reads what an earlier one left before writing it, so a
/// workspace gives the same bytes whatever it served before.
#[derive(Default)]
pub struct BisectWork {
    pub(crate) coarsening: Coarsening,
    pub(crate) grow: GrowWork,
    pub(crate) fm: FmWork,
    /// The bisection being refined, and the buffer it is projected
    /// into on the way to the next finer level.
    pub(crate) bis: Bisection,
    pub(crate) projected: Vec<u8>,
    pub(crate) cover: CoverWork,
    pub(crate) separator: Separator,
}

/// Multilevel 2-way partitioning into `ws.bis`: coarsen, bisect,
/// uncoarsen + refine.
///
/// `target` gives the desired vertex weight of each side (they need not
/// be equal — recursive bisection to non-power-of-two `k` needs uneven
/// splits). `ubfactor` is the allowed imbalance, e.g. `1.05`.
pub(crate) fn multilevel_bisect(
    g: &Graph,
    target: [i64; 2],
    ubfactor: f64,
    seed: u64,
    ws: &mut BisectWork,
) {
    let mut rng = SplitMix::new(seed);
    ws.coarsening.coarsen(g, COARSEN_TO, &mut rng);
    let levels = &ws.coarsening.levels;
    let coarsest: &Graph = levels.last().map_or(g, |l| &l.graph);
    ws.fm.reserve(g.num_vertices());
    let bis = &mut ws.bis;
    greedy_growing_bisection(
        coarsest,
        target,
        INITIAL_TRIALS,
        &mut rng,
        &mut ws.grow,
        bis,
    );
    // Refine the coarsest level, then project onto each finer one and
    // refine that in turn. Contraction sums vertex weights and parallel
    // edge weights and drops only the edges inside a coarse vertex,
    // which no bisection cuts, so the projected cut and part weights
    // are the coarse ones.
    for li in (0..=levels.len()).rev() {
        let g_li = if li == 0 { g } else { &levels[li - 1].graph };
        if let Some(level) = levels.get(li) {
            let fine = &mut ws.projected;
            fine.clear();
            fine.extend(level.coarse_of.iter().map(|&c| bis.part_of[c as usize]));
            std::mem::swap(&mut bis.part_of, fine);
            debug_assert!(bis.is_exact(g_li), "projection changed the cut");
        }
        fm_refine(g_li, bis, target, ubfactor, FM_PASSES, &mut ws.fm);
    }
}

/// Recursive-bisection k-way partitioning of a graph — the stand-in for
/// `METIS_PartGraphRecursive` used by the paper's GP reordering.
///
/// Returns the part id (in `0..k`) of every vertex. `k` is clamped to
/// `1..=u32::MAX`: 0 parts are one, and a part id is a `u32`. Balance
/// is on vertex weight; with unit weights this balances the number of
/// rows per part, the configuration the paper uses (§3.3).
pub fn partition_graph(g: &Graph, k: usize) -> Vec<u32> {
    let mut sub = SubgraphWork::default();
    let mut ws = BisectWork::default();
    recursive_bisection(
        g.vertex_weights(),
        k,
        (SEED, CHILD_SEEDS),
        |vertices, target, seed, side| {
            let sub = g.subgraph(vertices, &mut sub);
            multilevel_bisect(sub, target, UBFACTOR, seed, &mut ws);
            std::mem::swap(side, &mut ws.bis.part_of);
        },
    )
}

/// The k-way driver GP and HP share: split the vertices (weighted by
/// `weights`) into `k` parts by recursive bisection, and return the part
/// id of every vertex.
///
/// `k` is clamped as [`partition_graph`] documents. A node with one
/// part or at most one vertex is a leaf.
/// Otherwise its `k` parts split into `k0 = k / 2` and the rest, with
/// weight targets proportional to that split, so an odd `k` stays
/// balanced. `bisect(vertices, target, seed, side)` is the model's
/// bisection of the sub-model `vertices` (ascending) induce: it leaves
/// a side, 0 or 1, per vertex in that order in `side`. Each side's
/// vertices stay ascending in its child. `seeds` holds the root's seed
/// and what each child adds to its parent's: a node with seed `s`
/// gives the child of side `i` the seed `s * 0x9E37 + seeds.1[i]`,
/// wrapping.
pub(crate) fn recursive_bisection(
    weights: &[i64],
    k: usize,
    seeds: (u64, [u64; 2]),
    bisect: impl FnMut(&[u32], [i64; 2], u64, &mut Vec<u8>),
) -> Vec<u32> {
    let n = weights.len();
    let k = k.clamp(1, u32::MAX as usize);
    let mut driver = Driver {
        weights,
        children: seeds.1,
        bisect,
        part_of: vec![0u32; n],
        side: Vec::new(),
        right: Vec::with_capacity(n),
    };
    let mut vertices: Vec<u32> = (0..n as u32).collect();
    driver.split(&mut vertices, 0..k as u32, seeds.0);
    driver.part_of
}

/// [`recursive_bisection`]'s state through the recursion.
struct Driver<'w, B> {
    weights: &'w [i64],
    children: [u64; 2],
    bisect: B,
    part_of: Vec<u32>,
    /// The side of each vertex of the node being split.
    side: Vec<u8>,
    /// The side-1 vertices of the node being split, before they move
    /// behind its side-0 ones.
    right: Vec<u32>,
}

impl<B: FnMut(&[u32], [i64; 2], u64, &mut Vec<u8>)> Driver<'_, B> {
    /// Split `vertices` into `parts`, leaving it grouped by part.
    fn split(&mut self, vertices: &mut [u32], parts: Range<u32>, seed: u64) {
        let k = parts.len();
        if k == 1 || vertices.len() <= 1 {
            for &v in vertices.iter() {
                self.part_of[v as usize] = parts.start;
            }
            return;
        }
        let k0 = k / 2;
        let total: i64 = vertices.iter().map(|&v| self.weights[v as usize]).sum();
        let t0 = (total as f64 * k0 as f64 / k as f64).round() as i64;
        (self.bisect)(vertices, [t0, total - t0], seed, &mut self.side);
        // A stable partition in place: side 0 moves up to the front,
        // side 1 follows it.
        self.right.clear();
        let mut left = 0;
        for i in 0..vertices.len() {
            let v = vertices[i];
            if self.side[i] == 0 {
                vertices[left] = v;
                left += 1;
            } else {
                self.right.push(v);
            }
        }
        vertices[left..].copy_from_slice(&self.right);
        let (lo, hi) = vertices.split_at_mut(left);
        let mid = parts.start + k0 as u32;
        let seed = seed.wrapping_mul(0x9E37);
        self.split(lo, parts.start..mid, seed.wrapping_add(self.children[0]));
        self.split(hi, mid..parts.end, seed.wrapping_add(self.children[1]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_cut, imbalance, part_weights};

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

    #[test]
    fn multilevel_bisect_grid_quality() {
        let n = 16; // 256 vertices, optimal bisection cut = 16
        let g = grid(n);
        let total = g.total_vertex_weight();
        let mut ws = BisectWork::default();
        multilevel_bisect(&g, [total / 2, total / 2], 1.05, 42, &mut ws);
        let b = &ws.bis;
        assert!(
            b.cut <= 28,
            "multilevel cut {} too far from optimal 16",
            b.cut
        );
        assert!(imbalance(b.part_weights, [total / 2, total / 2]) <= 1.06);
    }

    #[test]
    fn four_way_partition_balanced() {
        let g = grid(12); // 144 vertices
        let parts = partition_graph(&g, 4);
        assert_eq!(parts.len(), 144);
        assert!(parts.iter().all(|&p| p < 4));
        let w = part_weights(&g, &parts, 4);
        for &pw in &w {
            assert!(
                (pw as f64) <= 36.0 * 1.12,
                "part weight {pw} too far above 36"
            );
            assert!(pw > 0, "no empty parts expected on a grid");
        }
        // Cut should be far below the total edge count.
        let cut = edge_cut(&g, &parts);
        assert!(cut < g.num_edges() as i64 / 4, "cut {cut} too large");
    }

    #[test]
    fn non_power_of_two_parts() {
        let g = grid(12);
        let parts = partition_graph(&g, 6);
        let w = part_weights(&g, &parts, 6);
        assert_eq!(w.iter().sum::<i64>(), 144);
        for &pw in &w {
            assert!(
                (16..=33).contains(&pw),
                "6-way part weight {pw} out of range"
            );
        }
    }

    #[test]
    fn one_part_is_identity() {
        let g = grid(4);
        let parts = partition_graph(&g, 1);
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(10);
        assert_eq!(partition_graph(&g, 4), partition_graph(&g, 4));
    }

    #[test]
    fn disconnected_graph_partitions() {
        // Two 4-cycles, no connection.
        let mut xadj = vec![0usize];
        let mut adjncy: Vec<u32> = Vec::new();
        for comp in 0..2u32 {
            let b = comp * 4;
            for i in 0..4u32 {
                adjncy.push(b + (i + 1) % 4);
                adjncy.push(b + (i + 3) % 4);
                xadj.push(adjncy.len());
            }
        }
        let g = Graph::from_adjacency(xadj, adjncy).unwrap();
        let parts = partition_graph(&g, 2);
        let w = part_weights(&g, &parts, 2);
        assert_eq!(w[0] + w[1], 8);
        assert!(w[0] >= 3 && w[0] <= 5);
    }
}
