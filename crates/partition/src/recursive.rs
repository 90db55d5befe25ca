//! Multilevel bisection and recursive k-way partitioning.

use crate::coarsen::coarsen_to;
use crate::fm::{fm_refine, FmWork};
use crate::initial::greedy_growing_bisection;
use crate::rng::SplitMix;
use crate::Bisection;
use sparsegraph::{Graph, LocalIds};
use std::ops::Range;

/// Coarsening stops below this many vertices.
const COARSEN_TO: usize = 120;
/// Trials for the initial bisection on the coarsest graph.
const INITIAL_TRIALS: usize = 6;
/// Maximum FM passes per uncoarsening level.
const FM_PASSES: usize = 8;

/// Configuration for [`partition_graph`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of parts to create; 0 means 1, and a part id is a `u32`,
    /// so more than `u32::MAX` means `u32::MAX`.
    pub num_parts: usize,
    /// Allowed imbalance factor (e.g. 1.05 = 5 %). METIS's default load
    /// balance tolerance is in the same range.
    pub ubfactor: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            num_parts: 2,
            ubfactor: 1.05,
            seed: 0x5EED,
        }
    }
}

impl PartitionConfig {
    /// Convenience constructor for a `k`-way configuration with defaults.
    pub fn k(num_parts: usize) -> Self {
        PartitionConfig {
            num_parts,
            ..Default::default()
        }
    }
}

/// Multilevel 2-way partitioning: coarsen, bisect, uncoarsen + refine.
///
/// `target` gives the desired vertex weight of each side (they need not
/// be equal — recursive bisection to non-power-of-two `k` needs uneven
/// splits). `ubfactor` is the allowed imbalance, e.g. `1.05`.
pub fn multilevel_bisect(g: &Graph, target: [i64; 2], ubfactor: f64, seed: u64) -> Bisection {
    let mut rng = SplitMix::new(seed);
    let levels = coarsen_to(g, COARSEN_TO, &mut rng);
    let coarsest: &Graph = levels.last().map(|l| &l.graph).unwrap_or(g);
    let mut fm = FmWork::with_capacity(g.num_vertices());

    let mut bis = greedy_growing_bisection(coarsest, target, INITIAL_TRIALS, &mut rng);
    // Refine the coarsest level, then project onto each finer one and
    // refine that in turn. Contraction sums vertex weights and parallel
    // edge weights and drops only the edges inside a coarse vertex,
    // which no bisection cuts, so the projected cut and part weights
    // are the coarse ones.
    for li in (0..=levels.len()).rev() {
        let g_li = if li == 0 { g } else { &levels[li - 1].graph };
        if let Some(level) = levels.get(li) {
            let part_of = level
                .coarse_of
                .iter()
                .map(|&c| bis.part_of[c as usize])
                .collect();
            bis = Bisection { part_of, ..bis };
            debug_assert!(bis.is_exact(g_li), "projection changed the cut");
        }
        fm_refine(g_li, &mut bis, target, ubfactor, FM_PASSES, &mut fm);
    }
    bis
}

/// Recursive-bisection k-way partitioning of a graph — the stand-in for
/// `METIS_PartGraphRecursive` used by the paper's GP reordering.
///
/// Returns the part id (in `0..num_parts`) of every vertex. Balance is
/// on vertex weight; with unit weights this balances the number of rows
/// per part, the configuration the paper uses (§3.3).
pub fn partition_graph(g: &Graph, config: &PartitionConfig) -> Vec<u32> {
    let n = g.num_vertices();
    // Part ids are u32s: `k as u32` below must not wrap to 0.
    let k = config.num_parts.clamp(1, u32::MAX as usize);
    let mut part_of = vec![0u32; n];
    if k == 1 || n == 0 {
        return part_of;
    }
    let vertices: Vec<u32> = (0..n as u32).collect();
    let mut ids = LocalIds::default();
    let parts = 0..k as u32;
    recurse(
        g,
        &vertices,
        parts,
        config,
        config.seed,
        &mut part_of,
        &mut ids,
    );
    part_of
}

/// Recursively bisect the subgraph induced by `vertices` into `parts`.
fn recurse(
    g_full: &Graph,
    vertices: &[u32],
    parts: Range<u32>,
    config: &PartitionConfig,
    seed: u64,
    part_of: &mut [u32],
    ids: &mut LocalIds,
) {
    let k = parts.len();
    if k == 1 || vertices.len() <= 1 {
        for &v in vertices {
            part_of[v as usize] = parts.start;
        }
        return;
    }
    let sub = g_full.subgraph(vertices, ids);
    // Split k into k0 = floor(k/2) and the rest; target weights
    // proportional to the split so non-power-of-two k stays balanced.
    let k0 = k / 2;
    let total = sub.total_vertex_weight();
    let t0 = (total as f64 * k0 as f64 / k as f64).round() as i64;
    let target = [t0, total - t0];
    let bis = multilevel_bisect(&sub, target, config.ubfactor, seed);

    let mut left = Vec::with_capacity(vertices.len() / 2 + 1);
    let mut right = Vec::with_capacity(vertices.len() / 2 + 1);
    for (local, &global) in vertices.iter().enumerate() {
        if bis.part_of[local] == 0 {
            left.push(global);
        } else {
            right.push(global);
        }
    }
    let mid = parts.start + k0 as u32;
    let seed = seed.wrapping_mul(0x9E37);
    recurse(
        g_full,
        &left,
        parts.start..mid,
        config,
        seed.wrapping_add(1),
        part_of,
        ids,
    );
    recurse(
        g_full,
        &right,
        mid..parts.end,
        config,
        seed.wrapping_add(2),
        part_of,
        ids,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_cut, part_weights};

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
        let b = multilevel_bisect(&g, [total / 2, total / 2], 1.05, 42);
        assert!(
            b.cut <= 28,
            "multilevel cut {} too far from optimal 16",
            b.cut
        );
        assert!(b.imbalance([total / 2, total / 2]) <= 1.06);
    }

    #[test]
    fn four_way_partition_balanced() {
        let g = grid(12); // 144 vertices
        let cfg = PartitionConfig::k(4);
        let parts = partition_graph(&g, &cfg);
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
        let cfg = PartitionConfig::k(6);
        let parts = partition_graph(&g, &cfg);
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
        let cfg = PartitionConfig::k(1);
        let parts = partition_graph(&g, &cfg);
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(10);
        let cfg = PartitionConfig::k(4);
        let p1 = partition_graph(&g, &cfg);
        let p2 = partition_graph(&g, &cfg);
        assert_eq!(p1, p2);
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
        let cfg = PartitionConfig::k(2);
        let parts = partition_graph(&g, &cfg);
        let w = part_weights(&g, &parts, 2);
        assert_eq!(w[0] + w[1], 8);
        assert!(w[0] >= 3 && w[0] <= 5);
    }
}
