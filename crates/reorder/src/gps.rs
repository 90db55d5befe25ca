//! Gibbs–Poole–Stockmeyer (GPS) bandwidth/profile reduction \[12\] —
//! the second classic bandwidth-reducing ordering the paper's §2.1.1
//! cites alongside Cuthill–McKee.
//!
//! GPS improves on CM in two ways: it locates a *pseudo-diameter*
//! (a pair of vertices nearly realising the graph diameter) by
//! iterating the George–Liu procedure from both ends, and it numbers
//! vertices using a **combined level structure** built from the rooted
//! level structures of both endpoints, which tends to be narrower than
//! either one alone. Within the combined structure, levels are numbered
//! consecutively with CM's ascending-degree tie-breaking.
//!
//! This implementation follows the standard simplified GPS scheme:
//! vertices on which both level structures agree keep that level;
//! the remaining vertices are assigned greedily to the currently
//! narrower of their two candidate levels, processed component-wise in
//! descending component size (the order GPS prescribes).

use crate::component::{assemble_pieces, ComponentOrdering};
use crate::exec::{build_ordering_graph, ReorderExec};
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsegraph::{bfs_levels_with, connected_components, pseudo_peripheral_vertex_with, Graph};
use sparsemat::{CsrMatrix, SparseError};
use team::Exec;

/// Gibbs–Poole–Stockmeyer reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gps {
    /// Reverse the final numbering (like RCM vs CM; reversal does not
    /// change bandwidth but typically improves profile/fill).
    pub reverse: bool,
}

impl Gps {
    /// Compute the GPS order of one connected component, returning the
    /// component's vertices in their new relative order.
    ///
    /// The two rooted level structures are built with
    /// [`bfs_levels_with`], so wide frontiers expand on `exec`'s lanes;
    /// the level structures — and therefore the combined numbering —
    /// are identical for every executor.
    fn component_order(g: &Graph, start: usize, exec: Exec<'_>, frontier_min: usize) -> Vec<u32> {
        // 1. Pseudo-diameter endpoints.
        let u = pseudo_peripheral_vertex_with(g, start, exec, frontier_min);
        let lu = bfs_levels_with(g, u, exec, frontier_min);
        let deepest = lu.levels.last().expect("nonempty component");
        let v = *deepest
            .iter()
            .min_by_key(|&&w| g.degree(w as usize))
            .expect("deepest level nonempty") as usize;
        let lv = bfs_levels_with(g, v, exec, frontier_min);
        let depth = lu.depth().max(lv.depth());

        // 2. Combined levels: vertex w gets candidate pair
        //    (l_u(w), depth - 1 - l_v(w)).
        let members: Vec<u32> = lu
            .levels
            .iter()
            .flat_map(|lvl| lvl.iter().copied())
            .collect();
        let mut level_of: std::collections::HashMap<u32, usize> = Default::default();
        let mut width = vec![0usize; depth];
        let mut undecided: Vec<u32> = Vec::new();
        for &w in &members {
            let a = lu.level_of[w as usize];
            let b = depth - 1 - lv.level_of[w as usize].min(depth - 1);
            if a == b {
                level_of.insert(w, a);
                width[a] += 1;
            } else {
                undecided.push(w);
            }
        }
        // Assign undecided vertices to the narrower of their candidates
        // (ties toward the l_u level), in BFS order for determinism.
        for &w in &undecided {
            let a = lu.level_of[w as usize];
            let b = depth - 1 - lv.level_of[w as usize].min(depth - 1);
            let pick = if width[b] < width[a] { b } else { a };
            level_of.insert(w, pick);
            width[pick] += 1;
        }

        // 3. Number level by level; within a level, vertices adjacent to
        //    already-numbered vertices first, ascending degree (the CM
        //    discipline applied to the combined structure).
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); depth];
        for &w in &members {
            by_level[level_of[&w]].push(w);
        }
        let mut order = Vec::with_capacity(members.len());
        let mut numbered = std::collections::HashSet::new();
        for level in &mut by_level {
            // Sort for determinism, then stable-partition by adjacency
            // to the previous level for locality.
            level.sort_unstable_by_key(|&w| (g.degree(w as usize), w));
            let (adj, rest): (Vec<u32>, Vec<u32>) = level.iter().partition(|&&w| {
                g.neighbors(w as usize)
                    .iter()
                    .any(|&n| numbered.contains(&n))
            });
            for &w in adj.iter().chain(rest.iter()) {
                order.push(w);
                numbered.insert(w);
            }
        }
        order
    }
}

impl ReorderAlgorithm for Gps {
    fn name(&self) -> &'static str {
        "GPS"
    }

    fn compute(&self, a: &CsrMatrix) -> Result<ReorderResult, SparseError> {
        self.compute_on(a, &ReorderExec::sequential())
    }

    fn compute_on(
        &self,
        a: &CsrMatrix,
        rx: &ReorderExec<'_>,
    ) -> Result<ReorderResult, SparseError> {
        let co = self
            .compute_components_on(a, rx)?
            .expect("GPS is component-structured");
        Ok(co.into_parts()?.0)
    }

    fn supports_components(&self) -> bool {
        true
    }

    /// One component's final GPS bytes: the combined-level numbering
    /// from the component's pseudo-diameter, reversed per piece when
    /// `reverse` is set (the global reversal decomposes into per-piece
    /// reversal plus reversed layout).
    fn order_component_on(
        &self,
        g: &Graph,
        comp: &[u32],
        rx: &ReorderExec<'_>,
    ) -> Option<Vec<u32>> {
        let mut piece = Gps::component_order(g, comp[0] as usize, rx.exec(), rx.frontier_min());
        if self.reverse {
            piece.reverse();
        }
        Some(piece)
    }

    /// GPS numbers components in descending size (ties broken by
    /// ascending key); the `reverse` flag flips the layout along with
    /// each piece.
    fn component_layout(&self, meta: &[(u32, usize)]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..meta.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(meta[i].1), meta[i].0));
        if self.reverse {
            idx.reverse();
        }
        idx
    }

    fn compute_components_on(
        &self,
        a: &CsrMatrix,
        rx: &ReorderExec<'_>,
    ) -> Result<Option<ComponentOrdering>, SparseError> {
        let g = build_ordering_graph(a, rx)?;
        let _span = rx.trace().span("reorder.levels");
        let comps = connected_components(&g);
        let mut pieces: Vec<(u32, Vec<u32>)> = Vec::with_capacity(comps.count());
        for comp in &comps.members {
            let mut piece =
                Gps::component_order(&g, comp[0] as usize, rx.exec(), rx.frontier_min());
            if self.reverse {
                piece.reverse();
            }
            pieces.push((comp[0], piece));
        }
        Ok(Some(assemble_pieces(self, pieces)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, Permutation};

    fn bandwidth(a: &CsrMatrix) -> usize {
        a.iter().map(|(i, j, _)| i.abs_diff(j)).max().unwrap_or(0)
    }

    fn shuffled_band(n: usize, half_bw: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(half_bw)..(i + half_bw + 1).min(n) {
                coo.push(i, j, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        a.permute_symmetric(&p).unwrap()
    }

    #[test]
    fn gps_recovers_band_structure() {
        let a = shuffled_band(300, 3, 9);
        assert!(bandwidth(&a) > 100);
        let r = Gps::default().compute(&a).unwrap();
        let b = r.apply(&a).unwrap();
        assert!(
            bandwidth(&b) <= 12,
            "GPS bandwidth {} on a half-bw 3 band",
            bandwidth(&b)
        );
    }

    #[test]
    fn gps_comparable_to_rcm_on_mesh() {
        // GPS's raison d'être: bandwidth no worse than ~CM's on meshes.
        let n = 20;
        let mut coo = CooMatrix::new(n * n, n * n);
        for r in 0..n {
            for c in 0..n {
                let i = r * n + c;
                coo.push(i, i, 4.0);
                if r + 1 < n {
                    coo.push_symmetric(i, i + n, -1.0);
                }
                if c + 1 < n {
                    coo.push_symmetric(i, i + 1, -1.0);
                }
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let gps = Gps::default().compute(&a).unwrap().apply(&a).unwrap();
        let rcm = crate::Rcm::default()
            .compute(&a)
            .unwrap()
            .apply(&a)
            .unwrap();
        assert!(
            bandwidth(&gps) <= 2 * bandwidth(&rcm),
            "GPS bandwidth {} vs RCM {}",
            bandwidth(&gps),
            bandwidth(&rcm)
        );
    }

    #[test]
    fn gps_valid_on_disconnected_graphs() {
        let mut coo = CooMatrix::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, 1.0);
        }
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(2, 3, 1.0);
        coo.push_symmetric(3, 4, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let r = Gps::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 10);
        r.apply(&a).unwrap().validate().unwrap();
        // Largest component (2-3-4) is numbered first.
        let first = r.perm.new_to_old(0);
        assert!(
            [2, 3, 4].contains(&first),
            "largest component should come first, got {first}"
        );
    }

    #[test]
    fn gps_reverse_flag() {
        let a = shuffled_band(60, 2, 4);
        let fwd = Gps::default().compute(&a).unwrap().perm;
        let rev = Gps { reverse: true }.compute(&a).unwrap().perm;
        for k in 0..60 {
            assert_eq!(fwd.new_to_old(k), rev.new_to_old(59 - k));
        }
    }

    #[test]
    fn parallel_gps_matches_sequential() {
        let a = shuffled_band(400, 3, 13);
        let seq = Gps::default().compute(&a).unwrap().perm;
        let registry = telemetry::Registry::new_arc();
        for lanes in [1usize, 2, 4] {
            let team = team::ThreadTeam::new_in(&registry, lanes);
            let par = Gps::default()
                .compute_on(&a, &ReorderExec::on_team(&team))
                .unwrap()
                .perm;
            assert_eq!(seq, par, "GPS diverged at {lanes} lanes");
        }
    }

    #[test]
    fn gps_deterministic() {
        let a = shuffled_band(150, 2, 5);
        assert_eq!(
            Gps::default().compute(&a).unwrap().perm,
            Gps::default().compute(&a).unwrap().perm
        );
    }
}
