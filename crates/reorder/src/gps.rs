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
use sparsegraph::{pseudo_peripheral_vertex_with, Graph, LevelStructure};
use sparsemat::{CsrMatrix, SparseError};
use telemetry::stages;

/// Gibbs–Poole–Stockmeyer reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gps {
    /// Reverse the final numbering (like RCM vs CM; reversal does not
    /// change bandwidth but typically improves profile/fill).
    pub reverse: bool,
}

/// What the components of one GPS ordering share: the level structure
/// every search runs in, and the per-vertex levels of the two rooted
/// structures. Components are disjoint, so nothing is cleared between
/// them.
struct GpsWork {
    levels: LevelStructure,
    /// Distance from the pseudo-diameter's first endpoint; overwritten
    /// by the vertex's combined level once that is decided.
    lu: Vec<u32>,
    /// Distance from the second endpoint.
    lv: Vec<u32>,
}

impl GpsWork {
    /// Scratch for an `n`-vertex graph whose components to be ordered
    /// have at most `reach` vertices.
    fn new(n: usize, reach: usize) -> GpsWork {
        GpsWork {
            levels: LevelStructure::with_reach(n, reach),
            lu: vec![0; n],
            lv: vec![0; n],
        }
    }
}

impl Gps {
    /// One component's final bytes: the GPS order of the component
    /// containing `seed`, reversed when `reverse` is set.
    ///
    /// Every search is a [`LevelStructure`] run, so wide levels expand
    /// on `rx`'s lanes; the level structures — and therefore the
    /// combined numbering — are identical for every executor.
    fn piece(&self, g: &Graph, seed: usize, work: &mut GpsWork, rx: &ReorderExec<'_>) -> Vec<u32> {
        let GpsWork { levels, lu, lv } = work;
        let (exec, frontier_min) = (rx.exec(), rx.frontier_min());
        // 1. Pseudo-diameter endpoints. The finder leaves `levels`
        //    rooted at the vertex it returns.
        pseudo_peripheral_vertex_with(g, seed, levels, exec, frontier_min);
        levels.write_levels(lu);
        let mut order = levels.reached().to_vec();
        let depth_u = levels.depth();
        let v = *levels
            .last_level()
            .iter()
            .min_by_key(|&&w| g.degree(w as usize))
            .expect("deepest level nonempty") as usize;
        levels.run_on(g, v, exec, frontier_min, |_| {});
        levels.write_levels(lv);
        let depth = depth_u.max(levels.depth());

        // 2. Combined levels: vertex w has the candidate pair
        //    (l_u(w), depth - 1 - l_v(w)). Where they agree that is its
        //    level; the rest go to the narrower of their candidates
        //    (ties toward the l_u level), in BFS order for determinism.
        let other = |lv: &[u32], w: u32| depth - 1 - lv[w as usize] as usize;
        let mut width = vec![0usize; depth];
        let mut undecided: Vec<u32> = Vec::new();
        for &w in &order {
            let a = lu[w as usize] as usize;
            if a == other(lv, w) {
                width[a] += 1;
            } else {
                undecided.push(w);
            }
        }
        for &w in &undecided {
            let (a, b) = (lu[w as usize] as usize, other(lv, w));
            let pick = if width[b] < width[a] { b } else { a };
            lu[w as usize] = pick as u32;
            width[pick] += 1;
        }

        // 3. Number level by level; within a level, vertices adjacent
        //    to an earlier level first, ascending degree (the CM
        //    discipline applied to the combined structure).
        order.sort_by_cached_key(|&w| {
            let k = lu[w as usize];
            let detached = !g.neighbors(w as usize).iter().any(|&x| lu[x as usize] < k);
            (k, detached, g.degree(w as usize), w)
        });
        if self.reverse {
            order.reverse();
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

    /// The global reversal decomposes into per-piece reversal plus
    /// reversed layout.
    fn order_component_on(
        &self,
        g: &Graph,
        comp: &[u32],
        rx: &ReorderExec<'_>,
    ) -> Option<Vec<u32>> {
        let mut work = GpsWork::new(g.num_vertices(), comp.len());
        Some(self.piece(g, comp[0] as usize, &mut work, rx))
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
        let _span = rx.trace().span(stages::REORDER_LEVELS);
        let n = g.num_vertices();
        let mut work = GpsWork::new(n, n);
        let mut pieces: Vec<(u32, Vec<u32>)> = Vec::new();
        // As in RCM: an untouched vertex is the next component's key.
        for s in 0..n {
            if work.levels.untouched(s) {
                pieces.push((s as u32, self.piece(&g, s, &mut work, rx)));
            }
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
