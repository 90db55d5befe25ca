//! Reverse Cuthill–McKee ordering [4, 19].
//!
//! The Cuthill–McKee ordering numbers the vertices of the matrix graph
//! in breadth-first order starting from a pseudo-peripheral vertex,
//! visiting the children of each vertex in ascending degree order.
//! Reversing the resulting sequence yields RCM, which is known to
//! produce the same bandwidth but a smaller profile and less fill in
//! practice (§2.1.1). Disconnected components are processed one after
//! another, each from its own pseudo-peripheral start.

use crate::component::{assemble_pieces, ComponentOrdering};
use crate::exec::{build_ordering_graph, ReorderExec};
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsegraph::{pseudo_peripheral_vertex_with, Graph, LevelStructure};
use sparsemat::{CsrMatrix, SparseError};

/// Reverse Cuthill–McKee reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rcm {
    /// If true, skip the final reversal and produce the plain
    /// Cuthill–McKee order (exposed for the ablation benchmarks).
    pub plain_cm: bool,
}

impl Rcm {
    /// One component's final bytes: the Cuthill–McKee order of the
    /// component containing `seed`, reversed unless `plain_cm`.
    ///
    /// CM is the level structure rooted at the component's
    /// pseudo-peripheral vertex with each parent's children sorted by
    /// `(degree, id)` — the classic single-queue discipline, on
    /// whatever executor `rx` names (DESIGN §9). Every search runs in
    /// `levels`, so a component costs no allocation beyond its piece,
    /// and its sub-order depends only on its own subgraph and `seed` —
    /// the invariant the delta splice path relies on.
    fn piece(
        &self,
        g: &Graph,
        seed: usize,
        levels: &mut LevelStructure,
        rx: &ReorderExec<'_>,
    ) -> Vec<u32> {
        let (exec, frontier_min) = (rx.exec(), rx.frontier_min());
        let start = pseudo_peripheral_vertex_with(g, seed, levels, exec, frontier_min);
        levels.run_on(g, start, exec, frontier_min, |children| {
            children.sort_unstable_by_key(|&u| (g.degree(u as usize), u))
        });
        let cm = levels.reached();
        if self.plain_cm {
            cm.to_vec()
        } else {
            cm.iter().rev().copied().collect()
        }
    }
}

impl ReorderAlgorithm for Rcm {
    fn name(&self) -> &'static str {
        "RCM"
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
            .expect("RCM is component-structured");
        Ok(co.into_parts()?.0)
    }

    fn supports_components(&self) -> bool {
        true
    }

    /// Reversing each piece and laying pieces out in descending key
    /// order is exactly the classic global reversal of the ascending CM
    /// concatenation.
    fn order_component_on(
        &self,
        g: &Graph,
        comp: &[u32],
        rx: &ReorderExec<'_>,
    ) -> Option<Vec<u32>> {
        let mut levels = LevelStructure::with_reach(g.num_vertices(), comp.len());
        Some(self.piece(g, comp[0] as usize, &mut levels, rx))
    }

    fn component_layout(&self, meta: &[(u32, usize)]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..meta.len()).collect();
        if self.plain_cm {
            idx.sort_by_key(|&i| meta[i].0);
        } else {
            idx.sort_by_key(|&i| std::cmp::Reverse(meta[i].0));
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
        let n = g.num_vertices();
        let mut levels = LevelStructure::new(n);
        let mut pieces: Vec<(u32, Vec<u32>)> = Vec::new();
        // A search stamps its own component only, so a vertex no search
        // has touched is the lowest vertex — the key — of the next one.
        for s in 0..n {
            if levels.untouched(s) {
                pieces.push((s as u32, self.piece(&g, s, &mut levels, rx)));
            }
        }
        Ok(Some(assemble_pieces(self, pieces)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, Permutation};

    /// Bandwidth of a square matrix: max |i - j| over stored entries.
    fn bandwidth(a: &CsrMatrix) -> usize {
        let mut bw = 0usize;
        for (i, j, _) in a.iter() {
            bw = bw.max(i.abs_diff(j));
        }
        bw
    }

    /// An "arrow" matrix: dense first row/column plus diagonal. The
    /// natural ordering has bandwidth n-1; RCM reduces it drastically...
    /// actually for an arrow matrix the star graph keeps the hub
    /// adjacent to everything, so instead use a shuffled banded matrix,
    /// where RCM recovers a narrow band.
    fn shuffled_band(n: usize, half_bw: usize, seed: u64) -> CsrMatrix {
        // Build banded matrix, then symmetrically permute by a
        // pseudo-random shuffle, destroying the band.
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
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        a.permute_symmetric(&p).unwrap()
    }

    #[test]
    fn rcm_recovers_band_structure() {
        let n = 200;
        let a = shuffled_band(n, 2, 7);
        assert!(bandwidth(&a) > n / 4, "shuffle failed to destroy the band");
        let r = Rcm::default().compute(&a).unwrap();
        let b = r.apply(&a).unwrap();
        assert!(
            bandwidth(&b) <= 8,
            "RCM bandwidth {} should be near the original 2",
            bandwidth(&b)
        );
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn rcm_is_reverse_of_cm() {
        let a = shuffled_band(50, 2, 3);
        let rcm = Rcm::default().compute(&a).unwrap();
        let cm = Rcm { plain_cm: true }.compute(&a).unwrap();
        let n = a.nrows();
        for k in 0..n {
            assert_eq!(rcm.perm.new_to_old(k), cm.perm.new_to_old(n - 1 - k));
        }
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        // Two separate paths.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0);
        }
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(1, 2, 1.0);
        coo.push_symmetric(3, 4, 1.0);
        coo.push_symmetric(4, 5, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let r = Rcm::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 6);
        // Valid permutation covering all vertices (checked by constructor);
        // bandwidth must remain small.
        let b = r.apply(&a).unwrap();
        assert!(bandwidth(&b) <= 2);
    }

    #[test]
    fn rcm_on_unsymmetric_pattern_uses_symmetrisation() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 3, 1.0); // one-directional entry
        let a = CsrMatrix::from_coo(&coo);
        let r = Rcm::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 4);
        assert!(r.symmetric);
        r.apply(&a).unwrap().validate().unwrap();
    }

    #[test]
    fn rcm_identity_sized_one() {
        let a = CsrMatrix::identity(1);
        let r = Rcm::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 1);
    }

    #[test]
    fn parallel_rcm_matches_sequential() {
        let a = shuffled_band(400, 3, 11);
        let seq = Rcm::default().compute(&a).unwrap().perm;
        let registry = telemetry::Registry::new_arc();
        for lanes in [1usize, 2, 4] {
            let team = team::ThreadTeam::new_in(&registry, lanes);
            let par = Rcm::default()
                .compute_on(&a, &ReorderExec::on_team(&team))
                .unwrap()
                .perm;
            assert_eq!(seq, par, "RCM diverged at {lanes} lanes");
        }
    }

    #[test]
    fn frontier_min_does_not_change_the_order() {
        let a = shuffled_band(400, 3, 11);
        let seq = Rcm::default().compute(&a).unwrap().perm;
        let registry = telemetry::Registry::new_arc();
        let team = team::ThreadTeam::new_in(&registry, 4);
        for frontier_min in [0usize, 16, 1024, usize::MAX] {
            let tuned = Rcm::default()
                .compute_on(
                    &a,
                    &ReorderExec::on_team(&team).with_frontier_min(frontier_min),
                )
                .unwrap()
                .perm;
            assert_eq!(seq, tuned, "RCM diverged at frontier_min {frontier_min}");
        }
    }

    #[test]
    fn cm_order_visits_low_degree_first_within_level() {
        // Star with one extra pendant chain: from the hub, children are
        // visited in ascending degree order.
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(0, 2, 1.0);
        coo.push_symmetric(2, 3, 1.0); // vertex 2 has degree 2
        coo.push_symmetric(3, 4, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let cm = Rcm { plain_cm: true }.compute(&a).unwrap().perm;
        let order = cm.order();
        assert_eq!(order.len(), 5);
        // Wherever 0 appears, 1 (degree 1) must come before 2 (degree 2)
        // if both are children of 0.
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        if pos(0) < pos(1) && pos(0) < pos(2) {
            assert!(pos(1) < pos(2));
        }
    }
}
