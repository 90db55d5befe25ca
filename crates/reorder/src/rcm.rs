//! Reverse Cuthill–McKee ordering [4, 19].
//!
//! The Cuthill–McKee ordering numbers the vertices of the matrix graph
//! in breadth-first order starting from a pseudo-peripheral vertex,
//! visiting the children of each vertex in ascending degree order.
//! Reversing the resulting sequence yields RCM, which is known to
//! produce the same bandwidth but a smaller profile and less fill in
//! practice (§2.1.1). Disconnected components are processed one after
//! another, each from its own pseudo-peripheral start.

use crate::component::{sweep_components, ComponentRange};
use crate::exec::ReorderExec;
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsegraph::{pseudo_peripheral_vertex_with, Graph, LevelStructure};
use sparsemat::{CsrMatrix, SparseError};
use std::cmp::Reverse;
use telemetry::stages;

/// Reverse Cuthill–McKee reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rcm;

impl Rcm {
    /// Append one component's final bytes to `order`: the
    /// Cuthill–McKee order of the component containing `seed`,
    /// reversed.
    ///
    /// CM is the level structure rooted at the component's
    /// pseudo-peripheral vertex with each parent's children sorted by
    /// `(degree, id)` — the classic single-queue discipline, on
    /// whatever executor `rx` names (DESIGN §9). Every search runs in
    /// `levels`, so a component costs no allocation, and its sub-order
    /// depends only on its own subgraph and `seed` — the invariant the
    /// delta splice path relies on.
    fn piece(
        g: &Graph,
        seed: usize,
        levels: &mut LevelStructure,
        rx: &ReorderExec<'_>,
        order: &mut Vec<u32>,
    ) {
        let (exec, frontier_min) = (rx.exec(), rx.frontier_min());
        let start = pseudo_peripheral_vertex_with(g, seed, levels, exec, frontier_min);
        levels.run_on(g, start, exec, frontier_min, |children| {
            children.sort_unstable_by_key(|&u| (g.degree(u as usize), u))
        });
        order.extend(levels.reached().iter().rev());
    }
}

impl ReorderAlgorithm for Rcm {
    fn name(&self) -> &'static str {
        "RCM"
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

    fn order_components_on(
        &self,
        g: &Graph,
        seeds: &mut dyn Iterator<Item = usize>,
        order: &mut Vec<u32>,
        ranges: &mut Vec<ComponentRange>,
        rx: &ReorderExec<'_>,
    ) {
        let _span = rx.trace().span(stages::REORDER_LEVELS);
        sweep_components(g, seeds, order, ranges, |seed, levels, order| {
            Self::piece(g, seed, levels, rx, order)
        });
    }

    /// Reversing each piece and laying pieces out in descending key
    /// order is exactly the classic global reversal of the ascending CM
    /// concatenation.
    fn component_layout(&self, ranges: &mut [ComponentRange]) {
        ranges.sort_unstable_by_key(|r| Reverse(r.key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::build_ordering_graph;
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
        shuffled(&CsrMatrix::from_coo(&coo), seed)
    }

    /// `a` under a seeded pseudo-random symmetric permutation.
    fn shuffled(a: &CsrMatrix, seed: u64) -> CsrMatrix {
        let n = a.nrows();
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
        let r = Rcm.compute(&a).unwrap();
        let b = r.apply(&a).unwrap();
        assert!(
            bandwidth(&b) <= 8,
            "RCM bandwidth {} should be near the original 2",
            bandwidth(&b)
        );
        assert_eq!(b.nnz(), a.nnz());
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
        let r = Rcm.compute(&a).unwrap();
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
        let r = Rcm.compute(&a).unwrap();
        assert_eq!(r.perm.len(), 4);
        assert!(r.symmetric);
        r.apply(&a).unwrap().validate().unwrap();
    }

    #[test]
    fn rcm_identity_sized_one() {
        let a = CsrMatrix::identity(1);
        let r = Rcm.compute(&a).unwrap();
        assert_eq!(r.perm.len(), 1);
    }

    #[test]
    fn parallel_rcm_matches_sequential() {
        let a = shuffled_band(400, 3, 11);
        let seq = Rcm.compute(&a).unwrap().perm;
        let registry = telemetry::Registry::new_arc();
        for lanes in [1usize, 2, 4] {
            let team = team::ThreadTeam::new_in(&registry, lanes);
            let par = Rcm
                .compute_on(&a, &ReorderExec::on_team(&team))
                .unwrap()
                .perm;
            assert_eq!(seq, par, "RCM diverged at {lanes} lanes");
        }
    }

    #[test]
    fn frontier_min_does_not_change_the_order() {
        let a = shuffled_band(400, 3, 11);
        let seq = Rcm.compute(&a).unwrap().perm;
        let registry = telemetry::Registry::new_arc();
        let team = team::ThreadTeam::new_in(&registry, 4);
        for frontier_min in [0usize, 16, 1024, usize::MAX] {
            let tuned = Rcm
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
        // CM appends each vertex's unvisited neighbours in ascending
        // (degree, id) order, so in RCM, the reversed CM order, the
        // children of one parent sit together in descending order. A
        // vertex's parent is its first-visited neighbour: the one RCM
        // places last, when that is after the vertex itself. A shuffled
        // 5-point grid has siblings of degree 2, 3 and 4 whose ids
        // disagree with their degrees.
        let side = 14;
        let mut coo = CooMatrix::new(side * side, side * side);
        for i in 0..side * side {
            coo.push(i, i, 4.0);
            if i + side < side * side {
                coo.push_symmetric(i, i + side, -1.0);
            }
            if (i + 1) % side != 0 {
                coo.push_symmetric(i, i + 1, -1.0);
            }
        }
        let a = shuffled(&CsrMatrix::from_coo(&coo), 5);
        let g = build_ordering_graph(&a, &ReorderExec::sequential()).unwrap();
        let order = Rcm.compute(&a).unwrap().perm.order().to_vec();
        let mut pos = vec![0usize; order.len()];
        for (k, &v) in order.iter().enumerate() {
            pos[v as usize] = k;
        }
        let parent = |v: u32| {
            let last = *g
                .neighbors(v as usize)
                .iter()
                .max_by_key(|&&u| pos[u as usize])?;
            (pos[last as usize] > pos[v as usize]).then_some(last)
        };
        let key = |v: u32| (g.degree(v as usize), v);
        let mut siblings = 0;
        for w in order.windows(2) {
            if let (Some(p), Some(q)) = (parent(w[0]), parent(w[1])) {
                if p == q {
                    assert!(key(w[0]) > key(w[1]), "children {w:?} of {p}");
                    siblings += 1;
                }
            }
        }
        assert!(siblings > 0, "no vertex had two children");
    }
}
