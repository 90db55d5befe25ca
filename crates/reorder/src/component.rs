//! Component-structured orderings and the delta splice path.
//!
//! Every ordering of a disconnected graph decomposes into independent
//! sub-permutations, one per connected component, arranged by an
//! algorithm-specific layout discipline (RCM lays reversed CM pieces
//! out in descending component key, AMD concatenates in ascending
//! key). [`ComponentOrdering`] makes that decomposition explicit — the
//! flat `new_to_old` order plus a component→range map — which is what
//! turns a structural delta from "recompute everything" into
//! "recompute the dirty components and splice the rest back
//! byte-identically" ([`splice_ordering_on`]).
//!
//! The byte-identity argument: a component's sub-permutation depends
//! only on its own subgraph and its canonical key (the minimum member
//! vertex, which seeds the pseudo-peripheral search), and the layout
//! disciplines are total orders on the keys. An untouched component
//! therefore reproduces its cached bytes exactly, and the spliced whole
//! equals a full recompute.

use crate::exec::{build_ordering_graph, ReorderExec};
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsegraph::IncrementalComponents;
use sparsemat::{CsrMatrix, Permutation, SparseError};
use std::collections::BTreeMap;

/// One component's slice of a [`ComponentOrdering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentRange {
    /// Canonical component key: the minimum vertex id of the component.
    pub key: u32,
    /// Offset of the component's sub-permutation in `order`.
    pub start: usize,
    /// Length of the sub-permutation (= component size).
    pub len: usize,
}

/// A permutation decomposed into per-component sub-permutations.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentOrdering {
    /// The full ordering, `order[new] = old`.
    pub order: Vec<u32>,
    /// Component ranges in final layout order; the ranges tile `order`
    /// exactly. `order[start..start + len]` is both the component's
    /// sub-permutation and its membership set.
    pub ranges: Vec<ComponentRange>,
    /// Whether the ordering applies symmetrically (it does for every
    /// component-structured algorithm: RCM and AMD).
    pub symmetric: bool,
}

impl ComponentOrdering {
    /// Split into the plain [`ReorderResult`] (validating the
    /// permutation) and the range map.
    pub fn into_parts(self) -> Result<(ReorderResult, Vec<ComponentRange>), SparseError> {
        let perm = Permutation::from_new_to_old(self.order)?;
        Ok((
            ReorderResult {
                perm,
                symmetric: self.symmetric,
            },
            self.ranges,
        ))
    }

    /// The sub-permutation of the component with the given key.
    pub fn piece(&self, key: u32) -> Option<&[u32]> {
        self.ranges
            .iter()
            .find(|r| r.key == key)
            .map(|r| &self.order[r.start..r.start + r.len])
    }
}

/// What a [`splice_ordering_on`] call did, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceReport {
    /// Components in the post-delta ordering.
    pub components: usize,
    /// Components actually re-ordered (the dirty ones).
    pub recomputed: usize,
    /// Rows in the recomputed components.
    pub dirty_rows: usize,
    /// Rows re-scanned by the incremental component update.
    pub rescanned: usize,
}

impl SpliceReport {
    /// Fraction of rows that had to be re-ordered.
    pub fn dirty_frac(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.dirty_rows as f64 / n as f64
        }
    }
}

/// Concatenate per-component pieces (given in any order, keys unique)
/// into a [`ComponentOrdering`] under the algorithm's layout
/// discipline.
pub(crate) fn assemble_pieces(
    algo: &dyn ReorderAlgorithm,
    pieces: Vec<(u32, Vec<u32>)>,
) -> ComponentOrdering {
    let keys: Vec<u32> = pieces.iter().map(|&(k, _)| k).collect();
    let layout = algo.component_layout(&keys);
    debug_assert_eq!(layout.len(), pieces.len(), "layout must cover every piece");
    let total: usize = pieces.iter().map(|(_, p)| p.len()).sum();
    let mut order = Vec::with_capacity(total);
    let mut ranges = Vec::with_capacity(pieces.len());
    for &idx in &layout {
        let (key, piece) = &pieces[idx];
        ranges.push(ComponentRange {
            key: *key,
            start: order.len(),
            len: piece.len(),
        });
        order.extend_from_slice(piece);
    }
    debug_assert_eq!(order.len(), total);
    ComponentOrdering {
        order,
        ranges,
        symmetric: true,
    }
}

/// Re-order only the components touched since a cached ancestor
/// ordering and splice the untouched sub-permutations back verbatim.
///
/// * `a` — the **post-delta** matrix.
/// * `cached_order` / `cached_ranges` — the ancestor's
///   component-structured ordering (same algorithm).
/// * `touched` — the union of
///   [`DeltaReport::touched_rows`](sparsemat::DeltaReport::touched_rows)
///   over every delta between the ancestor and `a`.
///
/// Returns `Ok(None)` when the splice cannot be taken safely — the
/// algorithm is not component-structured, the dimensions changed, or
/// the cached ranges are inconsistent with the post-delta component
/// structure — in which case the caller falls back to a full
/// recompute. On success the result is **byte-identical** to
/// `compute_components_on` on `a` (pinned by the determinism suite).
pub fn splice_ordering_on(
    algo: &dyn ReorderAlgorithm,
    a: &CsrMatrix,
    cached_order: &[u32],
    cached_ranges: &[ComponentRange],
    touched: &[u32],
    rx: &ReorderExec<'_>,
) -> Result<Option<(ComponentOrdering, SpliceReport)>, SparseError> {
    if !algo.supports_components() || cached_ranges.is_empty() {
        return Ok(None);
    }
    let n = a.nrows();
    if !a.is_square()
        || cached_order.len() != n
        || cached_ranges.iter().map(|r| r.len).sum::<usize>() != n
        || touched.iter().any(|&t| t as usize >= n)
    {
        return Ok(None);
    }
    let g = build_ordering_graph(a, rx)?;

    // Rebuild the component partition from the cached ranges, then
    // re-scan only the touched components on the post-delta graph.
    let mut inc = IncrementalComponents::from_partition(
        n,
        cached_ranges
            .iter()
            .map(|r| cached_order[r.start..r.start + r.len].iter().copied()),
    );
    let delta = inc.apply_delta(&g, touched);
    let dirty: BTreeMap<u32, ()> = delta.dirty.iter().map(|&l| (l, ())).collect();
    let by_key: BTreeMap<u32, &ComponentRange> = cached_ranges.iter().map(|r| (r.key, r)).collect();

    let mut report = SpliceReport {
        components: inc.count(),
        recomputed: 0,
        dirty_rows: 0,
        rescanned: delta.rescanned,
    };
    let mut pieces: Vec<(u32, Vec<u32>)> = Vec::with_capacity(inc.count());
    for label in inc.labels().collect::<Vec<_>>() {
        let members = inc.members(label).expect("label enumerated from the map");
        if dirty.contains_key(&label) {
            let piece = match algo.order_component_on(&g, members, rx) {
                Some(p) => p,
                None => return Ok(None),
            };
            debug_assert_eq!(piece.len(), members.len());
            report.recomputed += 1;
            report.dirty_rows += members.len();
            pieces.push((label, piece));
        } else {
            // Clean component: its sub-permutation splices verbatim.
            let range = match by_key.get(&label) {
                Some(r) if r.len == members.len() => r,
                _ => return Ok(None), // cached ranges inconsistent
            };
            pieces.push((
                label,
                cached_order[range.start..range.start + range.len].to_vec(),
            ));
        }
    }
    Ok(Some((assemble_pieces(algo, pieces), report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Amd, Rcm};
    use sparsemat::{CooMatrix, EdgeOp};

    /// Two triangles and a path, disconnected.
    fn multi_component() -> CsrMatrix {
        let mut coo = CooMatrix::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, 1.0);
        }
        for &(i, j) in &[(0, 1), (1, 2), (0, 2)] {
            coo.push_symmetric(i, j, -1.0);
        }
        for &(i, j) in &[(3, 4), (4, 5), (3, 5)] {
            coo.push_symmetric(i, j, -1.0);
        }
        for &(i, j) in &[(6, 7), (7, 8), (8, 9)] {
            coo.push_symmetric(i, j, -1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    fn algos() -> Vec<Box<dyn ReorderAlgorithm>> {
        vec![Box::new(Rcm), Box::new(Amd::default())]
    }

    #[test]
    fn component_ordering_matches_flat_compute() {
        let a = multi_component();
        let rx = ReorderExec::sequential();
        for algo in algos() {
            let flat = algo.compute_on(&a, &rx).unwrap();
            let co = algo
                .compute_components_on(&a, &rx)
                .unwrap()
                .expect("component-structured algorithm");
            assert_eq!(
                co.order,
                flat.perm.order(),
                "{}: component path diverged from flat path",
                algo.name()
            );
            // Ranges tile the order and carry canonical keys.
            let mut covered = 0usize;
            for r in &co.ranges {
                assert_eq!(r.start, covered);
                let piece = &co.order[r.start..r.start + r.len];
                assert_eq!(r.key, *piece.iter().min().unwrap());
                covered += r.len;
            }
            assert_eq!(covered, a.nrows());
        }
    }

    #[test]
    fn splice_equals_full_recompute() {
        let base = multi_component();
        let rx = ReorderExec::sequential();
        // Delta: rewire inside the second triangle and split the path.
        let ops = vec![
            EdgeOp::Remove { row: 3, col: 5 },
            EdgeOp::Remove { row: 5, col: 3 },
            EdgeOp::Remove { row: 7, col: 8 },
            EdgeOp::Remove { row: 8, col: 7 },
        ];
        let mut mutated = base.clone();
        let report = mutated.apply_delta(&ops).unwrap();
        for algo in algos() {
            let cached = algo
                .compute_components_on(&base, &rx)
                .unwrap()
                .expect("component support");
            let full = algo
                .compute_components_on(&mutated, &rx)
                .unwrap()
                .expect("component support");
            let (spliced, stats) = splice_ordering_on(
                algo.as_ref(),
                &mutated,
                &cached.order,
                &cached.ranges,
                &report.touched_rows,
                &rx,
            )
            .unwrap()
            .expect("splice path taken");
            assert_eq!(spliced, full, "{}: splice diverged", algo.name());
            // Components {0,1,2} untouched: never recomputed.
            assert!(stats.recomputed < stats.components);
            assert!(stats.dirty_rows < base.nrows());
        }
    }

    #[test]
    fn splice_declines_on_non_component_algorithms() {
        let a = multi_component();
        let rx = ReorderExec::sequential();
        let nd = crate::Nd;
        assert!(nd.compute_components_on(&a, &rx).unwrap().is_none());
        let rcm_cached = Rcm.compute_components_on(&a, &rx).unwrap().unwrap();
        let out =
            splice_ordering_on(&nd, &a, &rcm_cached.order, &rcm_cached.ranges, &[0], &rx).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn merge_and_growth_deltas_splice_correctly() {
        let base = multi_component();
        let rx = ReorderExec::sequential();
        // Merge the two triangles and grow the path internally.
        let ops = vec![
            EdgeOp::Add {
                row: 2,
                col: 3,
                value: -1.0,
            },
            EdgeOp::Add {
                row: 3,
                col: 2,
                value: -1.0,
            },
            EdgeOp::Add {
                row: 6,
                col: 9,
                value: -1.0,
            },
            EdgeOp::Add {
                row: 9,
                col: 6,
                value: -1.0,
            },
        ];
        let mut mutated = base.clone();
        let report = mutated.apply_delta(&ops).unwrap();
        for algo in algos() {
            let cached = algo.compute_components_on(&base, &rx).unwrap().unwrap();
            let full = algo.compute_components_on(&mutated, &rx).unwrap().unwrap();
            let (spliced, _) = splice_ordering_on(
                algo.as_ref(),
                &mutated,
                &cached.order,
                &cached.ranges,
                &report.touched_rows,
                &rx,
            )
            .unwrap()
            .expect("splice path taken");
            assert_eq!(spliced, full, "{}: merge splice diverged", algo.name());
        }
    }
}
