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
//! byte-identically" ([`splice_ordering_on`]). Components are found
//! one way, by `sweep_components`' stamp sweep, which appends each
//! piece to one flat order that `assemble_pieces` then lays out.
//!
//! The byte-identity argument: a component's sub-permutation depends
//! only on its own subgraph and its canonical key (the minimum member
//! vertex, which seeds the pseudo-peripheral search), and the layout
//! disciplines are total orders on the keys. An untouched component
//! therefore reproduces its cached bytes exactly, and the spliced whole
//! equals a full recompute.

use crate::exec::{build_ordering_graph, ReorderExec};
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsegraph::{Graph, LevelStructure};
use sparsemat::{CsrMatrix, Permutation, SparseError};

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

/// The stamp sweep that finds every component: each vertex of `seeds`
/// (ascending) that no search of the sweep has reached is the least
/// vertex — the key — of a component not yet ordered, and `piece`
/// appends that component's sub-permutation to `order`. `piece` must
/// search the component from its key in the given level structure, so
/// that every member is stamped; a search stamps its own component
/// only.
pub(crate) fn sweep_components(
    g: &Graph,
    seeds: &mut dyn Iterator<Item = usize>,
    order: &mut Vec<u32>,
    ranges: &mut Vec<ComponentRange>,
    mut piece: impl FnMut(usize, &mut LevelStructure, &mut Vec<u32>),
) {
    let mut levels = LevelStructure::new(g.num_vertices());
    for key in seeds {
        if levels.untouched(key) {
            let start = order.len();
            piece(key, &mut levels, order);
            ranges.push(ComponentRange {
                key: key as u32,
                start,
                len: order.len() - start,
            });
        }
    }
}

/// Lay the pieces appended to one flat `order` out under the
/// algorithm's discipline: sort `ranges` by
/// [`ReorderAlgorithm::component_layout`] and, unless they already
/// tile `order` in that sequence, copy the pieces into it.
pub(crate) fn assemble_pieces<A: ReorderAlgorithm + ?Sized>(
    algo: &A,
    order: Vec<u32>,
    mut ranges: Vec<ComponentRange>,
) -> ComponentOrdering {
    algo.component_layout(&mut ranges);
    let laid_out = ranges.first().is_none_or(|r| r.start == 0)
        && ranges
            .windows(2)
            .all(|w| w[0].start + w[0].len == w[1].start);
    let order = if laid_out {
        order
    } else {
        let mut laid = Vec::with_capacity(order.len());
        for r in &mut ranges {
            let start = laid.len();
            laid.extend_from_slice(&order[r.start..r.start + r.len]);
            r.start = start;
        }
        laid
    };
    debug_assert_eq!(order.len(), ranges.iter().map(|r| r.len).sum::<usize>());
    ComponentOrdering {
        order,
        ranges,
        symmetric: true,
    }
}

/// Each vertex's index in `ranges`, or `None` unless the ranges tile
/// `order` in sequence, each keyed by its least member, and `order` is
/// a permutation of `0..order.len()`.
fn range_labels(order: &[u32], ranges: &[ComponentRange]) -> Option<Vec<u32>> {
    let n = order.len();
    let mut label = vec![u32::MAX; n];
    let mut end = 0;
    for (i, r) in ranges.iter().enumerate() {
        if r.start != end || r.len > n - end {
            return None;
        }
        end += r.len;
        let piece = &order[r.start..end];
        for &v in piece {
            let slot = label.get_mut(v as usize)?;
            if *slot != u32::MAX {
                return None;
            }
            *slot = i as u32;
        }
        if piece.iter().min() != Some(&r.key) {
            return None;
        }
    }
    (end == n).then_some(label)
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
/// A cached range holding a touched vertex is dirty. The dirty
/// vertices are re-scanned in ascending order with the stamp sweep
/// that finds components for the full ordering, each component found
/// is ordered afresh, and the clean ranges are copied.
///
/// Returns `Ok(None)` — the caller falls back to a full recompute —
/// when the splice cannot be taken safely:
///
/// 1. the algorithm is not component-structured, or `a` or `touched`
///    does not fit the cached ordering's dimension;
/// 2. the cached ranges do not tile `cached_order` with each range
///    keyed by its least member, or `cached_order` is not a
///    permutation;
/// 3. the re-scan reaches a clean vertex: `touched` left out an
///    endpoint of a changed edge, so a clean range is not a component
///    of `a`.
///
/// On success the result is **byte-identical** to
/// `compute_components_on` on `a` (pinned by the determinism suite).
pub fn splice_ordering_on(
    algo: &dyn ReorderAlgorithm,
    a: &CsrMatrix,
    cached_order: &[u32],
    cached_ranges: &[ComponentRange],
    touched: &[u32],
    rx: &ReorderExec<'_>,
) -> Result<Option<(ComponentOrdering, SpliceReport)>, SparseError> {
    let n = a.nrows();
    if !algo.supports_components()
        || !a.is_square()
        || cached_order.len() != n
        || touched.iter().any(|&t| t as usize >= n)
    {
        return Ok(None);
    }
    let Some(label) = range_labels(cached_order, cached_ranges) else {
        return Ok(None);
    };
    let mut dirty = vec![false; cached_ranges.len()];
    for &t in touched {
        dirty[label[t as usize] as usize] = true;
    }
    let is_dirty = |v: usize| dirty[label[v] as usize];
    let g = build_ordering_graph(a, rx)?;

    let mut order = Vec::with_capacity(n);
    let mut ranges = Vec::with_capacity(cached_ranges.len());
    let seeds = &mut (0..n).filter(|&v| is_dirty(v));
    algo.order_components_on(&g, seeds, &mut order, &mut ranges, rx);
    if !order.iter().all(|&v| is_dirty(v as usize)) {
        return Ok(None);
    }
    let (recomputed, dirty_rows) = (ranges.len(), order.len());
    for (r, _) in cached_ranges.iter().zip(&dirty).filter(|&(_, &d)| !d) {
        ranges.push(ComponentRange {
            start: order.len(),
            ..*r
        });
        order.extend_from_slice(&cached_order[r.start..r.start + r.len]);
    }
    let report = SpliceReport {
        components: ranges.len(),
        recomputed,
        dirty_rows,
    };
    Ok(Some((assemble_pieces(algo, order, ranges), report)))
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
        // Rewire inside the second triangle and split the path: the
        // triangle {0, 1, 2} stays clean. Then merge the two triangles
        // and grow the path internally. Each with the (recomputed,
        // components) it must report.
        let deltas = [
            ([(3, 5, false), (7, 8, false)], (3, 4)),
            ([(2, 3, true), (6, 9, true)], (2, 2)),
        ];
        for (edits, expect) in deltas {
            let ops: Vec<EdgeOp> = edits
                .iter()
                .flat_map(|&(i, j, add)| symmetric_edit(i, j, add))
                .collect();
            let mut mutated = base.clone();
            let report = mutated.apply_delta(&ops).unwrap();
            for algo in algos() {
                let cached = algo.compute_components_on(&base, &rx).unwrap().unwrap();
                let full = algo.compute_components_on(&mutated, &rx).unwrap().unwrap();
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
                assert_eq!(
                    spliced,
                    full,
                    "{}: splice diverged on {edits:?}",
                    algo.name()
                );
                assert_eq!((stats.recomputed, stats.components), expect);
            }
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

    /// Both ops of one symmetric edit.
    fn symmetric_edit(i: usize, j: usize, add: bool) -> [EdgeOp; 2] {
        if add {
            [(i, j), (j, i)].map(|(row, col)| EdgeOp::Add {
                row,
                col,
                value: -1.0,
            })
        } else {
            [(i, j), (j, i)].map(|(row, col)| EdgeOp::Remove { row, col })
        }
    }

    #[test]
    fn splice_declines_on_inconsistent_input() {
        let a = multi_component();
        let rx = ReorderExec::sequential();
        let mut merged = a.clone();
        merged.apply_delta(&symmetric_edit(2, 3, true)).unwrap();
        for algo in algos() {
            let cached = algo.compute_components_on(&a, &rx).unwrap().unwrap();
            let splice = |a: &CsrMatrix, order: &[u32], ranges: &[ComponentRange], touched| {
                splice_ordering_on(algo.as_ref(), a, order, ranges, touched, &rx)
                    .unwrap()
                    .is_some()
            };
            assert!(splice(&a, &cached.order, &cached.ranges, &[0]));
            // A range moved past the end.
            let mut past_end = cached.ranges.clone();
            past_end.last_mut().unwrap().start += a.nrows();
            assert!(!splice(&a, &cached.order, &past_end, &[0]));
            // Two overlapping ranges.
            let mut overlapping = cached.ranges.clone();
            overlapping[1].start = overlapping[0].start;
            assert!(!splice(&a, &cached.order, &overlapping, &[0]));
            // A range keyed by another member than its least.
            let mut miskeyed = cached.ranges.clone();
            miskeyed[0].key += 1;
            assert!(!splice(&a, &cached.order, &miskeyed, &[0]));
            // An order that lists one vertex twice.
            let mut twice = cached.order.clone();
            twice[1] = twice[0];
            assert!(!splice(&a, &twice, &cached.ranges, &[0]));
            // The edit 2-3 merges two triangles; a touched set that
            // leaves out its endpoint 3 sends the re-scan into a clean
            // range.
            assert!(!splice(&merged, &cached.order, &cached.ranges, &[2]));
            assert!(splice(&merged, &cached.order, &cached.ranges, &[2, 3]));
        }
    }

    /// `blocks` disjoint paths of `len` vertices each.
    fn paths(blocks: usize, len: usize) -> CsrMatrix {
        let n = blocks * len;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
            if (i + 1) % len != 0 {
                coo.push_symmetric(i, i + 1, -1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// A seeded chain of single-edge edits — additions anywhere, which
    /// merge components or rewire one, and removals of a stored edge,
    /// which split a path or rewire a cycle — each spliced from the
    /// previous step's spliced ordering, must track a full recompute.
    #[test]
    fn random_delta_chains_splice_as_full_recomputes() {
        let rx = ReorderExec::sequential();
        for algo in algos() {
            let mut a = paths(5, 12);
            let n = a.nrows();
            let mut cached = algo.compute_components_on(&a, &rx).unwrap().unwrap();
            let (same, report) =
                splice_ordering_on(algo.as_ref(), &a, &cached.order, &cached.ranges, &[], &rx)
                    .unwrap()
                    .expect("nothing touched");
            assert_eq!(same, cached, "{}: an empty delta moved bytes", algo.name());
            assert_eq!(report.recomputed, 0);

            let mut state = 0x9E37u64;
            let mut seen = [0usize; 3]; // merges, rewires, splits
            for step in 0..40 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (i, pick) = ((state >> 33) as usize % n, (state >> 17) as usize);
                let edit = if step % 3 == 0 {
                    let (cols, _) = a.row(i);
                    let others: Vec<usize> = cols
                        .iter()
                        .map(|&c| c as usize)
                        .filter(|&c| c != i)
                        .collect();
                    match others.len() {
                        0 => continue,
                        d => symmetric_edit(i, others[pick % d], false),
                    }
                } else if pick % n == i {
                    continue;
                } else {
                    symmetric_edit(i, pick % n, true)
                };
                let report = a.apply_delta(&edit).unwrap();
                if !report.changed() {
                    continue;
                }
                let full = algo.compute_components_on(&a, &rx).unwrap().unwrap();
                let (spliced, _) = splice_ordering_on(
                    algo.as_ref(),
                    &a,
                    &cached.order,
                    &cached.ranges,
                    &report.touched_rows,
                    &rx,
                )
                .unwrap()
                .expect("splice accepted");
                assert_eq!(spliced.order, full.order, "{} step {step}", algo.name());
                assert_eq!(spliced.ranges, full.ranges, "{} step {step}", algo.name());
                seen[(full.ranges.len() + 1)
                    .saturating_sub(cached.ranges.len())
                    .min(2)] += 1;
                cached = spliced;
            }
            assert!(
                seen.iter().all(|&k| k > 0),
                "{}: merges, rewires, splits = {seen:?}",
                algo.name()
            );
        }
    }
}
