//! Incremental connected-component bookkeeping across structural
//! deltas.
//!
//! The reordering pipeline decomposes every matrix into connected
//! components and orders each independently. When an edge delta
//! arrives, recomputing the full component structure from scratch is
//! wasteful: only the components containing a touched endpoint can
//! change. [`IncrementalComponents`] keeps the component partition
//! alive across deltas — the flat `comp_of` array is a fully
//! path-compressed union-find forest whose canonical representative is
//! each component's **minimum vertex id** (the same canonical key
//! [`connected_components`](crate::connected_components) produces) —
//! and [`IncrementalComponents::apply_delta`] re-scans *only* the
//! touched components with a scope-bounded BFS, which handles edge
//! additions (merges), removals (splits) and internal rewires
//! uniformly.
//!
//! The boundedness argument relies on the delta contract that the
//! touched set contains **both endpoints** of every changed edge
//! (`sparsemat::DeltaReport::touched_rows`): a post-delta component
//! that overlaps a touched component cannot reach outside the union of
//! touched components' members, because crossing into an untouched
//! component would require a changed edge whose far endpoint was — by
//! the contract — touched.

use crate::components::connected_components;
use crate::graph::Graph;
use std::collections::BTreeMap;

/// Connected components maintained incrementally across edge deltas.
#[derive(Debug, Clone)]
pub struct IncrementalComponents {
    /// Component label per vertex; the label is the component's
    /// minimum member id (fully compressed union-find forest).
    comp_of: Vec<u32>,
    /// Label → members, sorted ascending (so `members[0] == label`).
    members: BTreeMap<u32, Vec<u32>>,
}

/// What one [`IncrementalComponents::apply_delta`] call changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentDelta {
    /// Post-delta labels of every component overlapping the re-scanned
    /// scope. These are the *dirty* components: their subgraph may have
    /// changed even when their membership did not (an edge rewired
    /// inside a component keeps its members and label).
    pub dirty: Vec<u32>,
    /// Pre-delta labels that no longer exist after the re-scan.
    pub retired: Vec<u32>,
    /// Vertices visited by the bounded re-scan (the work actually
    /// done — compare against `num_vertices` for the dirty fraction).
    pub rescanned: usize,
}

impl IncrementalComponents {
    /// Build the initial partition from a graph by union-find: union
    /// the endpoints of every edge, always rooting at the smaller id.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], v: u32) -> u32 {
            let mut root = v;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            // Path compression.
            let mut cur = v;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for u in 0..n {
            for &w in g.neighbors(u) {
                let ru = find(&mut parent, u as u32);
                let rw = find(&mut parent, w);
                if ru != rw {
                    // Union by minimum id keeps roots canonical.
                    let (lo, hi) = (ru.min(rw), ru.max(rw));
                    parent[hi as usize] = lo;
                }
            }
        }
        let mut comp_of = vec![0u32; n];
        let mut members: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for v in 0..n {
            let root = find(&mut parent, v as u32);
            comp_of[v] = root;
            members.entry(root).or_default().push(v as u32);
        }
        IncrementalComponents { comp_of, members }
    }

    /// Rebuild the structure from an existing partition (for example
    /// the per-component ranges of a cached ordering). Each part may be
    /// in any order; membership must exactly cover `0..n`.
    pub fn from_partition<I, P>(n: usize, parts: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = u32>,
    {
        let mut comp_of = vec![u32::MAX; n];
        let mut members: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for part in parts {
            let mut sorted: Vec<u32> = part.into_iter().collect();
            sorted.sort_unstable();
            assert!(!sorted.is_empty(), "empty component part");
            let label = sorted[0];
            for &v in &sorted {
                assert!(
                    (v as usize) < n && comp_of[v as usize] == u32::MAX,
                    "partition must cover each vertex exactly once"
                );
                comp_of[v as usize] = label;
            }
            members.insert(label, sorted);
        }
        assert!(
            comp_of.iter().all(|&c| c != u32::MAX),
            "partition must cover every vertex"
        );
        IncrementalComponents { comp_of, members }
    }

    /// Number of vertices tracked.
    pub fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Sorted members of the component with the given label.
    pub fn members(&self, label: u32) -> Option<&[u32]> {
        self.members.get(&label).map(Vec::as_slice)
    }

    /// All component labels, ascending.
    pub fn labels(&self) -> impl Iterator<Item = u32> + '_ {
        self.members.keys().copied()
    }

    /// Update the partition after a structural delta to the graph.
    ///
    /// `g` is the **post-delta** graph and `touched` the endpoints of
    /// every changed edge (see the module docs for why both endpoints
    /// are required). Only the components containing a touched vertex
    /// are re-scanned; everything else is carried over untouched.
    pub fn apply_delta(&mut self, g: &Graph, touched: &[u32]) -> ComponentDelta {
        assert_eq!(
            g.num_vertices(),
            self.comp_of.len(),
            "deltas are structural: the vertex count never changes"
        );
        let mut delta = ComponentDelta::default();
        if touched.is_empty() {
            return delta;
        }

        // Scope: the union of the touched components' members.
        let mut old_labels: Vec<u32> = touched.iter().map(|&t| self.comp_of[t as usize]).collect();
        old_labels.sort_unstable();
        old_labels.dedup();
        let mut scope: Vec<u32> = Vec::new();
        for &label in &old_labels {
            scope.extend_from_slice(&self.members[&label]);
            self.members.remove(&label);
        }
        scope.sort_unstable();
        delta.rescanned = scope.len();
        let mut in_scope = vec![false; self.comp_of.len()];
        for &v in &scope {
            in_scope[v as usize] = true;
        }

        // Bounded BFS re-scan: seeds are taken in ascending order, so
        // each seed is the minimum of its (new) component and therefore
        // its canonical label. Neighbours outside the scope are
        // unreachable through changed edges (contract above), so the
        // traversal never escapes.
        let mut visited = vec![false; self.comp_of.len()];
        let mut queue: Vec<u32> = Vec::new();
        for &seed in &scope {
            if visited[seed as usize] {
                continue;
            }
            visited[seed as usize] = true;
            queue.clear();
            queue.push(seed);
            let mut group: Vec<u32> = Vec::new();
            let mut head = 0usize;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                group.push(v);
                for &w in g.neighbors(v as usize) {
                    debug_assert!(
                        in_scope[w as usize],
                        "scope escape: edge ({v}, {w}) leaves the touched components — \
                         the delta's touched set is missing an endpoint"
                    );
                    if in_scope[w as usize] && !visited[w as usize] {
                        visited[w as usize] = true;
                        queue.push(w);
                    }
                }
            }
            group.sort_unstable();
            for &v in &group {
                self.comp_of[v as usize] = seed;
            }
            delta.dirty.push(seed);
            self.members.insert(seed, group);
        }

        delta.retired = old_labels
            .into_iter()
            .filter(|l| !delta.dirty.contains(l))
            .collect();
        delta
    }

    /// Assert the maintained partition equals a fresh recomputation —
    /// the correctness oracle used by tests.
    pub fn assert_matches(&self, g: &Graph) {
        let fresh = connected_components(g);
        assert_eq!(self.count(), fresh.count(), "component count diverged");
        for m in &fresh.members {
            let label = m[0];
            let mut sorted = m.clone();
            sorted.sort_unstable();
            assert_eq!(
                self.members(label),
                Some(sorted.as_slice()),
                "component {label} diverged from the fresh scan"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, CsrMatrix, EdgeOp};

    fn graph_of(a: &CsrMatrix) -> Graph {
        Graph::from_symmetric_matrix(a).expect("symmetric test matrix")
    }

    /// Three paths: {0,1,2}, {3,4}, {5}.
    fn three_components() -> CsrMatrix {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0);
        }
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(1, 2, 1.0);
        coo.push_symmetric(3, 4, 1.0);
        CsrMatrix::from_coo(&coo)
    }

    fn sym_ops(pairs: &[(usize, usize)], add: bool) -> Vec<EdgeOp> {
        pairs
            .iter()
            .flat_map(|&(i, j)| {
                if add {
                    vec![
                        EdgeOp::Add {
                            row: i,
                            col: j,
                            value: 1.0,
                        },
                        EdgeOp::Add {
                            row: j,
                            col: i,
                            value: 1.0,
                        },
                    ]
                } else {
                    vec![
                        EdgeOp::Remove { row: i, col: j },
                        EdgeOp::Remove { row: j, col: i },
                    ]
                }
            })
            .collect()
    }

    #[test]
    fn from_graph_matches_fresh_scan() {
        let a = three_components();
        let inc = IncrementalComponents::from_graph(&graph_of(&a));
        assert_eq!(inc.count(), 3);
        assert_eq!(inc.members(0), Some(&[0u32, 1, 2][..]));
        assert_eq!(inc.members(3), Some(&[3u32, 4][..]));
        assert_eq!(inc.members(5), Some(&[5u32][..]));
        inc.assert_matches(&graph_of(&a));
    }

    #[test]
    fn merge_via_added_edge() {
        let mut a = three_components();
        let mut inc = IncrementalComponents::from_graph(&graph_of(&a));
        let report = a.apply_delta(&sym_ops(&[(2, 3)], true)).unwrap();
        let g = graph_of(&a);
        let delta = inc.apply_delta(&g, &report.touched_rows);
        assert_eq!(delta.dirty, vec![0]);
        assert_eq!(delta.retired, vec![3]);
        assert_eq!(delta.rescanned, 5, "component {{5}} was not re-scanned");
        assert_eq!(inc.count(), 2);
        inc.assert_matches(&g);
    }

    #[test]
    fn split_via_removed_edge() {
        let mut a = three_components();
        let mut inc = IncrementalComponents::from_graph(&graph_of(&a));
        let report = a.apply_delta(&sym_ops(&[(1, 2)], false)).unwrap();
        let g = graph_of(&a);
        let delta = inc.apply_delta(&g, &report.touched_rows);
        assert_eq!(delta.dirty, vec![0, 2]);
        assert!(delta.retired.is_empty());
        assert_eq!(inc.count(), 4);
        assert_eq!(inc.members(2), Some(&[2u32][..]));
        inc.assert_matches(&g);
    }

    #[test]
    fn internal_rewire_keeps_membership_but_reports_dirty() {
        let mut a = three_components();
        let mut inc = IncrementalComponents::from_graph(&graph_of(&a));
        // Add a chord inside {0,1,2}: same members, new subgraph.
        let report = a.apply_delta(&sym_ops(&[(0, 2)], true)).unwrap();
        let g = graph_of(&a);
        let delta = inc.apply_delta(&g, &report.touched_rows);
        assert_eq!(delta.dirty, vec![0]);
        assert!(delta.retired.is_empty());
        assert_eq!(delta.rescanned, 3);
        inc.assert_matches(&g);
    }

    #[test]
    fn from_partition_round_trips() {
        let a = three_components();
        let g = graph_of(&a);
        let fresh = IncrementalComponents::from_graph(&g);
        let parts: Vec<Vec<u32>> = fresh
            .labels()
            .map(|l| fresh.members(l).unwrap().to_vec())
            .collect();
        let rebuilt = IncrementalComponents::from_partition(6, parts);
        rebuilt.assert_matches(&g);
        assert_eq!(rebuilt.comp_of[4], 3);
    }

    #[test]
    fn randomised_deltas_track_fresh_scans() {
        // A chain of random-ish deltas over a block-diagonal corpus
        // matrix; after every delta the incremental partition must equal
        // a from-scratch recomputation.
        let mut a = corpus_like(5, 12);
        let mut inc = IncrementalComponents::from_graph(&graph_of(&a));
        let mut state = 0x9E37u64;
        for step in 0..40 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = a.nrows();
            let i = (state >> 33) as usize % n;
            let j = (state >> 17) as usize % n;
            if i == j {
                continue;
            }
            let add = step % 3 != 0;
            let report = a.apply_delta(&sym_ops(&[(i, j)], add)).unwrap();
            if !report.changed() {
                continue;
            }
            let g = graph_of(&a);
            let delta = inc.apply_delta(&g, &report.touched_rows);
            assert!(!delta.dirty.is_empty());
            inc.assert_matches(&g);
        }
    }

    /// Block-diagonal with no inter-block coupling: `blocks` cliques of
    /// size `bs` (deterministic, no corpus dependency).
    fn corpus_like(blocks: usize, bs: usize) -> CsrMatrix {
        let n = blocks * bs;
        let mut coo = CooMatrix::new(n, n);
        for b in 0..blocks {
            let base = b * bs;
            for i in 0..bs {
                coo.push(base + i, base + i, 1.0);
                if i + 1 < bs {
                    coo.push_symmetric(base + i, base + i + 1, -1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn empty_touched_set_is_a_no_op() {
        let a = three_components();
        let g = graph_of(&a);
        let mut inc = IncrementalComponents::from_graph(&g);
        let delta = inc.apply_delta(&g, &[]);
        assert_eq!(delta, ComponentDelta::default());
        inc.assert_matches(&g);
    }
}
