//! Vertex separators for nested dissection.
//!
//! An edge-cut bisection is converted into a vertex separator by taking
//! a small vertex cover of the cut edges: removing the cover vertices
//! disconnects the two sides. We use the classic greedy cover (always
//! pick the endpoint covering the most uncovered cut edges), which in
//! practice yields separators close to the boundary size of the smaller
//! side — good enough to reproduce ND's fill-reducing behaviour.

use crate::recursive::{multilevel_bisect, BisectWork};
use sparsegraph::Graph;
use std::collections::BinaryHeap;

/// Allowed imbalance of the bisection under a separator (10 %, looser
/// than the k-way partitioners' 5 %).
const UBFACTOR: f64 = 1.10;

/// The three-way split produced by separator extraction.
#[derive(Debug, Clone, Default)]
pub struct Separator {
    /// Vertices of the first remaining side.
    pub left: Vec<u32>,
    /// Vertices of the second remaining side.
    pub right: Vec<u32>,
    /// Separator vertices (removing them disconnects left from right).
    pub separator: Vec<u32>,
}

/// Compute a vertex separator of `g` via multilevel edge bisection and
/// greedy vertex cover of the cut edges, in `ws`'s arrays: the lists
/// are ascending, and the next call on `ws` refills them.
pub fn vertex_separator<'w>(g: &Graph, seed: u64, ws: &'w mut BisectWork) -> &'w Separator {
    let n = g.num_vertices();
    let Separator {
        left,
        right,
        separator,
    } = &mut ws.separator;
    left.clear();
    right.clear();
    separator.clear();
    if n <= 1 {
        left.extend(0..n as u32);
        return &ws.separator;
    }
    let total = g.total_vertex_weight();
    multilevel_bisect(g, [total / 2, total - total / 2], UBFACTOR, seed, ws);
    let part_of = &ws.bis.part_of;
    let cover = &mut ws.cover;

    // Collect cut edges.
    cover.edges.clear();
    for v in 0..n {
        if part_of[v] != 0 {
            continue;
        }
        for &u in g.neighbors(v) {
            if part_of[u as usize] == 1 {
                cover.edges.push((v as u32, u));
            }
        }
    }
    cover.cover(n);

    let Separator {
        left,
        right,
        separator,
    } = &mut ws.separator;
    for v in 0..n {
        if cover.picked[v] {
            separator.push(v as u32);
        } else if part_of[v] == 0 {
            left.push(v as u32);
        } else {
            right.push(v as u32);
        }
    }
    &ws.separator
}

/// The greedy vertex cover of a list of cut edges: repeatedly take a
/// vertex incident to the most uncovered edges.
///
/// Which vertex, among ties, is that of the quadratic rule it replaces:
/// of the uncovered edges whose larger endpoint count is the maximum
/// `K`, the *last* in list order; of its endpoints, the first unless
/// the second's count is higher. The edges with key `K` are those with
/// an endpoint of count `K`, so that edge is the latest uncovered edge
/// of a count-`K` vertex, maximised over those vertices. A lazy
/// max-heap holds `(count, latest uncovered edge)` per vertex with
/// uncovered edges, a `u64` each, pushed whenever a covered edge
/// changes either; an entry is current when one endpoint of its edge
/// still has that state. That is O(cut · log cut) in place of
/// O(cut²).
#[derive(Default)]
pub(crate) struct CoverWork {
    /// The cut edges, each `(part-0 vertex, part-1 vertex)`.
    edges: Vec<(u32, u32)>,
    /// Per vertex, its edges ascending: `incident[start[v]..end[v]]`,
    /// where `end[v]` moves down past covered edges, so `incident[end[v]
    /// - 1]` is `v`'s latest uncovered edge while `count[v] > 0`.
    start: Vec<usize>,
    end: Vec<usize>,
    incident: Vec<u32>,
    /// Uncovered edges per vertex.
    count: Vec<u32>,
    covered: Vec<bool>,
    heap: BinaryHeap<u64>,
    /// The cover: `picked[v]` for each vertex taken.
    picked: Vec<bool>,
}

impl CoverWork {
    /// Cover `edges`, between vertices below `n`, into `picked`.
    fn cover(&mut self, n: usize) {
        let CoverWork {
            edges,
            start,
            end,
            incident,
            count,
            covered,
            heap,
            picked,
        } = self;
        picked.clear();
        picked.resize(n, false);
        count.clear();
        count.resize(n, 0);
        for &(a, b) in edges.iter() {
            count[a as usize] += 1;
            count[b as usize] += 1;
        }
        // Incidence lists by a counting sort, each ascending since the
        // edges are visited in order; `end` is each vertex's cursor.
        start.clear();
        start.push(0);
        start.extend(count.iter().scan(0, |at, &c| {
            *at += c as usize;
            Some(*at)
        }));
        end.clear();
        end.extend_from_slice(&start[..n]);
        incident.clear();
        incident.resize(2 * edges.len(), 0);
        for (e, &(a, b)) in edges.iter().enumerate() {
            for x in [a as usize, b as usize] {
                incident[end[x]] = e as u32;
                end[x] += 1;
            }
        }
        covered.clear();
        covered.resize(edges.len(), false);
        let key = |c: u32, e: u32| u64::from(c) << 32 | u64::from(e);
        let keys = (0..n).filter(|&v| count[v] > 0);
        heap.clear();
        heap.extend(keys.map(|v| key(count[v], incident[end[v] - 1])));

        while let Some(top) = heap.pop() {
            let (c, e) = ((top >> 32) as u32, top as u32);
            let (a, b) = edges[e as usize];
            let current = |x: u32| {
                let x = x as usize;
                count[x] == c && end[x] > start[x] && incident[end[x] - 1] == e
            };
            if !current(a) && !current(b) {
                continue; // stale entry
            }
            let pick = if count[a as usize] >= count[b as usize] {
                a
            } else {
                b
            } as usize;
            picked[pick] = true;
            for i in start[pick]..end[pick] {
                let f = incident[i] as usize;
                if covered[f] {
                    continue;
                }
                covered[f] = true;
                let (fa, fb) = edges[f];
                for x in [fa as usize, fb as usize] {
                    count[x] -= 1;
                    while end[x] > start[x] && covered[incident[end[x] - 1] as usize] {
                        end[x] -= 1;
                    }
                    if count[x] > 0 {
                        heap.push(key(count[x], incident[end[x] - 1]));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix;

    /// The greedy cover as written before it kept a queue: scan every
    /// uncovered edge for the last one of maximal key, then drop the
    /// edges its pick covers. Kept as the oracle [`CoverWork::cover`]
    /// must reproduce.
    fn greedy_cover_reference(n: usize, cut_edges: &[(u32, u32)]) -> Vec<bool> {
        let mut cover_count = vec![0u32; n];
        for &(a, b) in cut_edges {
            cover_count[a as usize] += 1;
            cover_count[b as usize] += 1;
        }
        let mut in_separator = vec![false; n];
        let mut alive = cut_edges.to_vec();
        while !alive.is_empty() {
            let (&(ea, eb), _) = alive
                .iter()
                .zip(0..)
                .max_by_key(|(&(a, b), _)| cover_count[a as usize].max(cover_count[b as usize]))
                .expect("alive non-empty");
            let pick = if cover_count[ea as usize] >= cover_count[eb as usize] {
                ea
            } else {
                eb
            };
            in_separator[pick as usize] = true;
            alive.retain(|&(a, b)| {
                if a == pick || b == pick {
                    cover_count[a as usize] -= 1;
                    cover_count[b as usize] -= 1;
                    false
                } else {
                    true
                }
            });
        }
        in_separator
    }

    /// Cases per oracle test: the reference is quadratic in the cut,
    /// so the release build runs ten times as many.
    fn cases(debug: usize) -> usize {
        if cfg!(debug_assertions) {
            debug
        } else {
            10 * debug
        }
    }

    #[test]
    fn greedy_cover_equals_its_quadratic_reference() {
        let mut gen = SplitMix::new(31);
        let mut ws = CoverWork::default();
        for case in 0..cases(60) {
            // Two sides of 1..=40 or 1..=400 vertices, and from a few
            // edges up to a cut denser than complete (at most 4 000
            // edges), repeats included and in no particular order:
            // dense cuts tie most counts.
            let side = 1 + gen.next_below(if case % 2 == 0 { 40 } else { 400 });
            let (n0, n1) = (side, 1 + gen.next_below(side));
            let dense = (2 * n0 * n1).min(4_000);
            let m = 1 + gen.next_below(if case % 3 == 0 { dense } else { 2 * (n0 + n1) });
            ws.edges.clear();
            ws.edges.extend((0..m).map(|_| {
                let a = gen.next_below(n0) as u32;
                (a, (n0 + gen.next_below(n1)) as u32)
            }));
            let n = n0 + n1;
            let expected = greedy_cover_reference(n, &ws.edges);
            ws.cover(n);
            assert_eq!(
                ws.picked, expected,
                "case {case}: {n0} + {n1} vertices, {m} edges"
            );
        }
    }

    /// `m` distinct random edges on `n` vertices.
    fn random_graph(n: usize, m: usize, gen: &mut SplitMix) -> Graph {
        let mut rows = vec![Vec::new(); n];
        for _ in 0..m {
            let (a, b) = (gen.next_below(n), gen.next_below(n));
            if a != b {
                rows[a].push(b as u32);
                rows[b].push(a as u32);
            }
        }
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
            adjncy.extend_from_slice(row);
            xadj.push(adjncy.len());
        }
        Graph::from_adjacency(xadj, adjncy).unwrap()
    }

    #[test]
    fn separators_of_random_graphs_cover_as_the_reference_does() {
        let mut gen = SplitMix::new(37);
        let mut ws = BisectWork::default();
        for case in 0..cases(12) {
            let n = 50 + gen.next_below(1_000);
            let g = random_graph(n, n * (1 + gen.next_below(8)), &mut gen);
            let separator = vertex_separator(&g, case as u64, &mut ws).separator.clone();
            // The bisection the cover ran on is still in the workspace.
            let part_of = &ws.bis.part_of;
            let cut_edges: Vec<(u32, u32)> = (0..n)
                .filter(|&v| part_of[v] == 0)
                .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v as u32, u)))
                .filter(|&(_, u)| part_of[u as usize] == 1)
                .collect();
            let expected: Vec<u32> = greedy_cover_reference(n, &cut_edges)
                .iter()
                .enumerate()
                .filter_map(|(v, &p)| p.then_some(v as u32))
                .collect();
            assert_eq!(separator, expected, "case {case}: {n} vertices");
        }
    }

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

    /// Check the separator property: no edge directly connects left and
    /// right.
    fn assert_separates(g: &Graph, s: &Separator) {
        let n = g.num_vertices();
        let mut side = vec![0u8; n]; // 0 = left, 1 = right, 2 = sep
        for &v in &s.right {
            side[v as usize] = 1;
        }
        for &v in &s.separator {
            side[v as usize] = 2;
        }
        for v in 0..n {
            if side[v] == 2 {
                continue;
            }
            for &u in g.neighbors(v) {
                if side[u as usize] != 2 {
                    assert_eq!(
                        side[v], side[u as usize],
                        "edge ({v}, {u}) crosses the separator"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_separator_is_small_and_valid() {
        let n = 12;
        let g = grid(n);
        let mut ws = BisectWork::default();
        let s = vertex_separator(&g, 42, &mut ws);
        assert_separates(&g, s);
        assert_eq!(
            s.left.len() + s.right.len() + s.separator.len(),
            g.num_vertices()
        );
        assert!(
            s.separator.len() <= 2 * n,
            "separator of size {} on a {n}x{n} grid (expected ~{n})",
            s.separator.len()
        );
        assert!(!s.left.is_empty() && !s.right.is_empty());
        // The sides should be roughly balanced.
        let ratio = s.left.len() as f64 / s.right.len() as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "sides too uneven: {ratio}");
    }

    #[test]
    fn tiny_graphs_degenerate_gracefully() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let mut ws = BisectWork::default();
        let s = vertex_separator(&g, 1, &mut ws);
        assert_eq!(s.left.len(), 1);
        assert!(s.separator.is_empty());

        let g2 = Graph::from_adjacency(vec![0, 1, 2], vec![1, 0]).unwrap();
        let mut ws2 = BisectWork::default();
        let s2 = vertex_separator(&g2, 1, &mut ws2);
        assert_separates(&g2, s2);
        assert_eq!(s2.left.len() + s2.right.len() + s2.separator.len(), 2);
    }

    #[test]
    fn path_separator_is_single_vertex() {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        let n = 31;
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len());
        }
        let g = Graph::from_adjacency(xadj, adjncy).unwrap();
        let mut ws = BisectWork::default();
        let s = vertex_separator(&g, 7, &mut ws);
        assert_separates(&g, s);
        assert!(
            s.separator.len() <= 2,
            "path separator should be 1-2 vertices, got {}",
            s.separator.len()
        );
    }
}
