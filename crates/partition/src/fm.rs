//! Boundary Fiduccia–Mattheyses refinement for 2-way partitions.
//!
//! Each pass tentatively moves vertices one at a time — always the
//! highest-gain movable vertex that keeps the balance constraint — and
//! locks each moved vertex for the rest of the pass. Negative-gain moves
//! are permitted (that is what lets FM climb out of local minima); at
//! the end of the pass the prefix of moves with the best observed cut is
//! kept and the remainder rolled back. Passes repeat until no
//! improvement is found.

use crate::Bisection;
use sparsegraph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Upper limit of consecutive non-improving moves inside one pass
/// before the pass is cut short (standard FM early exit).
const MAX_BAD_MOVES: usize = 150;

/// FM's per-pass arrays, kept across the passes and levels of one
/// multilevel bisection: sized once by its finest graph, not
/// reallocated per pass.
pub(crate) struct FmWork {
    pub(crate) gain: Vec<i64>,
    pub(crate) locked: Vec<bool>,
    pub(crate) heap: BinaryHeap<(i64, Reverse<u32>)>,
    pub(crate) moves: Vec<u32>,
}

impl FmWork {
    /// A workspace for graphs of up to `n` vertices without growing.
    pub(crate) fn with_capacity(n: usize) -> FmWork {
        FmWork {
            gain: Vec::with_capacity(n),
            locked: Vec::with_capacity(n),
            heap: BinaryHeap::with_capacity(n),
            moves: Vec::with_capacity(n),
        }
    }

    /// Start a pass over `n` vertices: nothing locked or moved, the
    /// gains and heap entries `seed` writes into the emptied gain
    /// vector and heap buffer, heapified. That pops the same sequence
    /// as pushing the entries one by one: a max-heap's pop order
    /// depends only on its keys, and equal keys are equal entries.
    pub(crate) fn start_pass(
        &mut self,
        n: usize,
        seed: impl FnOnce(&mut Vec<i64>, &mut Vec<(i64, Reverse<u32>)>),
    ) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        self.gain.clear();
        seed(&mut self.gain, &mut entries);
        self.heap = BinaryHeap::from(entries);
        self.locked.clear();
        self.locked.resize(n, false);
        self.moves.clear();
    }
}

/// Refine a bisection in place. Returns the number of improving passes.
///
/// `bis` must be exact (its cut and part weights those of its
/// `part_of`), and stays exact: a pass tracks the cut and part weights
/// move by move — integer sums of exact gains and vertex weights — and
/// keeps those of its best prefix instead of recomputing them in O(E).
pub(crate) fn fm_refine(
    g: &Graph,
    bis: &mut Bisection,
    target: [i64; 2],
    ubfactor: f64,
    max_passes: usize,
    ws: &mut FmWork,
) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let max_allowed = [
        ((target[0] as f64) * ubfactor).ceil() as i64,
        ((target[1] as f64) * ubfactor).ceil() as i64,
    ];
    let mut passes_done = 0;

    for _ in 0..max_passes {
        // Gains: weight of external edges minus internal edges. The
        // max-heap of (gain, vertex), stale entries skipped lazily,
        // starts with the boundary vertices; interior vertices enter it
        // as their neighbours move.
        ws.start_pass(n, |gain, seeds| {
            for v in 0..n {
                let pv = bis.part_of[v];
                let (mut gv, mut boundary) = (0i64, false);
                for (u, w) in g.neighbors_weighted(v) {
                    if bis.part_of[u as usize] == pv {
                        gv -= w;
                    } else {
                        gv += w;
                        boundary = true;
                    }
                }
                gain.push(gv);
                if boundary || gv >= 0 {
                    seeds.push((gv, Reverse(v as u32)));
                }
            }
            // For graphs with no boundary (already perfect), seed
            // everything so balance can still be fixed.
            if seeds.is_empty() {
                seeds.extend(
                    gain.iter()
                        .enumerate()
                        .map(|(v, &gv)| (gv, Reverse(v as u32))),
                );
            }
        });
        let FmWork {
            gain,
            locked,
            heap,
            moves,
        } = &mut *ws;

        let mut cur_cut = bis.cut;
        let mut cur_w = bis.part_weights;
        let mut best_cut = bis.cut;
        let mut best_w = cur_w;
        let mut best_feasible = cur_w[0] <= max_allowed[0] && cur_w[1] <= max_allowed[1];
        let mut best_len = 0usize;
        let mut bad_streak = 0usize;

        while let Some((gtop, Reverse(v))) = heap.pop() {
            let v = v as usize;
            if locked[v] || gtop != gain[v] {
                continue; // stale heap entry
            }
            let from = bis.part_of[v] as usize;
            let to = 1 - from;
            let wv = g.vertex_weight(v);
            // Balance check: destination may not exceed its allowance,
            // unless the move strictly reduces the maximum overflow.
            let feasible_after = cur_w[to] + wv <= max_allowed[to];
            let overflow_now = (cur_w[0] - max_allowed[0]).max(cur_w[1] - max_allowed[1]);
            let overflow_after =
                ((cur_w[from] - wv) - max_allowed[from]).max((cur_w[to] + wv) - max_allowed[to]);
            if !feasible_after && overflow_after >= overflow_now {
                continue;
            }
            // Execute the tentative move.
            locked[v] = true;
            bis.part_of[v] = to as u8;
            cur_w[from] -= wv;
            cur_w[to] += wv;
            cur_cut -= gain[v];
            moves.push(v as u32);
            // Update neighbour gains.
            for (u, w) in g.neighbors_weighted(v) {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                // v left u's "same part" set or joined it.
                if bis.part_of[u] as usize == to {
                    gain[u] -= 2 * w;
                } else {
                    gain[u] += 2 * w;
                }
                heap.push((gain[u], Reverse(u as u32)));
            }

            let now_feasible = cur_w[0] <= max_allowed[0] && cur_w[1] <= max_allowed[1];
            let improves = match (now_feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ => cur_cut < best_cut,
            };
            if improves {
                best_cut = cur_cut;
                best_w = cur_w;
                best_feasible = now_feasible;
                best_len = moves.len();
                bad_streak = 0;
            } else {
                bad_streak += 1;
                if bad_streak > MAX_BAD_MOVES {
                    break;
                }
            }
        }

        // Roll back moves after the best prefix.
        for &v in &moves[best_len..] {
            let v = v as usize;
            let cur = bis.part_of[v] as usize;
            bis.part_of[v] = (1 - cur) as u8;
        }
        let improved = best_len > 0 && best_cut < bis.cut;
        if best_len > 0 {
            bis.cut = best_cut;
            bis.part_weights = best_w;
        }
        debug_assert!(bis.is_exact(g), "FM's tracked cut or weights drifted");
        if improved {
            passes_done += 1;
        } else {
            break;
        }
    }
    passes_done
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refine(g: &Graph, bis: &mut Bisection, target: [i64; 2], passes: usize) -> usize {
        fm_refine(g, bis, target, 1.05, passes, &mut FmWork::with_capacity(0))
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

    #[test]
    fn fm_improves_a_bad_split() {
        // 8x8 grid split column-interleaved (very bad cut); FM should
        // drive it down substantially.
        let n = 8;
        let g = grid(n);
        let part_of: Vec<u8> = (0..n * n).map(|v| ((v % n) % 2) as u8).collect();
        let mut bis = Bisection::recompute(&g, part_of);
        let initial_cut = bis.cut;
        assert!(initial_cut >= 50);
        let target = [32i64, 32i64];
        refine(&g, &mut bis, target, 12);
        assert!(
            bis.cut < initial_cut / 2,
            "FM failed to improve: {} -> {}",
            initial_cut,
            bis.cut
        );
        // Balance within the allowance ceiling ceil(1.05 * 32) = 34.
        assert!(bis.part_weights[0] <= 34 && bis.part_weights[1] <= 34);
        // Internal consistency.
        let check = Bisection::recompute(&g, bis.part_of.clone());
        assert_eq!(check.cut, bis.cut);
        assert_eq!(check.part_weights, bis.part_weights);
    }

    #[test]
    fn fm_keeps_optimal_split() {
        let n = 6;
        let g = grid(n);
        // Optimal split: top half vs bottom half, cut = 6.
        let part_of: Vec<u8> = (0..n * n)
            .map(|v| if v / n < n / 2 { 0 } else { 1 })
            .collect();
        let mut bis = Bisection::recompute(&g, part_of);
        assert_eq!(bis.cut, 6);
        refine(&g, &mut bis, [18, 18], 8);
        assert_eq!(bis.cut, 6, "FM must not damage an optimal split");
    }

    #[test]
    fn fm_respects_balance() {
        let n = 8;
        let g = grid(n);
        let part_of: Vec<u8> = (0..n * n).map(|v| (v % 2) as u8).collect();
        let mut bis = Bisection::recompute(&g, part_of);
        let target = [32i64, 32i64];
        refine(&g, &mut bis, target, 12);
        assert!(bis.part_weights[0] as f64 <= 32.0 * 1.05 + 1.0);
        assert!(bis.part_weights[1] as f64 <= 32.0 * 1.05 + 1.0);
    }

    #[test]
    fn fm_noop_on_empty_graph() {
        let g = Graph::from_adjacency(vec![0], vec![]).unwrap();
        let mut bis = Bisection::recompute(&g, vec![]);
        assert_eq!(refine(&g, &mut bis, [0, 0], 4), 0);
    }
}
