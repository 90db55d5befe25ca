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
use std::collections::BinaryHeap;

/// Upper limit of consecutive non-improving moves inside one pass
/// before the pass is cut short (standard FM early exit).
const MAX_BAD_MOVES: usize = 150;

/// FM's lazy max-heap of `(gain, vertex)` entries: the highest gain
/// pops first and, among equal gains, the lowest vertex.
///
/// An entry is one `u64` key, `(gain + 2³¹) << 32 | !v`: the biased
/// gain is unsigned and ordered as the gain is, and `!v` is larger the
/// smaller `v` is. So keys order exactly as `(gain, Reverse(v))` does,
/// and distinct entries have distinct keys. A gain outside `i32` is
/// refused with a panic rather than wrapped; a gain is bounded by its
/// vertex's weighted degree, which the input's nonzero count bounds.
#[derive(Default)]
pub(crate) struct GainHeap(BinaryHeap<u64>);

impl GainHeap {
    const BIAS: u32 = 1 << 31;

    /// The packed key of an entry.
    pub(crate) fn key(gain: i64, v: u32) -> u64 {
        let gain = i32::try_from(gain).expect("an FM gain outside i32");
        u64::from(gain as u32 ^ Self::BIAS) << 32 | u64::from(!v)
    }

    pub(crate) fn push(&mut self, gain: i64, v: u32) {
        self.0.push(Self::key(gain, v));
    }

    /// The highest entry, lowest vertex first among equal gains.
    pub(crate) fn pop(&mut self) -> Option<(i64, u32)> {
        let key = self.0.pop()?;
        Some((
            i64::from(((key >> 32) as u32 ^ Self::BIAS) as i32),
            !(key as u32),
        ))
    }

    /// Replace the entries with the keys `seed` writes into the emptied
    /// buffer, heapified. That pops the same sequence as pushing them
    /// one by one: a max-heap's pop order depends only on its keys, and
    /// equal keys are equal entries.
    fn refill(&mut self, seed: impl FnOnce(&mut Vec<u64>)) {
        let mut keys = std::mem::take(&mut self.0).into_vec();
        keys.clear();
        seed(&mut keys);
        self.0 = BinaryHeap::from(keys);
    }
}

/// FM's per-pass arrays, kept across the passes, levels and bisections
/// of one partitioning call: sized once by its largest graph, not
/// reallocated per pass.
#[derive(Default)]
pub(crate) struct FmWork {
    pub(crate) gain: Vec<i64>,
    pub(crate) locked: Vec<bool>,
    pub(crate) heap: GainHeap,
    pub(crate) moves: Vec<u32>,
}

impl FmWork {
    /// Room for graphs of up to `n` vertices without growing.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.gain.clear();
        self.gain.reserve(n);
        self.locked.clear();
        self.locked.reserve(n);
        self.heap.0.clear();
        self.heap.0.reserve(n);
        self.moves.clear();
        self.moves.reserve(n);
    }

    /// Start a pass over `n` vertices: nothing locked or moved, the
    /// gains `seed` writes into the emptied gain vector, and the heap
    /// refilled with the keys ([`GainHeap::key`]) it writes beside them.
    pub(crate) fn start_pass(&mut self, n: usize, seed: impl FnOnce(&mut Vec<i64>, &mut Vec<u64>)) {
        self.gain.clear();
        let gain = &mut self.gain;
        self.heap.refill(|keys| seed(gain, keys));
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
                    seeds.push(GainHeap::key(gv, v as u32));
                }
            }
            // For graphs with no boundary (already perfect), seed
            // everything so balance can still be fixed.
            if seeds.is_empty() {
                seeds.extend(
                    gain.iter()
                        .enumerate()
                        .map(|(v, &gv)| GainHeap::key(gv, v as u32)),
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

        while let Some((gtop, v)) = heap.pop() {
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
                heap.push(gain[u], u as u32);
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
    use crate::rng::SplitMix;
    use std::cmp::Reverse;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Random push/pop runs against the tuple heap the packed keys
    /// replaced, whose order they must keep: gains at both ends of the
    /// checked range, vertex ids 0 and `u32::MAX - 1`, repeated
    /// entries, and a refill in the middle of a run.
    #[test]
    fn gain_heap_pops_as_the_tuple_heap_does() {
        let mut gen = SplitMix::new(17);
        let gains = [
            i64::from(i32::MIN),
            i64::from(i32::MIN) + 1,
            -1,
            0,
            1,
            i64::from(i32::MAX),
        ];
        let ids = [0, 1, 2, u32::MAX / 2, u32::MAX - 2, u32::MAX - 1];
        let steps = if cfg!(debug_assertions) {
            10_000
        } else {
            100_000
        };
        let mut heap = GainHeap::default();
        let mut reference: BinaryHeap<(i64, Reverse<u32>)> = BinaryHeap::new();
        let mut entries: Vec<(i64, u32)> = Vec::new();
        for step in 0..steps {
            match gen.next_below(10) {
                0..=4 => {
                    // Half the draws repeat a recent entry.
                    let (gain, v) = match entries.last() {
                        Some(&e) if gen.next_below(2) == 0 => e,
                        _ => {
                            let gain = if gen.next_below(3) == 0 {
                                gains[gen.next_below(gains.len())]
                            } else {
                                gen.next_below(41) as i64 - 20
                            };
                            (gain, ids[gen.next_below(ids.len())])
                        }
                    };
                    heap.push(gain, v);
                    reference.push((gain, Reverse(v)));
                    entries.push((gain, v));
                }
                5..=8 => {
                    let expected = reference.pop().map(|(gain, Reverse(v))| (gain, v));
                    assert_eq!(heap.pop(), expected, "step {step}");
                }
                _ => {
                    // Refill with what the reference holds plus a few
                    // of the run's entries.
                    let extra = entries.len().min(gen.next_below(8));
                    let kept: Vec<(i64, u32)> = reference
                        .iter()
                        .map(|&(gain, Reverse(v))| (gain, v))
                        .chain(entries[entries.len() - extra..].iter().copied())
                        .collect();
                    heap.refill(|keys| {
                        keys.extend(kept.iter().map(|&(gain, v)| GainHeap::key(gain, v)))
                    });
                    reference = kept.iter().map(|&(gain, v)| (gain, Reverse(v))).collect();
                }
            }
        }
        while let Some((gain, Reverse(v))) = reference.pop() {
            assert_eq!(heap.pop(), Some((gain, v)));
        }
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn gain_heap_refuses_a_gain_outside_i32() {
        for gain in [i64::from(i32::MAX) + 1, i64::from(i32::MIN) - 1, i64::MAX] {
            let refused = catch_unwind(AssertUnwindSafe(|| GainHeap::default().push(gain, 0)));
            assert!(refused.is_err(), "gain {gain} was packed");
        }
    }

    fn refine(g: &Graph, bis: &mut Bisection, target: [i64; 2], passes: usize) -> usize {
        fm_refine(g, bis, target, 1.05, passes, &mut FmWork::default())
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
