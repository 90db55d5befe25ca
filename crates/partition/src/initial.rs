//! Initial bisection of the coarsest graph by greedy graph growing.
//!
//! A region is grown breadth-first from a random start vertex, always
//! absorbing the frontier vertex with the highest gain (fewest new cut
//! edges), until the region reaches its target weight. Several trials
//! with different starts are run and the best cut kept — the same
//! strategy METIS uses (GGGP).

use crate::rng::SplitMix;
use crate::{cut_and_weights, imbalance, Bisection};
use sparsegraph::Graph;

/// One set of trial arrays, kept across the trials and bisections of a
/// partitioning call.
#[derive(Default)]
pub(crate) struct GrowWork {
    /// The trial's bisection: part 0 is the region grown.
    part_of: Vec<u8>,
    /// Per vertex, the gain of moving it into the region: (edges into
    /// region) - (edges out of region). Larger is better.
    gain: Vec<i64>,
    /// Each vertex's gain before the region has any vertex: minus its
    /// weighted degree.
    gain0: Vec<i64>,
    in_frontier: Vec<bool>,
    frontier: Vec<u32>,
}

impl GrowWork {
    /// Set `gain0` for the trials on `g`.
    fn weigh(&mut self, g: &Graph) {
        self.gain0.clear();
        self.gain0.extend(
            (0..g.num_vertices()).map(|v| -g.neighbors_weighted(v).map(|(_, w)| w).sum::<i64>()),
        );
    }
}

/// Grow part 0 of `ws.part_of` from `start` until its weight reaches
/// `target0`; `ws` must be weighed for `g`. Returns the cut and part 0's
/// weight, tracked as the region grows: absorbing `v` uncuts its edges
/// into the region and cuts its others, which moves the cut by
/// `-gain[v]`.
fn grow_from(g: &Graph, start: usize, target0: i64, ws: &mut GrowWork) -> (i64, i64) {
    let n = g.num_vertices();
    let GrowWork {
        part_of,
        gain,
        gain0,
        in_frontier,
        frontier,
    } = ws;
    part_of.clear();
    part_of.resize(n, 1);
    gain.clear();
    gain.extend_from_slice(gain0);
    in_frontier.clear();
    in_frontier.resize(n, false);
    frontier.clear();
    let (mut cut, mut weight0) = (0i64, 0i64);

    let mut seed_next = start;
    loop {
        // (Re)seed with an untouched vertex if the frontier is empty
        // (disconnected coarse graphs happen).
        if frontier.is_empty() {
            if weight0 >= target0 {
                break;
            }
            match (0..n)
                .map(|off| (seed_next + off) % n)
                .find(|&v| part_of[v] != 0)
            {
                Some(v) => {
                    frontier.push(v as u32);
                    in_frontier[v] = true;
                    seed_next = v + 1;
                }
                None => break,
            }
        }
        // Absorb the best-gain frontier vertex.
        let (fi, _) = frontier
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| gain[v as usize])
            .expect("frontier non-empty");
        let v = frontier.swap_remove(fi) as usize;
        in_frontier[v] = false;
        part_of[v] = 0;
        weight0 += g.vertex_weight(v);
        cut -= gain[v];
        if weight0 >= target0 {
            break;
        }
        // v moved inside: each edge to a vertex outside flipped from
        // out to in.
        for (u, w) in g.neighbors_weighted(v) {
            let u = u as usize;
            if part_of[u] != 0 {
                gain[u] += 2 * w;
                if !in_frontier[u] {
                    in_frontier[u] = true;
                    frontier.push(u as u32);
                }
            }
        }
    }
    (cut, weight0)
}

/// Greedy graph-growing bisection with multiple trials, into `best`;
/// `ws` holds the trial arrays, and only a better trial swaps its
/// `part_of` into `best`.
pub(crate) fn greedy_growing_bisection(
    g: &Graph,
    target: [i64; 2],
    trials: usize,
    rng: &mut SplitMix,
    ws: &mut GrowWork,
    best: &mut Bisection,
) {
    let n = g.num_vertices();
    best.part_of.clear();
    (best.cut, best.part_weights) = (0, [0, 0]);
    if n == 0 {
        return;
    }
    let total = g.total_vertex_weight();
    ws.weigh(g);
    let mut best_imbalance = None;
    for _ in 0..trials.max(1) {
        let start = rng.next_below(n);
        let (cut, weight0) = grow_from(g, start, target[0], ws);
        let part_weights = [weight0, total - weight0];
        debug_assert!(
            cut_and_weights(g, &ws.part_of) == (cut, part_weights),
            "GGGP's tracked cut or weights drifted"
        );
        let ci = imbalance(part_weights, target);
        let better = match best_imbalance {
            None => true,
            // Prefer feasible (≤5% imbalance) solutions, then lower cut.
            Some(bi) => match (ci <= 1.05, bi <= 1.05) {
                (true, false) => true,
                (false, true) => false,
                _ => cut < best.cut,
            },
        };
        if better {
            best_imbalance = Some(ci);
            std::mem::swap(&mut best.part_of, &mut ws.part_of);
            (best.cut, best.part_weights) = (cut, part_weights);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn bisect(g: &Graph, target: [i64; 2], trials: usize, seed: u64) -> Bisection {
        let mut best = Bisection::default();
        let mut rng = SplitMix::new(seed);
        greedy_growing_bisection(
            g,
            target,
            trials,
            &mut rng,
            &mut GrowWork::default(),
            &mut best,
        );
        best
    }

    /// Disjoint weighted components — a triangle, a path of four, a
    /// star of five and two isolated vertices — as a contracted level
    /// may leave them: a region grown past one component reseeds.
    fn weighted_components() -> Graph {
        let edges: [(u32, u32, i64); 9] = [
            (0, 1, 3),
            (1, 2, 1),
            (0, 2, 2),
            (3, 4, 2),
            (4, 5, 5),
            (5, 6, 1),
            (7, 8, 4),
            (7, 9, 1),
            (7, 10, 2),
        ];
        let n = 13;
        let mut rows: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
        for &(a, b, w) in &edges {
            rows[a as usize].push((b, w));
            rows[b as usize].push((a, w));
        }
        let mut xadj = vec![0usize];
        let (mut adjncy, mut ewgt) = (Vec::new(), Vec::new());
        for row in &rows {
            adjncy.extend(row.iter().map(|&(u, _)| u));
            ewgt.extend(row.iter().map(|&(_, w)| w));
            xadj.push(adjncy.len());
        }
        let vwgt = (0..n as i64).map(|v| 1 + v % 3).collect();
        Graph::from_parts_unchecked(xadj, adjncy, vwgt, ewgt)
    }

    #[test]
    fn tracked_cut_and_weights_equal_a_recomputation() {
        let g = weighted_components();
        let total = g.total_vertex_weight();
        // One workspace for every trial, as a bisection's trials share
        // one.
        let mut ws = GrowWork::default();
        ws.weigh(&g);
        let mut reseeded = 0;
        for target0 in 1..=total {
            for start in 0..g.num_vertices() {
                let (cut, weight0) = grow_from(&g, start, target0, &mut ws);
                let exact = Bisection::recompute(&g, ws.part_of.clone());
                assert_eq!(
                    (cut, [weight0, total - weight0]),
                    (exact.cut, exact.part_weights),
                    "start {start}, target {target0}"
                );
                // Grown over more than one component: the triangle
                // and the path share no edge.
                let grown = |vs: std::ops::Range<usize>| ws.part_of[vs].contains(&0);
                if grown(0..3) && grown(3..13) {
                    reseeded += 1;
                }
            }
        }
        assert!(reseeded > 0, "no trial reseeded");
    }

    #[test]
    fn grid_bisection_is_balanced_and_reasonable() {
        let g = grid(8); // 64 vertices, optimal cut 8
        let total = g.total_vertex_weight();
        let b = bisect(&g, [total / 2, total - total / 2], 8, 11);
        assert_eq!(b.part_weights[0] + b.part_weights[1], total);
        assert!(
            imbalance(b.part_weights, [total / 2, total - total / 2]) <= 1.10,
            "imbalance {}",
            imbalance(b.part_weights, [total / 2, total - total / 2])
        );
        assert!(b.cut <= 24, "greedy cut {} far from optimal 8", b.cut);
        assert!(b.cut >= 8, "cut below optimum is impossible");
    }

    #[test]
    fn uneven_targets_respected() {
        let g = grid(6); // 36 vertices
        let b = bisect(&g, [12, 24], 8, 3);
        // Part 0 should be close to 12, not 18.
        assert!(
            (b.part_weights[0] - 12).abs() <= 3,
            "part 0 weight {} target 12",
            b.part_weights[0]
        );
    }

    #[test]
    fn disconnected_graph_is_fully_assigned() {
        // Two disjoint edges + isolated vertex.
        let g = Graph::from_adjacency(vec![0, 1, 2, 3, 4, 4], vec![1, 0, 3, 2]).unwrap();
        let b = bisect(&g, [2, 3], 4, 9);
        assert_eq!(b.part_weights[0] + b.part_weights[1], 5);
        assert!(b.part_weights[0] >= 2, "part 0 reached its target");
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let b = bisect(&g, [1, 0], 2, 1);
        assert_eq!(b.part_of.len(), 1);
        assert_eq!(b.cut, 0);
    }
}
