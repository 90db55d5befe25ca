//! Initial bisection of the coarsest graph by greedy graph growing.
//!
//! A region is grown breadth-first from a random start vertex, always
//! absorbing the frontier vertex with the highest gain (fewest new cut
//! edges), until the region reaches its target weight. Several trials
//! with different starts are run and the best cut kept — the same
//! strategy METIS uses (GGGP).

use crate::rng::SplitMix;
use crate::Bisection;
use sparsegraph::Graph;

/// Grow part 0 from `start` until its weight reaches `target0`.
fn grow_from(g: &Graph, start: usize, target0: i64) -> Vec<u8> {
    let n = g.num_vertices();
    let mut part_of = vec![1u8; n];
    let mut in_region = vec![false; n];
    let mut weight0 = 0i64;

    // Gain of moving a frontier vertex into the region: (edges into
    // region) - (edges out of region). Larger is better.
    let mut gain = vec![0i64; n];
    let mut in_frontier = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();

    let mut seed_next = start;
    loop {
        // (Re)seed with an untouched vertex if the frontier is empty
        // (disconnected coarse graphs happen).
        if frontier.is_empty() {
            if weight0 >= target0 {
                break;
            }
            let mut found = None;
            for off in 0..n {
                let v = (seed_next + off) % n;
                if !in_region[v] {
                    found = Some(v);
                    break;
                }
            }
            match found {
                Some(v) => {
                    frontier.push(v as u32);
                    in_frontier[v] = true;
                    gain[v] = 0;
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
        in_region[v] = true;
        part_of[v] = 0;
        weight0 += g.vertex_weight(v);
        if weight0 >= target0 {
            break;
        }
        for (u, w) in g.neighbors_weighted(v) {
            let u = u as usize;
            if in_region[u] {
                continue;
            }
            if !in_frontier[u] {
                in_frontier[u] = true;
                frontier.push(u as u32);
                // Initial gain: edges into region minus edges outside.
                let mut gi = 0i64;
                for (t, tw) in g.neighbors_weighted(u) {
                    if in_region[t as usize] {
                        gi += tw;
                    } else {
                        gi -= tw;
                    }
                }
                gain[u] = gi;
            } else {
                // v moved inside: one edge flipped from out to in.
                gain[u] += 2 * w;
            }
        }
    }
    part_of
}

/// Greedy graph-growing bisection with multiple trials.
pub(crate) fn greedy_growing_bisection(
    g: &Graph,
    target: [i64; 2],
    trials: usize,
    rng: &mut SplitMix,
) -> Bisection {
    let n = g.num_vertices();
    if n == 0 {
        return Bisection {
            part_of: Vec::new(),
            cut: 0,
            part_weights: [0, 0],
        };
    }
    let mut best: Option<Bisection> = None;
    for _ in 0..trials.max(1) {
        let start = rng.next_below(n);
        let part_of = grow_from(g, start, target[0]);
        let cand = Bisection::recompute(g, part_of);
        let better = match &best {
            None => true,
            Some(b) => {
                let (ci, bi) = (cand.imbalance(target), b.imbalance(target));
                // Prefer feasible (≤5% imbalance) solutions, then lower cut.
                match (ci <= 1.05, bi <= 1.05) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => cand.cut < b.cut,
                }
            }
        };
        if better {
            best = Some(cand);
        }
    }
    best.expect("at least one trial runs")
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

    #[test]
    fn grid_bisection_is_balanced_and_reasonable() {
        let g = grid(8); // 64 vertices, optimal cut 8
        let total = g.total_vertex_weight();
        let mut rng = SplitMix::new(11);
        let b = greedy_growing_bisection(&g, [total / 2, total - total / 2], 8, &mut rng);
        assert_eq!(b.part_weights[0] + b.part_weights[1], total);
        assert!(
            b.imbalance([total / 2, total - total / 2]) <= 1.10,
            "imbalance {}",
            b.imbalance([total / 2, total - total / 2])
        );
        assert!(b.cut <= 24, "greedy cut {} far from optimal 8", b.cut);
        assert!(b.cut >= 8, "cut below optimum is impossible");
    }

    #[test]
    fn uneven_targets_respected() {
        let g = grid(6); // 36 vertices
        let mut rng = SplitMix::new(3);
        let b = greedy_growing_bisection(&g, [12, 24], 8, &mut rng);
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
        let mut rng = SplitMix::new(9);
        let b = greedy_growing_bisection(&g, [2, 3], 4, &mut rng);
        assert_eq!(b.part_weights[0] + b.part_weights[1], 5);
        assert!(b.part_weights[0] >= 2, "part 0 reached its target");
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_adjacency(vec![0, 0], vec![]).unwrap();
        let mut rng = SplitMix::new(1);
        let b = greedy_growing_bisection(&g, [1, 0], 2, &mut rng);
        assert_eq!(b.part_of.len(), 1);
        assert_eq!(b.cut, 0);
    }
}
