//! Multilevel hypergraph partitioning with the cut-net objective — the
//! stand-in for PaToH used by the paper's HP reordering.
//!
//! The structure mirrors the graph partitioner: heavy-connectivity
//! matching coarsens the hypergraph, greedy growing produces an initial
//! bisection of the coarsest level, and FM refinement with per-net
//! side-counts improves the cut during uncoarsening. Recursive bisection
//! extends to k parts.

use crate::rng::SplitMix;
use sparsegraph::Hypergraph;

/// Nets larger than this are ignored during matching and receive no
/// incremental gain updates during FM (they are almost always cut and
/// their pins' gains are insensitive to single moves). PaToH applies
/// similar large-net thresholds.
const BIG_NET: usize = 256;

/// Coarsening stops below this many vertices.
const COARSEN_TO: usize = 120;
/// Initial-partition trials on the coarsest hypergraph.
const INITIAL_TRIALS: usize = 6;
/// FM passes per level.
const FM_PASSES: usize = 6;

/// Configuration for [`partition_hypergraph`].
#[derive(Debug, Clone)]
pub struct HypergraphPartitionConfig {
    /// Number of parts.
    pub num_parts: usize,
    /// Allowed imbalance factor.
    pub ubfactor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HypergraphPartitionConfig {
    fn default() -> Self {
        HypergraphPartitionConfig {
            num_parts: 2,
            ubfactor: 1.05,
            seed: 0x9A70,
        }
    }
}

impl HypergraphPartitionConfig {
    /// A `k`-way configuration with default knobs.
    pub fn k(num_parts: usize) -> Self {
        HypergraphPartitionConfig {
            num_parts,
            ..Default::default()
        }
    }
}

/// Internal mutable hypergraph used across coarsening levels.
#[derive(Debug, Clone)]
struct WorkHg {
    xpins: Vec<usize>,
    pins: Vec<u32>,
    xnets: Vec<usize>,
    nets: Vec<u32>,
    vwgt: Vec<i64>,
    nwgt: Vec<i64>,
}

impl WorkHg {
    fn from_hypergraph(h: &Hypergraph) -> WorkHg {
        let nv = h.num_vertices();
        let nn = h.num_nets();
        let mut xpins = Vec::with_capacity(nn + 1);
        xpins.push(0);
        let mut pins = Vec::with_capacity(h.num_pins());
        for j in 0..nn {
            pins.extend_from_slice(h.net_pins(j));
            xpins.push(pins.len());
        }
        let mut xnets = Vec::with_capacity(nv + 1);
        xnets.push(0);
        let mut nets = Vec::with_capacity(h.num_pins());
        for v in 0..nv {
            nets.extend_from_slice(h.vertex_nets(v));
            xnets.push(nets.len());
        }
        WorkHg {
            xpins,
            pins,
            xnets,
            nets,
            vwgt: (0..nv).map(|v| h.vertex_weight(v)).collect(),
            nwgt: (0..nn).map(|j| h.net_weight(j)).collect(),
        }
    }

    fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    fn num_nets(&self) -> usize {
        self.nwgt.len()
    }

    fn net_pins(&self, j: usize) -> &[u32] {
        &self.pins[self.xpins[j]..self.xpins[j + 1]]
    }

    fn vertex_nets(&self, v: usize) -> &[u32] {
        &self.nets[self.xnets[v]..self.xnets[v + 1]]
    }

    fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Rebuild the vertex→nets incidence from the net→pins arrays.
    fn rebuild_vertex_nets(&mut self) {
        let nv = self.num_vertices();
        let mut count = vec![0usize; nv + 1];
        for &p in &self.pins {
            count[p as usize + 1] += 1;
        }
        for v in 0..nv {
            count[v + 1] += count[v];
        }
        let xnets = count.clone();
        let mut nets = vec![0u32; self.pins.len()];
        let mut next: Vec<usize> = count[..nv].to_vec();
        for j in 0..self.num_nets() {
            for &p in &self.pins[self.xpins[j]..self.xpins[j + 1]] {
                nets[next[p as usize]] = j as u32;
                next[p as usize] += 1;
            }
        }
        self.xnets = xnets;
        self.nets = nets;
    }
}

/// One coarsening level.
struct HgLevel {
    hg: WorkHg,
    coarse_of: Vec<u32>,
}

/// Heavy-connectivity matching: match each vertex with the unmatched
/// co-pin vertex sharing the largest total net weight.
fn match_vertices(hg: &WorkHg, rng: &mut SplitMix) -> Vec<u32> {
    let n = hg.num_vertices();
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let mut visit: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut visit);
    // Sparse counter of shared weight with candidate partners.
    let mut shared: Vec<i64> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();
    for &v in &visit {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        touched.clear();
        for &j in hg.vertex_nets(v) {
            let pins = hg.net_pins(j as usize);
            if pins.len() > BIG_NET {
                continue;
            }
            let w = hg.nwgt[j as usize];
            for &u in pins {
                let u = u as usize;
                if u == v || matched[u] {
                    continue;
                }
                if shared[u] == 0 {
                    touched.push(u as u32);
                }
                shared[u] += w;
            }
        }
        let mut best: Option<(usize, i64)> = None;
        for &u in &touched {
            let u = u as usize;
            let s = shared[u];
            let better = match best {
                None => true,
                Some((bu, bs)) => s > bs || (s == bs && hg.vwgt[u] < hg.vwgt[bu]),
            };
            if better {
                best = Some((u, s));
            }
            shared[u] = 0;
        }
        if let Some((u, _)) = best {
            matched[v] = true;
            matched[u] = true;
            match_of[v] = u as u32;
            match_of[u] = v as u32;
        }
    }
    match_of
}

/// Contract the hypergraph along a matching. Pins are deduplicated per
/// net; nets reduced to a single pin are dropped.
fn contract_hg(hg: &WorkHg, match_of: &[u32]) -> HgLevel {
    let n = hg.num_vertices();
    let mut coarse_of = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        coarse_of[v] = nc;
        coarse_of[match_of[v] as usize] = nc;
        nc += 1;
    }
    let ncv = nc as usize;
    let mut vwgt = vec![0i64; ncv];
    for v in 0..n {
        vwgt[coarse_of[v] as usize] += hg.vwgt[v];
    }
    let mut xpins = vec![0usize];
    let mut pins: Vec<u32> = Vec::with_capacity(hg.pins.len());
    let mut nwgt: Vec<i64> = Vec::new();
    let mut mark = vec![u64::MAX; ncv];
    let mut stamp = 0u64;
    for j in 0..hg.num_nets() {
        stamp += 1;
        let start = pins.len();
        for &p in hg.net_pins(j) {
            let c = coarse_of[p as usize];
            if mark[c as usize] != stamp {
                mark[c as usize] = stamp;
                pins.push(c);
            }
        }
        if pins.len() - start <= 1 {
            pins.truncate(start); // single-pin net: drop
        } else {
            xpins.push(pins.len());
            nwgt.push(hg.nwgt[j]);
        }
    }
    let mut coarse = WorkHg {
        xpins,
        pins,
        xnets: Vec::new(),
        nets: Vec::new(),
        vwgt,
        nwgt,
    };
    coarse.rebuild_vertex_nets();
    HgLevel {
        hg: coarse,
        coarse_of,
    }
}

/// Net side-counts for a bisection.
fn side_counts(hg: &WorkHg, part_of: &[u8]) -> Vec<[u32; 2]> {
    let mut counts = vec![[0u32; 2]; hg.num_nets()];
    for j in 0..hg.num_nets() {
        for &p in hg.net_pins(j) {
            counts[j][part_of[p as usize] as usize] += 1;
        }
    }
    counts
}

/// Cut-net value of a bisection from side counts: the total weight of
/// nets with pins on both sides (PaToH "cut-net", the metric chosen in
/// §3.3 of the paper; for two parts it equals connectivity−1).
fn objective_value(hg: &WorkHg, counts: &[[u32; 2]]) -> i64 {
    let mut total = 0i64;
    for j in 0..hg.num_nets() {
        let [a, b] = counts[j];
        if a > 0 && b > 0 {
            total += hg.nwgt[j];
        }
    }
    total
}

/// Gain of moving vertex `v` to the other side, from net side counts.
fn move_gain(hg: &WorkHg, counts: &[[u32; 2]], part_of: &[u8], v: usize) -> i64 {
    let from = part_of[v] as usize;
    let to = 1 - from;
    let mut gain = 0i64;
    for &j in hg.vertex_nets(v) {
        let j = j as usize;
        let cf = counts[j][from];
        let ct = counts[j][to];
        if cf == 1 && ct > 0 {
            gain += hg.nwgt[j]; // net becomes internal to `to`
        } else if ct == 0 && cf > 1 {
            gain -= hg.nwgt[j]; // net becomes newly cut
        }
    }
    gain
}

/// Greedy growing initial bisection on the coarsest hypergraph.
fn initial_bisection(hg: &WorkHg, target: [i64; 2], trials: usize, rng: &mut SplitMix) -> Vec<u8> {
    let n = hg.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Option<(Vec<u8>, i64, f64)> = None;
    for _ in 0..trials.max(1) {
        let mut part_of = vec![1u8; n];
        let mut w0 = 0i64;
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        let start = rng.next_below(n);
        queue.push_back(start as u32);
        seen[start] = true;
        let mut seed_next = start;
        while w0 < target[0] {
            let v = match queue.pop_front() {
                Some(v) => v as usize,
                None => {
                    // Disconnected: reseed from the next unseen vertex.
                    let mut found = None;
                    for off in 0..n {
                        let u = (seed_next + off) % n;
                        if !seen[u] {
                            found = Some(u);
                            break;
                        }
                    }
                    match found {
                        Some(u) => {
                            seen[u] = true;
                            seed_next = u + 1;
                            u
                        }
                        None => break,
                    }
                }
            };
            part_of[v] = 0;
            w0 += hg.vwgt[v];
            for &j in hg.vertex_nets(v) {
                let pins = hg.net_pins(j as usize);
                if pins.len() > BIG_NET {
                    continue;
                }
                for &u in pins {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
        let counts = side_counts(hg, &part_of);
        let cut = objective_value(hg, &counts);
        let w0f = part_of
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == 0)
            .map(|(v, _)| hg.vwgt[v])
            .sum::<i64>() as f64;
        let imb = (w0f / target[0].max(1) as f64)
            .max((hg.total_vertex_weight() as f64 - w0f) / target[1].max(1) as f64);
        let better = match &best {
            None => true,
            Some((_, bcut, bimb)) => match (imb <= 1.05, *bimb <= 1.05) {
                (true, false) => true,
                (false, true) => false,
                _ => cut < *bcut,
            },
        };
        if better {
            best = Some((part_of, cut, imb));
        }
    }
    best.expect("at least one trial").0
}

/// FM refinement for hypergraph bisections.
fn fm_refine_hg(
    hg: &WorkHg,
    part_of: &mut [u8],
    target: [i64; 2],
    ubfactor: f64,
    max_passes: usize,
) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = hg.num_vertices();
    if n == 0 {
        return;
    }
    let max_allowed = [
        ((target[0] as f64) * ubfactor).ceil() as i64,
        ((target[1] as f64) * ubfactor).ceil() as i64,
    ];
    for _ in 0..max_passes {
        let mut counts = side_counts(hg, part_of);
        let start_cut = objective_value(hg, &counts);
        let mut gain: Vec<i64> = (0..n).map(|v| move_gain(hg, &counts, part_of, v)).collect();
        let mut part_w = [0i64; 2];
        for v in 0..n {
            part_w[part_of[v] as usize] += hg.vwgt[v];
        }
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<(i64, Reverse<u32>)> = BinaryHeap::new();
        for v in 0..n {
            heap.push((gain[v], Reverse(v as u32)));
        }
        let mut moves: Vec<u32> = Vec::new();
        let mut cur_cut = start_cut;
        let mut best_cut = start_cut;
        let mut best_len = 0usize;
        let mut best_feasible = part_w[0] <= max_allowed[0] && part_w[1] <= max_allowed[1];
        let mut bad_streak = 0usize;
        let mut old_contrib: Vec<i64> = Vec::new();

        while let Some((gtop, Reverse(v))) = heap.pop() {
            let v = v as usize;
            if locked[v] || gtop != gain[v] {
                continue;
            }
            let from = part_of[v] as usize;
            let to = 1 - from;
            let wv = hg.vwgt[v];
            let feasible_after = part_w[to] + wv <= max_allowed[to];
            let overflow_now = (part_w[0] - max_allowed[0]).max(part_w[1] - max_allowed[1]);
            let overflow_after =
                ((part_w[from] - wv) - max_allowed[from]).max((part_w[to] + wv) - max_allowed[to]);
            if !feasible_after && overflow_after >= overflow_now {
                continue;
            }
            locked[v] = true;
            part_of[v] = to as u8;
            part_w[from] -= wv;
            part_w[to] += wv;
            cur_cut -= gain[v];
            moves.push(v as u32);
            // Update counts and neighbour gains per net, with O(1)
            // delta updates per pin: only net j's contribution to each
            // pin's gain changes, so we subtract the old contribution
            // and add the new one.
            for &j in hg.vertex_nets(v) {
                let j = j as usize;
                let pins = hg.net_pins(j);
                if pins.len() > BIG_NET {
                    counts[j][from] -= 1;
                    counts[j][to] += 1;
                    continue;
                }
                // Old contributions (before the count change).
                old_contrib.clear();
                for &u in pins {
                    let u = u as usize;
                    old_contrib.push(if locked[u] || u == v {
                        0
                    } else {
                        move_gain_single_net(hg, &counts, part_of, u, j)
                    });
                }
                counts[j][from] -= 1;
                counts[j][to] += 1;
                for (pi, &u) in pins.iter().enumerate() {
                    let u = u as usize;
                    if locked[u] || u == v {
                        continue;
                    }
                    let new_contrib = move_gain_single_net(hg, &counts, part_of, u, j);
                    let delta = new_contrib - old_contrib[pi];
                    if delta != 0 {
                        gain[u] += delta;
                        heap.push((gain[u], Reverse(u as u32)));
                    }
                }
            }
            let now_feasible = part_w[0] <= max_allowed[0] && part_w[1] <= max_allowed[1];
            let improves = match (now_feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ => cur_cut < best_cut,
            };
            if improves {
                best_cut = cur_cut;
                best_len = moves.len();
                best_feasible = now_feasible;
                bad_streak = 0;
            } else {
                bad_streak += 1;
                if bad_streak > 100 {
                    break;
                }
            }
        }
        for &v in &moves[best_len..] {
            let v = v as usize;
            part_of[v] = 1 - part_of[v];
        }
        if best_len == 0 || best_cut >= start_cut {
            break;
        }
    }
}

/// Gain contribution of a single net (used by incremental updates).
#[inline]
fn move_gain_single_net(
    hg: &WorkHg,
    counts: &[[u32; 2]],
    part_of: &[u8],
    v: usize,
    j: usize,
) -> i64 {
    let from = part_of[v] as usize;
    let to = 1 - from;
    let cf = counts[j][from];
    let ct = counts[j][to];
    if cf == 1 && ct > 0 {
        hg.nwgt[j]
    } else if ct == 0 && cf > 1 {
        -hg.nwgt[j]
    } else {
        0
    }
}

/// Multilevel bisection of a working hypergraph.
fn multilevel_bisect_hg(
    hg: &WorkHg,
    target: [i64; 2],
    cfg: &HypergraphPartitionConfig,
    seed: u64,
) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    // Coarsen.
    let mut levels: Vec<HgLevel> = Vec::new();
    let mut current = hg.clone();
    while current.num_vertices() > COARSEN_TO {
        let m = match_vertices(&current, &mut rng);
        let level = contract_hg(&current, &m);
        if level.hg.num_vertices() as f64 / current.num_vertices() as f64 > 0.95 {
            break;
        }
        current = level.hg.clone();
        levels.push(level);
    }
    let coarsest: &WorkHg = levels.last().map(|l| &l.hg).unwrap_or(hg);
    let mut part = initial_bisection(coarsest, target, INITIAL_TRIALS, &mut rng);
    fm_refine_hg(coarsest, &mut part, target, cfg.ubfactor, FM_PASSES);
    for li in (0..levels.len()).rev() {
        let fine: &WorkHg = if li == 0 { hg } else { &levels[li - 1].hg };
        let coarse_of = &levels[li].coarse_of;
        let mut fine_part = vec![0u8; fine.num_vertices()];
        for v in 0..fine.num_vertices() {
            fine_part[v] = part[coarse_of[v] as usize];
        }
        part = fine_part;
        fm_refine_hg(fine, &mut part, target, cfg.ubfactor, FM_PASSES);
    }
    part
}

/// Sub-hypergraph induced on a vertex subset: nets are restricted to
/// surviving pins and dropped if ≤1 pin remains.
fn sub_hypergraph(hg: &WorkHg, vertices: &[u32]) -> WorkHg {
    let mut local_of = std::collections::HashMap::with_capacity(vertices.len());
    for (l, &v) in vertices.iter().enumerate() {
        local_of.insert(v, l as u32);
    }
    let mut xpins = vec![0usize];
    let mut pins: Vec<u32> = Vec::new();
    let mut nwgt: Vec<i64> = Vec::new();
    for j in 0..hg.num_nets() {
        let start = pins.len();
        for &p in hg.net_pins(j) {
            if let Some(&l) = local_of.get(&p) {
                pins.push(l);
            }
        }
        if pins.len() - start <= 1 {
            pins.truncate(start);
        } else {
            xpins.push(pins.len());
            nwgt.push(hg.nwgt[j]);
        }
    }
    let vwgt: Vec<i64> = vertices.iter().map(|&v| hg.vwgt[v as usize]).collect();
    let mut sub = WorkHg {
        xpins,
        pins,
        xnets: Vec::new(),
        nets: Vec::new(),
        vwgt,
        nwgt,
    };
    sub.rebuild_vertex_nets();
    sub
}

/// Recursive-bisection k-way hypergraph partitioning.
///
/// Returns the part id of every vertex. With the column-net model and
/// cut-net objective this reproduces the PaToH configuration of the
/// paper's HP reordering (§3.3).
pub fn partition_hypergraph(h: &Hypergraph, cfg: &HypergraphPartitionConfig) -> Vec<u32> {
    let hg = WorkHg::from_hypergraph(h);
    let n = hg.num_vertices();
    let k = cfg.num_parts.max(1);
    let mut part_of = vec![0u32; n];
    if k == 1 || n == 0 {
        return part_of;
    }
    let vertices: Vec<u32> = (0..n as u32).collect();
    recurse_hg(&hg, &vertices, 0, k, cfg, cfg.seed, &mut part_of);
    part_of
}

fn recurse_hg(
    hg_full: &WorkHg,
    vertices: &[u32],
    base: u32,
    k: usize,
    cfg: &HypergraphPartitionConfig,
    seed: u64,
    part_of: &mut [u32],
) {
    if k == 1 || vertices.len() <= 1 {
        for &v in vertices {
            part_of[v as usize] = base;
        }
        return;
    }
    let sub = if vertices.len() == hg_full.num_vertices() {
        hg_full.clone()
    } else {
        sub_hypergraph(hg_full, vertices)
    };
    let k0 = k / 2;
    let k1 = k - k0;
    let total = sub.total_vertex_weight();
    let t0 = (total as f64 * k0 as f64 / k as f64).round() as i64;
    let target = [t0, total - t0];
    let bis = multilevel_bisect_hg(&sub, target, cfg, seed);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (local, &global) in vertices.iter().enumerate() {
        if bis[local] == 0 {
            left.push(global);
        } else {
            right.push(global);
        }
    }
    recurse_hg(
        hg_full,
        &left,
        base,
        k0,
        cfg,
        seed.wrapping_mul(0x9E37).wrapping_add(3),
        part_of,
    );
    recurse_hg(
        hg_full,
        &right,
        base + k0 as u32,
        k1,
        cfg,
        seed.wrapping_mul(0x9E37).wrapping_add(4),
        part_of,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, CsrMatrix};

    /// A banded matrix whose column-net hypergraph has an obvious
    /// low-cut split (contiguous blocks).
    fn banded(n: usize, half_bw: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let lo = i.saturating_sub(half_bw);
            let hi = (i + half_bw + 1).min(n);
            for j in lo..hi {
                coo.push(i, j, 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn bisection_of_banded_matrix_has_low_cut() {
        let a = banded(200, 2);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(2);
        let parts = partition_hypergraph(&h, &cfg);
        let parts_u32: Vec<u32> = parts.clone();
        let cut = h.cut_net(&parts_u32);
        // A contiguous split cuts about 2*half_bw = 4 nets (plus slack).
        assert!(cut <= 20, "cut-net {cut} too high for a banded matrix");
        // Balance.
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert!((80..=120).contains(&w0), "part 0 size {w0}");
    }

    #[test]
    fn four_way_partition_covers_all_parts() {
        let a = banded(400, 3);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(4);
        let parts = partition_hypergraph(&h, &cfg);
        let mut sizes = [0usize; 4];
        for &p in &parts {
            assert!(p < 4);
            sizes[p as usize] += 1;
        }
        for &s in &sizes {
            assert!(s >= 60, "part size {s} too small for 400/4");
        }
    }

    #[test]
    fn single_part_is_trivial() {
        let a = banded(50, 1);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(1);
        let parts = partition_hypergraph(&h, &cfg);
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = banded(150, 2);
        let h = Hypergraph::column_net(&a);
        let cfg = HypergraphPartitionConfig::k(4);
        assert_eq!(
            partition_hypergraph(&h, &cfg),
            partition_hypergraph(&h, &cfg)
        );
    }

    #[test]
    fn fm_never_worsens_cut() {
        let a = banded(120, 2);
        let h = Hypergraph::column_net(&a);
        let hg = WorkHg::from_hypergraph(&h);
        // Start from a deliberately bad interleaved split.
        let mut part: Vec<u8> = (0..hg.num_vertices()).map(|v| (v % 2) as u8).collect();
        let counts = side_counts(&hg, &part);
        let before = objective_value(&hg, &counts);
        let total = hg.total_vertex_weight();
        fm_refine_hg(&hg, &mut part, [total / 2, total - total / 2], 1.05, 8);
        let counts = side_counts(&hg, &part);
        let after = objective_value(&hg, &counts);
        assert!(after <= before, "FM worsened cut: {before} -> {after}");
        assert!(
            after < before / 2,
            "FM should fix interleaving: {before} -> {after}"
        );
    }

    #[test]
    fn contraction_preserves_weight_and_reduces_size() {
        let a = banded(300, 2);
        let h = Hypergraph::column_net(&a);
        let hg = WorkHg::from_hypergraph(&h);
        let mut rng = SplitMix::new(5);
        let m = match_vertices(&hg, &mut rng);
        let level = contract_hg(&hg, &m);
        assert_eq!(level.hg.total_vertex_weight(), hg.total_vertex_weight());
        assert!(level.hg.num_vertices() < hg.num_vertices());
        // Dual incidence is consistent.
        for v in 0..level.hg.num_vertices() {
            for &j in level.hg.vertex_nets(v) {
                assert!(level.hg.net_pins(j as usize).contains(&(v as u32)));
            }
        }
    }
}
