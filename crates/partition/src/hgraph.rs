//! Multilevel hypergraph partitioning with the cut-net objective — the
//! stand-in for PaToH used by the paper's HP reordering.
//!
//! The structure mirrors the graph partitioner: heavy-connectivity
//! matching coarsens the hypergraph, greedy growing produces an initial
//! bisection of the coarsest level, and FM refinement with per-net
//! side-counts improves the cut during uncoarsening. Recursive bisection
//! extends to k parts.

use crate::fm::{FmWork, GainHeap};
use crate::recursive::{recursive_bisection, UBFACTOR};
use crate::rng::SplitMix;
use sparsegraph::{Hypergraph, LocalIds};

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

/// The seed of HP's root bisection, and what each child adds to its
/// parent's scrambled seed (left, right).
const SEED: u64 = 0x9A70;
const CHILD_SEEDS: [u64; 2] = [3, 4];

/// A hypergraph from its net→pins arrays, with the vertex→nets
/// incidence derived: each vertex lists its nets in ascending order.
fn with_vertex_nets(
    xpins: Vec<usize>,
    pins: Vec<u32>,
    vwgt: Vec<i64>,
    nwgt: Vec<i64>,
) -> Hypergraph {
    let nv = vwgt.len();
    // Count each vertex's nets at xnets[v + 1] and prefix-sum, so
    // xnets[v] is v's start; filling with xnets[v] as v's cursor leaves
    // it at v's end — the next vertex's start — and one shift restores
    // the offsets.
    let mut xnets = vec![0usize; nv + 1];
    for &p in &pins {
        xnets[p as usize + 1] += 1;
    }
    for v in 0..nv {
        xnets[v + 1] += xnets[v];
    }
    let mut nets = vec![0u32; pins.len()];
    for j in 0..nwgt.len() {
        for &p in &pins[xpins[j]..xpins[j + 1]] {
            nets[xnets[p as usize]] = j as u32;
            xnets[p as usize] += 1;
        }
    }
    xnets.copy_within(0..nv, 1);
    xnets[0] = 0;
    Hypergraph::from_parts_unchecked(xpins, pins, xnets, nets, vwgt, nwgt)
}

/// One coarsening level.
struct HgLevel {
    hg: Hypergraph,
    coarse_of: Vec<u32>,
}

/// The scratch of HP's bisections, sized once by the hypergraph a
/// [`partition_hypergraph`] call starts from and reused by every level
/// of every bisection, so none of it grows.
struct HgWork {
    /// FM's gains, locks, heap and moves.
    fm: FmWork,
    /// Net side-counts of the bisection being refined.
    counts: Vec<[u32; 2]>,
    /// FM: the free pins the current move changed the gain of, in the
    /// order first changed (`n + 1` slots, written as `touched` is), and
    /// per vertex the move that last changed it.
    dirty: Vec<u32>,
    dirty_in: Vec<u32>,
    /// Matching: the visit order and the matching itself.
    visit: Vec<u32>,
    match_of: Vec<u32>,
    /// Matching: per vertex the last vertex whose nets reached it; those
    /// nets' pins in first-encounter order (`n + 1` slots, the last one
    /// a write that is never kept); the weight each pin shares with it.
    seen: Vec<u32>,
    touched: Vec<u32>,
    shared: Vec<i64>,
    /// The bisection being projected onto the next finer level.
    projected: Vec<u8>,
    /// Local ids of the subset a recursive bisection works on.
    ids: LocalIds,
}

impl HgWork {
    /// A workspace for hypergraphs of up to `n` vertices and `nets` nets.
    fn with_capacity(n: usize, nets: usize) -> HgWork {
        let mut fm = FmWork::default();
        fm.reserve(n);
        HgWork {
            fm,
            counts: Vec::with_capacity(nets),
            dirty: Vec::with_capacity(n + 1),
            dirty_in: Vec::with_capacity(n),
            visit: Vec::with_capacity(n),
            match_of: Vec::with_capacity(n),
            seen: Vec::with_capacity(n),
            touched: Vec::with_capacity(n + 1),
            shared: Vec::with_capacity(n),
            projected: Vec::with_capacity(n),
            ids: LocalIds::default(),
        }
    }
}

/// Heavy-connectivity matching: match each vertex with the unmatched
/// co-pin vertex sharing the largest total net weight. Leaves
/// `ws.match_of`, where `match_of[v] == v` exactly for unmatched `v`.
///
/// A vertex's scan appends every pin of its small nets to `touched` on
/// first encounter — a stamp, not a branch, decides whether the slot is
/// kept — and the walk over `touched` skips `v` and matched pins. No
/// vertex is matched during a scan, so the unmatched co-pins come out in
/// the order and with the sums the scan that skipped them found.
fn match_vertices(hg: &Hypergraph, rng: &mut SplitMix, ws: &mut HgWork) {
    let n = hg.num_vertices();
    let HgWork {
        visit,
        match_of,
        seen,
        touched,
        shared,
        ..
    } = ws;
    visit.clear();
    visit.extend(0..n as u32);
    rng.shuffle(visit);
    match_of.clear();
    match_of.extend(0..n as u32);
    seen.clear();
    seen.resize(n, u32::MAX);
    touched.clear();
    touched.resize(n + 1, 0);
    shared.clear();
    shared.resize(n, 0);
    for &v in visit.iter() {
        if match_of[v as usize] != v {
            continue;
        }
        let mut len = 0;
        for &j in hg.vertex_nets(v as usize) {
            let pins = hg.net_pins(j as usize);
            if pins.len() > BIG_NET {
                continue;
            }
            let w = hg.net_weight(j as usize);
            for &u in pins {
                let u = u as usize;
                touched[len] = u as u32;
                len += usize::from(seen[u] != v);
                seen[u] = v;
                shared[u] += w;
            }
        }
        let mut best: Option<(usize, i64)> = None;
        for &u in &touched[..len] {
            let u = u as usize;
            let s = std::mem::take(&mut shared[u]);
            if u == v as usize || match_of[u] as usize != u {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bs)) => s > bs || (s == bs && hg.vertex_weight(u) < hg.vertex_weight(bu)),
            };
            if better {
                best = Some((u, s));
            }
        }
        if let Some((u, _)) = best {
            match_of[v as usize] = u as u32;
            match_of[u] = v;
        }
    }
}

/// Contract the hypergraph along a matching. Pins are deduplicated per
/// net; nets reduced to a single pin are dropped, and a net whose pin
/// set equals an earlier net's is folded into that one.
///
/// The fold sums the two weights and keeps first occurrences in their
/// original order, and it changes no partition:
/// - gains, the cut and matching's `shared[u]` are sums over nets of
///   terms that are equal for equal pin sets, so the summed net adds up
///   to the same totals;
/// - matching's `touched` order and the initial BFS visit each vertex's
///   nets in ascending id, so a later copy only revisits pins its first
///   occurrence already reached;
/// - in FM a pin holds the same gain between moves either way, and a
///   move pushes the same pins at the same gains: a net's delta is its
///   weight times a factor of its side counts, and weights are
///   positive, so two copies and their sum are nonzero together. The
///   same moves are made;
/// - contraction maps equal pin sets to equal pin sets, so the next
///   level folds the same groups with the same first occurrences.
///
/// Equal sets are found without sorting: an order-independent pin hash
/// accumulates while the pins are mapped, `(hash, len)` is looked up in
/// an open-addressed table of earlier nets, and a candidate is confirmed
/// against the current net's `mark` stamps.
fn contract_hg(hg: &Hypergraph, match_of: &[u32]) -> HgLevel {
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
        vwgt[coarse_of[v] as usize] += hg.vertex_weight(v);
    }
    // Sized by the fine level, which has at least as many nets and pins.
    let mut xpins = Vec::with_capacity(hg.num_nets() + 1);
    xpins.push(0usize);
    let mut pins: Vec<u32> = Vec::with_capacity(hg.num_pins());
    let mut nwgt: Vec<i64> = Vec::with_capacity(hg.num_nets());
    let mut net_hash: Vec<u64> = Vec::with_capacity(hg.num_nets());
    // Coarse net ids by hash, u32::MAX for empty; at most half full.
    let mask = (2 * hg.num_nets()).next_power_of_two() - 1;
    let mut table = vec![u32::MAX; mask + 1];
    let mut mark = vec![u64::MAX; ncv];
    let mut stamp = 0u64;
    for j in 0..hg.num_nets() {
        stamp += 1;
        let start = pins.len();
        let mut hash = 0u64;
        for &p in hg.net_pins(j) {
            let c = coarse_of[p as usize];
            if mark[c as usize] != stamp {
                mark[c as usize] = stamp;
                pins.push(c);
                hash = hash.wrapping_add(SplitMix::new(u64::from(c)).next_u64());
            }
        }
        let len = pins.len() - start;
        if len <= 1 {
            pins.truncate(start); // single-pin net: drop
            continue;
        }
        let mut slot = hash as usize & mask;
        loop {
            let i = table[slot] as usize;
            if i == u32::MAX as usize {
                table[slot] = nwgt.len() as u32;
                xpins.push(pins.len());
                nwgt.push(hg.net_weight(j));
                net_hash.push(hash);
                break;
            }
            let earlier = &pins[xpins[i]..xpins[i + 1]];
            if net_hash[i] == hash
                && earlier.len() == len
                && earlier.iter().all(|&c| mark[c as usize] == stamp)
            {
                nwgt[i] += hg.net_weight(j);
                pins.truncate(start);
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    HgLevel {
        hg: with_vertex_nets(xpins, pins, vwgt, nwgt),
        coarse_of,
    }
}

/// Net side-counts for a bisection, into `counts`.
fn side_counts(hg: &Hypergraph, part_of: &[u8], counts: &mut Vec<[u32; 2]>) {
    counts.clear();
    counts.resize(hg.num_nets(), [0; 2]);
    for j in 0..hg.num_nets() {
        for &p in hg.net_pins(j) {
            counts[j][part_of[p as usize] as usize] += 1;
        }
    }
}

/// Cut-net value of a bisection from side counts: the total weight of
/// nets with pins on both sides (PaToH "cut-net", the metric chosen in
/// §3.3 of the paper; for two parts it equals connectivity−1).
fn objective_value(hg: &Hypergraph, counts: &[[u32; 2]]) -> i64 {
    let mut total = 0i64;
    for j in 0..hg.num_nets() {
        let [a, b] = counts[j];
        if a > 0 && b > 0 {
            total += hg.net_weight(j);
        }
    }
    total
}

/// One net's share of the gain of moving a pin to the other side, when
/// the pin's side holds `own` of the net's pins and the other side
/// `other`: `w` if the move uncuts the net, `−w` if it newly cuts it.
#[inline]
fn pin_gain(own: u32, other: u32, w: i64) -> i64 {
    if own == 1 && other > 0 {
        w
    } else if other == 0 && own > 1 {
        -w
    } else {
        0
    }
}

/// Gain of moving vertex `v` to the other side, from net side counts.
fn move_gain(hg: &Hypergraph, counts: &[[u32; 2]], part_of: &[u8], v: usize) -> i64 {
    let from = part_of[v] as usize;
    hg.vertex_nets(v)
        .iter()
        .map(|&j| {
            let [own, other] = [counts[j as usize][from], counts[j as usize][1 - from]];
            pin_gain(own, other, hg.net_weight(j as usize))
        })
        .sum()
}

/// Greedy growing initial bisection on the coarsest hypergraph;
/// `counts` is scratch.
fn initial_bisection(
    hg: &Hypergraph,
    target: [i64; 2],
    trials: usize,
    rng: &mut SplitMix,
    counts: &mut Vec<[u32; 2]>,
) -> Vec<u8> {
    let n = hg.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // One set of trial arrays: a better trial swaps its `part_of` into
    // `best`. A vertex is queued at most once a trial, so the queue is a
    // `Vec` read from `head` that never grows past `n`.
    let mut best = vec![0u8; n];
    let mut best_score: Option<(i64, f64)> = None;
    let mut part_of = vec![1u8; n];
    let mut seen = vec![false; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..trials.max(1) {
        part_of.fill(1);
        seen.fill(false);
        queue.clear();
        let mut head = 0;
        let mut w0 = 0i64;
        let start = rng.next_below(n);
        queue.push(start as u32);
        seen[start] = true;
        let mut seed_next = start;
        while w0 < target[0] {
            let v = match queue.get(head) {
                Some(&v) => {
                    head += 1;
                    v as usize
                }
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
            w0 += hg.vertex_weight(v);
            for &j in hg.vertex_nets(v) {
                let pins = hg.net_pins(j as usize);
                if pins.len() > BIG_NET {
                    continue;
                }
                for &u in pins {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push(u);
                    }
                }
            }
        }
        side_counts(hg, &part_of, counts);
        let cut = objective_value(hg, counts);
        let w0f = part_of
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == 0)
            .map(|(v, _)| hg.vertex_weight(v))
            .sum::<i64>() as f64;
        let imb = (w0f / target[0].max(1) as f64)
            .max((hg.total_vertex_weight() as f64 - w0f) / target[1].max(1) as f64);
        let better = match best_score {
            None => true,
            Some((bcut, bimb)) => match (imb <= 1.05, bimb <= 1.05) {
                (true, false) => true,
                (false, true) => false,
                _ => cut < bcut,
            },
        };
        if better {
            best_score = Some((cut, imb));
            std::mem::swap(&mut best, &mut part_of);
        }
    }
    best
}

/// FM refinement for hypergraph bisections, in the workspace `ws`.
///
/// A move adds each net's delta to its free pins' gains and then pushes
/// each pin it gave a nonzero delta once, at the gain the whole move
/// left it with. (Such a pin's gain did change: its deltas all take the
/// sign of its side — none negative on the side `v` left, none positive
/// on the side it joined — so with positive net weights they cannot
/// cancel.) Per-net pushes added only entries for gains a pin held
/// part-way through the move, and each of those popped stale or as a
/// copy of a later entry, changing nothing.
///
/// The side counts are computed once: a pass keeps them through its
/// moves, all nets included, and its rollback undoes each rolled-back
/// move's, so every pass starts on the counts of its `part_of`.
fn fm_refine_hg(
    hg: &Hypergraph,
    part_of: &mut [u8],
    target: [i64; 2],
    ubfactor: f64,
    max_passes: usize,
    ws: &mut HgWork,
) {
    let n = hg.num_vertices();
    if n == 0 {
        return;
    }
    let max_allowed = [
        ((target[0] as f64) * ubfactor).ceil() as i64,
        ((target[1] as f64) * ubfactor).ceil() as i64,
    ];
    let HgWork {
        fm,
        counts,
        dirty,
        dirty_in,
        ..
    } = ws;
    side_counts(hg, part_of, counts);
    for _ in 0..max_passes {
        let start_cut = objective_value(hg, counts);
        fm.start_pass(n, |gain, seeds| {
            gain.extend((0..n).map(|v| move_gain(hg, counts, part_of, v)));
            seeds.extend(
                gain.iter()
                    .enumerate()
                    .map(|(v, &g)| GainHeap::key(g, v as u32)),
            );
        });
        let FmWork {
            gain,
            locked,
            heap,
            moves,
        } = &mut *fm;
        // A move's stamp is its index, unique within the pass.
        dirty_in.clear();
        dirty_in.resize(n, u32::MAX);
        dirty.clear();
        dirty.resize(n + 1, 0);
        let mut part_w = [0i64; 2];
        for v in 0..n {
            part_w[part_of[v] as usize] += hg.vertex_weight(v);
        }
        let mut cur_cut = start_cut;
        let mut best_cut = start_cut;
        let mut best_len = 0usize;
        let mut best_feasible = part_w[0] <= max_allowed[0] && part_w[1] <= max_allowed[1];
        let mut bad_streak = 0usize;

        while let Some((gtop, v)) = heap.pop() {
            let v = v as usize;
            if locked[v] || gtop != gain[v] {
                continue;
            }
            let from = part_of[v] as usize;
            let to = 1 - from;
            let wv = hg.vertex_weight(v);
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
            let mv = moves.len() as u32;
            moves.push(v as u32);
            // Update counts and the free pins' gains per net. A pin's
            // share of a net depends only on its side and the net's two
            // counts, so the move changes it by one delta for the pins
            // on `from` and one for those on `to`; a net where both are
            // zero changes no gain (FM's critical-net rule) and its
            // pins are not visited.
            //
            // Every visited pin is written to `dirty`; the slot is kept
            // only the first time this move gives a free pin a nonzero
            // delta, so the loop has no data-dependent branch per pin. A
            // locked pin (`v` among them) or a zero delta adds nothing.
            let mut len = 0;
            for &j in hg.vertex_nets(v) {
                let j = j as usize;
                let [a, b] = [counts[j][from], counts[j][to]];
                counts[j][from] = a - 1;
                counts[j][to] = b + 1;
                let pins = hg.net_pins(j);
                if pins.len() > BIG_NET {
                    continue;
                }
                let w = hg.net_weight(j);
                let d_from = pin_gain(a - 1, b + 1, w) - pin_gain(a, b, w);
                let d_to = pin_gain(b + 1, a - 1, w) - pin_gain(b, a, w);
                if d_from == 0 && d_to == 0 {
                    continue;
                }
                for &u in pins {
                    let u = u as usize;
                    let delta = if part_of[u] as usize == from {
                        d_from
                    } else {
                        d_to
                    };
                    let keep = !locked[u] & (delta != 0);
                    gain[u] += if keep { delta } else { 0 };
                    dirty[len] = u as u32;
                    len += usize::from(keep & (dirty_in[u] != mv));
                    dirty_in[u] = if keep { mv } else { dirty_in[u] };
                }
            }
            for &u in dirty[..len].iter() {
                heap.push(gain[u as usize], u);
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
            let (from, to) = (part_of[v] as usize, 1 - part_of[v] as usize);
            part_of[v] = to as u8;
            for &j in hg.vertex_nets(v) {
                counts[j as usize][from] -= 1;
                counts[j as usize][to] += 1;
            }
        }
        if best_len == 0 || best_cut >= start_cut {
            break;
        }
    }
}

/// Multilevel bisection of a hypergraph. Each level is contracted from
/// the one before it (the first from `hg`), borrowed in place.
fn multilevel_bisect_hg(hg: &Hypergraph, target: [i64; 2], seed: u64, ws: &mut HgWork) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    // Coarsen.
    let mut levels: Vec<HgLevel> = Vec::new();
    loop {
        let current = levels.last().map_or(hg, |l| &l.hg);
        let n = current.num_vertices();
        if n <= COARSEN_TO {
            break;
        }
        match_vertices(current, &mut rng, ws);
        let level = contract_hg(current, &ws.match_of);
        if level.hg.num_vertices() as f64 / n as f64 > 0.95 {
            break;
        }
        levels.push(level);
    }
    let coarsest: &Hypergraph = levels.last().map(|l| &l.hg).unwrap_or(hg);
    let mut part = initial_bisection(coarsest, target, INITIAL_TRIALS, &mut rng, &mut ws.counts);
    // Refine the coarsest level, then project onto each finer one and
    // refine that in turn.
    for li in (0..=levels.len()).rev() {
        if let Some(level) = levels.get(li) {
            let fine = &mut ws.projected;
            fine.clear();
            fine.extend(level.coarse_of.iter().map(|&c| part[c as usize]));
            std::mem::swap(&mut part, fine);
        }
        let h = if li == 0 { hg } else { &levels[li - 1].hg };
        fm_refine_hg(h, &mut part, target, UBFACTOR, FM_PASSES, ws);
    }
    part
}

/// Sub-hypergraph induced on a vertex subset: nets are restricted to
/// surviving pins and dropped if ≤1 pin remains.
fn sub_hypergraph(hg: &Hypergraph, vertices: &[u32], ids: &mut LocalIds) -> Hypergraph {
    ids.assign(hg.num_vertices(), vertices);
    let mut xpins = vec![0usize];
    let mut pins: Vec<u32> = Vec::new();
    let mut nwgt: Vec<i64> = Vec::new();
    for j in 0..hg.num_nets() {
        let start = pins.len();
        pins.extend(hg.net_pins(j).iter().filter_map(|&p| ids.get(p)));
        if pins.len() - start <= 1 {
            pins.truncate(start);
        } else {
            xpins.push(pins.len());
            nwgt.push(hg.net_weight(j));
        }
    }
    let vwgt: Vec<i64> = vertices
        .iter()
        .map(|&v| hg.vertex_weight(v as usize))
        .collect();
    with_vertex_nets(xpins, pins, vwgt, nwgt)
}

/// Recursive-bisection k-way hypergraph partitioning.
///
/// Returns the part id (in `0..k`) of every vertex; `k` is clamped as
/// [`crate::partition_graph`]'s is. With the column-net model and
/// cut-net objective this reproduces the PaToH configuration of the
/// paper's HP reordering (§3.3).
pub fn partition_hypergraph(h: &Hypergraph, k: usize) -> Vec<u32> {
    let mut ws = HgWork::with_capacity(h.num_vertices(), h.num_nets());
    recursive_bisection(
        h.vertex_weights(),
        k,
        (SEED, CHILD_SEEDS),
        |vertices, target, seed, side| {
            // Subsets stay ascending, so the full-length one is the
            // whole hypergraph in order.
            *side = if vertices.len() == h.num_vertices() {
                multilevel_bisect_hg(h, target, seed, &mut ws)
            } else {
                let sub = sub_hypergraph(h, vertices, &mut ws.ids);
                multilevel_bisect_hg(&sub, target, seed, &mut ws)
            };
        },
    )
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

    /// `match_vertices`' matching of `h` under `seed`.
    fn matching(h: &Hypergraph, seed: u64) -> Vec<u32> {
        let mut ws = HgWork::with_capacity(0, 0);
        match_vertices(h, &mut SplitMix::new(seed), &mut ws);
        ws.match_of
    }

    /// Heavy-connectivity matching as written before its scan lost its
    /// per-pin branches — skip `v` and matched pins, count a first touch
    /// where the shared weight is still zero — kept as the oracle the
    /// branch-free scan must reproduce.
    fn match_vertices_reference(hg: &Hypergraph, rng: &mut SplitMix) -> Vec<u32> {
        let n = hg.num_vertices();
        let mut match_of: Vec<u32> = (0..n as u32).collect();
        let mut visit: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut visit);
        let mut shared: Vec<i64> = vec![0; n];
        let mut touched: Vec<u32> = Vec::new();
        for &v in &visit {
            let v = v as usize;
            if match_of[v] as usize != v {
                continue;
            }
            touched.clear();
            for &j in hg.vertex_nets(v) {
                let pins = hg.net_pins(j as usize);
                if pins.len() > BIG_NET {
                    continue;
                }
                let w = hg.net_weight(j as usize);
                for &u in pins {
                    let u = u as usize;
                    if u == v || match_of[u] as usize != u {
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
                    Some((bu, bs)) => {
                        s > bs || (s == bs && hg.vertex_weight(u) < hg.vertex_weight(bu))
                    }
                };
                if better {
                    best = Some((u, s));
                }
                shared[u] = 0;
            }
            if let Some((u, _)) = best {
                match_of[v] = u as u32;
                match_of[u] = v as u32;
            }
        }
        match_of
    }

    /// A hypergraph from `gen` with the corners the golden orderings do
    /// not reach: pins repeated within a net, nets above `BIG_NET`, net
    /// weights and vertex weights above 1.
    fn random_hypergraph(gen: &mut SplitMix) -> Hypergraph {
        let n = 20 + gen.next_below(580);
        let nets = n / 2 + gen.next_below(2 * n);
        let mut xpins = vec![0];
        let mut pins = Vec::new();
        let mut nwgt = Vec::new();
        for _ in 0..nets {
            let len = if gen.next_below(40) == 0 {
                BIG_NET + 1 + gen.next_below(64)
            } else {
                1 + gen.next_below(8)
            };
            // Drawn with replacement, so some nets repeat a pin.
            pins.extend((0..len).map(|_| gen.next_below(n) as u32));
            xpins.push(pins.len());
            nwgt.push(1 + gen.next_below(4) as i64);
        }
        let vwgt = (0..n).map(|_| 1 + gen.next_below(3) as i64).collect();
        with_vertex_nets(xpins, pins, vwgt, nwgt)
    }

    #[test]
    fn matching_equals_its_branching_reference() {
        let mut gen = SplitMix::new(11);
        // One workspace for every case, so each scan starts on the
        // stamps and buffers an earlier hypergraph left behind.
        let mut ws = HgWork::with_capacity(0, 0);
        for case in 0..60 {
            let h = random_hypergraph(&mut gen);
            let seed = 100 + case;
            match_vertices(&h, &mut SplitMix::new(seed), &mut ws);
            let expected = match_vertices_reference(&h, &mut SplitMix::new(seed));
            assert_eq!(ws.match_of, expected, "case {case}");
            // And on its contraction, whose folded nets weigh more.
            let coarse = contract_hg(&h, &expected).hg;
            match_vertices(&coarse, &mut SplitMix::new(seed), &mut ws);
            let expected = match_vertices_reference(&coarse, &mut SplitMix::new(seed));
            assert_eq!(ws.match_of, expected, "case {case}, contracted");
        }
    }

    /// FM as written before a move pushed each pin once: one push per
    /// net that changes a pin's gain, at the gain it holds after that
    /// net. Kept as the oracle `fm_refine_hg` must reproduce.
    fn fm_refine_hg_reference(
        hg: &Hypergraph,
        part_of: &mut [u8],
        target: [i64; 2],
        ubfactor: f64,
        ws: &mut FmWork,
        counts: &mut Vec<[u32; 2]>,
    ) {
        let n = hg.num_vertices();
        let max_allowed = [
            ((target[0] as f64) * ubfactor).ceil() as i64,
            ((target[1] as f64) * ubfactor).ceil() as i64,
        ];
        for _ in 0..FM_PASSES {
            side_counts(hg, part_of, counts);
            let start_cut = objective_value(hg, counts);
            ws.start_pass(n, |gain, seeds| {
                gain.extend((0..n).map(|v| move_gain(hg, counts, part_of, v)));
                seeds.extend(
                    gain.iter()
                        .enumerate()
                        .map(|(v, &g)| GainHeap::key(g, v as u32)),
                );
            });
            let FmWork {
                gain,
                locked,
                heap,
                moves,
            } = &mut *ws;
            let mut part_w = [0i64; 2];
            for v in 0..n {
                part_w[part_of[v] as usize] += hg.vertex_weight(v);
            }
            let mut cur_cut = start_cut;
            let mut best_cut = start_cut;
            let mut best_len = 0usize;
            let mut best_feasible = part_w[0] <= max_allowed[0] && part_w[1] <= max_allowed[1];
            let mut bad_streak = 0usize;
            while let Some((gtop, v)) = heap.pop() {
                let v = v as usize;
                if locked[v] || gtop != gain[v] {
                    continue;
                }
                let from = part_of[v] as usize;
                let to = 1 - from;
                let wv = hg.vertex_weight(v);
                let feasible_after = part_w[to] + wv <= max_allowed[to];
                let overflow_now = (part_w[0] - max_allowed[0]).max(part_w[1] - max_allowed[1]);
                let overflow_after = ((part_w[from] - wv) - max_allowed[from])
                    .max((part_w[to] + wv) - max_allowed[to]);
                if !feasible_after && overflow_after >= overflow_now {
                    continue;
                }
                locked[v] = true;
                part_of[v] = to as u8;
                part_w[from] -= wv;
                part_w[to] += wv;
                cur_cut -= gain[v];
                moves.push(v as u32);
                for &j in hg.vertex_nets(v) {
                    let j = j as usize;
                    let [a, b] = [counts[j][from], counts[j][to]];
                    counts[j][from] = a - 1;
                    counts[j][to] = b + 1;
                    let pins = hg.net_pins(j);
                    if pins.len() > BIG_NET {
                        continue;
                    }
                    let w = hg.net_weight(j);
                    let d_from = pin_gain(a - 1, b + 1, w) - pin_gain(a, b, w);
                    let d_to = pin_gain(b + 1, a - 1, w) - pin_gain(b, a, w);
                    for &u in pins {
                        let u = u as usize;
                        if locked[u] {
                            continue;
                        }
                        let delta = if part_of[u] as usize == from {
                            d_from
                        } else {
                            d_to
                        };
                        if delta != 0 {
                            gain[u] += delta;
                            heap.push(gain[u], u as u32);
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
                part_of[v as usize] ^= 1;
            }
            if best_len == 0 || best_cut >= start_cut {
                break;
            }
        }
    }

    #[test]
    fn fm_equals_its_per_net_push_reference() {
        let mut gen = SplitMix::new(29);
        let mut ws = HgWork::with_capacity(0, 0);
        let (mut fm, mut counts) = (FmWork::default(), Vec::new());
        for case in 0..300 {
            let h = random_hypergraph(&mut gen);
            let start: Vec<u8> = (0..h.num_vertices())
                .map(|_| gen.next_below(2) as u8)
                .collect();
            let total = h.total_vertex_weight();
            let target = [total / 2, total - total / 2];
            // Tight allowances reject moves, and a rejected pin comes
            // back only through a later push.
            let ub = [1.0, 1.02, 1.1][case % 3];
            let mut got = start.clone();
            fm_refine_hg(&h, &mut got, target, ub, FM_PASSES, &mut ws);
            let mut expected = start;
            fm_refine_hg_reference(&h, &mut expected, target, ub, &mut fm, &mut counts);
            assert_eq!(got, expected, "case {case}");
        }
    }

    #[test]
    fn bisection_of_banded_matrix_has_low_cut() {
        let a = banded(200, 2);
        let h = Hypergraph::column_net(&a);
        let parts = partition_hypergraph(&h, 2);
        let cut = h.cut_net(&parts);
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
        let parts = partition_hypergraph(&h, 4);
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
        let parts = partition_hypergraph(&h, 1);
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = banded(150, 2);
        let h = Hypergraph::column_net(&a);
        assert_eq!(partition_hypergraph(&h, 4), partition_hypergraph(&h, 4));
    }

    #[test]
    fn fm_never_worsens_cut() {
        let a = banded(120, 2);
        let h = Hypergraph::column_net(&a);
        // Start from a deliberately bad interleaved split.
        let mut part: Vec<u8> = (0..h.num_vertices()).map(|v| (v % 2) as u8).collect();
        let mut counts = Vec::new();
        side_counts(&h, &part, &mut counts);
        let before = objective_value(&h, &counts);
        let total = h.total_vertex_weight();
        let mut ws = HgWork::with_capacity(0, 0);
        let target = [total / 2, total - total / 2];
        fm_refine_hg(&h, &mut part, target, 1.05, 8, &mut ws);
        side_counts(&h, &part, &mut counts);
        let after = objective_value(&h, &counts);
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
        let level = contract_hg(&h, &matching(&h, 5));
        assert_eq!(level.hg.total_vertex_weight(), h.total_vertex_weight());
        assert!(level.hg.num_vertices() < h.num_vertices());
        // Dual incidence is consistent.
        for v in 0..level.hg.num_vertices() {
            for &j in level.hg.vertex_nets(v) {
                assert!(level.hg.net_pins(j as usize).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn contraction_folds_nets_with_equal_pin_sets() {
        let h = Hypergraph::column_net(&banded(300, 2));
        let level = contract_hg(&h, &matching(&h, 5));
        let coarse = &level.hg;
        let pin_set = |pins: &[u32]| {
            let mut set = pins.to_vec();
            set.sort_unstable();
            set.dedup();
            set
        };
        // Every fine net that keeps two coarse pins lands in the one
        // coarse net with its pin set, carrying its weight there.
        let mut sets: Vec<Vec<u32>> = (0..coarse.num_nets())
            .map(|j| pin_set(coarse.net_pins(j)))
            .collect();
        let mut carried = vec![0i64; coarse.num_nets()];
        let mut kept = 0;
        for j in 0..h.num_nets() {
            let mapped: Vec<u32> = h
                .net_pins(j)
                .iter()
                .map(|&p| level.coarse_of[p as usize])
                .collect();
            let set = pin_set(&mapped);
            if set.len() > 1 {
                kept += 1;
                let c = sets
                    .iter()
                    .position(|s| *s == set)
                    .expect("a coarse net per pin set");
                carried[c] += h.net_weight(j);
            }
        }
        for (c, &w) in carried.iter().enumerate() {
            assert_eq!(coarse.net_weight(c), w, "coarse net {c}");
        }
        sets.sort();
        sets.dedup();
        assert_eq!(
            sets.len(),
            coarse.num_nets(),
            "two coarse nets share a pin set"
        );
        assert!(
            coarse.num_nets() < kept,
            "a band's contraction repeats pin sets"
        );
    }
}
