//! Approximate Minimum Degree (AMD) ordering, after Amestoy, Davis and
//! Duff \[1\], with round-based *multiple elimination* and parallel
//! quotient-graph updates after Chang, Buluç and Demmel.
//!
//! AMD simulates symbolic Cholesky elimination on a *quotient graph*: an
//! eliminated pivot is retained as an *element* whose variable list
//! stands for the clique its elimination would create. Instead of the
//! exact external degree (expensive to maintain), each variable carries
//! an upper bound that is cheap to update:
//!
//! ```text
//! d̄_v = min( n − k,
//!            d̄_v + |Lp \ v|,
//!            |A_v \ v| + |Lp \ v| + Σ_{e ∈ E_v, e ≠ p} |L_e \ Lp| )
//! ```
//!
//! The `|L_e \ Lp|` terms are computed for all relevant elements in a
//! single scan (the classic `w` array trick). Indistinguishable
//! variables (identical adjacency) are merged into supervariables via
//! hashing, and elements whose variable list is covered by the new
//! element are absorbed — including aggressive absorption of elements
//! that the scan discovers to be subsets of `Lp`.
//!
//! # Multiple elimination
//!
//! [`amd_order_on`] eliminates in *rounds*: each round takes every
//! supervariable within a degree slack of the current minimum out of
//! the degree buckets, greedily keeps a maximal subset that is
//! pairwise **distance-2 independent** in the quotient graph (no two
//! pivots share a variable in their prospective element lists), then
//! eliminates the whole batch. Independence makes the `Lp` sets
//! pairwise disjoint, so the quotient-graph update — element
//! absorption, degree recomputation, supervariable merging — decomposes
//! into per-pivot work that writes disjoint state and can run on the
//! team executor. The update is phase-structured:
//!
//! 1. **U1** (parallel over pivots): `w` scan, adjacency pruning,
//!    subset-element absorption, approximate-degree recomputation for
//!    the pivot's own `Lp`;
//! 2. **U2** (parallel over pivots, after a barrier): supervariable
//!    hashing and merging within the pivot's own `Lp`;
//! 3. finalisation (sequential): element lists, degree buckets.
//!
//! Every parallel write targets state owned by exactly one pivot
//! (disjoint `Lp`s; an element absorbed in U1 is live-adjacent only to
//! its absorber's `Lp`, else it could not be a subset of it), and every
//! cross-pivot read is of round-start state no phase writes, so the
//! output is byte-identical across team sizes — and identical to the
//! sequential path, which walks the same phases pivot by pivot.
//!
//! # The quotient graph in flat arrays
//!
//! As in \[1\], one arena holds every variable's lists: variable `v`
//! owns the segment `xadj[v]..xadj[v + 1]` of a copy of the graph's
//! adjacency, its element list `E_v` first and its variable list `A_v`
//! after it. The two never outgrow the segment: when `v` joins `Lp(p)`
//! it either has `p` in `A_v` (adjacency stays symmetric among live
//! variables), which is pruned now that `p` is an element, or it
//! reached `p` through an element of `E_p`, which the elimination
//! absorbs and `v` prunes — one slot freed before `p` is added. Element
//! variable lists are appended to a second arena sized once from the
//! graph (see `compact_elements`), and merged variables hang off
//! their supervariable in a linked chain.
//!
//! Multiple elimination is a different (Liu's MMD-style) elimination
//! schedule than classic single-pivot AMD: once a batch is eliminated
//! together, later degree updates see the whole batch at once, so the
//! orderings of [`amd_order_on`] and [`amd_order_single`] legitimately
//! diverge. Both are deterministic; the round-based order is the
//! canonical one everywhere in this repo, and the single-elimination
//! path is the oracle `tests/findings.rs` pins its fill against.

use crate::component::{sweep_components, ComponentRange};
use crate::exec::ReorderExec;
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsegraph::{Graph, SubgraphWork};
use sparsemat::{CsrMatrix, SparseError};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};
use telemetry::stages;
use telemetry::trace::ArgValue;

/// Default sequential-fallback threshold for a round's parallel
/// quotient-graph update: rounds whose combined `|Lp|` is below this
/// run inline even on a team (the per-pivot work is too small to repay
/// a dispatch). Tunable per context via
/// [`ReorderExec::with_amd_round_min`]; the ordering is identical for
/// every value.
pub const DEFAULT_AMD_ROUND_MIN: usize = 128;

/// Approximate minimum degree reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Amd {
    /// Degree slack for multiple elimination: a round's candidate set
    /// is every supervariable within `round_slack` of the minimum
    /// degree. 0 (the default) restricts rounds to exact-minimum
    /// pivots; larger values make bigger rounds (more parallelism, a
    /// weaker greedy-minimum-degree guarantee).
    pub round_slack: u32,
}

/// Counters from one [`amd_order_on`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AmdStats {
    /// Elimination rounds performed.
    pub rounds: u64,
    /// Supervariable pivots eliminated (≤ n; merges shrink it).
    pub pivots: u64,
    /// Largest pivot batch eliminated in one round.
    pub max_round: u64,
    /// Rounds whose update phases ran on more than one lane. Depends
    /// on the executor and `amd_round_min` — unlike the ordering, which
    /// never does.
    pub parallel_rounds: u64,
    /// Supervariable merges performed.
    pub merges: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// A live (super)variable.
    Live,
    /// An eliminated pivot retained as a quotient-graph element.
    Element,
    /// Absorbed element or variable merged into a supervariable.
    Dead,
}

/// End of a linked list (degree buckets, merged chains).
const NONE: u32 = u32::MAX;

/// Live supervariables filed by approximate degree: one doubly linked
/// list per degree (\[1\]'s `head`/`next`/`last`) and a cursor at or
/// below the smallest degree anything is filed under.
///
/// It hands out exactly what the lazy-deletion heap it replaced did.
/// That heap held one *fresh* entry per live variable, keyed
/// `(degree[v], v)`: every variable was seeded; a consumed entry was
/// restored (a rejected, unclaimed candidate, degree unchanged) or
/// re-pushed (every live `Lp` member whose degree changed or whose
/// entry the round consumed); only `Lp` members change degree; merged
/// and eliminated variables' entries went stale. So a round's
/// candidates were the set `{(degree[v], v) : v live, degree[v] ≤
/// d_min + slack}` in that order — what [`DegreeBuckets::take_min`]
/// returns while every live variable is filed under its degree and
/// nothing else is filed.
#[derive(Default)]
struct DegreeBuckets {
    /// First variable filed under each degree, or `NONE`.
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The degree each variable is filed under, or `NONE`.
    filed: Vec<u32>,
    /// Nothing is filed under a smaller degree.
    min_d: usize,
    /// Variables filed.
    len: usize,
}

impl DegreeBuckets {
    /// Empty the buckets for variables `0..n` with degrees
    /// `0..=max_degree`.
    fn reset(&mut self, n: usize, max_degree: usize) {
        assert!(
            max_degree < NONE as usize,
            "degree {max_degree} overflows u32"
        );
        refill(&mut self.head, max_degree + 1, NONE);
        refill(&mut self.next, n, NONE);
        refill(&mut self.prev, n, NONE);
        refill(&mut self.filed, n, NONE);
        self.min_d = 0;
        self.len = 0;
    }

    /// File `v` under degree `d`, moving it if it is filed elsewhere.
    fn file(&mut self, v: u32, d: usize) {
        let vu = v as usize;
        if self.filed[vu] as usize == d {
            return;
        }
        self.remove(v);
        let first = self.head[d];
        if first != NONE {
            self.prev[first as usize] = v;
        }
        self.next[vu] = first;
        self.prev[vu] = NONE;
        self.head[d] = v;
        self.filed[vu] = d as u32;
        self.min_d = self.min_d.min(d);
        self.len += 1;
    }

    /// Unfile `v` if it is filed.
    fn remove(&mut self, v: u32) {
        let vu = v as usize;
        let d = self.filed[vu];
        if d == NONE {
            return;
        }
        let (before, after) = (self.prev[vu], self.next[vu]);
        if before == NONE {
            self.head[d as usize] = after;
        } else {
            self.next[before as usize] = after;
        }
        if after != NONE {
            self.prev[after as usize] = before;
        }
        self.filed[vu] = NONE;
        self.len -= 1;
    }

    /// Unfile every variable within `slack` of the smallest filed
    /// degree into `out` as `(degree, id)`, ascending. `false`, with
    /// `out` empty, when nothing is filed.
    fn take_min(&mut self, slack: u32, out: &mut Vec<(u32, u32)>) -> bool {
        out.clear();
        if self.len == 0 {
            return false;
        }
        while self.head[self.min_d] == NONE {
            self.min_d += 1;
        }
        let last = self
            .min_d
            .saturating_add(slack as usize)
            .min(self.head.len() - 1);
        for d in self.min_d..=last {
            let mut v = std::mem::replace(&mut self.head[d], NONE);
            while v != NONE {
                out.push((d as u32, v));
                self.filed[v as usize] = NONE;
                v = self.next[v as usize];
            }
        }
        self.len -= out.len();
        out.sort_unstable();
        true
    }
}

/// Per-lane scratch for the `w` trick and supervariable detection.
/// Worker threads are persistent, so thread-local reuse amortises the
/// allocation; the stamp is monotonic per thread, which keeps entries
/// from unrelated pivots (or unrelated calls) from aliasing.
#[derive(Default)]
struct LaneScratch {
    w: Vec<i64>,
    wstamp: Vec<u64>,
    stamp: u64,
    /// `(hash, Lp position)` of one pivot's live `Lp` members.
    groups: Vec<(u64, u32)>,
}

impl LaneScratch {
    const fn new() -> LaneScratch {
        LaneScratch {
            w: Vec::new(),
            wstamp: Vec::new(),
            stamp: 0,
            groups: Vec::new(),
        }
    }

    /// Size the scratch for an `n`-variable call.
    fn fit(&mut self, n: usize) {
        if self.w.len() < n {
            self.w.resize(n, 0);
            self.wstamp.resize(n, 0);
        }
        self.groups.clear();
        self.groups.reserve(n);
    }
}

thread_local! {
    static AMD_SCRATCH: RefCell<LaneScratch> = const { RefCell::new(LaneScratch::new()) };
}

/// Shared-write access to one state column for the parallel update
/// phases: the borrow is erased into a raw pointer, and each access
/// re-asserts the ownership contract of [`StateWriters`]. AMD's writes
/// are scattered and claimed per vertex, so unlike the contiguous
/// fills elsewhere they cannot go through `Exec::for_each_window`.
struct SliceWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a SliceWriter only hands out disjoint `&mut` windows (the
// caller contract on `slice_mut`), and `T: Send` means those windows
// may be written from any thread.
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}
// SAFETY: same argument; the writer is just a pointer + length.
unsafe impl<T: Send> Send for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    /// Wrap `slice`, borrowing it mutably for the writer's lifetime.
    fn new(slice: &'a mut [T]) -> SliceWriter<'a, T> {
        SliceWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// A mutable window over `range`. Panics, in every profile, if
    /// `range` is not within the column: a wrong `xadj` segment is a
    /// bug to report, never a stray write.
    ///
    /// # Safety
    /// The calling lane must own every element of `range` this phase
    /// (see [`StateWriters`]) and hold no other reference to one.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }

    /// Exclusive access to element `i`.
    ///
    /// # Safety
    /// As [`SliceWriter::slice_mut`] for `i..i + 1`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn own(&self, i: u32) -> &mut T {
        &mut self.slice_mut(i as usize..i as usize + 1)[0]
    }

    /// Element `i`, which another lane may own but no lane writes.
    /// Panics if `i` is out of range, as [`SliceWriter::slice_mut`].
    ///
    /// # Safety
    /// No other lane may write `i` this phase.
    unsafe fn get(&self, i: u32) -> T
    where
        T: Copy,
    {
        assert!((i as usize) < self.len);
        *self.ptr.add(i as usize)
    }
}

/// Disjoint-commit windows over the quotient-graph state for the
/// parallel update phases. Safety contract: a lane may write only
/// state owned by its own pivot (its `Lp` members — their segments of
/// `adj` and the merged chains hanging off them — and elements
/// live-adjacent exclusively to them) and may read anything no lane
/// writes this phase.
struct StateWriters<'a> {
    status: SliceWriter<'a, Status>,
    nv: SliceWriter<'a, i64>,
    degree: SliceWriter<'a, i64>,
    /// The variables' segments: `v` owns `adj[xadj[v]..xadj[v + 1]]`.
    adj: SliceWriter<'a, u32>,
    xadj: &'a [usize],
    /// `(|E_v|, |A_v|)`: the lengths of the lists at the front of `v`'s
    /// segment, elements first.
    lens: SliceWriter<'a, (u32, u32)>,
    /// `(first, last)` of the variables merged into each supervariable.
    chain: SliceWriter<'a, (u32, u32)>,
    chain_next: SliceWriter<'a, u32>,
}

impl StateWriters<'_> {
    /// Variable `v`'s segment of `adj` and its list lengths.
    ///
    /// # Safety
    /// As [`SliceWriter::slice_mut`].
    #[allow(clippy::mut_from_ref)]
    unsafe fn segment(&self, v: u32) -> (&mut [u32], &mut (u32, u32)) {
        let range = self.xadj[v as usize]..self.xadj[v as usize + 1];
        (self.adj.slice_mut(range), self.lens.own(v))
    }
}

/// Read-only, round-constant inputs shared by every lane of the
/// parallel update phases.
struct RoundCtx<'a> {
    n: usize,
    pivots: &'a [u32],
    /// Concatenated `Lp` member lists; pivot `pi` owns
    /// `lp_flat[lp_off[pi]..lp_off[pi + 1]]`.
    lp_flat: &'a [u32],
    lp_off: &'a [usize],
    /// Weighted `|Lp|` per pivot (round-start `nv`).
    lp_w: &'a [i64],
    el_size: &'a [i64],
    /// Round selection claims, packed `(round_stamp << 32) | owner`:
    /// `claim[u] >> 32 == round_stamp` means `u` is a pivot or a
    /// member of some pivot's `Lp`; the low word says whose. One load
    /// answers both questions on the pruning hot path.
    claim: &'a [u64],
    round_stamp: u64,
    /// `n` minus the total eliminated weight *including this round's
    /// whole batch* — the `n − k` term of the degree bound.
    remaining: i64,
    merges: &'a AtomicU64,
}

impl RoundCtx<'_> {
    fn lp(&self, pi: usize) -> &[u32] {
        &self.lp_flat[self.lp_off[pi]..self.lp_off[pi + 1]]
    }

    /// The packed claim value marking ownership by pivot `p` this
    /// round.
    fn claim_key(&self, p: u32) -> u64 {
        (self.round_stamp << 32) | p as u64
    }
}

/// U1 for pivot `pi`: the `w` scan, adjacency pruning, subset-element
/// absorption and approximate-degree recomputation for the pivot's own
/// `Lp` — the per-pivot body of the classic AMD update loop.
///
/// # Safety
///
/// `cx` must describe a distance-2 independent pivot batch (disjoint
/// `Lp`s) and at most one lane may run each `pi`. Writes then target
/// the segments and degrees of `Lp(pi)` members and the status of
/// elements live-adjacent only to them; reads of other state (`status`,
/// `nv`, `el_size`) see round-start values no U1 lane writes.
unsafe fn update_pivot(ws: &StateWriters<'_>, cx: &RoundCtx<'_>, s: &mut LaneScratch, pi: usize) {
    let p = cx.pivots[pi];
    let lp = cx.lp(pi);
    let lp_weight = cx.lp_w[pi];
    let my_claim = cx.claim_key(p);
    if s.w.len() < cx.n {
        s.w.resize(cx.n, 0);
        s.wstamp.resize(cx.n, 0);
    }
    s.stamp += 1;
    let stamp = s.stamp;

    // w trick: |L_e \ Lp| for every live element touching Lp.
    // Lane-local w, so a boundary element adjacent to several
    // pivots' Lps gets an independent count per pivot.
    for &v in lp {
        let (seg, lens) = ws.segment(v);
        for &e in &seg[..lens.0 as usize] {
            if ws.status.get(e) != Status::Element {
                continue;
            }
            let eu = e as usize;
            if s.wstamp[eu] != stamp {
                s.wstamp[eu] = stamp;
                s.w[eu] = cx.el_size[eu];
            }
            s.w[eu] -= ws.nv.get(v);
        }
    }

    for &v in lp {
        let (seg, lens) = ws.segment(v);
        let (el_len, var_end) = (lens.0 as usize, (lens.0 + lens.1) as usize);
        // Prune A_v in place: drop dead variables and members of this
        // pivot's Lp (now covered by element p; p itself is an
        // element already, so the liveness test drops it too).
        // Members of *other* pivots' Lps stay, exactly as in a
        // sequential round walking pivot by pivot.
        let mut a_v = 0i64;
        let mut var_kept = el_len;
        for k in el_len..var_end {
            let u = seg[k];
            if ws.status.get(u) == Status::Live && cx.claim[u as usize] != my_claim {
                seg[var_kept] = u;
                var_kept += 1;
                a_v += ws.nv.get(u);
            }
        }

        // Prune E_v in place, absorbing subset elements, and sum
        // |L_e \ Lp|.
        let mut el_kept = 0;
        let mut deg_els = 0i64;
        for k in 0..el_len {
            let e = seg[k];
            if e == p || ws.status.get(e) != Status::Element {
                continue;
            }
            let eu = e as usize;
            let we = if s.wstamp[eu] == stamp {
                s.w[eu]
            } else {
                cx.el_size[eu]
            };
            if s.wstamp[eu] == stamp && we <= 0 {
                // L_e ⊆ Lp: aggressive absorption. Such an element
                // has live members only inside this pivot's Lp, so
                // no other lane can touch it this round.
                *ws.status.own(e) = Status::Dead;
            } else {
                deg_els += we.max(0);
                seg[el_kept] = e;
                el_kept += 1;
            }
        }

        // Then p goes first: [p, E_v, A_v]. Pruning freed at least the
        // slot p needs (see the module docs) unless the graph's
        // adjacency was not symmetric. A_v moves before E_v shifts
        // right, so no kept variable is overwritten before it moves.
        let var_len = var_kept - el_len;
        assert!(
            1 + el_kept + var_len <= seg.len(),
            "AMD needs a graph with symmetric adjacency"
        );
        seg.copy_within(el_len..var_kept, 1 + el_kept);
        seg.copy_within(0..el_kept, 1);
        seg[0] = p;
        *lens = ((1 + el_kept) as u32, var_len as u32);

        let nv_v = ws.nv.get(v);
        let lp_minus_v = lp_weight - nv_v;
        let degree = ws.degree.own(v);
        *degree = (*degree + lp_minus_v)
            .min(a_v + lp_minus_v + deg_els)
            .min(cx.remaining - nv_v)
            .max(0);
    }
}

/// U2 for pivot `pi`: supervariable detection by hashing within the
/// pivot's own `Lp`, merging indistinguishable members.
///
/// # Safety
///
/// As [`update_pivot`], and U1 must have completed on every pivot
/// (barrier): U2 reads the pruned segments U1 wrote and writes
/// `nv`/`status`/segments/chains of its own `Lp` members only.
unsafe fn merge_pivot(ws: &StateWriters<'_>, cx: &RoundCtx<'_>, s: &mut LaneScratch, pi: usize) {
    let lp = cx.lp(pi);
    let groups = &mut s.groups;
    groups.clear();
    for (pos, &v) in lp.iter().enumerate() {
        if ws.status.get(v) != Status::Live {
            continue;
        }
        let (seg, &mut (el_len, var_len)) = ws.segment(v);
        let (els, vars) = seg[..(el_len + var_len) as usize].split_at_mut(el_len as usize);
        vars.sort_unstable();
        els.sort_unstable();
        let mut h = 0xcbf29ce484222325u64;
        for &u in vars.iter() {
            h = (h ^ u as u64).wrapping_mul(0x100000001b3);
        }
        for &e in els.iter() {
            h = (h ^ (e as u64 | 1 << 32)).wrapping_mul(0x100000001b3);
        }
        groups.push((h, pos as u32));
    }
    // Sorted, each run of equal hashes is one bucket with its members
    // in Lp order. Buckets are disjoint, so the order they are walked
    // in cannot affect the outcome; within a bucket the earliest
    // member in Lp order survives, deterministically.
    groups.sort_unstable();
    for bucket in groups.chunk_by(|a, b| a.0 == b.0) {
        if bucket.len() < 2 {
            continue;
        }
        for bi in 0..bucket.len() {
            let i = lp[bucket[bi].1 as usize];
            if ws.status.get(i) != Status::Live {
                continue;
            }
            let (seg_i, &mut lens_i) = ws.segment(i);
            let lists_i = &seg_i[..(lens_i.0 + lens_i.1) as usize];
            for &(_, pj) in &bucket[bi + 1..] {
                let j = lp[pj as usize];
                if ws.status.get(j) != Status::Live {
                    continue;
                }
                let (seg_j, lens_j) = ws.segment(j);
                if *lens_j != lens_i || seg_j[..lists_i.len()] != *lists_i {
                    continue;
                }
                // Merge j into i: i's chain becomes its own, then j's,
                // then j.
                *ws.nv.own(i) += std::mem::take(ws.nv.own(j));
                *ws.status.own(j) = Status::Dead;
                *lens_j = (0, 0);
                let (j_first, j_last) = ws.chain.get(j);
                let appended = if j_first == NONE {
                    j
                } else {
                    *ws.chain_next.own(j_last) = j;
                    j_first
                };
                let chain_i = ws.chain.own(i);
                if chain_i.0 == NONE {
                    chain_i.0 = appended;
                } else {
                    *ws.chain_next.own(chain_i.1) = appended;
                }
                chain_i.1 = j;
                cx.merges.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }
}

/// Drop the absorbed elements' variable lists from the element arena,
/// sliding the live ones down in creation order — the arena's order,
/// since lists are appended as their elements are created.
///
/// The arena is sized once at `2 · nnz` and compacted only when a
/// round's lists would not fit. Live lists hold at most `nnz` entries
/// after any round (an element lists `v` only while it sits in `v`'s
/// element list, a part of `v`'s segment; `v` keeps its last lists when
/// merged away and is dropped from all of them when eliminated), so
/// the round's lists then fit, and the dead entries compaction drops
/// outnumber the live ones it keeps.
fn compact_elements(
    arena: &mut Vec<u32>,
    lists: &mut [(usize, usize)],
    status: &[Status],
    created: &[u32],
) {
    let mut to = 0;
    for &e in created {
        let e = e as usize;
        if status[e] != Status::Element {
            continue;
        }
        let (start, end) = lists[e];
        arena.copy_within(start..end, to);
        lists[e] = (to, to + end - start);
        to += end - start;
    }
    arena.truncate(to);
}

/// Compute the AMD elimination order of a symmetric graph by
/// round-based multiple elimination on the given execution context, in
/// `ws`'s arrays. Leaves the order in `ws` ([`AmdWork::order`]) and
/// returns the run's counters.
///
/// The ordering is a pure function of `(g, slack)` —
/// byte-identical for every executor, team size and `amd_round_min`.
/// When the context's trace is recording, three aggregate sub-stage
/// spans (`reorder.amd.select` / `.eliminate` / `.update`) report
/// where the call's time went.
pub fn amd_order_on(g: &Graph, slack: u32, rx: &ReorderExec<'_>, ws: &mut AmdWork) -> AmdStats {
    let t_start = rx.trace().is_recording().then(Instant::now);
    let n = g.num_vertices();
    let xadj = g.xadj();
    let AmdWork {
        status,
        nv,
        degree,
        adj,
        lens,
        el_arena,
        el_lists,
        el_size,
        chain,
        chain_next,
        buckets,
        claim,
        seq_scratch,
        elim_order,
        candidates,
        pivots,
        lp_flat,
        lp_off,
        lp_w,
        order,
    } = ws;
    refill(status, n, Status::Live);
    refill(nv, n, 1);
    degree.clear();
    degree.extend((0..n).map(|v| g.degree(v) as i64));
    // Each variable's segment starts as its neighbours: no elements.
    adj.clear();
    adj.extend_from_slice(g.adjncy());
    lens.clear();
    lens.extend((0..n).map(|v| (0, g.degree(v) as u32)));
    emptied(el_arena, 2 * adj.len());
    refill(el_lists, n, (0, 0));
    refill(el_size, n, 0);
    refill(chain, n, (NONE, NONE));
    refill(chain_next, n, NONE);

    // A repeated neighbour can put an initial degree above n − 1; every
    // later one is at most the remaining weight, n.
    let max_degree = (0..n).map(|v| g.degree(v)).max().unwrap_or(0).max(n);
    buckets.reset(n, max_degree);
    for v in 0..n {
        buckets.file(v as u32, g.degree(v));
    }

    // Round-selection claims (see RoundCtx).
    refill(claim, n, 0);
    let mut round_stamp = 0u64;
    // Scratch for inline (non-dispatched) update rounds; parallel
    // rounds use each lane's thread-local scratch instead.
    seq_scratch.fit(n);

    let exec = rx.exec();
    let round_min = rx.amd_round_min();
    let merges = AtomicU64::new(0);
    let mut eliminated_weight = 0i64;
    emptied(elim_order, n);
    let mut stats = AmdStats::default();
    let (mut t_select, mut t_eliminate, mut t_update) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);

    // Per-round buffers, reused across rounds. A round's candidates,
    // pivots and (disjoint) Lps are each at most n variables.
    emptied(candidates, n);
    emptied(pivots, n);
    emptied(lp_flat, n);
    emptied(lp_off, n + 1);
    emptied(lp_w, n);

    loop {
        // --- Select: candidates within `slack` of the minimum degree,
        // thinned to a maximal distance-2 independent set in
        // (degree, id) order — the canonical order the whole algorithm
        // inherits its determinism from. ---
        let t0 = t_start.map(|_| Instant::now());
        round_stamp += 1;
        pivots.clear();
        lp_flat.clear();
        lp_off.clear();
        lp_off.push(0);
        lp_w.clear();

        if !buckets.take_min(slack, candidates) {
            if let Some(t0v) = t0 {
                t_select += t0v.elapsed();
            }
            break;
        }

        for &(_, v) in candidates.iter() {
            let vu = v as usize;
            // Already claimed by an earlier pivot's Lp this round.
            if claim[vu] >> 32 == round_stamp {
                continue;
            }
            // One fused scan over v's reach: claim vertices as they
            // are discovered, and on the first vertex an *earlier*
            // pivot already claimed (low word differs) stop and roll
            // the tentative claims back. Claims left behind and the
            // lp_flat push order are exactly those of a separate
            // check-then-commit pass, at half the scan cost.
            let lp_start = lp_flat.len();
            let my_claim = (round_stamp << 32) | v as u64;
            claim[vu] = my_claim;
            let (el_len, var_len) = (lens[vu].0 as usize, lens[vu].1 as usize);
            let (els, vars) = adj[xadj[vu]..xadj[vu] + el_len + var_len].split_at(el_len);
            let conflict = 'scan: {
                for &u in vars {
                    let uu = u as usize;
                    if status[uu] != Status::Live {
                        continue;
                    }
                    if claim[uu] >> 32 == round_stamp {
                        if claim[uu] != my_claim {
                            break 'scan true;
                        }
                    } else {
                        claim[uu] = my_claim;
                        lp_flat.push(u);
                    }
                }
                for &e in els {
                    if status[e as usize] != Status::Element {
                        continue;
                    }
                    let (start, end) = el_lists[e as usize];
                    for &u in &el_arena[start..end] {
                        let uu = u as usize;
                        if status[uu] != Status::Live {
                            continue;
                        }
                        if claim[uu] >> 32 == round_stamp {
                            if claim[uu] != my_claim {
                                break 'scan true;
                            }
                        } else {
                            claim[uu] = my_claim;
                            lp_flat.push(u);
                        }
                    }
                }
                false
            };
            if conflict {
                // Tentative claims were only placed on previously
                // unclaimed vertices, so zeroing them restores the
                // pre-scan state (stamps are compared by equality).
                claim[vu] = 0;
                for &u in &lp_flat[lp_start..] {
                    claim[u as usize] = 0;
                }
                lp_flat.truncate(lp_start);
                continue;
            }
            pivots.push(v);
            lp_off.push(lp_flat.len());
        }
        if let Some(t0v) = t0 {
            t_select += t0v.elapsed();
        }

        // --- Eliminate the batch in canonical order: absorb each
        // pivot's elements into it and convert it to an element. ---
        let t1 = t_start.map(|_| Instant::now());
        for (pi, &p) in pivots.iter().enumerate() {
            let pu = p as usize;
            for &e in &adj[xadj[pu]..xadj[pu] + lens[pu].0 as usize] {
                let eu = e as usize;
                if status[eu] == Status::Element {
                    status[eu] = Status::Dead;
                }
            }
            lens[pu] = (0, 0);
            status[pu] = Status::Element;
            eliminated_weight += nv[pu];
            lp_w.push(
                lp_flat[lp_off[pi]..lp_off[pi + 1]]
                    .iter()
                    .map(|&v| nv[v as usize])
                    .sum(),
            );
        }
        let remaining = n as i64 - eliminated_weight;
        if let Some(t1v) = t1 {
            t_eliminate += t1v.elapsed();
        }

        // --- Update, parallel over pivots (disjoint Lps). Tiny rounds
        // stay inline: below `amd_round_min` affected variables the
        // dispatch would cost more than the work. ---
        let t2 = t_start.map(|_| Instant::now());
        let parallel = exec.lanes() > 1 && pivots.len() > 1 && lp_flat.len() >= round_min;
        if parallel {
            stats.parallel_rounds += 1;
        }
        {
            let writers = StateWriters {
                status: SliceWriter::new(status),
                nv: SliceWriter::new(nv),
                degree: SliceWriter::new(degree),
                adj: SliceWriter::new(adj),
                xadj,
                lens: SliceWriter::new(lens),
                chain: SliceWriter::new(chain),
                chain_next: SliceWriter::new(chain_next),
            };
            let cx = RoundCtx {
                n,
                pivots,
                lp_flat,
                lp_off,
                lp_w,
                el_size,
                claim,
                round_stamp,
                remaining,
                merges: &merges,
            };
            // A phase runs each pivot on the team — every lane with its
            // own thread-local scratch — or inline with this call's.
            type Phase = unsafe fn(&StateWriters<'_>, &RoundCtx<'_>, &mut LaneScratch, usize);
            // SAFETY: the pivots are distance-2 independent, so their
            // Lps are pairwise disjoint and each phase body writes only
            // state its pivot owns — its members' segments of `adj`,
            // `xadj[v]..xadj[v + 1]`, which never overlap, and their
            // chains (see update_pivot/merge_pivot); parallel_for hands
            // each pivot index to exactly one lane, and the barrier
            // ending each phase orders U1's writes before U2's reads.
            let mut run_phase = |phase: Phase| {
                let run = |s: &mut LaneScratch, pis: Range<usize>| {
                    for pi in pis {
                        unsafe { phase(&writers, &cx, s, pi) };
                    }
                };
                if parallel {
                    exec.parallel_for(pivots.len(), 1, |pis| {
                        AMD_SCRATCH.with(|cell| run(&mut cell.borrow_mut(), pis));
                    });
                } else {
                    run(seq_scratch, 0..pivots.len());
                }
            };
            run_phase(update_pivot);
            run_phase(merge_pivot);
        }

        // Finalise each new element's variable list from the
        // post-merge survivors, then file every live Lp member under
        // its new degree, drop the merged ones, and put back the
        // rejected candidates no Lp claimed (their degrees did not
        // change).
        let live = lp_flat
            .iter()
            .filter(|&&v| status[v as usize] == Status::Live)
            .count();
        if el_arena.len() + live > el_arena.capacity() {
            compact_elements(el_arena, el_lists, status, elim_order);
        }
        for (pi, &p) in pivots.iter().enumerate() {
            let start = el_arena.len();
            let mut size = 0i64;
            for &v in &lp_flat[lp_off[pi]..lp_off[pi + 1]] {
                if status[v as usize] == Status::Live {
                    el_arena.push(v);
                    size += nv[v as usize];
                }
            }
            el_size[p as usize] = size;
            el_lists[p as usize] = (start, el_arena.len());
            elim_order.push(p);
        }
        for &v in lp_flat.iter() {
            if status[v as usize] == Status::Live {
                buckets.file(v, degree[v as usize] as usize);
            } else {
                buckets.remove(v);
            }
        }
        for &(_, v) in candidates.iter() {
            if claim[v as usize] >> 32 != round_stamp {
                buckets.file(v, degree[v as usize] as usize);
            }
        }
        stats.rounds += 1;
        stats.pivots += pivots.len() as u64;
        stats.max_round = stats.max_round.max(pivots.len() as u64);
        if let Some(t2v) = t2 {
            t_update += t2v.elapsed();
        }
    }
    stats.merges = merges.load(AtomicOrdering::Relaxed);

    // Expand supervariables into the final order: each pivot emits its
    // merged members first (they are indistinguishable, so relative
    // order does not matter), then itself.
    emptied(order, n);
    for &p in elim_order.iter() {
        let mut m = chain[p as usize].0;
        while m != NONE {
            order.push(m);
            m = chain_next[m as usize];
        }
        order.push(p);
    }
    debug_assert_eq!(order.len(), n);

    if let Some(t0) = t_start {
        // Three aggregate spans per call (not per round — a bounded
        // flight recorder cannot hold thousands of round spans), laid
        // end to end from the call's start by accumulated phase time.
        let sel_end = t0 + t_select;
        let elim_end = sel_end + t_eliminate;
        let upd_end = elim_end + t_update;
        let tr = rx.trace();
        tr.complete(
            stages::REORDER_AMD_SELECT,
            t0,
            sel_end,
            vec![("rounds", ArgValue::U64(stats.rounds))],
        );
        tr.complete(
            stages::REORDER_AMD_ELIMINATE,
            sel_end,
            elim_end,
            vec![
                ("pivots", ArgValue::U64(stats.pivots)),
                ("max_round", ArgValue::U64(stats.max_round)),
            ],
        );
        tr.complete(
            stages::REORDER_AMD_UPDATE,
            elim_end,
            upd_end,
            vec![
                ("parallel_rounds", ArgValue::U64(stats.parallel_rounds)),
                ("merges", ArgValue::U64(stats.merges)),
            ],
        );
    }
    stats
}

/// Empty `v` and make room for `cap` elements.
fn emptied<T>(v: &mut Vec<T>, cap: usize) {
    v.clear();
    v.reserve(cap);
}

/// Make `v` `n` copies of `x`.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// The 25 arrays of an [`amd_order_on`] call — its quotient graph,
/// degree buckets, round buffers, scratch and the order — refilled by
/// each call, so a caller that orders many graphs (nested dissection's
/// leaves, AMD's components) allocates them once, at the largest. A
/// workspace holds no state a call reads before writing it, so it
/// gives the same bytes whatever it served before.
#[derive(Default)]
pub struct AmdWork {
    status: Vec<Status>,
    nv: Vec<i64>,
    degree: Vec<i64>,
    adj: Vec<u32>,
    lens: Vec<(u32, u32)>,
    el_arena: Vec<u32>,
    el_lists: Vec<(usize, usize)>,
    el_size: Vec<i64>,
    chain: Vec<(u32, u32)>,
    chain_next: Vec<u32>,
    buckets: DegreeBuckets,
    claim: Vec<u64>,
    seq_scratch: LaneScratch,
    elim_order: Vec<u32>,
    candidates: Vec<(u32, u32)>,
    pivots: Vec<u32>,
    lp_flat: Vec<u32>,
    lp_off: Vec<usize>,
    lp_w: Vec<i64>,
    order: Vec<u32>,
}

impl AmdWork {
    /// The order the last [`amd_order_on`] call computed: `order()[k]`
    /// is the vertex eliminated k-th.
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

struct AmdState {
    status: Vec<Status>,
    /// Supervariable weight: number of original columns represented.
    nv: Vec<i64>,
    /// Variable neighbours of each live variable.
    adj_var: Vec<Vec<u32>>,
    /// Element neighbours of each live variable.
    adj_el: Vec<Vec<u32>>,
    /// Variable list of each element.
    el_vars: Vec<Vec<u32>>,
    /// Weighted |L_e| of each element (approximate: not decremented on
    /// merges, as in reference AMD).
    el_size: Vec<i64>,
    /// Approximate external degree of each live variable.
    degree: Vec<i64>,
    /// Children merged into each supervariable (for order expansion).
    merged: Vec<Vec<u32>>,
}

impl AmdState {
    #[inline]
    fn is_live_var(&self, v: u32) -> bool {
        self.status[v as usize] == Status::Live
    }

    #[inline]
    fn is_live_el(&self, e: u32) -> bool {
        self.status[e as usize] == Status::Element
    }
}

/// Classic single-pivot AMD (one supervariable eliminated per heap
/// pop) on a lazy-deletion heap and a `Vec` per list. Returns the order
/// and the stale-pop count.
///
/// The test oracle for round-based elimination: `tests/findings.rs` pins
/// nnz(L) under both schedules (PR 10 in CHANGES.md has the sequential
/// overhead against it); the pipeline always orders via [`amd_order_on`].
pub fn amd_order_single(g: &Graph) -> (Vec<u32>, u64) {
    let n = g.num_vertices();
    let mut st = AmdState {
        status: vec![Status::Live; n],
        nv: vec![1i64; n],
        adj_var: (0..n).map(|v| g.neighbors(v).to_vec()).collect(),
        adj_el: vec![Vec::new(); n],
        el_vars: vec![Vec::new(); n],
        el_size: vec![0i64; n],
        degree: (0..n).map(|v| g.degree(v) as i64).collect(),
        merged: vec![Vec::new(); n],
    };

    let mut token = vec![0u64; n];
    let mut pushed_degree = st.degree.clone();
    let mut heap: BinaryHeap<Reverse<(i64, u32, u64)>> = (0..n)
        .map(|v| Reverse((st.degree[v], v as u32, 0u64)))
        .collect();
    let mut stale_pops = 0u64;

    // Scratch arrays reused across iterations.
    let mut mark = vec![0u64; n];
    let mut w = vec![0i64; n];
    let mut wstamp = vec![0u64; n];
    let mut stamp = 0u64;
    let mut eliminated_weight = 0i64;
    let mut elim_order: Vec<u32> = Vec::with_capacity(n);

    while let Some(Reverse((d, p, t))) = heap.pop() {
        let pu = p as usize;
        if !st.is_live_var(p) || t != token[pu] || d != st.degree[pu] {
            stale_pops += 1;
            continue;
        }

        // --- Form the new element Lp. ---
        stamp += 1;
        mark[pu] = stamp;
        let mut lp: Vec<u32> = Vec::new();
        for &u in &st.adj_var[pu] {
            if st.is_live_var(u) && mark[u as usize] != stamp {
                mark[u as usize] = stamp;
                lp.push(u);
            }
        }
        let adj_els = std::mem::take(&mut st.adj_el[pu]);
        for &e in &adj_els {
            if !st.is_live_el(e) {
                continue;
            }
            for &u in &st.el_vars[e as usize] {
                if st.is_live_var(u) && mark[u as usize] != stamp {
                    mark[u as usize] = stamp;
                    lp.push(u);
                }
            }
            // The element is absorbed into p.
            st.status[e as usize] = Status::Dead;
            st.el_vars[e as usize] = Vec::new();
        }
        let lp_weight: i64 = lp.iter().map(|&v| st.nv[v as usize]).sum();

        // --- w trick: |L_e \ Lp| for every element touching Lp. ---
        for &v in &lp {
            for &e in &st.adj_el[v as usize] {
                if !st.is_live_el(e) {
                    continue;
                }
                let eu = e as usize;
                if wstamp[eu] != stamp {
                    wstamp[eu] = stamp;
                    w[eu] = st.el_size[eu];
                }
                w[eu] -= st.nv[v as usize];
            }
        }

        // --- Update every variable in Lp. ---
        let remaining = (n as i64) - eliminated_weight - st.nv[pu];
        for &v in &lp {
            let vu = v as usize;
            // Prune A_v: drop dead variables, members of Lp (now covered
            // by element p) and p itself.
            let mut pruned = std::mem::take(&mut st.adj_var[vu]);
            pruned.retain(|&u| st.is_live_var(u) && mark[u as usize] != stamp && u != p);
            st.adj_var[vu] = pruned;
            // Prune E_v, absorbing subset elements, and sum |L_e \ Lp|.
            let mut deg_els = 0i64;
            let old_els = std::mem::take(&mut st.adj_el[vu]);
            let mut new_els: Vec<u32> = Vec::with_capacity(old_els.len() + 1);
            new_els.push(p);
            for &e in &old_els {
                if !st.is_live_el(e) || e == p {
                    continue;
                }
                let eu = e as usize;
                let we = if wstamp[eu] == stamp {
                    w[eu]
                } else {
                    st.el_size[eu]
                };
                if wstamp[eu] == stamp && we <= 0 {
                    // L_e ⊆ Lp: aggressive absorption.
                    st.status[eu] = Status::Dead;
                    st.el_vars[eu] = Vec::new();
                } else {
                    new_els.push(e);
                    deg_els += we.max(0);
                }
            }
            st.adj_el[vu] = new_els;

            let a_v: i64 = st.adj_var[vu].iter().map(|&u| st.nv[u as usize]).sum();
            let lp_minus_v = lp_weight - st.nv[vu];
            let d_new = (st.degree[vu] + lp_minus_v)
                .min(a_v + lp_minus_v + deg_els)
                .min(remaining - st.nv[vu])
                .max(0);
            st.degree[vu] = d_new;
        }

        // --- Supervariable detection by hashing. ---
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for &v in &lp {
            if !st.is_live_var(v) {
                continue;
            }
            let vu = v as usize;
            st.adj_var[vu].sort_unstable();
            st.adj_el[vu].sort_unstable();
            let mut h = 0xcbf29ce484222325u64;
            for &u in &st.adj_var[vu] {
                h = (h ^ u as u64).wrapping_mul(0x100000001b3);
            }
            for &e in &st.adj_el[vu] {
                h = (h ^ (e as u64 | 1 << 32)).wrapping_mul(0x100000001b3);
            }
            buckets.entry(h).or_default().push(v);
        }
        for (_, bucket) in buckets {
            if bucket.len() < 2 {
                continue;
            }
            for bi in 0..bucket.len() {
                let i = bucket[bi];
                if !st.is_live_var(i) {
                    continue;
                }
                for bj in (bi + 1)..bucket.len() {
                    let j = bucket[bj];
                    if !st.is_live_var(j) {
                        continue;
                    }
                    let (iu, ju) = (i as usize, j as usize);
                    if st.adj_var[iu] == st.adj_var[ju] && st.adj_el[iu] == st.adj_el[ju] {
                        // Merge j into i.
                        st.nv[iu] += st.nv[ju];
                        st.nv[ju] = 0;
                        st.status[ju] = Status::Dead;
                        st.adj_var[ju] = Vec::new();
                        st.adj_el[ju] = Vec::new();
                        let children = std::mem::take(&mut st.merged[ju]);
                        st.merged[iu].extend(children);
                        st.merged[iu].push(j);
                    }
                }
            }
        }

        // --- Convert p into an element. ---
        eliminated_weight += st.nv[pu];
        st.status[pu] = Status::Element;
        let live_lp: Vec<u32> = lp.iter().copied().filter(|&v| st.is_live_var(v)).collect();
        st.el_size[pu] = live_lp.iter().map(|&v| st.nv[v as usize]).sum();
        st.el_vars[pu] = live_lp;
        st.adj_var[pu] = Vec::new();
        elim_order.push(p);

        // Re-queue only genuinely updated degrees: lazy deletion keeps
        // one fresh (token-matched) entry per variable instead of one
        // entry per update.
        for &v in &lp {
            let vu = v as usize;
            if st.is_live_var(v) && st.degree[vu] != pushed_degree[vu] {
                token[vu] += 1;
                pushed_degree[vu] = st.degree[vu];
                heap.push(Reverse((st.degree[vu], v, token[vu])));
            }
        }
    }

    // Expand supervariables into the final order: each pivot emits its
    // merged members first (they are indistinguishable, so relative
    // order does not matter), then itself.
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for &p in &elim_order {
        for &m in &st.merged[p as usize] {
            order.push(m);
        }
        order.push(p);
    }
    debug_assert_eq!(order.len(), n);
    (order, stale_pops)
}

impl ReorderAlgorithm for Amd {
    fn name(&self) -> &'static str {
        "AMD"
    }

    fn compute_on(
        &self,
        a: &CsrMatrix,
        rx: &ReorderExec<'_>,
    ) -> Result<ReorderResult, SparseError> {
        let co = self
            .compute_components_on(a, rx)?
            .expect("AMD is component-structured");
        Ok(co.into_parts()?.0)
    }

    fn supports_components(&self) -> bool {
        true
    }

    /// Each component is the vertex-induced subgraph on its members
    /// (ascending), ordered in one workspace and mapped back to global
    /// ids. Local indexing follows the ascending members, so the
    /// tie-breaking inside the quotient graph is a pure function of the
    /// component — independent of what the rest of the graph looks
    /// like, of the executor, and of the team size. An isolated
    /// vertex's order is itself, with no quotient graph built.
    fn order_components_on(
        &self,
        g: &Graph,
        seeds: &mut dyn Iterator<Item = usize>,
        order: &mut Vec<u32>,
        ranges: &mut Vec<ComponentRange>,
        rx: &ReorderExec<'_>,
    ) {
        let (mut sub, mut amd) = (SubgraphWork::default(), AmdWork::default());
        let mut comp: Vec<u32> = Vec::with_capacity(g.num_vertices());
        sweep_components(g, seeds, order, ranges, |seed, levels, order| {
            levels.run_on(g, seed, rx.exec(), rx.frontier_min(), |_| {});
            if let [v] = *levels.reached() {
                order.push(v);
                return;
            }
            comp.clear();
            comp.extend_from_slice(levels.reached());
            comp.sort_unstable();
            amd_order_on(g.subgraph(&comp, &mut sub), self.round_slack, rx, &mut amd);
            order.extend(amd.order().iter().map(|&l| comp[l as usize]));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, Permutation};
    use std::collections::BTreeSet;
    use team::ThreadTeam;

    #[test]
    #[should_panic(expected = "self.len")]
    fn slice_writer_get_out_of_range_panics() {
        let mut column = [0u32; 4];
        let writer = SliceWriter::new(&mut column);
        // SAFETY: no other reference to the column exists.
        unsafe { writer.get(4) };
    }

    #[test]
    #[should_panic(expected = "self.len")]
    fn slice_writer_slice_mut_out_of_range_panics() {
        let mut column = [0u32; 4];
        let writer = SliceWriter::new(&mut column);
        // SAFETY: no other reference to the column exists.
        unsafe { writer.slice_mut(2..5) };
    }

    fn grid_matrix(n: usize) -> CsrMatrix {
        // 5-point Laplacian on an n x n grid.
        let idx = |r: usize, c: usize| r * n + c;
        let mut coo = CooMatrix::new(n * n, n * n);
        for r in 0..n {
            for c in 0..n {
                let i = idx(r, c);
                coo.push(i, i, 4.0);
                if r + 1 < n {
                    coo.push_symmetric(i, idx(r + 1, c), -1.0);
                }
                if c + 1 < n {
                    coo.push_symmetric(i, idx(r, c + 1), -1.0);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Exact fill-in of Cholesky under a given order, by naive symbolic
    /// elimination (test oracle; O(n * fill)).
    fn symbolic_fill(a: &CsrMatrix, perm: &Permutation) -> usize {
        let b = a.permute_symmetric(perm).unwrap();
        let n = b.nrows();
        let mut rows: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
        for (i, j, _) in b.iter() {
            if j > i {
                rows[i].insert(j);
            }
        }
        let mut fill = 0usize;
        for k in 0..n {
            let nbrs: Vec<usize> = rows[k].iter().copied().collect();
            for (x, &i) in nbrs.iter().enumerate() {
                for &j in &nbrs[x + 1..] {
                    if rows[i].insert(j) {
                        fill += 1;
                    }
                }
            }
        }
        fill
    }

    #[test]
    fn amd_is_a_valid_permutation() {
        let a = grid_matrix(8);
        let r = Amd::default().compute(&a).unwrap();
        assert_eq!(r.perm.len(), 64);
        assert!(r.symmetric);
        r.apply(&a).unwrap().validate().unwrap();
    }

    #[test]
    fn amd_reduces_fill_versus_natural_order_on_grid() {
        let a = grid_matrix(10);
        let natural = Permutation::identity(100);
        let amd = Amd::default().compute(&a).unwrap().perm;
        let fill_nat = symbolic_fill(&a, &natural);
        let fill_amd = symbolic_fill(&a, &amd);
        assert!(
            fill_amd < fill_nat,
            "AMD fill {fill_amd} should beat natural {fill_nat}"
        );
    }

    #[test]
    fn amd_orders_tree_with_zero_fill() {
        // A path graph (tree) admits a perfect (zero-fill) elimination
        // order; minimum degree finds one — and multiple elimination
        // peels both leaves per round without changing that.
        let n = 60;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
        }
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let perm = Amd::default().compute(&a).unwrap().perm;
        assert_eq!(
            symbolic_fill(&a, &perm),
            0,
            "trees must factor without fill"
        );
    }

    #[test]
    fn amd_handles_dense_row() {
        // Arrow matrix: hub must be eliminated last.
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for i in 1..n {
            coo.push_symmetric(0, i, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let perm = Amd::default().compute(&a).unwrap().perm;
        // The hub stays at maximum degree until only one leaf remains
        // (where it ties at degree 1), so it must land in the last two
        // positions; either way the elimination is fill-free.
        assert!(
            perm.old_to_new(0) >= n - 2,
            "the dense hub should be ordered (nearly) last, got position {}",
            perm.old_to_new(0)
        );
        assert_eq!(symbolic_fill(&a, &perm), 0);
    }

    #[test]
    fn amd_merges_indistinguishable_vertices() {
        // A clique: all vertices are indistinguishable; the order is
        // still a valid permutation and fill is zero.
        let n = 10;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.push(i, j, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let perm = Amd::default().compute(&a).unwrap().perm;
        assert_eq!(perm.len(), n);
        assert_eq!(symbolic_fill(&a, &perm), 0, "a clique has no fill");
    }

    #[test]
    fn amd_on_disconnected_graph() {
        let mut coo = CooMatrix::new(7, 7);
        for i in 0..7 {
            coo.push(i, i, 1.0);
        }
        coo.push_symmetric(0, 1, 1.0);
        coo.push_symmetric(2, 3, 1.0);
        // 4, 5, 6 isolated.
        let a = CsrMatrix::from_coo(&coo);
        let perm = Amd::default().compute(&a).unwrap().perm;
        assert_eq!(perm.len(), 7);
    }

    #[test]
    fn amd_round_structure_on_dense_row_with_merges() {
        // Double-arrow graph: two hubs sharing every leaf, so all
        // leaves are indistinguishable from round 1. Distance-2
        // independence forces rounds of size 1 among the leaves (they
        // all share the hubs), the leaf supervariable collapses via
        // merging, and the hubs go last. Exercises selection conflicts,
        // merging inside a round, and element absorption together.
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for i in 2..n {
            coo.push_symmetric(0, i, 1.0);
            coo.push_symmetric(1, i, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let g = Graph::from_matrix(&a).unwrap();
        let (order, stats) = amd_order(&g, 0, &ReorderExec::sequential());
        // Valid permutation covering every vertex.
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(!seen[v as usize], "vertex {v} emitted twice");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some vertex missing");
        // The hub supervariable goes (nearly) last: its degree stays
        // maximal until the weighted n−k bound (remaining weight minus
        // its own nv of 2) ties it with the last two leaves — so both
        // hubs land within the final four positions.
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) >= n - 4, "hub 0 at position {}", pos(0));
        assert!(pos(1) >= n - 4, "hub 1 at position {}", pos(1));
        assert!(stats.merges > 0, "identical leaves must merge: {stats:?}");
        assert!(stats.rounds >= 2, "hubs need a later round: {stats:?}");
        assert_eq!(stats.max_round, 1, "shared hubs forbid parallel pivots");
        // The leaves collapse into one supervariable, so far fewer
        // elimination steps than vertices.
        assert!(stats.pivots < n as u64, "merging must shrink pivot count");
    }

    #[test]
    fn amd_round_based_matches_across_team_sizes_and_slack() {
        let a = grid_matrix(12);
        let g = Graph::from_matrix(&a).unwrap();
        for slack in [0u32, 2] {
            let (seq, _) = amd_order(&g, slack, &ReorderExec::sequential());
            for size in [2usize, 4, 8] {
                let team = ThreadTeam::new_in(&telemetry::Registry::new_arc(), size);
                // amd_round_min 0: force the parallel path even on
                // tiny rounds so the test exercises it.
                let rx = ReorderExec::on_team(&team).with_amd_round_min(0);
                let (par, stats) = amd_order(&g, slack, &rx);
                assert_eq!(seq, par, "team size {size}, slack {slack}");
                assert!(
                    stats.parallel_rounds > 0,
                    "grid rounds must hit the parallel path (size {size})"
                );
            }
        }
    }

    /// [`amd_order_on`] in a workspace of its own.
    fn amd_order(g: &Graph, slack: u32, rx: &ReorderExec<'_>) -> (Vec<u32>, AmdStats) {
        let mut ws = AmdWork::default();
        let stats = amd_order_on(g, slack, rx, &mut ws);
        (ws.order, stats)
    }

    #[test]
    fn one_workspace_orders_each_graph_as_a_fresh_one_does() {
        let graphs: Vec<Graph> = [12, 4, 9, 16, 1]
            .iter()
            .map(|&side| Graph::from_matrix(&grid_matrix(side)).unwrap())
            .collect();
        let rx = ReorderExec::sequential();
        let mut ws = AmdWork::default();
        for slack in [0u32, 2] {
            for g in &graphs {
                let stats = amd_order_on(g, slack, &rx, &mut ws);
                let fresh = amd_order(g, slack, &rx);
                assert_eq!((ws.order(), stats), (&fresh.0[..], fresh.1));
            }
        }
    }

    #[test]
    fn amd_single_elimination_reference_still_valid() {
        let a = grid_matrix(10);
        let g = Graph::from_matrix(&a).unwrap();
        let (order, stale) = amd_order_single(&g);
        let perm = Permutation::from_new_to_old(order).unwrap();
        assert_eq!(perm.len(), 100);
        let fill_nat = symbolic_fill(&a, &Permutation::identity(100));
        let fill_amd = symbolic_fill(&a, &perm);
        assert!(fill_amd < fill_nat);
        // Lazy deletion on a grid discards stale entries instead of
        // re-eliminating; the counter must see them.
        assert!(stale > 0, "grid updates must produce stale heap entries");
    }

    #[test]
    fn amd_stats_are_deterministic() {
        let a = grid_matrix(9);
        let g = Graph::from_matrix(&a).unwrap();
        let (o1, s1) = amd_order(&g, 0, &ReorderExec::sequential());
        let (o2, s2) = amd_order(&g, 0, &ReorderExec::sequential());
        assert_eq!(o1, o2);
        assert_eq!(s1, s2, "sequential stats must be reproducible");
        assert!(s1.rounds > 0 && s1.pivots > 0 && s1.merges > 0);
        // Of the counters, only the dispatched rounds follow the executor.
        let team = ThreadTeam::new_in(&telemetry::Registry::new_arc(), 2);
        let rx = ReorderExec::on_team(&team).with_amd_round_min(0);
        let (o3, s3) = amd_order(&g, 0, &rx);
        assert_eq!(o1, o3);
        assert!(s3.parallel_rounds > 0);
        assert_eq!(
            AmdStats {
                parallel_rounds: 0,
                ..s3
            },
            s1
        );
    }

    /// The buckets' contract is the set the lazy heap's fresh entries
    /// formed, so they are checked against a `BTreeSet<(degree, id)>` of
    /// what is filed, through random file / move / remove / take steps.
    #[test]
    fn degree_buckets_take_what_an_ordered_set_holds() {
        let (n, max_degree) = (40usize, 50usize);
        let mut buckets = DegreeBuckets::default();
        buckets.reset(n, max_degree);
        let mut reference: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut filed: Vec<Option<u32>> = vec![None; n];
        let mut state = 7u64;
        let mut draw = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut out = Vec::new();
        for step in 0..20_000 {
            let v = draw(n) as u32;
            match draw(8) {
                0..=3 => {
                    // One in ten lands in the bucket array's last slot.
                    let d = if draw(10) == 0 {
                        max_degree
                    } else {
                        draw(max_degree + 1)
                    };
                    buckets.file(v, d);
                    if let Some(old) = filed[v as usize].replace(d as u32) {
                        reference.remove(&(old, v));
                    }
                    reference.insert((d as u32, v));
                }
                4 => {
                    buckets.remove(v);
                    if let Some(old) = filed[v as usize].take() {
                        reference.remove(&(old, v));
                    }
                }
                _ => {
                    let slack = draw(4) as u32;
                    let want: Vec<(u32, u32)> = match reference.first() {
                        None => Vec::new(),
                        Some(&(d_min, _)) => {
                            reference.range(..(d_min + slack + 1, 0)).copied().collect()
                        }
                    };
                    let taken = buckets.take_min(slack, &mut out);
                    assert_eq!(taken, !want.is_empty(), "step {step}");
                    assert_eq!(out, want, "step {step}, slack {slack}");
                    for &(d, v) in &want {
                        reference.remove(&(d, v));
                        filed[v as usize] = None;
                    }
                }
            }
            assert_eq!(buckets.len, reference.len(), "step {step}");
        }
    }
}
