//! A cold ordering allocates a pinned number of blocks — asserted with
//! the shared counting global allocator (`alloccount`; ROADMAP item 2's "allocations inside the orderings
//! themselves"). RCM's count is constant in the depth of its level
//! structures and AMD's in the shape of its quotient graph; the
//! partitioners' are pinned on the scrambled mesh, so a per-vertex or
//! per-level `Vec` creeping back fails here. RCM, AMD and the delta
//! splice also allocate almost the same on ten components as on a
//! hundred, so a per-component `Vec` fails here too.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use alloccount::counted;
use reorder::{splice_ordering_on, Amd, Gp, Hp, Nd, Rcm, ReorderAlgorithm, ReorderExec};
use sparsemat::{CooMatrix, CsrMatrix, Permutation};
#[global_allocator]
static GLOBAL: alloccount::Counting = alloccount::Counting;

/// The path 0-1-...-(n-1) with a diagonal: n levels from either end.
fn path(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i + 1 < n {
            coo.push_symmetric(i, i + 1, -1.0);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// The 5-point 32 x 32 mesh under a pseudo-random symmetric
/// permutation: 1 024 vertices again, but levels tens of vertices wide.
fn scrambled_mesh() -> CsrMatrix {
    let side = 32;
    let mut coo = CooMatrix::new(side * side, side * side);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            coo.push(i, i, 4.0);
            if r + 1 < side {
                coo.push_symmetric(i, i + side, -1.0);
            }
            if c + 1 < side {
                coo.push_symmetric(i, i + 1, -1.0);
            }
        }
    }
    let mut order: Vec<u32> = (0..(side * side) as u32).collect();
    let mut state = 14u64;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let shuffle = Permutation::from_new_to_old(order).unwrap();
    CsrMatrix::from_coo(&coo)
        .permute_symmetric(&shuffle)
        .unwrap()
}

#[test]
fn cold_orderings_allocate_a_pinned_number_of_blocks() {
    // 1 024 vertices each: 1 024 levels against a few dozen.
    let deep = path(1024);
    let shallow = scrambled_mesh();
    let rcm = Rcm;
    let on_deep = counted(|| drop(rcm.compute(&deep).unwrap())).0;
    let on_shallow = counted(|| drop(rcm.compute(&shallow).unwrap())).0;
    assert_eq!(
        on_deep, on_shallow,
        "RCM allocations depend on the depth of the level structure"
    );
    // The symmetry test's cursors (1), the graph's four arrays, the
    // level structure's three, the order and its ranges (2) and the
    // permutation's inverse (1). It was 15 while each component's piece
    // was a `Vec` of its own, assembled through a list of pieces, keys
    // and a layout.
    assert_eq!(on_deep, 11, "a cold RCM's allocation count changed");

    // Each ordering runs once first, so the global registry's first-use
    // entries are not counted, then once under the counter.
    let amd = Amd::default();
    drop(amd.compute(&shallow).unwrap());
    let amd_deep = counted(|| drop(amd.compute(&deep).unwrap())).0;
    let amd_shallow = counted(|| drop(amd.compute(&shallow).unwrap())).0;
    assert_eq!(
        amd_deep, amd_shallow,
        "AMD allocations depend on the graph, not only on its size"
    );
    // `amd_order_on`'s 25 arrays, each sized once from n and nnz (its
    // quotient graph, degree buckets, round buffers and scratch); the
    // graph (5), the level structure that finds the components (3),
    // the member list (1), the order and its ranges (2) and the
    // permutation's inverse (1). With a `Vec` per variable list and a
    // lazy-deletion heap this was 2 771 on the mesh, and 48 while the
    // components came from a BFS of their own and each piece was a
    // `Vec`, assembled through a list of pieces, keys and a layout.
    assert_eq!(amd_deep, 37, "a cold AMD's allocation count changed");

    // Ten components against a hundred: only the range list may grow,
    // by doubling. A splice after a batch that dirties one component
    // labels every vertex with its cached range, so it too is sized by
    // n, not by the component count. The counts are pinned as
    // `[compute_10, compute_100, splice_10, splice_100]`. AMD sizes its
    // workspaces for the whole graph at the first component it orders;
    // while they grew with each larger component its counts were
    // 97 / 100 / 72 / 72.
    let rx = ReorderExec::sequential();
    let algos: [(&str, Box<dyn ReorderAlgorithm>, [usize; 4]); 2] = [
        ("RCM", Box::new(Rcm), [14, 17, 13, 13]),
        ("AMD", Box::new(Amd::default()), [44, 47, 44, 44]),
    ];
    for (name, algo, pinned) in &algos {
        let [(compute_10, splice_10), (compute_100, splice_100)] = [10, 100].map(|regions| {
            let parent = corpus::disjoint_meshes(regions, 14, 12, 14);
            let cached = algo.compute_components_on(&parent, &rx).unwrap().unwrap();
            let batch = corpus::mutation_trace(&parent, 1, 2, 14).pop().unwrap();
            let mut child = parent.clone();
            let touched = child.apply_delta(&batch).unwrap().touched_rows;
            let (compute, _) = counted(|| drop(algo.compute(&parent).unwrap()));
            let (splice, _) = counted(|| {
                let (_, report) = splice_ordering_on(
                    algo.as_ref(),
                    &child,
                    &cached.order,
                    &cached.ranges,
                    &touched,
                    &rx,
                )
                .unwrap()
                .expect("splice accepted");
                assert_eq!(report.recomputed, 1, "{name}: one dirty component");
            });
            (compute, splice)
        });
        assert!(
            compute_100 <= compute_10 + 4,
            "a cold {name}'s allocations grow with the component count: {compute_10} -> {compute_100}"
        );
        assert!(
            splice_100 <= splice_10 + 4,
            "an {name} splice's allocations grow with the component count: {splice_10} -> {splice_100}"
        );
        assert_eq!(
            [compute_10, compute_100, splice_10, splice_100],
            *pinned,
            "{name}'s allocation counts on ten and a hundred components changed"
        );
    }

    // Before the coarsening levels stopped cloning their graphs and
    // building a `Vec` per coarse vertex, and FM stopped reallocating
    // per pass, GP(2) and HP(2) were 1 389 and 427. ND was 14 352 while
    // its subgraphs and its leaf AMDs' supervariable detection built a
    // `HashMap` each, and 4 643 while its leaf AMDs kept a `Vec` per
    // quotient-graph list. HP(2) was 235 while contraction grew its net
    // arrays by doubling, matching and the initial bisection allocated
    // their scratch per level and per trial, and each level's projection
    // was a new `Vec`, and 91 and GP(2) 105 while grouping parts used
    // a counting array of `num_parts + 1` words. GP(2) was 104 and
    // HP(2) 90 while each recursion node collected its sides into two
    // new lists (GP's sized at half and grown once when a side passed
    // it, HP's grown by doubling from empty); the one k-way driver
    // splits each node's list in place through one scratch list. GP(2)
    // was 102 and ND 2 254 while every bisection built its coarsening
    // levels, matching and contraction scratch, FM arrays, GGGP's five
    // arrays per trial and its projections from nothing, and every ND
    // node its subgraph, its separator's cut-edge, cover and side
    // lists, and each leaf AMD's 25 arrays: one workspace per call
    // holds them all, refilled node by node, so what is left is sized
    // by the first (largest) node and the arrays that grow past it.
    let pinned: [(&str, Box<dyn ReorderAlgorithm>, usize); 3] = [
        ("GP(2)", Box::new(Gp::new(2)), 51),
        ("HP(2)", Box::new(Hp::new(2)), 74),
        ("ND", Box::new(Nd), 188),
    ];
    let mut wrong = Vec::new();
    for (name, algo, expected) in &pinned {
        drop(algo.compute(&shallow).unwrap());
        let (got, _) = counted(|| drop(algo.compute(&shallow).unwrap()));
        if got != *expected {
            wrong.push(format!("{name}: {got} allocations, pinned {expected}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "a cold ordering's allocation count changed:\n{}",
        wrong.join("\n")
    );
}
