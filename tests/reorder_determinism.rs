//! Determinism property tests for the parallel reordering pipeline.
//!
//! The contract of every `*_on` entry point is that the executor
//! changes *where* the work runs, never *what* it produces: orderings,
//! symmetrised patterns and permuted matrices must be **byte-identical**
//! between the sequential path and a [`ThreadTeam`] of any size. These
//! tests pin that contract across the corpus families of the study
//! (band, FEM mesh, R-MAT, road) plus the structural edge cases
//! (disconnected blocks, empty rows) at team sizes 1, 2, 4 and 8.

use reorder::{splice_ordering_on, Amd, Nd, Rcm, ReorderAlgorithm, ReorderExec};
use sparsegraph::{connected_components, Graph};
use sparsemat::{
    symmetrize_pattern, symmetrize_pattern_on, CooMatrix, CsrMatrix, EdgeOp, Permutation,
};
use team::{Exec, ThreadTeam};

const TEAM_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The corpus families the paper sweeps, scaled down to test size, plus
/// the edge cases parallel code paths tend to get wrong.
fn family_matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("band", corpus::scramble(&corpus::banded(600, 4), 17)),
        ("fem2d", corpus::scramble(&corpus::mesh2d(28, 28), 5)),
        ("fem3d", corpus::mesh3d(9, 9, 9)),
        ("rmat", corpus::rmat(11, 6, 7)),
        ("road", corpus::road(30, 30, 3)),
        ("disconnected", corpus::block_diag(6, 40, 9)),
        ("empty_rows", with_empty_rows()),
        (
            "empty_rows_ragged",
            isolate_every_fifth(&corpus::mesh2d(33, 33)),
        ),
    ]
}

/// A matrix whose rows 3 and 7 have no entries at all (isolated
/// vertices in the ordering graph).
fn with_empty_rows() -> CsrMatrix {
    let n = 12;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        if i == 3 || i == 7 {
            continue;
        }
        coo.push(i, i, 2.0);
        let j = (i + 2) % n;
        if j != 3 && j != 7 && j != i {
            coo.push_symmetric(i, j, -1.0);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// `a` without the entries in rows and columns `3 mod 5`: 1 089 rows,
/// so three ragged chunks of the crate's parallel row loops, with
/// empty rows in every one.
fn isolate_every_fifth(a: &CsrMatrix) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, j, v) in a.iter().filter(|&(i, j, _)| i % 5 != 3 && j % 5 != 3) {
        coo.push(i, j, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// An unsymmetric-pattern variant: keep the upper triangle plus the
/// diagonal, so symmetrisation has real work to do.
fn upper_triangle(a: &CsrMatrix) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, j, v) in a.iter() {
        if j >= i {
            coo.push(i, j, v);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Run `check` once per team size with a live team.
fn for_each_team(check: impl Fn(&ThreadTeam)) {
    for lanes in TEAM_SIZES {
        let team = ThreadTeam::new(lanes);
        check(&team);
    }
}

/// `frontier_min: 0` sends every BFS level through the two-phase
/// parallel expansion (claim by `fetch_min`, then commit). At the
/// default cutover of 4096 no frontier of these test-sized matrices
/// would take it, and the RCM test would compare the sequential path
/// with itself.
#[test]
fn rcm_is_byte_identical_across_team_sizes() {
    for (name, a) in family_matrices() {
        let seq = Rcm.compute(&a).expect(name).perm;
        for_each_team(|team| {
            let rx = ReorderExec::on_team(team).with_frontier_min(0);
            let par = Rcm.compute_on(&a, &rx).expect(name).perm;
            assert_eq!(seq, par, "RCM diverged on {name} at {} lanes", team.size());
        });
    }
}

/// AMD's round-based multiple elimination updates the quotient graph
/// in parallel over the round's pivots; the batch selection and the
/// per-pivot update are pure functions of the component, so the
/// ordering must not depend on the executor. `amd_round_min: 0`
/// forces even tiny rounds through the parallel path — with the
/// default cutover most of these test-sized rounds would quietly fall
/// back to the inline path and the test would prove nothing.
#[test]
fn amd_is_byte_identical_across_team_sizes() {
    for (name, a) in family_matrices() {
        for algo in [Amd::default(), Amd { round_slack: 2 }] {
            let seq = algo.compute(&a).expect(name).perm;
            for_each_team(|team| {
                let rx = ReorderExec::on_team(team).with_amd_round_min(0);
                let par = algo.compute_on(&a, &rx).expect(name).perm;
                assert_eq!(
                    seq,
                    par,
                    "AMD(slack={}) diverged on {name} at {} lanes",
                    algo.round_slack,
                    team.size()
                );
            });
        }
    }
}

/// ND consumes AMD for every leaf (and for degenerate separators), so
/// its orderings inherit AMD's executor-independence.
#[test]
fn nd_is_byte_identical_across_team_sizes() {
    for (name, a) in family_matrices() {
        let algo = Nd;
        let seq = algo.compute(&a).expect(name).perm;
        for_each_team(|team| {
            let rx = ReorderExec::on_team(team).with_amd_round_min(0);
            let par = algo.compute_on(&a, &rx).expect(name).perm;
            assert_eq!(seq, par, "ND diverged on {name} at {} lanes", team.size());
        });
    }
}

#[test]
fn symmetrize_is_byte_identical_across_team_sizes() {
    for (name, a) in family_matrices() {
        let u = upper_triangle(&a);
        let seq = symmetrize_pattern(&u).expect(name);
        for_each_team(|team| {
            let par = symmetrize_pattern_on(&u, Exec::Team(team)).expect(name);
            assert_eq!(
                (seq.rowptr(), seq.colidx()),
                (par.rowptr(), par.colidx()),
                "symmetrize diverged on {name} at {} lanes",
                team.size()
            );
        });
    }
}

#[test]
fn permutation_application_is_byte_identical_across_team_sizes() {
    for (name, a) in family_matrices() {
        // A fixed non-trivial permutation: reverse order.
        let n = a.nrows();
        let perm = Permutation::from_new_to_old((0..n as u32).rev().collect()).expect(name);
        let seq_sym = a.permute_symmetric(&perm).expect(name);
        let seq_rows = a.permute_rows(&perm);
        let seq_cols = a.permute_cols(&perm);
        for_each_team(|team| {
            let exec = Exec::Team(team);
            assert_eq!(
                seq_sym,
                a.permute_symmetric_on(&perm, exec).expect(name),
                "permute_symmetric diverged on {name} at {} lanes",
                team.size()
            );
            assert_eq!(
                seq_rows,
                a.permute_rows_on(&perm, exec),
                "permute_rows diverged on {name} at {} lanes",
                team.size()
            );
            assert_eq!(
                seq_cols,
                a.permute_cols_on(&perm, exec),
                "permute_cols diverged on {name} at {} lanes",
                team.size()
            );
        });
    }
}

/// One symmetric off-diagonal removal inside every tenth connected
/// component: with a hundred components the delta dirties exactly ten.
fn one_removal_in_every_tenth_component(a: &CsrMatrix) -> Vec<EdgeOp> {
    let g = Graph::from_matrix(a).expect("square");
    let mut ops = Vec::new();
    for members in connected_components(&g).members.iter().step_by(10) {
        let v = members[0];
        let (cols, _) = a.row(v as usize);
        let c = *cols
            .iter()
            .find(|&&c| c != v)
            .expect("mesh vertex has a neighbour");
        let (row, col) = (v as usize, c as usize);
        ops.push(EdgeOp::Remove { row, col });
        ops.push(EdgeOp::Remove { row: col, col: row });
    }
    ops
}

/// Splice `algo`'s cached ordering of `a` across the delta `batch` at
/// every team size and compare with a full recompute on the mutated
/// matrix. `expect` pins the splice report's `(recomputed, components)`
/// where the case knows them.
fn check_splice(
    name: &str,
    a: &CsrMatrix,
    algo_name: &str,
    algo: &dyn ReorderAlgorithm,
    batch: &[EdgeOp],
    expect: Option<(usize, usize)>,
) {
    let seq = ReorderExec::sequential();
    let cached = algo
        .compute_components_on(a, &seq)
        .expect(name)
        .expect("component-capable algorithm");
    let mut child = a.clone();
    let report = child.apply_delta(batch).expect(name);
    let full = algo
        .compute_components_on(&child, &seq)
        .expect(name)
        .expect("component-capable algorithm");
    for_each_team(|team| {
        let rx = ReorderExec::on_team(team);
        let (spliced, splice_report) = splice_ordering_on(
            algo,
            &child,
            &cached.order,
            &cached.ranges,
            &report.touched_rows,
            &rx,
        )
        .expect(name)
        .expect("splice accepted");
        assert_eq!(
            full.order,
            spliced.order,
            "{algo_name} splice diverged from full recompute on {name} at {} lanes",
            team.size()
        );
        assert_eq!(
            full.ranges,
            spliced.ranges,
            "{algo_name} splice ranges diverged on {name} at {} lanes",
            team.size()
        );
        if let Some(expect) = expect {
            assert_eq!(
                (splice_report.recomputed, splice_report.components),
                expect,
                "{algo_name} splice re-ordered the wrong components on {name}"
            );
        }
    });
}

/// The dynamic-matrix contract: splicing a cached component-structured
/// ordering after an edge delta must reproduce, byte for byte, what a
/// full recompute on the mutated matrix produces — for every
/// component-capable algorithm, every corpus family, and every team
/// size. This is what lets the engine serve delta-descendants from
/// spliced orderings without ever changing an answer.
#[test]
fn splice_after_delta_is_byte_identical_to_full_recompute() {
    let algos: Vec<(&'static str, Box<dyn ReorderAlgorithm>)> =
        vec![("rcm", Box::new(Rcm)), ("amd", Box::new(Amd::default()))];
    for (name, a) in family_matrices() {
        // A deterministic symmetric edit batch against this family.
        let batch = corpus::mutation_trace(&a, 1, 6, 0xD1F7 ^ a.nrows() as u64)
            .pop()
            .unwrap();
        for (algo_name, algo) in &algos {
            check_splice(name, &a, algo_name, algo.as_ref(), &batch, None);
        }
    }
    // The families above top out at six components. A hundred with a
    // tenth of them dirty is the shape the engine's delta path sees:
    // ninety cached sub-permutations copied around ten recomputes.
    let meshes = corpus::disjoint_meshes(100, 14, 12, 8);
    let batch = one_removal_in_every_tenth_component(&meshes);
    let (rcm, amd) = (Rcm, Amd::default());
    for (algo_name, algo) in [("rcm", &rcm as &dyn ReorderAlgorithm), ("amd", &amd)] {
        let expect = Some((10, 100));
        check_splice("disjoint_meshes", &meshes, algo_name, algo, &batch, expect);
    }
}

/// The full serving-side composition: compute on a team, apply on the
/// same team, compare against the all-sequential result.
#[test]
fn reordered_matrices_are_byte_identical_end_to_end() {
    for (name, a) in family_matrices() {
        let seq = Rcm.compute(&a).expect(name);
        let seq_b = seq.apply(&a).expect(name);
        for_each_team(|team| {
            let par = Rcm.compute_on(&a, &ReorderExec::on_team(team)).expect(name);
            let par_b = par.apply_on(&a, Exec::Team(team)).expect(name);
            assert_eq!(
                seq_b,
                par_b,
                "end-to-end RCM matrix diverged on {name} at {} lanes",
                team.size()
            );
        });
    }
}
