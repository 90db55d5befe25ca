//! Qualitative findings of the paper, asserted end-to-end at test
//! scale. These are the "shape" checks: who wins, in which direction,
//! under which kernel — not absolute numbers.

use reorder_study::prelude::*;

/// Finding 6 (§4.7 / Table 5): Gray is the fastest reordering and RCM
/// is (nearly always) second; ND and HP are the slowest.
#[test]
fn reordering_cost_ranking() {
    // Large enough that asymptotic costs dominate constant overheads
    // (Table 5 ranks the algorithms on the largest matrices).
    let a = corpus::scramble(&corpus::mesh2d(130, 130), 2);
    let registry = reorder_study::telemetry::Registry::new();
    let rx = reorder_study::reorder::ReorderExec::sequential();
    let mut times = std::collections::HashMap::new();
    for alg in all_algorithms(8, 16) {
        // Median of 3 runs to de-noise the CI machine.
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                reorder_study::reorder::timed_components_on(&registry, alg.as_ref(), &a, &rx)
                    .expect("square")
                    .elapsed
                    .as_secs_f64()
            })
            .collect();
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        times.insert(alg.name().to_string(), samples[1]);
    }
    let gray = times["Gray"];
    for (name, &t) in &times {
        if name != "Gray" {
            assert!(
                gray <= t * 1.5,
                "Gray ({gray:.4}s) should be fastest; {name} took {t:.4}s"
            );
        }
    }
    assert!(
        times["RCM"] < times["ND"],
        "RCM should beat ND in reordering time"
    );
    assert!(
        times["RCM"] < times["HP"],
        "RCM should beat HP in reordering time"
    );
}

/// §4.6 / Fig. 6: the fill-reducing orderings (AMD, ND) produce the
/// least Cholesky fill; every symmetric reordering typically beats a
/// scrambled original.
#[test]
fn fill_reduction_ranking() {
    let a = corpus::make_spd(&corpus::scramble(&corpus::mesh2d(30, 30), 8));
    let fill_orig = fill_ratio(&a);
    let mut fills = std::collections::HashMap::new();
    for alg in all_algorithms(4, 8) {
        if alg.name() == "Gray" {
            continue; // unsymmetric, excluded in §4.6
        }
        let b = alg.compute(&a).unwrap().apply(&a).unwrap();
        fills.insert(alg.name().to_string(), fill_ratio(&b));
    }
    for (name, &f) in &fills {
        assert!(
            f < fill_orig,
            "{name} fill {f:.2} should beat scrambled original {fill_orig:.2}"
        );
    }
    // AMD and ND are the two best.
    let mut sorted: Vec<(&String, &f64)> = fills.iter().collect();
    sorted.sort_by(|x, y| x.1.partial_cmp(y.1).unwrap());
    let top2: Vec<&str> = sorted.iter().take(2).map(|(n, _)| n.as_str()).collect();
    assert!(
        top2.contains(&"AMD") && top2.contains(&"ND"),
        "fill ranking should start with AMD and ND, got {sorted:?}"
    );
}

/// §4.5 / Fig. 5 (top-left): RCM is the best bandwidth reducer.
#[test]
fn rcm_wins_bandwidth() {
    for seed in [1u64, 2, 3] {
        let a = corpus::scramble(&corpus::mesh2d(40, 40), seed);
        let mut best_name = "Original";
        let mut best = bandwidth(&a);
        for alg in all_algorithms(8, 16) {
            let b = alg.compute(&a).unwrap().apply(&a).unwrap();
            let bw = bandwidth(&b);
            if bw < best {
                best = bw;
                best_name = alg.name();
            }
        }
        assert_eq!(best_name, "RCM", "seed {seed}: RCM must win bandwidth");
    }
}

/// §4.5 / Fig. 5: GP is the best off-diagonal-nnz reducer (edge-cut is
/// literally its objective). Stray long-range entries — ubiquitous in
/// real matrices — break pure banding but not clustering, which is why
/// GP wins this feature on most instances in the paper.
#[test]
fn gp_wins_off_diagonal_nnz() {
    let t = 8;
    // "Most instances" needs a sample wide enough to survive instance
    // noise: on any given random instance the runner-up is HP (the
    // other partitioner, optimising the same connectivity objective),
    // and which of the two edges ahead depends on the drawn chords.
    // Five seeds give GP a stable majority; a partitioner must win
    // every instance outright.
    let seeds = [1u64, 2, 3, 4, 5];
    let mut gp_wins = 0;
    for &seed in &seeds {
        let a =
            corpus::with_random_edges(&corpus::scramble(&corpus::mesh2d(48, 48), seed), 0.02, seed);
        let mut best_name = "Original";
        let mut best = off_diagonal_nnz(&a, t);
        for alg in all_algorithms(t, 16) {
            let b = alg.compute(&a).unwrap().apply(&a).unwrap();
            let od = off_diagonal_nnz(&b, t);
            if od < best {
                best = od;
                best_name = alg.name();
            }
        }
        assert!(
            best_name == "GP" || best_name == "HP",
            "seed {seed}: a partitioner must win off-diagonal nnz, got {best_name}"
        );
        if best_name == "GP" {
            gp_wins += 1;
        }
    }
    assert!(
        2 * gp_wins > seeds.len(),
        "GP should win the off-diagonal count on most instances ({gp_wins}/{})",
        seeds.len()
    );
}

/// §4.3: the 2D kernel's imbalance factor is always 1 (by construction)
/// while 1D varies with the ordering.
#[test]
fn two_d_kernel_is_always_balanced() {
    // Heavy rows concentrated in one row block: the worst case for the
    // 1D row split.
    let mut coo = sparsemat::CooMatrix::new(2000, 2000);
    for i in 0..100 {
        for j in 0..40 {
            coo.push(i, (i * 17 + j * 53) % 2000, 1.0);
        }
    }
    for i in 100..2000 {
        coo.push(i, i, 1.0);
    }
    let a = sparsemat::CsrMatrix::from_coo(&coo);
    let counts_1d = Plan::rows(&a, 8).nnz_per_span();
    assert!(
        imbalance_factor(&counts_1d) > 1.3,
        "mix should imbalance 1D"
    );
    let imb2 = imbalance_factor(&Plan::nonzeros(&a, 8).nnz_per_span());
    assert!(
        (imb2 - 1.0).abs() < 0.01,
        "2D imbalance {imb2} should be ~1"
    );
}

/// Gray's dense/sparse split groups heavy rows: its 1D nnz imbalance on
/// a mixed-density matrix is (much) worse than the original order —
/// the §4.4 Class-1 observation that Gray induces imbalance.
#[test]
fn gray_induces_imbalance_on_mixed_density() {
    let a = corpus::dense_rows_mix(3000, 0.01, 6);
    let before = imbalance_factor(&Plan::rows(&a, 8).nnz_per_span());
    let g = Gray.compute(&a).unwrap().apply(&a).unwrap();
    let after = imbalance_factor(&Plan::rows(&g, 8).nnz_per_span());
    assert!(
        after > before,
        "Gray should concentrate heavy rows: {before:.2} -> {after:.2}"
    );
}

/// §4.5's key analytical finding: across (matrix, ordering) pairs, SpMV
/// runtime correlates with the off-diagonal nonzero count more strongly
/// than with bandwidth — the feature GP optimises is the one that
/// matters.
#[test]
fn offdiag_correlates_with_runtime() {
    use archsim::{simulate_spmv_1d_opt, SimOptions};
    let milan = machine_by_name("Milan B").unwrap();
    let opts = SimOptions {
        cache_scale: 1.0 / 32.0,
    };
    let mut offdiags: Vec<f64> = Vec::new();
    let mut bandwidths: Vec<f64> = Vec::new();
    let mut runtimes: Vec<f64> = Vec::new();
    // A mixed bag: recoverable, natural and irregular structures.
    let mats = vec![
        corpus::scramble(&corpus::mesh2d(45, 45), 1),
        corpus::mesh2d(45, 45),
        corpus::with_random_edges(&corpus::scramble(&corpus::banded(2000, 3), 2), 0.02, 2),
        corpus::rmat(11, 8, 3),
        corpus::genome(2500, 4),
        corpus::road(45, 45, 5),
    ];
    for a in &mats {
        for alg in all_algorithms(16, 32) {
            let b = alg.compute(a).unwrap().apply(a).unwrap();
            // Runtime is normalised per nonzero so matrix size doesn't
            // dominate the correlation.
            let r = simulate_spmv_1d_opt(&b, &milan, &opts);
            offdiags.push(off_diagonal_nnz(&b, 16) as f64 / b.nnz() as f64);
            bandwidths.push(bandwidth(&b) as f64 / b.nrows() as f64);
            runtimes.push(r.seconds / b.nnz() as f64);
        }
    }
    let rho_offdiag = spearman(&offdiags, &runtimes).unwrap();
    let rho_bandwidth = spearman(&bandwidths, &runtimes).unwrap();
    assert!(
        rho_offdiag > 0.5,
        "off-diag should correlate positively with runtime: {rho_offdiag:.2}"
    );
    assert!(
        rho_offdiag > rho_bandwidth,
        "off-diag (rho={rho_offdiag:.2}) should beat bandwidth (rho={rho_bandwidth:.2})"
    );
}

/// The fill cost of multiple elimination (Chang, Buluç & Demmel):
/// round-based AMD eliminates a whole distance-2-independent batch per
/// round, so its degree updates see coarser state than classic
/// single-pivot AMD and the factor comes out no smaller. Both orderings
/// are deterministic, so nnz(L) is pinned exactly — `amd_order_single`
/// is the oracle the canonical ordering's quality is held against, and
/// a change to either elimination schedule has to move these numbers
/// on purpose.
#[test]
fn round_based_amd_fill_stays_near_single_elimination() {
    use reorder_study::cholesky::nnz_of_factor;
    use reorder_study::reorder::{amd_order_on, amd_order_single, AmdWork, ReorderExec};
    use reorder_study::sparsegraph::Graph;
    use reorder_study::sparsemat::symmetrize_pattern;

    // (family, matrix, nnz(L) round-based, nnz(L) single-elimination):
    // the `reorder_determinism` families plus two larger instances.
    let cases = [
        (
            "band",
            corpus::scramble(&corpus::banded(600, 4), 17),
            2_990,
            2_990,
        ),
        (
            "fem2d",
            corpus::scramble(&corpus::mesh2d(28, 28), 5),
            9_566,
            8_894,
        ),
        ("fem3d", corpus::mesh3d(9, 9, 9), 24_642, 20_108),
        ("rmat", corpus::rmat(11, 6, 7), 26_346, 26_346),
        ("road", corpus::road(30, 30, 3), 4_416, 4_348),
        ("disconnected", corpus::block_diag(6, 40, 9), 4_279, 4_279),
        (
            "mesh2d_64",
            corpus::scramble(&corpus::mesh2d(64, 64), 3),
            77_124,
            75_522,
        ),
        ("rmat_14", corpus::rmat(14, 8, 42), 908_169, 904_003),
    ];
    for (name, a, want_round, want_single) in cases {
        let pattern = symmetrize_pattern(&a).expect(name);
        let g = Graph::from_matrix(&pattern).expect(name);
        let fill = |order: Vec<u32>| {
            let perm = Permutation::from_new_to_old(order).expect(name);
            nnz_of_factor(&pattern.permute_symmetric(&perm).expect(name))
        };
        let mut ws = AmdWork::default();
        amd_order_on(&g, 0, &ReorderExec::sequential(), &mut ws);
        let round = fill(ws.order().to_vec());
        let single = fill(amd_order_single(&g).0);
        assert_eq!(
            (round, single),
            (want_round, want_single),
            "nnz(L) under round-based / single-elimination AMD moved on {name}"
        );
        assert!(
            round as f64 <= 1.25 * single as f64,
            "round-based AMD fill {round} exceeds 1.25x single-elimination {single} on {name}"
        );
    }
}
