//! Golden ordering hashes, pinned from commit 6d9a487 (ROADMAP item 5:
//! "ordering hashes per corpus matrix").
//!
//! `GOLDEN` holds FNV-1a of `new_to_old` for the level-structure
//! orderings (RCM, plain CM, GPS, reversed GPS) and Gray on the seven
//! `reorder_determinism` families, the `serve_hot`/`serve_cold` 5k
//! mesh at three seeds, the four ~50k-nnz families `serve_cold` draws
//! (scrambled as `sysbench` does, seed 14) and the 16-component mesh
//! union of `serve_churn`. Every row is checked sequentially and on a
//! team of two with `frontier_min = 0` (every BFS level through the
//! two-phase parallel expansion), so one table pins both "the bytes a
//! refactor must reproduce" and "the executor does not change them".
//!
//! A deliberate change of an ordering regenerates the table with
//! `cargo test --test golden_orderings -- --ignored --nocapture` and
//! commits the diff with the reason.

mod common;

use reorder::{Gps, Gray, Rcm, ReorderAlgorithm, ReorderExec};
use sparsemat::{CooMatrix, CsrMatrix};
use team::ThreadTeam;

/// `tests/reorder_determinism.rs`'s edge case: rows 3 and 7 empty.
fn with_empty_rows() -> CsrMatrix {
    let n = 12;
    let mut coo = CooMatrix::new(n, n);
    for i in (0..n).filter(|&i| i != 3 && i != 7) {
        coo.push(i, i, 2.0);
        let j = (i + 2) % n;
        if j != 3 && j != 7 && j != i {
            coo.push_symmetric(i, j, -1.0);
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    const SEED: u64 = 14;
    vec![
        ("band", corpus::scramble(&corpus::banded(600, 4), 17)),
        ("fem2d", corpus::scramble(&corpus::mesh2d(28, 28), 5)),
        ("fem3d", corpus::mesh3d(9, 9, 9)),
        ("rmat", corpus::rmat(11, 6, 7)),
        ("road", corpus::road(30, 30, 3)),
        ("disconnected", corpus::block_diag(6, 40, 9)),
        ("empty_rows", with_empty_rows()),
        ("mesh32_s14", corpus::scramble(&corpus::mesh2d(32, 32), 14)),
        ("mesh32_s23", corpus::scramble(&corpus::mesh2d(32, 32), 23)),
        ("mesh32_s7", corpus::scramble(&corpus::mesh2d(32, 32), 7)),
        ("mesh100", corpus::scramble(&corpus::mesh2d(100, 100), SEED)),
        ("rmat13", corpus::rmat(13, 6, SEED)),
        (
            "road112",
            corpus::scramble(&corpus::road(112, 112, SEED), SEED ^ 1),
        ),
        (
            "band7000",
            corpus::scramble(&corpus::banded(7_000, 3), SEED),
        ),
        ("meshes16", corpus::disjoint_meshes(16, 8, 8, SEED)),
    ]
}

fn algorithms() -> Vec<(&'static str, Box<dyn ReorderAlgorithm>)> {
    vec![
        ("rcm", Box::new(Rcm::default())),
        ("cm", Box::new(Rcm { plain_cm: true })),
        ("gps", Box::new(Gps::default())),
        ("gps_rev", Box::new(Gps { reverse: true })),
        ("gray", Box::new(Gray::default())),
    ]
}

/// One `(matrix, algorithm, hash)` row per pairing, in table order.
fn hashes(rx: &ReorderExec<'_>) -> Vec<(String, String, u64)> {
    let mut rows = Vec::new();
    for (name, a) in matrices() {
        for (algo_name, algo) in algorithms() {
            let perm = algo.compute_on(&a, rx).expect(name).perm;
            rows.push((
                name.to_string(),
                algo_name.to_string(),
                common::fnv1a(perm.order()),
            ));
        }
    }
    rows
}

#[test]
fn orderings_match_the_golden_hashes_on_every_executor() {
    common::assert_matches_golden(GOLDEN, &hashes(&ReorderExec::sequential()));
    let team = ThreadTeam::new(2);
    let two_phase = ReorderExec::on_team(&team).with_frontier_min(0);
    common::assert_matches_golden(GOLDEN, &hashes(&two_phase));
}

#[test]
#[ignore = "prints the table to paste into GOLDEN"]
fn print_golden_table() {
    for (name, algo, hash) in hashes(&ReorderExec::sequential()) {
        println!("    (\"{name}\", \"{algo}\", {hash:#018x}),");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64)] = &[
    ("band", "rcm", 0x2824f45fb29c2569),
    ("band", "cm", 0x4fd6b0c78e3f32f9),
    ("band", "gps", 0xc7521b3f25e9e20d),
    ("band", "gps_rev", 0x596757a03cc5ebcd),
    ("band", "gray", 0xd18037cd2ed9e949),
    ("fem2d", "rcm", 0xfb7e47e30b3e9031),
    ("fem2d", "cm", 0x32791a3938798221),
    ("fem2d", "gps", 0xbed996d2218cb27d),
    ("fem2d", "gps_rev", 0x67f458f8e3fe04ad),
    ("fem2d", "gray", 0x8210c7f572eefce1),
    ("fem3d", "rcm", 0x851b8f503bd8171b),
    ("fem3d", "cm", 0xe7a23f81be9dfb23),
    ("fem3d", "gps", 0x37805936f9cf7ee7),
    ("fem3d", "gps_rev", 0x3e1b25261db3d6df),
    ("fem3d", "gray", 0xfe461b0af5f6660f),
    ("rmat", "rcm", 0x208ae142151a7399),
    ("rmat", "cm", 0x8d339b316c1c50a1),
    ("rmat", "gps", 0xcb13d7f3a278990d),
    ("rmat", "gps_rev", 0x4c2434b612588e3d),
    ("rmat", "gray", 0x3b0271eb3c9ce661),
    ("road", "rcm", 0xc1ba79c291127add),
    ("road", "cm", 0xfbbfdfb30c22d09d),
    ("road", "gps", 0x5f10a9061d1e8e35),
    ("road", "gps_rev", 0xc28d2802f7f635e5),
    ("road", "gray", 0x951afb94f0316355),
    ("disconnected", "rcm", 0xf70ef819255fd025),
    ("disconnected", "cm", 0xb0f51519384e8625),
    ("disconnected", "gps", 0x9b0eb3fc605ae315),
    ("disconnected", "gps_rev", 0x0c5828eacb4fedd5),
    ("disconnected", "gray", 0xc467757b36615925),
    ("empty_rows", "rcm", 0xcee41472da56e235),
    ("empty_rows", "cm", 0x8624f00e4c2c7035),
    ("empty_rows", "gps", 0x8624f00e4c2c7035),
    ("empty_rows", "gps_rev", 0xcee41472da56e235),
    ("empty_rows", "gray", 0x67eeb7e0dc9022a5),
    ("mesh32_s14", "rcm", 0xc087369c9c73cf25),
    ("mesh32_s14", "cm", 0xebacfc3e8210d79d),
    ("mesh32_s14", "gps", 0x9578c67e905e25fd),
    ("mesh32_s14", "gps_rev", 0x8de9cb03a2e676c5),
    ("mesh32_s14", "gray", 0x47a7b0949af80ae9),
    ("mesh32_s23", "rcm", 0x7b8c5d7476c1c999),
    ("mesh32_s23", "cm", 0x3042e81fd15c9d59),
    ("mesh32_s23", "gps", 0x970857e7519b523d),
    ("mesh32_s23", "gps_rev", 0x625926518002ed2d),
    ("mesh32_s23", "gray", 0x766506ac55e84fe9),
    ("mesh32_s7", "rcm", 0xfd5f0a2d2714621d),
    ("mesh32_s7", "cm", 0xde40a72286cdd595),
    ("mesh32_s7", "gps", 0x77b6d9b43f673581),
    ("mesh32_s7", "gps_rev", 0x737d35a0ede87f71),
    ("mesh32_s7", "gray", 0x290b0035d1e0914d),
    ("mesh100", "rcm", 0x93e2e0b574eca719),
    ("mesh100", "cm", 0x246d6d149cdde411),
    ("mesh100", "gps", 0xe7ae092bf1e126e1),
    ("mesh100", "gps_rev", 0x058f2dcc359ab721),
    ("mesh100", "gray", 0x95a4290d8a9fee65),
    ("rmat13", "rcm", 0x79960495d6f240f9),
    ("rmat13", "cm", 0x377b81b3a4dc6231),
    ("rmat13", "gps", 0x3587442f85f688b9),
    ("rmat13", "gps_rev", 0x8fc911f2f4c83769),
    ("rmat13", "gray", 0x20c85e6d72973695),
    ("road112", "rcm", 0xd8cc21d7e19755c9),
    ("road112", "cm", 0xcefa35ae921a7039),
    ("road112", "gps", 0x0d24f5e6c5886615),
    ("road112", "gps_rev", 0xbb715f0e156f772d),
    ("road112", "gray", 0x0132da4e88a5f89d),
    ("band7000", "rcm", 0xe3416a834d0dcdc1),
    ("band7000", "cm", 0xea7cf06997680f31),
    ("band7000", "gps", 0xbb2309e4062e3ed1),
    ("band7000", "gps_rev", 0x43260bb420163c59),
    ("band7000", "gray", 0xfb365c03129e88b1),
    ("meshes16", "rcm", 0xbfd22bc3d0ec24ed),
    ("meshes16", "cm", 0x325a45d4d18d7095),
    ("meshes16", "gps", 0xba1c8292545eeee9),
    ("meshes16", "gps_rev", 0xb25482744aecfab9),
    ("meshes16", "gray", 0x9540ff83977f5185),
];
