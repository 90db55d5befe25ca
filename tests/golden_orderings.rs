//! Golden ordering hashes (ROADMAP item 5: "ordering hashes per corpus
//! matrix").
//!
//! `GOLDEN` (pinned from commit 6d9a487) holds FNV-1a of `new_to_old`
//! for RCM and Gray on the seven `reorder_determinism` families, the
//! `serve_hot`/`serve_cold` 5k mesh at three seeds, the four ~50k-nnz
//! families `serve_cold` draws (scrambled as `sysbench` does, seed 14)
//! and the 16-component mesh union of `serve_churn`. `GOLDEN_PARTITIONED`
//! (pinned from commit 32919b5) holds the same hashes for the
//! partitioners and the minimum-degree orderings — GP at 2 and 16
//! parts, HP at 2 and 8, ND and AMD — on the same matrices.
//! `GOLDEN_AMD_VARIANTS` (pinned from commit bb048ed) adds AMD with a
//! round slack of 2, the only case where a round's candidates span
//! more than one degree. `GOLDEN_UNSYMMETRIC` (pinned from
//! commit 10700f7) holds HP at 2 and 8 parts on a structurally
//! unsymmetric pattern, where the column-net model's nets are not its
//! rows: every other matrix here is symmetric. `GOLDEN_ODD_PARTS`
//! (pinned from commit aed2d51) holds GP and HP at 7 parts on
//! `GOLDEN_PARTITIONED`'s matrices: a part count that is not a power of
//! two splits unevenly (3 against 4, then 1 against 2), so it pins the
//! proportional targets the power-of-two rows never leave at one half.
//! Every row is checked sequentially and on a team of two with
//! `frontier_min = 0` (every BFS level through the two-phase parallel
//! expansion) and `amd_round_min = 0` (every AMD round through the
//! parallel update), so one table pins both "the bytes a refactor must
//! reproduce" and "the executor does not change them".
//!
//! A deliberate change of an ordering regenerates the tables with
//! `cargo test --test golden_orderings -- --ignored --nocapture` and
//! commits the diff with the reason.

mod common;

use reorder::{Amd, Gp, Gray, Hp, Nd, Rcm, ReorderAlgorithm, ReorderExec};
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

fn matrices() -> Matrices {
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

/// Heavy rows are vertices in dozens of nets, and the columns (nets)
/// vary in size.
fn unsymmetric_matrices() -> Matrices {
    vec![("dense_rows_mix", corpus::dense_rows_mix(2_000, 0.02, 14))]
}

type Matrices = Vec<(&'static str, CsrMatrix)>;
type Algorithms = Vec<(&'static str, Box<dyn ReorderAlgorithm>)>;

fn level_structure_orderings() -> Algorithms {
    vec![("rcm", Box::new(Rcm)), ("gray", Box::new(Gray))]
}

fn partitioned_orderings() -> Algorithms {
    vec![
        ("gp2", Box::new(Gp::new(2))),
        ("gp16", Box::new(Gp::new(16))),
        ("hp2", Box::new(Hp::new(2))),
        ("hp8", Box::new(Hp::new(8))),
        ("nd", Box::new(Nd)),
        ("amd", Box::new(Amd::default())),
    ]
}

fn amd_variants() -> Algorithms {
    vec![("amd_slack2", Box::new(Amd { round_slack: 2 }))]
}

fn odd_part_orderings() -> Algorithms {
    vec![("gp7", Box::new(Gp::new(7))), ("hp7", Box::new(Hp::new(7)))]
}

fn hypergraph_orderings() -> Algorithms {
    vec![("hp2", Box::new(Hp::new(2))), ("hp8", Box::new(Hp::new(8)))]
}

/// One `(matrix, algorithm, hash)` row per pairing, in table order.
fn hashes(
    matrices: fn() -> Matrices,
    algorithms: fn() -> Algorithms,
    rx: &ReorderExec<'_>,
) -> Vec<(String, String, u64)> {
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

/// Check `algorithms` on `matrices` against `golden` sequentially and
/// on a team of two whose every BFS level and AMD round takes the
/// parallel path.
fn check_on_every_executor(
    matrices: fn() -> Matrices,
    algorithms: fn() -> Algorithms,
    golden: &[(&str, &str, u64)],
) {
    let sequential = ReorderExec::sequential();
    common::assert_matches_golden(golden, &hashes(matrices, algorithms, &sequential));
    let team = ThreadTeam::new(2);
    let parallel = ReorderExec::on_team(&team)
        .with_frontier_min(0)
        .with_amd_round_min(0);
    common::assert_matches_golden(golden, &hashes(matrices, algorithms, &parallel));
}

#[test]
fn orderings_match_the_golden_hashes_on_every_executor() {
    check_on_every_executor(matrices, level_structure_orderings, GOLDEN);
}

#[test]
fn partitioned_orderings_match_the_golden_hashes_on_every_executor() {
    check_on_every_executor(matrices, partitioned_orderings, GOLDEN_PARTITIONED);
}

#[test]
fn odd_part_counts_match_the_golden_hashes_on_every_executor() {
    check_on_every_executor(matrices, odd_part_orderings, GOLDEN_ODD_PARTS);
}

#[test]
fn amd_variants_match_the_golden_hashes_on_every_executor() {
    check_on_every_executor(matrices, amd_variants, GOLDEN_AMD_VARIANTS);
}

#[test]
fn hp_on_an_unsymmetric_pattern_matches_the_golden_hashes_on_every_executor() {
    check_on_every_executor(
        unsymmetric_matrices,
        hypergraph_orderings,
        GOLDEN_UNSYMMETRIC,
    );
}

#[test]
#[ignore = "prints the tables to paste into GOLDEN, GOLDEN_PARTITIONED, GOLDEN_ODD_PARTS, GOLDEN_AMD_VARIANTS and GOLDEN_UNSYMMETRIC"]
fn print_golden_table() {
    let print = |matrices: fn() -> Matrices, algorithms: fn() -> Algorithms| {
        for (name, algo, hash) in hashes(matrices, algorithms, &ReorderExec::sequential()) {
            println!("    (\"{name}\", \"{algo}\", {hash:#018x}),");
        }
        println!();
    };
    print(matrices, level_structure_orderings);
    print(matrices, partitioned_orderings);
    print(matrices, odd_part_orderings);
    print(matrices, amd_variants);
    print(unsymmetric_matrices, hypergraph_orderings);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64)] = &[
    ("band", "rcm", 0x2824f45fb29c2569),
    ("band", "gray", 0xd18037cd2ed9e949),
    ("fem2d", "rcm", 0xfb7e47e30b3e9031),
    ("fem2d", "gray", 0x8210c7f572eefce1),
    ("fem3d", "rcm", 0x851b8f503bd8171b),
    ("fem3d", "gray", 0xfe461b0af5f6660f),
    ("rmat", "rcm", 0x208ae142151a7399),
    ("rmat", "gray", 0x3b0271eb3c9ce661),
    ("road", "rcm", 0xc1ba79c291127add),
    ("road", "gray", 0x951afb94f0316355),
    ("disconnected", "rcm", 0xf70ef819255fd025),
    ("disconnected", "gray", 0xc467757b36615925),
    ("empty_rows", "rcm", 0xcee41472da56e235),
    ("empty_rows", "gray", 0x67eeb7e0dc9022a5),
    ("mesh32_s14", "rcm", 0xc087369c9c73cf25),
    ("mesh32_s14", "gray", 0x47a7b0949af80ae9),
    ("mesh32_s23", "rcm", 0x7b8c5d7476c1c999),
    ("mesh32_s23", "gray", 0x766506ac55e84fe9),
    ("mesh32_s7", "rcm", 0xfd5f0a2d2714621d),
    ("mesh32_s7", "gray", 0x290b0035d1e0914d),
    ("mesh100", "rcm", 0x93e2e0b574eca719),
    ("mesh100", "gray", 0x95a4290d8a9fee65),
    ("rmat13", "rcm", 0x79960495d6f240f9),
    ("rmat13", "gray", 0x20c85e6d72973695),
    ("road112", "rcm", 0xd8cc21d7e19755c9),
    ("road112", "gray", 0x0132da4e88a5f89d),
    ("band7000", "rcm", 0xe3416a834d0dcdc1),
    ("band7000", "gray", 0xfb365c03129e88b1),
    ("meshes16", "rcm", 0xbfd22bc3d0ec24ed),
    ("meshes16", "gray", 0x9540ff83977f5185),
];

#[rustfmt::skip]
const GOLDEN_PARTITIONED: &[(&str, &str, u64)] = &[
    ("band", "gp2", 0x3d8ab03271ccbacd),
    ("band", "gp16", 0xfec8b8a1b29c7081),
    ("band", "hp2", 0x3fdfc75577929d09),
    ("band", "hp8", 0x8bcdf991de23a19d),
    ("band", "nd", 0xb4d910320e9cdfa5),
    ("band", "amd", 0x9600bcaa13ad826d),
    ("fem2d", "gp2", 0xe4021b5b89aaa919),
    ("fem2d", "gp16", 0x5bdc415f3530877d),
    ("fem2d", "hp2", 0xfbd39c1169d965d9),
    ("fem2d", "hp8", 0x03fa03aebda48e89),
    ("fem2d", "nd", 0x1439e1f9afee74f5),
    ("fem2d", "amd", 0xe6513f1f95196105),
    ("fem3d", "gp2", 0xf425863c58437f73),
    ("fem3d", "gp16", 0x2eb1b520ff127a13),
    ("fem3d", "hp2", 0xfac4ec70be5ec297),
    ("fem3d", "hp8", 0xa99661cebc0d45fb),
    ("fem3d", "nd", 0x937e4121b656edeb),
    ("fem3d", "amd", 0x9cd4b42dfd75c387),
    ("rmat", "gp2", 0x3326cd45ad431265),
    ("rmat", "gp16", 0xa8f0184a61a81e55),
    ("rmat", "hp2", 0xcb335a3390dd74c1),
    ("rmat", "hp8", 0x4639b4a09fedb9a1),
    ("rmat", "nd", 0x510b7970956375f9),
    ("rmat", "amd", 0xf2fcfe74119db8a5),
    ("road", "gp2", 0xcca473f3aa1b7b55),
    ("road", "gp16", 0x0e2417fd36092c55),
    ("road", "hp2", 0x2c26ee7420f0bfcd),
    ("road", "hp8", 0xa977b1c7d7172955),
    ("road", "nd", 0x9db72618732a90c9),
    ("road", "amd", 0x7fe6cfed7c1b35a5),
    ("disconnected", "gp2", 0xc0bf736ed055bca5),
    ("disconnected", "gp16", 0xcd29f3908b1bc745),
    ("disconnected", "hp2", 0x7d4bcd4feb47c6a5),
    ("disconnected", "hp8", 0x2130000aaea6edf5),
    ("disconnected", "nd", 0x787afc8872cdd775),
    ("disconnected", "amd", 0x02df979549e51475),
    ("empty_rows", "gp2", 0x00d02a0818cac575),
    ("empty_rows", "gp16", 0x508f4a391da5af75),
    ("empty_rows", "hp2", 0x00d02a0818cac575),
    ("empty_rows", "hp8", 0x338baba3548b6695),
    ("empty_rows", "nd", 0x28f4b9e58113c055),
    ("empty_rows", "amd", 0xbeeebcecb499e135),
    ("mesh32_s14", "gp2", 0x2c082c3357d4786d),
    ("mesh32_s14", "gp16", 0xd128e596f0b0e7c1),
    ("mesh32_s14", "hp2", 0x4ea1dccba59aca91),
    ("mesh32_s14", "hp8", 0x34bc9ab6562e7315),
    ("mesh32_s14", "nd", 0xf1897eed9ccca261),
    ("mesh32_s14", "amd", 0xb6e97224421c3201),
    ("mesh32_s23", "gp2", 0xd61ce2f0cad47815),
    ("mesh32_s23", "gp16", 0x9cb1e3021a37765d),
    ("mesh32_s23", "hp2", 0xf3e7cb10e8ab8c0d),
    ("mesh32_s23", "hp8", 0x8e605044b7632cc5),
    ("mesh32_s23", "nd", 0xe2cc90b86ee36aad),
    ("mesh32_s23", "amd", 0xa1a8ad4b733c2c19),
    ("mesh32_s7", "gp2", 0xe6de9a892cdbc685),
    ("mesh32_s7", "gp16", 0xc49d0a20d8442131),
    ("mesh32_s7", "hp2", 0xa2ccf71c940c34b9),
    ("mesh32_s7", "hp8", 0x198c0b679e615ee9),
    ("mesh32_s7", "nd", 0xa02d291cb89cc2f1),
    ("mesh32_s7", "amd", 0xa53cfb972cc2566d),
    ("mesh100", "gp2", 0x6bcfaae05735965d),
    ("mesh100", "gp16", 0x34e656e44df5f465),
    ("mesh100", "hp2", 0xbe843ee3632ee805),
    ("mesh100", "hp8", 0xc4125b1f4b1990ed),
    ("mesh100", "nd", 0x95bc596b0e93e865),
    ("mesh100", "amd", 0x012529c7dca91ed9),
    ("rmat13", "gp2", 0xee2a0742a8455a01),
    ("rmat13", "gp16", 0x90eac5a9c15077f5),
    ("rmat13", "hp2", 0x699e011c3581f361),
    ("rmat13", "hp8", 0x04709509e09d8375),
    ("rmat13", "nd", 0x96ca53347a905801),
    ("rmat13", "amd", 0x0c0e0009ff5a0bb5),
    ("road112", "gp2", 0x1e601462a1e48ac5),
    ("road112", "gp16", 0x2204eea9d51800b5),
    ("road112", "hp2", 0xd7039992efa7e7b1),
    ("road112", "hp8", 0x02d9fb88cde3e225),
    ("road112", "nd", 0xfb997ed60f787a95),
    ("road112", "amd", 0xd17fa40df9068949),
    ("band7000", "gp2", 0xecc2998a1e51ef0d),
    ("band7000", "gp16", 0x183976403c4b20f1),
    ("band7000", "hp2", 0x92a023a4dfd73721),
    ("band7000", "hp8", 0x3043f975e0341cc5),
    ("band7000", "nd", 0xac25eb7851e8136d),
    ("band7000", "amd", 0xd18b627818801cad),
    ("meshes16", "gp2", 0x2636f9ee5dbf8dc5),
    ("meshes16", "gp16", 0xb3be122971fea831),
    ("meshes16", "hp2", 0x651dd2763ee18c45),
    ("meshes16", "hp8", 0x442017f984a69fc5),
    ("meshes16", "nd", 0x7a6077ddeadd1e39),
    ("meshes16", "amd", 0xe20314f3d91da285),
];

#[rustfmt::skip]
const GOLDEN_ODD_PARTS: &[(&str, &str, u64)] = &[
    ("band", "gp7", 0x16a9e271fbe40811),
    ("band", "hp7", 0xda1ed72827a48479),
    ("fem2d", "gp7", 0x99105ab972d9ad59),
    ("fem2d", "hp7", 0xaf8ff21f2f194e91),
    ("fem3d", "gp7", 0xc72052013f0936cf),
    ("fem3d", "hp7", 0x2402422e23a15b27),
    ("rmat", "gp7", 0x49bd49cd823789f1),
    ("rmat", "hp7", 0x3da0f4cd26d03f19),
    ("road", "gp7", 0x3af7c4a536609ee5),
    ("road", "hp7", 0x8d4d3263a6d5ae1d),
    ("disconnected", "gp7", 0xe5be996b97dc1bd5),
    ("disconnected", "hp7", 0x5aa134c3fce48575),
    ("empty_rows", "gp7", 0x7fbc55d9455da495),
    ("empty_rows", "hp7", 0x4d01aeebce60ab15),
    ("mesh32_s14", "gp7", 0x74b0f692cdb3abb9),
    ("mesh32_s14", "hp7", 0x81d05cf561e1e4cd),
    ("mesh32_s23", "gp7", 0xf83a323d4b8c414d),
    ("mesh32_s23", "hp7", 0xbfac86a8a5f1df2d),
    ("mesh32_s7", "gp7", 0xb074cfd77ba66fd1),
    ("mesh32_s7", "hp7", 0xafb635f467c3b445),
    ("mesh100", "gp7", 0xeeec963a48dc44d9),
    ("mesh100", "hp7", 0x59a642078375fd69),
    ("rmat13", "gp7", 0x9b77e3dff0b707f9),
    ("rmat13", "hp7", 0x393d141cf341e715),
    ("road112", "gp7", 0xb2c85cd10a0c0e29),
    ("road112", "hp7", 0x949b9801fe452d3d),
    ("band7000", "gp7", 0xaf3962e76c3c6f0d),
    ("band7000", "hp7", 0x088308b80480d631),
    ("meshes16", "gp7", 0x6943e2f4f0ff5895),
    ("meshes16", "hp7", 0xbc65b5c3132e2701),
];

#[rustfmt::skip]
const GOLDEN_AMD_VARIANTS: &[(&str, &str, u64)] = &[
    ("band", "amd_slack2", 0x9600bcaa13ad826d),
    ("fem2d", "amd_slack2", 0x1979e287d2cfd3a9),
    ("fem3d", "amd_slack2", 0xe2689102bb445b2f),
    ("rmat", "amd_slack2", 0xb6e411bcf5b6de8d),
    ("road", "amd_slack2", 0x861673a309e910dd),
    ("disconnected", "amd_slack2", 0xecc09f2e932b50e5),
    ("empty_rows", "amd_slack2", 0xbeeebcecb499e135),
    ("mesh32_s14", "amd_slack2", 0x83c652f55c9f8421),
    ("mesh32_s23", "amd_slack2", 0x2afccb35c364c261),
    ("mesh32_s7", "amd_slack2", 0x04690d4c1ffa9c55),
    ("mesh100", "amd_slack2", 0x84706c1c8a41531d),
    ("rmat13", "amd_slack2", 0x3b7ef4367fc26641),
    ("road112", "amd_slack2", 0x6c28e0fb3a19088d),
    ("band7000", "amd_slack2", 0xd18b627818801cad),
    ("meshes16", "amd_slack2", 0x8cf8dd54d6515115),
];

#[rustfmt::skip]
const GOLDEN_UNSYMMETRIC: &[(&str, &str, u64)] = &[
    ("dense_rows_mix", "hp2", 0xc5ba6197187a8945),
    ("dense_rows_mix", "hp8", 0x882d6062c9007741),
];
