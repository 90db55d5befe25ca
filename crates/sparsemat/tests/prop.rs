//! Property-based tests for the sparse matrix substrate.

use proptest::prelude::*;
use sparsemat::{symmetrize_pattern, CooMatrix, CsrMatrix, EdgeOp, Permutation};
use team::{Exec, ThreadTeam};

/// Strategy: a random COO matrix with dimensions up to 24 and up to 80
/// entries (duplicates allowed, as permitted by the builder).
fn coo_strategy() -> impl Strategy<Value = CooMatrix> {
    (1usize..24, 1usize..24).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -10.0f64..10.0), 0..80).prop_map(move |entries| {
            let mut coo = CooMatrix::new(nr, nc);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

/// Strategy: a random square COO matrix.
fn square_coo_strategy() -> impl Strategy<Value = CooMatrix> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..80).prop_map(move |entries| {
            let mut coo = CooMatrix::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

/// Strategy: a random permutation of n indices (Fisher-Yates driven by a
/// proptest-provided swap schedule).
fn permutation_strategy(n: usize) -> impl Strategy<Value = Permutation> {
    proptest::collection::vec(0usize..n.max(1), n).prop_map(move |swaps| {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for (i, &j) in swaps.iter().enumerate() {
            order.swap(i, j % n.max(1));
        }
        Permutation::from_new_to_old(order).unwrap()
    })
}

/// Strategy: a random square COO matrix together with a random
/// permutation of matching dimension.
fn square_coo_with_permutation() -> impl Strategy<Value = (CooMatrix, Permutation)> {
    (2usize..24).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..80),
            permutation_strategy(n),
        )
            .prop_map(move |(entries, p)| {
                let mut coo = CooMatrix::new(n, n);
                for (r, c, v) in entries {
                    coo.push(r, c, v);
                }
                (coo, p)
            })
    })
}

proptest! {
    #[test]
    fn csr_from_coo_is_valid(coo in coo_strategy()) {
        let a = CsrMatrix::from_coo(&coo);
        prop_assert!(a.validate().is_ok());
        // Sum of values is preserved (duplicates summed, not dropped).
        let total_coo: f64 = coo.iter().map(|(_, _, v)| v).sum();
        let total_csr: f64 = a.values().iter().sum();
        prop_assert!((total_coo - total_csr).abs() < 1e-9);
    }

    #[test]
    fn transpose_is_involutive(coo in coo_strategy()) {
        let a = CsrMatrix::from_coo(&coo);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spmv_transpose_identity(coo in coo_strategy()) {
        // For all x, y: yᵀ(Ax) == xᵀ(Aᵀy). Check with ramp vectors.
        let a = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i + 1) as f64).collect();
        let y: Vec<f64> = (0..a.nrows()).map(|i| (i + 2) as f64).collect();
        let ax = a.spmv_dense(&x);
        let aty = a.transpose().spmv_dense(&y);
        let lhs: f64 = y.iter().zip(ax.iter()).map(|(&u, &v)| u * v).sum();
        let rhs: f64 = x.iter().zip(aty.iter()).map(|(&u, &v)| u * v).sum();
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()));
    }

    #[test]
    fn symmetric_permutation_preserves_spmv(coo in square_coo_strategy(), seed in 0usize..1000) {
        let a = CsrMatrix::from_coo(&coo);
        let n = a.nrows();
        // A deterministic pseudo-random permutation from the seed.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed as u64 + 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        let b = a.permute_symmetric(&p).unwrap();
        prop_assert!(b.validate().is_ok());
        prop_assert_eq!(b.nnz(), a.nnz());
        // (P A Pᵀ)(P x) == P (A x)
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let px = p.apply_to_slice(&x);
        let bpx = b.spmv_dense(&px);
        let pax = p.apply_to_slice(&a.spmv_dense(&x));
        for (u, v) in bpx.iter().zip(pax.iter()) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn row_permutation_preserves_row_content(coo in square_coo_strategy()) {
        let a = CsrMatrix::from_coo(&coo);
        let n = a.nrows();
        let order: Vec<u32> = (0..n as u32).rev().collect();
        let p = Permutation::from_new_to_old(order).unwrap();
        let b = a.permute_rows(&p);
        for new_i in 0..n {
            let old_i = p.new_to_old(new_i);
            prop_assert_eq!(b.row(new_i), a.row(old_i));
        }
    }

    #[test]
    fn symmetrize_yields_symmetric_superset(coo in square_coo_strategy()) {
        let a = CsrMatrix::from_coo(&coo);
        let s = symmetrize_pattern(&a).unwrap();
        prop_assert!(sparsemat::is_structurally_symmetric(&s));
        // Every entry of A appears in S.
        for (i, j, _) in a.iter() {
            prop_assert!(s.get(i, j).is_some());
        }
        prop_assert!(s.nnz() >= a.nnz());
        prop_assert!(s.nnz() <= 2 * a.nnz());
    }

    #[test]
    fn row_then_col_permutation_equals_symmetric(
        (coo, p) in square_coo_with_permutation(),
    ) {
        let a = CsrMatrix::from_coo(&coo);
        // P A Pᵀ factors into row and column moves: the symmetric
        // permutation is exactly a row permutation followed by a column
        // permutation by the same P (in either order).
        let sym = a.permute_symmetric(&p).unwrap();
        prop_assert_eq!(&a.permute_rows(&p).permute_cols(&p), &sym);
        prop_assert_eq!(&a.permute_cols(&p).permute_rows(&p), &sym);
    }

    #[test]
    fn permutation_inverse_round_trips_matrices(
        coo in square_coo_strategy(),
        seed in 0usize..1000,
    ) {
        let a = CsrMatrix::from_coo(&coo);
        let n = a.nrows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed as u64 + 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        let inv = p.inverse();
        // Applying P then P⁻¹ restores the original matrix exactly, for
        // all three permutation flavours.
        let b = a.permute_symmetric(&p).unwrap();
        prop_assert_eq!(&b.permute_symmetric(&inv).unwrap(), &a);
        prop_assert_eq!(&a.permute_rows(&p).permute_rows(&inv), &a);
        prop_assert_eq!(&a.permute_cols(&p).permute_cols(&inv), &a);
    }

    #[test]
    fn permutation_compose_inverse_is_identity(n in 1usize..40, p in (1usize..40).prop_flat_map(permutation_strategy)) {
        let _ = n;
        // p.then(p⁻¹) maps position k to p.new_to_old(p.old_to_new(k)) = k.
        prop_assert!(p.then(&p.inverse()).is_identity());
        prop_assert!(p.inverse().then(&p).is_identity());
    }

    #[test]
    fn apply_delta_add_then_remove_round_trips(
        coo in square_coo_strategy(),
        cells in proptest::collection::vec((0usize..24, 0usize..24, -5.0f64..5.0), 1..40),
    ) {
        let a = CsrMatrix::from_coo(&coo);
        let n = a.nrows();
        let h0 = a.content_hash();

        // Add ops over pseudo-random cells *absent* from A (an add of an
        // existing entry is a structural no-op, so removing it afterwards
        // would delete original content — not a round trip). Duplicate
        // ops on the same cell and self-edges (row == col) stay in.
        let adds: Vec<EdgeOp> = cells
            .iter()
            .map(|&(r, c, v)| (r % n, c % n, v))
            .filter(|&(r, c, _)| a.get(r, c).is_none())
            .map(|(row, col, value)| EdgeOp::Add { row, col, value })
            .collect();
        let removes: Vec<EdgeOp> = adds
            .iter()
            .map(|op| match *op {
                EdgeOp::Add { row, col, .. } => EdgeOp::Remove { row, col },
                EdgeOp::Remove { .. } => unreachable!("adds only"),
            })
            .collect();

        let mut m = a.clone();
        let fwd = m.apply_delta(&adds).unwrap();
        prop_assert!(m.validate().is_ok());
        prop_assert_eq!(m.nnz(), a.nnz() + fwd.added);
        if fwd.changed() {
            prop_assert_ne!(m.content_hash(), h0);
            prop_assert_eq!(m.parent_hash(), Some(h0));
            let mid = m.content_hash();
            let back = m.apply_delta(&removes).unwrap();
            prop_assert_eq!(back.removed, fwd.added);
            prop_assert_eq!(m.parent_hash(), Some(mid));
            // Both hops report the same touched endpoints.
            prop_assert_eq!(&back.touched_rows, &fwd.touched_rows);
        } else {
            prop_assert!(m.apply_delta(&removes).unwrap().noops == removes.len());
        }
        // Pattern, values and content hash are all restored.
        prop_assert!(m.validate().is_ok());
        prop_assert!(m.same_pattern(&a));
        prop_assert_eq!(&m, &a);
        prop_assert_eq!(m.content_hash(), h0);
    }

    #[test]
    fn apply_delta_matches_from_coo_rebuild(
        coo in square_coo_strategy(),
        cells in proptest::collection::vec((0usize..24, 0usize..24, -5.0f64..5.0), 1..30),
    ) {
        // The streaming merge must agree with the ground truth: rebuild
        // the mutated matrix from scratch via COO.
        let a = CsrMatrix::from_coo(&coo);
        let n = a.nrows();
        let ops: Vec<EdgeOp> = cells
            .iter()
            .enumerate()
            .map(|(k, &(r, c, v))| {
                if k % 3 == 0 {
                    EdgeOp::Remove { row: r % n, col: c % n }
                } else {
                    EdgeOp::Add { row: r % n, col: c % n, value: v }
                }
            })
            .collect();
        let mut m = a.clone();
        m.apply_delta(&ops).unwrap();
        prop_assert!(m.validate().is_ok());

        // Ground truth: batch semantics are last-op-wins per cell, so
        // dedupe first, then apply each surviving op to an entry map.
        let mut truth: std::collections::BTreeMap<(usize, usize), f64> =
            a.iter().map(|(i, j, v)| ((i, j), v)).collect();
        let mut last: std::collections::BTreeMap<(usize, usize), EdgeOp> = Default::default();
        for op in &ops {
            let (r, c) = match *op {
                EdgeOp::Add { row, col, .. } | EdgeOp::Remove { row, col } => (row, col),
            };
            last.insert((r, c), *op);
        }
        for ((r, c), op) in last {
            match op {
                EdgeOp::Add { value, .. } => {
                    truth.entry((r, c)).or_insert(value);
                }
                EdgeOp::Remove { .. } => {
                    truth.remove(&(r, c));
                }
            }
        }
        let got: std::collections::BTreeMap<(usize, usize), f64> =
            m.iter().map(|(i, j, v)| ((i, j), v)).collect();
        prop_assert_eq!(got, truth);
    }

    #[test]
    fn market_roundtrip_preserves_matrix(coo in coo_strategy()) {
        let a = CsrMatrix::from_coo(&coo);
        let mut text = format!(
            "%%MatrixMarket matrix coordinate real general\n{} {} {}\n",
            a.nrows(), a.ncols(), a.nnz());
        for (i, j, v) in a.iter() {
            text.push_str(&format!("{} {} {:e}\n", i + 1, j + 1, v));
        }
        let (b, _) = sparsemat::read_matrix_market_str(&text).unwrap();
        prop_assert_eq!(b.nrows(), a.nrows());
        prop_assert_eq!(b.nnz(), a.nnz());
        for ((i1, j1, v1), (i2, j2, v2)) in a.iter().zip(b.iter()) {
            prop_assert_eq!((i1, j1), (i2, j2));
            prop_assert!((v1 - v2).abs() < 1e-12 * (1.0 + v1.abs()));
        }
    }
}

/// Row lengths on both sides of the permutation's short-row cutover
/// (rank placement up to 8 entries, staged sort beyond), empty and
/// singleton rows included.
const ROW_LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 40];

/// Rows of the cutover matrix: three chunks of the crate's parallel
/// row loop, so a team really splits the work.
const CUTOVER_ROWS: usize = 1300;

/// Column strides coprime to [`CUTOVER_ROWS`]: `start + k·stride` walks
/// distinct columns.
const STRIDES: [usize; 5] = [1, 7, 11, 17, 23];

/// Strategy: a square matrix whose rows cycle through [`ROW_LENGTHS`]
/// (so every chunk holds every length), each a strided walk from a
/// drawn column, with a permutation of matching dimension.
fn cutover_matrix_with_permutation() -> impl Strategy<Value = (CooMatrix, Permutation)> {
    let n = CUTOVER_ROWS;
    (
        proptest::collection::vec((0..n, 0..STRIDES.len(), -10.0f64..10.0), n),
        permutation_strategy(n),
    )
        .prop_map(move |(rows, p)| {
            let mut coo = CooMatrix::new(n, n);
            for (row, &(start, stride, value)) in rows.iter().enumerate() {
                for k in 0..ROW_LENGTHS[row % ROW_LENGTHS.len()] {
                    coo.push(row, (start + k * STRIDES[stride]) % n, value + k as f64);
                }
            }
            (coo, p)
        })
}

/// `got` is `want` in every stored field, and so in content hash.
fn assert_same_bytes(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}: shape"
    );
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(got), bits(want), "{what}: values");
    assert_eq!(
        got.content_hash(),
        want.content_hash(),
        "{what}: content hash"
    );
}

/// What `is_structurally_symmetric` means, the slow way: the pattern
/// of the transpose is the matrix's own, array for array.
fn symmetric_by_transpose(a: &CsrMatrix) -> bool {
    let t = a.transpose();
    a.is_square() && a.rowptr() == t.rowptr() && a.colidx() == t.colidx()
}

/// A CSR matrix straight from per-row column lists, kept as given —
/// unsorted, with duplicates — through the safe `from_parts_unchecked`.
fn raw_csr(ncols: usize, rows: &[Vec<u32>]) -> CsrMatrix {
    let mut rowptr = vec![0usize];
    let mut colidx = Vec::new();
    for row in rows {
        colidx.extend_from_slice(row);
        rowptr.push(colidx.len());
    }
    let values = vec![1.0; colidx.len()];
    CsrMatrix::from_parts_unchecked(rows.len(), ncols, rowptr, colidx, values)
}

/// Strategy: per-row column lists of a square pattern that is
/// symmetric *with multiplicity* — `(i, j)` stored as often as
/// `(j, i)` — rows sorted; most rows of the larger ones stay empty.
fn symmetric_rows_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..16).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1usize..3), 0..24).prop_map(move |pairs| {
            let mut rows = vec![Vec::new(); n];
            for (i, j, copies) in pairs {
                for _ in 0..copies {
                    rows[i].push(j as u32);
                    if i != j {
                        rows[j].push(i as u32);
                    }
                }
            }
            for row in &mut rows {
                row.sort_unstable();
            }
            rows
        })
    })
}

proptest! {
    /// The cursor walk answers what the transpose comparison answers on
    /// canonical matrices, square and rectangular, dense and mostly
    /// empty.
    #[test]
    fn symmetry_test_equals_the_transpose_comparison(coo in coo_strategy()) {
        let a = CsrMatrix::from_coo(&coo);
        prop_assert_eq!(sparsemat::is_structurally_symmetric(&a), symmetric_by_transpose(&a));
        // The same entries plus their mirror images, where that fits.
        let mut both = coo.clone();
        if a.is_square() {
            for (i, j, v) in coo.iter() {
                both.push(j, i, v);
            }
        }
        let s = CsrMatrix::from_coo(&both);
        prop_assert_eq!(sparsemat::is_structurally_symmetric(&s), a.is_square());
        prop_assert_eq!(symmetric_by_transpose(&s), a.is_square());
    }

    /// ... and on what `from_parts_unchecked` lets through: duplicate
    /// columns (symmetric if the multiplicities are), one entry
    /// removed, one row out of order.
    #[test]
    fn symmetry_test_equals_the_transpose_comparison_on_raw_patterns(
        rows in symmetric_rows_strategy(),
        pick in 0usize..1000,
    ) {
        let n = rows.len();
        let a = raw_csr(n, &rows);
        prop_assert!(symmetric_by_transpose(&a));
        prop_assert!(sparsemat::is_structurally_symmetric(&a));

        // Remove one stored off-diagonal entry, if there is one.
        let off_diagonal: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..rows[i].len()).map(move |k| (i, k)))
            .filter(|&(i, k)| rows[i][k] as usize != i)
            .collect();
        if !off_diagonal.is_empty() {
            let (i, k) = off_diagonal[pick % off_diagonal.len()];
            let mut fewer = rows.clone();
            fewer[i].remove(k);
            let b = raw_csr(n, &fewer);
            prop_assert!(!symmetric_by_transpose(&b));
            prop_assert!(!sparsemat::is_structurally_symmetric(&b));
        }

        // Store one row backwards: the same entries, but the transpose
        // lists every row ascending.
        let mut unsorted = rows.clone();
        unsorted[pick % n].reverse();
        let c = raw_csr(n, &unsorted);
        prop_assert_eq!(sparsemat::is_structurally_symmetric(&c), symmetric_by_transpose(&c));
        prop_assert_eq!(symmetric_by_transpose(&c), unsorted == rows);
    }
}

/// Cases of the cutover test: a few in the debug workspace run, eight
/// times as many in the release run ci.sh makes.
const CUTOVER_CASES: u32 = if cfg!(debug_assertions) { 8 } else { 64 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CUTOVER_CASES))]

    /// The column-moving permutations, and the row-only one beside
    /// them, equal a reference built the slow way — move the COO
    /// triplets, rebuild the CSR — byte for byte, on every executor:
    /// one lane reads the source rows in storage order, a team fills
    /// chunks of destination rows.
    #[test]
    fn column_moving_permutations_match_a_coo_rebuild_on_every_executor(
        (coo, p) in cutover_matrix_with_permutation(),
    ) {
        let a = CsrMatrix::from_coo(&coo);
        for len in ROW_LENGTHS {
            prop_assert!((0..a.nrows()).any(|i| a.row_nnz(i) == len));
        }
        let n = a.nrows();
        let mut symmetric = CooMatrix::new(n, n);
        let mut rows_only = CooMatrix::new(n, n);
        let mut cols_only = CooMatrix::new(n, n);
        for (i, j, v) in a.iter() {
            symmetric.push(p.old_to_new(i), p.old_to_new(j), v);
            rows_only.push(p.old_to_new(i), j, v);
            cols_only.push(i, p.old_to_new(j), v);
        }
        let want_symmetric = CsrMatrix::from_coo(&symmetric);
        let want_rows = CsrMatrix::from_coo(&rows_only);
        let want_cols = CsrMatrix::from_coo(&cols_only);

        let teams = [ThreadTeam::new(2), ThreadTeam::new(4)];
        let execs = [Exec::Sequential, Exec::Team(&teams[0]), Exec::Team(&teams[1])];
        for exec in execs {
            let what = format!("{} lanes", exec.lanes());
            let got = a.permute_symmetric_on(&p, exec).unwrap();
            assert_same_bytes(&got, &want_symmetric, &format!("symmetric, {what}"));
            let got = a.permute_rows_on(&p, exec);
            assert_same_bytes(&got, &want_rows, &format!("rows, {what}"));
            let got = a.permute_cols_on(&p, exec);
            assert_same_bytes(&got, &want_cols, &format!("columns, {what}"));
        }
    }
}
