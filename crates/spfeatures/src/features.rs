use sparsemat::CsrMatrix;
use spmv::{imbalance_factor, Plan};

/// Bandwidth of a square matrix: `max |i − j|` over stored nonzeros
/// (§3.2). Zero for diagonal or empty matrices.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        if let Some(&first) = cols.first() {
            bw = bw.max(i.abs_diff(first as usize));
        }
        if let Some(&last) = cols.last() {
            bw = bw.max(i.abs_diff(last as usize));
        }
    }
    bw
}

/// Profile of a square matrix: `Σ_i (i − min{ j : a_ij ≠ 0 })`, summing
/// only rows whose leftmost entry lies at or left of the diagonal
/// (Gibbs et al. \[12\], as defined in §3.2). Rows with no entry left of
/// the diagonal contribute zero.
pub fn profile(a: &CsrMatrix) -> u64 {
    let mut total = 0u64;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        if let Some(&first) = cols.first() {
            let j = first as usize;
            if j < i {
                total += (i - j) as u64;
            }
        }
    }
    total
}

/// Off-diagonal nonzero count (§3.2): with rows and columns divided
/// into `num_blocks` equal contiguous blocks, count nonzeros outside
/// the diagonal blocks. Equals the edge-cut of the even row split, the
/// objective GP minimises.
pub fn off_diagonal_nnz(a: &CsrMatrix, num_blocks: usize) -> usize {
    let t = num_blocks.max(1);
    let n = a.nrows().max(1);
    let chunk = n.div_ceil(t);
    let mut count = 0usize;
    for i in 0..a.nrows() {
        let bi = i / chunk;
        let (cols, _) = a.row(i);
        for &j in cols {
            if (j as usize) / chunk != bi {
                count += 1;
            }
        }
    }
    count
}

/// Population variance of the row lengths (nonzeros per row). High
/// variance marks skewed matrices (power-law graphs, dense-row mixes)
/// whose SpMV cost is dominated by a few heavy rows — structure no
/// symmetric reordering changes, which is why the policy predictor
/// discounts reordering for them.
pub fn row_length_variance(a: &CsrMatrix) -> f64 {
    let n = a.nrows();
    if n == 0 {
        return 0.0;
    }
    let mean = a.nnz() as f64 / n as f64;
    let mut acc = 0.0;
    for i in 0..n {
        let d = a.row(i).0.len() as f64 - mean;
        acc += d * d;
    }
    acc / n as f64
}

/// Estimate of the x-vector reuse an SpMV achieves under the current
/// ordering: the average number of *distinct* cache lines of `x`
/// touched per row, normalised by the row length (lower = better
/// spatial locality, 1.0 = every nonzero on its own line). Computed
/// from column-index gaps within each row — consecutive columns on one
/// 64-byte line (8 doubles) count as one touch. This is the cheap,
/// order-sensitive proxy for the DRAM traffic `archsim` models
/// exactly: reordering wins precisely when it lowers this ratio.
pub fn x_reuse_estimate(a: &CsrMatrix) -> f64 {
    const DOUBLES_PER_LINE: u32 = 8;
    let mut lines = 0u64;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        let mut last_line = u32::MAX;
        for &j in cols {
            let line = j / DOUBLES_PER_LINE;
            if line != last_line {
                lines += 1;
                last_line = line;
            }
        }
    }
    if a.nnz() == 0 {
        0.0
    } else {
        lines as f64 / a.nnz() as f64
    }
}

/// All four order-sensitive features of §3.2 for one matrix at one
/// thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixFeatures {
    /// Bandwidth.
    pub bandwidth: usize,
    /// Profile.
    pub profile: u64,
    /// Off-diagonal nonzero count for a `threads`-way block split.
    pub off_diagonal_nnz: usize,
    /// 1D load imbalance factor for `threads` threads.
    pub imbalance_1d: f64,
    /// The thread/block count the split-based features used.
    pub threads: usize,
}

/// Compute all features of §3.2 in one pass over the matrix.
pub fn matrix_features(a: &CsrMatrix, threads: usize) -> MatrixFeatures {
    MatrixFeatures {
        bandwidth: bandwidth(a),
        profile: profile(a),
        off_diagonal_nnz: off_diagonal_nnz(a, threads),
        imbalance_1d: imbalance_factor(&Plan::rows(a, threads).nnz_per_span()),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn from_entries(n: usize, entries: &[(usize, usize)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j) in entries {
            coo.push(i, j, 1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn bandwidth_of_diagonal_is_zero() {
        let a = CsrMatrix::identity(5);
        assert_eq!(bandwidth(&a), 0);
    }

    #[test]
    fn bandwidth_of_banded() {
        let a = from_entries(6, &[(0, 0), (1, 0), (2, 1), (5, 2), (3, 3)]);
        assert_eq!(bandwidth(&a), 3); // entry (5,2)
    }

    #[test]
    fn bandwidth_counts_upper_triangle_too() {
        let a = from_entries(6, &[(0, 4), (1, 1)]);
        assert_eq!(bandwidth(&a), 4);
    }

    #[test]
    fn profile_sums_leftmost_distances() {
        // Row 0: leftmost 0 -> 0; row 1: leftmost 0 -> 1; row 2: leftmost 1 -> 1.
        let a = from_entries(3, &[(0, 0), (1, 0), (1, 1), (2, 1)]);
        assert_eq!(profile(&a), 2);
    }

    #[test]
    fn profile_ignores_rows_starting_right_of_diagonal() {
        let a = from_entries(3, &[(0, 2), (1, 2), (2, 0)]);
        // Rows 0 and 1 start right of the diagonal; row 2 contributes 2.
        assert_eq!(profile(&a), 2);
    }

    #[test]
    fn off_diagonal_nnz_counts_block_crossings() {
        // 4x4, 2 blocks of 2: entries (0,3) and (3,0) cross; (0,1) and (2,2) don't.
        let a = from_entries(4, &[(0, 1), (0, 3), (2, 2), (3, 0)]);
        assert_eq!(off_diagonal_nnz(&a, 2), 2);
        // With 1 block everything is diagonal.
        assert_eq!(off_diagonal_nnz(&a, 1), 0);
        // With 4 blocks (1 row each), everything off the exact diagonal crosses.
        assert_eq!(off_diagonal_nnz(&a, 4), 3);
    }

    #[test]
    fn features_bundle_is_consistent() {
        let a = from_entries(8, &[(0, 0), (1, 0), (2, 5), (7, 7), (6, 1)]);
        let f = matrix_features(&a, 2);
        assert_eq!(f.bandwidth, bandwidth(&a));
        assert_eq!(f.profile, profile(&a));
        assert_eq!(f.off_diagonal_nnz, off_diagonal_nnz(&a, 2));
        assert!(f.imbalance_1d >= 1.0);
        assert_eq!(f.threads, 2);
    }

    #[test]
    fn row_length_variance_separates_uniform_from_skewed() {
        // Uniform: every row has exactly one entry — variance zero.
        let uniform = CsrMatrix::identity(8);
        assert_eq!(row_length_variance(&uniform), 0.0);
        // Skewed: one dense row among singletons.
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        for j in 0..8 {
            if j != 0 {
                coo.push(0, j, 1.0);
            }
        }
        let skewed = CsrMatrix::from_coo(&coo);
        assert!(row_length_variance(&skewed) > 4.0);
    }

    #[test]
    fn x_reuse_improves_with_locality() {
        // Banded rows touch consecutive columns: near 1 line per row,
        // so lines/nnz is well below 1.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(3)..(i + 4).min(n) {
                coo.push(i, j, 1.0);
            }
        }
        let banded = CsrMatrix::from_coo(&coo);
        // Strided rows touch a fresh line per nonzero.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for k in 0..7 {
                coo.push(i, (i + k * 9) % n, 1.0);
            }
        }
        let strided = CsrMatrix::from_coo(&coo);
        assert!(x_reuse_estimate(&banded) < 0.5);
        assert!(x_reuse_estimate(&strided) > 0.8);
        assert_eq!(x_reuse_estimate(&CsrMatrix::identity(0)), 0.0);
    }

    #[test]
    fn reordering_changes_features_as_expected() {
        // A banded matrix has low bandwidth; reversing rows/columns
        // keeps the band (anti-transpose symmetry of the metric).
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
            if i > 0 {
                coo.push(i, i - 1, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        assert_eq!(bandwidth(&a), 1);
        assert_eq!(profile(&a), (n - 1) as u64);
    }
}
