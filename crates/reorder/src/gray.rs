//! Gray code ordering, after Zhao et al. \[28\].
//!
//! The ordering is motivated by microarchitectural concerns: grouping
//! rows with similar nonzero counts improves branch prediction in the
//! SpMV inner loop, and ordering rows whose nonzeros occupy similar
//! column regions improves x-vector locality. The matrix rows are split
//! into a *dense* and a *sparse* submatrix by a row-nonzero threshold
//! (the paper uses 20). Dense rows get *density reordering* (sorted by
//! descending nonzero count); sparse rows get *bitmap reordering*: each
//! row is summarised by a 16-bit occupancy bitmap over equal column
//! segments (as in the paper), and rows are sorted by the Gray code
//! rank of their bitmap, so consecutive rows touch similar column
//! regions.
//!
//! Only rows are permuted — the ordering is unsymmetric (§3.3).

use crate::exec::ReorderExec;
use crate::traits::{ReorderAlgorithm, ReorderResult};
use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Number of bitmap bits (column segments), after Zhao et al. as used
/// in the paper (§3.3).
const BITMAP_BITS: u32 = 16;

/// Rows with more than this many nonzeros are dense (§3.3).
const DENSE_THRESHOLD: usize = 20;

/// Gray code reordering (rows only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gray;

/// Convert a Gray code word to its rank in the Gray sequence (inverse
/// Gray code): bit `k` of the rank is the XOR of bits `k..64` of the
/// word, a suffix XOR that six doubling steps compute for any `u64`.
#[inline]
fn gray_rank(gray: u64) -> u64 {
    let mut rank = gray;
    for shift in [1, 2, 4, 8, 16, 32] {
        rank ^= rank >> shift;
    }
    rank
}

/// Compute the occupancy bitmap of a row over [`BITMAP_BITS`] equal
/// column segments.
#[inline]
fn row_bitmap(cols: &[u32], ncols: usize) -> u64 {
    let mut bm = 0u64;
    for &c in cols {
        // Segment index in 0..BITMAP_BITS.
        let seg = (c as u128 * BITMAP_BITS as u128 / ncols.max(1) as u128) as u32;
        bm |= 1u64 << seg.min(BITMAP_BITS - 1);
    }
    bm
}

/// Sort keys packed as `rank << 64 | nnz << 32 | row`, given in
/// ascending row order, ascending — the order of the `(rank, nnz,
/// row)` tuples. A stable LSD radix sort over the bytes of `(rank,
/// nnz)` in which some two keys differ (three of the twelve for a
/// 16-bit bitmap and a threshold of 20): stability leaves equal keys in
/// the row order they came in, so the row bytes need no pass.
fn sort_packed(keys: &mut Vec<u128>) {
    let varying = keys.iter().fold(0, |v, &k| v | (k ^ keys[0]));
    let mut scratch = vec![0u128; keys.len()];
    for shift in (32..128).step_by(8) {
        if (varying >> shift) & 0xff == 0 {
            continue;
        }
        let digit = |k: u128| ((k >> shift) & 0xff) as usize;
        let mut next = [0usize; 256];
        for &k in keys.iter() {
            next[digit(k)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            start += std::mem::replace(slot, start);
        }
        for &k in keys.iter() {
            scratch[next[digit(k)]] = k;
            next[digit(k)] += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// Compute the Gray row order of a matrix: dense rows first (sorted by
/// descending nonzero count), then sparse rows sorted by the Gray rank
/// of their column bitmap.
fn row_order(a: &CsrMatrix) -> Vec<u32> {
    let ncols = a.ncols();
    let mut dense: Vec<u32> = Vec::new();
    // Bitmap + Gray rank for the sparse block; ties broken by nnz then
    // original index to keep the sort deterministic.
    let mut sparse: Vec<u128> = Vec::new();
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        if cols.len() > DENSE_THRESHOLD {
            dense.push(i as u32);
        } else {
            let rank = gray_rank(row_bitmap(cols, ncols));
            sparse.push((rank as u128) << 64 | (cols.len() as u128) << 32 | i as u128);
        }
    }
    // Density reordering for the dense block: group rows of similar
    // density together, descending.
    dense.sort_by_key(|&i| (std::cmp::Reverse(a.row_nnz(i as usize)), i));
    sort_packed(&mut sparse);
    dense.extend(sparse.iter().map(|&key| key as u32));
    dense
}

impl ReorderAlgorithm for Gray {
    fn name(&self) -> &'static str {
        "Gray"
    }

    fn compute_on(&self, a: &CsrMatrix, _: &ReorderExec<'_>) -> Result<ReorderResult, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let order = row_order(a);
        Ok(ReorderResult {
            perm: Permutation::from_new_to_old(order)?,
            symmetric: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    /// The definition: XOR the word with itself shifted right by 1, 2,
    /// 3, ... until nothing is left.
    fn gray_rank_by_loop(mut gray: u64) -> u64 {
        let mut rank = gray;
        while gray > 0 {
            gray >>= 1;
            rank ^= gray;
        }
        rank
    }

    #[test]
    fn gray_rank_inverts_gray_code() {
        // gray(k) = k ^ (k >> 1); rank must invert it.
        for k in 0..512u64 {
            let gray = k ^ (k >> 1);
            assert_eq!(gray_rank(gray), k);
        }
    }

    #[test]
    fn gray_rank_is_the_loop_on_all_of_u64() {
        // Every 16-bit bitmap (`BITMAP_BITS`), then words with bits
        // anywhere.
        for word in 0..1u64 << 16 {
            assert_eq!(gray_rank(word), gray_rank_by_loop(word), "{word:#x}");
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut word = state;
            word = (word ^ (word >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            word = (word ^ (word >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            word ^= word >> 31;
            assert_eq!(gray_rank(word), gray_rank_by_loop(word), "{word:#x}");
        }
        assert_eq!(gray_rank(u64::MAX), gray_rank_by_loop(u64::MAX));
    }

    #[test]
    fn sort_packed_is_the_tuple_sort() {
        // Ranks up to 63 bits, nnz up to 32, in every mix of widths;
        // few enough distinct keys that ties fall to the row.
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        for (rank_bits, nnz_bits, rows) in [(1, 1, 50), (16, 5, 3000), (63, 32, 3000), (9, 0, 700)]
        {
            let tuples: Vec<(u64, u32, u32)> = (0..rows)
                .map(|row| {
                    let rank = next() & ((1 << rank_bits) - 1);
                    let nnz = next() & ((1 << nnz_bits) - 1);
                    (rank, nnz as u32, row)
                })
                .collect();
            let mut packed: Vec<u128> = tuples
                .iter()
                .map(|&(rank, nnz, row)| (rank as u128) << 64 | (nnz as u128) << 32 | row as u128)
                .collect();
            sort_packed(&mut packed);
            let mut sorted = tuples;
            sorted.sort_unstable();
            let rows_of = |t: &[(u64, u32, u32)]| t.iter().map(|t| t.2).collect::<Vec<_>>();
            assert_eq!(
                packed.iter().map(|&k| k as u32).collect::<Vec<_>>(),
                rows_of(&sorted),
                "rank bits {rank_bits}, nnz bits {nnz_bits}"
            );
        }
        sort_packed(&mut Vec::new());
    }

    #[test]
    fn dense_rows_come_first_sorted_by_density() {
        let n = 40;
        let mut coo = CooMatrix::new(n, n);
        // Row 5: 30 nnz (dense); row 7: 25 nnz (dense); others 1-2 nnz.
        for j in 0..30 {
            coo.push(5, j, 1.0);
        }
        for j in 0..25 {
            coo.push(7, j, 1.0);
        }
        for i in 0..n {
            if i != 5 && i != 7 {
                coo.push(i, i, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let order = row_order(&a);
        assert_eq!(order[0], 5, "densest row first");
        assert_eq!(order[1], 7);
    }

    #[test]
    fn sparse_rows_group_by_column_region() {
        // Rows touching only the left half vs only the right half should
        // be separated by the bitmap ordering.
        let n = 32;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            // Even rows hit the left half, odd rows the right half.
            let base = if i % 2 == 0 { 0 } else { n / 2 };
            coo.push(i, base + (i % (n / 2)), 1.0);
            coo.push(i, base + ((i + 3) % (n / 2)), 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let order = row_order(&a);
        // After ordering, all left-half rows (even ids) must be
        // contiguous: find the boundary.
        let sides: Vec<bool> = order.iter().map(|&i| i % 2 == 0).collect();
        let transitions = sides.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(
            transitions, 1,
            "left-half and right-half rows should form two contiguous groups: {sides:?}"
        );
    }

    #[test]
    fn gray_is_row_only_and_preserves_row_contents() {
        let n = 30;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i * 13 + 1) % n, i as f64 + 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let r = Gray.compute(&a).unwrap();
        assert!(!r.symmetric);
        let b = r.apply(&a).unwrap();
        for new_i in 0..n {
            let old_i = r.perm.new_to_old(new_i);
            assert_eq!(b.row(new_i), a.row(old_i));
        }
    }

    #[test]
    fn dense_rows_of_equal_density_keep_index_order() {
        let n = 25;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..DENSE_THRESHOLD + 1 {
                coo.push(i, (i + j) % n, 1.0);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        // Every row is dense and all have equal nnz, so the density
        // sort falls back to original index order.
        assert_eq!(row_order(&a), (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn gray_rejects_rectangular() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(2, 3));
        assert!(Gray.compute(&a).is_err());
    }
}
