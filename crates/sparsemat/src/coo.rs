use crate::{ColIdx, SparseError};

/// A sparse matrix in coordinate (triplet) form.
///
/// COO is the natural construction format: entries may be pushed in any
/// order and duplicates are allowed (they are summed on conversion to
/// CSR, matching Matrix Market semantics). All reordering pipelines in
/// this repository build matrices through `CooMatrix` and then convert
/// with [`crate::CsrMatrix::from_coo`].
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    values: Vec<f64>,
}

impl CooMatrix {
    /// Create an empty COO matrix with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension exceeds `u32::MAX`, the limit imposed
    /// by 32-bit index storage.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "matrix dimensions exceed 32-bit index limit"
        );
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Create an empty COO matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        let mut m = CooMatrix::new(nrows, ncols);
        m.rows.reserve(cap);
        m.cols.reserve(cap);
        m.values.reserve(cap);
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Append an entry. Panics if out of bounds (the hot path used by
    /// generators; see [`CooMatrix::try_push`] for a checked variant).
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) out of bounds for {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.values.push(value);
    }

    /// Append an entry, returning an error if out of bounds.
    pub fn try_push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.push(row, col, value);
        Ok(())
    }

    /// Append an entry and, if it is off-diagonal, its transpose.
    ///
    /// This mirrors the paper's handling of symmetric Matrix Market
    /// inputs (§4.1): "whenever an off-diagonal nonzero is encountered,
    /// two nonzeros are inserted into the CSR representation".
    pub fn push_symmetric(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Iterate over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.values.iter())
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Borrow the raw triplet arrays `(rows, cols, values)`.
    pub fn triplets(&self) -> (&[u32], &[ColIdx], &[f64]) {
        (&self.rows, &self.cols, &self.values)
    }

    /// Build a COO matrix directly from triplet vectors.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if rows.len() != cols.len() || rows.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "triplet arrays have mismatched lengths: {} rows, {} cols, {} values",
                rows.len(),
                cols.len(),
                values.len()
            )));
        }
        for (&r, &c) in rows.iter().zip(cols.iter()) {
            if r as usize >= nrows || c as usize >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r as usize,
                    col: c as usize,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            values,
        })
    }

    /// Transpose in place by swapping the row and column arrays.
    pub fn transpose(&mut self) {
        std::mem::swap(&mut self.rows, &mut self.cols);
        std::mem::swap(&mut self.nrows, &mut self.ncols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 2, 1.5);
        m.push(1, 0, -2.0);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 2, 1.5), (1, 0, -2.0)]);
        assert_eq!(m.values.len(), 2);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut m = CooMatrix::new(2, 2);
        m.push(2, 0, 1.0);
    }

    #[test]
    fn try_push_reports_error() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.try_push(1, 1, 1.0).is_ok());
        let e = m.try_push(0, 5, 1.0).unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { col: 5, .. }));
    }

    #[test]
    fn push_symmetric_mirrors_offdiagonal() {
        let mut m = CooMatrix::new(3, 3);
        m.push_symmetric(0, 1, 2.0);
        m.push_symmetric(2, 2, 5.0);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 1, 2.0), (1, 0, 2.0), (2, 2, 5.0)]);
    }

    #[test]
    fn from_triplets_validates() {
        let ok = CooMatrix::from_triplets(2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0]);
        assert!(ok.is_ok());
        let bad_len = CooMatrix::from_triplets(2, 2, vec![0], vec![1, 0], vec![1.0, 2.0]);
        assert!(bad_len.is_err());
        let bad_idx = CooMatrix::from_triplets(2, 2, vec![0, 3], vec![1, 0], vec![1.0, 2.0]);
        assert!(bad_idx.is_err());
    }

    #[test]
    fn transpose_swaps() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 2, 1.0);
        m.transpose();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.iter().next(), Some((2, 0, 1.0)));
    }
}
