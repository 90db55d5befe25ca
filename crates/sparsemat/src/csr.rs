use crate::symmetrize::PAR_ROW_GRAIN;
use crate::{ColIdx, CooMatrix, Permutation, SparseError};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;
use team::Exec;

/// A single structural edge mutation applied by
/// [`CsrMatrix::apply_delta`].
///
/// The API is structural: `Add` inserts a new stored entry (and is a
/// no-op if the entry already exists — it never overwrites a value),
/// `Remove` deletes a stored entry (no-op if absent). Values of
/// untouched entries are never changed, so
/// `apply_delta(add e); apply_delta(remove e)` round-trips both the
/// pattern and the content hash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOp {
    /// Insert entry `(row, col)` with `value` if not already stored.
    Add {
        /// Row index of the entry.
        row: usize,
        /// Column index of the entry.
        col: usize,
        /// Value stored iff the entry did not exist.
        value: f64,
    },
    /// Delete entry `(row, col)` if stored.
    Remove {
        /// Row index of the entry.
        row: usize,
        /// Column index of the entry.
        col: usize,
    },
}

impl EdgeOp {
    fn cell(&self) -> (usize, usize) {
        match *self {
            EdgeOp::Add { row, col, .. } => (row, col),
            EdgeOp::Remove { row, col } => (row, col),
        }
    }
}

/// What a [`CsrMatrix::apply_delta`] call actually did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaReport {
    /// Entries inserted.
    pub added: usize,
    /// Entries deleted.
    pub removed: usize,
    /// Ops that changed nothing (add of an existing entry, remove of an
    /// absent one).
    pub noops: usize,
    /// Sorted, deduplicated indices touched by the *effective* ops:
    /// **both** endpoints of every inserted/deleted entry. Including the
    /// column endpoint is what lets component-structured consumers
    /// conclude that a component containing no touched index is
    /// structurally unchanged in the (symmetrised) ordering graph.
    pub touched_rows: Vec<u32>,
}

impl DeltaReport {
    /// True if the batch changed the stored structure at all.
    pub fn changed(&self) -> bool {
        self.added + self.removed > 0
    }
}

/// One recorded mutation hop: the content hash of the matrix this one
/// was derived from, plus the indices the delta touched (see
/// [`DeltaReport::touched_rows`]). Hops are kept oldest-first.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageHop {
    /// `content_hash()` of the matrix *before* the delta was applied.
    pub parent: u128,
    /// Endpoints of every effective op in that delta, sorted, deduped.
    pub touched: Vec<u32>,
}

/// Bound on the recorded ancestor chain: hops older than this are
/// dropped, so a delta-aware cache probes at most this many ancestors.
pub const LINEAGE_CAP: usize = 8;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Nonzeros are grouped by row; within each row, column indices are
/// strictly increasing (no duplicates). `rowptr` has `nrows + 1`
/// entries, with `rowptr[i]..rowptr[i+1]` delimiting the nonzeros of
/// row `i` in `colidx`/`values`. Column indices are 32-bit and values
/// are `f64`, matching the storage convention of the paper (§4.1).
///
/// The content hash is memoised and every mutating path
/// ([`CsrMatrix::values_mut`], [`CsrMatrix::apply_delta`]) invalidates
/// the memo, so a stale hash can never be served. Equality compares
/// content only (shape, pattern, values) — never the memo or the
/// mutation lineage.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<ColIdx>,
    values: Vec<f64>,
    /// Memoised `content_hash`; reset on every mutation.
    hash_memo: OnceLock<u128>,
    /// Recent mutation ancestry, oldest hop first, at most
    /// [`LINEAGE_CAP`] entries.
    lineage: Vec<LineageHop>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// The one true constructor behind every building path: fresh memo,
    /// empty lineage.
    fn new_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<ColIdx>,
        values: Vec<f64>,
    ) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
            hash_memo: OnceLock::new(),
            lineage: Vec::new(),
        }
    }

    /// Construct from raw parts, validating every structural invariant.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<ColIdx>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if ncols > u32::MAX as usize {
            return Err(SparseError::TooLarge { dim: ncols });
        }
        if rowptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "rowptr has length {}, expected {}",
                rowptr.len(),
                nrows + 1
            )));
        }
        if rowptr[0] != 0 {
            return Err(SparseError::InvalidStructure(
                "rowptr must start at 0".into(),
            ));
        }
        if *rowptr.last().unwrap() != colidx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "rowptr ends at {} but there are {} column indices",
                rowptr.last().unwrap(),
                colidx.len()
            )));
        }
        if colidx.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "{} column indices but {} values",
                colidx.len(),
                values.len()
            )));
        }
        for i in 0..nrows {
            if rowptr[i] > rowptr[i + 1] || rowptr[i + 1] > colidx.len() {
                return Err(SparseError::InvalidStructure(format!(
                    "rowptr not monotone at row {i}"
                )));
            }
            let row = &colidx[rowptr[i]..rowptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "columns not strictly increasing in row {i}"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: i,
                        col: last as usize,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix::new_raw(nrows, ncols, rowptr, colidx, values))
    }

    /// Construct from raw parts without validation.
    ///
    /// Not `unsafe` in the memory-safety sense, but callers must uphold
    /// the CSR invariants or later operations will panic or produce
    /// wrong results. Used on hot internal paths where the structure is
    /// correct by construction.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<ColIdx>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(rowptr.len(), nrows + 1);
        debug_assert_eq!(colidx.len(), values.len());
        debug_assert_eq!(*rowptr.last().unwrap(), colidx.len());
        CsrMatrix::new_raw(nrows, ncols, rowptr, colidx, values)
    }

    /// Convert from COO, sorting entries and summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let (rows, cols, vals) = coo.triplets();
        let nnz_in = rows.len();

        // Counting sort by row.
        let mut rowcount = vec![0usize; nrows + 1];
        for &r in rows {
            rowcount[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            rowcount[i + 1] += rowcount[i];
        }
        let mut order: Vec<u32> = vec![0; nnz_in];
        let mut next = rowcount.clone();
        for (k, &r) in rows.iter().enumerate() {
            order[next[r as usize]] = k as u32;
            next[r as usize] += 1;
        }

        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0);
        let mut colidx: Vec<ColIdx> = Vec::with_capacity(nnz_in);
        let mut values: Vec<f64> = Vec::with_capacity(nnz_in);
        let mut rowbuf: Vec<(ColIdx, f64)> = Vec::new();
        for i in 0..nrows {
            rowbuf.clear();
            for &k in &order[rowcount[i]..rowcount[i + 1]] {
                rowbuf.push((cols[k as usize], vals[k as usize]));
            }
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            // Sum duplicates.
            let mut j = 0;
            while j < rowbuf.len() {
                let (c, mut v) = rowbuf[j];
                let mut j2 = j + 1;
                while j2 < rowbuf.len() && rowbuf[j2].0 == c {
                    v += rowbuf[j2].1;
                    j2 += 1;
                }
                colidx.push(c);
                values.push(v);
                j = j2;
            }
            rowptr.push(colidx.len());
        }
        CsrMatrix::new_raw(nrows, ncols, rowptr, colidx, values)
    }

    /// The `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix::new_raw(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// The column index array (`nnz` entries).
    #[inline]
    pub fn colidx(&self) -> &[ColIdx] {
        &self.colidx
    }

    /// The value array (`nnz` entries).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to values (the pattern stays fixed).
    ///
    /// Handing out mutable access invalidates the memoised content
    /// hash: the next [`CsrMatrix::content_hash`] call rehashes, so no
    /// in-place mutation path can serve a stale hash.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.hash_memo.take();
        &mut self.values
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[ColIdx], &[f64]) {
        let lo = self.rowptr[i];
        let hi = self.rowptr[i + 1];
        (&self.colidx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Iterate over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Look up the value at `(row, col)` by binary search, if stored.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        let (cols, vals) = self.row(row);
        cols.binary_search(&(col as ColIdx)).ok().map(|k| vals[k])
    }

    /// Sequential reference SpMV: returns `y = A * x`.
    ///
    /// The parallel kernels live in the `spmv` crate; this is the
    /// correctness oracle they are tested against.
    pub fn spmv_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut sum = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                sum += v * x[c as usize];
            }
            y[i] = sum;
        }
        y
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut colcount = vec![0usize; self.ncols + 1];
        for &c in &self.colidx {
            colcount[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            colcount[j + 1] += colcount[j];
        }
        // After the prefix sum, `colcount` is exactly the transpose's
        // row pointer array.
        let rowptr_t = colcount.clone();
        let mut colidx_t = vec![0 as ColIdx; self.nnz()];
        let mut values_t = vec![0.0; self.nnz()];
        let mut next: Vec<usize> = colcount[..self.ncols].to_vec();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let slot = next[c as usize];
                colidx_t[slot] = i as ColIdx;
                values_t[slot] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix::new_raw(self.ncols, self.nrows, rowptr_t, colidx_t, values_t)
    }

    /// Symmetric permutation `B = P A Pᵀ`: row and column `old` both move
    /// to position `perm.old_to_new(old)`.
    ///
    /// Requires a square matrix (all symmetric reorderings in the paper
    /// operate on square matrices).
    pub fn permute_symmetric(&self, perm: &Permutation) -> Result<CsrMatrix, SparseError> {
        self.permute_symmetric_on(perm, Exec::Sequential)
    }

    /// [`CsrMatrix::permute_symmetric`] on an executor.
    ///
    /// New row `i` is old row `perm.new_to_old(i)`, so the output row
    /// lengths are just the input lengths permuted — no counting pass
    /// is needed. A sequential prefix sum fixes every row's output
    /// segment. On one lane the source rows are then read in storage
    /// order, each remapped into its destination segment; a team fills
    /// chunks of destination rows, each chunk its own contiguous window.
    /// Either way the result is independent of the executor. A row's
    /// mapped columns are unique, so it has one ascending order,
    /// whichever way it is reached: short rows are rank-placed, long
    /// ones sorted.
    pub fn permute_symmetric_on(
        &self,
        perm: &Permutation,
        exec: Exec<'_>,
    ) -> Result<CsrMatrix, SparseError> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        assert_eq!(perm.len(), self.nrows, "permutation length mismatch");
        let n = self.nrows;
        let rowptr = self.permuted_rowptr(perm);
        let (colidx, values) =
            self.fill_rows_on(&rowptr, Some(perm), exec, |cols, vals, co, vo, staged| {
                remap_row(perm, cols, vals, co, vo, staged)
            });
        Ok(CsrMatrix::new_raw(n, n, rowptr, colidx, values))
    }

    /// Row-only permutation `B = P A` (used by the unsymmetric Gray
    /// ordering, which leaves columns in place).
    pub fn permute_rows(&self, perm: &Permutation) -> CsrMatrix {
        self.permute_rows_on(perm, Exec::Sequential)
    }

    /// [`CsrMatrix::permute_rows`] on an executor: prefix-sum over the
    /// permuted row lengths, then one copy per row into its segment, in
    /// the order [`CsrMatrix::permute_symmetric_on`] walks the rows.
    pub fn permute_rows_on(&self, perm: &Permutation, exec: Exec<'_>) -> CsrMatrix {
        assert_eq!(perm.len(), self.nrows, "permutation length mismatch");
        let rowptr = self.permuted_rowptr(perm);
        let (colidx, values) =
            self.fill_rows_on(&rowptr, Some(perm), exec, |cols, vals, co, vo, _| {
                co.copy_from_slice(cols);
                vo.copy_from_slice(vals);
            });
        CsrMatrix::new_raw(self.nrows, self.ncols, rowptr, colidx, values)
    }

    /// Column-only permutation `B = A Pᵀ` (columns move to their new
    /// positions; rows stay).
    pub fn permute_cols(&self, perm: &Permutation) -> CsrMatrix {
        self.permute_cols_on(perm, Exec::Sequential)
    }

    /// [`CsrMatrix::permute_cols`] on an executor: the row structure is
    /// unchanged, so each row is remapped into its own (pre-existing)
    /// segment, exactly as [`CsrMatrix::permute_symmetric_on`] does it.
    pub fn permute_cols_on(&self, perm: &Permutation, exec: Exec<'_>) -> CsrMatrix {
        assert_eq!(perm.len(), self.ncols, "permutation length mismatch");
        let rowptr = self.rowptr.clone();
        let (colidx, values) =
            self.fill_rows_on(&rowptr, None, exec, |cols, vals, co, vo, staged| {
                remap_row(perm, cols, vals, co, vo, staged)
            });
        CsrMatrix::new_raw(self.nrows, self.ncols, rowptr, colidx, values)
    }

    /// The fill behind the three permutations: old row `i` of `self`
    /// becomes new row `rows.old_to_new(i)` (row `i` if `rows` is
    /// `None`), whose segment `rowptr` gives, and `place` writes it
    /// there (`place(cols, vals, co, vo, staged)`, `co`/`vo` exactly
    /// the row's length, `staged` a buffer it may reuse).
    ///
    /// On one lane the source rows are read in storage order, each
    /// written into its destination segment: the reads stream and the
    /// writes land in the segments in whatever order the permutation
    /// gives. A team instead splits the *destination* rows into chunks
    /// ([`PAR_ROW_GRAIN`]), because a chunk of destination rows owns
    /// one contiguous window of the output, which is what a lane may
    /// write; its reads follow `new_to_old`. Each segment is a function
    /// of its source row alone, so both orders write the same bytes.
    fn fill_rows_on<F>(
        &self,
        rowptr: &[usize],
        rows: Option<&Permutation>,
        exec: Exec<'_>,
        place: F,
    ) -> (Vec<ColIdx>, Vec<f64>)
    where
        F: Fn(&[ColIdx], &[f64], &mut [ColIdx], &mut [f64], &mut Vec<(ColIdx, f64)>) + Sync,
    {
        let nrows = rowptr.len() - 1;
        let nnz = rowptr[nrows];
        let mut colidx: Vec<ColIdx> = vec![0; nnz];
        let mut values: Vec<f64> = vec![0.0; nnz];
        if exec.lanes() == 1 {
            let mut staged = Vec::new();
            for old in 0..nrows {
                let new = rows.map_or(old, |p| p.old_to_new(old));
                let (cols, vals) = self.row(old);
                let out = rowptr[new]..rowptr[new + 1];
                place(
                    cols,
                    vals,
                    &mut colidx[out.clone()],
                    &mut values[out],
                    &mut staged,
                );
            }
            return (colidx, values);
        }
        exec.for_each_window(
            nrows,
            PAR_ROW_GRAIN,
            (&mut colidx[..], &mut values[..]),
            |i| rowptr[i],
            |chunk, (co, vo)| {
                let base = rowptr[chunk.start];
                let mut staged = Vec::new();
                for new in chunk {
                    let (cols, vals) = self.row(rows.map_or(new, |p| p.new_to_old(new)));
                    let out = rowptr[new] - base..rowptr[new + 1] - base;
                    place(cols, vals, &mut co[out.clone()], &mut vo[out], &mut staged);
                }
            },
        );
        (colidx, values)
    }

    /// Row pointers of a row-permuted copy: the prefix sum of the old
    /// row lengths taken in permuted order.
    fn permuted_rowptr(&self, perm: &Permutation) -> Vec<usize> {
        let n = self.nrows;
        let mut rowptr = vec![0usize; n + 1];
        for new_i in 0..n {
            let old_i = perm.new_to_old(new_i);
            rowptr[new_i + 1] = rowptr[new_i] + (self.rowptr[old_i + 1] - self.rowptr[old_i]);
        }
        rowptr
    }

    /// The structural pattern with all values set to 1.0.
    pub fn pattern(&self) -> CsrMatrix {
        CsrMatrix::new_raw(
            self.nrows,
            self.ncols,
            self.rowptr.clone(),
            self.colidx.clone(),
            vec![1.0; self.nnz()],
        )
    }

    /// True if both matrices have the same sparsity pattern.
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
    }

    /// Extract the diagonal (length `min(nrows, ncols)`, zeros where no
    /// entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i).unwrap_or(0.0)).collect()
    }

    /// Validate all CSR invariants (useful in tests and after unchecked
    /// construction).
    pub fn validate(&self) -> Result<(), SparseError> {
        CsrMatrix::from_parts(
            self.nrows,
            self.ncols,
            self.rowptr.clone(),
            self.colidx.clone(),
            self.values.clone(),
        )
        .map(|_| ())
    }

    /// Bytes needed to store the matrix in CSR form (8-byte values,
    /// 4-byte column indices, 8-byte row pointers), as in the paper's
    /// cache-capacity discussion (§4.1).
    pub fn csr_bytes(&self) -> usize {
        self.values.len() * 8 + self.colidx.len() * 4 + self.rowptr.len() * 8
    }

    /// A stable 128-bit content hash of the matrix.
    ///
    /// Hashes the canonical CSR encoding — dimensions, row pointers,
    /// column indices and value bit patterns. Because CSR is a
    /// canonical form (rows in order, columns strictly increasing,
    /// duplicates already summed), two matrices with the same logical
    /// content hash identically no matter what order their entries
    /// were inserted in. This is the key the `engine` crate's
    /// content-addressed ordering cache is built on.
    ///
    /// The hash absorbs that encoding a 64-bit word at a time into four
    /// independent lanes and mixes them into 128 bits;
    /// it is stable across runs, platforms and compiler versions (no
    /// `DefaultHasher` seeds). Nothing persists it: it keys in-memory
    /// caches and routes requests to shards.
    ///
    /// Memoised: repeated calls on an unmutated matrix are O(1). Every
    /// mutating path resets the memo.
    pub fn content_hash(&self) -> u128 {
        *self.hash_memo.get_or_init(|| self.compute_content_hash())
    }

    fn compute_content_hash(&self) -> u128 {
        let mut lanes = WordLanes::new();
        // The shape fixes every array's length, so the concatenation
        // below is unambiguous.
        lanes.absorb(&[self.nrows, self.ncols, self.nnz()], |d| d as u64);
        lanes.absorb(&self.rowptr, |p| p as u64);
        lanes.absorb(&self.colidx, u64::from);
        lanes.absorb(&self.values, f64::to_bits);
        lanes.finish()
    }

    /// Apply a batch of structural edge mutations in place.
    ///
    /// Semantics per op are documented on [`EdgeOp`]; within one batch
    /// the **last** op on each `(row, col)` cell wins (so
    /// `[Add e, Remove e]` in a single batch is a plain remove, and
    /// duplicate ops collapse). The rebuild is a streaming merge:
    /// each run of untouched rows is copied verbatim, one slice copy per
    /// array, and touched rows are merged with their (column-sorted)
    /// ops, so the whole batch costs `O(nnz + ops log ops)`; the
    /// pre-delta hash is taken only once the batch is known to change
    /// something.
    ///
    /// On success the matrix records a [`LineageHop`] — the pre-delta
    /// content hash plus the touched endpoints — and invalidates the
    /// hash memo. A batch that changes nothing (all no-ops) records no
    /// hop and keeps the memo. Out-of-bounds indices fail the whole
    /// batch before anything is modified.
    pub fn apply_delta(&mut self, ops: &[EdgeOp]) -> Result<DeltaReport, SparseError> {
        // Dedupe to last-op-wins per cell; BTreeMap iteration then
        // yields ops grouped by row with columns ascending, exactly the
        // order the merge below consumes.
        let mut per_cell: BTreeMap<(usize, usize), EdgeOp> = BTreeMap::new();
        for op in ops {
            let (row, col) = op.cell();
            if row >= self.nrows || col >= self.ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row,
                    col,
                    nrows: self.nrows,
                    ncols: self.ncols,
                });
            }
            per_cell.insert((row, col), *op);
        }
        let mut report = DeltaReport::default();
        if per_cell.is_empty() {
            return Ok(report);
        }

        let mut touched: Vec<u32> = Vec::new();
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colidx: Vec<ColIdx> = Vec::with_capacity(self.nnz() + per_cell.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.nnz() + per_cell.len());
        // Rows before `next` are written.
        let mut next = 0usize;
        let mut cells = per_cell.iter().peekable();
        while let Some(&(&(i, _), _)) = cells.peek() {
            self.copy_rows(next..i, &mut rowptr, &mut colidx, &mut values);
            let (cols, vals) = self.row(i);
            let mut k = 0usize;
            while let Some((&(row, col), op)) = cells.next_if(|&(&(row, _), _)| row == i) {
                // Flush existing entries strictly left of the op column.
                while k < cols.len() && (cols[k] as usize) < col {
                    colidx.push(cols[k]);
                    values.push(vals[k]);
                    k += 1;
                }
                let present = k < cols.len() && cols[k] as usize == col;
                match (op, present) {
                    (EdgeOp::Add { .. }, true) | (EdgeOp::Remove { .. }, false) => {
                        report.noops += 1;
                        if present {
                            colidx.push(cols[k]);
                            values.push(vals[k]);
                            k += 1;
                        }
                    }
                    (EdgeOp::Add { value, .. }, false) => {
                        colidx.push(col as ColIdx);
                        values.push(*value);
                        report.added += 1;
                        touched.push(row as u32);
                        touched.push(col as u32);
                    }
                    (EdgeOp::Remove { .. }, true) => {
                        k += 1; // skip the stored entry
                        report.removed += 1;
                        touched.push(row as u32);
                        touched.push(col as u32);
                    }
                }
            }
            colidx.extend_from_slice(&cols[k..]);
            values.extend_from_slice(&vals[k..]);
            rowptr.push(colidx.len());
            next = i + 1;
        }
        self.copy_rows(next..self.nrows, &mut rowptr, &mut colidx, &mut values);

        if !report.changed() {
            return Ok(report);
        }
        let parent = self.content_hash();
        touched.sort_unstable();
        touched.dedup();
        report.touched_rows = touched.clone();
        self.rowptr = rowptr;
        self.colidx = colidx;
        self.values = values;
        self.hash_memo.take();
        self.lineage.push(LineageHop { parent, touched });
        if self.lineage.len() > LINEAGE_CAP {
            self.lineage.remove(0);
        }
        Ok(report)
    }

    /// Append rows `rows` of `self` unchanged to a matrix being built:
    /// one slice copy per array, the row pointers shifted by where the
    /// run lands.
    fn copy_rows(
        &self,
        rows: Range<usize>,
        rowptr: &mut Vec<usize>,
        colidx: &mut Vec<ColIdx>,
        values: &mut Vec<f64>,
    ) {
        let (lo, hi) = (self.rowptr[rows.start], self.rowptr[rows.end]);
        let base = colidx.len();
        colidx.extend_from_slice(&self.colidx[lo..hi]);
        values.extend_from_slice(&self.values[lo..hi]);
        rowptr.extend(
            self.rowptr[rows.start + 1..=rows.end]
                .iter()
                .map(|&p| p - lo + base),
        );
    }

    /// The content hash of the matrix this one was most recently
    /// derived from via [`CsrMatrix::apply_delta`], if any.
    pub fn parent_hash(&self) -> Option<u128> {
        self.lineage.last().map(|hop| hop.parent)
    }

    /// The recorded mutation ancestry, oldest hop first (bounded by
    /// [`LINEAGE_CAP`]). `lineage().last()` is the immediate parent.
    pub fn lineage(&self) -> &[LineageHop] {
        &self.lineage
    }

    /// The oldest recorded ancestor's hash — a stable identity across a
    /// (bounded) chain of deltas, used for lineage-affine routing.
    pub fn lineage_root(&self) -> Option<u128> {
        self.lineage.first().map(|hop| hop.parent)
    }
}

/// The content hash's state: four 64-bit lanes, word `k` of each
/// absorbed slice feeding lane `k % 4`, each lane an xxHash64-style
/// round (`acc + word·P2`, rotate, `·P1`).
///
/// A round is a bijection of the lane for a fixed word and of the word
/// for a fixed lane, and [`WordLanes::finish`] is a bijection of each
/// lane for the other three fixed, so two encodings of equal length
/// that differ in one word always hash differently. The four
/// dependency chains are independent, so the multiplies of consecutive
/// words overlap.
struct WordLanes([u64; 4]);

// xxHash64's primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

impl WordLanes {
    fn new() -> Self {
        WordLanes([P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()])
    }

    fn round(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }

    fn absorb<T: Copy>(&mut self, words: &[T], word: impl Fn(T) -> u64) {
        let mut lanes = self.0;
        let mut quads = words.chunks_exact(4);
        for quad in &mut quads {
            for (lane, &w) in lanes.iter_mut().zip(quad) {
                *lane = Self::round(*lane, word(w));
            }
        }
        for (lane, &w) in lanes.iter_mut().zip(quads.remainder()) {
            *lane = Self::round(*lane, word(w));
        }
        self.0 = lanes;
    }

    /// The 128-bit final mix: each half folds all four lanes, in
    /// opposite orders, and is avalanched on its own, so each half
    /// depends on every lane and the two are not one value twice.
    /// Every step of a fold is a bijection of the lane it takes in.
    fn finish(self) -> u128 {
        let merge = |acc: u64, lane: u64| {
            (acc ^ Self::round(0, lane))
                .wrapping_mul(P1)
                .wrapping_add(P4)
        };
        let avalanche = |mut h: u64| {
            h ^= h >> 33;
            h = h.wrapping_mul(P2);
            h ^= h >> 29;
            h = h.wrapping_mul(P3);
            h ^ (h >> 32)
        };
        let [a, b, c, d] = self.0;
        let lo = avalanche([a, b, c, d].into_iter().fold(P3, merge));
        let hi = avalanche([d, c, b, a].into_iter().fold(P4, merge));
        ((hi as u128) << 64) | lo as u128
    }
}

/// Longest row [`remap_row`] rank-places; longer ones are staged and
/// sorted. Every matrix the serving benchmark gates has 1–7 entries a
/// row.
const RANK_PLACE_MAX: usize = 8;

/// Write one row — `cols`/`vals`, every column sent through
/// `perm.old_to_new` — in ascending new-column order into `co`/`vo`
/// (each exactly the row's length).
///
/// A short row is *rank-placed*: entry `k` goes to slot
/// `#{mapped columns < its own}`. The columns of a CSR row are unique
/// and `old_to_new` is injective, so the mapped keys are unique, the
/// ranks are a permutation of `0..len`, and every output slot is
/// written exactly once — with a fixed count of compares per entry and
/// no data-dependent branch, where a sort of scrambled keys mispredicts
/// its way through. A long row is staged and sorted; on unique keys
/// `sort_unstable` is deterministic, and both arms produce the one
/// ascending order there is.
fn remap_row(
    perm: &Permutation,
    cols: &[ColIdx],
    vals: &[f64],
    co: &mut [ColIdx],
    vo: &mut [f64],
    staged: &mut Vec<(ColIdx, f64)>,
) {
    let len = cols.len();
    if len <= RANK_PLACE_MAX {
        // The padding is never *below* a key, so it never counts. Built
        // slot by slot rather than filled in a loop that stops at `len`,
        // the array is whole before the compares read it as vectors.
        let keys: [ColIdx; RANK_PLACE_MAX] = std::array::from_fn(|k| {
            cols.get(k)
                .map_or(ColIdx::MAX, |&c| perm.old_to_new(c as usize) as ColIdx)
        });
        for (&key, &v) in keys[..len].iter().zip(vals) {
            let rank = keys.iter().filter(|&&other| other < key).count();
            co[rank] = key;
            vo[rank] = v;
        }
    } else {
        staged.clear();
        staged.extend(
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| (perm.old_to_new(c as usize) as ColIdx, v)),
        );
        staged.sort_unstable_by_key(|&(c, _)| c);
        for ((c_out, v_out), &(c, v)) in co.iter_mut().zip(vo.iter_mut()).zip(staged.iter()) {
            *c_out = c;
            *v_out = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(0, 0, 3.0);
        coo.push(0, 1, 4.0); // duplicate, summed
        let a = CsrMatrix::from_coo(&coo);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), Some(6.0));
        assert_eq!(a.get(0, 0), Some(3.0));
        assert_eq!(a.get(1, 1), Some(1.0));
        a.validate().unwrap();
    }

    #[test]
    fn row_access() {
        let a = small();
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 5.0]);
        assert_eq!(a.row_nnz(1), 1);
    }

    #[test]
    fn spmv_dense_reference() {
        let a = small();
        let y = a.spmv_dense(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let t = a.transpose();
        t.validate().unwrap();
        assert_eq!(t.get(0, 2), Some(4.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn identity_matrix() {
        let i = CsrMatrix::identity(4);
        i.validate().unwrap();
        assert_eq!(i.nnz(), 4);
        let y = i.spmv_dense(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn permute_symmetric_reverse() {
        let a = small();
        let p = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let b = a.permute_symmetric(&p).unwrap();
        b.validate().unwrap();
        // Old (2,2)=5 moves to (0,0); old (0,2)=2 moves to (2,0).
        assert_eq!(b.get(0, 0), Some(5.0));
        assert_eq!(b.get(2, 0), Some(2.0));
        assert_eq!(b.get(1, 1), Some(3.0));
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn permute_symmetric_identity_is_noop() {
        let a = small();
        let p = Permutation::identity(3);
        assert_eq!(a.permute_symmetric(&p).unwrap(), a);
    }

    #[test]
    fn permute_rows_only() {
        let a = small();
        let p = Permutation::from_new_to_old(vec![1, 2, 0]).unwrap();
        let b = a.permute_rows(&p);
        b.validate().unwrap();
        // New row 0 is old row 1.
        assert_eq!(b.get(0, 1), Some(3.0));
        assert_eq!(b.get(1, 0), Some(4.0));
        assert_eq!(b.get(2, 2), Some(2.0));
    }

    #[test]
    fn permute_cols_only() {
        let a = small();
        let p = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let b = a.permute_cols(&p);
        b.validate().unwrap();
        // Old column 0 moves to column 2.
        assert_eq!(b.get(0, 2), Some(1.0));
        assert_eq!(b.get(0, 0), Some(2.0));
    }

    #[test]
    fn from_parts_rejects_bad_structure() {
        // Non-monotone rowptr.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
        // Unsorted columns.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Duplicate columns.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Length mismatch.
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![0], vec![]).is_err());
    }

    #[test]
    fn diagonal_and_get() {
        let a = small();
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
        assert_eq!(a.get(0, 1), None);
    }

    #[test]
    fn csr_bytes_accounting() {
        let a = small();
        assert_eq!(a.csr_bytes(), 5 * 8 + 5 * 4 + 4 * 8);
    }

    #[test]
    fn content_hash_is_stable_across_insertion_order() {
        // The same logical matrix built from COO triplets pushed in
        // three different orders must hash identically: CSR is the
        // canonical form, so the hash is insertion-order independent.
        let triplets = [
            (0usize, 0usize, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ];
        let build = |order: &[usize]| {
            let mut coo = CooMatrix::new(3, 3);
            for &k in order {
                let (i, j, v) = triplets[k];
                coo.push(i, j, v);
            }
            CsrMatrix::from_coo(&coo).content_hash()
        };
        let h1 = build(&[0, 1, 2, 3, 4]);
        let h2 = build(&[4, 3, 2, 1, 0]);
        let h3 = build(&[2, 0, 4, 1, 3]);
        assert_eq!(h1, h2);
        assert_eq!(h1, h3);
    }

    #[test]
    fn content_hash_distinguishes_content() {
        let a = small();
        // Different value, same pattern.
        let mut b = a.clone();
        b.values_mut()[0] += 1.0;
        assert_ne!(a.content_hash(), b.content_hash());
        // Different pattern, same nnz.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        let c = CsrMatrix::from_coo(&coo);
        assert_ne!(a.content_hash(), c.content_hash());
        // Same nonzeros, different dimensions.
        let mut coo4 = CooMatrix::new(4, 4);
        for (i, j, v) in a.iter() {
            coo4.push(i, j, v);
        }
        let d = CsrMatrix::from_coo(&coo4);
        assert_ne!(a.content_hash(), d.content_hash());
        // Identical content hashes identically (fresh clone).
        assert_eq!(a.content_hash(), a.clone().content_hash());
    }

    #[test]
    fn content_hash_is_equal_for_equal_content_however_reached() {
        let a = small();
        let h = a.content_hash();
        let parts = CsrMatrix::from_parts(
            3,
            3,
            a.rowptr().to_vec(),
            a.colidx().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        assert_eq!(parts.content_hash(), h, "from_parts");
        assert_eq!(a.clone().content_hash(), h, "clone");
        let mut round_trip = a.clone();
        let (row, col) = (1, 2);
        let add = EdgeOp::Add {
            row,
            col,
            value: 9.0,
        };
        assert!(round_trip.apply_delta(&[add]).unwrap().changed());
        assert_ne!(round_trip.content_hash(), h);
        assert!(round_trip
            .apply_delta(&[EdgeOp::Remove { row, col }])
            .unwrap()
            .changed());
        assert_eq!(round_trip.content_hash(), h, "apply_delta add then remove");
    }

    #[test]
    fn content_hash_differs_under_each_single_change() {
        let hash = |nrows, ncols, rowptr: &[usize], colidx: &[u32], values: &[f64]| {
            CsrMatrix::from_parts(
                nrows,
                ncols,
                rowptr.to_vec(),
                colidx.to_vec(),
                values.to_vec(),
            )
            .unwrap()
            .content_hash()
        };
        // [ 0 2 . ]
        // [ . . 3 ]
        let base = hash(2, 3, &[0, 2, 3], &[0, 1, 2], &[0.0, 2.0, 3.0]);
        // One value's sign bit: 0.0 and -0.0 compare equal, but are
        // different content.
        assert_ne!(hash(2, 3, &[0, 2, 3], &[0, 1, 2], &[-0.0, 2.0, 3.0]), base);
        // One column moved within its row.
        assert_ne!(hash(2, 3, &[0, 2, 3], &[0, 2, 2], &[0.0, 2.0, 3.0]), base);
        // The entry (0, 1) moved to the next row: the same `colidx` and
        // `values`, `rowptr` shifted.
        assert_ne!(hash(2, 3, &[0, 1, 3], &[0, 1, 2], &[0.0, 2.0, 3.0]), base);
        // The same entries' arrays read as 3×2: `rowptr` gains the
        // empty third row, `colidx` and `values` are unchanged.
        assert_ne!(
            hash(2, 3, &[0, 1, 2], &[1, 0], &[1.0, 2.0]),
            hash(3, 2, &[0, 1, 2, 2], &[1, 0], &[1.0, 2.0])
        );
    }

    #[test]
    fn content_hash_memo_never_goes_stale() {
        // Regression: the hash is memoised, so every in-place mutation
        // path must invalidate the memo or a stale hash would be served.
        let mut a = small();
        let h0 = a.content_hash();
        assert_eq!(a.content_hash(), h0, "memoised re-read must agree");

        // values_mut invalidates even if the caller writes nothing...
        let _ = a.values_mut();
        assert_eq!(a.content_hash(), h0, "same content, same hash");
        // ...and a real write rehashes to something new.
        a.values_mut()[0] += 1.0;
        let h1 = a.content_hash();
        assert_ne!(h0, h1);

        // apply_delta invalidates on structural change.
        let report = a
            .apply_delta(&[EdgeOp::Add {
                row: 1,
                col: 2,
                value: 9.0,
            }])
            .unwrap();
        assert!(report.changed());
        let h2 = a.content_hash();
        assert_ne!(h1, h2);

        // A pure no-op batch keeps both content and hash.
        let report = a
            .apply_delta(&[
                EdgeOp::Add {
                    row: 1,
                    col: 2,
                    value: 123.0,
                },
                EdgeOp::Remove { row: 0, col: 1 },
            ])
            .unwrap();
        assert_eq!(report.noops, 2);
        assert!(!report.changed());
        assert_eq!(a.content_hash(), h2);
    }

    #[test]
    fn apply_delta_add_and_remove() {
        let mut a = small();
        let before = a.clone();
        let report = a
            .apply_delta(&[
                EdgeOp::Add {
                    row: 0,
                    col: 1,
                    value: 7.0,
                },
                EdgeOp::Remove { row: 2, col: 0 },
                EdgeOp::Add {
                    row: 1,
                    col: 1,
                    value: -1.0,
                }, // exists: structural no-op, value kept
            ])
            .unwrap();
        a.validate().unwrap();
        assert_eq!((report.added, report.removed, report.noops), (1, 1, 1));
        // Both endpoints of each effective op are reported.
        assert_eq!(report.touched_rows, vec![0, 1, 2]);
        assert_eq!(a.get(0, 1), Some(7.0));
        assert_eq!(a.get(2, 0), None);
        assert_eq!(a.get(1, 1), Some(3.0), "add on existing keeps value");
        assert_eq!(a.nnz(), before.nnz());
        // Lineage points at the pre-delta hash.
        assert_eq!(a.parent_hash(), Some(before.content_hash()));
        assert_eq!(a.lineage().len(), 1);
        assert_eq!(a.lineage()[0].touched, vec![0, 1, 2]);
    }

    #[test]
    fn apply_delta_last_op_wins_within_batch() {
        let mut a = small();
        let report = a
            .apply_delta(&[
                EdgeOp::Add {
                    row: 0,
                    col: 1,
                    value: 7.0,
                },
                EdgeOp::Remove { row: 0, col: 1 },
            ])
            .unwrap();
        // Collapses to a remove of an absent entry: a no-op.
        assert!(!report.changed());
        assert_eq!(report.noops, 1);
        assert_eq!(a, small());
    }

    #[test]
    fn apply_delta_rejects_out_of_bounds() {
        let mut a = small();
        let before = a.clone();
        let err = a
            .apply_delta(&[
                EdgeOp::Add {
                    row: 0,
                    col: 1,
                    value: 7.0,
                },
                EdgeOp::Remove { row: 5, col: 0 },
            ])
            .unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 5, .. }));
        // The whole batch fails before anything is modified.
        assert_eq!(a, before);
        assert!(a.lineage().is_empty());
    }

    #[test]
    fn lineage_chain_is_bounded() {
        let mut a = small();
        let root = a.content_hash();
        let mut hashes = vec![root];
        for k in 0..LINEAGE_CAP + 3 {
            let on = k % 2 == 0;
            let op = if on {
                EdgeOp::Add {
                    row: 1,
                    col: 0,
                    value: k as f64 + 1.0,
                }
            } else {
                EdgeOp::Remove { row: 1, col: 0 }
            };
            assert!(a.apply_delta(&[op]).unwrap().changed());
            hashes.push(a.content_hash());
        }
        assert_eq!(a.lineage().len(), LINEAGE_CAP);
        // Newest hop is the immediate parent; the root has rolled off.
        let n = hashes.len();
        assert_eq!(a.parent_hash(), Some(hashes[n - 2]));
        assert_eq!(a.lineage_root(), Some(hashes[n - 1 - LINEAGE_CAP]));
        // Clones carry the lineage; fresh builds have none.
        assert_eq!(a.clone().lineage(), a.lineage());
        assert!(small().parent_hash().is_none());
    }

    #[test]
    fn iter_yields_row_major() {
        let a = small();
        let all: Vec<_> = a.iter().collect();
        assert_eq!(
            all,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0)
            ]
        );
    }
}
