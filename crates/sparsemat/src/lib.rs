#![allow(clippy::needless_range_loop)]

//! Sparse matrix substrate: storage formats, conversions, permutations,
//! symmetrisation and Matrix Market I/O.
//!
//! This crate provides the data-structure layer used throughout the
//! reproduction of *Bringing Order to Sparsity* (SC '23). Matrices are
//! stored in the compressed sparse row (CSR) format described in §3.1 of
//! the paper: row pointers, 32-bit column offsets and double-precision
//! values. A coordinate (COO) builder is provided for construction.
//!
//! # Example
//!
//! ```
//! use sparsemat::{CooMatrix, CsrMatrix};
//!
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0);
//! coo.push(1, 1, 3.0);
//! coo.push(2, 0, -1.0);
//! coo.push(2, 2, 4.0);
//! let a = CsrMatrix::from_coo(&coo);
//! assert_eq!(a.nnz(), 4);
//! let y = a.spmv_dense(&[1.0, 1.0, 1.0]);
//! assert_eq!(y, vec![2.0, 3.0, 3.0]);
//! ```

mod coo;
mod csr;
mod dense;
mod error;
mod market;
mod permutation;
mod spy;
mod symmetrize;

pub use coo::CooMatrix;
pub use csr::{CsrMatrix, DeltaReport, EdgeOp, LineageHop, LINEAGE_CAP};
pub use dense::{axpy, dot, norm2};
pub use error::SparseError;
pub use market::{read_matrix_market, read_matrix_market_str, write_matrix_market, MarketHeader};
pub use permutation::Permutation;
pub use spy::{spy_string, SpyOptions};
pub use symmetrize::{is_structurally_symmetric, symmetrize_pattern, symmetrize_pattern_on};

/// Column index type used in CSR/CSC storage.
///
/// The paper stores column offsets as 32-bit integers (§4.1); we do the
/// same, which bounds matrix dimensions to `u32::MAX`.
pub type ColIdx = u32;
