#![allow(clippy::needless_range_loop)]

//! Order-sensitive matrix features and statistical machinery (§3.2,
//! §4.5 of the paper).
//!
//! Four features explain how a reordering affects SpMV:
//!
//! - **bandwidth** — the largest distance of any nonzero to the main
//!   diagonal;
//! - **profile** — the summed distance from each row's leftmost entry
//!   to the diagonal;
//! - **off-diagonal nonzero count** — nonzeros outside the t×t diagonal
//!   blocks of an even row split, which coincides with the edge-cut
//!   objective of graph partitioning;
//! - **load imbalance factor** — max/mean nonzeros per thread of the 1D
//!   row split (re-exported from the `spmv` crate).
//!
//! The crate also provides Dolan–Moré performance profiles (Fig. 5) and
//! the summary statistics used throughout the evaluation (geometric
//! means for Tables 3–4, box-plot quartiles for Figs. 2, 3 and 6).

mod features;
mod profiles;
mod stats;

pub use features::{
    bandwidth, matrix_features, off_diagonal_nnz, profile, row_length_variance, x_reuse_estimate,
    MatrixFeatures,
};
pub use profiles::{performance_profile, ProfileCurve};
pub use spmv::imbalance_factor;
pub use stats::{geometric_mean, quartiles, spearman, BoxStats};
