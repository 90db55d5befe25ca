#![allow(clippy::needless_range_loop)]

//! Sparse matrix reordering algorithms — the core contribution layer of
//! the study.
//!
//! Implements the six orderings evaluated in *Bringing Order to
//! Sparsity* (SC '23, Table 1):
//!
//! | Short name | Algorithm | Module |
//! |-----------|-----------|--------|
//! | RCM  | Reverse Cuthill–McKee                     | [`rcm`]  |
//! | AMD  | Approximate minimum degree                | [`amd`]  |
//! | ND   | Nested dissection                         | [`nd`]   |
//! | GP   | Graph partitioning (edge-cut, METIS-like) | [`gp`]   |
//! | HP   | Hypergraph partitioning (cut-net, PaToH-like) | [`hp`] |
//! | Gray | Gray code ordering (Zhao et al.)          | [`gray`] |
//!
//! All algorithms are exposed behind the [`ReorderAlgorithm`] trait.
//! RCM, AMD, ND and GP are *symmetric* orderings (the same permutation
//! is applied to rows and columns) computed on the graph of `A + Aᵀ`
//! when the pattern is unsymmetric; HP is symmetric as well; Gray
//! permutes only the rows (§3.3).
//!
//! # Example
//!
//! ```
//! use reorder::{Rcm, ReorderAlgorithm};
//! use sparsemat::{CooMatrix, CsrMatrix};
//!
//! // An arrow matrix: RCM reduces its bandwidth dramatically.
//! let n = 8;
//! let mut coo = CooMatrix::new(n, n);
//! for i in 0..n {
//!     coo.push(i, i, 4.0);
//!     if i > 0 {
//!         coo.push_symmetric(0, i, -1.0);
//!     }
//! }
//! let a = CsrMatrix::from_coo(&coo);
//! let result = Rcm::default().compute(&a).unwrap();
//! let b = result.apply(&a).unwrap();
//! assert_eq!(b.nnz(), a.nnz());
//! ```

pub mod amd;
mod component;
mod exec;
pub mod gp;
pub mod gps;
pub mod gray;
pub mod hp;
pub mod nd;
pub mod rcm;
mod traits;

pub use amd::{amd_order_on, amd_order_single, Amd, AmdStats, DEFAULT_AMD_ROUND_MIN};
pub use component::{splice_ordering_on, ComponentOrdering, ComponentRange, SpliceReport};
pub use exec::{build_ordering_graph, ReorderExec};
pub use gp::Gp;
pub use gps::Gps;
pub use gray::{Gray, GrayParams};
pub use hp::Hp;
pub use nd::Nd;
pub use rcm::Rcm;
pub use traits::{
    all_algorithms, timed_components_on, Original, ReorderAlgorithm, ReorderResult,
    TimedComponentReordering, TimedReordering,
};
