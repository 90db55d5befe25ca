//! # reorder-study
//!
//! A from-scratch Rust reproduction of *Bringing Order to Sparsity: A
//! Sparse Matrix Reordering Study on Multicore CPUs* (SC '23).
//!
//! This umbrella crate re-exports the public API of the workspace:
//!
//! - [`sparsemat`] — CSR/CSC/COO formats, permutations, Matrix Market I/O;
//! - [`sparsegraph`] — matrix graphs, BFS, pseudo-peripheral vertices,
//!   column-net hypergraphs;
//! - [`partition`] — multilevel graph and hypergraph partitioning
//!   (METIS / PaToH stand-ins) and vertex separators;
//! - [`reorder`] — the six orderings of the study: RCM, AMD, ND, GP,
//!   HP and Gray;
//! - [`spmv`] — the 1D (row-split), 2D (nonzero-split) and merge-based
//!   parallel CSR SpMV kernels behind a unified [`spmv::Kernel`] trait,
//!   the persistent [`spmv::ThreadTeam`] executor and the measurement
//!   harness;
//! - [`spfeatures`] — bandwidth, profile, off-diagonal nonzero count,
//!   imbalance factor, performance profiles and summary statistics;
//! - [`cholesky`] — elimination trees, Gilbert–Ng–Peyton fill counts
//!   and a reference numeric factorisation;
//! - [`archsim`] — the eight-machine execution-cost model (Table 2);
//! - [`corpus`] — the synthetic SuiteSparse stand-in collection;
//! - [`engine`] — reordering-as-a-service: a content-addressed
//!   ordering cache whose misses are computed on the calling thread,
//!   with request coalescing (the §4.7 amortisation argument,
//!   operationalised);
//! - [`servetier`] — the sharded, admission-controlled serving tier on
//!   top of [`engine`]: consistent-hash routing, weighted-fair bounded
//!   admission with deadlines and load-shedding, and end-to-end SpMV
//!   answers delivered in the caller's original index space;
//! - [`telemetry`] — counters, gauges and log-linear latency
//!   histograms behind a process-wide registry, with JSON and
//!   Prometheus exporters, plus the request-scoped flight recorder and
//!   live stage board (see README § Observability).
//!
//! # Quickstart
//!
//! ```
//! use reorder_study::prelude::*;
//!
//! // Build a matrix whose natural order has been destroyed.
//! let a = corpus::scramble(&corpus::mesh2d(40, 40), 7);
//!
//! // Reorder it with graph partitioning (the study's overall winner).
//! let result = Gp::new(8).compute(&a).unwrap();
//! let b = result.apply(&a).unwrap();
//!
//! // The off-diagonal nonzero count — the feature that §4.5 found most
//! // predictive of SpMV performance — drops sharply.
//! assert!(off_diagonal_nnz(&b, 8) < off_diagonal_nnz(&a, 8) / 2);
//!
//! // And SpMV still computes the same thing, on a persistent team.
//! let x = vec![1.0; a.ncols()];
//! let team = ThreadTeam::new(4);
//! let plan = Plan::rows(&b, 4);
//! let mut y = vec![0.0; b.nrows()];
//! execute(&b, &plan, &team, &x, &mut y);
//! ```

pub use archsim;
pub use cholesky;
pub use corpus;
pub use engine;
pub use partition;
pub use reorder;
pub use servetier;
pub use sparsegraph;
pub use sparsemat;
pub use spfeatures;
pub use spmv;
pub use telemetry;

/// Convenience re-exports of the most used items.
pub mod prelude {
    pub use archsim::{machine_by_name, machines, simulate_spmv_1d, simulate_spmv_2d};
    pub use cholesky::{cholesky_factor, column_counts, fill_ratio};
    pub use corpus;
    pub use engine::{AlgoSpec, Engine, EngineConfig, EngineStats, MatrixHandle};
    pub use reorder::{
        all_algorithms, Amd, Gp, Gray, Hp, Nd, Original, Rcm, ReorderAlgorithm, ReorderResult,
    };
    pub use servetier::{ServeTier, SpmvRequest, TenantSpec, TierConfig};
    pub use sparsemat::{CooMatrix, CsrMatrix, Permutation};
    pub use spfeatures::{
        bandwidth, geometric_mean, imbalance_factor, matrix_features, off_diagonal_nnz,
        performance_profile, profile, quartiles, spearman,
    };
    pub use spmv::{execute, measure_spmv, Kernel, KernelKind, MeasureConfig, Plan, ThreadTeam};
}
