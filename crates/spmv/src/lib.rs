#![allow(clippy::needless_range_loop)]

//! Shared-memory parallel CSR SpMV kernels — the measurement kernels of
//! the study (§3.1).
//!
//! A kernel is a way of *cutting* the matrix into one span per thread;
//! the spans are then executed by one loop. Three cuts are provided:
//!
//! - the **1D algorithm** ([`Plan::rows`]) partitions the *rows* into
//!   equal-sized contiguous blocks (what `#pragma omp for` with static
//!   scheduling does). Simple, but load-imbalanced whenever nonzeros
//!   are unevenly distributed over rows.
//! - the **2D algorithm** ([`Plan::nonzeros`]) partitions the
//!   *nonzeros* equally. A span may stop mid-row; the partial sum is
//!   carried to the span holding the row's end after the parallel
//!   region, avoiding write races on `y`. The paper calls this a
//!   simplified form of merge-based SpMV (Merrill & Garland).
//! - **merge-based SpMV** ([`Plan::merge_path`], the full Merrill &
//!   Garland formulation) splits *rows + nonzeros* evenly and serves
//!   as the baseline the 2D algorithm simplifies.
//!
//! A [`Plan`] precomputes the cut for a given matrix and thread count;
//! the paper likewise treats partitioning as a one-time preprocessing
//! cost excluded from measurements. [`KernelKind`] selects the cut,
//! the object-safe [`Kernel`] trait pairs it with its matrix, and
//! everything executes on a persistent [`ThreadTeam`] — long-lived
//! workers dispatched through a spin-then-park barrier — so repeated
//! SpMV calls pay zero thread-spawn overhead.

mod exec;
mod kernel;
mod measure;
mod plan;
mod team;

pub use exec::execute;
pub use kernel::{Kernel, KernelKind};
pub use measure::{host_threads, measure_spmv, measure_spmv_in, MeasureConfig, SpmvMeasurement};
pub use plan::{imbalance_factor, Plan, Segment, Span, MAX_RUN_LEN, MIN_RUN};
pub use team::ThreadTeam;
