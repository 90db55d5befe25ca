//! The plan cache's key and stats: planned SpMV kernels are cached by
//! `(matrix content hash, kernel kind, thread count)` in an
//! [`LruCache`](crate::LruCache) reporting `engine.plans.*`.
//!
//! Cached kernels hold the matrix by `Arc` (see
//! [`spmv::Kernel::matrix`]), so handing a plan out shares the payload
//! instead of cloning it — and so an entry pins its matrix until the
//! LRU lets go of it.
//!
//! No served request comes here. The serving tier used to key this
//! cache by a fresh content hash of every permuted matrix, an O(nnz)
//! pass to find a kernel cut in O(spans); its prepared entry now cuts
//! and owns its kernels, and [`Engine::plan`](crate::Engine::plan) is
//! left for callers that hold a [`MatrixHandle`](crate::MatrixHandle)
//! anyway — today the system benchmark alone (ROADMAP item 2).

use spmv::KernelKind;

/// Entries the plan cache holds: one per distinct (matrix, kernel,
/// thread count) recently planned.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 256;

/// Cache key for a planned kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// `CsrMatrix::content_hash()` of the matrix the plan was built for.
    pub matrix_hash: u128,
    /// Kernel family.
    pub kernel: KernelKind,
    /// Requested thread count (the plan's effective count may be
    /// lower; the requested value keys the cache so lookups are exact).
    pub nthreads: usize,
}

/// Point-in-time plan-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plans served from memory.
    pub hits: u64,
    /// Plans built afresh.
    pub misses: u64,
    /// Plans evicted by the LRU policy.
    pub evictions: u64,
}
