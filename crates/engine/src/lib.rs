//! # engine — reordering as a service
//!
//! The paper's cost argument (§4.7, Table 5) is that a reordering only
//! pays off when its one-time cost is amortised over many SpMV
//! iterations. In a serving setting that means: compute each
//! (matrix, algorithm) ordering **once**, cache it, and hand the same
//! permutation to every subsequent request. This crate turns the
//! workspace's one-shot pipeline into that serving subsystem, in two
//! layers:
//!
//! 1. **Content-addressed cache** (`cache`): keys are
//!    `CsrMatrix::content_hash()` (a stable 128-bit content address
//!    over the canonical CSR form) plus the parameterised algorithm
//!    ([`AlgoSpec`]); values are permutations. An in-memory
//!    [`LruCache`] — the one exact-LRU mechanism every cache in the
//!    workspace is an instance of.
//! 2. **Session API** ([`Engine`]): [`Engine::submit`],
//!    [`Engine::get`] and [`Engine::stats`]. A miss is computed on the
//!    thread that asked, its parallel stages on the engine's shared
//!    reorder team. Concurrent requests for the same key coalesce onto
//!    that one computation and all receive its result; one that fails
//!    or panics answers [`EngineError::Compute`] to all of them, and
//!    nothing is cached. The `experiments` crate's sweep obtains all
//!    orderings through this API, and every shard of the serving tier
//!    owns one engine.
//!
//! Tracing is the caller's: a request submitted with a recording
//! parent context ([`SubmitOptions::trace`]) records its cache lookup
//! and reorder compute under it — or, when it coalesced, its wait.
//!
//! ```
//! use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let m = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(16, 16), 1));
//!
//! // Submissions with duplicates: six unique orderings, twelve requests.
//! let suite = AlgoSpec::study_suite(8, 16);
//! let twice = suite.iter().chain(suite.iter());
//! let results: Vec<_> = twice.map(|&a| engine.get(&m, a).unwrap()).collect();
//!
//! assert_eq!(results.len(), 12);
//! let stats = engine.stats();
//! assert_eq!(stats.jobs_executed, 6); // duplicates were amortised
//! ```

mod algo;
mod cache;
mod engine;
mod lru;
mod plans;

pub use algo::AlgoSpec;
pub use cache::{CacheStats, CachedOrdering};
pub use engine::{
    Engine, EngineConfig, EngineError, EngineStats, MatrixHandle, SubmitOptions, Ticket,
    DEFAULT_CACHE_CAPACITY,
};
pub use lru::{CacheMetrics, LruCache, LruMap};
pub use plans::PlanCacheStats;
