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
//!    [`Engine::get`] and [`Engine::stats`]. A miss is a lookup, a
//!    deadline check, the computation and an insert, all on the thread
//!    that asked, the computation's parallel stages on the engine's
//!    shared reorder team. A computation that fails or panics answers
//!    [`EngineError::Compute`], and nothing is cached. Two misses on
//!    one key at once would both compute (byte-equal answers; the cache
//!    keeps one), but its one caller makes none: each shard of the
//!    serving tier owns one engine and one dispatcher. (The `paper`
//!    binary computes each of its orderings once and caches none.)
//!
//! Tracing is the caller's: a request submitted with a recording
//! parent context ([`SubmitOptions::trace`]) records its cache lookup
//! and reorder compute under it.
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
