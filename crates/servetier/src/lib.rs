//! # servetier — the sharded, admission-controlled serving front door
//!
//! The `engine` crate amortises reordering cost for one process; this
//! crate turns that into a **serving tier** with the operational
//! properties a shared deployment needs:
//!
//! 1. **Shard routing** ([`HashRing`]): N engine shards, each with its
//!    own ordering/plan caches and reorder team. Requests route by
//!    consistent hash of `CsrMatrix::content_hash`, so one shard owns
//!    each matrix (its caches stay warm) and resizing the tier moves
//!    only a bounded fraction of matrices.
//! 2. **Admission control** ([`AdmissionQueue`]): a bounded per-shard
//!    queue that sheds with a reason ([`ShedReason`]) instead of
//!    building unbounded backlog, dequeues tenants by stride-scheduled
//!    weighted fair sharing, and orders each tenant's lane by priority
//!    then deadline.
//! 3. **Deadlines end to end**: already-expired requests are shed at
//!    submission; expiry at dequeue cancels before any work; the
//!    deadline rides into the engine ([`engine::SubmitOptions`]) so an
//!    expired request never reaches the reorder stage.
//! 4. **Answer delivery** ([`SpmvResponse`]): requests carry an input
//!    vector in original index space; the shard gathers it into the
//!    reordered space and runs SpMV via the cached plan, the kernel
//!    storing each row at its **original** index
//!    ([`spmv::Kernel::execute_scatter`]), so `y` comes back in
//!    original row order — callers never see the reordering at all. A
//!    repeat request finds ordering, reordered matrix and plan in one
//!    shard-local entry and never enters the engine. The `y` is an
//!    [`Answer`], read as a `&[f64]`: its buffer returns to the shard
//!    when the answer drops and is overwritten by a later request.
//!
//! ```
//! use engine::{AlgoSpec, MatrixHandle};
//! use servetier::{ServeTier, SpmvRequest, TenantSpec, TierConfig};
//! use spmv::KernelKind;
//! use std::sync::Arc;
//!
//! let tier = ServeTier::new(TierConfig {
//!     shards: 2,
//!     tenants: vec![TenantSpec::new("t0", 1)],
//!     registry: Some(telemetry::Registry::new_arc()),
//!     ..TierConfig::default()
//! });
//! let matrix = MatrixHandle::from_matrix(corpus::mesh2d(12, 12));
//! let x = Arc::new(vec![1.0; matrix.matrix().ncols()]);
//! let response = tier
//!     .serve(SpmvRequest {
//!         tenant: "t0".into(),
//!         matrix: matrix.clone(),
//!         algo: AlgoSpec::Rcm,
//!         kernel: KernelKind::OneD,
//!         x: Arc::clone(&x),
//!         priority: 0,
//!         deadline: None,
//!     })
//!     .unwrap();
//! // The answer is in original index order, as if no reordering ran.
//! let reference = matrix.matrix().spmv_dense(&x);
//! for (got, want) in response.y.iter().zip(&reference) {
//!     assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()));
//! }
//! ```

mod admission;
mod hash;
mod tier;

pub use admission::{AdmissionQueue, PushError};
pub use hash::HashRing;
pub use policy::{PolicyConfig, PolicyMode};
pub use tier::{
    Answer, ServeTier, ShardStats, ShedReason, SpmvRequest, SpmvResponse, TenantSpec, TierConfig,
    TierError, TierStats, TierTicket,
};
