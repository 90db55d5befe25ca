//! # obsv — the live ops plane
//!
//! Everything the rest of the workspace *measures* (the `telemetry`
//! registry, the flight recorder, the stage board), this crate makes
//! *operable on a live process*: an embedded, dependency-free HTTP
//! server, per-tenant SLO / error-budget accounting, and a continuous
//! logical-stage profiler. The paper's discipline — conclusions about
//! reordering hinge on careful measurement — applied at serving time,
//! scrapeable while the tier is under load instead of post-mortem via
//! file dumps.
//!
//! Three subsystems:
//!
//! 1. **[`ObsvServer`]** — a std-only HTTP server (`TcpListener`, a
//!    bounded accept loop, graceful shutdown on drop) exposing:
//!
//!    | route | body |
//!    |---|---|
//!    | `GET /metrics` | Prometheus text exposition of the registry |
//!    | `GET /stats.json` | JSON registry snapshot |
//!    | `GET /healthz` | process liveness + uptime + source detail |
//!    | `GET /readyz` | 200/503 from the tier's readiness state |
//!    | `GET /slo.json` | per-tenant error budgets and burn rates |
//!    | `GET /traces` | index of sampled request traces |
//!    | `GET /traces/<id>` | one request's Chrome-trace JSON |
//!    | `GET /profile?seconds=N` | collapsed-stack flamegraph sample |
//!
//!    Tier-specific answers (readiness, trace lookup) come through the
//!    [`OpsSource`] trait so this crate depends only on `telemetry`;
//!    `servetier` implements the trait for `ServeTier`.
//!
//! 2. **[`SloTracker`]** — rolling error budgets. Each [`SloSpec`]
//!    declares a per-tenant latency threshold and an objective (the
//!    fraction of requests that must be served under it); the tracker
//!    reads the existing `tier.request{tenant}` histograms and
//!    `tier.shed_tenant{tenant}` counters on every [`SloTracker::tick`]
//!    and publishes `slo.budget_remaining{tenant}` (basis points) and
//!    `slo.burn_rate{tenant,window}` (milli-burns) gauges — so budgets
//!    show up in `/metrics` as well as `/slo.json` with no extra
//!    wiring.
//!
//! 3. **[`profile_for`]** — the continuous profiler: enables the
//!    stage board ([`telemetry::StageSession`], ref-counted so
//!    overlapping profiles compose), samples every registered thread's
//!    stage stack at ~100 Hz, and folds the samples into
//!    collapsed-stack lines (`thread;stage;substage count`) that any
//!    flamegraph renderer accepts. When no profile is running the
//!    stage board costs one relaxed atomic load per span — the same
//!    "cheap when idle" bound as the tracing gates, pinned under 2% of
//!    an SpMV iteration in `crates/spmv`.

mod http;
mod profile;
mod server;
mod slo;

pub use profile::{profile_for, ProfileReport};
pub use server::{ObsvConfig, ObsvServer, OpsSource, MAX_CONNECTIONS};
pub use slo::{SloConfig, SloSpec, SloTicker, SloTracker, TenantSlo};
