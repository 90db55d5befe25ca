//! # telemetry — the workspace's observability subsystem
//!
//! The paper's contribution is careful *measurement* (§4.1's 100-rep
//! SpMV protocol, per-thread nnz imbalance, Table 5's reordering
//! wall-clock). This crate gives every layer of the workspace one
//! consistent instrumentation surface for the same discipline at
//! serving time:
//!
//! - **Counters and gauges** ([`Counter`], [`Gauge`]) — single relaxed
//!   atomics; a few nanoseconds per event.
//! - **Histograms** ([`Histogram`]) — log-linear buckets (16 per power
//!   of two, ≤ 6.25% quantisation) with exact count/sum/min/max,
//!   lock-free concurrent recording, and shard **merging** so a
//!   measurement loop can aggregate locally and fold into the registry
//!   once.
//! - **Exporters** — JSON snapshots and Prometheus text exposition
//!   ([`Snapshot::to_json`], [`Snapshot::to_prometheus`]).
//! - **Flight recorder** ([`trace`]) — request-scoped tracing: per-
//!   thread drop-oldest event rings, a [`TraceCtx`] propagation handle
//!   that crosses threads with explicit parenting, and Chrome-trace/
//!   Perfetto JSON plus plain-text summary exporters
//!   ([`TraceSnapshot::to_chrome_json`], [`TraceSnapshot::summary`]).
//!   [`TraceCtx::span`] is the one way a request-path stage is marked,
//!   always by a [`Stage`] declared once in [`stages`]:
//!   its [`TraceSpan`] records Begin/End when the context is sampled
//!   and carries the stage-board entry below for every request.
//! - **Stage board** ([`stage()`], [`sample_stages`]) — every open
//!   [`TraceSpan`] (and explicit [`StageGuard`]) publishes its name on
//!   a process-global per-thread stack while a profiling
//!   [`StageSession`] is active, so a sampler can ask "what stage is
//!   every thread in right now" and fold the answers into a live
//!   flamegraph. Disabled (the default), publishing costs one relaxed
//!   atomic load.
//!
//! Metric names are dotted lowercase paths (`engine.cache.hits`);
//! every duration histogram records **nanoseconds**. The full naming
//! scheme and export schemas are documented in the repository README
//! under "Observability".
//!
//! ```
//! use telemetry::Registry;
//!
//! let registry = Registry::new_arc();
//! let hits = registry.counter("engine.cache.hits");
//! hits.add(3);
//! registry.histogram("reorder.rcm").record(1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("engine.cache.hits"), Some(3));
//! assert_eq!(snap.histogram("reorder.rcm").unwrap().count, 1);
//! assert!(snap.to_json().contains("\"engine.cache.hits\":3"));
//! assert!(snap.to_prometheus().contains("engine_cache_hits 3"));
//! ```
//!
//! Production paths share [`Registry::global`]; tests that assert
//! exact counts build private registries so parallel tests cannot
//! interleave.

mod chrome;
mod export;
mod histogram;
mod metrics;
mod registry;
pub mod stage;
pub mod stages;
pub mod trace;

pub use export::json_escape;
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{series_name, Registry, Snapshot};
pub use stage::{sample_stages, stage, stages_enabled, StageGuard, StageSession};
pub use stages::Stage;
pub use trace::{ArgValue, FlightRecorder, TraceCtx, TraceSnapshot, TraceSpan};
