//! The engine facade: the batched session API over the cache and the
//! worker pool.

use crate::cache::{CacheStats, CachedOrdering, OrderingCache, OrderingKey};
use crate::lru::{CacheMetrics, LruCache};
use crate::plans::{PlanCacheStats, PlanKey, PLAN_CACHE_CAPACITY};
use crate::pool::{spawn_pool, InFlight, Job, PoolMetrics, WorkerContext};
use crate::AlgoSpec;
use sparsemat::CsrMatrix;
use spmv::{Kernel, KernelKind};
use std::collections::HashMap;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::trace::{TraceCtx, TraceSpan};
use telemetry::{Counter, Gauge, Histogram, Registry};

/// [`EngineConfig::cache_capacity`]'s default, and the bound the
/// policy layer puts on its per-matrix state so that it forgets a
/// matrix no sooner than the ordering cache does.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads computing reorderings.
    pub workers: usize,
    /// Lanes of the shared reordering [`ThreadTeam`](team::ThreadTeam):
    /// the parallel stages of each ordering (symmetrisation, level-set
    /// expansion, permutation application) dispatch on this team. `1`
    /// keeps every ordering inline on its worker thread (the
    /// sequential path; permutations are byte-identical either way).
    pub reorder_threads: usize,
    /// Bounded job-queue capacity; submissions past this block (back-
    /// pressure).
    pub queue_capacity: usize,
    /// In-memory ordering-cache capacity, in entries.
    pub cache_capacity: usize,
    /// Telemetry registry the engine reports into (`engine.*`,
    /// `reorder.*` series). `None` means the process-wide
    /// [`Registry::global`]; tests that assert exact counts pass a
    /// private registry.
    pub registry: Option<Arc<Registry>>,
    /// Labels stamped on every metric series this engine resolves
    /// (`engine.*`). Several engines sharing one registry — the serving
    /// tier runs one per shard — pass e.g. `[("shard", "2")]` so their
    /// queue-depth gauges and cache counters stay distinct series
    /// instead of colliding on the global names. Empty means unlabeled
    /// (the single-engine default).
    pub metric_labels: Vec<(String, String)>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8);
        EngineConfig {
            workers,
            reorder_threads: 1,
            queue_capacity: 256,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            registry: None,
            metric_labels: Vec::new(),
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The underlying algorithm failed (e.g. non-square input).
    Compute { algo: AlgoSpec, message: String },
    /// The engine is shutting down and cannot accept work.
    ShuttingDown,
    /// The request's deadline passed before a worker picked it up; the
    /// ordering was never computed (see [`SubmitOptions::deadline`]).
    Expired,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Compute { algo, message } => {
                write!(f, "{} failed: {message}", algo.name())
            }
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::Expired => write!(f, "request deadline expired before compute started"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A matrix registered with the engine: the matrix plus its content
/// address, computed once at registration so repeated submissions do
/// not re-hash the nonzeros.
#[derive(Debug, Clone)]
pub struct MatrixHandle {
    matrix: Arc<CsrMatrix>,
    hash: u128,
}

impl MatrixHandle {
    /// Register a shared matrix (hashes it once, `O(nnz)`).
    pub fn new(matrix: Arc<CsrMatrix>) -> Self {
        let hash = matrix.content_hash();
        MatrixHandle { matrix, hash }
    }

    /// Register an owned matrix.
    pub fn from_matrix(matrix: CsrMatrix) -> Self {
        MatrixHandle::new(Arc::new(matrix))
    }

    /// The content address used for cache keys.
    pub fn content_hash(&self) -> u128 {
        self.hash
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.matrix
    }
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Cache counters (hits, misses, evictions).
    pub cache: CacheStats,
    /// Requests that coalesced onto an already in-flight computation.
    pub coalesced: u64,
    /// Jobs actually computed by the pool.
    pub jobs_executed: u64,
    /// Jobs whose computation failed.
    pub jobs_failed: u64,
    /// Jobs cancelled before compute because their deadline passed.
    pub expired: u64,
    /// Total wall-clock compute seconds across all executed jobs.
    pub compute_seconds: f64,
    /// Total requests submitted.
    pub submitted: u64,
    /// Planned-kernel cache counters.
    pub plans: PlanCacheStats,
    /// Jobs whose lineage probe found a cached ancestor ordering.
    pub delta_hits: u64,
    /// Jobs served by splicing dirty components instead of a full
    /// recompute.
    pub delta_splices: u64,
}

impl EngineStats {
    /// Fraction of submissions that needed no fresh computation
    /// (cache hit, or coalesced onto in-flight work).
    pub fn amortised_fraction(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        let avoided = self.cache.hits + self.coalesced;
        avoided as f64 / self.submitted as f64
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted | {} hits + {} coalesced / {} misses \
             ({:.1}% amortised) | {} computed in {:.3}s | {} expired | {} evicted",
            self.submitted,
            self.cache.hits,
            self.coalesced,
            self.cache.misses,
            100.0 * self.amortised_fraction(),
            self.jobs_executed,
            self.compute_seconds,
            self.expired,
            self.cache.evictions,
        )
    }
}

/// Per-request submission options for [`Engine::submit_opts`].
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Absolute deadline. If it passes before a worker starts the
    /// ordering, the request is cancelled with [`EngineError::Expired`]
    /// instead of computing — the cancellation hook the serving tier's
    /// deadline enforcement rests on. Requests that coalesce onto the
    /// same in-flight computation extend its deadline to the latest
    /// one; `None` means unbounded.
    pub deadline: Option<Instant>,
    /// Parent trace context — the whole of engine tracing: when it is
    /// recording, the request's `engine.request` span and every stage
    /// below it open under it. The caller owns the recorder and the
    /// sampling decision.
    pub trace: TraceCtx,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            deadline: None,
            trace: TraceCtx::disabled(),
        }
    }
}

/// A pending (or already satisfied) reordering request.
///
/// The ticket carries the request's `engine.request` span — recorded
/// for traced requests, on the live stage board for all: it ends when
/// the ticket is waited on (or dropped), so the span covers the full
/// submit-to-result interval.
pub struct Ticket {
    inner: TicketInner,
    root: TraceSpan,
}

enum TicketInner {
    Ready(Result<Arc<CachedOrdering>, EngineError>),
    Pending(Arc<InFlight>),
}

impl Ticket {
    /// Block until the ordering is available.
    pub fn wait(self) -> Result<Arc<CachedOrdering>, EngineError> {
        let Ticket { inner, root } = self;
        match inner {
            TicketInner::Ready(r) => r,
            TicketInner::Pending(slot) => {
                // The blocking interval, distinct from the queue/compute
                // spans the worker records into the same trace.
                let _wait = root.ctx().span("engine.wait");
                slot.wait()
            }
        }
    }

    /// A trace context parented at this request's root span (disabled
    /// unless the request was traced). Stages that happen outside the
    /// engine — applying the ordering, measuring SpMV — record under
    /// the request with this handle.
    pub fn trace_ctx(&self) -> TraceCtx {
        self.root.ctx()
    }
}

/// The reordering-as-a-service engine: content-addressed cache in
/// front, deduplicating worker pool behind.
///
/// ```
/// use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
///
/// let engine = Engine::new(EngineConfig::default());
/// let m = MatrixHandle::from_matrix(corpus::mesh2d(12, 12));
/// let first = engine.get(&m, AlgoSpec::Rcm).unwrap();
/// let again = engine.get(&m, AlgoSpec::Rcm).unwrap(); // cache hit
/// assert_eq!(first.perm.order(), again.perm.order());
/// assert_eq!(engine.stats().jobs_executed, 1);
/// ```
pub struct Engine {
    cache: Arc<OrderingCache>,
    plans: LruCache<PlanKey, Arc<dyn Kernel>>,
    inflight: Arc<Mutex<HashMap<OrderingKey, Arc<InFlight>>>>,
    registry: Arc<Registry>,
    reorder_team: Arc<team::ThreadTeam>,
    metrics: EngineMetrics,
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

/// The facade's registry metrics, resolved once at construction.
#[derive(Debug)]
struct EngineMetrics {
    /// Total requests submitted.
    submitted: Arc<Counter>,
    /// Requests that coalesced onto an in-flight computation.
    coalesced: Arc<Counter>,
    /// Wall-clock of [`Engine::submit`] itself (nanoseconds) — the
    /// non-blocking front half every request pays.
    submit_span: Arc<Histogram>,
    /// Mirrors the pool's counters for [`Engine::stats`].
    jobs_executed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    compute_ns: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    expired: Arc<Counter>,
    delta_hits: Arc<Counter>,
    delta_splices: Arc<Counter>,
}

impl Engine {
    /// Start an engine: builds the cache and spawns the worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let registry = config.registry.unwrap_or_else(Registry::global);
        // `# HELP` descriptions for the engine's metric families
        // (idempotent; surfaces on the ops server's /metrics).
        registry.describe("engine.submitted", "Ordering requests submitted.");
        registry.describe(
            "engine.coalesced",
            "Ordering requests coalesced onto an identical in-flight job.",
        );
        registry.describe("engine.submit", "Submit-path latency, nanoseconds.");
        registry.describe("engine.cache.hits", "Ordering-cache hits.");
        registry.describe("engine.cache.misses", "Ordering-cache misses.");
        registry.describe(
            "engine.cache.resident",
            "Orderings currently resident in the cache.",
        );
        let labels: Vec<(&str, &str)> = config
            .metric_labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let cache = Arc::new(OrderingCache::new(
            &registry,
            config.cache_capacity,
            &labels,
        ));
        let plans = LruCache::new(
            PLAN_CACHE_CAPACITY,
            CacheMetrics::new(&registry, "engine.plans", &labels),
        );
        let inflight = Arc::new(Mutex::new(HashMap::new()));
        let pool_metrics = PoolMetrics::new_labeled(&registry, &labels);
        let metrics = EngineMetrics {
            submitted: registry.counter_labeled("engine.submitted", &labels),
            coalesced: registry.counter_labeled("engine.coalesced", &labels),
            submit_span: registry.histogram_labeled("engine.submit", &labels),
            jobs_executed: Arc::clone(&pool_metrics.jobs_executed),
            jobs_failed: Arc::clone(&pool_metrics.jobs_failed),
            compute_ns: Arc::clone(&pool_metrics.compute_ns),
            queue_depth: Arc::clone(&pool_metrics.queue_depth),
            expired: Arc::clone(&pool_metrics.expired),
            delta_hits: Arc::clone(&pool_metrics.delta_hits),
            delta_splices: Arc::clone(&pool_metrics.delta_splices),
        };
        let reorder_team = Arc::new(team::ThreadTeam::new_in(
            &registry,
            config.reorder_threads.max(1),
        ));
        let (tx, workers) = spawn_pool(
            config.workers,
            config.queue_capacity,
            WorkerContext {
                cache: Arc::clone(&cache),
                inflight: Arc::clone(&inflight),
                registry: Arc::clone(&registry),
                metrics: pool_metrics,
                reorder_team: Arc::clone(&reorder_team),
            },
        );
        Engine {
            cache,
            plans,
            inflight,
            registry,
            reorder_team,
            metrics,
            tx: Some(tx),
            workers,
        }
    }

    /// The registry this engine reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared reordering team (sized by
    /// [`EngineConfig::reorder_threads`]). Serving paths reuse it to
    /// apply cached orderings in parallel
    /// ([`CachedOrdering::apply_on`]).
    pub fn reorder_team(&self) -> &Arc<team::ThreadTeam> {
        &self.reorder_team
    }

    /// Probe the ordering cache for `(matrix, algo)` **without**
    /// counting a hit or miss, starting work, or touching recency.
    /// The policy layer uses this to tell "the ordering is already
    /// paid for" (marginal reorder cost zero) apart from "choosing
    /// this algorithm starts a reorder".
    pub fn peek_cached(
        &self,
        matrix: &MatrixHandle,
        algo: AlgoSpec,
    ) -> Option<Arc<CachedOrdering>> {
        self.cache
            .peek(&OrderingKey::new(matrix.content_hash(), algo))
    }

    /// Submit one reordering request. Returns immediately with a
    /// [`Ticket`]; a cache hit makes the ticket ready, otherwise it
    /// joins (or starts) the in-flight computation for its key.
    pub fn submit(&self, matrix: &MatrixHandle, algo: AlgoSpec) -> Ticket {
        self.submit_opts(matrix, algo, SubmitOptions::default())
    }

    /// [`Engine::submit`] with per-request options: a deadline after
    /// which the computation is cancelled instead of started, and an
    /// optional parent trace context.
    pub fn submit_opts(
        &self,
        matrix: &MatrixHandle,
        algo: AlgoSpec,
        opts: SubmitOptions,
    ) -> Ticket {
        let start = Instant::now();
        let ticket = self.submit_inner(matrix, algo, opts);
        self.metrics.submit_span.record_duration(start.elapsed());
        ticket
    }

    fn submit_inner(&self, matrix: &MatrixHandle, algo: AlgoSpec, opts: SubmitOptions) -> Ticket {
        self.metrics.submitted.inc();
        let mut root = opts.trace.span("engine.request");
        root.arg("algo", algo.name());
        let key = OrderingKey::new(matrix.content_hash(), algo);

        {
            let mut lookup = root.ctx().span("engine.cache.lookup");
            if let Some(v) = self.cache.get(&key) {
                lookup.arg("outcome", "hit");
                drop(lookup);
                return Ticket {
                    inner: TicketInner::Ready(Ok(v)),
                    root,
                };
            }
            lookup.arg("outcome", "miss");
        }

        // Miss: coalesce onto in-flight work for the same key, or
        // become the request that enqueues it.
        let slot = {
            let mut inflight = self.inflight.lock().unwrap();
            if let Some(existing) = inflight.get(&key) {
                self.metrics.coalesced.inc();
                // The shared computation must survive until the latest
                // interested deadline.
                existing.extend_deadline(opts.deadline);
                root.ctx().instant("engine.coalesced");
                return Ticket {
                    inner: TicketInner::Pending(Arc::clone(existing)),
                    root,
                };
            }
            // The computation may have completed between the cache
            // probe and taking this lock (workers remove the key only
            // *after* inserting into the cache), so re-probe while
            // holding the lock to avoid a needless recompute — memory
            // only: every other submitter is waiting on this lock.
            if let Some(v) = self.cache.peek_counting_hit(&key) {
                return Ticket {
                    inner: TicketInner::Ready(Ok(v)),
                    root,
                };
            }
            let slot = Arc::new(InFlight::with_deadline(opts.deadline));
            inflight.insert(key, Arc::clone(&slot));
            slot
        };

        // Enqueue outside the in-flight lock: the bounded queue can
        // block here, and workers need that lock to finish jobs.
        let job = Job {
            key,
            matrix: Arc::clone(matrix.matrix()),
            slot: Arc::clone(&slot),
            trace: root.ctx(),
            enqueued: Instant::now(),
        };
        match &self.tx {
            Some(tx) => {
                // Count the job as queued before sending: a worker may
                // dequeue (and decrement) the instant send returns.
                self.metrics.queue_depth.inc();
                if tx.send(job).is_err() {
                    self.metrics.queue_depth.dec();
                    self.inflight.lock().unwrap().remove(&key);
                    slot.fulfil(Err(EngineError::ShuttingDown));
                }
            }
            None => {
                self.inflight.lock().unwrap().remove(&key);
                slot.fulfil(Err(EngineError::ShuttingDown));
            }
        }
        Ticket {
            inner: TicketInner::Pending(slot),
            root,
        }
    }

    /// Fetch (or build and cache) the planned SpMV kernel for a
    /// registered matrix. The plan is keyed by
    /// `(content hash, kernel, nthreads)` and holds the matrix by
    /// `Arc`, so repeated requests share both the plan and the payload.
    ///
    /// No served request calls this: the serving tier's prepared
    /// entry cuts and owns its kernels, so that a rebuild never hashes
    /// a permuted matrix just to key this cache.
    pub fn plan(
        &self,
        matrix: &MatrixHandle,
        kernel: KernelKind,
        nthreads: usize,
    ) -> Arc<dyn Kernel> {
        let key = PlanKey {
            matrix_hash: matrix.content_hash(),
            kernel,
            nthreads,
        };
        self.plans
            .get_or_insert_with(key, || kernel.plan(matrix.matrix(), nthreads))
            .0
    }

    /// Submit and wait: the blocking convenience call.
    pub fn get(
        &self,
        matrix: &MatrixHandle,
        algo: AlgoSpec,
    ) -> Result<Arc<CachedOrdering>, EngineError> {
        self.submit(matrix, algo).wait()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache.stats(),
            coalesced: self.metrics.coalesced.get(),
            jobs_executed: self.metrics.jobs_executed.get(),
            jobs_failed: self.metrics.jobs_failed.get(),
            expired: self.metrics.expired.get(),
            compute_seconds: self.metrics.compute_ns.get() as f64 / 1e9,
            submitted: self.metrics.submitted.get(),
            plans: PlanCacheStats {
                hits: self.plans.metrics().hits.get(),
                misses: self.plans.metrics().misses.get(),
                evictions: self.plans.metrics().evictions.get(),
            },
            delta_hits: self.metrics.delta_hits.get(),
            delta_splices: self.metrics.delta_splices.get(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Closing the channel stops the workers once the queue drains;
        // queued jobs still complete, so outstanding tickets resolve.
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> Engine {
        Engine::new(EngineConfig {
            workers: 2,
            reorder_threads: 2,
            queue_capacity: 8,
            cache_capacity: 64,
            registry: Some(telemetry::Registry::new_arc()),
            metric_labels: Vec::new(),
        })
    }

    /// A caller-owned recording trace, as the serving tier supplies.
    struct Traced {
        recorder: Arc<telemetry::FlightRecorder>,
        ctx: TraceCtx,
    }

    impl Traced {
        fn new() -> Traced {
            let recorder = telemetry::FlightRecorder::new(8192);
            let ctx = recorder.start_trace();
            Traced { recorder, ctx }
        }

        fn opts(&self) -> SubmitOptions {
            SubmitOptions {
                deadline: None,
                trace: self.ctx.clone(),
            }
        }

        fn snapshot(&self) -> telemetry::TraceSnapshot {
            self.recorder
                .snapshot()
                .filter_trace(self.ctx.trace_id().unwrap())
        }
    }

    fn mesh() -> MatrixHandle {
        MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(14, 14), 3))
    }

    #[test]
    fn get_computes_then_hits() {
        let engine = small_engine();
        let m = mesh();
        let a = engine.get(&m, AlgoSpec::Rcm).unwrap();
        let b = engine.get(&m, AlgoSpec::Rcm).unwrap();
        assert_eq!(a.perm.order(), b.perm.order());
        assert!(a.symmetric);
        let s = engine.stats();
        assert_eq!(s.jobs_executed, 1);
        assert_eq!(s.cache.hits, 1);
        assert_eq!(s.cache.misses, 1);
        assert_eq!(s.submitted, 2);
        assert!(s.compute_seconds >= 0.0);
    }

    #[test]
    fn distinct_algorithms_are_distinct_entries() {
        let engine = small_engine();
        let m = mesh();
        let _ = engine.get(&m, AlgoSpec::Rcm).unwrap();
        let _ = engine.get(&m, AlgoSpec::Amd).unwrap();
        let _ = engine.get(&m, AlgoSpec::Gp { parts: 4 }).unwrap();
        let _ = engine.get(&m, AlgoSpec::Gp { parts: 8 }).unwrap();
        assert_eq!(engine.stats().jobs_executed, 4);
    }

    #[test]
    fn batch_preserves_order_and_dedups() {
        let engine = small_engine();
        let m = mesh();
        let suite = AlgoSpec::study_suite(4, 8);
        let tickets: Vec<_> = suite
            .iter()
            .chain(suite.iter()) // every algorithm twice
            .map(|&a| engine.submit(&m, a))
            .collect();
        assert_eq!(tickets.len(), 12);
        let results: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        for (i, &algo) in suite.iter().enumerate() {
            assert_eq!(
                results[i].perm.order(),
                results[i + 6].perm.order(),
                "duplicate of {} must share the result",
                algo.name()
            );
        }
        // Six unique keys -> exactly six computations.
        assert_eq!(engine.stats().jobs_executed, 6);
    }

    #[test]
    fn gray_is_row_only() {
        let engine = small_engine();
        let m = mesh();
        let gray = engine.get(&m, AlgoSpec::Gray).unwrap();
        assert!(!gray.symmetric);
        let b = gray.apply(m.matrix()).unwrap();
        assert_eq!(b.nnz(), m.matrix().nnz());
    }

    #[test]
    fn compute_error_is_reported_not_cached() {
        let engine = small_engine();
        // A rectangular matrix: every ordering requires square input.
        let mut coo = sparsemat::CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 2, 1.0);
        let m = MatrixHandle::from_matrix(sparsemat::CsrMatrix::from_coo(&coo));
        let err = engine.get(&m, AlgoSpec::Rcm).unwrap_err();
        match &err {
            EngineError::Compute { algo, .. } => assert_eq!(algo.name(), "RCM"),
            other => panic!("unexpected error {other:?}"),
        }
        let s = engine.stats();
        assert_eq!(s.jobs_failed, 1);
        // Failures are not cached: a retry fails afresh.
        let _ = engine.get(&m, AlgoSpec::Rcm).unwrap_err();
        assert_eq!(engine.stats().jobs_failed, 2);
    }

    #[test]
    fn plan_requests_share_cached_kernels() {
        let engine = small_engine();
        let m = mesh();
        let first = engine.plan(&m, KernelKind::Merge, 4);
        let second = engine.plan(&m, KernelKind::Merge, 4);
        assert!(Arc::ptr_eq(&first, &second));
        // The kernel shares the handle's payload instead of cloning it.
        assert!(Arc::ptr_eq(first.matrix(), m.matrix()));
        let other = engine.plan(&m, KernelKind::OneD, 4);
        assert_eq!(other.kind(), KernelKind::OneD);
        let s = engine.stats().plans;
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn traced_request_records_every_pipeline_stage() {
        use telemetry::trace::EventKind;
        let engine = small_engine();
        let traced = Traced::new();
        let m = mesh();
        engine
            .submit_opts(&m, AlgoSpec::Rcm, traced.opts())
            .wait()
            .unwrap();
        let snap = traced.snapshot();
        let names: Vec<&str> = snap
            .events()
            .filter(|e| e.kind == EventKind::Begin || e.kind == EventKind::Instant)
            .map(|e| e.name)
            .collect();
        for stage in [
            "engine.request",
            "engine.cache.lookup",
            "engine.wait",
            "engine.queue.wait",
            "engine.reorder",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        // Worker-side stages attach under this trace, not as orphans.
        let root_id = snap
            .events()
            .find(|e| e.name == "engine.request")
            .unwrap()
            .span_id;
        let reorder = snap
            .events()
            .find(|e| e.name == "engine.reorder" && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(reorder.parent_id, root_id);
    }

    #[test]
    fn cache_hit_trace_has_lookup_but_no_queue_span() {
        let engine = small_engine();
        let m = mesh();
        engine.get(&m, AlgoSpec::Rcm).unwrap(); // untraced miss
        let traced = Traced::new();
        engine
            .submit_opts(&m, AlgoSpec::Rcm, traced.opts())
            .wait()
            .unwrap(); // traced hit
        let snap = traced.snapshot();
        let names: Vec<&str> = snap.events().map(|e| e.name).collect();
        assert!(names.contains(&"engine.cache.lookup"));
        assert!(
            !names.contains(&"engine.queue.wait"),
            "a cache hit never touches the queue: {names:?}"
        );
        let lookup_end = snap
            .events()
            .find(|e| e.name == "engine.cache.lookup" && e.kind == telemetry::trace::EventKind::End)
            .unwrap();
        assert!(lookup_end
            .args
            .iter()
            .any(|(k, v)| *k == "outcome" && matches!(v, telemetry::ArgValue::Str("hit"))));
    }

    #[test]
    fn untraced_request_hands_out_a_disabled_context() {
        let engine = small_engine();
        let m = mesh();
        let ticket = engine.submit(&m, AlgoSpec::Rcm);
        assert!(!ticket.trace_ctx().is_recording());
        ticket.wait().unwrap();
    }

    #[test]
    fn expired_request_never_reaches_reorder() {
        use telemetry::trace::EventKind;
        let engine = small_engine();
        let traced = Traced::new();
        let m = mesh();
        // A deadline already in the past: the worker must cancel the
        // job at dequeue, before any reorder work.
        let ticket = engine.submit_opts(
            &m,
            AlgoSpec::Rcm,
            SubmitOptions {
                deadline: Some(Instant::now()),
                ..traced.opts()
            },
        );
        assert!(matches!(ticket.wait(), Err(EngineError::Expired)));
        let s = engine.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.jobs_executed, 0, "no ordering may be computed");
        assert_eq!(s.jobs_failed, 0, "expiry is not a compute failure");
        // The flight recorder confirms it: the trace has the expiry
        // marker and no reorder span at all.
        let snap = traced.snapshot();
        let names: Vec<&str> = snap.events().map(|e| e.name).collect();
        assert!(
            !names.contains(&"engine.reorder"),
            "expired request reached reorder: {names:?}"
        );
        assert!(snap
            .events()
            .any(|e| e.name == "engine.expired" && e.kind == EventKind::Instant));
        // Nothing was cached, so a fresh request (no deadline) computes.
        let again = engine.get(&m, AlgoSpec::Rcm).unwrap();
        assert_eq!(again.perm.len(), m.matrix().nrows());
        assert_eq!(engine.stats().jobs_executed, 1);
    }

    #[test]
    fn external_trace_context_parents_the_request() {
        use telemetry::trace::EventKind;
        let engine = small_engine();
        let traced = Traced::new();
        let outer = traced.ctx.span("tier.execute");
        let m = mesh();
        let ticket = engine.submit_opts(
            &m,
            AlgoSpec::Rcm,
            SubmitOptions {
                deadline: None,
                trace: outer.ctx(),
            },
        );
        ticket.wait().unwrap();
        drop(outer);
        let snap = traced.snapshot();
        let outer_id = snap
            .events()
            .find(|e| e.name == "tier.execute")
            .unwrap()
            .span_id;
        let request = snap
            .events()
            .find(|e| e.name == "engine.request" && e.kind == EventKind::Begin)
            .expect("engine.request recorded under the caller's trace");
        assert_eq!(request.parent_id, outer_id);
    }

    #[test]
    fn labeled_engines_keep_distinct_series() {
        let registry = telemetry::Registry::new_arc();
        let engine_for = |shard: &str| {
            Engine::new(EngineConfig {
                workers: 1,
                reorder_threads: 1,
                queue_capacity: 8,
                cache_capacity: 64,
                registry: Some(Arc::clone(&registry)),
                metric_labels: vec![("shard".to_string(), shard.to_string())],
            })
        };
        let e0 = engine_for("0");
        let e1 = engine_for("1");
        let m = mesh();
        e0.get(&m, AlgoSpec::Rcm).unwrap();
        e1.get(&m, AlgoSpec::Rcm).unwrap();
        e1.get(&m, AlgoSpec::Amd).unwrap();
        // Each engine's stats see only its own work...
        assert_eq!(e0.stats().submitted, 1);
        assert_eq!(e1.stats().submitted, 2);
        assert_eq!(e0.stats().cache.misses, 1);
        assert_eq!(e1.stats().cache.misses, 2);
        // ...because the shared registry holds one series per shard.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("engine.submitted", &[("shard", "0")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_labeled("engine.submitted", &[("shard", "1")]),
            Some(2)
        );
        assert_eq!(snap.counter("engine.submitted"), None);
        // Every submit is one `engine.submit` sample, on its own series.
        let submits = snap.histogram_labeled("engine.submit", &[("shard", "1")]);
        assert_eq!(submits.unwrap().count, 2);
    }

    /// Tentpole requirement: a matrix mutated via `apply_delta` is
    /// served by splicing the cached parent ordering — byte-identical
    /// to a fresh compute — with the `engine.delta.*` counters and the
    /// `reorder.splice` trace stage recording it.
    #[test]
    fn delta_descendant_splices_from_cached_parent() {
        use telemetry::trace::EventKind;
        let engine = small_engine();
        // Three disjoint paths: components {0..4}, {5..9}, {10..14}.
        let mut coo = sparsemat::CooMatrix::new(15, 15);
        for i in 0..15 {
            coo.push(i, i, 2.0);
        }
        for block in 0..3 {
            for i in (block * 5)..(block * 5 + 4) {
                coo.push_symmetric(i, i + 1, -1.0);
            }
        }
        let base = sparsemat::CsrMatrix::from_coo(&coo);
        let parent = MatrixHandle::from_matrix(base.clone());
        engine.get(&parent, AlgoSpec::Rcm).unwrap();

        // Mutate inside the middle component only.
        let mut mutated = base.clone();
        mutated
            .apply_delta(&[
                sparsemat::EdgeOp::Remove { row: 7, col: 8 },
                sparsemat::EdgeOp::Remove { row: 8, col: 7 },
            ])
            .unwrap();
        let child = MatrixHandle::from_matrix(mutated.clone());
        let traced = Traced::new();
        let spliced = engine
            .submit_opts(&child, AlgoSpec::Rcm, traced.opts())
            .wait()
            .unwrap();

        // Byte-identical to a from-scratch compute on the mutated matrix.
        let fresh = reorder::ReorderAlgorithm::compute(&reorder::Rcm::default(), &mutated).unwrap();
        assert_eq!(spliced.perm.order(), fresh.perm.order());
        assert!(
            spliced.ranges.is_some(),
            "spliced entries keep their ranges"
        );

        let s = engine.stats();
        assert_eq!(s.jobs_executed, 2);
        assert_eq!(s.delta_hits, 1);
        assert_eq!(s.delta_splices, 1);
        let snap = engine.registry().snapshot();
        let dirty = snap
            .gauge("engine.delta.dirty_frac")
            .expect("dirty fraction recorded");
        assert!(
            (0..10_000).contains(&dirty),
            "only part of the matrix may be re-ordered, got {dirty} bp"
        );

        // The splice stage lands in the request's trace, under
        // engine.reorder.
        assert!(
            traced
                .snapshot()
                .events()
                .any(|e| e.name == "reorder.splice" && e.kind == EventKind::Begin),
            "reorder.splice missing from delta request trace"
        );

        // A third request for the same child is a plain cache hit: no
        // further splices.
        engine.get(&child, AlgoSpec::Rcm).unwrap();
        assert_eq!(engine.stats().delta_splices, 1);
    }

    /// Global algorithms never take the splice path, even with lineage.
    #[test]
    fn delta_path_skips_non_component_algorithms() {
        let engine = small_engine();
        let m = mesh();
        engine.get(&m, AlgoSpec::Gray).unwrap();
        let mut mutated = (**m.matrix()).clone();
        mutated
            .apply_delta(&[sparsemat::EdgeOp::Add {
                row: 0,
                col: 7,
                value: 1.0,
            }])
            .unwrap();
        let child = MatrixHandle::from_matrix(mutated);
        engine.get(&child, AlgoSpec::Gray).unwrap();
        let s = engine.stats();
        assert_eq!(s.jobs_executed, 2);
        assert_eq!(s.delta_hits, 0);
        assert_eq!(s.delta_splices, 0);
    }

    #[test]
    fn stats_display_is_informative() {
        let engine = small_engine();
        let m = mesh();
        let _ = engine.get(&m, AlgoSpec::Rcm).unwrap();
        let _ = engine.get(&m, AlgoSpec::Rcm).unwrap();
        let line = engine.stats().to_string();
        assert!(line.contains("1 hits"), "got: {line}");
        assert!(line.contains("1 computed"), "got: {line}");
    }
}
