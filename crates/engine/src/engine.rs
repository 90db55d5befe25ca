//! The engine facade: the session API over the ordering cache. A miss
//! is a lookup, a deadline check, the computation and an insert, all on
//! the thread that asked.

use crate::cache::{CacheStats, CachedOrdering, OrderingCache, OrderingKey};
use crate::lru::{CacheMetrics, LruCache};
use crate::plans::{PlanCacheStats, PlanKey, PLAN_CACHE_CAPACITY};
use crate::AlgoSpec;
use reorder::ReorderAlgorithm;
use sparsemat::CsrMatrix;
use spmv::{Kernel, KernelKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use telemetry::trace::{TraceCtx, TraceSpan};
use telemetry::{stages, Counter, Gauge, Histogram, Registry};

/// [`EngineConfig::cache_capacity`]'s default, and the bound the
/// policy layer puts on its per-matrix state so that it forgets a
/// matrix no sooner than the ordering cache does.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Inert: nothing reads it. A miss is computed on the thread that
    /// asked, so the engine has no threads of its own to size. The
    /// field stays only because `sysbench` sets it, and goes with the
    /// next change to that benchmark.
    pub workers: usize,
    /// Lanes of the shared reordering [`ThreadTeam`](team::ThreadTeam):
    /// the parallel stages of each ordering (symmetrisation, level-set
    /// expansion, permutation application) dispatch on this team. `1`
    /// keeps every ordering inline on the thread that asked for it
    /// (the sequential path; permutations are byte-identical either
    /// way).
    pub reorder_threads: usize,
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
    /// cache and compute counters stay distinct series instead of
    /// colliding on the global names. Empty means unlabeled (the
    /// single-engine default).
    pub metric_labels: Vec<(String, String)>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            reorder_threads: 1,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            registry: None,
            metric_labels: Vec::new(),
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The algorithm failed (e.g. non-square input) or panicked;
    /// nothing was cached.
    Compute { algo: AlgoSpec, message: String },
    /// The request's deadline had passed when its computation would
    /// have started; the ordering was never computed (see
    /// [`SubmitOptions::deadline`]).
    Expired,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Compute { algo, message } => {
                write!(f, "{} failed: {message}", algo.name())
            }
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
    /// Register a matrix (hashes it once, `O(nnz)`).
    pub fn from_matrix(matrix: CsrMatrix) -> Self {
        let hash = matrix.content_hash();
        MatrixHandle {
            matrix: Arc::new(matrix),
            hash,
        }
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
    /// Orderings computed, spliced or in full.
    pub jobs_executed: u64,
    /// Computations that failed or panicked.
    pub jobs_failed: u64,
    /// Misses answered [`EngineError::Expired`] instead of computing.
    pub expired: u64,
    /// Total wall-clock compute seconds across all computations.
    pub compute_seconds: f64,
    /// Total requests submitted.
    pub submitted: u64,
    /// Planned-kernel cache counters.
    pub plans: PlanCacheStats,
    /// Computations whose lineage probe found a cached ancestor
    /// ordering.
    pub delta_hits: u64,
    /// Computations served by splicing dirty components instead of a
    /// full recompute.
    pub delta_splices: u64,
}

impl EngineStats {
    /// Fraction of submissions that needed no fresh computation: the
    /// cache hits.
    pub fn amortised_fraction(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.cache.hits as f64 / self.submitted as f64
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted | {} hits / {} misses \
             ({:.1}% amortised) | {} computed in {:.3}s | {} expired | {} evicted",
            self.submitted,
            self.cache.hits,
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
    /// Absolute deadline. A request that has to compute its ordering
    /// and finds this instant passed answers [`EngineError::Expired`]
    /// instead of computing — the cancellation hook the serving tier's
    /// deadline enforcement rests on. A computation that has started
    /// runs to its end whatever the deadline; `None` means unbounded.
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

/// An answered reordering request: the ordering (or why there is none)
/// and the request's `engine.request` span — recorded for traced
/// requests, on the live stage board for all — which
/// [`Ticket::wait`] closes.
pub struct Ticket {
    result: Result<Arc<CachedOrdering>, EngineError>,
    root: TraceSpan,
}

impl Ticket {
    /// The ordering. [`Engine::submit`] served the request before it
    /// returned, so this never blocks; it ends the request's span.
    pub fn wait(self) -> Result<Arc<CachedOrdering>, EngineError> {
        let Ticket { result, root } = self;
        drop(root);
        result
    }
}

/// The reordering-as-a-service engine: a content-addressed cache in
/// front of computations that run on the thread that asked.
///
/// Its one caller is a serving-tier shard, which owns one engine and
/// one dispatcher. Nothing joins two misses on one key: each computes,
/// and the cache keeps whichever inserts last. A shard never makes such
/// a pair, as the tier routes each matrix to one shard; were one made
/// (a tier at `dispatchers_per_shard > 1`, two first touches of one key
/// at once), both answers would be correct and byte-equal, since every
/// ordering is deterministic.
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
    cache: OrderingCache,
    plans: LruCache<PlanKey, Arc<dyn Kernel>>,
    registry: Arc<Registry>,
    reorder_team: Arc<team::ThreadTeam>,
    metrics: EngineMetrics,
}

/// The engine's registry metrics, resolved once at construction. The
/// computation series keep the `engine.pool.*` names they had when a
/// worker pool ran the computations: the ops plane reads them by those
/// names.
#[derive(Debug)]
struct EngineMetrics {
    /// Total requests submitted.
    submitted: Arc<Counter>,
    /// Wall-clock of [`Engine::submit`] (nanoseconds): the lookup, and
    /// on a miss the computation.
    submit_span: Arc<Histogram>,
    /// Orderings computed to completion.
    jobs_executed: Arc<Counter>,
    /// Computations that failed or panicked.
    jobs_failed: Arc<Counter>,
    /// Total successful compute wall-clock, nanoseconds.
    compute_ns: Arc<Counter>,
    /// Wall-clock per computation (success or failure), nanoseconds.
    job_duration: Arc<Histogram>,
    /// Misses answered `Expired` instead of computing.
    expired: Arc<Counter>,
    /// Computations whose lineage probe found a cached ancestor.
    delta_hits: Arc<Counter>,
    /// Computations served by splicing instead of a full recompute.
    delta_splices: Arc<Counter>,
    /// Dirty fraction of the most recent splice, in basis points
    /// (10000 = the whole matrix was re-ordered).
    delta_dirty_frac: Arc<Gauge>,
}

impl Engine {
    /// Start an engine: builds the caches and the shared reorder team.
    pub fn new(config: EngineConfig) -> Self {
        let registry = config.registry.unwrap_or_else(Registry::global);
        // `# HELP` descriptions for the engine's metric families
        // (idempotent; surfaces on the ops server's /metrics).
        registry.describe("engine.submitted", "Ordering requests submitted.");
        registry.describe(
            "engine.submit",
            "Submit latency (the lookup, then on a miss the computation), nanoseconds.",
        );
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
        let cache = OrderingCache::new(&registry, config.cache_capacity, &labels);
        let plans = LruCache::new(
            PLAN_CACHE_CAPACITY,
            CacheMetrics::new(&registry, "engine.plans", &labels),
        );
        let metrics = EngineMetrics {
            submitted: registry.counter_labeled("engine.submitted", &labels),
            submit_span: registry.histogram_labeled("engine.submit", &labels),
            jobs_executed: registry.counter_labeled("engine.pool.jobs_executed", &labels),
            jobs_failed: registry.counter_labeled("engine.pool.jobs_failed", &labels),
            compute_ns: registry.counter_labeled("engine.pool.compute_ns", &labels),
            job_duration: registry.histogram_labeled("engine.pool.job", &labels),
            expired: registry.counter_labeled("engine.expired", &labels),
            delta_hits: registry.counter_labeled("engine.delta.hits", &labels),
            delta_splices: registry.counter_labeled("engine.delta.splices", &labels),
            delta_dirty_frac: registry.gauge_labeled("engine.delta.dirty_frac", &labels),
        };
        let reorder_team = Arc::new(team::ThreadTeam::new_in(
            &registry,
            config.reorder_threads.max(1),
        ));
        Engine {
            cache,
            plans,
            registry,
            reorder_team,
            metrics,
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

    /// Submit one reordering request and serve it: a cache hit answers
    /// at once; a miss computes the ordering on this thread and caches
    /// it. The returned [`Ticket`] holds the answer.
    pub fn submit(&self, matrix: &MatrixHandle, algo: AlgoSpec) -> Ticket {
        self.submit_opts(matrix, algo, SubmitOptions::default())
    }

    /// [`Engine::submit`] with per-request options: a deadline past
    /// which a miss answers [`EngineError::Expired`] instead of
    /// computing, and an optional parent trace context.
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
        let mut root = opts.trace.span(stages::ENGINE_REQUEST);
        root.arg("algo", algo.name());
        let key = OrderingKey::new(matrix.content_hash(), algo);

        {
            let mut lookup = root.ctx().span(stages::ENGINE_CACHE_LOOKUP);
            if let Some(v) = self.cache.get(&key) {
                lookup.arg("outcome", "hit");
                drop(lookup);
                return Ticket {
                    result: Ok(v),
                    root,
                };
            }
            lookup.arg("outcome", "miss");
        }

        // Cancellation point, before any reorder work: a request whose
        // deadline has passed computes nothing.
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            self.metrics.expired.inc();
            root.ctx().instant(stages::ENGINE_EXPIRED);
            return Ticket {
                result: Err(EngineError::Expired),
                root,
            };
        }
        let algo_impl = algo.instantiate();
        let result = self.compute(key, matrix.matrix(), algo_impl.as_ref(), &root.ctx());
        Ticket { result, root }
    }

    /// The rest of a miss, on the caller's thread: compute the ordering
    /// for `key` — by splicing a cached ancestor's, or in full on the
    /// shared reorder team — and insert it into the cache. A panicking
    /// algorithm answers [`EngineError::Compute`] like a failing one:
    /// nothing is cached, and the key is free to be computed again.
    fn compute(
        &self,
        key: OrderingKey,
        matrix: &CsrMatrix,
        algo: &dyn ReorderAlgorithm,
        trace: &TraceCtx,
    ) -> Result<Arc<CachedOrdering>, EngineError> {
        let start = Instant::now();
        let mut reorder_span = trace.span(stages::ENGINE_REORDER);
        reorder_span.arg("algo", key.algo.name());
        let rexec =
            reorder::ReorderExec::on_team(&self.reorder_team).with_trace(reorder_span.ctx());
        let computed = catch_unwind(AssertUnwindSafe(|| {
            match self.try_splice(key, matrix, algo, &rexec) {
                Some(t) => Ok(t),
                None => reorder::timed_components_on(&self.registry, algo, matrix, &rexec)
                    .map_err(|e| e.to_string()),
            }
        }))
        .unwrap_or_else(|payload| Err(panic_message(&*payload)));
        reorder_span.arg("ok", if computed.is_ok() { "true" } else { "false" });
        drop(reorder_span);
        let elapsed = start.elapsed();
        self.metrics.job_duration.record_duration(elapsed);

        match computed {
            Ok(t) => {
                let cached = Arc::new(CachedOrdering {
                    perm: t.result.perm,
                    symmetric: t.result.symmetric,
                    compute_seconds: t.elapsed.as_secs_f64(),
                    ranges: t.ranges,
                });
                self.cache.insert(key, Arc::clone(&cached));
                self.metrics.jobs_executed.inc();
                self.metrics
                    .compute_ns
                    .add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
                Ok(cached)
            }
            Err(message) => {
                self.metrics.jobs_failed.inc();
                Err(EngineError::Compute {
                    algo: key.algo,
                    message,
                })
            }
        }
    }

    /// The delta-update path: walk the matrix's lineage newest→oldest,
    /// accumulating the touched-row union, and probe the cache for each
    /// ancestor's ordering under the same algorithm. On a hit with a
    /// component→range map, re-order only the dirty components and
    /// splice the cached sub-permutations back (byte-identical to a full
    /// recompute — see [`reorder::splice_ordering_on`]). Returns `None`
    /// when no ancestor is cached, the algorithm is not
    /// component-structured, or the splice declines — the caller falls
    /// back to the full compute path.
    fn try_splice(
        &self,
        key: OrderingKey,
        matrix: &CsrMatrix,
        algo: &dyn ReorderAlgorithm,
        rexec: &reorder::ReorderExec<'_>,
    ) -> Option<reorder::TimedComponentReordering> {
        if !algo.supports_components() || matrix.lineage().is_empty() {
            return None;
        }
        // Nearest cached ancestor wins: it has the smallest touched set.
        let mut touched: Vec<u32> = Vec::new();
        let mut found: Option<Arc<CachedOrdering>> = None;
        for hop in matrix.lineage().iter().rev() {
            touched.extend_from_slice(&hop.touched);
            if let Some(entry) = self.cache.peek(&OrderingKey::new(hop.parent, key.algo)) {
                if entry.ranges.is_some() {
                    found = Some(entry);
                    break;
                }
            }
        }
        let entry = found?;
        self.metrics.delta_hits.inc();
        touched.sort_unstable();
        touched.dedup();

        let mut span = rexec.trace().span(stages::REORDER_SPLICE);
        span.arg("algo", key.algo.name());
        let start = Instant::now();
        let spliced = reorder::splice_ordering_on(
            algo,
            matrix,
            entry.perm.order(),
            entry.ranges.as_ref().expect("probe required ranges"),
            &touched,
            rexec,
        )
        .ok()
        .flatten();
        let elapsed = start.elapsed();
        let (co, report) = match spliced {
            Some(s) => s,
            None => {
                span.arg("ok", "false");
                return None;
            }
        };
        span.arg("ok", "true");
        span.arg("recomputed", report.recomputed);
        span.arg("components", report.components);
        self.metrics.delta_splices.inc();
        self.metrics
            .delta_dirty_frac
            .set((report.dirty_frac(matrix.nrows()) * 10_000.0) as i64);
        self.registry
            .histogram("reorder.splice")
            .record_duration(elapsed);
        let (result, ranges) = co.into_parts().ok()?;
        Some(reorder::TimedComponentReordering {
            result,
            ranges: Some(ranges),
            elapsed,
        })
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

    /// [`Engine::submit`] and its answer in one call.
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

/// What a caught panic said, for [`EngineError::Compute`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let what = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    format!("panicked: {what}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> Engine {
        Engine::new(EngineConfig {
            reorder_threads: 2,
            cache_capacity: 64,
            registry: Some(telemetry::Registry::new_arc()),
            ..EngineConfig::default()
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
        for stage in ["engine.request", "engine.cache.lookup", "engine.reorder"] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        // The miss is computed by the request itself: its reorder stage
        // opens under the request span, on the request's own lane.
        let lane = snap
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "engine.request"))
            .unwrap();
        let begin = |name: &str| {
            lane.events
                .iter()
                .find(|e| e.name == name && e.kind == EventKind::Begin)
                .unwrap_or_else(|| panic!("{name} is not on the request's lane"))
        };
        assert_eq!(
            begin("engine.reorder").parent_id,
            begin("engine.request").span_id
        );
    }

    #[test]
    fn cache_hit_trace_has_lookup_but_no_reorder_span() {
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
            !names.contains(&"engine.reorder"),
            "a cache hit computes nothing: {names:?}"
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
    fn expired_request_never_reaches_reorder() {
        use telemetry::trace::EventKind;
        let engine = small_engine();
        let traced = Traced::new();
        let m = mesh();
        // A deadline already in the past: the request must refuse to
        // compute.
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
        let outer = traced.ctx.span(stages::TIER_EXECUTE);
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
                cache_capacity: 64,
                registry: Some(Arc::clone(&registry)),
                metric_labels: vec![("shard".to_string(), shard.to_string())],
                ..EngineConfig::default()
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
        let fresh = reorder::ReorderAlgorithm::compute(&reorder::Rcm, &mutated).unwrap();
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

    /// An ordering that panics on every lane of the team it is given,
    /// as a broken parallel stage would.
    struct Panics;

    impl ReorderAlgorithm for Panics {
        fn name(&self) -> &'static str {
            "panics"
        }

        fn compute_on(
            &self,
            _: &CsrMatrix,
            rx: &reorder::ReorderExec<'_>,
        ) -> Result<reorder::ReorderResult, sparsemat::SparseError> {
            let lanes = rx.exec().lanes();
            rx.exec()
                .parallel_for(lanes, 1, |chunk| panic!("ordering panicked on {chunk:?}"));
            unreachable!("every lane panicked")
        }
    }

    /// A panic inside a miss's computation is contained: the call
    /// answers `Compute`, nothing is cached, and the key and the shared
    /// team serve the next request.
    #[test]
    fn panicking_ordering_is_a_compute_error() {
        let engine = small_engine();
        assert_eq!(engine.reorder_team().size(), 2);
        let m = mesh();
        let key = OrderingKey::new(m.content_hash(), AlgoSpec::Rcm);
        let err = engine
            .compute(key, m.matrix(), &Panics, &TraceCtx::disabled())
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Compute { algo: AlgoSpec::Rcm, message }
                if message.starts_with("panicked: ordering panicked")),
            "{err:?}"
        );
        let s = engine.stats();
        assert_eq!((s.jobs_failed, s.jobs_executed), (1, 0));
        assert!(engine.peek_cached(&m, AlgoSpec::Rcm).is_none());

        // The key computes afresh, and the team the panic unwound
        // through still runs regions.
        let fresh = engine.get(&m, AlgoSpec::Rcm).unwrap();
        assert_eq!(engine.stats().jobs_executed, 1);
        let want = reorder::Rcm.compute(m.matrix()).unwrap();
        assert_eq!(fresh.perm.order(), want.perm.order());
        let on_team = fresh
            .apply_on(m.matrix(), team::Exec::Team(engine.reorder_team()))
            .unwrap();
        assert_eq!(on_team, fresh.apply(m.matrix()).unwrap());
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
