//! The serving tier: shard routing, admission control, and end-to-end
//! answer delivery.
//!
//! [`ServeTier`] is the front door over N [`engine::Engine`] shards.
//! A request names a matrix, an ordering algorithm, a kernel, and an
//! input vector `x`; the tier routes it by consistent hash of the
//! matrix's content address (so one shard owns each matrix's ordering
//! and plan caches), admits it through that shard's bounded
//! [`AdmissionQueue`] (shedding with a reason when full), and a shard
//! dispatcher serves it deadline-aware: expired requests are cancelled
//! at dequeue — and again inside the engine, before any reorder work —
//! rather than computed. The answer comes back in the **original**
//! index space: the shard gathers `x` into the reordered space and
//! runs SpMV on the cached reordered matrix with each row stored at
//! its original index ([`spmv::Kernel::execute_scatter`]). A request
//! whose (matrix, algorithm) the shard has prepared before costs two
//! probes of that cache, the policy decision, the gather and the
//! multiply; only a first touch or a rebuild enters the engine, and
//! then for the ordering alone: the rebuild permutes, cuts an
//! O(spans) plan and inserts — it hashes nothing and consults no
//! second cache.

use crate::admission::{AdmissionQueue, PushError};
use crate::hash::HashRing;
use engine::{
    AlgoSpec, CacheMetrics, CachedOrdering, Engine, EngineConfig, EngineError, LruCache,
    MatrixHandle, SubmitOptions,
};
use policy::{PolicyConfig, PolicyEngine};
use sparsemat::CsrMatrix;
use spmv::{Kernel, KernelKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::trace::{FlightRecorder, TraceCtx, TraceSpan};
use telemetry::{stages, Counter, Gauge, Histogram, Registry};

/// How many (request id → trace id) pairs the tier remembers for
/// [`ServeTier::trace_summary`].
const TRACED_INDEX_CAP: usize = 128;

/// One tenant of the tier: a name (used in requests and metric labels)
/// and a dequeue weight (a weight-2 tenant gets twice the service share
/// of a weight-1 tenant when both are backlogged).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    pub weight: u32,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight,
        }
    }
}

/// Tier construction parameters.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Engine shards (each with its own caches, admission queue and
    /// dispatchers; an ordering a shard misses is computed on the
    /// dispatcher serving the request).
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// The tenants allowed to submit; requests naming anyone else are
    /// shed with [`ShedReason::UnknownTenant`].
    pub tenants: Vec<TenantSpec>,
    /// Per-shard admission-queue capacity; pushes past it are shed
    /// with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Dispatcher threads per shard (each serves one request at a time
    /// end to end).
    pub dispatchers_per_shard: usize,
    /// Threads for the SpMV execution team of each shard.
    pub spmv_threads: usize,
    /// Prepared-cache entries per shard: one per distinct (matrix,
    /// algorithm) pair recently served, holding the ordering, the
    /// reordered matrix and its planned kernels. The entry is the only
    /// owner of that matrix, so this is the bound on permuted matrices
    /// resident per shard.
    pub prepared_capacity: usize,
    /// Template for the per-shard engines. The tier overrides
    /// `registry` (shared tier registry) and `metric_labels`
    /// (`shard="<i>"`). Tracing is the tier's: it samples at admission
    /// and hands each engine request a parent context.
    pub engine: EngineConfig,
    /// Registry all shards report into. `None` = process global.
    pub registry: Option<Arc<Registry>>,
    /// Flight recorder for request-scoped tracing across the tier and
    /// the engines. `None` disables tracing.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Trace sample stride over tier request IDs (`0` = never).
    pub trace_sample_every: u64,
    /// Reordering policy shared by all shards. The default honours
    /// every requested reordering ([`policy::PolicyMode::Always`], the
    /// pre-policy behaviour); the tier overrides the config's registry
    /// with its own.
    pub policy: PolicyConfig,
    /// Requests the tier must have served before [`ServeTier::readiness`]
    /// reports ready (`0` = ready as soon as all dispatchers are live).
    /// Lets a deployment keep traffic away until caches are warm.
    pub min_warm_serves: u64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            shards: 1,
            vnodes: 32,
            tenants: vec![TenantSpec::new("default", 1)],
            queue_capacity: 256,
            dispatchers_per_shard: 1,
            spmv_threads: 2,
            prepared_capacity: 64,
            engine: EngineConfig::default(),
            registry: None,
            recorder: None,
            trace_sample_every: 0,
            policy: PolicyConfig {
                mode: policy::PolicyMode::Always,
                ..PolicyConfig::default()
            },
            min_warm_serves: 0,
        }
    }
}

/// Why the tier refused to serve a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The owning shard's admission queue was full.
    QueueFull,
    /// The deadline had already passed (at submission or at dequeue).
    Expired,
    /// The request named a tenant the tier was not configured with.
    UnknownTenant,
    /// The tier is shutting down.
    ShuttingDown,
}

impl ShedReason {
    /// The metric-label value for `tier.shed{reason=...}`.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Expired => "expired",
            ShedReason::UnknownTenant => "unknown_tenant",
            ShedReason::ShuttingDown => "shutting_down",
        }
    }
}

/// Errors surfaced by [`TierTicket::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierError {
    /// Load-shed before (or instead of) service.
    Shed(ShedReason),
    /// The shard engine failed to produce an ordering.
    Engine(EngineError),
    /// The request was malformed (e.g. `x` length ≠ matrix columns).
    InvalidRequest(String),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Shed(r) => write!(f, "request shed: {}", r.as_str()),
            TierError::Engine(e) => write!(f, "engine error: {e}"),
            TierError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for TierError {}

/// One SpMV serving request.
#[derive(Debug, Clone)]
pub struct SpmvRequest {
    /// Must name a configured [`TenantSpec`].
    pub tenant: String,
    pub matrix: MatrixHandle,
    pub algo: AlgoSpec,
    pub kernel: KernelKind,
    /// The input vector, in the matrix's **original** column order.
    pub x: Arc<Vec<f64>>,
    /// Larger = dequeued first within the tenant's lane.
    pub priority: u8,
    /// Absolute deadline; expired requests are cancelled, not served.
    pub deadline: Option<Instant>,
}

/// A served answer.
#[derive(Debug, Clone)]
pub struct SpmvResponse {
    /// `y = A·x` in the matrix's **original** row order.
    pub y: Answer,
    /// Shard that served the request.
    pub shard: usize,
    /// Tier request ID (1-based submission order).
    pub request_id: u64,
    /// Submit-to-dequeue time in the admission queue.
    pub queue_wait: Duration,
    /// Dequeue-to-answer service time.
    pub service: Duration,
}

/// A served `y`, read as a `&[f64]`. Its buffer is on loan from the
/// serving shard's answer pool: dropping the answer hands the buffer
/// back for a later request to overwrite, instead of freeing it to the
/// allocator (which trims freed pages off the top of its heap and
/// faults them in again for the next round of answers). A clone is a
/// detached copy that the allocator frees.
pub struct Answer {
    y: Vec<f64>,
    /// Where the buffer goes when the answer drops; `None` for a clone.
    pool: Option<Arc<AnswerPool>>,
}

impl std::ops::Deref for Answer {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.y
    }
}

impl Clone for Answer {
    fn clone(&self) -> Self {
        Answer {
            y: self.y.clone(),
            pool: None,
        }
    }
}

impl std::fmt::Debug for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.y.fmt(f)
    }
}

impl Drop for Answer {
    fn drop(&mut self) {
        let Some(pool) = &self.pool else { return };
        // No code panics while holding the lock; if one ever did, the
        // buffer is simply freed.
        let Ok(mut idle) = pool.idle.lock() else {
            return;
        };
        if idle.len() < pool.capacity {
            idle.push(std::mem::take(&mut self.y));
        }
    }
}

/// One shard's idle answer buffers. The list only grows when more
/// answers are alive at once than it holds, so it stays at the peak
/// number of answers the shard's callers held together, and never
/// above `capacity`.
struct AnswerPool {
    idle: Mutex<Vec<Vec<f64>>>,
    /// The most buffers `idle` keeps: the shard's admission-queue
    /// capacity ([`TierConfig::queue_capacity`]).
    capacity: usize,
}

impl AnswerPool {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(AnswerPool {
            idle: Mutex::new(Vec::new()),
            capacity,
        })
    }

    /// An answer of `n` entries for a kernel to overwrite: the most
    /// recently returned buffer, cut or grown to `n`. Only the part of
    /// the buffer it never held is zero-filled; every kernel stores
    /// every `y` entry (empty rows store `0.0`, and a cut row's carry is
    /// added after its row was stored), so what the rest held before is
    /// never read.
    fn take(self: &Arc<Self>, n: usize) -> Answer {
        let mut y = self
            .idle
            .lock()
            .expect("nothing panics holding the answer pool's lock")
            .pop()
            .unwrap_or_default();
        y.truncate(n);
        y.resize(n, 0.0);
        Answer {
            y,
            pool: Some(Arc::clone(self)),
        }
    }
}

/// The slot a dispatcher fulfils and a [`TierTicket`] waits on.
struct ResponseSlot {
    result: Mutex<Option<Result<SpmvResponse, TierError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fulfil(&self, result: Result<SpmvResponse, TierError>) {
        let mut slot = self.result.lock().unwrap();
        // First writer wins (a request can only be resolved once).
        if slot.is_none() {
            *slot = Some(result);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Result<SpmvResponse, TierError> {
        let mut slot = self.result.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cv.wait(slot).unwrap();
        }
    }
}

/// A pending (or already shed) serving request.
pub struct TierTicket {
    slot: Arc<ResponseSlot>,
    request_id: u64,
    root: TraceSpan,
}

impl TierTicket {
    /// Block until the answer (or shed/error verdict) arrives.
    pub fn wait(self) -> Result<SpmvResponse, TierError> {
        let TierTicket { slot, root, .. } = self;
        let _wait = root.ctx().span(stages::TIER_WAIT);
        slot.wait()
    }

    /// The tier-assigned request ID (1-based submission order).
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Trace context parented at this request's `tier.request` root
    /// (disabled unless the request was sampled).
    pub fn trace_ctx(&self) -> TraceCtx {
        self.root.ctx()
    }
}

/// The unit travelling through a shard's admission queue.
struct QueuedRequest {
    request: SpmvRequest,
    tenant_index: usize,
    request_id: u64,
    slot: Arc<ResponseSlot>,
    submitted: Instant,
    trace: TraceCtx,
}

/// Everything a repeat request needs, cached per shard under (content
/// hash, algorithm): a request that finds its entry gathers `x`,
/// multiplies and answers without calling into the engine.
struct Prepared {
    /// The ordering the engine computed (or had cached) when the entry
    /// was built.
    ordering: Arc<CachedOrdering>,
    /// The matrix permuted by it — the request's own, shared, when it
    /// is the identity ([`AlgoSpec::Original`]). Never hashed: the
    /// entry's key is the *request's* content hash, and nothing else
    /// looks this one up.
    matrix: Arc<CsrMatrix>,
    /// The planned kernel of each [`KernelKind`] at the shard's
    /// `spmv_threads`, cut on first use ([`plan_kernel`]). They share
    /// `matrix`, so evicting the entry frees it.
    kernels: [OnceLock<Arc<dyn Kernel>>; 3],
}

/// Per-shard counters (shared registry, `shard="<i>"` labels).
struct ShardMetrics {
    admitted: Arc<Counter>,
    served: Arc<Counter>,
    failed: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    shed_expired: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl ShardMetrics {
    fn new(registry: &Registry, shard: &str) -> Self {
        let labels = [("shard", shard)];
        ShardMetrics {
            admitted: registry.counter_labeled("tier.admitted", &labels),
            served: registry.counter_labeled("tier.served", &labels),
            failed: registry.counter_labeled("tier.failed", &labels),
            shed_queue_full: registry
                .counter_labeled("tier.shed", &[("shard", shard), ("reason", "queue_full")]),
            shed_expired: registry
                .counter_labeled("tier.shed", &[("shard", shard), ("reason", "expired")]),
            queue_depth: registry.gauge_labeled("tier.queue_depth", &labels),
        }
    }
}

/// One shard: an engine, its admission queue, and its SpMV team.
struct ShardInner {
    index: usize,
    engine: Engine,
    queue: AdmissionQueue<QueuedRequest>,
    spmv_team: team::ThreadTeam,
    spmv_threads: usize,
    /// What a repeat request needs, by (content hash, algorithm)
    /// (`tier.prepared.*`).
    prepared: LruCache<(u128, AlgoSpec), Arc<Prepared>>,
    /// The buffers of dropped answers, for the next requests' `y`.
    answers: Arc<AnswerPool>,
    policy: Arc<PolicyEngine>,
    metrics: ShardMetrics,
    /// End-to-end latency histogram per tenant
    /// (`tier.request{tenant=...}`), indexed like the tenant list.
    tenant_hists: Vec<Arc<Histogram>>,
    /// Sheds attributed per tenant (`tier.shed_tenant{tenant=...}`) —
    /// the SLO tracker's "bad due to shedding" input. Shard-agnostic
    /// series, so all shards share the same counters.
    tenant_shed: Vec<Arc<Counter>>,
}

/// Shared readiness state: what `/readyz` asks.
struct ReadyState {
    expected_dispatchers: usize,
    live_dispatchers: AtomicUsize,
    draining: AtomicBool,
    min_warm_serves: u64,
}

/// Point-in-time statistics for one shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    pub admitted: u64,
    pub served: u64,
    /// Admitted requests that ended in an error other than a shed.
    pub failed: u64,
    pub shed_queue_full: u64,
    pub shed_expired: u64,
    pub queue_depth: i64,
    pub prepared_hits: u64,
    pub prepared_misses: u64,
    pub prepared_evictions: u64,
    pub engine: engine::EngineStats,
}

/// Point-in-time statistics for the whole tier.
#[derive(Debug, Clone, Default)]
pub struct TierStats {
    pub shards: Vec<ShardStats>,
    pub shed_unknown_tenant: u64,
}

impl TierStats {
    /// Requests served across all shards.
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Admitted requests that failed (not shed) across all shards.
    pub fn failed(&self) -> u64 {
        self.shards.iter().map(|s| s.failed).sum()
    }

    /// Requests shed across all shards (any reason).
    pub fn shed(&self) -> u64 {
        self.shed_unknown_tenant
            + self
                .shards
                .iter()
                .map(|s| s.shed_queue_full + s.shed_expired)
                .sum::<u64>()
    }
}

/// The sharded, admission-controlled serving tier (see module docs).
pub struct ServeTier {
    ring: HashRing,
    shards: Vec<Arc<ShardInner>>,
    policy: Arc<PolicyEngine>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
    tenants: Vec<TenantSpec>,
    /// tenant name → lane index.
    tenant_index: HashMap<String, usize>,
    registry: Arc<Registry>,
    recorder: Option<Arc<FlightRecorder>>,
    sample_every: u64,
    shed_unknown_tenant: Arc<Counter>,
    next_request: AtomicU64,
    traced: Mutex<std::collections::VecDeque<(u64, u64)>>,
    ready: Arc<ReadyState>,
}

impl ServeTier {
    /// Build the shards and start their dispatchers.
    pub fn new(config: TierConfig) -> Self {
        let registry = config.registry.unwrap_or_else(Registry::global);
        describe_tier_metrics(&registry);
        let tenants = if config.tenants.is_empty() {
            vec![TenantSpec::new("default", 1)]
        } else {
            config.tenants
        };
        let tenant_index: HashMap<String, usize> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), i))
            .collect();
        let weights: Vec<u32> = tenants.iter().map(|t| t.weight).collect();
        let nshards = config.shards.max(1);
        let ring = HashRing::new(nshards, config.vnodes);
        let policy = {
            let mut policy_config = config.policy.clone();
            policy_config.registry = Some(Arc::clone(&registry));
            Arc::new(PolicyEngine::new(policy_config))
        };

        let mut shards = Vec::with_capacity(nshards);
        for index in 0..nshards {
            let shard_label = index.to_string();
            let mut engine_config = config.engine.clone();
            engine_config.registry = Some(Arc::clone(&registry));
            engine_config.metric_labels = vec![("shard".to_string(), shard_label.clone())];
            let tenant_hists = tenants
                .iter()
                .map(|t| registry.histogram_labeled("tier.request", &[("tenant", &t.name)]))
                .collect();
            let tenant_shed = tenants
                .iter()
                .map(|t| registry.counter_labeled("tier.shed_tenant", &[("tenant", &t.name)]))
                .collect();
            shards.push(Arc::new(ShardInner {
                index,
                engine: Engine::new(engine_config),
                queue: AdmissionQueue::new(&weights, config.queue_capacity),
                spmv_team: team::ThreadTeam::new_in(&registry, config.spmv_threads.max(1)),
                spmv_threads: config.spmv_threads.max(1),
                prepared: LruCache::new(
                    config.prepared_capacity,
                    CacheMetrics::new(&registry, "tier.prepared", &[("shard", &shard_label)]),
                ),
                answers: AnswerPool::new(config.queue_capacity),
                policy: Arc::clone(&policy),
                metrics: ShardMetrics::new(&registry, &shard_label),
                tenant_hists,
                tenant_shed,
            }));
        }

        let ready = Arc::new(ReadyState {
            expected_dispatchers: nshards * config.dispatchers_per_shard.max(1),
            live_dispatchers: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            min_warm_serves: config.min_warm_serves,
        });
        let mut dispatchers = Vec::new();
        for shard in &shards {
            for d in 0..config.dispatchers_per_shard.max(1) {
                let shard = Arc::clone(shard);
                let ready_state = Arc::clone(&ready);
                dispatchers.push(
                    std::thread::Builder::new()
                        .name(format!("tier-shard{}-d{d}", shard.index))
                        .spawn(move || {
                            ready_state.live_dispatchers.fetch_add(1, Ordering::Release);
                            dispatch_loop(&shard);
                            ready_state.live_dispatchers.fetch_sub(1, Ordering::Release);
                        })
                        .expect("spawn tier dispatcher"),
                );
            }
        }

        ServeTier {
            ring,
            shards,
            policy,
            dispatchers: Mutex::new(dispatchers),
            tenants,
            tenant_index,
            shed_unknown_tenant: registry
                .counter_labeled("tier.shed", &[("reason", "unknown_tenant")]),
            registry,
            recorder: config.recorder,
            sample_every: config.trace_sample_every,
            next_request: AtomicU64::new(0),
            traced: Mutex::new(std::collections::VecDeque::new()),
            ready,
        }
    }

    /// The registry the tier and its shards report into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The reordering policy shared by all shards (decision engine,
    /// amortization ledger, online corrector).
    pub fn policy(&self) -> &Arc<PolicyEngine> {
        &self.policy
    }

    /// The flight recorder tracing sampled requests, if configured.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The configured tenants, in lane order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// The shard that owns a matrix: consistent hash of its *lineage
    /// root* — the oldest recorded ancestor for a mutated matrix, its
    /// own content address otherwise. Routing by lineage keeps a
    /// matrix and its delta descendants on the same shard, so the
    /// descendant's reorder finds the parent's cached component ranges
    /// and splices instead of recomputing.
    pub fn route(&self, matrix: &MatrixHandle) -> usize {
        let key = matrix
            .matrix()
            .lineage_root()
            .unwrap_or_else(|| matrix.content_hash());
        self.ring.route(key)
    }

    /// The engine of the shard owning `matrix`: the door through which
    /// the tier's tests read the ordering and the counters the serving
    /// path left there.
    pub fn engine_for(&self, matrix: &MatrixHandle) -> &Engine {
        &self.shards[self.route(matrix)].engine
    }

    /// Submit one request. Returns a ticket immediately; sheds
    /// (queue full, unknown tenant, already-expired deadline) surface
    /// as an immediately-ready `Err` on [`TierTicket::wait`].
    pub fn submit(&self, request: SpmvRequest) -> TierTicket {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed) + 1;
        let shard_index = self.route(&request.matrix);
        let shard = &self.shards[shard_index];
        let root = self.start_request_trace(request_id, shard_index, &request);
        let slot = ResponseSlot::new();
        let ticket = TierTicket {
            slot: Arc::clone(&slot),
            request_id,
            root,
        };

        let Some(&tenant_index) = self.tenant_index.get(&request.tenant) else {
            self.shed_unknown_tenant.inc();
            ticket.root.ctx().instant(stages::TIER_SHED);
            slot.fulfil(Err(TierError::Shed(ShedReason::UnknownTenant)));
            return ticket;
        };
        let ncols = request.matrix.matrix().ncols();
        if request.x.len() != ncols {
            slot.fulfil(Err(TierError::InvalidRequest(format!(
                "x has {} entries but the matrix has {ncols} columns",
                request.x.len()
            ))));
            return ticket;
        }
        let now = Instant::now();
        if request.deadline.is_some_and(|d| d <= now) {
            shard.metrics.shed_expired.inc();
            shard.tenant_shed[tenant_index].inc();
            ticket.root.ctx().instant(stages::TIER_EXPIRED);
            slot.fulfil(Err(TierError::Shed(ShedReason::Expired)));
            return ticket;
        }

        let priority = request.priority;
        let deadline = request.deadline;
        let queued = QueuedRequest {
            request,
            tenant_index,
            request_id,
            slot: Arc::clone(&slot),
            submitted: now,
            trace: ticket.root.ctx(),
        };
        // Count the request as queued before pushing: a dispatcher may
        // pop (and decrement) the instant push returns, and the gauge
        // saturates at zero rather than going transiently negative.
        shard.metrics.queue_depth.inc();
        match shard.queue.push(tenant_index, priority, deadline, queued) {
            Ok(()) => shard.metrics.admitted.inc(),
            Err(push_error) => {
                shard.metrics.queue_depth.dec();
                let reason = match push_error {
                    PushError::QueueFull => {
                        shard.metrics.shed_queue_full.inc();
                        shard.tenant_shed[tenant_index].inc();
                        ShedReason::QueueFull
                    }
                    PushError::UnknownTenant => {
                        self.shed_unknown_tenant.inc();
                        ShedReason::UnknownTenant
                    }
                    PushError::ShuttingDown => {
                        shard.tenant_shed[tenant_index].inc();
                        ShedReason::ShuttingDown
                    }
                };
                ticket.root.ctx().instant(stages::TIER_SHED);
                slot.fulfil(Err(TierError::Shed(reason)));
            }
        }
        ticket
    }

    /// Submit and wait: the blocking convenience call.
    pub fn serve(&self, request: SpmvRequest) -> Result<SpmvResponse, TierError> {
        self.submit(request).wait()
    }

    /// Open the `tier.request` root span when `request_id` falls on the
    /// sample stride; a disabled span otherwise.
    fn start_request_trace(
        &self,
        request_id: u64,
        shard: usize,
        request: &SpmvRequest,
    ) -> TraceSpan {
        let sampled = self.sample_every != 0 && (request_id - 1).is_multiple_of(self.sample_every);
        let (Some(recorder), true) = (&self.recorder, sampled) else {
            return TraceSpan::disabled();
        };
        let ctx = recorder.start_trace();
        let trace_id = ctx.trace_id().expect("a started trace has an id");
        let mut root = ctx.span(stages::TIER_REQUEST);
        root.arg("request", request_id);
        root.arg("shard", shard as u64);
        // Span args hold only static strings; the tenant travels as its
        // lane index (resolve via the tier config).
        if let Some(&t) = self.tenant_index.get(&request.tenant) {
            root.arg("tenant", t as u64);
        }
        let mut traced = self.traced.lock().unwrap();
        if traced.len() >= TRACED_INDEX_CAP {
            traced.pop_front();
        }
        traced.push_back((request_id, trace_id));
        root
    }

    /// The trace ID a sampled request recorded under, if still indexed.
    pub fn trace_id_for(&self, request_id: u64) -> Option<u64> {
        self.traced
            .lock()
            .unwrap()
            .iter()
            .find(|(r, _)| *r == request_id)
            .map(|(_, t)| *t)
    }

    /// Plain-text stage breakdown for a sampled request.
    pub fn trace_summary(&self, request_id: u64) -> Option<String> {
        self.request_trace(request_id).map(|snap| snap.summary())
    }

    /// Chrome-trace JSON for a sampled request.
    pub fn trace_chrome_json(&self, request_id: u64) -> Option<String> {
        self.request_trace(request_id)
            .map(|snap| snap.to_chrome_json())
    }

    fn request_trace(&self, request_id: u64) -> Option<telemetry::TraceSnapshot> {
        let recorder = self.recorder.as_ref()?;
        let trace_id = self.trace_id_for(request_id)?;
        let snap = recorder.snapshot().filter_trace(trace_id);
        (!snap.is_empty()).then_some(snap)
    }

    /// Should this tier receive traffic? `Err(reason)` while
    /// dispatchers are still coming up, the configured warm-up serve
    /// count has not been reached, or the tier is draining. This is
    /// the `/readyz` answer (via [`obsv::OpsSource`]).
    pub fn readiness(&self) -> Result<(), String> {
        if self.ready.draining.load(Ordering::Acquire) {
            return Err("draining".to_string());
        }
        let live = self.ready.live_dispatchers.load(Ordering::Acquire);
        let expected = self.ready.expected_dispatchers;
        if live < expected {
            return Err(format!("{live}/{expected} dispatchers live"));
        }
        let served: u64 = self.shards.iter().map(|s| s.metrics.served.get()).sum();
        if served < self.ready.min_warm_serves {
            return Err(format!(
                "warming: {served}/{} serves",
                self.ready.min_warm_serves
            ));
        }
        Ok(())
    }

    /// Graceful shutdown: mark not-ready, close the admission queues,
    /// join the dispatchers, and fulfil everything still queued as
    /// [`ShedReason::ShuttingDown`]. Idempotent; [`Drop`] calls it.
    pub fn drain(&self) {
        self.ready.draining.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.queue.close();
        }
        let handles: Vec<JoinHandle<()>> = self.dispatchers.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Whatever was admitted but never dequeued resolves as shed —
        // no ticket is left hanging.
        for shard in &self.shards {
            for queued in shard.queue.drain_remaining() {
                shard.metrics.queue_depth.dec();
                shard.tenant_shed[queued.tenant_index].inc();
                queued
                    .slot
                    .fulfil(Err(TierError::Shed(ShedReason::ShuttingDown)));
            }
        }
    }

    /// Statistics snapshot across all shards.
    pub fn stats(&self) -> TierStats {
        TierStats {
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    admitted: s.metrics.admitted.get(),
                    served: s.metrics.served.get(),
                    failed: s.metrics.failed.get(),
                    shed_queue_full: s.metrics.shed_queue_full.get(),
                    shed_expired: s.metrics.shed_expired.get(),
                    queue_depth: s.metrics.queue_depth.get(),
                    prepared_hits: s.prepared.metrics().hits.get(),
                    prepared_misses: s.prepared.metrics().misses.get(),
                    prepared_evictions: s.prepared.metrics().evictions.get(),
                    engine: s.engine.stats(),
                })
                .collect(),
            shed_unknown_tenant: self.shed_unknown_tenant.get(),
        }
    }
}

impl Drop for ServeTier {
    fn drop(&mut self) {
        self.drain();
    }
}

/// What the ops HTTP server asks the tier.
impl obsv::OpsSource for ServeTier {
    fn ready(&self) -> Result<(), String> {
        self.readiness()
    }

    fn health_detail(&self) -> String {
        let stats = self.stats();
        let queued: i64 = stats.shards.iter().map(|s| s.queue_depth).sum();
        format!(
            "\"shards\":{},\"queued\":{queued},\"served\":{},\"failed\":{},\"shed\":{},\"draining\":{}",
            stats.shards.len(),
            stats.served(),
            stats.failed(),
            stats.shed(),
            self.ready.draining.load(Ordering::Acquire),
        )
    }

    fn trace_index(&self) -> Vec<(u64, u64)> {
        self.traced.lock().unwrap().iter().copied().collect()
    }

    fn request_trace_json(&self, request_id: u64) -> Option<String> {
        self.trace_chrome_json(request_id)
    }
}

/// Register `# HELP` descriptions for the tier's metric families once
/// per registry (idempotent; last description wins).
fn describe_tier_metrics(registry: &Registry) {
    registry.describe("tier.admitted", "Requests admitted to a shard queue.");
    registry.describe("tier.served", "Requests answered end to end.");
    registry.describe(
        "tier.failed",
        "Admitted requests that ended in an error other than a shed (e.g. a non-square matrix): \
         the client's error, so not counted in tier.shed_tenant or SLO budget burn.",
    );
    registry.describe("tier.shed", "Requests refused, by shard and reason.");
    registry.describe(
        "tier.shed_tenant",
        "Requests refused, attributed to the submitting tenant (feeds the SLO tracker).",
    );
    registry.describe("tier.queue_depth", "Requests currently queued per shard.");
    registry.describe(
        "tier.request",
        "End-to-end request latency per tenant, nanoseconds.",
    );
    registry.describe("tier.prepared.hits", "Prepared-matrix cache hits.");
    registry.describe("tier.prepared.misses", "Prepared-matrix cache misses.");
    registry.describe(
        "tier.prepared.evictions",
        "Prepared-matrix cache entries evicted.",
    );
}

/// A shard dispatcher: pop, expire-or-execute, fulfil, repeat.
fn dispatch_loop(shard: &ShardInner) {
    // The permuted input of the request in hand; grows to the widest
    // matrix this dispatcher has served.
    let mut xp = Vec::new();
    loop {
        // Publish idle time on the stage board so a live profile shows
        // dispatchers waiting for work, not just executing it.
        let queued = {
            let _stage = telemetry::stage(stages::TIER_DISPATCH_WAIT);
            shard.queue.pop()
        };
        let Some(queued) = queued else { break };
        shard.metrics.queue_depth.dec();
        let dequeued = Instant::now();
        // The queue-wait interval, learned after the fact.
        queued.trace.complete(
            stages::ADMISSION_WAIT,
            queued.submitted,
            dequeued,
            Vec::new(),
        );
        if queued.request.deadline.is_some_and(|d| d <= dequeued) {
            shard.metrics.shed_expired.inc();
            shard.tenant_shed[queued.tenant_index].inc();
            queued.trace.instant(stages::TIER_EXPIRED);
            queued
                .slot
                .fulfil(Err(TierError::Shed(ShedReason::Expired)));
            continue;
        }
        let result = execute(shard, &queued, dequeued, &mut xp);
        if result.is_ok() {
            shard.metrics.served.inc();
            // Sampled requests pin their request ID — the key
            // `/traces/<id>` resolves — onto the latency histogram as
            // an exemplar: the `/metrics` ↔ `/traces/<id>` bridge.
            let exemplar = if queued.trace.is_recording() {
                queued.request_id
            } else {
                0
            };
            shard.tenant_hists[queued.tenant_index]
                .record_duration_exemplar(queued.submitted.elapsed(), exemplar);
        } else if matches!(result, Err(TierError::Shed(ShedReason::Expired))) {
            shard.metrics.shed_expired.inc();
            shard.tenant_shed[queued.tenant_index].inc();
        } else {
            // Every admitted request ends as served, shed or failed.
            shard.metrics.failed.inc();
            queued.trace.instant(stages::TIER_FAILED);
        }
        queued.slot.fulfil(result);
    }
}

/// Serve one dequeued request end to end on its shard. `xp` is the
/// dispatcher's scratch for the permuted input.
fn execute(
    shard: &ShardInner,
    queued: &QueuedRequest,
    dequeued: Instant,
    xp: &mut Vec<f64>,
) -> Result<SpmvResponse, TierError> {
    let request = &queued.request;
    let mut span = queued.trace.span(stages::TIER_EXECUTE);
    span.arg("algo", request.algo.name());
    span.arg("kernel", request.kernel.name());
    let ctx = span.ctx();
    let content_hash = request.matrix.content_hash();

    // 0. The policy decision: honour the requested reordering, or
    //    serve in original order — settled before any reorder work is
    //    queued, and recorded as its own trace stage. A prepared entry
    //    under the requested algorithm was built from a computed
    //    ordering, so it answers "already paid for" by itself; only
    //    without one is the engine's cache asked.
    let decision = {
        let cached = shard.prepared.peek(&(content_hash, request.algo)).is_some()
            || shard
                .engine
                .peek_cached(&request.matrix, request.algo)
                .is_some();
        let mut decide = ctx.span(stages::POLICY_DECIDE);
        decide.arg("mode", shard.policy.mode().as_str());
        decide.arg("requested", request.algo.name());
        let decision =
            shard
                .policy
                .decide(request.matrix.matrix(), content_hash, request.algo, cached);
        decide.arg("chosen", decision.algo.name());
        decide.arg("reason", decision.reason);
        decision
    };
    let algo = decision.algo;

    // 1. The prepared entry for the decided key: the request's one
    //    counted probe. A hit goes straight to the multiply.
    let key = (content_hash, algo);
    let prepared = match shard.prepared.get(&key) {
        Some(p) => p,
        None => build_prepared(shard, request, key, decision.reorders(), &ctx)?,
    };

    // 2. The planned kernel for the reordered matrix: the entry's own
    //    after the first request of this kernel kind.
    let kernel = prepared.kernels[request.kernel as usize]
        .get_or_init(|| plan_kernel(shard, &prepared.matrix, request.kernel, &ctx));

    // 3. Gather in, multiply, scatter out: the caller sees original
    //    index space on both sides. A symmetric ordering permuted the
    //    columns, so `x` is gathered to match; a row-only one (Gray)
    //    left them alone. Both permuted the rows, which the kernel
    //    undoes as it stores.
    let ordering = &prepared.ordering;
    let x: &[f64] = if ordering.symmetric {
        ordering.perm.apply_to_slice_into(&request.x, xp);
        xp
    } else {
        &request.x
    };
    let mut y = shard.answers.take(prepared.matrix.nrows());
    let spmv_started = Instant::now();
    {
        let mut compute = ctx.span(stages::TIER_SPMV);
        compute.arg("kernel", request.kernel.name());
        kernel.execute_scatter(&shard.spmv_team, x, &mut y.y, &ordering.perm);
    }
    // Close the feedback loop: the observed service time under the
    // chosen ordering feeds the ledger and the online corrector.
    shard
        .policy
        .observe_spmv(content_hash, algo, spmv_started.elapsed().as_secs_f64());

    Ok(SpmvResponse {
        y,
        shard: shard.index,
        request_id: queued.request_id,
        queue_wait: dequeued - queued.submitted,
        service: dequeued.elapsed(),
    })
}

/// The miss arm of [`execute`]: fetch the ordering through the shard
/// engine, permute, insert. Out of line so that the warm path, which
/// never gets here, does not carry its code.
#[cold]
#[inline(never)]
fn build_prepared(
    shard: &ShardInner,
    request: &SpmvRequest,
    key: (u128, AlgoSpec),
    reorders: bool,
    ctx: &TraceCtx,
) -> Result<Arc<Prepared>, TierError> {
    let (content_hash, algo) = key;
    // The ordering, through the shard engine's caches, computed on
    // this dispatcher when they miss — with the deadline attached, so
    // an expiry cancels it pre-reorder.
    let ordering = shard
        .engine
        .submit_opts(
            &request.matrix,
            algo,
            SubmitOptions {
                deadline: request.deadline,
                trace: ctx.clone(),
            },
        )
        .wait()
        .map_err(|e| match e {
            EngineError::Expired => TierError::Shed(ShedReason::Expired),
            other => TierError::Engine(other),
        })?;
    if reorders {
        // Here is the only place an ordering can have just been
        // computed. The ledger bills the one-time cost once per key; a
        // rebuild from a cached ordering re-reports the same figure
        // harmlessly.
        shard
            .policy
            .record_reorder_paid(content_hash, algo, ordering.compute_seconds);
    }
    // A cached ordering is instant, but a computed one may have
    // consumed the whole budget: re-check before the permutation and
    // the SpMV work.
    if request.deadline.is_some_and(|d| d <= Instant::now()) {
        ctx.instant(stages::TIER_EXPIRED);
        return Err(TierError::Shed(ShedReason::Expired));
    }
    let matrix = if ordering.perm.is_identity() {
        // The identity permutes nothing: "don't reorder"
        // ([`AlgoSpec::Original`]) serves from the request's own matrix
        // instead of a copy. Asked of the permutation, not of `algo`:
        // the gather and the scatter go through `ordering.perm`
        // whatever it is, and a scan that stops at the first moved row
        // costs a real reordering nothing.
        Arc::clone(request.matrix.matrix())
    } else {
        // Built outside the cache lock: two dispatchers racing the
        // same key both build, one insert wins — benign, and the lock
        // never blocks on an O(nnz) permutation.
        let mut permute = ctx.span(stages::REORDER_PERMUTE);
        permute.arg("rows", request.matrix.matrix().nrows() as u64);
        let reordered = ordering
            .apply_on(
                request.matrix.matrix(),
                team::Exec::Team(shard.engine.reorder_team()),
            )
            .map_err(|e| {
                TierError::Engine(EngineError::Compute {
                    algo,
                    message: e.to_string(),
                })
            })?;
        Arc::new(reordered)
    };
    let prepared = Arc::new(Prepared {
        ordering,
        matrix,
        kernels: Default::default(),
    });
    shard.prepared.insert(key, Arc::clone(&prepared));
    Ok(prepared)
}

/// Cut the plan of one kernel kind for a prepared entry's matrix:
/// O(spans) work, kept by the entry. Out of line for the same reason
/// as [`build_prepared`].
#[cold]
#[inline(never)]
fn plan_kernel(
    shard: &ShardInner,
    matrix: &Arc<CsrMatrix>,
    kind: KernelKind,
    ctx: &TraceCtx,
) -> Arc<dyn Kernel> {
    let mut span = ctx.span(stages::TIER_PLAN);
    span.arg("kernel", kind.name());
    kind.plan(matrix, shard.spmv_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(queue_capacity: usize) -> ServeTier {
        ServeTier::new(TierConfig {
            queue_capacity,
            spmv_threads: 1,
            registry: Some(Registry::new_arc()),
            ..TierConfig::default()
        })
    }

    fn serve(tier: &ServeTier, matrix: &MatrixHandle) -> Answer {
        let x = Arc::new(vec![1.0; matrix.matrix().ncols()]);
        tier.serve(SpmvRequest {
            tenant: "default".into(),
            matrix: matrix.clone(),
            algo: AlgoSpec::Rcm,
            kernel: KernelKind::OneD,
            x,
            priority: 0,
            deadline: None,
        })
        .unwrap()
        .y
    }

    fn idle(pool: &AnswerPool) -> usize {
        pool.idle.lock().unwrap().len()
    }

    #[test]
    fn a_cloned_answer_is_detached_from_the_pool() {
        let pool = AnswerPool::new(4);
        let mut answer = pool.take(3);
        answer.y.copy_from_slice(&[1.0, 2.0, 3.0]);
        let copy = answer.clone();
        answer.y[0] = 9.0;
        drop(answer);
        // The next answer overwrites the original's buffer.
        let mut next = pool.take(3);
        next.y.fill(7.0);
        assert_eq!(*copy, [1.0, 2.0, 3.0]);
        assert_eq!(format!("{copy:?}"), "[1.0, 2.0, 3.0]");
        // A copy goes back to the allocator, not to the pool.
        drop(copy);
        assert_eq!(idle(&pool), 0);
        drop(next);
        assert_eq!(idle(&pool), 1);
    }

    #[test]
    fn answers_outliving_their_tier_drop_cleanly() {
        let tier = tier(8);
        let matrix = MatrixHandle::from_matrix(corpus::mesh2d(6, 6));
        let want = matrix.matrix().spmv_dense(&[1.0; 36]);
        let answers: Vec<Answer> = (0..3).map(|_| serve(&tier, &matrix)).collect();
        let pool = Arc::downgrade(&tier.shards[0].answers);
        drop(tier);
        for answer in &answers {
            assert_eq!(**answer, want[..]);
        }
        drop(answers);
        assert!(
            pool.upgrade().is_none(),
            "the pool outlived its last answer"
        );
    }

    #[test]
    fn the_pool_keeps_at_most_queue_capacity_buffers() {
        let tier = tier(4);
        let matrix = MatrixHandle::from_matrix(corpus::mesh2d(6, 6));
        let answers: Vec<Answer> = (0..10).map(|_| serve(&tier, &matrix)).collect();
        let pool = &tier.shards[0].answers;
        assert_eq!(idle(pool), 0);
        drop(answers);
        assert_eq!(idle(pool), 4);
        // A taken buffer is cut to the answer's length; the part it
        // never held is zero-filled.
        let mut short = pool.take(2);
        short.y.fill(5.0);
        drop(short);
        let long = pool.take(36);
        assert_eq!(long[..2], [5.0, 5.0]);
        assert!(long[2..].iter().all(|&v| v == 0.0));
    }
}
