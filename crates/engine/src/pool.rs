//! The batched worker pool: a fixed set of `std::thread` workers
//! consuming a bounded job queue.
//!
//! Each job computes one reordering and publishes it through the
//! shared cache plus an [`InFlight`] slot that every coalesced waiter
//! blocks on. The queue is bounded (`std::sync::mpsc::sync_channel`),
//! so a flood of submissions applies back-pressure to callers instead
//! of ballooning memory.
//!
//! The pool reports through the telemetry registry (`engine.pool.*`):
//! a queue-depth gauge (incremented by the submitter, decremented at
//! dequeue), a per-job wall-clock histogram, and executed/failed
//! counters. The reordering itself runs under
//! [`reorder::timed_components_on`] with the engine's shared reorder
//! team, so per-algorithm compute histograms (`reorder.rcm`, ...) and
//! throughput gauges (`reorder.rcm.nnz_per_s`) accumulate in the same
//! registry. Every job opens `engine.reorder` on its request's trace
//! context with the `reorder.symmetrize` / `reorder.levels` /
//! `reorder.splice` sub-stages beneath it: recorded when the request
//! is traced, and on the worker's live stage stack either way.

use crate::cache::{CachedOrdering, OrderingKey};
use crate::EngineError;
use sparsemat::CsrMatrix;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::trace::TraceCtx;
use telemetry::{Counter, Gauge, Histogram, Registry};

/// One queued reordering computation.
pub(crate) struct Job {
    pub key: OrderingKey,
    pub matrix: Arc<CsrMatrix>,
    pub slot: Arc<InFlight>,
    /// The request's context, parented at its `engine.request` span
    /// (disabled for an untraced request).
    pub trace: TraceCtx,
    /// When the job entered the channel, so the worker can backdate
    /// the `engine.queue.wait` span to cover the time it sat there.
    pub enqueued: Instant,
}

/// The rendezvous for one in-flight computation: the first requester
/// enqueues the job; every later requester for the same key blocks on
/// the same slot and receives the shared result.
#[derive(Debug)]
pub(crate) struct InFlight {
    state: Mutex<Option<Result<Arc<CachedOrdering>, EngineError>>>,
    cv: Condvar,
    /// Effective deadline for the computation: the latest deadline over
    /// every coalesced waiter, `None` meaning unbounded. A worker that
    /// dequeues the job after this instant cancels it without ever
    /// touching `reorder`.
    deadline: Mutex<Option<Instant>>,
}

impl InFlight {
    pub(crate) fn with_deadline(deadline: Option<Instant>) -> Self {
        InFlight {
            state: Mutex::new(None),
            cv: Condvar::new(),
            deadline: Mutex::new(deadline),
        }
    }

    /// Extend the shared deadline to cover a newly coalesced waiter:
    /// the computation must stay alive until the *latest* interested
    /// deadline, and any unbounded waiter makes it unbounded.
    pub(crate) fn extend_deadline(&self, other: Option<Instant>) {
        let mut d = self.deadline.lock().unwrap();
        *d = match (*d, other) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
    }

    /// The current effective deadline (`None` = unbounded).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        *self.deadline.lock().unwrap()
    }

    /// Block until the computation completes.
    pub(crate) fn wait(&self) -> Result<Arc<CachedOrdering>, EngineError> {
        let mut guard = self.state.lock().unwrap();
        while guard.is_none() {
            guard = self.cv.wait(guard).unwrap();
        }
        guard.as_ref().expect("checked above").clone()
    }

    pub(crate) fn fulfil(&self, result: Result<Arc<CachedOrdering>, EngineError>) {
        let mut guard = self.state.lock().unwrap();
        *guard = Some(result);
        self.cv.notify_all();
    }
}

/// The pool's registry metrics (`engine.pool.*`), resolved once.
#[derive(Debug)]
pub(crate) struct PoolMetrics {
    /// Jobs computed to completion.
    pub jobs_executed: Arc<Counter>,
    /// Jobs whose computation failed.
    pub jobs_failed: Arc<Counter>,
    /// Total successful compute wall-clock, nanoseconds.
    pub compute_ns: Arc<Counter>,
    /// Wall-clock per job (success or failure), nanoseconds.
    pub job_duration: Arc<Histogram>,
    /// Jobs enqueued but not yet picked up by a worker.
    pub queue_depth: Arc<Gauge>,
    /// Jobs cancelled at dequeue because their deadline had passed.
    pub expired: Arc<Counter>,
    /// Jobs whose lineage probe found a cached ancestor ordering.
    pub delta_hits: Arc<Counter>,
    /// Jobs served by splicing instead of a full recompute.
    pub delta_splices: Arc<Counter>,
    /// Dirty fraction of the most recent splice, in basis points
    /// (10000 = the whole matrix was re-ordered).
    pub delta_dirty_frac: Arc<Gauge>,
}

impl PoolMetrics {
    /// Resolve the pool series with `labels` on every one, so several
    /// engines sharing one registry (the serving tier's shards) keep
    /// distinct gauges and counters instead of colliding on the global
    /// names. Empty labels give the plain single-engine series.
    pub(crate) fn new_labeled(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        PoolMetrics {
            jobs_executed: registry.counter_labeled("engine.pool.jobs_executed", labels),
            jobs_failed: registry.counter_labeled("engine.pool.jobs_failed", labels),
            compute_ns: registry.counter_labeled("engine.pool.compute_ns", labels),
            job_duration: registry.histogram_labeled("engine.pool.job", labels),
            queue_depth: registry.gauge_labeled("engine.pool.queue_depth", labels),
            expired: registry.counter_labeled("engine.expired", labels),
            delta_hits: registry.counter_labeled("engine.delta.hits", labels),
            delta_splices: registry.counter_labeled("engine.delta.splices", labels),
            delta_dirty_frac: registry.gauge_labeled("engine.delta.dirty_frac", labels),
        }
    }
}

/// Everything a worker needs to process jobs.
pub(crate) struct WorkerContext {
    pub cache: Arc<crate::cache::OrderingCache>,
    pub inflight: Arc<Mutex<std::collections::HashMap<OrderingKey, Arc<InFlight>>>>,
    pub registry: Arc<Registry>,
    pub metrics: PoolMetrics,
    /// Shared team the parallel ordering stages dispatch on (size 1
    /// keeps every stage inline on the worker thread). The team's
    /// dispatch mutex serialises regions, so concurrent workers simply
    /// take turns using it.
    pub reorder_team: Arc<team::ThreadTeam>,
}

/// Spawn `workers` threads consuming from a bounded channel of
/// capacity `queue_capacity`. Returns the sender and the join handles;
/// dropping the sender drains and stops the pool.
pub(crate) fn spawn_pool(
    workers: usize,
    queue_capacity: usize,
    ctx: WorkerContext,
) -> (SyncSender<Job>, Vec<JoinHandle<()>>) {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(queue_capacity.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let ctx = Arc::new(ctx);
    let handles = (0..workers.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("engine-worker-{i}"))
                .spawn(move || worker_loop(&rx, &ctx))
                .expect("spawning an engine worker thread")
        })
        .collect();
    (tx, handles)
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, ctx: &WorkerContext) {
    loop {
        // Hold the receiver lock only for the dequeue, never during
        // compute, so workers pull jobs concurrently.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // all senders dropped: pool shutdown
        };
        ctx.metrics.queue_depth.dec();
        process(job, ctx);
    }
}

fn process(job: Job, ctx: &WorkerContext) {
    let start = Instant::now();
    // The queue wait ends where the compute begins: backdated to the
    // enqueue instant so the trace shows the gap, not just the work.
    job.trace
        .complete("engine.queue.wait", job.enqueued, start, Vec::new());
    // Cancellation point: a request whose deadline passed while queued
    // is fulfilled with `Expired` here, before any reorder work starts,
    // so expensive orderings are never computed for dead requests.
    if let Some(deadline) = job.slot.deadline() {
        if start >= deadline {
            ctx.metrics.expired.inc();
            job.trace.instant("engine.expired");
            ctx.inflight.lock().unwrap().remove(&job.key);
            job.slot.fulfil(Err(EngineError::Expired));
            return;
        }
    }
    let mut reorder_span = job.trace.span("engine.reorder");
    reorder_span.arg("algo", job.key.algo.name());
    let rexec = reorder::ReorderExec::on_team(&ctx.reorder_team).with_trace(reorder_span.ctx());
    let algo = job.key.algo.instantiate();
    let computed = match try_splice(&job, ctx, algo.as_ref(), &rexec) {
        Some(t) => Ok(t),
        None => reorder::timed_components_on(&ctx.registry, algo.as_ref(), &job.matrix, &rexec),
    };
    reorder_span.arg("ok", if computed.is_ok() { "true" } else { "false" });
    drop(reorder_span);
    let elapsed = start.elapsed();
    ctx.metrics.job_duration.record_duration(elapsed);

    let result = match computed {
        Ok(t) => {
            let cached = Arc::new(CachedOrdering {
                perm: t.result.perm,
                symmetric: t.result.symmetric,
                compute_seconds: t.elapsed.as_secs_f64(),
                ranges: t.ranges,
            });
            ctx.cache.insert(job.key, Arc::clone(&cached));
            ctx.metrics.jobs_executed.inc();
            ctx.metrics
                .compute_ns
                .add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            Ok(cached)
        }
        Err(e) => {
            ctx.metrics.jobs_failed.inc();
            Err(EngineError::Compute {
                algo: job.key.algo,
                message: e.to_string(),
            })
        }
    };

    // Publish order matters: the cache already has the entry, so once
    // the key leaves the in-flight map any new request finds it there.
    ctx.inflight.lock().unwrap().remove(&job.key);
    job.slot.fulfil(result);
}

/// The delta-update path: walk the matrix's lineage newest→oldest,
/// accumulating the touched-row union, and probe the cache for each
/// ancestor's ordering under the same algorithm. On a hit with a
/// component→range map, re-order only the dirty components and splice
/// the cached sub-permutations back (byte-identical to a full
/// recompute — see [`reorder::splice_ordering_on`]). Returns `None`
/// when no ancestor is cached, the algorithm is not
/// component-structured, or the splice declines — the caller falls
/// back to the full compute path.
fn try_splice(
    job: &Job,
    ctx: &WorkerContext,
    algo: &dyn reorder::ReorderAlgorithm,
    rexec: &reorder::ReorderExec<'_>,
) -> Option<reorder::TimedComponentReordering> {
    if !algo.supports_components() || job.matrix.lineage().is_empty() {
        return None;
    }
    // Nearest cached ancestor wins: it has the smallest touched set.
    let mut touched: Vec<u32> = Vec::new();
    let mut found: Option<Arc<CachedOrdering>> = None;
    for hop in job.matrix.lineage().iter().rev() {
        touched.extend_from_slice(&hop.touched);
        let key = OrderingKey::new(hop.parent, job.key.algo);
        if let Some(entry) = ctx.cache.peek(&key) {
            if entry.ranges.is_some() {
                found = Some(entry);
                break;
            }
        }
    }
    let entry = found?;
    ctx.metrics.delta_hits.inc();
    touched.sort_unstable();
    touched.dedup();

    let mut span = rexec.trace().span("reorder.splice");
    span.arg("algo", job.key.algo.name());
    let start = Instant::now();
    let spliced = reorder::splice_ordering_on(
        algo,
        &job.matrix,
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
    ctx.metrics.delta_splices.inc();
    ctx.metrics
        .delta_dirty_frac
        .set((report.dirty_frac(job.matrix.nrows()) * 10_000.0) as i64);
    ctx.registry
        .histogram("reorder.splice")
        .record_duration(elapsed);
    let (result, ranges) = co.into_parts().ok()?;
    Some(reorder::TimedComponentReordering {
        result,
        ranges: Some(ranges),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn coalesced_deadlines_extend_to_the_latest() {
        let now = Instant::now();
        let slot = InFlight::with_deadline(Some(now + Duration::from_millis(10)));
        // A later waiter pushes the deadline out...
        slot.extend_deadline(Some(now + Duration::from_millis(50)));
        assert_eq!(slot.deadline(), Some(now + Duration::from_millis(50)));
        // ...an earlier one never pulls it back in...
        slot.extend_deadline(Some(now + Duration::from_millis(5)));
        assert_eq!(slot.deadline(), Some(now + Duration::from_millis(50)));
        // ...and an unbounded waiter makes the computation unbounded.
        slot.extend_deadline(None);
        assert_eq!(slot.deadline(), None);
        slot.extend_deadline(Some(now));
        assert_eq!(slot.deadline(), None, "unbounded stays unbounded");
    }
}
