//! The flight recorder: request-scoped tracing with per-thread event
//! rings.
//!
//! Aggregate metrics ([`crate::Histogram`] and friends) answer "how is
//! the system doing overall"; they cannot answer "where did *this*
//! request spend its time, and which worker was the straggler". The
//! flight recorder answers that question with per-thread, drop-oldest
//! ring buffers of timestamped [`TraceEvent`]s carrying trace/span/
//! parent identifiers:
//!
//! - **[`FlightRecorder`]** owns the rings (one per thread that ever
//!   recorded, created lazily) plus the trace/span ID allocators. A
//!   thread records only into its own ring through a thread-local
//!   handle, so recording never contends with other threads; the ring
//!   mutex exists solely so snapshots can read a ring the owner is not
//!   currently writing.
//! - **[`TraceCtx`]** is the propagation handle: cheap to clone
//!   (`Arc` + two integers), `Send + Sync`, carried through the engine
//!   request lifecycle and into `ThreadTeam` dispatches. A disabled
//!   context ([`TraceCtx::disabled`]) records nothing and never reads
//!   the clock.
//! - **[`TraceSpan`]** is the one stage guard: `Begin` on creation,
//!   `End` (with accumulated args) on drop, both into the ring of the
//!   thread that *opened* the span so every per-thread event stream
//!   keeps balanced Begin/End pairs. It also holds the stage's entry
//!   on the live board ([`crate::stage()`]), and that half does not
//!   depend on sampling: a span opened on a disabled context still
//!   publishes its name while a [`crate::StageSession`] is live, so
//!   the profiler sees every request, not every hundredth. With the
//!   board off too, opening one costs the `Option` check plus one
//!   relaxed load. [`TraceSpan::ctx`] hands out a child
//!   context whose parent is this span — the explicit parent handle
//!   that lets events recorded on a worker thread land under the
//!   submitting thread's span instead of as orphaned roots.
//!
//! Ring overflow drops the **oldest** events and counts the drops
//! (per-ring and recorder-wide), so a long-running process keeps the
//! recent past at a bounded memory cost: `capacity × threads` events.
//! Timestamps are nanoseconds since recorder creation and are clamped
//! monotonically non-decreasing *per ring*, so each per-thread stream
//! is sorted by construction — what the Chrome-trace exporter
//! ([`TraceSnapshot::to_chrome_json`]) requires for well-nested B/E
//! pairs.

use crate::stage::StageGuard;
use crate::stages::Stage;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// A value attached to a span or instant event, exported under `args`
/// in the Chrome-trace JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    /// A static label (stage outcomes, kernel names, ...).
    Str(&'static str),
    /// A dynamically built label. Allocates; prefer [`ArgValue::Str`]
    /// on hot paths.
    Text(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Text(v)
    }
}

/// Event kinds, mirroring the Chrome-trace phases the exporter emits
/// (`B`, `E`, `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span begin.
    Begin,
    /// Span end (carries the span's args).
    End,
    /// A point-in-time marker.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created, monotonically
    /// non-decreasing within each thread's ring.
    pub ts_ns: u64,
    pub kind: EventKind,
    /// Stage name (`engine.reorder`, `spmv.team.compute`, ...).
    pub name: &'static str,
    /// The request-scoped trace this event belongs to.
    pub trace_id: u64,
    /// This span's ID (shared by its Begin/End pair; fresh for
    /// instants).
    pub span_id: u64,
    /// The enclosing span's ID (0 = root).
    pub parent_id: u64,
    /// Attached key/value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct RingState {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// One thread's event ring inside a recorder.
pub(crate) struct ThreadRing {
    tid: u64,
    name: String,
    state: Mutex<RingState>,
    /// Monotonic clamp: no event in this ring may carry a timestamp
    /// earlier than the previous one (backdated begins are clamped).
    last_ts: AtomicU64,
}

impl ThreadRing {
    fn push(&self, capacity: usize, mut event: TraceEvent, recorder_drops: &AtomicU64) {
        let floor = self.last_ts.fetch_max(event.ts_ns, Ordering::Relaxed);
        event.ts_ns = event.ts_ns.max(floor);
        let mut state = self.state.lock().unwrap();
        if state.events.len() >= capacity {
            state.events.pop_front();
            state.dropped += 1;
            recorder_drops.fetch_add(1, Ordering::Relaxed);
        }
        state.events.push_back(event);
    }
}

// Per-thread cache of (recorder id → ring) so the hot path never
// touches the recorder's ring list. `Weak` so rings of dropped
// recorders do not outlive them; dead entries are pruned lazily.
thread_local! {
    static THREAD_RINGS: RefCell<Vec<(u64, Weak<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// Process-unique recorder IDs (thread-local cache keys).
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// The flight recorder: bounded per-thread rings of [`TraceEvent`]s.
///
/// ```
/// use telemetry::trace::FlightRecorder;
/// use telemetry::Stage;
///
/// const REQUEST: Stage = Stage::scratch("request");
/// const STEP: Stage = Stage::scratch("step");
/// let recorder = FlightRecorder::new(1024);
/// let ctx = recorder.start_trace();
/// {
///     let mut span = ctx.span(REQUEST);
///     span.arg("matrix", "mesh2d");
///     let _child = span.ctx().span(STEP);
/// }
/// let snap = recorder.snapshot();
/// assert_eq!(snap.total_events(), 4); // two Begin/End pairs
/// assert!(snap.to_chrome_json().contains("\"ph\":\"B\""));
/// ```
pub struct FlightRecorder {
    id: u64,
    /// Per-thread ring capacity, in events.
    capacity: usize,
    /// Timestamp origin.
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    next_tid: AtomicU64,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder whose per-thread rings hold at most
    /// `capacity_per_thread` events (clamped to ≥ 8).
    pub fn new(capacity_per_thread: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity_per_thread.max(8),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            next_tid: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// Total events dropped to ring overflow, across all threads.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Begin a new trace: allocates a trace ID and returns the root
    /// propagation context (parent 0). Whether a request is traced at
    /// all is the caller's sampling decision, made before this call.
    pub fn start_trace(self: &Arc<Self>) -> TraceCtx {
        TraceCtx {
            inner: Some(CtxInner {
                recorder: Arc::clone(self),
                trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
                parent: 0,
            }),
        }
    }

    fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn instant_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The calling thread's ring, registering it on first use.
    fn ring(self: &Arc<Self>) -> Arc<ThreadRing> {
        THREAD_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(id, _)| *id == self.id) {
                if let Some(ring) = weak.upgrade() {
                    return ring;
                }
            }
            // Prune rings of recorders that no longer exist, then
            // register this thread with this recorder.
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let ring = Arc::new(ThreadRing {
                tid,
                name,
                state: Mutex::new(RingState {
                    events: VecDeque::with_capacity(self.capacity),
                    dropped: 0,
                }),
                last_ts: AtomicU64::new(0),
            });
            self.rings.lock().unwrap().push(Arc::clone(&ring));
            cache.push((self.id, Arc::downgrade(&ring)));
            ring
        })
    }

    fn emit(self: &Arc<Self>, ring: &ThreadRing, event: TraceEvent) {
        ring.push(self.capacity, event, &self.dropped);
    }

    /// A point-in-time copy of every ring, threads sorted by ID.
    pub fn snapshot(&self) -> TraceSnapshot {
        let rings = self.rings.lock().unwrap();
        let mut threads: Vec<ThreadEvents> = rings
            .iter()
            .map(|ring| {
                let state = ring.state.lock().unwrap();
                ThreadEvents {
                    tid: ring.tid,
                    name: ring.name.clone(),
                    dropped: state.dropped,
                    events: state.events.iter().cloned().collect(),
                }
            })
            .collect();
        threads.sort_by_key(|t| t.tid);
        TraceSnapshot {
            threads,
            dropped: self.dropped(),
        }
    }
}

#[derive(Clone)]
struct CtxInner {
    recorder: Arc<FlightRecorder>,
    trace_id: u64,
    parent: u64,
}

/// The trace propagation handle: which trace, and which span new
/// events should attach under. Clone freely; send across threads.
#[derive(Clone, Default)]
pub struct TraceCtx {
    inner: Option<CtxInner>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "TraceCtx(trace {}, parent {})", i.trace_id, i.parent),
            None => write!(f, "TraceCtx(disabled)"),
        }
    }
}

impl TraceCtx {
    /// The non-recording context: nothing reaches a recorder and the
    /// clock is never read; [`TraceCtx::span`] still marks the stage
    /// on the live board.
    pub fn disabled() -> TraceCtx {
        TraceCtx { inner: None }
    }

    /// True if operations on this context record events.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace this context belongs to (None when disabled).
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.trace_id)
    }

    /// Mark a stage: publish it on the live stage board while a
    /// [`crate::StageSession`] is active, and — when this context is
    /// recording — open a span under its parent (`Begin` now, `End` on
    /// drop).
    pub fn span(&self, stage: Stage) -> TraceSpan {
        let name = stage.name;
        let _stage = crate::stage::stage(stage);
        let Some(inner) = &self.inner else {
            return TraceSpan { live: None, _stage };
        };
        let recorder = &inner.recorder;
        let ring = recorder.ring();
        let span_id = recorder.alloc_span();
        recorder.emit(
            &ring,
            TraceEvent {
                ts_ns: recorder.now_ns(),
                kind: EventKind::Begin,
                name,
                trace_id: inner.trace_id,
                span_id,
                parent_id: inner.parent,
                args: Vec::new(),
            },
        );
        TraceSpan {
            live: Some(SpanLive {
                recorder: Arc::clone(recorder),
                ring,
                trace_id: inner.trace_id,
                span_id,
                parent: inner.parent,
                name,
                args: Vec::new(),
            }),
            _stage,
        }
    }

    /// Record a completed span in one call: `Begin` at `begin`, `End`
    /// at `end` (both clamped to this thread's ring monotonicity), args
    /// on the `End` event. This is how worker lanes record segments
    /// whose start they learned after the fact (queue waits, dispatch
    /// latencies).
    pub fn complete(
        &self,
        stage: Stage,
        begin: Instant,
        end: Instant,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let recorder = &inner.recorder;
        let ring = recorder.ring();
        let span_id = recorder.alloc_span();
        let base = TraceEvent {
            ts_ns: recorder.instant_ns(begin),
            kind: EventKind::Begin,
            name: stage.name,
            trace_id: inner.trace_id,
            span_id,
            parent_id: inner.parent,
            args: Vec::new(),
        };
        recorder.emit(&ring, base.clone());
        recorder.emit(
            &ring,
            TraceEvent {
                ts_ns: recorder.instant_ns(end),
                kind: EventKind::End,
                args,
                ..base
            },
        );
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, stage: Stage) {
        self.instant_with(stage, Vec::new());
    }

    /// Record a marker with args.
    pub fn instant_with(&self, stage: Stage, args: Vec<(&'static str, ArgValue)>) {
        let Some(inner) = &self.inner else { return };
        let recorder = &inner.recorder;
        let ring = recorder.ring();
        let span_id = recorder.alloc_span();
        recorder.emit(
            &ring,
            TraceEvent {
                ts_ns: recorder.now_ns(),
                kind: EventKind::Instant,
                name: stage.name,
                trace_id: inner.trace_id,
                span_id,
                parent_id: inner.parent,
                args,
            },
        );
    }
}

struct SpanLive {
    recorder: Arc<FlightRecorder>,
    /// The ring `Begin` was recorded into; `End` goes to the same ring
    /// even if the span is dropped on another thread, keeping every
    /// per-thread stream's B/E pairs balanced.
    ring: Arc<ThreadRing>,
    trace_id: u64,
    span_id: u64,
    parent: u64,
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
}

/// An open stage: records `End` (with args) when dropped if its
/// context was recording, and holds the stage's board entry either way.
#[must_use = "a trace span ends its stage when dropped; binding it to _ drops it immediately"]
pub struct TraceSpan {
    live: Option<SpanLive>,
    /// Pops its own entry on drop, so a span moved to another thread
    /// (a ticket's root) leaves the opening thread's stack intact.
    _stage: StageGuard,
}

impl TraceSpan {
    /// A fully inert span: records nothing, publishes nothing, hands
    /// out disabled child contexts.
    pub fn disabled() -> TraceSpan {
        TraceSpan {
            live: None,
            _stage: StageGuard::default(),
        }
    }

    /// True if this span will record an `End` event.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attach a key/value to this span (exported on the `End` event).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(live) = &mut self.live {
            live.args.push((key, value.into()));
        }
    }

    /// A child context parented at this span — the explicit parent
    /// handle for cross-thread attribution: clone it, move it to a
    /// worker, and the worker's events nest under this span instead of
    /// becoming orphaned roots.
    pub fn ctx(&self) -> TraceCtx {
        match &self.live {
            Some(live) => TraceCtx {
                inner: Some(CtxInner {
                    recorder: Arc::clone(&live.recorder),
                    trace_id: live.trace_id,
                    parent: live.span_id,
                }),
            },
            None => TraceCtx::disabled(),
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.recorder.emit(
                &live.ring,
                TraceEvent {
                    ts_ns: live.recorder.now_ns(),
                    kind: EventKind::End,
                    name: live.name,
                    trace_id: live.trace_id,
                    span_id: live.span_id,
                    parent_id: live.parent,
                    args: live.args,
                },
            );
        }
    }
}

/// One thread's events in a snapshot, in recording order (which is
/// also timestamp order — the ring clamps timestamps monotonically).
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// Recorder-scoped thread ordinal (stable lane number).
    pub tid: u64,
    /// OS thread name at registration.
    pub name: String,
    /// Events dropped from this ring.
    pub dropped: u64,
    pub events: Vec<TraceEvent>,
}

/// A point-in-time copy of a recorder's rings.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Per-thread event streams, sorted by `tid`.
    pub threads: Vec<ThreadEvents>,
    /// Recorder-wide drop count.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True if no thread recorded anything.
    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }

    /// The events of one trace only (threads with no matching events
    /// are omitted). Begin/End pairs stay balanced: both halves of a
    /// span carry the same trace ID.
    pub fn filter_trace(&self, trace_id: u64) -> TraceSnapshot {
        TraceSnapshot {
            threads: self
                .threads
                .iter()
                .filter_map(|t| {
                    let events: Vec<TraceEvent> = t
                        .events
                        .iter()
                        .filter(|e| e.trace_id == trace_id)
                        .cloned()
                        .collect();
                    (!events.is_empty()).then(|| ThreadEvents {
                        tid: t.tid,
                        name: t.name.clone(),
                        dropped: t.dropped,
                        events,
                    })
                })
                .collect(),
            dropped: self.dropped,
        }
    }

    /// Iterate over every event (thread by thread).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.threads.iter().flat_map(|t| t.events.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::tests::{my_stack, serial};
    use crate::StageSession;

    const A_MORE: Stage = Stage::scratch("a.more");
    const A_WORK: Stage = Stage::scratch("a.work");
    const B_WORK: Stage = Stage::scratch("b.work");
    const BACKDATED: Stage = Stage::scratch("backdated");
    const CHILD: Stage = Stage::scratch("child");
    const FIRST: Stage = Stage::scratch("first");
    const NESTED_NOPE: Stage = Stage::scratch("nested.nope");
    const NOPE: Stage = Stage::scratch("nope");
    const ROOT: Stage = Stage::scratch("root");
    const SUBMIT: Stage = Stage::scratch("submit");
    const TICK: Stage = Stage::scratch("tick");
    const TRACETEST_OFF_EARLY: Stage = Stage::scratch("tracetest.off.early");
    const TRACETEST_OFF_INNER: Stage = Stage::scratch("tracetest.off.inner");
    const TRACETEST_OFF_OUTER: Stage = Stage::scratch("tracetest.off.outer");
    const TRACETEST_ON_OUTER: Stage = Stage::scratch("tracetest.on.outer");
    const TRACETEST_ON_ROOT: Stage = Stage::scratch("tracetest.on.root");
    const WORKER_STAGE: Stage = Stage::scratch("worker.stage");

    #[test]
    fn spans_nest_with_parent_ids() {
        let rec = FlightRecorder::new(256);
        let ctx = rec.start_trace();
        {
            let root = ctx.span(ROOT);
            let _child = root.ctx().span(CHILD);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.total_events(), 4);
        let events = &snap.threads[0].events;
        let root_begin = &events[0];
        let child_begin = &events[1];
        assert_eq!(root_begin.name, "root");
        assert_eq!(root_begin.parent_id, 0);
        assert_eq!(child_begin.parent_id, root_begin.span_id);
        assert_eq!(child_begin.trace_id, root_begin.trace_id);
        // Drop order: child ends before root.
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[2].span_id, child_begin.span_id);
        assert_eq!(events[3].span_id, root_begin.span_id);
    }

    #[test]
    fn parent_handle_crosses_threads() {
        let rec = FlightRecorder::new(256);
        let ctx = rec.start_trace();
        let root = ctx.span(SUBMIT);
        let child_ctx = root.ctx();
        let root_span_id = {
            let snap = rec.snapshot();
            snap.threads[0].events[0].span_id
        };
        std::thread::spawn(move || {
            let mut s = child_ctx.span(WORKER_STAGE);
            s.arg("lane", 1u64);
        })
        .join()
        .unwrap();
        drop(root);
        let snap = rec.snapshot();
        // Two rings: the main thread and the worker.
        assert_eq!(snap.threads.len(), 2);
        let worker_events = &snap.threads[1].events;
        assert_eq!(worker_events[0].name, "worker.stage");
        assert_eq!(
            worker_events[0].parent_id, root_span_id,
            "worker span must attach under the submitting span, not as an orphan root"
        );
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let rec = FlightRecorder::new(16);
        let ctx = rec.start_trace();
        for i in 0..100u64 {
            ctx.instant_with(TICK, vec![("i", ArgValue::U64(i))]);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.threads[0].events.len(), 16);
        assert_eq!(snap.threads[0].dropped, 84);
        assert_eq!(rec.dropped(), 84);
        // The survivors are the newest events, in order.
        let is: Vec<u64> = snap.threads[0]
            .events
            .iter()
            .map(|e| match e.args[0].1 {
                ArgValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(is, (84..100).collect::<Vec<u64>>());
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_recording());
        let mut s = ctx.span(NOPE);
        assert!(!s.is_recording());
        s.arg("k", 1u64);
        assert!(!s.ctx().span(NESTED_NOPE).is_recording());
        ctx.instant(NOPE);
        ctx.complete(NOPE, Instant::now(), Instant::now(), Vec::new());
    }

    #[test]
    fn disabled_ctx_span_marks_the_board_only_under_a_session() {
        let _serial = serial();
        let ctx = TraceCtx::disabled();
        // Opened with the board off: inert for life, even once a
        // session starts. `TraceSpan::disabled()` is inert always.
        let early = ctx.span(TRACETEST_OFF_EARLY);
        let _session = StageSession::start();
        let inert = TraceSpan::disabled();
        let outer = ctx.span(TRACETEST_OFF_OUTER);
        assert!(!outer.is_recording() && !inert.ctx().is_recording());
        {
            let _inner = outer.ctx().span(TRACETEST_OFF_INNER);
            assert_eq!(
                my_stack("tracetest.off.inner").expect("published"),
                ["tracetest.off.outer", "tracetest.off.inner"]
            );
        }
        assert_eq!(
            my_stack("tracetest.off.outer").expect("still open"),
            ["tracetest.off.outer"]
        );
        drop((early, inert, outer));
        assert!(my_stack("tracetest.off.").is_none());
    }

    #[test]
    fn recording_span_marks_board_and_ring_and_pops_its_own_entry_elsewhere() {
        let _serial = serial();
        let _session = StageSession::start();
        let rec = FlightRecorder::new(64);
        let ctx = rec.start_trace();
        let _outer = ctx.span(TRACETEST_ON_OUTER);
        // What a ticket's root span does: opened by the submitter,
        // dropped wherever the ticket is waited on.
        let moved = ctx.span(TRACETEST_ON_ROOT);
        assert_eq!(
            my_stack("tracetest.on.root").expect("published"),
            ["tracetest.on.outer", "tracetest.on.root"]
        );
        std::thread::spawn(move || drop(moved)).join().unwrap();
        assert_eq!(
            my_stack("tracetest.on.outer").expect("outer still open"),
            ["tracetest.on.outer"]
        );
        // Both halves of the moved span stayed in the opener's ring.
        let snap = rec.snapshot();
        assert_eq!((snap.threads.len(), snap.total_events()), (1, 3));
    }

    #[test]
    fn filter_trace_separates_interleaved_traces() {
        let rec = FlightRecorder::new(256);
        let a = rec.start_trace();
        let b = rec.start_trace();
        drop(a.span(A_WORK));
        drop(b.span(B_WORK));
        drop(a.span(A_MORE));
        let snap = rec.snapshot();
        let only_a = snap.filter_trace(a.trace_id().unwrap());
        assert_eq!(only_a.total_events(), 4);
        assert!(only_a.events().all(|e| e.name.starts_with("a.")));
        let only_b = snap.filter_trace(b.trace_id().unwrap());
        assert_eq!(only_b.total_events(), 2);
    }

    #[test]
    fn complete_clamps_backdated_timestamps_monotone() {
        let rec = FlightRecorder::new(64);
        let ctx = rec.start_trace();
        let early = Instant::now();
        drop(ctx.span(FIRST));
        // `early` predates the events already recorded; the ring clamp
        // must keep the stream monotone.
        ctx.complete(BACKDATED, early, Instant::now(), Vec::new());
        let snap = rec.snapshot();
        let ts: Vec<u64> = snap.threads[0].events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps {ts:?}");
    }

    #[test]
    fn default_ctx_is_disabled() {
        let ctx = TraceCtx::default();
        assert!(!ctx.is_recording());
        assert_eq!(ctx.trace_id(), None);
    }
}
