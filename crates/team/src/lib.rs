//! The persistent thread-team executor.
//!
//! Every SpMV kernel used to spawn and join fresh OS threads per call
//! via scoped spawns, so the paper's 100-repetition measurement
//! protocol (§4.1) paid spawn/join overhead on every iteration — tens
//! of microseconds that systematically inflate small-matrix timings
//! and distort reordering-speedup ratios. A [`ThreadTeam`] is created
//! once and reused across iterations: a pool of long-lived workers
//! dispatched through a spin-then-park barrier, the "reusable thread
//! team with lightweight barriers" that Bergmans et al. identify as a
//! precondition for meaningful shared-memory SpMV measurement.
//!
//! The executor lives in its own crate so both sides of the pipeline
//! can share one threading story: `spmv` kernels and the
//! `sparsemat`/`sparsegraph`/`reorder` ordering stack all depend on
//! `team` without a cycle. Metric and trace-event names keep their
//! historical `spmv.team.*` prefix — dashboards and the tracecheck CI
//! gate predate the move.
//!
//! # Execution model
//!
//! A team of size `n` owns `n - 1` worker threads; the caller of
//! [`ThreadTeam::run`] acts as lane 0 (leader participation, as in
//! OpenMP), so a team of size 1 runs entirely inline with zero
//! dispatch cost. Each `run(f)` invokes `f(lane)` exactly once per
//! lane `0..n` and returns only when every lane has finished — a
//! fork-join region without the fork.
//!
//! On top of the lane-indexed `run`, [`Exec`] holds the chunked loops
//! over an index space — [`Exec::parallel_for`], [`Exec::map_chunks`] and
//! [`Exec::for_each_window`], which hands each chunk its own `&mut`
//! window of an output — running inline or on a team over the *same*
//! `(n, grain)` chunks, never dependent on the team size or on
//! scheduling. Any computation whose output is a pure function of its
//! chunk is therefore byte-identical across team sizes, the property the
//! reordering pipeline's determinism tests pin down.
//!
//! # Barrier protocol
//!
//! Dispatch is epoch-based. The leader writes the job pointer into a
//! shared slot, resets the completion counter, publishes a new epoch
//! with a release store, and unparks every worker. Workers spin
//! briefly on the epoch (cheap when a dispatch is imminent), then
//! park; `unpark`'s token semantics make the wakeup race-free even if
//! the leader unparks before the worker parks. After running its
//! lane, each worker increments the completion counter; the last one
//! unparks the leader, which spins-then-parks symmetrically. Worker
//! panics are caught, flagged, and re-raised on the leader so a
//! poisoned iteration cannot deadlock the barrier.
//!
//! # Observability
//!
//! Two registry histograms make the team's overhead visible:
//! `spmv.team.dispatch_wait` records how long each worker lane waited
//! between job publication and pickup (the dispatch latency the team
//! exists to minimise), and `spmv.team.compute` records per-lane
//! kernel time. Comparing the two shows exactly how much of a
//! parallel region is coordination versus work.
//!
//! On top of the aggregate histograms, a team can record into the
//! flight recorder: [`ThreadTeam::set_trace`] attaches a
//! [`TraceCtx`], and every epoch dispatched while it is attached
//! emits per-lane `spmv.team.park` / `spmv.team.dispatch` /
//! `spmv.team.compute` segments — one Perfetto timeline lane per
//! worker, making load imbalance visible per call rather than only as
//! a histogram. With no context attached, `run` pays a single relaxed
//! atomic load.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;
use telemetry::stages;
use telemetry::trace::{ArgValue, TraceCtx};
use telemetry::{Histogram, Registry};

/// Spins on the epoch before parking. Small: on an oversubscribed
/// host (more lanes than cores) spinning only steals cycles from the
/// workers that hold the actual work.
const SPIN_BUDGET: u32 = 128;

/// The current dispatch: a type-erased pointer to the region closure,
/// the instant it was published, the epoch number, and the trace
/// context (if the epoch is being recorded).
struct JobMsg {
    ptr: *const (dyn Fn(usize) + Sync),
    published: Instant,
    epoch_no: u64,
    trace: Option<TraceCtx>,
}

/// The job slot the leader hands to workers.
type JobSlot = Option<JobMsg>;

/// State shared between the leader and the workers.
struct Shared {
    /// Bumped (release) to publish a new job; workers acquire-load it.
    epoch: AtomicU64,
    /// Written by the leader strictly before the epoch bump, read by
    /// workers strictly after observing the bump.
    job: UnsafeCell<JobSlot>,
    /// Lanes finished in the current epoch (workers only; the leader
    /// runs lane 0 itself).
    done: AtomicUsize,
    /// Set when any lane panicked during the current epoch.
    panicked: AtomicBool,
    /// Set (then epoch-bumped) to retire the team.
    shutdown: AtomicBool,
    /// The leader's handle while it may be parked in [`ThreadTeam::run`];
    /// the last worker to finish unparks it.
    leader: Mutex<Option<Thread>>,
    /// Worker count (`team size - 1`).
    nworkers: usize,
}

// SAFETY: `job` is written only by the leader while every worker is
// quiescent (before the release epoch bump that hands the slot over)
// and read by workers only after the acquire load that observes the
// bump, so all accesses are ordered. The pointer it carries is only
// dereferenced between publication and the completion barrier, during
// which `run` keeps the referent alive (see `run`).
unsafe impl Sync for Shared {}
// SAFETY: same argument as `Sync` — the raw pointer in the job slot is
// only touched under the epoch protocol, so moving the Arc'd `Shared`
// to a worker thread is sound.
unsafe impl Send for Shared {}

/// A persistent team of worker threads executing fork-join parallel
/// regions without per-call thread spawns. See the module docs for
/// the protocol.
pub struct ThreadTeam {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises dispatches: `run` takes `&self` so plans can hold
    /// teams behind shared references, but the job slot supports one
    /// region at a time.
    dispatch: Mutex<()>,
    size: usize,
    dispatches: Arc<telemetry::Counter>,
    /// Fast gate for the tracing path: `run` reads this once (relaxed)
    /// and only touches `trace_ctx` when it is set.
    trace_on: AtomicBool,
    /// The context epochs record under while a trace scope is live.
    trace_ctx: Mutex<TraceCtx>,
}

impl std::fmt::Debug for ThreadTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTeam")
            .field("size", &self.size)
            .finish()
    }
}

impl ThreadTeam {
    /// A team with `size` lanes (clamped to ≥ 1), reporting into the
    /// global telemetry registry. Spawns `size - 1` named OS threads
    /// that live until the team is dropped.
    pub fn new(size: usize) -> ThreadTeam {
        ThreadTeam::new_in(&Registry::global(), size)
    }

    /// Like [`ThreadTeam::new`] but reporting into `registry` (tests
    /// that assert exact histogram counts pass a private registry).
    pub fn new_in(registry: &Arc<Registry>, size: usize) -> ThreadTeam {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            leader: Mutex::new(None),
            nworkers: size - 1,
        });
        let dispatch_wait = registry.histogram("spmv.team.dispatch_wait");
        let compute = registry.histogram("spmv.team.compute");
        let workers = (1..size)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                let dispatch_wait = Arc::clone(&dispatch_wait);
                let compute = Arc::clone(&compute);
                std::thread::Builder::new()
                    .name(format!("spmv-team-{lane}"))
                    .spawn(move || worker_loop(&shared, lane, &dispatch_wait, &compute))
                    .expect("spawning a team worker")
            })
            .collect();
        ThreadTeam {
            shared,
            workers,
            dispatch: Mutex::new(()),
            size,
            dispatches: registry.counter("spmv.team.dispatches"),
            trace_on: AtomicBool::new(false),
            trace_ctx: Mutex::new(TraceCtx::disabled()),
        }
    }

    /// Number of lanes (the caller's lane plus the worker threads).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Attach a trace context: every epoch dispatched until the next
    /// call records per-lane park/dispatch/compute segments under
    /// `ctx`'s parent span. A disabled context turns tracing off.
    pub fn set_trace(&self, ctx: &TraceCtx) {
        *self.trace_ctx.lock().unwrap() = ctx.clone();
        self.trace_on.store(ctx.is_recording(), Ordering::Relaxed);
    }

    /// Execute one parallel region: `f(lane)` runs exactly once per
    /// lane in `0..size`, lane 0 on the calling thread, and `run`
    /// returns only after every lane finished. Concurrent calls from
    /// different threads are serialised.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any lane (after the barrier completes,
    /// so the team stays usable).
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        // One relaxed load when tracing is off — the whole cost of the
        // instrumentation on the untraced path.
        let trace = if self.trace_on.load(Ordering::Relaxed) {
            let ctx = self.trace_ctx.lock().unwrap().clone();
            ctx.is_recording().then_some(ctx)
        } else {
            None
        };
        if self.size == 1 {
            // Degenerate team: no workers, no dispatch, no barrier.
            if let Some(ctx) = &trace {
                let t0 = Instant::now();
                f(0);
                ctx.complete(
                    stages::SPMV_TEAM_COMPUTE,
                    t0,
                    Instant::now(),
                    vec![("lane", ArgValue::U64(0))],
                );
            } else {
                f(0);
            }
            return;
        }
        // A propagated lane panic unwinds `run` with this guard held,
        // poisoning the mutex; the team itself stays consistent (the
        // barrier completed), so recover the lock instead of failing.
        let _region = self
            .dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.dispatches.inc();
        let shared = &self.shared;
        *shared.leader.lock().unwrap() = Some(std::thread::current());
        shared.done.store(0, Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        // Publish the job. The lifetime of `f` is erased; the
        // completion barrier below re-establishes it before `run`
        // returns, so no worker can observe a dangling pointer.
        let ptr: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let epoch_no = shared.epoch.load(Ordering::Relaxed) + 1;
        unsafe {
            *shared.job.get() = Some(JobMsg {
                ptr,
                published: Instant::now(),
                epoch_no,
                trace: trace.clone(),
            })
        };
        shared.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }

        // Lane 0 runs on the caller. Catch a leader panic so the
        // barrier still completes (workers hold the erased borrow).
        let leader_t0 = trace.as_ref().map(|_| Instant::now());
        let leader_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        if let (Some(ctx), Some(t0)) = (&trace, leader_t0) {
            ctx.complete(
                stages::SPMV_TEAM_COMPUTE,
                t0,
                Instant::now(),
                vec![
                    ("lane", ArgValue::U64(0)),
                    ("epoch", ArgValue::U64(epoch_no)),
                ],
            );
        }

        // Completion barrier: spin, then park until the last worker's
        // unpark token arrives.
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) != shared.nworkers {
            spins += 1;
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        *shared.leader.lock().unwrap() = None;
        unsafe { *shared.job.get() = None };

        if let Err(payload) = leader_result {
            std::panic::resume_unwind(payload);
        }
        assert!(
            !shared.panicked.load(Ordering::Acquire),
            "SpMV team worker panicked"
        );
    }
}

/// The half-open index range of chunk `c` in a `(n, grain)`
/// decomposition.
fn chunk_range(c: usize, grain: usize, n: usize) -> Range<usize> {
    let start = c * grain;
    start..((start + grain).min(n))
}

/// Where a chunked loop runs: inline on the calling thread, or on a
/// [`ThreadTeam`].
///
/// Both variants walk the **same** `(n, grain)` chunk decomposition
/// (see [`Exec::parallel_for`]), so code written against `Exec`
/// is deterministic by construction: switching between `Sequential`
/// and `Team` — or between team sizes — cannot change any output that
/// is a pure function of its chunk.
#[derive(Clone, Copy, Debug, Default)]
pub enum Exec<'a> {
    /// Run every chunk inline, in chunk order, on the calling thread.
    #[default]
    Sequential,
    /// Dispatch chunks onto the team's lanes.
    Team(&'a ThreadTeam),
}

impl Exec<'_> {
    /// Number of lanes available to this executor (1 for
    /// [`Exec::Sequential`]).
    pub fn lanes(&self) -> usize {
        match self {
            Exec::Sequential => 1,
            Exec::Team(t) => t.size(),
        }
    }

    /// Chunked data-parallel loop: split `0..n` into grain-sized
    /// chunks and invoke `body(range)` once per chunk.
    ///
    /// Chunk `c` is `c*grain .. min((c+1)*grain, n)`, a pure function
    /// of `(n, grain)`. One lane, or an index space that fits in one
    /// chunk, walks the chunks inline in order; a team claims them
    /// dynamically in one [`ThreadTeam::run`].
    pub fn parallel_for<F>(&self, n: usize, grain: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let grain = grain.max(1);
        let nchunks = n.div_ceil(grain);
        match self.team_for(nchunks) {
            Some(team) => {
                let next = AtomicUsize::new(0);
                team.run(&|_lane| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    body(chunk_range(c, grain, n));
                });
            }
            None => (0..nchunks).for_each(|c| body(chunk_range(c, grain, n))),
        }
    }

    /// The team to dispatch `nchunks` chunks onto, or `None` to walk
    /// them inline: one lane, or at most one chunk.
    fn team_for(&self, nchunks: usize) -> Option<&ThreadTeam> {
        match *self {
            Exec::Team(team) if team.size() > 1 && nchunks > 1 => Some(team),
            _ => None,
        }
    }

    /// [`Exec::parallel_for`] that also hands each chunk its own
    /// `&mut` window of `out`: chunk `range` gets
    /// `out[start_of(range.start)..start_of(range.end)]`, so a
    /// prefix-sum fill (`start_of = |i| rowptr[i]`) writes its rows'
    /// segments with no `unsafe`. The windows depend only on
    /// `(n, grain, start_of)`, never on which lane runs a chunk.
    ///
    /// One lane splits the windows off as it walks and allocates
    /// nothing; a team's lanes take the next chunk and its window
    /// together from one `Mutex`-guarded cursor.
    ///
    /// # Panics
    ///
    /// If `start_of` decreases across a chunk boundary, or
    /// `start_of(n)` exceeds `out`'s length.
    pub fn for_each_window<W, S, F>(&self, n: usize, grain: usize, out: W, start_of: S, body: F)
    where
        W: Window + Send,
        S: Fn(usize) -> usize + Sync,
        F: Fn(Range<usize>, W) + Sync,
    {
        let grain = grain.max(1);
        let nchunks = n.div_ceil(grain);
        let mut at = start_of(0);
        let (_, mut rest) = out.split_at(at);
        let windows = (0..nchunks).map(|c| {
            let range = chunk_range(c, grain, n);
            let end = start_of(range.end);
            assert!(end >= at, "start_of must not decrease: {at} then {end}");
            let (window, tail) = std::mem::take(&mut rest).split_at(end - at);
            rest = tail;
            at = end;
            (range, window)
        });
        match self.team_for(nchunks) {
            Some(team) => {
                let windows = Mutex::new(windows);
                team.run(&|_lane| loop {
                    let next = windows
                        .lock()
                        .expect("start_of panicked on another lane")
                        .next();
                    let Some((range, window)) = next else { break };
                    body(range, window);
                });
            }
            None => windows.for_each(|(range, window)| body(range, window)),
        }
    }

    /// Like [`Exec::parallel_for`], but each chunk produces a value:
    /// `f(chunk_index, range)` fills chunk `c`'s own result slot, and
    /// the slots are returned in chunk order — so the concatenation of
    /// the results is independent of which lane ran which chunk.
    pub fn map_chunks<T, F>(&self, n: usize, grain: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let grain = grain.max(1);
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None)
            .take(n.div_ceil(grain))
            .collect();
        let slot_of = |i: usize| i.div_ceil(grain);
        self.for_each_window(n, grain, &mut slots[..], slot_of, |range, slot| {
            slot[0] = Some(f(range.start / grain, range));
        });
        slots
            .into_iter()
            .map(|s| s.expect("every chunk produced a value"))
            .collect()
    }
}

/// An output [`Exec::for_each_window`] can cut into per-chunk windows:
/// a mutable slice, or a pair of equally indexed ones (a CSR fill's
/// column and value arrays).
pub trait Window: Default {
    /// `self[..mid]` and `self[mid..]`.
    ///
    /// # Panics
    ///
    /// If `mid` exceeds the length.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T> Window for &mut [T] {
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: Window, B: Window> Window for (A, B) {
    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a0, b0), (a1, b1))
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize, dispatch_wait: &Histogram, compute: &Histogram) {
    let mut seen = 0u64;
    // When the previous epoch finished on this lane, and under which
    // trace — the park segment between two epochs of the *same* trace
    // is idle time worth showing; gaps across unrelated requests are
    // not.
    let mut last_done: Option<(Instant, Option<u64>)> = None;
    loop {
        // Wait for a new epoch: spin briefly, then park. A stale
        // unpark token at worst costs one extra loop iteration.
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the epoch acquire above pairs with the leader's
        // release bump, which happens-after the job write; the leader
        // cannot reclaim the slot before this lane increments `done`.
        let (ptr, published, epoch_no, trace) = unsafe {
            let msg = (*shared.job.get())
                .as_ref()
                .expect("epoch bump implies a job");
            (msg.ptr, msg.published, msg.epoch_no, msg.trace.clone())
        };
        let pickup = Instant::now();
        dispatch_wait.record_duration(pickup.saturating_duration_since(published));
        if let Some(ctx) = &trace {
            if let Some((prev_end, prev_trace)) = last_done {
                if prev_trace.is_some() && prev_trace == ctx.trace_id() {
                    ctx.complete(
                        stages::SPMV_TEAM_PARK,
                        prev_end,
                        published,
                        vec![("lane", ArgValue::U64(lane as u64))],
                    );
                }
            }
            ctx.complete(
                stages::SPMV_TEAM_DISPATCH,
                published,
                pickup,
                vec![
                    ("lane", ArgValue::U64(lane as u64)),
                    ("epoch", ArgValue::U64(epoch_no)),
                ],
            );
        }
        let t0 = Instant::now();
        // SAFETY: see `Shared::job` — the referent outlives the
        // barrier this lane is part of.
        let job = unsafe { &*ptr };
        if catch_unwind(AssertUnwindSafe(|| job(lane))).is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        let done_t = Instant::now();
        compute.record_duration(done_t.saturating_duration_since(t0));
        if let Some(ctx) = &trace {
            ctx.complete(
                stages::SPMV_TEAM_COMPUTE,
                t0,
                done_t,
                vec![
                    ("lane", ArgValue::U64(lane as u64)),
                    ("epoch", ArgValue::U64(epoch_no)),
                ],
            );
        }
        last_done = Some((done_t, trace.as_ref().and_then(|c| c.trace_id())));
        // Last lane out wakes the (possibly parked) leader.
        if shared.done.fetch_add(1, Ordering::AcqRel) + 1 == shared.nworkers {
            if let Some(leader) = shared.leader.lock().unwrap().as_ref() {
                leader.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_lane_runs_exactly_once() {
        let team = ThreadTeam::new_in(&Registry::new_arc(), 4);
        let counts: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..100 {
            team.run(&|lane| {
                counts[lane].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (lane, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 100, "lane {lane}");
        }
    }

    #[test]
    fn size_one_runs_inline() {
        let team = ThreadTeam::new_in(&Registry::new_arc(), 1);
        assert_eq!(team.size(), 1);
        let tid = std::thread::current().id();
        let mut observed = None;
        let cell = Mutex::new(&mut observed);
        team.run(&|lane| {
            assert_eq!(lane, 0);
            **cell.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(observed, Some(tid), "lane 0 must be the caller");
    }

    #[test]
    fn zero_size_is_clamped() {
        let team = ThreadTeam::new_in(&Registry::new_arc(), 0);
        assert_eq!(team.size(), 1);
        team.run(&|_| {});
    }

    #[test]
    fn sequential_regions_see_previous_writes() {
        // The barrier is a synchronisation point: region k+1 must see
        // every write of region k without extra fencing.
        let team = ThreadTeam::new_in(&Registry::new_arc(), 3);
        let data: Vec<Mutex<u64>> = (0..3).map(|_| Mutex::new(0)).collect();
        for round in 1..=50u64 {
            team.run(&|lane| {
                *data[lane].lock().unwrap() += round;
            });
            let expect: u64 = (1..=round).sum();
            for d in &data {
                assert_eq!(*d.lock().unwrap(), expect);
            }
        }
    }

    #[test]
    fn worker_panic_propagates_and_team_survives() {
        let team = ThreadTeam::new_in(&Registry::new_arc(), 2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            team.run(&|lane| {
                if lane == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must surface on the leader");
        // The barrier completed, so the team remains usable.
        let ran = AtomicU32::new(0);
        team.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn team_records_dispatch_and_compute_histograms() {
        let registry = Registry::new_arc();
        let team = ThreadTeam::new_in(&registry, 3);
        for _ in 0..10 {
            team.run(&|_| std::hint::black_box(()));
        }
        let snap = registry.snapshot();
        // Two worker lanes, ten dispatches each.
        assert_eq!(snap.histogram("spmv.team.dispatch_wait").unwrap().count, 20);
        assert_eq!(snap.histogram("spmv.team.compute").unwrap().count, 20);
        assert_eq!(snap.counter("spmv.team.dispatches"), Some(10));
    }

    #[test]
    fn traced_epochs_record_per_lane_segments() {
        use telemetry::trace::{EventKind, FlightRecorder};
        const EPOCHS: usize = 5;
        let team = ThreadTeam::new_in(&Registry::new_arc(), 3);
        let rec = FlightRecorder::new(4096);
        let root = rec.start_trace();
        {
            const CALLER_STAGE: telemetry::Stage = telemetry::Stage::scratch("caller.stage");
            let stage = root.span(CALLER_STAGE);
            team.set_trace(&stage.ctx());
            for _ in 0..EPOCHS {
                team.run(&|_| std::hint::black_box(()));
            }
        }
        // Once detached, epochs record nothing.
        team.set_trace(&TraceCtx::disabled());
        team.run(&|_| std::hint::black_box(()));
        let snap = rec.snapshot();
        let count = |name: &str| {
            snap.events()
                .filter(|e| e.name == name && e.kind == EventKind::Begin)
                .count()
        };
        // 3 lanes × EPOCHS compute segments; dispatch only on the 2
        // worker lanes; park between consecutive same-trace epochs
        // (EPOCHS - 1 gaps × 2 worker lanes).
        assert_eq!(count("spmv.team.compute"), 3 * EPOCHS);
        assert_eq!(count("spmv.team.dispatch"), 2 * EPOCHS);
        assert_eq!(count("spmv.team.park"), 2 * (EPOCHS - 1));
        // One timeline lane per participating thread: leader + 2
        // workers all carry compute segments.
        let lanes_with_compute = snap
            .threads
            .iter()
            .filter(|t| t.events.iter().any(|e| e.name == "spmv.team.compute"))
            .count();
        assert_eq!(lanes_with_compute, 3);
        // Lane segments parent at the scope's context: per-worker
        // timelines attach to the caller's stage, not to orphaned
        // roots.
        let stage_id = snap
            .events()
            .find(|e| e.name == "caller.stage" && e.kind == EventKind::Begin)
            .unwrap()
            .span_id;
        assert!(snap
            .events()
            .filter(|e| e.name.starts_with("spmv.team."))
            .all(|e| e.parent_id == stage_id));
    }

    #[test]
    fn untraced_team_records_no_events_and_size_one_traces_inline() {
        use telemetry::trace::FlightRecorder;
        let rec = FlightRecorder::new(256);
        let team = ThreadTeam::new_in(&Registry::new_arc(), 2);
        team.run(&|_| {});
        assert!(
            rec.snapshot().is_empty(),
            "a team with no trace attached must record nothing"
        );
        // The size-1 inline fast path still records its compute span.
        let solo = ThreadTeam::new_in(&Registry::new_arc(), 1);
        let ctx = rec.start_trace();
        solo.set_trace(&ctx);
        solo.run(&|_| {});
        let snap = rec.snapshot();
        assert_eq!(snap.total_events(), 2);
        assert!(snap.events().all(|e| e.name == "spmv.team.compute"));
    }

    #[test]
    fn oversubscribed_team_completes() {
        // Far more lanes than this host has cores: the park path, not
        // the spin path, carries the barrier.
        let team = ThreadTeam::new_in(&Registry::new_arc(), 16);
        let total = AtomicU32::new(0);
        for _ in 0..20 {
            team.run(&|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 16 * 20);
    }

    /// `Sequential` and teams of 1, 2, 3, 4 and 8 lanes (a size-1 team
    /// takes the inline arm, as `Sequential` does).
    fn each_exec(check: impl Fn(Exec<'_>)) {
        check(Exec::Sequential);
        for size in [1usize, 2, 3, 4, 8] {
            check(Exec::Team(&ThreadTeam::new_in(&Registry::new_arc(), size)));
        }
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        each_exec(|exec| {
            for (n, grain) in [(0usize, 16usize), (1, 16), (100, 7), (1000, 64), (64, 64)] {
                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                exec.parallel_for(n, grain, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, h) in hits.iter().enumerate() {
                    let lanes = exec.lanes();
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "lanes {lanes} n {n} index {i}"
                    );
                }
            }
        });
    }

    #[test]
    fn map_chunks_returns_results_in_chunk_order() {
        let expected: Vec<Range<usize>> = vec![0..7, 7..14, 14..21, 21..25];
        each_exec(|exec| {
            let got = exec.map_chunks(25, 7, |c, range| (c, range));
            let ranges: Vec<Range<usize>> = got.iter().map(|(_, r)| r.clone()).collect();
            assert_eq!(ranges, expected, "lanes {}", exec.lanes());
            for (i, (c, _)) in got.iter().enumerate() {
                assert_eq!(*c, i);
            }
        });
    }

    #[test]
    fn exec_sequential_matches_team_decomposition() {
        let team = ThreadTeam::new_in(&Registry::new_arc(), 4);
        let seq = Exec::Sequential.map_chunks(1003, 17, |c, r| (c, r.start, r.end));
        let par = Exec::Team(&team).map_chunks(1003, 17, |c, r| (c, r.start, r.end));
        assert_eq!(seq, par);
        assert_eq!(Exec::Sequential.lanes(), 1);
        assert_eq!(Exec::Team(&team).lanes(), 4);
    }

    /// A prefix-sum fill through [`Exec::for_each_window`]: row `i`
    /// owns `len(i)` slots, and each chunk stamps every slot of its
    /// window with its first row and the slot's index.
    fn fill_rows(exec: Exec<'_>, n: usize, grain: usize, len: fn(usize) -> usize) -> Vec<u64> {
        let mut rowptr = vec![0usize; n + 1];
        for i in 0..n {
            rowptr[i + 1] = rowptr[i] + len(i);
        }
        let stamp = |row: usize, slot: usize| ((row as u64) << 32) | slot as u64;
        let mut out = vec![u64::MAX; rowptr[n]];
        exec.for_each_window(
            n,
            grain,
            &mut out[..],
            |i| rowptr[i],
            |rows, window| {
                assert_eq!(window.len(), rowptr[rows.end] - rowptr[rows.start]);
                for (k, slot) in window.iter_mut().enumerate() {
                    assert_eq!(*slot, u64::MAX, "slot written twice");
                    *slot = stamp(rows.start, rowptr[rows.start] + k);
                }
            },
        );
        // Every slot written once, by the chunk whose window covers it.
        for c in 0..n.div_ceil(grain) {
            let rows = chunk_range(c, grain, n);
            let first = rowptr[rows.start];
            for (k, &v) in out[first..rowptr[rows.end]].iter().enumerate() {
                assert_eq!(v, stamp(rows.start, first + k), "chunk {c}");
            }
        }
        out
    }

    #[test]
    fn for_each_window_writes_each_slot_once_from_its_chunk() {
        // (n, grain, row length): empty, one short chunk, a ragged last
        // chunk, and rows (whole chunks too) with no entries.
        let cases = [
            (0, 4, (|_| 3) as fn(usize) -> usize),
            (3, 8, |i| i + 1),
            (23, 5, |i| i % 4),
            (40, 4, |i| usize::from(i % 3 == 0 && !(8..16).contains(&i))),
            (1030, 512, |i| i % 7),
        ];
        for (n, grain, len) in cases {
            let want = fill_rows(Exec::Sequential, n, grain, len);
            each_exec(|exec| {
                let got = fill_rows(exec, n, grain, len);
                assert_eq!(got, want, "n {n} grain {grain} lanes {}", exec.lanes());
            });
        }
    }

    #[test]
    #[should_panic(expected = "start_of must not decrease")]
    fn for_each_window_rejects_a_decreasing_start_of() {
        let mut out = [0u8; 10];
        let start_of = |i: usize| if i == 4 { 9 } else { i };
        Exec::Sequential.for_each_window(10, 4, &mut out[..], start_of, |_, _| {});
    }
}
