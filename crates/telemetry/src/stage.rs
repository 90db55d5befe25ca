//! The live stage board: which logical stage is every registered
//! thread in *right now*?
//!
//! Aggregate histograms say how long each stage takes; the flight
//! recorder says where one sampled request went. Neither answers the
//! operator's live question — "across the whole process, where is
//! wall-clock time going *at this moment*?" — without pre-selecting a
//! request. The stage board does: every thread that opens a
//! [`StageGuard`] publishes its current stage stack to a
//! process-global board, and a sampler ([`sample_stages`]) reads all
//! stacks at once. Sampling at ~100 Hz and folding the observed stacks
//! yields a collapsed-stack flamegraph of the live process (the `obsv`
//! crate's `/profile` endpoint). Request-path code does not call
//! [`stage`] itself: every [`crate::TraceSpan`] carries a guard, so
//! `ctx.span(name)` marks the stage here and in the flight recorder
//! under one name. A bare [`stage`] call is for a thread with no
//! request to hang a context on (a dispatcher waiting for work).
//!
//! The board follows the workspace's "cheap when idle" discipline:
//! it is **disabled by default**, and a disabled [`stage`] call is one
//! relaxed atomic load — no allocation, no lock, no clock read (pinned
//! under 2% of an SpMV iteration in `crates/spmv`'s overhead tests).
//! Enabling is ref-counted ([`StageSession`]) so overlapping profile
//! requests compose.
//!
//! Guards may be dropped on a different thread than they were opened
//! on (the tier moves work between dispatchers); each entry carries a
//! unique ID and the guard pops *its own* entry, so a cross-thread
//! drop never corrupts another guard's stack.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// How many sessions currently want the board live. Non-zero =
/// guards publish their stages.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// Unique IDs for stage entries (cross-thread-safe pops).
static NEXT_ENTRY: AtomicU64 = AtomicU64::new(1);

/// True if stage guards currently publish to the board.
#[inline]
pub fn stages_enabled() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) > 0
}

/// One thread's published stage stack.
struct ThreadStages {
    name: String,
    /// `(entry id, stage name)`, outermost first.
    stack: Mutex<Vec<(u64, &'static str)>>,
}

/// The global board: weak handles to every thread that ever published
/// a stage. Dead threads are pruned at sample time.
fn board() -> &'static Mutex<Vec<Weak<ThreadStages>>> {
    static BOARD: OnceLock<Mutex<Vec<Weak<ThreadStages>>>> = OnceLock::new();
    BOARD.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_STAGES: Arc<ThreadStages> = {
        let mine = Arc::new(ThreadStages {
            name: std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| "unnamed".to_string()),
            stack: Mutex::new(Vec::new()),
        });
        board().lock().unwrap().push(Arc::downgrade(&mine));
        mine
    };
}

/// Keeps the stage board enabled while alive. Sessions are
/// ref-counted: the board stays live until the *last* session drops,
/// so overlapping `/profile` requests do not disable each other.
pub struct StageSession(());

impl StageSession {
    /// Enable the board (until this session and all others drop).
    pub fn start() -> StageSession {
        ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        StageSession(())
    }
}

impl Drop for StageSession {
    fn drop(&mut self) {
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An entry on this thread's published stage stack; pops itself on
/// drop. Returned inert (one relaxed load, nothing else) while no
/// [`StageSession`] is active; the default guard is inert too.
#[must_use = "a stage guard publishes until dropped; binding it to _ drops it immediately"]
#[derive(Default)]
pub struct StageGuard {
    entry: Option<(Arc<ThreadStages>, u64)>,
}

/// Publish `name` as the calling thread's current (innermost) stage
/// until the returned guard drops.
#[inline]
pub fn stage(name: &'static str) -> StageGuard {
    if !stages_enabled() {
        return StageGuard { entry: None };
    }
    stage_slow(name)
}

#[cold]
fn stage_slow(name: &'static str) -> StageGuard {
    let mine = MY_STAGES.with(Arc::clone);
    let id = NEXT_ENTRY.fetch_add(1, Ordering::Relaxed);
    mine.stack.lock().unwrap().push((id, name));
    StageGuard {
        entry: Some((mine, id)),
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if let Some((stages, id)) = self.entry.take() {
            let mut stack = stages.stack.lock().unwrap();
            if let Some(pos) = stack.iter().rposition(|&(eid, _)| eid == id) {
                stack.remove(pos);
            }
        }
    }
}

/// One sample of the board: `(thread name, stage stack outermost
/// first)` for every live thread with at least one open stage. Threads
/// that have exited are pruned.
pub fn sample_stages() -> Vec<(String, Vec<&'static str>)> {
    let mut board = board().lock().unwrap();
    board.retain(|weak| weak.strong_count() > 0);
    board
        .iter()
        .filter_map(Weak::upgrade)
        .filter_map(|stages| {
            let stack: Vec<&'static str> = stages
                .stack
                .lock()
                .unwrap()
                .iter()
                .map(|&(_, name)| name)
                .collect();
            (!stack.is_empty()).then(|| (stages.name.clone(), stack))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The board is process-global, so these tests hold their own
    // sessions and only assert on stages they opened themselves
    // (uniquely named).

    /// Held by every test in this crate that starts a session or
    /// asserts what happens without one: `cargo test` runs tests on
    /// parallel threads, and one test's session would otherwise make
    /// another's "board off" guard publish.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn my_stack(needle: &str) -> Option<Vec<&'static str>> {
        sample_stages()
            .into_iter()
            .map(|(_, stack)| stack)
            .find(|stack| stack.iter().any(|s| s.contains(needle)))
    }

    #[test]
    fn disabled_guard_publishes_nothing() {
        let _serial = serial();
        // No session of ours: a guard opened now must not appear when a
        // later session samples. (Another test's session may be live,
        // so only assert on our unique stage name.)
        {
            let _g = stage("stagetest.maybe_off");
        }
        let _session = StageSession::start();
        assert!(my_stack("stagetest.maybe_off").is_none());
    }

    #[test]
    fn stacks_nest_and_unwind() {
        let _serial = serial();
        let _session = StageSession::start();
        let _a = stage("stagetest.outer");
        {
            let _b = stage("stagetest.inner");
            let stack = my_stack("stagetest.outer").expect("published");
            let pos_a = stack
                .iter()
                .position(|&s| s == "stagetest.outer")
                .expect("outer on stack");
            let pos_b = stack
                .iter()
                .position(|&s| s == "stagetest.inner")
                .expect("inner on stack");
            assert!(pos_a < pos_b, "outermost first: {stack:?}");
        }
        let stack = my_stack("stagetest.outer").expect("still published");
        assert!(!stack.contains(&"stagetest.inner"), "inner popped");
    }

    #[test]
    fn cross_thread_drop_pops_the_right_entry() {
        let _serial = serial();
        let _session = StageSession::start();
        let _outer = stage("stagetest.xthread.outer");
        let inner = stage("stagetest.xthread.inner");
        // Drop the inner guard on another thread: it must remove its
        // own entry from *this* thread's stack, not touch the other
        // thread's (empty) stack.
        std::thread::spawn(move || drop(inner)).join().unwrap();
        let stack = my_stack("stagetest.xthread.outer").expect("outer still live");
        assert!(stack.contains(&"stagetest.xthread.outer"));
        assert!(!stack.contains(&"stagetest.xthread.inner"));
    }

    #[test]
    fn sessions_refcount() {
        let _serial = serial();
        let a = StageSession::start();
        let b = StageSession::start();
        assert!(stages_enabled());
        drop(a);
        assert!(stages_enabled(), "second session keeps the board live");
        let g = stage("stagetest.refcount");
        assert!(my_stack("stagetest.refcount").is_some());
        drop(g);
        drop(b);
    }

    #[test]
    fn exited_threads_are_pruned() {
        let _serial = serial();
        let _session = StageSession::start();
        std::thread::Builder::new()
            .name("stagetest-ephemeral".into())
            .spawn(|| {
                let _g = stage("stagetest.ephemeral");
                assert!(my_stack("stagetest.ephemeral").is_some());
            })
            .unwrap()
            .join()
            .unwrap();
        // The thread is gone; its board slot must not survive.
        assert!(sample_stages()
            .iter()
            .all(|(name, _)| name != "stagetest-ephemeral"));
    }
}
