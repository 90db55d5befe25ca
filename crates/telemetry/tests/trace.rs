//! Integration tests for the flight recorder: multi-thread ordering,
//! overflow accounting, and Chrome-trace export validity.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use telemetry::trace::{ArgValue, EventKind, FlightRecorder};
use telemetry::Stage;

const COMPUTE: Stage = Stage::scratch("compute");
const EPOCH: Stage = Stage::scratch("epoch");
const INNER: Stage = Stage::scratch("inner");
const MARK: Stage = Stage::scratch("mark");
const MOVED: Stage = Stage::scratch("moved");
const OUTER: Stage = Stage::scratch("outer");
const REQUEST: Stage = Stage::scratch("request");
const TICK: Stage = Stage::scratch("tick");
const WORK: Stage = Stage::scratch("work");
const WORKER_STAGE: Stage = Stage::scratch("worker.stage");

fn arg_u64(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            _ => None,
        })
}

/// Randomized multi-thread recording: every thread's ring preserves
/// that thread's event order (its per-thread sequence numbers come back
/// strictly increasing) and timestamps are monotone within each ring.
#[test]
fn per_thread_order_survives_concurrent_recording() {
    const THREADS: u64 = 6;
    const EVENTS_PER_THREAD: u64 = 400;
    let rec = FlightRecorder::new(4096);
    let ctx = rec.start_trace();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ctx = ctx.clone();
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE + t);
                for seq in 0..EVENTS_PER_THREAD {
                    // Random mix of span shapes so interleavings vary:
                    // the sequence arg always lands on an event this
                    // thread recorded.
                    match rng.gen_range(0u32..3) {
                        0 => {
                            let mut s = ctx.span(WORK);
                            s.arg("seq", seq);
                            s.arg("thread", t);
                        }
                        1 => ctx.instant_with(
                            TICK,
                            vec![("seq", ArgValue::U64(seq)), ("thread", ArgValue::U64(t))],
                        ),
                        _ => {
                            let s = ctx.span(OUTER);
                            let mut inner = s.ctx().span(INNER);
                            inner.arg("seq", seq);
                            inner.arg("thread", t);
                        }
                    }
                    if rng.gen_bool(0.05) {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    let snap = rec.snapshot();
    assert_eq!(snap.dropped, 0, "capacity was sized to hold everything");
    assert_eq!(snap.threads.len(), THREADS as usize);
    let mut seen_threads = 0;
    for thread in &snap.threads {
        // Timestamps monotone within the ring.
        let ts: Vec<u64> = thread.events.iter().map(|e| e.ts_ns).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "ring {} not time-ordered",
            thread.tid
        );
        // The per-thread sequence numbers are strictly increasing in
        // ring order — recording never reorders a thread's own events.
        let seqs: Vec<u64> = thread
            .events
            .iter()
            .filter_map(|e| arg_u64(&e.args, "seq"))
            .collect();
        assert_eq!(seqs.len(), EVENTS_PER_THREAD as usize);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "ring {} reordered events: {:?}",
            thread.tid,
            &seqs[..seqs.len().min(20)]
        );
        seen_threads += 1;
    }
    assert_eq!(seen_threads, THREADS);
}

/// Ring overflow under concurrency: drop-oldest per ring, drops counted
/// both per-ring and recorder-wide, survivors are each thread's newest
/// events in order.
#[test]
fn overflow_drops_oldest_per_thread_and_counts() {
    const CAP: usize = 32;
    const THREADS: u64 = 4;
    const EVENTS_PER_THREAD: u64 = 500;
    let rec = FlightRecorder::new(CAP);
    let ctx = rec.start_trace();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ctx = ctx.clone();
            scope.spawn(move || {
                for seq in 0..EVENTS_PER_THREAD {
                    ctx.instant_with(TICK, vec![("seq", ArgValue::U64(seq))]);
                    let _ = t;
                }
            });
        }
    });
    let snap = rec.snapshot();
    let mut total_dropped = 0;
    for thread in &snap.threads {
        assert_eq!(thread.events.len(), CAP);
        assert_eq!(thread.dropped, EVENTS_PER_THREAD - CAP as u64);
        total_dropped += thread.dropped;
        let seqs: Vec<u64> = thread
            .events
            .iter()
            .map(|e| arg_u64(&e.args, "seq").unwrap())
            .collect();
        let expect: Vec<u64> = (EVENTS_PER_THREAD - CAP as u64..EVENTS_PER_THREAD).collect();
        assert_eq!(seqs, expect, "survivors must be the newest, in order");
    }
    assert_eq!(snap.dropped, total_dropped);
    assert_eq!(rec.dropped(), total_dropped);
}

/// The exported Chrome-trace JSON parses with serde_json and every
/// lane's B/E events pair up like balanced parentheses with matching
/// names.
#[test]
fn chrome_trace_json_parses_with_balanced_pairs() {
    let rec = FlightRecorder::new(4096);
    let ctx = rec.start_trace();
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let ctx = ctx.clone();
            scope.spawn(move || {
                for i in 0..20u64 {
                    let root = ctx.span(EPOCH);
                    {
                        let mut c = root.ctx().span(COMPUTE);
                        c.arg("lane", t);
                        c.arg("i", i);
                    }
                    root.ctx().instant(MARK);
                }
            });
        }
    });
    let json = rec.snapshot().to_chrome_json();
    let doc = serde_json::from_str(&json).expect("chrome trace must be valid JSON");
    let events = doc["traceEvents"]
        .as_array()
        .expect("traceEvents must be an array");
    assert!(!events.is_empty());
    // Walk each tid's stream: B pushes, E must match the top name.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut pairs = 0u64;
    for e in events {
        let ph = e["ph"].as_str().expect("ph");
        let tid = e["tid"].as_u64().expect("tid");
        let name = e["name"].as_str().expect("name").to_string();
        match ph {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => {
                let top = stacks
                    .get_mut(&tid)
                    .and_then(|s| s.pop())
                    .unwrap_or_else(|| panic!("E without B on tid {tid}"));
                assert_eq!(top, name, "mismatched B/E pair on tid {tid}");
                pairs += 1;
            }
            "i" | "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    assert_eq!(
        pairs,
        3 * 20 * 2,
        "every span must export exactly one B/E pair"
    );
    // Timestamps within each tid are non-decreasing (Perfetto requires
    // this for correct nesting).
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for e in events {
        if e["ph"].as_str() == Some("M") {
            continue;
        }
        let tid = e["tid"].as_u64().unwrap();
        let ts = e["ts"].as_f64().expect("ts");
        let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
        assert!(ts >= prev, "tid {tid} went backwards: {prev} -> {ts}");
    }
}

/// Cross-thread parenting end to end: a span opened on a worker via the
/// parent handle exports with the submitting span's ID as its parent,
/// and drop-on-another-thread still lands the End in the Begin ring.
#[test]
fn cross_thread_parenting_and_end_ring_affinity() {
    let rec = FlightRecorder::new(256);
    let ctx = rec.start_trace();
    let root = ctx.span(REQUEST);
    let child_ctx = root.ctx();
    let moved_span = ctx.span(MOVED);
    std::thread::spawn(move || {
        drop(child_ctx.span(WORKER_STAGE));
        // `moved` began on the main thread but is dropped here; its End
        // must land in the main thread's ring to keep pairs balanced.
        drop(moved_span);
    })
    .join()
    .unwrap();
    drop(root);
    let snap = rec.snapshot();
    let root_id = snap.threads[0]
        .events
        .iter()
        .find(|e| e.name == "request" && e.kind == EventKind::Begin)
        .unwrap()
        .span_id;
    let worker_begin = snap
        .events()
        .find(|e| e.name == "worker.stage" && e.kind == EventKind::Begin)
        .unwrap();
    assert_eq!(worker_begin.parent_id, root_id);
    // Per-ring balance: each ring's B/E counts match.
    for thread in &snap.threads {
        let begins = thread
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .count();
        let ends = thread
            .events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .count();
        assert_eq!(begins, ends, "ring {} has unbalanced pairs", thread.tid);
    }
}
