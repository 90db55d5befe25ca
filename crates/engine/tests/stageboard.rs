//! The live stage board shows untraced work: a request with no trace
//! context still marks its stages — on the caller that blocks and on
//! the pool worker that computes — because every `TraceCtx::span`
//! carries the board entry, recording or not.

use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[test]
fn untraced_miss_marks_the_worker_and_the_blocked_caller() {
    let _session = telemetry::StageSession::start();
    let engine = Engine::new(EngineConfig {
        workers: 1,
        registry: Some(telemetry::Registry::new_arc()),
        ..EngineConfig::default()
    });
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(90, 90), 3));

    // Sample the board, as the profiler does, for as long as the one
    // blocking call is in flight.
    let done = AtomicBool::new(false);
    let mut worker: Vec<Vec<&'static str>> = Vec::new();
    let mut caller: Vec<Vec<&'static str>> = Vec::new();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("stageboard-caller".into())
            .spawn_scoped(scope, || {
                engine.get(&matrix, AlgoSpec::Amd).unwrap();
                done.store(true, Ordering::Release);
            })
            .unwrap();
        while !done.load(Ordering::Acquire) {
            for (thread, stack) in telemetry::sample_stages() {
                match thread.as_str() {
                    "engine-worker-0" => worker.push(stack),
                    "stageboard-caller" => caller.push(stack),
                    _ => {}
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    assert!(!worker.is_empty(), "worker never showed engine.reorder");
    assert!(
        worker.iter().all(|stack| stack[0] == "engine.reorder"),
        "engine.reorder must be the worker's outermost stage: {worker:?}"
    );
    assert!(
        caller
            .iter()
            .any(|stack| stack == &["engine.request", "engine.wait"]),
        "caller never showed engine.request > engine.wait: {caller:?}"
    );
}
