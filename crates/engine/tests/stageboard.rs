//! The live stage board shows untraced work where it runs: a request
//! with no trace context still marks its stages, because every
//! `TraceCtx::span` carries the board entry, recording or not — and a
//! miss is computed on the thread that asked, so that is the only
//! thread that shows them.

use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[test]
fn untraced_miss_is_computed_on_the_calling_thread() {
    let _session = telemetry::StageSession::start();
    let engine = Engine::new(EngineConfig {
        reorder_threads: 1,
        registry: Some(telemetry::Registry::new_arc()),
        ..EngineConfig::default()
    });
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(90, 90), 3));

    // Sample the board, as the profiler does, for as long as the one
    // blocking call is in flight.
    let done = AtomicBool::new(false);
    let mut caller: Vec<Vec<&'static str>> = Vec::new();
    let mut elsewhere: Vec<(String, Vec<&'static str>)> = Vec::new();
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
                if thread == "stageboard-caller" {
                    caller.push(stack);
                } else {
                    elsewhere.push((thread, stack));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    assert!(
        caller
            .iter()
            .any(|stack| stack.starts_with(&["engine.request", "engine.reorder"])),
        "caller never showed engine.request > engine.reorder: {caller:?}"
    );
    // With one reorder lane the engine owns no thread: nothing but the
    // caller ever opened a stage.
    assert!(
        elsewhere.is_empty(),
        "stages on threads other than the caller: {elsewhere:?}"
    );
}
