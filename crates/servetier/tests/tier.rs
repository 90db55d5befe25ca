//! End-to-end tests for the serving tier: numeric answer delivery,
//! load-shedding, deadline cancellation, routing, and shutdown.

use engine::{AlgoSpec, MatrixHandle};
use servetier::{ServeTier, ShedReason, SpmvRequest, TenantSpec, TierConfig, TierError};
use spmv::KernelKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tier(shards: usize, queue_capacity: usize) -> ServeTier {
    ServeTier::new(TierConfig {
        shards,
        queue_capacity,
        tenants: vec![TenantSpec::new("t0", 2), TenantSpec::new("t1", 1)],
        dispatchers_per_shard: 1,
        spmv_threads: 2,
        registry: Some(telemetry::Registry::new_arc()),
        ..TierConfig::default()
    })
}

fn request(matrix: &MatrixHandle, algo: AlgoSpec, kernel: KernelKind) -> SpmvRequest {
    let x: Vec<f64> = (0..matrix.matrix().ncols())
        .map(|i| 1.0 + (i % 7) as f64 * 0.5)
        .collect();
    SpmvRequest {
        tenant: "t0".into(),
        matrix: matrix.clone(),
        algo,
        kernel,
        x: Arc::new(x),
        priority: 0,
        deadline: None,
    }
}

fn assert_close(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
            "row {i}: got {g}, want {w}"
        );
    }
}

#[test]
fn answers_are_correct_in_original_index_space() {
    // Every algorithm (symmetric and the row-only Gray) × every
    // kernel, on a 4-shard tier: the caller must never observe the
    // reordering.
    let tier = tier(4, 64);
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(14, 14), 5));
    for algo in [
        AlgoSpec::Original,
        AlgoSpec::Rcm,
        AlgoSpec::Amd,
        AlgoSpec::Gray,
        AlgoSpec::Gp { parts: 4 },
    ] {
        for kernel in KernelKind::all() {
            let req = request(&matrix, algo, kernel);
            let want = matrix.matrix().spmv_dense(&req.x);
            let response = tier
                .serve(req)
                .unwrap_or_else(|e| panic!("{}/{} failed: {e}", algo.name(), kernel.name()));
            assert_close(&response.y, &want);
            assert_eq!(response.shard, tier.route(&matrix));
        }
    }
    let stats = tier.stats();
    assert_eq!(stats.served(), 15);
    assert_eq!(stats.shed(), 0);
}

#[test]
fn distinct_matrices_spread_over_shards_deterministically() {
    let tier = tier(4, 64);
    let matrices: Vec<MatrixHandle> = (0..32u64)
        .map(|i| {
            MatrixHandle::from_matrix(corpus::scramble(
                &corpus::mesh2d(6 + (i % 5) as usize, 7),
                i,
            ))
        })
        .collect();
    let mut used = [false; 4];
    for m in &matrices {
        let s = tier.route(m);
        assert_eq!(s, tier.route(m), "routing must be deterministic");
        used[s] = true;
    }
    assert!(
        used.iter().filter(|&&u| u).count() >= 2,
        "32 matrices landed on one shard: {used:?}"
    );
}

/// Lineage-affine routing: a mutated matrix lands on the shard that
/// owns its ancestor, so the delta splice path finds the parent's
/// cached component ranges — and the served answer is still exact.
#[test]
fn delta_descendants_route_to_the_parents_shard_and_splice() {
    use sparsemat::EdgeOp;
    let tier = tier(4, 64);
    for seed in 0..8u64 {
        let base = corpus::scramble(&corpus::mesh2d(6 + (seed % 4) as usize, 7), seed);
        let parent = MatrixHandle::from_matrix(base.clone());
        let mut mutated = base;
        let (r, c) = mutated
            .iter()
            .find(|&(i, j, _)| i != j)
            .map(|(i, j, _)| (i, j))
            .expect("mesh has off-diagonal entries");
        mutated
            .apply_delta(&[
                EdgeOp::Remove { row: r, col: c },
                EdgeOp::Remove { row: c, col: r },
            ])
            .unwrap();
        let child = MatrixHandle::from_matrix(mutated);
        assert_ne!(parent.content_hash(), child.content_hash());
        assert_eq!(
            tier.route(&parent),
            tier.route(&child),
            "seed {seed}: delta child must stay on its parent's shard"
        );
    }

    // End-to-end: serve the parent, mutate, serve the child — the
    // child's ordering is spliced from the parent's cached ranges and
    // the numeric answer is still exact.
    let base = corpus::scramble(&corpus::mesh2d(12, 12), 3);
    let parent = MatrixHandle::from_matrix(base.clone());
    tier.serve(request(&parent, AlgoSpec::Rcm, KernelKind::Merge))
        .unwrap();
    let mut mutated = base;
    let (r, c) = mutated
        .iter()
        .find(|&(i, j, _)| i != j)
        .map(|(i, j, _)| (i, j))
        .unwrap();
    mutated
        .apply_delta(&[
            EdgeOp::Remove { row: r, col: c },
            EdgeOp::Remove { row: c, col: r },
        ])
        .unwrap();
    let child = MatrixHandle::from_matrix(mutated);
    let req = request(&child, AlgoSpec::Rcm, KernelKind::Merge);
    let want = child.matrix().spmv_dense(&req.x);
    let response = tier.serve(req).unwrap();
    assert_close(&response.y, &want);
    assert_eq!(response.shard, tier.route(&parent));
    let stats = tier.engine_for(&child).stats();
    assert_eq!(stats.delta_hits, 1, "child must probe the parent entry");
    assert_eq!(stats.delta_splices, 1, "child must splice, not recompute");
}

#[test]
fn full_queue_sheds_with_reason() {
    // One dispatcher, capacity 2, and a stream of distinct matrices
    // (each a fresh reorder): the backlog must overflow into sheds.
    let tier = tier(1, 2);
    // Built beforehand, so that the submissions are back to back: a
    // matrix takes as long to generate and hash as a request to serve.
    let requests: Vec<_> = (0..16u64)
        .map(|i| {
            let m = MatrixHandle::from_matrix(corpus::scramble(
                &corpus::mesh2d(12, 12 + i as usize),
                i,
            ));
            request(&m, AlgoSpec::Rcm, KernelKind::OneD)
        })
        .collect();
    let tickets: Vec<_> = requests.into_iter().map(|r| tier.submit(r)).collect();
    let mut served = 0usize;
    let mut shed = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(_) => served += 1,
            Err(TierError::Shed(ShedReason::QueueFull)) => shed += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(shed > 0, "16 instant submissions into capacity 2 must shed");
    assert_eq!(served + shed, 16);
    let stats = tier.stats();
    assert_eq!(stats.shards[0].shed_queue_full, shed as u64);
    assert_eq!(stats.served(), served as u64);
}

#[test]
fn expired_deadline_is_shed_without_reorder_work() {
    let tier = tier(1, 16);
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(12, 12), 1));
    let mut req = request(&matrix, AlgoSpec::Rcm, KernelKind::OneD);
    req.deadline = Some(Instant::now() - Duration::from_millis(1));
    match tier.serve(req) {
        Err(TierError::Shed(ShedReason::Expired)) => {}
        other => panic!("expected expired shed, got {other:?}"),
    }
    let stats = tier.stats();
    assert_eq!(stats.shards[0].shed_expired, 1);
    assert_eq!(
        stats.shards[0].engine.jobs_executed, 0,
        "an expired request must never reach a reordering"
    );
    assert_eq!(stats.shards[0].engine.submitted, 0);
}

#[test]
fn unknown_tenant_is_rejected() {
    let tier = tier(1, 16);
    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(10, 10));
    let mut req = request(&matrix, AlgoSpec::Original, KernelKind::OneD);
    req.tenant = "nobody".into();
    match tier.serve(req) {
        Err(TierError::Shed(ShedReason::UnknownTenant)) => {}
        other => panic!("expected unknown-tenant shed, got {other:?}"),
    }
    assert_eq!(tier.stats().shed_unknown_tenant, 1);
}

#[test]
fn wrong_x_length_is_invalid() {
    let tier = tier(1, 16);
    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(10, 10));
    let mut req = request(&matrix, AlgoSpec::Original, KernelKind::OneD);
    req.x = Arc::new(vec![1.0; 3]);
    assert!(matches!(tier.serve(req), Err(TierError::InvalidRequest(_))));
}

/// A request that fails inside the engine (here: RCM refuses a
/// rectangular matrix) is still accounted for: every admitted request
/// ends as served, shed or failed.
#[test]
fn engine_failure_is_counted_as_failed() {
    let underflow = telemetry::Registry::global().counter("telemetry.underflow");
    let underflow_before = underflow.get();
    let tier = tier(1, 16);
    let good = MatrixHandle::from_matrix(corpus::mesh2d(10, 10));
    let rectangular = MatrixHandle::from_matrix(sparsemat::CsrMatrix::from_coo(
        &sparsemat::CooMatrix::new(2, 3),
    ));
    for _ in 0..3 {
        tier.serve(request(&good, AlgoSpec::Rcm, KernelKind::OneD))
            .unwrap();
    }
    match tier.serve(request(&rectangular, AlgoSpec::Rcm, KernelKind::OneD)) {
        Err(TierError::Engine(_)) => {}
        other => panic!("expected an engine error, got {other:?}"),
    }
    let stats = tier.stats();
    let shard = &stats.shards[0];
    assert_eq!(shard.admitted, 4);
    assert_eq!((stats.served(), stats.failed(), stats.shed()), (3, 1, 0));
    assert_eq!(shard.queue_depth, 0);
    assert_eq!(underflow.get(), underflow_before);
}

/// Zero parts — a value any client can put in a request — partitions
/// as one part, so a `Gp { parts: 0 }` request gets its answer and the
/// shard goes on to serve the next one.
#[test]
fn zero_part_gp_is_answered_and_the_shard_serves_on() {
    let tier = tier(1, 16);
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(12, 12), 6));
    // The requests run on a helper that owns the tier, and each answer
    // is awaited with a bound: a request that never returns fails the
    // test instead of hanging it, and nothing here ever joins a stuck
    // dispatcher by dropping the tier.
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        for algo in [AlgoSpec::Gp { parts: 0 }, AlgoSpec::Rcm] {
            let req = request(&matrix, algo, KernelKind::OneD);
            let want = matrix.matrix().spmv_dense(&req.x);
            let served = tier.serve(req);
            let depth = tier.stats().shards[0].queue_depth;
            if tx.send((served, want, depth)).is_err() {
                return;
            }
        }
    });
    for algo in ["GP", "RCM"] {
        let (served, want, depth) = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("the {algo} request was never answered"));
        let response = served.unwrap_or_else(|e| panic!("{algo} failed: {e}"));
        assert_close(&response.y, &want);
        assert_eq!(depth, 0, "{algo}: queue depth after the answer");
    }
    helper
        .join()
        .expect("the helper drops the tier and returns");
}

#[test]
fn repeat_requests_hit_the_shard_caches() {
    let tier = tier(2, 64);
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(14, 14), 2));
    let req = request(&matrix, AlgoSpec::Rcm, KernelKind::Merge);
    let want = matrix.matrix().spmv_dense(&req.x);
    for _ in 0..6 {
        let response = tier.serve(req.clone()).unwrap();
        assert_close(&response.y, &want);
    }
    let shard = &tier.stats().shards[tier.route(&matrix)];
    assert_eq!(
        (shard.prepared_misses, shard.prepared_hits),
        (1, 5),
        "the first touch builds the entry, the repeats find it"
    );
    // A repeat never enters the engine: one ordering request and one
    // reorder served all six. The entry cut its own kernel, so the
    // engine's plan cache was never asked.
    let engine = &shard.engine;
    assert_eq!((engine.submitted, engine.jobs_executed), (1, 1));
    assert_eq!((engine.cache.misses, engine.cache.hits), (1, 0));
    assert_eq!((engine.plans.misses, engine.plans.hits), (0, 0));
}

/// A prepared miss whose ordering the engine still holds is a
/// *rebuild*: one ordering-cache hit, the permutation, a plan, the
/// insert. At `prepared_capacity: 1` two alternating matrices evict
/// each other on every request, so everything after the first touches
/// is one.
#[test]
fn rebuild_after_eviction_permutes_and_nothing_else() {
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        queue_capacity: 64,
        tenants: vec![TenantSpec::new("t0", 1)],
        prepared_capacity: 1,
        registry: Some(telemetry::Registry::new_arc()),
        ..TierConfig::default()
    });
    let matrices = [
        MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(14, 12), 5)),
        MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(11, 13), 6)),
    ];
    // A symmetric ordering and a row-only one.
    let algos = [AlgoSpec::Rcm, AlgoSpec::Gray];
    let serve = |matrix: &MatrixHandle, algo, kernel| {
        let req = request(matrix, algo, kernel);
        let want = matrix.matrix().spmv_dense(&req.x);
        assert_close(&tier.serve(req).unwrap().y, &want);
        tier.stats().shards[0]
    };
    let mut before = tier.stats().shards[0];
    for algo in algos {
        for matrix in &matrices {
            before = serve(matrix, algo, KernelKind::OneD);
        }
    }
    assert_eq!(before.engine.jobs_executed, 4, "the four first touches");
    assert_eq!((before.prepared_misses, before.prepared_hits), (4, 0));

    // Kernel-major, so that consecutive requests never share a key.
    for kernel in KernelKind::all() {
        for algo in algos {
            for matrix in &matrices {
                let after = serve(matrix, algo, kernel);
                let what = format!("{}/{kernel}", algo.name());
                assert_eq!(
                    (
                        after.prepared_misses - before.prepared_misses,
                        after.prepared_hits - before.prepared_hits,
                        after.prepared_evictions - before.prepared_evictions,
                    ),
                    (1, 0, 1),
                    "{what}: not a rebuild"
                );
                assert_eq!(
                    (
                        after.engine.cache.hits - before.engine.cache.hits,
                        after.engine.cache.misses - before.engine.cache.misses,
                        after.engine.jobs_executed,
                    ),
                    (1, 0, 4),
                    "{what}: the ordering comes from the engine's cache"
                );
                assert_eq!(
                    (after.engine.plans.misses, after.engine.plans.hits),
                    (0, 0),
                    "{what}: a rebuild went through the plan cache"
                );
                before = after;
            }
        }
    }
}

/// The fused answer path moves no bit: `SpmvResponse::y` is what the
/// unfused sequence — `permute_input`, `Kernel::execute`,
/// `unpermute_output`, through the public functions and from the same
/// ordering — produces, on the first touch and on the warm path, for
/// every algorithm of the study suite under every kernel.
#[test]
fn served_answer_is_bit_identical_to_the_unfused_sequence() {
    const THREADS: usize = 2;
    let tier = tier(1, 64);
    let team = spmv::ThreadTeam::new(THREADS);
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(13, 11), 4));
    for algo in AlgoSpec::study_suite(4, 8) {
        for kernel in KernelKind::all() {
            let req = request(&matrix, algo, kernel);
            let first = tier.serve(req.clone()).unwrap();
            let warm = tier.serve(req.clone()).unwrap();

            let ordering = tier
                .engine_for(&matrix)
                .get(&matrix, algo)
                .unwrap()
                .to_reorder_result();
            let reordered = Arc::new(ordering.apply(matrix.matrix()).unwrap());
            let mut yp = vec![f64::NAN; reordered.nrows()];
            kernel.plan(&reordered, THREADS).execute(
                &team,
                &ordering.permute_input(&req.x),
                &mut yp,
            );
            let want: Vec<u64> = ordering
                .unpermute_output(&yp)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for (which, response) in [("first touch", first), ("warm", warm)] {
                let got: Vec<u64> = response.y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{}/{kernel}, {which}", algo.name());
            }
        }
    }
    let shard = tier.stats().shards[0];
    assert_eq!((shard.prepared_misses, shard.prepared_hits), (6, 30));
}

#[test]
fn per_tenant_latency_series_appear_in_the_registry() {
    let tier = tier(1, 16);
    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(10, 10));
    tier.serve(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD))
        .unwrap();
    let mut req = request(&matrix, AlgoSpec::Rcm, KernelKind::OneD);
    req.tenant = "t1".into();
    tier.serve(req).unwrap();
    let snap = tier.registry().snapshot();
    let h0 = snap
        .histogram_labeled("tier.request", &[("tenant", "t0")])
        .expect("t0 latency series");
    let h1 = snap
        .histogram_labeled("tier.request", &[("tenant", "t1")])
        .expect("t1 latency series");
    assert_eq!(h0.count, 1);
    assert_eq!(h1.count, 1);
}

#[test]
fn dropping_the_tier_resolves_every_outstanding_ticket() {
    let tier = tier(1, 64);
    let tickets: Vec<_> = (0..24u64)
        .map(|i| {
            let m = MatrixHandle::from_matrix(corpus::scramble(
                &corpus::mesh2d(10, 10 + i as usize),
                i,
            ));
            tier.submit(request(&m, AlgoSpec::Rcm, KernelKind::OneD))
        })
        .collect();
    drop(tier);
    // Every ticket resolves — served, or shed on shutdown — without
    // hanging.
    for t in tickets {
        match t.wait() {
            Ok(_) | Err(TierError::Shed(ShedReason::ShuttingDown)) => {}
            Err(other) => panic!("unexpected error at shutdown: {other}"),
        }
    }
}

#[test]
fn sampled_request_records_the_serving_stages() {
    use telemetry::trace::EventKind;
    let recorder = telemetry::FlightRecorder::new(8192);
    let tier = ServeTier::new(TierConfig {
        shards: 2,
        queue_capacity: 16,
        tenants: vec![TenantSpec::new("t0", 1)],
        spmv_threads: 2,
        registry: Some(telemetry::Registry::new_arc()),
        recorder: Some(Arc::clone(&recorder)),
        trace_sample_every: 1,
        ..TierConfig::default()
    });
    let matrix = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(12, 12), 3));
    // The stages one request of the key opened, in recording order.
    let serve_traced = || {
        let ticket = tier.submit(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD));
        let request_id = ticket.request_id();
        ticket.wait().unwrap();
        let trace_id = tier.trace_id_for(request_id).expect("request sampled");
        let snap = recorder.snapshot().filter_trace(trace_id);
        let names: Vec<&str> = snap
            .events()
            .filter(|e| e.kind == EventKind::Begin)
            .map(|e| e.name)
            .collect();
        (request_id, snap, names)
    };
    let (request_id, snap, names) = serve_traced();
    for stage in telemetry::stages::ALL.iter().filter(|s| s.first_touch) {
        assert!(
            names.contains(&stage.name),
            "missing {} in {names:?}",
            stage.name
        );
    }
    // Its warm twin finds the prepared entry: probe, decide, gather,
    // multiply-with-scatter — and nothing of the engine. This is the
    // guard against the warm path silently taking the slow one.
    let (_, _, mut warm) = serve_traced();
    warm.sort_unstable();
    assert_eq!(
        warm,
        [
            "admission.wait",
            "policy.decide",
            "tier.execute",
            "tier.request",
            "tier.spmv",
            "tier.wait",
        ]
    );
    // The engine's request span parents under the tier's execute
    // span, and so does the plan stage, which the tier opens itself.
    let execute_id = snap
        .events()
        .find(|e| e.name == "tier.execute" && e.kind == EventKind::Begin)
        .unwrap()
        .span_id;
    for stage in ["engine.request", "tier.plan"] {
        let begin = snap
            .events()
            .find(|e| e.name == stage && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(begin.parent_id, execute_id, "{stage}");
    }
    // And both renderings resolve by request ID.
    assert!(tier
        .trace_summary(request_id)
        .unwrap()
        .contains("tier.spmv"));
    assert!(tier
        .trace_chrome_json(request_id)
        .unwrap()
        .contains("\"tier.spmv\""));
}

#[test]
fn latency_exemplar_names_the_request_its_trace_is_filed_under() {
    // Every third request is sampled, so request IDs (1, 4, 7, …) and
    // the recorder's trace IDs (1, 2, 3, …) part ways at once — and
    // `/traces/<id>` looks up by request ID.
    let recorder = telemetry::FlightRecorder::new(8192);
    let registry = telemetry::Registry::new_arc();
    let tier = ServeTier::new(TierConfig {
        tenants: vec![TenantSpec::new("t0", 1)],
        registry: Some(Arc::clone(&registry)),
        recorder: Some(recorder),
        trace_sample_every: 3,
        ..TierConfig::default()
    });
    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(10, 10));
    for _ in 0..5 {
        tier.serve(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD))
            .unwrap();
    }
    let (_, id) = registry
        .snapshot()
        .histogram_labeled("tier.request", &[("tenant", "t0")])
        .unwrap()
        .exemplar
        .expect("a sampled request left an exemplar");
    // Request 4 was the last sampled one; request 5 left it alone.
    assert_eq!(id, 4);
    let json = tier
        .trace_chrome_json(id)
        .expect("the exemplar resolves to a recorded trace");
    assert!(
        json.contains(&format!("\"request\":{id},")),
        "the trace under the exemplar's id is another request's"
    );
}

#[test]
fn adaptive_policy_skips_reordering_for_one_shot_traffic() {
    use servetier::{PolicyConfig, PolicyMode};
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        queue_capacity: 64,
        tenants: vec![TenantSpec::new("t0", 1)],
        registry: Some(telemetry::Registry::new_arc()),
        policy: PolicyConfig {
            mode: PolicyMode::Adaptive,
            ..PolicyConfig::default()
        },
        ..TierConfig::default()
    });
    // Eight distinct matrices, one request each, all asking for RCM:
    // below the probe threshold the adaptive policy serves every one
    // in original order, and no reorder job ever runs.
    for i in 0..8u64 {
        let m = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(10 + i as usize, 9), i));
        let req = request(&m, AlgoSpec::Rcm, KernelKind::OneD);
        let want = m.matrix().spmv_dense(&req.x);
        let response = tier.serve(req).unwrap();
        assert_close(&response.y, &want);
    }
    let stats = tier.stats();
    assert_eq!(stats.served(), 8);
    let snap = tier.registry().snapshot();
    // The engine ran identity orderings only — RCM never computed.
    assert!(
        snap.histogram("reorder.rcm").is_none(),
        "cold one-shot keys must not pay for reordering"
    );
    assert_eq!(
        snap.counter_labeled("policy.decisions", &[("choice", "identity")]),
        Some(8)
    );
}

#[test]
fn adaptive_policy_probes_and_amortizes_hot_keys() {
    use servetier::{PolicyConfig, PolicyMode};
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        queue_capacity: 64,
        tenants: vec![TenantSpec::new("t0", 1)],
        registry: Some(telemetry::Registry::new_arc()),
        policy: PolicyConfig {
            mode: PolicyMode::Adaptive,
            probe_after: 4,
            ..PolicyConfig::default()
        },
        ..TierConfig::default()
    });
    let m = MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(16, 16), 11));
    let req = request(&m, AlgoSpec::Rcm, KernelKind::OneD);
    let want = m.matrix().spmv_dense(&req.x);
    for _ in 0..12 {
        let response = tier.serve(req.clone()).unwrap();
        assert_close(&response.y, &want);
    }
    let stats = tier.stats();
    assert_eq!(stats.served(), 12);
    let snap = tier.registry().snapshot();
    let rcm_runs = snap.histogram("reorder.rcm").map_or(0, |h| h.count);
    assert_eq!(rcm_runs, 1, "a hot key earns exactly one probe reorder");
    assert_eq!(snap.counter("policy.probes"), Some(1));
    assert!(
        snap.counter_labeled("policy.decisions", &[("choice", "reorder")])
            .unwrap_or(0)
            >= 1
    );
}

/// The prepared cache is an exact LRU with touch-on-get: a 40-read
/// schedule over 5 keys at capacity 3 hits and misses request by
/// request as a `Vec`-ordered reference does. `sysbench`'s
/// `churn_classes` assumes this model of the tier; pinning it here
/// makes a refactor that bends it fail in the workspace.
#[test]
fn prepared_cache_replays_a_schedule_like_the_reference_lru() {
    const CAPACITY: usize = 3;
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        queue_capacity: 64,
        tenants: vec![TenantSpec::new("t0", 1)],
        prepared_capacity: CAPACITY,
        registry: Some(telemetry::Registry::new_arc()),
        ..TierConfig::default()
    });
    let keys: Vec<MatrixHandle> = (0..5)
        .map(|i| MatrixHandle::from_matrix(corpus::scramble(&corpus::mesh2d(10 + i, 10), i as u64)))
        .collect();
    // Least recently used first.
    let mut reference: Vec<usize> = Vec::new();
    let (mut hits, mut evictions) = (0u64, 0u64);
    let mut state = 0x2545f4914f6cdd1du64;
    for step in 0..40 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let k = (state % 5) as usize;
        let want_hit = match reference.iter().position(|&resident| resident == k) {
            Some(i) => {
                reference.remove(i);
                true
            }
            None => {
                if reference.len() == CAPACITY {
                    reference.remove(0);
                    evictions += 1;
                }
                false
            }
        };
        reference.push(k);
        hits += u64::from(want_hit);
        let before = tier.stats().shards[0];
        tier.serve(request(&keys[k], AlgoSpec::Rcm, KernelKind::OneD))
            .unwrap();
        let after = tier.stats().shards[0];
        assert_eq!(
            (
                after.prepared_hits - before.prepared_hits,
                after.prepared_misses - before.prepared_misses
            ),
            (u64::from(want_hit), u64::from(!want_hit)),
            "step {step}: key {k} with {reference:?} resident"
        );
    }
    assert!(
        hits >= 10 && evictions >= 5,
        "the schedule must exercise both: {hits} hits, {evictions} evictions"
    );
    assert_eq!(tier.stats().shards[0].prepared_evictions, evictions);
}

#[test]
fn readiness_tracks_warmup_load_and_drain() {
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        queue_capacity: 64,
        tenants: vec![TenantSpec::new("t0", 1)],
        dispatchers_per_shard: 1,
        min_warm_serves: 1,
        registry: Some(telemetry::Registry::new_arc()),
        ..TierConfig::default()
    });
    // Fresh tier: nothing served yet, so the warm-up gate holds it
    // not-ready (dispatchers may or may not be live yet — either
    // reason is a refusal).
    assert!(tier.readiness().is_err(), "fresh tier must not be ready");

    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(12, 12));
    tier.serve(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD))
        .unwrap();
    // One serve satisfies min_warm_serves, and the (single) dispatcher
    // registered itself live before popping the request.
    assert_eq!(tier.readiness(), Ok(()), "warm tier under load is ready");

    // Draining flips readiness off and stays off; drain is idempotent.
    tier.drain();
    assert_eq!(tier.readiness(), Err("draining".to_string()));
    tier.drain();
    // Submissions after drain resolve as shutdown sheds, not hangs.
    let verdict = tier
        .submit(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD))
        .wait();
    assert!(
        matches!(verdict, Err(TierError::Shed(ShedReason::ShuttingDown))),
        "expected shutdown shed, got {verdict:?}"
    );
}

/// A one-tenant tier on `registry` and an SLO tracker over its
/// `tier.request{tenant}` / `tier.shed_tenant{tenant}` series, built —
/// as `serve` builds it — right after the tier and before any traffic.
fn tier_with_slo(
    registry: &Arc<telemetry::Registry>,
    spec: obsv::SloSpec,
) -> (ServeTier, Arc<obsv::SloTracker>) {
    let tier = ServeTier::new(TierConfig {
        shards: 1,
        queue_capacity: 64,
        tenants: vec![TenantSpec::new("t0", 1)],
        registry: Some(Arc::clone(registry)),
        ..TierConfig::default()
    });
    let slo = obsv::SloTracker::new(
        Arc::clone(registry),
        obsv::SloConfig {
            specs: vec![spec],
            ..obsv::SloConfig::default()
        },
    );
    (tier, slo)
}

#[test]
fn slo_tracker_burns_budget_on_a_known_shed_stream() {
    let registry = telemetry::Registry::new_arc();
    // Objective 0.9 with a latency bound generous enough that every
    // *served* request is good: only sheds burn budget.
    let (tier, slo) = tier_with_slo(&registry, obsv::SloSpec::new("t0", 60_000.0, 0.9));
    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(12, 12));

    // 8 good serves + 2 deterministic sheds (deadline already passed
    // at submission) = 10 total, bad fraction 0.2 on a 0.1 budget.
    for _ in 0..8 {
        tier.serve(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD))
            .unwrap();
    }
    for _ in 0..2 {
        let mut req = request(&matrix, AlgoSpec::Rcm, KernelKind::OneD);
        req.deadline = Some(Instant::now());
        let verdict = tier.submit(req).wait();
        assert!(
            matches!(verdict, Err(TierError::Shed(ShedReason::Expired))),
            "expected expired shed, got {verdict:?}"
        );
    }

    // The sheds landed on the per-tenant attribution counter.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_labeled("tier.shed_tenant", &[("tenant", "t0")]),
        Some(2)
    );

    slo.tick();
    // Lifetime: 0.2 bad on a 0.1 budget -> exhausted (clamped to 0).
    assert_eq!(slo.budget_remaining("t0"), Some(0.0));
    // Windowed: all traffic arrived between the construction baseline
    // and this tick, so the short window sees burn 0.2/0.1 = 2.0.
    let burn = slo.burn_rate("t0", 1).unwrap();
    assert!((burn - 2.0).abs() < 1e-9, "burn {burn}");

    // Derived gauges surface in the shared registry (and therefore in
    // /metrics).
    let snap = registry.snapshot();
    assert_eq!(
        snap.gauge_labeled("slo.budget_remaining", &[("tenant", "t0")]),
        Some(0)
    );
    // The default windows are [5, 30, 150]; with only the
    // construction baseline and one tick recorded, each clamps to the
    // same single-interval delta.
    assert_eq!(
        snap.gauge_labeled("slo.burn_rate", &[("tenant", "t0"), ("window", "5")]),
        Some(2000)
    );
}

#[test]
fn slow_serves_burn_budget_without_any_sheds() {
    let registry = telemetry::Registry::new_arc();
    // A latency threshold of (effectively) zero: every serve is
    // "slow", so the latency leg alone must exhaust the budget.
    let (tier, slo) = tier_with_slo(&registry, obsv::SloSpec::new("t0", 0.0, 0.99));
    let matrix = MatrixHandle::from_matrix(corpus::mesh2d(12, 12));
    for _ in 0..5 {
        tier.serve(request(&matrix, AlgoSpec::Rcm, KernelKind::OneD))
            .unwrap();
    }
    slo.tick();
    let status = &slo.status()[0];
    assert_eq!((status.total, status.bad), (5, 5));
    assert_eq!(slo.budget_remaining("t0"), Some(0.0));
}
