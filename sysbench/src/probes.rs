//! Per-layer probes: direct calls of single public functions on small,
//! fixed inputs, the same in every workload's traced run.
//!
//! A probe times a call the way the paper times SpMV (§4.1): many
//! repetitions, the *minimum* is the figure. Each one names, in
//! `README.md`, the end-to-end metric it should move and on which
//! workload; none of them is gated.

use crate::grid::{GridInputs, GridSize, GridWorkload, ORDERINGS};
use crate::harness::{Check, Workload};
use crate::tier::small_mesh;
use crate::{affinity, alloc};
use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use policy::{PolicyConfig, PolicyEngine, PolicyMode, Predictor};
use reorder::{splice_ordering_on, ReorderAlgorithm, ReorderExec};
use servetier::{AdmissionQueue, HashRing};
use spmv::KernelKind;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use team::ThreadTeam;
use telemetry::Registry;

/// Minimum over `reps` timings of `inner` back-to-back calls, in
/// nanoseconds per call.
fn best_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / inner as f64);
    }
    best
}

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// This host as an `archsim` machine: the model's Skylake with one
/// thread and this host's cache sizes.
fn host_machine() -> archsim::Machine {
    let mut m = Predictor::new().machine().clone();
    m.sockets = 1;
    m.cores_per_socket = 1;
    m.threads = 1;
    m.l1d_kib = 48;
    m.l2_kib = 2048;
    m.l3_mib_per_socket = 260;
    m
}

/// Measured values by metric name.
pub type Probes = Vec<(&'static str, f64)>;

/// Run every probe. `smoke` shrinks the inputs, not the list.
pub fn run(seed: u64, smoke: bool) -> Probes {
    let t0 = Instant::now();
    let mut p = Probes::new();
    let reps = if smoke { 3 } else { 20 };
    spmv_grid(&mut p, seed, smoke);
    spmv_small(&mut p, seed, reps);
    team_dispatch(&mut p, reps);
    reorder_rates(&mut p, seed, smoke);
    reorder_splice(&mut p, seed, smoke);
    sparsemat_rates(&mut p, seed, smoke);
    engine_paths(&mut p, seed, reps);
    policy_calls(&mut p, seed, reps);
    tier_parts(&mut p, reps);
    p.push(("probes.run_s", t0.elapsed().as_secs_f64()));
    p
}

/// `spmv.{1d,2d,merge}.gflops`, `spmv.speedup.*`, `spmv.ref_dense.*`,
/// `team.t2_ratio`, `archsim.speedup_residual`: the out-of-L2 grid
/// (`GridSize::streaming`: one 17 MiB matrix under every ordering and
/// kernel), peak = minimum time. Served by the L3 or by memory as the
/// neighbours allow, which is why nothing here is gated.
fn spmv_grid(p: &mut Probes, seed: u64, smoke: bool) {
    let size = GridSize {
        small: smoke,
        streaming: true,
    };
    // Input generation may use every core; the timing may not.
    affinity::unpin();
    let inputs = GridInputs::build(size, seed);
    affinity::pin();
    let mut grid = GridWorkload::new(inputs);
    grid.reset();
    for _ in 0..2 {
        let slice = grid.slice(Check::Sampled);
        assert_eq!(slice.failed(), 0, "probe grid answered wrong");
    }
    let kernels = KernelKind::all();
    let best =
        |ordering: usize, kernel: usize| grid.cell_best_us[ordering * kernels.len() + kernel];
    let nnz = grid.cell_matrix(0).nnz();
    let gflops = |us: f64| 2.0 * nnz as f64 / us / 1e3;
    for (k, name) in ["spmv.1d.gflops", "spmv.2d.gflops", "spmv.merge.gflops"]
        .into_iter()
        .enumerate()
    {
        p.push((
            name,
            geomean((0..ORDERINGS.len()).map(|o| gflops(best(o, k)))),
        ));
    }
    for (o, name) in [
        (1, "spmv.speedup.rcm"),
        (2, "spmv.speedup.gray"),
        (3, "spmv.speedup.amd"),
        (4, "spmv.speedup.gp"),
    ] {
        p.push((
            name,
            geomean((0..kernels.len()).map(|k| best(0, k) / best(o, k))),
        ));
    }

    // Measured vs modelled speedup of the 1D kernel.
    let machine = host_machine();
    let modelled =
        |o: usize| archsim::simulate_spmv_1d(grid.cell_matrix(o * kernels.len()), &machine).seconds;
    let original = modelled(0);
    p.push((
        "archsim.speedup_residual",
        geomean((1..ORDERINGS.len()).map(|o| (best(0, 0) / best(o, 0)) / (original / modelled(o)))),
    ));

    // 1D on two lanes vs one, same reordered matrix (RCM).
    let rcm = Arc::clone(grid.cell_matrix(kernels.len()));
    let (x, mut y) = (vec![1.0; rcm.ncols()], vec![0.0; rcm.nrows()]);
    let time_on = |lanes: usize, y: &mut Vec<f64>| {
        let team = ThreadTeam::new(lanes);
        let kernel = KernelKind::OneD.plan(&rcm, lanes);
        best_ns(5, 1, || kernel.execute(&team, &x, y))
    };
    let one = time_on(1, &mut y);
    p.push(("team.t2_ratio", time_on(2, &mut y) / one));

    // §4.2: the dense tall-skinny CSR reference, out of L2 like the
    // grid (1.4 M nonzeros, 16 MiB).
    let (rows, cols) = if smoke { (350, 40) } else { (3_500, 400) };
    let dense = Arc::new(corpus::tall_dense(rows, cols));
    let kernel = KernelKind::OneD.plan(&dense, 1);
    let (x, mut y) = (vec![1.0; cols], vec![0.0; rows]);
    let ns = best_ns(5, 1, || kernel.execute(grid.team(), &x, &mut y));
    let reference = 2.0 * dense.nnz() as f64 / ns;
    p.push(("spmv.ref_dense.gflops", reference));
    p.push(("spmv.frac_of_ref", gflops(best(1, 0)) / reference));
    grid.finish();
}

/// `spmv.small_call_ns`, `spmv.allocs_per_call`,
/// `reorder.permute_vec_ns_per_row`: the `serve_hot` request's inner
/// three calls on its own matrix size.
fn spmv_small(p: &mut Probes, seed: u64, reps: usize) {
    let a = small_mesh(seed);
    let ordering = AlgoSpec::Rcm
        .instantiate()
        .compute(&a)
        .expect("square matrix");
    let b = Arc::new(ordering.apply(&a).expect("ordering fits"));
    let kernel = KernelKind::OneD.plan(&b, 1);
    let team = ThreadTeam::new(1);
    let x = vec![1.0; b.ncols()];
    let mut y = vec![0.0; b.nrows()];
    p.push((
        "spmv.small_call_ns",
        best_ns(reps, 200, || kernel.execute(&team, &x, &mut y)),
    ));
    let scope = alloc::Scope::open();
    for _ in 0..100 {
        kernel.execute(&team, &x, &mut y);
    }
    p.push(("spmv.allocs_per_call", scope.close().calls as f64 / 100.0));
    let ns = best_ns(reps, 200, || {
        let xp = ordering.permute_input(black_box(&x));
        black_box(ordering.unpermute_output(black_box(&xp)));
    });
    p.push(("reorder.permute_vec_ns_per_row", ns / b.nrows() as f64));
}

/// `team.dispatch_ns`: an empty region on a size-1 team.
fn team_dispatch(p: &mut Probes, reps: usize) {
    let team = ThreadTeam::new(1);
    p.push((
        "team.dispatch_ns",
        best_ns(reps, 1000, || {
            team.run(&|lane| {
                black_box(lane);
            })
        }),
    ));
}

/// `reorder.*.mnnz_per_s`: each ordering on a 50k-nnz scrambled mesh.
fn reorder_rates(p: &mut Probes, seed: u64, smoke: bool) {
    let side = if smoke { 30 } else { 100 };
    let a = corpus::scramble(&corpus::mesh2d(side, side), seed);
    for (name, algo) in [
        ("reorder.rcm.mnnz_per_s", AlgoSpec::Rcm),
        ("reorder.gray.mnnz_per_s", AlgoSpec::Gray),
        ("reorder.amd.mnnz_per_s", AlgoSpec::Amd),
        ("reorder.nd.mnnz_per_s", AlgoSpec::Nd),
        ("reorder.gp.mnnz_per_s", AlgoSpec::Gp { parts: 8 }),
        ("reorder.hp.mnnz_per_s", AlgoSpec::Hp { parts: 8 }),
    ] {
        let algorithm = algo.instantiate();
        let ns = best_ns(3, 1, || {
            black_box(algorithm.compute(&a).expect("square matrix"));
        });
        p.push((name, a.nnz() as f64 / ns * 1e3));
    }
}

/// `reorder.splice_vs_full_ratio`: RCM after a delta that dirties one
/// component of a hundred, spliced vs recomputed.
fn reorder_splice(p: &mut Probes, seed: u64, smoke: bool) {
    let regions = if smoke { 20 } else { 100 };
    let parent = corpus::disjoint_meshes(regions, 14, 12, seed);
    let rcm = reorder::Rcm::default();
    let rx = ReorderExec::sequential();
    let cached = rcm
        .compute_components_on(&parent, &rx)
        .expect("square matrix")
        .expect("RCM is component-structured");
    let batch = corpus::mutation_trace(&parent, 1, 2, seed)
        .pop()
        .expect("one batch");
    let mut child = parent.clone();
    let touched = child.apply_delta(&batch).expect("trace fits").touched_rows;
    let full = best_ns(3, 1, || {
        black_box(rcm.compute_components_on(&child, &rx).expect("square"));
    });
    let splice = best_ns(3, 1, || {
        let spliced =
            splice_ordering_on(&rcm, &child, &cached.order, &cached.ranges, &touched, &rx)
                .expect("square");
        assert!(spliced.is_some(), "splice declined");
        black_box(spliced);
    });
    p.push(("reorder.splice_vs_full_ratio", splice / full));
}

/// `sparsemat.permute.mnnz_per_s`, `sparsemat.content_hash.mnnz_per_s`,
/// `sparsemat.apply_delta.us_per_edge`.
fn sparsemat_rates(p: &mut Probes, seed: u64, smoke: bool) {
    let side = if smoke { 30 } else { 100 };
    let mut a = corpus::scramble(&corpus::mesh2d(side, side), seed);
    let ordering = AlgoSpec::Rcm
        .instantiate()
        .compute(&a)
        .expect("square matrix");
    let ns = best_ns(5, 1, || {
        black_box(ordering.apply(&a).expect("ordering fits"));
    });
    p.push(("sparsemat.permute.mnnz_per_s", a.nnz() as f64 / ns * 1e3));
    let nnz = a.nnz() as f64;
    let ns = best_ns(5, 1, || {
        // Any mutable access resets the memo, so each call rehashes.
        let _ = a.values_mut();
        black_box(a.content_hash());
    });
    p.push(("sparsemat.content_hash.mnnz_per_s", nnz / ns * 1e3));

    let root = corpus::disjoint_meshes(16, 8, 8, seed);
    let batch = corpus::mutation_trace(&root, 1, 4, seed)
        .pop()
        .expect("one batch");
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let mut m = root.clone();
        let t0 = Instant::now();
        m.apply_delta(&batch).expect("trace fits");
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    p.push((
        "sparsemat.apply_delta.us_per_edge",
        best / 1e3 / batch.len() as f64,
    ));
}

fn probe_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 1,
        reorder_threads: 1,
        registry: Some(Registry::new_arc()),
        ..EngineConfig::default()
    })
}

/// `engine.hit_ns`, `engine.plan_hit_ns`, `engine.miss_hop_us`.
fn engine_paths(p: &mut Probes, seed: u64, reps: usize) {
    let engine = probe_engine();
    let handle = MatrixHandle::from_matrix(small_mesh(seed));
    engine.get(&handle, AlgoSpec::Rcm).expect("RCM computes");
    p.push((
        "engine.hit_ns",
        best_ns(reps, 200, || {
            black_box(
                engine
                    .submit(&handle, AlgoSpec::Rcm)
                    .wait()
                    .expect("cached"),
            );
        }),
    ));
    engine.plan(&handle, KernelKind::OneD, 1);
    p.push((
        "engine.plan_hit_ns",
        best_ns(reps, 200, || {
            black_box(engine.plan(&handle, KernelKind::OneD, 1));
        }),
    ));
    // A cold request's way through the engine (dispatcher → pool →
    // dispatcher) minus the ordering it computes on the way.
    let gray = AlgoSpec::Gray.instantiate();
    let (mut through, mut direct) = (f64::INFINITY, f64::INFINITY);
    for i in 0..reps as u64 {
        let fresh = MatrixHandle::from_matrix(small_mesh(seed ^ (0x6d69_7373 + i)));
        let t0 = Instant::now();
        engine
            .submit(&fresh, AlgoSpec::Gray)
            .wait()
            .expect("Gray computes");
        through = through.min(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        black_box(gray.compute(fresh.matrix()).expect("Gray computes"));
        direct = direct.min(t0.elapsed().as_nanos() as f64);
    }
    p.push(("engine.miss_hop_us", (through - direct) / 1e3));
}

/// `policy.decide_warm_ns`, `policy.observe_ns`,
/// `policy.summarize_cold_us`.
fn policy_calls(p: &mut Probes, seed: u64, reps: usize) {
    let policy = PolicyEngine::new(PolicyConfig {
        mode: PolicyMode::Always,
        registry: Some(Registry::new_arc()),
        ..PolicyConfig::default()
    });
    let a = small_mesh(seed);
    let hash = a.content_hash();
    p.push((
        "policy.decide_warm_ns",
        best_ns(reps, 200, || {
            black_box(policy.decide(&a, hash, AlgoSpec::Rcm, true));
        }),
    ));
    p.push((
        "policy.observe_ns",
        best_ns(reps, 200, || policy.observe_spmv(hash, AlgoSpec::Rcm, 5e-6)),
    ));
    let predictor = Predictor::new();
    let ns = best_ns(5, 1, || {
        black_box(predictor.summarize(&a));
    });
    p.push(("policy.summarize_cold_us", ns / 1e3));
}

/// `tier.route_ns`, `tier.admission_ns` (one push and one pop).
fn tier_parts(p: &mut Probes, reps: usize) {
    let ring = HashRing::new(1, 32);
    let mut key = 0x9e37_79b9_7f4a_7c15_u128;
    p.push((
        "tier.route_ns",
        best_ns(reps, 1000, || {
            key = key.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            black_box(ring.route(key));
        }),
    ));
    let queue: AdmissionQueue<u32> = AdmissionQueue::new(&[1], 256);
    p.push((
        "tier.admission_ns",
        best_ns(reps, 1000, || {
            queue.push(0, 0, None, 7).expect("queue has room");
            black_box(queue.pop());
        }),
    ));
}
