//! `serve`: replay a synthetic SpMV request trace against the sharded
//! serving tier and report serving metrics.
//!
//! The paper's amortisation argument (§4.7, Table 5) says reordering
//! pays for itself when its cost is spread over many SpMV iterations.
//! A serving deployment sharpens that: *requests repeat* (the same
//! matrices come back, hot matrices far more often than cold ones), so
//! the tier's content-addressed shard caches amortise the cost across
//! requests as well as iterations. This binary drives a
//! Zipf-distributed trace of full SpMV requests — each carries an input
//! vector and gets its answer back in original index space — through
//! [`servetier::ServeTier`] and reports:
//!
//! - **throughput** — answers delivered per second of wall-clock;
//! - **shedding** — requests rejected per reason (queue full, expired
//!   deadline) and per shard, the tier's overload behaviour;
//! - **hit rate** — fraction of requests that paid for no ordering:
//!   those that found their shard's prepared entry (and never reached
//!   the engine), plus the engine submissions a shard's ordering cache
//!   answered;
//! - **latency** — per-tenant p50/p99 of the end-to-end request time,
//!   read from the registry's `tier.request{tenant=...}` histograms.
//!
//! Every served answer is checked against a dense reference SpMV — the
//! tier's permute-in / multiply / inverse-permute-out pipeline must be
//! invisible to callers.
//!
//! With `--offered-load R` the clients submit **open-loop** at R
//! requests/s total (with `--deadline-ms` attaching a deadline to each
//! request), which is how the saturation knee is swept; without it they
//! run closed-loop (submit, wait, repeat), which keeps the trace-replay
//! behaviour of earlier revisions.
//!
//! With `--trace-dir` a flight recorder is attached to the tier and a
//! sampled subset of requests (`--trace-sample-rate`) records a
//! request-scoped trace across the whole serving path: admission wait,
//! shard execute, policy decision, engine cache lookup / reorder, the
//! permutation and the plan on a first touch, and the SpMV itself
//! (which stores the answer in the caller's row order).
//! Each dumped request yields `trace-<id>.json` (Chrome trace-event
//! format) plus `trace-<id>.txt` (the plain-text stage breakdown) of
//! exactly what the tier recorded while serving it — `serve` is a
//! client of the tier and adds no stage of its own.
//!
//! With `--mutate-rate R` a mutator thread applies `R` structural edge
//! deltas per second (batches of `--mutate-edges` symmetric edits from
//! [`corpus::mutation_trace`]) to a rotating subset of the corpus while
//! the clients replay. Each delta clones the current matrix, applies
//! the batch (recording content-hash lineage), swaps the served handle
//! and its dense reference, and then submits a *freshness probe* — an
//! RCM request for the mutated matrix — timing how long the tier takes
//! to serve an answer under the new structure. That probe is where the
//! engine's delta path earns its keep: lineage-affine routing lands the
//! descendant on the parent's shard, and the cached per-component
//! ordering is spliced instead of recomputed (`engine.delta.*`
//! counters, `reorder.splice` trace stage).
//!
//! With `--policy {always,never,adaptive}` the tier's reordering
//! policy is selected: `always` honours every requested algorithm (the
//! historical behaviour), `never` serves everything in original order,
//! and `adaptive` lets the policy crate's cost model and amortization
//! ledger decide per request whether a reordering will pay for itself.
//!
//! `serve --help` lists the flags.

use corpus::CorpusSize;
use engine::{AlgoSpec, EngineConfig, MatrixHandle};
use experiments::cli::parse_size;
use experiments::sweep::SweepConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use servetier::{
    PolicyConfig, PolicyMode, ServeTier, ShedReason, SpmvRequest, TenantSpec, TierConfig, TierError,
};
use spmv::{host_threads, KernelKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::FlightRecorder;

/// At most this many sampled client requests (and as many of the
/// mutator's probes) write trace files — tracing is a magnifier, not
/// a census.
const TRACE_DUMP_CAP: usize = 16;

/// Flight-recorder ring capacity (events per thread).
const TRACE_RING_CAPACITY: usize = 1 << 14;

/// How many served answers each client verifies against the dense
/// reference (every answer is cheap to check, but the point is made
/// with a prefix).
const VERIFY_PER_CLIENT: usize = 32;

struct ServeOptions {
    size: CorpusSize,
    requests: usize,
    clients: usize,
    shards: usize,
    tenants: usize,
    offered_load: f64,
    deadline_ms: u64,
    queue_capacity: usize,
    reorder_threads: usize,
    skew: f64,
    seed: u64,
    cache_capacity: usize,
    kernel: KernelKind,
    policy: PolicyMode,
    export_dir: Option<std::path::PathBuf>,
    trace_dir: Option<std::path::PathBuf>,
    trace_sample_rate: f64,
    mutate_rate: f64,
    mutate_edges: usize,
    listen: Option<String>,
    listen_linger_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            size: CorpusSize::Small,
            requests: 2000,
            clients: 4,
            shards: 1,
            tenants: 2,
            offered_load: 0.0,
            deadline_ms: 0,
            queue_capacity: 256,
            reorder_threads: EngineConfig::default().reorder_threads,
            skew: 1.1,
            seed: 42,
            cache_capacity: 4096,
            kernel: KernelKind::OneD,
            policy: PolicyMode::Always,
            export_dir: None,
            trace_dir: None,
            trace_sample_rate: 1.0,
            mutate_rate: 0.0,
            mutate_edges: 8,
            listen: None,
            listen_linger_ms: 0,
        }
    }
}

impl ServeOptions {
    /// The tier's sampling stride: trace every N-th request. A rate of
    /// 1.0 traces everything, 0.01 every hundredth request, 0 nothing.
    /// Tracing is on when anything consumes it: a `--trace-dir` to
    /// dump into, or a `--listen` ops server answering `/traces`.
    fn trace_stride(&self) -> u64 {
        if (self.trace_dir.is_none() && self.listen.is_none()) || self.trace_sample_rate <= 0.0 {
            0
        } else if self.trace_sample_rate >= 1.0 {
            1
        } else {
            (1.0 / self.trace_sample_rate).round() as u64
        }
    }
}

fn usage() -> ! {
    println!(
        "usage: serve [--size small|medium|large] [--requests N] [--clients N]\n\
         \x20            [--shards N] [--tenants N] [--offered-load R] [--deadline-ms MS]\n\
         \x20            [--queue-capacity N] [--reorder-threads N]\n\
         \x20            [--skew S] [--seed N] [--cache-capacity N] [--kernel 1d|2d|merge]\n\
         \x20            [--policy always|never|adaptive] [--export-dir DIR]\n\
         \x20            [--trace-dir DIR] [--trace-sample-rate R]\n\
         \x20            [--mutate-rate R] [--mutate-edges N]\n\
         \x20            [--listen ADDR] [--listen-linger-ms MS]"
    );
    std::process::exit(0);
}

fn parse_serve_args() -> ServeOptions {
    let mut opts = ServeOptions::default();
    let mut it = std::env::args().skip(1);
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    }
    fn num<T: std::str::FromStr>(v: String, flag: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse '{v}'");
            std::process::exit(2);
        })
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => opts.size = parse_size(&value(&mut it, "--size")),
            "--requests" => opts.requests = num(value(&mut it, "--requests"), "--requests"),
            "--clients" => {
                opts.clients = num::<usize>(value(&mut it, "--clients"), "--clients").max(1)
            }
            "--shards" => opts.shards = num::<usize>(value(&mut it, "--shards"), "--shards").max(1),
            "--tenants" => {
                opts.tenants = num::<usize>(value(&mut it, "--tenants"), "--tenants").max(1)
            }
            "--offered-load" => {
                opts.offered_load =
                    num::<f64>(value(&mut it, "--offered-load"), "--offered-load").max(0.0)
            }
            "--deadline-ms" => {
                opts.deadline_ms = num(value(&mut it, "--deadline-ms"), "--deadline-ms")
            }
            "--queue-capacity" => {
                opts.queue_capacity =
                    num::<usize>(value(&mut it, "--queue-capacity"), "--queue-capacity").max(1)
            }
            "--reorder-threads" => {
                opts.reorder_threads =
                    num::<usize>(value(&mut it, "--reorder-threads"), "--reorder-threads").max(1)
            }
            "--skew" => opts.skew = num(value(&mut it, "--skew"), "--skew"),
            "--seed" => opts.seed = num(value(&mut it, "--seed"), "--seed"),
            "--cache-capacity" => {
                opts.cache_capacity =
                    num::<usize>(value(&mut it, "--cache-capacity"), "--cache-capacity").max(1)
            }
            "--kernel" => {
                let v = value(&mut it, "--kernel");
                opts.kernel = KernelKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown --kernel '{v}' (1d|2d|merge)");
                    std::process::exit(2);
                });
            }
            "--policy" => {
                let v = value(&mut it, "--policy");
                opts.policy = v.parse().unwrap_or_else(|e: String| {
                    eprintln!("--policy: {e}");
                    std::process::exit(2);
                });
            }
            "--export-dir" => opts.export_dir = Some(value(&mut it, "--export-dir").into()),
            "--trace-dir" => opts.trace_dir = Some(value(&mut it, "--trace-dir").into()),
            "--trace-sample-rate" => {
                opts.trace_sample_rate =
                    num::<f64>(value(&mut it, "--trace-sample-rate"), "--trace-sample-rate")
                        .clamp(0.0, 1.0)
            }
            "--mutate-rate" => {
                opts.mutate_rate = num::<f64>(value(&mut it, "--mutate-rate"), "--mutate-rate")
                    .clamp(0.0, 10_000.0)
            }
            "--mutate-edges" => {
                opts.mutate_edges =
                    num::<usize>(value(&mut it, "--mutate-edges"), "--mutate-edges").max(1)
            }
            "--listen" => opts.listen = Some(value(&mut it, "--listen")),
            "--listen-linger-ms" => {
                opts.listen_linger_ms =
                    num(value(&mut it, "--listen-linger-ms"), "--listen-linger-ms")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Draw `n` indices in `0..weights_cumulative.len()` from the
/// distribution whose cumulative weights are given (ascending, last
/// element = total mass).
fn sample_trace(cumulative: &[f64], n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let total = *cumulative.last().expect("non-empty key space");
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>() * total;
            // First index whose cumulative weight exceeds u.
            cumulative
                .partition_point(|&c| c <= u)
                .min(cumulative.len() - 1)
        })
        .collect()
}

/// The served state of one matrix: the current handle (a
/// delta-descendant of the original once the mutator has touched it)
/// and the dense reference answer matching that exact structure.
struct DynamicSlot {
    handle: MatrixHandle,
    reference: Arc<Vec<f64>>,
}

/// How many corpus matrices the mutator cycles over. Small on purpose:
/// revisiting the same matrices means every delta after the first lap
/// finds its parent's ordering cached, which is the path under test.
const MUTATE_POOL: usize = 4;

/// What one client thread saw.
#[derive(Debug, Default, Clone, Copy)]
struct ClientTally {
    served: usize,
    shed_queue_full: usize,
    shed_expired: usize,
    verified: usize,
}

/// Write what the tier recorded for one sampled request into `dir`:
/// its Chrome-trace JSON and its plain-text stage summary.
fn dump_trace(tier: &ServeTier, request_id: u64, dir: &std::path::Path) {
    if let Some(json) = tier.trace_chrome_json(request_id) {
        std::fs::write(dir.join(format!("trace-{request_id}.json")), json)
            .expect("writing trace JSON");
    }
    if let Some(text) = tier.trace_summary(request_id) {
        std::fs::write(dir.join(format!("trace-{request_id}.txt")), text)
            .expect("writing trace summary");
    }
}

/// Check a served answer against the dense reference, with a relative
/// tolerance covering the column-permutation's summation reordering.
fn verify_answer(y: &[f64], want: &[f64], key: usize) {
    assert_eq!(y.len(), want.len(), "key {key}: answer length mismatch");
    for (i, (g, w)) in y.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
            "key {key} row {i}: served {g}, reference {w} — answer not in original index space?"
        );
    }
}

fn main() {
    let opts = parse_serve_args();
    let cfg = SweepConfig::for_size(opts.size);

    // --- Key space: every (matrix, algorithm) pair of the study. -----
    let setup = Instant::now();
    let specs = corpus::standard_corpus(opts.size);
    let handles: Vec<MatrixHandle> = specs
        .iter()
        .map(|s| MatrixHandle::from_matrix(s.build()))
        .collect();
    // One input vector per matrix (deterministic, non-constant) and its
    // dense reference answer, for end-to-end verification.
    let xs: Vec<Arc<Vec<f64>>> = handles
        .iter()
        .map(|h| {
            Arc::new(
                (0..h.matrix().ncols())
                    .map(|i| 1.0 + (i % 7) as f64 * 0.5)
                    .collect(),
            )
        })
        .collect();
    let references: Vec<Arc<Vec<f64>>> = handles
        .iter()
        .zip(&xs)
        .map(|(h, x)| Arc::new(h.matrix().spmv_dense(x)))
        .collect();
    // The served state of each matrix. Static by default; under
    // `--mutate-rate` the mutator thread swaps in delta-descendants
    // (handle + matching dense reference) while the clients replay, so
    // every request reads the slot for a consistent (matrix, answer)
    // pair.
    let slots: Vec<std::sync::RwLock<DynamicSlot>> = handles
        .iter()
        .zip(&references)
        .map(|(h, r)| {
            std::sync::RwLock::new(DynamicSlot {
                handle: h.clone(),
                reference: Arc::clone(r),
            })
        })
        .collect();
    let mut algos = vec![AlgoSpec::Original];
    algos.extend(AlgoSpec::study_suite(cfg.gp_parts, cfg.hp_parts));
    let keys: Vec<(usize, AlgoSpec)> = handles
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| algos.iter().map(move |&a| (mi, a)))
        .collect();
    eprintln!(
        "key space: {} matrices x {} algorithms = {} keys ({:.2}s to build corpus)",
        handles.len(),
        algos.len(),
        keys.len(),
        setup.elapsed().as_secs_f64()
    );

    // --- Zipf trace: rank r gets weight 1/r^s; ranks are assigned to
    // keys in shuffled order so popularity is uncorrelated with the
    // corpus enumeration. -------------------------------------------
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut order: Vec<usize> = (0..keys.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut cumulative = Vec::with_capacity(keys.len());
    let mut acc = 0.0;
    for rank in 1..=keys.len() {
        acc += 1.0 / (rank as f64).powf(opts.skew);
        cumulative.push(acc);
    }
    let trace: Vec<usize> = sample_trace(&cumulative, opts.requests, &mut rng)
        .into_iter()
        .map(|rank| order[rank])
        .collect();
    let unique = {
        let mut seen = vec![false; keys.len()];
        trace.iter().for_each(|&k| seen[k] = true);
        seen.iter().filter(|&&s| s).count()
    };
    eprintln!(
        "trace: {} requests over {} unique keys (zipf s = {})",
        trace.len(),
        unique,
        opts.skew
    );

    // --- The tier. ---------------------------------------------------
    // The recorder feeds --trace-dir dumps and the ops server's
    // /traces routes; either consumer brings it up.
    let recorder = (opts.trace_dir.is_some() || opts.listen.is_some())
        .then(|| FlightRecorder::new(TRACE_RING_CAPACITY));
    let tenants: Vec<TenantSpec> = (0..opts.tenants)
        .map(|i| TenantSpec::new(format!("t{i}"), i as u32 + 1))
        .collect();
    let tier = Arc::new(ServeTier::new(TierConfig {
        shards: opts.shards,
        tenants: tenants.clone(),
        queue_capacity: opts.queue_capacity,
        spmv_threads: host_threads().clamp(2, 4),
        engine: EngineConfig {
            reorder_threads: opts.reorder_threads,
            cache_capacity: opts.cache_capacity,
            ..EngineConfig::default()
        },
        recorder: recorder.clone(),
        trace_sample_every: opts.trace_stride(),
        policy: PolicyConfig {
            mode: opts.policy,
            ..PolicyConfig::default()
        },
        // With an ops server attached, /readyz holds traffic until the
        // first answer proves the path end to end.
        min_warm_serves: u64::from(opts.listen.is_some()),
        ..TierConfig::default()
    }));
    // Per-tenant SLOs over the tier's `tier.request{tenant}` and
    // `tier.shed_tenant{tenant}` series, baselined before any traffic:
    // the configured deadline is the latency objective (50 ms when
    // serving without deadlines), 99% required.
    let slo_latency_ms = if opts.deadline_ms > 0 {
        opts.deadline_ms as f64
    } else {
        50.0
    };
    let slo = obsv::SloTracker::new(
        Arc::clone(tier.registry()),
        obsv::SloConfig {
            specs: tenants
                .iter()
                .map(|t| obsv::SloSpec::new(&t.name, slo_latency_ms, 0.99))
                .collect(),
            ..obsv::SloConfig::default()
        },
    );
    // --- The ops plane (--listen): HTTP server + SLO ticker. ---------
    let _slo_ticker = opts
        .listen
        .as_ref()
        .map(|_| slo.start(Duration::from_millis(200)));
    let _obsv_server = opts.listen.as_ref().map(|addr| {
        let mut config = obsv::ObsvConfig::new(addr.clone(), Arc::clone(tier.registry()));
        config.source = Some(Arc::clone(&tier) as Arc<dyn obsv::OpsSource>);
        config.slo = Some(Arc::clone(&slo));
        let server =
            obsv::ObsvServer::start(config).unwrap_or_else(|e| panic!("--listen {addr}: {e}"));
        eprintln!("ops server: http://{}/", server.local_addr());
        server
    });
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).expect("creating --trace-dir");
        eprintln!(
            "tracing: every {} request(s), dumping up to {} to {}",
            opts.trace_stride().max(1),
            TRACE_DUMP_CAP,
            dir.display()
        );
    }
    eprintln!(
        "tier: {} shard(s), {} tenant(s), queue capacity {}, policy {}, {}",
        opts.shards,
        opts.tenants,
        opts.queue_capacity,
        opts.policy.as_str(),
        if opts.offered_load > 0.0 {
            format!("open-loop at {:.0} req/s", opts.offered_load)
        } else {
            "closed-loop".to_string()
        }
    );

    // --- Replay through the tier. ------------------------------------
    let deadline = (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms));
    let dump_slots = AtomicUsize::new(0);
    let traced_requests = AtomicUsize::new(0);
    let stop_mutator = std::sync::atomic::AtomicBool::new(false);
    let mutations = AtomicUsize::new(0);
    // Which matrices the mutator cycles over: the first few square ones
    // (structural deltas need row and column spaces to coincide).
    let mutable: Vec<usize> = (0..handles.len())
        .filter(|&i| {
            let m = handles[i].matrix();
            m.nrows() == m.ncols() && m.nrows() > 1
        })
        .take(MUTATE_POOL)
        .collect();
    if opts.mutate_rate > 0.0 {
        eprintln!(
            "mutating: {:.1} deltas/s of {} edge(s) over {} matrix(es)",
            opts.mutate_rate,
            opts.mutate_edges,
            mutable.len()
        );
    }
    let replay = Instant::now();
    let mut tally = ClientTally::default();
    std::thread::scope(|scope| {
        if opts.mutate_rate > 0.0 && !mutable.is_empty() {
            let tier = Arc::clone(&tier);
            let slots = &slots;
            let xs = &xs;
            let stop = &stop_mutator;
            let mutations = &mutations;
            let mutable = &mutable;
            let kernel = opts.kernel;
            let edges = opts.mutate_edges;
            let seed = opts.seed;
            let tenant = tenants[0].name.clone();
            let interval = Duration::from_secs_f64(1.0 / opts.mutate_rate);
            let staleness = tier.registry().histogram("serve.mutate.staleness");
            let trace_dir = opts.trace_dir.clone();
            let mut probe_dumps = 0usize;
            scope.spawn(move || {
                let start = Instant::now();
                let mut step: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    let target =
                        start + Duration::from_secs_f64(step as f64 * interval.as_secs_f64());
                    // Sleep in short slices so shutdown is prompt.
                    while let Some(wait) = target.checked_duration_since(Instant::now()) {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(wait.min(Duration::from_millis(25)));
                    }
                    let mi = mutable[step as usize % mutable.len()];
                    step += 1;
                    let t0 = Instant::now();
                    let parent = slots[mi].read().expect("slot lock").handle.clone();
                    let batch = corpus::mutation_trace(
                        parent.matrix(),
                        1,
                        edges,
                        seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    )
                    .pop()
                    .unwrap_or_default();
                    if batch.is_empty() {
                        continue;
                    }
                    let mut mutated = (**parent.matrix()).clone();
                    mutated
                        .apply_delta(&batch)
                        .expect("mutation batch applies to its own parent");
                    let child = MatrixHandle::from_matrix(mutated);
                    let reference = Arc::new(child.matrix().spmv_dense(&xs[mi]));
                    {
                        let mut slot = slots[mi].write().expect("slot lock");
                        slot.handle = child.clone();
                        slot.reference = Arc::clone(&reference);
                    }
                    // Freshness probe: how long from the delta landing
                    // until the tier serves an answer for the *new*
                    // structure. Lineage routing sends it to the
                    // parent's shard, where the engine can splice the
                    // cached per-component ordering.
                    let probe = SpmvRequest {
                        tenant: tenant.clone(),
                        matrix: child,
                        algo: AlgoSpec::Rcm,
                        kernel,
                        x: Arc::clone(&xs[mi]),
                        priority: 0,
                        deadline: None,
                    };
                    let ticket = tier.submit(probe);
                    let request_id = ticket.request_id();
                    let sampled = ticket.trace_ctx().is_recording();
                    match ticket.wait() {
                        Ok(response) => {
                            verify_answer(&response.y, &reference, mi);
                            staleness.record_duration(t0.elapsed());
                            mutations.fetch_add(1, Ordering::Relaxed);
                            // Dump a few probe traces: they are where
                            // the `reorder.splice` stage shows up.
                            if sampled && probe_dumps < TRACE_DUMP_CAP {
                                if let Some(dir) = &trace_dir {
                                    dump_trace(&tier, request_id, dir);
                                    probe_dumps += 1;
                                }
                            }
                        }
                        // Overloaded: the delta still landed, only the
                        // probe was shed.
                        Err(TierError::Shed(_)) => {
                            mutations.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("freshness probe for matrix {mi} failed: {other}"),
                    }
                }
            });
        }
        let chunk = trace.len().div_ceil(opts.clients);
        let mut clients = Vec::new();
        for (ci, slice) in trace.chunks(chunk.max(1)).enumerate() {
            let tier = Arc::clone(&tier);
            let slots = &slots;
            let xs = &xs;
            let keys = &keys;
            let tenants = &tenants;
            let trace_dir = opts.trace_dir.as_deref();
            let kernel = opts.kernel;
            let offered_load = opts.offered_load;
            let clients_n = opts.clients;
            let dump_slots = &dump_slots;
            let traced_requests = &traced_requests;
            clients.push(scope.spawn(move || {
                let mut tally = ClientTally::default();
                // Open-loop pacing: this client's share of the offered
                // rate, submissions scheduled on a fixed grid.
                let interval = (offered_load > 0.0)
                    .then(|| Duration::from_secs_f64(clients_n as f64 / offered_load));
                let start = Instant::now();
                let mut pending: Vec<(servetier::TierTicket, usize, Arc<Vec<f64>>)> = Vec::new();
                let resolve = |result: Result<servetier::SpmvResponse, TierError>,
                               key: usize,
                               reference: &[f64],
                               tally: &mut ClientTally| {
                    match result {
                        Ok(response) => {
                            tally.served += 1;
                            if tally.verified < VERIFY_PER_CLIENT {
                                verify_answer(&response.y, reference, key);
                                tally.verified += 1;
                            }
                        }
                        Err(TierError::Shed(ShedReason::QueueFull)) => tally.shed_queue_full += 1,
                        Err(TierError::Shed(ShedReason::Expired)) => tally.shed_expired += 1,
                        Err(other) => panic!("request for key {key} failed: {other}"),
                    }
                };
                for (j, &k) in slice.iter().enumerate() {
                    if let Some(iv) = interval {
                        let target = start + iv * j as u32;
                        if let Some(wait) = target.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                    }
                    let (mi, algo) = keys[k];
                    // One consistent (matrix, reference) pair — the
                    // mutator may swap the slot right after this read,
                    // but the answer is checked against the structure
                    // that was actually submitted.
                    let (handle, reference) = {
                        let slot = slots[mi].read().expect("slot lock");
                        (slot.handle.clone(), Arc::clone(&slot.reference))
                    };
                    let request = SpmvRequest {
                        tenant: tenants[(ci + j) % tenants.len()].name.clone(),
                        matrix: handle,
                        algo,
                        kernel,
                        x: Arc::clone(&xs[mi]),
                        priority: 0,
                        deadline: deadline.map(|d| Instant::now() + d),
                    };
                    let ticket = tier.submit(request);
                    let request_id = ticket.request_id();
                    let sampled = ticket.trace_ctx().is_recording();
                    if sampled {
                        traced_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    if interval.is_some() {
                        // Open loop: stash the ticket, keep submitting.
                        pending.push((ticket, k, reference));
                        continue;
                    }
                    // Closed loop: wait inline, dump sampled requests.
                    let result = ticket.wait();
                    let ok = result.is_ok();
                    resolve(result, k, &reference, &mut tally);
                    if sampled && ok {
                        if let Some(dir) = trace_dir {
                            if dump_slots.fetch_add(1, Ordering::Relaxed) < TRACE_DUMP_CAP {
                                dump_trace(&tier, request_id, dir);
                            }
                        }
                    }
                }
                for (ticket, k, reference) in pending {
                    resolve(ticket.wait(), k, &reference, &mut tally);
                }
                tally
            }));
        }
        for client in clients {
            let t = client.join().expect("client thread");
            tally.served += t.served;
            tally.shed_queue_full += t.shed_queue_full;
            tally.shed_expired += t.shed_expired;
            tally.verified += t.verified;
        }
        stop_mutator.store(true, Ordering::Relaxed);
    });
    let wall = replay.elapsed().as_secs_f64();
    if opts.trace_dir.is_some() {
        eprintln!(
            "tracing: {} request(s) recorded, {} dumped",
            traced_requests.load(Ordering::Relaxed),
            dump_slots.load(Ordering::Relaxed).min(TRACE_DUMP_CAP)
        );
    }

    // --- Report, from the tier and the registry. ---------------------
    let stats = tier.stats();
    let snap = tier.registry().snapshot();
    // A request that finds its prepared entry never reaches the engine
    // and is as amortised as one can be; the rest are engine
    // submissions, amortised when the ordering cache answered.
    let prepared_hits: u64 = stats.shards.iter().map(|s| s.prepared_hits).sum();
    let submitted: u64 = stats.shards.iter().map(|s| s.engine.submitted).sum();
    let amortised: u64 = stats.shards.iter().map(|s| s.engine.cache.hits).sum();
    let hit_rate = (prepared_hits + amortised) as f64 / (prepared_hits + submitted).max(1) as f64;
    println!(
        "served {} of {} requests in {:.3}s with {} clients over {} shard(s)",
        tally.served,
        trace.len(),
        wall,
        opts.clients,
        opts.shards
    );
    println!(
        "  throughput: {:.0} answers/s (offered {})",
        tally.served as f64 / wall,
        if opts.offered_load > 0.0 {
            format!("{:.0} req/s", opts.offered_load)
        } else {
            "closed-loop".to_string()
        }
    );
    println!(
        "  shed:       {} queue-full + {} expired of {} requests ({} answers verified)",
        tally.shed_queue_full,
        tally.shed_expired,
        trace.len(),
        tally.verified
    );
    println!(
        "  hit rate:   {:.1}% ({} prepared hits + {} amortised of {} engine submissions)",
        100.0 * hit_rate,
        prepared_hits,
        amortised,
        submitted
    );
    for (i, shard) in stats.shards.iter().enumerate() {
        println!(
            "  shard {i}:    {} admitted | {} served | {} shed-full | {} shed-expired | depth {} | engine: {}",
            shard.admitted,
            shard.served,
            shard.shed_queue_full,
            shard.shed_expired,
            shard.queue_depth,
            shard.engine
        );
    }
    if opts.mutate_rate > 0.0 {
        let delta_hits: u64 = stats.shards.iter().map(|s| s.engine.delta_hits).sum();
        let delta_splices: u64 = stats.shards.iter().map(|s| s.engine.delta_splices).sum();
        let (p50, p99, probes) = snap
            .histogram("serve.mutate.staleness")
            .map_or((0, 0, 0), |h| (h.p50 / 1_000, h.p99 / 1_000, h.count));
        println!(
            "  mutate:     {} deltas | {} lineage hits -> {} splices | freshness p50 {} us p99 {} us ({} probes)",
            mutations.load(Ordering::Relaxed),
            delta_hits,
            delta_splices,
            p50,
            p99,
            probes
        );
    }
    println!(
        "  policy:     {} ({} reorder / {} identity decisions, {} probes, net saved {:.1} ms)",
        opts.policy.as_str(),
        snap.counter_labeled("policy.decisions", &[("choice", "reorder")])
            .unwrap_or(0),
        snap.counter_labeled("policy.decisions", &[("choice", "identity")])
            .unwrap_or(0),
        snap.counter("policy.probes").unwrap_or(0),
        tier.policy().net_saved_seconds() * 1e3
    );
    for tenant in &tenants {
        if let Some(h) = snap.histogram_labeled("tier.request", &[("tenant", &tenant.name)]) {
            println!(
                "  tenant {} (w{}): p50 {} us | p99 {} us | max {} us ({} answers)",
                tenant.name,
                tenant.weight,
                h.p50 / 1_000,
                h.p99 / 1_000,
                h.max / 1_000,
                h.count
            );
        }
    }

    // --- Export the registry: JSON + Prometheus. ---------------------
    match &opts.export_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("creating --export-dir");
            std::fs::write(dir.join("serve.json"), snap.to_json()).expect("writing serve.json");
            std::fs::write(dir.join("serve.prom"), snap.to_prometheus())
                .expect("writing serve.prom");
            eprintln!("wrote {}/serve.{{json,prom}}", dir.display());
        }
        None => {
            println!("--- telemetry snapshot (json) ---");
            println!("{}", snap.to_json());
            println!("--- telemetry snapshot (prometheus) ---");
            print!("{}", snap.to_prometheus());
        }
    }

    // Keep the ops server scrapeable after the replay finishes —
    // smoke tests curl the endpoints without racing the run.
    if opts.listen.is_some() && opts.listen_linger_ms > 0 {
        eprintln!("ops server: lingering {} ms", opts.listen_linger_ms);
        std::thread::sleep(Duration::from_millis(opts.listen_linger_ms));
    }

    if hit_rate < 0.5 {
        eprintln!(
            "warning: hit rate below 50% — trace too short or cache too small \
             for this key space"
        );
        std::process::exit(1);
    }
}
