//! `serve_hot`, `serve_cold`, `serve_churn`: the tier under a
//! closed-loop client that works in rounds.
//!
//! One client thread submits a batch of [`BATCH`] requests, then waits
//! for all of it, newest first: the dispatcher wakes once, serves the
//! batch in one go and parks once, so a round is the same work in
//! every slice and shares none of it with the next round — which is
//! what lets throughput be estimated round by round (`harness`). An
//! unbatched `serve()` round trip measures futex wake-ups (whole runs
//! come out at 21 µs or 67 µs per request); an open loop measures its
//! own generator; and a client that keeps a second batch in flight
//! while it waits for the first leaves no boundary at which the
//! dispatcher's progress is known. Per-request time is the tier's own
//! `SpmvResponse::service` (dequeue → answer), not a client stopwatch.
//!
//! Common configuration: one shard, one dispatcher, one engine worker,
//! `spmv_threads = 1`, `PolicyMode::Always`, default cache capacities,
//! a private registry per tier, tracing off, no deadlines, one tenant;
//! all of it on the bench's CPU (`affinity`).

use crate::harness::{self, Check, SliceResult, Workload};
use crate::inputs::{self, Rng, ScheduleHash};
use engine::{AlgoSpec, EngineConfig, MatrixHandle};
use servetier::{ServeTier, SpmvRequest, TierConfig, TierTicket};
use sparsemat::{CsrMatrix, EdgeOp};
use spmv::KernelKind;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{FlightRecorder, Registry};

/// Requests per client round, all outstanding at once.
pub const BATCH: usize = 32;
pub const TENANT: &str = "default";
pub const KERNEL: KernelKind = KernelKind::OneD;
/// `TierConfig::default().prepared_capacity`, which the churn
/// schedule is tuned against.
pub const PREPARED_CAPACITY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    Hot,
    Cold,
    Churn,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One SpMV request for a (matrix, algorithm) key.
    Read { key: usize },
    /// `apply_delta` of the matrix's next mutation batch; later reads
    /// use the descendant.
    Write { matrix: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub matrix: usize,
    pub algo: AlgoSpec,
}

/// One state of a matrix: what its content hash must be and what the
/// oracle says `A·x` is.
struct Version {
    hash: u128,
    y: Vec<f64>,
}

pub struct TierInputs {
    pub kind: TierKind,
    /// Every matrix in its initial state, hashed once here.
    pub roots: Vec<MatrixHandle>,
    pub xs: Vec<Arc<Vec<f64>>>,
    versions: Vec<Vec<Version>>,
    /// `deltas[m][v]` takes matrix `m` from version `v` to `v + 1`.
    pub deltas: Vec<Vec<Vec<EdgeOp>>>,
    pub keys: Vec<Key>,
    pub schedule: Vec<Op>,
    /// Keys the reset requests, in order, before the first slice op.
    pub warm: Vec<usize>,
    /// Cost class of every schedule op, as an index into `classes`.
    pub op_class: Vec<u8>,
    /// Class names in ascending order of measured cost (README).
    pub classes: Vec<&'static str>,
    hash: u64,
    pub build_s: f64,
}

/// The 1024-row, 5k-nnz matrix of the tier workloads and the probes.
pub fn small_mesh(seed: u64) -> CsrMatrix {
    corpus::scramble(&corpus::mesh2d(32, 32), seed)
}

/// The ~50k-nnz families of `serve_cold`.
fn big_matrix(family: usize, seed: u64) -> CsrMatrix {
    match family % 4 {
        0 => corpus::scramble(&corpus::mesh2d(100, 100), seed),
        1 => corpus::rmat(13, 6, seed),
        2 => corpus::scramble(&corpus::road(112, 112, seed), seed ^ 1),
        _ => corpus::scramble(&corpus::banded(7_000, 3), seed),
    }
}

/// `serve_cold`'s pool: (class, algorithm, ~50k nnz?, requests per
/// slice), in ascending order of measured cold-request cost. The
/// counts put the p50 rank inside `rcm_5k` and the p90 rank inside
/// `hp_5k`, each ≥ 5 % of M from the class edges (see the README's
/// class table and `tests::quantile_ranks_sit_inside_a_class`).
pub const COLD_POOL: [(&str, AlgoSpec, bool, usize); 9] = [
    ("gray_5k", AlgoSpec::Gray, false, 105),
    ("rcm_5k", AlgoSpec::Rcm, false, 100),
    ("gp_5k", AlgoSpec::Gp { parts: 2 }, false, 44),
    ("amd_5k", AlgoSpec::Amd, false, 22),
    ("hp_5k", AlgoSpec::Hp { parts: 2 }, false, 34),
    ("gray_50k", AlgoSpec::Gray, true, 4),
    ("nd_5k", AlgoSpec::Nd, false, 7),
    ("rcm_50k", AlgoSpec::Rcm, true, 3),
    ("amd_50k", AlgoSpec::Amd, true, 1),
];

/// Sizes that differ between a measured run and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct TierScale {
    /// Operations per slice of `serve_hot` and `serve_churn`.
    pub ops: usize,
    /// Divisor of `serve_cold`'s pool counts.
    pub cold_divisor: usize,
}

impl TierScale {
    pub const FULL: TierScale = TierScale {
        ops: 4000,
        cold_divisor: 1,
    };
    pub const SMOKE: TierScale = TierScale {
        ops: 240,
        cold_divisor: 8,
    };
}

impl TierInputs {
    pub fn build(kind: TierKind, scale: TierScale, seed: u64) -> TierInputs {
        let t0 = Instant::now();
        let mut b = Builder::new(kind, seed);
        match kind {
            TierKind::Hot => b.hot(scale),
            TierKind::Cold => b.cold(scale),
            TierKind::Churn => b.churn(scale),
        }
        b.finish(t0)
    }

    /// What the oracle says about matrix `m` after `version` writes:
    /// its content hash and `A·x`.
    pub fn expected(&self, m: usize, version: usize) -> (u128, &[f64]) {
        let state = &self.versions[m][version];
        (state.hash, &state.y)
    }

    /// Whether `y` is the answer to operation `op`, a read of matrix
    /// `m` after `version` writes.
    pub fn answer_ok(&self, m: usize, version: usize, op: usize, y: &[f64], check: Check) -> bool {
        let (_, want) = self.expected(m, version);
        match check {
            Check::Full => inputs::answer_matches(y, want),
            Check::Sampled => {
                let i = op.wrapping_mul(2_654_435_761) % want.len();
                y.len() == want.len() && inputs::close(y[i], want[i])
            }
        }
    }

    /// Floating-point operations and computed bytes (archsim's
    /// `BYTES_PER_NNZ` / `BYTES_PER_ROW`) of the SpMVs one replay of
    /// the schedule performs.
    pub fn spmv_work(&self) -> (f64, f64) {
        let (mut flops, mut bytes) = (0.0, 0.0);
        for op in &self.schedule {
            if let Op::Read { key } = *op {
                let a = self.roots[self.keys[key].matrix].matrix();
                flops += 2.0 * a.nnz() as f64;
                bytes += a.nnz() as f64 * archsim::BYTES_PER_NNZ
                    + a.nrows() as f64 * archsim::BYTES_PER_ROW;
            }
        }
        (flops, bytes)
    }
}

struct Builder {
    kind: TierKind,
    seed: u64,
    /// Draws content (`--seed`).
    rng: Rng,
    /// Draws the schedule's shape (`inputs::SHAPE_SEED`).
    shape: Rng,
    matrices: Vec<CsrMatrix>,
    keys: Vec<Key>,
    schedule: Vec<Op>,
    warm: Vec<usize>,
    op_class: Vec<u8>,
    classes: Vec<&'static str>,
}

impl Builder {
    fn new(kind: TierKind, seed: u64) -> Builder {
        Builder {
            kind,
            seed,
            rng: Rng::fork(seed, 0x7469_6572 + kind as u64),
            shape: Rng::fork(inputs::SHAPE_SEED, 0x7368_6170 + kind as u64),
            matrices: Vec::new(),
            keys: Vec::new(),
            schedule: Vec::new(),
            warm: Vec::new(),
            op_class: Vec::new(),
            classes: Vec::new(),
        }
    }

    fn matrix_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
    }

    /// 8 small meshes × {RCM, Gray}: one cost class, Zipf(1.1), every
    /// cache warm (three requests per key) before the slice starts.
    fn hot(&mut self, scale: TierScale) {
        for i in 0..8 {
            self.matrices.push(small_mesh(self.matrix_seed(i)));
            for algo in [AlgoSpec::Rcm, AlgoSpec::Gray] {
                self.keys.push(Key { matrix: i, algo });
            }
        }
        // Rank r is (matrix r / 2, algorithm r % 2) for every seed: the
        // matrices are exchangeable, the algorithms are not.
        let reads = inputs::zipf_sequence(self.keys.len(), 1.1, scale.ops, &mut self.shape);
        self.schedule = reads.into_iter().map(|key| Op::Read { key }).collect();
        self.warm = (0..self.keys.len()).flat_map(|k| [k; 3]).collect();
        self.classes = vec!["hit"];
        self.op_class = vec![0; self.schedule.len()];
    }

    /// Every request a first touch: each (matrix, algorithm) of the
    /// pool once, on a tier that was not warmed.
    fn cold(&mut self, scale: TierScale) {
        let mut family = 0;
        for (class, &(name, algo, big, count)) in COLD_POOL.iter().enumerate() {
            self.classes.push(name);
            for _ in 0..count.div_ceil(scale.cold_divisor) {
                let i = self.matrices.len();
                let a = if big {
                    family += 1;
                    big_matrix(family, self.matrix_seed(i))
                } else {
                    small_mesh(self.matrix_seed(i))
                };
                self.matrices.push(a);
                self.keys.push(Key { matrix: i, algo });
                self.schedule.push(Op::Read { key: i });
                self.op_class.push(class as u8);
            }
        }
        // Shuffle ops and their classes together.
        let mut order: Vec<usize> = (0..self.schedule.len()).collect();
        self.shape.shuffle(&mut order);
        self.schedule = order.iter().map(|&i| self.schedule[i]).collect();
        self.op_class = order.iter().map(|&i| self.op_class[i]).collect();
    }

    /// Reads beside writes at default cache capacities: Zipf reads
    /// over more keys than the prepared cache holds, and every
    /// [`CHURN_WRITE_EVERY`]-th op a write to one of four
    /// multi-component matrices.
    fn churn(&mut self, scale: TierScale) {
        for i in 0..CHURN_STATIC {
            self.matrices.push(small_mesh(self.matrix_seed(i)));
        }
        for i in CHURN_STATIC..CHURN_STATIC + CHURN_MUTABLE {
            self.matrices
                .push(corpus::disjoint_meshes(16, 8, 8, self.matrix_seed(i)));
        }
        let key_of = |matrix: usize, a: usize| Key {
            matrix,
            algo: [AlgoSpec::Rcm, AlgoSpec::Gray][a],
        };
        // Popularity order, the same for every seed (the matrices are
        // exchangeable, the algorithms are not): static keys in index
        // order, with the mutable matrices' keys at popular ranks so
        // that a written matrix is re-read soon.
        let mut ranked: Vec<Key> = (0..CHURN_STATIC)
            .flat_map(|m| [key_of(m, 0), key_of(m, 1)])
            .collect();
        for j in 0..CHURN_MUTABLE {
            for a in 0..2 {
                ranked.insert(3 * (2 * j + a) + 2, key_of(CHURN_STATIC + j, a));
            }
        }
        self.keys = ranked;
        let writes = scale.ops / CHURN_WRITE_EVERY;
        let mut reads = inputs::zipf_sequence(
            self.keys.len(),
            CHURN_ZIPF,
            scale.ops - writes,
            &mut self.shape,
        )
        .into_iter();
        for i in 0..scale.ops {
            if i % CHURN_WRITE_EVERY == CHURN_WRITE_EVERY - 1 {
                let matrix = CHURN_STATIC + (i / CHURN_WRITE_EVERY) % CHURN_MUTABLE;
                self.schedule.push(Op::Write { matrix });
            } else {
                let key = reads.next().expect("one read per non-write op");
                self.schedule.push(Op::Read { key });
            }
        }
        // Least popular first, so the popular keys are the resident
        // ones when the slice starts.
        self.warm = (0..self.keys.len()).rev().collect();
        self.classes = vec!["prepared_hit", "rebuild", "first_touch_or_write"];
        self.op_class = churn_classes(&self.keys, &self.schedule, &self.warm);
    }

    fn finish(mut self, t0: Instant) -> TierInputs {
        // Writes per matrix decide how many versions it has.
        let mut writes = vec![0usize; self.matrices.len()];
        for op in &self.schedule {
            if let Op::Write { matrix } = *op {
                writes[matrix] += 1;
            }
        }
        let mut hash = ScheduleHash::new();
        let mut roots = Vec::new();
        let mut xs = Vec::new();
        let mut versions = Vec::new();
        let mut deltas = Vec::new();
        for (m, a) in self.matrices.drain(..).enumerate() {
            let x = self.rng.vector(a.ncols());
            hash.vector(&x);
            let trace = if writes[m] == 0 {
                Vec::new()
            } else {
                corpus::mutation_trace(&a, writes[m], 4, self.seed ^ m as u64)
            };
            let mut states = Vec::with_capacity(trace.len() + 1);
            let mut cur = a.clone();
            for batch in &trace {
                states.push(Version {
                    hash: cur.content_hash(),
                    y: inputs::naive_spmv(&cur, &x),
                });
                cur.apply_delta(batch).expect("trace fits its matrix");
            }
            states.push(Version {
                hash: cur.content_hash(),
                y: inputs::naive_spmv(&cur, &x),
            });
            hash.word(states[0].hash as u64);
            roots.push(MatrixHandle::from_matrix(a));
            xs.push(Arc::new(x));
            versions.push(states);
            deltas.push(trace);
        }
        for op in &self.schedule {
            match *op {
                Op::Read { key } => hash.word(key as u64),
                Op::Write { matrix } => hash.word(u64::MAX - matrix as u64),
            }
        }
        for key in &self.keys {
            hash.word(key.matrix as u64);
        }
        TierInputs {
            kind: self.kind,
            roots,
            xs,
            versions,
            deltas,
            keys: self.keys,
            schedule: self.schedule,
            warm: self.warm,
            op_class: self.op_class,
            classes: self.classes,
            hash: hash.finish(),
            build_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Static small meshes of `serve_churn` (two keys each).
const CHURN_STATIC: usize = 56;
/// Multi-component matrices that receive the writes.
const CHURN_MUTABLE: usize = 4;
const CHURN_ZIPF: f64 = 0.8;
const CHURN_WRITE_EVERY: usize = 80;

/// The cost class of every `serve_churn` op, from a bench-side model
/// of the tier's prepared cache (LRU of [`PREPARED_CAPACITY`] keyed by
/// matrix state and algorithm; one dispatcher serves in submission
/// order, so the model is exact). 0 = prepared hit, 1 = prepared miss
/// whose ordering is cached (re-permute, re-plan), 2 = first touch of
/// a new matrix state (ordering miss) or a write.
fn churn_classes(keys: &[Key], schedule: &[Op], warm: &[usize]) -> Vec<u8> {
    let matrices = keys.iter().map(|k| k.matrix).max().map_or(0, |m| m + 1);
    let mut version = vec![0usize; matrices];
    // (key, version) → last-use tick; entries beyond capacity evicted
    // oldest-first.
    let mut resident: HashMap<(usize, usize), u64> = HashMap::new();
    let mut seen: HashMap<(usize, usize), ()> = HashMap::new();
    let mut tick = 0u64;
    let mut touch = |id: (usize, usize), resident: &mut HashMap<(usize, usize), u64>| {
        tick += 1;
        let hit = resident.insert(id, tick).is_some();
        if resident.len() > PREPARED_CAPACITY {
            let oldest = *resident
                .iter()
                .min_by_key(|(_, &t)| t)
                .map(|(id, _)| id)
                .expect("non-empty");
            resident.remove(&oldest);
        }
        hit
    };
    for &key in warm {
        touch((key, 0), &mut resident);
        seen.insert((key, 0), ());
    }
    schedule
        .iter()
        .map(|op| match *op {
            Op::Write { matrix } => {
                version[matrix] += 1;
                2
            }
            Op::Read { key } => {
                let id = (key, version[keys[key].matrix]);
                let hit = touch(id, &mut resident);
                let known = seen.insert(id, ()).is_some();
                match (hit, known) {
                    (true, _) => 0,
                    (false, true) => 1,
                    (false, false) => 2,
                }
            }
        })
        .collect()
}

/// Tier and engine counters over one slice (after-reset baseline
/// subtracted), read at the slice boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierCounts {
    pub served: u64,
    pub shed: u64,
    pub prepared_hits: u64,
    pub prepared_misses: u64,
    pub ordering_hits: u64,
    pub ordering_misses: u64,
    pub delta_hits: u64,
    pub delta_splices: u64,
    /// Requests queued right now (not a difference).
    pub queued: i64,
}

impl TierCounts {
    fn read(tier: &ServeTier) -> TierCounts {
        let stats = tier.stats();
        let shard = &stats.shards[0];
        TierCounts {
            served: stats.served(),
            shed: stats.shed(),
            prepared_hits: shard.prepared_hits,
            prepared_misses: shard.prepared_misses,
            ordering_hits: shard.engine.cache.hits,
            ordering_misses: shard.engine.cache.misses,
            delta_hits: shard.engine.delta_hits,
            delta_splices: shard.engine.delta_splices,
            queued: stats.shards.iter().map(|s| s.queue_depth).sum(),
        }
    }

    fn since(self, base: TierCounts) -> TierCounts {
        TierCounts {
            served: self.served - base.served,
            shed: self.shed - base.shed,
            prepared_hits: self.prepared_hits - base.prepared_hits,
            prepared_misses: self.prepared_misses - base.prepared_misses,
            ordering_hits: self.ordering_hits - base.ordering_hits,
            ordering_misses: self.ordering_misses - base.ordering_misses,
            delta_hits: self.delta_hits - base.delta_hits,
            delta_splices: self.delta_splices - base.delta_splices,
            queued: self.queued,
        }
    }
}

/// The common tier configuration (module docs).
pub fn tier_config(recorder: Option<Arc<FlightRecorder>>) -> TierConfig {
    TierConfig {
        shards: 1,
        dispatchers_per_shard: 1,
        spmv_threads: 1,
        registry: Some(Registry::new_arc()),
        trace_sample_every: u64::from(recorder.is_some()),
        recorder,
        engine: EngineConfig {
            workers: 1,
            reorder_threads: 1,
            ..EngineConfig::default()
        },
        ..TierConfig::default()
    }
}

pub fn request(handle: &MatrixHandle, algo: AlgoSpec, x: &Arc<Vec<f64>>) -> SpmvRequest {
    SpmvRequest {
        tenant: TENANT.to_string(),
        matrix: handle.clone(),
        algo,
        kernel: KERNEL,
        x: Arc::clone(x),
        priority: 0,
        deadline: None,
    }
}

/// The handle reads of each matrix use now, and how many writes it has
/// seen: the part of a replay's state that the schedule changes.
pub struct Handles {
    current: Vec<MatrixHandle>,
    version: Vec<usize>,
}

impl Handles {
    /// Every matrix in its initial state.
    pub fn new(inputs: &TierInputs) -> Handles {
        Handles {
            current: inputs.roots.clone(),
            version: vec![0; inputs.roots.len()],
        }
    }

    pub fn of(&self, m: usize) -> &MatrixHandle {
        &self.current[m]
    }

    pub fn version(&self, m: usize) -> usize {
        self.version[m]
    }

    /// Matrix `m` has been written: `next` is its new state. `false`
    /// if that is not the state the oracle expects.
    pub fn advance(&mut self, inputs: &TierInputs, m: usize, next: MatrixHandle) -> bool {
        self.version[m] += 1;
        let (expected, _) = inputs.expected(m, self.version[m]);
        let ok = next.content_hash() == expected;
        self.current[m] = next;
        ok
    }
}

/// A submitted read waiting for its answer.
struct Pending {
    ticket: TierTicket,
    op: usize,
    matrix: usize,
    version: usize,
}

pub struct TierWorkload {
    pub inputs: TierInputs,
    tier: Option<ServeTier>,
    handles: Handles,
    /// Build tiers with a `FlightRecorder` sampling every request.
    pub trace_on: bool,
    recorder: Option<Arc<FlightRecorder>>,
    base: TierCounts,
    /// Counters of the most recent slice.
    pub last_counts: TierCounts,
    /// Service time of every op of the most recent slice (NaN: failed).
    pub last_op_us: Vec<f64>,
    clean: bool,
}

impl TierWorkload {
    pub fn new(inputs: TierInputs) -> TierWorkload {
        TierWorkload {
            handles: Handles::new(&inputs),
            inputs,
            tier: None,
            trace_on: false,
            recorder: None,
            base: TierCounts::default(),
            last_counts: TierCounts::default(),
            last_op_us: Vec::new(),
            clean: true,
        }
    }

    /// Apply the next mutation batch of `matrix`; microseconds, or
    /// `None` if the descendant is not the one the oracle expects.
    fn write(&mut self, matrix: usize) -> Option<f64> {
        let batch = &self.inputs.deltas[matrix][self.handles.version(matrix)];
        let t0 = Instant::now();
        let mut next = CsrMatrix::clone(self.handles.of(matrix).matrix());
        let applied = next.apply_delta(batch);
        let handle = MatrixHandle::from_matrix(next);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let expected = self.handles.advance(&self.inputs, matrix, handle);
        (applied.is_ok() && expected).then_some(us)
    }

    /// Wait for one answer and check it; `(service, queue wait)` in
    /// microseconds, or `None` for an error, a shed or a wrong answer.
    fn resolve(&self, pending: Pending, check: Check) -> Option<(f64, f64)> {
        let response = pending.ticket.wait().ok()?;
        let ok = self.inputs.answer_ok(
            pending.matrix,
            pending.version,
            pending.op,
            &response.y,
            check,
        );
        ok.then_some((
            response.service.as_secs_f64() * 1e6,
            response.queue_wait.as_secs_f64() * 1e6,
        ))
    }
}

impl TierWorkload {
    /// Share and median service time of every cost class in the last
    /// slice, and where the quantile ranks sit: the measured side of
    /// the README's tables.
    pub fn class_table(&self) -> Vec<String> {
        let inputs = &self.inputs;
        let total = inputs.op_class.len() as f64;
        let mut lines = Vec::new();
        for (class, name) in inputs.classes.iter().enumerate() {
            let times: Vec<f64> = self
                .last_op_us
                .iter()
                .zip(&inputs.op_class)
                .filter(|(us, &c)| c as usize == class && !us.is_nan())
                .map(|(&us, _)| us)
                .collect();
            if !times.is_empty() {
                lines.push(format!(
                    "class {name:<22} share {:>5.1}%  median {:>10.2} us  (last slice)",
                    100.0 * times.len() as f64 / total,
                    crate::stats::median(&times)
                ));
            }
        }
        let margins = rank_margins(&inputs.op_class, inputs.classes.len());
        for (q, (class, margin)) in ["p50", "p90"].iter().zip(margins) {
            if margin.is_finite() {
                lines.push(format!(
                    "{q} rank sits in class {}, {:.1}% of M from the nearest class edge",
                    inputs.classes[class],
                    100.0 * margin
                ));
            }
        }
        lines
    }
}

impl Workload for TierWorkload {
    fn ops(&self) -> usize {
        self.inputs.schedule.len()
    }

    /// Tear the old tier down (so its threads never overlap the new
    /// one's), build a fresh one, then one step per request of the
    /// workload's warm pass.
    fn reset(&mut self) -> Vec<f64> {
        let mut steps = Vec::with_capacity(2 + self.inputs.warm.len());
        harness::step(&mut steps, || self.tier = None);
        let tier = harness::step(&mut steps, || {
            self.recorder = self.trace_on.then(|| FlightRecorder::new(1 << 14));
            ServeTier::new(tier_config(self.recorder.clone()))
        });
        self.handles = Handles::new(&self.inputs);
        for &key in &self.inputs.warm {
            let Key { matrix, algo } = self.inputs.keys[key];
            let warm = request(self.handles.of(matrix), algo, &self.inputs.xs[matrix]);
            self.clean &= harness::step(&mut steps, || tier.serve(warm)).is_ok();
        }
        self.base = TierCounts::read(&tier);
        self.tier = Some(tier);
        steps
    }

    fn slice(&mut self, check: Check) -> SliceResult {
        let ops = self.ops();
        let mut op_us = vec![f64::NAN; ops];
        let mut queue_wait_us = Vec::with_capacity(ops);
        let mut segment_us = Vec::with_capacity(ops / BATCH + 2);
        let mut batch: Vec<Pending> = Vec::with_capacity(BATCH);
        let t0 = Instant::now();
        let mut segment_start = t0;
        let mut op = 0;
        while op < ops {
            // Submit a batch ...
            for _ in 0..BATCH.min(ops - op) {
                match self.inputs.schedule[op] {
                    Op::Read { key } => {
                        let Key { matrix, algo } = self.inputs.keys[key];
                        let tier = self.tier.as_ref().expect("reset before slice");
                        let ticket = tier.submit(request(
                            self.handles.of(matrix),
                            algo,
                            &self.inputs.xs[matrix],
                        ));
                        batch.push(Pending {
                            ticket,
                            op,
                            matrix,
                            version: self.handles.version(matrix),
                        });
                    }
                    Op::Write { matrix } => {
                        if let Some(us) = self.write(matrix) {
                            op_us[op] = us;
                        }
                    }
                }
                op += 1;
            }
            // ... then wait for it, newest first: when the newest is
            // answered the rest already are, so the client sleeps once
            // per batch and the dispatcher serves the batch in one go.
            for pending in batch.drain(..).rev() {
                let at = pending.op;
                if let Some((service, wait)) = self.resolve(pending, check) {
                    op_us[at] = service;
                    queue_wait_us.push(wait);
                }
            }
            // A segment is one such round: the same operations in
            // every slice, none of them shared with another round.
            let now = Instant::now();
            segment_us.push((now - segment_start).as_secs_f64() * 1e6);
            segment_start = now;
        }
        let wall = t0.elapsed();
        let tier = self.tier.as_ref().expect("reset before slice");
        let counts = TierCounts::read(tier);
        self.last_counts = counts.since(self.base);
        self.base = counts;
        self.last_op_us.clone_from(&op_us);
        // Every answer has been waited for: nothing may still be queued.
        self.clean &= counts.queued == 0;
        SliceResult {
            wall,
            op_us,
            segment_us,
            queue_wait_us,
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.inputs.hash
    }

    fn finish(&mut self) -> bool {
        self.tier = None;
        let underflow = Registry::global().counter("telemetry.underflow").get();
        self.clean && underflow == 0
    }
}

/// Where the p50 and p90 ranks of a schedule sit relative to its cost
/// classes: for each quantile, the class holding the rank and the
/// rank's distance to the nearest *interior* class edge, as a share of
/// the schedule. A quantile on a gap between classes would jump
/// between them from slice to slice.
fn rank_margins(op_class: &[u8], classes: usize) -> [(usize, f64); 2] {
    let total = op_class.len() as f64;
    let mut counts = vec![0usize; classes];
    for &c in op_class {
        counts[c as usize] += 1;
    }
    [0.5, 0.9].map(|q| {
        let mut lo = 0.0;
        for (class, &count) in counts.iter().enumerate() {
            let hi = lo + count as f64 / total;
            if q <= hi || class + 1 == classes {
                let below = if lo == 0.0 { f64::INFINITY } else { q - lo };
                let above = if class + 1 == classes || hi >= 1.0 {
                    f64::INFINITY
                } else {
                    hi - q
                };
                return (class, below.min(above));
            }
            lo = hi;
        }
        unreachable!("quantile beyond the last class")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(kind: TierKind, seed: u64) -> TierInputs {
        TierInputs::build(kind, TierScale::SMOKE, seed)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for kind in [TierKind::Hot, TierKind::Cold, TierKind::Churn] {
            let (a, b, c) = (inputs(kind, 14), inputs(kind, 14), inputs(kind, 15));
            assert_eq!(a.hash, b.hash, "{kind:?}");
            assert_ne!(a.hash, c.hash, "{kind:?}");
            assert_eq!(a.schedule, b.schedule);
        }
    }

    #[test]
    fn quantile_ranks_sit_inside_a_class() {
        for kind in [TierKind::Cold, TierKind::Churn] {
            for seed in [14, 15, 16, 99] {
                let full = TierInputs::build(kind, TierScale::FULL, seed);
                assert!(
                    full.schedule.len() >= 150,
                    "{kind:?}: p90 needs 15 samples beyond it"
                );
                let margins = rank_margins(&full.op_class, full.classes.len());
                for (q, (class, margin)) in [50, 90].iter().zip(margins) {
                    assert!(
                        margin >= 0.05,
                        "{kind:?} seed {seed}: p{q} is {margin:.3} of M from an edge of {}",
                        full.classes[class]
                    );
                }
            }
        }
    }

    #[test]
    fn churn_model_counts_hits_rebuilds_and_first_touches() {
        let keys: Vec<Key> = (0..3)
            .map(|matrix| Key {
                matrix,
                algo: AlgoSpec::Rcm,
            })
            .collect();
        let schedule = [
            Op::Read { key: 0 },
            Op::Write { matrix: 0 },
            Op::Read { key: 0 },
            Op::Read { key: 0 },
            Op::Read { key: 1 },
        ];
        // Only key 0 was warmed: key 1 is a first touch.
        assert_eq!(churn_classes(&keys, &schedule, &[0]), vec![0, 2, 2, 0, 2]);
    }

    #[test]
    fn every_workload_answers_correctly_at_smoke_scale() {
        for kind in [TierKind::Hot, TierKind::Cold, TierKind::Churn] {
            let mut w = TierWorkload::new(inputs(kind, 14));
            w.reset();
            let full = w.slice(Check::Full);
            assert_eq!(full.failed(), 0, "{kind:?}");
            assert_eq!(full.op_us.len(), w.ops(), "{kind:?}");
            assert_eq!(w.reset().len(), 2 + w.inputs.warm.len());
            assert_eq!(w.slice(Check::Sampled).failed(), 0, "{kind:?}");
            assert_eq!(w.last_counts.shed, 0);
            assert!(w.finish(), "{kind:?}");
        }
    }

    #[test]
    fn program_tracing_records_every_request() {
        let mut w = TierWorkload::new(inputs(TierKind::Hot, 14));
        w.trace_on = true;
        w.reset();
        assert_eq!(w.slice(Check::Full).failed(), 0);
        let events = w.recorder.as_ref().unwrap().snapshot().total_events();
        assert!(events >= 5 * w.ops(), "only {events} trace events");
        assert!(w.finish());
    }

    #[test]
    fn a_wrong_answer_is_a_failure() {
        let mut w = TierWorkload::new(inputs(TierKind::Hot, 14));
        for state in &mut w.inputs.versions[0] {
            state.y[0] += 1.0;
        }
        w.reset();
        assert!(w.slice(Check::Full).failed() > 0);
    }
}
