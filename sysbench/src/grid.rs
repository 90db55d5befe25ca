//! `kernel_grid`: matrices × orderings × kernels, called directly.
//!
//! The paper's Fig. 2/3 at host scale: every cell of the grid is one
//! planned kernel on one reordered matrix, and an operation is one
//! `Kernel::execute` on a size-1 `ThreadTeam`. The `spmv` crate does
//! all of the timed work; the serving layers are absent, so a change
//! to a kernel loop shows here at full size and a change to the tier's
//! answer path must show nothing.
//!
//! The gated workload's matrices fit this host's private L2, and every
//! operation is an untimed warming call followed by the timed one: the
//! only memory the timed call touches is the core's own. Anything
//! larger is served by the L3 and the memory the host shares with its
//! neighbours, and follows them, not the code (`README.md`, "Why the
//! grid is cache-resident"). The out-of-L2 grid of the paper is the
//! per-layer probes' ([`GridSize::streaming`]), where nothing is gated.

use crate::harness::{self, Check, SliceResult, Workload};
use crate::inputs::{self, Rng, ScheduleHash};
use engine::AlgoSpec;
use reorder::ReorderResult;
use sparsemat::CsrMatrix;
use spmv::{Kernel, KernelKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use team::ThreadTeam;
use telemetry::FlightRecorder;

/// The grid's orderings; `Original` is the baseline of every speedup.
pub const ORDERINGS: [AlgoSpec; 5] = [
    AlgoSpec::Original,
    AlgoSpec::Rcm,
    AlgoSpec::Gray,
    AlgoSpec::Amd,
    AlgoSpec::Gp { parts: 16 },
];

/// Replays of every cell per slice: 135 cells × 2 = 270 operations,
/// so the p90 has 27 samples beyond it.
const REPS: usize = 2;

/// Which matrices the grid holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSize {
    /// Small matrices of the same families, for `--smoke`.
    pub small: bool,
    /// One matrix far out of L2 instead of the workload's cache-resident
    /// nine: the per-layer probes' grid.
    pub streaming: bool,
}

/// The grid's matrices: three families at three sizes each, so that
/// the cells' service times form a continuum (20-90 µs) without a gap
/// for a quantile to sit on. The largest CSR image with its vectors is
/// 0.7 MiB, a third of this host's 2 MiB L2 per core; `x` is 25-60 KiB
/// against an L1 of 48 KiB. `--seed` draws the scrambles (and the
/// vectors); the road network's structure comes from
/// [`inputs::SHAPE_SEED`], so every seed multiplies the same number of
/// nonzeros.
fn matrices(size: GridSize, seed: u64) -> Vec<(String, CsrMatrix)> {
    if size.streaming {
        // 1.3 M nonzeros, 17 MiB of CSR, 2 MiB of x.
        let n = if size.small { 40 } else { 512 };
        let mesh = corpus::scramble(&corpus::mesh2d(n, n), seed);
        return vec![(format!("mesh2d_scrambled_{n}"), mesh)];
    }
    let (meshes, roads, bands): (&[usize], &[usize], &[usize]) = if size.small {
        (&[40], &[44], &[2_000])
    } else {
        (&[64, 76, 88], &[56, 66, 76], &[3_600, 4_800, 6_300])
    };
    let mut all = Vec::new();
    for (i, &n) in meshes.iter().enumerate() {
        let mesh = corpus::scramble(&corpus::mesh2d(n, n), seed ^ i as u64);
        all.push((format!("mesh2d_scrambled_{n}"), mesh));
    }
    for (i, &n) in roads.iter().enumerate() {
        let road = corpus::road(n, n, inputs::SHAPE_SEED);
        all.push((
            format!("road_scrambled_{n}"),
            corpus::scramble(&road, seed ^ (8 + i as u64)),
        ));
    }
    // Already well ordered: reordering is useless or harmful here.
    for &n in bands {
        all.push((format!("banded_natural_{n}"), corpus::banded(n, 3)));
    }
    all
}

pub struct GridInputs {
    pub names: Vec<String>,
    pub mats: Vec<Arc<CsrMatrix>>,
    /// `[matrix][ordering]`, in [`ORDERINGS`] order.
    pub orderings: Vec<Vec<ReorderResult>>,
    xs: Vec<Vec<f64>>,
    /// The oracle's `A·x` per matrix, in the caller's index space.
    refs: Vec<Vec<f64>>,
    /// Cell indices, every cell [`REPS`] times, in seeded order.
    schedule: Vec<usize>,
    hash: u64,
    /// Seconds spent generating all of the above.
    pub build_s: f64,
}

impl GridInputs {
    pub fn build(size: GridSize, seed: u64) -> GridInputs {
        let t0 = Instant::now();
        let (names, mats): (Vec<_>, Vec<_>) = matrices(size, seed)
            .into_iter()
            .map(|(name, a)| (name, Arc::new(a)))
            .unzip();
        let orderings = compute_orderings(&mats);
        let mut rng = Rng::fork(seed, 0x6772_6964);
        let xs: Vec<Vec<f64>> = mats.iter().map(|a| rng.vector(a.ncols())).collect();
        let refs = mats
            .iter()
            .zip(&xs)
            .map(|(a, x)| inputs::naive_spmv(a, x))
            .collect();
        let cells = mats.len() * ORDERINGS.len() * KernelKind::all().len();
        // Shuffled by the constant seed: the same cells in the same
        // order whatever `--seed` is.
        let mut schedule: Vec<usize> = (0..cells * REPS).map(|i| i % cells).collect();
        Rng::fork(inputs::SHAPE_SEED, 0x6772_6964).shuffle(&mut schedule);
        let mut hash = ScheduleHash::new();
        for &cell in &schedule {
            hash.word(cell as u64);
        }
        for (a, x) in mats.iter().zip(&xs) {
            hash.word(a.content_hash() as u64);
            hash.vector(x);
        }
        GridInputs {
            names,
            mats,
            orderings,
            xs,
            refs,
            schedule,
            hash: hash.finish(),
            build_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Every (matrix, ordering) of the grid. Input generation is not
/// measured, so it may use every core: the jobs are claimed from a
/// shared counter, dearest algorithm first.
fn compute_orderings(mats: &[Arc<CsrMatrix>]) -> Vec<Vec<ReorderResult>> {
    // AMD, then GP, RCM, Gray, Original: descending cost.
    const BY_COST: [usize; 5] = [3, 4, 1, 2, 0];
    let jobs: Vec<(usize, usize)> = BY_COST
        .iter()
        .flat_map(|&o| (0..mats.len()).map(move |m| (m, o)))
        .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, usize, ReorderResult)>> = Mutex::new(Vec::new());
    let workers = crate::affinity::host_cpus();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len()) {
            scope.spawn(|| {
                // Relaxed: the counter only hands out distinct indices.
                while let Some(&(m, o)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let result = ORDERINGS[o]
                        .instantiate()
                        .compute(&mats[m])
                        .expect("grid matrices are square");
                    done.lock()
                        .expect("no ordering job panicked")
                        .push((m, o, result));
                }
            });
        }
    });
    let mut table: Vec<Vec<Option<ReorderResult>>> = vec![vec![None; ORDERINGS.len()]; mats.len()];
    for (m, o, result) in done.into_inner().expect("no ordering job panicked") {
        table[m][o] = Some(result);
    }
    table
        .into_iter()
        .map(|row| row.into_iter().map(|r| r.expect("every job ran")).collect())
        .collect()
}

/// One reordered matrix with its vectors in the reordered space.
struct Permuted {
    matrix: Arc<CsrMatrix>,
    xp: Vec<f64>,
    yp: Vec<f64>,
}

struct Cell {
    kernel: Arc<dyn Kernel>,
    /// Index into `permuted`: `matrix * ORDERINGS.len() + ordering`.
    slot: usize,
}

pub struct GridWorkload {
    pub inputs: GridInputs,
    team: Option<ThreadTeam>,
    permuted: Vec<Permuted>,
    cells: Vec<Cell>,
    /// Fastest execute seen per cell, microseconds (the paper's
    /// protocol: peak = minimum time over repetitions).
    pub cell_best_us: Vec<f64>,
    /// Attach a recording trace context to the team at reset, so that
    /// every execute records the program's `spmv.team.compute` span.
    pub trace_on: bool,
    recorder: Option<Arc<FlightRecorder>>,
}

impl GridWorkload {
    pub fn new(inputs: GridInputs) -> GridWorkload {
        let cells = inputs.mats.len() * ORDERINGS.len() * KernelKind::all().len();
        GridWorkload {
            inputs,
            team: None,
            permuted: Vec::new(),
            cells: Vec::new(),
            cell_best_us: vec![f64::INFINITY; cells],
            trace_on: false,
            recorder: None,
        }
    }

    /// `(matrix, ordering, kernel)` of a cell index.
    pub fn cell_coords(cell: usize) -> (usize, usize, usize) {
        let kernels = KernelKind::all().len();
        let slot = cell / kernels;
        (
            slot / ORDERINGS.len(),
            slot % ORDERINGS.len(),
            cell % kernels,
        )
    }

    /// Execute one cell untimed, so that the timed call that follows
    /// finds the cell's matrix and vectors in the core's own cache.
    pub fn warm(&mut self, cell: usize) {
        let Cell { kernel, slot } = &self.cells[cell];
        let p = &mut self.permuted[*slot];
        let team = self.team.as_ref().expect("reset before slice");
        kernel.execute(team, &p.xp, &mut p.yp);
    }

    /// Execute one cell once; microseconds.
    pub fn execute(&mut self, cell: usize) -> f64 {
        let Cell { kernel, slot } = &self.cells[cell];
        let p = &mut self.permuted[*slot];
        let team = self.team.as_ref().expect("reset before slice");
        let t0 = Instant::now();
        kernel.execute(team, &p.xp, &mut p.yp);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.cell_best_us[cell] = self.cell_best_us[cell].min(us);
        us
    }

    /// The cell the schedule runs as its `op`-th operation.
    pub fn scheduled(&self, op: usize) -> usize {
        self.inputs.schedule[op]
    }

    /// Floating-point operations and computed bytes (archsim's
    /// `BYTES_PER_NNZ` / `BYTES_PER_ROW`) of one replay of the schedule.
    pub fn spmv_work(&self) -> (f64, f64) {
        let (mut flops, mut bytes) = (0.0, 0.0);
        for &cell in &self.inputs.schedule {
            let (m, _, _) = Self::cell_coords(cell);
            let a = &self.inputs.mats[m];
            flops += 2.0 * a.nnz() as f64;
            bytes +=
                a.nnz() as f64 * archsim::BYTES_PER_NNZ + a.nrows() as f64 * archsim::BYTES_PER_ROW;
        }
        (flops, bytes)
    }

    /// The team the cells execute on.
    pub fn team(&self) -> &ThreadTeam {
        self.team.as_ref().expect("reset before use")
    }

    /// Whether the answer now in a cell's `yp` is right.
    pub fn answer_ok(&self, cell: usize, op: usize, check: Check) -> bool {
        let (m, o, _) = Self::cell_coords(cell);
        let p = &self.permuted[self.cells[cell].slot];
        let want = &self.inputs.refs[m];
        let ordering = &self.inputs.orderings[m][o];
        match check {
            Check::Full => inputs::answer_matches(&ordering.unpermute_output(&p.yp), want),
            Check::Sampled => {
                // One element, read through the permutation rather
                // than unpermuting the whole vector.
                let i = op.wrapping_mul(2_654_435_761) % want.len();
                p.yp.len() == want.len()
                    && inputs::close(p.yp[ordering.perm.old_to_new(i)], want[i])
            }
        }
    }
}

impl Workload for GridWorkload {
    fn ops(&self) -> usize {
        self.inputs.schedule.len()
    }

    /// Build the team, then one step per (matrix, ordering): permute
    /// the matrix, carry `x` along, plan the three kernels.
    fn reset(&mut self) -> Vec<f64> {
        let mut steps = Vec::new();
        self.cells.clear();
        self.permuted.clear();
        self.team = Some(harness::step(&mut steps, || {
            let team = ThreadTeam::new(1);
            self.recorder = self.trace_on.then(|| FlightRecorder::new(1 << 14));
            if let Some(recorder) = &self.recorder {
                team.set_trace(&recorder.start_trace());
            }
            team
        }));
        let inputs = &self.inputs;
        for (m, a) in inputs.mats.iter().enumerate() {
            for ordering in &inputs.orderings[m] {
                let slot = self.permuted.len();
                let (permuted, kernels) = harness::step(&mut steps, || {
                    let matrix = Arc::new(ordering.apply(a).expect("ordering fits its matrix"));
                    let kernels = KernelKind::all().map(|kind| kind.plan(&matrix, 1));
                    let permuted = Permuted {
                        xp: ordering.permute_input(&inputs.xs[m]),
                        yp: vec![0.0; matrix.nrows()],
                        matrix,
                    };
                    (permuted, kernels)
                });
                self.permuted.push(permuted);
                self.cells
                    .extend(kernels.into_iter().map(|kernel| Cell { kernel, slot }));
            }
        }
        steps
    }

    fn slice(&mut self, check: Check) -> SliceResult {
        let mut op_us = Vec::with_capacity(self.ops());
        let mut segment_us = Vec::with_capacity(self.ops());
        let t0 = Instant::now();
        for op in 0..self.ops() {
            let cell = self.scheduled(op);
            self.warm(cell);
            // A segment is one timed call with its check.
            let segment_start = Instant::now();
            let us = self.execute(cell);
            op_us.push(if self.answer_ok(cell, op, check) {
                us
            } else {
                f64::NAN
            });
            segment_us.push(segment_start.elapsed().as_secs_f64() * 1e6);
        }
        SliceResult {
            wall: t0.elapsed(),
            op_us,
            segment_us,
            queue_wait_us: Vec::new(),
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.inputs.hash
    }

    fn finish(&mut self) -> bool {
        self.cells.clear();
        self.permuted.clear();
        self.team = None;
        true
    }
}

impl GridWorkload {
    /// Fastest 1D execute of every (matrix, ordering), microseconds:
    /// the measured side of the README's grid table.
    pub fn cell_table(&self) -> Vec<String> {
        let kernels = KernelKind::all().len();
        self.inputs
            .names
            .iter()
            .enumerate()
            .map(|(m, name)| {
                let cells: Vec<String> = ORDERINGS
                    .iter()
                    .enumerate()
                    .map(|(o, algo)| {
                        let us = self.cell_best_us[(m * ORDERINGS.len() + o) * kernels];
                        format!("{} {us:.1}", algo.name())
                    })
                    .collect();
                format!("{name:<22} 1d best us: {}", cells.join("  "))
            })
            .collect()
    }

    /// The reordered matrix behind a cell.
    pub fn cell_matrix(&self, cell: usize) -> &Arc<CsrMatrix> {
        &self.permuted[self.cells[cell].slot].matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: GridSize = GridSize {
        small: true,
        streaming: false,
    };

    #[test]
    fn smoke_grid_answers_correctly_in_every_cell() {
        let mut w = GridWorkload::new(GridInputs::build(SMOKE, 14));
        assert_eq!(w.ops(), 45 * REPS);
        assert_eq!(
            w.reset().len(),
            1 + 15,
            "team, then every (matrix, ordering)"
        );
        let full = w.slice(Check::Full);
        assert_eq!((full.failed(), full.op_us.len()), (0, 45 * REPS));
        let sampled = w.slice(Check::Sampled);
        assert_eq!((sampled.failed(), sampled.segment_us.len()), (0, 45 * REPS));
        assert!(w.cell_best_us.iter().all(|us| us.is_finite()));
        assert!(w.finish());
    }

    #[test]
    fn a_wrong_answer_is_a_failure() {
        let mut w = GridWorkload::new(GridInputs::build(SMOKE, 14));
        w.reset();
        w.inputs.refs[0][0] += 1.0;
        assert!(w.slice(Check::Full).failed() >= 15 * REPS as u64);
    }

    #[test]
    fn schedule_depends_on_the_seed_only() {
        let a = GridInputs::build(SMOKE, 14);
        let b = GridInputs::build(SMOKE, 14);
        let c = GridInputs::build(SMOKE, 15);
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
    }
}
