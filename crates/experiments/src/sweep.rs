//! The shared corpus sweep: reorder every matrix with every algorithm,
//! simulate both SpMV kernels on every machine, and aggregate speedups.
//!
//! All orderings are obtained through the caller's [`Engine`], so a
//! (matrix, algorithm) pair that comes back — the same matrix swept
//! twice, or two corpora that overlap — is computed exactly once and
//! every later consumer gets the cached permutation (the paper's §4.7
//! amortisation argument, operationalised).

use archsim::{simulate_spmv_1d_opt, simulate_spmv_2d_opt, Machine, SimOptions, SimResult};
use corpus::{CorpusSize, MatrixSpec};
use engine::{AlgoSpec, Engine, MatrixHandle};
use spfeatures::{matrix_features, MatrixFeatures};
use spmv::KernelKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Ordering names in the paper's column order, with the baseline first.
pub const ORDERINGS: [&str; 7] = ["Original", "RCM", "AMD", "ND", "GP", "HP", "Gray"];

/// Partitioner arity configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Parts for GP. The paper matches the core count per machine
    /// (16–128); we compute one GP ordering at a fixed arity and reuse
    /// it across machines (see DESIGN.md).
    pub gp_parts: usize,
    /// Parts for HP (the paper fixes 128).
    pub hp_parts: usize,
    /// Block count for the off-diagonal-nnz feature.
    pub feature_blocks: usize,
    /// Cache scale for the machine model (see `archsim::SimOptions`):
    /// set to (corpus matrix size) / (paper median matrix size) so the
    /// footprint-to-cache ratios match the real study.
    pub cache_scale: f64,
}

impl SweepConfig {
    /// Scale-appropriate partitioner arities.
    pub fn for_size(size: CorpusSize) -> SweepConfig {
        match size {
            CorpusSize::Small => SweepConfig {
                gp_parts: 16,
                hp_parts: 32,
                feature_blocks: 16,
                cache_scale: 1.0 / 32.0,
            },
            CorpusSize::Medium => SweepConfig {
                gp_parts: 64,
                hp_parts: 64,
                feature_blocks: 64,
                cache_scale: 1.0 / 16.0,
            },
            CorpusSize::Large => SweepConfig {
                gp_parts: 64,
                hp_parts: 128,
                feature_blocks: 64,
                cache_scale: 1.0 / 8.0,
            },
        }
    }
}

/// One ordering's outcome on one matrix.
#[derive(Debug, Clone)]
pub struct OrderingRun {
    /// Ordering name ("Original", "RCM", ...).
    pub ordering: String,
    /// §3.2 features of the reordered matrix.
    pub features: MatrixFeatures,
    /// Simulated results, indexed like the machine list of the sweep.
    pub per_machine: Vec<MachineCell>,
}

/// Simulated results on one machine: the model's full output for both
/// kernels (speedups read `gflops`, the artifact dataset also reads the
/// per-thread nonzero counts).
#[derive(Debug, Clone)]
pub struct MachineCell {
    /// The 1D (row-split) kernel.
    pub one_d: SimResult,
    /// The 2D (nonzero-split) kernel.
    pub two_d: SimResult,
}

impl MachineCell {
    /// The result for a kernel selected by the shared enum. The machine
    /// model simulates the 1D and 2D algorithms; the merge kernel —
    /// whose simplified form *is* the 2D algorithm — maps to the 2D
    /// model.
    pub fn kernel(&self, kernel: KernelKind) -> &SimResult {
        match kernel {
            KernelKind::OneD => &self.one_d,
            KernelKind::TwoD | KernelKind::Merge => &self.two_d,
        }
    }
}

/// All orderings on one corpus matrix.
#[derive(Debug, Clone)]
pub struct MatrixSweep {
    /// Matrix name.
    pub name: String,
    /// Family group.
    pub group: String,
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// One entry per ordering, in [`ORDERINGS`] order.
    pub runs: Vec<OrderingRun>,
}

impl MatrixSweep {
    /// Speedup of ordering `o` over Original on machine `m` for the
    /// given kernel.
    pub fn speedup(&self, o: usize, m: usize, kernel: KernelKind) -> f64 {
        self.runs[o].per_machine[m].kernel(kernel).gflops
            / self.runs[0].per_machine[m].kernel(kernel).gflops
    }
}

/// The matrix under all seven orderings, in [`ORDERINGS`] order, each
/// ordering obtained from `engine`.
///
/// Matrices come back as `Arc`s: the Original entry shares `a`'s
/// storage outright (no payload clone for the identity ordering).
fn apply_all_orderings(
    engine: &Engine,
    a: &Arc<sparsemat::CsrMatrix>,
    cfg: &SweepConfig,
) -> Vec<(String, Arc<sparsemat::CsrMatrix>)> {
    let handle = MatrixHandle::new(Arc::clone(a));
    let mut specs = vec![AlgoSpec::Original];
    specs.extend(AlgoSpec::study_suite(cfg.gp_parts, cfg.hp_parts));
    // The seven orderings of one matrix run in turn on its sweep
    // thread: `sweep_corpus`'s threads over matrices are the
    // parallelism.
    specs
        .iter()
        .map(|spec| {
            let cached = engine
                .get(&handle, *spec)
                .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
            let b = if matches!(spec, AlgoSpec::Original) {
                // The identity ordering: share the input, don't copy it.
                Arc::clone(a)
            } else {
                // Apply on the engine's reorder team: parallel row copy
                // when `--reorder-threads` > 1, byte-identical output.
                Arc::new(
                    cached
                        .apply_on(a, team::Exec::Team(engine.reorder_team()))
                        .unwrap_or_else(|e| panic!("{} apply failed: {e}", spec.name())),
                )
            };
            (spec.name().to_string(), b)
        })
        .collect()
}

/// Sweep one matrix: reorder through `engine` + simulate on all
/// machines.
pub fn sweep_matrix(
    engine: &Engine,
    spec: &MatrixSpec,
    machines: &[Machine],
    cfg: &SweepConfig,
) -> MatrixSweep {
    let a = Arc::new(spec.build());
    let opts = SimOptions {
        cache_scale: cfg.cache_scale,
    };
    let runs = apply_all_orderings(engine, &a, cfg)
        .into_iter()
        .map(|(ordering, b)| OrderingRun {
            ordering,
            features: matrix_features(&b, cfg.feature_blocks),
            per_machine: machines
                .iter()
                .map(|m| MachineCell {
                    one_d: simulate_spmv_1d_opt(&b, m, &opts),
                    two_d: simulate_spmv_2d_opt(&b, m, &opts),
                })
                .collect(),
        })
        .collect();
    MatrixSweep {
        name: spec.name.clone(),
        group: spec.group.clone(),
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        runs,
    }
}

/// Sweep a whole corpus, in parallel over matrices.
///
/// Matrices are claimed from a shared atomic counter by a scoped
/// thread per available core; the reordering work itself goes through
/// `engine`'s cache, so duplicate (matrix, algorithm) pairs across the
/// corpus are computed once.
pub fn sweep_corpus(
    engine: &Engine,
    specs: &[MatrixSpec],
    machines: &[Machine],
    cfg: &SweepConfig,
) -> Vec<MatrixSweep> {
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(specs.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<MatrixSweep>>> =
        Mutex::new((0..specs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let r = sweep_matrix(engine, &specs[i], machines, cfg);
                results.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every sweep index is claimed exactly once"))
        .collect()
}

/// The speedups of ordering `o` on machine `m` for the given kernel,
/// one per matrix: what Fig. 2/3 take quartiles of and Table 3/4 the
/// geometric mean.
pub fn speedups(sweeps: &[MatrixSweep], o: usize, m: usize, kernel: KernelKind) -> Vec<f64> {
    sweeps.iter().map(|s| s.speedup(o, m, kernel)).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use corpus::standard_corpus;
    use spfeatures::{geometric_mean, quartiles};

    /// An engine of the test's own, reporting into a registry of its
    /// own, so its stats are exactly what the test caused.
    pub(crate) fn local_engine() -> Engine {
        Engine::new(engine::EngineConfig {
            registry: Some(telemetry::Registry::new_arc()),
            ..Default::default()
        })
    }

    fn tiny_machines() -> Vec<Machine> {
        archsim::machines()
            .into_iter()
            .filter(|m| m.name == "Rome" || m.name == "TX2")
            .collect()
    }

    #[test]
    fn sweep_one_matrix_produces_full_grid() {
        let specs = standard_corpus(CorpusSize::Small);
        let spec = specs
            .iter()
            .find(|s| s.name.contains("band_narrow"))
            .unwrap();
        let machines = tiny_machines();
        let cfg = SweepConfig::for_size(CorpusSize::Small);
        let s = sweep_matrix(&local_engine(), spec, &machines, &cfg);
        assert_eq!(s.runs.len(), 7);
        let names: Vec<&str> = s.runs.iter().map(|r| r.ordering.as_str()).collect();
        assert_eq!(names, ORDERINGS.to_vec());
        for r in &s.runs {
            assert_eq!(r.per_machine.len(), 2);
            for c in &r.per_machine {
                assert!(c.one_d.gflops > 0.0);
                assert!(c.two_d.gflops > 0.0);
                assert!(c.one_d.imbalance >= 1.0);
            }
        }
        // Original's speedup over itself is exactly 1.
        assert!((s.speedup(0, 0, KernelKind::OneD) - 1.0).abs() < 1e-12);
        assert!((s.speedup(0, 1, KernelKind::TwoD) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scrambled_band_recovers_with_rcm() {
        // On a scrambled banded matrix, RCM should deliver a clear 1D
        // speedup in the model (this is the paper's headline mechanism).
        let specs = standard_corpus(CorpusSize::Small);
        let spec = specs
            .iter()
            .find(|s| s.name.contains("band_scrambled"))
            .unwrap();
        let machines = tiny_machines();
        let cfg = SweepConfig::for_size(CorpusSize::Small);
        let s = sweep_matrix(&local_engine(), spec, &machines, &cfg);
        let rcm = ORDERINGS.iter().position(|&n| n == "RCM").unwrap();
        for (m, machine) in machines.iter().enumerate() {
            let speedup = s.speedup(rcm, m, KernelKind::OneD);
            assert!(speedup > 1.1, "RCM on {}: {speedup}", machine.name);
        }
        // RCM must slash the profile (the band is recoverable up to the
        // stray perturbation edges, which inflate the max-type bandwidth
        // metric but not the sum-type profile).
        assert!(s.runs[rcm].features.profile * 2 < s.runs[0].features.profile);
    }

    #[test]
    fn repeated_sweep_hits_cache() {
        // The amortisation acceptance criterion: sweeping the same
        // matrix twice serves the whole second pass from the engine
        // cache — one hit per (matrix, algorithm) pair, no new job —
        // and served-from-cache results are identical to computed ones.
        let specs = standard_corpus(CorpusSize::Small);
        let spec = specs.iter().find(|s| s.name.contains("mesh2d")).unwrap();
        let machines = tiny_machines();
        let cfg = SweepConfig::for_size(CorpusSize::Small);
        let engine = local_engine();
        let s1 = sweep_matrix(&engine, spec, &machines, &cfg);
        let first = engine.stats();
        assert_eq!(first.jobs_executed, ORDERINGS.len() as u64);
        assert_eq!(first.cache.hits, 0);
        let s2 = sweep_matrix(&engine, spec, &machines, &cfg);
        let second = engine.stats();
        assert_eq!(second.cache.hits, ORDERINGS.len() as u64);
        assert_eq!(second.jobs_executed, first.jobs_executed);
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
    }

    #[test]
    fn aggregations_work() {
        let specs: Vec<_> = standard_corpus(CorpusSize::Small)
            .into_iter()
            .filter(|s| s.name.contains("band") || s.name.contains("mesh2d"))
            .take(3)
            .collect();
        let machines = tiny_machines();
        let cfg = SweepConfig::for_size(CorpusSize::Small);
        let sweeps = sweep_corpus(&local_engine(), &specs, &machines, &cfg);
        assert_eq!(sweeps.len(), 3);
        let one_d = speedups(&sweeps, 1, 0, KernelKind::OneD);
        assert_eq!(one_d.len(), 3);
        let b = quartiles(&one_d).unwrap();
        assert!(b.min <= b.median && b.median <= b.max);
        assert!(geometric_mean(&one_d).unwrap() > 0.0);
        // The merge kernel maps onto the 2D machine model.
        assert_eq!(
            speedups(&sweeps, 1, 0, KernelKind::TwoD),
            speedups(&sweeps, 1, 0, KernelKind::Merge)
        );
    }
}
