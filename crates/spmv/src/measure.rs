use crate::kernel::KernelKind;
use crate::plan::imbalance_factor;
use crate::team::ThreadTeam;
use sparsemat::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Histogram, Registry};

/// Threads available on this host (≥ 1). The canonical lookup shared by
/// [`MeasureConfig::default`], `serve` and the kernel property tests.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

/// Measurement configuration, defaulting to the paper's protocol
/// (§4.1): 100 repetitions, peak = minimum time, mean over the last
/// repetitions after discarding the first 3 warm-up iterations.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Number of SpMV repetitions.
    pub repetitions: usize,
    /// Warm-up iterations excluded from the mean (the artifact
    /// description discards the first 3).
    pub warmup: usize,
    /// Number of threads.
    pub nthreads: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            repetitions: 100,
            warmup: 3,
            nthreads: host_threads(),
        }
    }
}

/// The per-(matrix, kernel) record of the paper's artifact: per-thread
/// nonzero statistics, imbalance factor, best time and Gflop/s figures.
#[derive(Debug, Clone)]
pub struct SpmvMeasurement {
    /// Minimum nonzeros processed by any thread.
    pub nnz_min: usize,
    /// Maximum nonzeros processed by any thread.
    pub nnz_max: usize,
    /// Mean nonzeros per thread.
    pub nnz_mean: f64,
    /// Imbalance factor (max / mean).
    pub imbalance: f64,
    /// Best (minimum) time for one SpMV iteration, in seconds.
    pub min_time: f64,
    /// Median time per iteration over all repetitions, in seconds
    /// (bucket-resolution, ≤ 6.25% relative error).
    pub p50_time: f64,
    /// 99th-percentile time per iteration, in seconds (bucket
    /// resolution) — the tail the min/mean protocol hides.
    pub p99_time: f64,
    /// Peak performance in Gflop/s: `2 * nnz / min_time / 1e9`.
    pub max_gflops: f64,
    /// Mean performance over the non-warm-up iterations, in Gflop/s.
    pub mean_gflops: f64,
}

/// Fold per-repetition timing histograms into the paper's summary
/// statistics. One code path produces min, mean, and quantiles: the
/// warm-up and steady repetitions live in two histogram shards so the
/// steady-state mean excludes warm-up while min/quantiles see every
/// repetition (the paper's protocol, §4.1).
fn summarize(
    nnz_counts: &[usize],
    nnz_total: usize,
    warm: &Histogram,
    steady: &Histogram,
) -> SpmvMeasurement {
    let nnz_min = nnz_counts.iter().copied().min().unwrap_or(0);
    let nnz_max = nnz_counts.iter().copied().max().unwrap_or(0);
    let nnz_mean = if nnz_counts.is_empty() {
        0.0
    } else {
        nnz_counts.iter().sum::<usize>() as f64 / nnz_counts.len() as f64
    };
    // Min and quantiles over *all* repetitions: merge the shards.
    let all = Histogram::new();
    all.merge_from(warm);
    all.merge_from(steady);
    let min_time = if all.count() > 0 {
        all.min() as f64 / 1e9
    } else {
        f64::INFINITY
    };
    let mean_time = steady.mean() / 1e9;
    let flops = 2.0 * nnz_total as f64;
    SpmvMeasurement {
        nnz_min,
        nnz_max,
        nnz_mean,
        imbalance: imbalance_factor(nnz_counts),
        min_time,
        p50_time: all.quantile(0.50) as f64 / 1e9,
        p99_time: all.quantile(0.99) as f64 / 1e9,
        max_gflops: if min_time > 0.0 {
            flops / min_time / 1e9
        } else {
            0.0
        },
        mean_gflops: if mean_time > 0.0 {
            flops / mean_time / 1e9
        } else {
            0.0
        },
    }
}

/// Measure a kernel on a matrix following the paper's protocol: run
/// `repetitions` iterations with a deterministic non-constant `x`, take
/// the minimum time (peak performance) and the mean over the steady
/// iterations. Reports into the global telemetry registry; see
/// [`measure_spmv_in`].
pub fn measure_spmv(
    a: &Arc<CsrMatrix>,
    kernel: KernelKind,
    cfg: &MeasureConfig,
) -> SpmvMeasurement {
    measure_spmv_in(&Registry::global(), a, kernel, cfg)
}

/// [`measure_spmv`] reporting into an explicit registry: every
/// repetition's wall-clock lands in the `spmv.measure.rep` histogram
/// (nanoseconds) and the whole measurement's into `spmv.measure`, so
/// the summary statistics and the exported quantiles come from the same
/// recorded samples.
///
/// The plan is built once and every repetition executes on one
/// persistent [`ThreadTeam`], so the timings contain zero per-iteration
/// thread-spawn overhead — the substrate the measurement protocol
/// assumes (§4.1).
pub fn measure_spmv_in(
    registry: &Arc<Registry>,
    a: &Arc<CsrMatrix>,
    kernel: KernelKind,
    cfg: &MeasureConfig,
) -> SpmvMeasurement {
    let started = Instant::now();
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| 1.0 + (i % 17) as f64 / 16.0)
        .collect();
    let mut y = vec![0.0f64; a.nrows()];
    let reps = cfg.repetitions.max(1);
    // Always keep at least one steady repetition, even when warmup
    // covers the whole run (short-run safety, matching the old slice
    // clamp).
    let steady_start = cfg.warmup.min(reps - 1);
    let warm = Histogram::new();
    let steady = Histogram::new();
    let planned = kernel.plan(a, cfg.nthreads);
    let team = ThreadTeam::new_in(registry, cfg.nthreads);
    for rep in 0..reps {
        let t0 = Instant::now();
        planned.execute(&team, &x, &mut y);
        let shard = if rep < steady_start { &warm } else { &steady };
        shard.record_duration(t0.elapsed());
    }
    let result = summarize(&planned.nnz_per_thread(), a.nnz(), &warm, &steady);
    // Publish the per-repetition samples: shard histograms merge into
    // the registry's cumulative series.
    let rep_hist = registry.histogram("spmv.measure.rep");
    rep_hist.merge_from(&warm);
    rep_hist.merge_from(&steady);
    registry
        .histogram("spmv.measure")
        .record_duration(started.elapsed());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;
    use telemetry::stages;

    fn banded(n: usize, half_bw: usize) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(half_bw)..(i + half_bw + 1).min(n) {
                coo.push(i, j, 1.0);
            }
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    #[test]
    fn measurement_reports_consistent_statistics() {
        let a = banded(500, 2);
        let cfg = MeasureConfig {
            repetitions: 10,
            warmup: 2,
            nthreads: 2,
        };
        for kernel in KernelKind::all() {
            let m = measure_spmv(&a, kernel, &cfg);
            assert!(m.min_time > 0.0);
            assert!(m.max_gflops > 0.0);
            assert!(m.mean_gflops > 0.0);
            assert!(m.max_gflops >= m.mean_gflops * 0.5);
            assert!(m.nnz_min <= m.nnz_max);
            assert!(m.imbalance >= 1.0);
        }
    }

    #[test]
    fn twod_measurement_is_balanced() {
        // Skewed matrix: 1D imbalanced, 2D balanced.
        let n = 200;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            coo.push(0, j, 1.0);
        }
        for i in 1..n {
            coo.push(i, i, 1.0);
        }
        let a = Arc::new(CsrMatrix::from_coo(&coo));
        let cfg = MeasureConfig {
            repetitions: 5,
            warmup: 1,
            nthreads: 4,
        };
        let m1 = measure_spmv(&a, KernelKind::OneD, &cfg);
        let m2 = measure_spmv(&a, KernelKind::TwoD, &cfg);
        assert!(
            m1.imbalance > 1.5,
            "1D should be imbalanced: {}",
            m1.imbalance
        );
        assert!(
            (m2.imbalance - 1.0).abs() < 0.05,
            "2D should be balanced: {}",
            m2.imbalance
        );
    }

    #[test]
    fn summarize_handles_short_runs() {
        // One repetition, warmup longer than the run: the single sample
        // is the steady state (the old slice-clamp behaviour).
        let warm = Histogram::new();
        let steady = Histogram::new();
        steady.record_duration(std::time::Duration::from_secs(1));
        let m = summarize(&[10, 10], 20, &warm, &steady);
        assert!((m.min_time - 1.0).abs() < 1e-9, "min_time {}", m.min_time);
        assert!(m.mean_gflops > 0.0);
        assert!(m.p50_time > 0.9 && m.p50_time < 1.1, "p50 {}", m.p50_time);
    }

    #[test]
    fn default_config_uses_host_parallelism() {
        let cfg = MeasureConfig::default();
        assert!(cfg.nthreads >= 1);
        assert_eq!(cfg.nthreads, host_threads());
    }

    #[test]
    fn measurement_feeds_registry_histogram() {
        let registry = telemetry::Registry::new_arc();
        let a = banded(300, 2);
        let cfg = MeasureConfig {
            repetitions: 12,
            warmup: 2,
            nthreads: 2,
        };
        let m = measure_spmv_in(&registry, &a, KernelKind::OneD, &cfg);
        let snap = registry.snapshot();
        let rep = snap.histogram("spmv.measure.rep").unwrap();
        assert_eq!(rep.count, 12, "every repetition lands in the registry");
        // The summary's min is the histogram's exact min — one code path.
        assert!((m.min_time - rep.min as f64 / 1e9).abs() < 1e-12);
        // Quantiles are ordered and bracketed by the extremes.
        assert!(m.min_time <= m.p50_time * 1.0625 + 1e-12);
        assert!(m.p50_time <= m.p99_time + 1e-12);
        // The whole measurement is one `spmv.measure` sample.
        assert_eq!(snap.histogram("spmv.measure").unwrap().count, 1);
    }

    /// The cost envelope of the one stage guard: on a disabled context
    /// with no profiler session live, `ctx.span` is an `Option` check
    /// plus the stage board's one relaxed load, and must add < 2% to a
    /// small-matrix SpMV iteration (microseconds). Measure both and
    /// compare directly, which is robust to machine speed in a way an
    /// absolute threshold is not.
    #[test]
    fn disabled_tracing_adds_under_two_percent() {
        let registry = telemetry::Registry::new_arc();
        let ctx = telemetry::TraceCtx::disabled();

        const CALLS: u32 = 100_000;
        let t0 = Instant::now();
        for _ in 0..CALLS {
            let s = ctx.span(stages::SPMV_MEASURE);
            std::hint::black_box(&s);
        }
        let trace_ns = t0.elapsed().as_nanos() as f64 / CALLS as f64;

        let a = banded(500, 2);
        let cfg = MeasureConfig {
            repetitions: 20,
            warmup: 2,
            nthreads: 1,
        };
        let m = measure_spmv_in(&registry, &a, KernelKind::OneD, &cfg);
        let iter_ns = m.min_time * 1e9;
        assert!(
            trace_ns < 0.02 * iter_ns,
            "disabled trace span costs {trace_ns:.1}ns, {:.3}% of a {iter_ns:.0}ns SpMV iteration",
            100.0 * trace_ns / iter_ns
        );
    }

    /// The acceptance bound from the issue, stage-board edition: with
    /// no profiler session active, a `telemetry::stage` guard is one
    /// relaxed atomic load and must add < 2% to a small-matrix SpMV
    /// iteration — the continuous profiler is free when nobody is
    /// sampling.
    #[test]
    fn disabled_stage_board_adds_under_two_percent() {
        const STAGES: u32 = 100_000;
        let t0 = Instant::now();
        for _ in 0..STAGES {
            let g = telemetry::stage(stages::SPMV_MEASURE);
            std::hint::black_box(&g);
        }
        let stage_ns = t0.elapsed().as_nanos() as f64 / STAGES as f64;

        let registry = telemetry::Registry::new_arc();
        let a = banded(500, 2);
        let cfg = MeasureConfig {
            repetitions: 20,
            warmup: 2,
            nthreads: 1,
        };
        let m = measure_spmv_in(&registry, &a, KernelKind::OneD, &cfg);
        let iter_ns = m.min_time * 1e9;
        assert!(
            stage_ns < 0.02 * iter_ns,
            "disabled stage guard costs {stage_ns:.1}ns, {:.3}% of a {iter_ns:.0}ns SpMV iteration",
            100.0 * stage_ns / iter_ns
        );
    }
}
