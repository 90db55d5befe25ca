//! The predictor: per-algorithm SpMV speedup and reorder-cost
//! estimates from cheap order-sensitive features plus the `archsim`
//! cache/DRAM model — before any reordering work runs.
//!
//! Unit discipline: the `archsim` model's absolute seconds describe the
//! paper's machines, not this host, so the predictor only ever uses
//! model **ratios** (how much faster would this matrix be if its
//! x-accesses cached well?) and applies them to *observed* host
//! baselines. Reorder cost likewise comes from live
//! `reorder.<algo>.nnz_per_s` calibration when available, with
//! conservative per-algorithm default rates before the first
//! observation.

use archsim::{machine_by_name, simulate_spmv_1d_opt, Machine, SimOptions};
use engine::AlgoSpec;
use sparsemat::CsrMatrix;
use spfeatures::{bandwidth, off_diagonal_nnz, row_length_variance, x_reuse_estimate};

/// The cheap feature vector one policy decision runs on, computed once
/// per content hash and cached by the policy engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureSummary {
    /// Rows of the (square) matrix.
    pub nrows: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Bandwidth as a fraction of the dimension (0 = diagonal).
    pub bandwidth_fraction: f64,
    /// Fraction of nonzeros outside the diagonal blocks of an 8-way
    /// row split (the edge-cut GP minimises).
    pub off_diag_fraction: f64,
    /// Coefficient of variation of the row lengths (0 = uniform).
    pub row_cv: f64,
    /// Distinct x cache lines touched per nonzero (1.0 = no reuse).
    pub x_reuse: f64,
    /// Model ratio: simulated SpMV seconds at nominal cache size over
    /// seconds with 4x the cache — the upper bound on what *any*
    /// locality improvement can recover on the model machine.
    pub locality_headroom: f64,
}

/// Discretised features — the corrector's residual-learning bucket.
/// Matrices from one corpus family land in the same bucket, so a
/// handful of observations corrects the prediction for the whole
/// family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureBucket {
    /// `log2(nnz) / 2` (size class).
    pub size: u8,
    /// x-reuse quantised to quarters.
    pub reuse: u8,
    /// Row-length skew quantised (0 uniform .. 3 heavy-tailed).
    pub skew: u8,
}

impl FeatureSummary {
    /// The corrector bucket this summary falls into.
    pub fn bucket(&self) -> FeatureBucket {
        let size = (usize::BITS - 1 - self.nnz.max(1).leading_zeros()) as u8 / 2;
        let reuse = ((self.x_reuse * 4.0) as u8).min(3);
        let skew = ((self.row_cv * 2.0) as u8).min(3);
        FeatureBucket { size, reuse, skew }
    }
}

/// Default reorder throughput (nnz/s) per algorithm, used until live
/// `reorder.<algo>.nnz_per_s` calibration arrives. Deliberately
/// conservative (slower than typical) so the cold policy under-commits
/// rather than paying for reorders that never amortise.
///
/// The AMD figure reflects the round-based multiple-elimination
/// implementation as measured in PR 10 (CHANGES.md: ~1.3 Mnnz/s on an
/// R-MAT graph, ~3 Mnnz/s on meshes): the old 6e6 default was
/// optimistic, which made the cold policy *over*-commit to AMD.
pub fn default_nnz_per_s(algo: AlgoSpec) -> f64 {
    match algo {
        AlgoSpec::Original => f64::INFINITY,
        AlgoSpec::Rcm => 20e6,
        AlgoSpec::Gray => 30e6,
        AlgoSpec::Amd => 2e6,
        AlgoSpec::Nd => 1e6,
        AlgoSpec::Gp { .. } => 3e6,
        AlgoSpec::Hp { .. } => 1.5e6,
    }
}

/// Feature-driven speedup/cost prediction against one model machine.
#[derive(Debug, Clone)]
pub struct Predictor {
    machine: Machine,
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::new()
    }
}

impl Predictor {
    /// A predictor on the default model machine (the paper's Skylake).
    pub fn new() -> Self {
        let machine = machine_by_name("Skylake")
            .or_else(|| archsim::machines().into_iter().next())
            .expect("archsim ships at least one machine");
        Predictor { machine }
    }

    /// The model machine in use.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The model machine shrunk to the matrix at hand: one socket, a
    /// few threads, and caches capped at twice the x-vector footprint.
    /// A modelled cache larger than the vector it caches produces the
    /// same hit pattern as an infinite one, so the cap preserves the
    /// headroom *ratio* while keeping the simulator's tag-array
    /// allocations proportional to the matrix instead of to a 48-thread
    /// server — summaries run on the serving path, per new matrix.
    fn probe_machine(&self, a: &CsrMatrix) -> Machine {
        let mut m = self.machine.clone();
        let x_kib = (a.ncols() * 8).div_ceil(1024).max(1);
        m.sockets = 1;
        m.threads = 1;
        m.cores_per_socket = 1;
        m.l1d_kib = m.l1d_kib.min(2 * x_kib);
        m.l2_kib = m.l2_kib.min(2 * x_kib);
        m.l3_mib_per_socket = m.l3_mib_per_socket.min((2 * x_kib).div_ceil(1024));
        m
    }

    /// True when the x-vector comfortably fits the model's private L2
    /// at nominal size — then quadrupling the cache cannot change the
    /// hit pattern, the headroom is 1.0 by construction, and the two
    /// trace simulations would be O(nnz) spent confirming it. The
    /// serving path summarises every new matrix, so this early-out
    /// matters.
    fn headroom_is_trivially_one(&self, a: &CsrMatrix) -> bool {
        a.ncols() * 8 <= self.machine.l2_kib * 1024 / 4
    }

    /// Compute the feature summary for one matrix (one O(nnz) pass
    /// plus two cache-model evaluations on the capped probe machine;
    /// no reordering).
    pub fn summarize(&self, a: &CsrMatrix) -> FeatureSummary {
        let n = a.nrows().max(1);
        let nnz = a.nnz();
        let mean_row = nnz as f64 / n as f64;
        let row_cv = if mean_row > 0.0 {
            row_length_variance(a).sqrt() / mean_row
        } else {
            0.0
        };
        let locality_headroom = if self.headroom_is_trivially_one(a) {
            1.0
        } else {
            let probe = self.probe_machine(a);
            let base = simulate_spmv_1d_opt(a, &probe, &SimOptions { cache_scale: 1.0 });
            let roomy = simulate_spmv_1d_opt(a, &probe, &SimOptions { cache_scale: 4.0 });
            if roomy.seconds > 0.0 {
                (base.seconds / roomy.seconds).max(1.0)
            } else {
                1.0
            }
        };
        FeatureSummary {
            nrows: a.nrows(),
            nnz,
            bandwidth_fraction: bandwidth(a) as f64 / n as f64,
            off_diag_fraction: off_diagonal_nnz(a, 8) as f64 / nnz.max(1) as f64,
            row_cv,
            x_reuse: x_reuse_estimate(a),
            locality_headroom,
        }
    }

    /// Predicted SpMV speedup of serving under `algo` instead of the
    /// original order: `1 + recovery · (headroom − 1)`, where
    /// `headroom` is the model's locality ceiling and `recovery` is
    /// how much of that gap the algorithm family can plausibly close
    /// given the current disorder. Always ≥ ~0.95 (reordering rarely
    /// makes SpMV itself much slower; the *cost* is modelled
    /// separately).
    pub fn speedup(&self, f: &FeatureSummary, algo: AlgoSpec) -> f64 {
        if matches!(algo, AlgoSpec::Original) {
            return 1.0;
        }
        // Disorder: how far current x-locality is from "already good".
        // A banded natural-order matrix has low x_reuse and a tiny
        // bandwidth fraction — nothing left to recover (paper Class 4).
        let disorder = ((f.x_reuse - 0.2) / 0.8).clamp(0.0, 1.0);
        let spread = f.bandwidth_fraction.clamp(0.0, 1.0);
        let cut = f.off_diag_fraction.clamp(0.0, 1.0);
        // Family affinity: what fraction of the disorder the family's
        // objective actually targets.
        let affinity = match algo {
            AlgoSpec::Original => 0.0,
            // Bandwidth reducers act on spread-out bands.
            AlgoSpec::Rcm | AlgoSpec::Gray => 0.9 * spread.max(0.15),
            // Partitioners act on the block edge-cut.
            AlgoSpec::Gp { .. } | AlgoSpec::Hp { .. } => 0.9 * cut.max(0.15),
            // Fill-reducing orders help SpMV only incidentally.
            AlgoSpec::Amd | AlgoSpec::Nd => 0.45 * spread.max(cut).max(0.1),
        };
        // Heavy row-length skew caps locality gains: the tail rows
        // dominate regardless of order (paper Class 3/5).
        let skew_damp = 1.0 / (1.0 + f.row_cv);
        let recovery = (disorder * affinity * skew_damp).clamp(0.0, 1.0);
        (1.0 + recovery * (f.locality_headroom - 1.0)).max(0.95)
    }

    /// Predicted wall-clock seconds to compute `algo` on `nnz`
    /// nonzeros, given an optionally calibrated live throughput
    /// (nnz/s) from the `reorder.<algo>.nnz_per_s` gauge.
    pub fn reorder_seconds(&self, nnz: usize, algo: AlgoSpec, calibrated: Option<f64>) -> f64 {
        let rate = calibrated
            .filter(|r| *r > 0.0)
            .unwrap_or_else(|| default_nnz_per_s(algo));
        if rate.is_finite() {
            nnz as f64 / rate
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banded_natural_matrix_predicts_no_gain() {
        let a = corpus::mesh2d(40, 40);
        let p = Predictor::new();
        let f = p.summarize(&a);
        let s = p.speedup(&f, AlgoSpec::Rcm);
        assert!(
            s < 1.15,
            "well-ordered mesh predicted {s:.2}x from RCM (features {f:?})"
        );
    }

    #[test]
    fn scrambled_matrix_predicts_more_than_natural() {
        let a = corpus::mesh2d(60, 60);
        let scrambled = corpus::scramble(&a, 7);
        let p = Predictor::new();
        let natural = p.speedup(&p.summarize(&a), AlgoSpec::Rcm);
        let messy = p.speedup(&p.summarize(&scrambled), AlgoSpec::Rcm);
        assert!(
            messy >= natural,
            "scrambling must not lower the predicted gain ({messy:.3} vs {natural:.3})"
        );
    }

    #[test]
    fn reorder_cost_prefers_calibration() {
        let p = Predictor::new();
        let cold = p.reorder_seconds(1_000_000, AlgoSpec::Rcm, None);
        let hot = p.reorder_seconds(1_000_000, AlgoSpec::Rcm, Some(100e6));
        assert!((cold - 0.05).abs() < 1e-9, "default RCM rate is 20M nnz/s");
        assert!((hot - 0.01).abs() < 1e-9, "calibrated rate wins");
        assert_eq!(p.reorder_seconds(1_000_000, AlgoSpec::Original, None), 0.0);
    }

    #[test]
    fn amd_default_rate_matches_the_round_based_implementation() {
        // Pinned to PR 10's measurement (CHANGES.md) of round-based
        // multiple elimination: conservative against ~1.3–3 Mnnz/s.
        let p = Predictor::new();
        let cold = p.reorder_seconds(2_000_000, AlgoSpec::Amd, None);
        assert!((cold - 1.0).abs() < 1e-9, "default AMD rate is 2M nnz/s");
        let hot = p.reorder_seconds(2_000_000, AlgoSpec::Amd, Some(4e6));
        assert!((hot - 0.5).abs() < 1e-9, "calibrated AMD rate wins");
    }

    #[test]
    fn buckets_are_stable_and_small() {
        let a = corpus::mesh2d(40, 40);
        let p = Predictor::new();
        let f = p.summarize(&a);
        assert_eq!(f.bucket(), f.bucket());
        assert!(f.bucket().reuse <= 3 && f.bucket().skew <= 3);
    }
}
