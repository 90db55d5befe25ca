//! The remnant of the policy's retired cost model: a feature summary
//! of one matrix from cheap order-sensitive features plus the
//! `archsim` cache model.
//!
//! Inert: no decision reads it. The adaptive policy decides from the
//! amortization ledger's measurements alone (DESIGN §11). What is left
//! stays only because `sysbench` calls it — its host machine starts
//! from [`Predictor::machine`], and its `policy.summarize_cold_us`
//! probe times [`Predictor::summarize`] — and goes with the next
//! change to that benchmark.

use archsim::{machine_by_name, simulate_spmv_1d_opt, Machine, SimOptions};
use sparsemat::CsrMatrix;
use spfeatures::{bandwidth, off_diagonal_nnz, row_length_variance, x_reuse_estimate};

/// The cheap feature vector of one matrix.
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

/// Feature summaries against one model machine.
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
    /// server.
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
    /// trace simulations would be O(nnz) spent confirming it.
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
}
