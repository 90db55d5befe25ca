//! The kernel interface: every SpMV variant in the study — 1D row
//! split, 2D nonzero split, merge path — is one [`Plan`] constructor,
//! selected at runtime through [`KernelKind`].
//!
//! A planned kernel pairs the matrix (held by `Arc`, so plans can be
//! cached and shared without copying payloads) with its [`Plan`].
//! Executing it only needs a [`ThreadTeam`] and the vectors:
//!
//! ```
//! use spmv::{KernelKind, ThreadTeam};
//! use sparsemat::{CooMatrix, CsrMatrix};
//! use std::sync::Arc;
//!
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0);
//! coo.push(1, 1, 3.0);
//! coo.push(2, 0, 1.0);
//! let a = Arc::new(CsrMatrix::from_coo(&coo));
//! let team = ThreadTeam::new(2);
//! let x = vec![1.0; 3];
//! let mut y = vec![0.0; 3];
//! for kind in KernelKind::all() {
//!     let kernel = kind.plan(&a, 2);
//!     kernel.execute(&team, &x, &mut y);
//!     assert_eq!(y, vec![2.0, 3.0, 1.0]);
//! }
//! ```

use crate::exec::{execute_mapped, Identity};
use crate::plan::Plan;
use crate::team::ThreadTeam;
use sparsemat::{CsrMatrix, Permutation};
use std::fmt;
use std::sync::Arc;

/// The SpMV kernel family of the study (§3.1), used wherever a kernel
/// is selected by configuration: CLI flags, the engine's plan cache
/// key, measurement configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// 1D row-split kernel (OpenMP `schedule(static)` analogue).
    OneD,
    /// 2D nonzero-split kernel.
    TwoD,
    /// Merge-path kernel (Merrill & Garland).
    Merge,
}

impl KernelKind {
    /// All kernels, in presentation order.
    pub fn all() -> [KernelKind; 3] {
        [KernelKind::OneD, KernelKind::TwoD, KernelKind::Merge]
    }

    /// Stable lowercase name, the inverse of [`KernelKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::OneD => "1d",
            KernelKind::TwoD => "2d",
            KernelKind::Merge => "merge",
        }
    }

    /// Parse a CLI/config spelling (`"1d"`, `"2d"`, `"merge"`).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "1d" | "oned" => Some(KernelKind::OneD),
            "2d" | "twod" => Some(KernelKind::TwoD),
            "merge" => Some(KernelKind::Merge),
            _ => None,
        }
    }

    /// This kind's cut of `a` for `nthreads` threads — the whole
    /// difference between the kernels.
    pub fn cut(self, a: &CsrMatrix, nthreads: usize) -> Plan {
        match self {
            KernelKind::OneD => Plan::rows(a, nthreads),
            KernelKind::TwoD => Plan::nonzeros(a, nthreads),
            KernelKind::Merge => Plan::merge_path(a, nthreads),
        }
    }

    /// Build the planned kernel of this kind for `nthreads` threads.
    pub fn plan(self, a: &Arc<CsrMatrix>, nthreads: usize) -> Arc<dyn Kernel> {
        Arc::new(Planned {
            kind: self,
            plan: self.cut(a, nthreads),
            matrix: Arc::clone(a),
        })
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A planned SpMV kernel: a matrix plus its precomputed work split,
/// executable on any [`ThreadTeam`].
///
/// Object-safe so kernels can be held as `Arc<dyn Kernel>`. `execute`
/// is race-free without locking by the one rule documented on
/// `exec::SendPtr`: a span stores exactly the rows whose end it
/// contains.
pub trait Kernel: Send + Sync {
    /// Which kernel family this plan belongs to.
    fn kind(&self) -> KernelKind;

    /// The matrix the plan was built for.
    fn matrix(&self) -> &Arc<CsrMatrix>;

    /// Span count of the plan: the requested threads after clamping to
    /// the available parallelism (see the [`Plan`] constructors).
    fn num_threads(&self) -> usize;

    /// Nonzeros processed per thread — the balance statistic of §3.2.
    fn nnz_per_thread(&self) -> Vec<usize>;

    /// Compute `y = A x` on `team`. `y` is fully overwritten.
    fn execute(&self, team: &ThreadTeam, x: &[f64], y: &mut [f64]);

    /// [`Kernel::execute`] with each row stored where `rows` says it
    /// came from: `y[rows.new_to_old(r)]` holds row `r` of `A x`. For
    /// the planned matrix `A = P·B` (rows of `B` permuted by `rows`)
    /// that is `B x` in `B`'s row order — bit for bit what `execute`
    /// followed by [`Permutation::apply_inverse_to_slice`] produces
    /// (the same sums, accumulated in the same order, written straight
    /// to their final index), without the intermediate vector or the
    /// second pass. Panics, before any store, unless `rows.len()` is
    /// the matrix's row count.
    fn execute_scatter(&self, team: &ThreadTeam, x: &[f64], y: &mut [f64], rows: &Permutation);
}

/// The one implementation: a kind is only a label on the cut.
struct Planned {
    kind: KernelKind,
    matrix: Arc<CsrMatrix>,
    plan: Plan,
}

impl Kernel for Planned {
    fn kind(&self) -> KernelKind {
        self.kind
    }
    fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.matrix
    }
    fn num_threads(&self) -> usize {
        self.plan.spans().len()
    }
    fn nnz_per_thread(&self) -> Vec<usize> {
        self.plan.nnz_per_span()
    }
    fn execute(&self, team: &ThreadTeam, x: &[f64], y: &mut [f64]) {
        execute_mapped(&self.matrix, &self.plan, team, x, y, Identity);
    }
    fn execute_scatter(&self, team: &ThreadTeam, x: &[f64], y: &mut [f64], rows: &Permutation) {
        execute_mapped(&self.matrix, &self.plan, team, x, y, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn small_matrix() -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(20, 20);
        for i in 0..20 {
            coo.push(i, i, 2.0);
            coo.push(i, (i + 3) % 20, -1.0);
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    #[test]
    fn name_parse_round_trip() {
        for kind in KernelKind::all() {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(KernelKind::parse("MERGE"), Some(KernelKind::Merge));
        assert_eq!(KernelKind::parse("3d"), None);
    }

    #[test]
    fn all_kinds_execute_through_trait() {
        let a = small_matrix();
        let team = ThreadTeam::new(3);
        let x: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let want = a.spmv_dense(&x);
        for kind in KernelKind::all() {
            let kernel = kind.plan(&a, 4);
            assert_eq!(kernel.kind(), kind);
            assert!(kernel.num_threads() >= 1);
            assert_eq!(kernel.nnz_per_thread().iter().sum::<usize>(), a.nnz());
            let mut y = vec![f64::NAN; 20];
            kernel.execute(&team, &x, &mut y);
            for i in 0..20 {
                assert!(
                    (y[i] - want[i]).abs() < 1e-12,
                    "{kind} row {i}: {} vs {}",
                    y[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn planned_kernel_shares_matrix_storage() {
        let a = small_matrix();
        let kernel = KernelKind::OneD.plan(&a, 2);
        assert!(Arc::ptr_eq(kernel.matrix(), &a));
    }
}
