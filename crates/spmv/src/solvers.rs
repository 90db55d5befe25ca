//! Iterative solvers built on the parallel SpMV kernels.
//!
//! The paper's amortisation argument (§4.7) rests on iterative solvers
//! performing thousands of SpMV iterations with one matrix. This module
//! provides the classic conjugate-gradient method (optionally Jacobi
//! preconditioned) running on the 1D kernel, so the end-to-end benefit
//! of a reordering can be demonstrated on a real workload.

use crate::exec::execute;
use crate::plan::Plan;
use crate::team::ThreadTeam;
use sparsemat::{dot, CsrMatrix};

/// Convergence/iteration report from a solver run.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// True if the tolerance was reached within the budget.
    pub converged: bool,
}

/// Options for [`conjugate_gradient`].
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Absolute residual tolerance.
    pub tolerance: f64,
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Threads for the SpMV kernel.
    pub threads: usize,
    /// Use Jacobi (diagonal) preconditioning.
    pub jacobi: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-10,
            max_iterations: 1000,
            threads: 4,
            jacobi: false,
        }
    }
}

/// Solve `A x = b` for symmetric positive definite `A` by (optionally
/// Jacobi-preconditioned) conjugate gradients. Returns the solution and
/// run statistics.
///
/// # Panics
///
/// Panics if `A` is not square or `b` has the wrong length.
pub fn conjugate_gradient(a: &CsrMatrix, b: &[f64], opts: &CgOptions) -> (Vec<f64>, SolveStats) {
    assert!(a.is_square(), "CG requires a square matrix");
    assert_eq!(b.len(), a.nrows(), "rhs length mismatch");
    let n = a.nrows();
    // One plan, one persistent team: every iteration's SpMV dispatches
    // to already-running workers instead of spawning threads (§4.7's
    // amortisation argument applies to the executor too).
    let plan = Plan::rows(a, opts.threads);
    let team = ThreadTeam::new(opts.threads);

    let inv_diag: Option<Vec<f64>> = if opts.jacobi {
        Some(
            a.diagonal()
                .iter()
                .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
                .collect(),
        )
    } else {
        None
    };
    // `z = M⁻¹ r` into the one buffer every iteration reuses.
    let precond = |r: &[f64], z: &mut [f64]| match &inv_diag {
        Some(di) => (z.iter_mut().zip(r).zip(di)).for_each(|((z, &x), &m)| *z = x * m),
        None => z.copy_from_slice(r),
    };

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz = dot(&r, &z);
    let mut stats = SolveStats {
        iterations: 0,
        residual: dot(&r, &r).sqrt(),
        converged: stats_converged(dot(&r, &r).sqrt(), opts.tolerance),
    };
    if stats.converged {
        return (x, stats);
    }
    for k in 0..opts.max_iterations {
        execute(a, &plan, &team, &p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            break; // not SPD (or numerical breakdown)
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rnorm = dot(&r, &r).sqrt();
        stats.iterations = k + 1;
        stats.residual = rnorm;
        if stats_converged(rnorm, opts.tolerance) {
            stats.converged = true;
            break;
        }
        precond(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    (x, stats)
}

fn stats_converged(residual: f64, tol: f64) -> bool {
    residual <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn spd_tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push_symmetric(i, i + 1, -1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn cg_solves_tridiagonal_system() {
        let n = 200;
        let a = spd_tridiag(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b = a.spmv_dense(&x_true);
        let (x, stats) = conjugate_gradient(&a, &b, &CgOptions::default());
        assert!(stats.converged, "CG failed: {stats:?}");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "x[{i}]");
        }
    }

    #[test]
    fn jacobi_preconditioning_converges_no_slower() {
        let n = 300;
        let a = spd_tridiag(n);
        let b = vec![1.0; n];
        let plain = conjugate_gradient(&a, &b, &CgOptions::default()).1;
        let pre = conjugate_gradient(
            &a,
            &b,
            &CgOptions {
                jacobi: true,
                ..Default::default()
            },
        )
        .1;
        assert!(plain.converged && pre.converged);
        // Uniform diagonal: Jacobi is a no-op scaling, same iterations ±1.
        assert!((pre.iterations as i64 - plain.iterations as i64).abs() <= 1);
    }

    #[test]
    fn cg_detects_non_spd_breakdown() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push_symmetric(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        // p = r = b gives pᵀAp = -2 < 0: indefiniteness detected.
        let (_, stats) = conjugate_gradient(&a, &[1.0, -1.0], &CgOptions::default());
        assert!(!stats.converged);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = spd_tridiag(10);
        let (x, stats) = conjugate_gradient(&a, &[0.0; 10], &CgOptions::default());
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
