//! End-to-end solver scenario: the amortisation argument of §4.7.
//!
//! An iterative conjugate-gradient solver performs thousands of SpMV
//! iterations with the same matrix, so a one-time reordering cost is
//! amortised. This example solves a Poisson problem on a scrambled
//! mesh twice — original order vs GP order — and reports the
//! wall-clock difference, then cross-checks the solution with the
//! sparse Cholesky direct solver under an AMD ordering (the fill
//! argument of §4.6).
//!
//! ```text
//! cargo run --release --example mesh_solver
//! ```

use reorder_study::prelude::*;
use sparsemat::{axpy, dot, norm2};
use std::time::Instant;

/// Conjugate gradients with a fixed iteration budget; returns
/// (solution, iterations, seconds).
fn cg(
    a: &sparsemat::CsrMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    threads: usize,
) -> (Vec<f64>, usize, f64) {
    let n = a.nrows();
    let plan = Plan::rows(a, threads);
    let team = ThreadTeam::new(threads);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let t0 = Instant::now();
    let mut iters = 0;
    for k in 0..max_iter {
        iters = k + 1;
        execute(a, &plan, &team, &p, &mut ap);
        let alpha = rr / dot(&p, &ap);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot(&r, &r);
        if rr_new.sqrt() <= tol {
            break;
        }
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    (x, iters, t0.elapsed().as_secs_f64())
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .max(2);
    // SPD Poisson matrix, scrambled as if assembled in arbitrary order.
    let a = corpus::scramble(&corpus::make_spd(&corpus::mesh2d(100, 100)), 3);
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 37) as f64 - 18.0) / 18.0).collect();
    let b = a.spmv_dense(&x_true);
    println!(
        "Poisson system: {} unknowns, {} nnz, {threads} threads\n",
        n,
        a.nnz()
    );

    // --- CG in the original (scrambled) order. ---
    let (x0, it0, t0) = cg(&a, &b, 1e-8 * norm2(&b), 2000, threads);
    println!("CG, original order : {it0} iterations in {t0:.3} s");

    // --- CG after GP reordering (rhs permuted consistently). ---
    let reorder_t = Instant::now();
    let result = Gp::new(threads).compute(&a).expect("square");
    let ap = result.apply(&a).expect("apply");
    let reorder_secs = reorder_t.elapsed().as_secs_f64();
    let bp = result.perm.apply_to_slice(&b);
    let (xp, it1, t1) = cg(&ap, &bp, 1e-8 * norm2(&bp), 2000, threads);
    println!(
        "CG, GP order       : {it1} iterations in {t1:.3} s (+ {reorder_secs:.3} s reordering)"
    );
    if t1 < t0 {
        let saved_per_solve = t0 - t1;
        println!(
            "  -> {:.0} solves amortise the reordering cost",
            (reorder_secs / saved_per_solve).ceil()
        );
    }

    // Solutions agree (GP's solution is permuted; un-permute it).
    let xp_unperm = result.perm.inverse().apply_to_slice(&xp);
    let max_diff = x0
        .iter()
        .zip(xp_unperm.iter())
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max);
    println!("  solutions agree to {max_diff:.2e}\n");

    // --- Direct solve: AMD cuts the Cholesky fill (§4.6). ---
    let fill_orig = fill_ratio(&a);
    let amd = Amd::default().compute(&a).expect("square");
    let a_amd = amd.apply(&a).expect("apply");
    let fill_amd = fill_ratio(&a_amd);
    println!("Cholesky fill ratio nnz(L)/nnz(A): original {fill_orig:.2}, AMD {fill_amd:.2}");
    let factor = cholesky_factor(&a_amd).expect("SPD");
    let b_amd = amd.perm.apply_to_slice(&b);
    let x_amd = factor.solve(&b_amd);
    let x_direct = amd.perm.inverse().apply_to_slice(&x_amd);
    let direct_err = x_direct
        .iter()
        .zip(x_true.iter())
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max);
    println!("direct solve error vs ground truth: {direct_err:.2e}");
}
