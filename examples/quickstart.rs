//! Quickstart: reorder a matrix with every algorithm of the study and
//! measure real parallel SpMV on this host.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use reorder_study::prelude::*;

fn main() {
    // A mid-sized mesh matrix whose natural ordering has been destroyed
    // — the classic case where reordering pays off.
    let a = std::sync::Arc::new(corpus::scramble(&corpus::mesh2d(120, 120), 42));
    println!(
        "matrix: {} rows, {} nnz (scrambled 120x120 mesh)\n",
        a.nrows(),
        a.nnz()
    );

    let threads = spmv::host_threads().max(2);
    let cfg = MeasureConfig {
        repetitions: 50,
        warmup: 3,
        nthreads: threads,
    };
    let base_1d = measure_spmv(&a, KernelKind::OneD, &cfg);
    let base_2d = measure_spmv(&a, KernelKind::TwoD, &cfg);

    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "ordering", "bandwidth", "offdiag", "1D Gflop/s", "2D Gflop/s", "1D spdup", "reorder(s)"
    );
    println!("{}", "-".repeat(80));
    println!(
        "{:<10} {:>10} {:>10} {:>12.3} {:>12.3} {:>10} {:>10}",
        "Original",
        bandwidth(&a),
        off_diagonal_nnz(&a, threads),
        base_1d.max_gflops,
        base_2d.max_gflops,
        "1.00x",
        "-"
    );

    for alg in all_algorithms(threads, 32) {
        let start = std::time::Instant::now();
        let result = alg.compute(&a).expect("square matrix");
        let elapsed = start.elapsed();
        let b = std::sync::Arc::new(result.apply(&a).expect("apply"));
        let m1 = measure_spmv(&b, KernelKind::OneD, &cfg);
        let m2 = measure_spmv(&b, KernelKind::TwoD, &cfg);
        println!(
            "{:<10} {:>10} {:>10} {:>12.3} {:>12.3} {:>9.2}x {:>10.3}",
            alg.name(),
            bandwidth(&b),
            off_diagonal_nnz(&b, threads),
            m1.max_gflops,
            m2.max_gflops,
            m1.max_gflops / base_1d.max_gflops,
            elapsed.as_secs_f64(),
        );
    }

    println!(
        "\n(real measurements on this host with {threads} threads; the paper's\n\
         cross-architecture results are regenerated by the `experiments` binaries)"
    );
}
