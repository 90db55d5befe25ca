//! Reorder explorer: visualise what each ordering does to a sparsity
//! pattern (the Fig. 1 experience, interactively).
//!
//! ```text
//! cargo run --release --example reorder_explorer [path/to/matrix.mtx]
//! ```
//!
//! With no argument, a built-in circuit-like matrix is used. With a
//! Matrix Market path, your own matrix is explored.

use reorder_study::prelude::*;
use sparsemat::{read_matrix_market, spy_string, SpyOptions};

fn main() {
    let a = match std::env::args().nth(1) {
        Some(path) => {
            let (a, header) = read_matrix_market(std::path::Path::new(&path))
                .unwrap_or_else(|e| panic!("failed to read {path}: {e}"));
            println!(
                "loaded {path}: {}x{}, {} entries ({:?} {:?})",
                header.nrows, header.ncols, header.entries, header.field, header.symmetry
            );
            if !a.is_square() {
                eprintln!("reorderings require a square matrix");
                std::process::exit(1);
            }
            a
        }
        None => {
            println!("no file given; using a built-in circuit-like matrix\n");
            corpus::circuit(3000, 11)
        }
    };

    let opts = SpyOptions {
        width: 40,
        height: 20,
        border: true,
    };
    println!("=== Original ===");
    println!(
        "bandwidth {}  profile {}  offdiag(16) {}",
        bandwidth(&a),
        profile(&a),
        off_diagonal_nnz(&a, 16)
    );
    print!("{}", spy_string(&a, &opts));

    for alg in all_algorithms(16, 32) {
        let start = std::time::Instant::now();
        let result = alg.compute(&a).expect("square matrix");
        let elapsed = start.elapsed();
        let b = result.apply(&a).expect("apply");
        println!(
            "\n=== {} (computed in {:.3} s) ===",
            alg.name(),
            elapsed.as_secs_f64()
        );
        println!(
            "bandwidth {}  profile {}  offdiag(16) {}",
            bandwidth(&b),
            profile(&b),
            off_diagonal_nnz(&b, 16)
        );
        print!("{}", spy_string(&b, &opts));
    }
}
