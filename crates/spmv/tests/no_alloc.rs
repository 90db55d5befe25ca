//! `Kernel::execute` must not touch the heap when no span of its plan
//! carries a partial row (any one-span plan, any row split), and may
//! allocate at most one O(spans) carry buffer otherwise — asserted with
//! the shared counting global allocator (`alloccount`).
//! `Kernel::execute_scatter` runs the same loops, so it allocates
//! exactly what `execute` does.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running beside it would be counted too.

use alloccount::counted;
use sparsemat::{CooMatrix, CsrMatrix, Permutation};
use spmv::{KernelKind, ThreadTeam};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloccount::Counting = alloccount::Counting;

/// Rows of 3..=9 nonzeros with an empty row every eleventh: no equal
/// nonzero split of it ends every span on a row end.
fn ragged(n: usize) -> Arc<CsrMatrix> {
    let mut coo = CooMatrix::new(n, n);
    for i in (0..n).filter(|i| i % 11 != 10) {
        for j in 0..3 + i % 7 {
            coo.push(i, (i * 5 + j * 13) % n, 1.0 + (j as f64) * 0.25);
        }
    }
    Arc::new(CsrMatrix::from_coo(&coo))
}

#[test]
fn execute_allocates_nothing_without_carries_and_one_buffer_otherwise() {
    let a = ragged(300);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.1).sin()).collect();
    let want = a.spmv_dense(&x);
    let mut y = vec![f64::NAN; a.nrows()];
    // Scattered through the reversal, the answer comes out reversed.
    let rows = Permutation::identity(a.nrows()).reversed();
    let want_scattered = rows.apply_inverse_to_slice(&want);

    let solo = ThreadTeam::new(1);
    for kind in KernelKind::all() {
        let kernel = kind.plan(&a, 1);
        let (allocs, _) = counted(|| kernel.execute(&solo, &x, &mut y));
        assert_eq!(allocs, 0, "{kind}: one-span execute touched the heap");
        assert_eq!(y, want, "{kind}");
        let (allocs, _) = counted(|| kernel.execute_scatter(&solo, &x, &mut y, &rows));
        assert_eq!(allocs, 0, "{kind}: one-span scatter touched the heap");
        assert_eq!(y, want_scattered, "{kind}");
    }

    for spans in [4usize, 8] {
        assert!(
            KernelKind::TwoD.cut(&a, spans).carrying() > 0,
            "the {spans}-span case must cut rows across spans"
        );
        // Inline on the caller, and dispatched to a matching team: the
        // workers' side of a dispatch must not allocate either (their
        // start-up may, hence the uncounted first call).
        for lanes in [1, spans] {
            let team = ThreadTeam::new(lanes);
            for kind in KernelKind::all() {
                let kernel = kind.plan(&a, spans);
                assert_eq!(kernel.num_threads(), spans);
                kernel.execute(&team, &x, &mut y);
                y.fill(f64::NAN);
                let (allocs, bytes) = counted(|| kernel.execute(&team, &x, &mut y));
                if kind.cut(&a, spans).carrying() == 0 {
                    assert_eq!(allocs, 0, "{kind} x{spans} on {lanes}: no carry to hold");
                }
                assert!(
                    allocs <= 1,
                    "{kind} x{spans} on {lanes}: {allocs} allocations"
                );
                assert!(bytes <= 32 * spans, "{kind} x{spans} on {lanes}: {bytes} B");
                for (got, want) in y.iter().zip(&want) {
                    assert!((got - want).abs() < 1e-12 * (1.0 + want.abs()));
                }
                let direct = y.clone();
                y.fill(f64::NAN);
                let scatter = counted(|| kernel.execute_scatter(&team, &x, &mut y, &rows));
                assert_eq!(
                    scatter,
                    (allocs, bytes),
                    "{kind} x{spans} on {lanes}: scatter allocates what execute does"
                );
                assert_eq!(y, rows.apply_inverse_to_slice(&direct), "{kind} x{spans}");
            }
        }
    }
}
