//! A cold [`Engine::get`] allocates a pinned number of blocks beyond
//! the ordering it computes — asserted with the shared counting global
//! allocator (`alloccount`, as `crates/reorder/tests/alloc.rs` is).
//! The ordering's own blocks are that file's to pin; this one pins what
//! the engine adds around them on a miss, so bookkeeping that creeps
//! into the miss path fails here.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use alloccount::counted;
use engine::{AlgoSpec, Engine, EngineConfig, MatrixHandle};
use reorder::{timed_components_on, Rcm, ReorderExec};
use sparsemat::{CooMatrix, CsrMatrix, Permutation};
use std::sync::Arc;
use team::ThreadTeam;
use telemetry::Registry;

#[global_allocator]
static GLOBAL: alloccount::Counting = alloccount::Counting;

/// The reorder allocation test's input: the 5-point 32 x 32 mesh under
/// a pseudo-random symmetric permutation.
fn scrambled_mesh() -> CsrMatrix {
    let side = 32;
    let mut coo = CooMatrix::new(side * side, side * side);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            coo.push(i, i, 4.0);
            if r + 1 < side {
                coo.push_symmetric(i, i + side, -1.0);
            }
            if c + 1 < side {
                coo.push_symmetric(i, i + 1, -1.0);
            }
        }
    }
    let mut order: Vec<u32> = (0..(side * side) as u32).collect();
    let mut state = 14u64;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let shuffle = Permutation::from_new_to_old(order).unwrap();
    CsrMatrix::from_coo(&coo)
        .permute_symmetric(&shuffle)
        .unwrap()
}

#[test]
fn a_cold_get_allocates_a_pinned_number_of_blocks_beyond_its_ordering() {
    let registry = Registry::new_arc();
    let engine = |registry: &Arc<Registry>| {
        Engine::new(EngineConfig {
            reorder_threads: 1,
            registry: Some(Arc::clone(registry)),
            ..EngineConfig::default()
        })
    };
    let mesh = MatrixHandle::from_matrix(scrambled_mesh());

    // The ordering alone, on the executor a one-lane engine computes on.
    // A first run creates the registry's `reorder.rcm` series, so
    // neither count below pays for them.
    let team = ThreadTeam::new_in(&registry, 1);
    let rx = ReorderExec::on_team(&team);
    let ordering = || drop(timed_components_on(&registry, &Rcm, mesh.matrix(), &rx).unwrap());
    ordering();
    let (alone, _) = counted(ordering);

    // A warm-up engine serves one miss on this thread first, so the
    // count below sees only what a miss allocates, not first-use state.
    engine(&registry).get(&mesh, AlgoSpec::Rcm).unwrap();
    let cold = engine(&registry);
    let (served, _) = counted(|| drop(cold.get(&mesh, AlgoSpec::Rcm).unwrap()));
    assert!(cold.peek_cached(&mesh, AlgoSpec::Rcm).is_some());

    // The cached entry's `Arc` and the ordering cache's first insert:
    // its map's table and its recency index's first node.
    assert_eq!(
        served - alone,
        3,
        "a cold Engine::get's own allocations changed ({served} against {alone})"
    );
}
