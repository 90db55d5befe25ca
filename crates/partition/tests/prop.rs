//! Property-based tests for the partitioning substrate.

use partition::{
    edge_cut, part_weights, partition_graph, partition_hypergraph, vertex_separator, BisectWork,
};
use proptest::prelude::*;
use sparsegraph::{Graph, Hypergraph};
use sparsemat::{CooMatrix, CsrMatrix};

/// Strategy: a random connected-ish symmetric matrix (ring + chords) so
/// partitioners always have work to do.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (
        8usize..80,
        proptest::collection::vec((0usize..1000, 0usize..1000), 0..120),
    )
        .prop_map(|(n, chords)| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0);
                coo.push_symmetric(i, (i + 1) % n, 1.0); // ring keeps it connected
            }
            for (a, b) in chords {
                let (i, j) = (a % n, b % n);
                if i != j {
                    coo.push_symmetric(i.max(j), i.min(j), 1.0);
                }
            }
            Graph::from_matrix(&CsrMatrix::from_coo(&coo)).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partition_covers_all_parts_within_balance(g in graph_strategy(), k in 2usize..9) {
        let parts = partition_graph(&g, k);
        prop_assert_eq!(parts.len(), g.num_vertices());
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
        let w = part_weights(&g, &parts, k);
        prop_assert_eq!(w.iter().sum::<i64>(), g.total_vertex_weight());
        // Every part weight stays within a generous bound of its target
        // (recursive bisection compounds the per-level tolerance).
        let target = g.total_vertex_weight() as f64 / k as f64;
        for &pw in &w {
            prop_assert!(
                (pw as f64) <= target * 1.6 + 2.0,
                "part weight {pw} vs target {target}"
            );
        }
    }

    #[test]
    fn partition_is_deterministic(g in graph_strategy(), k in 2usize..6) {
        prop_assert_eq!(partition_graph(&g, k), partition_graph(&g, k));
    }

    #[test]
    fn cut_is_at_most_total_edges(g in graph_strategy(), k in 2usize..6) {
        let parts = partition_graph(&g, k);
        let cut = edge_cut(&g, &parts);
        prop_assert!(cut >= 0);
        prop_assert!(cut <= g.total_edge_weight());
    }

    #[test]
    fn separator_disconnects(g in graph_strategy()) {
        let mut ws = BisectWork::default();
        let s = vertex_separator(&g, 99, &mut ws);
        let n = g.num_vertices();
        prop_assert_eq!(s.left.len() + s.right.len() + s.separator.len(), n);
        let mut side = vec![0u8; n];
        for &v in &s.right { side[v as usize] = 1; }
        for &v in &s.separator { side[v as usize] = 2; }
        for v in 0..n {
            if side[v] == 2 { continue; }
            for &u in g.neighbors(v) {
                if side[u as usize] != 2 {
                    prop_assert_eq!(side[v], side[u as usize],
                        "edge ({}, {}) crosses the separator", v, u);
                }
            }
        }
    }

    #[test]
    fn hypergraph_partition_valid(k in 2usize..6, n in 20usize..120) {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
            coo.push(i, (i * 7 + 1) % n, 1.0);
            coo.push(i, (i + 1) % n, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let h = Hypergraph::column_net(&a);
        let parts = partition_hypergraph(&h, k);
        prop_assert_eq!(parts.len(), n);
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
        // Cut never exceeds the number of nets.
        let cut = h.cut_net(&parts);
        prop_assert!(cut >= 0 && cut <= h.num_nets() as i64);
        // Determinism.
        prop_assert_eq!(parts, partition_hypergraph(&h, k));
    }
}
