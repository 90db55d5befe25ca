//! Property-based tests for the graph/hypergraph substrate.

use proptest::prelude::*;
use sparsegraph::{
    connected_components, pseudo_peripheral_vertex_with, Graph, Hypergraph, LevelStructure,
};
use sparsemat::{CooMatrix, CsrMatrix};
use team::Exec;

fn sym_matrix_strategy() -> impl Strategy<Value = CsrMatrix> {
    (
        2usize..60,
        proptest::collection::vec((0usize..3600, 0usize..3600), 0..150),
    )
        .prop_map(|(n, pairs)| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0);
            }
            for (a, b) in pairs {
                let (i, j) = (a % n, b % n);
                if i != j {
                    coo.push_symmetric(i.max(j), i.min(j), 1.0);
                }
            }
            CsrMatrix::from_coo(&coo)
        })
}

fn searched(g: &Graph, root: usize) -> LevelStructure {
    let mut levels = LevelStructure::new(g.num_vertices());
    levels.run_on(g, root, Exec::Sequential, usize::MAX, |_| {});
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_adjacency_is_symmetric(a in sym_matrix_strategy()) {
        let g = Graph::from_matrix(&a).unwrap();
        for v in 0..g.num_vertices() {
            for &u in g.neighbors(v) {
                prop_assert!(
                    g.neighbors(u as usize).contains(&(v as u32)),
                    "edge ({v}, {u}) missing its reverse"
                );
                prop_assert_ne!(u as usize, v, "self-loop at {}", v);
            }
        }
        // Handshake lemma.
        let degree_sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn bfs_levels_partition_the_component(a in sym_matrix_strategy()) {
        let g = Graph::from_matrix(&a).unwrap();
        let b = searched(&g, 0);
        // Levels are disjoint, tile the visit order, and cover exactly
        // the root's component.
        let mut level_of = vec![u32::MAX; g.num_vertices()];
        let mut seen = std::collections::HashSet::new();
        for k in 0..b.depth() {
            prop_assert!(!b.level(k).is_empty(), "level {} is empty", k);
            for &v in b.level(k) {
                prop_assert!(seen.insert(v), "vertex {} in two levels", v);
                level_of[v as usize] = k as u32;
            }
        }
        prop_assert_eq!(seen.len(), b.reached().len());
        let c = connected_components(&g);
        prop_assert_eq!(seen.len(), c.members[c.component_of[0] as usize].len());
        // Edge level gap is at most 1 within the component.
        for v in 0..g.num_vertices() {
            if level_of[v] == u32::MAX { continue; }
            for &u in g.neighbors(v) {
                let d = level_of[v].abs_diff(level_of[u as usize]);
                prop_assert!(d <= 1, "edge ({v}, {u}) spans {d} levels");
            }
        }
    }

    #[test]
    fn components_partition_vertices(a in sym_matrix_strategy()) {
        let g = Graph::from_matrix(&a).unwrap();
        let c = connected_components(&g);
        let total: usize = c.members.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_vertices());
        // Edges never cross components.
        for v in 0..g.num_vertices() {
            for &u in g.neighbors(v) {
                prop_assert_eq!(c.component_of[v], c.component_of[u as usize]);
            }
        }
    }

    #[test]
    fn pseudo_peripheral_has_maximal_or_near_depth(a in sym_matrix_strategy()) {
        let g = Graph::from_matrix(&a).unwrap();
        let mut levels = LevelStructure::new(g.num_vertices());
        let p = pseudo_peripheral_vertex_with(&g, 0, &mut levels, Exec::Sequential, usize::MAX);
        let depth_p = searched(&g, p).depth();
        let depth_0 = searched(&g, 0).depth();
        prop_assert!(depth_p >= depth_0, "peripheral depth {depth_p} < start depth {depth_0}");
    }

    #[test]
    fn hypergraph_duality(a in sym_matrix_strategy()) {
        let h = Hypergraph::column_net(&a);
        prop_assert_eq!(h.num_pins(), a.nnz());
        // v in pins(j) <=> j in nets(v).
        for j in 0..h.num_nets() {
            for &v in h.net_pins(j) {
                prop_assert!(h.vertex_nets(v as usize).contains(&(j as u32)));
            }
        }
        for v in 0..h.num_vertices() {
            for &j in h.vertex_nets(v) {
                prop_assert!(h.net_pins(j as usize).contains(&(v as u32)));
            }
        }
        // Single-part assignment cuts nothing.
        let parts = vec![0u32; h.num_vertices()];
        prop_assert_eq!(h.cut_net(&parts), 0);
    }
}
