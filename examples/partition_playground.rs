//! Partitioning playground: the substrate beneath GP, HP and ND.
//!
//! Partitions a mesh graph k ways with the multilevel graph
//! partitioner, compares the edge cut against a naive contiguous split
//! and a random assignment, then does the same on the column-net
//! hypergraph with the cut-net objective, and finally extracts a
//! vertex separator (the ND building block).
//!
//! ```text
//! cargo run --release --example partition_playground [k]
//! ```

use partition::{
    edge_cut, part_weights, partition_graph, partition_hypergraph, vertex_separator, BisectWork,
};
use reorder_study::prelude::*;
use sparsegraph::{Graph, Hypergraph};

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let a = corpus::mesh2d(80, 80);
    let g = Graph::from_matrix(&a).expect("square symmetric");
    println!(
        "graph: {} vertices, {} edges (80x80 mesh); partitioning {k} ways\n",
        g.num_vertices(),
        g.num_edges()
    );

    // Multilevel partitioner.
    let parts = partition_graph(&g, k);
    let cut = edge_cut(&g, &parts);
    let weights = part_weights(&g, &parts, k);
    println!("multilevel GP : cut {cut:5}   part weights {weights:?}");

    // Contiguous split (what the 1D kernel does implicitly).
    let n = g.num_vertices();
    let chunk = n.div_ceil(k);
    let contiguous: Vec<u32> = (0..n).map(|v| (v / chunk) as u32).collect();
    println!(
        "contiguous    : cut {:5}   (natural order blocks)",
        edge_cut(&g, &contiguous)
    );

    // Random assignment (worst case).
    let random: Vec<u32> = (0..n)
        .map(|v| ((v.wrapping_mul(2654435761)) % k) as u32)
        .collect();
    println!(
        "random        : cut {:5}   (no locality at all)\n",
        edge_cut(&g, &random)
    );

    // Hypergraph: column-net model, cut-net objective.
    let h = Hypergraph::column_net(&a);
    let hparts = partition_hypergraph(&h, k);
    let hparts_cut = h.cut_net(&hparts);
    let contiguous_cut = h.cut_net(&contiguous);
    println!("hypergraph cut-net: multilevel {hparts_cut}, contiguous {contiguous_cut}");
    println!(
        "hypergraph conn-1 : multilevel {}, contiguous {}\n",
        h.connectivity_minus_one(&hparts, k),
        h.connectivity_minus_one(&contiguous, k)
    );

    // Vertex separator — the ND building block.
    let mut ws = BisectWork::default();
    let sep = vertex_separator(&g, 42, &mut ws);
    println!(
        "vertex separator: |left| = {}, |right| = {}, |separator| = {} (ideal ~80 for a 80x80 mesh)",
        sep.left.len(),
        sep.right.len(),
        sep.separator.len()
    );
}
