#![allow(clippy::needless_range_loop)]

//! Graph and hypergraph substrate for sparse matrix reordering.
//!
//! Reordering algorithms operate on the *undirected graph* of a
//! structurally symmetric sparse matrix: one vertex per row/column, one
//! edge per symmetric off-diagonal nonzero pair. Hypergraph-based
//! reordering uses the *column-net model* instead: one vertex per row,
//! one net (hyperedge) per column, with the net containing every row
//! that has a nonzero in that column.
//!
//! This crate provides both models plus the graph traversal machinery
//! the reorderings need: breadth-first search with level sets, the
//! George–Liu pseudo-peripheral vertex finder, and connected components.

mod bfs;
mod components;
mod graph;
mod hypergraph;
mod incremental;
mod peripheral;

pub use bfs::{
    bfs_levels, bfs_levels_with, expand_frontier_with, BfsLevels, FrontierScratch,
    DEFAULT_PAR_FRONTIER_MIN,
};
pub use components::{connected_components, Components};
pub use graph::Graph;
pub use hypergraph::Hypergraph;
pub use incremental::{ComponentDelta, IncrementalComponents};
pub use peripheral::{pseudo_peripheral_vertex, pseudo_peripheral_vertex_with};
