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
//! the reorderings need. Every level-set traversal — the George–Liu
//! pseudo-peripheral finder's searches and Cuthill–McKee — is a run of
//! one flat, reusable [`LevelStructure`]: a queue that is the
//! component in visit order, level offsets into it, and epoch stamps,
//! so a search allocates nothing and clears nothing,
//! and the next unstamped vertex is the next component. DESIGN §9 has
//! the expansion and the argument that every executor produces the
//! same bytes. [`connected_components`] remains as the tests' oracle
//! for the components those sweeps find.

mod bfs;
mod components;
mod graph;
mod hypergraph;
mod peripheral;

pub use bfs::{LevelStructure, DEFAULT_PAR_FRONTIER_MIN};
pub use components::{connected_components, Components};
pub use graph::{Graph, LocalIds, SubgraphWork};
pub use hypergraph::Hypergraph;
pub use peripheral::pseudo_peripheral_vertex_with;
