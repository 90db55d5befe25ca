use sparsemat::{is_structurally_symmetric, symmetrize_pattern, CsrMatrix, SparseError};

/// An undirected graph in adjacency-array (CSR-like) form, with integer
/// vertex and edge weights.
///
/// The adjacency of vertex `v` is `adjncy[xadj[v]..xadj[v+1]]`; each
/// undirected edge `{u, v}` is stored twice (once per endpoint) with the
/// same weight. Self-loops are never stored. Weights default to 1 and
/// accumulate during multilevel coarsening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    vwgt: Vec<i64>,
    ewgt: Vec<i64>,
}

impl Graph {
    /// Build a graph from raw adjacency arrays with unit weights.
    ///
    /// The caller must supply a symmetric adjacency structure (each edge
    /// listed from both endpoints) with no self-loops; this is verified.
    pub fn from_adjacency(xadj: Vec<usize>, adjncy: Vec<u32>) -> Result<Self, SparseError> {
        let n = xadj.len().saturating_sub(1);
        if xadj.is_empty() || xadj[0] != 0 || *xadj.last().unwrap() != adjncy.len() {
            return Err(SparseError::InvalidStructure(
                "xadj must start at 0 and end at adjncy.len()".into(),
            ));
        }
        for v in 0..n {
            if xadj[v] > xadj[v + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "xadj not monotone at vertex {v}"
                )));
            }
            for &u in &adjncy[xadj[v]..xadj[v + 1]] {
                if u as usize >= n {
                    return Err(SparseError::InvalidStructure(format!(
                        "neighbour {u} out of range for {n} vertices"
                    )));
                }
                if u as usize == v {
                    return Err(SparseError::InvalidStructure(format!(
                        "self-loop at vertex {v}"
                    )));
                }
            }
        }
        // Verify symmetry with a degree-count matching argument:
        // build reverse counts and compare.
        let mut seen = std::collections::HashSet::new();
        for v in 0..n {
            for &u in &adjncy[xadj[v]..xadj[v + 1]] {
                seen.insert((v as u32, u));
            }
        }
        for &(v, u) in seen.iter() {
            if !seen.contains(&(u, v)) {
                return Err(SparseError::InvalidStructure(format!(
                    "edge ({v}, {u}) has no reverse"
                )));
            }
        }
        let nedges = adjncy.len();
        Ok(Graph {
            xadj,
            adjncy,
            vwgt: vec![1; n],
            ewgt: vec![1; nedges],
        })
    }

    /// Build from raw parts including weights, without symmetry
    /// verification (used by the coarsener where structure is correct by
    /// construction).
    pub fn from_parts_unchecked(
        xadj: Vec<usize>,
        adjncy: Vec<u32>,
        vwgt: Vec<i64>,
        ewgt: Vec<i64>,
    ) -> Self {
        debug_assert_eq!(xadj.len(), vwgt.len() + 1);
        debug_assert_eq!(adjncy.len(), ewgt.len());
        debug_assert_eq!(*xadj.last().unwrap(), adjncy.len());
        Graph {
            xadj,
            adjncy,
            vwgt,
            ewgt,
        }
    }

    /// The undirected graph of a structurally symmetric square matrix:
    /// vertices are rows/columns, edges are off-diagonal nonzeros.
    ///
    /// If the pattern is unsymmetric, it is symmetrised as `A + Aᵀ`
    /// first, matching the paper's §3.3 policy for RCM/AMD/ND/GP.
    pub fn from_matrix(a: &CsrMatrix) -> Result<Self, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        if is_structurally_symmetric(a) {
            Graph::from_symmetric_matrix(a)
        } else {
            Graph::from_symmetric_matrix(&symmetrize_pattern(a)?)
        }
    }

    /// Like [`Graph::from_matrix`] for a matrix the caller already
    /// knows to be structurally symmetric — skips the symmetry check
    /// and the symmetrisation. Callers that symmetrise explicitly (e.g.
    /// the parallel reordering path) use this to avoid checking what
    /// they just built.
    ///
    /// The pattern is *not* re-verified; an unsymmetric input yields a
    /// graph whose adjacency is not symmetric, which the traversals in
    /// this crate do not support.
    pub fn from_symmetric_matrix(m: &CsrMatrix) -> Result<Self, SparseError> {
        if !m.is_square() {
            return Err(SparseError::NotSquare {
                nrows: m.nrows(),
                ncols: m.ncols(),
            });
        }
        let n = m.nrows();
        let (rowptr, colidx) = (m.rowptr(), m.colidx());
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        // Write every entry at the tail and advance past it unless it
        // is the diagonal: no branch per entry, and the tail never
        // overtakes the entries read.
        let mut adjncy = vec![0u32; m.nnz()];
        let mut tail = 0;
        for v in 0..n {
            for &c in &colidx[rowptr[v]..rowptr[v + 1]] {
                adjncy[tail] = c;
                tail += usize::from(c as usize != v);
            }
            xadj.push(tail);
        }
        adjncy.truncate(tail);
        let nedges = adjncy.len();
        Ok(Graph {
            xadj,
            adjncy,
            vwgt: vec![1; n],
            ewgt: vec![1; nedges],
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges (each stored twice internally).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// The adjacency list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Neighbour/edge-weight pairs of vertex `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: usize) -> impl Iterator<Item = (u32, i64)> + '_ {
        let lo = self.xadj[v];
        let hi = self.xadj[v + 1];
        self.adjncy[lo..hi]
            .iter()
            .zip(self.ewgt[lo..hi].iter())
            .map(|(&u, &w)| (u, w))
    }

    /// Degree (number of adjacent vertices) of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Vertex weight of `v`.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> i64 {
        self.vwgt[v]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[i64] {
        &self.vwgt
    }

    /// Total vertex weight.
    pub fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> i64 {
        self.ewgt.iter().sum::<i64>() / 2
    }

    /// The adjacency offsets array.
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// The adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[u32] {
        &self.adjncy
    }

    /// The graph's arrays `(xadj, adjncy, vwgt, ewgt)`, the inverse of
    /// [`Graph::from_parts_unchecked`]: a caller that rebuilds graphs
    /// of one shape after another refills them instead of allocating.
    pub fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<i64>, Vec<i64>) {
        (self.xadj, self.adjncy, self.vwgt, self.ewgt)
    }

    /// The vertex-induced subgraph on `vertices` (distinct), in which
    /// local vertex `i` is `vertices[i]`, so `vertices` itself maps
    /// local ids back to global ones. It is built in `ws`'s arrays,
    /// which one extraction after another refills; one workspace
    /// serves every extraction of a recursion. The whole vertex set in
    /// ascending order — what the recursive orderings pass at their
    /// top level — is the graph itself.
    pub fn subgraph<'a>(&'a self, vertices: &[u32], ws: &'a mut SubgraphWork) -> &'a Graph {
        if vertices.len() == self.num_vertices()
            && vertices.iter().enumerate().all(|(i, &v)| v as usize == i)
        {
            return self;
        }
        let ids = &mut ws.ids;
        ids.assign(self.num_vertices(), vertices);
        let (mut xadj, mut adjncy, mut vwgt, mut ewgt) =
            ws.graph.take().map(Graph::into_parts).unwrap_or_default();
        xadj.clear();
        xadj.push(0usize);
        adjncy.clear();
        ewgt.clear();
        vwgt.clear();
        for &v in vertices {
            for (u, w) in self.neighbors_weighted(v as usize) {
                if let Some(lu) = ids.get(u) {
                    adjncy.push(lu);
                    ewgt.push(w);
                }
            }
            xadj.push(adjncy.len());
            vwgt.push(self.vwgt[v as usize]);
        }
        ws.graph.insert(Graph {
            xadj,
            adjncy,
            vwgt,
            ewgt,
        })
    }
}

/// The reused state of [`Graph::subgraph`]: the global→local map and
/// the arrays of the last subgraph built, which the next one refills.
#[derive(Debug, Default)]
pub struct SubgraphWork {
    ids: LocalIds,
    graph: Option<Graph>,
}

/// A reusable global→local vertex map for vertex subsets: after
/// [`LocalIds::assign`], [`LocalIds::get`] answers "which position of
/// the subset is `v`, if any" with one load. Slot `v` holds
/// `(epoch << 32) | local` and only slots of the current epoch count,
/// so a new subset is `epoch += 1` rather than an O(n) clear — the
/// stamping `LevelStructure` uses. The slots are allocated by the
/// first `assign`, zeroed, and only ever grow.
#[derive(Debug, Default)]
pub struct LocalIds {
    slot: Vec<u64>,
    epoch: u64,
}

impl LocalIds {
    /// Number `vertices` (distinct, each below `n`) `0, 1, …` in the
    /// order given; every other vertex becomes unnumbered.
    pub fn assign(&mut self, n: usize, vertices: &[u32]) {
        if self.slot.len() < n {
            self.slot.resize(n, 0);
        }
        self.epoch += 1;
        if self.epoch == 1 << 32 {
            self.slot.fill(0);
            self.epoch = 1;
        }
        let tag = self.epoch << 32;
        for (local, &v) in vertices.iter().enumerate() {
            self.slot[v as usize] = tag | local as u64;
        }
    }

    /// The position of `v` in the last assigned subset.
    #[inline]
    pub fn get(&self, v: u32) -> Option<u32> {
        let s = self.slot[v as usize];
        (s >> 32 == self.epoch).then_some(s as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    /// A path graph 0-1-2-3 as a symmetric matrix with diagonal.
    fn path4() -> CsrMatrix {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 2.0);
        }
        for i in 0..3 {
            coo.push_symmetric(i, i + 1, -1.0);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_matrix_drops_diagonal() {
        let g = Graph::from_matrix(&path4()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn from_unsymmetric_matrix_symmetrises() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0); // only one direction
        coo.push(2, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let g = Graph::from_matrix(&a).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn from_adjacency_validates() {
        // Valid triangle.
        let g = Graph::from_adjacency(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]).unwrap();
        assert_eq!(g.num_edges(), 3);
        // Self-loop rejected.
        assert!(Graph::from_adjacency(vec![0, 1], vec![0]).is_err());
        // Asymmetric rejected.
        assert!(Graph::from_adjacency(vec![0, 1, 1], vec![1]).is_err());
        // Out-of-range neighbour rejected.
        assert!(Graph::from_adjacency(vec![0, 1, 2], vec![5, 0]).is_err());
    }

    #[test]
    fn rectangular_matrix_rejected() {
        let coo = CooMatrix::new(2, 3);
        let a = CsrMatrix::from_coo(&coo);
        assert!(Graph::from_matrix(&a).is_err());
    }

    #[test]
    fn subgraph_extraction() {
        let g = Graph::from_matrix(&path4()).unwrap();
        let mut ws = SubgraphWork::default();
        let sg = g.subgraph(&[1, 2, 3], &mut ws);
        assert_eq!(sg.num_vertices(), 3);
        // Edges 1-2 and 2-3 survive; edge 0-1 is cut.
        assert_eq!(sg.num_edges(), 2);
        assert_eq!(sg.neighbors(0), &[1]); // local 0 = global 1, neighbour local 1 = global 2

        // The same workspace serves the next subset: {0, 1} keeps only
        // their edge, and global 2, numbered last time, is no longer
        // local.
        let pair = g.subgraph(&[0, 1], &mut ws);
        assert_eq!(pair.num_edges(), 1);
        assert_eq!(pair.num_vertices(), 2);
        assert_eq!(ws.ids.get(2), None);

        // Only the ascending whole vertex set is the graph itself; any
        // other full-length list still relabels: local 0 = global 3,
        // whose neighbour global 2 = local 1.
        assert!(std::ptr::eq(g.subgraph(&[0, 1, 2, 3], &mut ws), &g));
        let rev = g.subgraph(&[3, 2, 1, 0], &mut ws);
        assert_eq!(rev.neighbors(0), &[1]);
    }

    #[test]
    fn weighted_iteration() {
        let g = Graph::from_matrix(&path4()).unwrap();
        let pairs: Vec<_> = g.neighbors_weighted(1).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 1)]);
        assert_eq!(g.total_edge_weight(), 3);
    }
}
