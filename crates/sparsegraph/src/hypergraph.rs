use sparsemat::CsrMatrix;

/// A hypergraph in pin-array form, with the dual (vertex → nets)
/// incidence also stored.
///
/// In the *column-net model* used by the paper's HP reordering (§3.3),
/// the rows of a matrix become vertices and the columns become nets: net
/// `j` contains every row with a nonzero in column `j`. Minimising the
/// cut-net metric then minimises the number of columns whose nonzeros
/// straddle a part boundary.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// Pins of each net: `pins[xpins[j]..xpins[j+1]]` are the vertices of net `j`.
    xpins: Vec<usize>,
    pins: Vec<u32>,
    /// Nets of each vertex: `nets[xnets[v]..xnets[v+1]]` are the nets containing `v`.
    xnets: Vec<usize>,
    nets: Vec<u32>,
    /// Vertex weights (unit by default; nnz-per-row for balance studies).
    vwgt: Vec<i64>,
    /// Net weights (unit: cut-net metric counts each cut net once).
    nwgt: Vec<i64>,
}

impl Hypergraph {
    /// Build the column-net hypergraph of a matrix: vertices = rows,
    /// nets = columns.
    pub fn column_net(a: &CsrMatrix) -> Hypergraph {
        let nverts = a.nrows();
        let nnets = a.ncols();
        // vertex -> nets is exactly the CSR structure.
        let xnets: Vec<usize> = a.rowptr().to_vec();
        let nets: Vec<u32> = a.colidx().to_vec();
        // net -> pins is the CSC structure.
        let mut count = vec![0usize; nnets + 1];
        for &c in a.colidx() {
            count[c as usize + 1] += 1;
        }
        for j in 0..nnets {
            count[j + 1] += count[j];
        }
        let xpins = count.clone();
        let mut pins = vec![0u32; a.nnz()];
        let mut next: Vec<usize> = count[..nnets].to_vec();
        for i in 0..nverts {
            let (cols, _) = a.row(i);
            for &c in cols {
                pins[next[c as usize]] = i as u32;
                next[c as usize] += 1;
            }
        }
        Hypergraph {
            xpins,
            pins,
            xnets,
            nets,
            vwgt: vec![1; nverts],
            nwgt: vec![1; nnets],
        }
    }

    /// Build from raw parts (used by the multilevel coarsener).
    ///
    /// The parts must describe a hypergraph: `xpins` and `xnets` start at
    /// 0, never decrease and end at the length of `pins` and `nets`;
    /// every pin is a vertex and every listed net a net; vertex `v`
    /// lists net `j` exactly as often as net `j` lists `v`; and every net
    /// weight is positive. Debug builds check all of it in O(pins),
    /// allocating nothing (the dual incidence through a 64-bit hash,
    /// which a mismatch passes with probability about 2⁻⁶⁴); release
    /// builds check nothing.
    pub fn from_parts_unchecked(
        xpins: Vec<usize>,
        pins: Vec<u32>,
        xnets: Vec<usize>,
        nets: Vec<u32>,
        vwgt: Vec<i64>,
        nwgt: Vec<i64>,
    ) -> Self {
        let h = Hypergraph {
            xpins,
            pins,
            xnets,
            nets,
            vwgt,
            nwgt,
        };
        if cfg!(debug_assertions) {
            h.assert_valid();
        }
        h
    }

    /// Panic unless the arrays satisfy `from_parts_unchecked`'s contract.
    ///
    /// The dual incidence is compared as two multisets of `(net,
    /// vertex)` pairs through an order-independent sum of a 64-bit mix
    /// of each pair, so it needs no scratch.
    fn assert_valid(&self) {
        let (nv, nn) = (self.num_vertices(), self.num_nets());
        assert_offsets("xpins", &self.xpins, nn, self.pins.len());
        assert_offsets("xnets", &self.xnets, nv, self.nets.len());
        assert!(
            self.nwgt.iter().all(|&w| w > 0),
            "a net weight is not positive"
        );
        let mix = |j: u32, v: u32| {
            let mut z = ((u64::from(j) << 32) | u64::from(v)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut by_net = 0u64;
        for j in 0..nn {
            for &v in self.net_pins(j) {
                assert!((v as usize) < nv, "net {j} has pin {v}, not a vertex");
                by_net = by_net.wrapping_add(mix(j as u32, v));
            }
        }
        let mut by_vertex = 0u64;
        for v in 0..nv {
            for &j in self.vertex_nets(v) {
                assert!((j as usize) < nn, "vertex {v} lists net {j}, not a net");
                by_vertex = by_vertex.wrapping_add(mix(j, v as u32));
            }
        }
        assert!(
            self.pins.len() == self.nets.len() && by_net == by_vertex,
            "the vertex -> nets incidence is not the transpose of net -> pins"
        );
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.nwgt.len()
    }

    /// Total number of pins.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// The vertices of net `j`.
    #[inline]
    pub fn net_pins(&self, j: usize) -> &[u32] {
        &self.pins[self.xpins[j]..self.xpins[j + 1]]
    }

    /// The nets containing vertex `v`.
    #[inline]
    pub fn vertex_nets(&self, v: usize) -> &[u32] {
        &self.nets[self.xnets[v]..self.xnets[v + 1]]
    }

    /// Vertex weight.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> i64 {
        self.vwgt[v]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[i64] {
        &self.vwgt
    }

    /// Net weight.
    #[inline]
    pub fn net_weight(&self, j: usize) -> i64 {
        self.nwgt[j]
    }

    /// Total vertex weight.
    pub fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// The cut-net objective for a given part assignment: total weight
    /// of nets whose pins span more than one part.
    ///
    /// This is the PaToH "cut-net" metric the paper selects for HP.
    pub fn cut_net(&self, part_of: &[u32]) -> i64 {
        assert_eq!(part_of.len(), self.num_vertices());
        let mut cut = 0i64;
        for j in 0..self.num_nets() {
            let pins = self.net_pins(j);
            if pins.is_empty() {
                continue;
            }
            let first = part_of[pins[0] as usize];
            if pins.iter().any(|&p| part_of[p as usize] != first) {
                cut += self.nwgt[j];
            }
        }
        cut
    }

    /// The connectivity-1 objective: `Σ_nets (λ_j − 1) · w_j`, where
    /// `λ_j` is the number of distinct parts net `j` touches. PaToH's
    /// alternative metric; corresponds to communication volume.
    pub fn connectivity_minus_one(&self, part_of: &[u32], num_parts: usize) -> i64 {
        assert_eq!(part_of.len(), self.num_vertices());
        let mut mark = vec![u32::MAX; num_parts];
        let mut total = 0i64;
        for j in 0..self.num_nets() {
            let mut lambda = 0i64;
            for &p in self.net_pins(j) {
                let part = part_of[p as usize] as usize;
                if mark[part] != j as u32 {
                    mark[part] = j as u32;
                    lambda += 1;
                }
            }
            if lambda > 1 {
                total += (lambda - 1) * self.nwgt[j];
            }
        }
        total
    }
}

/// Panic unless `offsets` holds `count + 1` entries that run from 0 to
/// `len` without decreasing.
fn assert_offsets(name: &str, offsets: &[usize], count: usize, len: usize) {
    assert_eq!(
        offsets.len(),
        count + 1,
        "{name}: offsets for {count} lists"
    );
    assert_eq!(offsets[0], 0, "{name} does not start at 0");
    assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{name} decreases");
    assert_eq!(
        offsets[count], len,
        "{name} does not end at its array's length"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ x x 0 ]
        // [ 0 x x ]
        // [ x 0 x ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 0, 1.0);
        coo.push(2, 2, 1.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn column_net_structure() {
        let h = Hypergraph::column_net(&sample());
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_nets(), 3);
        assert_eq!(h.num_pins(), 6);
        assert_eq!(h.net_pins(0), &[0, 2]); // column 0 touches rows 0 and 2
        assert_eq!(h.net_pins(1), &[0, 1]);
        assert_eq!(h.net_pins(2), &[1, 2]);
        assert_eq!(h.vertex_nets(0), &[0, 1]);
    }

    #[test]
    fn cut_net_counts_straddling_nets() {
        let h = Hypergraph::column_net(&sample());
        // All in one part: no cut.
        assert_eq!(h.cut_net(&[0, 0, 0]), 0);
        // Rows {0} vs {1,2}: nets 0 and 1 are cut, net 2 internal.
        assert_eq!(h.cut_net(&[0, 1, 1]), 2);
        // All separate: every net cut.
        assert_eq!(h.cut_net(&[0, 1, 2]), 3);
    }

    #[test]
    fn connectivity_metric() {
        let h = Hypergraph::column_net(&sample());
        assert_eq!(h.connectivity_minus_one(&[0, 0, 0], 1), 0);
        // Each cut net spans exactly 2 parts here, so conn-1 == cut-net.
        assert_eq!(h.connectivity_minus_one(&[0, 1, 1], 2), 2);
        assert_eq!(h.connectivity_minus_one(&[0, 1, 2], 3), 3);
    }

    /// `sample()`'s hypergraph as raw parts, for `from_parts_unchecked`.
    type Parts = (
        Vec<usize>,
        Vec<u32>,
        Vec<usize>,
        Vec<u32>,
        Vec<i64>,
        Vec<i64>,
    );

    fn sample_parts() -> Parts {
        (
            vec![0, 2, 4, 6],
            vec![0, 2, 0, 1, 1, 2],
            vec![0, 2, 4, 6],
            vec![0, 1, 1, 2, 0, 2],
            vec![1; 3],
            vec![1; 3],
        )
    }

    fn assemble((xpins, pins, xnets, nets, vwgt, nwgt): Parts) -> Hypergraph {
        Hypergraph::from_parts_unchecked(xpins, pins, xnets, nets, vwgt, nwgt)
    }

    #[test]
    fn from_parts_accepts_a_consistent_hypergraph() {
        let (xpins, pins, xnets, mut nets, vwgt, mut nwgt) = sample_parts();
        // A vertex may list its nets in any order, and weights exceed 1.
        nets.swap(0, 1);
        nwgt[2] = 5;
        let h = assemble((xpins, pins, xnets, nets, vwgt, nwgt));
        assert_eq!(h.net_pins(1), &[0, 1]);
        assert_eq!(h.net_weight(2), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "net weight is not positive")]
    fn from_parts_rejects_a_zero_net_weight() {
        let mut parts = sample_parts();
        parts.5[1] = 0;
        assemble(parts);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the transpose")]
    fn from_parts_rejects_an_inconsistent_dual() {
        let mut parts = sample_parts();
        parts.3[0] = 2; // vertex 0 lists net 2, which does not list it
        assemble(parts);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a vertex")]
    fn from_parts_rejects_a_pin_out_of_range() {
        let mut parts = sample_parts();
        parts.1[5] = 3;
        assemble(parts);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "xnets decreases")]
    fn from_parts_rejects_decreasing_offsets() {
        let mut parts = sample_parts();
        parts.2 = vec![0, 3, 2, 6];
        assemble(parts);
    }

    #[test]
    fn empty_column_makes_empty_net() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let h = Hypergraph::column_net(&a);
        assert_eq!(h.net_pins(1), &[] as &[u32]);
        assert_eq!(h.cut_net(&[0, 1]), 1); // only net 0 is cut
    }
}
