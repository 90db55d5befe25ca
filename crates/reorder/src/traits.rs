use crate::component::{assemble_pieces, ComponentOrdering, ComponentRange};
use crate::exec::{build_ordering_graph, ReorderExec};
use sparsegraph::Graph;
use sparsemat::{CsrMatrix, Permutation, SparseError};
use std::borrow::Cow;
use std::time::{Duration, Instant};
use team::Exec;

/// The outcome of computing a reordering: a permutation and whether it
/// must be applied symmetrically (rows *and* columns) or to rows only.
#[derive(Debug, Clone)]
pub struct ReorderResult {
    /// The computed permutation (`order[new] = old`).
    pub perm: Permutation,
    /// True for symmetric orderings (RCM, AMD, ND, GP, HP); false for
    /// Gray, which permutes rows only (§3.3).
    pub symmetric: bool,
}

impl ReorderResult {
    /// Apply the reordering to a matrix, producing the permuted matrix.
    pub fn apply(&self, a: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
        self.apply_on(a, Exec::Sequential)
    }

    /// [`ReorderResult::apply`] on an executor: the permutation is
    /// applied with a parallel row copy after a prefix sum over the
    /// permuted row lengths (see
    /// [`CsrMatrix::permute_symmetric_on`]).
    pub fn apply_on(&self, a: &CsrMatrix, exec: Exec<'_>) -> Result<CsrMatrix, SparseError> {
        if self.symmetric {
            a.permute_symmetric_on(&self.perm, exec)
        } else {
            Ok(a.permute_rows_on(&self.perm, exec))
        }
    }

    /// Carry a dense input vector into the reordered index space.
    ///
    /// A symmetric reordering produces `B = P·A·Pᵀ`, so `B·(P·x)`
    /// equals `P·(A·x)` and the input must be permuted alongside the
    /// matrix. A row-only reordering (`B = P·A`, e.g. Gray) leaves the
    /// column space untouched, so the input passes through unchanged.
    pub fn permute_input(&self, x: &[f64]) -> Vec<f64> {
        if self.symmetric {
            self.perm.apply_to_slice(x)
        } else {
            x.to_vec()
        }
    }

    /// Carry an SpMV result computed on the reordered matrix back to
    /// the caller's original index space (the inverse row permutation).
    /// Both symmetric and row-only reorderings permute rows, so the
    /// output always needs unpermuting. Together with
    /// [`ReorderResult::permute_input`] this closes the serving loop:
    /// `unpermute_output(B · permute_input(x)) == A·x` up to
    /// floating-point summation order.
    pub fn unpermute_output(&self, y: &[f64]) -> Vec<f64> {
        self.perm.apply_inverse_to_slice(y)
    }
}

/// A sparse matrix reordering algorithm.
///
/// Implementations must be deterministic: the same matrix always
/// produces the same permutation (seeded RNGs only), so experiments are
/// reproducible.
pub trait ReorderAlgorithm {
    /// Short display name matching the paper's Table 1 ("RCM", "GP", ...).
    fn name(&self) -> &'static str;

    /// Compute the reordering for a square matrix in an execution
    /// context: algorithms with a parallel path (RCM, AMD, ND) run it
    /// on the context's executor and record their sub-stage spans
    /// under its trace. The permutation is **byte-identical** for
    /// every executor.
    fn compute_on(&self, a: &CsrMatrix, rx: &ReorderExec<'_>)
        -> Result<ReorderResult, SparseError>;

    /// [`ReorderAlgorithm::compute_on`] inline on the calling thread,
    /// untraced.
    fn compute(&self, a: &CsrMatrix) -> Result<ReorderResult, SparseError> {
        self.compute_on(a, &ReorderExec::sequential())
    }

    /// Compute the reordering and measure the wall-clock time taken
    /// (the quantity reported in Table 5 of the paper).
    fn compute_timed(&self, a: &CsrMatrix) -> Result<TimedReordering, SparseError> {
        let start = Instant::now();
        let result = self.compute(a)?;
        Ok(TimedReordering {
            result,
            elapsed: start.elapsed(),
        })
    }

    /// Whether this algorithm is *component-structured*: its ordering
    /// decomposes into independent per-component sub-permutations
    /// arranged by [`ReorderAlgorithm::component_layout`], so deltas
    /// can be served by re-ordering dirty components only (see
    /// [`crate::splice_ordering_on`]). RCM and AMD are; global
    /// algorithms (ND, GP, HP, Gray) are not.
    fn supports_components(&self) -> bool {
        false
    }

    /// Order the connected components of the (symmetrised) ordering
    /// graph that hold a vertex of `seeds`, which ascend: each seed no
    /// earlier component holds is the component's least vertex, its
    /// canonical key. Each component's final sub-permutation — exactly
    /// the bytes the full ordering places in its range — is appended to
    /// `order`, and its `(key, start, len)` to `ranges`, in ascending
    /// key order. Called only when
    /// [`ReorderAlgorithm::supports_components`] holds; the default
    /// appends nothing.
    fn order_components_on(
        &self,
        g: &Graph,
        seeds: &mut dyn Iterator<Item = usize>,
        order: &mut Vec<u32>,
        ranges: &mut Vec<ComponentRange>,
        rx: &ReorderExec<'_>,
    ) {
        let _ = (g, seeds, order, ranges, rx);
    }

    /// Layout discipline: sort the component ranges into final
    /// concatenation order. Must be a total order on the keys (unique
    /// component minima) so the layout is independent of enumeration
    /// order. The default is ascending key.
    fn component_layout(&self, ranges: &mut [ComponentRange]) {
        ranges.sort_unstable_by_key(|r| r.key);
    }

    /// Compute the ordering together with its explicit component→range
    /// map, or `Ok(None)` when the algorithm is not
    /// component-structured. When `Some`, the flat order is
    /// byte-identical to [`ReorderAlgorithm::compute_on`].
    fn compute_components_on(
        &self,
        a: &CsrMatrix,
        rx: &ReorderExec<'_>,
    ) -> Result<Option<ComponentOrdering>, SparseError> {
        if !self.supports_components() {
            return Ok(None);
        }
        let g = build_ordering_graph(a, rx)?;
        let n = g.num_vertices();
        let (mut order, mut ranges) = (Vec::with_capacity(n), Vec::new());
        self.order_components_on(&g, &mut (0..n), &mut order, &mut ranges, rx);
        Ok(Some(assemble_pieces(self, order, ranges)))
    }
}

/// A reordering together with the time it took to compute.
#[derive(Debug, Clone)]
pub struct TimedReordering {
    /// The reordering itself.
    pub result: ReorderResult,
    /// Wall-clock computation time.
    pub elapsed: Duration,
}

/// A reordering plus, when the algorithm is component-structured, its
/// component→range map — what the engine caches so later deltas can be
/// spliced instead of recomputed.
#[derive(Debug, Clone)]
pub struct TimedComponentReordering {
    /// The reordering itself.
    pub result: ReorderResult,
    /// Component ranges in layout order, `None` for global algorithms.
    pub ranges: Option<Vec<ComponentRange>>,
    /// Wall-clock computation time.
    pub elapsed: Duration,
}

/// Compute an ordering under telemetry, in an execution context
/// (parallel stages on its executor, sub-stage spans under its trace).
/// This is the one instrumented entry point every serving path
/// computes permutations through — Table 5's per-algorithm cost
/// ranking, as live metrics: the measured wall-clock, the same number
/// as the returned `elapsed`, is recorded into the registry histogram
/// `reorder.<algo>` (nanoseconds, e.g. `reorder.rcm`) on success and
/// failure alike; a success updates the throughput gauge
/// `reorder.<algo>.nnz_per_s` (the live counterpart of the paper's
/// "SpMV iterations to amortise" ratio) and a failure increments
/// `reorder.failed`. Component-structured algorithms also return their
/// component range map (via
/// [`ReorderAlgorithm::compute_components_on`]); global ones take the
/// flat path and return `ranges: None`.
pub fn timed_components_on(
    registry: &telemetry::Registry,
    algo: &dyn ReorderAlgorithm,
    a: &CsrMatrix,
    rx: &ReorderExec<'_>,
) -> Result<TimedComponentReordering, SparseError> {
    let start = Instant::now();
    let computed = match algo.compute_components_on(a, rx) {
        Ok(Some(co)) => co
            .into_parts()
            .map(|(result, ranges)| (result, Some(ranges))),
        Ok(None) => algo.compute_on(a, rx).map(|result| (result, None)),
        Err(e) => Err(e),
    };
    let elapsed = start.elapsed();
    // This runs on the requesting thread, inside the interval the ledger
    // bills as compute time: an existing series is found by `&str`,
    // and only a first recording pays for the name it is created under.
    let (latency, throughput) = series_names(algo.name());
    registry
        .find_histogram(&latency)
        .unwrap_or_else(|| registry.histogram(&latency))
        .record_duration(elapsed);
    match &computed {
        Ok(_) => {
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                registry
                    .find_gauge(&throughput)
                    .unwrap_or_else(|| registry.gauge(&throughput))
                    .set((a.nnz() as f64 / secs) as i64);
            }
        }
        Err(_) => registry.counter("reorder.failed").inc(),
    }
    computed.map(|(result, ranges)| TimedComponentReordering {
        result,
        ranges,
        elapsed,
    })
}

/// `reorder.<algo>` and `reorder.<algo>.nnz_per_s` (lower-cased
/// [`ReorderAlgorithm::name`]): static for the algorithms of this
/// crate, formatted for an implementation from outside it.
fn series_names(algo: &str) -> (Cow<'static, str>, Cow<'static, str>) {
    const SERIES: [(&str, &str, &str); 7] = [
        ("RCM", "reorder.rcm", "reorder.rcm.nnz_per_s"),
        ("AMD", "reorder.amd", "reorder.amd.nnz_per_s"),
        ("ND", "reorder.nd", "reorder.nd.nnz_per_s"),
        ("GP", "reorder.gp", "reorder.gp.nnz_per_s"),
        ("HP", "reorder.hp", "reorder.hp.nnz_per_s"),
        ("Gray", "reorder.gray", "reorder.gray.nnz_per_s"),
        ("Original", "reorder.original", "reorder.original.nnz_per_s"),
    ];
    match SERIES.iter().find(|(name, ..)| *name == algo) {
        Some(&(_, latency, throughput)) => (Cow::Borrowed(latency), Cow::Borrowed(throughput)),
        None => {
            let latency = format!("reorder.{}", algo.to_lowercase());
            let throughput = format!("{latency}.nnz_per_s");
            (Cow::Owned(latency), Cow::Owned(throughput))
        }
    }
}

/// The identity "ordering" — the baseline every speedup in the paper is
/// measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Original;

impl ReorderAlgorithm for Original {
    fn name(&self) -> &'static str {
        "Original"
    }

    fn compute_on(&self, a: &CsrMatrix, _: &ReorderExec<'_>) -> Result<ReorderResult, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        Ok(ReorderResult {
            perm: Permutation::identity(a.nrows()),
            symmetric: true,
        })
    }
}

/// The full algorithm suite of the study, in the paper's column order:
/// RCM, AMD, ND, GP, HP, Gray. `num_parts` configures GP (the paper uses
/// the core count of the target machine) and HP (the paper fixes 128).
pub fn all_algorithms(
    gp_parts: usize,
    hp_parts: usize,
) -> Vec<Box<dyn ReorderAlgorithm + Send + Sync>> {
    vec![
        Box::new(crate::Rcm),
        Box::new(crate::Amd::default()),
        Box::new(crate::Nd),
        Box::new(crate::Gp::new(gp_parts)),
        Box::new(crate::Hp::new(hp_parts)),
        Box::new(crate::Gray),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn small() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push_symmetric(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 2, 4.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn original_is_identity() {
        let a = small();
        let r = Original.compute(&a).unwrap();
        assert!(r.perm.is_identity());
        assert!(r.symmetric);
        assert_eq!(r.apply(&a).unwrap(), a);
    }

    #[test]
    fn original_rejects_rectangular() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(2, 3));
        assert!(Original.compute(&a).is_err());
    }

    #[test]
    fn compute_timed_reports_duration() {
        let a = small();
        let t = Original.compute_timed(&a).unwrap();
        assert!(t.result.perm.is_identity());
        assert!(t.elapsed.as_nanos() > 0 || t.elapsed.is_zero());
    }

    #[test]
    fn timed_components_records_histogram_gauge_and_failures() {
        let registry = telemetry::Registry::new_arc();
        let rx = ReorderExec::sequential();
        let a = small();
        let t = timed_components_on(&registry, &crate::Rcm, &a, &rx).unwrap();
        assert_eq!(t.result.perm.len(), 3);
        let snap = registry.snapshot();
        let hist = snap.histogram("reorder.rcm").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(u128::from(hist.sum), t.elapsed.as_nanos().max(1));
        assert!(snap.counter("reorder.failed").is_none());
        let nnz_per_s = snap
            .gauge("reorder.rcm.nnz_per_s")
            .expect("throughput gauge recorded");
        assert!(nnz_per_s > 0, "nnz/s gauge should be positive: {nnz_per_s}");

        // Failures are recorded too: the attempt is still timed and the
        // failure counter increments.
        let bad = CsrMatrix::from_coo(&CooMatrix::new(2, 3));
        assert!(timed_components_on(&registry, &Original, &bad, &rx).is_err());
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("reorder.original").unwrap().count, 1);
        assert_eq!(snap.counter("reorder.failed"), Some(1));
    }

    #[test]
    fn static_series_names_are_the_formatted_ones() {
        let mut algos = all_algorithms(8, 8);
        algos.push(Box::new(Original));
        for algo in &algos {
            let (latency, throughput) = series_names(algo.name());
            assert!(
                matches!(
                    (&latency, &throughput),
                    (Cow::Borrowed(_), Cow::Borrowed(_))
                ),
                "{} formats its series names per call",
                algo.name()
            );
            let lower = algo.name().to_lowercase();
            assert_eq!(latency, format!("reorder.{lower}"));
            assert_eq!(throughput, format!("reorder.{lower}.nnz_per_s"));
        }
        let (latency, throughput) = series_names("Custom");
        assert_eq!(
            (latency.as_ref(), throughput.as_ref()),
            ("reorder.custom", "reorder.custom.nnz_per_s")
        );
    }

    #[test]
    fn all_algorithms_has_six_entries_in_paper_order() {
        let algs = all_algorithms(16, 128);
        let names: Vec<&str> = algs.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["RCM", "AMD", "ND", "GP", "HP", "Gray"]);
    }
}
