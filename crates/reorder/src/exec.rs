//! Execution context for the ordering hot path: which executor the
//! parallel stages run on, and which trace the sub-stage spans record
//! under.

use sparsegraph::Graph;
use sparsemat::{is_structurally_symmetric, symmetrize_pattern_on, CsrMatrix, SparseError};
use team::{Exec, ThreadTeam};
use telemetry::trace::TraceCtx;

/// How a reordering runs: an [`Exec`] (inline or on a [`ThreadTeam`])
/// plus an optional [`TraceCtx`] under which
/// [`ReorderAlgorithm::compute_on`](crate::ReorderAlgorithm::compute_on)
/// implementations record the `reorder.symmetrize` / `reorder.levels`
/// sub-stage spans.
///
/// The executor changes *where* the work runs, never *what* it
/// produces: every parallel stage is byte-identical to its sequential
/// counterpart (DESIGN §9; [`sparsegraph::LevelStructure::run_on`] and
/// [`sparsemat::symmetrize_pattern_on`]).
#[derive(Debug, Clone)]
pub struct ReorderExec<'a> {
    exec: Exec<'a>,
    trace: TraceCtx,
    frontier_min: usize,
    amd_round_min: usize,
}

impl<'a> ReorderExec<'a> {
    /// Run everything inline on the calling thread, untraced — the
    /// behaviour of the plain `compute` entry points.
    pub fn sequential() -> ReorderExec<'static> {
        ReorderExec {
            exec: Exec::Sequential,
            trace: TraceCtx::disabled(),
            frontier_min: sparsegraph::DEFAULT_PAR_FRONTIER_MIN,
            amd_round_min: crate::amd::DEFAULT_AMD_ROUND_MIN,
        }
    }

    /// Run the parallel stages on `team`, untraced.
    pub fn on_team(team: &'a ThreadTeam) -> ReorderExec<'a> {
        ReorderExec {
            exec: Exec::Team(team),
            trace: TraceCtx::disabled(),
            frontier_min: sparsegraph::DEFAULT_PAR_FRONTIER_MIN,
            amd_round_min: crate::amd::DEFAULT_AMD_ROUND_MIN,
        }
    }

    /// Record sub-stage spans under `ctx` (pass the `engine.reorder`
    /// span's child context so the stages nest beneath it).
    pub fn with_trace(mut self, ctx: TraceCtx) -> Self {
        self.trace = ctx;
        self
    }

    /// Set the level-set parallel-expansion cutover: BFS frontiers
    /// narrower than `frontier_min` expand sequentially even on a
    /// team. The ordering produced is identical for every value —
    /// this tunes dispatch overhead only (default
    /// [`sparsegraph::DEFAULT_PAR_FRONTIER_MIN`]; DESIGN §9 records
    /// the measurement behind it).
    pub fn with_frontier_min(mut self, frontier_min: usize) -> Self {
        self.frontier_min = frontier_min;
        self
    }

    /// The level-set sequential-fallback threshold in effect.
    pub fn frontier_min(&self) -> usize {
        self.frontier_min
    }

    /// Set the AMD round-update cutover: elimination rounds touching
    /// fewer than `amd_round_min` variables run their quotient-graph
    /// update inline even on a team. Like
    /// [`ReorderExec::with_frontier_min`], the ordering produced is
    /// identical for every value — this tunes dispatch overhead only
    /// (default [`crate::amd::DEFAULT_AMD_ROUND_MIN`]; DESIGN §9
    /// records the reasoning).
    pub fn with_amd_round_min(mut self, amd_round_min: usize) -> Self {
        self.amd_round_min = amd_round_min;
        self
    }

    /// The AMD round-update sequential-fallback threshold in effect.
    pub fn amd_round_min(&self) -> usize {
        self.amd_round_min
    }

    /// The executor the parallel stages dispatch on.
    pub fn exec(&self) -> Exec<'a> {
        self.exec
    }

    /// The trace context sub-stage spans record under (disabled by
    /// default).
    pub fn trace(&self) -> &TraceCtx {
        &self.trace
    }
}

/// Build the undirected ordering graph of `a` under a
/// `reorder.symmetrize` span: symmetrise on the context's executor if
/// the pattern is unsymmetric, then construct the adjacency without
/// re-verifying symmetry.
pub fn build_ordering_graph(a: &CsrMatrix, rx: &ReorderExec<'_>) -> Result<Graph, SparseError> {
    let mut span = rx.trace().span("reorder.symmetrize");
    if is_structurally_symmetric(a) {
        span.arg("symmetrized", "false");
        Graph::from_symmetric_matrix(a)
    } else {
        span.arg("symmetrized", "true");
        let s = symmetrize_pattern_on(a, rx.exec())?;
        Graph::from_symmetric_matrix(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    #[test]
    fn sequential_context_is_inline_and_untraced() {
        let rx = ReorderExec::sequential();
        assert_eq!(rx.exec().lanes(), 1);
        assert!(!rx.trace().is_recording());
    }

    #[test]
    fn team_context_exposes_lane_count() {
        let registry = telemetry::Registry::new_arc();
        let team = ThreadTeam::new_in(&registry, 3);
        let rx = ReorderExec::on_team(&team);
        assert_eq!(rx.exec().lanes(), 3);
    }

    #[test]
    fn frontier_min_defaults_and_overrides() {
        let rx = ReorderExec::sequential();
        assert_eq!(rx.frontier_min(), sparsegraph::DEFAULT_PAR_FRONTIER_MIN);
        let tuned = ReorderExec::sequential().with_frontier_min(256);
        assert_eq!(tuned.frontier_min(), 256);
    }

    #[test]
    fn amd_round_min_defaults_and_overrides() {
        let rx = ReorderExec::sequential();
        assert_eq!(rx.amd_round_min(), crate::amd::DEFAULT_AMD_ROUND_MIN);
        let tuned = ReorderExec::sequential().with_amd_round_min(16);
        assert_eq!(tuned.amd_round_min(), 16);
    }

    #[test]
    fn ordering_graph_matches_from_matrix() {
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 3, 1.0); // one-directional: forces symmetrisation
        coo.push_symmetric(1, 2, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        let via_ctx = build_ordering_graph(&a, &ReorderExec::sequential()).unwrap();
        let direct = Graph::from_matrix(&a).unwrap();
        assert_eq!(via_ctx, direct);
    }
}
