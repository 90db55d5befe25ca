//! Value-level descriptions of the study's reordering algorithms.
//!
//! The cache needs a hashable, comparable key for "which algorithm,
//! with which parameters", which trait objects cannot provide — so the
//! engine speaks [`AlgoSpec`], a plain enum mirroring the constructors
//! in the `reorder` crate, and instantiates the trait object only at
//! compute time.

use reorder::{Amd, Gp, Gray, Hp, Nd, Original, Rcm, ReorderAlgorithm};

/// A reordering algorithm plus its parameters, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoSpec {
    /// The identity baseline.
    Original,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Approximate minimum degree.
    Amd,
    /// Nested dissection.
    Nd,
    /// Graph partitioning with the given part count.
    Gp { parts: usize },
    /// Hypergraph partitioning with the given part count.
    Hp { parts: usize },
    /// Gray code ordering.
    Gray,
}

impl AlgoSpec {
    /// The paper's display name ("RCM", "GP", ...), parameter-free.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoSpec::Original => "Original",
            AlgoSpec::Rcm => "RCM",
            AlgoSpec::Amd => "AMD",
            AlgoSpec::Nd => "ND",
            AlgoSpec::Gp { .. } => "GP",
            AlgoSpec::Hp { .. } => "HP",
            AlgoSpec::Gray => "Gray",
        }
    }

    /// Build the executable algorithm for this spec.
    pub fn instantiate(&self) -> Box<dyn ReorderAlgorithm + Send + Sync> {
        match *self {
            AlgoSpec::Original => Box::new(Original),
            AlgoSpec::Rcm => Box::new(Rcm),
            AlgoSpec::Amd => Box::new(Amd::default()),
            AlgoSpec::Nd => Box::new(Nd),
            AlgoSpec::Gp { parts } => Box::new(Gp::new(parts)),
            AlgoSpec::Hp { parts } => Box::new(Hp::new(parts)),
            AlgoSpec::Gray => Box::new(Gray),
        }
    }

    /// The study's six orderings in the paper's column order, matching
    /// `reorder::all_algorithms(gp_parts, hp_parts)`.
    pub fn study_suite(gp_parts: usize, hp_parts: usize) -> Vec<AlgoSpec> {
        vec![
            AlgoSpec::Rcm,
            AlgoSpec::Amd,
            AlgoSpec::Nd,
            AlgoSpec::Gp { parts: gp_parts },
            AlgoSpec::Hp { parts: hp_parts },
            AlgoSpec::Gray,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_reorder_crate_order() {
        let specs = AlgoSpec::study_suite(16, 128);
        let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["RCM", "AMD", "ND", "GP", "HP", "Gray"]);
        let algs = reorder::all_algorithms(16, 128);
        for (spec, alg) in specs.iter().zip(algs.iter()) {
            assert_eq!(spec.name(), alg.name());
        }
    }
}
