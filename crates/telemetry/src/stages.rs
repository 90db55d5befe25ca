//! Every trace stage and trace instant of the workspace, declared once.
//!
//! A [`Stage`] is what [`crate::TraceCtx::span`], [`crate::TraceCtx::complete`],
//! [`crate::TraceCtx::instant`] and [`crate::stage()`] take, so a call site
//! names a stage by its const here and cannot type a name by hand. The
//! declaration also carries the stage's place in a served request's trace,
//! which is what `tracecheck` checks dumped traces against:
//!
//! - `parents`: the stages this one opens under (the span its recorded
//!   `parent` id names). Empty means unconstrained: a root, a board-only
//!   stage, or a segment whose parent the caller picks (team lanes).
//! - `first_touch`: recorded by a request that misses every cache, so some
//!   dumped first touch must show it.
//! - `once_per_request`: exactly one per served request's trace.
//!
//! [`ALL`] lists them; a trace name outside it is an error in a trace dump.
//! A test that needs a name of its own declares a local
//! `const X: Stage = Stage::scratch("...")`.

/// The crate whose code a stage's time is spent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Servetier,
    Policy,
    Engine,
    Reorder,
    Sparsemat,
    Spmv,
    /// A test's own scratch stage.
    Test,
}

/// One declared trace stage (a span) or trace instant (a marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    pub name: &'static str,
    pub parents: &'static [Stage],
    pub layer: Layer,
    pub first_touch: bool,
    pub once_per_request: bool,
}

impl Stage {
    /// A stage outside [`ALL`], for a test that needs a name of its own.
    pub const fn scratch(name: &'static str) -> Stage {
        leaf(name, &[], Layer::Test)
    }
}

const fn leaf(name: &'static str, parents: &'static [Stage], layer: Layer) -> Stage {
    Stage {
        name,
        parents,
        layer,
        first_touch: false,
        once_per_request: false,
    }
}

const fn first_touch(name: &'static str, parents: &'static [Stage], layer: Layer) -> Stage {
    Stage {
        first_touch: true,
        ..leaf(name, parents, layer)
    }
}

const fn once(name: &'static str, parents: &'static [Stage], layer: Layer) -> Stage {
    Stage {
        once_per_request: true,
        ..first_touch(name, parents, layer)
    }
}

/// Declares each stage as a `pub const` and lists them all in [`ALL`].
macro_rules! declare {
    ($($(#[$doc:meta])* $id:ident = $kind:ident($name:literal, $parents:expr, $layer:ident);)*) => {
        $($(#[$doc])* pub const $id: Stage = $kind($name, $parents, Layer::$layer);)*
        /// Every declared stage and instant.
        pub const ALL: &[Stage] = &[$($id),*];
    };
}

/// The reordering sub-stages' parents: the engine's reorder span, or
/// the splice that re-orders a delta descendant's dirty components.
const REORDERING: &[Stage] = &[ENGINE_REORDER, REORDER_SPLICE];

declare! {
    // The serving tier: one request from submit to answer.
    TIER_REQUEST = once("tier.request", &[], Servetier);
    TIER_WAIT = leaf("tier.wait", &[TIER_REQUEST], Servetier);
    ADMISSION_WAIT = once("admission.wait", &[TIER_REQUEST], Servetier);
    TIER_EXECUTE = once("tier.execute", &[TIER_REQUEST], Servetier);
    POLICY_DECIDE = once("policy.decide", &[TIER_EXECUTE], Policy);
    REORDER_PERMUTE = first_touch("reorder.permute", &[TIER_EXECUTE], Sparsemat);
    TIER_PLAN = first_touch("tier.plan", &[TIER_EXECUTE], Spmv);
    TIER_SPMV = once("tier.spmv", &[TIER_EXECUTE], Spmv);
    /// Board only: a dispatcher waiting for work.
    TIER_DISPATCH_WAIT = leaf("tier.dispatch.wait", &[], Servetier);
    TIER_SHED = leaf("tier.shed", &[TIER_REQUEST], Servetier);
    TIER_EXPIRED = leaf("tier.expired", &[TIER_REQUEST, TIER_EXECUTE], Servetier);
    TIER_FAILED = leaf("tier.failed", &[TIER_REQUEST], Servetier);
    // The ordering engine, under the tier's execute span.
    ENGINE_REQUEST = first_touch("engine.request", &[TIER_EXECUTE], Engine);
    ENGINE_CACHE_LOOKUP = first_touch("engine.cache.lookup", &[ENGINE_REQUEST], Engine);
    ENGINE_WAIT = leaf("engine.wait", &[ENGINE_REQUEST], Engine);
    ENGINE_REORDER = first_touch("engine.reorder", &[ENGINE_REQUEST], Engine);
    ENGINE_COALESCED = leaf("engine.coalesced", &[ENGINE_REQUEST], Engine);
    ENGINE_EXPIRED = leaf("engine.expired", &[ENGINE_REQUEST], Engine);
    // The reordering pipeline's sub-stages.
    REORDER_SPLICE = leaf("reorder.splice", &[ENGINE_REORDER], Reorder);
    REORDER_SYMMETRIZE = leaf("reorder.symmetrize", REORDERING, Reorder);
    REORDER_LEVELS = leaf("reorder.levels", REORDERING, Reorder);
    REORDER_AMD_SELECT = leaf("reorder.amd.select", REORDERING, Reorder);
    REORDER_AMD_ELIMINATE = leaf("reorder.amd.eliminate", REORDERING, Reorder);
    REORDER_AMD_UPDATE = leaf("reorder.amd.update", REORDERING, Reorder);
    // SpMV measurement and the thread team's per-lane segments, which
    // record under whatever context the caller attached.
    SPMV_MEASURE = leaf("spmv.measure", &[], Spmv);
    SPMV_TEAM_PARK = leaf("spmv.team.park", &[], Spmv);
    SPMV_TEAM_DISPATCH = leaf("spmv.team.dispatch", &[], Spmv);
    SPMV_TEAM_COMPUTE = leaf("spmv.team.compute", &[], Spmv);
}

/// The declared stage called `name`.
pub fn lookup(name: &str) -> Option<&'static Stage> {
    ALL.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_parents_declared() {
        for (i, stage) in ALL.iter().enumerate() {
            assert!(
                ALL[..i].iter().all(|s| s.name != stage.name),
                "{} declared twice",
                stage.name
            );
            for parent in stage.parents {
                assert_eq!(lookup(parent.name), Some(parent), "{}", stage.name);
            }
            assert_ne!(stage.layer, Layer::Test, "{}", stage.name);
        }
    }

    #[test]
    fn once_per_request_stages_are_first_touches_under_the_request_root() {
        for stage in ALL.iter().filter(|s| s.once_per_request) {
            assert!(stage.first_touch, "{}", stage.name);
            let mut at = stage;
            while let Some(parent) = at.parents.first() {
                at = parent;
            }
            assert_eq!(at.name, TIER_REQUEST.name, "{}", stage.name);
        }
    }
}
