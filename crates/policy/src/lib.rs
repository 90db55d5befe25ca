//! Adaptive reordering policy driven by an amortization ledger.
//!
//! The paper's central practical question — *when is reordering worth
//! it?* — depends on three quantities: the one-time reorder cost, the
//! per-SpMV saving the new order buys, and how many times the matrix
//! will be multiplied. This crate decides, per serving request and
//! before any reordering work runs, whether to pay for an ordering,
//! from what this host has measured and nothing else: an
//! **amortization ledger** ([`AmortizationLedger`]) tracks, per
//! ordering (`content_hash` × algorithm), the reorder cost actually
//! paid against the observed SpMV times on both sides, published as
//! `policy.*` telemetry.
//!
//! [`PolicyEngine::decide`] runs the cascade; the serving tier records
//! its output as the `policy.decide` flight-recorder stage.

mod ledger;
mod predict;

use std::str::FromStr;
use std::sync::{Arc, Mutex};

use engine::AlgoSpec;
use sparsemat::CsrMatrix;
use telemetry::{Counter, Registry};

pub use ledger::{AmortizationLedger, Observed};
pub use predict::{FeatureSummary, Predictor};

/// How the serving tier treats reorder requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Honour every requested reordering (the pre-policy behaviour).
    Always,
    /// Serve everything in the original order.
    Never,
    /// Reorder only when the ledger's evidence says the investment
    /// pays, probing a key that keeps coming back to gather it.
    Adaptive,
}

impl PolicyMode {
    /// Stable lowercase token (CLI flag value, trace span arg).
    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyMode::Always => "always",
            PolicyMode::Never => "never",
            PolicyMode::Adaptive => "adaptive",
        }
    }
}

impl FromStr for PolicyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(PolicyMode::Always),
            "never" => Ok(PolicyMode::Never),
            "adaptive" => Ok(PolicyMode::Adaptive),
            other => Err(format!(
                "unknown policy mode '{other}' (expected always|never|adaptive)"
            )),
        }
    }
}

/// Deterministic probe point: once a key has been requested this many
/// times without reordered-side observations, the adaptive policy
/// reorders once so the ledger gets data. Keys with fewer lifetime
/// repetitions never pay (the cold-traffic guarantee).
const PROBE_AFTER: u64 = 8;

/// Observations per side required before the ledger's means decide.
const MIN_SAMPLES: u64 = 2;

/// The observed speedup must clear `1 + SPEEDUP_MARGIN` before a fresh
/// verdict says "reorder", and fall below `1 − SPEEDUP_MARGIN` before
/// an established one flips back.
const SPEEDUP_MARGIN: f64 = 0.02;

/// How a [`PolicyEngine`] decides, and where it publishes.
#[derive(Clone)]
pub struct PolicyConfig {
    /// Decision mode.
    pub mode: PolicyMode,
    /// Metrics sink; defaults to the process-global registry.
    pub registry: Option<Arc<Registry>>,
}

impl std::fmt::Debug for PolicyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyConfig")
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            mode: PolicyMode::Adaptive,
            registry: None,
        }
    }
}

/// The outcome of one policy decision.
#[derive(Debug, Clone, Copy)]
pub struct PolicyDecision {
    /// Algorithm to actually serve under (`Original` = don't reorder).
    pub algo: AlgoSpec,
    /// Which cascade rule fired — recorded on the `policy.decide` span.
    pub reason: &'static str,
}

impl PolicyDecision {
    /// True when the decision is to serve a reordered matrix.
    pub fn reorders(&self) -> bool {
        !matches!(self.algo, AlgoSpec::Original)
    }

    fn identity(reason: &'static str) -> Self {
        PolicyDecision {
            algo: AlgoSpec::Original,
            reason,
        }
    }
}

/// The policy engine: one per serving tier, shared across shards.
pub struct PolicyEngine {
    config: PolicyConfig,
    registry: Arc<Registry>,
    ledger: AmortizationLedger,
    /// `policy.decisions{choice="identity"}` and `{choice="reorder"}`.
    decisions: [Arc<Counter>; 2],
    /// `policy.reason{rule=...}` by [`PolicyDecision::reason`], each
    /// resolved in the registry on first use and kept: a decision finds
    /// its counter by scanning a handful of entries instead of
    /// formatting a name and taking the registry-wide lock, and a
    /// reason no decision has given yet stays out of `/metrics`.
    reasons: Mutex<Vec<(&'static str, Arc<Counter>)>>,
}

/// Bound on the ledger's keys: every `apply_delta` mints a new content
/// hash, so a tier with a mutator would otherwise grow it without
/// limit.
const STATE_CAPACITY: usize = engine::DEFAULT_CACHE_CAPACITY;

impl PolicyEngine {
    /// Build an engine from `config`.
    pub fn new(config: PolicyConfig) -> Self {
        let registry = config.registry.clone().unwrap_or_else(Registry::global);
        PolicyEngine {
            ledger: AmortizationLedger::new(Arc::clone(&registry), STATE_CAPACITY),
            decisions: ["identity", "reorder"]
                .map(|choice| registry.counter_labeled("policy.decisions", &[("choice", choice)])),
            reasons: Mutex::new(Vec::new()),
            registry,
            config,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> PolicyMode {
        self.config.mode
    }

    /// The amortization ledger (for reporting).
    pub fn ledger(&self) -> &AmortizationLedger {
        &self.ledger
    }

    /// Decide whether this request should be served under `requested`
    /// or in the original order. `ordering_cached` reports whether the
    /// engine already holds a computed ordering for (matrix,
    /// requested) — a sunk cost the adaptive mode should exploit
    /// rather than re-litigate.
    ///
    /// `_matrix` is inert: nothing reads it, since the ledger keys on
    /// `content_hash` alone. The parameter stays only because
    /// `sysbench` passes it, and goes with the next change to that
    /// benchmark.
    pub fn decide(
        &self,
        _matrix: &CsrMatrix,
        content_hash: u128,
        requested: AlgoSpec,
        ordering_cached: bool,
    ) -> PolicyDecision {
        let decision = self.decide_inner(content_hash, requested, ordering_cached);
        self.decisions[usize::from(decision.reorders())].inc();
        self.reason_counter(decision.reason).inc();
        decision
    }

    /// The `policy.reason{rule=reason}` counter, resolved once.
    fn reason_counter(&self, reason: &'static str) -> Arc<Counter> {
        let mut found = self
            .reasons
            .lock()
            .expect("no code path panics while holding the reason list");
        if let Some((_, counter)) = found.iter().find(|(r, _)| *r == reason) {
            return Arc::clone(counter);
        }
        let counter = self
            .registry
            .counter_labeled("policy.reason", &[("rule", reason)]);
        found.push((reason, Arc::clone(&counter)));
        counter
    }

    /// True when `count` lands on the exponential re-probe schedule:
    /// `PROBE_AFTER · 2^k` for k ≥ 1 (the k = 0 slot is the initial
    /// probe).
    fn on_reprobe_schedule(&self, count: u64) -> bool {
        let mut slot = PROBE_AFTER * 2;
        while slot < count {
            slot = slot.saturating_mul(2);
        }
        slot == count
    }

    fn decide_inner(
        &self,
        content_hash: u128,
        requested: AlgoSpec,
        ordering_cached: bool,
    ) -> PolicyDecision {
        if matches!(requested, AlgoSpec::Original) {
            return PolicyDecision::identity("requested-original");
        }
        match self.config.mode {
            PolicyMode::Always => {
                self.ledger.note_request(content_hash, requested);
                return PolicyDecision {
                    algo: requested,
                    reason: "mode-always",
                };
            }
            PolicyMode::Never => {
                self.ledger.note_request(content_hash, requested);
                return PolicyDecision::identity("mode-never");
            }
            PolicyMode::Adaptive => {}
        }

        let count = self.ledger.note_request(content_hash, requested);
        let observed = self.ledger.observed(content_hash, requested);
        let baseline = self.ledger.observed(content_hash, AlgoSpec::Original);
        let reorder = |reason| PolicyDecision {
            algo: requested,
            reason,
        };

        // 1. Enough live data on both sides: the means decide, with
        //    hysteresis. A fresh verdict must clear the margin; an
        //    established one only flips when the ratio crosses the far
        //    edge of the deadband — otherwise noise on near-tie
        //    matrices oscillates the served ordering every request,
        //    and each flip also flips which image is hot in the host
        //    caches, pinning both observed means to the boundary.
        if observed.count >= MIN_SAMPLES && baseline.count >= MIN_SAMPLES {
            let (om, bm) = (observed.mean().unwrap(), baseline.mean().unwrap());
            let ratio = bm / om;
            let win = match self.ledger.verdict(content_hash, requested) {
                Some(true) => ratio >= 1.0 - SPEEDUP_MARGIN,
                Some(false) | None => ratio > 1.0 + SPEEDUP_MARGIN,
            };
            // A losing verdict freezes the reordered side's sample
            // stream (the tier serves the original ordering), so two
            // early noise-polluted samples could condemn a genuinely
            // winning ordering forever. Re-probe on an exponential
            // schedule — request counts PROBE_AFTER·2^k — discarding
            // the distrusted samples so a fresh verdict forms from
            // current evidence; a true loss is re-condemned within
            // `MIN_SAMPLES` serves at geometrically decaying cost.
            if !win && self.on_reprobe_schedule(count) {
                self.ledger.reset_observed(content_hash, requested);
                self.registry.counter("policy.reprobes").inc();
                return reorder("re-probe");
            }
            self.ledger.set_verdict(content_hash, requested, win);
            return if win {
                reorder("empirical-win")
            } else {
                PolicyDecision::identity("empirical-loss")
            };
        }

        // 2. An ordering the engine already computed is a sunk cost:
        //    serving under it costs nothing extra.
        if ordering_cached {
            return reorder("cached-ordering");
        }

        // 3. Deterministic probe: a key that keeps coming back earns
        //    one reorder so the ledger gets reordered-side data.
        if count >= PROBE_AFTER && observed.count < MIN_SAMPLES {
            self.registry.counter("policy.probes").inc();
            return reorder("probe");
        }

        // 4. No evidence yet that the ordering pays: serve the
        //    original order, which also feeds the baseline.
        PolicyDecision::identity("await-evidence")
    }

    /// Feed one observed SpMV service time (seconds) for (hash, algo)
    /// into the ledger.
    pub fn observe_spmv(&self, content_hash: u128, algo: AlgoSpec, seconds: f64) {
        self.ledger.record_spmv(content_hash, algo, seconds);
    }

    /// Record that the reorder cost for (hash, algo) was actually paid
    /// (`seconds` of wall clock, from the engine's ordering).
    pub fn record_reorder_paid(&self, content_hash: u128, algo: AlgoSpec, seconds: f64) {
        self.ledger.record_reorder_paid(content_hash, algo, seconds);
    }

    /// Net seconds the policy's paid orderings have saved so far
    /// (refreshes the `policy.ledger.*` gauges).
    pub fn net_saved_seconds(&self) -> f64 {
        self.ledger.net_saved_seconds()
    }

    /// The ledger's answer to the amortisation question: would paying
    /// for `algo` on this matrix pay off over `reps` repetitions of
    /// traffic, `reps · (baseline_mean − algo_mean) > paid cost`?
    /// `None` until both sides hold `MIN_SAMPLES` (2) observations and
    /// a reorder cost has been paid.
    pub fn would_amortize(&self, content_hash: u128, algo: AlgoSpec, reps: u64) -> Option<bool> {
        let baseline = self.ledger.observed(content_hash, AlgoSpec::Original);
        let observed = self.ledger.observed(content_hash, algo);
        if observed.count < MIN_SAMPLES || baseline.count < MIN_SAMPLES {
            return None;
        }
        let paid = self.ledger.paid_for(content_hash, algo)?;
        let saving = baseline.mean()? - observed.mean()?;
        Some(reps as f64 * saving > paid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(mode: PolicyMode) -> (PolicyEngine, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let config = PolicyConfig {
            mode,
            registry: Some(Arc::clone(&registry)),
        };
        (PolicyEngine::new(config), registry)
    }

    fn matrix() -> CsrMatrix {
        corpus::scramble(&corpus::mesh2d(48, 48), 3)
    }

    #[test]
    fn always_and_never_are_unconditional() {
        let a = matrix();
        let (always, _) = engine(PolicyMode::Always);
        let d = always.decide(&a, 1, AlgoSpec::Rcm, false);
        assert_eq!(d.algo, AlgoSpec::Rcm);
        assert_eq!(d.reason, "mode-always");

        let (never, _) = engine(PolicyMode::Never);
        let d = never.decide(&a, 1, AlgoSpec::Rcm, true);
        assert!(!d.reorders());
        assert_eq!(d.reason, "mode-never");
    }

    #[test]
    fn adaptive_cold_key_never_pays_below_probe_threshold() {
        let a = matrix();
        let (policy, _) = engine(PolicyMode::Adaptive);
        for i in 1..8 {
            let d = policy.decide(&a, 42, AlgoSpec::Rcm, false);
            assert!(!d.reorders(), "request {i} reordered ({})", d.reason);
            assert_eq!(d.reason, "await-evidence");
            // The tier serves in original order and reports the time.
            policy.observe_spmv(42, AlgoSpec::Original, 0.001);
        }
    }

    #[test]
    fn adaptive_probes_at_the_threshold_then_follows_the_evidence() {
        let a = matrix();
        let (policy, _) = engine(PolicyMode::Adaptive);
        for _ in 1..8 {
            assert!(!policy.decide(&a, 7, AlgoSpec::Rcm, false).reorders());
            policy.observe_spmv(7, AlgoSpec::Original, 0.004);
        }
        // No reordered-side evidence yet.
        assert_eq!(policy.would_amortize(7, AlgoSpec::Rcm, 1000), None);
        // 8th request probes.
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, false);
        assert_eq!(d.reason, "probe");
        assert!(d.reorders());
        policy.record_reorder_paid(7, AlgoSpec::Rcm, 0.050);
        // First reordered sample is warm-up (discarded by the ledger).
        policy.observe_spmv(7, AlgoSpec::Rcm, 0.009);
        // Still below MIN_SAMPLES on the reordered side: cached
        // ordering keeps serving (sunk cost).
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
        assert_eq!(d.reason, "cached-ordering");
        policy.observe_spmv(7, AlgoSpec::Rcm, 0.002);
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
        assert_eq!(d.reason, "cached-ordering");
        policy.observe_spmv(7, AlgoSpec::Rcm, 0.002);
        // Both sides sampled: the 2x-faster reordered path wins.
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
        assert_eq!(d.reason, "empirical-win");
        // The ledger prices the paid 50 ms against the 2 ms saved per
        // request: 10 requests do not pay for it, 100 do.
        assert_eq!(policy.would_amortize(7, AlgoSpec::Rcm, 10), Some(false));
        assert_eq!(policy.would_amortize(7, AlgoSpec::Rcm, 100), Some(true));
    }

    #[test]
    fn adaptive_abandons_a_losing_reordering() {
        let a = matrix();
        let (policy, _) = engine(PolicyMode::Adaptive);
        policy.decide(&a, 9, AlgoSpec::Nd, false);
        // Observations say ND made SpMV slower on this matrix.
        for _ in 0..3 {
            policy.observe_spmv(9, AlgoSpec::Original, 0.002);
            policy.observe_spmv(9, AlgoSpec::Nd, 0.003);
        }
        let d = policy.decide(&a, 9, AlgoSpec::Nd, true);
        assert_eq!(d.reason, "empirical-loss");
        assert!(!d.reorders());
    }

    #[test]
    fn reprobe_recovers_from_a_noise_polluted_verdict() {
        let a = matrix();
        let (policy, _) = engine(PolicyMode::Adaptive);
        // Early samples falsely condemn RCM (polluted: 6ms vs 4ms).
        for _ in 0..3 {
            policy.observe_spmv(7, AlgoSpec::Original, 0.004);
            policy.observe_spmv(7, AlgoSpec::Rcm, 0.006);
        }
        // Requests 1..=15: the loss verdict holds and the reordered
        // side gets no new samples — without re-probing, forever.
        for _ in 1..16 {
            let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
            assert_eq!(d.reason, "empirical-loss");
        }
        // Request 16 = PROBE_AFTER·2: exponential re-probe fires,
        // discarding the distrusted samples.
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
        assert_eq!(d.reason, "re-probe");
        assert!(d.reorders());
        // Fresh evidence shows the ordering actually wins 2x.
        policy.observe_spmv(7, AlgoSpec::Rcm, 0.002);
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
        assert_eq!(d.reason, "cached-ordering");
        policy.observe_spmv(7, AlgoSpec::Rcm, 0.002);
        let d = policy.decide(&a, 7, AlgoSpec::Rcm, true);
        assert_eq!(d.reason, "empirical-win");
    }

    #[test]
    fn decisions_are_counted_in_telemetry() {
        let a = matrix();
        let (policy, registry) = engine(PolicyMode::Adaptive);
        policy.decide(&a, 5, AlgoSpec::Rcm, false);
        let snap = registry.snapshot();
        let identity = snap
            .counter_labeled("policy.decisions", &[("choice", "identity")])
            .unwrap_or(0);
        assert_eq!(identity, 1);
    }

    /// Every `apply_delta` mints a new content hash: per-matrix state
    /// stays bounded, and forgetting a key moves no total.
    #[test]
    fn per_matrix_state_is_bounded_and_eviction_keeps_the_totals() {
        let a = corpus::mesh2d(4, 4);
        let (policy, registry) = engine(PolicyMode::Adaptive);
        let unbounded = AmortizationLedger::new(Arc::new(Registry::new()), usize::MAX);
        // Binary fractions, so sums are exact in any order: each key
        // nets 2 counted reps · (0.5 − 0.25) − 0.125 paid = 0.375 s.
        for hash in 0..10_000u128 {
            policy.decide(&a, hash, AlgoSpec::Rcm, false);
            unbounded.note_request(hash, AlgoSpec::Rcm);
            policy.record_reorder_paid(hash, AlgoSpec::Rcm, 0.125);
            unbounded.record_reorder_paid(hash, AlgoSpec::Rcm, 0.125);
            for _ in 0..3 {
                policy.observe_spmv(hash, AlgoSpec::Original, 0.5);
                unbounded.record_spmv(hash, AlgoSpec::Original, 0.5);
                policy.observe_spmv(hash, AlgoSpec::Rcm, 0.25);
                unbounded.record_spmv(hash, AlgoSpec::Rcm, 0.25);
            }
        }
        assert_eq!(unbounded.keys(), 20_000);
        let net = policy.net_saved_seconds();
        assert_eq!(net, unbounded.net_saved_seconds());
        assert_eq!(net, 3750.0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge("policy.ledger.keys"),
            Some(STATE_CAPACITY as i64)
        );
        assert_eq!(snap.gauge("policy.ledger.paid_us"), Some(1_250_000_000));
    }

    #[test]
    fn mode_parses_from_cli_tokens() {
        assert_eq!("always".parse::<PolicyMode>().unwrap(), PolicyMode::Always);
        assert_eq!("never".parse::<PolicyMode>().unwrap(), PolicyMode::Never);
        assert_eq!(
            "adaptive".parse::<PolicyMode>().unwrap(),
            PolicyMode::Adaptive
        );
        assert!("sometimes".parse::<PolicyMode>().is_err());
        assert_eq!(PolicyMode::Adaptive.as_str(), "adaptive");
    }
}
