//! Cost-model-driven adaptive reordering policy with an online
//! amortization feedback loop.
//!
//! The paper's central practical question — *when is reordering worth
//! it?* — depends on three quantities: the one-time reorder cost, the
//! per-SpMV saving the new order buys, and how many times the matrix
//! will be multiplied. This crate decides, per serving request and
//! before any reordering work runs, whether to pay for an ordering:
//!
//! 1. a **predictor** ([`Predictor`]) estimates per-algorithm SpMV
//!    speedup and reorder cost from cheap `spfeatures` metrics plus
//!    `archsim` cache-model *ratios* (never model-absolute seconds);
//! 2. an **amortization ledger** ([`AmortizationLedger`]) tracks, per
//!    cached ordering, the reorder cost actually paid against the
//!    cumulative observed SpMV savings, published as `policy.*`
//!    telemetry;
//! 3. an **online corrector** ([`OnlineCorrector`]) blends predicted
//!    and observed speedups per feature bucket, so repeated traffic
//!    converges on the empirically best choice — including "don't
//!    reorder at all".
//!
//! [`PolicyEngine::decide`] runs the cascade; the serving tier records
//! its output as the `policy.decide` flight-recorder stage.

mod corrector;
mod ledger;
mod predict;

use std::str::FromStr;
use std::sync::{Arc, Mutex};

use engine::{AlgoSpec, CacheMetrics, LruCache};
use sparsemat::CsrMatrix;
use telemetry::{Counter, Gauge, Registry};

pub use corrector::OnlineCorrector;
pub use ledger::{AmortizationLedger, Observed};
pub use predict::{default_nnz_per_s, FeatureBucket, FeatureSummary, Predictor};

/// How the serving tier treats reorder requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Honour every requested reordering (the pre-policy behaviour).
    Always,
    /// Serve everything in the original order.
    Never,
    /// Reorder only when the cost model and the feedback loop say the
    /// investment will amortise.
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
/// reorders once so the ledger and corrector get data. Keys with fewer
/// lifetime repetitions never pay (the cold-traffic guarantee).
const PROBE_AFTER: u64 = 8;

/// Observations per side required before empirical means override the
/// model.
const MIN_SAMPLES: u64 = 2;

/// Predicted speedup must clear `1 + SPEEDUP_MARGIN` before the model
/// may recommend paying for a reorder.
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
    /// Model-predicted SpMV speedup of the chosen path vs original
    /// order (1.0 for identity decisions).
    pub predicted_speedup: f64,
    /// Model-predicted one-time reorder cost of `algo`, seconds.
    pub predicted_reorder_seconds: f64,
    /// Repetitions needed to amortise that cost (0 when not computed).
    pub break_even_reps: f64,
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
            predicted_speedup: 1.0,
            predicted_reorder_seconds: 0.0,
            break_even_reps: 0.0,
            reason,
        }
    }
}

/// Metric handles by `&'static str` key, each resolved in the registry
/// on first use and kept: a decision finds its series by scanning a
/// dozen entries instead of formatting a name and taking the
/// registry-wide lock, and a series nothing has reported yet stays out
/// of `/metrics`.
struct Handles<T>(Mutex<Vec<(&'static str, Arc<T>)>>);

impl<T> Handles<T> {
    fn new() -> Self {
        Handles(Mutex::new(Vec::new()))
    }

    /// The handle under `key`, from `resolve` the first time.
    fn get(&self, key: &'static str, resolve: impl FnOnce() -> Option<Arc<T>>) -> Option<Arc<T>> {
        let mut found = self
            .0
            .lock()
            .expect("no code path panics while holding the handle list");
        if let Some((_, handle)) = found.iter().find(|(k, _)| *k == key) {
            return Some(Arc::clone(handle));
        }
        let handle = resolve()?;
        found.push((key, Arc::clone(&handle)));
        Some(handle)
    }
}

/// The policy engine: one per serving tier, shared across shards.
pub struct PolicyEngine {
    config: PolicyConfig,
    registry: Arc<Registry>,
    predictor: Predictor,
    ledger: AmortizationLedger,
    corrector: OnlineCorrector,
    /// Feature summaries cached per content hash (`policy.features.*`)
    /// — computed once, on the first adaptive decision for a matrix.
    features: LruCache<u128, FeatureSummary>,
    /// `policy.decisions{choice="identity"}` and `{choice="reorder"}`.
    decisions: [Arc<Counter>; 2],
    /// `policy.reason{rule=...}` by [`PolicyDecision::reason`].
    reasons: Handles<Counter>,
    /// `reorder.<algo>.nnz_per_s` by [`AlgoSpec::name`], once the
    /// reorder crate has published it.
    rates: Handles<Gauge>,
}

/// Bound on each kind of per-matrix policy state (ledger keys, feature
/// summaries): every `apply_delta` mints a new content hash, so a tier
/// with a mutator would otherwise grow them without limit.
const STATE_CAPACITY: usize = engine::DEFAULT_CACHE_CAPACITY;

impl PolicyEngine {
    /// Build an engine from `config`.
    pub fn new(config: PolicyConfig) -> Self {
        let registry = config.registry.clone().unwrap_or_else(Registry::global);
        PolicyEngine {
            predictor: Predictor::new(),
            ledger: AmortizationLedger::new(Arc::clone(&registry), STATE_CAPACITY),
            corrector: OnlineCorrector::new(0.3, Arc::clone(&registry)),
            features: LruCache::new(
                STATE_CAPACITY,
                CacheMetrics::new(&registry, "policy.features", &[]),
            ),
            decisions: ["identity", "reorder"]
                .map(|choice| registry.counter_labeled("policy.decisions", &[("choice", choice)])),
            reasons: Handles::new(),
            rates: Handles::new(),
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

    /// The predictor in use.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// The online corrector (for reporting).
    pub fn corrector(&self) -> &OnlineCorrector {
        &self.corrector
    }

    /// Decide whether this request should be served under `requested`
    /// or in the original order. `ordering_cached` reports whether the
    /// engine already holds a computed ordering for (matrix,
    /// requested) — a sunk cost the adaptive mode should exploit
    /// rather than re-litigate.
    pub fn decide(
        &self,
        matrix: &CsrMatrix,
        content_hash: u128,
        requested: AlgoSpec,
        ordering_cached: bool,
    ) -> PolicyDecision {
        let decision = self.decide_inner(matrix, content_hash, requested, ordering_cached);
        self.decisions[usize::from(decision.reorders())].inc();
        self.reasons
            .get(decision.reason, || {
                let labels = [("rule", decision.reason)];
                Some(self.registry.counter_labeled("policy.reason", &labels))
            })
            .expect("a counter is created when absent")
            .inc();
        decision
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
        matrix: &CsrMatrix,
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
                    predicted_speedup: 1.0,
                    predicted_reorder_seconds: 0.0,
                    break_even_reps: 0.0,
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
        let summary = self.summary_for(content_hash, matrix);
        let bucket = summary.bucket();
        let raw = self.predictor.speedup(&summary, requested);
        let predicted = self.corrector.correct(bucket, requested.name(), raw);
        let cost =
            self.predictor
                .reorder_seconds(summary.nnz, requested, self.calibrated_rate(requested));

        let observed = self.ledger.observed(content_hash, requested);
        let baseline = self.ledger.observed(content_hash, AlgoSpec::Original);

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
                return PolicyDecision {
                    algo: requested,
                    predicted_speedup: predicted,
                    predicted_reorder_seconds: cost,
                    break_even_reps: 0.0,
                    reason: "re-probe",
                };
            }
            self.ledger.set_verdict(content_hash, requested, win);
            return if win {
                PolicyDecision {
                    algo: requested,
                    predicted_speedup: ratio,
                    predicted_reorder_seconds: cost,
                    break_even_reps: 0.0,
                    reason: "empirical-win",
                }
            } else {
                PolicyDecision::identity("empirical-loss")
            };
        }

        // 2. An ordering the engine already computed is a sunk cost:
        //    serving under it costs nothing extra.
        if ordering_cached {
            return PolicyDecision {
                algo: requested,
                predicted_speedup: predicted,
                predicted_reorder_seconds: 0.0,
                break_even_reps: 0.0,
                reason: "cached-ordering",
            };
        }

        // 3. Deterministic probe: a key that keeps coming back earns
        //    one reorder so the feedback loop gets reordered-side data.
        if count >= PROBE_AFTER && observed.count < MIN_SAMPLES {
            self.registry.counter("policy.probes").inc();
            return PolicyDecision {
                algo: requested,
                predicted_speedup: predicted,
                predicted_reorder_seconds: cost,
                break_even_reps: 0.0,
                reason: "probe",
            };
        }

        // 4. Model decision: pay only when the predicted saving clears
        //    the break-even point within the repetitions seen so far
        //    (count is the best available proxy for future traffic).
        if predicted > 1.0 + SPEEDUP_MARGIN {
            if let Some(base_mean) = baseline.mean() {
                let saving_frac = 1.0 - 1.0 / predicted;
                let break_even = cost / (base_mean * saving_frac);
                if count as f64 >= break_even {
                    return PolicyDecision {
                        algo: requested,
                        predicted_speedup: predicted,
                        predicted_reorder_seconds: cost,
                        break_even_reps: break_even,
                        reason: "predicted-amortized",
                    };
                }
                let mut d = PolicyDecision::identity("below-break-even");
                d.predicted_speedup = predicted;
                d.predicted_reorder_seconds = cost;
                d.break_even_reps = break_even;
                return d;
            }
            // No host baseline yet: serve original once to measure it.
            return PolicyDecision::identity("await-baseline");
        }
        PolicyDecision::identity("no-gain-predicted")
    }

    /// Feed one observed SpMV service time (seconds) for (hash, algo)
    /// back into the ledger, and — once both sides of a matrix have
    /// data — into the corrector's residual for the matrix's bucket.
    pub fn observe_spmv(&self, content_hash: u128, algo: AlgoSpec, seconds: f64) {
        self.ledger.record_spmv(content_hash, algo, seconds);
        if matches!(algo, AlgoSpec::Original) {
            return;
        }
        let observed = self.ledger.observed(content_hash, algo);
        let baseline = self.ledger.observed(content_hash, AlgoSpec::Original);
        if observed.count < MIN_SAMPLES || baseline.count < MIN_SAMPLES {
            return;
        }
        let Some(summary) = self.features.peek(&content_hash) else {
            return;
        };
        let (om, bm) = (observed.mean().unwrap(), baseline.mean().unwrap());
        if om > 0.0 {
            let raw = self.predictor.speedup(&summary, algo);
            self.corrector
                .observe(summary.bucket(), algo.name(), raw, bm / om);
        }
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

    /// The policy's best current estimate of the amortisation
    /// question: would paying for `algo` on this matrix pay off over
    /// `reps` repetitions of traffic? Uses observed per-SpMV means
    /// when both sides have `MIN_SAMPLES` (2) samples, otherwise the
    /// (corrector-adjusted) predicted speedup; the cost is the price
    /// actually paid if one was, else the model estimate.
    /// `None` until a baseline mean and a feature summary exist.
    pub fn would_amortize(&self, content_hash: u128, algo: AlgoSpec, reps: u64) -> Option<bool> {
        if matches!(algo, AlgoSpec::Original) {
            return Some(false);
        }
        let baseline = self.ledger.observed(content_hash, AlgoSpec::Original);
        let observed = self.ledger.observed(content_hash, algo);
        let base_mean = baseline.mean()?;
        let summary = self.features.peek(&content_hash)?;
        let cost = self.ledger.paid_for(content_hash, algo).unwrap_or_else(|| {
            self.predictor
                .reorder_seconds(summary.nnz, algo, self.calibrated_rate(algo))
        });
        let saving = if observed.count >= MIN_SAMPLES && baseline.count >= MIN_SAMPLES {
            base_mean - observed.mean().unwrap()
        } else {
            let raw = self.predictor.speedup(&summary, algo);
            let predicted = self.corrector.correct(summary.bucket(), algo.name(), raw);
            base_mean * (1.0 - 1.0 / predicted)
        };
        if saving <= 0.0 {
            return Some(false);
        }
        Some(reps as f64 * saving > cost)
    }

    fn summary_for(&self, content_hash: u128, matrix: &CsrMatrix) -> FeatureSummary {
        self.features
            .get_or_insert_with(content_hash, || self.predictor.summarize(matrix))
            .0
    }

    /// Live reorder throughput (nnz/s) for `algo`, calibrated from the
    /// `reorder.<algo>.nnz_per_s` gauge the reorder crate publishes.
    fn calibrated_rate(&self, algo: AlgoSpec) -> Option<f64> {
        self.rates
            .get(algo.name(), || {
                let name = format!("reorder.{}.nnz_per_s", algo.name().to_lowercase());
                self.registry.find_gauge(&name)
            })
            .map(|g| g.get() as f64)
            .filter(|r| *r > 0.0)
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
        assert!(d.predicted_speedup > 1.5);
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
    fn amd_reorder_cost_reads_the_live_gauge() {
        let a = matrix();
        let (policy, registry) = engine(PolicyMode::Adaptive);
        let nnz = a.nnz() as f64;
        // Drive the key to the probe threshold with no calibration
        // yet: the probe prices AMD at the conservative default rate.
        for _ in 1..8 {
            policy.decide(&a, 11, AlgoSpec::Amd, false);
            policy.observe_spmv(11, AlgoSpec::Original, 0.004);
        }
        let cold = policy.decide(&a, 11, AlgoSpec::Amd, false);
        assert_eq!(cold.reason, "probe");
        let want = nnz / default_nnz_per_s(AlgoSpec::Amd);
        assert!(
            (cold.predicted_reorder_seconds - want).abs() < 1e-12,
            "cold AMD cost {} != default-rate cost {want}",
            cold.predicted_reorder_seconds
        );

        // Once the reorder crate publishes a live throughput (the
        // `reorder.amd.nnz_per_s` gauge from `timed_components_on`),
        // the next pricing uses it instead of the default.
        registry.gauge("reorder.amd.nnz_per_s").set(8_000_000);
        let hot = policy.decide(&a, 11, AlgoSpec::Amd, false);
        assert_eq!(hot.reason, "probe");
        let want = nnz / 8e6;
        assert!(
            (hot.predicted_reorder_seconds - want).abs() < 1e-12,
            "calibrated AMD cost {} != gauge-rate cost {want}",
            hot.predicted_reorder_seconds
        );
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
        assert_eq!(
            snap.gauge("policy.features.resident"),
            Some(STATE_CAPACITY as i64)
        );
        assert_eq!(
            snap.counter("policy.features.evictions"),
            Some(10_000 - STATE_CAPACITY as u64)
        );
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
