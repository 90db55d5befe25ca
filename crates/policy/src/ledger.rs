//! The amortization ledger: per cached ordering (`content_hash` ×
//! algorithm), what reorder cost was paid once and how much cumulative
//! SpMV time the ordering has saved since, relative to the observed
//! `Original` baseline for the same matrix.
//!
//! The ledger is the policy layer's ground truth — the predictor only
//! seeds decisions until enough observations land here.

use std::sync::{Arc, Mutex, MutexGuard};

use engine::{AlgoSpec, LruMap};
use telemetry::Registry;

/// Running mean of observed per-SpMV service seconds for one
/// (matrix, algorithm) pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    /// Number of SpMV executions observed.
    pub count: u64,
    /// Total observed seconds across those executions.
    pub total_seconds: f64,
}

impl Observed {
    /// Mean seconds per SpMV, or `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_seconds / self.count as f64)
    }
}

#[derive(Debug, Default)]
struct Entry {
    /// Requests routed to this (hash, algo) key, whatever was served.
    requests: u64,
    /// One-time reorder cost, recorded when the ordering was computed.
    paid_reorder_seconds: f64,
    reorder_paid: bool,
    /// The first SpMV sample per key is discarded as warm-up: it runs
    /// against cold caches (freshly built prepared matrix and plan)
    /// and would poison the steady-state mean the policy compares.
    warmup_dropped: bool,
    observed: Observed,
    /// The policy's last empirical verdict for this key (true =
    /// serving reordered), kept for hysteresis; `None` until one forms
    /// and again after [`AmortizationLedger::reset_observed`].
    verdict: Option<bool>,
}

impl Entry {
    /// What this paid ordering has netted against `baseline`, the
    /// `Original` entry of the same matrix: `count · (baseline_mean −
    /// mean) − paid_cost`.
    fn net_saved(&self, baseline: Option<&Entry>) -> f64 {
        let saved = match (
            baseline.and_then(|b| b.observed.mean()),
            self.observed.mean(),
        ) {
            (Some(base), Some(mine)) => self.observed.count as f64 * (base - mine),
            _ => 0.0,
        };
        saved - self.paid_reorder_seconds
    }
}

type Key = (u128, AlgoSpec);

/// The entries, and the totals that outlive them.
struct State {
    /// Bounded: every `apply_delta` mints a new content hash, so a
    /// tier with a mutator sees keys without end. A matrix's
    /// `Original` entry is touched after each touch of a sibling, so
    /// it is evicted after them and a sibling's eviction always finds
    /// its baseline.
    entries: LruMap<Key, Entry>,
    /// Cumulative reorder seconds paid, evicted keys included.
    paid_seconds: f64,
    /// [`Entry::net_saved`] of evicted paid orderings, as of eviction.
    evicted_net_seconds: f64,
}

impl State {
    /// Run `f` on the entry for `key` (created empty if absent), making
    /// it the most recently used.
    fn with_entry<R>(&mut self, key: Key, f: impl FnOnce(&mut Entry) -> R) -> R {
        let baseline = (key.0, AlgoSpec::Original);
        let result = match self.entries.get_mut(&key) {
            Some(entry) => f(entry),
            None => {
                let mut entry = Entry::default();
                let result = f(&mut entry);
                if let Some((old_key, old)) = self.entries.insert(key, entry) {
                    if old.reorder_paid && old_key.1 != AlgoSpec::Original {
                        let base = self.entries.peek(&(old_key.0, AlgoSpec::Original));
                        self.evicted_net_seconds += old.net_saved(base);
                    }
                }
                result
            }
        };
        if key != baseline {
            self.entries.get_mut(&baseline);
        }
        result
    }
}

/// Thread-safe ledger keyed by (`content_hash`, algorithm), holding at
/// most `capacity` keys; the least recently written is forgotten, its
/// paid and saved seconds folded into the running totals.
///
/// Telemetry (all under `policy.ledger.*`): `keys` gauge (distinct
/// resident ledger keys), `paid_us` gauge (cumulative reorder cost
/// paid), `net_saved_us` gauge (estimated SpMV seconds saved minus
/// cost, refreshed by [`AmortizationLedger::net_saved_seconds`]).
pub struct AmortizationLedger {
    state: Mutex<State>,
    registry: Arc<Registry>,
}

impl AmortizationLedger {
    /// A new empty ledger of at most `capacity` keys publishing into
    /// `registry`.
    pub fn new(registry: Arc<Registry>, capacity: usize) -> Self {
        AmortizationLedger {
            state: Mutex::new(State {
                entries: LruMap::new(capacity),
                paid_seconds: 0.0,
                evicted_net_seconds: 0.0,
            }),
            registry,
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no code path panics while holding the ledger lock")
    }

    /// Count one request for (hash, algo) and return the new total.
    /// The count drives the deterministic probe schedule.
    pub fn note_request(&self, hash: u128, algo: AlgoSpec) -> u64 {
        self.state().with_entry((hash, algo), |entry| {
            entry.requests += 1;
            entry.requests
        })
    }

    /// Requests seen so far for (hash, algo).
    pub fn requests(&self, hash: u128, algo: AlgoSpec) -> u64 {
        self.state()
            .entries
            .peek(&(hash, algo))
            .map_or(0, |e| e.requests)
    }

    /// Record the one-time reorder cost for (hash, algo). Only the
    /// first call per key counts (subsequent prepared-cache rebuilds
    /// reuse the engine's cached permutation, and re-recording would
    /// double-bill the policy). Returns `true` on first payment.
    pub fn record_reorder_paid(&self, hash: u128, algo: AlgoSpec, seconds: f64) -> bool {
        let first = {
            let mut state = self.state();
            let first = state.with_entry((hash, algo), |entry| {
                let first = !entry.reorder_paid;
                if first {
                    entry.reorder_paid = true;
                    entry.paid_reorder_seconds = seconds;
                }
                first
            });
            if first {
                state.paid_seconds += seconds;
            }
            first
        };
        if first {
            self.registry.counter("policy.ledger.reorders_paid").inc();
            self.refresh_gauges();
        }
        first
    }

    /// Record one observed SpMV execution under (hash, algo). The
    /// first sample per key is discarded as warm-up (cold prepared
    /// matrix, cold plan — the same reasoning as `MeasureConfig`'s
    /// warm-up iterations); steady-state samples accumulate.
    pub fn record_spmv(&self, hash: u128, algo: AlgoSpec, seconds: f64) {
        self.state().with_entry((hash, algo), |entry| {
            if !entry.warmup_dropped {
                entry.warmup_dropped = true;
                return;
            }
            entry.observed.count += 1;
            entry.observed.total_seconds += seconds;
        })
    }

    /// Discard the accumulated SpMV samples and the verdict formed
    /// from them for (hash, algo), keeping the request count and paid
    /// reorder cost. Used by the policy's re-probe path: a losing
    /// verdict freezes the reordered side's sample stream, so recovery
    /// starts from distrusting the old samples. The warm-up discard is
    /// *not* re-armed — the prepared state this key runs on is long
    /// since warm.
    pub fn reset_observed(&self, hash: u128, algo: AlgoSpec) {
        self.state().with_entry((hash, algo), |entry| {
            entry.observed = Observed::default();
            entry.verdict = None;
        })
    }

    /// Observed per-SpMV statistics for (hash, algo).
    pub fn observed(&self, hash: u128, algo: AlgoSpec) -> Observed {
        self.state()
            .entries
            .peek(&(hash, algo))
            .map_or(Observed::default(), |e| e.observed)
    }

    /// The last empirical verdict recorded for (hash, algo).
    pub fn verdict(&self, hash: u128, algo: AlgoSpec) -> Option<bool> {
        self.state()
            .entries
            .peek(&(hash, algo))
            .and_then(|e| e.verdict)
    }

    /// Record the empirical verdict for (hash, algo): `true` = the
    /// reordered side wins.
    pub fn set_verdict(&self, hash: u128, algo: AlgoSpec, win: bool) {
        self.state()
            .with_entry((hash, algo), |entry| entry.verdict = Some(win))
    }

    /// Number of distinct (hash, algo) keys resident.
    pub fn keys(&self) -> usize {
        self.state().entries.len()
    }

    /// The one-time reorder cost actually paid for (hash, algo), or
    /// `None` if no reorder has been billed to this key yet.
    pub fn paid_for(&self, hash: u128, algo: AlgoSpec) -> Option<f64> {
        self.state()
            .entries
            .peek(&(hash, algo))
            .filter(|e| e.reorder_paid)
            .map(|e| e.paid_reorder_seconds)
    }

    /// Cumulative reorder seconds paid across all keys ever billed.
    pub fn paid_seconds(&self) -> f64 {
        self.state().paid_seconds
    }

    /// Net benefit of every paid ordering: for each (hash, algo ≠
    /// Original) with an observed `Original` baseline for the same
    /// hash, `count · (baseline_mean − algo_mean) − paid_cost`.
    /// Positive means the reordering investment has amortised.
    /// Refreshes the `policy.ledger.*` gauges as a side effect.
    pub fn net_saved_seconds(&self) -> f64 {
        let net = {
            let state = self.state();
            let resident: f64 = state
                .entries
                .iter()
                .filter(|((_, algo), entry)| *algo != AlgoSpec::Original && entry.reorder_paid)
                .map(|((hash, _), entry)| {
                    entry.net_saved(state.entries.peek(&(*hash, AlgoSpec::Original)))
                })
                .sum();
            state.evicted_net_seconds + resident
        };
        self.refresh_gauges();
        self.registry
            .gauge("policy.ledger.net_saved_us")
            .set((net * 1e6) as i64);
        net
    }

    fn refresh_gauges(&self) {
        self.registry
            .gauge("policy.ledger.keys")
            .set(self.keys() as i64);
        self.registry
            .gauge("policy.ledger.paid_us")
            .set((self.paid_seconds() * 1e6) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: u128 = 0xfeed_f00d;

    #[test]
    fn reorder_cost_is_paid_once() {
        let ledger = AmortizationLedger::new(Arc::new(Registry::new()), 64);
        assert!(ledger.record_reorder_paid(H, AlgoSpec::Rcm, 2.0));
        assert!(!ledger.record_reorder_paid(H, AlgoSpec::Rcm, 5.0));
        assert!((ledger.paid_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn net_savings_need_a_baseline_and_amortise_over_reps() {
        let registry = Arc::new(Registry::new());
        let ledger = AmortizationLedger::new(Arc::clone(&registry), 64);
        ledger.record_reorder_paid(H, AlgoSpec::Rcm, 0.010);
        for _ in 0..11 {
            ledger.record_spmv(H, AlgoSpec::Original, 0.004);
            ledger.record_spmv(H, AlgoSpec::Rcm, 0.002);
        }
        // The first sample per side is warm-up and discarded, leaving
        // 10 counted reps * 2ms saved - 10ms paid = +10ms.
        let net = ledger.net_saved_seconds();
        assert!((net - 0.010).abs() < 1e-9, "net was {net}");
        let snap = registry.snapshot();
        let published = snap
            .gauge("policy.ledger.net_saved_us")
            .expect("net gauge published");
        assert!((published - 10_000).abs() <= 1, "gauge was {published}");
    }

    #[test]
    fn request_counts_accumulate_per_key() {
        let ledger = AmortizationLedger::new(Arc::new(Registry::new()), 64);
        assert_eq!(ledger.note_request(H, AlgoSpec::Rcm), 1);
        assert_eq!(ledger.note_request(H, AlgoSpec::Rcm), 2);
        assert_eq!(ledger.note_request(H, AlgoSpec::Amd), 1);
        assert_eq!(ledger.requests(H, AlgoSpec::Rcm), 2);
        assert_eq!(ledger.keys(), 2);
    }
}
