//! Per-tenant SLOs: rolling error budgets and multi-window burn
//! rates, computed from metrics the serving tier already records.
//!
//! An [`SloSpec`] declares, per tenant, a latency threshold and an
//! objective — "99% of requests answer under 50 ms". A request is
//! **good** when it was served under the threshold; it is **bad** when
//! it was shed (any reason) or served slow. The tracker reads the
//! tier's cumulative per-tenant series on every [`SloTracker::tick`]:
//!
//! - `tier.request{tenant}` — the end-to-end latency histogram; its
//!   exact `count` is total served, and
//!   [`telemetry::Histogram::count_below`] gives the bucket-accurate
//!   good count;
//! - `tier.shed_tenant{tenant}` — the tier's per-tenant shed counter.
//!
//! Ticks append cumulative `(total, bad)` readings to a bounded ring,
//! so window arithmetic is pure subtraction and a **tick is the unit
//! of time** — production drives it from a wall-clock thread
//! ([`SloTracker::start`]); tests call [`SloTracker::tick`] directly
//! and get deterministic burn rates with no sleeping.
//!
//! Two derived series publish back into the registry (and therefore
//! into `/metrics` as well as `/slo.json`):
//!
//! - `slo.budget_remaining{tenant}` — the fraction of the error
//!   budget (1 − objective) still unspent over the process lifetime,
//!   in **basis points** (10000 = untouched, 0 = exhausted);
//! - `slo.burn_rate{tenant,window}` — bad-fraction ÷ budget over the
//!   trailing window, in **milli-burns** (1000 = burning exactly at
//!   budget; sustained >1000 exhausts the budget early).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::{json_escape, series_name, Gauge, Registry};

/// One tenant's objective: serve `objective` of requests under
/// `latency_ms`, counting sheds against the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Tenant name, matching the tier's metric labels.
    pub tenant: String,
    /// Latency threshold in milliseconds.
    pub latency_ms: f64,
    /// Required good fraction in `(0, 1)`, e.g. `0.99`. The error
    /// budget is `1 - objective`.
    pub objective: f64,
}

impl SloSpec {
    pub fn new(tenant: impl Into<String>, latency_ms: f64, objective: f64) -> Self {
        SloSpec {
            tenant: tenant.into(),
            latency_ms,
            objective,
        }
    }

    fn latency_ns(&self) -> u64 {
        (self.latency_ms.max(0.0) * 1e6) as u64
    }

    /// The error budget `1 - objective`, floored so a 100% objective
    /// (which no finite traffic can hold) stays computable.
    fn budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// Tracker construction parameters.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// One spec per tracked tenant.
    pub specs: Vec<SloSpec>,
    /// Burn-rate windows, in **ticks** (the multi-window alerting
    /// pattern: a short window catches fast burns, a long one slow
    /// ones).
    pub windows: Vec<usize>,
}

/// Base name of the tier's per-tenant latency histograms.
const LATENCY_SERIES: &str = "tier.request";
/// Base name of the tier's per-tenant shed counters.
const SHED_SERIES: &str = "tier.shed_tenant";

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            specs: Vec::new(),
            windows: vec![5, 30, 150],
        }
    }
}

/// A cumulative reading at one tick.
#[derive(Debug, Clone, Copy, Default)]
struct Reading {
    total: u64,
    bad: u64,
}

struct TenantState {
    spec: SloSpec,
    latency_key: String,
    shed_key: String,
    budget_gauge: Arc<Gauge>,
    /// One gauge per window, `windows`-ordered.
    burn_gauges: Vec<Arc<Gauge>>,
    readings: Mutex<VecDeque<Reading>>,
}

/// Point-in-time SLO status for one tenant (the `/slo.json` row).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    pub tenant: String,
    pub latency_ms: f64,
    pub objective: f64,
    /// Cumulative requests (served + shed) at the last tick.
    pub total: u64,
    /// Cumulative bad requests (shed or served slow) at the last tick.
    pub bad: u64,
    /// Lifetime budget remaining in `[0, 1]`.
    pub budget_remaining: f64,
    /// `(window ticks, burn rate)` per configured window.
    pub burn_rates: Vec<(usize, f64)>,
}

/// The error-budget tracker (see module docs).
pub struct SloTracker {
    registry: Arc<Registry>,
    windows: Vec<usize>,
    tenants: Vec<TenantState>,
}

impl SloTracker {
    /// Build a tracker publishing into `registry`. Gauges are created
    /// eagerly (budget at 10000 bp, burns at 0) so the series exist in
    /// the first scrape even before any traffic.
    pub fn new(registry: Arc<Registry>, config: SloConfig) -> Arc<SloTracker> {
        registry.describe(
            "slo.budget_remaining",
            "Error budget remaining over the process lifetime, in basis points \
             (10000 = untouched).",
        );
        registry.describe(
            "slo.burn_rate",
            "Error-budget burn rate over the trailing window, in milli-burns \
             (1000 = burning exactly at budget).",
        );
        let windows = if config.windows.is_empty() {
            vec![1]
        } else {
            config.windows.clone()
        };
        let tenants = config
            .specs
            .iter()
            .map(|spec| {
                let labels = [("tenant", spec.tenant.as_str())];
                let budget_gauge = registry.gauge_labeled("slo.budget_remaining", &labels);
                budget_gauge.set(10_000);
                let burn_gauges = windows
                    .iter()
                    .map(|w| {
                        let window = w.to_string();
                        let g = registry.gauge_labeled(
                            "slo.burn_rate",
                            &[("tenant", spec.tenant.as_str()), ("window", &window)],
                        );
                        g.set(0);
                        g
                    })
                    .collect();
                TenantState {
                    latency_key: series_name(LATENCY_SERIES, &labels),
                    shed_key: series_name(SHED_SERIES, &labels),
                    budget_gauge,
                    burn_gauges,
                    readings: Mutex::new(VecDeque::new()),
                    spec: spec.clone(),
                }
            })
            .collect();
        let tracker = Arc::new(SloTracker {
            registry,
            windows,
            tenants,
        });
        // Baseline reading: traffic arriving before the first periodic
        // tick still lands inside a window delta.
        tracker.tick();
        tracker
    }

    /// The configured burn-rate windows, in ticks.
    pub fn windows(&self) -> &[usize] {
        &self.windows
    }

    /// Take one reading per tenant and refresh the published gauges.
    pub fn tick(&self) {
        let retain = self.windows.iter().copied().max().unwrap_or(1) + 1;
        for state in &self.tenants {
            let (served, good) = match self.registry.find_histogram(&state.latency_key) {
                Some(h) => (h.count(), h.count_below(state.spec.latency_ns())),
                None => (0, 0),
            };
            let shed = self
                .registry
                .find_counter(&state.shed_key)
                .map_or(0, |c| c.get());
            let reading = Reading {
                total: served + shed,
                bad: served.saturating_sub(good) + shed,
            };
            let mut readings = state.readings.lock().unwrap();
            readings.push_back(reading);
            while readings.len() > retain {
                readings.pop_front();
            }
            state
                .budget_gauge
                .set((budget_remaining_of(reading, &state.spec) * 10_000.0).round() as i64);
            for (gauge, &window) in state.burn_gauges.iter().zip(&self.windows) {
                let burn = burn_over_window(&readings, window, &state.spec);
                gauge.set((burn * 1_000.0).round() as i64);
            }
        }
    }

    /// Lifetime budget remaining for `tenant` (`None` = not tracked;
    /// 1.0 before the first tick or with no traffic).
    pub fn budget_remaining(&self, tenant: &str) -> Option<f64> {
        let state = self.state_of(tenant)?;
        let reading = state
            .readings
            .lock()
            .unwrap()
            .back()
            .copied()
            .unwrap_or_default();
        Some(budget_remaining_of(reading, &state.spec))
    }

    /// Burn rate for `tenant` over the trailing `window` ticks
    /// (`None` = tenant not tracked; 0.0 with no traffic in window).
    pub fn burn_rate(&self, tenant: &str, window: usize) -> Option<f64> {
        let state = self.state_of(tenant)?;
        Some(burn_over_window(
            &state.readings.lock().unwrap(),
            window,
            &state.spec,
        ))
    }

    /// Status rows for every tracked tenant.
    pub fn status(&self) -> Vec<TenantSlo> {
        self.tenants
            .iter()
            .map(|state| {
                let readings = state.readings.lock().unwrap();
                let reading = readings.back().copied().unwrap_or_default();
                TenantSlo {
                    tenant: state.spec.tenant.clone(),
                    latency_ms: state.spec.latency_ms,
                    objective: state.spec.objective,
                    total: reading.total,
                    bad: reading.bad,
                    budget_remaining: budget_remaining_of(reading, &state.spec),
                    burn_rates: self
                        .windows
                        .iter()
                        .map(|&w| (w, burn_over_window(&readings, w, &state.spec)))
                        .collect(),
                }
            })
            .collect()
    }

    /// The `/slo.json` body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&w.to_string());
        }
        out.push_str("],\"tenants\":[");
        for (i, t) in self.status().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"latency_ms\":{},\"objective\":{},\"total\":{},\"bad\":{},\"budget_remaining\":{:.4},\"burn_rates\":{{",
                json_escape(&t.tenant),
                t.latency_ms,
                t.objective,
                t.total,
                t.bad,
                t.budget_remaining,
            ));
            for (j, (w, burn)) in t.burn_rates.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{w}\":{burn:.4}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Tick this tracker from a background thread every `interval`
    /// until the returned handle drops.
    pub fn start(self: &Arc<Self>, interval: Duration) -> SloTicker {
        let tracker = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("slo-ticker".to_string())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    tracker.tick();
                }
            })
            .expect("spawn slo ticker");
        SloTicker {
            stop,
            handle: Some(handle),
        }
    }

    fn state_of(&self, tenant: &str) -> Option<&TenantState> {
        self.tenants.iter().find(|s| s.spec.tenant == tenant)
    }
}

fn budget_remaining_of(reading: Reading, spec: &SloSpec) -> f64 {
    if reading.total == 0 {
        return 1.0;
    }
    let bad_fraction = reading.bad as f64 / reading.total as f64;
    (1.0 - bad_fraction / spec.budget()).clamp(0.0, 1.0)
}

/// Burn rate over the trailing `window` ticks: the bad fraction of the
/// requests arriving in the window, divided by the budget. 0.0 when
/// fewer than two readings exist or no requests arrived.
fn burn_over_window(readings: &VecDeque<Reading>, window: usize, spec: &SloSpec) -> f64 {
    let n = readings.len();
    if n < 2 {
        return 0.0;
    }
    let newest = readings[n - 1];
    let oldest = readings[n - 1 - window.clamp(1, n - 1)];
    let total = newest.total.saturating_sub(oldest.total);
    if total == 0 {
        return 0.0;
    }
    let bad = newest.bad.saturating_sub(oldest.bad);
    (bad as f64 / total as f64) / spec.budget()
}

/// Stops the background ticking thread when dropped.
pub struct SloTicker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for SloTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration as StdDuration;

    fn tracker_with(
        registry: &Arc<Registry>,
        objective: f64,
        latency_ms: f64,
        windows: Vec<usize>,
    ) -> Arc<SloTracker> {
        SloTracker::new(
            Arc::clone(registry),
            SloConfig {
                specs: vec![SloSpec::new("t0", latency_ms, objective)],
                windows,
            },
        )
    }

    /// Record `n` served requests at `ms` milliseconds each.
    fn serve(registry: &Registry, n: u64, ms: u64) {
        let h = registry.histogram_labeled("tier.request", &[("tenant", "t0")]);
        for _ in 0..n {
            h.record_duration(StdDuration::from_millis(ms));
        }
    }

    fn shed(registry: &Registry, n: u64) {
        registry
            .counter_labeled("tier.shed_tenant", &[("tenant", "t0")])
            .add(n);
    }

    #[test]
    fn gauges_exist_before_any_traffic() {
        let r = Registry::new_arc();
        let _t = tracker_with(&r, 0.99, 50.0, vec![2, 10]);
        let snap = r.snapshot();
        assert_eq!(
            snap.gauge_labeled("slo.budget_remaining", &[("tenant", "t0")]),
            Some(10_000)
        );
        assert_eq!(
            snap.gauge_labeled("slo.burn_rate", &[("tenant", "t0"), ("window", "2")]),
            Some(0)
        );
        assert_eq!(
            snap.gauge_labeled("slo.burn_rate", &[("tenant", "t0"), ("window", "10")]),
            Some(0)
        );
        // HELP descriptions registered for the exporter.
        assert!(snap
            .help
            .iter()
            .any(|(base, _)| base == "slo.budget_remaining"));
    }

    /// The acceptance scenario: a synthetic stream with a known shed
    /// rate must produce exactly the predicted budget numbers.
    #[test]
    fn known_shed_rate_burns_the_predicted_budget() {
        let r = Registry::new_arc();
        // Objective 0.9 → budget 0.1. 80 fast + 10 slow + 10 shed of
        // 100 total → bad fraction 0.2 → burn 2.0 → budget exhausted
        // (remaining 0 after clamping: 1 - 0.2/0.1 = -1).
        let t = tracker_with(&r, 0.9, 10.0, vec![1]);
        serve(&r, 80, 1);
        serve(&r, 10, 100);
        shed(&r, 10);
        t.tick();
        t.tick(); // burn windows need two readings
        assert_eq!(t.budget_remaining("t0"), Some(0.0));
        // All traffic arrived before the first tick; the window
        // between tick 1 and 2 saw nothing.
        assert_eq!(t.burn_rate("t0", 1), Some(0.0));
        let status = &t.status()[0];
        assert_eq!((status.total, status.bad), (100, 20));
        assert_eq!(
            r.snapshot()
                .gauge_labeled("slo.budget_remaining", &[("tenant", "t0")]),
            Some(0)
        );
    }

    #[test]
    fn burn_rate_is_windowed_and_in_budget_units() {
        let r = Registry::new_arc();
        // Objective 0.99 → budget 0.01.
        let t = tracker_with(&r, 0.99, 10.0, vec![1, 4]);
        serve(&r, 100, 1); // all good
        t.tick();
        // Second interval: 96 good + 4 slow → bad fraction 4/100 =
        // 0.04 → burn 4.0 over the short window.
        serve(&r, 96, 1);
        serve(&r, 4, 100);
        t.tick();
        let short = t.burn_rate("t0", 1).unwrap();
        assert!((short - 4.0).abs() < 1e-9, "short burn {short}");
        // The long window spans both intervals: 4 bad of 200 → 2.0.
        let long = t.burn_rate("t0", 4).unwrap();
        assert!((long - 2.0).abs() < 1e-9, "long burn {long}");
        // Milli-burn gauges match.
        let snap = r.snapshot();
        assert_eq!(
            snap.gauge_labeled("slo.burn_rate", &[("tenant", "t0"), ("window", "1")]),
            Some(4_000)
        );
        assert_eq!(
            snap.gauge_labeled("slo.burn_rate", &[("tenant", "t0"), ("window", "4")]),
            Some(2_000)
        );
        // Budget: 4 bad of 200 total = 0.02 bad fraction on a 0.01
        // budget → exhausted.
        assert_eq!(t.budget_remaining("t0"), Some(0.0));
    }

    #[test]
    fn quiet_tenant_keeps_full_budget() {
        let r = Registry::new_arc();
        let t = tracker_with(&r, 0.99, 50.0, vec![2]);
        for _ in 0..5 {
            t.tick();
        }
        assert_eq!(t.budget_remaining("t0"), Some(1.0));
        assert_eq!(t.burn_rate("t0", 2), Some(0.0));
        assert_eq!(t.budget_remaining("missing"), None);
    }

    #[test]
    fn json_reports_every_tenant_and_window() {
        let r = Registry::new_arc();
        let t = tracker_with(&r, 0.95, 25.0, vec![2, 8]);
        serve(&r, 50, 1);
        t.tick();
        let json = t.to_json();
        assert!(json.contains("\"windows\":[2,8]"), "{json}");
        assert!(json.contains("\"tenant\":\"t0\""), "{json}");
        assert!(json.contains("\"objective\":0.95"), "{json}");
        assert!(json.contains("\"total\":50"), "{json}");
        assert!(json.contains("\"budget_remaining\":1.0000"), "{json}");
        assert!(json.contains("\"2\":"), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn background_ticker_advances_readings() {
        let r = Registry::new_arc();
        let t = tracker_with(&r, 0.99, 50.0, vec![2]);
        serve(&r, 10, 1);
        let ticker = t.start(StdDuration::from_millis(5));
        // Wait until at least one reading lands (bounded).
        let deadline = std::time::Instant::now() + StdDuration::from_secs(2);
        while t.status()[0].total == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(5));
        }
        drop(ticker);
        assert_eq!(t.status()[0].total, 10, "ticker never took a reading");
    }
}
