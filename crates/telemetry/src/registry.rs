//! The metrics registry: a name → metric map handing out shared
//! handles.
//!
//! Callers resolve a metric once (`registry.counter("engine.cache.hits")`)
//! and keep the `Arc` handle; the hot path then touches only that
//! handle's atomics, never the registry lock. Names are dotted
//! lowercase paths (see the README's "Observability" section for the
//! scheme); resolving an existing name returns the existing metric, so
//! independent components observing the same event share one series.
//!
//! [`Registry::global`] is the process-wide instance every production
//! path uses. Tests that need exact counts construct private
//! registries ([`Registry::new_arc`]) so parallel tests cannot
//! interleave.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Build a labeled series name: `base{k="v",k2="v2"}` (Prometheus
/// label syntax, embedded in the registry key). Metrics that would
/// otherwise collide when several instances of a component share one
/// registry — e.g. the queue-depth gauge of every tier shard —
/// become distinct series by labeling them (`shard="0"`, `shard="1"`).
///
/// Label keys are sanitised to `[A-Za-z0-9_]`; values are escaped per
/// the Prometheus text exposition rules (`\\`, `\"`, `\n`). An empty
/// label set returns `base` unchanged, so unlabeled callers pay
/// nothing.
///
/// ```
/// assert_eq!(
///     telemetry::series_name("tier.queue_depth", &[("shard", "3")]),
///     "tier.queue_depth{shard=\"3\"}"
/// );
/// assert_eq!(telemetry::series_name("plain", &[]), "plain");
/// ```
pub fn series_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    // The exact length, so the name is written into one allocation:
    // `base{` + `k="v"` per label + a `,` or the closing `}` after
    // each. A sanitised key character is one byte; an escaped value
    // character is two.
    let escaped = |c: char| matches!(c, '\\' | '"' | '\n');
    let label_len = |(k, v): &(&str, &str)| {
        let value: usize = v
            .chars()
            .map(|c| if escaped(c) { 2 } else { c.len_utf8() })
            .sum();
        k.chars().count() + "=\"\"".len() + value + 1
    };
    let len = base.len() + 1 + labels.iter().map(label_len).sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        for c in k.chars() {
            out.push(if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            });
        }
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    debug_assert_eq!(out.len(), len);
    out
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Base metric name → human description, emitted as `# HELP` lines
    /// by the Prometheus exporter. Keyed by **base** name (no label
    /// block): all series of one base share a description.
    help: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Attach a human description to the **base** metric name `base`
    /// (no label block), surfaced as a `# HELP` line in the Prometheus
    /// exposition. Describing the same base again overwrites.
    pub fn describe(&self, base: &str, description: &str) {
        self.help
            .lock()
            .unwrap()
            .insert(base.to_string(), description.to_string());
    }

    /// A fresh registry behind an `Arc` (the shape every consumer
    /// stores).
    pub fn new_arc() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    /// The process-wide registry.
    pub fn global() -> Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(Registry::new_arc))
    }

    /// Resolve (or create) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type —
    /// that is a programming error worth failing loudly on.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Resolve (or create) the gauge `name`. Panics on a type clash
    /// like [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Resolve (or create) the histogram `name`. Panics on a type
    /// clash like [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Resolve (or create) the counter `base` carrying `labels` —
    /// a distinct series per label set (see [`series_name`]).
    pub fn counter_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&series_name(base, labels))
    }

    /// Resolve (or create) the gauge `base` carrying `labels`. This is
    /// how per-shard instances of one component keep distinct gauges
    /// (e.g. `tier.queue_depth{shard="2"}`) instead of
    /// colliding on a single global series.
    pub fn gauge_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge(&series_name(base, labels))
    }

    /// Resolve (or create) the histogram `base` carrying `labels`
    /// (e.g. per-tenant latency: `tier.request{tenant="t0"}`).
    pub fn histogram_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&series_name(base, labels))
    }

    /// Look up the histogram `name` **without creating it**. Live
    /// readers (e.g. the SLO tracker polling `tier.request{tenant}`)
    /// use this so that probing a series that was never recorded does
    /// not materialise an empty metric in every export.
    pub fn find_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Histogram(h)) => Some(Arc::clone(h)),
            _ => None,
        }
    }

    /// Look up the counter `name` without creating it (see
    /// [`Registry::find_histogram`]).
    pub fn find_counter(&self, name: &str) -> Option<Arc<Counter>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// Look up the gauge `name` without creating it (see
    /// [`Registry::find_histogram`]).
    pub fn find_gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Gauge(g)) => Some(Arc::clone(g)),
            _ => None,
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name (the exporters' input).
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap.help = self
            .help
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        snap
    }
}

/// Everything the registry knew at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(base name, description)` for every described metric, sorted
    /// by base name (the exporter's `# HELP` source).
    pub help: Vec<(String, String)>,
}

impl Snapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Look up a labeled counter series.
    pub fn counter_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counter(&series_name(base, labels))
    }

    /// Look up a labeled gauge series.
    pub fn gauge_labeled(&self, base: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauge(&series_name(base, labels))
    }

    /// Look up a labeled histogram series.
    pub fn histogram_labeled(
        &self,
        base: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        self.histogram(&series_name(base, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_the_metric() {
        let r = Registry::new();
        r.counter("a.b").add(3);
        r.counter("a.b").add(4);
        assert_eq!(r.counter("a.b").get(), 7);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn type_clash_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("z.count").inc();
        r.gauge("m.depth").set(-2);
        r.histogram("a.lat").record(10);
        let s = r.snapshot();
        assert_eq!(s.counter("z.count"), Some(1));
        assert_eq!(s.gauge("m.depth"), Some(-2));
        assert_eq!(s.histogram("a.lat").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn find_does_not_create_and_shares_handles() {
        let r = Registry::new();
        assert!(r.find_histogram("never.recorded").is_none());
        assert!(r.find_counter("never.recorded").is_none());
        assert!(r.find_gauge("never.recorded").is_none());
        // Probing must not have materialised empty series.
        assert!(r.snapshot().histograms.is_empty());
        assert!(r.snapshot().counters.is_empty());
        let h = r.histogram("real.series");
        h.record(42);
        let found = r.find_histogram("real.series").expect("registered");
        assert!(Arc::ptr_eq(&h, &found));
        assert_eq!(found.sum(), 42);
        // Type-mismatched finds return None rather than panicking.
        let _ = r.counter("typed.counter");
        assert!(r.find_histogram("typed.counter").is_none());
        assert!(r.find_counter("typed.counter").is_some());
    }

    #[test]
    fn global_is_one_instance() {
        let a = Registry::global();
        let b = Registry::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labeled_series_do_not_collide() {
        let r = Registry::new();
        let g0 = r.gauge_labeled("tier.queue_depth", &[("shard", "0")]);
        let g1 = r.gauge_labeled("tier.queue_depth", &[("shard", "1")]);
        g0.set(3);
        g1.set(7);
        assert_eq!(g0.get(), 3, "per-shard gauges must be distinct series");
        let snap = r.snapshot();
        assert_eq!(
            snap.gauge_labeled("tier.queue_depth", &[("shard", "0")]),
            Some(3)
        );
        assert_eq!(
            snap.gauge_labeled("tier.queue_depth", &[("shard", "1")]),
            Some(7)
        );
        // The unlabeled name is its own (absent) series.
        assert_eq!(snap.gauge("tier.queue_depth"), None);
        // Same labels resolve to the same underlying metric.
        let again = r.gauge_labeled("tier.queue_depth", &[("shard", "0")]);
        assert!(Arc::ptr_eq(&g0, &again));
    }

    #[test]
    fn series_name_is_written_into_one_exact_allocation() {
        for (base, labels) in [
            ("policy.decisions", &[("choice", "reorder")][..]),
            ("tier.shed", &[("shard", "12"), ("reason", "queue_full")]),
            ("c", &[("bad-këy", "a\"b\\c\ndé")]),
        ] {
            let name = series_name(base, labels);
            assert_eq!(name.capacity(), name.len(), "{name}");
        }
        assert_eq!(
            series_name("policy.decisions", &[("choice", "reorder")]).len(),
            34
        );
    }

    #[test]
    fn series_name_sanitises_keys_and_escapes_values() {
        assert_eq!(
            series_name("c", &[("bad-key", "a\"b\\c\nd")]),
            "c{bad_key=\"a\\\"b\\\\c\\nd\"}"
        );
        assert_eq!(
            series_name("c", &[("a", "1"), ("b", "2")]),
            "c{a=\"1\",b=\"2\"}"
        );
    }
}
