//! Snapshot exporters: machine-readable JSON and Prometheus text
//! exposition.
//!
//! Both render a [`Snapshot`], so an export is a consistent
//! point-in-time view regardless of how often it is taken. The JSON
//! schema is documented in the README's "Observability" section;
//! histograms export as Prometheus *summaries* (quantiles + `_sum` +
//! `_count`) because the workspace extracts quantiles locally rather
//! than shipping raw buckets.

use crate::histogram::HistogramSnapshot;
use crate::registry::Snapshot;
use std::fmt::Write;

/// Escape a string for a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite f64 the way JSON expects (no NaN/inf in our data;
/// guard anyway).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let exemplar = match h.exemplar {
        Some((value, trace)) => format!(",\"exemplar\":{{\"value\":{value},\"trace\":{trace}}}"),
        None => String::new(),
    };
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}{}}}",
        h.count,
        h.sum,
        h.min,
        h.max,
        json_f64(h.mean),
        h.p50,
        h.p90,
        h.p99,
        h.p999,
        exemplar
    )
}

impl Snapshot {
    /// The snapshot as a single JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,max,mean,p50,p90,p99}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), json_histogram(h));
        }
        out.push_str("}}");
        out
    }

    /// The snapshot in the Prometheus text exposition format. Metric
    /// names have non-`[a-zA-Z0-9_:]` characters replaced by `_`
    /// (`engine.cache.hits` → `engine_cache_hits`); histograms export
    /// as summaries with `quantile` labels.
    ///
    /// Labeled series (built with [`crate::series_name`], e.g.
    /// `tier.queue_depth{shard="0"}`) keep their label block
    /// verbatim — only the base name is sanitised — and series sharing
    /// a base name emit one `# TYPE` header, as the exposition format
    /// requires.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        /// Split a registry key into (sanitised base, label block).
        fn series(name: &str) -> (String, &str) {
            match name.split_once('{') {
                Some((base, rest)) => (sanitize(base), rest.strip_suffix('}').unwrap_or(rest)),
                None => (sanitize(name), ""),
            }
        }
        /// Escape a `# HELP` description per the text exposition
        /// format: backslash and newline only (double quotes are legal
        /// in HELP text, unlike in label values).
        fn help_escape(text: &str) -> String {
            let mut out = String::with_capacity(text.len());
            for c in text.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out
        }
        // Descriptions are registered under dotted base names; the
        // exposition needs them under the sanitised base.
        let help: Vec<(String, &str)> = self
            .help
            .iter()
            .map(|(base, text)| (sanitize(base), text.as_str()))
            .collect();
        let type_line = move |out: &mut String, seen: &mut Vec<String>, base: &str, kind: &str| {
            if !seen.iter().any(|s| s == base) {
                if let Some((_, text)) = help.iter().find(|(b, _)| b == base) {
                    let _ = writeln!(out, "# HELP {base} {}", help_escape(text));
                }
                let _ = writeln!(out, "# TYPE {base} {kind}");
                seen.push(base.to_string());
            }
        };
        let mut out = String::new();
        let mut seen = Vec::new();
        for (name, v) in &self.counters {
            let (base, labels) = series(name);
            type_line(&mut out, &mut seen, &base, "counter");
            if labels.is_empty() {
                let _ = writeln!(out, "{base} {v}");
            } else {
                let _ = writeln!(out, "{base}{{{labels}}} {v}");
            }
        }
        for (name, v) in &self.gauges {
            let (base, labels) = series(name);
            type_line(&mut out, &mut seen, &base, "gauge");
            if labels.is_empty() {
                let _ = writeln!(out, "{base} {v}");
            } else {
                let _ = writeln!(out, "{base}{{{labels}}} {v}");
            }
        }
        for (name, h) in &self.histograms {
            let (base, labels) = series(name);
            // Quantile labels merge after any series labels.
            let prefix = if labels.is_empty() {
                String::new()
            } else {
                format!("{labels},")
            };
            type_line(&mut out, &mut seen, &base, "summary");
            let _ = writeln!(out, "{base}{{{prefix}quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{base}{{{prefix}quantile=\"0.9\"}} {}", h.p90);
            let _ = writeln!(out, "{base}{{{prefix}quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{base}{{{prefix}quantile=\"0.999\"}} {}", h.p999);
            if labels.is_empty() {
                let _ = writeln!(out, "{base}_sum {}", h.sum);
                let _ = writeln!(out, "{base}_count {}", h.count);
            } else {
                let _ = writeln!(out, "{base}_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "{base}_count{{{labels}}} {}", h.count);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("engine.cache.hits").add(12);
        r.gauge("tier.queue_depth").set(3);
        let h = r.histogram("serve.request");
        for v in [100u64, 200, 300, 40_000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn json_has_all_sections_and_values() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"engine.cache.hits\":12"), "{j}");
        assert!(j.contains("\"tier.queue_depth\":3"), "{j}");
        assert!(j.contains("\"serve.request\":{\"count\":4"), "{j}");
        assert!(j.contains("\"min\":100"), "{j}");
        assert!(j.contains("\"max\":40000"), "{j}");
        assert!(j.contains("\"p999\":"), "{j}");
        // Balanced braces — a cheap structural sanity check given the
        // hand-rolled writer.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }

    #[test]
    fn json_escapes_hostile_names() {
        let r = Registry::new();
        r.counter("weird\"name\\with\ncontrol").inc();
        let j = r.snapshot().to_json();
        assert!(j.contains("weird\\\"name\\\\with\\u000acontrol"), "{j}");
    }

    #[test]
    fn prometheus_format_is_wellformed() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE engine_cache_hits counter\nengine_cache_hits 12\n"));
        assert!(p.contains("# TYPE tier_queue_depth gauge\ntier_queue_depth 3\n"));
        assert!(p.contains("# TYPE serve_request summary"));
        assert!(p.contains("serve_request{quantile=\"0.5\"}"));
        assert!(p.contains("serve_request{quantile=\"0.999\"}"));
        assert!(p.contains("serve_request_count 4\n"));
        assert!(p.contains("serve_request_sum 40600\n"));
        // No unsanitized dots leak into metric names.
        for line in p.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(&[' ', '{'][..]).next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_renders_labeled_series() {
        let r = Registry::new();
        r.gauge_labeled("tier.queue_depth", &[("shard", "0")])
            .set(2);
        r.gauge_labeled("tier.queue_depth", &[("shard", "1")])
            .set(5);
        r.counter_labeled("tier.shed", &[("shard", "1"), ("reason", "queue_full")])
            .add(4);
        r.histogram_labeled("tier.request", &[("tenant", "t0")])
            .record(100);
        let p = r.snapshot().to_prometheus();
        // The base name is sanitised; the label block survives intact.
        assert!(p.contains("tier_queue_depth{shard=\"0\"} 2\n"), "{p}");
        assert!(p.contains("tier_queue_depth{shard=\"1\"} 5\n"), "{p}");
        assert!(
            p.contains("tier_shed{shard=\"1\",reason=\"queue_full\"} 4\n"),
            "{p}"
        );
        // One TYPE header per base name even with multiple label sets.
        assert_eq!(p.matches("# TYPE tier_queue_depth gauge").count(), 1, "{p}");
        // Summary quantiles merge into the existing label block.
        assert!(
            p.contains("tier_request{tenant=\"t0\",quantile=\"0.5\"} 100\n"),
            "{p}"
        );
        assert!(p.contains("tier_request_sum{tenant=\"t0\"} 100\n"), "{p}");
        assert!(p.contains("tier_request_count{tenant=\"t0\"} 1\n"), "{p}");
    }

    /// Un-escape one Prometheus label value (`\\`, `\"`, `\n`) — the
    /// consumer side of the exposition format, for the round-trip test.
    fn unescape_label_value(escaped: &str) -> String {
        let mut out = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        }
        out
    }

    /// Parse `name{k="v",...} value` lines back into
    /// `(name, labels, value)`, un-escaping label values.
    fn parse_series(line: &str) -> (String, Vec<(String, String)>, String) {
        let (name_labels, value) = line.rsplit_once(' ').expect("metric line");
        let Some((name, rest)) = name_labels.split_once('{') else {
            return (name_labels.to_string(), Vec::new(), value.to_string());
        };
        let block = rest.strip_suffix('}').expect("closed label block");
        let mut labels = Vec::new();
        let mut remaining = block;
        while !remaining.is_empty() {
            let (key, rest) = remaining.split_once("=\"").expect("label key");
            // The value runs to the next unescaped quote.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end.expect("closing quote");
            labels.push((key.to_string(), unescape_label_value(&rest[..end])));
            remaining = rest[end + 1..]
                .strip_prefix(',')
                .unwrap_or(&rest[end + 1..]);
        }
        (name.to_string(), labels, value.to_string())
    }

    /// Satellite requirement: HELP lines come from metric
    /// descriptions, hostile label values survive an
    /// escape-then-parse round trip, and both follow the exposition
    /// format's escaping rules.
    #[test]
    fn help_and_label_escaping_round_trip() {
        let r = Registry::new();
        r.describe(
            "tier.shed",
            "Requests shed by reason.\nBackslash: \\ stays.",
        );
        r.describe("tier.admitted", "Requests admitted to a shard queue.");
        let hostile = "quote\" backslash\\ newline\n done";
        r.counter_labeled("tier.shed", &[("reason", hostile)])
            .add(3);
        r.counter_labeled("tier.admitted", &[("shard", "0")]).add(7);
        let p = r.snapshot().to_prometheus();

        // HELP precedes TYPE, newline escaped, description intact.
        assert!(
            p.contains(
                "# HELP tier_shed Requests shed by reason.\\nBackslash: \\\\ stays.\n# TYPE tier_shed counter\n"
            ),
            "{p}"
        );
        assert!(
            p.contains("# HELP tier_admitted Requests admitted to a shard queue.\n"),
            "{p}"
        );
        // Every metric line is single-line (escaping worked) and the
        // hostile label value round-trips exactly.
        let shed_line = p
            .lines()
            .find(|l| l.starts_with("tier_shed{"))
            .expect("tier_shed series line");
        let (name, labels, value) = parse_series(shed_line);
        assert_eq!(name, "tier_shed");
        assert_eq!(value, "3");
        assert_eq!(labels, vec![("reason".to_string(), hostile.to_string())]);
    }

    #[test]
    fn json_carries_exemplars() {
        let r = Registry::new();
        let h = r.histogram_labeled("tier.request", &[("tenant", "t0")]);
        h.record(5);
        h.record_exemplar(1234, 42);
        let j = r.snapshot().to_json();
        assert!(
            j.contains("\"exemplar\":{\"value\":1234,\"trace\":42}"),
            "{j}"
        );
        // Histograms without exemplars omit the field entirely.
        r.histogram("plain.series").record(9);
        let j = r.snapshot().to_json();
        let plain = j.split("\"plain.series\":").nth(1).unwrap();
        assert!(!plain.split('}').next().unwrap().contains("exemplar"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let s = Snapshot::default();
        assert_eq!(
            s.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert_eq!(s.to_prometheus(), "");
    }
}
