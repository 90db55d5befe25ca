//! Trace exporters: Chrome-trace/Perfetto JSON and a plain-text
//! per-request summary.
//!
//! [`TraceSnapshot::to_chrome_json`] renders the snapshot as a JSON
//! object with a `traceEvents` array in the Trace Event Format, which
//! both `chrome://tracing` and <https://ui.perfetto.dev> open
//! directly. Each recorder thread becomes one timeline lane (`tid`),
//! named via a `thread_name` metadata event; spans use duration
//! semantics (`ph:"B"`/`ph:"E"`, matched per pid+tid in recording
//! order) and instants use `ph:"i"`. Because every ring clamps
//! timestamps monotonically and a span's End always lands in its
//! Begin's ring, each lane's B/E pairs are balanced and ordered by
//! construction — no sort pass is needed (or performed).
//!
//! [`TraceSnapshot::summary`] renders the same data as a terminal-
//! friendly stage breakdown: per-name span counts and total/mean
//! durations, the worker-lane compute imbalance ratio, and the drop
//! count — the "what do I look at first" view before opening Perfetto.

use crate::export::json_escape;
use crate::trace::{ArgValue, EventKind, TraceSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render an [`ArgValue`] as a JSON value.
fn json_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(n) => n.to_string(),
        ArgValue::I64(n) => n.to_string(),
        ArgValue::F64(n) => {
            if n.is_finite() {
                format!("{n}")
            } else {
                "0".to_string()
            }
        }
        ArgValue::Str(s) => format!("\"{}\"", json_escape(s)),
        ArgValue::Text(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// Microseconds with nanosecond precision kept as 3 decimals — the
/// Trace Event Format's `ts` unit is µs, but our clocks are ns.
fn ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

impl TraceSnapshot {
    /// The snapshot in Chrome Trace Event Format (JSON object form),
    /// loadable in `chrome://tracing` and Perfetto. One lane per
    /// recorder thread; span/trace/parent IDs and user args ride in
    /// each event's `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev);
        };
        for thread in &self.threads {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    thread.tid,
                    json_escape(&thread.name)
                ),
            );
            for e in &thread.events {
                let ph = match e.kind {
                    EventKind::Begin => "B",
                    EventKind::End => "E",
                    EventKind::Instant => "i",
                };
                let mut ev = format!(
                    "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\"",
                    thread.tid,
                    ts_us(e.ts_ns),
                    json_escape(e.name)
                );
                if e.kind == EventKind::Instant {
                    // Thread-scoped instant marker.
                    ev.push_str(",\"s\":\"t\"");
                }
                let _ = write!(
                    ev,
                    ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}",
                    e.trace_id, e.span_id, e.parent_id
                );
                for (k, v) in &e.args {
                    let _ = write!(ev, ",\"{}\":{}", json_escape(k), json_arg(v));
                }
                ev.push_str("}}");
                push(&mut out, ev);
            }
        }
        out.push_str("]}");
        out
    }

    /// A terminal-friendly stage breakdown: per-name span count and
    /// total/mean wall time, worker compute imbalance (max/mean of
    /// per-lane `spmv.team.compute` totals), and the drop count.
    pub fn summary(&self) -> String {
        struct Stage {
            count: u64,
            total_ns: u64,
        }
        let mut stages: BTreeMap<&'static str, Stage> = BTreeMap::new();
        // Per-lane compute totals for the imbalance ratio.
        let mut lane_compute: BTreeMap<u64, u64> = BTreeMap::new();
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;
        for thread in &self.threads {
            // Open-span stack per lane: rings are in recording order,
            // so Begin/End match like parentheses within a lane.
            let mut open: Vec<(&'static str, u64)> = Vec::new();
            for e in &thread.events {
                min_ts = min_ts.min(e.ts_ns);
                max_ts = max_ts.max(e.ts_ns);
                match e.kind {
                    EventKind::Begin => open.push((e.name, e.ts_ns)),
                    EventKind::End => {
                        if let Some(pos) = open.iter().rposition(|(n, _)| *n == e.name) {
                            let (name, begin) = open.remove(pos);
                            let dur = e.ts_ns.saturating_sub(begin);
                            let s = stages.entry(name).or_insert(Stage {
                                count: 0,
                                total_ns: 0,
                            });
                            s.count += 1;
                            s.total_ns += dur;
                            if name == crate::stages::SPMV_TEAM_COMPUTE.name {
                                *lane_compute.entry(thread.tid).or_insert(0) += dur;
                            }
                        }
                    }
                    EventKind::Instant => {
                        let s = stages.entry(e.name).or_insert(Stage {
                            count: 0,
                            total_ns: 0,
                        });
                        s.count += 1;
                    }
                }
            }
        }
        let wall_ns = max_ts.saturating_sub(if min_ts == u64::MAX { 0 } else { min_ts });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events across {} threads, wall {:.3} ms, {} dropped",
            self.total_events(),
            self.threads.len(),
            wall_ns as f64 / 1e6,
            self.dropped
        );
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>14} {:>14}",
            "stage", "count", "total_ms", "mean_us"
        );
        for (name, s) in &stages {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>14.3} {:>14.2}",
                name,
                s.count,
                s.total_ns as f64 / 1e6,
                if s.count > 0 {
                    s.total_ns as f64 / 1e3 / s.count as f64
                } else {
                    0.0
                }
            );
        }
        if lane_compute.len() > 1 {
            let max = lane_compute.values().copied().max().unwrap_or(0) as f64;
            let mean =
                lane_compute.values().copied().sum::<u64>() as f64 / lane_compute.len() as f64;
            let _ = writeln!(
                out,
                "worker imbalance: {:.3} (max/mean compute over {} lanes)",
                if mean > 0.0 { max / mean } else { 1.0 },
                lane_compute.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::stages;
    use crate::trace::FlightRecorder;

    #[test]
    fn chrome_json_has_lanes_and_phases() {
        let rec = FlightRecorder::new(256);
        let ctx = rec.start_trace();
        {
            let mut s = ctx.span(stages::ENGINE_REQUEST);
            s.arg("algo", "RCM");
            ctx.instant(stages::ENGINE_EXPIRED);
        }
        let j = rec.snapshot().to_chrome_json();
        assert!(j.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"M\""), "{j}");
        assert!(j.contains("\"ph\":\"B\""), "{j}");
        assert!(j.contains("\"ph\":\"E\""), "{j}");
        assert!(j.contains("\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"algo\":\"RCM\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn summary_reports_stages_and_drops() {
        let rec = FlightRecorder::new(256);
        let ctx = rec.start_trace();
        drop(ctx.span(stages::ENGINE_REORDER));
        drop(ctx.span(stages::ENGINE_REORDER));
        ctx.instant(stages::ENGINE_EXPIRED);
        let text = rec.snapshot().summary();
        assert!(text.contains("engine.reorder"), "{text}");
        assert!(text.contains("engine.expired"), "{text}");
        assert!(text.contains("0 dropped"), "{text}");
    }

    #[test]
    fn summary_imbalance_covers_multiple_lanes() {
        let rec = FlightRecorder::new(256);
        let ctx = rec.start_trace();
        let root = ctx.span(stages::SPMV_MEASURE);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let child = root.ctx();
                std::thread::spawn(move || {
                    let mut s = child.span(stages::SPMV_TEAM_COMPUTE);
                    s.arg("lane", 1u64);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(root);
        let text = rec.snapshot().summary();
        assert!(text.contains("worker imbalance:"), "{text}");
        assert!(text.contains("2 lanes"), "{text}");
    }
}
