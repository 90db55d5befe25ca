//! The rules behind the `tracecheck` binary, on Chrome-trace text.
//!
//! No stage name is written here: every rule reads the declarations in
//! [`telemetry::stages`].
//!
//! Per file ([`check_file`]):
//!
//! 1. the text parses as JSON with a non-empty `traceEvents` array;
//! 2. every span and instant name is a declared stage;
//! 3. `B`/`E` duration events are balanced per `(pid, tid)` lane with
//!    matching names — what Chrome's viewer needs to rebuild the span
//!    stack;
//! 4. every span or instant whose stage declares `parents` opens under
//!    one of them: the span its `parent` id names is one of those
//!    stages, and, when that span is on the same lane, it is still open
//!    there;
//! 5. every `once_per_request` stage (all are spans) appears exactly
//!    once — a dump is one request as the tier recorded it and nothing
//!    else.
//!
//! Across files ([`check_coverage`]): some file shows every
//! `first_touch` stage, and every `--require`d stage shows somewhere.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use telemetry::stages::{self, Stage};

/// Per-stage duration accumulator: span count and total microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTotals {
    pub count: u64,
    pub total_us: f64,
}

/// What one valid file contains.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Every span and instant name.
    pub names: BTreeSet<String>,
    /// Closed spans per stage.
    pub totals: BTreeMap<String, StageTotals>,
}

impl FileReport {
    /// The first-touch stages this file does not show.
    pub fn missing_first_touch(&self) -> Vec<&'static str> {
        stages::ALL
            .iter()
            .filter(|s| s.first_touch && !self.names.contains(s.name))
            .map(|s| s.name)
            .collect()
    }
}

/// A timeline: `(pid, tid)`.
type Lane = (u64, u64);

/// One parsed event.
struct Event<'a> {
    ph: &'a str,
    stage: Option<&'static Stage>,
    name: &'a str,
    lane: Lane,
    ts: f64,
    span: u64,
    parent: u64,
}

fn parse(events: &[Value]) -> Result<Vec<Event<'_>>, String> {
    let mut parsed = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let text = |key: &str| {
            ev.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: {key} missing or not a string"))
        };
        let arg = |key: &str| {
            ev.get("args")
                .and_then(|a| a.get(key))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let (ph, name) = (text("ph")?, text("name")?);
        let stage = match ph {
            "M" => None,
            "B" | "E" | "i" => Some(
                stages::lookup(name)
                    .ok_or_else(|| format!("event {i}: '{name}' is not a declared stage"))?,
            ),
            other => return Err(format!("event {i}: unexpected phase '{other}'")),
        };
        let lane_id = |key: &str| ev.get(key).and_then(Value::as_u64).unwrap_or(0);
        parsed.push(Event {
            ph,
            stage,
            name,
            lane: (lane_id("pid"), lane_id("tid")),
            ts: ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
            span: arg("span"),
            parent: arg("parent"),
        });
    }
    Ok(parsed)
}

/// Validate one Chrome-trace file.
pub fn check_file(text: &str) -> Result<FileReport, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .filter(|events| !events.is_empty())
        .ok_or("no traceEvents, or an empty array")?;
    let events = parse(events)?;
    // Every span by id, wherever its lane comes in the file.
    let spans: BTreeMap<u64, (&str, Lane)> = events
        .iter()
        .filter(|e| e.ph == "B")
        .map(|e| (e.span, (e.name, e.lane)))
        .collect();

    let mut report = FileReport::default();
    // Per-lane open spans: (name, span id, B timestamp in µs).
    let mut stacks: BTreeMap<Lane, Vec<(&str, u64, f64)>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let Some(stage) = e.stage else { continue };
        let (name, lane) = (e.name, e.lane);
        let stack = stacks.entry(lane).or_default();
        if e.ph == "E" {
            let (open, _, opened) = stack.pop().ok_or_else(|| {
                format!("event {i}: E '{name}' on lane {lane:?} with no open span")
            })?;
            if open != name {
                return Err(format!(
                    "event {i}: E '{name}' closes open span '{open}' on lane {lane:?}"
                ));
            }
            let totals = report.totals.entry(name.to_string()).or_default();
            totals.count += 1;
            totals.total_us += (e.ts - opened).max(0.0);
            continue;
        }
        if !stage.parents.is_empty() {
            let parent = spans.get(&e.parent);
            let Some(&(parent, parent_lane)) =
                parent.filter(|(p, _)| stage.parents.iter().any(|d| d.name == *p))
            else {
                let declared: Vec<&str> = stage.parents.iter().map(|p| p.name).collect();
                return Err(format!(
                    "event {i}: '{name}' opened under {}; it opens under {}",
                    parent.map_or("no span".to_string(), |p| format!("'{}'", p.0)),
                    declared.join(" or ")
                ));
            };
            if parent_lane == lane && !stack.iter().any(|&(_, id, _)| id == e.parent) {
                return Err(format!(
                    "event {i}: '{name}' opened on lane {lane:?} outside its parent \
                     '{parent}'; open spans: {stack:?}"
                ));
            }
        }
        report.names.insert(name.to_string());
        if e.ph == "B" {
            stack.push((name, e.span, e.ts));
        }
    }
    if let Some((lane, stack)) = stacks.iter().find(|(_, stack)| !stack.is_empty()) {
        let open = stack.last().map_or("", |s| s.0);
        return Err(format!("lane {lane:?} ends with unclosed span '{open}'"));
    }
    for stage in stages::ALL.iter().filter(|s| s.once_per_request) {
        let count = report.totals.get(stage.name).map_or(0, |t| t.count);
        if count != 1 {
            return Err(format!(
                "{count} '{}' span(s); a dumped trace is one request as the tier recorded it, \
                 so exactly 1",
                stage.name
            ));
        }
    }
    Ok(report)
}

/// The rules across a directory's files: some file covers every
/// first-touch stage, and each of `required` shows in some file.
pub fn check_coverage(reports: &[FileReport], required: &[String]) -> Result<(), String> {
    let best = reports
        .iter()
        .map(FileReport::missing_first_touch)
        .min_by_key(Vec::len)
        .ok_or("no trace files")?;
    if !best.is_empty() {
        return Err(format!(
            "no trace contains every first-touch stage; best file still missing: {}",
            best.join(", ")
        ));
    }
    match required
        .iter()
        .find(|stage| !reports.iter().any(|r| r.names.contains(*stage)))
    {
        Some(stage) => Err(format!(
            "--require {stage}: no trace file contains that span"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(phase, name, tid, span, parent)` in file order; ts is the
    /// index.
    type Ev = (&'static str, &'static str, u64, u64, u64);

    fn render(events: &[Ev]) -> String {
        let body: Vec<String> = events
            .iter()
            .enumerate()
            .map(|(ts, (ph, name, tid, span, parent))| {
                format!(
                    "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\
                     \"args\":{{\"trace\":1,\"span\":{span},\"parent\":{parent}}}}}"
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", body.join(","))
    }

    /// A first touch as the tier records it: the client's lane (tid 0),
    /// then the dispatcher's (tid 1).
    fn first_touch() -> Vec<Ev> {
        vec![
            ("M", "thread_name", 0, 0, 0),
            ("B", "tier.request", 0, 1, 0),
            ("B", "tier.wait", 0, 2, 1),
            ("E", "tier.wait", 0, 2, 1),
            ("E", "tier.request", 0, 1, 0),
            ("B", "admission.wait", 1, 3, 1),
            ("E", "admission.wait", 1, 3, 1),
            ("B", "tier.execute", 1, 4, 1),
            ("B", "policy.decide", 1, 5, 4),
            ("E", "policy.decide", 1, 5, 4),
            ("B", "engine.request", 1, 6, 4),
            ("B", "engine.cache.lookup", 1, 7, 6),
            ("E", "engine.cache.lookup", 1, 7, 6),
            ("B", "engine.reorder", 1, 8, 6),
            ("B", "reorder.amd.update", 1, 9, 8),
            ("E", "reorder.amd.update", 1, 9, 8),
            ("E", "engine.reorder", 1, 8, 6),
            ("E", "engine.request", 1, 6, 4),
            ("B", "reorder.permute", 1, 10, 4),
            ("E", "reorder.permute", 1, 10, 4),
            ("B", "tier.plan", 1, 11, 4),
            ("E", "tier.plan", 1, 11, 4),
            ("B", "tier.spmv", 1, 12, 4),
            ("E", "tier.spmv", 1, 12, 4),
            ("E", "tier.execute", 1, 4, 1),
        ]
    }

    fn check(events: &[Ev]) -> Result<FileReport, String> {
        check_file(&render(events))
    }

    /// Move the B/E pair of `name` to just before event `before` of
    /// what is left.
    fn move_span(mut events: Vec<Ev>, name: &str, before: usize) -> Vec<Ev> {
        let pair: Vec<Ev> = events.iter().filter(|e| e.1 == name).copied().collect();
        events.retain(|e| e.1 != name);
        events.splice(before..before, pair);
        events
    }

    #[test]
    fn a_first_touch_passes_and_covers_every_first_touch_stage() {
        let report = check(&first_touch()).unwrap();
        assert!(report.missing_first_touch().is_empty());
        assert_eq!(report.totals["tier.spmv"].count, 1);
        check_coverage(&[report], &["reorder.amd.update".into()]).unwrap();
    }

    #[test]
    fn an_undeclared_name_is_rejected() {
        let mut events = first_touch();
        for e in events.iter_mut().filter(|e| e.1 == "policy.decide") {
            e.1 = "policy.guess";
        }
        let err = check(&events).unwrap_err();
        assert!(
            err.contains("'policy.guess' is not a declared stage"),
            "{err}"
        );
    }

    #[test]
    fn a_reorder_sub_stage_outside_its_reorder_stage_is_rejected() {
        // After engine.reorder closed, on the same lane.
        let err = check(&move_span(first_touch(), "reorder.amd.update", 15)).unwrap_err();
        assert!(err.contains("'reorder.amd.update' opened on lane"), "{err}");
        // Parented at the tier's execute span instead.
        let mut events = first_touch();
        for e in events.iter_mut().filter(|e| e.1 == "reorder.amd.update") {
            e.4 = 4;
        }
        let err = check(&events).unwrap_err();
        assert!(err.contains("opened under 'tier.execute'"), "{err}");
        assert!(err.contains("engine.reorder or reorder.splice"), "{err}");
    }

    #[test]
    fn a_permute_outside_tier_execute_is_rejected() {
        let events = move_span(first_touch(), "reorder.permute", 23);
        assert_eq!(events[24].1, "reorder.permute");
        let err = check(&events).unwrap_err();
        assert!(err.contains("'reorder.permute' opened on lane"), "{err}");
    }

    #[test]
    fn two_request_roots_are_rejected() {
        let mut events = first_touch();
        events.extend([
            ("B", "tier.request", 0, 13, 0),
            ("E", "tier.request", 0, 13, 0),
        ]);
        let err = check(&events).unwrap_err();
        assert!(err.contains("2 'tier.request' span(s)"), "{err}");
    }

    #[test]
    fn a_directory_without_a_planned_first_touch_is_rejected() {
        let mut events = first_touch();
        events.retain(|e| e.1 != "tier.plan");
        let report = check(&events).unwrap();
        assert_eq!(report.missing_first_touch(), ["tier.plan"]);
        let err = check_coverage(&[report], &[]).unwrap_err();
        assert!(err.contains("still missing: tier.plan"), "{err}");
    }

    #[test]
    fn unbalanced_lanes_and_missing_required_stages_are_rejected() {
        let mut events = first_touch();
        events.pop();
        assert!(check(&events)
            .unwrap_err()
            .contains("unclosed span 'tier.execute'"));
        let report = check(&first_touch()).unwrap();
        let err = check_coverage(&[report], &["reorder.splice".into()]).unwrap_err();
        assert!(err.contains("--require reorder.splice"), "{err}");
    }
}
