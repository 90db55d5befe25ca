//! `tracecheck`: validate a directory of flight-recorder dumps.
//!
//! `serve --trace-dir DIR` writes one `trace-<id>.json` (Chrome
//! trace-event format) per dumped request. This binary is the CI gate
//! on those artefacts: it proves the trace files a run produces are
//! loadable by the tools they target (Perfetto, `chrome://tracing`)
//! and that the instrumentation actually covered the serving path.
//!
//! Checks, in order:
//!
//! 1. the directory contains at least one `trace-*.json`;
//! 2. every file parses as JSON and has a non-empty `traceEvents`
//!    array;
//! 3. in every file, `B`/`E` duration events are balanced per
//!    `(pid, tid)` lane with matching names — the invariant Chrome's
//!    viewer needs to reconstruct the span stack;
//! 4. at least one file contains a span for **every** stage of the
//!    serving path (request root, admission wait, shard execute, policy
//!    decision, engine request, cache lookup, reorder, permute, plan,
//!    SpMV) — a first touch: a request that finds its prepared entry
//!    records no engine stage;
//! 5. every file is one request as the tier recorded it and nothing
//!    else: exactly one `tier.request` root, exactly one `serve.spmv`
//!    span, and every `reorder.permute` under `tier.execute` — a
//!    client re-enacting the path under the tier's stage names fails
//!    here;
//! 6. in every file, each of the engine's `reorder.*` sub-stage spans
//!    (symmetrize, levels, splice, the AMD phases) opens while a parent
//!    reorder stage (`engine.reorder` or `reorder.splice`) is open on
//!    the same lane — sub-stages nest under their pipeline stage, they
//!    never float;
//! 7. every stage named with `--require STAGE` appears in at least one
//!    file — how CI pins workload-specific stages (e.g.
//!    `--require reorder.splice` after a `--mutate-rate` run proves
//!    the delta path actually spliced instead of recomputing).
//!
//! Exits 0 and prints a per-file event census on success; exits 1
//! with a diagnostic on the first violated check. With `--summary`, a
//! per-stage table (span count, total and mean duration across every
//! file) prints after the census — the quick "where did the time go"
//! read on a trace directory without opening a viewer.
//!
//! Usage: `tracecheck DIR [--require STAGE]... [--summary]`

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Every stage of the serving path; at least one dumped trace must
/// contain all of them. What a first touch records: the stages
/// `crates/servetier/tests/tier.rs` pins
/// (`sampled_request_records_the_serving_stages`) plus the engine's
/// miss stages.
const REQUIRED_STAGES: &[&str] = &[
    "tier.request",
    "admission.wait",
    "tier.execute",
    "policy.decide",
    "engine.request",
    "engine.cache.lookup",
    "engine.reorder",
    "reorder.permute",
    "engine.plan",
    "serve.spmv",
];

/// The engine's reordering sub-stages: whenever one opens, a parent
/// reorder stage must already be open on the same lane.
/// (`reorder.symmetrize` and `reorder.levels` appear only on
/// cache-miss RCM/GPS jobs and `reorder.splice` only when a delta
/// descendant finds a cached ancestor, so they are nesting-checked but
/// not required. `reorder.permute` is the tier's, required above, and
/// has its own parent rule: `tier.execute`.)
const REORDER_SUBSTAGES: &[&str] = &[
    "reorder.symmetrize",
    "reorder.levels",
    "reorder.splice",
    "reorder.amd.select",
    "reorder.amd.eliminate",
    "reorder.amd.update",
];

/// Stages an engine sub-stage may nest under. `reorder.splice` is both
/// a sub-stage (it opens under `engine.reorder`) and a parent: its
/// dirty-component recompute re-symmetrises the mutated matrix under
/// the splice span.
const REORDER_PARENTS: &[&str] = &["engine.reorder", "reorder.splice"];

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tracecheck: {msg}");
    std::process::exit(1);
}

/// Per-stage duration accumulator: span count and total microseconds.
#[derive(Default, Clone, Copy)]
struct StageTotals {
    count: u64,
    total_us: f64,
}

/// Validate one Chrome-trace file; returns the set of span names it
/// contains and per-stage duration totals.
fn check_file(path: &Path) -> (BTreeSet<String>, BTreeMap<String, StageTotals>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("{}: {e}", path.display())));
    let doc = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(format_args!("{}: not valid JSON: {e:?}", path.display())));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format_args!("{}: no traceEvents array", path.display())));
    if events.is_empty() {
        fail(format_args!("{}: traceEvents is empty", path.display()));
    }

    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut totals: BTreeMap<String, StageTotals> = BTreeMap::new();
    // Per-lane open-span stack: Chrome matches each E against the most
    // recent unmatched B on the same (pid, tid). Each entry carries
    // its B timestamp (Chrome "ts" is microseconds) for --summary.
    let mut stacks: BTreeMap<(u64, u64), Vec<(String, f64)>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .unwrap_or_else(|| fail(format_args!("{}: event {i} lacks {key}", path.display())))
        };
        let ph = field("ph")
            .as_str()
            .unwrap_or_else(|| {
                fail(format_args!(
                    "{}: event {i}: ph not a string",
                    path.display()
                ))
            })
            .to_string();
        let name = field("name")
            .as_str()
            .unwrap_or_else(|| {
                fail(format_args!(
                    "{}: event {i}: name not a string",
                    path.display()
                ))
            })
            .to_string();
        let lane = (
            field("pid").as_u64().unwrap_or(0),
            field("tid").as_u64().unwrap_or(0),
        );
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
        match ph.as_str() {
            "B" => {
                names.insert(name.clone());
                let stack = stacks.entry(lane).or_default();
                if name == "reorder.permute"
                    && !stack.iter().any(|(open, _)| open == "tier.execute")
                {
                    fail(format_args!(
                        "{}: event {i}: 'reorder.permute' opened on lane {lane:?} outside \
                         tier.execute; open spans: {stack:?}",
                        path.display()
                    ));
                }
                if REORDER_SUBSTAGES.contains(&name.as_str())
                    && !stack
                        .iter()
                        .any(|(open, _)| REORDER_PARENTS.contains(&open.as_str()))
                {
                    fail(format_args!(
                        "{}: event {i}: '{name}' opened on lane {lane:?} with no \
                         enclosing reorder stage ({}); open spans: {stack:?}",
                        path.display(),
                        REORDER_PARENTS.join(" or "),
                    ));
                }
                stack.push((name, ts));
            }
            "E" => {
                let (open, opened_ts) =
                    stacks.entry(lane).or_default().pop().unwrap_or_else(|| {
                        fail(format_args!(
                            "{}: event {i}: E '{name}' on lane {lane:?} with no open span",
                            path.display()
                        ))
                    });
                if open != name {
                    fail(format_args!(
                        "{}: event {i}: E '{name}' closes open span '{open}' on lane {lane:?}",
                        path.display()
                    ));
                }
                let entry = totals.entry(name).or_default();
                entry.count += 1;
                entry.total_us += (ts - opened_ts).max(0.0);
            }
            "i" => {
                names.insert(name);
            }
            "M" => {}
            other => fail(format_args!(
                "{}: event {i}: unexpected phase '{other}'",
                path.display()
            )),
        }
    }
    for (lane, stack) in &stacks {
        if let Some((open, _)) = stack.last() {
            fail(format_args!(
                "{}: lane {lane:?} ends with unclosed span '{open}'",
                path.display()
            ));
        }
    }
    for single in ["tier.request", "serve.spmv"] {
        let count = totals.get(single).map_or(0, |t| t.count);
        if count != 1 {
            fail(format_args!(
                "{}: {count} '{single}' span(s); a dumped trace is one request as the tier \
                 recorded it, so exactly 1",
                path.display()
            ));
        }
    }
    (names, totals)
}

fn main() {
    let mut dir: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut summary = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--require" {
            required.push(it.next().unwrap_or_else(|| {
                eprintln!("--require needs a stage name");
                std::process::exit(2);
            }));
        } else if arg == "--summary" {
            summary = true;
        } else if dir.is_none() {
            dir = Some(arg);
        } else {
            eprintln!("usage: tracecheck DIR [--require STAGE]... [--summary]");
            std::process::exit(2);
        }
    }
    let dir = dir.unwrap_or_else(|| {
        eprintln!("usage: tracecheck DIR [--require STAGE]... [--summary]");
        std::process::exit(2);
    });
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| fail(format_args!("{dir}: {e}")))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("trace-") && name.ends_with(".json")).then_some(path)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        fail(format_args!("{dir}: no trace-*.json files"));
    }

    let mut best_missing: Option<Vec<&str>> = None;
    let mut all_names: BTreeSet<String> = BTreeSet::new();
    let mut stage_totals: BTreeMap<String, StageTotals> = BTreeMap::new();
    for path in &files {
        let (names, totals) = check_file(path);
        all_names.extend(names.iter().cloned());
        for (name, t) in totals {
            let entry = stage_totals.entry(name).or_default();
            entry.count += t.count;
            entry.total_us += t.total_us;
        }
        let missing: Vec<&str> = REQUIRED_STAGES
            .iter()
            .copied()
            .filter(|s| !names.contains(*s))
            .collect();
        println!(
            "{}: {} span name(s){}",
            path.display(),
            names.len(),
            if missing.is_empty() {
                " — all stages present".to_string()
            } else {
                format!(" — missing: {}", missing.join(", "))
            }
        );
        if best_missing
            .as_ref()
            .is_none_or(|b| missing.len() < b.len())
        {
            best_missing = Some(missing);
        }
    }
    match best_missing {
        Some(missing) if missing.is_empty() => {}
        Some(missing) => fail(format_args!(
            "no trace contains every pipeline stage; best file still missing: {}",
            missing.join(", ")
        )),
        None => unreachable!("files is non-empty"),
    }
    for stage in &required {
        if !all_names.contains(stage) {
            fail(format_args!(
                "--require {stage}: no trace file contains that span"
            ));
        }
    }
    if summary {
        println!("stage summary across {} file(s):", files.len());
        println!(
            "  {:<24} {:>8} {:>14} {:>12}",
            "stage", "spans", "total (us)", "mean (us)"
        );
        for (name, t) in &stage_totals {
            println!(
                "  {:<24} {:>8} {:>14.1} {:>12.1}",
                name,
                t.count,
                t.total_us,
                t.total_us / t.count.max(1) as f64
            );
        }
    }
    println!(
        "tracecheck: {} file(s) ok — balanced B/E, one request per file, all {} stages covered{}",
        files.len(),
        REQUIRED_STAGES.len(),
        if required.is_empty() {
            String::new()
        } else {
            format!(", required stage(s) present: {}", required.join(", "))
        }
    );
}
