//! `tracecheck`: validate a directory of flight-recorder dumps.
//!
//! `serve --trace-dir DIR` writes one `trace-<id>.json` (Chrome
//! trace-event format) per dumped request. This binary is the CI gate
//! on those artefacts: it proves the trace files a run produces are
//! loadable by the tools they target (Perfetto, `chrome://tracing`)
//! and that the instrumentation covered the serving path as
//! `telemetry::stages` declares it. The rules are
//! `experiments::tracecheck`'s; every `--require STAGE` must also
//! appear in some file — how CI pins workload-specific stages (e.g.
//! `--require reorder.splice` after a `--mutate-rate` run proves the
//! delta path actually spliced instead of recomputing).
//!
//! Exits 0 and prints a per-file census on success; exits 1 with a
//! diagnostic on the first violated check. With `--summary`, a
//! per-stage table (layer, span count, total and mean duration across
//! every file) prints after the census — the quick "where did the time
//! go" read on a trace directory without opening a viewer.
//!
//! Usage: `tracecheck DIR [--require STAGE]... [--summary]`

use experiments::tracecheck::{check_coverage, check_file, StageTotals};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tracecheck: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!("usage: tracecheck DIR [--require STAGE]... [--summary]");
    std::process::exit(2);
}

fn main() {
    let mut dir: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut summary = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require" => required.push(it.next().unwrap_or_else(|| usage())),
            "--summary" => summary = true,
            _ if dir.is_none() => dir = Some(arg),
            _ => usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| usage());
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

    let mut reports = Vec::with_capacity(files.len());
    let mut stage_totals: BTreeMap<String, StageTotals> = BTreeMap::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format_args!("{}: {e}", path.display())));
        let report =
            check_file(&text).unwrap_or_else(|e| fail(format_args!("{}: {e}", path.display())));
        for (name, t) in &report.totals {
            let entry = stage_totals.entry(name.clone()).or_default();
            entry.count += t.count;
            entry.total_us += t.total_us;
        }
        let missing = report.missing_first_touch();
        println!(
            "{}: {} span name(s){}",
            path.display(),
            report.names.len(),
            if missing.is_empty() {
                " — every first-touch stage present".to_string()
            } else {
                format!(" — missing: {}", missing.join(", "))
            }
        );
        reports.push(report);
    }
    check_coverage(&reports, &required).unwrap_or_else(|e| fail(e));
    if summary {
        println!("stage summary across {} file(s):", files.len());
        println!(
            "  {:<24} {:<10} {:>8} {:>14} {:>12}",
            "stage", "layer", "spans", "total (us)", "mean (us)"
        );
        for (name, t) in &stage_totals {
            println!(
                "  {:<24} {:<10} {:>8} {:>14.1} {:>12.1}",
                name,
                format!("{:?}", telemetry::stages::lookup(name).unwrap().layer),
                t.count,
                t.total_us,
                t.total_us / t.count.max(1) as f64
            );
        }
    }
    println!(
        "tracecheck: {} file(s) ok — declared stages only, balanced B/E, declared nesting, \
         one request per file, every first-touch stage covered{}",
        files.len(),
        if required.is_empty() {
            String::new()
        } else {
            format!(", required stage(s) present: {}", required.join(", "))
        }
    );
}
