//! `sysbench`: the repository's system benchmark.
//!
//! ```text
//! sysbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! sysbench --selfcheck [--repeat N] [--seconds S]
//! sysbench --smoke
//! ```
//!
//! One run measures one workload in its own process and prints a table
//! followed, as the last line of standard output, by one JSON object.
//! With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. See `README.md` beside this crate
//! for what each workload and metric means and why.

mod affinity;
mod alloc;
mod grid;
mod harness;
mod inputs;
mod probes;
mod reenact;
mod report;
mod spans;
mod stats;
mod tier;
mod traced;

use grid::{GridInputs, GridSize, GridWorkload};
use harness::{Limits, Workload};
use report::{Record, Reported, END_TO_END};
use stats::Better;
use std::process::ExitCode;
use std::time::Duration;
use tier::{TierInputs, TierKind, TierScale, TierWorkload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = ["kernel_grid", "serve_hot", "serve_cold", "serve_churn"];

/// The seed of a run that does not name one.
const DEFAULT_SEED: u64 = 14;
/// Slices a run makes at least, however short `--seconds` is.
const MIN_SLICES: usize = 6;

/// A workload of either kind, kept concrete so the traced run can read
/// what the `Workload` trait does not carry.
pub enum Bench {
    Grid(Box<GridWorkload>),
    Tier(Box<TierWorkload>),
}

impl Bench {
    /// Generate the workload's inputs from the seed.
    fn build(name: &str, seed: u64, smoke: bool) -> Option<Bench> {
        let scale = if smoke {
            TierScale::SMOKE
        } else {
            TierScale::FULL
        };
        let tier = |kind| {
            Bench::Tier(Box::new(TierWorkload::new(TierInputs::build(
                kind, scale, seed,
            ))))
        };
        Some(match name {
            "kernel_grid" => {
                let size = GridSize {
                    small: smoke,
                    streaming: false,
                };
                Bench::Grid(Box::new(GridWorkload::new(GridInputs::build(size, seed))))
            }
            "serve_hot" => tier(TierKind::Hot),
            "serve_cold" => tier(TierKind::Cold),
            "serve_churn" => tier(TierKind::Churn),
            _ => return None,
        })
    }

    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Bench::Grid(w) => w.as_mut(),
            Bench::Tier(w) => w.as_mut(),
        }
    }

    fn build_s(&self) -> f64 {
        match self {
            Bench::Grid(w) => w.inputs.build_s,
            Bench::Tier(w) => w.inputs.build_s,
        }
    }

    /// Build the system under test with the program's own tracing on.
    fn set_program_tracing(&mut self, on: bool) {
        match self {
            Bench::Grid(w) => w.trace_on = on,
            Bench::Tier(w) => w.trace_on = on,
        }
    }

    /// Flops and computed bytes of one replay's SpMVs.
    fn spmv_work(&self) -> (f64, f64) {
        match self {
            Bench::Grid(w) => w.spmv_work(),
            Bench::Tier(w) => w.inputs.spmv_work(),
        }
    }

    /// What the workload measured beside the metrics: the measured
    /// side of the README's tables.
    fn table_notes(&self) -> Vec<String> {
        match self {
            Bench::Grid(w) => w.cell_table(),
            Bench::Tier(w) => w.class_table(),
        }
    }
}

/// The end-to-end run: verification slice, then timed slices for
/// `seconds`, tracing off.
fn run_end_to_end(name: &'static str, seed: u64, seconds: f64, smoke: bool) -> Record {
    let mut bench = Bench::build(name, seed, smoke).expect("known workload");
    affinity::pin();
    let w = bench.workload();
    let (verify_attempted, verify_failed) = harness::verify(w);
    let min_slices = if smoke { 4 } else { MIN_SLICES };
    let limits = Limits::new(Duration::from_secs_f64(seconds), min_slices);
    let slices = harness::run_slices(w, limits);
    let clean = w.finish();
    let failed = verify_failed + slices.failed;
    let estimates = [
        slices.setup_s(),
        slices.ops_per_s(),
        slices.service_us(0.5),
        slices.service_us(0.9),
    ];
    let mut notes = vec![format!(
        "whole slices, interference included: ops_per_s {:.1}  service_p99_us {:.2}  \
         cpu_us_per_op {:.2}  corpus.build_s {:.3}",
        slices.per_slice_best(|s| s.ops_per_s, Better::Higher),
        slices.per_slice_best(|s| s.p99_us, Better::Lower),
        slices.cpu_us_per_op,
        bench.build_s(),
    )];
    for (label, q) in [("p50", 0.5), ("p90", 0.9)] {
        let [below, at, above] = slices.service_us_around(q);
        notes.push(format!(
            "service_us around the {label} rank (-5% of M, rank, +5% of M): \
             {below:.2}  {at:.2}  {above:.2}"
        ));
    }
    notes.extend(bench.table_notes());
    Record {
        workload: name,
        seed,
        schedule_hash: bench.workload().schedule_hash(),
        host_threads: affinity::host_cpus(),
        attempted: verify_attempted + slices.attempted,
        failed,
        correct: failed == 0 && clean,
        metrics: END_TO_END
            .iter()
            .zip(estimates)
            .map(|(def, e)| Reported::estimate(def, e))
            .collect(),
        notes,
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        smoke: false,
        selfcheck: false,
        repeat: 1,
    };
    fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value.parse().map_err(|e| format!("{flag}: {e}"))
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = number(&flag, value()?)?,
            "--repeat" => args.repeat = number(&flag, value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// One run of one workload, from unpinned input generation on.
fn run(name: &'static str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Record {
    affinity::unpin();
    if trace {
        traced::run(name, seed, seconds, smoke)
    } else {
        run_end_to_end(name, seed, seconds, smoke)
    }
}

/// `--smoke`: every workload, end to end and traced, at a size that
/// finishes in seconds. Checks that everything runs and answers
/// correctly; its numbers mean nothing.
fn smoke(seed: u64) -> bool {
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            let record = run(name, seed, 0.2, trace, true);
            record.print_table();
            ok &= record.correct;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    ok
}

/// What `--selfcheck` keeps of one run: per end-to-end metric, the
/// value and the within-run noise.
struct ChildRun {
    correct: bool,
    metrics: Vec<(f64, f64)>,
}

/// One end-to-end run in a process of its own, as the driver makes it
/// (a warm process serves `serve_hot` a fifth faster than a fresh one:
/// the allocator has stopped trimming its heap). Values come from the
/// result line, noise from the table above it.
fn run_child(name: &str, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().ok_or("no output")?;
    let parsed = serde_json::from_str(result).map_err(|e| format!("{e}: {result}"))?;
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let value = parsed["metrics"][def.name]["value"].as_f64()?;
            // "  <name>  <value> <unit>  noise  <x>%  slices ..."
            let noise = stdout.lines().find_map(|line| {
                let mut tokens = line.split_whitespace();
                (tokens.next() == Some(def.name)).then_some(())?;
                let percent = tokens.skip_while(|&t| t != "noise").nth(1)?;
                percent.trim_end_matches('%').parse::<f64>().ok()
            })?;
            Some((value, noise / 100.0))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!("a metric is missing: {result}"))?;
    Ok(ChildRun {
        correct: output.status.success() && parsed["correct"].as_bool() == Some(true),
        metrics,
    })
}

/// `--selfcheck`: two sets of `repeat` runs of every workload, in
/// alternation (A: all workloads, B: all workloads, A: ...), each run a
/// process of its own. The same commit measured twice must agree with
/// itself: fails if the medians of the two sets differ by more than a
/// metric's bound, or if a run reports more within-run noise than the
/// bound.
fn selfcheck(seed: u64, seconds: f64, repeat: usize) -> bool {
    // [workload][set] → runs
    let mut sets: Vec<[Vec<ChildRun>; 2]> = WORKLOADS.iter().map(|_| [vec![], vec![]]).collect();
    for round in 0..repeat {
        for set in 0..2 {
            for (w, name) in WORKLOADS.iter().enumerate() {
                match run_child(name, seed, seconds) {
                    Ok(run) => sets[w][set].push(run),
                    Err(e) => {
                        eprintln!("selfcheck: {name} did not run: {e}");
                        return false;
                    }
                }
                eprintln!(
                    "selfcheck: round {round} set {} {name} done",
                    ["A", "B"][set]
                );
            }
        }
    }
    let mut ok = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7} {:>9}  verdict",
        "workload", "metric", "set A", "set B", "differ", "bound", "max noise"
    );
    for (name, [a, b]) in WORKLOADS.iter().zip(&sets) {
        ok &= a.iter().chain(b).all(|r| r.correct);
        for (m, def) in END_TO_END.iter().enumerate() {
            let median = |set: &[ChildRun]| {
                stats::median(&set.iter().map(|r| r.metrics[m].0).collect::<Vec<_>>())
            };
            let (ma, mb) = (median(a), median(b));
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let differ = def
                .better
                .worsening(ma, mb)
                .abs()
                .max(def.better.worsening(mb, ma).abs());
            let noise = a
                .iter()
                .chain(b)
                .map(|r| r.metrics[m].1)
                .fold(0.0, f64::max);
            let pass = differ <= bound && noise <= bound;
            ok &= pass;
            println!(
                "{name:<12} {:<16} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>6.0}% {:>8.2}%  {}",
                def.name,
                100.0 * differ,
                100.0 * bound,
                100.0 * noise,
                if pass { "ok" } else { "FAILED" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    // Before any thread is pinned: see `affinity::host_cpus`.
    affinity::host_cpus();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sysbench: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.selfcheck {
        selfcheck(args.seed, args.seconds, args.repeat)
    } else if args.smoke && args.workload.is_none() {
        smoke(args.seed)
    } else {
        let Some(name) = args.workload.as_deref() else {
            eprintln!("sysbench: --workload, --selfcheck or --smoke is required");
            return ExitCode::from(2);
        };
        let Some(&name) = WORKLOADS.iter().find(|&&w| w == name) else {
            eprintln!("sysbench: unknown workload {name:?} (one of {WORKLOADS:?})");
            return ExitCode::from(2);
        };
        let record = run(name, args.seed, args.seconds, args.trace, args.smoke);
        record.print_table();
        // The driver reads the last line of standard output.
        println!("{}", record.json_line());
        record.correct
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
