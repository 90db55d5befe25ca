//! `frontier`: the "when does reordering win" break-even sweep.
//!
//! For each (matrix family, algorithm) pair the sweep measures, on
//! this host: the per-iteration SpMV time in the original order, the
//! same after reordering, and the one-time reorder cost. From those
//! it derives the paper's amortisation frontier (§4.7),
//!
//! ```text
//! break_even_reps = reorder_cost / (t_base * (1 - t_reordered/t_base))
//!                 = reorder_cost / (t_base - t_reordered)
//! ```
//!
//! — the number of SpMV repetitions a workload must perform before
//! paying for the ordering is worth it. A cell of the frontier table
//! at repetition count `r` says "reorder" iff `r >= break_even_reps`.
//!
//! The sweep then replays each cell's traffic (`r` identical requests)
//! through a fresh adaptive [`policy::PolicyEngine`] fed the measured
//! times, and compares the policy's post-warm-up decision against the
//! table's ground truth. Outside `--test` mode the run fails (exit 1)
//! if agreement falls below [`AGREEMENT_GATE`].
//!
//! Artefacts: `results/frontier.md` (break-even table + agreement
//! grid) and `results/frontier.json` (raw numbers), unless `--test`.
//!
//! Usage: `frontier [--size small|medium|large] [--out DIR] [--test]`

use std::sync::Arc;

use corpus::{standard_corpus, CorpusSize, MatrixSpec};
use engine::AlgoSpec;
use experiments::cli::parse_size;
use policy::{PolicyConfig, PolicyEngine, PolicyMode};
use reorder::{timed_components_on, ReorderExec};
use sparsemat::CsrMatrix;
use spmv::{measure_spmv_in, KernelKind, MeasureConfig};
use telemetry::Registry;

/// Minimum fraction of cells where the adaptive policy must agree with
/// the measured break-even ground truth.
const AGREEMENT_GATE: f64 = 0.8;

/// Repetition counts forming the frontier's traffic axis. Chosen to
/// straddle typical break-even points on a small host while avoiding
/// the immediate neighbourhood of the policy's probe threshold (8),
/// where both verdicts are legitimately ambiguous.
const REPS_AXIS: &[u64] = &[1, 2, 4, 16, 64, 256, 1024];

struct Options {
    size: CorpusSize,
    out: String,
    test: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        size: CorpusSize::Small,
        out: "results".to_string(),
        test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => opts.size = parse_size(&it.next().unwrap_or_default()),
            "--out" => {
                opts.out = it.next().unwrap_or_default();
                if opts.out.is_empty() {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            }
            "--test" => opts.test = true,
            "--help" | "-h" => {
                println!(
                    "usage: frontier [--size small|medium|large] [--out DIR] [--test]\n\
                     \n\
                     Measures the reordering break-even frontier on this host and\n\
                     checks the adaptive policy reproduces it. --test runs a tiny\n\
                     smoke sweep without writing artefacts or enforcing the gate."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One measured (matrix, algorithm) pair.
struct PairResult {
    matrix: String,
    algo: AlgoSpec,
    nnz: usize,
    t_base: f64,
    t_reordered: f64,
    reorder_cost: f64,
    /// `f64::INFINITY` when the reordering does not speed SpMV up.
    break_even: f64,
    /// Per-REPS_AXIS cell: (table verdict, adaptive verdict).
    cells: Vec<(bool, bool)>,
}

/// The sweep's matrix list: one representative per structural group,
/// so each family contributes exactly one row.
fn family_representatives(size: CorpusSize) -> Vec<MatrixSpec> {
    let mut seen: Vec<String> = Vec::new();
    let mut picks = Vec::new();
    for spec in standard_corpus(size) {
        if !seen.contains(&spec.group) {
            seen.push(spec.group.clone());
            picks.push(spec);
        }
    }
    picks
}

/// Replay `reps` identical requests for (matrix, algo) through a fresh
/// adaptive policy engine, feeding it the measured times, and return
/// its post-warm-up verdict on the cell's question: does paying for
/// this reordering amortise within `reps` repetitions? The verdict
/// comes from [`PolicyEngine::would_amortize`] — the ledger's
/// converged observations — falling back to the live decision when
/// the replay was too short to gather data.
fn adaptive_verdict(
    registry: &Arc<Registry>,
    a: &CsrMatrix,
    hash: u128,
    algo: AlgoSpec,
    pair: &PairResult,
    reps: u64,
) -> bool {
    let policy = PolicyEngine::new(PolicyConfig {
        mode: PolicyMode::Adaptive,
        registry: Some(Arc::clone(registry)),
    });
    let mut cached = false;
    for _ in 0..reps {
        let decision = policy.decide(a, hash, algo, cached);
        if decision.reorders() {
            if !cached {
                policy.record_reorder_paid(hash, algo, pair.reorder_cost);
                cached = true;
            }
            policy.observe_spmv(hash, algo, pair.t_reordered);
        } else {
            policy.observe_spmv(hash, AlgoSpec::Original, pair.t_base);
        }
    }
    policy
        .would_amortize(hash, algo, reps)
        .unwrap_or_else(|| policy.decide(a, hash, algo, cached).reorders())
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

fn write_artifacts(out: &str, size: CorpusSize, pairs: &[PairResult], agreement: f64) {
    std::fs::create_dir_all(out).expect("create output directory");

    let mut md = String::new();
    md.push_str("# Reordering break-even frontier\n\n");
    md.push_str(&format!(
        "Host-measured amortisation frontier (corpus size: {size:?}, kernel: 1D CSR).\n\
         `break-even` is the number of SpMV repetitions needed to pay for the\n\
         reordering; a cell says `RE` when reordering wins at that repetition\n\
         count, `--` when staying in the original order wins. `policy` cells\n\
         show the adaptive policy's decision after replaying that much traffic;\n\
         `*` marks disagreement with the measured ground truth.\n\n"
    ));
    md.push_str("| matrix | algo | nnz | t_base | t_reord | cost | break-even |");
    for reps in REPS_AXIS {
        md.push_str(&format!(" r={reps} |"));
    }
    md.push('\n');
    md.push_str("|---|---|---|---|---|---|---|");
    for _ in REPS_AXIS {
        md.push_str("---|");
    }
    md.push('\n');
    for p in pairs {
        let be = if p.break_even.is_finite() {
            format!("{:.0}", p.break_even.ceil())
        } else {
            "never".to_string()
        };
        md.push_str(&format!(
            "| {} | {} | {} | {:.2} us | {:.2} us | {:.2} ms | {} |",
            p.matrix,
            p.algo.name(),
            p.nnz,
            p.t_base * 1e6,
            p.t_reordered * 1e6,
            p.reorder_cost * 1e3,
            be,
        ));
        for (table, adaptive) in &p.cells {
            let cell = match (table, adaptive) {
                (true, true) => "RE",
                (false, false) => "--",
                (true, false) => "--*",
                (false, true) => "RE*",
            };
            md.push_str(&format!(" {cell} |"));
        }
        md.push('\n');
    }
    md.push_str(&format!(
        "\nAdaptive policy agreement: {:.1}% of {} cells (gate: {:.0}%).\n",
        agreement * 100.0,
        pairs.len() * REPS_AXIS.len(),
        AGREEMENT_GATE * 100.0
    ));
    std::fs::write(format!("{out}/frontier.md"), md).expect("write frontier.md");

    let mut rows = Vec::new();
    for p in pairs {
        let cells: Vec<String> = p
            .cells
            .iter()
            .zip(REPS_AXIS)
            .map(|((table, adaptive), reps)| {
                format!(
                    "{{\"reps\":{reps},\"table_reorders\":{table},\"adaptive_reorders\":{adaptive}}}"
                )
            })
            .collect();
        rows.push(format!(
            "    {{\"matrix\":\"{}\",\"algo\":\"{}\",\"nnz\":{},\"t_base_s\":{},\
             \"t_reordered_s\":{},\"reorder_cost_s\":{},\"break_even_reps\":{},\
             \"cells\":[{}]}}",
            p.matrix,
            p.algo.name(),
            p.nnz,
            json_f64(p.t_base),
            json_f64(p.t_reordered),
            json_f64(p.reorder_cost),
            json_f64(p.break_even),
            cells.join(",")
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"frontier\",\n  \"size\": \"{size:?}\",\n  \
         \"reps_axis\": {REPS_AXIS:?},\n  \"agreement\": {:.4},\n  \
         \"agreement_gate\": {AGREEMENT_GATE},\n  \"pairs\": [\n{}\n  ]\n}}\n",
        agreement,
        rows.join(",\n")
    );
    std::fs::write(format!("{out}/frontier.json"), json).expect("write frontier.json");
}

fn main() {
    let opts = parse_args();
    let registry = Arc::new(Registry::new());
    let rx = ReorderExec::sequential();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let measure = MeasureConfig {
        repetitions: if opts.test { 8 } else { 30 },
        warmup: 3,
        nthreads: threads,
    };

    let mut specs = family_representatives(opts.size);
    let algos: Vec<AlgoSpec> = if opts.test {
        specs.truncate(2);
        vec![AlgoSpec::Rcm]
    } else {
        vec![AlgoSpec::Rcm, AlgoSpec::Amd, AlgoSpec::Gp { parts: 8 }]
    };

    let mut pairs: Vec<PairResult> = Vec::new();
    for spec in &specs {
        let a = Arc::new(spec.build());
        let hash = a.content_hash();
        let base = measure_spmv_in(&registry, &a, KernelKind::OneD, &measure);
        for &algo in &algos {
            // timed_components_on also calibrates the
            // `reorder.<algo>.nnz_per_s` gauge the policy's cost model
            // reads, so the replayed decisions see live throughput.
            let timed = match timed_components_on(&registry, &*algo.instantiate(), &a, &rx) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("frontier: {} / {}: {e:?} (skipped)", spec.name, algo.name());
                    continue;
                }
            };
            let reorder_cost = timed.elapsed.as_secs_f64();
            let b = Arc::new(timed.result.apply(&a).expect("permutation applies"));
            let reordered = measure_spmv_in(&registry, &b, KernelKind::OneD, &measure);

            let (t_base, t_reordered) = (base.min_time, reordered.min_time);
            let break_even = if t_base > t_reordered {
                reorder_cost / (t_base - t_reordered)
            } else {
                f64::INFINITY
            };
            let mut pair = PairResult {
                matrix: spec.name.clone(),
                algo,
                nnz: a.nnz(),
                t_base,
                t_reordered,
                reorder_cost,
                break_even,
                cells: Vec::new(),
            };
            for &reps in REPS_AXIS {
                let table = (reps as f64) >= break_even;
                let adaptive = adaptive_verdict(&registry, &a, hash, algo, &pair, reps);
                pair.cells.push((table, adaptive));
            }
            eprintln!(
                "frontier: {} / {}: base {:.2} us, reordered {:.2} us, cost {:.2} ms, \
                 break-even {:.0}",
                spec.name,
                algo.name(),
                t_base * 1e6,
                t_reordered * 1e6,
                reorder_cost * 1e3,
                break_even.min(1e9),
            );
            pairs.push(pair);
        }
    }

    let total: usize = pairs.iter().map(|p| p.cells.len()).sum();
    let agree: usize = pairs
        .iter()
        .flat_map(|p| p.cells.iter())
        .filter(|(table, adaptive)| table == adaptive)
        .count();
    let agreement = if total == 0 {
        0.0
    } else {
        agree as f64 / total as f64
    };

    println!(
        "frontier: {} pair(s), {} cell(s), adaptive agreement {:.1}% (gate {:.0}%)",
        pairs.len(),
        total,
        agreement * 100.0,
        AGREEMENT_GATE * 100.0
    );
    for p in &pairs {
        let be = if p.break_even.is_finite() {
            format!("{:.0} reps", p.break_even.ceil())
        } else {
            "never".to_string()
        };
        println!(
            "  {:28} {:4}  speedup {:.2}x  cost {:8.2} ms  break-even {}",
            p.matrix,
            p.algo.name(),
            p.t_base / p.t_reordered,
            p.reorder_cost * 1e3,
            be
        );
    }

    if opts.test {
        println!("frontier: --test smoke complete (no artefacts written, gate not enforced)");
        return;
    }
    write_artifacts(&opts.out, opts.size, &pairs, agreement);
    println!(
        "frontier: wrote {}/frontier.md and {}/frontier.json",
        opts.out, opts.out
    );
    if agreement < AGREEMENT_GATE {
        eprintln!(
            "frontier: adaptive agreement {:.1}% below gate {:.0}%",
            agreement * 100.0,
            AGREEMENT_GATE * 100.0
        );
        std::process::exit(1);
    }
}
