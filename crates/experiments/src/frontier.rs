//! The break-even frontier (paper §4.7): after how many SpMVs does a
//! reordering pay for itself on this host, does the adaptive policy
//! reach the same verdict, and what does its way of getting there cost?
//!
//! For one representative matrix per corpus family × {RCM, AMD, GP(8)}
//! the artefact measures the original-order SpMV time `t_base`, the
//! reordered time `t_reord` and the one-time reorder cost, and derives
//!
//! ```text
//! break_even = cost / (t_base − t_reord)
//! ```
//!
//! — a cell at repetition count `r` says "reorder" iff `r ≥
//! break_even`. Each cell's traffic (`r` identical requests) is then
//! replayed through a fresh adaptive [`PolicyEngine`] fed the measured
//! times. Two scores come out of the replay:
//!
//! - **agreement**: the policy's verdict after the replay
//!   ([`PolicyEngine::would_amortize`]) against the cell's; `paper`
//!   exits 1 below [`AGREEMENT_GATE`];
//! - **regret**: the seconds each policy spent on the cell minus the
//!   cheaper fixed plan, `min(r·t_base, cost + r·t_reord)`. The adaptive
//!   replay pays the cost once, at its first reorder; Always pays
//!   `cost + r·t_reord` and Never `r·t_base`.

use std::sync::Arc;

use corpus::{standard_corpus, MatrixSpec};
use engine::AlgoSpec;
use policy::{PolicyConfig, PolicyEngine, PolicyMode};
use sparsemat::CsrMatrix;
use spmv::{host_threads, measure_spmv_in, KernelKind, MeasureConfig};
use telemetry::Registry;

use crate::artefacts::Inputs;
use crate::fmt::render_table;

/// Minimum fraction of cells where the replayed adaptive policy must
/// agree with the measured break-even verdict.
const AGREEMENT_GATE: f64 = 0.8;

/// Repetition counts forming the frontier's traffic axis. Chosen to
/// straddle typical break-even points on a small host while avoiding
/// the immediate neighbourhood of the policy's probe threshold (8),
/// where both verdicts are legitimately ambiguous.
const REPS_AXIS: [u64; 7] = [1, 2, 4, 16, 64, 256, 1024];

/// The orderings each representative is measured under.
const ALGOS: [AlgoSpec; 3] = [AlgoSpec::Rcm, AlgoSpec::Amd, AlgoSpec::Gp { parts: 8 }];

/// The policies scored, in the order [`Outcome::regret`] holds them.
const POLICIES: [&str; 3] = ["adaptive", "always", "never"];

/// The measured times of one (matrix, algorithm) pair, in seconds.
#[derive(Debug, Clone, Copy)]
struct Pair {
    algo: AlgoSpec,
    t_base: f64,
    t_reord: f64,
    cost: f64,
}

impl Pair {
    /// Repetitions after which reordering has paid for itself
    /// (`INFINITY` when it does not speed SpMV up).
    fn break_even(&self) -> f64 {
        if self.t_base > self.t_reord {
            self.cost / (self.t_base - self.t_reord)
        } else {
            f64::INFINITY
        }
    }
}

/// One cell of the frontier: its measured verdict, the replayed
/// policy's, and each policy's regret.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    table: bool,
    adaptive: bool,
    /// Seconds lost against the cheaper fixed plan, by [`POLICIES`].
    regret: [f64; 3],
}

/// Replay `reps` identical requests for `pair` through a fresh adaptive
/// policy, charging the cost at its first reorder and each request the
/// time of the order it was served in. The policy's verdict is the
/// ledger's: with no evidence that the ordering pays, it does not.
fn replay(a: &CsrMatrix, pair: &Pair, reps: u64) -> Outcome {
    let policy = PolicyEngine::new(PolicyConfig {
        mode: PolicyMode::Adaptive,
        registry: Some(Registry::new_arc()),
    });
    let (hash, algo) = (0, pair.algo);
    let (mut spent, mut paid) = (0.0, false);
    for _ in 0..reps {
        if policy.decide(a, hash, algo, paid).reorders() {
            if !paid {
                policy.record_reorder_paid(hash, algo, pair.cost);
                spent += pair.cost;
                paid = true;
            }
            policy.observe_spmv(hash, algo, pair.t_reord);
            spent += pair.t_reord;
        } else {
            policy.observe_spmv(hash, AlgoSpec::Original, pair.t_base);
            spent += pair.t_base;
        }
    }
    let r = reps as f64;
    let (always, never) = (pair.cost + r * pair.t_reord, r * pair.t_base);
    let best = always.min(never);
    Outcome {
        table: r >= pair.break_even(),
        adaptive: policy.would_amortize(hash, algo, reps).unwrap_or(false),
        regret: [spent - best, always - best, never - best],
    }
}

/// One representative per structural group, so each family
/// contributes one matrix.
fn family_representatives(inputs: &Inputs) -> Vec<MatrixSpec> {
    let mut picks: Vec<MatrixSpec> = Vec::new();
    for spec in standard_corpus(inputs.size) {
        if !picks.iter().any(|p| p.group == spec.group) {
            picks.push(spec);
        }
    }
    picks
}

/// The frontier artefact: break-even table, agreement and regret.
/// Sets [`Inputs::gate_failed`] when agreement is below the gate.
pub fn frontier(inputs: &Inputs) -> String {
    let registry = Registry::new_arc();
    // One lane: on a small matrix a wider team times the other lanes'
    // wake-up, not the ordering's locality.
    let measure = MeasureConfig {
        repetitions: 30,
        warmup: 3,
        nthreads: 1,
    };
    let mut header: Vec<String> = "matrix algo nnz t_base t_reord cost break-even"
        .split(' ')
        .map(String::from)
        .collect();
    header.extend(REPS_AXIS.iter().map(|r| format!("r={r}")));
    let (mut rows, mut cells) = (Vec::new(), Vec::new());
    for spec in family_representatives(inputs) {
        let a = Arc::new(spec.build());
        let t_base = measure_spmv_in(&registry, &a, KernelKind::OneD, &measure).min_time;
        for algo in ALGOS {
            // Timed on one lane, whatever `--reorder-threads` says: the
            // cost a cell amortises is the one-core cost.
            let timed = reorder::timed_components_on(
                &registry,
                algo.instantiate().as_ref(),
                &a,
                &reorder::ReorderExec::sequential(),
            )
            .expect("corpus matrices are square");
            let b = Arc::new(timed.result.apply(&a).expect("permutation applies"));
            let pair = Pair {
                algo,
                t_base,
                t_reord: measure_spmv_in(&registry, &b, KernelKind::OneD, &measure).min_time,
                cost: timed.elapsed.as_secs_f64(),
            };
            let break_even = pair.break_even();
            let mut row = vec![
                spec.name.clone(),
                algo.name().to_string(),
                a.nnz().to_string(),
                format!("{:.2} us", pair.t_base * 1e6),
                format!("{:.2} us", pair.t_reord * 1e6),
                format!("{:.2} ms", pair.cost * 1e3),
                if break_even.is_finite() {
                    format!("{:.0}", break_even.ceil())
                } else {
                    "never".into()
                },
            ];
            for reps in REPS_AXIS {
                let cell = replay(&a, &pair, reps);
                let mark = if cell.table == cell.adaptive { "" } else { "*" };
                row.push(format!("{}{mark}", if cell.table { "RE" } else { "--" }));
                cells.push(cell);
            }
            rows.push(row);
        }
    }

    let agree = cells.iter().filter(|c| c.table == c.adaptive).count();
    let agreement = agree as f64 / cells.len().max(1) as f64;
    if agreement < AGREEMENT_GATE {
        eprintln!(
            "frontier: adaptive agreement {:.1}% below the {:.0}% gate",
            agreement * 100.0,
            AGREEMENT_GATE * 100.0
        );
        inputs.gate_failed.set(true);
    }
    let mut text = format!(
        "Break-even frontier (paper §4.7), measured on this host: host_threads {},\n\
         SpMV on {} lane, 1D CSR kernel, minimum of {} SpMVs. `break-even` =\n\
         cost / (t_base - t_reord) repetitions. A cell reads RE when reordering pays\n\
         at that repetition count, -- when the original order wins; * marks a cell\n\
         where the adaptive policy, replayed over that much traffic, answers otherwise.\n\n{}\n\
         Adaptive policy agreement: {:.1}% of {} cells (gate: {:.0}%).\n\n\
         Regret: seconds spent minus min(r * t_base, cost + r * t_reord), summed over\n\
         the cells. Adaptive pays the cost at its first reorder (the probe at request\n\
         8), Always pays cost + r * t_reord, Never r * t_base.\n",
        host_threads(),
        measure.nthreads,
        measure.repetitions,
        render_table(&header, &rows),
        agreement * 100.0,
        cells.len(),
        AGREEMENT_GATE * 100.0,
    );
    for (p, name) in POLICIES.iter().enumerate() {
        let sum: f64 = cells.iter().map(|c| c.regret[p]).sum();
        text.push_str(&format!("  {name:<8} {:10.3} ms\n", sum * 1e3));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary fractions, so every sum below is exact.
    fn replayed(t_base: f64, t_reord: f64, cost: f64, reps: u64) -> Outcome {
        let a = corpus::mesh2d(2, 2);
        let pair = Pair {
            algo: AlgoSpec::Rcm,
            t_base,
            t_reord,
            cost,
        };
        replay(&a, &pair, reps)
    }

    #[test]
    fn regret_is_charged_per_policy_against_the_cheaper_plan() {
        // A winning pair: 0.5 s → 0.25 s for 2 s, break-even at 8.
        // Below the probe, adaptive serves 4 × 0.5 = 2 s, as Never;
        // Always spends 2 + 4 × 0.25 = 3 s.
        let cell = replayed(0.5, 0.25, 2.0, 4);
        assert!(!cell.table && !cell.adaptive);
        assert_eq!(cell.regret, [0.0, 1.0, 0.0]);
        // Above it: requests 1–7 original (3.5 s), the probe at 8 pays
        // 2 s, and 8–64 run reordered (57 × 0.25 = 14.25 s): 19.75 s
        // against Always's 2 + 16 = 18 s and Never's 32 s.
        let cell = replayed(0.5, 0.25, 2.0, 64);
        assert!(cell.table && cell.adaptive);
        assert_eq!(cell.regret, [1.75, 0.0, 14.0]);

        // A losing pair: 0.25 s → 0.5 s for 1 s, never breaks even.
        let cell = replayed(0.25, 0.5, 1.0, 4);
        assert!(!cell.table && !cell.adaptive);
        assert_eq!(cell.regret, [0.0, 2.0, 0.0]);
        // Above the probe: reordered at the probe (8, paying 1 s),
        // until the verdict forms (9, 10), and at each re-probe and
        // the request after it (16–17, 32–33, 64): 8 × 0.5 + 1 = 5 s,
        // plus 56 × 0.25 = 14 s original, against Never's 16 s.
        let cell = replayed(0.25, 0.5, 1.0, 64);
        assert!(!cell.table && !cell.adaptive);
        assert_eq!(cell.regret, [3.0, 17.0, 0.0]);
    }
}
