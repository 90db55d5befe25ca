//! The paper's artefacts as functions: one renderer per table or
//! figure, each returning the text the `paper` binary prints, and
//! [`ARTEFACTS`], the one table the binary dispatches on and lists in
//! `--help`.
//!
//! Renderers that aggregate over the standard corpus read one shared
//! sweep out of [`Inputs`] instead of sweeping themselves, so any
//! selection of them costs one sweep.

use std::cell::Cell;

use crate::fmt::{fmt_seconds, render_boxplot, render_table};
use crate::sweep::{
    reordered, speedups, sweep_matrix, MatrixSweep, OrderingRun, SweepConfig, ORDERINGS,
};
use archsim::{machine_by_name, simulate_spmv_1d, simulate_spmv_2d, Machine, SimResult};
use cholesky::fill_ratio;
use corpus::CorpusSize;
use reorder::{all_algorithms, timed_components_on, Gp, Nd, Rcm, ReorderAlgorithm, ReorderExec};
use sparsemat::{spy_string, SpyOptions};
use spfeatures::{geometric_mean, performance_profile, quartiles, BoxStats, ProfileCurve};
use spmv::KernelKind;

/// Everything a renderer may read.
pub struct Inputs<'a> {
    /// Corpus scale.
    pub size: CorpusSize,
    /// Where every simulated ordering is computed and applied: the
    /// sweep's, fig1's, fig4's and fig6's (`--reorder-threads` lanes).
    pub rx: ReorderExec<'a>,
    /// The machines `--machine` selected (all eight by default): the
    /// rows of Table 3/4 and `reference_dense`, the panels of Fig. 2/3.
    pub machines: &'a [Machine],
    /// The machines `sweeps` was simulated on; every `per_machine` in
    /// it is indexed like this list.
    pub swept: &'a [Machine],
    /// The standard corpus swept over `swept` (empty when no selected
    /// artefact reads it).
    pub sweeps: &'a [MatrixSweep],
    /// Set by an artefact whose own gate failed (the frontier's
    /// agreement); `paper` writes everything, then exits 1.
    pub gate_failed: Cell<bool>,
}

impl Inputs<'_> {
    /// Index of the machine called `name` in every `per_machine`.
    fn column(&self, name: &str) -> usize {
        self.swept
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("the sweep does not cover {name}"))
    }
}

/// Which machines of the shared corpus sweep an artefact reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// None: the artefact does not read the corpus sweep.
    No,
    /// The machines `--machine` selected.
    Selected,
    /// Milan B, whatever was selected (as in the paper's Fig. 5).
    MilanB,
}

/// One artefact the `paper` binary can produce.
#[derive(Debug)]
pub struct Artefact {
    /// Name on the command line and in `results/<name>_<size>.txt`.
    pub name: &'static str,
    /// One line for `--help`.
    pub about: &'static str,
    /// Part of the paper's evaluation, so written to `results/` when no
    /// artefact is named.
    pub in_paper: bool,
    /// What it reads of the corpus sweep.
    pub sweep: Sweep,
    /// Produce the text.
    pub render: fn(&Inputs) -> String,
}

/// Every artefact, in the order a full regeneration writes them.
#[rustfmt::skip] // one artefact per two lines reads as the table it is
pub const ARTEFACTS: [Artefact; 14] = [
    Artefact { name: "table2", about: "Table 2 — hardware models",
               in_paper: true, sweep: Sweep::No, render: |_| hardware() },
    Artefact { name: "fig1", about: "Fig. 1 — spy plots + speedups, 3 matrices",
               in_paper: true, sweep: Sweep::No, render: spy_plots },
    Artefact { name: "fig2", about: "Fig. 2 — 1D speedup box plots",
               in_paper: true, sweep: Sweep::Selected, render: |i| speedup_boxes(i, KernelKind::OneD) },
    Artefact { name: "table3", about: "Table 3 — geomean 1D speedups",
               in_paper: true, sweep: Sweep::Selected, render: |i| speedup_geomeans(i, KernelKind::OneD) },
    Artefact { name: "fig3", about: "Fig. 3 — 2D speedup box plots",
               in_paper: true, sweep: Sweep::Selected, render: |i| speedup_boxes(i, KernelKind::TwoD) },
    Artefact { name: "table4", about: "Table 4 — geomean 2D speedups",
               in_paper: true, sweep: Sweep::Selected, render: |i| speedup_geomeans(i, KernelKind::TwoD) },
    Artefact { name: "fig4", about: "Fig. 4 — six-class in-depth analysis",
               in_paper: true, sweep: Sweep::No, render: class_analysis },
    Artefact { name: "fig5", about: "Fig. 5 — performance profiles",
               in_paper: true, sweep: Sweep::MilanB, render: performance_profiles },
    Artefact { name: "fig6", about: "Fig. 6 — Cholesky fill ratios",
               in_paper: true, sweep: Sweep::No, render: cholesky_fill },
    Artefact { name: "table5", about: "Table 5 — reordering overhead (measured wall-clock)",
               in_paper: true, sweep: Sweep::No, render: reordering_overhead },
    Artefact { name: "frontier", about: "§4.7 — break-even frontier, policy agreement and regret (measured)",
               in_paper: true, sweep: Sweep::No, render: crate::frontier::frontier },
    Artefact { name: "reference_dense", about: "§4.2 — dense tall-skinny CSR bandwidth reference",
               in_paper: true, sweep: Sweep::No, render: reference_dense },
    Artefact { name: "diag", about: "per-matrix 1D speedups on Milan B (corpus tuning aid)",
               in_paper: false, sweep: Sweep::MilanB, render: per_matrix_speedups },
    Artefact { name: "artifact", about: "the artifact dataset's files, written to results/artifact/",
               in_paper: false, sweep: Sweep::Selected, render: write_artifact_files },
];

/// The machines the corpus sweep must cover so that every artefact in
/// `selected` finds its columns: the union of what they read, in
/// registry order. Empty when none of them reads the sweep.
pub fn sweep_machines(selected: &[&Artefact], machines: &[Machine]) -> Vec<Machine> {
    let wants = |s: Sweep| selected.iter().any(|a| a.sweep == s);
    archsim::machines()
        .into_iter()
        .filter(|m| {
            (wants(Sweep::Selected) && machines.iter().any(|s| s.name == m.name))
                || (wants(Sweep::MilanB) && m.name == "Milan B")
        })
        .collect()
}

fn strings(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|s| s.to_string()).collect()
}

/// "1D" or "2D": how the paper labels the kernel's model (the merge
/// kernel maps to 2D, as in [`crate::sweep::MachineCell::kernel`]).
fn kernel_label(kernel: KernelKind) -> &'static str {
    match kernel {
        KernelKind::OneD => "1D",
        KernelKind::TwoD | KernelKind::Merge => "2D",
    }
}

/// Table 2: the hardware used in the experiments (here: the machine
/// models encoded in `archsim`).
fn hardware() -> String {
    let header = strings(&[
        "",
        "CPUs",
        "Instr. set",
        "Microarch.",
        "Sockets",
        "Cores",
        "Freq [GHz]",
        "L1D/core [KiB]",
        "L2/core [KiB]",
        "L3/socket [MiB]",
        "BW [GB/s]",
        "Threads",
    ]);
    let rows: Vec<Vec<String>> = archsim::machines()
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.cpu.clone(),
                m.isa.clone(),
                m.microarch.clone(),
                m.sockets.to_string(),
                format!("{}x{}", m.sockets, m.cores_per_socket),
                format!("{:.1}", m.freq_ghz),
                m.l1d_kib.to_string(),
                m.l2_kib.to_string(),
                m.l3_mib_per_socket.to_string(),
                format!("{:.1}", m.mem_bw_gbs),
                m.threads.to_string(),
            ]
        })
        .collect();
    format!(
        "Table 2: Hardware models used in the simulated experiments.\n\n{}\n",
        render_table(&header, &rows)
    )
}

/// Fig. 1: sparsity patterns of three matrices under RCM, ND and GP
/// reordering, with SpMV speedups on Milan B and Ice Lake.
///
/// The paper uses Freescale/Freescale2, SNAP/com-Amazon and
/// GenBank/kmer_V1r; the corpus provides structural stand-ins for each
/// (see DESIGN.md).
fn spy_plots(inputs: &Inputs) -> String {
    let cfg = SweepConfig::for_size(inputs.size);
    let milan = machine_by_name("Milan B").expect("registry");
    let icelake = machine_by_name("Ice Lake").expect("registry");
    let spy = SpyOptions {
        width: 36,
        height: 18,
        border: true,
    };
    let mut out = String::from(
        "Fig. 1: matrices reordered with RCM, ND and GP.\n\
         Numbers below each plot: SpMV speedup (1D kernel) on Milan B / Ice Lake.\n\n",
    );
    for spec in corpus::fig1_matrices(inputs.size) {
        let a = spec.build();
        out.push_str(&format!(
            "=== {} ({} rows, {} nnz) ===\n",
            spec.name,
            a.nrows(),
            a.nnz()
        ));
        let base_milan = simulate_spmv_1d(&a, &milan).gflops;
        let base_ice = simulate_spmv_1d(&a, &icelake).gflops;
        out.push_str("--- Original ---\n");
        out.push_str(&spy_string(&a, &spy));
        out.push_str("speedup: 1.00 / 1.00\n\n");

        let algs: [&dyn ReorderAlgorithm; 3] = [&Rcm, &Nd, &Gp::new(cfg.gp_parts)];
        for alg in algs {
            let b = reordered(alg, &a, &inputs.rx);
            let s_milan = simulate_spmv_1d(&b, &milan).gflops / base_milan;
            let s_ice = simulate_spmv_1d(&b, &icelake).gflops / base_ice;
            out.push_str(&format!("--- {} ---\n", alg.name()));
            out.push_str(&spy_string(&b, &spy));
            out.push_str(&format!("speedup: {s_milan:.2} / {s_ice:.2}\n\n"));
        }
    }
    out
}

/// Fig. 2 (1D) and Fig. 3 (2D): box plots of SpMV speedup after
/// reordering, for all six orderings on every selected machine.
fn speedup_boxes(inputs: &Inputs, kernel: KernelKind) -> String {
    let mut out = String::from(match kernel {
        KernelKind::OneD => "Fig. 2: speedup of SpMV (1D algorithm) after reordering.\n",
        KernelKind::TwoD | KernelKind::Merge => {
            "Fig. 3: speedup of the nonzero-balanced CSR SpMV kernel (2D algorithm) after reordering.\n"
        }
    });
    out.push_str(&format!(
        "({} matrices; boxes show min |--[q1 =median= q3]--| max on a log scale)\n\n",
        inputs.sweeps.len()
    ));
    for m in inputs.machines {
        let mi = inputs.column(&m.name);
        out.push_str(&format!("== {} ({} threads) ==\n", m.name, m.threads));
        let entries: Vec<(String, BoxStats)> = (1..ORDERINGS.len())
            .filter_map(|o| {
                quartiles(&speedups(inputs.sweeps, o, mi, kernel))
                    .map(|b| (ORDERINGS[o].to_string(), b))
            })
            .collect();
        out.push_str(&render_boxplot(&entries, 0.125, 8.0, 57));
        out.push('\n');
    }
    out
}

/// Table 3 (1D) and Table 4 (2D): geometric mean of SpMV speedups per
/// reordering and machine.
fn speedup_geomeans(inputs: &Inputs, kernel: KernelKind) -> String {
    let label = kernel_label(kernel);
    let mut header = vec![label.to_string()];
    header.extend(ORDERINGS[1..].iter().map(|s| s.to_string()));
    header.push("Mean".to_string());
    let mut rows = Vec::new();
    let mut col_values: Vec<Vec<f64>> = vec![Vec::new(); ORDERINGS.len() - 1];
    for m in inputs.machines {
        let mi = inputs.column(&m.name);
        let mut row = vec![m.name.clone()];
        let mut vals = Vec::new();
        for o in 1..ORDERINGS.len() {
            let g = geometric_mean(&speedups(inputs.sweeps, o, mi, kernel)).unwrap_or(f64::NAN);
            col_values[o - 1].push(g);
            vals.push(g);
            row.push(format!("{g:.3}"));
        }
        row.push(format!("{:.3}", geometric_mean(&vals).unwrap_or(f64::NAN)));
        rows.push(row);
    }
    // Column means.
    let mut mean_row = vec!["Mean".to_string()];
    let mut all = Vec::new();
    for col in &col_values {
        let g = geometric_mean(col).unwrap_or(f64::NAN);
        all.push(g);
        mean_row.push(format!("{g:.3}"));
    }
    mean_row.push(format!("{:.3}", geometric_mean(&all).unwrap_or(f64::NAN)));
    rows.push(mean_row);

    format!(
        "Table {}: geometric mean of {label} SpMV speedups over the original order ({} matrices).\n\n{}\n",
        match kernel {
            KernelKind::OneD => 3,
            KernelKind::TwoD | KernelKind::Merge => 4,
        },
        inputs.sweeps.len(),
        render_table(&header, &rows)
    )
}

/// Fig. 4: in-depth analysis of six matrix classes on three platforms
/// (AMD, Intel, ARM), for both kernels and all six reordering schemes,
/// reporting speedups and 1D imbalance factors.
fn class_analysis(inputs: &Inputs) -> String {
    // One platform per vendor, as in the paper's Fig. 4 analysis.
    let machines = vec![
        machine_by_name("Milan B").expect("registry"),  // AMD
        machine_by_name("Ice Lake").expect("registry"), // Intel
        machine_by_name("Hi1620").expect("registry"),   // ARM
    ];
    let cfg = SweepConfig::for_size(inputs.size);
    let mut out = String::from(
        "Fig. 4: performance analysis of matrix classes.\n\
         Classes: 1-3 improve (locality / locality+balance / balance only),\n\
         4 unchanged, 5 reordering provokes 1D imbalance, 6 mixed.\n\n",
    );
    for (class, spec) in corpus::class_representatives(inputs.size) {
        let s = sweep_matrix(&inputs.rx, &spec, &machines, &cfg);
        out.push_str(&format!(
            "== Class {class}: {} ({} rows, {} nnz) ==\n",
            s.name, s.nrows, s.nnz
        ));
        let mut header = vec!["ordering".to_string()];
        for m in &machines {
            header.push(format!("{} 1D", m.name));
            header.push(format!("{} 2D", m.name));
        }
        header.push("imb.factor(1D)".to_string());
        let mut rows = Vec::new();
        for o in 0..ORDERINGS.len() {
            let mut row = vec![s.runs[o].ordering.clone()];
            for mi in 0..machines.len() {
                row.push(format!("{:.2}x", s.speedup(o, mi, KernelKind::OneD)));
                row.push(format!("{:.2}x", s.speedup(o, mi, KernelKind::TwoD)));
            }
            row.push(format!("{:.2}", s.runs[o].per_machine[0].one_d.imbalance));
            rows.push(row);
        }
        out.push_str(&render_table(&header, &rows));
        out.push('\n');
    }
    out
}

fn profile_block(title: &str, curves: &[ProfileCurve]) -> String {
    let mut out = format!("-- {title} --\n");
    out.push_str(&format!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "method", "t=1.0", "t=1.1", "t=1.5", "t=2.0", "t=5.0"
    ));
    for c in curves {
        out.push_str(&format!(
            "{:<10} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}\n",
            c.name,
            c.at(1.0),
            c.at(1.1),
            c.at(1.5),
            c.at(2.0),
            c.at(5.0)
        ));
    }
    out.push('\n');
    out
}

/// Fig. 5: Dolan–Moré performance profiles comparing the orderings on
/// bandwidth, profile, off-diagonal nonzero count and SpMV runtime
/// (Milan B, as in the paper).
fn performance_profiles(inputs: &Inputs) -> String {
    let milan = inputs.column("Milan B");
    let taus: Vec<f64> = {
        let mut t = vec![1.0];
        while *t.last().unwrap() < 32.0 {
            t.push(t.last().unwrap() * 1.05);
        }
        t
    };
    let block = |title: &str, cost_of: &dyn Fn(&OrderingRun) -> f64| {
        let cost: Vec<Vec<f64>> = inputs
            .sweeps
            .iter()
            .map(|s| s.runs.iter().map(cost_of).collect())
            .collect();
        profile_block(title, &performance_profile(&ORDERINGS, &cost, &taus))
    };
    let mut out = String::from(
        "Fig. 5: performance profiles (fraction of matrices within factor t of the best method).\n\n",
    );
    out.push_str(&block("bandwidth", &|r| r.features.bandwidth.max(1) as f64));
    out.push_str(&block("profile", &|r| r.features.profile.max(1) as f64));
    out.push_str(&block("off-diagonal nnz", &|r| {
        r.features.off_diagonal_nnz.max(1) as f64
    }));
    out.push_str(&block("SpMV runtime (Milan B, 1D)", &|r| {
        r.per_machine[milan].one_d.seconds
    }));
    out
}

/// Fig. 6: ratio of nonzeros in the Cholesky factor L to nonzeros in
/// A, for the symmetric orderings on the SPD corpus subset. Gray is
/// excluded (it is unsymmetric and cannot precondition a Cholesky
/// factorisation, §4.6).
fn cholesky_fill(inputs: &Inputs) -> String {
    let cfg = SweepConfig::for_size(inputs.size);
    let specs = corpus::spd_corpus(inputs.size);
    let algs: Vec<Box<dyn ReorderAlgorithm + Send + Sync>> =
        all_algorithms(cfg.gp_parts, cfg.hp_parts)
            .into_iter()
            .filter(|a| a.name() != "Gray")
            .collect();
    let mut names: Vec<String> = vec!["Original".to_string()];
    names.extend(algs.iter().map(|a| a.name().to_string()));
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); names.len()];

    for spec in &specs {
        let a = spec.build();
        ratios[0].push(fill_ratio(&a));
        for (k, alg) in algs.iter().enumerate() {
            ratios[k + 1].push(fill_ratio(&reordered(alg.as_ref(), &a, &inputs.rx)));
        }
    }

    let entries: Vec<(String, BoxStats)> = names
        .iter()
        .zip(ratios.iter())
        .filter_map(|(n, r)| quartiles(r).map(|b| (n.clone(), b)))
        .collect();
    let hi = entries.iter().map(|(_, b)| b.max).fold(2.0f64, f64::max) * 1.1;
    format!(
        "Fig. 6: nonzero ratio nnz(L)/nnz(A) for Cholesky with different orderings ({} SPD matrices).\n\n\
         {}\n\
         (lower is better; AMD and ND are expected to produce the least fill)\n",
        specs.len(),
        render_boxplot(&entries, 0.9, hi, 57)
    )
}

/// Table 5: wall-clock time to reorder the ten largest corpus
/// matrices, next to the (simulated) time of one SpMV iteration on Ice
/// Lake with 72 threads.
///
/// Unlike the SpMV numbers elsewhere (which come from the machine
/// model), the reordering times here are real, measured on the host —
/// the one artefact that does not reproduce byte for byte. The
/// reordering implementations are the actual algorithms, so their
/// relative cost — Gray fastest, RCM second, ND/HP slowest — is
/// directly observable.
fn reordering_overhead(inputs: &Inputs) -> String {
    let cfg = SweepConfig::for_size(inputs.size);
    let icelake = machine_by_name("Ice Lake").expect("registry");
    let header = strings(&[
        "Matrix Name",
        "RCM",
        "AMD",
        "ND",
        "GP",
        "HP",
        "Gray",
        "SpMV",
    ]);
    let registry = telemetry::Registry::new();
    // One lane, whatever `--reorder-threads` says: the table reports
    // what an ordering costs on one core.
    let rx = ReorderExec::sequential();
    let mut rows = Vec::new();
    for spec in &corpus::overhead_matrices(inputs.size) {
        let a = spec.build();
        let mut row = vec![spec.name.clone()];
        for alg in all_algorithms(cfg.gp_parts, cfg.hp_parts) {
            let t = timed_components_on(&registry, alg.as_ref(), &a, &rx)
                .expect("overhead matrices are square");
            row.push(fmt_seconds(t.elapsed.as_secs_f64()));
        }
        row.push(fmt_seconds(simulate_spmv_1d(&a, &icelake).seconds));
        rows.push(row);
    }
    format!(
        "Table 5: time (s) to reorder a matrix, measured on this host.\n\
         For comparison, the (simulated) time of one CSR SpMV iteration on Ice Lake\n\
         with 72 threads is also shown.\n\n\
         {}\n\
         Amortisation example (paper §4.7): if reordering takes R seconds, one SpMV\n\
         takes s seconds, and reordering speeds SpMV up by factor f, then\n\
         R / (s * (1 - 1/f)) SpMV iterations are needed to break even.\n",
        render_table(&header, &rows)
    )
}

/// The §4.2 reference measurement: SpMV on a dense tall-and-skinny
/// matrix stored in CSR. The paper reports ~53 Gflop/s (317 GB/s, 77 %
/// of peak bandwidth) on the 128-core Milan B for a 96 000 x 4 000
/// matrix; this runs the machine model on a scaled version of the same
/// shape.
fn reference_dense(inputs: &Inputs) -> String {
    let cols = match inputs.size {
        CorpusSize::Small => 400,
        CorpusSize::Medium => 1_000,
        CorpusSize::Large => 4_000,
    };
    let header = strings(&[
        "Machine",
        "rows x cols",
        "1D Gflop/s",
        "2D Gflop/s",
        "GB/s (1D)",
        "% of nominal BW",
    ]);
    let mut table = Vec::new();
    for m in inputs.machines {
        // Scale rows so the CSR image is at least 1.5x the machine's L3.
        let min_bytes = (m.l3_total_bytes() as f64 * 1.5) as usize;
        let rows = (min_bytes / (cols * 12)).max(9_600);
        let a = corpus::tall_dense(rows, cols);
        let r1 = simulate_spmv_1d(&a, m);
        let r2 = simulate_spmv_2d(&a, m);
        let gbs = r1.dram_bytes / r1.seconds / 1e9;
        table.push(vec![
            m.name.clone(),
            format!("{}x{}", rows, cols),
            format!("{:.1}", r1.gflops),
            format!("{:.1}", r2.gflops),
            format!("{:.1}", gbs),
            format!("{:.0}%", 100.0 * gbs / m.mem_bw_gbs),
        ]);
    }
    format!(
        "Reference: dense tall-skinny matrix in CSR, scaled per machine so the\n\
         matrix exceeds its last-level cache (the paper's 96 000 x 4 000 matrix\n\
         is 1.5 GiB and does not fit in any of the L3s).\n\
         Paper (§4.2): ~53 Gflop/s / 317 GB/s on Milan B = 77 % of peak.\n\n\
         {}\n",
        render_table(&header, &table)
    )
}

/// Diagnostic: per-matrix 1D speedups per ordering on Milan B (not one
/// of the paper's artefacts; used to tune corpus balance).
fn per_matrix_speedups(inputs: &Inputs) -> String {
    let milan = inputs.column("Milan B");
    let mut header = strings(&["matrix", "nnz"]);
    header.extend(ORDERINGS[1..].iter().map(|s| s.to_string()));
    let rows: Vec<Vec<String>> = inputs
        .sweeps
        .iter()
        .map(|s| {
            let mut row = vec![s.name.clone(), s.nnz.to_string()];
            row.extend(
                (1..ORDERINGS.len())
                    .map(|o| format!("{:.2}", s.speedup(o, milan, KernelKind::OneD))),
            );
            row
        })
        .collect();
    format!("{}\n", render_table(&header, &rows))
}

/// Artifact column order for the orderings (differs from the paper's
/// table order: ND precedes AMD here).
const ARTIFACT_ORDER: [&str; 7] = ["Original", "RCM", "ND", "AMD", "GP", "HP", "Gray"];

/// Writes measurement files in the layout of the paper's artifact
/// dataset (Zenodo 10.5281/zenodo.7821491) into `results/artifact/` and
/// returns the one-line summary: one plain-text table per selected
/// machine and kernel, one row per matrix, with five matrix-identity
/// columns, the thread count, and seven columns per ordering in
/// [`ARTIFACT_ORDER`]:
///
/// 1. minimum nonzeros processed by any thread
/// 2. maximum nonzeros processed by any thread
/// 3. mean nonzeros per thread
/// 4. imbalance factor (max / mean)
/// 5. time (s) for one SpMV iteration (minimum over repetitions)
/// 6. maximum performance (Gflop/s)
/// 7. mean performance (Gflop/s)
///
/// The cost model is deterministic, so the "minimum over repetitions"
/// equals every repetition and columns 6 and 7 coincide; the real
/// artifact's max/mean differ only by measurement noise.
fn write_artifact_files(inputs: &Inputs) -> String {
    let dir = std::path::Path::new("results/artifact");
    std::fs::create_dir_all(dir).expect("create results/artifact");
    let stats = |r: &SimResult| {
        let nnz_min = r.thread_nnz.iter().copied().min().unwrap_or(0);
        let nnz_max = r.thread_nnz.iter().copied().max().unwrap_or(0);
        let mean = r.thread_nnz.iter().sum::<usize>() as f64 / r.thread_nnz.len().max(1) as f64;
        format!(
            " {} {} {:.1} {:.4} {:.6e} {:.4} {:.4}",
            nnz_min, nnz_max, mean, r.imbalance, r.seconds, r.gflops, r.gflops
        )
    };
    for m in inputs.machines {
        let mi = inputs.column(&m.name);
        let slug = m.name.to_lowercase().replace(' ', "");
        for kernel in [KernelKind::OneD, KernelKind::TwoD] {
            let name = format!(
                "csr_{}_{slug}_{:03}_threads_synth{}.txt",
                kernel_label(kernel).to_lowercase(),
                m.threads,
                inputs.sweeps.len()
            );
            let mut text = format!(
                "# group name rows cols nnz threads then per ordering ({ARTIFACT_ORDER:?}):\n\
                 # nnz_min nnz_max nnz_mean imbalance time_s max_gflops mean_gflops\n"
            );
            for s in inputs.sweeps {
                text.push_str(&format!(
                    "{} {} {} {} {} {}",
                    s.group, s.name, s.nrows, s.ncols, s.nnz, m.threads
                ));
                for want in ARTIFACT_ORDER {
                    let run = s
                        .runs
                        .iter()
                        .find(|r| r.ordering == want)
                        .expect("ordering present");
                    text.push_str(&stats(run.per_machine[mi].kernel(kernel)));
                }
                text.push('\n');
            }
            std::fs::write(dir.join(&name), text)
                .unwrap_or_else(|e| panic!("write results/artifact/{name}: {e}"));
        }
    }
    format!(
        "artifact files for {} machines x 2 kernels written to results/artifact/\n",
        inputs.machines.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_corpus;
    use telemetry::trace::FlightRecorder;

    fn artefact(name: &str) -> &'static Artefact {
        ARTEFACTS.iter().find(|a| a.name == name).unwrap()
    }

    #[test]
    fn five_corpus_artefacts_share_one_sweep() {
        let specs: Vec<_> = corpus::standard_corpus(CorpusSize::Small)
            .into_iter()
            .filter(|s| s.name.contains("band") || s.name.contains("mesh2d"))
            .take(3)
            .collect();
        // `--machine Rome`; Fig. 5 reads Milan B whatever was selected,
        // and artefacts that do not read the sweep ask for none.
        let machines = vec![machine_by_name("Rome").unwrap()];
        let no_sweep = ["table2", "fig1", "fig4", "fig6", "table5", "frontier"].map(artefact);
        assert!(sweep_machines(&no_sweep, &machines).is_empty());
        let selected = ["fig2", "table3", "fig3", "table4", "fig5"].map(artefact);
        let swept = sweep_machines(&selected, &machines);
        let names: Vec<&str> = swept.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["Rome", "Milan B"]);

        // Every ordering records its `reorder.*` spans under the
        // executor's trace: the sweep computes them, the renders none.
        let recorder = FlightRecorder::new(1 << 14);
        let rx = ReorderExec::sequential().with_trace(recorder.start_trace());
        let reorder_spans = || {
            let snapshot = recorder.snapshot();
            snapshot
                .events()
                .filter(|e| e.name.starts_with("reorder."))
                .count()
        };
        let cfg = SweepConfig::for_size(CorpusSize::Small);
        let sweeps = sweep_corpus(&rx, &specs, &swept, &cfg);
        let swept_spans = reorder_spans();
        assert!(swept_spans > 0);
        let inputs = Inputs {
            size: CorpusSize::Small,
            rx,
            machines: &machines,
            swept: &swept,
            sweeps: &sweeps,
            gate_failed: Cell::new(false),
        };
        let texts = selected.map(|a| (a.render)(&inputs));
        assert_eq!(reorder_spans(), swept_spans);

        // Table 3 and Table 4 are one function: the texts differ in the
        // table number, the kernel label and the numbers, nothing else.
        let (t3, t4) = (&texts[1], &texts[3]);
        assert_ne!(t3, t4);
        let (l3, l4): (Vec<&str>, Vec<&str>) = (t3.lines().collect(), t4.lines().collect());
        assert_eq!(l3.len(), l4.len());
        assert_eq!(
            l3[0].replace("Table 3", "Table 4").replace("1D", "2D"),
            l4[0]
        );
        assert_eq!(l3[2].replace("1D", "2D"), l4[2]);
        for (a, b) in l3[3..].iter().zip(&l4[3..]) {
            assert_eq!(a.len(), b.len());
            assert_eq!(a.split_whitespace().next(), b.split_whitespace().next());
        }
    }
}
