//! Regenerates the paper's tables and figures (see `paper --help` for
//! the list). Named artefacts print to stdout in the order named; with
//! none named, the paper's twelve are written to
//! `results/<name>_<size>.txt` — the files CI compares against the
//! checked-in ones. It exits 1 if an artefact's own gate failed (the
//! frontier's policy agreement), after writing them all.
//!
//! The process builds one reorder team of `--reorder-threads` lanes,
//! on which every simulated ordering is computed, and sweeps the
//! standard corpus at most once, over the union of the machines the
//! selected artefacts read.

use std::cell::Cell;

use experiments::artefacts::{sweep_machines, Artefact, Inputs, ARTEFACTS};
use experiments::cli::parse_from;
use experiments::sweep::{sweep_corpus, SweepConfig};
use reorder::ReorderExec;
use team::ThreadTeam;

fn main() {
    let opts = parse_from(std::env::args().skip(1));
    let to_files = opts.artefacts.is_empty();
    let selected: Vec<&Artefact> = if to_files {
        ARTEFACTS.iter().filter(|a| a.in_paper).collect()
    } else {
        opts.artefacts.clone()
    };
    let machines = opts.machines();
    let team = ThreadTeam::new(opts.reorder_threads);
    let rx = ReorderExec::on_team(&team);

    let swept = sweep_machines(&selected, &machines);
    let sweeps = if swept.is_empty() {
        Vec::new()
    } else {
        let specs = corpus::standard_corpus(opts.size);
        eprintln!(
            "sweeping {} matrices x 7 orderings x {} machines ...",
            specs.len(),
            swept.len()
        );
        sweep_corpus(&rx, &specs, &swept, &SweepConfig::for_size(opts.size))
    };
    let inputs = Inputs {
        size: opts.size,
        rx,
        machines: &machines,
        swept: &swept,
        sweeps: &sweeps,
        gate_failed: Cell::new(false),
    };

    if to_files {
        std::fs::create_dir_all("results").expect("create results/");
    }
    for artefact in selected {
        let text = (artefact.render)(&inputs);
        if to_files {
            let path = format!("results/{}_{}.txt", artefact.name, opts.size_name());
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        } else {
            print!("{text}");
        }
    }
    if inputs.gate_failed.get() {
        std::process::exit(1);
    }
}
