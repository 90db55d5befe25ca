//! The traced run (`--trace 1`): where a workload's time goes, layer
//! by layer, and what single layers cost on their own.
//!
//! It is separate from the metric runs and made of five phases, each a
//! share of `--seconds`:
//!
//! 1. untraced slices of the real workload (the baseline every ratio
//!    below divides by, plus exact allocation counts of one slice);
//! 2. the same slices with the program's own tracing on at 100 %
//!    sampling (`telemetry.trace_on_ratio`: the price of observability);
//! 3. the workload replayed through bench-owned spans — for a tier
//!    workload the single-threaded re-enactment of `reenact.rs`, for
//!    `kernel_grid` a span around every `Kernel::execute` — giving the
//!    per-layer self times and `tier.glue_us`;
//! 4. the same replay with the spans turned into plain calls
//!    (`telemetry.bench_span_ratio`: what the bench's spans cost);
//! 5. the probes of `probes.rs`.
//!
//! The spans of the first replayed slice go to
//! `<target dir>/sysbench/trace-<workload>.json`.

use crate::grid::GridWorkload;
use crate::harness::{self, Check, Limits, SliceResult, Slices, Workload};
use crate::reenact::ReenactWorkload;
use crate::report::{MetricDef, Record, Reported, PER_LAYER};
use crate::spans::{Layer, SliceTracer, Tracer};
use crate::stats::{self, Better};
use crate::{affinity, probes, Bench};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Replayed slices are capped: twenty are enough for a `best3`.
const MAX_SPAN_SLICES: usize = 20;

/// `kernel_grid` replayed with a span around every execute.
struct SpannedGrid<'a> {
    grid: &'a mut GridWorkload,
    spans: SliceTracer,
}

impl Workload for SpannedGrid<'_> {
    fn ops(&self) -> usize {
        self.grid.ops()
    }

    fn reset(&mut self) -> Vec<f64> {
        self.grid.reset()
    }

    fn slice(&mut self, check: Check) -> SliceResult {
        let mut op_us = Vec::with_capacity(self.ops());
        self.spans.begin_slice();
        let t0 = Instant::now();
        for op in 0..self.grid.ops() {
            self.spans.tracer.begin_op(op as u32);
            let cell = self.grid.scheduled(op);
            let grid = &mut *self.grid;
            grid.warm(cell);
            let us = self
                .spans
                .tracer
                .span(Layer::Spmv, "Kernel::execute", |_| grid.execute(cell));
            op_us.push(if self.grid.answer_ok(cell, op, check) {
                us
            } else {
                f64::NAN
            });
        }
        let wall = t0.elapsed();
        self.spans.end_slice();
        SliceResult {
            wall,
            segment_us: op_us.clone(),
            op_us,
            queue_wait_us: Vec::new(),
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.grid.schedule_hash()
    }

    fn finish(&mut self) -> bool {
        self.grid.finish()
    }
}

/// What the replay phases produced.
struct Replay {
    spans_on: Slices,
    spans_off: Slices,
    /// Of the replay with spans on.
    spans: SliceTracer,
}

/// Phases 3 and 4: the workload through bench-owned spans, then through
/// the same code with the spans turned into plain calls.
fn replay(bench: &mut Bench, budget: Duration, min_slices: usize) -> Replay {
    let mut run = |spans_on: bool| -> (Slices, SliceTracer) {
        let limits = Limits {
            max_slices: MAX_SPAN_SLICES,
            ..Limits::new(if spans_on { budget } else { budget / 2 }, min_slices)
        };
        let spans = SliceTracer::new(spans_on);
        match bench {
            Bench::Grid(grid) => {
                let mut w = SpannedGrid { grid, spans };
                (harness::run_slices(&mut w, limits), w.spans)
            }
            Bench::Tier(tier) => {
                let mut w = ReenactWorkload::new(&tier.inputs, spans);
                let slices = harness::run_slices(&mut w, limits);
                w.finish();
                (slices, w.spans)
            }
        }
    };
    let (spans_on, spans) = run(true);
    let (spans_off, _) = run(false);
    Replay {
        spans_on,
        spans_off,
        spans,
    }
}

/// Where the trace files go: the build's target directory, so that
/// nothing is written outside what `.gitignore` already covers.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("sysbench/target"));
    target
        .join("sysbench")
        .join(format!("trace-{workload}.json"))
}

fn write_trace(workload: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_json(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

pub fn run(name: &'static str, seed: u64, seconds: f64, smoke: bool) -> Record {
    let mut bench = Bench::build(name, seed, smoke).expect("known workload");
    affinity::pin();
    // Four phases share the run: fewer slices each than a metric run.
    let min_slices = if smoke { 3 } else { 4 };
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let (verify_attempted, verify_failed) = harness::verify(bench.workload());

    // 1. The real workload, untraced; slice 1 under the allocator's
    //    counting scope (slice 0 still pays first-use allocations).
    let limits = |part: f64| Limits::new(share(part), min_slices);
    let untraced = harness::run_slices(
        bench.workload(),
        Limits {
            count_allocations_in: Some(1),
            ..limits(0.35)
        },
    );
    let counts = untraced.allocations.expect("at least two slices ran");
    let tier_counts = match &bench {
        Bench::Tier(w) => Some(w.last_counts),
        Bench::Grid(_) => None,
    };
    let ops = bench.workload().ops() as f64;

    // 2. The program's own tracing on.
    bench.set_program_tracing(true);
    let program_traced = harness::run_slices(bench.workload(), limits(0.15));
    bench.set_program_tracing(false);
    let clean = bench.workload().finish();

    // 3 and 4. Bench-owned spans on, then off.
    let replayed = replay(&mut bench, share(0.2), min_slices);
    let trace_file = replayed
        .spans
        .first_slice
        .as_ref()
        .map(|t| write_trace(name, t));

    // 5. The probes.
    let probed = probes::run(seed, smoke);

    let ops_per_s = |slices: &Slices| slices.ops_per_s().value;
    let layer_us = |layer: Layer| {
        let per_slice: Vec<f64> = replayed
            .spans
            .layer_ns
            .iter()
            .map(|ns| ns[layer as usize] as f64 / 1e3 / ops)
            .collect();
        stats::best3(&per_slice, Better::Lower)
    };
    // Whole-slice means on both sides of the identity below, so that
    // both carry the same share of interference.
    let service_mean_us = untraced.per_slice_best(|s| s.mean_us, Better::Lower);
    // The part of `service` the re-enactment attributes to a layer;
    // route and admission happen before the dequeue.
    let attributed: f64 = [
        Layer::Policy,
        Layer::Engine,
        Layer::Sparsemat,
        Layer::Reorder,
        Layer::Spmv,
    ]
    .into_iter()
    .map(layer_us)
    .sum();
    let glue_us = service_mean_us - attributed;
    let (flops, bytes) = bench.spmv_work();
    let spmv_seconds = layer_us(Layer::Spmv) * ops / 1e6;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let tc = tier_counts.unwrap_or_default();

    let mut values: Vec<(&'static str, f64)> = vec![
        ("servetier.self_us", layer_us(Layer::Servetier)),
        ("policy.self_us", layer_us(Layer::Policy)),
        ("engine.self_us", layer_us(Layer::Engine)),
        ("sparsemat.self_us", layer_us(Layer::Sparsemat)),
        ("reorder.self_us", layer_us(Layer::Reorder)),
        ("spmv.self_us", layer_us(Layer::Spmv)),
        ("spmv.gflops", flops / spmv_seconds / 1e9),
        ("spmv.gbps_computed", bytes / spmv_seconds / 1e9),
        ("tier.service_mean_us", service_mean_us),
        (
            "tier.service_p99_us",
            untraced.per_slice_best(|s| s.p99_us, Better::Lower),
        ),
        (
            "tier.queue_wait_p50_us",
            untraced.per_slice_best(|s| s.queue_wait_p50_us, Better::Lower),
        ),
        ("tier.glue_us", glue_us),
        ("tier.glue_frac", glue_us / service_mean_us),
        ("tier.allocs_per_op", counts.calls as f64 / ops),
        ("tier.alloc_bytes_per_op", counts.bytes as f64 / ops),
        (
            "tier.prepared_hit_ratio",
            ratio(tc.prepared_hits, tc.prepared_hits + tc.prepared_misses),
        ),
        ("tier.shed_share", ratio(tc.shed, tc.shed + tc.served)),
        (
            "engine.ordering_hit_ratio",
            ratio(tc.ordering_hits, tc.ordering_hits + tc.ordering_misses),
        ),
        (
            "engine.delta_splice_ratio",
            ratio(tc.delta_splices, tc.ordering_misses),
        ),
        (
            "telemetry.trace_on_ratio",
            ops_per_s(&program_traced) / ops_per_s(&untraced),
        ),
        (
            "telemetry.bench_span_ratio",
            ops_per_s(&replayed.spans_on) / ops_per_s(&replayed.spans_off),
        ),
        ("corpus.build_s", bench.build_s()),
        ("proc.peak_rss_mb", harness::peak_rss_mb()),
        ("proc.cpu_us_per_op", untraced.cpu_us_per_op),
    ];
    values.extend(probed);

    let all = [
        &untraced,
        &program_traced,
        &replayed.spans_on,
        &replayed.spans_off,
    ];
    let attempted = verify_attempted + all.iter().map(|s| s.attempted).sum::<u64>();
    let failed = verify_failed + all.iter().map(|s| s.failed).sum::<u64>();
    let mut notes = vec![format!(
        "identity: tier.glue_us + attributed layer self times ({attributed:.3}) = tier.service_mean_us"
    )];
    match trace_file {
        Some(Ok(path)) => notes.push(format!("spans of one replayed slice: {}", path.display())),
        Some(Err(e)) => notes.push(format!("trace file not written: {e}")),
        None => {}
    }
    notes.extend(bench.table_notes());
    Record {
        workload: name,
        seed,
        schedule_hash: bench.workload().schedule_hash(),
        host_threads: affinity::host_cpus(),
        attempted,
        failed,
        correct: failed == 0 && clean,
        metrics: per_layer(values),
        notes,
    }
}

/// Order the measured values like `PER_LAYER`; every declared metric
/// must have been measured.
fn per_layer(values: Vec<(&'static str, f64)>) -> Vec<Reported> {
    let find = |def: &'static MetricDef| {
        let (_, value) = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .unwrap_or_else(|| panic!("{} was not measured", def.name));
        Reported {
            def,
            value: *value,
            noise: None,
            slices: None,
        }
    };
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "a measured value is not declared"
    );
    PER_LAYER.iter().map(find).collect()
}
