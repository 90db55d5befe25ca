//! Metric definitions and the two output forms: a table for people
//! and, as the last line of standard output, one JSON object for the
//! driver.
//!
//! The names, units, directions and bounds here are the ones
//! `BENCHMARK.json` declares; `tests::benchmark_json_matches_the_code`
//! keeps the two from drifting apart.

use crate::stats::{Better, Estimate};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("service_p50_us", "us", Lower, 0.25),
    e2e("service_p90_us", "us", Lower, 0.25),
];

/// Single layers, from the traced run. No bound: they explain a move
/// of an end-to-end metric, they do not gate. The first block is
/// measured on the workload being run; the probes below it are the
/// same in every workload's traced run. A metric that has no
/// direction (a speedup the paper reports, a model residual) is
/// listed with the direction that would usually be read as good.
pub const PER_LAYER: [MetricDef; 58] = [
    // Self time of the bench-owned spans, per operation of the
    // workload's re-enactment (mean over a slice's operations).
    layer("servetier.self_us", "us", Lower),
    layer("policy.self_us", "us", Lower),
    layer("engine.self_us", "us", Lower),
    layer("sparsemat.self_us", "us", Lower),
    layer("reorder.self_us", "us", Lower),
    layer("spmv.self_us", "us", Lower),
    layer("spmv.gflops", "GFLOP/s", Higher),
    layer("spmv.gbps_computed", "GB/s", Higher),
    // The real tier's untraced slices in the same run.
    layer("tier.service_mean_us", "us", Lower),
    layer("tier.service_p99_us", "us", Lower),
    layer("tier.queue_wait_p50_us", "us", Lower),
    layer("tier.glue_us", "us", Lower),
    layer("tier.glue_frac", "ratio", Lower),
    layer("tier.allocs_per_op", "count", Lower),
    layer("tier.alloc_bytes_per_op", "B", Lower),
    layer("tier.prepared_hit_ratio", "ratio", Higher),
    layer("tier.shed_share", "ratio", Lower),
    layer("engine.ordering_hit_ratio", "ratio", Higher),
    layer("engine.delta_splice_ratio", "ratio", Higher),
    layer("telemetry.trace_on_ratio", "ratio", Higher),
    layer("telemetry.bench_span_ratio", "ratio", Higher),
    layer("corpus.build_s", "s", Lower),
    layer("proc.peak_rss_mb", "MiB", Lower),
    layer("proc.cpu_us_per_op", "us", Lower),
    // Probes: direct calls on fixed, seeded inputs.
    layer("spmv.1d.gflops", "GFLOP/s", Higher),
    layer("spmv.2d.gflops", "GFLOP/s", Higher),
    layer("spmv.merge.gflops", "GFLOP/s", Higher),
    layer("spmv.ref_dense.gflops", "GFLOP/s", Higher),
    layer("spmv.frac_of_ref", "ratio", Higher),
    layer("spmv.speedup.rcm", "ratio", Higher),
    layer("spmv.speedup.gray", "ratio", Higher),
    layer("spmv.speedup.amd", "ratio", Higher),
    layer("spmv.speedup.gp", "ratio", Higher),
    layer("spmv.small_call_ns", "ns", Lower),
    layer("spmv.allocs_per_call", "count", Lower),
    layer("team.dispatch_ns", "ns", Lower),
    layer("team.t2_ratio", "ratio", Lower),
    layer("reorder.rcm.mnnz_per_s", "Mnnz/s", Higher),
    layer("reorder.gray.mnnz_per_s", "Mnnz/s", Higher),
    layer("reorder.amd.mnnz_per_s", "Mnnz/s", Higher),
    layer("reorder.nd.mnnz_per_s", "Mnnz/s", Higher),
    layer("reorder.gp.mnnz_per_s", "Mnnz/s", Higher),
    layer("reorder.hp.mnnz_per_s", "Mnnz/s", Higher),
    layer("reorder.splice_vs_full_ratio", "ratio", Lower),
    layer("reorder.permute_vec_ns_per_row", "ns", Lower),
    layer("sparsemat.permute.mnnz_per_s", "Mnnz/s", Higher),
    layer("sparsemat.content_hash.mnnz_per_s", "Mnnz/s", Higher),
    layer("sparsemat.apply_delta.us_per_edge", "us", Lower),
    layer("engine.hit_ns", "ns", Lower),
    layer("engine.plan_hit_ns", "ns", Lower),
    layer("engine.miss_hop_us", "us", Lower),
    layer("policy.decide_warm_ns", "ns", Lower),
    layer("policy.observe_ns", "ns", Lower),
    layer("policy.summarize_cold_us", "us", Lower),
    layer("archsim.speedup_residual", "ratio", Lower),
    layer("tier.route_ns", "ns", Lower),
    layer("tier.admission_ns", "ns", Lower),
    layer("probes.run_s", "s", Lower),
];

/// One reported value; `noise` and `slices` where it is an estimate
/// over slices.
pub struct Reported {
    pub def: &'static MetricDef,
    pub value: f64,
    pub noise: Option<f64>,
    pub slices: Option<usize>,
}

impl Reported {
    pub fn estimate(def: &'static MetricDef, e: Estimate) -> Reported {
        Reported {
            def,
            value: e.value,
            noise: Some(e.noise),
            slices: Some(e.slices),
        }
    }
}

/// One run of one workload.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub schedule_hash: u64,
    pub host_threads: usize,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Reported>,
    /// Free-form lines for the table (class shares and medians).
    pub notes: Vec<String>,
}

impl Record {
    /// The table for people.
    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  schedule {:016x}  host_threads {}  pinned {}",
            self.workload,
            self.seed,
            self.schedule_hash,
            self.host_threads,
            crate::affinity::pinned()
        );
        for m in &self.metrics {
            let mut line = format!("  {:<36} {:>14.4} {:<8}", m.def.name, m.value, m.def.unit);
            if let (Some(noise), Some(slices)) = (m.noise, m.slices) {
                line += &format!(" noise {:>5.2}%  slices {slices}", 100.0 * noise);
                if let Some(bound) = m.def.bound {
                    line += &format!("  bound {:.0}%", 100.0 * bound);
                }
            }
            println!("{line}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.def.name);
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.def.name, m.value, m.def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    fn sample() -> Record {
        Record {
            workload: "serve_hot",
            seed: 14,
            schedule_hash: 7,
            host_threads: 2,
            attempted: 1000,
            failed: 0,
            correct: true,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, def)| Reported {
                    def,
                    value: 1.5 + i as f64 / 3.0,
                    noise: Some(0.01),
                    slices: Some(9),
                })
                .collect(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn json_line_parses_and_has_exactly_the_contract_keys() {
        let record = sample();
        let parsed = serde_json::from_str(&record.json_line()).unwrap();
        let top: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed["correct"].as_bool(), Some(true));
        assert_eq!(parsed["attempted"].as_u64(), Some(1000));
        let metrics = parsed["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"]["unit"].as_str(), Some("s"));
        // All digits survive the round trip.
        let p50 = metrics["service_p50_us"]["value"].as_f64().unwrap();
        assert_eq!(p50, record.metrics[2].value);
    }

    fn declared(parsed: &serde_json::Value, section: &str) -> Vec<(String, String, String)> {
        parsed[section]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let parsed = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(declared(&parsed, "end_to_end"), defined(&END_TO_END));
        assert_eq!(declared(&parsed, "per_layer"), defined(&PER_LAYER));
        for (m, def) in parsed["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(m["bound"].as_f64(), def.bound, "{}", def.name);
        }
        let workloads: Vec<&str> = parsed["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(&END_TO_END)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            PER_LAYER.len() + END_TO_END.len(),
            "a name is used twice"
        );
    }
}
