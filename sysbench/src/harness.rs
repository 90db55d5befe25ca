//! The slice loop every workload runs under.
//!
//! A workload's timed phase is a sequence of identical slices: a
//! *reset* to a defined start state (its duration is the `setup_s`
//! metric), then a timed replay of the same schedule of M operations.
//! Because every slice replays the same operations in the same order,
//! operation *i*, batch *k* and reset step *j* each have one replica
//! per slice, and the end-to-end metrics are built from the `best3` of
//! every piece (`stats::Finest`):
//!
//! * `service_p50_us` / `service_p90_us`: quantiles, over the M
//!   operations, of each operation's `best3` service time;
//! * `ops_per_s`: M over the sum of each segment's `best3` wall time
//!   (a segment is one client batch of a tier workload, one call of a
//!   direct workload);
//! * `setup_s`: the sum of each reset step's `best3`.

use crate::alloc;
use crate::stats::{self, Better, Estimate, Finest};
use std::time::{Duration, Instant};

/// How thoroughly a slice checks the answers it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every element of every answer against the oracle (the untimed
    /// verification slice).
    Full,
    /// Length plus one sampled element per answer (timed slices).
    Sampled,
}

/// What one replay of the schedule produced.
pub struct SliceResult {
    pub wall: Duration,
    /// Service time of operation *i* of the schedule, microseconds;
    /// NaN for one that returned an error, was shed or answered wrong.
    pub op_us: Vec<f64>,
    /// Wall time of every segment of the replay, microseconds.
    pub segment_us: Vec<f64>,
    /// Admission-queue wait of every tier request, microseconds.
    pub queue_wait_us: Vec<f64>,
}

impl SliceResult {
    pub fn failed(&self) -> u64 {
        self.op_us.iter().filter(|us| us.is_nan()).count() as u64
    }
}

pub trait Workload {
    /// Operations per slice (M): fixed, so slices are comparable.
    fn ops(&self) -> usize;
    /// Build the system under test and bring it to the start state.
    /// Returns the seconds every step took: the same steps in the same
    /// order on every call.
    fn reset(&mut self) -> Vec<f64>;
    /// Replay the schedule once against the current state.
    fn slice(&mut self, check: Check) -> SliceResult;
    /// Hash of the schedule and the vectors it sends.
    fn schedule_hash(&self) -> u64;
    /// Tear the system down; `false` if it was not left clean (a
    /// request still queued, a gauge below zero).
    fn finish(&mut self) -> bool;
}

/// Whole-slice figures: what a user saw in that slice, interference
/// included. Not gated; the traced run reports some of them.
#[derive(Debug, Clone, Copy)]
pub struct SliceStats {
    pub ops_per_s: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    pub queue_wait_p50_us: f64,
}

impl SliceStats {
    fn of(result: &SliceResult) -> Option<SliceStats> {
        let mut service: Vec<f64> = result
            .op_us
            .iter()
            .copied()
            .filter(|us| !us.is_nan())
            .collect();
        if service.is_empty() {
            return None;
        }
        service.sort_by(|a, b| a.partial_cmp(b).expect("finite service time"));
        Some(SliceStats {
            ops_per_s: service.len() as f64 / result.wall.as_secs_f64(),
            p99_us: stats::quantile(&service, 0.99),
            mean_us: service.iter().sum::<f64>() / service.len() as f64,
            queue_wait_p50_us: if result.queue_wait_us.is_empty() {
                0.0
            } else {
                stats::median(&result.queue_wait_us)
            },
        })
    }
}

/// Everything a sequence of slices produced.
#[derive(Default)]
pub struct Slices {
    ops: usize,
    service_us: Finest,
    segment_us: Finest,
    setup_s: Finest,
    pub per_slice: Vec<SliceStats>,
    pub attempted: u64,
    pub failed: u64,
    /// What `Limits::count_allocations_in`'s slice allocated.
    pub allocations: Option<alloc::Counts>,
    /// Process CPU time (all threads) spent per operation across the
    /// whole sequence, resets included.
    pub cpu_us_per_op: f64,
}

fn sorted_quantile(q: f64) -> impl Fn(&mut [f64]) -> f64 {
    move |best| {
        best.sort_by(|a, b| a.partial_cmp(b).expect("finite best3"));
        stats::quantile(best, q)
    }
}

impl Slices {
    /// Quantile `q` over the operations' `best3` service times.
    pub fn service_us(&self, q: f64) -> Estimate {
        self.service_us.estimate(sorted_quantile(q))
    }

    /// How steep the operations' `best3` service times are around the
    /// rank of quantile `q`: the values 5 % of M below the rank, at it
    /// and 5 % of M above it. A quantile that sits on a gap between two
    /// cost classes shows as a jump here.
    pub fn service_us_around(&self, q: f64) -> [f64; 3] {
        let mut best = self.service_us.best();
        best.sort_by(|a, b| a.partial_cmp(b).expect("finite best3"));
        [q - 0.05, q, q + 0.05].map(|q| stats::quantile(&best, q.clamp(0.0, 1.0)))
    }

    /// M over the sum of the segments' `best3` wall times.
    pub fn ops_per_s(&self) -> Estimate {
        let ops = self.ops as f64;
        self.segment_us
            .estimate(move |best| ops / (best.iter().sum::<f64>() / 1e6))
    }

    /// Sum of the reset steps' `best3`.
    pub fn setup_s(&self) -> Estimate {
        self.setup_s.estimate(|best| best.iter().sum())
    }

    /// `best3` of a whole-slice figure.
    pub fn per_slice_best(&self, pick: impl Fn(&SliceStats) -> f64, better: Better) -> f64 {
        let values: Vec<f64> = self.per_slice.iter().map(pick).collect();
        stats::best3(&values, better)
    }
}

/// How long a sequence of slices goes on.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Slices start while this much wall time has not passed ...
    pub budget: Duration,
    /// ... but never fewer than this many run ...
    pub min_slices: usize,
    /// ... and never more than this many.
    pub max_slices: usize,
    /// The slice whose timed replay, exactly, runs under the counting
    /// allocator (`Slices::allocations`).
    pub count_allocations_in: Option<usize>,
}

impl Limits {
    /// Slices for `budget`, at least `min_slices` of them.
    pub fn new(budget: Duration, min_slices: usize) -> Limits {
        Limits {
            budget,
            min_slices,
            max_slices: usize::MAX,
            count_allocations_in: None,
        }
    }
}

/// Run slices within `limits`.
pub fn run_slices(w: &mut dyn Workload, limits: Limits) -> Slices {
    let mut out = Slices {
        ops: w.ops(),
        ..Slices::default()
    };
    let started = Instant::now();
    let cpu0 = process_cpu_us();
    let mut i = 0;
    while i < limits.min_slices || (i < limits.max_slices && started.elapsed() < limits.budget) {
        out.setup_s.push(&w.reset());
        let counting = (limits.count_allocations_in == Some(i)).then(alloc::Scope::open);
        let result = w.slice(Check::Sampled);
        if let Some(scope) = counting {
            out.allocations = Some(scope.close());
        }
        out.attempted += w.ops() as u64;
        out.failed += result.failed();
        out.service_us.push(&result.op_us);
        out.segment_us.push(&result.segment_us);
        out.per_slice.extend(SliceStats::of(&result));
        i += 1;
    }
    out.cpu_us_per_op = (process_cpu_us() - cpu0) / out.attempted as f64;
    out
}

/// The untimed verification slice: one reset, one fully checked
/// replay. Returns (attempted, failed).
pub fn verify(w: &mut dyn Workload) -> (u64, u64) {
    w.reset();
    let result = w.slice(Check::Full);
    (w.ops() as u64, result.failed())
}

/// Time one step of a reset, appending its seconds to `steps`.
pub fn step<R>(steps: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let result = f();
    steps.push(t0.elapsed().as_secs_f64());
    result
}

/// User + system CPU time of this process, microseconds, from
/// `/proc/self/stat` (clock ticks of 10 ms; read across whole phases).
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10_000.0
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 operations whose service time is their index + 1; every
    /// other slice is "disturbed" (everything three times slower).
    struct Fixed {
        resets: usize,
        slices: usize,
    }

    impl Workload for Fixed {
        fn ops(&self) -> usize {
            200
        }
        fn reset(&mut self) -> Vec<f64> {
            self.resets += 1;
            vec![0.25, 0.5]
        }
        fn slice(&mut self, _check: Check) -> SliceResult {
            self.slices += 1;
            let slow = if self.slices.is_multiple_of(2) {
                3.0
            } else {
                1.0
            };
            SliceResult {
                wall: Duration::from_millis(2),
                op_us: (1..=200).map(|i| slow * f64::from(i)).collect(),
                segment_us: vec![slow * 500.0; 4],
                queue_wait_us: Vec::new(),
            }
        }
        fn schedule_hash(&self) -> u64 {
            0
        }
        fn finish(&mut self) -> bool {
            true
        }
    }

    #[test]
    fn slice_loop_resets_every_slice_and_estimates_piecewise() {
        let mut w = Fixed {
            resets: 0,
            slices: 0,
        };
        let out = run_slices(&mut w, Limits::new(Duration::ZERO, 8));
        assert_eq!((w.resets, w.slices), (8, 8));
        assert_eq!((out.attempted, out.failed), (1600, 0));
        // The undisturbed slices decide every estimate.
        let p50 = out.service_us(0.5);
        assert_eq!((p50.value, p50.slices), (100.0, 8));
        assert_eq!(out.service_us(0.9).value, 180.0);
        assert_eq!(out.service_us_around(0.9), [170.0, 180.0, 190.0]);
        assert_eq!(out.ops_per_s().value, 200.0 / 2000e-6);
        assert_eq!(out.setup_s().value, 0.75);
        // ... and the halves disagree by the disturbance: even slices
        // (indices 0, 2, ..) are the fast ones here.
        assert!((p50.noise - 2.0).abs() < 1e-12);
        assert_eq!(out.per_slice.len(), 8);
    }

    #[test]
    fn a_failed_operation_is_counted_and_skipped() {
        let result = SliceResult {
            wall: Duration::from_millis(1),
            op_us: vec![1.0, f64::NAN, 3.0],
            segment_us: vec![10.0],
            queue_wait_us: Vec::new(),
        };
        assert_eq!(result.failed(), 1);
        assert_eq!(SliceStats::of(&result).unwrap().mean_us, 2.0);
    }

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_us() >= 0.0);
    }
}
