//! The continuous logical-stage profiler: sample the stage board for a
//! while, fold what was seen into collapsed-stack flamegraph lines.
//!
//! Where a CPU profiler samples instruction pointers, this samples
//! **logical stages** — the names the workspace's trace spans already
//! carry, each declared once in [`telemetry::stages`]. A
//! sample of the whole process at 100 Hz for a few seconds answers
//! "where is wall-clock time going across all threads right now",
//! attributed to stages an operator can act on rather than inlined
//! symbols.
//!
//! [`profile_for`] holds a [`StageSession`] for the duration, so the
//! board (and the [`telemetry::StageGuard`] inside every
//! [`telemetry::TraceSpan`], sampled into the flight recorder or not)
//! is live exactly while a profile wants it; overlapping profiles
//! compose via the session refcount. Output is the de-facto
//! collapsed-stack format — `thread;outer;inner count` per line —
//! accepted verbatim by `flamegraph.pl`, speedscope, and friends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use telemetry::{sample_stages, StageSession};

/// Folded result of one profiling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Number of board samples taken (≥ 1).
    pub samples: u64,
    /// Wall-clock time actually spent sampling.
    pub duration: Duration,
    /// `"thread;stage;substage"` → times observed.
    pub folded: BTreeMap<String, u64>,
}

impl ProfileReport {
    /// Collapsed-stack text: one `stack count` line per distinct
    /// stack, sorted (BTreeMap order) for deterministic output.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// The `/profile` response: metadata header lines (`# key value`)
    /// followed by the collapsed stacks.
    pub fn to_text(&self) -> String {
        format!(
            "# samples {}\n# duration_ms {}\n# distinct_stacks {}\n{}",
            self.samples,
            self.duration.as_millis(),
            self.folded.len(),
            self.collapsed()
        )
    }
}

/// Profile the process for `duration`, sampling every registered
/// thread's stage stack at `hz` (clamped to 1..=1000). Blocks the
/// calling thread for `duration`; idle threads (empty stacks) fold
/// nothing, so a quiet process yields an empty report.
pub fn profile_for(duration: Duration, hz: u32) -> ProfileReport {
    let _session = StageSession::start();
    let interval = Duration::from_secs_f64(1.0 / f64::from(hz.clamp(1, 1000)));
    let start = Instant::now();
    let mut folded = BTreeMap::new();
    let mut samples = 0u64;
    loop {
        for (thread, stack) in sample_stages() {
            let mut key = thread;
            for stage in stack {
                key.push(';');
                key.push_str(stage);
            }
            *folded.entry(key).or_insert(0) += 1;
        }
        samples += 1;
        if start.elapsed() >= duration {
            break;
        }
        std::thread::sleep(interval.min(duration.saturating_sub(start.elapsed())));
    }
    ProfileReport {
        samples,
        duration: start.elapsed(),
        folded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use telemetry::Stage;

    const PROFTEST_OUTER: Stage = Stage::scratch("proftest.outer");
    const PROFTEST_INNER: Stage = Stage::scratch("proftest.inner");

    /// A busy thread holding a nested stage stack must fold into one
    /// `thread;outer;inner` line.
    #[test]
    fn profiles_a_busy_thread_into_nested_stacks() {
        // Hold a session across the worker's whole life so its guards
        // publish regardless of when profile_for's own session starts.
        let _session = StageSession::start();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_worker = Arc::clone(&stop);
        let ready = Arc::new(AtomicBool::new(false));
        let ready_worker = Arc::clone(&ready);
        let worker = std::thread::Builder::new()
            .name("proftest-worker".to_string())
            .spawn(move || {
                let _outer = telemetry::stage(PROFTEST_OUTER);
                let _inner = telemetry::stage(PROFTEST_INNER);
                ready_worker.store(true, Ordering::Relaxed);
                while !stop_worker.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .unwrap();
        while !ready.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = profile_for(Duration::from_millis(100), 100);
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(report.samples >= 2, "sampled {} times", report.samples);
        let key = "proftest-worker;proftest.outer;proftest.inner";
        let count = *report
            .folded
            .get(key)
            .unwrap_or_else(|| panic!("stack not folded: {:?}", report.folded));
        assert!(count >= 1);
        assert!(report.collapsed().contains(&format!("{key} {count}")));
        assert!(report.to_text().starts_with("# samples"));
    }

    #[test]
    fn quiet_process_yields_empty_but_valid_report() {
        let report = profile_for(Duration::from_millis(20), 200);
        assert!(report.samples >= 2);
        assert!(report.duration >= Duration::from_millis(20));
        // No stages of ours are open; our own folded lines are absent.
        assert!(!report.collapsed().contains("proftest.absent"));
        assert!(report.to_text().contains("# distinct_stacks"));
    }

    #[test]
    fn hz_is_clamped_and_duration_respected() {
        let start = Instant::now();
        let report = profile_for(Duration::from_millis(30), 0); // clamped to 1 Hz
        assert!(start.elapsed() >= Duration::from_millis(30));
        // 1 Hz over 30 ms: the loop still samples at least once at
        // start and once at the end check.
        assert!(report.samples >= 1);
    }
}
