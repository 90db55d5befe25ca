//! Thread placement: while it measures, the bench and the system under
//! test share one CPU.
//!
//! Left to itself the guest scheduler places a closed-loop client and
//! the dispatcher it wakes on the same CPU most of the time
//! (wake-affine) and on different CPUs some of the time, and stays in
//! one mood for minutes. `serve_hot` reads 10.0 µs p50 / 79k ops/s
//! co-located and 8.6 µs / 89k apart, so whole runs differed by a fifth
//! for no reason a change to the code could answer for. Pinning makes
//! the placement a constant. Of the two constants, one CPU for
//! everything is the steadier by a factor of two (eight interleaved
//! 4 s runs each: `ops_per_s` spread 1.5–3 % on one CPU, 6–9 % on
//! two): across two vCPUs of a shared VM every hand-off is an
//! inter-processor interrupt through the hypervisor and a cache line
//! fetched from wherever the host happens to run the other vCPU. A
//! thread inherits its creator's affinity, so pinning the bench's
//! thread before it builds the system pins the system too.
//!
//! `std` has no call for this, so it is one raw `sched_setaffinity`
//! system call on x86-64 Linux and a reported no-op elsewhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static FAILED: AtomicBool = AtomicBool::new(false);
static HOST_CPUS: OnceLock<usize> = OnceLock::new();

/// CPUs this process may use. `available_parallelism` counts the
/// calling thread's affinity mask, so the answer is taken once, on the
/// first call — `main` makes it before anything is pinned.
pub fn host_cpus() -> usize {
    *HOST_CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether every pin so far took effect; printed with each record.
pub fn pinned() -> bool {
    // Relaxed: a flag read only for reporting.
    !FAILED.load(Ordering::Relaxed)
}

/// Restrict the calling thread, and the threads it creates from now
/// on, to the measurement CPU: the host's last, which on a guest is
/// the one device interrupts do not default to.
pub fn pin() {
    set_mask(1 << (host_cpus() - 1).min(63));
}

/// Let the calling thread, and the threads it creates from now on, run
/// anywhere (input generation uses every core).
pub fn unpin() {
    set_mask(u64::MAX);
}

fn set_mask(mask: u64) {
    if !sched_setaffinity(mask) {
        FAILED.store(true, Ordering::Relaxed);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity(mask: u64) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mask = [mask];
    let ret: isize;
    // SAFETY: `sched_setaffinity(0, 8, &mask)` only reads the 8 bytes
    // at `mask`, which lives across the call, and changes no memory of
    // this process; the `syscall` instruction clobbers `rcx` and `r11`,
    // which are declared, and the return value comes back in `rax`.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn sched_setaffinity(_mask: u64) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_one_cpu() {
        let cpus = host_cpus();
        // On its own thread: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(move || {
            let allowed = || {
                let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
                let line = status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .unwrap();
                line.trim().to_string()
            };
            pin();
            if !pinned() {
                return; // not x86-64 Linux, or the sandbox forbids it
            }
            let last = (cpus - 1).to_string();
            assert_eq!(allowed(), last);
            let child = std::thread::spawn(allowed);
            assert_eq!(child.join().unwrap(), last);
            unpin();
            assert_eq!(host_cpus(), cpus, "the count is taken once");
        })
        .join()
        .unwrap();
    }
}
