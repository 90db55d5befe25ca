use crate::cache::{CacheSim, LINE_BYTES};
use crate::machines::Machine;
use sparsemat::CsrMatrix;
use spmv::{imbalance_factor, Plan, Span};

/// Fraction of each cache level usable by the `x` vector; the rest is
/// occupied by the streaming matrix data competing for the same sets.
const X_CACHE_FRACTION: f64 = 0.5;

/// Bytes streamed per nonzero: an 8-byte value plus a 4-byte column
/// index (§4.1's storage convention).
pub const BYTES_PER_NNZ: f64 = 12.0;

/// Bytes streamed per row: the row pointer (8) plus the `y` write,
/// which costs a write-allocate read + writeback (16).
pub const BYTES_PER_ROW: f64 = 24.0;

/// Result of simulating one SpMV execution.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Modelled execution time of one SpMV iteration, seconds.
    pub seconds: f64,
    /// Modelled performance in Gflop/s (`2·nnz / time`).
    pub gflops: f64,
    /// Per-thread modelled times, seconds.
    pub thread_seconds: Vec<f64>,
    /// Per-thread nonzero counts (the §3.2 imbalance inputs).
    pub thread_nnz: Vec<usize>,
    /// Load imbalance factor (max/mean nonzeros per thread).
    pub imbalance: f64,
    /// Total modelled DRAM traffic, bytes.
    pub dram_bytes: f64,
}

impl SimResult {
    fn from_threads(
        nnz_total: usize,
        thread_seconds: Vec<f64>,
        thread_nnz: Vec<usize>,
        dram_bytes: f64,
    ) -> SimResult {
        let seconds = thread_seconds
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(1e-12);
        SimResult {
            seconds,
            gflops: 2.0 * nnz_total as f64 / seconds / 1e9,
            imbalance: imbalance_factor(&thread_nnz),
            thread_seconds,
            thread_nnz,
            dram_bytes,
        }
    }
}

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Scale factor applied to all cache capacities.
    ///
    /// The synthetic corpus is smaller than the paper's matrices
    /// (median ≈ 5 M nonzeros); simulating with full-size caches would
    /// let every per-thread working set fit and overstate locality
    /// gains. Scaling the caches by the same factor as the matrices
    /// preserves the footprint-to-capacity ratios of the real study —
    /// the standard scaled-working-set methodology.
    pub cache_scale: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { cache_scale: 1.0 }
    }
}

/// Per-thread private caches used for the `x` access stream; the L3 is
/// shared per socket and passed in separately.
struct PrivateCaches {
    l1: CacheSim,
    l2: CacheSim,
}

impl PrivateCaches {
    fn new(m: &Machine, scale: f64) -> PrivateCaches {
        PrivateCaches {
            l1: CacheSim::new(
                (m.l1d_kib as f64 * 1024.0 * X_CACHE_FRACTION * scale) as usize,
                8,
            ),
            l2: CacheSim::new(
                (m.l2_kib as f64 * 1024.0 * X_CACHE_FRACTION * scale) as usize,
                8,
            ),
        }
    }

    /// Feed one x access (by column index); returns true if it reached
    /// DRAM. The L3 is *shared*: the first thread on a socket to touch
    /// a line pays the DRAM fetch, subsequent threads hit in L3 — which
    /// is what bounds the cost of locality-poor orderings on real
    /// machines (the whole vector is resident after one pass as long as
    /// it fits the socket L3).
    #[inline]
    fn access(&mut self, col: u32, l3: &mut CacheSim) -> bool {
        let line = (col as u64 * 8) / LINE_BYTES as u64;
        if self.l1.access(line) {
            return false;
        }
        if self.l2.access(line) {
            return false;
        }
        !l3.access(line)
    }
}

/// One shared L3 per socket.
fn socket_l3s(m: &Machine, scale: f64) -> Vec<CacheSim> {
    let bytes = (m.l3_mib_per_socket as f64 * 1024.0 * 1024.0 * X_CACHE_FRACTION * scale) as usize;
    (0..m.sockets).map(|_| CacheSim::new(bytes, 16)).collect()
}

/// Matrix stream bandwidth: if the whole CSR image fits in aggregate
/// L3, the matrix streams from L3 at a higher rate than DRAM.
fn matrix_stream_bw(m: &Machine, a: &CsrMatrix, active_threads: usize, scale: f64) -> f64 {
    let resident = a.csr_bytes() as f64 <= 0.8 * m.l3_total_bytes() as f64 * scale;
    let dram = m.effective_bw_gbs(active_threads);
    if resident {
        dram * 2.5
    } else {
        dram
    }
}

/// Model one thread's time from its nonzero/row workload and its
/// x-vector DRAM line misses, split into local- and remote-socket
/// lines (first-touch NUMA, §3.1: "we use the first-touch policy to
/// ensure that the data is placed close to the core using it").
#[allow(clippy::too_many_arguments)]
fn thread_time(
    m: &Machine,
    active_threads: usize,
    nnz: usize,
    rows: usize,
    x_local_lines: u64,
    x_remote_lines: u64,
    matrix_bw_gbs: f64,
) -> f64 {
    let compute = 2.0 * nnz as f64 / (m.core_gflops() * 1e9);
    let share = |total_gbs: f64| total_gbs * 1e9 / active_threads as f64;
    let stream_bytes = nnz as f64 * BYTES_PER_NNZ + rows as f64 * BYTES_PER_ROW;
    // Remote lines traverse the socket interconnect: charged at the
    // machine's NUMA penalty.
    let x_bytes =
        (x_local_lines as f64 + m.numa_penalty * x_remote_lines as f64) * LINE_BYTES as f64;
    let mem =
        stream_bytes / share(matrix_bw_gbs) + x_bytes / share(m.effective_bw_gbs(active_threads));
    compute.max(mem)
}

/// First-touch ownership: element `col` of `x` is owned by the thread
/// whose equal row chunk contains it (both kernels initialise `x`
/// that way), and lives on that thread's socket.
struct NumaMap {
    chunk: usize,
    threads_per_socket: usize,
}

impl NumaMap {
    fn new(n: usize, active_threads: usize, sockets: usize) -> NumaMap {
        NumaMap {
            chunk: n.div_ceil(active_threads.max(1)).max(1),
            threads_per_socket: active_threads.div_ceil(sockets).max(1),
        }
    }

    #[inline]
    fn socket_of_col(&self, col: u32) -> usize {
        (col as usize / self.chunk) / self.threads_per_socket
    }

    #[inline]
    fn socket_of_thread(&self, t: usize) -> usize {
        t / self.threads_per_socket
    }
}

/// Simulate `plan` on a machine: one thread per span, each feeding the
/// `x` accesses of its nonzeros through its private caches and its
/// socket's L3. `rows_streamed` is how many rows' worth of row-pointer
/// and `y` traffic a span is charged — the one term the kernels'
/// models differ in.
fn simulate(
    a: &CsrMatrix,
    m: &Machine,
    opts: &SimOptions,
    plan: &Plan,
    rows_streamed: impl Fn(&Span) -> usize,
) -> SimResult {
    let t = m.threads;
    let matrix_bw = matrix_stream_bw(m, a, t, opts.cache_scale);
    let numa = NumaMap::new(a.ncols(), t, m.sockets);
    let mut thread_seconds = Vec::with_capacity(t);
    let mut thread_nnz = Vec::with_capacity(t);
    let mut dram_bytes = 0.0f64;
    let mut l3s = socket_l3s(m, opts.cache_scale);
    for (ti, span) in plan.spans().iter().enumerate() {
        let my_socket = numa.socket_of_thread(ti);
        let l3 = &mut l3s[my_socket.min(m.sockets - 1)];
        let mut caches = PrivateCaches::new(m, opts.cache_scale);
        let mut local = 0u64;
        let mut remote = 0u64;
        for &c in &a.colidx()[span.nnz.clone()] {
            if caches.access(c, l3) {
                if numa.socket_of_col(c) == my_socket {
                    local += 1;
                } else {
                    remote += 1;
                }
            }
        }
        let nnz = span.nnz.len();
        let rows = rows_streamed(span);
        let secs = thread_time(m, t, nnz, rows, local, remote, matrix_bw);
        dram_bytes += nnz as f64 * BYTES_PER_NNZ
            + rows as f64 * BYTES_PER_ROW
            + (local + remote) as f64 * 64.0;
        thread_seconds.push(secs);
        thread_nnz.push(nnz);
    }
    SimResult::from_threads(a.nnz(), thread_seconds, thread_nnz, dram_bytes)
}

/// Simulate the 1D (row-split) SpMV kernel on a machine, using all of
/// the machine's paper-experiment thread count.
pub fn simulate_spmv_1d(a: &CsrMatrix, m: &Machine) -> SimResult {
    simulate_spmv_1d_opt(a, m, &SimOptions::default())
}

/// Like [`simulate_spmv_1d`], with explicit [`SimOptions`].
pub fn simulate_spmv_1d_opt(a: &CsrMatrix, m: &Machine, opts: &SimOptions) -> SimResult {
    simulate(a, m, opts, &Plan::rows(a, m.threads), |span| {
        span.rows.len()
    })
}

/// Simulate the 2D (nonzero-split) SpMV kernel on a machine.
pub fn simulate_spmv_2d(a: &CsrMatrix, m: &Machine) -> SimResult {
    simulate_spmv_2d_opt(a, m, &SimOptions::default())
}

/// Like [`simulate_spmv_2d`], with explicit [`SimOptions`].
pub fn simulate_spmv_2d_opt(a: &CsrMatrix, m: &Machine, opts: &SimOptions) -> SimResult {
    // The (non-empty) row holding nonzero `i`: the last `r` with
    // `rowptr[r] <= i`.
    let row_of = |i: usize| a.rowptr().partition_point(|&p| p <= i) - 1;
    // A block is charged the rows its nonzeros touch, partial ones
    // included and empty rows at a cut not: what its thread streams.
    simulate(a, m, opts, &Plan::nonzeros(a, m.threads), |span| {
        if span.nnz.is_empty() {
            0
        } else {
            row_of(span.nnz.end - 1) + 1 - row_of(span.nnz.start)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::machine_by_name;
    use sparsemat::{CooMatrix, Permutation};

    fn banded(n: usize, half_bw: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(half_bw)..(i + half_bw + 1).min(n) {
                coo.push(i, j, 1.0);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn shuffled(a: &CsrMatrix, seed: u64) -> CsrMatrix {
        let n = a.nrows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let p = Permutation::from_new_to_old(order).unwrap();
        a.permute_symmetric(&p).unwrap()
    }

    /// Dense tall-skinny reference of §4.2: on Milan B the paper
    /// measures ~53 Gflop/s at 77 % of peak bandwidth. A dense CSR
    /// matrix moves 12 bytes per 2 flops (6 B/flop), so the
    /// bandwidth-bound roofline is `effective_bw / 6`.
    #[test]
    fn dense_reference_lands_near_memory_bound_roofline() {
        let m = machine_by_name("Milan B").unwrap();
        let bw = m.effective_bw_gbs(m.threads);
        let expect_gflops = bw / 6.0;
        assert!(
            (expect_gflops - 52.6).abs() < 2.0,
            "roofline calibration drifted: {expect_gflops}"
        );
    }

    #[test]
    fn banded_matrix_beats_shuffled_matrix() {
        // Good locality (banded) must simulate faster than the same
        // matrix shuffled — on every machine.
        let a = banded(40_000, 3);
        let bad = shuffled(&a, 7);
        for m in crate::machines() {
            let good = simulate_spmv_1d(&a, &m);
            let poor = simulate_spmv_1d(&bad, &m);
            assert!(
                good.gflops > poor.gflops,
                "{}: banded {} <= shuffled {}",
                m.name,
                good.gflops,
                poor.gflops
            );
        }
    }

    #[test]
    fn imbalanced_matrix_penalised_in_1d_not_2d() {
        // Heavy first rows: 1D assigns them all to thread 0.
        let n = 20_000;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n / 100 {
            for j in 0..50 {
                coo.push(i, (i * 37 + j * 131) % n, 1.0);
            }
        }
        for i in n / 100..n {
            coo.push(i, i, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let m = machine_by_name("Rome").unwrap();
        let r1 = simulate_spmv_1d(&a, &m);
        let r2 = simulate_spmv_2d(&a, &m);
        assert!(r1.imbalance > 3.0, "1D imbalance {}", r1.imbalance);
        assert!(r2.imbalance < 1.1, "2D imbalance {}", r2.imbalance);
        assert!(
            r2.gflops > 1.5 * r1.gflops,
            "2D should fix the imbalance: {} vs {}",
            r2.gflops,
            r1.gflops
        );
    }

    #[test]
    fn sim_results_are_internally_consistent() {
        let a = banded(10_000, 2);
        let m = machine_by_name("Skylake").unwrap();
        let r = simulate_spmv_1d(&a, &m);
        assert_eq!(r.thread_seconds.len(), m.threads);
        assert_eq!(r.thread_nnz.iter().sum::<usize>(), a.nnz());
        let max = r.thread_seconds.iter().copied().fold(0.0f64, f64::max);
        assert!((r.seconds - max).abs() < 1e-15);
        assert!(r.gflops > 0.0);
        assert!(r.dram_bytes > 0.0);
    }

    #[test]
    fn arm_machines_are_slower_than_x86_at_same_work() {
        let a = shuffled(&banded(30_000, 3), 3);
        let milan = simulate_spmv_1d(&a, &machine_by_name("Milan B").unwrap());
        let hi = simulate_spmv_1d(&a, &machine_by_name("Hi1620").unwrap());
        assert!(
            milan.gflops > hi.gflops,
            "Milan {} should outpace Hi1620 {}",
            milan.gflops,
            hi.gflops
        );
    }
}
