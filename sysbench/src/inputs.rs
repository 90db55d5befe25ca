//! Seeded input generation and the bench-side correctness oracle.
//!
//! Everything a workload feeds the program derives from `--seed`
//! through [`Rng`]; the program itself never sees the seed. Each
//! workload folds its schedule into a [`ScheduleHash`] so two runs can
//! be checked to have replayed the same operations.

use sparsemat::CsrMatrix;

/// The seed of every schedule's *shape*: which popularity rank, cost
/// class or grid cell each operation of a slice addresses, in what
/// order. `--seed` draws the *content* — the matrices, the vectors and
/// which matrix holds which rank — so every seed replays the same
/// amount of each kind of work. (Drawn per seed, the number of
/// prepared-cache misses in `serve_churn` alone ranged 939–1041 of
/// 3950 reads over ten seeds, and `ops_per_s` with it.)
pub const SHAPE_SEED: u64 = 14;

/// SplitMix64: small, fast, and owned by the bench so that its
/// schedules do not change when a shim of the repository does.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        Rng(Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A dense vector with entries in `[0.5, 1.5)`: no cancellation,
    /// so a relative tolerance on `A·x` is meaningful.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 0.5 + self.unit()).collect()
    }
}

/// `total` draws over ranks `0..n` in Zipf(s) proportions, in seeded
/// order. The *count* of every rank is the same for every seed
/// (largest-remainder apportionment); only the order is drawn. Sampled
/// counts would make a cache's hit ratio, and with it throughput,
/// wander by a few percent from seed to seed.
pub fn zipf_sequence(n: usize, s: f64, total: usize, rng: &mut Rng) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let scale = total as f64 / weights.iter().sum::<f64>();
    let mut counts: Vec<usize> = weights.iter().map(|w| (w * scale) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |r: usize| weights[r] * scale - counts[r] as f64;
        frac(b)
            .partial_cmp(&frac(a))
            .expect("finite weight")
            .then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(missing) {
        counts[rank] += 1;
    }
    let mut sequence: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &count)| std::iter::repeat_n(rank, count))
        .collect();
    rng.shuffle(&mut sequence);
    sequence
}

/// FNV-1a over the words a workload's schedule is made of.
pub struct ScheduleHash(u64);

impl ScheduleHash {
    pub fn new() -> ScheduleHash {
        ScheduleHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn vector(&mut self, x: &[f64]) {
        for v in x {
            self.word(v.to_bits());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The oracle: `A·x` by the textbook CSR loop, written here so that it
/// shares no code with the kernels or with `CsrMatrix::spmv_dense`.
pub fn naive_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
    (0..a.nrows())
        .map(|i| {
            let mut sum = 0.0;
            for k in rowptr[i]..rowptr[i + 1] {
                sum += values[k] * x[colidx[k] as usize];
            }
            sum
        })
        .collect()
}

const REL_TOL: f64 = 1e-9;

pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * (1.0 + want.abs())
}

/// Every element of an answer against the oracle's.
pub fn answer_matches(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| close(g, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let draw = |seed| {
            let mut r = Rng::fork(seed, 0);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        let (a, b) = (draw(14), draw(14));
        assert_eq!(a, b);
        assert_ne!(Rng::fork(14, 1).next_u64(), Rng::fork(14, 2).next_u64());
        let mut r = Rng::fork(3, 0);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn zipf_sequence_has_fixed_counts_and_seeded_order() {
        let a = zipf_sequence(16, 1.1, 4000, &mut Rng::fork(1, 0));
        let b = zipf_sequence(16, 1.1, 4000, &mut Rng::fork(2, 0));
        assert_eq!(a.len(), 4000);
        assert_ne!(a, b);
        let count = |seq: &[usize], rank| seq.iter().filter(|&&r| r == rank).count();
        for rank in 0..16 {
            assert_eq!(count(&a, rank), count(&b, rank));
        }
        assert!(count(&a, 0) > count(&a, 1) && count(&a, 1) > count(&a, 15));
        assert!(count(&a, 15) > 0);
    }

    #[test]
    fn oracle_agrees_with_a_hand_computed_product() {
        let mut coo = sparsemat::CooMatrix::new(2, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, -1.0);
        coo.push(1, 1, 4.0);
        let a = CsrMatrix::from_coo(&coo);
        assert_eq!(naive_spmv(&a, &[1.0, 2.0, 3.0]), vec![-1.0, 8.0]);
        assert!(answer_matches(&[1.0 + 1e-12], &[1.0]));
        assert!(!answer_matches(&[1.0 + 1e-6], &[1.0]));
        assert!(!answer_matches(&[1.0], &[1.0, 1.0]));
    }
}
