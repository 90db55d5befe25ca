//! Best-of estimators over replicas.
//!
//! A run replays the same seeded schedule S times (its *slices*), so
//! every operation, every batch of operations and every step of the
//! reset has S replicas. On a shared host interference is one-sided —
//! a neighbour only ever makes a replica slower — so the undisturbed
//! duration of a piece of work is estimated by `best3`: the mean of
//! its three fastest replicas. A median would follow the neighbour,
//! not the code. Whole-slice `best3` was not enough on this host
//! (slices of 0.2–1 s rarely escape a neighbour's burst entirely;
//! `kernel_grid` throughput ranged 150–196 ops/s over ten runs), so
//! the estimate is taken at the finest grain the replicas allow:
//! per operation for service times, per batch for throughput, per
//! step for the reset ([`Finest`]).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// Mean of the three best values (of all of them when fewer).
pub fn best3(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best3 of no slices");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite slice metric"));
    if better == Better::Higher {
        v.reverse();
    }
    let k = v.len().min(3);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite value"));
    quantile(&v, 0.5)
}

/// The three smallest values seen so far, ascending.
#[derive(Debug, Clone, Copy)]
pub struct Best3([f64; 3]);

impl Best3 {
    pub const EMPTY: Best3 = Best3([f64::INFINITY; 3]);

    pub fn push(&mut self, value: f64) {
        let b = &mut self.0;
        if value < b[2] {
            b[2] = value;
            if b[2] < b[1] {
                b.swap(1, 2);
                if b[1] < b[0] {
                    b.swap(0, 1);
                }
            }
        }
    }

    pub fn merged(mut self, other: Best3) -> Best3 {
        for v in other.0 {
            self.push(v);
        }
        self
    }

    /// Mean of the values held (fewer than three early in a run);
    /// `None` before the first.
    pub fn mean(&self) -> Option<f64> {
        let held: Vec<f64> = self.0.iter().copied().filter(|v| v.is_finite()).collect();
        (!held.is_empty()).then(|| held.iter().sum::<f64>() / held.len() as f64)
    }
}

/// `best3` of every piece of a replicated sequence (the operations of
/// a slice, its batches, the steps of a reset), kept apart for even
/// and odd replicas so that the two interleaved half-runs can be
/// compared afterwards ([`Estimate::noise`]).
#[derive(Debug, Clone, Default)]
pub struct Finest {
    pieces: [Vec<Best3>; 2],
    pub replicas: usize,
}

impl Finest {
    /// Add one replica: the duration of every piece, in order. A piece
    /// that is not a finite number (a failed operation) is skipped.
    pub fn push(&mut self, durations: &[f64]) {
        let half = &mut self.pieces[self.replicas % 2];
        if half.len() < durations.len() {
            half.resize(durations.len(), Best3::EMPTY);
        }
        for (best, &d) in half.iter_mut().zip(durations) {
            if d.is_finite() {
                best.push(d);
            }
        }
        self.replicas += 1;
    }

    /// `best3` of every piece over the given halves.
    fn best_of(&self, halves: &[usize]) -> Vec<f64> {
        let len = self.pieces.iter().map(Vec::len).max().unwrap_or(0);
        (0..len)
            .filter_map(|i| {
                halves
                    .iter()
                    .filter_map(|&h| self.pieces[h].get(i).copied())
                    .fold(Best3::EMPTY, Best3::merged)
                    .mean()
            })
            .collect()
    }

    /// `best3` of every piece over all replicas.
    pub fn best(&self) -> Vec<f64> {
        self.best_of(&[0, 1])
    }

    /// Summarise the per-piece `best3` durations with `f` (a sum, a
    /// quantile): over all replicas for the value, over each half for
    /// the noise.
    pub fn estimate(&self, f: impl Fn(&mut [f64]) -> f64) -> Estimate {
        let of = |halves: &[usize]| {
            let mut best = self.best_of(halves);
            (!best.is_empty()).then(|| f(&mut best))
        };
        let value = of(&[0, 1]).expect("estimate of no replicas");
        let noise = match (of(&[0]), of(&[1])) {
            (Some(even), Some(odd)) if value != 0.0 => (even - odd).abs() / value.abs(),
            _ => 0.0,
        };
        Estimate {
            value,
            noise,
            slices: self.replicas,
        }
    }
}

/// One summarised metric: its value, its within-run noise and the
/// number of slices behind it.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    pub value: f64,
    /// Relative difference of the estimator on the even and on the odd
    /// replicas: two interleaved half-runs of the same process. Above
    /// the metric's bound, the run was too disturbed to compare.
    pub noise: f64,
    pub slices: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best3_takes_the_right_tail() {
        let v = [5.0, 1.0, 9.0, 3.0, 2.0];
        assert_eq!(best3(&v, Better::Lower), 2.0);
        assert_eq!(best3(&v, Better::Higher), (9.0 + 5.0 + 3.0) / 3.0);
        assert_eq!(best3(&[4.0, 2.0], Better::Lower), 3.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.9), 180.0);
        assert_eq!(quantile(&v, 0.99), 198.0);
        assert_eq!(quantile(&v, 1.0), 200.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn best3_accumulator_keeps_the_three_smallest() {
        let mut b = Best3::EMPTY;
        assert_eq!(b.mean(), None);
        b.push(5.0);
        assert_eq!(b.mean(), Some(5.0));
        for v in [9.0, 1.0, 7.0, 3.0, 8.0] {
            b.push(v);
        }
        assert_eq!(b.mean(), Some(3.0));
        let mut other = Best3::EMPTY;
        other.push(2.0);
        assert_eq!(b.merged(other).mean(), Some(2.0));
    }

    #[test]
    fn finest_estimates_piece_by_piece() {
        let mut f = Finest::default();
        // Two pieces; every replica is disturbed in one piece or the
        // other, never in both: whole-replica best3 would see 11.
        for r in 0..8 {
            let (a, b) = if r % 2 == 0 { (1.0, 20.0) } else { (10.0, 2.0) };
            f.push(&[a, b]);
        }
        f.push(&[f64::NAN, 2.0]);
        let sum = f.estimate(|best| best.iter().sum());
        assert_eq!((sum.value, sum.slices), (3.0, 9));
        // Even replicas alone say 1 + mean(2, 20, 20) (the failed
        // piece is skipped), odd replicas 10 + 2.
        assert!((sum.noise - (15.0 - 12.0) / 3.0).abs() < 1e-12);
        let top = f.estimate(|best| {
            best.sort_by(|x, y| x.partial_cmp(y).unwrap());
            quantile(best, 0.9)
        });
        assert_eq!(top.value, 2.0);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 11.0) < 0.0);
    }
}
