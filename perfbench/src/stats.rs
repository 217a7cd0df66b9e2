//! Exact quantiles over raw per-operation samples.
//!
//! Every latency the benchmark reports is read from the full list of
//! samples, never from a bucketed histogram, and carries its sample
//! count. A percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise the run fails.

use std::time::Duration;

/// Samples that must lie strictly beyond the highest reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Raw durations of one kind of operation, in nanoseconds (signed, so a
/// cross-thread interval that races can be reported as measured).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<i64>);

/// One quantile read from a [`Samples`] list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Value in milliseconds (0 when there are no samples).
    pub ms: f64,
    /// Number of samples the quantile was taken from.
    pub n: usize,
    /// Samples strictly beyond the quantile's rank.
    pub beyond: usize,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(i64::try_from(d.as_nanos()).unwrap_or(i64::MAX));
    }

    pub fn push_ns(&mut self, ns: i64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum_ns(&self) -> i64 {
        self.0.iter().sum()
    }

    /// Mean in milliseconds (0 when there are no samples).
    pub fn mean_ms(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum_ns() as f64 / self.0.len() as f64 / 1e6
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `q·n`
    /// samples at or below it.
    pub fn quantile(&self, q: f64) -> Quantile {
        let n = self.0.len();
        if n == 0 {
            return Quantile {
                ms: 0.0,
                n,
                beyond: 0,
            };
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Quantile {
            ms: sorted[rank - 1] as f64 / 1e6,
            n,
            beyond: n - rank,
        }
    }
}

/// Median of a list of plain numbers (set-up repetitions and the like).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut s = Samples::default();
        for ms in 1..=1000 {
            s.push(Duration::from_millis(ms));
        }
        let p50 = s.quantile(0.50);
        assert_eq!((p50.ms, p50.n, p50.beyond), (500.0, 1000, 500));
        let p99 = s.quantile(0.99);
        assert_eq!((p99.ms, p99.beyond), (990.0, 10));
        assert_eq!(Samples::default().quantile(0.99).n, 0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
