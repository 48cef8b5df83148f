//! The estimator every timing metric goes through.
//!
//! Iterations are bit-deterministic, so the spread of a stage's samples
//! is the machine, not the program, and the noise is one-sided: nothing
//! makes a round faster than the code allows. The gated value of a timing
//! is therefore the **p10** of its samples; the median and the highest
//! percentile that still has ten samples beyond it are printed beside it.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 that leaves at least ten
/// samples beyond it, as `(label, quantile)`; p50 when even that has
/// fewer.
pub fn high_quantile(n: usize) -> (&'static str, f64) {
    // Per-mille ranks, so "ten beyond" is exact integer arithmetic.
    [("p99.9", 999), ("p99", 990), ("p90", 900)]
        .into_iter()
        .find(|&(_, permille)| n - (n * permille).div_ceil(1000) >= 10)
        .map_or(("p50", 0.50), |(label, permille)| {
            (label, permille as f64 / 1000.0)
        })
}

/// What is printed for one timing metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The gated value.
    pub p10: f64,
    /// The median.
    pub p50: f64,
    /// Label and value of [`high_quantile`].
    pub high: (&'static str, f64),
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// The same summary with every value divided by `divisor`.
    pub fn divided_by(mut self, divisor: f64) -> Summary {
        self.p10 /= divisor;
        self.p50 /= divisor;
        self.high.1 /= divisor;
        self
    }
}

/// Summarises unordered samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (label, q) = high_quantile(sorted.len());
    Summary {
        p10: percentile(&sorted, 0.10),
        p50: percentile(&sorted, 0.50),
        high: (label, percentile(&sorted, q)),
        n: sorted.len(),
    }
}

/// Median of unordered values (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_hundred_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.10), 10.0);
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.90), 90.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn small_sample_percentiles_stay_in_range() {
        assert_eq!(percentile(&[7.0], 0.10), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.10), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.50), 2.0);
    }

    #[test]
    fn high_quantile_keeps_ten_samples_beyond() {
        assert_eq!(high_quantile(12).0, "p50");
        assert_eq!(high_quantile(99).0, "p50");
        assert_eq!(high_quantile(100).0, "p90");
        assert_eq!(high_quantile(999).0, "p90");
        assert_eq!(high_quantile(1000).0, "p99");
        assert_eq!(high_quantile(10_000).0, "p99.9");
    }

    #[test]
    fn summary_is_order_insensitive_and_p10_ignores_slow_outliers() {
        let mut samples: Vec<f64> = (0..100).map(|i| 250.0 + f64::from(i % 3)).collect();
        let calm = summarize(&samples);
        // A third of the run hit by a slow neighbour: the median moves,
        // the p10 does not.
        for s in samples.iter_mut().skip(60) {
            *s += 80.0;
        }
        samples.reverse();
        let noisy = summarize(&samples);
        assert_eq!(calm.p10, noisy.p10);
        assert!(noisy.p50 >= calm.p50);
        assert_eq!(noisy.n, 100);
        assert_eq!(noisy.high.0, "p90");
        let halved = noisy.clone().divided_by(2.0);
        assert_eq!(
            (halved.p10, halved.p50, halved.high.1, halved.n),
            (noisy.p10 / 2.0, noisy.p50 / 2.0, noisy.high.1 / 2.0, 100)
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
