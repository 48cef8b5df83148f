//! Threshold policies — the moments of the count distributions evaluated
//! in §4.2 ("we empirically evaluated different options based on several
//! moments of the distributions ... we eventually settled for the mean").

/// How to turn a distribution of counts into a decision threshold.
///
/// The same policy is applied to *both* distributions: the per-user
/// `#Domains(u, ·)` distribution (threshold `Domains_th(u)`) and the
/// global `#Users(·)` distribution (threshold `Users_th`). Figure 3
/// contrasts `Mean` against `MeanPlusMedian`; the deployment default is
/// `Mean`, which the paper found "the best trade-off between accuracy
/// and the data we require from our users".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThresholdPolicy {
    /// Mean of the distribution (the paper's default).
    #[default]
    Mean,
    /// Mean + median: stricter on the domain side, more permissive on
    /// the user side (both thresholds rise).
    MeanPlusMedian,
    /// Median alone.
    Median,
    /// Mean + one standard deviation.
    MeanPlusStd,
}

impl ThresholdPolicy {
    /// [`Self::compute_over`] over a slice.
    #[cfg(test)]
    fn compute(&self, data: &[f64]) -> f64 {
        self.compute_over(data.iter().copied())
    }

    /// Computes the threshold value over a distribution of counts, read
    /// in place from wherever they are stored; sums run in iteration
    /// order. Returns 0 for empty input (no data ⇒ nothing exceeds it).
    pub(crate) fn compute_over(&self, data: impl ExactSizeIterator<Item = f64> + Clone) -> f64 {
        if data.len() == 0 {
            return 0.0;
        }
        match self {
            ThresholdPolicy::Mean => mean(data),
            ThresholdPolicy::MeanPlusMedian => mean(data.clone()) + median(data),
            ThresholdPolicy::Median => median(data),
            ThresholdPolicy::MeanPlusStd => mean(data.clone()) + stddev(data),
        }
    }

    /// All policies, for sweeps/ablation.
    pub fn all() -> [ThresholdPolicy; 4] {
        [
            ThresholdPolicy::Mean,
            ThresholdPolicy::MeanPlusMedian,
            ThresholdPolicy::Median,
            ThresholdPolicy::MeanPlusStd,
        ]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ThresholdPolicy::Mean => "Mean",
            ThresholdPolicy::MeanPlusMedian => "Mean+Median",
            ThresholdPolicy::Median => "Median",
            ThresholdPolicy::MeanPlusStd => "Mean+Std",
        }
    }
}

fn mean(data: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = data.len();
    data.sum::<f64>() / n as f64
}

fn median(data: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = data.collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn stddev(data: impl ExactSizeIterator<Item = f64> + Clone) -> f64 {
    let n = data.len();
    let m = mean(data.clone());
    (data.map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [f64; 5] = [1.0, 1.0, 2.0, 3.0, 8.0];

    #[test]
    fn mean_policy() {
        assert_eq!(ThresholdPolicy::Mean.compute(&DATA), 3.0);
    }

    #[test]
    fn mean_plus_median_policy() {
        assert_eq!(ThresholdPolicy::MeanPlusMedian.compute(&DATA), 5.0);
    }

    #[test]
    fn median_policy() {
        assert_eq!(ThresholdPolicy::Median.compute(&DATA), 2.0);
    }

    #[test]
    fn mean_plus_std_exceeds_mean() {
        assert!(ThresholdPolicy::MeanPlusStd.compute(&DATA) > 3.0);
    }

    #[test]
    fn empty_distribution_yields_zero() {
        for p in ThresholdPolicy::all() {
            assert_eq!(p.compute(&[]), 0.0, "{}", p.label());
        }
    }

    #[test]
    fn ordering_between_policies() {
        // Mean+Median and Mean+Std are both at least Mean on
        // non-negative data.
        let m = ThresholdPolicy::Mean.compute(&DATA);
        assert!(ThresholdPolicy::MeanPlusMedian.compute(&DATA) >= m);
        assert!(ThresholdPolicy::MeanPlusStd.compute(&DATA) >= m);
    }

    #[test]
    fn default_is_mean() {
        assert_eq!(ThresholdPolicy::default(), ThresholdPolicy::Mean);
    }
}
