//! Binary-classification bookkeeping: the TP/FP/TN/FN rates quoted
//! throughout §7 of the paper.

/// A 2×2 confusion matrix for the targeted / non-targeted decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Targeted, classified targeted.
    pub tp: u64,
    /// Non-targeted, classified targeted.
    pub fp: u64,
    /// Non-targeted, classified non-targeted.
    pub tn: u64,
    /// Targeted, classified non-targeted.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, truth_targeted: bool, predicted_targeted: bool) {
        match (truth_targeted, predicted_targeted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// True-positive rate (recall): `TP / (TP + FN)`. 0 when undefined.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False-negative rate: `FN / (TP + FN)` — the y-axis of Figure 3.
    pub fn fnr(&self) -> f64 {
        ratio(self.fn_, self.tp + self.fn_)
    }

    /// True-negative rate: `TN / (TN + FP)`.
    pub fn tnr(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// False-positive rate: `FP / (TN + FP)` — the §7.2.2 "<2%" claim.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.tn + self.fp)
    }

    /// Precision: `TP / (TP + FP)`. 0 when undefined.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Accuracy: `(TP + TN) / total`.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// F1 score; tests check the degenerate rates beside it.
    #[cfg(test)]
    fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another matrix (e.g. across simulation seeds).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        for _ in 0..8 {
            m.record(true, true); // TP
        }
        for _ in 0..2 {
            m.record(true, false); // FN
        }
        for _ in 0..89 {
            m.record(false, false); // TN
        }
        m.record(false, true); // FP
        m
    }

    #[test]
    fn rates() {
        let m = sample();
        assert_eq!(m.total(), 100);
        assert!((m.tpr() - 0.8).abs() < 1e-12);
        assert!((m.fnr() - 0.2).abs() < 1e-12);
        assert!((m.fpr() - 1.0 / 90.0).abs() < 1e-12);
        assert!((m.tnr() - 89.0 / 90.0).abs() < 1e-12);
        assert!((m.precision() - 8.0 / 9.0).abs() < 1e-12);
        assert!((m.accuracy() - 0.97).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rates_are_zero() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.tpr(), 0.0);
        assert_eq!(m.fpr(), 0.0);
        assert_eq!(m.f1(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn complementary_rates_sum_to_one() {
        let m = sample();
        assert!((m.tpr() + m.fnr() - 1.0).abs() < 1e-12);
        assert!((m.tnr() + m.fpr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 200);
        assert_eq!(a.tp, 16);
    }
}
