//! Binomial logistic regression by iteratively reweighted least squares
//! (IRLS / Newton–Raphson), producing exactly the columns of the paper's
//! Table 2: odds ratios, standard errors, Wald z, p-values and 95%
//! confidence intervals, plus the marginal predicted probabilities of
//! Figure 5.
//!
//! The paper fits `D ~ G + A + L` — ad type (targeted vs static) against
//! gender, age bracket and income bracket, dummy-coded against base
//! levels. The model here is the general machinery; the design-matrix
//! construction lives with the Table 2 bench.

use crate::linalg::Matrix;
use crate::normal::wald_p_value;

/// Why a fit failed. Public because [`LogisticModel::fit`] returns it;
/// callers only unwrap or print it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogitError {
    /// The normal-equation matrix was singular (collinear design or
    /// perfect separation).
    SingularHessian,
    /// IRLS did not converge within the iteration cap.
    NoConvergence,
    /// Shape problems (empty data, mismatched lengths).
    BadInput(String),
}

impl std::fmt::Display for LogitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogitError::SingularHessian => write!(f, "singular Hessian (collinear design?)"),
            LogitError::NoConvergence => write!(f, "IRLS did not converge"),
            LogitError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for LogitError {}

/// A fitted logistic regression.
#[derive(Debug, Clone)]
pub struct LogitFit {
    /// Coefficients (log-odds scale), intercept first if the design
    /// includes a leading 1-column.
    pub coefficients: Vec<f64>,
    /// Standard errors from the inverse Fisher information.
    pub standard_errors: Vec<f64>,
    /// IRLS iterations used.
    pub iterations: usize,
    /// Final log-likelihood.
    pub log_likelihood: f64,
}

/// One row of a Table 2-style summary.
#[derive(Debug, Clone)]
pub struct LogitSummaryRow {
    /// Coefficient label.
    pub label: String,
    /// Odds ratio `exp(β)`.
    pub odds_ratio: f64,
    /// Standard error of `β`.
    pub std_error: f64,
    /// Wald statistic `β / SE`.
    pub z_value: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// 95% CI for the odds ratio.
    pub ci_low: f64,
    /// 95% CI for the odds ratio.
    pub ci_high: f64,
}

impl LogitSummaryRow {
    /// Significance stars in the paper's notation.
    pub fn stars(&self) -> &'static str {
        if self.p_value < 0.001 {
            "****"
        } else if self.p_value < 0.01 {
            "***"
        } else if self.p_value < 0.05 {
            "**"
        } else if self.p_value < 0.1 {
            "*"
        } else {
            ""
        }
    }
}

/// Logistic regression model: fit and predict.
#[derive(Debug, Clone, Copy)]
pub struct LogisticModel {
    /// Maximum IRLS iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the max coefficient step.
    pub tolerance: f64,
}

impl Default for LogisticModel {
    fn default() -> Self {
        LogisticModel {
            max_iterations: 50,
            tolerance: 1e-8,
        }
    }
}

/// The logistic function.
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl LogisticModel {
    /// Fits `y ~ X` where `x` is the design matrix (include your own
    /// intercept column) and `y` holds 0/1 outcomes.
    pub fn fit(&self, x: &Matrix, y: &[f64]) -> Result<LogitFit, LogitError> {
        let n = x.rows();
        let p = x.cols();
        if n == 0 || p == 0 {
            return Err(LogitError::BadInput("empty design".into()));
        }
        if y.len() != n {
            return Err(LogitError::BadInput(format!(
                "{} outcomes for {} rows",
                y.len(),
                n
            )));
        }
        if y.iter().any(|&v| v != 0.0 && v != 1.0) {
            return Err(LogitError::BadInput("outcomes must be 0/1".into()));
        }

        let mut beta = vec![0.0; p];
        for iter in 0..self.max_iterations {
            // mu_i = sigmoid(x_i . beta); W = diag(mu(1-mu)).
            let eta = x.matvec(&beta);
            let mu: Vec<f64> = eta.iter().map(|&e| sigmoid(e)).collect();
            let w: Vec<f64> = mu.iter().map(|&m| (m * (1.0 - m)).max(1e-10)).collect();

            // Newton step: (XᵀWX) δ = Xᵀ(y − μ).
            let hessian = x.weighted_gram(&w);
            let residual: Vec<f64> = y.iter().zip(&mu).map(|(&yi, &mi)| yi - mi).collect();
            let gradient = x.tr_matvec(&residual);
            let delta = hessian
                .solve_spd(&gradient)
                .ok_or(LogitError::SingularHessian)?;

            let mut max_step = 0.0f64;
            for (b, d) in beta.iter_mut().zip(&delta) {
                *b += d;
                max_step = max_step.max(d.abs());
            }

            if max_step < self.tolerance {
                return self.finalize(x, y, beta, iter + 1);
            }
        }
        Err(LogitError::NoConvergence)
    }

    fn finalize(
        &self,
        x: &Matrix,
        y: &[f64],
        beta: Vec<f64>,
        iterations: usize,
    ) -> Result<LogitFit, LogitError> {
        let eta = x.matvec(&beta);
        let mu: Vec<f64> = eta.iter().map(|&e| sigmoid(e)).collect();
        let w: Vec<f64> = mu.iter().map(|&m| (m * (1.0 - m)).max(1e-10)).collect();
        let cov = x
            .weighted_gram(&w)
            .inverse_spd()
            .ok_or(LogitError::SingularHessian)?;
        let standard_errors = (0..beta.len()).map(|i| cov[(i, i)].sqrt()).collect();

        let log_likelihood = y
            .iter()
            .zip(&mu)
            .map(|(&yi, &mi)| {
                let m = mi.clamp(1e-12, 1.0 - 1e-12);
                yi * m.ln() + (1.0 - yi) * (1.0 - m).ln()
            })
            .sum();

        Ok(LogitFit {
            coefficients: beta,
            standard_errors,
            iterations,
            log_likelihood,
        })
    }
}

impl LogitFit {
    /// Predicted probability for one design row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.coefficients.len(), "dimension mismatch");
        let eta: f64 = row.iter().zip(&self.coefficients).map(|(x, b)| x * b).sum();
        sigmoid(eta)
    }

    /// Builds a Table 2-style summary, skipping `skip` leading
    /// coefficients (usually 1 for the intercept).
    pub fn summary(&self, labels: &[&str], skip: usize) -> Vec<LogitSummaryRow> {
        assert_eq!(
            labels.len() + skip,
            self.coefficients.len(),
            "one label per reported coefficient"
        );
        labels
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                let beta = self.coefficients[i + skip];
                let se = self.standard_errors[i + skip];
                let z = if se > 0.0 { beta / se } else { 0.0 };
                LogitSummaryRow {
                    label: label.to_string(),
                    odds_ratio: beta.exp(),
                    std_error: se,
                    z_value: z,
                    p_value: wald_p_value(z),
                    ci_low: (beta - 1.96 * se).exp(),
                    ci_high: (beta + 1.96 * se).exp(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Generates (X, y) with known coefficients (including intercept).
    fn synthetic(n: usize, beta_true: &[f64], seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = beta_true.len();
        let mut data = Vec::with_capacity(n * p);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = vec![1.0];
            for _ in 1..p {
                row.push(rng.gen_range(-1.0..1.0));
            }
            let eta: f64 = row.iter().zip(beta_true).map(|(x, b)| x * b).sum();
            y.push(if rng.gen::<f64>() < sigmoid(eta) {
                1.0
            } else {
                0.0
            });
            data.extend_from_slice(&row);
        }
        (Matrix::from_rows(n, p, data), y)
    }

    #[test]
    fn recovers_planted_coefficients() {
        let beta_true = [-0.5, 1.5, -2.0];
        let (x, y) = synthetic(20_000, &beta_true, 42);
        let fit = LogisticModel::default().fit(&x, &y).unwrap();
        for (got, want) in fit.coefficients.iter().zip(&beta_true) {
            assert!((got - want).abs() < 0.15, "coef {got} vs planted {want}");
        }
    }

    #[test]
    fn null_model_learns_base_rate() {
        // Intercept-only model: coefficient = logit of the mean outcome.
        let n = 1000;
        let y: Vec<f64> = (0..n).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect();
        let x = Matrix::from_rows(n, 1, vec![1.0; n]);
        let fit = LogisticModel::default().fit(&x, &y).unwrap();
        let expected = (0.25f64 / 0.75).ln();
        assert!((fit.coefficients[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn predictions_in_unit_interval() {
        let (x, y) = synthetic(500, &[0.3, -1.0], 7);
        let fit = LogisticModel::default().fit(&x, &y).unwrap();
        for r in [-5.0f64, 0.0, 5.0] {
            let p = fit.predict(&[1.0, r]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn summary_shape_and_significance() {
        let (x, y) = synthetic(20_000, &[0.0, 2.0], 9);
        let fit = LogisticModel::default().fit(&x, &y).unwrap();
        let rows = fit.summary(&["slope"], 1);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.odds_ratio > 5.0, "exp(2) ~ 7.4, got {}", row.odds_ratio);
        assert!(row.p_value < 0.001);
        assert_eq!(row.stars(), "****");
        assert!(row.ci_low < row.odds_ratio && row.odds_ratio < row.ci_high);
    }

    #[test]
    fn collinear_design_rejected() {
        // Two identical columns -> singular Hessian.
        let n = 100;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let v = (i % 10) as f64;
            data.extend_from_slice(&[1.0, v, v]);
            y.push(if i % 2 == 0 { 1.0 } else { 0.0 });
        }
        let x = Matrix::from_rows(n, 3, data);
        let err = LogisticModel::default().fit(&x, &y).unwrap_err();
        assert_eq!(err, LogitError::SingularHessian);
    }

    #[test]
    fn rejects_non_binary_outcomes() {
        let x = Matrix::from_rows(2, 1, vec![1.0, 1.0]);
        let err = LogisticModel::default().fit(&x, &[0.0, 0.5]).unwrap_err();
        assert!(matches!(err, LogitError::BadInput(_)));
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log_likelihood_improves_over_null() {
        let (x, y) = synthetic(2000, &[0.2, 1.0], 11);
        let fit = LogisticModel::default().fit(&x, &y).unwrap();
        // Null model likelihood:
        let p_bar = y.iter().sum::<f64>() / y.len() as f64;
        let ll_null: f64 = y
            .iter()
            .map(|&yi| yi * p_bar.ln() + (1.0 - yi) * (1.0 - p_bar).ln())
            .sum();
        assert!(fit.log_likelihood > ll_null);
    }
}
