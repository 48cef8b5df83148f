#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ew-stats — statistics substrate for the eyeWnder reproduction
//!
//! Everything quantitative the paper's evaluation needs, implemented
//! in-house so the workspace stays within its sanctioned dependencies:
//!
//! * [`sampler`] — Zipf (website popularity), categorical and Bernoulli
//!   samplers used by the browsing/ad simulator.
//! * [`mean`], [`median`], [`stddev`], [`percentile`] and
//!   [`histogram_pdf`] — descriptive statistics and probability-density
//!   histograms (the Figure 2 series); [`ks_statistic`] and
//!   [`ks_p_value`] — the two-sample Kolmogorov–Smirnov test.
//! * [`metrics`] — confusion matrices and the TP/FP/TN/FN rates quoted
//!   throughout §7.
//! * [`linalg`] — small dense matrices with a Cholesky solver, enough
//!   for Newton steps on a handful of regression coefficients.
//! * [`normal`] — the standard normal CDF (and error function) used for
//!   Wald p-values.
//! * [`chi2`] — the chi-square distribution and the likelihood-ratio
//!   test the paper's §8.1 used to drop the employment-status factor.
//! * [`logit`] — binomial logistic regression fitted by iteratively
//!   reweighted least squares, reporting odds ratios, standard errors,
//!   Wald z, p-values and 95% confidence intervals — i.e. every column
//!   of the paper's Table 2 — plus marginal predicted probabilities for
//!   Figure 5.

pub mod chi2;
mod describe;
mod ks;
pub mod linalg;
pub mod logit;
pub mod metrics;
pub mod normal;
pub mod sampler;

pub use chi2::{chi2_cdf, chi2_p_value, likelihood_ratio_test, LrTest};
pub use describe::{histogram_pdf, mean, median, percentile, stddev, variance};
pub use ks::{ks_p_value, ks_statistic};
pub use linalg::Matrix;
pub use logit::{LogisticModel, LogitFit, LogitSummaryRow};
pub use metrics::ConfusionMatrix;
pub use normal::{erf, normal_cdf};
pub use sampler::{poisson, Categorical, Zipf};
