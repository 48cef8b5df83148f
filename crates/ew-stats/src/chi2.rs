//! Chi-square distribution and the likelihood-ratio (deviance) test for
//! nested logistic models — §8.1 of the paper: *"in the case of
//! 'employment status', it was removed from the model as it was deemed
//! non-useful with an anova likelihood ratio test."*
//!
//! The chi-square CDF is the regularized lower incomplete gamma function
//! `P(k/2, x/2)`, computed by the standard series / continued-fraction
//! split (Numerical Recipes §6.2).

/// Natural log of the gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain");
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma `P(a, x)`.
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation converges quickly here.
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x) (modified Lentz).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        1.0 - q
    }
}

/// CDF of the chi-square distribution with `k` degrees of freedom.
pub fn chi2_cdf(x: f64, k: usize) -> f64 {
    assert!(k >= 1, "need at least one degree of freedom");
    if x <= 0.0 {
        return 0.0;
    }
    gamma_p(k as f64 / 2.0, x / 2.0)
}

/// Upper-tail p-value for a chi-square statistic.
pub fn chi2_p_value(x: f64, k: usize) -> f64 {
    (1.0 - chi2_cdf(x, k)).clamp(0.0, 1.0)
}

/// Result of a likelihood-ratio test between nested models.
#[derive(Debug, Clone, Copy)]
pub struct LrTest {
    /// Deviance difference `2·(llₐ − ll₀)`.
    pub statistic: f64,
    /// Degrees of freedom (parameter-count difference).
    pub df: usize,
    /// Upper-tail chi-square p-value.
    pub p_value: f64,
}

/// Likelihood-ratio test: does the alternative model (log-likelihood
/// `ll_alt`, `p_alt` parameters) significantly improve on the null
/// (`ll_null`, `p_null` parameters)? This is R's `anova(m0, m1,
/// test="LRT")` — the §8.1 procedure that dropped employment status.
pub fn likelihood_ratio_test(ll_null: f64, p_null: usize, ll_alt: f64, p_alt: usize) -> LrTest {
    assert!(
        p_alt > p_null,
        "models must be nested (alt strictly larger)"
    );
    let statistic = (2.0 * (ll_alt - ll_null)).max(0.0);
    let df = p_alt - p_null;
    LrTest {
        statistic,
        df,
        p_value: chi2_p_value(statistic, df),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn chi2_cdf_matches_tables() {
        // Classic critical values: P(X <= 3.841 | k=1) = 0.95,
        // P(X <= 5.991 | k=2) = 0.95, P(X <= 7.815 | k=3) = 0.95.
        assert!((chi2_cdf(3.841, 1) - 0.95).abs() < 1e-3);
        assert!((chi2_cdf(5.991, 2) - 0.95).abs() < 1e-3);
        assert!((chi2_cdf(7.815, 3) - 0.95).abs() < 1e-3);
        // k=2 has closed form 1 - exp(-x/2).
        for x in [0.5f64, 1.0, 2.0, 10.0] {
            assert!((chi2_cdf(x, 2) - (1.0 - (-x / 2.0).exp())).abs() < 1e-10);
        }
    }

    #[test]
    fn chi2_cdf_boundaries() {
        assert_eq!(chi2_cdf(0.0, 3), 0.0);
        assert!(chi2_cdf(1e6, 3) > 0.999_999);
        let mut last = 0.0;
        for i in 1..100 {
            let v = chi2_cdf(i as f64 * 0.5, 4);
            assert!(v >= last, "CDF monotone");
            last = v;
        }
    }

    #[test]
    fn lr_test_significant_and_not() {
        // Large improvement, 1 df: significant.
        let sig = likelihood_ratio_test(-1000.0, 3, -990.0, 4);
        assert!(sig.p_value < 0.001, "p = {}", sig.p_value);
        assert!((sig.statistic - 20.0).abs() < 1e-12);
        // Negligible improvement: not significant.
        let ns = likelihood_ratio_test(-1000.0, 3, -999.8, 5);
        assert!(ns.p_value > 0.5, "p = {}", ns.p_value);
        assert_eq!(ns.df, 2);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn lr_test_rejects_non_nested() {
        likelihood_ratio_test(-10.0, 4, -9.0, 4);
    }
}
