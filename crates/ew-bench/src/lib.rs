#![forbid(unsafe_code)]
//! # ew-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). This
//! library holds the shared experiment plumbing: sweep runners and
//! plain-text table rendering. The timings `tab_overhead` and
//! `tab3_comparison` print illustrate the paper's tables; speed
//! *claims* come from the repository's `benchmark/` package alone.
//!
//! | Binary                 | Reproduces                                   |
//! |------------------------|----------------------------------------------|
//! | `fig2_cms_effect`      | Figure 2 — #Users distribution, actual vs CMS |
//! | `fig3_false_negatives` | Figure 3 — FN% vs frequency cap               |
//! | `fp_sweep`             | §7.2.2/§7.2.3 — FP% over 30+ configurations   |
//! | `fig4_eval_tree`       | Figure 4 — live-validation decision tree      |
//! | `tab2_logistic`        | Table 2 + Figure 5 — socio-economic biases    |
//! | `tab_overhead`         | §7.1 — protocol overhead accounting           |
//! | `ablation_sketch`      | CMS vs spectral-bloom vs exact (design choice)|
//! | `ablation_threshold`   | threshold-policy comparison (§4.2)            |

use ew_core::{DetectorConfig, ThresholdPolicy};
use ew_simnet::{Scenario, ScenarioConfig};
use ew_stats::ConfusionMatrix;
use ew_system::run_cleartext_pipeline;

/// Runs the controlled study once and returns the confusion matrix.
pub fn run_once(config: ScenarioConfig, policy: ThresholdPolicy) -> ConfusionMatrix {
    let scenario = Scenario::build(config);
    let log = scenario.run_week(0);
    let detector = DetectorConfig {
        policy,
        ..DetectorConfig::default()
    };
    run_cleartext_pipeline(&log, detector).confusion
}

/// Runs `seeds` independent replications and merges the confusions.
pub fn run_seeds(base: &ScenarioConfig, policy: ThresholdPolicy, seeds: &[u64]) -> ConfusionMatrix {
    let mut merged = ConfusionMatrix::new();
    for &seed in seeds {
        let mut config = base.clone();
        config.seed = seed;
        merged.merge(&run_once(config, policy));
    }
    merged
}

/// Renders one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a horizontal rule matching `widths`.
pub fn rule(widths: &[usize]) -> String {
    widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("--")
}

/// Prints the Table 1 parameter block (the configuration banner every
/// simulation binary starts with).
pub fn print_table1(config: &ScenarioConfig) {
    println!("Table 1: Simulation configuration parameters");
    println!("  Number of users            {}", config.num_users);
    println!("  Number of websites         {}", config.num_websites);
    println!("  Average user visits        {}", config.avg_user_visits);
    println!(
        "  Average ads per website    {}",
        config.avg_ads_per_website
    );
    println!("  Percentage of targeted ads {}", config.pct_targeted_ads);
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_once_produces_data() {
        let m = run_once(ScenarioConfig::small(3), ThresholdPolicy::Mean);
        assert!(m.total() > 0);
    }

    #[test]
    fn seeds_accumulate() {
        let base = ScenarioConfig::small(0);
        let one = run_seeds(&base, ThresholdPolicy::Mean, &[1]);
        let two = run_seeds(&base, ThresholdPolicy::Mean, &[1, 2]);
        assert!(two.total() > one.total());
    }

    #[test]
    fn table_rendering() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
        assert_eq!(rule(&[2, 2]), "------");
    }
}
