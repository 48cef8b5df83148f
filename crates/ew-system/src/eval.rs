//! The §7.3 live-validation methodology: the Figure 4 decision tree.
//!
//! Ground truth for ad targeting is not publicly observable, so the
//! paper triangulates three imperfect oracles:
//!
//! * **CR** — the clean-profile crawler: a *targeted*-classified ad the
//!   crawler also saw is a false positive with high probability; a
//!   *non-targeted*-classified ad the crawler saw is a true negative.
//! * **CB** — a content-based heuristic (the paper's ref.\ 16 methodology adapted to
//!   real users): the user profile is the set of topics appearing on at
//!   least `cb_min_sites` distinct visited sites; an ad semantically
//!   overlapping the profile is called targeted by CB.
//! * **F8** — panel labels: each (user, ad) pair is labeled with
//!   probability `f8_label_prob`, and a given label matches ground
//!   truth with probability `f8_accuracy` (§7.3 cautions that "users
//!   have limitations in detecting bias or discrimination").
//!
//! Pairs none of the oracles can speak to land in **UNKNOWN** and go
//! through the §7.3.3 resolution step (modelled as a manual-inspection
//! oracle with accuracy `manual_accuracy`): targeted UNKNOWNs are probed
//! for retargeting/indirect-OBA behaviour, non-targeted UNKNOWNs are
//! manually inspected.

use ew_core::Verdict;
use ew_simnet::topics::TopicId;
use ew_simnet::{AdClass, ImpressionLog, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Oracle parameters (defaults match the roles in §7.3).
#[derive(Debug, Clone, Copy)]
pub struct EvalOracles {
    /// Minimum distinct visited sites of a topic before it enters the
    /// CB user profile (the paper's `T = 20`, scaled to simulator size).
    pub cb_min_sites: usize,
    /// Probability a (user, ad) pair received an F8 label.
    pub f8_label_prob: f64,
    /// Probability an F8 label matches ground truth.
    pub f8_accuracy: f64,
    /// Accuracy of the §7.3.3 manual-resolution step.
    pub manual_accuracy: f64,
    /// RNG seed for the stochastic oracles.
    pub seed: u64,
}

impl Default for EvalOracles {
    fn default() -> Self {
        EvalOracles {
            cb_min_sites: 16,
            f8_label_prob: 0.35,
            f8_accuracy: 0.80,
            manual_accuracy: 0.90,
            seed: 42,
        }
    }
}

/// Leaf counts of the Figure 4 tree plus the resolution step.
#[derive(Debug, Clone, Default)]
pub struct EvalTree {
    /// Pairs classified targeted by eyeWnder.
    pub classified_targeted: usize,
    /// Pairs classified non-targeted.
    pub classified_nontargeted: usize,
    /// Targeted branch: found in the crawler dataset (likely FP).
    pub fp_cr: usize,
    /// Targeted branch: semantic overlap ⇒ CB agrees (likely TP).
    pub tp_cb: usize,
    /// Targeted branch: F8 label agrees (likely TP).
    pub tp_f8: usize,
    /// Targeted branch: F8 label disagrees (likely FP).
    pub fp_f8: usize,
    /// Targeted branch: nobody can tell — resolved below.
    pub unknown_targeted: usize,
    /// Non-targeted branch: crawler saw it (TN with high probability).
    pub tn_cr: usize,
    /// Non-targeted branch: semantic overlap ⇒ CB calls it targeted
    /// (likely FN for eyeWnder).
    pub fn_cb: usize,
    /// Non-targeted branch: F8 says non-targeted (likely TN).
    pub tn_f8: usize,
    /// Non-targeted branch: F8 says targeted (likely FN).
    pub fn_f8: usize,
    /// Non-targeted branch UNKNOWNs.
    pub unknown_nontargeted: usize,
    /// §7.3.3: targeted UNKNOWNs resolved as retargeting / indirect OBA.
    pub likely_tp_resolved: usize,
    /// §7.3.3: targeted UNKNOWNs resolved as false positives.
    pub likely_fp_resolved: usize,
    /// §7.3.3: non-targeted UNKNOWNs resolved as true negatives.
    pub likely_tn_resolved: usize,
    /// §7.3.3: non-targeted UNKNOWNs resolved as false negatives.
    pub likely_fn_resolved: usize,
}

impl EvalTree {
    /// Overall likely-TP rate over targeted-classified pairs
    /// (the paper reports 78%).
    pub fn tp_rate(&self) -> f64 {
        let tp = self.tp_cb + self.tp_f8 + self.likely_tp_resolved;
        ratio(tp, self.classified_targeted)
    }

    /// Overall likely-TN rate over non-targeted-classified pairs
    /// (the paper reports 87%).
    pub fn tn_rate(&self) -> f64 {
        let tn = self.tn_cr + self.tn_f8 + self.likely_tn_resolved;
        ratio(tn, self.classified_nontargeted)
    }

    /// Total pairs evaluated.
    pub fn total(&self) -> usize {
        self.classified_targeted + self.classified_nontargeted
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Builds per-user CB profiles: topics appearing on at least
/// `min_sites` distinct visited sites.
fn cb_profiles(
    scenario: &Scenario,
    log: &ImpressionLog,
    min_sites: usize,
) -> BTreeMap<u32, BTreeSet<TopicId>> {
    let mut sites_by_user: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for r in log.records() {
        sites_by_user.entry(r.user).or_default().insert(r.site);
    }
    sites_by_user
        .into_iter()
        .map(|(user, sites)| {
            let mut topic_counts: BTreeMap<TopicId, usize> = BTreeMap::new();
            for s in sites {
                *topic_counts
                    .entry(scenario.sites[s as usize].topic)
                    .or_insert(0) += 1;
            }
            let profile = topic_counts
                .into_iter()
                .filter(|&(_, n)| n >= min_sites)
                .map(|(t, _)| t)
                .collect();
            (user, profile)
        })
        .collect()
}

/// Runs the Figure 4 evaluation over per-pair verdicts.
///
/// `verdicts` are `(user, simulator_ad_id, verdict)` triples (pairs with
/// `InsufficientData` are ignored, as in the paper's methodology which
/// only evaluates classified ads). `crawler_seen` is the CR dataset.
pub fn evaluate_tree(
    scenario: &Scenario,
    log: &ImpressionLog,
    verdicts: &[(u32, u64, Verdict)],
    crawler_seen: &BTreeSet<u64>,
    oracles: EvalOracles,
) -> EvalTree {
    let mut rng = StdRng::seed_from_u64(oracles.seed);
    let profiles = cb_profiles(scenario, log, oracles.cb_min_sites);
    let empty_profile = BTreeSet::new();

    let mut tree = EvalTree::default();

    for &(user, sim_ad, verdict) in verdicts {
        let truth = scenario.campaigns[sim_ad as usize].class();
        let content_topic = scenario.campaigns[sim_ad as usize].ad.content_topic;
        let profile = profiles.get(&user).unwrap_or(&empty_profile);
        let overlap = profile.contains(&content_topic);

        // Stochastic oracles, drawn once per pair.
        let f8_labeled = rng.gen::<f64>() < oracles.f8_label_prob;
        let f8_correct = rng.gen::<f64>() < oracles.f8_accuracy;
        let f8_says_targeted = if f8_correct {
            truth == AdClass::Targeted
        } else {
            truth != AdClass::Targeted
        };
        let manual_correct = rng.gen::<f64>() < oracles.manual_accuracy;
        let manual_says_targeted = if manual_correct {
            truth == AdClass::Targeted
        } else {
            truth != AdClass::Targeted
        };

        match verdict {
            Verdict::InsufficientData => continue,
            Verdict::Targeted => {
                tree.classified_targeted += 1;
                if crawler_seen.contains(&sim_ad) {
                    tree.fp_cr += 1;
                } else if overlap {
                    // CB checks semantic overlap the same way, so it
                    // agrees by construction (§7.3.2 footnote 9).
                    tree.tp_cb += 1;
                } else if f8_labeled {
                    if f8_says_targeted {
                        tree.tp_f8 += 1;
                    } else {
                        tree.fp_f8 += 1;
                    }
                } else {
                    tree.unknown_targeted += 1;
                    // §7.3.3 resolution: re-visit landing page, test
                    // retargeting repeatability / topic correlation.
                    if manual_says_targeted {
                        tree.likely_tp_resolved += 1;
                    } else {
                        tree.likely_fp_resolved += 1;
                    }
                }
            }
            Verdict::NonTargeted => {
                tree.classified_nontargeted += 1;
                if crawler_seen.contains(&sim_ad) {
                    tree.tn_cr += 1;
                } else if overlap {
                    tree.fn_cb += 1;
                } else if f8_labeled {
                    if f8_says_targeted {
                        tree.fn_f8 += 1;
                    } else {
                        tree.tn_f8 += 1;
                    }
                } else {
                    tree.unknown_nontargeted += 1;
                    if manual_says_targeted {
                        tree.likely_fn_resolved += 1;
                    } else {
                        tree.likely_tn_resolved += 1;
                    }
                }
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::Crawler;
    use crate::pipeline::run_cleartext_pipeline;
    use ew_core::DetectorConfig;
    use ew_simnet::ScenarioConfig;

    type SetupWorld = (
        Scenario,
        ImpressionLog,
        Vec<(u32, u64, Verdict)>,
        BTreeSet<u64>,
    );

    fn setup() -> SetupWorld {
        let scenario = Scenario::build(ScenarioConfig::small(33));
        let log = scenario.run_week(0);
        let result = run_cleartext_pipeline(&log, DetectorConfig::default());
        let mut crawler = Crawler::new(1);
        let sites: Vec<u32> = (0..scenario.sites.len() as u32).collect();
        crawler.crawl_sites(&scenario, &sites, 5);
        let crawled = crawler.dataset().clone();
        (scenario, log, result.verdicts, crawled)
    }

    #[test]
    fn tree_partitions_all_classified_pairs() {
        let (scenario, log, verdicts, crawled) = setup();
        let tree = evaluate_tree(&scenario, &log, &verdicts, &crawled, EvalOracles::default());
        let classified = verdicts
            .iter()
            .filter(|(_, _, v)| *v != Verdict::InsufficientData)
            .count();
        assert_eq!(tree.total(), classified);
        // Leaves of the targeted branch sum to the branch count.
        assert_eq!(
            tree.fp_cr + tree.tp_cb + tree.tp_f8 + tree.fp_f8 + tree.unknown_targeted,
            tree.classified_targeted
        );
        assert_eq!(
            tree.tn_cr + tree.fn_cb + tree.tn_f8 + tree.fn_f8 + tree.unknown_nontargeted,
            tree.classified_nontargeted
        );
        // Resolutions partition the unknowns.
        assert_eq!(
            tree.likely_tp_resolved + tree.likely_fp_resolved,
            tree.unknown_targeted
        );
        assert_eq!(
            tree.likely_tn_resolved + tree.likely_fn_resolved,
            tree.unknown_nontargeted
        );
    }

    #[test]
    fn rates_in_paper_ballpark() {
        let (scenario, log, verdicts, crawled) = setup();
        let tree = evaluate_tree(&scenario, &log, &verdicts, &crawled, EvalOracles::default());
        // Shape targets: high TN rate, decent TP rate (paper: 87% / 78%).
        assert!(tree.tn_rate() > 0.6, "TN rate {:.2}", tree.tn_rate());
        if tree.classified_targeted > 20 {
            assert!(tree.tp_rate() > 0.5, "TP rate {:.2}", tree.tp_rate());
        }
    }

    #[test]
    fn oracles_are_reproducible() {
        let (scenario, log, verdicts, crawled) = setup();
        let a = evaluate_tree(&scenario, &log, &verdicts, &crawled, EvalOracles::default());
        let b = evaluate_tree(&scenario, &log, &verdicts, &crawled, EvalOracles::default());
        assert_eq!(a.tp_cb, b.tp_cb);
        assert_eq!(a.unknown_targeted, b.unknown_targeted);
    }

    #[test]
    fn cb_profiles_reflect_browsing() {
        let (scenario, log, _, _) = setup();
        let profiles = cb_profiles(&scenario, &log, 1);
        // With min_sites = 1 every user has a non-empty profile.
        for (user, profile) in &profiles {
            assert!(!profile.is_empty(), "user {user} has no profile");
        }
        // Raising the bar shrinks profiles.
        let strict = cb_profiles(&scenario, &log, 10);
        let total_loose: usize = profiles.values().map(|p| p.len()).sum();
        let total_strict: usize = strict.values().map(|p| p.len()).sum();
        assert!(total_strict <= total_loose);
    }
}
