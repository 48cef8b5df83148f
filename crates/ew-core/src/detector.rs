//! The classifier: the few lines of logic the paper's browser extension
//! runs when a user audits an ad, plus the minimum-activity gate.

use crate::counters::UserCounters;
use crate::global::GlobalView;
use crate::threshold::ThresholdPolicy;
use crate::AdKey;

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Threshold policy applied to both distributions (§4.2: Mean).
    pub policy: ThresholdPolicy,
    /// Minimum distinct ad-serving domains in the window before any
    /// verdict is issued (§4.2: 4, following Silverman's density rule
    /// of thumb as in \[51\]).
    pub min_active_domains: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            policy: ThresholdPolicy::Mean,
            min_active_domains: 4,
        }
    }
}

/// The outcome of auditing one ad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Both conditions hold: the ad is following this user *and* few
    /// users see it.
    Targeted,
    /// At least one condition fails.
    NonTargeted,
    /// The user has not visited enough ad-serving domains this window;
    /// "our algorithm refrains from making a guess" (§4.2).
    InsufficientData,
}

/// The count-based detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Detector {
    config: DetectorConfig,
}

impl Detector {
    /// Detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Classifies ad `ad` for the user whose local state is `user`,
    /// given the backend's global view.
    ///
    /// This is the complete §4.1 algorithm:
    /// `Targeted ⇔ #Domains(u,α) > Domains_th(u) ∧ #Users(α) < Users_th`.
    pub fn classify(&self, user: &UserCounters, ad: AdKey, global: &GlobalView) -> Verdict {
        self.classify_estimate(user, ad, || global.users(ad), global.users_threshold())
    }

    /// [`Self::classify`] with the backend's half given as numbers:
    /// `users` yields the `#Users(α)` estimate (a `UsersReply` off the
    /// wire, or a view lookup) and is called once, past the activity
    /// gate; `users_th` is the broadcast `Users_th`.
    pub fn classify_estimate(
        &self,
        user: &UserCounters,
        ad: AdKey,
        users: impl FnOnce() -> f64,
        users_th: f64,
    ) -> Verdict {
        if user.distinct_domains() < self.config.min_active_domains {
            return Verdict::InsufficientData;
        }
        let domains = user.domain_count(ad) as f64;
        let domains_th = user.domains_threshold(self.config.policy);
        let users = users();

        if domains > domains_th && users < users_th {
            Verdict::Targeted
        } else {
            Verdict::NonTargeted
        }
    }

    /// Classifies every ad the user has seen, returning
    /// `(ad, verdict)` pairs sorted by ad.
    pub fn classify_all(&self, user: &UserCounters, global: &GlobalView) -> Vec<(AdKey, Verdict)> {
        let mut ads: Vec<AdKey> = user.ads().collect();
        ads.sort_unstable();
        ads.into_iter()
            .map(|ad| (ad, self.classify(user, ad, global)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A user who saw ad 1 on 5 domains and ads 2..=9 once each,
    /// so Domains_th(Mean) = (5 + 8) / 9 ≈ 1.44.
    fn chased_user() -> UserCounters {
        let mut u = UserCounters::new();
        for d in 0..5 {
            u.observe(1, d);
        }
        for ad in 2..=9 {
            u.observe(ad, 100 + ad);
        }
        u
    }

    /// Global view where ad 1 is niche (2 users) and others popular.
    fn global() -> GlobalView {
        let mut est: Vec<(AdKey, f64)> = vec![(1, 2.0)];
        for ad in 2..=9 {
            est.push((ad, 10.0));
        }
        GlobalView::from_estimates(est, ThresholdPolicy::Mean)
    }

    #[test]
    fn detects_chasing_niche_ad() {
        let det = Detector::default();
        assert_eq!(
            det.classify(&chased_user(), 1, &global()),
            Verdict::Targeted
        );
    }

    #[test]
    fn single_domain_ads_not_targeted() {
        let det = Detector::default();
        for ad in 2..=9 {
            assert_eq!(
                det.classify(&chased_user(), ad, &global()),
                Verdict::NonTargeted,
                "ad {ad}"
            );
        }
    }

    #[test]
    fn popular_ad_rejected_even_if_chasing() {
        // Same domain pattern, but the chased ad is seen by many users:
        // the #Users condition must veto it (the brand-campaign case).
        let mut est: Vec<(AdKey, f64)> = vec![(1, 50.0)];
        for ad in 2..=9 {
            est.push((ad, 3.0));
        }
        let g = GlobalView::from_estimates(est, ThresholdPolicy::Mean);
        let det = Detector::default();
        assert_eq!(det.classify(&chased_user(), 1, &g), Verdict::NonTargeted);
    }

    #[test]
    fn activity_gate() {
        // User with only 3 distinct domains: no verdict.
        let mut u = UserCounters::new();
        u.observe(1, 1);
        u.observe(1, 2);
        u.observe(2, 3);
        let det = Detector::default();
        assert_eq!(det.classify(&u, 1, &global()), Verdict::InsufficientData);
        // A fourth domain unlocks classification.
        u.observe(3, 4);
        assert_ne!(det.classify(&u, 1, &global()), Verdict::InsufficientData);
    }

    #[test]
    fn unseen_ad_never_targeted() {
        // #Domains = 0 can't exceed any non-negative threshold.
        let det = Detector::default();
        assert_eq!(
            det.classify(&chased_user(), 999, &global()),
            Verdict::NonTargeted
        );
    }

    #[test]
    fn classify_all_covers_every_ad() {
        let det = Detector::default();
        let verdicts = det.classify_all(&chased_user(), &global());
        let ads: Vec<AdKey> = verdicts.iter().map(|&(ad, _)| ad).collect();
        assert_eq!(ads, (1..=9).collect::<Vec<AdKey>>(), "sorted by ad");
        assert_eq!(verdicts[0], (1, Verdict::Targeted));
    }

    #[test]
    fn stricter_policy_flips_borderline_ad() {
        // Under Mean the chased ad passes; under Mean+Std with a fatter
        // threshold it may not. Construct a borderline case.
        let mut u = UserCounters::new();
        for d in 0..2 {
            u.observe(1, d); // 2 domains
        }
        for ad in 2..=5 {
            u.observe(ad, 10 + ad);
        }
        // Distribution [2,1,1,1,1]: mean = 1.2 (2 > 1.2: pass);
        // mean+median = 2.2 (2 < 2.2: fail).
        let g = global();
        let mean_det = Detector::new(DetectorConfig {
            policy: ThresholdPolicy::Mean,
            min_active_domains: 4,
        });
        let strict_det = Detector::new(DetectorConfig {
            policy: ThresholdPolicy::MeanPlusMedian,
            min_active_domains: 4,
        });
        assert_eq!(mean_det.classify(&u, 1, &g), Verdict::Targeted);
        // Note: the global threshold also changes policy; rebuild it.
        let g_strict = GlobalView::from_estimates(
            vec![(1, 2.0), (2, 10.0), (3, 10.0), (4, 10.0), (5, 10.0)],
            ThresholdPolicy::MeanPlusMedian,
        );
        assert_eq!(strict_det.classify(&u, 1, &g_strict), Verdict::NonTargeted);
    }
}
