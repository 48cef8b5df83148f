//! Per-user local counting: `#Domains(u, α)` and the user's own
//! threshold `Domains_th(u)` — "dependent on user u and, thus, can be
//! computed locally" (§4.1). This is the state a browser extension keeps.

use crate::threshold::ThresholdPolicy;
use crate::{AdKey, DomainKey};
use std::collections::{HashMap, HashSet};

/// One user's local observation state for the current window.
#[derive(Debug, Clone, Default)]
pub struct UserCounters {
    /// Per ad: the set of distinct domains where the user saw it.
    domains_per_ad: HashMap<AdKey, HashSet<DomainKey>>,
    /// All distinct ad-serving domains seen (the §4.2 activity gate).
    all_domains: HashSet<DomainKey>,
    /// Total impressions observed (diagnostics only).
    impressions: u64,
}

impl UserCounters {
    /// Fresh (empty) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one impression of `ad` on `domain`.
    pub fn observe(&mut self, ad: AdKey, domain: DomainKey) {
        self.domains_per_ad.entry(ad).or_default().insert(domain);
        self.all_domains.insert(domain);
        self.impressions += 1;
    }

    /// `#Domains(u, α)`: distinct domains where this user saw `ad`.
    pub fn domain_count(&self, ad: AdKey) -> usize {
        self.domains_per_ad.get(&ad).map_or(0, |s| s.len())
    }

    /// Number of distinct ads observed.
    pub fn distinct_ads(&self) -> usize {
        self.domains_per_ad.len()
    }

    /// Number of distinct ad-serving domains visited.
    pub fn distinct_domains(&self) -> usize {
        self.all_domains.len()
    }

    /// Total impressions recorded.
    pub fn impressions(&self) -> u64 {
        self.impressions
    }

    /// Iterates over the ads this user has seen.
    pub fn ads(&self) -> impl Iterator<Item = AdKey> + '_ {
        self.domains_per_ad.keys().copied()
    }

    /// The per-user `#Domains(u, ·)` distribution (one sample per ad).
    pub fn domain_distribution(&self) -> Vec<f64> {
        self.domain_counts().collect()
    }

    /// `#Domains(u, a)` for every ad `a` seen, in the map's order.
    fn domain_counts(&self) -> impl ExactSizeIterator<Item = f64> + Clone + '_ {
        self.domains_per_ad.values().map(|s| s.len() as f64)
    }

    /// `Domains_th(u)` under `policy` — recomputable in real time inside
    /// the user's browser as new ads arrive. Every audit calls this, so
    /// the counts are read in place: same order and sums as over
    /// [`Self::domain_distribution`], without building it.
    pub fn domains_threshold(&self, policy: ThresholdPolicy) -> f64 {
        policy.compute_over(self.domain_counts())
    }

    /// Clears state (new weekly window).
    pub fn reset(&mut self) {
        self.domains_per_ad.clear();
        self.all_domains.clear();
        self.impressions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_distinct_domains_per_ad() {
        let mut c = UserCounters::new();
        c.observe(1, 10);
        c.observe(1, 11);
        c.observe(1, 10); // duplicate domain
        c.observe(2, 10);
        assert_eq!(c.domain_count(1), 2);
        assert_eq!(c.domain_count(2), 1);
        assert_eq!(c.domain_count(3), 0);
        assert_eq!(c.distinct_ads(), 2);
        assert_eq!(c.distinct_domains(), 2);
        assert_eq!(c.impressions(), 4);
    }

    #[test]
    fn threshold_over_own_ads() {
        let mut c = UserCounters::new();
        // Ad 1 on 4 domains, ads 2..5 on 1 domain each.
        for d in 0..4 {
            c.observe(1, d);
        }
        for ad in 2..=5 {
            c.observe(ad, 100 + ad);
        }
        // Distribution: [4, 1, 1, 1, 1] — mean 1.6, median 1.
        assert!((c.domains_threshold(ThresholdPolicy::Mean) - 1.6).abs() < 1e-12);
        assert!((c.domains_threshold(ThresholdPolicy::MeanPlusMedian) - 2.6).abs() < 1e-12);
        // Ad 1 crosses the Mean threshold, the singletons don't.
        assert!(c.domain_count(1) as f64 > 1.6);
        assert!((c.domain_count(2) as f64) < 1.6);
    }

    #[test]
    fn empty_user_threshold_zero() {
        let c = UserCounters::new();
        assert_eq!(c.domains_threshold(ThresholdPolicy::Mean), 0.0);
        assert_eq!(c.distinct_domains(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = UserCounters::new();
        c.observe(1, 1);
        c.reset();
        assert_eq!(c.distinct_ads(), 0);
        assert_eq!(c.impressions(), 0);
    }

    #[test]
    fn ads_iterator_covers_all() {
        let mut c = UserCounters::new();
        c.observe(5, 1);
        c.observe(9, 1);
        let mut ads: Vec<AdKey> = c.ads().collect();
        ads.sort_unstable();
        assert_eq!(ads, vec![5, 9]);
    }
}
