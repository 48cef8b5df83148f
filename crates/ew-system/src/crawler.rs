//! The crawler server (§5): a clean-profile probe. "The crawler server
//! visits audited pages to collect ads with a clear browsing profile
//! (empty browser cache and an empty set of cookies). These ads are then
//! used for deciding whether eyeWnder has indeed classified accurately
//! an ad as targeted (in which case the crawler should not encounter
//! it)."
//!
//! Against the simulator, a clean profile means: no interest segments,
//! no retargeting triggers — so delivery only ever serves the site's
//! static/contextual pool. That is exactly the paper's premise: anything
//! the crawler sees is non-targeted with high probability.

use ew_simnet::web::SiteId;
use ew_simnet::Scenario;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The crawler and its collected dataset ("CR dataset", §7.3.1).
#[derive(Debug)]
pub struct Crawler {
    rng: StdRng,
    /// Ads observed across all crawls (simulator ad ids).
    seen: BTreeSet<u64>,
    visits: u64,
    /// Probability per slot that *remnant delivery* serves a targeted
    /// campaign's creative even to a clean profile. Real campaigns mix
    /// behavioural with geo/daypart targeting, so a crawler does
    /// occasionally encounter "targeted" creatives — the reason the
    /// paper treats crawler evidence as FP *with high probability*
    /// rather than with certainty. 0 by default.
    pub remnant_prob: f64,
}

impl Crawler {
    /// New crawler with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        Crawler {
            rng: StdRng::seed_from_u64(seed),
            seen: BTreeSet::new(),
            visits: 0,
            remnant_prob: 0.0,
        }
    }

    /// Crawler with remnant delivery enabled (see [`Self::remnant_prob`]).
    pub fn with_remnant(seed: u64, remnant_prob: f64) -> Self {
        let mut c = Self::new(seed);
        c.remnant_prob = remnant_prob;
        c
    }

    /// Crawls one site once with a clean profile: renders
    /// `slots_per_visit` slots, all filled from the site's pool.
    fn crawl_site(&mut self, scenario: &Scenario, site: SiteId) {
        self.visits += 1;
        let website = &scenario.sites[site as usize];
        let num_targeted = scenario.config.num_targeted_campaigns();
        for _ in 0..scenario.config.slots_per_visit {
            if num_targeted > 0 && self.rng.gen::<f64>() < self.remnant_prob {
                // Remnant delivery of a (nominally targeted) campaign.
                let cid = self.rng.gen_range(0..num_targeted);
                self.seen.insert(scenario.campaigns[cid].ad.id);
            } else if let Some(&cid) = website.ad_pool.as_slice().choose(&mut self.rng) {
                self.seen.insert(scenario.campaigns[cid].ad.id);
            }
        }
    }

    /// Crawls every given site `repeats` times (the paper's crawler
    /// re-visits audited pages throughout the study window).
    pub fn crawl_sites(&mut self, scenario: &Scenario, sites: &[SiteId], repeats: usize) {
        for _ in 0..repeats {
            for &site in sites {
                self.crawl_site(scenario, site);
            }
        }
    }

    /// The CR dataset: simulator ad ids the crawler encountered.
    pub fn dataset(&self) -> &BTreeSet<u64> {
        &self.seen
    }

    /// Whether the crawler saw a given ad.
    pub fn saw(&self, ad: u64) -> bool {
        self.seen.contains(&ad)
    }

    /// Total site visits performed.
    pub fn visits(&self) -> u64 {
        self.visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_simnet::{AdClass, ScenarioConfig};

    #[test]
    fn crawler_never_sees_targeted_ads() {
        let scenario = Scenario::build(ScenarioConfig::small(77));
        let mut crawler = Crawler::new(1);
        let sites: Vec<SiteId> = (0..scenario.sites.len() as u32).collect();
        crawler.crawl_sites(&scenario, &sites, 3);
        assert!(!crawler.dataset().is_empty());
        for &ad in crawler.dataset() {
            assert_eq!(
                scenario.campaigns[ad as usize].class(),
                AdClass::NonTargeted,
                "clean-profile crawler saw targeted ad {ad}"
            );
        }
    }

    #[test]
    fn repeats_increase_coverage() {
        let scenario = Scenario::build(ScenarioConfig::small(78));
        let sites: Vec<SiteId> = (0..scenario.sites.len() as u32).collect();
        let mut once = Crawler::new(2);
        once.crawl_sites(&scenario, &sites, 1);
        let mut many = Crawler::new(2);
        many.crawl_sites(&scenario, &sites, 10);
        assert!(many.dataset().len() >= once.dataset().len());
        assert_eq!(many.visits(), 10 * sites.len() as u64);
    }

    #[test]
    fn saw_lookup() {
        let scenario = Scenario::build(ScenarioConfig::small(79));
        let mut crawler = Crawler::new(3);
        crawler.crawl_site(&scenario, 0);
        for &ad in crawler.dataset() {
            assert!(crawler.saw(ad));
        }
        assert!(!crawler.saw(u64::MAX));
    }
}
