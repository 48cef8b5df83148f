//! The impression log: the simulator's output and the detection
//! pipeline's input.

use crate::campaign::{AdClass, AdId};
use crate::web::SiteId;
use std::collections::{BTreeMap, BTreeSet};

/// One rendered ad impression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Impression {
    /// The user who saw the ad.
    pub user: u32,
    /// Day of the week, `0..7`.
    pub day: u8,
    /// The publisher site where the ad appeared.
    pub site: SiteId,
    /// The ad creative.
    pub ad: AdId,
    /// Hidden ground truth (the detector must never read this; the
    /// evaluation compares against it afterwards).
    pub truth: AdClass,
}

/// A week's worth of impressions plus index structures.
#[derive(Debug, Clone, Default)]
pub struct ImpressionLog {
    records: Vec<Impression>,
}

impl ImpressionLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one impression.
    pub fn push(&mut self, imp: Impression) {
        self.records.push(imp);
    }

    /// All impressions, in delivery order.
    pub fn records(&self) -> &[Impression] {
        &self.records
    }

    /// Number of impressions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no impressions were logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct ads in the log.
    pub fn distinct_ads(&self) -> BTreeSet<AdId> {
        self.records.iter().map(|r| r.ad).collect()
    }

    /// Distinct users in the log.
    pub fn distinct_users(&self) -> BTreeSet<u32> {
        self.records.iter().map(|r| r.user).collect()
    }

    /// `#Users(α)` ground truth: distinct users per ad.
    pub fn users_per_ad(&self) -> BTreeMap<AdId, usize> {
        let mut sets: BTreeMap<AdId, BTreeSet<u32>> = BTreeMap::new();
        for r in &self.records {
            sets.entry(r.ad).or_default().insert(r.user);
        }
        sets.into_iter().map(|(ad, s)| (ad, s.len())).collect()
    }

    /// `#Domains(u, α)` ground truth: distinct sites per (user, ad).
    pub fn domains_per_user_ad(&self) -> BTreeMap<(u32, AdId), usize> {
        let mut sets: BTreeMap<(u32, AdId), BTreeSet<SiteId>> = BTreeMap::new();
        for r in &self.records {
            sets.entry((r.user, r.ad)).or_default().insert(r.site);
        }
        sets.into_iter().map(|(k, s)| (k, s.len())).collect()
    }

    /// Distinct ad-serving domains a user encountered (the ≥4-domain
    /// minimum-activity gate of §4.2). Tests read the log's indexes
    /// through it.
    #[cfg(test)]
    fn domains_per_user(&self) -> BTreeMap<u32, usize> {
        let mut sets: BTreeMap<u32, BTreeSet<SiteId>> = BTreeMap::new();
        for r in &self.records {
            sets.entry(r.user).or_default().insert(r.site);
        }
        sets.into_iter().map(|(u, s)| (u, s.len())).collect()
    }

    /// Ground-truth class of each ad.
    pub fn truth_by_ad(&self) -> BTreeMap<AdId, AdClass> {
        self.records.iter().map(|r| (r.ad, r.truth)).collect()
    }

    /// Impressions of one user, in order.
    pub fn for_user(&self, user: u32) -> impl Iterator<Item = &Impression> {
        self.records.iter().filter(move |r| r.user == user)
    }

    /// Merges another log (e.g. multiple weeks).
    pub fn merge(&mut self, other: &ImpressionLog) {
        self.records.extend_from_slice(&other.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imp(user: u32, site: SiteId, ad: AdId, truth: AdClass) -> Impression {
        Impression {
            user,
            day: 0,
            site,
            ad,
            truth,
        }
    }

    fn sample() -> ImpressionLog {
        let mut log = ImpressionLog::new();
        // user 1 sees ad 10 on 3 sites; user 2 sees it once.
        log.push(imp(1, 100, 10, AdClass::Targeted));
        log.push(imp(1, 101, 10, AdClass::Targeted));
        log.push(imp(1, 102, 10, AdClass::Targeted));
        log.push(imp(1, 100, 10, AdClass::Targeted)); // repeat site
        log.push(imp(2, 100, 10, AdClass::Targeted));
        // ad 20 static, seen by both users on one site each.
        log.push(imp(1, 100, 20, AdClass::NonTargeted));
        log.push(imp(2, 105, 20, AdClass::NonTargeted));
        log
    }

    #[test]
    fn counting_indexes() {
        let log = sample();
        assert_eq!(log.len(), 7);
        assert_eq!(log.distinct_ads().len(), 2);
        assert_eq!(log.users_per_ad()[&10], 2);
        assert_eq!(log.users_per_ad()[&20], 2);
        assert_eq!(log.domains_per_user_ad()[&(1, 10)], 3);
        assert_eq!(log.domains_per_user_ad()[&(2, 10)], 1);
        assert_eq!(log.domains_per_user()[&1], 3);
        assert_eq!(log.domains_per_user()[&2], 2);
    }

    #[test]
    fn truth_index() {
        let log = sample();
        let truth = log.truth_by_ad();
        assert_eq!(truth[&10], AdClass::Targeted);
        assert_eq!(truth[&20], AdClass::NonTargeted);
    }

    #[test]
    fn per_user_view() {
        let log = sample();
        assert_eq!(log.for_user(2).count(), 2);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.len(), 14);
    }
}
