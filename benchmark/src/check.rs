//! The correctness gate: reference outputs and the tally of what was
//! checked. All of this is harness work and runs outside timed regions.

use ew_core::{AdKey, GlobalView, ThresholdPolicy};
use ew_sketch::{CmsParams, CountMinSketch};
use ew_system::node::DrivenRound;
use ew_system::AdIdMapper;
use std::collections::{BTreeSet, HashMap};

/// Operations whose output was compared with a reference, and how many
/// did not match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Share of checked operations that matched.
    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Reference views of a cohort's rounds: the clear-text count-min sketch
/// of the ad sets of the clients that reported, queried over the whole
/// ad-ID space — `pipeline::cms_global_view` over protocol ad IDs. No
/// blinding, bus, cluster or journal is involved, so a round whose view
/// equals the reference got all of those right.
#[derive(Debug)]
pub struct References {
    params: CmsParams,
    mapper: AdIdMapper,
    policy: ThresholdPolicy,
    seen: Vec<BTreeSet<AdKey>>,
    cache: HashMap<Vec<u32>, GlobalView>,
}

impl References {
    /// `seen[id]` is the ad set client `id` reports.
    pub fn new(
        params: CmsParams,
        mapper: AdIdMapper,
        policy: ThresholdPolicy,
        seen: Vec<BTreeSet<AdKey>>,
    ) -> Self {
        References {
            params,
            mapper,
            policy,
            seen,
            cache: HashMap::new(),
        }
    }

    /// The view a round over exactly `reporting` must finalize to.
    pub fn view(&mut self, reporting: &[u32]) -> &GlobalView {
        let (params, mapper, policy, seen) = (self.params, self.mapper, self.policy, &self.seen);
        self.cache.entry(reporting.to_vec()).or_insert_with(|| {
            let mut sketch = CountMinSketch::new(params);
            for &user in reporting {
                for &ad in &seen[user as usize] {
                    sketch.update(ad);
                }
            }
            GlobalView::from_estimates(
                mapper.all_ids().map(|ad| (ad, sketch.query(ad) as f64)),
                policy,
            )
        })
    }

    /// Checks one finalized round over `roster`: every member either
    /// reported or was declared missing, and the view is the reference
    /// over those that reported.
    pub fn check_round(&mut self, roster: &[u32], round: &DrivenRound, tally: &mut Tally) {
        self.check_parts(roster, round.reports, &round.missing, &round.view, tally);
    }

    /// [`Self::check_round`] on the fields `DrivenRound` and the system's
    /// `RoundOutcome` share.
    pub fn check_parts(
        &mut self,
        roster: &[u32],
        reports: usize,
        missing: &[u32],
        view: &GlobalView,
        tally: &mut Tally,
    ) {
        let reporting: Vec<u32> = roster
            .iter()
            .copied()
            .filter(|u| !missing.contains(u))
            .collect();
        let ok = reports + missing.len() == roster.len()
            && reports == reporting.len()
            && view == self.view(&reporting);
        tally.check(ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_shares() {
        let mut t = Tally::default();
        assert_eq!(t.ok_share(), 0.0);
        for ok in [true, false, true, true] {
            t.check(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.ok_share(), 0.75);
    }

    #[test]
    fn reference_depends_on_who_reported_and_is_cached() {
        let params = CmsParams::new(3, 64, 9);
        let seen = vec![
            BTreeSet::from([1u64, 2]),
            BTreeSet::from([2u64, 3]),
            BTreeSet::from([3u64]),
        ];
        let mut refs = References::new(params, AdIdMapper::new(256), ThresholdPolicy::Mean, seen);
        let all = refs.view(&[0, 1, 2]).clone();
        assert!(all.users(2) >= 2.0 && all.users(3) >= 2.0 && all.users(1) >= 1.0);
        let two = refs.view(&[0, 1]).clone();
        assert!(two.users(3) < all.users(3));
        assert_ne!(all, two);
        assert_eq!(*refs.view(&[0, 1, 2]), all);
        assert_eq!(refs.cache.len(), 2);
    }

    #[test]
    fn round_check_fails_on_lost_reports_and_wrong_views() {
        let params = CmsParams::new(3, 64, 9);
        let seen = vec![BTreeSet::from([1u64]), BTreeSet::from([2u64])];
        let mut refs = References::new(params, AdIdMapper::new(64), ThresholdPolicy::Mean, seen);
        let good = DrivenRound {
            round: 1,
            view: refs.view(&[0]).clone(),
            reports: 1,
            missing: vec![1],
            corrupt_frames: 0,
        };
        let mut tally = Tally::default();
        refs.check_round(&[0, 1], &good, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        // A report neither counted nor declared missing.
        let lost = DrivenRound {
            missing: vec![],
            ..good.clone()
        };
        refs.check_round(&[0, 1], &lost, &mut tally);
        // The view of a different reporting set.
        let wrong = DrivenRound {
            view: refs.view(&[0, 1]).clone(),
            ..good
        };
        refs.check_round(&[0, 1], &wrong, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
