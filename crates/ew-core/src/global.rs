//! The backend's global view: `#Users(α)` estimates and the `Users_th`
//! threshold, computed from the (unblinded) aggregate — "computing the
//! number of different users that have seen α, as well as the Users_th
//! threshold, requires a global view of the system" (§4.1).

use crate::threshold::ThresholdPolicy;
use crate::AdKey;

/// Global per-ad user-count estimates for one window.
///
/// In the deployed system the estimates come from querying the aggregate
/// count-min sketch for every enumerable ad ID; in cleartext evaluation
/// they are exact. Either way the type is the same — the detector does
/// not care where the numbers came from (that is the point of the
/// "black box" design).
///
/// Two views are equal when they hold the same estimates, threshold and
/// policy; the order the estimates were supplied in never shows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalView {
    /// The positive estimates, strictly ascending by ad.
    estimates: Vec<(AdKey, f64)>,
    /// Bucket `b` — the ads with `(ad − first ad) >> bucket_shift == b` —
    /// is `estimates[bucket_starts[b]..bucket_starts[b + 1]]`. About one
    /// bucket per ad, so a real-time audit's `#Users(α)` lookup searches
    /// a handful of entries when ads are spread over the ID space (PRF
    /// outputs are) and never more than a binary search when they are
    /// not.
    bucket_starts: Vec<u32>,
    bucket_shift: u32,
    threshold: f64,
    policy: ThresholdPolicy,
}

impl GlobalView {
    /// Builds the view from per-ad user-count estimates and computes
    /// `Users_th` under `policy`. An ad supplied more than once keeps
    /// its last estimate; input already ascending by ad (the server's
    /// sweep) is taken as it comes, anything else is sorted first.
    ///
    /// Only strictly positive estimates participate in the threshold:
    /// the server enumerates the whole (over-estimated) ad-ID space
    /// `[1, |A|]`, and IDs that decode to zero are vacant slots, not ads.
    /// The threshold's sums run in ad order, so it does not depend on
    /// the order of `estimates` either.
    pub fn from_estimates<I>(estimates: I, policy: ThresholdPolicy) -> Self
    where
        I: IntoIterator<Item = (AdKey, f64)>,
    {
        let mut estimates: Vec<(AdKey, f64)> =
            estimates.into_iter().filter(|(_, c)| *c > 0.0).collect();
        if !estimates.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            // Stable, so an ad's estimates stay in supply order and the
            // last one can overwrite the entry that is kept.
            estimates.sort_by_key(|&(ad, _)| ad);
            estimates.dedup_by(|later, kept| {
                let same_ad = later.0 == kept.0;
                if same_ad {
                    *kept = *later;
                }
                same_ad
            });
        }
        let threshold = policy.compute_over(estimates.iter().map(|&(_, c)| c));
        let (bucket_shift, bucket_starts) = bucket_index(&estimates);
        GlobalView {
            estimates,
            bucket_starts,
            bucket_shift,
            threshold,
            policy,
        }
    }

    /// `#Users(α)` estimate (0 when the ad was never reported).
    pub fn users(&self, ad: AdKey) -> f64 {
        self.estimate_of(ad).unwrap_or(0.0)
    }

    /// The stored estimate for `ad`, searched for in its bucket only.
    fn estimate_of(&self, ad: AdKey) -> Option<f64> {
        let offset = ad.checked_sub(self.estimates.first()?.0)?;
        let bucket = (offset >> self.bucket_shift) as usize;
        let &[start, end, ..] = self.bucket_starts.get(bucket..)? else {
            return None;
        };
        let bucket = &self.estimates[start as usize..end as usize];
        let at = bucket.binary_search_by_key(&ad, |&(key, _)| key).ok()?;
        Some(bucket[at].1)
    }

    /// The global `Users_th` threshold.
    pub fn users_threshold(&self) -> f64 {
        self.threshold
    }

    /// The policy that produced the threshold.
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// Number of (positively counted) ads in the view.
    pub fn num_ads(&self) -> usize {
        self.estimates.len()
    }

    /// The raw distribution (for Figure 2 style plots), in ad order.
    pub fn distribution(&self) -> Vec<f64> {
        self.estimates.iter().map(|&(_, c)| c).collect()
    }

    /// Every positive `(ad, estimate)` pair, ascending by ad key — the
    /// view's own storage, which is what the parallel-round determinism
    /// tests compare entry for entry.
    pub fn sorted_estimates(&self) -> &[(AdKey, f64)] {
        &self.estimates
    }
}

/// The bucket index over ascending `estimates` (the `bucket_shift` and
/// `bucket_starts` of [`GlobalView`]): the shift, and each bucket's
/// start with the total appended.
fn bucket_index(estimates: &[(AdKey, f64)]) -> (u32, Vec<u32>) {
    let (Some(&(first, _)), Some(&(last, _))) = (estimates.first(), estimates.last()) else {
        return (0, Vec::new());
    };
    assert!(estimates.len() <= u32::MAX as usize, "view too large");
    // The smallest shift that leaves at most `len` (rounded up to a
    // power of two) buckets between the first ad and the last.
    let span_bits = u64::BITS - (last - first).leading_zeros();
    let shift = span_bits.saturating_sub(estimates.len().next_power_of_two().trailing_zeros());
    let bucket_of = |ad: AdKey| ((ad - first) >> shift) as usize;
    let mut starts = vec![0u32; bucket_of(last) + 2];
    for &(ad, _) in estimates {
        starts[bucket_of(ad) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    (shift, starts)
}

/// Per-group global views — the paper's §7.2.3 improvement suggestion:
/// *"False positives can be further reduced by grouping users in more
/// homogeneous groups in terms of browsing patterns (e.g.,
/// geographically or based on age group, etc.)."*
///
/// Each group gets its own `#Users(α)` distribution and `Users_th`,
/// computed over that group's members only; a user's audits consult
/// their group's view. The `ew-bench` segmentation ablation quantifies
/// the FP/FN effect.
#[derive(Debug, Clone)]
pub struct SegmentedGlobalView {
    views: Vec<GlobalView>,
}

impl SegmentedGlobalView {
    /// Builds one view per group from per-group estimates.
    pub fn from_group_estimates<I>(groups: Vec<I>, policy: ThresholdPolicy) -> Self
    where
        I: IntoIterator<Item = (AdKey, f64)>,
    {
        SegmentedGlobalView {
            views: groups
                .into_iter()
                .map(|g| GlobalView::from_estimates(g, policy))
                .collect(),
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.views.len()
    }

    /// The view for one group.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn view(&self, group: usize) -> &GlobalView {
        &self.views[group]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmented_views_have_independent_thresholds() {
        let seg = SegmentedGlobalView::from_group_estimates(
            vec![vec![(1u64, 2.0), (2, 4.0)], vec![(1, 10.0), (3, 20.0)]],
            ThresholdPolicy::Mean,
        );
        assert_eq!(seg.num_groups(), 2);
        assert!((seg.view(0).users_threshold() - 3.0).abs() < 1e-12);
        assert!((seg.view(1).users_threshold() - 15.0).abs() < 1e-12);
        // The same ad can look niche in one group and popular in another.
        assert_eq!(seg.view(0).users(1), 2.0);
        assert_eq!(seg.view(1).users(1), 10.0);
    }

    #[test]
    fn threshold_is_mean_of_positive_counts() {
        let view = GlobalView::from_estimates(
            vec![(1, 2.0), (2, 4.0), (3, 0.0), (4, 6.0)],
            ThresholdPolicy::Mean,
        );
        assert_eq!(view.num_ads(), 3);
        assert!((view.users_threshold() - 4.0).abs() < 1e-12);
        assert_eq!(view.users(3), 0.0);
        assert_eq!(view.users(2), 4.0);
    }

    #[test]
    fn zeros_do_not_dilute_threshold() {
        // A hugely over-provisioned ID space (many zeros) must not pull
        // the threshold to zero — that would classify everything as
        // "seen by few users".
        let mut est: Vec<(AdKey, f64)> = (0..10_000).map(|i| (i, 0.0)).collect();
        est.push((10_001, 5.0));
        est.push((10_002, 7.0));
        let view = GlobalView::from_estimates(est, ThresholdPolicy::Mean);
        assert!((view.users_threshold() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_ads_keep_their_last_positive_estimate() {
        let view = GlobalView::from_estimates(
            vec![(7, 1.0), (3, 2.0), (7, 4.0), (3, 0.0), (5, 6.0)],
            ThresholdPolicy::Mean,
        );
        assert_eq!(view.sorted_estimates(), &[(3, 2.0), (5, 6.0), (7, 4.0)]);
        assert_eq!(view.distribution(), vec![2.0, 6.0, 4.0]);
        assert_eq!(view.users(7), 4.0);
        assert_eq!(view.users(4), 0.0);
        assert_eq!(view.users_threshold(), 4.0);
    }

    #[test]
    fn lookups_find_exactly_the_ads_supplied() {
        // Spread, clustered, two-cluster and extreme key sets: every
        // supplied ad is found, its neighbours are not.
        let spread: Vec<AdKey> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
            .collect();
        let clustered: Vec<AdKey> = (0..300u64).map(|i| 1_000_000 + 2 * i).collect();
        let mut two_clusters = clustered.clone();
        two_clusters.extend((0..300u64).map(|i| u64::MAX - 3 * i));
        for ads in [
            spread,
            clustered,
            two_clusters,
            vec![0, u64::MAX],
            vec![u64::MAX],
            vec![7],
        ] {
            let view = GlobalView::from_estimates(
                ads.iter().map(|&ad| (ad, (ad % 1_000 + 1) as f64)),
                ThresholdPolicy::Mean,
            );
            let supplied: std::collections::BTreeSet<AdKey> = ads.iter().copied().collect();
            assert_eq!(view.num_ads(), supplied.len());
            for &ad in &supplied {
                assert_eq!(view.users(ad), (ad % 1_000 + 1) as f64, "ad {ad}");
                for near in [ad.wrapping_sub(1), ad.wrapping_add(1)] {
                    if !supplied.contains(&near) {
                        assert_eq!(view.users(near), 0.0, "ad {near}");
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_is_order_independent() {
        // Non-integer estimates: their sums round differently in
        // different orders, which a threshold fed in supply (or hasher)
        // order would show in the last bit.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let ascending: Vec<(AdKey, f64)> = (0..997u64)
            .map(|ad| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (ad * 3 + 1, 0.1 + (x >> 40) as f64 / 7.0)
            })
            .collect();
        let descending: Vec<(AdKey, f64)> = ascending.iter().rev().copied().collect();
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (x >> 33) as usize % (i + 1));
        }
        for policy in ThresholdPolicy::all() {
            let reference = GlobalView::from_estimates(ascending.clone(), policy);
            for supplied in [&descending, &shuffled] {
                let view = GlobalView::from_estimates(supplied.iter().copied(), policy);
                assert_eq!(view, reference, "{}", policy.label());
                assert_eq!(
                    view.users_threshold().to_bits(),
                    reference.users_threshold().to_bits(),
                    "{}",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn empty_view() {
        let view = GlobalView::from_estimates(Vec::<(AdKey, f64)>::new(), ThresholdPolicy::Mean);
        assert_eq!(view.users_threshold(), 0.0);
        assert_eq!(view.users(1), 0.0);
        assert_eq!(view.num_ads(), 0);
    }
}
