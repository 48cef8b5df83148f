//! The §7.2 controlled-study pipeline: impression log → detector
//! verdicts → confusion matrix, plus the Figure 2 cleartext-vs-CMS
//! `#Users` distribution comparison.
//!
//! This is the *cleartext* evaluation path ("for evaluation we are using
//! full information on our test users after having been granted full
//! consent", §7.3 footnote): exact per-ad user counts, exact per-user
//! domain counts. The privacy-preserving path producing the same numbers
//! through blinded sketches lives in [`crate::system`]; Figure 2 is the
//! comparison of the two.

use ew_core::{
    AdKey, Detector, DetectorConfig, GlobalView, SegmentedGlobalView, UserCounters, Verdict,
};
use ew_simnet::{AdClass, ImpressionLog};
use ew_sketch::{CmsParams, CountMinSketch};
use ew_stats::ConfusionMatrix;
use std::collections::BTreeMap;

/// Output of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Confusion over all (user, ad) audit pairs that got a verdict.
    pub confusion: ConfusionMatrix,
    /// All verdicts, including per-pair detail.
    pub verdicts: Vec<(u32, AdKey, Verdict)>,
    /// Pairs skipped by the minimum-activity gate.
    pub insufficient: usize,
    /// The global `Users_th` used.
    pub users_threshold: f64,
}

/// Runs the detector over a cleartext impression log: every user audits
/// every ad they saw, with exact global counts.
pub fn run_cleartext_pipeline(log: &ImpressionLog, config: DetectorConfig) -> PipelineResult {
    // Exact global view.
    let global = GlobalView::from_estimates(
        log.users_per_ad().into_iter().map(|(ad, n)| (ad, n as f64)),
        config.policy,
    );
    classify_against(log, &global, config)
}

/// Runs the detector with a *CMS-estimated* global view (the privacy
/// path's accuracy, without the blinding machinery — blinding is exact
/// by construction, so the only estimation error is the sketch's).
pub fn run_cms_pipeline(
    log: &ImpressionLog,
    config: DetectorConfig,
    params: CmsParams,
) -> PipelineResult {
    let global = cms_global_view(log, config, params);
    classify_against(log, &global, config)
}

/// Builds the global view through a per-user CMS aggregation, exactly as
/// the deployed protocol would (each user inserts each *distinct* ad
/// once; the aggregate is queried for every ad in the log).
fn cms_global_view(log: &ImpressionLog, config: DetectorConfig, params: CmsParams) -> GlobalView {
    let mut aggregate = CountMinSketch::new(params);
    let mut per_user_ads: BTreeMap<u32, std::collections::BTreeSet<AdKey>> = BTreeMap::new();
    for r in log.records() {
        per_user_ads.entry(r.user).or_default().insert(r.ad);
    }
    for ads in per_user_ads.values() {
        for &ad in ads {
            aggregate.update(ad);
        }
    }
    GlobalView::from_estimates(
        log.distinct_ads()
            .into_iter()
            .map(|ad| (ad, aggregate.query(ad) as f64)),
        config.policy,
    )
}

/// The `#Users` distribution as the CMS sees it — the "CMS" series of
/// Figure 2: one estimate per distinct ad in the log, in ascending ad
/// order (every estimate is at least 1, so the view drops none).
pub fn cms_user_distribution(log: &ImpressionLog, params: CmsParams) -> Vec<f64> {
    cms_global_view(log, DetectorConfig::default(), params).distribution()
}

/// The §7.2.3 segmentation variant: users are partitioned into groups
/// (`group_of[user]`, values in `0..num_groups`), each group gets its
/// own `#Users` distribution and `Users_th`, and every audit consults
/// the auditing user's group view.
pub fn run_segmented_pipeline(
    log: &ImpressionLog,
    config: DetectorConfig,
    group_of: &BTreeMap<u32, usize>,
    num_groups: usize,
) -> PipelineResult {
    assert!(num_groups >= 1, "need at least one group");
    let group = |user: u32| group_of.get(&user).copied().unwrap_or(0) % num_groups;

    // Per-group distinct users per ad.
    let mut group_sets: Vec<BTreeMap<AdKey, std::collections::BTreeSet<u32>>> =
        vec![BTreeMap::new(); num_groups];
    for r in log.records() {
        group_sets[group(r.user)]
            .entry(r.ad)
            .or_default()
            .insert(r.user);
    }
    let segmented = SegmentedGlobalView::from_group_estimates(
        group_sets
            .into_iter()
            .map(|m| {
                m.into_iter()
                    .map(|(ad, users)| (ad, users.len() as f64))
                    .collect::<Vec<_>>()
            })
            .collect(),
        config.policy,
    );

    let group_view = |user: u32| segmented.view(group(user));
    let per_user = per_user_counters(log);
    let threshold_sum = per_user
        .keys()
        .fold(0.0, |sum, &user| sum + group_view(user).users_threshold());
    let truth = log.truth_by_ad();
    let (confusion, verdicts, insufficient) = score(
        per_user.iter().map(|(&user, counters)| (user, counters)),
        config,
        group_view,
        |ad| truth[&ad] == AdClass::Targeted,
    );
    PipelineResult {
        confusion,
        verdicts,
        insufficient,
        users_threshold: threshold_sum / per_user.len().max(1) as f64,
    }
}

/// Every user's counters over the whole log, in user order.
fn per_user_counters(log: &ImpressionLog) -> BTreeMap<u32, UserCounters> {
    let mut per_user: BTreeMap<u32, UserCounters> = BTreeMap::new();
    for r in log.records() {
        per_user
            .entry(r.user)
            .or_default()
            .observe(r.ad, r.site as u64);
    }
    per_user
}

/// Every user of the log audits every ad they saw against `global`,
/// scored against the log's ground truth.
fn classify_against(
    log: &ImpressionLog,
    global: &GlobalView,
    config: DetectorConfig,
) -> PipelineResult {
    let per_user = per_user_counters(log);
    let truth = log.truth_by_ad();
    let (confusion, verdicts, insufficient) = score(
        per_user.iter().map(|(&user, counters)| (user, counters)),
        config,
        |_| global,
        |ad| truth[&ad] == AdClass::Targeted,
    );
    PipelineResult {
        confusion,
        verdicts,
        insufficient,
        users_threshold: global.users_threshold(),
    }
}

/// The one scoring loop: each `(user, counters)` audits every ad in its
/// counters, in ad order, against `view_of(user)`. A verdict other than
/// `InsufficientData` is scored against `targeted(ad)`, the truth.
/// Returns the confusion, every verdict in audit order, and the count
/// of pairs the minimum-activity gate skipped.
pub(crate) fn score<'c, 'v>(
    users: impl IntoIterator<Item = (u32, &'c UserCounters)>,
    config: DetectorConfig,
    view_of: impl Fn(u32) -> &'v GlobalView,
    targeted: impl Fn(AdKey) -> bool,
) -> (ConfusionMatrix, Vec<(u32, AdKey, Verdict)>, usize) {
    let detector = Detector::new(config);
    let mut confusion = ConfusionMatrix::new();
    let mut verdicts = Vec::new();
    let mut insufficient = 0usize;
    for (user, counters) in users {
        for (ad, verdict) in detector.classify_all(counters, view_of(user)) {
            verdicts.push((user, ad, verdict));
            match verdict {
                Verdict::InsufficientData => insufficient += 1,
                Verdict::Targeted | Verdict::NonTargeted => {
                    confusion.record(targeted(ad), verdict == Verdict::Targeted);
                }
            }
        }
    }
    (confusion, verdicts, insufficient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_core::ThresholdPolicy;
    use ew_simnet::{Scenario, ScenarioConfig};

    fn log() -> ImpressionLog {
        Scenario::build(ScenarioConfig::small(42)).run_week(0)
    }

    #[test]
    fn pipeline_produces_verdicts() {
        let result = run_cleartext_pipeline(&log(), DetectorConfig::default());
        assert!(result.confusion.total() > 0, "some pairs classified");
        assert!(!result.verdicts.is_empty());
        assert!(result.users_threshold > 0.0);
    }

    #[test]
    fn verdicts_are_ordered_by_user_then_ad() {
        let log = log();
        let params = CmsParams::from_error_bounds(0.001, 0.001, 10_000, 99);
        let check = |run: &dyn Fn() -> PipelineResult| {
            let first = run().verdicts;
            assert_eq!(first, run().verdicts, "same log, same verdict list");
            assert!(first
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        };
        check(&|| run_cleartext_pipeline(&log, DetectorConfig::default()));
        check(&|| run_cms_pipeline(&log, DetectorConfig::default(), params));
    }

    #[test]
    fn detection_beats_chance_on_default_scenario() {
        let result = run_cleartext_pipeline(&log(), DetectorConfig::default());
        // The headline claim of the paper: precise, low-FP detection.
        assert!(
            result.confusion.fpr() < 0.10,
            "FPR too high: {:.3}",
            result.confusion.fpr()
        );
        assert!(
            result.confusion.tpr() > 0.3,
            "TPR too low: {:.3}",
            result.confusion.tpr()
        );
    }

    #[test]
    fn cms_pipeline_close_to_cleartext() {
        let log = log();
        let clear = run_cleartext_pipeline(&log, DetectorConfig::default());
        let params = CmsParams::from_error_bounds(0.001, 0.001, 10_000, 99);
        let cms = run_cms_pipeline(&log, DetectorConfig::default(), params);
        // §7.1: "the privacy-preserving protocol has a negligible effect
        // on the quality of the computed statistics."
        let delta = (clear.users_threshold - cms.users_threshold).abs();
        assert!(
            delta / clear.users_threshold < 0.05,
            "thresholds diverge: clear={} cms={}",
            clear.users_threshold,
            cms.users_threshold
        );
        // CMS never under-counts, so its threshold is >= the cleartext's.
        assert!(cms.users_threshold >= clear.users_threshold - 1e-9);
    }

    #[test]
    fn insufficient_data_respected() {
        // Gate cranked very high: almost everyone becomes insufficient.
        let config = DetectorConfig {
            policy: ThresholdPolicy::Mean,
            min_active_domains: 10_000,
        };
        let result = run_cleartext_pipeline(&log(), config);
        assert_eq!(result.confusion.total(), 0);
        assert!(result.insufficient > 0);
    }

    #[test]
    fn segmented_pipeline_produces_verdicts_per_group() {
        let log = log();
        let scenario = Scenario::build(ScenarioConfig::small(42));
        // Group by dominant interest (browsing-pattern proxy).
        let groups: std::collections::BTreeMap<u32, usize> = scenario
            .users
            .iter()
            .map(|u| (u.id, u.interests[0] % 4))
            .collect();
        let seg = run_segmented_pipeline(&log, DetectorConfig::default(), &groups, 4);
        assert!(seg.confusion.total() > 0);
        // Same pair universe as the global pipeline.
        let global = run_cleartext_pipeline(&log, DetectorConfig::default());
        assert_eq!(
            seg.confusion.total() + seg.insufficient as u64,
            global.confusion.total() + global.insufficient as u64
        );
    }

    #[test]
    fn one_group_segmentation_equals_global() {
        let log = log();
        let groups: std::collections::BTreeMap<u32, usize> =
            log.distinct_users().into_iter().map(|u| (u, 0)).collect();
        let seg = run_segmented_pipeline(&log, DetectorConfig::default(), &groups, 1);
        let global = run_cleartext_pipeline(&log, DetectorConfig::default());
        assert_eq!(seg.confusion, global.confusion);
        assert_eq!(seg.verdicts, global.verdicts);
        assert_eq!(seg.insufficient, global.insufficient);
        assert!((seg.users_threshold - global.users_threshold).abs() < 1e-9);
    }

    #[test]
    fn cms_distribution_dominates_actual() {
        let log = log();
        let params = CmsParams::from_error_bounds(0.001, 0.001, 10_000, 5);
        let cms_dist = cms_user_distribution(&log, params);
        let actual: Vec<f64> = log.users_per_ad().into_values().map(|n| n as f64).collect();
        assert_eq!(cms_dist.len(), actual.len());
        let cms_mean: f64 = cms_dist.iter().sum::<f64>() / cms_dist.len() as f64;
        let act_mean: f64 = actual.iter().sum::<f64>() / actual.len() as f64;
        // Figure 2: the CMS threshold sits slightly above the actual one.
        assert!(cms_mean >= act_mean);
        assert!(cms_mean <= act_mean * 1.1, "cms={cms_mean} act={act_mean}");
    }
}
