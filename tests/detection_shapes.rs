//! Shape assertions for the paper's headline results, at test-friendly
//! scale: Figure 3's FN-vs-cap trend, the §7.2.2 false-positive bound,
//! the two behavioural observations underlying the algorithm, and
//! §7.1's deterministic overhead figures (CMS sizes, directory volumes).

use eyewnder::core::{DetectorConfig, ThresholdPolicy};
use eyewnder::simnet::{AdClass, Scenario, ScenarioConfig};
use eyewnder::system::run_cleartext_pipeline;

fn config(seed: u64, cap: u32) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        num_users: 100,
        num_websites: 200,
        avg_user_visits: 80.0,
        frequency_cap: cap,
        ..ScenarioConfig::table1(seed)
    }
}

fn fnr(cap: u32, policy: ThresholdPolicy) -> f64 {
    let mut tp = 0u64;
    let mut fn_ = 0u64;
    for seed in [11u64, 12] {
        let scenario = Scenario::build(config(seed, cap));
        let log = scenario.run_week(0);
        let det = DetectorConfig {
            policy,
            ..DetectorConfig::default()
        };
        let m = run_cleartext_pipeline(&log, det).confusion;
        tp += m.tp;
        fn_ += m.fn_;
    }
    fn_ as f64 / (tp + fn_).max(1) as f64
}

#[test]
fn fig3_fn_decreases_with_frequency_cap() {
    let at_1 = fnr(1, ThresholdPolicy::Mean);
    let at_4 = fnr(4, ThresholdPolicy::Mean);
    let at_8 = fnr(8, ThresholdPolicy::Mean);
    assert!(at_1 > 0.9, "cap 1 is undetectable (got FNR {at_1:.2})");
    assert!(
        at_4 < at_1,
        "more repetitions must help ({at_4:.2} vs {at_1:.2})"
    );
    assert!(
        at_8 < 0.45,
        "by cap 8 the Mean policy detects most targeting (FNR {at_8:.2})"
    );
}

#[test]
fn fig3_mean_plus_median_detects_later_at_low_caps() {
    // The crossover: at a low cap the stricter domain threshold of
    // Mean+Median misses more than Mean does.
    let mean_low = fnr(2, ThresholdPolicy::Mean);
    let mm_low = fnr(2, ThresholdPolicy::MeanPlusMedian);
    assert!(
        mm_low >= mean_low - 0.02,
        "Mean+Median should not beat Mean at cap 2 ({mm_low:.2} vs {mean_low:.2})"
    );
}

#[test]
fn fp_stays_below_two_percent() {
    // §7.2.2: even with broad static campaigns, FP < 2%.
    for seed in [21u64, 22, 23] {
        let mut cfg = config(seed, 7);
        cfg.pct_static_campaigns = 0.25;
        cfg.static_campaign_spread = 24;
        let scenario = Scenario::build(cfg);
        let log = scenario.run_week(0);
        let m = run_cleartext_pipeline(&log, DetectorConfig::default()).confusion;
        assert!(
            m.fpr() < 0.02,
            "seed {seed}: FPR {:.4} breaks the 2% claim",
            m.fpr()
        );
    }
}

#[test]
fn observation_1_targeted_ads_follow_users() {
    let scenario = Scenario::build(config(31, 7));
    let log = scenario.run_week(0);
    let truth = log.truth_by_ad();
    let (mut t, mut tn, mut nt, mut ntn) = (0usize, 0usize, 0usize, 0usize);
    for ((_u, ad), d) in log.domains_per_user_ad() {
        if truth[&ad] == AdClass::Targeted {
            t += d;
            tn += 1;
        } else {
            nt += d;
            ntn += 1;
        }
    }
    let t_avg = t as f64 / tn.max(1) as f64;
    let nt_avg = nt as f64 / ntn.max(1) as f64;
    assert!(
        t_avg > 1.5 * nt_avg,
        "targeted ads must clearly follow users ({t_avg:.2} vs {nt_avg:.2} domains)"
    );
}

#[test]
fn observation_2_targeted_ads_reach_fewer_users() {
    let scenario = Scenario::build(config(32, 7));
    let log = scenario.run_week(0);
    let truth = log.truth_by_ad();
    let (mut t, mut tn, mut nt, mut ntn) = (0usize, 0usize, 0usize, 0usize);
    for (ad, n) in log.users_per_ad() {
        if truth[&ad] == AdClass::Targeted {
            t += n;
            tn += 1;
        } else {
            nt += n;
            ntn += 1;
        }
    }
    let t_avg = t as f64 / tn.max(1) as f64;
    let nt_avg = nt as f64 / ntn.max(1) as f64;
    assert!(
        t_avg < nt_avg,
        "targeted ads must reach fewer users ({t_avg:.2} vs {nt_avg:.2})"
    );
}

#[test]
fn indirect_targeting_is_detected() {
    // The capability content analysis lacks: at least some flagged pairs
    // must belong to indirect-OBA campaigns.
    use eyewnder::core::Verdict;
    use eyewnder::simnet::CampaignKind;
    let scenario = Scenario::build(config(33, 7));
    let log = scenario.run_week(0);
    let result = run_cleartext_pipeline(&log, DetectorConfig::default());
    let indirect_hits = result
        .verdicts
        .iter()
        .filter(|(_, ad, v)| {
            *v == Verdict::Targeted
                && matches!(
                    scenario.campaigns[*ad as usize].kind,
                    CampaignKind::IndirectOba { .. }
                )
        })
        .count();
    assert!(
        indirect_hits > 0,
        "count-based detection must catch indirect targeting"
    );
}

#[test]
fn section_7_1_cms_sizes() {
    // §7.1: ε = δ = 0.001 at 10k / 50k / 100k counted ads gives
    // 185 / 196 / 207 KB reports of 4-byte cells.
    use eyewnder::sketch::CmsParams;
    for (items, depth, kb) in [(10_000, 17, 185), (50_000, 18, 196), (100_000, 19, 207)] {
        let p = CmsParams::from_error_bounds(0.001, 0.001, items, 0);
        assert_eq!((p.depth, p.width), (depth, 2_719), "T = {items}");
        assert_eq!(
            (p.size_bytes() as f64 / 1000.0).round() as usize,
            kb,
            "T = {items}"
        );
    }
}

#[test]
fn section_7_1_directory_volumes() {
    // §7.1 with 32-byte public keys: 0.36 MB per client at 10k users and
    // 1.80 MB at 50k (the paper rounds to 0.38 / 1.9 MB).
    use eyewnder::bigint::UBig;
    use eyewnder::crypto::directory::KeyDirectory;
    for (users, centi_mb) in [(10_000u32, 36), (50_000, 180)] {
        let mut dir = KeyDirectory::new(32);
        for u in 0..users {
            dir.publish(u, UBig::from_u64(u64::from(u) + 1));
        }
        let mb = dir.download_size_per_client() as f64 / 1e6;
        assert_eq!((mb * 100.0).round() as u32, centi_mb, "{users} users");
    }
}
