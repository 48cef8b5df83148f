//! End-to-end integration: the full privacy-preserving weekly round must
//! reproduce cleartext statistics exactly (modulo CMS over-estimation),
//! survive missing clients, and support consecutive weeks.

use eyewnder::core::ThresholdPolicy;
use eyewnder::simnet::{Scenario, ScenarioConfig};
use eyewnder::system::{EyewnderSystem, SystemConfig};

fn small_world(seed: u64) -> (Scenario, eyewnder::simnet::ImpressionLog) {
    let cfg = ScenarioConfig {
        seed,
        num_users: 16,
        num_websites: 50,
        avg_user_visits: 30.0,
        avg_ads_per_website: 6.0,
        ..ScenarioConfig::table1(seed)
    };
    let scenario = Scenario::build(cfg);
    let log = scenario.run_week(0);
    (scenario, log)
}

fn small_system(seed: u64) -> EyewnderSystem {
    let config = SystemConfig {
        seed,
        ..SystemConfig::default()
    };
    EyewnderSystem::new(config, 16)
}

#[test]
fn blinded_aggregate_reproduces_cleartext_user_counts() {
    let (scenario, log) = small_world(1);
    let mut sys = small_system(1);
    sys.ingest(&scenario, &log);
    let outcome = sys.run_round(1, &[]);

    for (sim_ad, users) in log.users_per_ad() {
        let key = sys.ad_key_of(sim_ad).expect("ingested");
        let est = outcome.view.users(key);
        assert!(
            est >= users as f64,
            "CMS must never under-count (ad {sim_ad}: {est} < {users})"
        );
    }
}

#[test]
fn round_with_a_third_of_clients_missing_still_unblinds() {
    let (scenario, log) = small_world(2);
    let mut sys = small_system(2);
    sys.ingest(&scenario, &log);

    let silent: Vec<u32> = vec![1, 4, 7, 10, 13];
    let outcome = sys.run_round(1, &silent);
    assert_eq!(outcome.missing, silent);

    // If recovery failed, cells would be uniform blinding residue and
    // user-count "estimates" would be astronomically wrong.
    for est in outcome.view.distribution() {
        assert!(
            est <= 16.0 + 5.0,
            "estimate {est} can only be blinding residue"
        );
    }
}

#[test]
fn consecutive_weeks_are_independent_rounds() {
    let (scenario, _) = small_world(3);
    let mut sys = small_system(3);

    let mut thresholds = Vec::new();
    for week in 0..3u64 {
        let log = scenario.run_week(week);
        sys.ingest(&scenario, &log);
        let outcome = sys.run_round(week + 1, &[]);
        thresholds.push(outcome.view.users_threshold());
        sys.reset_windows();
    }
    assert_eq!(thresholds.len(), 3);
    for th in &thresholds {
        assert!(*th > 0.0, "every week produced a usable threshold");
    }
}

#[test]
fn policy_is_configurable_end_to_end() {
    let (scenario, log) = small_world(4);
    for policy in [ThresholdPolicy::Mean, ThresholdPolicy::MeanPlusMedian] {
        let config = SystemConfig {
            seed: 4,
            policy,
            ..SystemConfig::default()
        };
        let mut sys = EyewnderSystem::new(config, 16);
        sys.ingest(&scenario, &log);
        let outcome = sys.run_round(1, &[]);
        assert!(outcome.view.users_threshold() > 0.0);
        assert_eq!(outcome.view.policy(), policy);
    }
}

#[test]
fn audits_remain_precise_through_the_privacy_path() {
    let (scenario, log) = small_world(5);
    let mut sys = small_system(5);
    sys.ingest(&scenario, &log);
    let outcome = sys.run_round(1, &[]);
    let (confusion, _) = sys.audit_against(&log, &outcome.view);
    assert!(confusion.total() > 0);
    assert!(
        confusion.fpr() <= 0.15,
        "FPR {:.3} too high through the private path",
        confusion.fpr()
    );
}
