//! Multi-week operation: three consecutive privacy-preserving rounds
//! (the Figure 2 regime), each round's outcome, and threshold stability.

use eyewnder::simnet::{Scenario, ScenarioConfig};
use eyewnder::system::{EyewnderSystem, SystemConfig};

#[test]
fn three_week_deployment_with_store_history() {
    let cfg = ScenarioConfig {
        seed: 77,
        num_users: 14,
        num_websites: 40,
        avg_user_visits: 30.0,
        avg_ads_per_website: 5.0,
        ..ScenarioConfig::table1(77)
    };
    let scenario = Scenario::build(cfg);
    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: 77,
            ..SystemConfig::default()
        },
        14,
    );

    let mut rounds = Vec::new();
    for week in 0..3u64 {
        let log = scenario.run_week(week);
        sys.ingest(&scenario, &log);
        // Week 1 loses two clients; others are clean.
        let silent: Vec<u32> = if week == 1 { vec![2, 9] } else { vec![] };
        rounds.push(sys.run_round(week + 1, &silent));
        sys.reset_windows();
    }

    // Every round reports who went missing and how many reported: the
    // two silent clients in week 1 only, back again in week 2.
    let missing: Vec<&[u32]> = rounds.iter().map(|r| r.missing.as_slice()).collect();
    assert_eq!(missing, [&[][..], &[2, 9], &[]]);
    let reports: Vec<usize> = rounds.iter().map(|r| r.reports).collect();
    assert_eq!(reports, [14, 12, 14]);
    let thresholds: Vec<f64> = rounds.iter().map(|r| r.view.users_threshold()).collect();
    assert!(thresholds.iter().all(|&th| th > 0.0));

    // Weekly thresholds are in a stable band (same ecosystem).
    let max = thresholds.iter().cloned().fold(0.0f64, f64::max);
    let min = thresholds.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 2.0,
        "weekly thresholds vary wildly: {thresholds:?}"
    );
}
