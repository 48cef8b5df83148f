//! The full privacy-preserving aggregation round, end to end:
//! DH enrolment → OPRF ad-ID mapping → blinded CMS reports → missing-
//! client recovery → unblinded global view → real-time audits — with
//! two clients going silent and the round transported over a lossy,
//! corrupting link.
//!
//! ```text
//! cargo run --release --example privacy_round
//! ```

use eyewnder::core::Verdict;
use eyewnder::proto::FaultConfig;
use eyewnder::simnet::{Scenario, ScenarioConfig};
use eyewnder::system::cluster::RoutingBus;
use eyewnder::system::{EyewnderSystem, SystemConfig};

fn main() {
    // A small live cohort: 30 enrolled extension users.
    let scenario_cfg = ScenarioConfig {
        num_users: 30,
        num_websites: 80,
        avg_user_visits: 60.0,
        ..ScenarioConfig::small(3)
    };
    let scenario = Scenario::build(scenario_cfg);
    let week = scenario.run_week(0);

    println!("== enrolment ==");
    let mut system = EyewnderSystem::new(SystemConfig::default(), 30);
    println!("30 clients generated DH key pairs and published them on the bulletin board;");
    println!("pairwise blinding secrets precomputed (one modexp per peer).\n");

    println!("== week 0: browsing ==");
    system.ingest(&scenario, &week);
    println!(
        "{} impressions observed; {} unique ad URLs mapped through the OPRF",
        week.len(),
        system.oprf_requests()
    );
    println!("(the oprf-server never saw a URL; the backend never will).\n");

    println!("== aggregation round over a faulty wire ==");
    let fault = FaultConfig {
        drop_prob: 0.15,
        corrupt_prob: 0.10,
        duplicate_prob: 0.05,
        reorder_prob: 0.05,
        seed: 11,
    };
    let map = system.cluster_map();
    let mut backend = system.new_cluster(&map);
    let mut bus = RoutingBus::over_wire(map, Some(fault), None);
    let outcome = system.run_round_on(&mut backend, &mut bus, 1, &[]);
    println!(
        "reports accepted: {}   corrupt frames rejected: {}   declared missing: {:?}",
        outcome.reports, outcome.corrupt_frames, outcome.missing
    );
    println!(
        "recovery round subtracted the residual blindings of {} missing clients;",
        outcome.missing.len()
    );
    println!(
        "unblinded global view covers {} ads, Users_th = {:.2}\n",
        outcome.view.num_ads(),
        outcome.view.users_threshold()
    );

    println!("== real-time audits ==");
    let (confusion, skipped) = system.audit_against(&week, &outcome.view);
    println!(
        "audited {} (user, ad) pairs ({} below the 4-domain activity gate)",
        confusion.total(),
        skipped
    );
    println!(
        "TPR {:.1}%  TNR {:.1}%  FPR {:.2}%",
        confusion.tpr() * 100.0,
        confusion.tnr() * 100.0,
        confusion.fpr() * 100.0
    );

    // One concrete audit, the way the extension popup would show it.
    let targeted_ad = week
        .records()
        .iter()
        .find(|r| r.truth == eyewnder::simnet::AdClass::Targeted)
        .expect("some targeted ad exists");
    let key = system.ad_key_of(targeted_ad.ad).expect("ad was ingested");
    let verdict = {
        use eyewnder::core::Detector;
        let det = Detector::new(system.config.detector);
        // Audit from the perspective of the user who saw it.
        let users = outcome.view.users(key);
        println!(
            "\nexample audit: ad {} (seen by ~{users:.0} users, threshold {:.2})",
            scenario.campaigns[targeted_ad.ad as usize].ad.url(),
            outcome.view.users_threshold()
        );
        let _ = det;
        if users < outcome.view.users_threshold() {
            Verdict::Targeted
        } else {
            Verdict::NonTargeted
        }
    };
    println!("global-side condition alone says: {verdict:?} (the user's local");
    println!("domain counter must also exceed their personal threshold).");
}
