//! Soak coverage for the tick-driven epoch coordinator: the three
//! [`churn_matrix`] campaigns — steady low churn, an aggressive
//! join/leave mix with flappy clients, and a scripted below-threshold
//! collapse — each run end to end through the clustered campaign
//! driver. The suite pins three properties the unit tests cannot:
//!
//! * the coordinator's roster folding agrees with the churn
//!   generator's own bookkeeping epoch after epoch;
//! * every finalized view is residue-free (all blinding terms cancel)
//!   no matter how the membership churned around it;
//! * an identical campaign replays bit-identically, run to run.

use eyewnder::simnet::{
    churn_matrix, ChurnCampaign, ChurnConfig, CoordinatorFault, DriverScale, WeeklyDriver,
};
use eyewnder::sketch::CmsParams;
use eyewnder::system::{
    ChurnMetrics, EpochConfig, EpochOutcome, EyewnderSystem, LogicalClock, SystemConfig,
};

const SEED: u64 = 0x50AC_0008;

/// Builds a cohort covering the campaign population, ingests one week
/// of browsing and drives the full schedule through a 3-shard cluster.
fn run_campaign(config: ChurnConfig) -> (Vec<EpochOutcome>, ChurnMetrics, ChurnCampaign) {
    let campaign = ChurnCampaign::generate(config);
    // Scale the Table 1 world down just far enough that its user
    // population still covers the campaign's churn pool.
    let fraction = (500 / config.population as usize).max(1);
    let driver = WeeklyDriver::new(
        SEED ^ config.seed,
        DriverScale::Fraction(fraction),
        config.population as usize,
    );
    let (scenario, weeks, cohort) = driver.workload(1);
    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: SEED,
            // The soak's populations are bigger than the parity tests';
            // the small sketch keeps debug CI honest (dimension parity
            // is independent of the cell count).
            cms: CmsParams::new(4, 512, 0xC1A5),
            ..SystemConfig::default()
        }
        .with_threads(2),
        cohort,
    );
    sys.ingest(scenario, &weeks[0]);
    sys.config.cluster_backends = 3;
    let outcomes = sys.run_epochs_deadline(
        config.min_clients,
        EpochConfig::default().grace_ticks,
        &mut LogicalClock::new(),
        campaign.epochs(),
        &CoordinatorFault::none(),
    );
    let churn = sys.telemetry().churn();
    (outcomes, churn, campaign)
}

/// Structural invariants every campaign must honor. Returns
/// (completed, collapsed) epoch counts.
fn assert_campaign_sane(
    config: &ChurnConfig,
    campaign: &ChurnCampaign,
    outcomes: &[EpochOutcome],
) -> (usize, usize) {
    assert_eq!(outcomes.len(), config.epochs as usize);
    let mut completed = 0usize;
    let mut collapsed = 0usize;
    // The generator and the coordinator fold identically until a
    // collapse parks leaves across the boundary; after one, only the
    // coordinator's view is canonical.
    let mut rosters_canonical = true;
    for (i, out) in outcomes.iter().enumerate() {
        if let Some(round) = &out.outcome {
            completed += 1;
            assert!(
                out.members.len() >= config.min_clients as usize,
                "epoch {}: a finalized epoch cannot be under min_clients",
                i + 1
            );
            if rosters_canonical {
                assert_eq!(
                    out.members,
                    campaign.roster_of(i),
                    "epoch {}: coordinator and generator disagree on the roster",
                    i + 1
                );
            }
            assert_eq!(
                round.reports,
                out.members.len() - out.dropped.len(),
                "epoch {}: everyone but the dropouts reports",
                i + 1
            );
            assert_eq!(
                round.missing,
                out.dropped,
                "epoch {}: the silent set is exactly the dropouts",
                i + 1
            );
            // Residue from an uncancelled blinding term is uniform in
            // the 32-bit cell space; a CMS collision only inflates an
            // estimate by a handful of counts. A small multiple of the
            // roster separates the two regimes cleanly.
            for est in round.view.distribution() {
                assert!(
                    est <= 3.0 * out.members.len() as f64 + 10.0,
                    "epoch {}: estimate {est} is blinding residue",
                    i + 1
                );
            }
        }
        if out.collapsed {
            collapsed += 1;
            rosters_canonical = false;
            assert!(out.outcome.is_none(), "a collapsed epoch finalizes nothing");
        }
    }
    (completed, collapsed)
}

fn assert_runs_identical(a: &[EpochOutcome], b: &[EpochOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.round, y.round);
        assert_eq!(x.members, y.members);
        assert_eq!(x.dropped, y.dropped);
        assert_eq!(x.collapsed, y.collapsed);
        match (&x.outcome, &y.outcome) {
            (None, None) => {}
            (Some(p), Some(q)) => {
                assert_eq!(p.reports, q.reports);
                assert_eq!(p.missing, q.missing);
                assert_eq!(p.view, q.view);
                assert_eq!(
                    p.view.users_threshold().to_bits(),
                    q.view.users_threshold().to_bits(),
                    "epoch {}: Users_th must match to the last bit",
                    x.epoch
                );
            }
            _ => panic!("epoch {}: one run finalized, the other did not", x.epoch),
        }
    }
}

#[test]
fn steady_churn_campaign_completes_every_epoch() {
    let config = churn_matrix(SEED)[0];
    let (outcomes, churn, campaign) = run_campaign(config);
    let (completed, collapsed) = assert_campaign_sane(&config, &campaign, &outcomes);
    assert_eq!(
        completed, config.epochs as usize,
        "10% churn never threatens min_clients"
    );
    assert_eq!(collapsed, 0);
    assert_eq!(churn.epochs_completed, completed as u64);
    assert_eq!(churn.collapses, 0);
    assert!(churn.joins >= config.initial as u64);
    assert!(
        churn.drops > 0 && churn.leaves > 0,
        "the steady campaign must actually churn: {churn:?}"
    );
}

#[test]
fn aggressive_flappy_churn_is_deterministic_run_to_run() {
    let config = churn_matrix(SEED)[1];
    let (first, churn, campaign) = run_campaign(config);
    assert_campaign_sane(&config, &campaign, &first);
    // Flappy members leave on even epochs and return on odd ones, so
    // the campaign's join traffic exceeds the initial enrollment.
    assert!(
        churn.joins > config.initial as u64,
        "flappy rejoins must register: {churn:?}"
    );
    let (second, ..) = run_campaign(config);
    assert_runs_identical(&first, &second);
}

#[test]
fn scripted_collapse_campaign_recovers_with_survivors() {
    let config = churn_matrix(SEED)[2];
    assert!(config.collapse_at > 0, "the matrix must script a collapse");
    let (outcomes, churn, campaign) = run_campaign(config);
    let (completed, collapsed) = assert_campaign_sane(&config, &campaign, &outcomes);
    assert!(
        outcomes[config.collapse_at as usize - 1].collapsed,
        "the scripted epoch must fall under min_clients"
    );
    assert!(collapsed >= 1);
    assert!(
        completed >= 1,
        "the campaign must finalize epochs around the collapse"
    );
    assert!(
        churn.collapses >= 1,
        "the collapse must surface in telemetry: {churn:?}"
    );
    assert_eq!(churn.epochs_completed, completed as u64);
    // The campaign survives the collapse: the last scheduled epoch
    // either finalizes or is still gathering members, but the
    // coordinator never wedges (outcomes cover the whole schedule).
    assert_eq!(outcomes.len(), config.epochs as usize);
}
