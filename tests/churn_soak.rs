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
//!
//! A property test adds the fourth: the order in which joins, leaves
//! and drops register inside a tick window is unobservable, both in the
//! coordinator's epoch history and in the finalized views.

mod world;

use eyewnder::proto::EpochPhase;
use eyewnder::simnet::{
    churn_matrix, ChurnCampaign, ChurnConfig, CoordinatorFault, DriverScale, EpochChurn,
};
use eyewnder::system::{
    ChurnMetrics, Coordinator, EpochConfig, EpochEvent, EpochOutcome, LogicalClock, SystemConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use world::{assert_epochs_identical, Cell, World};

const SEED: u64 = 0x50AC_0008;

/// Builds a cohort covering the campaign population, ingests one week
/// of browsing and drives the full schedule through a 3-shard cluster.
fn run_campaign(config: ChurnConfig) -> (Vec<EpochOutcome>, ChurnMetrics, ChurnCampaign) {
    let campaign = ChurnCampaign::generate(config);
    // Scale the Table 1 world down just far enough that its user
    // population still covers the campaign's churn pool. The soak's
    // populations are bigger than the parity tests', so it runs the
    // small sketch too.
    let cohort = config.population as usize;
    let scale = DriverScale::Fraction((500 / cohort).max(1));
    let mut world = World::new(SEED ^ config.seed, scale, cohort, world::small_cms(), 1);
    world.seed = SEED;
    let (outcomes, sys) = world.campaign(
        Cell::new(3, false),
        config.min_clients,
        LogicalClock::new(),
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
    assert_epochs_identical(&first, &second, "run to run");
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

/// The registration-order property's world: 14 users, 28 sites, full
/// Table 1 visit rate.
const REGISTRATION_SEED: u64 = 0x00D0_0D1E;

/// The fixed churn schedule the registration-order property drives:
/// the cluster suites' formation, churn epoch and refill, around a
/// collapse where five of eight drop while one leaves cleanly — 3 <
/// min_clients, and the pending leave survives the collapse into epoch
/// 4's admission fold.
fn churn_schedule() -> Vec<EpochChurn> {
    let mut schedule = world::churn_schedule();
    schedule[2] = EpochChurn {
        joins: vec![],
        leaves: vec![5],
        drops: vec![0, 3, 4, 6, 7],
    };
    schedule
}

fn shuffle(mut v: Vec<u32>, rng: &mut StdRng) -> Vec<u32> {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// Reorders every epoch's join/leave/drop registration lists — the
/// within-window delivery orders the coordinator must be blind to.
fn shuffled_schedule(schedule: &[EpochChurn], rng: &mut StdRng) -> Vec<EpochChurn> {
    schedule
        .iter()
        .map(|spec| EpochChurn {
            joins: shuffle(spec.joins.clone(), rng),
            leaves: shuffle(spec.leaves.clone(), rng),
            drops: shuffle(spec.drops.clone(), rng),
        })
        .collect()
}

/// One epoch of canonical coordinator history:
/// (epoch, round, collapsed, frozen members, silent set).
type EpochTrace = (u64, u64, bool, Vec<u32>, Vec<u32>);

/// Drives a bare coordinator through the schedule (no crypto, no bus),
/// interleaving each report window's leave and drop registrations in
/// the schedule's order, and records the canonical per-epoch history.
fn coordinator_trace(schedule: &[EpochChurn]) -> Vec<EpochTrace> {
    let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(4));
    let mut now = 0u64;
    let mut trace = Vec::new();
    for spec in schedule {
        for &user in &spec.joins {
            coordinator.register_join(user);
        }
        now += 1;
        let started = matches!(coordinator.tick(now), Some(EpochEvent::EpochStarted { .. }));
        if !started {
            trace.push((
                coordinator.epoch(),
                coordinator.round(),
                true,
                Vec::new(),
                Vec::new(),
            ));
            continue;
        }
        while coordinator.phase() == EpochPhase::Warmup {
            now += 1;
            coordinator.tick(now);
        }
        let (epoch, round) = (coordinator.epoch(), coordinator.round());
        let members: Vec<u32> = coordinator.roster().iter().copied().collect();
        // Leaves and drops land mid-window, interleaved as given.
        let mut leaves = spec.leaves.iter();
        let mut drops = spec.drops.iter();
        loop {
            match (leaves.next(), drops.next()) {
                (None, None) => break,
                (l, d) => {
                    if let Some(&user) = l {
                        coordinator.register_leave(user);
                    }
                    if let Some(&user) = d {
                        coordinator.mark_dropped(user);
                    }
                }
            }
        }
        now += 1;
        let collapsed = matches!(coordinator.tick(now), Some(EpochEvent::Collapsed { .. }));
        let silent = coordinator.dropped();
        while coordinator.phase() != EpochPhase::WaitingForMembers {
            now += 1;
            coordinator.tick(now);
        }
        trace.push((epoch, round, collapsed, members, silent));
    }
    trace
}

/// Runs the full campaign (crypto and all) over a fresh 2-shard
/// cluster with the given transport.
fn epoch_campaign(wire: bool, schedule: &[EpochChurn]) -> Vec<EpochOutcome> {
    let cms = SystemConfig::default().cms;
    let world = World::new(REGISTRATION_SEED, DriverScale::Fraction(35), 14, cms, 1);
    let none = CoordinatorFault::none();
    world
        .campaign(Cell::new(2, wire), 4, LogicalClock::new(), schedule, &none)
        .0
}

fn campaign_baseline() -> &'static [EpochOutcome] {
    static BASELINE: OnceLock<Vec<EpochOutcome>> = OnceLock::new();
    BASELINE.get_or_init(|| epoch_campaign(false, &churn_schedule()))
}

proptest! {
    #[test]
    fn epoch_registration_order_is_unobservable(seed in any::<u64>(), full in 0u32..16) {
        // Within a tick window the coordinator accumulates joins,
        // leaves and drops in sets and folds them only at the tick
        // boundary, so *any* registration order must produce the same
        // epoch history. Every case checks the membership plane
        // (cheap); a slice of cases replays the shuffled schedule
        // through the full cryptographic campaign — in-proc or wire —
        // and pins the finalized views bit for bit against the
        // unshuffled in-proc baseline.
        let schedule = churn_schedule();
        let mut rng = StdRng::seed_from_u64(seed);
        let reordered = shuffled_schedule(&schedule, &mut rng);
        prop_assert_eq!(coordinator_trace(&schedule), coordinator_trace(&reordered));

        if full == 0 {
            let wire = seed & 2 != 0;
            let outcomes = epoch_campaign(wire, &reordered);
            let label = format!("wire={wire}");
            assert_epochs_identical(campaign_baseline(), &outcomes, &label);
        }
    }
}
