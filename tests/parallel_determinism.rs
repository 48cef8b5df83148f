//! The parallel weekly-round pipeline's load-bearing property: for any
//! worker-thread count, the full round (`ingest` + `run_round`,
//! including the fault-tolerance adjustment path) produces
//! **bit-identical** outcomes to the sequential path on the same seed.
//!
//! Sharding only changes *where* work runs, never *what* is computed:
//! each client's batch stays on one worker, OPRF evaluation is pure,
//! and per-shard sketch accumulation merges with associative wrapping
//! addition (see the `ew_system::system` module docs).

use eyewnder::proto::EpochPhase;
use eyewnder::simnet::{
    CoordinatorFault, DriverScale, EpochChurn, ImpressionLog, Scenario, WeeklyDriver,
};
use eyewnder::system::cluster::RoutingBus;
use eyewnder::system::{
    Coordinator, EpochConfig, EpochEvent, EpochOutcome, EyewnderSystem, LogicalClock, RoundOutcome,
    SystemConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const SEED: u64 = 0x00D0_0D1E;
const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

fn driver() -> WeeklyDriver {
    // A multi-client slice of the Table 1 world: 14 users, 28 sites,
    // full per-user visit rate — enough clients that every thread count
    // above gets multi-client shards, small enough for debug-build CI.
    WeeklyDriver::new(SEED, DriverScale::Fraction(35), 14)
}

fn run_rounds(
    scenario: &Scenario,
    weeks: &[ImpressionLog],
    cohort: usize,
    threads: usize,
    silent: &[u32],
) -> (Vec<RoundOutcome>, u64, EyewnderSystem) {
    run_rounds_cached(
        scenario,
        weeks,
        cohort,
        threads,
        silent,
        SystemConfig::default().blinding_cache_rounds,
    )
}

fn run_rounds_cached(
    scenario: &Scenario,
    weeks: &[ImpressionLog],
    cohort: usize,
    threads: usize,
    silent: &[u32],
    cache_rounds: usize,
) -> (Vec<RoundOutcome>, u64, EyewnderSystem) {
    let config = SystemConfig {
        seed: SEED,
        ..SystemConfig::default()
    }
    .with_threads(threads)
    .with_blinding_cache(cache_rounds);
    let mut sys = EyewnderSystem::new(config, cohort);
    let mut outcomes = Vec::new();
    for (week, log) in weeks.iter().enumerate() {
        sys.ingest(scenario, log);
        outcomes.push(sys.run_round(week as u64 + 1, silent));
    }
    (outcomes, sys.oprf_requests(), sys)
}

fn assert_outcomes_identical(a: &[RoundOutcome], b: &[RoundOutcome], threads: usize) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.round, y.round, "threads={threads}");
        assert_eq!(x.reports, y.reports, "threads={threads}");
        assert_eq!(x.missing, y.missing, "threads={threads}");
        assert_eq!(x.corrupt_frames, y.corrupt_frames, "threads={threads}");
        // Bit-identical views: exact f64 equality on the canonical
        // (ad, estimate) representation, plus full struct equality.
        assert_eq!(
            x.view.sorted_estimates(),
            y.view.sorted_estimates(),
            "threads={threads} round={}",
            x.round
        );
        assert_eq!(x.view, y.view, "threads={threads}");
        assert_eq!(
            x.view.users_threshold().to_bits(),
            y.view.users_threshold().to_bits(),
            "threads={threads}: Users_th must match to the last bit"
        );
    }
}

#[test]
fn weekly_rounds_bit_identical_for_all_thread_counts() {
    let driver = driver();
    let weeks = driver.weeks(2);
    let cohort = driver.cohort();

    let (baseline, baseline_requests, baseline_sys) =
        run_rounds(driver.scenario(), &weeks, cohort, 1, &[]);
    for threads in THREAD_COUNTS {
        let (outcomes, requests, sys) = run_rounds(driver.scenario(), &weeks, cohort, threads, &[]);
        assert_outcomes_identical(&baseline, &outcomes, threads);
        assert_eq!(
            requests, baseline_requests,
            "threads={threads}: parallel accounting must stay exact"
        );
        // Identical ad keys: every simulator ad maps to the same
        // protocol ad ID regardless of which worker resolved it.
        for log in &weeks {
            for sim_ad in log.distinct_ads() {
                assert_eq!(
                    sys.ad_key_of(sim_ad),
                    baseline_sys.ad_key_of(sim_ad),
                    "threads={threads} ad={sim_ad}"
                );
            }
        }
    }
}

#[test]
fn weekly_rounds_over_wire_bit_identical_for_all_thread_counts() {
    // The wire twin of the test above: for every thread count the
    // framed round must match the threads=1 baseline bit for bit.
    use eyewnder::proto::FaultConfig;

    let driver = driver();
    let weeks = driver.weeks(1);
    let cohort = driver.cohort();

    let run_wire = |threads: usize| {
        let config = SystemConfig {
            seed: SEED,
            ..SystemConfig::default()
        }
        .with_threads(threads);
        let mut sys = EyewnderSystem::new(config, cohort);
        sys.ingest(driver.scenario(), &weeks[0]);
        let map = sys.cluster_map();
        let mut backend = sys.new_cluster(&map);
        let mut bus = RoutingBus::over_wire(map, Some(FaultConfig::perfect()), None);
        vec![sys.run_round_on(&mut backend, &mut bus, 1, &[])]
    };

    let baseline = run_wire(1);
    assert_eq!(baseline[0].reports, cohort, "lossless wire delivers all");
    for threads in THREAD_COUNTS {
        let outcomes = run_wire(threads);
        assert_outcomes_identical(&baseline, &outcomes, threads);
    }
}

#[test]
fn cached_blinding_multiweek_bit_identical_to_cold_start() {
    // The cross-week blinding-stream cache must be unobservable in
    // round outcomes: a two-week campaign with silent clients (so each
    // week's recovery adjustments rederive the report round's streams —
    // the cache's best case) is run cold (cache disabled) and warm
    // (cache retaining 2 rounds) across threads {1, 4}, and every cell
    // of every `RoundOutcome` must match the cold single-threaded
    // baseline bit for bit.
    let driver = driver();
    let weeks = driver.weeks(2);
    let cohort = driver.cohort();
    let silent = [1u32, 8];

    let (baseline, baseline_requests, _) =
        run_rounds_cached(driver.scenario(), &weeks, cohort, 1, &silent, 0);
    assert_eq!(baseline[0].missing, silent, "recovery path must engage");
    for threads in [1usize, 4] {
        for cache_rounds in [0usize, 2] {
            let (outcomes, requests, _) = run_rounds_cached(
                driver.scenario(),
                &weeks,
                cohort,
                threads,
                &silent,
                cache_rounds,
            );
            assert_outcomes_identical(&baseline, &outcomes, threads);
            assert_eq!(
                requests, baseline_requests,
                "threads={threads} cache={cache_rounds}: accounting must stay exact"
            );
        }
    }
}

/// The fixed churn schedule the registration-order property drives:
/// formation, a churn epoch with clean leaves and a silent drop, a
/// below-`min_clients` collapse, and a refill over the survivors.
fn churn_schedule() -> Vec<EpochChurn> {
    let spec = |joins: Vec<u32>, leaves: Vec<u32>, drops: Vec<u32>| EpochChurn {
        joins,
        leaves,
        drops,
    };
    vec![
        spec((0..8).collect(), vec![], vec![]),
        spec(vec![8, 9], vec![1], vec![2]),
        // Five of eight drop while one leaves cleanly: 3 < min_clients,
        // and the pending leave survives the collapse into epoch 4's
        // admission fold.
        spec(vec![], vec![5], vec![0, 3, 4, 6, 7]),
        spec(vec![10, 11], vec![], vec![]),
    ]
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
        let started = coordinator
            .tick(now)
            .iter()
            .any(|e| matches!(e, EpochEvent::EpochStarted { .. }));
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
        let members = coordinator.membership().members().to_vec();
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
        let collapsed = coordinator
            .tick(now)
            .iter()
            .any(|e| matches!(e, EpochEvent::Collapsed { .. }));
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
/// cluster with the given transport and thread count.
fn epoch_campaign(threads: usize, wire: bool, schedule: &[EpochChurn]) -> Vec<EpochOutcome> {
    let driver = driver();
    let weeks = driver.weeks(1);
    let config = SystemConfig {
        seed: SEED,
        ..SystemConfig::default()
    }
    .with_threads(threads);
    let mut sys = EyewnderSystem::new(config, driver.cohort());
    sys.ingest(driver.scenario(), &weeks[0]);
    sys.config.cluster_backends = 2;
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(4));
    let mut clock = LogicalClock::new();
    let fault = CoordinatorFault::none();
    if wire {
        let mut bus = RoutingBus::over_wire(map, None, None);
        sys.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            &mut clock,
            schedule,
            &fault,
        )
    } else {
        let mut bus = RoutingBus::in_proc(map, None);
        sys.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            &mut clock,
            schedule,
            &fault,
        )
    }
}

fn campaign_baseline() -> &'static [EpochOutcome] {
    static BASELINE: OnceLock<Vec<EpochOutcome>> = OnceLock::new();
    BASELINE.get_or_init(|| epoch_campaign(1, false, &churn_schedule()))
}

proptest! {
    #[test]
    fn epoch_registration_order_is_unobservable(seed in any::<u64>(), full in 0u32..16) {
        // Within a tick window the coordinator accumulates joins,
        // leaves and drops in sets and folds them only at the tick
        // boundary, so *any* registration order must produce the same
        // epoch history. Every case checks the membership plane
        // (cheap); a slice of cases replays the shuffled schedule
        // through the full cryptographic campaign — threads {1, 4},
        // in-proc and wire — and pins the finalized views bit for bit
        // against the unshuffled single-threaded baseline.
        let schedule = churn_schedule();
        let mut rng = StdRng::seed_from_u64(seed);
        let reordered = shuffled_schedule(&schedule, &mut rng);
        prop_assert_eq!(coordinator_trace(&schedule), coordinator_trace(&reordered));

        if full == 0 {
            let threads = if seed & 1 == 0 { 1 } else { 4 };
            let wire = seed & 2 != 0;
            let outcomes = epoch_campaign(threads, wire, &reordered);
            let baseline = campaign_baseline();
            prop_assert_eq!(outcomes.len(), baseline.len());
            for (x, y) in baseline.iter().zip(&outcomes) {
                prop_assert_eq!(x.epoch, y.epoch);
                prop_assert_eq!(x.round, y.round);
                prop_assert_eq!(&x.members, &y.members);
                prop_assert_eq!(x.collapsed, y.collapsed);
                let mut dropped = y.dropped.clone();
                dropped.sort_unstable();
                let mut base_dropped = x.dropped.clone();
                base_dropped.sort_unstable();
                prop_assert_eq!(base_dropped, dropped);
                match (&x.outcome, &y.outcome) {
                    (None, None) => {}
                    (Some(p), Some(q)) => {
                        prop_assert_eq!(p.reports, q.reports);
                        prop_assert_eq!(&p.missing, &q.missing);
                        prop_assert_eq!(&p.view, &q.view);
                        prop_assert_eq!(
                            p.view.users_threshold().to_bits(),
                            q.view.users_threshold().to_bits()
                        );
                    }
                    _ => panic!("threads={threads} wire={wire}: finalization diverged"),
                }
            }
        }
    }
}

#[test]
fn recovery_round_bit_identical_under_parallelism() {
    // Silent clients force the two-round fault-tolerance path: the
    // adjustment vectors are derived on worker shards and must cancel
    // to the same aggregate for every thread count.
    let driver = driver();
    let weeks = driver.weeks(1);
    let cohort = driver.cohort();
    let silent = [3u32, 7, 11];

    let (baseline, _, _) = run_rounds(driver.scenario(), &weeks, cohort, 1, &silent);
    assert_eq!(baseline[0].missing, silent, "the silent clients go missing");
    for threads in THREAD_COUNTS {
        let (outcomes, _, _) = run_rounds(driver.scenario(), &weeks, cohort, threads, &silent);
        assert_outcomes_identical(&baseline, &outcomes, threads);
    }
}
