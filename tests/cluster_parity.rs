//! The acceptance property of the multi-backend aggregation cluster:
//! a weekly round driven against N backend shards behind a routing bus
//! — in-proc or over per-shard wire uplinks, with or without a
//! mid-round uplink sever — produces a `RoundOutcome` **bit-identical**
//! to the single-backend round (`run_round`'s default cluster of one,
//! itself pinned ≡ the bare `RoundState` walk by `cluster.rs`'s unit
//! tests), for every cluster size. Blinded cell
//! accumulation is associative and commutative and key-space ownership
//! partitions the per-user validation state, so sharding (and a
//! re-linked uplink) must be unobservable in the output.
//!
//! Fault coverage: per-shard wire uplinks under drop+corrupt+duplicate+
//! reorder, with and without a sever, recover residue-free and
//! deterministically (same seeds → same outcome), like the
//! single-backend wire round.

use eyewnder::proto::FaultConfig;
use eyewnder::simnet::{
    ClusterScenario, CoordinatorFault, DriverScale, EpochChurn, RestartPhase, ShardKill,
    ShardRestart, WeeklyDriver,
};
use eyewnder::system::cluster::{ClusterBackend, RoutingBus, ShardFailure};
use eyewnder::system::node::WireBus;
use eyewnder::system::{
    Coordinator, EpochConfig, EpochOutcome, EyewnderSystem, LogicalClock, RoundOutcome, ServiceBus,
    SystemConfig,
};

const fn seed() -> u64 {
    0xC1A5_0005
}

fn driver() -> WeeklyDriver {
    // 12 users, 25 sites, full Table 1 visit rate: every cluster size
    // in the matrix gets multi-client shards, small enough for debug CI.
    WeeklyDriver::new(seed(), DriverScale::Fraction(40), 12)
}

fn system(cohort: usize) -> EyewnderSystem {
    system_cached(cohort, SystemConfig::default().blinding_cache_rounds)
}

fn system_cached(cohort: usize, cache_rounds: usize) -> EyewnderSystem {
    EyewnderSystem::new(
        SystemConfig {
            seed: seed(),
            // Smaller sketch than the deployment default: the parity
            // matrix runs many rounds in debug CI, and dimension parity
            // is independent of the cell count.
            cms: eyewnder::sketch::CmsParams::new(4, 512, 0xC1A5),
            blinding_cache_rounds: cache_rounds,
            ..SystemConfig::default()
        },
        cohort,
    )
}

fn assert_bit_identical(a: &RoundOutcome, b: &RoundOutcome, label: &str) {
    assert_eq!(a.round, b.round, "{label}");
    assert_eq!(a.reports, b.reports, "{label}");
    assert_eq!(a.missing, b.missing, "{label}");
    assert_eq!(a.corrupt_frames, b.corrupt_frames, "{label}");
    assert_eq!(a.view, b.view, "{label}");
    assert_eq!(
        a.view.sorted_estimates(),
        b.view.sorted_estimates(),
        "{label}"
    );
    assert_eq!(
        a.view.users_threshold().to_bits(),
        b.view.users_threshold().to_bits(),
        "{label}: Users_th must match to the last bit"
    );
}

fn failure_plan(kill: Option<ShardKill>) -> Option<ShardFailure> {
    kill.map(|k| ShardFailure {
        shard: k.shard,
        after_sends: k.after_sends,
    })
}

/// Runs one clustered round per the scenario over the requested
/// transport.
fn clustered_round(
    sys: &mut EyewnderSystem,
    scenario: ClusterScenario,
    wire: bool,
    round: u64,
    silent: &[u32],
) -> RoundOutcome {
    sys.config.cluster_backends = scenario.backends;
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    if wire {
        let mut bus = RoutingBus::over_wire(map, None, failure_plan(scenario.failover));
        sys.run_round_on(&mut backend, &mut bus, round, silent)
    } else {
        let mut bus = RoutingBus::in_proc(map, failure_plan(scenario.failover));
        sys.run_round_on(&mut backend, &mut bus, round, silent)
    }
}

/// Envelopes re-delivered so far in `sys`'s lifetime — a sever's
/// in-flight re-sends show up here.
fn replayed(sys: &EyewnderSystem) -> u64 {
    sys.telemetry().totals().replayed
}

#[test]
fn clustered_round_bit_identical_to_single_backend_for_backends_1_2_4() {
    // The full matrix: backends {1, 2, 4} (plus a mid-round sever drill
    // per multi-shard size, severing a shard's uplink while the report
    // stream is in flight) × {in-proc, wire}. Every cell must reproduce
    // the single-backend round to the last bit.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let matrix = driver.cluster_matrix(&[1, 2, 4]);

    let mut sys = system(cohort);
    sys.ingest(scenario, &weeks[0]);
    let baseline = sys.run_round(1, &[]);
    assert_eq!(baseline.reports, cohort);

    for cluster in &matrix {
        for wire in [false, true] {
            let label = format!(
                "backends={} failover={:?} wire={wire}",
                cluster.backends, cluster.failover
            );
            let before = replayed(&sys);
            let outcome = clustered_round(&mut sys, *cluster, wire, 1, &[]);
            assert_bit_identical(&baseline, &outcome, &label);
            if cluster.failover.is_some() {
                assert!(
                    replayed(&sys) > before,
                    "{label}: the sever must have fired"
                );
            }
        }
    }
}

#[test]
fn clustered_recovery_round_bit_identical_to_single_backend() {
    // Silent clients force the §6 recovery round: adjustments are
    // routed to each surviving client's owning shard and subtracted
    // there, and the merged view must still match the single backend's.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let silent = [2u32, 9];

    let mut sys = system(cohort);
    sys.ingest(scenario, &weeks[0]);
    let baseline = sys.run_round(1, &silent);
    assert_eq!(baseline.missing, silent);
    assert_eq!(baseline.reports, cohort - silent.len());

    for backends in [1usize, 2, 4] {
        for wire in [false, true] {
            let cluster = ClusterScenario {
                backends,
                failover: None,
                restart: None,
            };
            let label = format!("backends={backends} wire={wire}");
            let outcome = clustered_round(&mut sys, cluster, wire, 1, &silent);
            assert_bit_identical(&baseline, &outcome, &label);
        }
    }
}

#[test]
fn cached_blinding_clustered_rounds_bit_identical_to_cold_start() {
    // Two weekly rounds with silent clients (each week's recovery
    // adjustments re-derive the missing peers' keystreams) driven through
    // backends {1, 2} × the accepted-and-ignored
    // blinding-cache knob {0, 2} must all reproduce the knob-off
    // single-backend local rounds bit for bit, week 2 included.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(2);
    let silent = [2u32, 9];

    let mut baseline = Vec::new();
    {
        let mut sys = system_cached(cohort, 0);
        for (week, log) in weeks.iter().enumerate() {
            sys.ingest(scenario, log);
            baseline.push(sys.run_round(week as u64 + 1, &silent));
        }
    }
    assert_eq!(baseline[0].missing, silent, "recovery path must engage");

    for backends in [1usize, 2] {
        for cache_rounds in [0usize, 2] {
            let mut sys = system_cached(cohort, cache_rounds);
            for (week, log) in weeks.iter().enumerate() {
                sys.ingest(scenario, log);
                let cluster = ClusterScenario {
                    backends,
                    failover: None,
                    restart: None,
                };
                let label = format!("backends={backends} cache={cache_rounds} week={week}");
                let outcome = clustered_round(&mut sys, cluster, false, week as u64 + 1, &silent);
                assert_bit_identical(&baseline[week], &outcome, &label);
            }
        }
    }
}

#[test]
fn mid_round_failover_during_recovery_still_finalizes_bit_identically() {
    // The sever lands *after* the shard absorbed its reports but
    // *while* recovery adjustments are in flight. Its absorbed state
    // never moves; the bus re-sends the in-flight adjustments on a
    // fresh link — a clean one, as recovery's link is — so the
    // finalized view still cancels every blinding term exactly.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let silent = [2u32, 9];
    let reports = cohort - silent.len();

    let mut sys = system(cohort);
    sys.ingest(scenario, &weeks[0]);
    let baseline = sys.run_round(1, &silent);

    for backends in [2usize, 4] {
        for wire in [false, true] {
            let cluster = ClusterScenario {
                backends,
                failover: Some(ShardKill {
                    shard: (backends - 1) as u32,
                    // All reports are in flight, plus a few
                    // adjustments: the sever lands mid-recovery.
                    after_sends: reports + 3,
                }),
                restart: None,
            };
            let label = format!("backends={backends} wire={wire}");
            let before = replayed(&sys);
            let outcome = clustered_round(&mut sys, cluster, wire, 1, &silent);
            assert!(
                replayed(&sys) > before,
                "{label}: the sever must have fired"
            );
            assert_bit_identical(&baseline, &outcome, &label);
        }
    }
}

/// Harsh per-shard uplinks: drops, corruption, duplicates and
/// reordering, all fixed by the seed.
const HARSH: FaultConfig = FaultConfig {
    drop_prob: 0.25,
    corrupt_prob: 0.2,
    duplicate_prob: 0.1,
    reorder_prob: 0.2,
    seed: 29,
};

/// One round of the first week over [`HARSH`] uplinks with an optional
/// scripted sever: the outcome, the cohort size and the envelopes
/// re-delivered.
fn lossy_wire_round(backends: usize, failure: Option<ShardFailure>) -> (RoundOutcome, usize, u64) {
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let mut sys = system(cohort);
    sys.config.cluster_backends = backends;
    sys.ingest(scenario, &weeks[0]);
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    let mut bus = RoutingBus::over_wire(map, Some(HARSH), failure);
    let outcome = sys.run_round_on(&mut backend, &mut bus, 1, &[]);
    (outcome, cohort, replayed(&sys))
}

/// A lost report surfaces as a missing client whose blinding recovery
/// cancels, so no estimate can exceed the cohort.
fn assert_residue_free(outcome: &RoundOutcome, cohort: usize, label: &str) {
    for est in outcome.view.distribution() {
        assert!(
            est <= cohort as f64 + 5.0,
            "{label}: estimate {est} is blinding residue"
        );
    }
}

#[test]
fn clustered_wire_round_under_drop_corrupt_recovers_residue_free_and_deterministically() {
    // Per-shard lossy uplinks: reports lost to drops/corruption make
    // their senders missing, recovery runs over the re-established
    // clean links, and the whole faulty path is deterministic — the
    // same seeds produce the same outcome, run to run.
    for backends in [2usize, 4] {
        let label = format!("backends={backends}");
        let (outcome, cohort, _) = lossy_wire_round(backends, None);
        // The assertion must be falsifiable: with these probabilities
        // and seeds the faults deterministically fire, so a regression
        // that silently disables the per-shard FaultConfig (lossless
        // uplinks) fails here.
        assert!(
            outcome.reports < cohort || outcome.corrupt_frames > 0,
            "{label}: the harsh links must actually bite"
        );
        assert!(
            !outcome.missing.is_empty(),
            "{label}: lost reports must surface as missing clients"
        );
        assert_residue_free(&outcome, cohort, &label);
        let (again, _, _) = lossy_wire_round(backends, None);
        assert_bit_identical(&outcome, &again, &label);
    }
}

#[test]
fn severed_uplink_over_a_lossy_wire_recovers_residue_free_and_deterministically() {
    // The sever's fresh link is as lossy as the one it replaces: the
    // re-sent reports face the same fault profile, whatever they lose
    // surfaces as missing clients, and the whole path stays
    // deterministic.
    for backends in [2usize, 4] {
        let label = format!("backends={backends}");
        let failure = Some(ShardFailure {
            shard: backends as u32 - 1,
            // A third of the 12-client cohort's reports are in flight.
            after_sends: 4,
        });
        let (outcome, cohort, replayed) = lossy_wire_round(backends, failure);
        assert!(replayed > 0, "{label}: the sever must have fired");
        assert_residue_free(&outcome, cohort, &label);
        let (again, _, _) = lossy_wire_round(backends, failure);
        assert_bit_identical(&outcome, &again, &label);
    }
}

/// Runs one clustered round with a scripted cold crash-restart over the
/// requested transport.
fn restart_round(
    sys: &mut EyewnderSystem,
    backends: usize,
    restart: ShardRestart,
    wire: bool,
    round: u64,
    silent: &[u32],
) -> RoundOutcome {
    sys.config.cluster_backends = backends;
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    backend.script_restart(restart);
    if wire {
        let mut bus = RoutingBus::over_wire(map, None, None);
        sys.run_round_on(&mut backend, &mut bus, round, silent)
    } else {
        let mut bus = RoutingBus::in_proc(map, None);
        sys.run_round_on(&mut backend, &mut bus, round, silent)
    }
}

#[test]
fn crash_restart_parity_for_every_shard_phase_and_transport() {
    // The cold crash-restart acceptance matrix: every shard index of
    // backends {2, 4} is killed mid-round and rebuilt from the unified
    // round log alone (enrollment replica + checkpoint + `Absorbed`
    // replay), at every phase boundary — after reports, after recovery,
    // and mid-replay (a second crash right after the first replay, the
    // idempotence drill) — in-proc and over the wire. Every cell must
    // reproduce the single-backend round to the last bit: a reboot is
    // not allowed to leave a fingerprint.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let silent = [2u32, 9];

    let mut sys = system(cohort);
    sys.ingest(scenario, &weeks[0]);
    let baseline = sys.run_round(1, &silent);
    assert_eq!(baseline.missing, silent, "recovery must engage");

    for cluster in driver.restart_matrix(&[2, 4]) {
        let restart = cluster.restart.expect("restart matrix always restarts");
        for wire in [false, true] {
            let label = format!(
                "backends={} shard={} phase={:?} wire={wire}",
                cluster.backends, restart.shard, restart.phase
            );
            let outcome = restart_round(&mut sys, cluster.backends, restart, wire, 1, &silent);
            assert_bit_identical(&baseline, &outcome, &label);
        }
    }

    // The drills demonstrably exercised the replay path, and the
    // unified log ends every round truncated to depth zero.
    let totals = sys.telemetry().totals();
    assert!(totals.replayed > 0, "restarts must replay from the log");
    assert_eq!(totals.journal_depth, 0, "finalize truncates the log");
    assert!(totals.truncated > 0, "truncation is observable");
}

#[test]
fn restart_phases_cover_reports_recovery_and_midreplay() {
    // A focused spot-check that each scripted phase actually lands
    // where it claims (cheap single-transport pass): the MidReplay
    // drill must replay at least twice as much as the Reports drill on
    // the same shard — it restarts the same shard twice.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let mut sys = system(cohort);
    sys.ingest(scenario, &weeks[0]);
    let baseline = sys.run_round(1, &[]);

    let mut replayed = std::collections::BTreeMap::new();
    for phase in [
        RestartPhase::Reports,
        RestartPhase::Recovery,
        RestartPhase::MidReplay,
    ] {
        let restart = ShardRestart { shard: 0, phase };
        let outcome = restart_round(&mut sys, 2, restart, false, 1, &[]);
        assert_bit_identical(&baseline, &outcome, &format!("phase={phase:?}"));
        let metrics = sys
            .telemetry()
            .round_metrics(1)
            .expect("round 1 was observed");
        let prior: u64 = replayed.values().sum();
        replayed.insert(format!("{phase:?}"), metrics.replayed - prior);
    }
    assert_eq!(
        replayed["MidReplay"],
        2 * replayed["Reports"],
        "the idempotence drill replays the same suffix twice: {replayed:?}"
    );
}

/// The fixed churn schedule the epoch-campaign parity tests drive:
/// formation, a churn epoch with a clean leave and a silent drop, a
/// scripted below-`min_clients` collapse, and a refill epoch over the
/// survivors. Four epochs, three of which finalize a round.
fn churn_schedule() -> Vec<EpochChurn> {
    let spec = |joins: Vec<u32>, leaves: Vec<u32>, drops: Vec<u32>| EpochChurn {
        joins,
        leaves,
        drops,
    };
    vec![
        spec((0..8).collect(), vec![], vec![]),
        spec(vec![8, 9], vec![1], vec![2]),
        // Five of eight members drop mid-reports: 3 < min_clients 4.
        spec(vec![], vec![], vec![0, 3, 4, 5, 6]),
        spec(vec![10, 11], vec![], vec![]),
    ]
}

fn fresh_coordinator() -> Coordinator {
    Coordinator::new(EpochConfig::default().with_min_clients(4))
}

/// An undisturbed campaign leg: the deadline driver on a logical clock
/// resuming at the coordinator's last tick, with nothing scripted to go
/// wrong.
fn run_epochs<B: ServiceBus>(
    sys: &mut EyewnderSystem,
    backend: &mut ClusterBackend,
    bus: &mut B,
    coordinator: &mut Coordinator,
    schedule: &[EpochChurn],
) -> Vec<EpochOutcome> {
    let mut clock = LogicalClock::starting_at(coordinator.last_tick());
    sys.run_epochs_deadline_on(
        backend,
        bus,
        coordinator,
        &mut clock,
        schedule,
        &CoordinatorFault::none(),
    )
}

/// Runs the full churn campaign against a fresh cluster + coordinator
/// over the requested transport.
fn epoch_campaign(
    sys: &mut EyewnderSystem,
    backends: usize,
    wire: bool,
    schedule: &[EpochChurn],
) -> Vec<EpochOutcome> {
    sys.config.cluster_backends = backends;
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    let mut coordinator = fresh_coordinator();
    if wire {
        let mut bus = RoutingBus::over_wire(map, None, None);
        run_epochs(sys, &mut backend, &mut bus, &mut coordinator, schedule)
    } else {
        let mut bus = RoutingBus::in_proc(map, None);
        run_epochs(sys, &mut backend, &mut bus, &mut coordinator, schedule)
    }
}

fn assert_epochs_identical(a: &[EpochOutcome], b: &[EpochOutcome], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.epoch, y.epoch, "{label}");
        assert_eq!(x.round, y.round, "{label}");
        assert_eq!(x.members, y.members, "{label}");
        assert_eq!(x.joined, y.joined, "{label}");
        assert_eq!(x.dropped, y.dropped, "{label}");
        assert_eq!(x.collapsed, y.collapsed, "{label}");
        match (&x.outcome, &y.outcome) {
            (None, None) => {}
            (Some(p), Some(q)) => assert_bit_identical(p, q, label),
            _ => panic!(
                "{label}: one cell finalized epoch {}, the other did not",
                x.epoch
            ),
        }
    }
}

#[test]
fn epoch_churn_campaign_bit_identical_across_the_cluster_matrix() {
    // The tentpole acceptance matrix: a four-epoch churn campaign
    // (joins, a clean leave, silent drops, one below-min_clients
    // collapse, a refill) driven by the tick-based coordinator must
    // finalize **bit-identically** across backends {1, 2, 4} ×
    // {in-proc, wire}. Membership is logical-time folded, so neither
    // the transport nor the cluster size may leave a fingerprint on any
    // epoch's view.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let schedule = churn_schedule();

    let mut baseline: Option<Vec<EpochOutcome>> = None;
    for backends in [1usize, 2, 4] {
        for wire in [false, true] {
            let label = format!("backends={backends} wire={wire}");
            let mut sys = system(cohort);
            sys.ingest(scenario, &weeks[0]);
            let outcomes = epoch_campaign(&mut sys, backends, wire, &schedule);
            match &baseline {
                None => {
                    // Structural checks once, on the baseline cell:
                    // the schedule plays out as scripted.
                    assert_eq!(outcomes.len(), 4, "{label}");
                    assert_eq!(outcomes[0].members, (0..8).collect::<Vec<u32>>());
                    assert_eq!(
                        outcomes[0]
                            .outcome
                            .as_ref()
                            .expect("epoch 1 completes")
                            .reports,
                        8
                    );
                    let second = outcomes[1].outcome.as_ref().expect("epoch 2 completes");
                    assert_eq!(second.reports, 9, "clean leaver still reports");
                    assert_eq!(second.missing, vec![2], "the drop goes silent");
                    assert!(outcomes[2].collapsed, "epoch 3 falls under min_clients");
                    assert!(outcomes[2].outcome.is_none(), "no view from a collapse");
                    assert_eq!(outcomes[3].members, vec![7, 8, 9, 10, 11]);
                    assert_eq!(
                        outcomes[3]
                            .outcome
                            .as_ref()
                            .expect("epoch 4 completes")
                            .reports,
                        5
                    );
                    baseline = Some(outcomes);
                }
                Some(base) => assert_epochs_identical(base, &outcomes, &label),
            }
        }
    }
}

/// Runs the campaign with cold shard crash-restarts across two epoch
/// boundaries: after the first completed epoch and after the collapsed
/// one (whose abandoned round left no open round behind).
fn interrupted_campaign<B: ServiceBus>(
    sys: &mut EyewnderSystem,
    backend: &mut ClusterBackend,
    bus: &mut B,
    coordinator: &mut Coordinator,
    schedule: &[EpochChurn],
    victim: u32,
) -> Vec<EpochOutcome> {
    let mut out = run_epochs(sys, backend, bus, coordinator, &schedule[..1]);
    backend.crash_shard(victim);
    backend.restart_shard(victim);
    out.extend(run_epochs(sys, backend, bus, coordinator, &schedule[1..3]));
    backend.crash_shard(0);
    backend.restart_shard(0);
    out.extend(run_epochs(sys, backend, bus, coordinator, &schedule[3..]));
    out
}

#[test]
fn epoch_boundary_crash_restart_is_invisible_to_the_campaign() {
    // A shard cold-crashed between epochs must rebuild purely from
    // durable state (the replicated bulletin board plus the round log)
    // and the campaign must carry on bit-identically — including the
    // restart after the collapsed epoch, where the log records an
    // abandoned round rather than a finalized one.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let schedule = churn_schedule();

    let mut base_sys = system(cohort);
    base_sys.ingest(scenario, &weeks[0]);
    let baseline = epoch_campaign(&mut base_sys, 2, false, &schedule);

    for backends in [2usize, 4] {
        for wire in [false, true] {
            let label = format!("backends={backends} wire={wire}");
            let mut sys = system(cohort);
            sys.ingest(scenario, &weeks[0]);
            sys.config.cluster_backends = backends;
            let map = sys.cluster_map();
            let mut backend = sys.new_cluster(&map);
            let mut coordinator = fresh_coordinator();
            let victim = (backends - 1) as u32;
            let outcomes = if wire {
                let mut bus = RoutingBus::over_wire(map, None, None);
                interrupted_campaign(
                    &mut sys,
                    &mut backend,
                    &mut bus,
                    &mut coordinator,
                    &schedule,
                    victim,
                )
            } else {
                let mut bus = RoutingBus::in_proc(map, None);
                interrupted_campaign(
                    &mut sys,
                    &mut backend,
                    &mut bus,
                    &mut coordinator,
                    &schedule,
                    victim,
                )
            };
            assert_epochs_identical(&baseline, &outcomes, &label);
        }
    }
}

#[test]
fn clustered_views_serve_audits_like_local_rounds() {
    // The clustered round lands its merged view on the system's
    // resident backend, so `#Users` audits answer from it exactly as
    // they would after a local round.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let mut local = system(cohort);
    local.ingest(scenario, &weeks[0]);
    local.run_round(1, &[]);

    let mut clustered = system(cohort);
    clustered.config.cluster_backends = 4;
    clustered.ingest(scenario, &weeks[0]);
    clustered.run_round(1, &[]);

    let mut audits = 0usize;
    for record in weeks[0].records() {
        if (record.user as usize) < cohort && audits < 20 {
            let a = local.audit_on(&mut WireBus::perfect(), record.user, record.ad);
            let b = clustered.audit_on(&mut WireBus::perfect(), record.user, record.ad);
            assert_eq!(a, b, "user {} ad {}", record.user, record.ad);
            assert!(b.is_some(), "a finalized cluster view must answer");
            audits += 1;
        }
    }
    assert!(audits > 0, "the log must exercise some audits");
}
