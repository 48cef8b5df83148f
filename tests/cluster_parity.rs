//! The acceptance property of the multi-backend aggregation cluster:
//! a weekly round driven against N backend shards behind a routing bus
//! — in-proc or over per-shard wire uplinks, with or without a
//! mid-round uplink sever — produces a `DrivenRound` **bit-identical**
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

mod world;

use eyewnder::proto::FaultConfig;
use eyewnder::simnet::{CoordinatorFault, DriverScale, RestartPhase, ShardKill, ShardRestart};
use eyewnder::system::node::WireBus;
use eyewnder::system::{
    Coordinator, DrivenRound, EpochConfig, EpochOutcome, EyewnderSystem, LogicalClock,
};
use world::{
    assert_epochs_identical, assert_rounds_identical, churn_schedule, clear_view, Cell, World,
};

fn world(weeks: u64) -> World {
    // 12 users, 25 sites, full Table 1 visit rate: every cluster size
    // in the matrix gets multi-client shards, small enough for debug CI.
    let cms = world::small_cms();
    World::new(0xC1A5_0005, DriverScale::Fraction(40), 12, cms, weeks)
}

#[test]
fn clustered_round_bit_identical_to_single_backend_for_backends_1_2_4() {
    // The full matrix: backends {1, 2, 4} (plus a mid-round sever drill
    // per multi-shard size, severing a shard's uplink while the report
    // stream is in flight) × {in-proc, wire}. Every cell must reproduce
    // the single-backend round to the last bit.
    let world = world(1);
    let matrix = world.driver.cluster_matrix(&[1, 2, 4]);

    let mut sys = world.ingested();
    let baseline = sys.run_round(1, &[]);
    assert_eq!(baseline.reports, world.cohort());

    for cluster in &matrix {
        for wire in [false, true] {
            let label = format!(
                "backends={} failover={:?} wire={wire}",
                cluster.backends, cluster.failover
            );
            let before = sys.telemetry().totals().replayed;
            let outcome = world::round(&mut sys, Cell::drill(*cluster, wire), 1, &[]);
            assert_rounds_identical(&baseline, &outcome, &label);
            if cluster.failover.is_some() {
                assert!(
                    sys.telemetry().totals().replayed > before,
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
    let world = world(1);
    let silent = [2u32, 9];

    let mut sys = world.ingested();
    let baseline = sys.run_round(1, &silent);
    assert_eq!(baseline.missing, silent);
    assert_eq!(baseline.reports, world.cohort() - silent.len());

    for backends in [1usize, 2, 4] {
        for wire in [false, true] {
            let label = format!("backends={backends} wire={wire}");
            let outcome = world::round(&mut sys, Cell::new(backends, wire), 1, &silent);
            assert_rounds_identical(&baseline, &outcome, &label);
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
    let world = world(2);
    let silent = [2u32, 9];

    let mut baseline = Vec::new();
    {
        let mut sys = world.system();
        sys.config.blinding_cache_rounds = 0;
        for (week, log) in world.weeks.iter().enumerate() {
            sys.ingest(world.driver.scenario(), log);
            baseline.push(sys.run_round(week as u64 + 1, &silent));
        }
    }
    assert_eq!(baseline[0].missing, silent, "recovery path must engage");

    for backends in [1usize, 2] {
        for cache_rounds in [0usize, 2] {
            let mut sys = world.system();
            sys.config.blinding_cache_rounds = cache_rounds;
            for (week, log) in world.weeks.iter().enumerate() {
                sys.ingest(world.driver.scenario(), log);
                let label = format!("backends={backends} cache={cache_rounds} week={week}");
                let cell = Cell::new(backends, false);
                let outcome = world::round(&mut sys, cell, week as u64 + 1, &silent);
                assert_rounds_identical(&baseline[week], &outcome, &label);
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
    let world = world(1);
    let silent = [2u32, 9];
    let reports = world.cohort() - silent.len();

    let mut sys = world.ingested();
    let baseline = sys.run_round(1, &silent);

    for backends in [2usize, 4] {
        for wire in [false, true] {
            let cell = Cell {
                sever: Some(ShardKill {
                    shard: (backends - 1) as u32,
                    // All reports are in flight, plus a few
                    // adjustments: the sever lands mid-recovery.
                    after_sends: reports + 3,
                }),
                ..Cell::new(backends, wire)
            };
            let label = format!("backends={backends} wire={wire}");
            let before = sys.telemetry().totals().replayed;
            let outcome = world::round(&mut sys, cell, 1, &silent);
            assert!(
                sys.telemetry().totals().replayed > before,
                "{label}: the sever must have fired"
            );
            assert_rounds_identical(&baseline, &outcome, &label);
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
/// scripted sever: the outcome, the system that ran it and its world.
fn lossy_round(backends: usize, sever: Option<ShardKill>) -> (DrivenRound, EyewnderSystem, World) {
    let world = world(1);
    let mut sys = world.ingested();
    let cell = Cell {
        sever,
        ..Cell::lossy(backends, Some(HARSH))
    };
    let outcome = world::round(&mut sys, cell, 1, &[]);
    (outcome, sys, world)
}

/// A lost report surfaces as a missing client whose blinding recovery
/// cancels exactly: the view is the clear-text view of everyone else.
fn assert_residue_free(outcome: &DrivenRound, sys: &EyewnderSystem, world: &World, label: &str) {
    let cohort: Vec<u32> = (0..world.cohort() as u32).collect();
    let reporters = world::reporters(&cohort, &outcome.missing);
    assert_eq!(outcome.reports, reporters.len(), "{label}");
    assert!(
        outcome.view == clear_view(sys, &world.weeks[0], &reporters),
        "{label}: the view is not the clear-text view of the reporters"
    );
}

#[test]
fn clustered_wire_round_under_drop_corrupt_recovers_residue_free_and_deterministically() {
    // Per-shard lossy uplinks: reports lost to drops/corruption make
    // their senders missing, recovery runs over the re-established
    // clean links, and the whole faulty path is deterministic — the
    // same seeds produce the same outcome, run to run.
    for backends in [2usize, 4] {
        let label = format!("backends={backends}");
        let (outcome, sys, world) = lossy_round(backends, None);
        let cohort = world.cohort();
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
        assert_residue_free(&outcome, &sys, &world, &label);
        let (again, _, _) = lossy_round(backends, None);
        assert_rounds_identical(&outcome, &again, &label);
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
        let sever = Some(ShardKill {
            shard: backends as u32 - 1,
            // A third of the 12-client cohort's reports are in flight.
            after_sends: 4,
        });
        let (outcome, sys, world) = lossy_round(backends, sever);
        let replayed = sys.telemetry().totals().replayed;
        assert!(replayed > 0, "{label}: the sever must have fired");
        assert_residue_free(&outcome, &sys, &world, &label);
        let (again, _, _) = lossy_round(backends, sever);
        assert_rounds_identical(&outcome, &again, &label);
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
    let world = world(1);
    let silent = [2u32, 9];

    let mut sys = world.ingested();
    let baseline = sys.run_round(1, &silent);
    assert_eq!(baseline.missing, silent, "recovery must engage");

    for cluster in world.driver.restart_matrix(&[2, 4]) {
        let restart = cluster.restart.expect("restart matrix always restarts");
        for wire in [false, true] {
            let label = format!(
                "backends={} shard={} phase={:?} wire={wire}",
                cluster.backends, restart.shard, restart.phase
            );
            let outcome = world::round(&mut sys, Cell::drill(cluster, wire), 1, &silent);
            assert_rounds_identical(&baseline, &outcome, &label);
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
    let mut sys = world(1).ingested();
    let baseline = sys.run_round(1, &[]);

    let mut replayed = std::collections::BTreeMap::new();
    for phase in [
        RestartPhase::Reports,
        RestartPhase::Recovery,
        RestartPhase::MidReplay,
    ] {
        let cell = Cell {
            restart: Some(ShardRestart { shard: 0, phase }),
            ..Cell::new(2, false)
        };
        let outcome = world::round(&mut sys, cell, 1, &[]);
        assert_rounds_identical(&baseline, &outcome, &format!("phase={phase:?}"));
        let metrics = sys.telemetry().totals();
        let prior: u64 = replayed.values().sum();
        replayed.insert(format!("{phase:?}"), metrics.replayed - prior);
    }
    assert_eq!(
        replayed["MidReplay"],
        2 * replayed["Reports"],
        "the idempotence drill replays the same suffix twice: {replayed:?}"
    );
}

/// Runs the full churn campaign against a fresh system, cluster and
/// coordinator over the requested transport.
fn epoch_campaign(world: &World, backends: usize, wire: bool) -> Vec<EpochOutcome> {
    let cell = Cell::new(backends, wire);
    let none = CoordinatorFault::none();
    world
        .campaign(cell, 4, LogicalClock::new(), &churn_schedule(), &none)
        .0
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
    let world = world(1);
    let mut baseline: Option<Vec<EpochOutcome>> = None;
    for backends in [1usize, 2, 4] {
        for wire in [false, true] {
            let label = format!("backends={backends} wire={wire}");
            let outcomes = epoch_campaign(&world, backends, wire);
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

/// Runs the churn campaign in `cell` with cold shard crash-restarts
/// across two epoch boundaries: `victim` after the first completed
/// epoch and shard 0 after the collapsed one (whose abandoned round
/// left no open round behind).
fn interrupted_campaign(world: &World, cell: Cell, victim: u32) -> Vec<EpochOutcome> {
    let mut sys = world.ingested();
    let (mut backend, mut bus) = world::cluster(&mut sys, cell);
    let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(4));
    let schedule = churn_schedule();
    let mut out = Vec::new();
    for (leg, crash) in [(0..1, Some(victim)), (1..3, Some(0)), (3..4, None)] {
        // An undisturbed leg on a logical clock resuming at the
        // coordinator's last tick.
        let mut clock = LogicalClock::starting_at(coordinator.last_tick());
        out.extend(sys.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            &mut clock,
            &schedule[leg],
            &CoordinatorFault::none(),
        ));
        if let Some(shard) = crash {
            backend.crash_shard(shard);
            backend.restart_shard(shard);
        }
    }
    out
}

#[test]
fn epoch_boundary_crash_restart_is_invisible_to_the_campaign() {
    // A shard cold-crashed between epochs must rebuild purely from
    // durable state (the replicated bulletin board plus the round log)
    // and the campaign must carry on bit-identically — including the
    // restart after the collapsed epoch, where the log records an
    // abandoned round rather than a finalized one.
    let world = world(1);
    let baseline = epoch_campaign(&world, 2, false);

    for backends in [2usize, 4] {
        for wire in [false, true] {
            let label = format!("backends={backends} wire={wire}");
            let victim = (backends - 1) as u32;
            let outcomes = interrupted_campaign(&world, Cell::new(backends, wire), victim);
            assert_epochs_identical(&baseline, &outcomes, &label);
        }
    }
}

#[test]
fn clustered_views_serve_audits_like_local_rounds() {
    // The clustered round's merged view answers `#Users` audits
    // exactly as a local round's view does.
    let world = world(1);
    let mut local = world.ingested();
    let local_round = local.run_round(1, &[]);

    let mut clustered = world.ingested();
    clustered.config.cluster_backends = 4;
    let clustered_round = clustered.run_round(1, &[]);

    let mut audits = 0usize;
    for record in world.weeks[0].records() {
        if (record.user as usize) < world.cohort() && audits < 20 {
            let a = local.audit_on(
                &mut WireBus::perfect(),
                &local_round.view,
                record.user,
                record.ad,
            );
            let b = clustered.audit_on(
                &mut WireBus::perfect(),
                &clustered_round.view,
                record.user,
                record.ad,
            );
            assert_eq!(a, b, "user {} ad {}", record.user, record.ad);
            assert!(b.is_some(), "a finalized cluster view must answer");
            audits += 1;
        }
    }
    assert!(audits > 0, "the log must exercise some audits");
}
