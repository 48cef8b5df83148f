//! Soak coverage for the crash-survivable, deadline-driven epoch
//! coordinator (the PR 9 tentpole):
//!
//! * **Jitter insensitivity** — any `VirtualClock` step schedule must
//!   produce `EpochOutcome`s bit-identical to the `LogicalClock`
//!   baseline, across backends {1, 2, 4} × {in-proc, wire} (a
//!   proptest; the CI `coordinator-soak` job runs it at
//!   `PROPTEST_CASES=256` in release).
//! * **Crash parity** — a coordinator killed and rebuilt from its
//!   control-journal checkpoint at *every* lifecycle point (warmup,
//!   reports, recovery, finalize, mid-grace) must leave campaign
//!   outcomes bit-identical to the no-crash baseline across the same
//!   matrix: a restart is not allowed to leave a fingerprint.
//! * **Crash placement** — the coordinator drives the round, so each
//!   crash point lands at a place in the round the flight recorder's
//!   order pins: a `Recovery` crash after the `MissingClients` wave
//!   and before finalize, and the restored coordinator still finalizes
//!   the clear-text view.
//! * **Grace window** — a report that blows the deadline but arrives
//!   inside the grace window is parked (journaled) and its sender folds
//!   into the next epoch: never silently dropped. Beyond the window it
//!   is refused for good.
//! * **Randomized schedule** — a fixed-seed random mix of crash points,
//!   storms and clock jitter replays bit-identically, run to run.
//! * **Forged join** — a `Join` from and for a user with no key on the
//!   bulletin board is refused, and the campaign runs as if it had never
//!   been sent.
//! * **Restore is the identity** — at every tick of the churn schedule
//!   the coordinator's checkpoint survives the journal codec, restoring
//!   it gives it back, and the restored coordinator runs the rest of the
//!   campaign step for step like the original.

mod world;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

use eyewnder::proto::{
    error_code, Envelope, EpochPhase, FaultConfig, JournalEvent, JournalRecord, Message, NodeId,
    TransportError,
};
use eyewnder::simnet::RestartPhase::{MidReplay, Recovery, Reports};
use eyewnder::simnet::{
    CoordinatorCrash, CoordinatorFault, CrashPoint, DriverScale, EpochChurn, ShardKill,
    ShardRestart, StragglerStorm,
};
use eyewnder::system::node::{RoundPhase, ServiceBus};
use eyewnder::system::{
    epoch_phase_index, ChurnMetrics, Clock, Coordinator, EpochConfig, EpochEvent, EpochOutcome,
    EyewnderSystem, LogicalClock, ReplayMetrics, VirtualClock,
};
use std::collections::BTreeSet;
use world::{assert_epochs_identical, churn_schedule, clear_view, Cell, World};

const SEED: u64 = 0xC0DE_0009;

fn world() -> World {
    // Same world as tests/cluster_parity.rs: 12 users, 25 sites, full
    // Table 1 visit rate — multi-client shards at every cluster size,
    // small enough for debug CI.
    let cms = world::small_cms();
    World::new(0xC00D_0009, DriverScale::Fraction(40), 12, cms, 1)
}

/// The churn schedule's campaign on a fresh system, through the deadline
/// runner with the given clock, fault, transport and cluster size.
fn deadline_campaign(
    backends: usize,
    wire: bool,
    clock: impl Clock,
    fault: &CoordinatorFault,
) -> (Vec<EpochOutcome>, EyewnderSystem) {
    let cell = Cell::new(backends, wire);
    world().campaign(cell, 4, clock, &churn_schedule(), fault)
}

/// The no-fault, logical-clock, single-shard, in-proc baseline every
/// cell is held against, plus the churn telemetry it left behind — what
/// a crash drill's telemetry is held against.
fn baseline() -> &'static (Vec<EpochOutcome>, ChurnMetrics) {
    static BASELINE: OnceLock<(Vec<EpochOutcome>, ChurnMetrics)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (outcomes, sys) =
            deadline_campaign(1, false, LogicalClock::new(), &CoordinatorFault::none());
        (outcomes, sys.telemetry().churn())
    })
}

/// Drills one crash point through the full parity matrix.
fn crash_parity_matrix(phase: CrashPoint) {
    let fault = CoordinatorFault {
        crash: Some(CoordinatorCrash { phase }),
        storm: None,
    };
    let (base, base_churn) = baseline();
    let counters = |m: &ChurnMetrics| {
        [
            m.joins,
            m.leaves,
            m.drops,
            m.deadline_drops,
            m.collapses,
            m.epochs_completed,
        ]
    };
    assert_eq!(base_churn.coordinator_restarts, 0);
    assert!(base_churn.epochs_completed > 0 && base_churn.joins > 0);
    for backends in [1usize, 2, 4] {
        for wire in [false, true] {
            let label = format!("crash={phase:?} backends={backends} wire={wire}");
            let (outcomes, sys) = deadline_campaign(backends, wire, LogicalClock::new(), &fault);
            assert_epochs_identical(base, &outcomes, &label);
            assert!(
                sys.telemetry().churn().coordinator_restarts > 0,
                "{label}: the drill must actually restart the coordinator"
            );
            // The crash may cost the campaign nothing but the restart
            // count: every churn counter folded before the crash point
            // survives it.
            let churn = sys.telemetry().churn();
            assert_eq!(
                counters(&churn),
                counters(base_churn),
                "{label}: joins/leaves/drops/deadline_drops/collapses/epochs_completed"
            );
        }
    }
}

#[test]
fn coordinator_crash_at_warmup_is_invisible() {
    crash_parity_matrix(CrashPoint::Warmup);
}

#[test]
fn coordinator_crash_at_reports_is_invisible() {
    crash_parity_matrix(CrashPoint::Reports);
}

#[test]
fn coordinator_crash_at_recovery_is_invisible() {
    crash_parity_matrix(CrashPoint::Recovery);
}

#[test]
fn coordinator_crash_at_finalize_is_invisible() {
    crash_parity_matrix(CrashPoint::Finalize);
}

#[test]
fn coordinator_crash_mid_grace_is_invisible() {
    crash_parity_matrix(CrashPoint::Grace);
}

#[test]
fn late_reports_inside_the_grace_window_are_parked_never_dropped() {
    // The satellite regression: a member who blows the report deadline
    // but delivers within the grace window must not vanish from the
    // study — its report is parked in the control journal, it is
    // re-admitted, and its data rides the next epoch's round.
    let storm = StragglerStorm {
        percent: 20,
        lateness: 1, // within the default one-tick grace window
        seed: 41,
    };
    let fault = CoordinatorFault {
        crash: None,
        storm: Some(storm),
    };
    let (outcomes, sys) = deadline_campaign(2, false, LogicalClock::new(), &fault);

    // Epoch 1 forms over members 0..8; the storm victimises a fixed,
    // deterministic slice of them.
    let victims = storm.victims(1, outcomes[0].members.as_slice());
    assert!(!victims.is_empty(), "the storm must bite");
    for v in &victims {
        assert!(
            outcomes[0].dropped.contains(v),
            "victim {v} must be deadline-dropped into the silent set"
        );
        assert!(
            outcomes[1].members.contains(v),
            "parked victim {v} must fold into the next epoch's roster"
        );
    }
    let first = outcomes[0].outcome.as_ref().expect("epoch 1 finalizes");
    assert_eq!(
        first.reports,
        outcomes[0].members.len() - outcomes[0].dropped.len(),
        "victims are silent in the round they missed"
    );
    let second = outcomes[1].outcome.as_ref().expect("epoch 2 finalizes");
    assert!(
        second.reports > 0,
        "the next epoch's round carries the returnees' reports"
    );

    let totals = sys.telemetry().totals();
    assert!(
        totals.late_reports_parked as usize >= victims.len(),
        "every in-grace late report parks: {totals:?}"
    );
    let churn = sys.telemetry().churn();
    assert!(
        churn.deadline_drops > 0,
        "deadline drops surface in telemetry: {churn:?}"
    );
}

#[test]
fn a_collapsed_epoch_reports_its_real_silent_set() {
    // Every member is needed, so any drop collapses epoch 1. Its
    // scripted drops name every storm victim again plus a cohort id
    // that never joined: the outcome must list each victim once and
    // leave the non-member out, exactly as the coordinator recorded.
    let storm = StragglerStorm {
        percent: 50,
        lateness: 1,
        seed: 41,
    };
    let fault = CoordinatorFault {
        crash: None,
        storm: Some(storm),
    };
    let roster: Vec<u32> = (0..8).collect();
    let victims = storm.victims(1, &roster);
    assert!(!victims.is_empty(), "the storm must bite");
    let outsider = 11;
    assert!(!roster.contains(&outsider));
    let mut drops = victims.clone();
    drops.push(outsider);
    let schedule = vec![EpochChurn {
        joins: roster.clone(),
        leaves: vec![],
        drops,
    }];
    let min_clients = roster.len() as u32;
    let (outcomes, _) = world().campaign(
        Cell::new(2, false),
        min_clients,
        LogicalClock::new(),
        &schedule,
        &fault,
    );
    let first = &outcomes[0];
    assert_eq!(first.members, roster);
    assert!(first.collapsed, "a drop below min_clients collapses");
    assert!(first.outcome.is_none());
    assert_eq!(first.dropped, victims);
}

#[test]
fn late_reports_beyond_the_grace_window_are_refused() {
    let storm = StragglerStorm {
        percent: 20,
        lateness: 64, // far past the one-tick grace window
        seed: 41,
    };
    let fault = CoordinatorFault {
        crash: None,
        storm: Some(storm),
    };
    let (outcomes, sys) = deadline_campaign(2, false, LogicalClock::new(), &fault);

    let victims = storm.victims(1, outcomes[0].members.as_slice());
    assert!(!victims.is_empty(), "the storm must bite");
    // Scheduled epoch-2 churn still joins {8, 9}; the refused victims
    // are not re-admitted by their stale reports.
    for v in &victims {
        if !churn_schedule()[1].joins.contains(v) {
            assert!(
                !outcomes[1].members.contains(v),
                "refused victim {v} must not ride a stale report back in"
            );
        }
    }
    assert_eq!(
        sys.telemetry().totals().late_reports_parked,
        0,
        "nothing parks outside the window"
    );
}

#[test]
fn randomized_crash_and_deadline_schedule_is_deterministic() {
    // The CI soak's fixed-seed randomized drill: every campaign draws a
    // random crash point, a random storm and a random clock-jitter
    // schedule from one seeded RNG, runs twice, and must replay
    // bit-identically — crash recovery, parking and deadline drops
    // included. Crash-only campaigns must additionally match the
    // fault-free baseline.
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..4u32 {
        let phase = CrashPoint::ALL[rng.gen_range(0..CrashPoint::ALL.len())];
        let with_storm = case % 2 == 1;
        let fault = CoordinatorFault {
            crash: Some(CoordinatorCrash { phase }),
            storm: with_storm.then(|| StragglerStorm {
                percent: 25,
                lateness: rng.gen_range(1..3),
                seed: rng.gen(),
            }),
        };
        let steps: Vec<u64> = (0..64).map(|_| rng.gen_range(1..5)).collect();
        let backends = [1usize, 2][rng.gen_range(0..2usize)];
        let label = format!("case={case} crash={phase:?} storm={with_storm} backends={backends}");

        let (first, _) =
            deadline_campaign(backends, false, VirtualClock::new(steps.clone()), &fault);
        let (second, _) = deadline_campaign(backends, false, VirtualClock::new(steps), &fault);
        assert_epochs_identical(&first, &second, &label);
        if !with_storm {
            assert_epochs_identical(&baseline().0, &first, &label);
        }
    }
}

#[test]
fn crash_drill_leaves_the_flight_recorder_causality_chain() {
    use eyewnder::system::trace;
    use eyewnder::system::{TraceEvent, TraceEventKind};

    // A crash drill must leave the full causality chain in the flight
    // recorder: the crash instant, then a `coordinator_restart` span
    // whose child is the `coordinator_restore` instant the journal
    // replay emits, then the span's close — in that sequence order.
    //
    // The coordinator drives the round, so a crash point is also a
    // place in the round, read off the same order. Every crash
    // follows the tick that entered its point's phase (a
    // `coordinator_tick` records the phase it ticked *from*) and that
    // tick's round step, and comes before the next step. In particular
    // a `Recovery` crash falls after the `round_recovery` span — the
    // `MissingClients` wave and its adjustments — and before
    // `round_finalize`: the restored coordinator finalizes a round
    // that its predecessor opened and recovered.
    let world = world();
    let tick_from = |phase: EpochPhase| epoch_phase_index(phase) as u64;
    for point in CrashPoint::ALL {
        let fault = CoordinatorFault {
            crash: Some(CoordinatorCrash { phase: point }),
            storm: None,
        };
        trace::enable(1 << 16);
        let (outcomes, sys) = deadline_campaign(2, false, LogicalClock::new(), &fault);
        let events = trace::drain();
        let overwritten = trace::disable().map_or(0, |recorder| recorder.dropped());
        let label = format!("crash={point:?}");
        assert_eq!(overwritten, 0, "{label}: the whole campaign is recorded");
        assert_epochs_identical(&baseline().0, &outcomes, &label);

        let crashes: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.label == "coordinator_crash")
            .collect();
        // Warmup and Reports are reached by every epoch that forms,
        // the later phases only by the epochs that finalize.
        let struck = outcomes
            .iter()
            .filter(|epoch| match point {
                CrashPoint::Warmup | CrashPoint::Reports => !epoch.members.is_empty(),
                _ => epoch.outcome.is_some(),
            })
            .count();
        assert_eq!(crashes.len(), struck, "{label}: one crash per epoch");
        let open = events
            .iter()
            .find(|e| e.label == "coordinator_restart" && e.kind == TraceEventKind::SpanOpen)
            .expect("the drill opens a restart span");
        let restore = events
            .iter()
            .find(|e| e.label == "coordinator_restore" && e.kind == TraceEventKind::Instant)
            .expect("the journal replay records the restore");
        let close = events
            .iter()
            .find(|e| e.label == "coordinator_restart" && e.kind == TraceEventKind::SpanClose)
            .expect("the restart span closes");
        assert_eq!(crashes[0].kind, TraceEventKind::Instant, "{label}");
        assert!(
            crashes[0].seq < open.seq,
            "{label}: crash precedes the restart span"
        );
        assert_eq!(
            restore.parent, open.span,
            "{label}: the restore instant is a child of the restart span"
        );
        assert!(
            open.seq < restore.seq && restore.seq < close.seq,
            "{label}: restore happens inside the restart span"
        );
        // The round machine's phase spans surround the drill: the
        // campaign itself is traced, not just the crash.
        for phase in [
            "round_open",
            "round_reports",
            "round_recovery",
            "round_finalize",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.label == phase && e.kind == TraceEventKind::SpanOpen),
                "{label}: phase span {phase} recorded"
            );
        }
        assert!(
            events.iter().any(|e| e.label == "coordinator_tick"),
            "{label}: coordinator ticks recorded"
        );
        for crash in crashes {
            assert_eq!(crash.a, point.index() as u64, "{label}");
            let epoch = outcomes
                .iter()
                .find(|epoch| epoch.epoch == crash.b)
                .expect("the crash names an epoch of the campaign");
            let label = format!("{label} epoch={}", epoch.epoch);
            // A round span's open carries its round; its close, its id.
            let span = |name: &str| {
                events.iter().find(|e| {
                    e.label == name && e.kind == TraceEventKind::SpanOpen && e.a == epoch.round
                })
            };
            let opened = |name| span(name).map(|open| open.seq);
            let closed = |name| {
                let open = span(name)?;
                events
                    .iter()
                    .find(|e| e.kind == TraceEventKind::SpanClose && e.span == open.span)
                    .map(|close| close.seq)
            };
            let before = |step: Option<u64>| step.is_some_and(|s| s < crash.seq);
            let after = |step: Option<u64>| step.is_none_or(|s| crash.seq < s);
            let entered = events
                .iter()
                .rev()
                .find(|e| e.label == "coordinator_tick" && e.seq < crash.seq)
                .map(|e| e.b);
            match point {
                CrashPoint::Warmup => {
                    let admission = tick_from(EpochPhase::WaitingForMembers);
                    assert_eq!(entered, Some(admission), "{label}");
                    assert!(after(opened("round_open")), "{label}: round not open");
                }
                CrashPoint::Reports => {
                    assert_eq!(entered, Some(tick_from(EpochPhase::Warmup)), "{label}");
                    assert!(before(closed("round_open")), "{label}: round open");
                    assert!(after(opened("round_reports")), "{label}: no report");
                }
                CrashPoint::Recovery => {
                    assert_eq!(entered, Some(tick_from(EpochPhase::Reports)), "{label}");
                    assert!(before(closed("round_recovery")), "{label}: wave sent");
                    assert!(after(opened("round_finalize")), "{label}: not final");
                }
                CrashPoint::Finalize => {
                    assert_eq!(entered, Some(tick_from(EpochPhase::Recovery)), "{label}");
                    assert!(before(closed("round_finalize")), "{label}: finalized");
                }
                CrashPoint::Grace => {
                    assert_eq!(entered, Some(tick_from(EpochPhase::Finalize)), "{label}");
                    assert!(before(closed("round_finalize")), "{label}: finalized");
                }
            }
        }
        for epoch in outcomes.iter().filter(|epoch| epoch.outcome.is_some()) {
            let round = epoch.outcome.as_ref().expect("a finalized epoch");
            let reporters = world::reporters(&epoch.members, &round.missing);
            assert!(
                round.view == clear_view(&sys, &world.weeks[0], &reporters),
                "{label} epoch={}: the view is not the clear-text view of its reporters",
                epoch.epoch
            );
        }
    }
}

#[test]
fn campaign_outcomes_are_bit_identical_with_tracing_on() {
    use eyewnder::system::trace;

    // The flight recorder must be invisible to the campaign: the same
    // storm-and-crash schedule produces bit-identical EpochOutcomes
    // whether tracing is enabled or not (trace timestamps are logical
    // sequence numbers; nothing about the recorder feeds back into the
    // protocol).
    let fault = CoordinatorFault {
        crash: Some(CoordinatorCrash {
            phase: CrashPoint::Finalize,
        }),
        storm: Some(StragglerStorm {
            percent: 20,
            lateness: 1,
            seed: 41,
        }),
    };
    let (quiet, _) = deadline_campaign(2, false, LogicalClock::new(), &fault);

    trace::enable(1024); // deliberately small: overwrite pressure included
    let (traced, _) = deadline_campaign(2, false, LogicalClock::new(), &fault);
    trace::disable();

    assert_epochs_identical(&quiet, &traced, "tracing on vs off");
}

#[test]
fn composed_faults_finalize_the_clear_text_view() {
    // Swarm testing over the whole system: each fixed seed picks a
    // subset of the fault kinds the harness scripts — a lossy uplink, an
    // uplink sever, a shard crash-restart, a coordinator crash and a
    // straggler storm — plus a cluster size, and runs the churn campaign
    // through all of them at once. Every finalized epoch must be the
    // clear-text view of the members that reported: whatever the faults
    // lost went missing, and recovery cancelled it exactly. The rosters
    // must agree too: the backend's missing set lies inside the
    // coordinator's roster and covers its dropouts, and a collapsed
    // epoch publishes no round.
    let world = world();
    let mut drawn = [0usize; 5];
    for seed in (1..=8).map(|i| SEED ^ (i << 32)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |kind: usize| {
            let on = rng.gen_bool(0.5);
            drawn[kind] += usize::from(on);
            on
        };
        let (lossy, sever, restart, crash, storm) = (pick(0), pick(1), pick(2), pick(3), pick(4));
        let backends = [1usize, 2, 4][rng.gen_range(0..3usize)];
        let shard = rng.gen_range(0..backends as u32);
        let link = FaultConfig {
            drop_prob: 0.2,
            corrupt_prob: 0.1,
            duplicate_prob: 0.1,
            reorder_prob: 0.2,
            seed,
        };
        let cell = Cell {
            sever: sever.then_some(ShardKill {
                shard,
                after_sends: rng.gen_range(0..30),
            }),
            restart: restart.then_some(ShardRestart {
                shard,
                phase: [Reports, Recovery, MidReplay][rng.gen_range(0..3usize)],
            }),
            ..Cell::lossy(backends, lossy.then_some(link))
        };
        let fault = CoordinatorFault {
            crash: crash.then_some(CoordinatorCrash {
                phase: CrashPoint::ALL[rng.gen_range(0..CrashPoint::ALL.len())],
            }),
            storm: storm.then_some(StragglerStorm {
                percent: 25,
                lateness: rng.gen_range(1..3),
                seed,
            }),
        };
        let label = format!("seed={seed:#x} {cell:?} {}", fault.summary());

        let clock = LogicalClock::new();
        let (outcomes, sys) = world.campaign(cell, 4, clock, &churn_schedule(), &fault);
        for epoch in outcomes.iter().filter(|e| e.collapsed) {
            assert!(
                epoch.outcome.is_none(),
                "{label} epoch={}: a collapsed epoch publishes nothing",
                epoch.epoch
            );
        }
        let rounds: Vec<_> = outcomes.iter().filter(|e| e.outcome.is_some()).collect();
        assert!(!rounds.is_empty(), "{label}: no epoch finalized");
        for epoch in rounds {
            let round = epoch.outcome.as_ref().expect("a finalized epoch");
            let reporters = world::reporters(&epoch.members, &round.missing);
            let label = format!("{label} epoch={}", epoch.epoch);
            // Roster agreement: the backend misses only members, and
            // every member the coordinator dropped is missing.
            assert!(
                round.missing.iter().all(|u| epoch.members.contains(u)),
                "{label}: missing {:?} outside the roster {:?}",
                round.missing,
                epoch.members
            );
            assert!(
                epoch.dropped.iter().all(|u| round.missing.contains(u)),
                "{label}: dropped {:?} not all missing {:?}",
                epoch.dropped,
                round.missing
            );
            // Exactly-once tally: the absorbed reports and the missing
            // set split the roster, so a report absorbed twice or lost
            // across a sever or restart shows up as a mismatch.
            assert_eq!(
                round.reports + round.missing.len(),
                epoch.members.len(),
                "{label}: reports {} + missing {:?} do not split the roster {:?}",
                round.reports,
                round.missing,
                epoch.members
            );
            assert_eq!(round.reports, reporters.len(), "{label}");
            assert!(
                round.view == clear_view(&sys, &world.weeks[0], &reporters),
                "{label}: the view is not the clear-text view of its reporters"
            );
        }
    }
    assert!(
        drawn.iter().all(|&n| n > 0),
        "every fault kind is drawn by some seed: {drawn:?}"
    );
}

/// A bus that slips one forged envelope in front of the coordinator's
/// first drain.
struct Forger {
    inner: world::Bus,
    forged: Option<Envelope>,
}

impl ServiceBus for Forger {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        self.inner.send(dest, env)
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        let (mut envs, corrupt) = self.inner.drain(dest);
        if dest == NodeId::Coordinator {
            envs.splice(0..0, self.forged.take());
        }
        (envs, corrupt)
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        self.inner.on_phase(phase)
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        self.inner.take_metrics()
    }
}

#[test]
fn a_forged_join_without_a_published_key_is_refused() {
    // A `Join` from and for user 4 000 000, whose sender field agrees
    // with its payload, arrives in the coordinator's first drain on a
    // 12-client cohort. Nobody by that id has a key on the bulletin
    // board, so the coordinator answers NOT_ENROLLED and never admits
    // it: the epoch driver does not panic, and every epoch is the
    // honest baseline's and the clear-text view of its reporters.
    const FORGED: u32 = 4_000_000;
    let world = world();
    let mut sys = world.ingested();
    let (mut backend, bus) = world::cluster(&mut sys, Cell::new(1, false));
    let mut bus = Forger {
        inner: bus,
        forged: Some(Envelope::new(
            NodeId::Client(FORGED),
            0,
            Message::Join {
                user: FORGED,
                epoch: 0,
            },
        )),
    };
    let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(4));
    let outcomes = sys.run_epochs_deadline_on(
        &mut backend,
        &mut bus,
        &mut coordinator,
        &mut LogicalClock::new(),
        &churn_schedule(),
        &CoordinatorFault::none(),
    );

    assert!(bus.forged.is_none(), "the forgery was delivered");
    let (replies, _) = bus.drain(NodeId::Client(FORGED));
    assert_eq!(replies.len(), 1, "one reply to the forger");
    assert!(matches!(
        replies[0].msg,
        Message::Error {
            code: error_code::NOT_ENROLLED,
            ..
        }
    ));
    assert!(outcomes.iter().all(|e| !e.members.contains(&FORGED)));
    assert_epochs_identical(&outcomes, &baseline().0, "forged join");
    let mut finalized = 0;
    for epoch in &outcomes {
        let Some(round) = &epoch.outcome else {
            continue;
        };
        let reporters = world::reporters(&epoch.members, &round.missing);
        assert!(
            round.view == clear_view(&sys, &world.weeks[0], &reporters),
            "epoch {}: the view is not the clear-text view of its reporters",
            epoch.epoch
        );
        finalized += 1;
    }
    assert!(finalized > 0, "no epoch finalized");
}

/// One input to a bare coordinator: a registration or a tick.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join(u32),
    Leave(u32),
    Drop(u32),
    Tick(u64),
}

fn apply(coordinator: &mut Coordinator, step: Step) -> Option<EpochEvent> {
    match step {
        Step::Join(user) => coordinator.register_join(user),
        Step::Leave(user) => coordinator.register_leave(user),
        Step::Drop(user) => coordinator.mark_dropped(user),
        Step::Tick(now) => return coordinator.tick(now),
    }
    None
}

/// The churn schedule as a bare coordinator's input, in the order the
/// campaign runner feeds it: an epoch's joins, ticks up to its report
/// window, the window's leaves and drops, then ticks until the
/// coordinator waits for members again.
fn churn_script(config: EpochConfig) -> Vec<Step> {
    let mut coordinator = Coordinator::new(config);
    let mut script = Vec::new();
    let mut now = 0;
    let mut run = |coordinator: &mut Coordinator, step| {
        script.push(step);
        apply(coordinator, step);
    };
    for spec in churn_schedule() {
        for &user in &spec.joins {
            run(&mut coordinator, Step::Join(user));
        }
        // Formation, then the warmup countdown (or a collapse).
        loop {
            now += 1;
            run(&mut coordinator, Step::Tick(now));
            if coordinator.phase() != EpochPhase::Warmup {
                break;
            }
        }
        if coordinator.phase() == EpochPhase::Reports {
            for &user in &spec.leaves {
                run(&mut coordinator, Step::Leave(user));
            }
            for &user in &spec.drops {
                run(&mut coordinator, Step::Drop(user));
            }
        }
        while coordinator.phase() != EpochPhase::WaitingForMembers {
            now += 1;
            run(&mut coordinator, Step::Tick(now));
        }
    }
    script
}

#[test]
fn restore_of_a_checkpoint_is_the_identity_at_every_tick_of_the_churn_campaign() {
    let config = EpochConfig::default().with_min_clients(4);
    let script = churn_script(config);
    // The original run: each step's event and the checkpoint after it.
    let mut original = Coordinator::new(config);
    let trace: Vec<_> = script
        .iter()
        .map(|&step| (apply(&mut original, step), original.checkpoint()))
        .collect();
    let mut phases = BTreeSet::new();
    for (at, step) in script.iter().enumerate() {
        if !matches!(step, Step::Tick(_)) {
            continue;
        }
        let checkpoint = &trace[at].1;
        phases.insert(checkpoint.phase);
        let record = JournalRecord {
            seq: at as u64 + 1,
            event: JournalEvent::CoordinatorState(checkpoint.clone()),
        };
        assert_eq!(
            JournalRecord::decode(&record.encode()).as_ref(),
            Ok(&record),
            "step {at}: the journaled checkpoint"
        );
        let mut restored = Coordinator::restore(config, checkpoint);
        assert_eq!(&restored.checkpoint(), checkpoint, "step {at}: restore");
        for (later, &step) in script.iter().enumerate().skip(at + 1) {
            let after = (apply(&mut restored, step), restored.checkpoint());
            assert_eq!(after, trace[later], "restored at step {at}: step {later}");
        }
    }
    // Formation, churn, a collapse and a refill: every phase was
    // checkpointed, Warmup and Grace included.
    assert_eq!(phases.len(), 6, "{phases:?}");
    let events: Vec<_> = trace
        .iter()
        .filter_map(|(event, _)| event.clone())
        .collect();
    assert!(events
        .iter()
        .any(|e| matches!(e, EpochEvent::Collapsed { .. })));
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, EpochEvent::EpochCompleted { .. }))
            .count(),
        3
    );
}

proptest! {
    // Every case runs a full cryptographic campaign, so the default
    // budget is lean enough for single-core debug CI; the dedicated
    // `coordinator-soak` job raises it to 256 via PROPTEST_CASES in
    // release mode.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(12),
    ))]

    #[test]
    fn any_virtual_clock_schedule_matches_the_logical_baseline(seed in any::<u64>()) {
        // The tentpole property: deadline transitions fire at the first
        // tick at or past the deadline and grace is compared logically,
        // so clock jitter is unobservable in campaign outcomes. Each
        // case derives a jitter schedule and one (backends, transport)
        // cell from its seed; across the case budget the full
        // {1, 2, 4} × {in-proc, wire} matrix is swept.
        let mut rng = StdRng::seed_from_u64(seed);
        let steps: Vec<u64> = (0..48).map(|_| rng.gen_range(1..7)).collect();
        let backends = [1usize, 2, 4][(seed >> 1) as usize % 3];
        let wire = seed & 8 != 0;
        let label = format!("backends={backends} wire={wire}");

                let (outcomes, _) = deadline_campaign(backends, wire, VirtualClock::new(steps), &CoordinatorFault::none());
        assert_epochs_identical(&baseline().0, &outcomes, &label);
    }
}
