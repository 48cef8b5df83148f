//! The acceptance property of the node-API redesign: `run_round` and
//! `run_round_on` over wire uplinks are thin drivers over the *same*
//! `ServiceBus` round state machine, so on a lossless link the in-proc
//! and wire paths produce **bit-identical** `RoundOutcome`s, in debug
//! and release (CI runs both).
//!
//! Fault coverage on the new bus: reordering must not change the
//! outcome at all (every report still arrives; backend accumulation is
//! commutative), duplication must not double-count, and bit corruption
//! (caught by the frame CRC — the message-layer face of truncation)
//! plus drops must leave the recovery round's aggregate residue-free.

use eyewnder::proto::FaultConfig;
use eyewnder::simnet::{DriverScale, ImpressionLog, Scenario, WeeklyDriver};
use eyewnder::system::cluster::RoutingBus;
use eyewnder::system::node::WireBus;
use eyewnder::system::{EyewnderSystem, RoundOutcome, SystemConfig};

const fn seed() -> u64 {
    0x0B05_0001
}

fn driver() -> WeeklyDriver {
    // 14 users, 28 sites, full Table 1 visit rate: small enough for
    // debug CI.
    WeeklyDriver::new(seed(), DriverScale::Fraction(35), 14)
}

fn system(cohort: usize) -> EyewnderSystem {
    EyewnderSystem::new(
        SystemConfig {
            seed: seed(),
            ..SystemConfig::default()
        },
        cohort,
    )
}

/// One round over the wire: a fresh cluster of the configured size (one
/// shard here) behind framed uplinks carrying `fault`.
fn wire_round(
    sys: &mut EyewnderSystem,
    round: u64,
    fault: Option<FaultConfig>,
    silent: &[u32],
) -> RoundOutcome {
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    let mut bus = RoutingBus::over_wire(map, fault, None);
    sys.run_round_on(&mut backend, &mut bus, round, silent)
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

fn assert_same_ad_keys(a: &EyewnderSystem, b: &EyewnderSystem, log: &ImpressionLog, label: &str) {
    for sim_ad in log.distinct_ads() {
        assert_eq!(
            a.ad_key_of(sim_ad),
            b.ad_key_of(sim_ad),
            "{label}: ad {sim_ad}"
        );
    }
}

fn ingested_pair(
    scenario: &Scenario,
    log: &ImpressionLog,
    cohort: usize,
) -> (EyewnderSystem, EyewnderSystem) {
    let mut inproc = system(cohort);
    inproc.ingest(scenario, log);
    // The wire twin also *ingests* over the wire bus: every OPRF batch
    // crosses a framed transport, so envelope encoding is exercised end
    // to end, not just for reports.
    let mut wire = system(cohort);
    wire.ingest_on(scenario, log, &mut WireBus::perfect());
    (inproc, wire)
}

#[test]
fn lossless_wire_round_bit_identical_to_inproc() {
    // Two weeks, in-proc and over the wire: every round, every ad key
    // and the OPRF accounting must match bit for bit.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(2);

    let (mut inproc, mut wire) = ingested_pair(scenario, &weeks[0], cohort);
    for (week, log) in weeks.iter().enumerate() {
        if week > 0 {
            inproc.ingest(scenario, log);
            wire.ingest_on(scenario, log, &mut WireBus::perfect());
        }
        let round = week as u64 + 1;
        let direct = inproc.run_round(round, &[]);
        let framed = wire_round(&mut wire, round, Some(FaultConfig::perfect()), &[]);
        assert_eq!(framed.reports, cohort, "week={week}");
        assert_bit_identical(&direct, &framed, &format!("week={week}"));
        assert_same_ad_keys(&inproc, &wire, log, &format!("week={week}"));
    }
    assert_eq!(
        inproc.oprf_requests(),
        wire.oprf_requests(),
        "enveloped ingest must cost the same OPRF work"
    );
}

#[test]
fn reordering_link_changes_nothing() {
    // Reordering delivers every report, just out of order — and the
    // backend's accumulation is commutative, so the outcome must be
    // *identical* to the in-proc round, not merely "clean".
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let (mut inproc, mut wire) = ingested_pair(scenario, &weeks[0], cohort);
    let direct = inproc.run_round(1, &[]);
    let reordered = FaultConfig {
        reorder_prob: 0.8,
        seed: 21,
        ..FaultConfig::perfect()
    };
    let framed = wire_round(&mut wire, 1, Some(reordered), &[]);
    assert_bit_identical(&direct, &framed, "reordering link");
}

#[test]
fn duplicating_link_never_double_counts() {
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let (mut inproc, mut wire) = ingested_pair(scenario, &weeks[0], cohort);
    let direct = inproc.run_round(1, &[]);
    let duplicating = FaultConfig {
        duplicate_prob: 1.0,
        seed: 22,
        ..FaultConfig::perfect()
    };
    let framed = wire_round(&mut wire, 1, Some(duplicating), &[]);
    assert_bit_identical(&direct, &framed, "duplicate-only link");
}

#[test]
fn corrupting_dropping_link_recovers_residue_free_and_deterministically() {
    // Corruption flips one bit per hit frame; the CRC turns that into a
    // rejected (effectively truncated-away) report, the sender goes
    // missing and the recovery round must cancel its blinding exactly.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let fault = FaultConfig {
        drop_prob: 0.25,
        corrupt_prob: 0.2,
        duplicate_prob: 0.1,
        reorder_prob: 0.3,
        seed: 23,
    };

    let faulted_round = || {
        let mut wire = system(cohort);
        wire.ingest_on(scenario, &weeks[0], &mut WireBus::perfect());
        wire_round(&mut wire, 1, Some(fault), &[])
    };
    let outcome = faulted_round();
    assert!(
        outcome.reports < cohort || outcome.corrupt_frames > 0 || outcome.missing.is_empty(),
        "the harsh link must actually bite (or lose nothing)"
    );
    for est in outcome.view.distribution() {
        assert!(
            est <= cohort as f64 + 5.0,
            "estimate {est} is blinding residue"
        );
    }
    // Same fault seed, same round stream: the faulty path itself is
    // deterministic, run to run.
    assert_bit_identical(&outcome, &faulted_round(), "second run");
}

#[test]
fn silent_clients_and_wire_losses_take_the_same_recovery_path() {
    // In-proc "silent" clients and wire-lost reports must flow through
    // the identical Recovery phase: force the same missing set both
    // ways and compare the finalized views.
    let driver = driver();
    let (scenario, weeks, cohort) = driver.workload(1);
    let (mut inproc, mut wire) = ingested_pair(scenario, &weeks[0], cohort);
    let silent = [2u32, 9];
    let direct = inproc.run_round(1, &silent);
    assert_eq!(direct.missing, silent);

    // A drop-everything-from-those-two link is not expressible with
    // FaultConfig probabilities, so run the wire round with the same
    // clients silent instead (the driver supports it on any bus).
    let framed = wire_round(&mut wire, 1, None, &silent);
    assert_bit_identical(&direct, &framed, "silent cohort");
}
