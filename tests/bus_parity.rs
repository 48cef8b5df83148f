//! The acceptance property of the node-API redesign: `run_round` and
//! `run_round_on` over wire uplinks are thin drivers over the *same*
//! `ServiceBus` round state machine, so on a lossless link the in-proc
//! and wire paths produce **bit-identical** `DrivenRound`s, in debug
//! and release (CI runs both).
//!
//! Fault coverage on the new bus: reordering must not change the
//! outcome at all (every report still arrives; backend accumulation is
//! commutative), duplication must not double-count, and bit corruption
//! (caught by the frame CRC — the message-layer face of truncation)
//! plus drops must leave the recovery round's aggregate residue-free.

mod world;

use eyewnder::proto::FaultConfig;
use eyewnder::simnet::DriverScale;
use eyewnder::system::node::WireBus;
use eyewnder::system::{EyewnderSystem, SystemConfig};
use world::{assert_rounds_identical, Cell, World};

fn world(weeks: u64) -> World {
    // 14 users, 28 sites, full Table 1 visit rate: small enough for
    // debug CI.
    let cms = SystemConfig::default().cms;
    World::new(0x0B05_0001, DriverScale::Fraction(35), 14, cms, weeks)
}

fn ingested_pair(world: &World) -> (EyewnderSystem, EyewnderSystem) {
    let inproc = world.ingested();
    // The wire twin also *ingests* over the wire bus: every OPRF batch
    // crosses a framed transport, so envelope encoding is exercised end
    // to end, not just for reports.
    let mut wire = world.system();
    wire.ingest_on(
        world.driver.scenario(),
        &world.weeks[0],
        &mut WireBus::perfect(),
    );
    (inproc, wire)
}

#[test]
fn lossless_wire_round_bit_identical_to_inproc() {
    // Two weeks, in-proc and over the wire: every round, every ad key
    // and the OPRF accounting must match bit for bit.
    let world = world(2);
    let scenario = world.driver.scenario();

    let (mut inproc, mut wire) = ingested_pair(&world);
    for (week, log) in world.weeks.iter().enumerate() {
        if week > 0 {
            inproc.ingest(scenario, log);
            wire.ingest_on(scenario, log, &mut WireBus::perfect());
        }
        let round = week as u64 + 1;
        let direct = inproc.run_round(round, &[]);
        let link = Cell::lossy(1, Some(FaultConfig::perfect()));
        let framed = world::round(&mut wire, link, round, &[]);
        assert_eq!(framed.reports, world.cohort(), "week={week}");
        assert_rounds_identical(&direct, &framed, &format!("week={week}"));
        for sim_ad in log.distinct_ads() {
            let label = format!("week={week} ad={sim_ad}");
            assert_eq!(inproc.ad_key_of(sim_ad), wire.ad_key_of(sim_ad), "{label}");
        }
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
    let (mut inproc, mut wire) = ingested_pair(&world(1));
    let direct = inproc.run_round(1, &[]);
    let reordered = FaultConfig {
        reorder_prob: 0.8,
        seed: 21,
        ..FaultConfig::perfect()
    };
    let framed = world::round(&mut wire, Cell::lossy(1, Some(reordered)), 1, &[]);
    assert_rounds_identical(&direct, &framed, "reordering link");
}

#[test]
fn duplicating_link_never_double_counts() {
    let (mut inproc, mut wire) = ingested_pair(&world(1));
    let direct = inproc.run_round(1, &[]);
    let duplicating = FaultConfig {
        duplicate_prob: 1.0,
        seed: 22,
        ..FaultConfig::perfect()
    };
    let framed = world::round(&mut wire, Cell::lossy(1, Some(duplicating)), 1, &[]);
    assert_rounds_identical(&direct, &framed, "duplicate-only link");
}

#[test]
fn corrupting_dropping_link_recovers_residue_free_and_deterministically() {
    // Corruption flips one bit per hit frame; the CRC turns that into a
    // rejected (effectively truncated-away) report, the sender goes
    // missing and the recovery round must cancel its blinding exactly.
    let world = world(1);
    let cohort = world.cohort();
    let fault = FaultConfig {
        drop_prob: 0.25,
        corrupt_prob: 0.2,
        duplicate_prob: 0.1,
        reorder_prob: 0.3,
        seed: 23,
    };

    let faulted_round = || {
        let mut wire = world.system();
        wire.ingest_on(
            world.driver.scenario(),
            &world.weeks[0],
            &mut WireBus::perfect(),
        );
        world::round(&mut wire, Cell::lossy(1, Some(fault)), 1, &[])
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
    assert_rounds_identical(&outcome, &faulted_round(), "second run");
}

#[test]
fn silent_clients_and_wire_losses_take_the_same_recovery_path() {
    // In-proc "silent" clients and wire-lost reports must flow through
    // the identical Recovery phase: force the same missing set both
    // ways and compare the finalized views.
    let (mut inproc, mut wire) = ingested_pair(&world(1));
    let silent = [2u32, 9];
    let direct = inproc.run_round(1, &silent);
    assert_eq!(direct.missing, silent);

    // A drop-everything-from-those-two link is not expressible with
    // FaultConfig probabilities, so run the wire round with the same
    // clients silent instead (the driver supports it on any bus).
    let framed = world::round(&mut wire, Cell::lossy(1, None), 1, &silent);
    assert_rounds_identical(&direct, &framed, "silent cohort");
}
