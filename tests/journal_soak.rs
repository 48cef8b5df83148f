//! Soak coverage for the unified event-sourced round log: the journal
//! must stay **bounded** under sustained traffic (watermark truncation
//! on snapshot — a log that only grows is a disk-full incident waiting
//! for a long round), and its replay semantics must survive an
//! arbitrary interleaving of snapshots, cold crash-restarts and
//! duplicate deliveries without perturbing the round outcome.
//!
//! The randomized schedule runs under the (deterministic, fixed-seed)
//! proptest harness, so CI failures replay exactly.

mod world;

use eyewnder::proto::{Envelope, Message, NodeId};
use eyewnder::sketch::{BlindedSketch, CmsParams, CountMinSketch};
use eyewnder::system::AggregationBackend;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn params() -> CmsParams {
    CmsParams::new(2, 32, 3)
}

/// A deterministic raw (unblinded) report for `user` — byte-identical
/// every time it is built, so re-deliveries are true replays.
fn report_env(p: CmsParams, user: u32, round: u64) -> Envelope {
    let mut s = CountMinSketch::new(p);
    s.update(user as u64 % 19);
    s.update(40 + user as u64 % 7);
    Envelope::new(
        NodeId::Client(user),
        round,
        Message::Report {
            user,
            round,
            depth: p.depth as u32,
            width: p.width as u32,
            seed: p.hash_seed,
            cells: BlindedSketch::from_raw(p, s.cells().to_vec()).into_cells(),
        },
    )
}

#[test]
fn ten_thousand_report_soak_keeps_journal_depth_bounded() {
    // 10k reports through a 4-shard cluster, snapshotting every 512
    // absorptions: the journal's depth must never exceed one snapshot
    // window, every snapshot must
    // truncate to zero, and the round must still finalize cleanly with
    // every record accounted for in the truncation total.
    const USERS: u32 = 10_000;
    const SNAPSHOT_EVERY: usize = 512;

    let p = params();
    let mut c = world::bare_cluster(4, p, 0..USERS);
    AggregationBackend::open_round(&mut c, 1);

    let mut max_depth = 0usize;
    for u in 0..USERS {
        AggregationBackend::on_envelope(&mut c, report_env(p, u, 1)).expect("soak report absorbed");
        max_depth = max_depth.max(c.log().depth());
        if (u as usize + 1).is_multiple_of(SNAPSHOT_EVERY) {
            c.snapshot();
            assert_eq!(c.log().depth(), 0, "snapshot truncates to zero");
        }
    }
    assert!(
        max_depth <= SNAPSHOT_EVERY,
        "journal depth {max_depth} escaped the snapshot window"
    );

    assert_eq!(
        AggregationBackend::missing_clients(&mut c).unwrap(),
        Vec::<u32>::new(),
        "all 10k reports landed"
    );
    AggregationBackend::finalize(&mut c).expect("soaked round finalizes");
    assert_eq!(c.log().depth(), 0, "finalize seals and truncates");
    assert!(
        c.log().truncated_total() >= USERS as u64,
        "every absorbed record passed through the watermark"
    );
}

#[test]
fn dedupe_index_survives_truncation_across_the_soak() {
    // Replay protection must not decay as the log truncates: an
    // envelope absorbed long before the last snapshot is still deduped,
    // not double-absorbed and not answered with a fatal error.
    const USERS: u32 = 1_000;

    let p = params();
    let mut c = world::bare_cluster(2, p, 0..USERS);
    AggregationBackend::open_round(&mut c, 1);
    for u in 0..USERS {
        AggregationBackend::on_envelope(&mut c, report_env(p, u, 1)).unwrap();
        if (u + 1).is_multiple_of(100) {
            c.snapshot();
        }
    }
    // Every 97th user's report is re-delivered: all long since
    // truncated, all must dedupe silently.
    for u in (0..USERS).step_by(97) {
        assert_eq!(
            AggregationBackend::on_envelope(&mut c, report_env(p, u, 1)),
            Ok(None),
            "user {u}: replay after truncation must stay silent"
        );
    }
    let metrics = c.take_metrics();
    assert_eq!(metrics.deduped, (0..USERS).step_by(97).count() as u64);
    AggregationBackend::finalize(&mut c).expect("round finalizes despite replays");
}

proptest! {
    #[test]
    fn randomized_crash_restart_schedule_is_outcome_invariant(seed in any::<u64>()) {
        // An arbitrary interleaving of {absorb, snapshot, crash+restart,
        // duplicate delivery} against a 4-shard cluster must finalize
        // bit-identically to the undisturbed run: the unified log is the
        // only state that matters, and it is immune to the schedule.
        const USERS: u32 = 64;
        let p = params();

        let reference = {
            let mut c = world::bare_cluster(4, p, 0..USERS);
            AggregationBackend::open_round(&mut c, 1);
            for u in 0..USERS {
                AggregationBackend::on_envelope(&mut c, report_env(p, u, 1)).unwrap();
            }
            AggregationBackend::finalize(&mut c).unwrap()
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut c = world::bare_cluster(4, p, 0..USERS);
        AggregationBackend::open_round(&mut c, 1);
        for u in 0..USERS {
            AggregationBackend::on_envelope(&mut c, report_env(p, u, 1)).unwrap();
            match rng.gen_range(0..6u32) {
                0 => c.snapshot(),
                1 => {
                    let shard = rng.gen_range(0..4u32);
                    c.crash_shard(shard);
                    c.restart_shard(shard);
                }
                2 => {
                    // Replay an arbitrary already-absorbed report.
                    let victim = rng.gen_range(0..u + 1);
                    prop_assert_eq!(
                        AggregationBackend::on_envelope(&mut c, report_env(p, victim, 1)),
                        Ok(None)
                    );
                }
                _ => {}
            }
        }
        prop_assert_eq!(
            AggregationBackend::missing_clients(&mut c).unwrap(),
            Vec::<u32>::new()
        );
        let view = AggregationBackend::finalize(&mut c).unwrap();
        prop_assert_eq!(&view, &reference);
        prop_assert_eq!(view.sorted_estimates(), reference.sorted_estimates());
    }
}
