//! Fault-injection integration tests: the full system running weekly
//! rounds over lossy, corrupting, duplicating, reordering links.

mod world;

use eyewnder::proto::{
    channel_pair, error_code, Envelope, FaultConfig, Message, NodeId, ShardMap, TransportError,
};
use eyewnder::simnet::{ImpressionLog, Scenario, ScenarioConfig};
use eyewnder::sketch::{BlindedSketch, CmsParams, CountMinSketch};
use eyewnder::system::backend::RoundError;
use eyewnder::system::cluster::RoutingBus;
use eyewnder::system::node::{
    ClientNode, DrivenRound, InProcBus, RoundOpen, RoundPhase, ServiceBus, WireBus,
};
use eyewnder::system::telemetry::ReplayMetrics;
use eyewnder::system::{EyewnderSystem, SystemConfig};
use world::{assert_rounds_identical, clear_view, Cell};

fn world(seed: u64) -> (Scenario, ImpressionLog, EyewnderSystem) {
    let cfg = ScenarioConfig {
        seed,
        num_users: 14,
        num_websites: 40,
        avg_user_visits: 25.0,
        avg_ads_per_website: 5.0,
        ..ScenarioConfig::table1(seed)
    };
    let scenario = Scenario::build(cfg);
    let log = scenario.run_week(0);
    let mut sys = world::system(seed, SystemConfig::default().cms, 14);
    sys.ingest(&scenario, &log);
    (scenario, log, sys)
}

#[test]
fn harsh_link_round_still_produces_clean_aggregate() {
    let (_s, _log, mut sys) = world(1);
    let link = Cell::lossy(1, Some(FaultConfig::harsh(5)));
    let outcome = world::round(&mut sys, link, 1, &[]);
    // Whatever was lost, the recovery round must leave no blinding
    // residue: every estimate bounded by the cohort size plus CMS slack.
    for est in outcome.view.distribution() {
        assert!(est <= 14.0 + 5.0, "estimate {est} is residue");
    }
}

#[test]
fn perfect_link_loses_nothing() {
    let (_s, _log, mut sys) = world(2);
    let link = Cell::lossy(1, Some(FaultConfig::perfect()));
    let outcome = world::round(&mut sys, link, 1, &[]);
    assert_eq!(outcome.reports, 14);
    assert!(outcome.missing.is_empty());
    assert_eq!(outcome.corrupt_frames, 0);
}

#[test]
fn wire_and_direct_rounds_agree_when_lossless() {
    let (scenario, log, mut sys_wire) = world(3);
    let link = Cell::lossy(1, Some(FaultConfig::perfect()));
    let wire = world::round(&mut sys_wire, link, 1, &[]);

    let mut sys_direct = world::system(3, SystemConfig::default().cms, 14);
    sys_direct.ingest(&scenario, &log);
    let direct = sys_direct.run_round(1, &[]);

    // Same cohort, same data, same round: identical views.
    for sim_ad in log.distinct_ads() {
        let k1 = sys_wire.ad_key_of(sim_ad).unwrap();
        let k2 = sys_direct.ad_key_of(sim_ad).unwrap();
        assert_eq!(wire.view.users(k1), direct.view.users(k2), "ad {sim_ad}");
    }
}

#[test]
fn duplicated_reports_are_rejected_not_double_counted() {
    let (_s, log, mut sys) = world(4);
    let dup_only = FaultConfig {
        duplicate_prob: 1.0,
        seed: 9,
        ..FaultConfig::perfect()
    };
    let outcome = world::round(&mut sys, Cell::lossy(1, Some(dup_only)), 1, &[]);
    assert_eq!(outcome.reports, 14, "duplicates rejected by the backend");
    assert!(outcome.missing.is_empty());
    // Counts not inflated: exactly the clear-text view of the 14
    // reporters, each counted once.
    let reporters: Vec<u32> = (0..14).collect();
    assert!(
        outcome.view == clear_view(&sys, &log, &reporters),
        "the view is not the clear-text view of its reporters"
    );
}

/// A client that reports the raw (unblinded) count-min sketch of
/// `ads`; with nothing to unblind, its answer to a `MissingClients`
/// notice is an all-zero adjustment.
struct RawClient {
    id: u32,
    ads: [u64; 2],
}

impl ClientNode for RawClient {
    fn client_id(&self) -> u32 {
        self.id
    }

    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope {
        let mut sketch = CountMinSketch::new(params);
        for &ad in &self.ads {
            sketch.update(ad);
        }
        let msg = Message::Report {
            user: self.id,
            round,
            depth: params.depth as u32,
            width: params.width as u32,
            seed: params.hash_seed,
            cells: BlindedSketch::from_raw(params, sketch.cells().to_vec()).into_cells(),
        };
        Envelope::new(NodeId::Client(self.id), round, msg)
    }

    fn on_envelope(&self, params: CmsParams, env: &Envelope) -> Option<Envelope> {
        FixedClient {
            id: self.id,
            adjustment_cells: params.num_cells(),
        }
        .on_envelope(params, env)
    }
}

/// A bus that keeps a copy of every report sent to the backend and, as
/// the round enters `Recovery`, sends each one to the backend again: a
/// replay that crosses a drain, landing in the recovery wave.
struct ReplayOnRecovery<B> {
    inner: B,
    reports: Vec<Envelope>,
}

impl<B: ServiceBus> ServiceBus for ReplayOnRecovery<B> {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        if dest == NodeId::Backend && matches!(env.msg, Message::Report { .. }) {
            self.reports.push(env.clone());
        }
        self.inner.send(dest, env)
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        self.inner.drain(dest)
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        self.inner.on_phase(phase);
        if phase == RoundPhase::Recovery {
            for env in std::mem::take(&mut self.reports) {
                self.inner.send(NodeId::Backend, env).unwrap();
            }
        }
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        self.inner.take_metrics()
    }
}

/// Round 3 of `clients` over `bus` into a fresh 2-shard cluster with
/// users 0..6 enrolled: the finalized round and the recovery-phase
/// rejections.
fn raw_round<B: ServiceBus>(
    clients: &[RawClient],
    silent: &[u32],
    bus: &mut B,
) -> (DrivenRound, Vec<(NodeId, RoundError)>) {
    let params = CmsParams::new(2, 32, 3);
    let mut backend = world::bare_cluster(2, params, 0..6);
    let recovery = RoundOpen::open(&mut backend, bus, 3)
        .collect_reports(clients, silent, params, 1, &mut backend, bus)
        .recover(clients, params, 1, &mut backend, bus);
    let rejected = recovery.rejected_adjustments().to_vec();
    (recovery.finalize(&mut backend, bus), rejected)
}

#[test]
fn reports_replayed_into_the_recovery_wave_are_rejected_once_each() {
    // Clients 0..5 report, client 5 stays silent, so the recovery wave
    // is drained. Every report comes back once more in that wave: each
    // replay is refused as a duplicate, its sender is told so, and the
    // round is the one a single delivery makes.
    let clients: Vec<RawClient> = (0..6u32)
        .map(|id| RawClient {
            id,
            ads: [u64::from(id), 40 + u64::from(id % 2)],
        })
        .collect();
    let (silent, reporters) = ([5u32], 0..5u32);
    let fresh_bus = || world::bus(ShardMap::uniform(2), Cell::new(2, false));
    let (single, none) = raw_round(&clients, &silent, &mut fresh_bus());
    assert!(none.is_empty());
    let mut bus = ReplayOnRecovery {
        inner: fresh_bus(),
        reports: Vec::new(),
    };
    let (replayed, mut rejected) = raw_round(&clients, &silent, &mut bus);

    rejected.sort_by_key(|(sender, _)| *sender);
    let want: Vec<_> = reporters
        .clone()
        .map(|u| (NodeId::Client(u), RoundError::DuplicateReport(u)))
        .collect();
    assert_eq!(rejected, want, "each replay is rejected once");
    for user in reporters {
        let (inbox, _) = bus.drain(NodeId::Client(user));
        assert!(
            matches!(
                &inbox[..],
                [Envelope { sender: NodeId::Backend, msg: Message::Error { code, .. }, .. }]
                    if *code == error_code::REJECTED_REPORT
            ),
            "client {user} is told its replay was rejected: {inbox:?}"
        );
    }
    assert_eq!(replayed.missing, silent);
    assert_rounds_identical(&replayed, &single, "a replay is not a second report");
}

/// A client that reports an all-zero sketch and answers a
/// `MissingClients` notice with an adjustment of `adjustment_cells`
/// cells, whatever the cohort's shape.
struct FixedClient {
    id: u32,
    adjustment_cells: usize,
}

impl ClientNode for FixedClient {
    fn client_id(&self) -> u32 {
        self.id
    }

    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope {
        let msg = Message::Report {
            user: self.id,
            round,
            depth: params.depth as u32,
            width: params.width as u32,
            seed: params.hash_seed,
            cells: vec![0; params.num_cells()],
        };
        Envelope::new(NodeId::Client(self.id), round, msg)
    }

    fn on_envelope(&self, _params: CmsParams, env: &Envelope) -> Option<Envelope> {
        let Message::MissingClients { round, .. } = env.msg else {
            return None;
        };
        let msg = Message::Adjustment {
            user: self.id,
            round,
            cells: vec![0; self.adjustment_cells],
        };
        Some(Envelope::new(NodeId::Client(self.id), round, msg))
    }
}

#[test]
fn malformed_adjustment_is_answered_not_fatal() {
    let params = CmsParams::new(2, 32, 3);
    let mut backend = world::bare_cluster(1, params, 1..=3);
    // Client 3 stays silent, so clients 1 and 2 owe adjustments; client
    // 2's has one cell too few.
    let clients = [
        FixedClient {
            id: 1,
            adjustment_cells: params.num_cells(),
        },
        FixedClient {
            id: 2,
            adjustment_cells: params.num_cells() - 1,
        },
    ];
    let mut bus = InProcBus::new();
    let recovery = RoundOpen::open(&mut backend, &mut bus, 5)
        .collect_reports(&clients, &[], params, 1, &mut backend, &mut bus)
        .recover(&clients, params, 1, &mut backend, &mut bus);
    assert_eq!(recovery.missing(), &[3]);
    assert_eq!(
        recovery.rejected_adjustments(),
        &[(NodeId::Client(2), RoundError::DimensionMismatch)]
    );
    let round = recovery.finalize(&mut backend, &mut bus);
    assert_eq!(round.reports, 2);

    let (to_2, _) = bus.drain(NodeId::Client(2));
    assert!(
        matches!(
            &to_2[..],
            [Envelope { sender: NodeId::Backend, msg: Message::Error { code, .. }, .. }]
                if *code == error_code::REJECTED_REPORT
        ),
        "client 2 is told its adjustment was rejected: {to_2:?}"
    );
    let (to_1, _) = bus.drain(NodeId::Client(1));
    assert!(to_1.is_empty(), "client 1's adjustment was accepted");
}

/// An uplink that is either dead (every send is `Disconnected`) or a
/// working in-process link.
enum Link {
    Dead,
    Live(InProcBus),
}

impl ServiceBus for Link {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        match self {
            Link::Dead => Err(TransportError::Disconnected),
            Link::Live(bus) => bus.send(dest, env),
        }
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        match self {
            Link::Dead => (Vec::new(), 0),
            Link::Live(bus) => bus.drain(dest),
        }
    }
}

#[test]
fn unsendable_report_makes_its_sender_missing() {
    // Links are built in order: shard 0's uplink, shard 1's, the side
    // bus, then one per re-link. Shard 1's uplink and its first
    // replacement are dead, so the first report routed to shard 1 cannot
    // be sent at all; the second replacement carries everything after
    // it. The lost report is a dropped frame, not a panic: its sender
    // goes missing and recovery cancels its blinding.
    let (_s, _log, mut sys) = world(7);
    let map = ShardMap::uniform(2);
    let mut made = 0usize;
    let mut bus = RoutingBus::with_links(map.clone(), None, move || {
        made += 1;
        if made == 2 || made == 4 {
            Link::Dead
        } else {
            Link::Live(InProcBus::new())
        }
    });
    let mut backend = sys.new_cluster(&map);
    let outcome = sys.run_round_on(&mut backend, &mut bus, 1, &[]);

    let lost = (0..14u32)
        .find(|&user| map.owner_of(user) == 1)
        .expect("shard 1 owns a client");
    let (_s, _log, mut silent_sys) = world(7);
    let silent = silent_sys.run_round(1, &[lost]);
    assert_eq!(outcome.missing, vec![lost]);
    assert_rounds_identical(&outcome, &silent, "a lost report is a silent client");
}

#[test]
fn corruption_storm_never_wedges_the_receiver() {
    // 100% corruption: nothing useful arrives, but drain() terminates
    // and reports nothing decodable as a wrong message.
    let cfg = FaultConfig {
        corrupt_prob: 1.0,
        seed: 10,
        ..FaultConfig::perfect()
    };
    let (mut tx, mut rx) = channel_pair(Some(cfg));
    for i in 0..200u64 {
        tx.send(&Message::UsersQuery { round: 1, ad: i }).unwrap();
    }
    drop(tx);
    let (msgs, corrupt) = rx.drain();
    assert!(corrupt > 0);
    // A single flipped bit can land in padding-free fields and still
    // decode — but then it decodes to a *valid* message structure, not
    // garbage memory. Either way the receiver survived.
    assert!(msgs.len() + corrupt <= 200 + corrupt);
}

#[test]
fn truncated_batch_frame_rejected_without_panicking() {
    use eyewnder::proto::framing::{encode_frame, FrameDecoder};

    let msg = Message::OprfBatchRequest {
        request_id: 21,
        blinded: vec![vec![0xAB; 16], vec![0xCD; 16]],
    };
    let payload = msg.encode();
    let frame = encode_frame(&payload);

    // Every strict prefix of the frame: the decoder either waits for
    // more bytes or flags corruption — it never yields a frame, and the
    // codec rejects every truncated payload. Nothing panics.
    for cut in 0..frame.len() {
        let mut dec = FrameDecoder::new();
        dec.extend(&frame[..cut]);
        if let Ok(Some(p)) = dec.next_frame() {
            panic!(
                "truncated frame of {cut} bytes decoded to {} bytes",
                p.len()
            );
        }
    }
    for cut in 0..payload.len() {
        assert!(
            Message::decode(&payload[..cut]).is_err(),
            "truncated batch payload of {cut} bytes decoded"
        );
    }
}

#[test]
fn query_reply_flow_over_wire() {
    // The real-time audit path: client asks #Users for an ad id.
    let (mut client, mut server) = channel_pair(None);
    client
        .send(&Message::UsersQuery { round: 3, ad: 77 })
        .unwrap();
    let (msgs, _) = server.drain();
    assert_eq!(msgs, vec![Message::UsersQuery { round: 3, ad: 77 }]);
    server
        .send(&Message::UsersReply {
            round: 3,
            ad: 77,
            estimate: 4,
        })
        .unwrap();
    let (replies, _) = client.drain();
    assert_eq!(
        replies,
        vec![Message::UsersReply {
            round: 3,
            ad: 77,
            estimate: 4
        }]
    );
}

#[test]
fn real_time_audit_on_the_wire_matches_direct_classification() {
    use eyewnder::core::Verdict;
    let (_scenario, log, mut sys) = world(6);
    sys.run_round(1, &[]);

    let mut audited = 0;
    let mut targeted = 0;
    for sim_ad in log.distinct_ads().into_iter().take(50) {
        // Audit from the first user who saw the ad.
        let user = log
            .records()
            .iter()
            .find(|r| r.ad == sim_ad)
            .map(|r| r.user)
            .unwrap();
        if let Some(v) = sys.audit_on(&mut WireBus::perfect(), user, sim_ad) {
            audited += 1;
            if v == Verdict::Targeted {
                targeted += 1;
            }
        }
    }
    assert!(audited > 0, "audits must complete over the wire");
    // Not everything is targeted; the flow returns real verdicts.
    assert!(targeted < audited);
}
