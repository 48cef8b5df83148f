//! The four workloads, and the world each run builds before timing.
//!
//! A world is built only through the program's public constructors: a
//! DH group and an OPRF service, a cohort of enrolled [`Client`]s fed a
//! week of simulated impressions, a 24-peer directory for the enrolment
//! stage, one recorded real round for the aggregation stage and an
//! [`EyewnderSystem`] for the churn campaign. Key material and the wire's
//! fault script come from fixed seeds so that every run does the same
//! amount of work; `--seed` drives the scenario (who saw which ad where)
//! and the URLs.

use crate::check::References;
use ew_core::{AdKey, ThresholdPolicy};
use ew_crypto::dh::DhKeyPair;
use ew_crypto::directory::KeyDirectory;
use ew_crypto::group::ModpGroup;
use ew_proto::transport::TransportError;
use ew_proto::{Envelope, FaultConfig, Message, NodeId, ShardMap};
use ew_simnet::{
    CoordinatorCrash, CoordinatorFault, CrashPoint, DriverScale, EpochChurn, WeeklyDriver,
};
use ew_sketch::CmsParams;
use ew_system::cluster::{ClusterBackend, RoutingBus};
use ew_system::node::{
    drive_round, ClientNode, DrivenRound, InProcBus, RoundPhase, ServiceBus, WireBus,
};
use ew_system::telemetry::ReplayMetrics;
use ew_system::{AdIdMapper, Client, EyewnderSystem, OprfService, SystemConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// Seed of all key material (DH group, RSA key, client key pairs): fixed,
/// so prime search and key generation cost the same on every `--seed`.
pub const KEY_SEED: u64 = 0xE7E_D0C5;
/// Seed of every shard uplink's fault stream. Which frames a lossy link
/// drops decides how much recovery a round does (with `--seed` choosing
/// them, `aggregate_ms` ranged 20–34 ms across seeds), so the faults are
/// a fixed script: with [`AGGREGATE_WIRE`]'s probabilities each uplink
/// drops one of its eight reports, corrupts one, duplicates two and
/// reorders one.
pub const FAULT_SEED: u64 = 16;
/// Size of the enumerable ad-ID space, as in `SystemConfig::default()`.
pub const AD_CAPACITY: u64 = 1 << 18;
/// Peers in the directory a journey client enrols against.
pub const ENROLL_PEERS: u32 = 24;
/// First user id of those peers (clear of every cohort id).
pub const PEER_ID_BASE: u32 = 1000;
/// The journey client's user id.
pub const JOURNEY_ID: u32 = 2000;
/// URLs a journey client maps in one OPRF batch.
pub const URLS_PER_BATCH: usize = 32;
/// The round number of the recorded round that `aggregate_ms` replays.
pub const RECORDED_ROUND: u64 = 1;
/// Admission threshold and grace window of every campaign.
pub const CAMPAIGN_MIN_CLIENTS: u32 = 4;
pub const CAMPAIGN_GRACE_TICKS: u64 = 1;

/// Fault probabilities of every shard uplink during the report wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProbs {
    pub drop: f64,
    pub corrupt: f64,
    pub duplicate: f64,
    pub reorder: f64,
}

/// The churn campaign a workload runs for `campaign_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignShape {
    /// Members of every epoch's roster.
    pub roster: u32,
    /// Silent drops, and joins replacing them, per epoch.
    pub churn: u32,
    /// Backend shards.
    pub shards: usize,
}

impl CampaignShape {
    pub const EPOCHS: u32 = 3;

    /// Clients the campaign's system is built with.
    pub fn cohort(&self) -> usize {
        (self.roster + (Self::EPOCHS - 1) * self.churn) as usize
    }

    /// Rosters stay at `roster` members: each epoch drops its `churn`
    /// longest-serving members, and as many newcomers replace them ahead
    /// of the next epoch.
    pub fn schedule(&self) -> Vec<EpochChurn> {
        (0..Self::EPOCHS)
            .map(|e| {
                let joins = if e == 0 {
                    (0..self.roster).collect()
                } else {
                    let first = self.roster + (e - 1) * self.churn;
                    (first..first + self.churn).collect()
                };
                EpochChurn {
                    joins,
                    leaves: Vec::new(),
                    drops: (e * self.churn..(e + 1) * self.churn).collect(),
                }
            })
            .collect()
    }
}

/// One workload: the world's configuration and how often each stage of
/// the weekly journey runs per measurement cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub name: &'static str,
    /// MODP-2048 + RSA-2048 (the paper's sizes) instead of the program's
    /// default 64-bit group and 128-bit RSA, where bigint costs nothing.
    pub paper_crypto: bool,
    /// Clients of the round cohort.
    pub clients: usize,
    pub cms_depth: usize,
    pub cms_width: usize,
    /// Backend shards of the round cluster.
    pub shards: u32,
    /// `None`: in-process bus. `Some`: framed wire with these faults.
    pub fault: Option<FaultProbs>,
    pub campaign: CampaignShape,
    /// Impressions of the simulated week fed to each cohort client.
    pub impressions_per_client: usize,
    /// Enrolments per `enroll_ms` sample.
    pub enroll_reps: usize,
    /// 32-URL batches per `map_ad_ms` sample.
    pub map_batches: usize,
    /// Passes over the client's ads per `audit_us` sample.
    pub audit_passes: usize,
    /// Replays per `aggregate_ms` sample.
    pub aggregate_reps: usize,
}

/// `steady_inproc`: today's `round_cluster_4`.
pub const STEADY_INPROC: Shape = Shape {
    name: "steady_inproc",
    paper_crypto: false,
    clients: 25,
    cms_depth: 5,
    cms_width: 2048,
    shards: 4,
    fault: None,
    campaign: CampaignShape {
        roster: 8,
        churn: 1,
        shards: 2,
    },
    impressions_per_client: usize::MAX,
    enroll_reps: 32,
    map_batches: 4,
    audit_passes: 32,
    aggregate_reps: 4,
};

/// `aggregate_wire`: the aggregation service alone, over a lossy wire.
pub const AGGREGATE_WIRE: Shape = Shape {
    name: "aggregate_wire",
    paper_crypto: false,
    clients: 32,
    cms_depth: 5,
    // Half of `steady_inproc`'s cells (the paper's 5 k-cell regime): at
    // 2 048 the 32-client round stage alone took 0.4 s and a 20-second
    // run got 26 cycles, too few for a steady p10.
    cms_width: 1024,
    shards: 4,
    fault: Some(FaultProbs {
        drop: 0.12,
        corrupt: 0.12,
        duplicate: 0.15,
        reorder: 0.15,
    }),
    campaign: CampaignShape {
        roster: 8,
        churn: 1,
        shards: 2,
    },
    impressions_per_client: usize::MAX,
    enroll_reps: 32,
    map_batches: 4,
    audit_passes: 32,
    aggregate_reps: 4,
};

/// `client_journey_2048`: one new client's week at the paper's key sizes.
pub const CLIENT_JOURNEY_2048: Shape = Shape {
    name: "client_journey_2048",
    paper_crypto: true,
    clients: 6,
    cms_depth: 5,
    cms_width: 1024,
    shards: 2,
    fault: None,
    campaign: CampaignShape {
        roster: 8,
        churn: 1,
        shards: 2,
    },
    impressions_per_client: 24,
    enroll_reps: 1,
    map_batches: 1,
    audit_passes: 32,
    // One replay restarts two shards of three reports each, 7 µs apiece.
    aggregate_reps: 8,
};

/// `churn_campaign`: the open-world path through the coordinator.
pub const CHURN_CAMPAIGN: Shape = Shape {
    name: "churn_campaign",
    paper_crypto: false,
    clients: 10,
    cms_depth: 5,
    cms_width: 2048,
    shards: 2,
    fault: None,
    campaign: CampaignShape {
        roster: 20,
        churn: 2,
        shards: 2,
    },
    impressions_per_client: usize::MAX,
    enroll_reps: 32,
    map_batches: 4,
    audit_passes: 32,
    aggregate_reps: 4,
};

pub const SHAPES: [Shape; 4] = [
    STEADY_INPROC,
    AGGREGATE_WIRE,
    CLIENT_JOURNEY_2048,
    CHURN_CAMPAIGN,
];

pub fn shape_by_name(name: &str) -> Option<Shape> {
    SHAPES.into_iter().find(|s| s.name == name)
}

impl Shape {
    pub fn cms(&self) -> CmsParams {
        CmsParams::new(self.cms_depth, self.cms_width, 0xE71D)
    }

    /// The reduced shape `--smoke` runs: same code paths, small sizes.
    pub fn smoke(mut self) -> Shape {
        self.clients = self.clients.min(6);
        self.cms_width = 256;
        self.campaign = CampaignShape {
            roster: 6,
            churn: 1,
            shards: 2,
        };
        self.impressions_per_client = self.impressions_per_client.min(12);
        self.enroll_reps = 1;
        self.map_batches = 1;
        self.audit_passes = 1;
        self.aggregate_reps = 1;
        self
    }
}

/// The two routing buses behind one type, so every stage is written once.
/// The match per call is the harness's, and is the same for both arms.
#[derive(Debug)]
pub enum AnyBus {
    InProc(RoutingBus<InProcBus>),
    Wire(RoutingBus<WireBus>),
}

impl ServiceBus for AnyBus {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        match self {
            AnyBus::InProc(bus) => bus.send(dest, env),
            AnyBus::Wire(bus) => bus.send(dest, env),
        }
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        match self {
            AnyBus::InProc(bus) => bus.drain(dest),
            AnyBus::Wire(bus) => bus.drain(dest),
        }
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        match self {
            AnyBus::InProc(bus) => bus.on_phase(phase),
            AnyBus::Wire(bus) => bus.on_phase(phase),
        }
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        match self {
            AnyBus::InProc(bus) => bus.take_metrics(),
            AnyBus::Wire(bus) => bus.take_metrics(),
        }
    }
}

/// A real client whose envelopes are copied on their way out — the
/// set-up round that `aggregate_ms` later replays.
struct Recording<'a> {
    client: &'a Client,
    report: Mutex<Option<Envelope>>,
    adjustment: Mutex<Option<Envelope>>,
}

impl ClientNode for Recording<'_> {
    fn client_id(&self) -> u32 {
        self.client.id()
    }

    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope {
        let env = self.client.report_envelope(params, round);
        *self.report.lock().expect("recording lock") = Some(env.clone());
        env
    }

    fn on_envelope(&self, params: CmsParams, env: &Envelope) -> Option<Envelope> {
        let reply = ClientNode::on_envelope(self.client, params, env);
        if reply.is_some() {
            *self.adjustment.lock().expect("recording lock") = reply.clone();
        }
        reply
    }
}

/// A client that only hands out pre-built envelopes: the aggregation
/// stage times the service's side of a round, so the client's side must
/// cost nothing. Envelopes are reloaded outside the timed region.
#[derive(Debug)]
pub struct Stub {
    id: u32,
    report: Mutex<Option<Envelope>>,
    adjustment: Mutex<Option<Envelope>>,
}

impl ClientNode for Stub {
    fn client_id(&self) -> u32 {
        self.id
    }

    fn report_envelope(&self, _params: CmsParams, _round: u64) -> Envelope {
        self.report
            .lock()
            .expect("stub lock")
            .take()
            .expect("stub reloaded before every replay")
    }

    fn on_envelope(&self, _params: CmsParams, env: &Envelope) -> Option<Envelope> {
        match env.msg {
            Message::MissingClients { .. } => self.adjustment.lock().expect("stub lock").take(),
            _ => None,
        }
    }
}

/// The envelopes of one real round, and what that round produced.
#[derive(Debug)]
pub struct Recorded {
    pub reports: Vec<Envelope>,
    /// Index-aligned with `reports`; `None` for a client that was missing
    /// or when nobody was.
    pub adjustments: Vec<Option<Envelope>>,
    pub outcome: DrivenRound,
}

impl Recorded {
    /// One empty stub per recorded client; [`Self::reload`] fills them.
    pub fn stubs(&self) -> Vec<Stub> {
        self.reports
            .iter()
            .map(|report| Stub {
                id: match report.sender {
                    NodeId::Client(id) => id,
                    other => unreachable!("reports come from clients, not {other:?}"),
                },
                report: Mutex::new(None),
                adjustment: Mutex::new(None),
            })
            .collect()
    }

    /// Refills `stubs` for the next replay.
    pub fn reload(&self, stubs: &[Stub]) {
        for ((stub, report), adjustment) in stubs.iter().zip(&self.reports).zip(&self.adjustments) {
            *stub.report.lock().expect("stub lock") = Some(report.clone());
            *stub.adjustment.lock().expect("stub lock") = adjustment.clone();
        }
    }
}

/// The campaign half of a world.
#[derive(Debug)]
pub struct CampaignWorld {
    pub sys: EyewnderSystem,
    pub schedule: Vec<EpochChurn>,
    pub fault: CoordinatorFault,
    /// Ad IDs each cohort client reports, by client id.
    pub seen: Vec<BTreeSet<AdKey>>,
}

/// What a fresh aggregation cluster and its bus are built from.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub map: ShardMap,
    pub element_len: usize,
    pub params: CmsParams,
    pub mapper: AdIdMapper,
    pub policy: ThresholdPolicy,
    pub fault: Option<FaultProbs>,
}

impl ClusterSpec {
    /// A fresh cluster with `clients` enrolled on every shard, as
    /// `EyewnderSystem::new_cluster` builds one.
    pub fn new_cluster(&self, clients: &[Client]) -> ClusterBackend {
        let mut cluster = ClusterBackend::new(
            self.map.clone(),
            self.element_len,
            self.params,
            self.mapper,
            self.policy,
        );
        for c in clients {
            cluster.enroll(c.id(), c.public_key().clone());
        }
        cluster
    }

    /// A fresh routing bus: in-process, or framed wire with the faults.
    pub fn new_bus(&self) -> AnyBus {
        match self.fault {
            None => AnyBus::InProc(RoutingBus::in_proc(self.map.clone(), None)),
            Some(p) => AnyBus::Wire(RoutingBus::over_wire(
                self.map.clone(),
                Some(FaultConfig {
                    drop_prob: p.drop,
                    corrupt_prob: p.corrupt,
                    duplicate_prob: p.duplicate,
                    reorder_prob: p.reorder,
                    seed: FAULT_SEED,
                }),
                None,
            )),
        }
    }
}

/// Everything a run times against.
#[derive(Debug)]
pub struct World {
    pub shape: Shape,
    pub seed: u64,
    pub group: ModpGroup,
    pub oprf: OprfService,
    pub spec: ClusterSpec,
    pub clients: Vec<Client>,
    /// Ad IDs each cohort client reports, by client id.
    pub seen: Vec<BTreeSet<AdKey>>,
    /// The fixed peers a journey client enrols against.
    pub peers: KeyDirectory,
    pub recorded: Recorded,
    pub campaign: CampaignWorld,
}

fn driver_for(seed: u64, cohort: usize) -> WeeklyDriver {
    // The Table 1 world shrunk until it is just large enough to hold the
    // cohort (`Fraction(20)` for 25 clients).
    WeeklyDriver::new(seed, DriverScale::Fraction((500 / cohort).max(1)), cohort)
}

impl World {
    /// Builds the world through the program's public API. Everything in
    /// here is program work and is what `setup_s` times; reference
    /// outputs are the harness's and are computed elsewhere.
    pub fn build(shape: Shape, seed: u64) -> World {
        let mut key_rng = StdRng::seed_from_u64(KEY_SEED);
        let (group, rsa_bits) = if shape.paper_crypto {
            (ModpGroup::modp_2048(), 2048)
        } else {
            let defaults = SystemConfig::default();
            (
                ModpGroup::generate(&mut key_rng, defaults.group_bits),
                defaults.rsa_bits,
            )
        };
        let oprf = OprfService::generate(&mut key_rng, rsa_bits);
        let mapper = AdIdMapper::new(AD_CAPACITY);
        let params = shape.cms();

        // Cohort: key generation, bulletin board, pairwise secrets.
        let mut clients: Vec<Client> = (0..shape.clients as u32)
            .map(|id| Client::new(id, &group, oprf.public().clone(), mapper, KEY_SEED))
            .collect();
        let mut directory = KeyDirectory::new(group.element_len());
        for c in &clients {
            directory.publish(c.id(), c.public_key().clone());
        }
        for c in &mut clients {
            c.set_blinding_cache(SystemConfig::default().blinding_cache_rounds);
            c.setup_blinding(&group, &directory);
        }

        // The simulated week: URLs through the OPRF, impressions observed.
        let driver = driver_for(seed, shape.clients);
        let log = driver.week(0);
        let scenario = driver.scenario();
        let mut seen = vec![BTreeSet::new(); shape.clients];
        let mut bus = InProcBus::new();
        for client in &mut clients {
            let impressions: Vec<_> = log
                .for_user(client.id())
                .take(shape.impressions_per_client)
                .collect();
            let urls: Vec<String> = impressions
                .iter()
                .map(|r| scenario.campaigns[r.ad as usize].ad.url())
                .collect();
            let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
            let keys = client.map_ads_on(&url_refs, &oprf, &mut bus);
            for (r, key) in impressions.iter().zip(keys) {
                client.observe(key, r.site as u64);
                seen[client.id() as usize].insert(key);
            }
        }

        // The enrolment stage's directory: 24 peers that never report.
        let mut peers = KeyDirectory::new(group.element_len());
        for i in 0..ENROLL_PEERS {
            let pair = DhKeyPair::generate(&group, &mut key_rng);
            peers.publish(PEER_ID_BASE + i, pair.public().clone());
        }

        let spec = ClusterSpec {
            map: ShardMap::uniform(shape.shards),
            element_len: group.element_len(),
            params,
            mapper,
            policy: ThresholdPolicy::Mean,
            fault: shape.fault,
        };
        let recorded = record_round(&spec, &clients);
        let campaign = CampaignWorld::build(shape, seed);
        World {
            shape,
            seed,
            group,
            oprf,
            spec,
            clients,
            seen,
            peers,
            recorded,
            campaign,
        }
    }

    pub fn new_cluster(&self) -> ClusterBackend {
        self.spec.new_cluster(&self.clients)
    }

    pub fn new_bus(&self) -> AnyBus {
        self.spec.new_bus()
    }

    /// Reference views of this world's rounds, keyed by who reported.
    pub fn references(&self) -> References {
        References::new(
            self.spec.params,
            self.spec.mapper,
            self.spec.policy,
            self.seen.clone(),
        )
    }
}

/// One plain `drive_round` of the real cohort with every envelope copied:
/// the dry run of set-up, and the view every replayed or decorated round
/// must reproduce bit for bit.
fn record_round(spec: &ClusterSpec, clients: &[Client]) -> Recorded {
    let recorders: Vec<Recording> = clients
        .iter()
        .map(|client| Recording {
            client,
            report: Mutex::new(None),
            adjustment: Mutex::new(None),
        })
        .collect();
    let mut backend = spec.new_cluster(clients);
    let mut bus = spec.new_bus();
    let outcome = drive_round(
        &recorders,
        &mut backend,
        &mut bus,
        spec.params,
        RECORDED_ROUND,
        &[],
        1,
    );
    let (reports, adjustments) = recorders
        .into_iter()
        .map(|r| {
            (
                r.report
                    .into_inner()
                    .expect("recording lock")
                    .expect("every client reports"),
                r.adjustment.into_inner().expect("recording lock"),
            )
        })
        .unzip();
    Recorded {
        reports,
        adjustments,
        outcome,
    }
}

impl CampaignWorld {
    fn build(shape: Shape, seed: u64) -> CampaignWorld {
        let cohort = shape.campaign.cohort();
        let driver = driver_for(seed, cohort);
        let log = driver.week(0);
        let mut sys = EyewnderSystem::new(
            SystemConfig {
                seed: KEY_SEED,
                cms: shape.cms(),
                ..SystemConfig::default()
            }
            .with_cluster_backends(shape.campaign.shards),
            cohort,
        );
        sys.ingest(driver.scenario(), &log);
        let mut seen = vec![BTreeSet::new(); cohort];
        for r in log.records() {
            if (r.user as usize) < cohort {
                let key = sys.ad_key_of(r.ad).expect("ingested ad has a key");
                seen[r.user as usize].insert(key);
            }
        }
        CampaignWorld {
            sys,
            schedule: shape.campaign.schedule(),
            fault: CoordinatorFault {
                crash: Some(CoordinatorCrash {
                    phase: CrashPoint::Finalize,
                }),
                storm: None,
            },
            seen,
        }
    }

    /// Reference views of the campaign's epochs.
    pub fn references(&self, shape: Shape) -> References {
        References::new(
            shape.cms(),
            AdIdMapper::new(AD_CAPACITY),
            ThresholdPolicy::Mean,
            self.seen.clone(),
        )
    }
}

/// Times `World::build` and returns the world with the seconds it took.
pub fn timed_build(shape: Shape, seed: u64) -> (World, f64) {
    let started = Instant::now();
    let world = World::build(shape, seed);
    (world, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_schedule_keeps_rosters_full() {
        let shape = CampaignShape {
            roster: 20,
            churn: 2,
            shards: 2,
        };
        assert_eq!(shape.cohort(), 24);
        let schedule = shape.schedule();
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule[0].joins, (0..20).collect::<Vec<u32>>());
        assert_eq!(schedule[0].drops, vec![0, 1]);
        assert_eq!(schedule[1].joins, vec![20, 21]);
        assert_eq!(schedule[1].drops, vec![2, 3]);
        assert_eq!(schedule[2].joins, vec![22, 23]);
        assert_eq!(schedule[2].drops, vec![4, 5]);
    }

    #[test]
    fn shapes_are_named_uniquely_and_found_by_name() {
        for shape in SHAPES {
            assert_eq!(shape_by_name(shape.name), Some(shape));
        }
        assert_eq!(shape_by_name("no-such-workload"), None);
    }
}
