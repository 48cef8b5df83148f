//! End-to-end orchestration: a cohort of clients, the backend and the
//! oprf-server running weekly aggregation rounds.
//!
//! Every entry point is a **thin driver over the node bus**
//! ([`crate::node`]) and there is one driver per thing the week does:
//! [`EyewnderSystem::ingest_on`] maps and observes a week of
//! impressions, [`EyewnderSystem::run_round_on`] runs one aggregation
//! round straight through the typestate machine of [`crate::node`],
//! [`EyewnderSystem::run_epochs_deadline_on`] runs a churn campaign in
//! which the epoch [`Coordinator`]'s ticks step that same machine one
//! phase at a time, [`EyewnderSystem::audit_on`] answers one real-time
//! audit against a finalized view the caller passes in.
//! A finished round lives in what its driver returns (a [`DrivenRound`],
//! an [`EpochOutcome`]): the system keeps the cohort, the bulletin board,
//! the OPRF service and telemetry, and no copy of any round's output.
//! Everything that varies — transport, shard count, clock, fault script
//! — is an argument the caller builds ([`RoutingBus::in_proc`] /
//! [`RoutingBus::over_wire`], [`EyewnderSystem::new_cluster`], a
//! [`Clock`], a [`CoordinatorFault`],
//! [`ClusterBackend::script_restart`]); `ingest`, `run_round` and
//! `run_epochs_deadline` are the same drivers with the defaults filled
//! in (in-proc bus, a fresh [`SystemConfig::cluster_backends`]-shard
//! cluster, a genesis coordinator). A single backend is a cluster of
//! one. `tests/bus_parity.rs` pins the in-proc and wire paths
//! bit-identical, `tests/cluster_parity.rs` the shard counts.
//!
//! ## Determinism
//!
//! A week's ingest and every round run on the calling thread, client by
//! client in id order — in the paper each client is its own browser, so
//! the simulator's cohort loop is not part of the protocol. Outcomes are
//! **bit-identical** across buses and cluster sizes by construction:
//!
//! * OPRF evaluation is a pure function of `(key, element)`, so every
//!   bus resolves the same ad keys;
//! * envelopes cross the bus in client order, and the backend's
//!   cell-wise accumulation in `Z_{2^32}` is order-insensitive anyway
//!   (wrapping addition is associative and commutative), so neither the
//!   transport nor the key-space split leaves a fingerprint.
//!
//! `tests/bus_parity.rs` pins the bus axis and `tests/cluster_parity.rs`
//! the shard-count axis. A [`ClusterBackend`] walks each mailbox drain
//! serially through `RoundState::absorb`, the one copy of report
//! validation.

use crate::backend::serve;
use crate::client::Client;
use crate::cluster::{ClusterBackend, RoutingBus};
use crate::coordinator::{Clock, Coordinator, EpochConfig, EpochEvent};
use crate::ids::AdIdMapper;
use crate::node::{drive_round, pump, ClientNode, DrivenRound, InProcBus, RoundOpen, ServiceBus};
use crate::oprf_server::OprfService;
use crate::pipeline::score;
use crate::telemetry::TelemetryService;
use crate::trace;
use ew_core::{AdKey, Detector, DetectorConfig, GlobalView, ThresholdPolicy, Verdict};
use ew_crypto::directory::KeyDirectory;
use ew_crypto::group::ModpGroup;
use ew_proto::{error_code, Envelope, EpochPhase, Message, NodeId, ShardMap};
use ew_simnet::{AdClass, CoordinatorFault, CrashPoint, EpochChurn, ImpressionLog, Scenario};
use ew_sketch::CmsParams;
use ew_stats::ConfusionMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// System-wide parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Master seed.
    pub seed: u64,
    /// DH group size in bits. Tests default to small generated groups;
    /// deployments would use [`ModpGroup::modp_2048`] (see `ew-bench`).
    pub group_bits: usize,
    /// RSA modulus size for the OPRF.
    pub rsa_bits: usize,
    /// Sketch dimensions shared by the cohort.
    pub cms: CmsParams,
    /// Enumerable ad-ID space size.
    pub ad_capacity: u64,
    /// Threshold policy (both sides).
    pub policy: ThresholdPolicy,
    /// Detector settings for audits.
    pub detector: DetectorConfig,
    /// Backend shards of the clusters [`EyewnderSystem::cluster_map`]
    /// and the one-call drivers build (`1`, the default, is a cluster
    /// of one; rounds are bit-identical for every value — see
    /// `crate::cluster`).
    pub cluster_backends: usize,
    /// Accepted and ignored: blinding derivation keeps nothing across
    /// rounds, so there is no stream cache to size. The field stays so
    /// configs written against the cache still build; outcomes are the
    /// same for every value.
    pub blinding_cache_rounds: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            seed: 1,
            group_bits: 64,
            rsa_bits: 128,
            cms: CmsParams::new(5, 2048, 0xE71D),
            ad_capacity: 1 << 18,
            policy: ThresholdPolicy::Mean,
            detector: DetectorConfig::default(),
            cluster_backends: 1,
            blinding_cache_rounds: 2,
        }
    }
}

impl SystemConfig {
    /// Returns the config with an `n`-shard aggregation cluster.
    pub fn with_cluster_backends(mut self, n: usize) -> Self {
        self.cluster_backends = n.max(1);
        self
    }
}

/// Outcome of one scheduled epoch in a churn campaign.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch number the coordinator assigned (unchanged from the
    /// previous entry when admission stalled below `min_clients`).
    pub epoch: u64,
    /// The aggregation round driven (or abandoned) for this epoch.
    pub round: u64,
    /// The frozen roster the epoch ran over (empty if it never formed).
    pub members: Vec<u32>,
    /// Users who joined ahead of this epoch's admission.
    pub joined: Vec<u32>,
    /// Mid-epoch dropouts — the round's silent set.
    pub dropped: Vec<u32>,
    /// Whether the epoch collapsed below `min_clients` (admission stall
    /// or mid-reports drop) instead of completing.
    pub collapsed: bool,
    /// The finalized round, when the epoch completed.
    pub outcome: Option<DrivenRound>,
}

/// The assembled system.
#[derive(Debug)]
pub struct EyewnderSystem {
    /// Configuration.
    pub config: SystemConfig,
    group: ModpGroup,
    oprf: OprfService,
    /// The bulletin board every client enrols on; each round's cluster
    /// is built from it.
    directory: KeyDirectory,
    clients: Vec<Client>,
    /// Simulator ad-id → protocol ad-ID, learned during ingestion
    /// (evaluation-side bookkeeping only).
    sim_ad_to_key: HashMap<u64, AdKey>,
    /// The telemetry service: accumulates the replay-path metrics every
    /// round drains from its bus and backend.
    telemetry: TelemetryService,
}

impl EyewnderSystem {
    /// Builds a cohort of `num_clients` enrolled clients with blinding
    /// secrets established.
    pub fn new(config: SystemConfig, num_clients: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let group = ModpGroup::generate(&mut rng, config.group_bits);
        let oprf = OprfService::generate(&mut rng, config.rsa_bits);
        let mapper = AdIdMapper::new(config.ad_capacity);
        let mut directory = KeyDirectory::new(group.element_len());

        let mut clients: Vec<Client> = (0..num_clients as u32)
            .map(|id| {
                Client::new(
                    id,
                    &group,
                    oprf.public().clone(),
                    mapper,
                    config.seed ^ 0x00C1_1E47,
                )
            })
            .collect();
        for c in &clients {
            directory.publish(c.id(), c.public_key().clone());
        }
        for c in &mut clients {
            c.setup_blinding(&group, &directory);
        }

        EyewnderSystem {
            config,
            group,
            oprf,
            directory,
            clients,
            sim_ad_to_key: HashMap::new(),
            telemetry: TelemetryService::new(),
        }
    }

    /// The DH group (exposed for overhead accounting in benches).
    pub fn group(&self) -> &ModpGroup {
        &self.group
    }

    /// Total OPRF evaluations served so far.
    pub fn oprf_requests(&self) -> u64 {
        self.oprf.requests_served()
    }

    /// The learned simulator-ad → ad-ID mapping.
    pub fn ad_key_of(&self, sim_ad: u64) -> Option<AdKey> {
        self.sim_ad_to_key.get(&sim_ad).copied()
    }

    /// Feeds a week of simulated impressions into the clients: each
    /// impression's creative URL is resolved through the OPRF (cached
    /// per client) and observed into the local counters.
    ///
    /// Resolution is batched per client and week — every URL a client
    /// first saw this week goes through [`Client::map_ads_on`] in one
    /// go, so the whole batch shares a single blinding inversion and the
    /// server answers on a hot key context (the §7.1 "once per (unique)
    /// ad" cost, amortized).
    ///
    /// Only impressions of users with ids below the cohort size are
    /// ingested (the scenario may simulate more users than enrolled —
    /// the paper's panel was 100 out of a larger population).
    pub fn ingest(&mut self, scenario: &Scenario, log: &ImpressionLog) {
        self.ingest_on(scenario, log, &mut InProcBus::new());
    }

    /// [`Self::ingest`] over an arbitrary [`ServiceBus`]: clients are
    /// walked in id order, and every OPRF batch crosses `bus` as one
    /// `OprfBatchRequest` envelope.
    ///
    /// The resolved mapping is identical for every bus: the PRF output
    /// depends only on the server key and the URL, never on transport or
    /// blinding randomness.
    pub fn ingest_on<B: ServiceBus>(
        &mut self,
        scenario: &Scenario,
        log: &ImpressionLog,
        bus: &mut B,
    ) {
        // Group this week's impressions by enrolled client, keeping the
        // log's order within each group.
        let mut per_client: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for r in log.records() {
            if (r.user as usize) < self.clients.len() {
                per_client
                    .entry(r.user)
                    .or_default()
                    .push((r.ad, r.site as u64));
            }
        }
        for client in &mut self.clients {
            let Some(impressions) = per_client.get(&client.id()) else {
                continue;
            };
            let urls: Vec<String> = impressions
                .iter()
                .map(|&(ad, _)| scenario.campaigns[ad as usize].ad.url())
                .collect();
            let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
            let keys = client.map_ads_on(&url_refs, &self.oprf, bus);
            for (&(ad, site), key) in impressions.iter().zip(keys) {
                self.sim_ad_to_key.insert(ad, key);
                client.observe(key, site);
            }
        }
    }

    /// Runs an aggregation round in-process. `silent` lists client ids
    /// that fail to report (the fault-tolerance path).
    ///
    /// [`Self::run_round_on`] against a fresh
    /// [`SystemConfig::cluster_backends`]-shard cluster behind an
    /// in-proc [`RoutingBus`].
    pub fn run_round(&mut self, round: u64, silent: &[u32]) -> DrivenRound {
        let map = self.cluster_map();
        let mut backend = self.new_cluster(&map);
        let mut bus = RoutingBus::in_proc(map, None);
        self.run_round_on(&mut backend, &mut bus, round, silent)
    }

    /// Runs one aggregation round — the typestate machine of
    /// [`crate::node`] (Open → Reports → Recovery → Finalize) — over a
    /// caller-prepared cluster backend and bus. Every axis is the
    /// caller's: [`RoutingBus::over_wire`] for framed, fault-injected
    /// per-shard uplinks (lost reports make their senders "missing";
    /// recovery runs over the re-established clean links), a scripted
    /// [`ew_simnet::ShardKill`] on the bus for the uplink-sever drill,
    /// [`ClusterBackend::script_restart`] for the crash-restart drill.
    /// The outcome is bit-identical across all of them on lossless
    /// links.
    pub fn run_round_on<B: ServiceBus>(
        &mut self,
        backend: &mut ClusterBackend,
        bus: &mut B,
        round: u64,
        silent: &[u32],
    ) -> DrivenRound {
        let params = self.config.cms;
        let driven = drive_round(&self.clients, backend, bus, params, round, silent, 1);
        self.finish_round(backend, bus);
        driven
    }

    /// Shared tail of every finalized round, single or campaign epoch:
    /// drains the bus, cluster and OPRF telemetry into the telemetry
    /// service. The round itself is the caller's: what the driver
    /// returns is the only copy of it.
    fn finish_round<B: ServiceBus>(&mut self, backend: &mut ClusterBackend, bus: &mut B) {
        if let Some(metrics) = bus.take_metrics() {
            self.telemetry.observe(&metrics);
        }
        self.telemetry.observe(&backend.take_metrics());
        self.telemetry.observe_oprf(&self.oprf.take_batch_hist());
    }

    /// The key-space partition for this system's configured cluster
    /// size ([`SystemConfig::cluster_backends`]).
    pub fn cluster_map(&self) -> ShardMap {
        ShardMap::uniform(self.config.cluster_backends.max(1) as u32)
    }

    /// A fresh [`ClusterBackend`] for `map`, with every enrolled
    /// client's key published on its bulletin board.
    pub fn new_cluster(&self, map: &ShardMap) -> ClusterBackend {
        let mut cluster = ClusterBackend::new(
            map.clone(),
            self.group.element_len(),
            self.config.cms,
            AdIdMapper::new(self.config.ad_capacity),
            self.config.policy,
        );
        for (user, key) in self.directory.iter() {
            cluster.enroll(user, key.clone());
        }
        cluster
    }

    /// The one churn-campaign driver: runs a multi-epoch schedule
    /// against one long-lived cluster backend. The tick-based epoch
    /// [`Coordinator`] drives the round: `now` is drawn from an
    /// arbitrary [`Clock`], and each scheduled epoch is one loop of
    /// ticks, each tick followed by the round step its [`EpochEvent`]
    /// asks for and a checkpoint of the coordinator into the cluster's
    /// control journal:
    ///
    /// 1. the epoch's joins cross the bus as [`Message::Join`] envelopes
    ///    and the first tick admits them (`min_clients`) and starts the
    ///    warmup countdown — below `min_clients` the epoch never forms;
    /// 2. `ReportsOpened`: the frozen roster becomes the epoch's world —
    ///    the cluster reads its bulletin board through it
    ///    ([`ClusterBackend::begin_epoch`]), every member re-syncs its
    ///    blinding state to the roster directory
    ///    ([`Client::sync_blinding`]) — and the round opens; the
    ///    window's clean leaves and silent drops are registered, and
    ///    the drops become the round's silent set;
    /// 3. `RecoveryStarted`: the report deadline has passed, so the
    ///    members' reports are collected and whoever is missing is
    ///    recovered through the `MissingClients` wave;
    /// 4. `FinalizeStarted`: the round finalizes;
    /// 5. `Collapsed`: drops pushed the epoch below `min_clients`, so
    ///    the open round is abandoned ([`ClusterBackend::collapse_epoch`])
    ///    and the campaign carries on with the survivors.
    ///
    /// The epoch's loop ends when the coordinator is back to
    /// [`EpochPhase::WaitingForMembers`]. The coordinator must be there
    /// when the call starts, too: each step takes over the round the
    /// step before it left, so a coordinator handed over mid-epoch
    /// panics instead of skipping a step.
    ///
    /// Epoch ids the schedule churns must be below the system's cohort
    /// size (the campaign population is a subset of the built cohort).
    /// An undisturbed campaign is a
    /// [`crate::coordinator::LogicalClock`] with
    /// [`CoordinatorFault::none()`]; a scripted [`CoordinatorFault`]
    /// layers on top:
    ///
    /// * a [`ew_simnet::CoordinatorCrash`] destroys the coordinator in
    ///   every epoch, after the tick that enters its [`CrashPoint`]'s
    ///   phase once that tick's round step is done and journaled, and
    ///   rebuilds it from the journal's latest checkpoint alone
    ///   ([`restart_coordinator`]) — the coordinator half of the
    ///   shard crash-restart drill, and like that drill it must leave
    ///   campaign outcomes bit-identical;
    /// * a [`ew_simnet::StragglerStorm`] makes a deterministic slice of
    ///   each roster blow the report deadline: the victims are
    ///   deadline-dropped into the §6 silent-set recovery path
    ///   ([`Coordinator::drop_straggler`]), and their reports arrive
    ///   `lateness` ticks after finalize — parked in the control
    ///   journal and folded into the next epoch when the grace window
    ///   covers the lateness, refused for good when it does not, and
    ///   answered with an `EPOCH_CLOSED` + [`ew_proto::AdmissionHint`]
    ///   reply either way ([`deliver_late_report`]).
    ///
    /// Phase transitions fire at the first tick **at or past** their
    /// deadline and lateness is compared against `grace_ticks`
    /// logically, so outcomes are insensitive to clock jitter: any
    /// [`crate::coordinator::VirtualClock`] schedule produces the same
    /// `EpochOutcome`s as the `LogicalClock` baseline
    /// (`tests/coordinator_soak.rs` pins it), and a fixed schedule
    /// finalizes bit-identically for every bus and cluster size
    /// (`tests/cluster_parity.rs`).
    pub fn run_epochs_deadline_on<B: ServiceBus, C: Clock>(
        &mut self,
        backend: &mut ClusterBackend,
        bus: &mut B,
        coordinator: &mut Coordinator,
        clock: &mut C,
        schedule: &[EpochChurn],
        fault: &CoordinatorFault,
    ) -> Vec<EpochOutcome> {
        let params = self.config.cms;
        let mut outcomes = Vec::with_capacity(schedule.len());
        assert_eq!(
            coordinator.phase(),
            EpochPhase::WaitingForMembers,
            "a campaign starts between epochs"
        );

        for spec in schedule {
            // Reports parked during the previous epoch's grace window
            // fold in ahead of the scheduled joins: a parked envelope
            // has proven its sender is alive, so the sender is
            // re-admitted and its data rides this epoch's fresh report.
            let mut joining: Vec<u32> = backend
                .take_parked_reports()
                .iter()
                .filter_map(|env| match env.sender {
                    NodeId::Client(user) => Some(user),
                    _ => None,
                })
                .collect();
            joining.extend(spec.joins.iter().copied());
            joining.sort_unstable();
            joining.dedup();

            // Joins cross the bus like any other membership traffic.
            for &user in &joining {
                assert!(
                    (user as usize) < self.clients.len(),
                    "campaign user {user} is outside the built cohort"
                );
                let env = Envelope::new(
                    NodeId::Client(user),
                    0,
                    Message::Join {
                        user,
                        epoch: coordinator.epoch(),
                    },
                );
                bus.send(NodeId::Coordinator, env)
                    .expect("coordinator mailbox open");
            }
            pump(bus, NodeId::Coordinator, |req| {
                coordinator.on_envelope(&req, |u| self.directory.get(u).is_some())
            });
            backend.checkpoint_coordinator(coordinator.checkpoint());

            // What the epoch's outcome reports; an epoch that never
            // forms keeps the coordinator's current ids.
            let (mut epoch, mut round) = (coordinator.epoch(), coordinator.round());
            let (mut formed, mut collapsed) = (false, false);
            let mut members = Vec::new();
            let mut silent = Vec::new();
            let mut victims = Vec::new();
            // The round between the steps that advance it.
            let mut open = None;
            let mut recovered = None;
            let mut driven = None;
            // One scripted crash per epoch, at the fault's phase.
            let mut crash = fault.crash.map(|c| c.phase);

            loop {
                match coordinator.tick(clock.now()) {
                    None => {}
                    Some(EpochEvent::EpochStarted { epoch: e, round: r }) => {
                        (epoch, round, formed) = (e, r, true);
                    }
                    Some(EpochEvent::ReportsOpened { .. }) => {
                        backend.begin_epoch(coordinator.roster());
                        members = coordinator.roster().iter().copied().collect();
                        let mut directory = KeyDirectory::new(self.group.element_len());
                        for &user in &members {
                            directory
                                .publish(user, self.clients[user as usize].public_key().clone());
                        }
                        for &user in &members {
                            self.clients[user as usize].sync_blinding(&self.group, &directory);
                        }
                        open = Some(RoundOpen::open(backend, bus, round));

                        // Mid-window churn: clean leaves over the bus,
                        // silent drops through the failure-detector
                        // seam, and the storm's victims through the
                        // deadline scheduler's.
                        for &user in &spec.leaves {
                            let env = Envelope::new(
                                NodeId::Client(user),
                                round,
                                Message::Leave { user, epoch },
                            );
                            bus.send(NodeId::Coordinator, env)
                                .expect("coordinator mailbox open");
                        }
                        pump(bus, NodeId::Coordinator, |req| {
                            coordinator.on_envelope(&req, |u| self.directory.get(u).is_some())
                        });
                        for &user in &spec.drops {
                            coordinator.mark_dropped(user);
                        }
                        victims = fault
                            .storm
                            .map(|storm| storm.victims(epoch, &members))
                            .unwrap_or_default();
                        if !victims.is_empty() {
                            trace::instant("straggler_storm", epoch, victims.len() as u64);
                        }
                        for &user in &victims {
                            coordinator.drop_straggler(user);
                        }
                        // The dropouts (silent and deadline-dropped
                        // alike) as the coordinator recorded them:
                        // members only, each once. Read now: a
                        // collapsing tick folds them out.
                        silent = coordinator.dropped();
                    }
                    Some(EpochEvent::RecoveryStarted { .. }) => {
                        let clients: Vec<&Client> =
                            members.iter().map(|&u| &self.clients[u as usize]).collect();
                        let round = open.take().expect("round opened at ReportsOpened");
                        recovered = Some(
                            round
                                .collect_reports(&clients, &silent, params, 1, backend, bus)
                                .recover(&clients, params, 1, backend, bus),
                        );
                    }
                    Some(EpochEvent::FinalizeStarted { .. }) => {
                        let round = recovered
                            .take()
                            .expect("round recovered at RecoveryStarted");
                        driven = Some(round.finalize(backend, bus));
                    }
                    Some(EpochEvent::EpochCompleted { .. }) => {
                        // The storm's late reports land once the epoch
                        // completes.
                        if let Some(storm) = fault.storm {
                            for &user in &victims {
                                let report =
                                    self.clients[user as usize].report_envelope(params, round);
                                let (_, refusal) = deliver_late_report(
                                    backend,
                                    coordinator,
                                    report,
                                    storm.lateness,
                                );
                                bus.send(NodeId::Client(user), refusal)
                                    .expect("straggler mailbox open");
                            }
                        }
                    }
                    Some(EpochEvent::Collapsed { .. }) => {
                        backend.collapse_epoch();
                        collapsed = true;
                    }
                }
                backend.checkpoint_coordinator(coordinator.checkpoint());
                if let Some(point) = crash.take_if(|&mut p| crash_phase(p) == coordinator.phase()) {
                    crash_drill(point, backend, coordinator, &mut self.telemetry);
                }
                if coordinator.phase() == EpochPhase::WaitingForMembers {
                    break;
                }
            }

            if driven.is_some() {
                self.finish_round(backend, bus);
            }
            if formed {
                self.telemetry
                    .observe_churn(&coordinator.take_churn_metrics());
            }
            outcomes.push(EpochOutcome {
                epoch,
                round,
                members,
                joined: joining,
                dropped: silent,
                collapsed: !formed || collapsed,
                outcome: driven,
            });
        }
        // Campaign over: one snapshot line set per campaign when
        // `EW_TELEMETRY_JSON` names a sink (no-op otherwise).
        self.telemetry
            .snapshot()
            .export_json_env("deadline_campaign");
        outcomes
    }

    /// [`Self::run_epochs_deadline_on`] with a fresh in-proc routing
    /// bus, a fresh cluster and a fresh genesis coordinator — the
    /// one-call entry point for deadline/fault campaigns.
    pub fn run_epochs_deadline<C: Clock>(
        &mut self,
        min_clients: u32,
        grace_ticks: u64,
        clock: &mut C,
        schedule: &[EpochChurn],
        fault: &CoordinatorFault,
    ) -> Vec<EpochOutcome> {
        let map = self.cluster_map();
        let mut backend = self.new_cluster(&map);
        let mut bus = RoutingBus::in_proc(map, None);
        let mut coordinator = Coordinator::new(
            EpochConfig::default()
                .with_min_clients(min_clients)
                .with_grace_ticks(grace_ticks),
        );
        self.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            clock,
            schedule,
            fault,
        )
    }

    /// The telemetry service (per-round and lifetime replay-path
    /// metrics, fed by every round, plus the churn view).
    pub fn telemetry(&self) -> &TelemetryService {
        &self.telemetry
    }

    /// The real-time audit (Figure 1, arrow 5 + the per-ad query) over
    /// an arbitrary [`ServiceBus`], against `view`, a finalized round's
    /// view the caller holds (a [`DrivenRound`]'s): the client sends a
    /// `UsersQuery` envelope for the ad's ID, the backend answers a
    /// `UsersReply` envelope from `view` (the same `serve` a cluster
    /// shard answers through, with no round open), and the client
    /// combines the estimate with its local counters and `view`'s
    /// `Users_th`. Returns `None` if the user id or the ad is unknown,
    /// or the bus lost the exchange.
    pub fn audit_on<B: ServiceBus>(
        &self,
        bus: &mut B,
        view: &GlobalView,
        user: u32,
        sim_ad: u64,
    ) -> Option<Verdict> {
        let client = self.clients.get(user as usize)?;
        let ad = self.sim_ad_to_key.get(&sim_ad).copied()?;
        let users_th = view.users_threshold();

        // Client -> backend query, backend -> client reply, enveloped.
        let me = NodeId::Client(client.id());
        bus.send(
            NodeId::Backend,
            Envelope::new(me, 0, Message::UsersQuery { round: 0, ad }),
        )
        .ok()?;
        pump(bus, NodeId::Backend, |req| {
            serve(&mut None, Some(view), &req, |user| {
                self.directory.get(user).is_some()
            })
            .ok()
            .flatten()
        });
        let (replies, _) = bus.drain(me);
        let estimate = replies.into_iter().find_map(|env| match env.msg {
            Message::UsersReply { estimate, .. } => Some(estimate),
            _ => None,
        })?;

        // Local half of the decision: the client's own counters plus the
        // broadcast threshold.
        Some(Detector::new(self.config.detector).classify_estimate(
            client.counters(),
            ad,
            || estimate as f64,
            users_th,
        ))
    }

    /// Clears every client's window (after a completed round).
    pub fn reset_windows(&mut self) {
        for c in &mut self.clients {
            c.reset_window();
        }
    }

    /// Every enrolled client audits every ad they saw against `view`;
    /// verdicts are scored against the simulator's ground truth.
    pub fn audit_against(
        &self,
        log: &ImpressionLog,
        view: &GlobalView,
    ) -> (ConfusionMatrix, usize) {
        // Ground truth per protocol ad key (collisions: targeted wins,
        // conservative for FP accounting).
        let mut truth: HashMap<AdKey, AdClass> = HashMap::new();
        for r in log.records() {
            if let Some(&key) = self.sim_ad_to_key.get(&r.ad) {
                let entry = truth.entry(key).or_insert(r.truth);
                if r.truth == AdClass::Targeted {
                    *entry = AdClass::Targeted;
                }
            }
        }

        let (confusion, _, insufficient) = score(
            self.clients.iter().map(|c| (c.id(), c.counters())),
            self.config.detector,
            |_| view,
            // An ad the log never showed counts as non-targeted.
            |ad| truth.get(&ad) == Some(&AdClass::Targeted),
        );
        (confusion, insufficient)
    }
}

/// Rebuilds the epoch coordinator from the cluster's control journal:
/// the latest [`ew_proto::CoordinatorCheckpoint`] if one was taken,
/// else a fresh genesis coordinator. This is the
/// coordinator half of the crash-restart drill —
/// [`ClusterBackend::restart_shard`]'s twin: the in-memory coordinator
/// is gone, the control journal is the only survivor, and the campaign
/// must resume as if nothing happened.
pub fn restart_coordinator(backend: &ClusterBackend, config: EpochConfig) -> Coordinator {
    match backend.latest_coordinator_checkpoint() {
        Some(checkpoint) => Coordinator::restore(config, checkpoint),
        None => Coordinator::new(config),
    }
}

/// The coordinator phase a scripted crash at `point` strikes in.
fn crash_phase(point: CrashPoint) -> EpochPhase {
    match point {
        CrashPoint::Warmup => EpochPhase::Warmup,
        CrashPoint::Reports => EpochPhase::Reports,
        CrashPoint::Recovery => EpochPhase::Recovery,
        CrashPoint::Finalize => EpochPhase::Finalize,
        CrashPoint::Grace => EpochPhase::Grace,
    }
}

/// Executes one scripted coordinator crash at `point`: the coordinator
/// is dropped on the floor and rebuilt from the control journal's
/// latest checkpoint.
///
/// The drill knows the crash is coming, so it first drains the doomed
/// coordinator's churn counters into `telemetry` — they live outside
/// the checkpoint (and outside protocol state), and would otherwise
/// vanish with the in-memory coordinator.
fn crash_drill(
    point: CrashPoint,
    backend: &ClusterBackend,
    coordinator: &mut Coordinator,
    telemetry: &mut TelemetryService,
) {
    telemetry.observe_churn(&coordinator.take_churn_metrics());
    let config = coordinator.config();
    // The causality chain a crash drill must leave in the flight
    // recorder: the crash instant, then a restart span whose child is
    // the `coordinator_restore` instant emitted by the journal replay.
    trace::instant(
        "coordinator_crash",
        point.index() as u64,
        coordinator.epoch(),
    );
    let span = trace::span(
        "coordinator_restart",
        coordinator.epoch(),
        coordinator.round(),
    );
    *coordinator = restart_coordinator(backend, config);
    drop(span);
}

/// Handles a report that arrived after its epoch finalized. When the
/// grace window is open **and** covers the report's lateness, the
/// envelope is parked in the cluster's control journal — journaled, so
/// it survives a coordinator restart — to be folded into the next
/// epoch; otherwise it is refused for good. Either way the sender gets
/// an `EPOCH_CLOSED` reply carrying the [`ew_proto::AdmissionHint`]:
/// which epoch to rejoin and how many ticks to back off first.
///
/// Lateness is compared against the configured grace window in logical
/// ticks — never against the jittered tick the report happened to
/// arrive on — so whether a report parks is a pure function of the
/// schedule, not of the clock driving it.
pub fn deliver_late_report(
    backend: &mut ClusterBackend,
    coordinator: &Coordinator,
    report: Envelope,
    lateness: u64,
) -> (bool, Envelope) {
    let round = report.round;
    let parked = coordinator.in_grace() && lateness <= coordinator.config().grace_ticks;
    if parked {
        backend.park_late_report(coordinator.epoch(), round, report);
    }
    let refusal = Envelope::new(
        NodeId::Coordinator,
        round,
        Message::Error {
            code: error_code::EPOCH_CLOSED,
            detail: format!(
                "round {round} is finalized; report {}",
                if parked {
                    "parked for the next epoch"
                } else {
                    "refused (grace window missed)"
                }
            ),
            hint: Some(coordinator.admission_hint()),
        },
    );
    (parked, refusal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::LogicalClock;
    use ew_proto::transport::TransportError;
    use ew_proto::FaultConfig;
    use ew_simnet::{RestartPhase, ScenarioConfig, ShardRestart};

    fn small_system() -> (EyewnderSystem, Scenario, ImpressionLog) {
        let mut cfg = ScenarioConfig::small(5);
        cfg.num_users = 24;
        cfg.num_websites = 60;
        cfg.avg_user_visits = 40.0;
        let scenario = Scenario::build(cfg);
        let log = scenario.run_week(0);
        let sys = EyewnderSystem::new(SystemConfig::default(), 24);
        (sys, scenario, log)
    }

    #[test]
    fn full_round_matches_cleartext_counts() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let outcome = sys.run_round(1, &[]);
        assert_eq!(outcome.reports, 24);
        assert!(outcome.missing.is_empty());

        // The unblinded aggregate must reproduce the exact #Users counts
        // up to CMS over-estimation (which only inflates) and the rare
        // ad-ID birthday collision (which merges two ads' counts).
        let mut inflated = 0usize;
        let mut total = 0usize;
        for (sim_ad, users) in log.users_per_ad() {
            let key = sys.ad_key_of(sim_ad).expect("ad ingested");
            let est = outcome.view.users(key);
            total += 1;
            assert!(
                est >= users as f64,
                "ad {sim_ad}: estimate {est} < true {users}"
            );
            if est > users as f64 + 3.0 {
                inflated += 1;
            }
        }
        assert!(
            inflated * 50 <= total,
            "{inflated}/{total} estimates inflated beyond CMS slack"
        );
    }

    #[test]
    fn missing_clients_recovered() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let silent = vec![3u32, 11];
        let outcome = sys.run_round(2, &silent);
        assert_eq!(outcome.missing, silent);
        assert_eq!(outcome.reports, 22);
        // Counts must still be sane (no garbage from unmatched blinding):
        // every estimate within the count of reporting users + slack.
        for est in outcome.view.distribution().iter() {
            assert!(*est <= 24.0 + 3.0, "estimate {est} looks like residue");
        }
    }

    #[test]
    fn audit_is_precise_on_small_world() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let outcome = sys.run_round(1, &[]);
        let (confusion, _skipped) = sys.audit_against(&log, &outcome.view);
        assert!(confusion.total() > 0);
        assert!(
            confusion.fpr() < 0.15,
            "FPR {:.3} too high for the controlled world",
            confusion.fpr()
        );
    }

    #[test]
    fn audits_answer_from_the_view_they_are_given() {
        /// An in-proc bus that keeps every `#Users` estimate it carries.
        #[derive(Default)]
        struct Recording {
            inner: InProcBus,
            estimates: Vec<u32>,
        }
        impl ServiceBus for Recording {
            fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
                if let Message::UsersReply { estimate, .. } = env.msg {
                    self.estimates.push(estimate);
                }
                self.inner.send(dest, env)
            }
            fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
                self.inner.drain(dest)
            }
        }

        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let first = sys.run_round(1, &[]);
        sys.run_round(2, &[5]);
        let silent: Vec<u32> = (0..12).collect();
        let third = sys.run_round(3, &silent);

        // An ad whose #Users moved between rounds 1 and 3, audited by a
        // user who saw it, against each round's view in turn.
        let record = log
            .records()
            .iter()
            .find(|r| {
                let key = sys.ad_key_of(r.ad).expect("ad ingested");
                first.view.users(key) != third.view.users(key)
            })
            .expect("silencing half the cohort moves some ad's count");
        let key = sys.ad_key_of(record.ad).expect("ad ingested");
        let counters = sys.clients[record.user as usize].counters();
        let detector = Detector::new(sys.config.detector);
        for view in [&first.view, &third.view] {
            let mut bus = Recording::default();
            let verdict = sys
                .audit_on(&mut bus, view, record.user, record.ad)
                .expect("a known user and ad are answered");
            assert_eq!(bus.estimates, vec![view.users(key) as u32]);
            assert_eq!(verdict, detector.classify(counters, key, view));
        }
    }

    #[test]
    fn wire_round_with_faults_still_converges() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let fault = FaultConfig {
            drop_prob: 0.2,
            corrupt_prob: 0.1,
            duplicate_prob: 0.1,
            reorder_prob: 0.1,
            seed: 9,
        };
        let map = sys.cluster_map();
        let mut backend = sys.new_cluster(&map);
        let mut bus = RoutingBus::over_wire(map, Some(fault), None);
        let outcome = sys.run_round_on(&mut backend, &mut bus, 3, &[]);
        // Some reports were lost...
        assert!(outcome.reports < 24 || outcome.corrupt_frames > 0 || outcome.missing.is_empty());
        // ...but recovery kept the aggregate clean.
        for est in outcome.view.distribution() {
            assert!(est <= 27.0, "estimate {est} is blinding residue");
        }
    }

    #[test]
    fn restart_drill_is_invisible_in_the_round_outcome() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let silent = vec![3u32];
        let map = ShardMap::uniform(2);

        let mut backend = sys.new_cluster(&map);
        let mut bus = RoutingBus::in_proc(map.clone(), None);
        let base = sys.run_round_on(&mut backend, &mut bus, 1, &silent);

        for shard in [0u32, 1] {
            for phase in [
                RestartPhase::Reports,
                RestartPhase::Recovery,
                RestartPhase::MidReplay,
            ] {
                let mut backend = sys.new_cluster(&map);
                backend.script_restart(ShardRestart { shard, phase });
                let mut bus = RoutingBus::in_proc(map.clone(), None);
                let outcome = sys.run_round_on(&mut backend, &mut bus, 1, &silent);
                assert_eq!(outcome.view, base.view, "shard={shard} phase={phase:?}");
                assert_eq!(outcome.missing, base.missing);
                assert_eq!(outcome.reports, base.reports);

                // The script is one-shot: a second round on the same
                // backend is not crashed, so nothing more is replayed.
                let replayed = sys.telemetry().totals().replayed;
                let again = sys.run_round_on(&mut backend, &mut bus, 2, &silent);
                assert_eq!(again.missing, base.missing);
                assert_eq!(again.reports, base.reports);
                assert_eq!(
                    sys.telemetry().totals().replayed,
                    replayed,
                    "shard={shard} phase={phase:?}: the spent script fired again"
                );
            }
        }
        // The drills actually exercised the replay path.
        assert!(sys.telemetry().totals().replayed > 0);
    }

    #[test]
    fn telemetry_records_round_and_lifetime_metrics() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        sys.config.cluster_backends = 2;
        let outcome = sys.run_round(1, &[]);
        assert_eq!(outcome.reports, 24);

        let metrics = sys.telemetry().totals();
        assert_eq!(metrics.routed, 24, "one routed envelope per report");
        assert_eq!(metrics.journal_depth, 0, "finalize truncates the log");
        assert!(metrics.truncated > 0, "the absorbed records were truncated");
        for (phase, hist) in metrics.phase_hist.iter().enumerate() {
            assert_eq!(hist.count(), 1, "phase {phase} timed once per round");
        }

        // A second round adds to the lifetime totals.
        sys.run_round(2, &[]);
        let totals = sys.telemetry().totals();
        assert_eq!(totals.routed, 2 * metrics.routed);
        assert!(totals.phase_hist.iter().all(|h| h.count() == 2));
    }

    #[test]
    fn epoch_campaign_runs_joins_drops_and_one_collapse() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        sys.config.cluster_backends = 2;
        let spec = |joins: Vec<u32>, leaves: Vec<u32>, drops: Vec<u32>| EpochChurn {
            joins,
            leaves,
            drops,
        };
        let schedule = vec![
            spec((0..8).collect(), vec![], vec![]),
            spec(vec![8, 9], vec![1], vec![2]),
            // Five of eight members drop: 3 survivors < min_clients 4.
            spec(vec![], vec![], vec![0, 3, 4, 5, 6]),
            spec(vec![10, 11], vec![], vec![]),
        ];
        let outcomes = sys.run_epochs_deadline(
            4,
            EpochConfig::default().grace_ticks,
            &mut LogicalClock::new(),
            &schedule,
            &CoordinatorFault::none(),
        );
        assert_eq!(outcomes.len(), 4);

        assert_eq!(outcomes[0].members, (0..8).collect::<Vec<u32>>());
        let first = outcomes[0].outcome.as_ref().expect("epoch 1 completed");
        assert_eq!(first.reports, 8);

        // Epoch 2: churned roster, a clean leave (still reports) and a
        // silent drop (recovered through the adjustment path).
        assert_eq!(outcomes[1].members, (0..10).collect::<Vec<u32>>());
        let second = outcomes[1].outcome.as_ref().expect("epoch 2 completed");
        assert_eq!(second.reports, 9);
        assert_eq!(second.missing, vec![2]);
        for est in second.view.distribution() {
            assert!(est <= 13.0, "estimate {est} looks like blinding residue");
        }

        // Epoch 3 collapses below min_clients: round abandoned.
        assert!(outcomes[2].collapsed);
        assert!(outcomes[2].outcome.is_none());
        assert_eq!(outcomes[2].members.len(), 8);

        // Epoch 4 re-forms from survivors {7, 8, 9} plus the refill.
        assert_eq!(outcomes[3].members, vec![7, 8, 9, 10, 11]);
        assert!(!outcomes[3].collapsed);
        let last = outcomes[3].outcome.as_ref().expect("epoch 4 completed");
        assert_eq!(last.reports, 5);
        for est in last.view.distribution() {
            assert!(est <= 8.0, "estimate {est} looks like blinding residue");
        }

        let churn = sys.telemetry().churn();
        assert_eq!(churn.collapses, 1);
        assert_eq!(churn.epochs_completed, 3);
        assert_eq!(churn.joins, 12);
        assert_eq!(churn.drops, 6, "one epoch-2 drop plus five collapse drops");
        assert_eq!(churn.members, 5, "final roster gauge");
        assert!(churn.phase_ticks.iter().all(|&t| t > 0));
    }

    #[test]
    fn late_reports_park_only_inside_the_grace_window() {
        let (sys, ..) = small_system();
        let map = sys.cluster_map();
        let mut backend = sys.new_cluster(&map);

        // Walk a two-member coordinator to its first grace window.
        let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(2));
        coordinator.register_join(0);
        coordinator.register_join(1);
        let mut now = 0u64;
        while !coordinator.in_grace() {
            now += 1;
            coordinator.tick(now);
        }

        let report = Envelope::new(
            NodeId::Client(0),
            coordinator.round(),
            Message::Join { user: 0, epoch: 0 },
        );
        let (parked, refusal) = deliver_late_report(&mut backend, &coordinator, report.clone(), 1);
        assert!(parked, "lateness 1 sits inside the default one-tick window");
        match refusal.msg {
            Message::Error { code, hint, .. } => {
                assert_eq!(code, error_code::EPOCH_CLOSED);
                let hint = hint.expect("every refusal carries the admission hint");
                assert_eq!(hint.epoch, coordinator.epoch() + 1);
                assert!(hint.retry_after >= 1);
            }
            other => panic!("refusal must be an error, got {}", other.kind()),
        }
        let parked_envelopes = backend.take_parked_reports();
        assert_eq!(parked_envelopes.len(), 1);
        assert_eq!(parked_envelopes[0].sender, NodeId::Client(0));
        assert!(
            backend.take_parked_reports().is_empty(),
            "consumption is a durable watermark, not a re-read"
        );

        let (parked, refusal) = deliver_late_report(&mut backend, &coordinator, report, 5);
        assert!(!parked, "lateness beyond grace_ticks is refused for good");
        assert!(matches!(refusal.msg, Message::Error { hint: Some(_), .. }));
        assert!(backend.take_parked_reports().is_empty());
    }

    #[test]
    fn restart_coordinator_restores_the_latest_checkpoint_or_genesis() {
        let (sys, ..) = small_system();
        let map = sys.cluster_map();
        let mut backend = sys.new_cluster(&map);
        let config = EpochConfig::default().with_min_clients(2);

        // An empty control journal restarts at genesis.
        let genesis = restart_coordinator(&backend, config);
        assert_eq!(genesis.epoch(), 0);
        assert_eq!(genesis.phase(), EpochPhase::WaitingForMembers);

        // After checkpoints land, the latest one wins.
        let mut coordinator = Coordinator::new(config);
        coordinator.register_join(0);
        coordinator.register_join(1);
        backend.checkpoint_coordinator(coordinator.checkpoint());
        coordinator.tick(1);
        backend.checkpoint_coordinator(coordinator.checkpoint());

        let restored = restart_coordinator(&backend, config);
        assert_eq!(restored.epoch(), coordinator.epoch());
        assert_eq!(restored.round(), coordinator.round());
        assert_eq!(restored.phase(), coordinator.phase());
        assert_eq!(restored.last_tick(), coordinator.last_tick());
        assert_eq!(
            restored.checkpoint(),
            coordinator.checkpoint(),
            "the restored coordinator re-checkpoints to the same record"
        );
    }

    #[test]
    #[should_panic(expected = "a campaign starts between epochs")]
    fn a_campaign_refuses_a_coordinator_handed_over_mid_epoch() {
        // Each step takes over the round its predecessor left, so a
        // coordinator already past admission would skip the round's
        // open and report the epoch wrongly: the driver refuses it.
        let (mut sys, ..) = small_system();
        let map = sys.cluster_map();
        let mut backend = sys.new_cluster(&map);
        let mut bus = RoutingBus::in_proc(map, None);
        let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(2));
        coordinator.register_join(0);
        coordinator.register_join(1);
        coordinator.tick(1);
        assert_eq!(coordinator.phase(), EpochPhase::Warmup);
        sys.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            &mut LogicalClock::starting_at(1),
            &[EpochChurn::default()],
            &CoordinatorFault::none(),
        );
    }

    #[test]
    fn oprf_called_once_per_unique_ad_per_client() {
        let (mut sys, scenario, log) = small_system();
        sys.ingest(&scenario, &log);
        let mut per_client_unique: u64 = 0;
        let mut seen: std::collections::HashSet<(u32, u64)> = Default::default();
        for r in log.records() {
            if (r.user as usize) < sys.clients.len() && seen.insert((r.user, r.ad)) {
                per_client_unique += 1;
            }
        }
        assert_eq!(sys.oprf_requests(), per_client_unique);
    }
}
