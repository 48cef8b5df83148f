//! The world the fault suites share: one builder, one runner for rounds
//! and campaigns over every transport × shard count × scripted fault,
//! one set of equality checks, and the clear-text view a finalized round
//! must equal.
//!
//! Each suite includes it with `mod world;` and keeps its own seed,
//! scale, cohort and sketch dimensions. No suite picks a [`RoutingBus`]
//! transport itself: a [`Cell`] names it, and [`cluster`] builds it.

// Each suite uses its own part of this module.
#![allow(dead_code)]

use eyewnder::bigint::UBig;
use eyewnder::core::{GlobalView, ThresholdPolicy};
use eyewnder::proto::{Envelope, FaultConfig, NodeId, ShardMap, TransportError};
use eyewnder::simnet::{
    ClusterScenario, CoordinatorFault, DriverScale, EpochChurn, ImpressionLog, ShardKill,
    ShardRestart, WeeklyDriver,
};
use eyewnder::sketch::{CmsParams, CountMinSketch};
use eyewnder::system::cluster::{ClusterBackend, RoutingBus};
use eyewnder::system::node::{RoundPhase, ServiceBus};
use eyewnder::system::{
    AdIdMapper, Clock, Coordinator, DrivenRound, EpochConfig, EpochOutcome, EyewnderSystem,
    ReplayMetrics, SystemConfig,
};
use std::collections::BTreeSet;

/// The small sketch the cluster and coordinator suites run: dimension
/// parity is independent of the cell count, and debug CI runs many
/// rounds.
pub fn small_cms() -> CmsParams {
    CmsParams::new(4, 512, 0xC1A5)
}

/// A system of `cohort` clients seeded by `seed`, with sketch `cms` and
/// every other setting at its default.
pub fn system(seed: u64, cms: CmsParams, cohort: usize) -> EyewnderSystem {
    EyewnderSystem::new(
        SystemConfig {
            seed,
            cms,
            ..SystemConfig::default()
        },
        cohort,
    )
}

/// A seeded Table 1 world: the driver's scenario and its first weekly
/// logs, and the seed and sketch every system over it is built with.
pub struct World {
    pub driver: WeeklyDriver,
    pub weeks: Vec<ImpressionLog>,
    pub seed: u64,
    pub cms: CmsParams,
}

impl World {
    /// `weeks` weekly logs of the `scale` world seeded by `seed`, for
    /// systems of `cohort` clients over sketch `cms`.
    pub fn new(seed: u64, scale: DriverScale, cohort: usize, cms: CmsParams, weeks: u64) -> Self {
        let driver = WeeklyDriver::new(seed, scale, cohort);
        let weeks = driver.weeks(weeks);
        World {
            driver,
            weeks,
            seed,
            cms,
        }
    }

    /// The enrolled cohort (clamped to the scenario's population).
    pub fn cohort(&self) -> usize {
        self.driver.cohort()
    }

    /// A fresh system over the world, nothing ingested.
    pub fn system(&self) -> EyewnderSystem {
        system(self.seed, self.cms, self.cohort())
    }

    /// A fresh system with the first week ingested.
    pub fn ingested(&self) -> EyewnderSystem {
        let mut sys = self.system();
        sys.ingest(self.driver.scenario(), &self.weeks[0]);
        sys
    }

    /// A churn campaign on [`Self::ingested`] and a fresh cluster in
    /// `cell`, driven by a genesis coordinator admitting epochs of
    /// `min_clients`: the outcomes and the system that ran them.
    pub fn campaign(
        &self,
        cell: Cell,
        min_clients: u32,
        mut clock: impl Clock,
        schedule: &[EpochChurn],
        fault: &CoordinatorFault,
    ) -> (Vec<EpochOutcome>, EyewnderSystem) {
        let mut sys = self.ingested();
        let (mut backend, mut bus) = cluster(&mut sys, cell);
        let config = EpochConfig::default().with_min_clients(min_clients);
        let mut coordinator = Coordinator::new(config);
        let outcomes = sys.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            &mut clock,
            schedule,
            fault,
        );
        (outcomes, sys)
    }
}

/// How a cell's uplinks carry envelopes.
#[derive(Debug, Clone, Copy, Default)]
pub enum Transport {
    #[default]
    InProc,
    /// Framed wire uplinks, each with its own instance of the fault.
    Wire(Option<FaultConfig>),
}

/// Where one round or campaign runs: the shard count, the transport,
/// and the faults scripted onto the bus and the cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    pub backends: usize,
    pub transport: Transport,
    pub sever: Option<ShardKill>,
    pub restart: Option<ShardRestart>,
}

impl Cell {
    /// `backends` shards over in-proc or lossless wire uplinks.
    pub fn new(backends: usize, wire: bool) -> Self {
        let transport = if wire {
            Transport::Wire(None)
        } else {
            Transport::InProc
        };
        Cell {
            backends,
            transport,
            ..Cell::default()
        }
    }

    /// `backends` shards over wire uplinks carrying `fault`.
    pub fn lossy(backends: usize, fault: Option<FaultConfig>) -> Self {
        Cell {
            transport: Transport::Wire(fault),
            ..Cell::new(backends, true)
        }
    }

    /// The drill a simnet [`ClusterScenario`] scripts.
    pub fn drill(scenario: ClusterScenario, wire: bool) -> Self {
        Cell {
            sever: scenario.failover,
            restart: scenario.restart,
            ..Cell::new(scenario.backends, wire)
        }
    }
}

/// The cluster bus a [`Cell`] runs over: a [`RoutingBus`] over in-proc
/// or wire uplinks.
pub struct Bus(Box<dyn ServiceBus>);

impl ServiceBus for Bus {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        self.0.send(dest, env)
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        self.0.drain(dest)
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        self.0.on_phase(phase)
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        self.0.take_metrics()
    }
}

/// A fresh `cell.backends`-shard cluster on `sys` (its restart
/// scripted) and the bus in front of it (its sever scripted).
pub fn cluster(sys: &mut EyewnderSystem, cell: Cell) -> (ClusterBackend, Bus) {
    sys.config.cluster_backends = cell.backends;
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    if let Some(restart) = cell.restart {
        backend.script_restart(restart);
    }
    (backend, bus(map, cell))
}

/// The bus `cell` puts in front of a cluster routed by `map` (its
/// sever scripted).
pub fn bus(map: ShardMap, cell: Cell) -> Bus {
    Bus(match cell.transport {
        Transport::InProc => Box::new(RoutingBus::in_proc(map, cell.sever)),
        Transport::Wire(fault) => Box::new(RoutingBus::over_wire(map, fault, cell.sever)),
    })
}

/// One round on a fresh cluster in `cell`, with `silent` clients.
pub fn round(sys: &mut EyewnderSystem, cell: Cell, round: u64, silent: &[u32]) -> DrivenRound {
    let (mut backend, mut bus) = cluster(sys, cell);
    sys.run_round_on(&mut backend, &mut bus, round, silent)
}

/// The churn schedule the cluster and coordinator suites drive:
/// formation, a churn epoch with a clean leave and a silent drop, a
/// scripted below-`min_clients` collapse, and a refill epoch over the
/// survivors — every coordinator code path in four epochs, three of
/// which finalize a round.
pub fn churn_schedule() -> Vec<EpochChurn> {
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

/// A bare cluster of `shards` shards over `params`, with `users`
/// enrolled (user `u`'s key is `u + 1`).
pub fn bare_cluster(
    shards: u32,
    params: CmsParams,
    users: impl IntoIterator<Item = u32>,
) -> ClusterBackend {
    let mut cluster = ClusterBackend::new(
        ShardMap::uniform(shards),
        8,
        params,
        AdIdMapper::new(64),
        ThresholdPolicy::Mean,
    );
    for user in users {
        cluster.enroll(user, UBig::from_u64(u64::from(user) + 1));
    }
    cluster
}

/// Two finalized rounds are the same round, to the last bit of
/// `Users_th`.
pub fn assert_rounds_identical(a: &DrivenRound, b: &DrivenRound, label: &str) {
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

/// Two campaigns ran the same epochs over the same rosters and
/// finalized the same rounds.
pub fn assert_epochs_identical(a: &[EpochOutcome], b: &[EpochOutcome], label: &str) {
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
            (Some(p), Some(q)) => assert_rounds_identical(p, q, label),
            _ => panic!(
                "{label}: one run finalized epoch {}, the other did not",
                x.epoch
            ),
        }
    }
}

/// The clear-text reference a round over exactly `reporters` must
/// finalize to: the count-min sketch of the ad keys each reporter saw
/// in `log`, queried over the whole ad-ID space. No blinding, bus,
/// cluster or journal is involved.
pub fn clear_view(sys: &EyewnderSystem, log: &ImpressionLog, reporters: &[u32]) -> GlobalView {
    let seen: BTreeSet<(u32, u64)> = log
        .records()
        .iter()
        .filter(|r| reporters.contains(&r.user))
        .filter_map(|r| Some((r.user, sys.ad_key_of(r.ad)?)))
        .collect();
    let mut sketch = CountMinSketch::new(sys.config.cms);
    for &(_, ad) in &seen {
        sketch.update(ad);
    }
    GlobalView::from_estimates(
        AdIdMapper::new(sys.config.ad_capacity)
            .all_ids()
            .map(|ad| (ad, sketch.query(ad) as f64)),
        sys.config.policy,
    )
}

/// The members of `roster` not in `missing`: who reported.
pub fn reporters(roster: &[u32], missing: &[u32]) -> Vec<u32> {
    let reported = |user: &u32| !missing.contains(user);
    roster.iter().copied().filter(reported).collect()
}
