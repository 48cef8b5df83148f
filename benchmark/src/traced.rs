//! The decorated variants of the round, aggregation and campaign stages.
//!
//! Same calls as `stages`, with every role wrapped in [`Timed`] and the
//! typestate chain walked by hand so that each phase gets a span of its
//! own. Outputs are checked exactly as in the plain stages: a decorator
//! that changed an outcome would fail the run.

use crate::stages::Runner;
use crate::timed::{CountingClock, Timed};
use crate::trace::Tracer;
use crate::world::{CAMPAIGN_GRACE_TICKS, CAMPAIGN_MIN_CLIENTS, RECORDED_ROUND};
use ew_system::cluster::RoutingBus;
use ew_system::node::{AggregationBackend, ClientNode, DrivenRound, RoundOpen, ServiceBus};
use ew_system::telemetry::ReplayMetrics;
use ew_system::{Coordinator, EpochConfig, LogicalClock};

/// What a decorated aggregation replay read off the program's own
/// counters.
#[derive(Debug, Clone, Default)]
pub struct AggregateTrace {
    /// Bus and backend `take_metrics`, merged.
    pub metrics: ReplayMetrics,
    /// Round-log depth after the report wave, before recovery.
    pub journal_depth: u64,
}

/// Walks open → reports → `between` → recovery → finalize with one span
/// per phase.
fn phased_round<C, A, B>(
    tracer: &Tracer,
    clients: &[C],
    backend: &mut A,
    bus: &mut B,
    params: ew_sketch::CmsParams,
    round: u64,
    between: impl FnOnce(&mut A),
) -> DrivenRound
where
    C: ClientNode + Sync,
    A: AggregationBackend,
    B: ServiceBus,
{
    let opened = {
        let _phase = tracer.span("phase.open");
        RoundOpen::open(backend, bus, round)
    };
    let collected = {
        let _phase = tracer.span("phase.reports");
        opened.collect_reports(clients, &[], params, 1, backend, bus)
    };
    between(backend);
    let recovered = {
        let _phase = tracer.span("phase.recovery");
        collected.recover(clients, params, 1, backend, bus)
    };
    let _phase = tracer.span("phase.finalize");
    recovered.finalize(backend, bus)
}

impl Runner {
    /// [`Runner::round`], decorated.
    pub fn traced_round(&mut self, tracer: &Tracer) {
        let round = self.fresh_round();
        tracer.set_round(round);
        let clients: Vec<_> = self
            .world
            .clients
            .iter()
            .map(|c| Timed::new(c, tracer))
            .collect();
        let params = self.world.spec.params;
        let stage = tracer.span("round");
        let (mut backend, mut bus) = {
            let _span = tracer.span("cluster.new");
            (
                Timed::new(self.world.new_cluster(), tracer),
                Timed::new(self.world.new_bus(), tracer),
            )
        };
        let driven = phased_round(
            tracer,
            &clients,
            &mut backend,
            &mut bus,
            params,
            round,
            |_| {},
        );
        drop(stage);
        self.refs
            .check_round(&self.roster, &driven, &mut self.tally);
    }

    /// One replay of [`Runner::aggregate`], decorated.
    pub fn traced_aggregate(&mut self, tracer: &Tracer) -> AggregateTrace {
        tracer.set_round(RECORDED_ROUND);
        self.world.recorded.reload(&self.stubs);
        let stubs: Vec<_> = self.stubs.iter().map(|s| Timed::new(s, tracer)).collect();
        let params = self.world.spec.params;
        let shards = self.world.shape.shards;
        let mut trace = AggregateTrace::default();
        let stage = tracer.span("aggregate");
        let (mut backend, mut bus) = {
            let _span = tracer.span("cluster.new");
            (
                Timed::new(self.world.new_cluster(), tracer),
                Timed::new(self.world.new_bus(), tracer),
            )
        };
        let driven = phased_round(
            tracer,
            &stubs,
            &mut backend,
            &mut bus,
            params,
            RECORDED_ROUND,
            |backend| {
                trace.journal_depth = backend.inner.log().depth() as u64;
                for shard in 0..shards {
                    let _span = tracer.span("cluster.restart_shard");
                    backend.inner.crash_shard(shard);
                    backend.inner.restart_shard(shard);
                }
            },
        );
        drop(stage);
        trace.metrics = bus.take_metrics().unwrap_or_default();
        trace.metrics.merge(&backend.inner.take_metrics());
        let recorded = &self.world.recorded.outcome;
        self.tally.check(
            driven.view == recorded.view
                && driven.missing == recorded.missing
                && driven.reports == recorded.reports,
        );
        trace
    }

    /// [`Runner::campaign`] with the bus and the clock decorated — the
    /// two roles `run_epochs_deadline_on` is generic over. Builds the
    /// cluster, bus and genesis coordinator exactly as
    /// `run_epochs_deadline` does. Returns the depth of the control
    /// journal the campaign left behind.
    pub fn traced_campaign(&mut self, tracer: &Tracer) -> u64 {
        self.campaigns += 1;
        tracer.set_round(self.campaigns);
        let campaign = &mut self.world.campaign;
        let stage = tracer.span("campaign");
        let map = campaign.sys.cluster_map();
        let mut backend = campaign.sys.new_cluster(&map);
        let mut bus = Timed::new(RoutingBus::in_proc(map, None), tracer);
        let mut coordinator = Coordinator::new(
            EpochConfig::default()
                .with_min_clients(CAMPAIGN_MIN_CLIENTS)
                .with_grace_ticks(CAMPAIGN_GRACE_TICKS),
        );
        let mut clock = CountingClock::new(LogicalClock::new(), tracer);
        let outcomes = campaign.sys.run_epochs_deadline_on(
            &mut backend,
            &mut bus,
            &mut coordinator,
            &mut clock,
            &campaign.schedule,
            &campaign.fault,
        );
        drop(stage);
        let control_depth = backend.control_log().depth() as u64;
        self.check_campaign(&outcomes);
        control_depth
    }
}
