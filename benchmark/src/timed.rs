//! Decorators over the program's public role traits. Each records a
//! span and a count at the boundary it wraps and forwards the call
//! unchanged; `tests::decorators_change_no_outcome` pins that they alter
//! nothing the program computes.

use crate::trace::Tracer;
use ew_core::GlobalView;
use ew_proto::transport::TransportError;
use ew_proto::{Envelope, NodeId};
use ew_sketch::CmsParams;
use ew_system::backend::RoundError;
use ew_system::node::{AggregationBackend, ClientNode, OprfFrontend, RoundPhase, ServiceBus};
use ew_system::telemetry::ReplayMetrics;
use ew_system::Clock;

/// `inner`, with every trait call recorded into `tracer`.
#[derive(Debug)]
pub struct Timed<'t, T> {
    pub inner: T,
    tracer: &'t Tracer,
}

impl<'t, T> Timed<'t, T> {
    pub fn new(inner: T, tracer: &'t Tracer) -> Self {
        Timed { inner, tracer }
    }
}

impl<C: ClientNode> ClientNode for Timed<'_, C> {
    fn client_id(&self) -> u32 {
        self.inner.client_id()
    }

    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope {
        let _span = self.tracer.span("client.report_envelope");
        self.tracer.count("client.reports", 1);
        self.inner.report_envelope(params, round)
    }

    fn on_envelope(&self, params: CmsParams, env: &Envelope) -> Option<Envelope> {
        let _span = self.tracer.span("client.on_envelope");
        self.tracer.count("client.notices", 1);
        self.inner.on_envelope(params, env)
    }
}

impl<B: ServiceBus> ServiceBus for Timed<'_, B> {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        let _span = self.tracer.span("bus.send");
        self.tracer.count("bus.envelopes", 1);
        self.inner.send(dest, env)
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        let _span = self.tracer.span("bus.drain");
        let drained = self.inner.drain(dest);
        self.tracer.count("bus.drained", drained.0.len() as u64);
        self.tracer.count("bus.corrupt_frames", drained.1 as u64);
        drained
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        let _span = self.tracer.span("bus.on_phase");
        self.inner.on_phase(phase)
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        self.inner.take_metrics()
    }
}

impl<A: AggregationBackend> AggregationBackend for Timed<'_, A> {
    fn open_round(&mut self, round: u64) {
        let _span = self.tracer.span("backend.open_round");
        self.inner.open_round(round)
    }

    fn on_envelope(&mut self, env: Envelope) -> Result<Option<Envelope>, RoundError> {
        let _span = self.tracer.span("backend.on_envelope");
        self.tracer.count("backend.envelopes", 1);
        self.inner.on_envelope(env)
    }

    fn absorb_batch(
        &mut self,
        envelopes: Vec<Envelope>,
        threads: usize,
    ) -> Vec<Result<Option<Envelope>, RoundError>> {
        let _span = self.tracer.span("backend.absorb_batch");
        self.tracer
            .count("backend.envelopes", envelopes.len() as u64);
        let results = self.inner.absorb_batch(envelopes, threads);
        let rejected = results.iter().filter(|r| r.is_err()).count();
        self.tracer.count("backend.rejected", rejected as u64);
        results
    }

    fn missing_clients(&mut self) -> Result<Vec<u32>, RoundError> {
        let _span = self.tracer.span("backend.missing_clients");
        self.inner.missing_clients()
    }

    fn finalize(&mut self) -> Result<GlobalView, RoundError> {
        let _span = self.tracer.span("backend.finalize");
        self.inner.finalize()
    }
}

impl<F: OprfFrontend> OprfFrontend for Timed<'_, F> {
    fn on_envelope(&self, env: Envelope) -> Option<Envelope> {
        let _span = self.tracer.span("oprf.on_envelope");
        self.tracer.count("oprf.requests", 1);
        self.inner.on_envelope(env)
    }
}

/// A [`Clock`] that counts how often the campaign runner asks it the
/// time — one call per coordinator tick.
#[derive(Debug)]
pub struct CountingClock<'t, C> {
    inner: C,
    tracer: &'t Tracer,
}

impl<'t, C: Clock> CountingClock<'t, C> {
    pub fn new(inner: C, tracer: &'t Tracer) -> Self {
        CountingClock { inner, tracer }
    }
}

impl<C: Clock> Clock for CountingClock<'_, C> {
    fn now(&mut self) -> u64 {
        self.tracer.count("clock.ticks", 1);
        self.inner.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{
        FaultProbs, World, AGGREGATE_WIRE, CAMPAIGN_GRACE_TICKS, CAMPAIGN_MIN_CLIENTS,
        STEADY_INPROC,
    };
    use ew_system::cluster::RoutingBus;
    use ew_system::node::{drive_round, InProcBus};
    use ew_system::{Client, Coordinator, EpochConfig, LogicalClock};

    /// Traced view ≡ untraced view, on the in-process bus and over the
    /// lossy wire (where recovery runs, so `on_envelope` is decorated
    /// too).
    #[test]
    fn decorators_change_no_outcome() {
        // Harsher than the workload's link, so that even six clients lose
        // reports and get duplicates.
        let mut wire = AGGREGATE_WIRE.smoke();
        wire.fault = Some(FaultProbs {
            drop: 0.4,
            corrupt: 0.2,
            duplicate: 0.3,
            reorder: 0.3,
        });
        // Every uplink draws the same fault stream, so whether anything
        // is lost hangs on the seed's first draws: take the first seed
        // that loses a report.
        let lossy_seed = (1..32)
            .find(|&seed| !World::build(wire, seed).recorded.outcome.missing.is_empty())
            .expect("some seed in 1..32 drops a report");
        for (shape, seed) in [(STEADY_INPROC.smoke(), 7), (wire, lossy_seed)] {
            let world = World::build(shape, seed);
            let params = world.spec.params;
            let plain = drive_round(
                &world.clients,
                &mut world.new_cluster(),
                &mut world.new_bus(),
                params,
                9,
                &[],
                1,
            );

            let tracer = Tracer::new(1 << 12);
            let clients: Vec<Timed<&Client>> = world
                .clients
                .iter()
                .map(|c| Timed::new(c, &tracer))
                .collect();
            let traced = drive_round(
                &clients,
                &mut Timed::new(world.new_cluster(), &tracer),
                &mut Timed::new(world.new_bus(), &tracer),
                params,
                9,
                &[],
                1,
            );
            assert_eq!(traced.view, plain.view, "{}", shape.name);
            assert_eq!(traced.missing, plain.missing);
            assert_eq!(traced.reports, plain.reports);
            assert_eq!(traced.corrupt_frames, plain.corrupt_frames);
            assert_eq!(tracer.counter("client.reports"), shape.clients as u64);
            assert_eq!(tracer.dropped(), 0);
            let spans = tracer.spans();
            assert!(spans.iter().any(|s| s.name == "backend.finalize"));
            assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
            if shape.fault.is_some() {
                assert!(!plain.missing.is_empty(), "seed {seed} loses a report");
                assert!(tracer.counter("client.notices") > 0);
            }
        }
    }

    #[test]
    fn decorated_frontend_and_campaign_match_the_plain_ones() {
        let mut world = World::build(STEADY_INPROC.smoke(), 7);
        let tracer = Tracer::new(1 << 12);

        let urls = ["https://a.example/1", "https://a.example/2"];
        let frontend = Timed::new(world.oprf.clone(), &tracer);
        let mut bus = InProcBus::new();
        let (first, rest) = world.clients.split_at_mut(1);
        let plain = first[0].map_ads_on(&urls, &world.oprf, &mut bus);
        let traced = rest[0].map_ads_on(&urls, &frontend, &mut bus);
        assert_eq!(plain, traced);
        assert_eq!(tracer.counter("oprf.requests"), 1);

        let campaign = &mut world.campaign;
        let plain = campaign.sys.run_epochs_deadline(
            CAMPAIGN_MIN_CLIENTS,
            CAMPAIGN_GRACE_TICKS,
            &mut LogicalClock::new(),
            &campaign.schedule,
            &campaign.fault,
        );
        let map = campaign.sys.cluster_map();
        let traced = campaign.sys.run_epochs_deadline_on(
            &mut campaign.sys.new_cluster(&map),
            &mut Timed::new(RoutingBus::in_proc(map, None), &tracer),
            &mut Coordinator::new(
                EpochConfig::default()
                    .with_min_clients(CAMPAIGN_MIN_CLIENTS)
                    .with_grace_ticks(CAMPAIGN_GRACE_TICKS),
            ),
            &mut CountingClock::new(LogicalClock::new(), &tracer),
            &campaign.schedule,
            &campaign.fault,
        );
        assert_eq!(plain.len(), traced.len());
        for (p, t) in plain.iter().zip(&traced) {
            assert_eq!(
                (p.epoch, p.round, &p.members),
                (t.epoch, t.round, &t.members)
            );
            let (p, t) = (p.outcome.as_ref().unwrap(), t.outcome.as_ref().unwrap());
            assert_eq!(p.view, t.view);
            assert_eq!((p.reports, &p.missing), (t.reports, &t.missing));
        }
        assert!(tracer.counter("clock.ticks") > 0);
    }
}
