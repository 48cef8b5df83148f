//! The stages of one measurement cycle — the weekly journey, walked in
//! the workload's world. Every stage times calls into the program's
//! public API and nothing else: inputs are prepared before the clock
//! starts and outputs are checked after it stops.

use crate::check::{References, Tally};
use crate::trace::Tracer;
use crate::world::{Stub, World, JOURNEY_ID, RECORDED_ROUND, URLS_PER_BATCH};
use crate::world::{CAMPAIGN_GRACE_TICKS, CAMPAIGN_MIN_CLIENTS};
use ew_core::{AdKey, Detector, DetectorConfig, GlobalView, Verdict};
use ew_proto::framing::encode_frame;
use ew_proto::Message;
use ew_system::node::{drive_round, ClientNode, InProcBus, OprfFrontend, RoundOpen};
use ew_system::{Client, LogicalClock};
use std::hint::black_box;
use std::time::Instant;

/// First round number the round stage uses; every round is a new week,
/// so the clients' blinding-stream caches never hold its streams yet.
const FIRST_TIMED_ROUND: u64 = 1_000;

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Timings of one new client's week, one value per end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JourneyTimes {
    pub enroll_ms: f64,
    pub map_ad_ms: f64,
    pub report_build_ms: f64,
    pub audit_us: f64,
}

/// A world plus the mutable state the stages carry between cycles.
#[derive(Debug)]
pub struct Runner {
    pub world: World,
    pub tally: Tally,
    pub(crate) refs: References,
    campaign_refs: References,
    /// The finalized view every audit is made against.
    audit_view: GlobalView,
    detector: Detector,
    pub(crate) stubs: Vec<Stub>,
    pub(crate) roster: Vec<u32>,
    next_round: u64,
    journeys: u64,
    /// Campaigns run so far (the system's churn telemetry is cumulative).
    pub(crate) campaigns: u64,
}

impl Runner {
    /// Wraps a built world and computes the references it is checked
    /// against. The dry-run round of set-up is the first thing checked.
    pub fn new(world: World) -> Runner {
        let mut refs = world.references();
        let campaign_refs = world.campaign.references(world.shape);
        let roster: Vec<u32> = world.clients.iter().map(Client::id).collect();
        let audit_view = refs.view(&roster).clone();
        let mut tally = Tally::default();
        refs.check_round(&roster, &world.recorded.outcome, &mut tally);
        if world.shape.fault.is_some() {
            // The fault script must still bite, or the wire workload
            // would quietly turn into a clean one.
            let dry_run = &world.recorded.outcome;
            tally.check(!dry_run.missing.is_empty() || dry_run.corrupt_frames > 0);
        }
        let stubs = world.recorded.stubs();
        Runner {
            world,
            tally,
            refs,
            campaign_refs,
            audit_view,
            detector: Detector::new(DetectorConfig::default()),
            stubs,
            roster,
            next_round: FIRST_TIMED_ROUND,
            journeys: 0,
            campaigns: 0,
        }
    }

    /// A round number no cache has seen.
    pub fn fresh_round(&mut self) -> u64 {
        self.next_round += 1;
        self.next_round
    }

    /// `round_ms`: one whole weekly round of the cohort — a fresh cluster
    /// and bus, then `drive_round` from open to the published view.
    pub fn round(&mut self, threads: usize) -> f64 {
        let round = self.fresh_round();
        let started = Instant::now();
        let mut backend = self.world.new_cluster();
        let mut bus = self.world.new_bus();
        let driven = drive_round(
            &self.world.clients,
            &mut backend,
            &mut bus,
            self.world.spec.params,
            round,
            &[],
            threads,
        );
        let elapsed = ms_since(started);
        self.refs
            .check_round(&self.roster, &driven, &mut self.tally);
        elapsed
    }

    /// `aggregate_ms` and `shard_restart_ms`: the recorded round replayed
    /// through stub clients into a fresh cluster. Between the report wave
    /// and recovery every shard in turn is crashed and restarted from the
    /// round log — one at a time, each reading its own cold share of the
    /// log — and `shard_restart_ms` is the mean per shard. Returns the
    /// means over `aggregate_reps` replays.
    pub fn aggregate(&mut self) -> (f64, f64) {
        let reps = self.world.shape.aggregate_reps;
        let shards = self.world.shape.shards;
        let (mut total_ms, mut restart_ms) = (0.0, 0.0);
        for _ in 0..reps {
            self.world.recorded.reload(&self.stubs);
            let params = self.world.spec.params;
            let started = Instant::now();
            let mut backend = self.world.new_cluster();
            let mut bus = self.world.new_bus();
            let collected = RoundOpen::open(&mut backend, &mut bus, RECORDED_ROUND)
                .collect_reports(&self.stubs, &[], params, 1, &mut backend, &mut bus);
            let crashed = Instant::now();
            for shard in 0..shards {
                backend.crash_shard(shard);
                backend.restart_shard(shard);
            }
            restart_ms += ms_since(crashed) / shards as f64;
            let driven = collected
                .recover(&self.stubs, params, 1, &mut backend, &mut bus)
                .finalize(&mut backend, &mut bus);
            total_ms += ms_since(started);
            // Bit-identical to the plain `drive_round` of set-up, which
            // was itself checked against the reference.
            let recorded = &self.world.recorded.outcome;
            self.tally.check(
                driven.view == recorded.view
                    && driven.missing == recorded.missing
                    && driven.reports == recorded.reports,
            );
        }
        (total_ms / reps as f64, restart_ms / reps as f64)
    }

    /// The URLs journey `n` maps in batch `batch`: unique per seed,
    /// journey and batch, so nothing is ever served from a cache.
    fn journey_urls(&self, n: u64, batch: usize) -> Vec<String> {
        (0..URLS_PER_BATCH)
            .map(|i| {
                format!(
                    "https://adnet{}.example/creative/{:x}-{n:x}-{batch:x}-{i:x}",
                    i % 7,
                    self.world.seed
                )
            })
            .collect()
    }

    /// One new client's week: enrolment against the 24-peer directory,
    /// its ad URLs through the OPRF, the blinded report, and audits of
    /// its ads against a finalized view.
    ///
    /// `frontend` is the OPRF service the client talks to (the traced run
    /// hands in a decorated one); with a `tracer`, each step is also
    /// recorded as a span.
    pub fn journey<F: OprfFrontend>(
        &mut self,
        frontend: &F,
        tracer: Option<&Tracer>,
    ) -> JourneyTimes {
        let shape = self.world.shape;
        let span = |name| tracer.map(|t| t.span(name));
        self.journeys += 1;
        let n = self.journeys;
        if let Some(tracer) = tracer {
            tracer.set_round(n);
        }
        // Every fourth journey checks every output; the others sample.
        let check_all = n % 4 == 1;

        // enroll_ms: DH key generation + pairwise secrets with 24 peers.
        let step = span("journey.enroll");
        let started = Instant::now();
        let mut client = None;
        for rep in 0..shape.enroll_reps as u64 {
            let mut c = Client::new(
                JOURNEY_ID,
                &self.world.group,
                self.world.oprf.public().clone(),
                self.world.spec.mapper,
                self.world.seed ^ (n << 20) ^ rep,
            );
            c.set_blinding_cache(2);
            c.setup_blinding(&self.world.group, &self.world.peers);
            client = Some(c);
        }
        let enroll_ms = ms_since(started) / shape.enroll_reps as f64;
        drop(step);
        let mut client = client.expect("at least one enrolment per sample");
        self.tally.check(client.blinding_ready());

        // map_ad_ms: unique URLs → ad IDs, one OPRF batch of 32 at a time.
        let batches: Vec<Vec<String>> = (0..shape.map_batches)
            .map(|b| self.journey_urls(n, b))
            .collect();
        let mut bus = InProcBus::new();
        let mut ads: Vec<AdKey> = Vec::with_capacity(shape.map_batches * URLS_PER_BATCH);
        let step = span("journey.map_ads");
        let started = Instant::now();
        for urls in &batches {
            let refs: Vec<&str> = urls.iter().map(String::as_str).collect();
            ads.extend(client.map_ads_on(&refs, frontend, &mut bus));
        }
        let map_ad_ms = ms_since(started) / ads.len() as f64;
        drop(step);
        let urls: Vec<&String> = batches.iter().flatten().collect();
        let stride = if check_all { 1 } else { urls.len() / 2 };
        for i in (0..urls.len()).step_by(stride) {
            let direct = self.world.oprf.evaluate_direct(urls[i].as_bytes());
            self.tally
                .check(ads[i] == self.world.spec.mapper.to_ad_id(&direct));
        }

        // The week's impressions: each ad on one to five of eight domains.
        for (i, &ad) in ads.iter().enumerate() {
            for d in 0..=(i % 5) {
                client.observe(ad, ((i + 3 * d) % 8) as u64);
            }
        }

        // report_build_ms: the blinded report envelope, 24 peers × cells.
        let round = self.fresh_round();
        let params = self.world.spec.params;
        let step = span("journey.report");
        let started = Instant::now();
        let envelope = client.report_envelope(params, round);
        let report_build_ms = ms_since(started);
        drop(step);
        self.tally.check(matches!(
            &envelope.msg,
            Message::Report { user: JOURNEY_ID, round: r, cells, .. }
                if *r == round && cells.len() == params.num_cells()
        ));
        black_box(envelope);

        // audit_us: the real-time audit of each of the client's ads.
        let passes = shape.audit_passes;
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(ads.len());
        let step = span("journey.audit");
        let started = Instant::now();
        for pass in 0..passes {
            for &ad in &ads {
                let verdict = client.audit(black_box(ad), &self.audit_view, &self.detector);
                if pass == 0 {
                    verdicts.push(verdict);
                } else {
                    black_box(verdict);
                }
            }
        }
        let audit_us = started.elapsed().as_secs_f64() * 1e6 / (passes * ads.len()) as f64;
        drop(step);
        if check_all {
            let counters = client.counters();
            let config = self.detector.config();
            let domains_th = counters.domains_threshold(config.policy);
            for (&ad, &verdict) in ads.iter().zip(&verdicts) {
                let expected = if counters.distinct_domains() < config.min_active_domains {
                    Verdict::InsufficientData
                } else if counters.domain_count(ad) as f64 > domains_th
                    && self.audit_view.users(ad) < self.audit_view.users_threshold()
                {
                    Verdict::Targeted
                } else {
                    Verdict::NonTargeted
                };
                self.tally.check(verdict == expected);
            }
        }

        JourneyTimes {
            enroll_ms,
            map_ad_ms,
            report_build_ms,
            audit_us,
        }
    }

    /// `campaign_ms`: one three-epoch open-world campaign through the
    /// coordinator — joins, silent drops recovered through adjustments,
    /// and a coordinator crash-restart at every epoch's finalize.
    pub fn campaign(&mut self) -> f64 {
        let campaign = &mut self.world.campaign;
        let mut clock = LogicalClock::new();
        let started = Instant::now();
        let outcomes = campaign.sys.run_epochs_deadline(
            CAMPAIGN_MIN_CLIENTS,
            CAMPAIGN_GRACE_TICKS,
            &mut clock,
            &campaign.schedule,
            &campaign.fault,
        );
        let elapsed = ms_since(started);
        self.campaigns += 1;
        self.check_campaign(&outcomes);
        elapsed
    }

    /// Every scheduled epoch completed over a full roster, recovered
    /// exactly its scripted drops and finalized to the reference view.
    pub fn check_campaign(&mut self, outcomes: &[ew_system::EpochOutcome]) {
        let shape = self.world.shape.campaign;
        let schedule = &self.world.campaign.schedule;
        self.tally.check(outcomes.len() == schedule.len());
        for (epoch, spec) in outcomes.iter().zip(schedule) {
            let Some(outcome) = epoch.outcome.as_ref().filter(|_| !epoch.collapsed) else {
                self.tally.check(false);
                continue;
            };
            self.tally.check(
                epoch.members.len() == shape.roster as usize && outcome.missing == spec.drops,
            );
            self.campaign_refs.check_parts(
                &epoch.members,
                outcome.reports,
                &outcome.missing,
                &outcome.view,
                &mut self.tally,
            );
        }
    }

    /// `wire_bytes_per_report`: framed bytes one report puts on a shard
    /// uplink.
    pub fn wire_bytes_per_report(&self) -> f64 {
        let reports = &self.world.recorded.reports;
        let bytes: usize = reports
            .iter()
            .map(|env| encode_frame(&env.encode()).len())
            .sum();
        bytes as f64 / reports.len() as f64
    }
}
