//! Role services and the service bus: the node-level API of the system.
//!
//! The paper's deployment is distributed — browser clients, an OPRF
//! front-end and an aggregation backend exchanging messages over a
//! network. This module carves the system layer along exactly those
//! seams:
//!
//! * [`ClientNode`], [`OprfFrontend`] and [`AggregationBackend`] are the
//!   three roles of Figure 1. Their **only interaction surface is the
//!   versioned [`Envelope`]** over [`ew_proto::Message`] — a node never
//!   calls another node's methods; it answers envelopes.
//! * [`ServiceBus`] abstracts how envelopes travel. [`InProcBus`]
//!   dispatches them directly (zero-copy moves, for experiment
//!   throughput); [`WireBus`] pushes every envelope through the framed,
//!   checksummed `ew-proto` transport with optional [`FaultConfig`]
//!   injection. Drivers are generic over the bus, so the in-proc and
//!   wire paths execute the *same* code — proven bit-identical by
//!   `tests/bus_parity.rs`.
//! * The weekly aggregation round is a **typestate machine**:
//!   [`RoundOpen`] → [`RoundReports`] → [`RoundRecovery`] →
//!   [`DrivenRound`]. Each transition method exists only on the phase it
//!   leaves, so an illegal order (recovery before reports, finalizing
//!   twice, …) does not compile. [`RoundPhase`] is the runtime label of
//!   the same sequence, handed to [`ServiceBus::on_phase`] so transports
//!   can react to phase boundaries (the wire bus re-establishes a clean
//!   backend link for the recovery retry, as the paper's second
//!   round-trip would).
//!
//! ## Determinism
//!
//! A round runs on the calling thread: each client's report is built
//! and sent in client order, each adjustment is derived and sent as its
//! notice is delivered. Together with the associative cell-wise
//! accumulation at the backend this keeps every [`DrivenRound`]
//! bit-identical across bus implementations (for a lossless link) and
//! cluster sizes. The `threads` parameters the drivers still take are
//! accepted and ignored.

use crate::backend::RoundError;
use crate::trace;
use ew_core::GlobalView;
use ew_proto::transport::TransportError;
use ew_proto::{channel_pair, Endpoint, Envelope, FaultConfig, NodeId};
use ew_sketch::CmsParams;
use std::collections::HashMap;

/// The phases of one aggregation round, in protocol order. The
/// typestate structs below make illegal transitions uncompilable; this
/// enum is the runtime label shown to transports and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundPhase {
    /// The backend opened the round; no report accepted yet.
    Open,
    /// Clients ship their blinded reports.
    Reports,
    /// Missing clients are broadcast; survivors answer with adjustments
    /// (the paper's §6 second round-trip, on a fresh link).
    Recovery,
    /// The backend unblinds and publishes the global view.
    Finalize,
}

impl RoundPhase {
    /// The phase that legally follows this one (`Finalize` is terminal).
    pub fn next(self) -> Option<RoundPhase> {
        match self {
            RoundPhase::Open => Some(RoundPhase::Reports),
            RoundPhase::Reports => Some(RoundPhase::Recovery),
            RoundPhase::Recovery => Some(RoundPhase::Finalize),
            RoundPhase::Finalize => None,
        }
    }
}

/// A browser-extension client as a message-driven service.
///
/// Implementations own their keys, counters and blinding state; the
/// round driver only ever asks for envelopes.
pub trait ClientNode {
    /// This node's wire identity is `NodeId::Client(client_id())`.
    fn client_id(&self) -> u32;

    /// Phase `Reports`: the weekly blinded report, already enveloped.
    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope;

    /// Reacts to a backend→client envelope. `MissingClients` yields the
    /// `Adjustment` reply; anything unexpected yields `None` (clients
    /// are passive — they never send unsolicited errors upstream).
    fn on_envelope(&self, params: CmsParams, env: &Envelope) -> Option<Envelope>;
}

/// Every [`ClientNode`] method takes `&self`, so a shared reference is
/// itself a client node. This is what lets an epoch driver hand the
/// round machine a per-roster `Vec<&C>` subset of a long-lived
/// population without moving or cloning the clients.
impl<T: ClientNode> ClientNode for &T {
    fn client_id(&self) -> u32 {
        (**self).client_id()
    }

    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope {
        (**self).report_envelope(params, round)
    }

    fn on_envelope(&self, params: CmsParams, env: &Envelope) -> Option<Envelope> {
        (**self).on_envelope(params, env)
    }
}

/// The OPRF front-end as a message-driven service: blind-evaluates
/// whatever request envelopes arrive.
pub trait OprfFrontend {
    /// Answers one envelope. Well-formed requests get their response;
    /// malformed or unsupported ones get a [`ew_proto::Message::Error`]
    /// reply; only incoming `Error` messages go unanswered (a node never
    /// replies to an error with an error).
    fn on_envelope(&self, env: Envelope) -> Option<Envelope>;
}

/// The aggregation backend as a message-driven service plus the round
/// lifecycle the driver steers (opening, missing-set computation,
/// finalization are control-plane calls — everything data-plane is an
/// envelope).
pub trait AggregationBackend {
    /// Opens aggregation round `round`.
    fn open_round(&mut self, round: u64);

    /// Handles one envelope. `Ok(None)` means absorbed (report or
    /// adjustment accepted); `Ok(Some(_))` is a reply to route back to
    /// the sender (query answers, error replies); `Err(_)` is a
    /// rejection, which the round driver answers with a
    /// `Message::Error` to the sender in every phase.
    fn on_envelope(&mut self, env: Envelope) -> Result<Option<Envelope>, RoundError>;

    /// Absorbs one full mailbox drain, in stream order, returning one
    /// result per envelope (index-aligned with the input). Each envelope
    /// is answered as [`Self::on_envelope`] answers it: a duplicate is a
    /// rejection, whether it repeats an envelope of this batch or of an
    /// earlier one.
    ///
    /// `_threads` is accepted and ignored: a round runs on the calling
    /// thread, and `ClusterBackend` walks the batch serially.
    fn absorb_batch(
        &mut self,
        envelopes: Vec<Envelope>,
        _threads: usize,
    ) -> Vec<Result<Option<Envelope>, RoundError>>;

    /// The enrolled users whose reports have not arrived this round.
    fn missing_clients(&mut self) -> Result<Vec<u32>, RoundError>;

    /// Closes the round and returns the finalized global view.
    fn finalize(&mut self) -> Result<GlobalView, RoundError>;
}

/// How envelopes travel between nodes. Implementations are mailbox
/// routers: `send` queues an envelope for `dest`, `drain` delivers
/// everything queued for `dest` in arrival order plus the count of
/// frames lost to corruption on the way.
pub trait ServiceBus {
    /// Queues one envelope for `dest`. An error means the envelope could
    /// not be queued: the destination mailbox is gone, or (on a
    /// `RoutingBus`) a severed uplink's fresh link failed too. The round
    /// driver treats a failed report send like a frame lost on the wire:
    /// the sender goes missing and recovery covers it.
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError>;

    /// Delivers every envelope currently queued for `dest`, in order,
    /// plus the number of frames rejected as corrupt (always 0 in-proc).
    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize);

    /// Phase-boundary hook; transports may re-establish links (the wire
    /// bus re-connects the backend uplink cleanly for `Recovery`).
    fn on_phase(&mut self, phase: RoundPhase) {
        let _ = phase;
    }

    /// Drains the bus's replay-path telemetry since the last call, if
    /// this bus keeps any (`None` for the plain point-to-point buses).
    /// The cluster's `RoutingBus` reports routed/replayed counters,
    /// in-flight journal depth and per-phase wall-clock through this
    /// seam, so the round drivers can observe any bus without knowing
    /// its concrete type.
    fn take_metrics(&mut self) -> Option<crate::telemetry::ReplayMetrics> {
        None
    }
}

/// Direct in-process dispatch: envelopes are moved into per-destination
/// queues, never serialized. The zero-cost bus for experiments and the
/// reference behavior the wire bus must match on a lossless link.
#[derive(Debug, Default)]
pub struct InProcBus {
    queues: HashMap<NodeId, Vec<Envelope>>,
}

impl InProcBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ServiceBus for InProcBus {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        self.queues.entry(dest).or_default().push(env);
        Ok(())
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        (self.queues.remove(&dest).unwrap_or_default(), 0)
    }
}

/// Framed-transport dispatch: every envelope is encoded, framed,
/// checksummed and pushed through an [`Endpoint`] pair per destination
/// mailbox — exactly what a socket deployment would impose, runnable in
/// one process.
///
/// The configured [`FaultConfig`] applies to the **backend uplink**
/// (client → backend, the paper's lossy report path) during the
/// `Reports` phase; every other mailbox is clean. At the `Recovery`
/// boundary the backend link is re-established without faults — the §6
/// recovery round is a fresh round-trip, "in practice a retry".
/// `Open` drops all links, so a reused bus re-arms its fault profile
/// per round.
#[derive(Debug)]
pub struct WireBus {
    fault: Option<FaultConfig>,
    uplink_clean: bool,
    links: HashMap<NodeId, (Endpoint, Endpoint)>,
}

impl WireBus {
    /// A wire bus with the given fault profile on the backend uplink
    /// (`None` for a perfect link).
    pub fn new(fault: Option<FaultConfig>) -> Self {
        WireBus {
            fault,
            uplink_clean: false,
            links: HashMap::new(),
        }
    }

    /// A lossless wire bus (framing and checksums still apply).
    pub fn perfect() -> Self {
        Self::new(None)
    }

    fn link(&mut self, dest: NodeId) -> &mut (Endpoint, Endpoint) {
        let fault = match dest {
            NodeId::Backend if !self.uplink_clean => self.fault,
            _ => None,
        };
        self.links
            .entry(dest)
            .or_insert_with(|| channel_pair(fault))
    }
}

impl ServiceBus for WireBus {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        self.link(dest).0.send_envelope(&env)
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        match self.links.get_mut(&dest) {
            Some((tx, rx)) => {
                // End of burst: a fault link may hold one frame back for
                // reordering; deliver it before draining, so reordering
                // stays a reordering (never a tail-frame drop).
                tx.flush().expect("peer endpoint alive");
                rx.drain_envelopes()
            }
            None => (Vec::new(), 0),
        }
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        match phase {
            RoundPhase::Open => {
                self.links.clear();
                self.uplink_clean = false;
            }
            RoundPhase::Recovery => {
                // Fresh, clean backend link for the retry round-trip.
                self.links.remove(&NodeId::Backend);
                self.uplink_clean = true;
            }
            RoundPhase::Reports | RoundPhase::Finalize => {}
        }
    }
}

/// The finalized result of one driven round (`crate::system::RoundOutcome`
/// is this same type).
#[derive(Debug, Clone)]
pub struct DrivenRound {
    /// The round index.
    pub round: u64,
    /// The finalized global view.
    pub view: GlobalView,
    /// Reports accepted by the backend.
    pub reports: usize,
    /// Clients declared missing (recovery ran if non-empty).
    pub missing: Vec<u32>,
    /// Frames lost to corruption on the bus (0 in-proc).
    pub corrupt_frames: usize,
}

/// Typestate: the round is open, no report collected yet. The only exit
/// is [`RoundOpen::collect_reports`].
#[derive(Debug)]
#[must_use = "an opened round must collect reports"]
pub struct RoundOpen {
    round: u64,
}

/// Typestate: reports are in. The only exit is [`RoundReports::recover`].
/// Public because [`RoundOpen::collect_reports`] returns it; drivers
/// chain through it without naming it.
#[derive(Debug)]
#[must_use = "collected reports must go through recovery"]
pub struct RoundReports {
    round: u64,
    reports: usize,
    corrupt_frames: usize,
}

/// Typestate: the missing set is resolved. The only exit is
/// [`RoundRecovery::finalize`]. Public because [`RoundReports::recover`]
/// returns it; drivers chain through it without naming it.
#[derive(Debug)]
#[must_use = "a recovered round must be finalized"]
pub struct RoundRecovery {
    round: u64,
    reports: usize,
    corrupt_frames: usize,
    missing: Vec<u32>,
    rejected_adjustments: Vec<(NodeId, RoundError)>,
}

impl RoundOpen {
    /// Opens round `round` at the backend — the machine's only entry.
    pub fn open<A, B>(backend: &mut A, bus: &mut B, round: u64) -> RoundOpen
    where
        A: AggregationBackend,
        B: ServiceBus,
    {
        let _span = trace::span("round_open", round, 0);
        bus.on_phase(RoundPhase::Open);
        backend.open_round(round);
        RoundOpen { round }
    }

    /// The round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Phase `Open` → `Reports`: every non-silent client's report is
    /// built and sent to the backend in turn, in client order.
    /// `_threads` is accepted and ignored: a round runs on the calling
    /// thread. A report the bus cannot send is lost like a dropped
    /// frame, and backend rejections (duplicates or mismatched headers
    /// from a faulty link) are answered, not fatal — either way the
    /// sender simply goes missing.
    pub fn collect_reports<C, A, B>(
        self,
        clients: &[C],
        silent: &[u32],
        params: CmsParams,
        _threads: usize,
        backend: &mut A,
        bus: &mut B,
    ) -> RoundReports
    where
        C: ClientNode,
        A: AggregationBackend,
        B: ServiceBus,
    {
        let _span = trace::span("round_reports", self.round, clients.len() as u64);
        bus.on_phase(RoundPhase::Reports);
        let round = self.round;
        for c in clients.iter().filter(|c| !silent.contains(&c.client_id())) {
            // An unsendable report is a dropped frame: the sender goes
            // missing and recovery covers it.
            let _ = bus.send(NodeId::Backend, c.report_envelope(params, round));
        }
        let (envelopes, corrupt_frames) = bus.drain(NodeId::Backend);
        // The whole drain goes to the backend as one batch; a wire
        // duplicate inside it is rejected like any other duplicate.
        let routing: Vec<(bool, NodeId)> = envelopes
            .iter()
            .map(|env| {
                (
                    matches!(env.msg, ew_proto::Message::Report { .. }),
                    env.sender,
                )
            })
            .collect();
        let results = backend.absorb_batch(envelopes, 1);
        debug_assert_eq!(routing.len(), results.len(), "one result per envelope");
        let mut reports = 0usize;
        for ((is_report, requester), result) in routing.into_iter().zip(results) {
            // Only a Report that the backend absorbed counts — other
            // envelope kinds can also come back Ok(None) (an absorbed
            // peer Error, say) and must not inflate the tally. Err(_)
            // = rejected (duplicate, wrong params, spoofed sender):
            // doesn't count, doesn't abort the round — but the sender
            // is answered with an explicit `Message::Error` (mapped
            // through `RoundError::error_code`) instead of silence, so
            // a peer can tell a service rejection from frame loss.
            // Replies (a query that was already queued when the round
            // started, say) are routed back to their senders, per the
            // backend contract.
            match result {
                Ok(None) if is_report => reports += 1,
                Ok(Some(reply)) => {
                    bus.send(requester, reply).expect("requester mailbox open");
                }
                Ok(None) => {}
                Err(e) => {
                    bus.send(requester, rejection(round, &e))
                        .expect("requester mailbox open");
                }
            }
        }
        RoundReports {
            round,
            reports,
            corrupt_frames,
        }
    }
}

impl RoundReports {
    /// The round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Reports accepted so far.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// Phase `Reports` → `Recovery`: the backend names the missing
    /// clients; every surviving client is notified over the (now clean)
    /// bus and answers with its adjustment, sent as soon as it is
    /// derived, in client order. `_threads` is accepted and ignored: a
    /// round runs on the calling thread. A rejected adjustment (a
    /// malformed one, say) does not abort the round: as in the reports
    /// phase, its sender is answered with a `Message::Error`, and the
    /// rejection is kept for [`RoundRecovery::rejected_adjustments`].
    pub fn recover<C, A, B>(
        self,
        clients: &[C],
        params: CmsParams,
        _threads: usize,
        backend: &mut A,
        bus: &mut B,
    ) -> RoundRecovery
    where
        C: ClientNode,
        A: AggregationBackend,
        B: ServiceBus,
    {
        let _span = trace::span("round_recovery", self.round, 0);
        bus.on_phase(RoundPhase::Recovery);
        let round = self.round;
        let missing = backend.missing_clients().expect("round open");
        let mut rejected_adjustments = Vec::new();
        if !missing.is_empty() {
            let notice = Envelope::new(
                NodeId::Backend,
                round,
                ew_proto::Message::MissingClients {
                    round,
                    users: missing.clone(),
                },
            );
            for c in clients {
                if missing.contains(&c.client_id()) {
                    continue; // unreachable by definition of "missing"
                }
                bus.send(NodeId::Client(c.client_id()), notice.clone())
                    .expect("client mailbox open");
            }
            for c in clients {
                if missing.contains(&c.client_id()) {
                    continue;
                }
                let (envs, _) = bus.drain(NodeId::Client(c.client_id()));
                for reply in envs.iter().filter_map(|env| c.on_envelope(params, env)) {
                    bus.send(NodeId::Backend, reply)
                        .expect("backend mailbox open");
                }
            }
            let (envelopes, _) = bus.drain(NodeId::Backend);
            for env in envelopes {
                let requester = env.sender;
                let reply = match backend.on_envelope(env) {
                    Ok(reply) => reply,
                    Err(e) => {
                        let reply = rejection(round, &e);
                        rejected_adjustments.push((requester, e));
                        Some(reply)
                    }
                };
                if let Some(reply) = reply {
                    bus.send(requester, reply).expect("requester mailbox open");
                }
            }
        }
        RoundRecovery {
            round,
            reports: self.reports,
            corrupt_frames: self.corrupt_frames,
            missing,
            rejected_adjustments,
        }
    }
}

/// The backend's answer to an envelope it rejected: a
/// `Message::Error` carrying the rejection's code, so the sender can
/// tell a service rejection from frame loss.
fn rejection(round: u64, e: &RoundError) -> Envelope {
    Envelope::new(
        NodeId::Backend,
        round,
        ew_proto::Message::Error {
            code: e.error_code(),
            detail: e.to_string(),
            hint: None,
        },
    )
}

impl RoundRecovery {
    /// The round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The clients declared missing this round.
    pub fn missing(&self) -> &[u32] {
        &self.missing
    }

    /// The recovery-phase envelopes the backend rejected, by sender, in
    /// arrival order. Each sender was answered with a
    /// `Message::Error` and the round went on without that adjustment.
    pub fn rejected_adjustments(&self) -> &[(NodeId, RoundError)] {
        &self.rejected_adjustments
    }

    /// Phase `Recovery` → `Finalize`: unblinds and closes the round,
    /// consuming the machine.
    ///
    /// # Panics
    /// Panics if the backend cannot finalize (no open round would mean
    /// the typestate was forged).
    pub fn finalize<A, B>(self, backend: &mut A, bus: &mut B) -> DrivenRound
    where
        A: AggregationBackend,
        B: ServiceBus,
    {
        let _span = trace::span("round_finalize", self.round, self.missing.len() as u64);
        bus.on_phase(RoundPhase::Finalize);
        let view = backend.finalize().expect("finalizable round");
        DrivenRound {
            round: self.round,
            view,
            reports: self.reports,
            missing: self.missing,
            corrupt_frames: self.corrupt_frames,
        }
    }
}

/// Runs one complete round through the typestate machine — the engine
/// behind `EyewnderSystem::run_round_on`; a churn campaign steps the
/// same chain one coordinator event at a time
/// (`EyewnderSystem::run_epochs_deadline_on`).
/// `_threads` is accepted and ignored: a round runs on the calling
/// thread.
pub fn drive_round<C, A, B>(
    clients: &[C],
    backend: &mut A,
    bus: &mut B,
    params: CmsParams,
    round: u64,
    silent: &[u32],
    _threads: usize,
) -> DrivenRound
where
    C: ClientNode,
    A: AggregationBackend,
    B: ServiceBus,
{
    RoundOpen::open(backend, bus, round)
        .collect_reports(clients, silent, params, 1, backend, bus)
        .recover(clients, params, 1, backend, bus)
        .finalize(backend, bus)
}

/// One complete OPRF batch exchange over the bus: `blinded` leaves as a
/// single `OprfBatchRequest` envelope from `sender`, the front-end is
/// pumped, and the positionally matching response elements come back.
/// The protocol step behind `Client::map_ads_on`.
///
/// # Panics
/// Panics if the front-end rejects the batch or the bus loses the
/// exchange — mapping runs over lossless links (in-proc, or wire
/// transports whose faults target the report path).
pub fn oprf_batch_exchange<F, B>(
    frontend: &F,
    bus: &mut B,
    sender: NodeId,
    request_id: u64,
    blinded: Vec<Vec<u8>>,
) -> Vec<Vec<u8>>
where
    F: OprfFrontend,
    B: ServiceBus,
{
    let expected = blinded.len();
    bus.send(
        NodeId::Oprf,
        Envelope::new(
            sender,
            0,
            ew_proto::Message::OprfBatchRequest {
                request_id,
                blinded,
            },
        ),
    )
    .expect("oprf mailbox open");
    pump(bus, NodeId::Oprf, |req| frontend.on_envelope(req));
    let (replies, _) = bus.drain(sender);
    for env in replies {
        match env.msg {
            ew_proto::Message::OprfBatchResponse {
                request_id: rid,
                elements,
            } if rid == request_id => {
                // A short (or padded) response would silently truncate
                // the positional zip at the caller — refuse it here.
                assert_eq!(
                    elements.len(),
                    expected,
                    "oprf batch {request_id}: {} elements answered, {expected} requested",
                    elements.len()
                );
                return elements;
            }
            // An explicit refusal is a different failure than frame
            // loss — surface the service's own diagnosis.
            ew_proto::Message::Error { code, detail, .. } => {
                panic!("oprf front-end rejected batch {request_id}: code {code}: {detail}")
            }
            _ => {}
        }
    }
    panic!("oprf batch {request_id} lost on a supposedly lossless bus")
}

/// Pumps every envelope queued for `dest` through `handler` — the role
/// service living at that mailbox — routing each reply back to its
/// request's sender. Requests the handler answers with `None` (absorbed,
/// rejected, or an incoming error) produce no reply. Returns the number
/// of replies routed.
pub fn pump<B: ServiceBus>(
    bus: &mut B,
    dest: NodeId,
    mut handler: impl FnMut(Envelope) -> Option<Envelope>,
) -> usize {
    let (requests, _corrupt) = bus.drain(dest);
    let mut replies = 0usize;
    for req in requests {
        let requester = req.sender;
        if let Some(reply) = handler(req) {
            bus.send(requester, reply).expect("requester mailbox open");
            replies += 1;
        }
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_proto::Message;

    fn env(sender: NodeId, round: u64, ad: u64) -> Envelope {
        Envelope::new(sender, round, Message::UsersQuery { round, ad })
    }

    #[test]
    fn inproc_bus_delivers_per_destination_in_order() {
        let mut bus = InProcBus::new();
        bus.send(NodeId::Backend, env(NodeId::Client(1), 1, 10))
            .unwrap();
        bus.send(NodeId::Oprf, env(NodeId::Client(1), 1, 20))
            .unwrap();
        bus.send(NodeId::Backend, env(NodeId::Client(2), 1, 11))
            .unwrap();

        let (backend_mail, corrupt) = bus.drain(NodeId::Backend);
        assert_eq!(corrupt, 0);
        assert_eq!(backend_mail.len(), 2);
        assert_eq!(backend_mail[0].sender, NodeId::Client(1));
        assert_eq!(backend_mail[1].sender, NodeId::Client(2));

        let (oprf_mail, _) = bus.drain(NodeId::Oprf);
        assert_eq!(oprf_mail.len(), 1);
        // Drained mailboxes are empty.
        assert!(bus.drain(NodeId::Backend).0.is_empty());
    }

    #[test]
    fn wire_bus_roundtrips_envelopes() {
        let mut bus = WireBus::perfect();
        for i in 0..5u64 {
            bus.send(NodeId::Backend, env(NodeId::Client(i as u32), 1, i))
                .unwrap();
        }
        let (mail, corrupt) = bus.drain(NodeId::Backend);
        assert_eq!(corrupt, 0);
        assert_eq!(mail.len(), 5);
        for (i, e) in mail.iter().enumerate() {
            assert_eq!(e.sender, NodeId::Client(i as u32));
        }
    }

    #[test]
    fn wire_bus_faults_hit_only_the_backend_uplink() {
        let drop_all = FaultConfig {
            drop_prob: 1.0,
            seed: 3,
            ..FaultConfig::perfect()
        };
        let mut bus = WireBus::new(Some(drop_all));
        bus.on_phase(RoundPhase::Open);
        bus.on_phase(RoundPhase::Reports);
        bus.send(NodeId::Backend, env(NodeId::Client(1), 1, 1))
            .unwrap();
        bus.send(NodeId::Client(7), env(NodeId::Backend, 1, 2))
            .unwrap();
        bus.send(NodeId::Oprf, env(NodeId::Client(1), 1, 3))
            .unwrap();
        assert!(bus.drain(NodeId::Backend).0.is_empty(), "uplink drops");
        assert_eq!(bus.drain(NodeId::Client(7)).0.len(), 1, "downlink clean");
        assert_eq!(bus.drain(NodeId::Oprf).0.len(), 1, "oprf link clean");
    }

    #[test]
    fn wire_bus_recovery_link_is_clean_and_open_rearms() {
        let drop_all = FaultConfig {
            drop_prob: 1.0,
            seed: 4,
            ..FaultConfig::perfect()
        };
        let mut bus = WireBus::new(Some(drop_all));
        bus.on_phase(RoundPhase::Open);
        bus.on_phase(RoundPhase::Reports);
        bus.send(NodeId::Backend, env(NodeId::Client(1), 1, 1))
            .unwrap();
        assert!(bus.drain(NodeId::Backend).0.is_empty());

        // Recovery re-establishes a clean uplink.
        bus.on_phase(RoundPhase::Recovery);
        bus.send(NodeId::Backend, env(NodeId::Client(1), 1, 2))
            .unwrap();
        assert_eq!(bus.drain(NodeId::Backend).0.len(), 1);

        // A new round re-arms the fault profile.
        bus.on_phase(RoundPhase::Open);
        bus.on_phase(RoundPhase::Reports);
        bus.send(NodeId::Backend, env(NodeId::Client(1), 2, 3))
            .unwrap();
        assert!(bus.drain(NodeId::Backend).0.is_empty());
    }

    #[test]
    fn wire_bus_counts_corrupt_frames() {
        let corrupt_all = FaultConfig {
            corrupt_prob: 1.0,
            seed: 5,
            ..FaultConfig::perfect()
        };
        let mut bus = WireBus::new(Some(corrupt_all));
        for i in 0..20u64 {
            bus.send(NodeId::Backend, env(NodeId::Client(1), 1, i))
                .unwrap();
        }
        let (mail, corrupt) = bus.drain(NodeId::Backend);
        assert!(corrupt > 0, "single-bit flips are caught by the CRC");
        assert!(mail.len() < 20);
    }

    /// A cohort type for driving the round machine with no clients.
    struct NoClient;
    impl ClientNode for NoClient {
        fn client_id(&self) -> u32 {
            unreachable!("empty cohort")
        }
        fn report_envelope(&self, _: CmsParams, _: u64) -> Envelope {
            unreachable!("empty cohort")
        }
        fn on_envelope(&self, _: CmsParams, _: &Envelope) -> Option<Envelope> {
            None
        }
    }

    /// The single-node backend `run_round` drives: a cluster of one.
    fn cluster_of_one(params: CmsParams) -> crate::cluster::ClusterBackend {
        crate::cluster::ClusterBackend::new(
            ew_proto::ShardMap::uniform(1),
            8,
            params,
            crate::ids::AdIdMapper::new(64),
            ew_core::ThresholdPolicy::Mean,
        )
    }

    #[test]
    fn absorbed_error_envelopes_do_not_count_as_reports() {
        let params = CmsParams::new(2, 32, 3);
        let mut backend = cluster_of_one(params);
        let mut bus = InProcBus::new();
        // A hostile peer parks Error envelopes in the backend mailbox;
        // the backend absorbs them (Ok(None), never error-for-error)
        // but they must not inflate the round's report tally.
        for i in 0..3 {
            bus.send(
                NodeId::Backend,
                Envelope::new(
                    NodeId::Client(i),
                    1,
                    Message::Error {
                        code: 1,
                        detail: "spoof".to_string(),
                        hint: None,
                    },
                ),
            )
            .unwrap();
        }
        let open = RoundOpen::open(&mut backend, &mut bus, 1);
        let collected =
            open.collect_reports(&[] as &[NoClient], &[], params, 1, &mut backend, &mut bus);
        assert_eq!(collected.reports(), 0, "errors are not reports");
        let recovered = collected.recover(&[] as &[NoClient], params, 1, &mut backend, &mut bus);
        let driven = recovered.finalize(&mut backend, &mut bus);
        assert_eq!(driven.reports, 0);
    }

    #[test]
    fn rejected_report_gets_an_explicit_error_reply_not_silence() {
        use ew_proto::error_code;

        let params = CmsParams::new(2, 32, 3);
        let mut backend = cluster_of_one(params);
        backend.enroll(1, ew_bigint::UBig::from_u64(2));
        let mut bus = InProcBus::new();
        let report = |cells: Vec<u32>| {
            Envelope::new(
                NodeId::Client(1),
                1,
                Message::Report {
                    user: 1,
                    round: 1,
                    depth: 2,
                    width: 32,
                    seed: 3,
                    cells,
                },
            )
        };
        let cells: Vec<u32> = vec![0; params.num_cells()];
        // A duplicate report sits in the mailbox behind the genuine one
        // (a replaying link): the duplicate's sender must receive a
        // REJECTED_REPORT error reply, not silence.
        bus.send(NodeId::Backend, report(cells.clone())).unwrap();
        bus.send(NodeId::Backend, report(cells)).unwrap();
        let open = RoundOpen::open(&mut backend, &mut bus, 1);
        let collected =
            open.collect_reports(&[] as &[NoClient], &[], params, 1, &mut backend, &mut bus);
        assert_eq!(collected.reports(), 1, "the genuine report counts once");
        let (mail, _) = bus.drain(NodeId::Client(1));
        assert_eq!(mail.len(), 1, "one rejection, one reply");
        assert!(
            matches!(
                &mail[0].msg,
                Message::Error {
                    code: error_code::REJECTED_REPORT,
                    detail,
                    ..
                } if detail.contains("duplicate")
            ),
            "got {:?}",
            mail[0].msg
        );
        collected
            .recover(&[] as &[NoClient], params, 1, &mut backend, &mut bus)
            .finalize(&mut backend, &mut bus);
    }

    #[test]
    fn queued_query_gets_its_reply_routed_during_the_round() {
        use ew_proto::error_code;

        let params = CmsParams::new(2, 32, 3);
        let mut backend = cluster_of_one(params);
        let mut bus = InProcBus::new();
        // A query already sitting in the backend mailbox when the round
        // starts is consumed by the Reports drain — its reply must be
        // routed back to the querier, never silently swallowed (and it
        // must not count as a report).
        bus.send(
            NodeId::Backend,
            Envelope::new(
                NodeId::Client(4),
                0,
                Message::UsersQuery { round: 0, ad: 1 },
            ),
        )
        .unwrap();
        let open = RoundOpen::open(&mut backend, &mut bus, 1);
        let collected =
            open.collect_reports(&[] as &[NoClient], &[], params, 1, &mut backend, &mut bus);
        assert_eq!(collected.reports(), 0, "a query is not a report");
        let (mail, _) = bus.drain(NodeId::Client(4));
        assert_eq!(mail.len(), 1, "the reply reaches the querier");
        assert!(
            matches!(
                mail[0].msg,
                Message::Error {
                    code: error_code::NOT_READY,
                    ..
                }
            ),
            "no finalized view yet: an explicit NOT_READY, not silence"
        );
        collected
            .recover(&[] as &[NoClient], params, 1, &mut backend, &mut bus)
            .finalize(&mut backend, &mut bus);
    }

    #[test]
    #[should_panic(expected = "oprf front-end rejected batch")]
    fn batch_exchange_surfaces_explicit_rejection_not_frame_loss() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let service = crate::oprf_server::OprfService::generate(&mut rng, 128);
        let too_big = service
            .public()
            .n
            .add_ref(&ew_bigint::UBig::one())
            .to_bytes_be();
        let mut bus = InProcBus::new();
        oprf_batch_exchange(&service, &mut bus, NodeId::Client(1), 5, vec![too_big]);
    }

    #[test]
    fn phase_order_is_linear() {
        assert_eq!(RoundPhase::Open.next(), Some(RoundPhase::Reports));
        assert_eq!(RoundPhase::Reports.next(), Some(RoundPhase::Recovery));
        assert_eq!(RoundPhase::Recovery.next(), Some(RoundPhase::Finalize));
        assert_eq!(RoundPhase::Finalize.next(), None);
    }
}
