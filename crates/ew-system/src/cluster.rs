//! The multi-backend aggregation cluster: shard-routed report absorption
//! over N backend shards, associative state merging, uplink re-linking
//! and crash-restart from the round log.
//!
//! * [`ew_proto::ShardMap`] deterministically partitions report
//!   ownership by client id; the bus and the backend are built over the
//!   same map, and it never changes while a round is open.
//! * [`RoutingBus`] implements [`ServiceBus`] over **per-shard uplinks**
//!   (any inner bus — [`InProcBus`] moves, [`WireBus`] frames+CRC+faults
//!   per shard): every backend-bound envelope is routed to its owning
//!   shard's link; every other destination rides a shared side bus.
//! * [`ClusterBackend`] is the one [`AggregationBackend`] (a single
//!   node is a cluster of one): one bulletin board and N shards, each
//!   of which **is** a [`RoundState`]. Every envelope goes to its
//!   owning shard's state through the one validator,
//!   [`RoundState::absorb`] — `absorb_batch` walks a drain serially, in
//!   stream order — and the round finalizes by [`RoundState::merge`]-ing
//!   the shards and running the one [`RoundState::finalize`] sweep.
//!   Cell-wise wrapping addition is associative and commutative, so the
//!   merged view is **bit-identical** to one bare `RoundState` absorbing
//!   the whole stream, for every shard count.
//! * **An uplink sever loses no state.** When a shard's uplink reports
//!   a [`TransportError`] (or a scripted [`ShardKill`] severs it)
//!   mid-round, the bus builds that shard a fresh link and re-sends its
//!   **in-flight** journal — envelopes sent but not yet handed out by a
//!   drain — on it. None of them reached the shard, so every report
//!   lands exactly once and the round finalizes bit-identically.
//! * **Exactly-once is the shard's one rule.** [`RoundState::absorb`]
//!   refuses a second report or adjustment for a `(user, round)` with
//!   [`RoundError::DuplicateReport`], whether it repeats the first one
//!   byte for byte or conflicts with it. Its seen-set is part of every
//!   checkpoint and of every restart replay, and
//!   [`RoundState::merge`] re-checks it across shards.
//! * **A crashed shard is rebuilt from the log.**
//!   [`ClusterBackend::restart_shard`] is the one way a shard's state
//!   is rebuilt: the last snapshot's clone of its state (or a fresh one)
//!   plus its absorbed suffix, without touching the survivors. The round
//!   log holds `Absorbed` records and nothing else, because that is all
//!   a restart reads.
//!
//! Replay counters, journal depth and phase timings are exported as
//! [`ReplayMetrics`] so both paths are observable rather than trusted.
//!
//! The round machine and the party traits are untouched: a cluster
//! round is `drive_round(clients, &mut ClusterBackend, &mut RoutingBus,
//! …)` — the same typestate chain as every other round.
//!
//! ## Why shards cannot finalize alone
//!
//! A shard's accumulator holds the cell-wise sum of *its* clients'
//! blinded reports; the Kursawe blinding terms only cancel over the
//! whole cohort, so any per-shard "view" is cryptographic noise. A
//! shard's state is only ever merged, and [`ClusterBackend`]'s
//! `finalize` is the one place the cluster unblinds: merge everything,
//! then enumerate once.

use crate::backend::{serve, RoundError, RoundState};
use crate::ids::AdIdMapper;
use crate::journal::RoundLog;
use crate::node::{AggregationBackend, InProcBus, RoundPhase, ServiceBus, WireBus};
use crate::telemetry::{phase_index, ReplayMetrics};
use crate::trace;
use ew_bigint::UBig;
use ew_core::{GlobalView, ThresholdPolicy};
use ew_crypto::directory::KeyDirectory;
use ew_proto::transport::TransportError;
use ew_proto::{
    CoordinatorCheckpoint, Envelope, FaultConfig, JournalEvent, Message, NodeId, ShardMap,
};
use ew_simnet::{RestartPhase, ShardKill, ShardRestart};
use ew_sketch::CmsParams;
use std::collections::BTreeSet;
use std::time::Instant;

/// The payload's `user` of a report or adjustment; `None` for every
/// control-plane message.
fn data_plane_user(env: &Envelope) -> Option<u32> {
    match &env.msg {
        Message::Report { user, .. } | Message::Adjustment { user, .. } => Some(*user),
        _ => None,
    }
}

/// The client id an envelope's shard ownership is decided by: the
/// payload's `user` for reports and adjustments (the fields validation
/// trusts), the sending client otherwise; non-client senders fall to
/// slot 0's owner (control traffic has no key-space home).
fn route_user(env: &Envelope) -> u32 {
    match (data_plane_user(env), env.sender) {
        (Some(user), _) | (None, NodeId::Client(user)) => user,
        (None, _) => 0,
    }
}

/// Reports and adjustments: the envelopes that carry aggregation state.
fn is_data_plane(env: &Envelope) -> bool {
    data_plane_user(env).is_some()
}

/// A [`ServiceBus`] that routes every backend-bound envelope to its
/// owning shard's uplink — one inner bus per shard, so each shard is its
/// own failure and fault domain — and everything else over a shared side
/// bus. Draining the backend concatenates the shard mailboxes in shard
/// order.
///
/// A scripted [`ShardKill`] fires once: after `after_sends`
/// backend-bound envelopes have been routed, the next one finds
/// `shard`'s uplink severed. (An un-scripted sever — a genuine
/// [`TransportError`] from an uplink — takes exactly the same path.)
///
/// The bus keeps the link factory it was built with. When an uplink is
/// severed it builds the shard a fresh link, walks it through the
/// round's phase boundaries up to the current one (so a fresh wire link
/// in `Recovery` is clean, as the one it replaces was) and re-sends the
/// shard's **in-flight journal** on it.
///
/// The in-flight journal tracks only data-plane envelopes (reports and
/// adjustments) and is truncated when a backend drain hands them out:
/// after that a sever can no longer lose them, so a re-link re-sends
/// only envelopes no drain has delivered, and none of them can repeat
/// an absorption.
pub struct RoutingBus<B: ServiceBus> {
    map: ShardMap,
    links: Vec<B>,
    side: B,
    /// Builds every link: one per shard and the side bus at
    /// construction, then one per sever.
    make_link: Box<dyn FnMut() -> B>,
    journal: Vec<Vec<Envelope>>,
    failure: Option<ShardKill>,
    backend_sends: usize,
    /// What `take_metrics` drains: `routed`, `replayed` (in-flight
    /// re-sends), `truncated` (entries handed out by a backend drain),
    /// the `queue_depth` high-water mark, and the phase and replay
    /// timings (excluded from determinism checks).
    metrics: ReplayMetrics,
    /// The phase the bus is currently in, and since when.
    clock: Option<(RoundPhase, Instant)>,
}

impl<B: ServiceBus + std::fmt::Debug> std::fmt::Debug for RoutingBus<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingBus")
            .field("map", &self.map)
            .field("links", &self.links)
            .field("side", &self.side)
            .field("journal", &self.journal)
            .field("failure", &self.failure)
            .field("backend_sends", &self.backend_sends)
            .field("metrics", &self.metrics)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl RoutingBus<InProcBus> {
    /// A cluster bus over zero-copy in-process shard links.
    pub fn in_proc(map: ShardMap, failure: Option<ShardKill>) -> Self {
        Self::with_links(map, failure, InProcBus::new)
    }
}

impl RoutingBus<WireBus> {
    /// A cluster bus over framed wire shard links, each uplink with its
    /// own [`FaultConfig`] instance (faults are per shard — one lossy
    /// uplink does not perturb its siblings); client and OPRF traffic
    /// rides a lossless wire side bus.
    pub fn over_wire(
        map: ShardMap,
        fault: Option<FaultConfig>,
        failure: Option<ShardKill>,
    ) -> Self {
        Self::with_links(map, failure, move || WireBus::new(fault))
    }
}

impl<B: ServiceBus> RoutingBus<B> {
    /// A cluster bus with one `make_link()` bus per shard in `map` plus
    /// one for the side traffic; `make_link` also builds the fresh link
    /// for every sever.
    pub fn with_links(
        map: ShardMap,
        failure: Option<ShardKill>,
        mut make_link: impl FnMut() -> B + 'static,
    ) -> Self {
        let links = (0..map.shard_ids()).map(|_| make_link()).collect();
        let side = make_link();
        let journal = (0..map.shard_ids()).map(|_| Vec::new()).collect();
        RoutingBus {
            map,
            links,
            side,
            make_link: Box::new(make_link),
            journal,
            failure,
            backend_sends: 0,
            metrics: ReplayMetrics::default(),
            clock: None,
        }
    }

    /// The shard map the bus routes by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Envelopes currently tracked as in flight (sent, not yet drained)
    /// across every shard journal.
    fn in_flight(&self) -> usize {
        self.journal.iter().map(Vec::len).sum()
    }

    /// Attributes the wall-clock since the last transition to the phase
    /// that just ended and restarts the clock at `next`.
    fn tick_clock(&mut self, next: Option<RoundPhase>) {
        let now = Instant::now();
        if let Some((phase, since)) = self.clock.take() {
            let nanos = now.duration_since(since).as_nanos() as u64;
            self.metrics.phase_hist[phase_index(phase)].record(nanos);
        }
        self.clock = next.map(|p| (p, now));
    }

    /// Replaces `shard`'s uplink with a fresh one, brought through the
    /// round's phase boundaries up to the current phase, and re-sends
    /// the shard's in-flight journal on it. An error is the fresh link's.
    fn relink(&mut self, shard: usize) -> Result<(), TransportError> {
        let resent = &self.journal[shard];
        let _span = trace::span("shard_relink", shard as u64, resent.len() as u64);
        let started = Instant::now();
        let mut link = (self.make_link)();
        if let Some((current, _)) = self.clock {
            for phase in std::iter::successors(Some(RoundPhase::Open), |p| p.next()) {
                link.on_phase(phase);
                if phase == current {
                    break;
                }
            }
        }
        self.metrics.replayed += resent.len() as u64;
        for env in resent {
            link.send(NodeId::Backend, env.clone())?;
        }
        self.links[shard] = link;
        self.metrics
            .replay_hist
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn send_backend(&mut self, env: Envelope) -> Result<(), TransportError> {
        self.backend_sends += 1;
        let (sends, shards) = (self.backend_sends, self.links.len());
        let due = |f: &mut ShardKill| sends > f.after_sends && (f.shard as usize) < shards;
        if let Some(f) = self.failure.take_if(due) {
            self.relink(f.shard as usize)?;
        }
        let owner = self.map.owner_of(route_user(&env)) as usize;
        let sent = self.links[owner].send(NodeId::Backend, env.clone());
        if sent.is_err() {
            // The uplink died under us: re-link it and send again.
            self.relink(owner)?;
            self.links[owner].send(NodeId::Backend, env.clone())?;
        }
        // Only data-plane envelopes enter the in-flight journal: they
        // are the only aggregation state a severed uplink can lose.
        if is_data_plane(&env) {
            self.metrics.routed += 1;
            self.journal[owner].push(env);
        }
        Ok(())
    }
}

impl<B: ServiceBus> ServiceBus for RoutingBus<B> {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        match dest {
            NodeId::Backend => self.send_backend(env),
            other => self.side.send(other, env),
        }
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        if dest != NodeId::Backend {
            return self.side.drain(dest);
        }
        let mut out = Vec::new();
        let mut corrupt = 0usize;
        for link in &mut self.links {
            let (envs, c) = link.drain(NodeId::Backend);
            out.extend(envs);
            corrupt += c;
        }
        // Delivered envelopes are out of a sever's reach: a fresh link
        // must not send them again.
        self.metrics.truncated += self.in_flight() as u64;
        for journal in &mut self.journal {
            journal.clear();
        }
        self.metrics.queue_depth = self.metrics.queue_depth.max(out.len() as u64);
        (out, corrupt)
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        self.tick_clock(Some(phase));
        self.side.on_phase(phase);
        for link in &mut self.links {
            link.on_phase(phase);
        }
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        // Close out the running phase timing (the clock restarts, so
        // periodic observation never double-counts).
        let current = self.clock.map(|(p, _)| p);
        self.tick_clock(current);
        self.metrics.journal_depth = self.in_flight() as u64;
        Some(std::mem::take(&mut self.metrics))
    }
}

/// [`AggregationBackend`] over one bulletin board and N shards, each a
/// [`RoundState`] owning the key ranges the [`ShardMap`] assigns it.
/// The board is the cluster's, not a shard's, so a cold restart never
/// has an enrolment to re-learn. The map is fixed for the cluster's
/// life: a shard keeps its key ranges through an uplink sever and
/// through a crash.
///
/// The [`RoundLog`] is the source of truth for **cold crash-restart**
/// ([`Self::restart_shard`]): the last [`Self::snapshot`]'s clone of
/// the shard's state, else a fresh state for the open round, then the
/// absorbed suffix. [`RoundState::absorb`] is deterministic, a rejected
/// envelope leaves no trace in a state, and only *accepted* envelopes
/// are ever journaled, so replaying a shard's records rebuilds exactly
/// its state. Every duplicate — byte-identical or conflicting, in one
/// batch or across batches — gets the `DuplicateReport` answer a bare
/// [`RoundState`] gives and leaves shard and log untouched, so the
/// cluster is bit-identical to that bare walk.
#[derive(Debug)]
pub struct ClusterBackend {
    map: ShardMap,
    /// One slot per shard id: `None` is a crashed shard awaiting
    /// [`Self::restart_shard`], `Some(None)` a live shard with no round
    /// open, `Some(Some(_))` a shard mid-round.
    shards: Vec<Option<Option<RoundState>>>,
    /// The bulletin board — one for the whole cluster. Under a
    /// coordinator it is read through the epoch's roster ([`roster`]).
    directory: KeyDirectory,
    /// The event-sourced round log: one appender, many readers.
    log: RoundLog,
    round: Option<u64>,
    params: CmsParams,
    mapper: AdIdMapper,
    policy: ThresholdPolicy,
    /// What `take_metrics` drains: `replayed` (re-absorbed from the
    /// log by a restart), `late_reports_parked`, and
    /// the absorb and replay timings (wall-clock; excluded from
    /// determinism checks like every timing).
    metrics: ReplayMetrics,
    /// The frozen roster of the coordinator's current epoch, when this
    /// cluster is driven by one. Restricts the bulletin board to the
    /// epoch roster, so `missing_clients` is roster minus reported, not
    /// cohort minus reported.
    epoch_context: Option<BTreeSet<u32>>,
    /// The control-plane log: coordinator checkpoints and parked late
    /// reports. Unlike `log` it is **never** reset per round — it plays
    /// for the coordinator the role the round log plays for the shards,
    /// surviving a coordinator crash precisely because it lives here.
    control: RoundLog,
    /// Sequence watermark of the last parked report already folded into
    /// an epoch's report set; parked records at or below it are spent.
    parked_consumed: u64,
    /// A scripted crash-restart drill still waiting for its phase
    /// boundary ([`Self::script_restart`]); fires once, then is spent.
    restart_script: Option<ShardRestart>,
}

/// The bulletin board as a round sees it: a user counts as enrolled
/// when their key is published and — under a coordinator — the epoch's
/// frozen roster lists them.
fn roster<'a>(
    directory: &'a KeyDirectory,
    epoch_context: &'a Option<BTreeSet<u32>>,
) -> impl Fn(u32) -> bool + Copy + 'a {
    move |user| {
        directory.get(user).is_some()
            && epoch_context
                .as_ref()
                .is_none_or(|roster| roster.contains(&user))
    }
}

impl ClusterBackend {
    /// A cluster of one live shard per shard id in `map`, no round
    /// open, sharing the cohort parameters and one bulletin board that
    /// [`Self::enroll`] fills.
    pub fn new(
        map: ShardMap,
        element_len: usize,
        params: CmsParams,
        mapper: AdIdMapper,
        policy: ThresholdPolicy,
    ) -> Self {
        ClusterBackend {
            shards: vec![Some(None); map.shard_ids() as usize],
            map,
            directory: KeyDirectory::new(element_len),
            log: RoundLog::new(),
            round: None,
            params,
            mapper,
            policy,
            metrics: ReplayMetrics::default(),
            epoch_context: None,
            control: RoundLog::new(),
            parked_consumed: 0,
            restart_script: None,
        }
    }

    /// Publishes a user's DH public key on the cluster's bulletin board.
    pub fn enroll(&mut self, user: u32, public_key: UBig) {
        self.directory.publish(user, public_key);
    }

    /// The map this backend routes by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Installs an epoch's frozen roster and closes whatever round the
    /// live shards still held. From here on the bulletin
    /// board is read through that roster: `missing_clients` means
    /// *roster* minus reported — a mid-epoch dropout folds into the
    /// existing silent-client recovery path, and a departed member is
    /// simply absent rather than forever "missing" — and a member with
    /// no published key is not enrolled (it enrolls on first join, like
    /// any cohort build).
    pub fn begin_epoch(&mut self, roster: &BTreeSet<u32>) {
        self.epoch_context = Some(roster.clone());
        for slot in self.shards.iter_mut().flatten() {
            *slot = None;
        }
    }

    /// Abandons the open round after a below-`min_clients` collapse:
    /// the round is closed **without finalizing**, so a later
    /// `finalize` answers `NoOpenRound` instead of publishing a
    /// below-threshold view, which is cryptographic noise. The next
    /// epoch's `open_round` starts a fresh round log.
    pub fn collapse_epoch(&mut self) {
        self.round = None;
    }

    /// The event-sourced round log (read-only — the cluster is the one
    /// appender).
    pub fn log(&self) -> &RoundLog {
        &self.log
    }

    /// Checkpoints every live shard's round state — a clone — into the
    /// log and truncates everything the checkpoints cover: the
    /// watermark that keeps the journal's depth bounded by the traffic
    /// since the last snapshot instead of the whole round. Exactly-once
    /// is unaffected: each checkpoint carries its shard's seen-set.
    pub fn snapshot(&mut self) {
        let checkpoints = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| Some((s as u32, slot.as_ref()?.clone()?)))
            .collect();
        self.log.snapshot(checkpoints);
    }

    /// Kills shard `shard` in place: its process state is gone, but it
    /// still owns its key ranges and is expected back. The round can
    /// only proceed after [`Self::restart_shard`] rebuilds it.
    pub fn crash_shard(&mut self, shard: u32) {
        trace::instant("shard_crash", shard as u64, 0);
        self.shards[shard as usize] = None;
    }

    /// Cold-restarts shard `shard` from durable state only: the log's
    /// last snapshot checkpoint of it, else a fresh state for the open
    /// round, then the shard's `Absorbed` suffix above the watermark,
    /// absorbed by reference in sequence order. Replay appends no new
    /// records — the log already proves these absorptions, so the flow
    /// is idempotent and a double restart lands on identical state.
    /// Returns the number of records replayed.
    ///
    /// # Panics
    /// Panics if a journaled record is rejected on replay — the log
    /// holds only successful absorptions and validation is
    /// deterministic, so a rejection is a corrupted log, not a runtime
    /// condition.
    pub fn restart_shard(&mut self, shard: u32) -> usize {
        let span = trace::span("shard_restart", shard as u64, 0);
        let started = Instant::now();
        let mut state = self.log.checkpoint_for(shard).cloned().or_else(|| {
            let round = self.round?;
            Some(RoundState::open(self.params, round))
        });
        let enrolled = roster(&self.directory, &self.epoch_context);
        let mut replayed = 0;
        for env in self.log.absorbed_by(shard) {
            serve(&mut state, None, env, enrolled)
                .expect("journaled absorption is re-accepted on restart replay");
            replayed += 1;
        }
        self.metrics.replayed += replayed as u64;
        self.shards[shard as usize] = Some(state);
        self.metrics
            .replay_hist
            .record(started.elapsed().as_nanos() as u64);
        trace::instant("journal_replay", shard as u64, replayed as u64);
        drop(span);
        replayed
    }

    /// Scripts a cold crash-restart drill — the restart twin of the
    /// bus's [`ShardKill`]: `restart.shard`'s process state is
    /// destroyed at the [`RestartPhase`] boundary of the next round and
    /// rebuilt from the round log alone before the round proceeds
    /// (twice over for [`RestartPhase::MidReplay`], the
    /// replay-idempotence proof). The boundaries are the backend's own
    /// control-plane calls — `Reports`/`MidReplay` fire at the top of
    /// `missing_clients` (the report wave is absorbed), `Recovery` at
    /// the top of `finalize` (the adjustment wave is absorbed) — so any
    /// round or campaign driver drills restarts without knowing it. The
    /// script fires once.
    pub fn script_restart(&mut self, restart: ShardRestart) {
        self.restart_script = Some(restart);
    }

    /// Fires the scripted drill if it is due at this boundary
    /// (`finalizing`: the top of `finalize`, else `missing_clients`).
    fn fire_scripted_restart(&mut self, finalizing: bool) {
        let due = |r: &mut ShardRestart| (r.phase == RestartPhase::Recovery) == finalizing;
        let Some(restart) = self.restart_script.take_if(due) else {
            return;
        };
        let crashes = if restart.phase == RestartPhase::MidReplay {
            2
        } else {
            1
        };
        for _ in 0..crashes {
            self.crash_shard(restart.shard);
            self.restart_shard(restart.shard);
        }
    }

    /// The control-plane log (read-only): coordinator checkpoints and
    /// parked late reports.
    pub fn control_log(&self) -> &RoundLog {
        &self.control
    }

    /// Journals a coordinator checkpoint into the control-plane log,
    /// compacting away the checkpoints it supersedes — restore only
    /// ever reads the latest one, so older checkpoints are dead weight
    /// the moment a newer one lands.
    pub fn checkpoint_coordinator(&mut self, state: CoordinatorCheckpoint) {
        self.control.append(JournalEvent::CoordinatorState(state));
        self.control.compact_coordinator_states();
    }

    /// The latest journaled coordinator checkpoint, if any — what
    /// `restart_coordinator` restores from.
    pub fn latest_coordinator_checkpoint(&self) -> Option<&CoordinatorCheckpoint> {
        self.control
            .records()
            .iter()
            .rev()
            .find_map(|rec| match &rec.event {
                JournalEvent::CoordinatorState(state) => Some(state),
                _ => None,
            })
    }

    /// Parks a late report that arrived inside the grace window: the
    /// verbatim envelope is journaled as [`JournalEvent::ReportParked`]
    /// in the control-plane log, so it survives a coordinator restart
    /// and is folded into the next epoch's report set instead of being
    /// silently lost.
    pub fn park_late_report(&mut self, epoch: u64, round: u64, envelope: Envelope) {
        self.control.append(JournalEvent::ReportParked {
            epoch,
            round,
            envelope,
        });
        self.metrics.late_reports_parked += 1;
    }

    /// Drains every parked report not yet folded into an epoch, oldest
    /// first, advancing the consumed watermark past them. Idempotent
    /// across coordinator restarts: the watermark lives here, with the
    /// journal, not in the coordinator that crashed.
    pub fn take_parked_reports(&mut self) -> Vec<Envelope> {
        let horizon = self.parked_consumed;
        let parked: Vec<Envelope> = self
            .control
            .records()
            .iter()
            .filter(|rec| rec.seq > horizon)
            .filter_map(|rec| match &rec.event {
                JournalEvent::ReportParked { envelope, .. } => Some(envelope.clone()),
                _ => None,
            })
            .collect();
        self.parked_consumed = self.control.last_seq();
        parked
    }

    /// Drains the backend's replay counters (replayed, parked)
    /// and reports the log's current depth and truncation total.
    pub fn take_metrics(&mut self) -> ReplayMetrics {
        self.metrics.journal_depth = self.log.depth() as u64;
        self.metrics.truncated = self.log.truncated_total();
        std::mem::take(&mut self.metrics)
    }

    /// Delivers one envelope to a **specific** shard, as a stale router
    /// would: ownership is validated against the current map, and a
    /// report or adjustment landing on a shard that does not own its
    /// sender's key range is a [`RoundError::WrongShard`] rejection (the
    /// driver answers it with [`ew_proto::error_code::WRONG_SHARD`])
    /// rather than silent mis-aggregation.
    ///
    /// Absorption and journaling are one step: the shard's state
    /// borrows the envelope, and only once it accepts does the
    /// `Absorbed` record take it by move — rejected envelopes never
    /// reach the replay log, and no envelope is copied on the way in.
    fn deliver_to_shard(
        &mut self,
        shard: u32,
        env: Envelope,
    ) -> Result<Option<Envelope>, RoundError> {
        let owner = self.map.owner_of(route_user(&env));
        let data_plane = is_data_plane(&env);
        if data_plane && owner != shard {
            return Err(RoundError::WrongShard { owner, got: shard });
        }
        let Some(slot) = self.shards.get_mut(shard as usize).and_then(Option::as_mut) else {
            return Err(RoundError::WrongShard { owner, got: shard });
        };
        let enrolled = roster(&self.directory, &self.epoch_context);
        let reply = serve(slot, None, &env, enrolled)?;
        if data_plane {
            self.log.append(JournalEvent::Absorbed {
                shard,
                envelope: env,
            });
        }
        Ok(reply)
    }
}

impl AggregationBackend for ClusterBackend {
    fn open_round(&mut self, round: u64) {
        self.round = Some(round);
        for slot in self.shards.iter_mut().flatten() {
            *slot = Some(RoundState::open(self.params, round));
        }
        // A round is the log's epoch: records, snapshot watermark and
        // counters restart.
        self.log.open();
        self.metrics.replayed = 0;
    }

    fn on_envelope(&mut self, env: Envelope) -> Result<Option<Envelope>, RoundError> {
        match &env.msg {
            // Never answer an error with an error — not even with the
            // `WrongShard` routing it to a crashed shard would earn.
            Message::Error { .. } => Ok(None),
            _ => {
                let shard = self.map.owner_of(route_user(&env));
                self.deliver_to_shard(shard, env)
            }
        }
    }

    /// The serial walk: every envelope through [`Self::on_envelope`] in
    /// stream order, timed as one absorb sample. `_threads` is accepted
    /// and ignored: a round runs on the calling thread.
    fn absorb_batch(
        &mut self,
        envelopes: Vec<Envelope>,
        _threads: usize,
    ) -> Vec<Result<Option<Envelope>, RoundError>> {
        let started = Instant::now();
        let out: Vec<_> = envelopes
            .into_iter()
            .map(|env| AggregationBackend::on_envelope(self, env))
            .collect();
        if !out.is_empty() {
            self.metrics
                .absorb_hist
                .record(started.elapsed().as_nanos() as u64);
        }
        out
    }

    fn missing_clients(&mut self) -> Result<Vec<u32>, RoundError> {
        self.fire_scripted_restart(false);
        if self.shards.iter().flatten().any(Option::is_none) {
            return Err(RoundError::NoOpenRound);
        }
        // A user is its owning shard's verdict; the board is sorted, so
        // the union over shards is too.
        let enrolled = roster(&self.directory, &self.epoch_context);
        let silent = |user: &u32| {
            let owner = self.map.owner_of(*user) as usize;
            matches!(&self.shards[owner], Some(Some(state)) if !state.has_reported(*user))
        };
        let users = self.directory.user_ids();
        Ok(users.filter(|u| enrolled(*u)).filter(silent).collect())
    }

    fn finalize(&mut self) -> Result<GlobalView, RoundError> {
        self.fire_scripted_restart(true);
        let round = self.round.take().ok_or(RoundError::NoOpenRound)?;
        let mut merged = RoundState::open(self.params, round);
        for slot in self.shards.iter_mut().flatten() {
            merged.merge(&slot.take().ok_or(RoundError::NoOpenRound)?)?;
        }
        // Every record is dead weight once the merged view exists (the
        // per-shard state it reconstructs was just consumed), so the log
        // ends every round at depth 0.
        self.log.snapshot(Vec::new());
        Ok(merged.finalize(&self.mapper, self.policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{hostile_stream, report_env};
    use ew_proto::error_code;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn params() -> CmsParams {
        CmsParams::new(2, 32, 3)
    }

    fn cluster(map: ShardMap, users: u32) -> ClusterBackend {
        let mut c =
            ClusterBackend::new(map, 8, params(), AdIdMapper::new(64), ThresholdPolicy::Mean);
        for u in 0..users {
            c.enroll(u, UBig::from_u64(u as u64 + 1));
        }
        c
    }

    type Answer = Result<Option<Envelope>, RoundError>;

    /// The reference every cluster round is pinned against: one bare
    /// [`RoundState`] for round 1 walked serially through [`serve`] —
    /// no routing or journal — over a board of users
    /// `0..users`. Returns each envelope's answer, the users who never
    /// reported, and the finalized view.
    fn serial_walk(users: u32, stream: &[Envelope]) -> (Vec<Answer>, Vec<u32>, GlobalView) {
        let mut state = Some(RoundState::open(params(), 1));
        let answers = stream
            .iter()
            .map(|env| serve(&mut state, None, env, |user| user < users))
            .collect();
        let state = state.expect("serve never closes the round");
        let silent = (0..users).filter(|&u| !state.has_reported(u)).collect();
        let view = state.finalize(&AdIdMapper::new(64), ThresholdPolicy::Mean);
        (answers, silent, view)
    }

    /// Ten users' report envelopes with a couple of shared ads.
    fn reports(p: CmsParams, round: u64) -> Vec<Envelope> {
        (0..10u32)
            .map(|u| report_env(p, u, round, &[u as u64, 40 + u as u64 % 3]))
            .collect()
    }

    #[test]
    fn cluster_absorb_and_finalize_match_single_backend() {
        // The bare-`RoundState` reference for the whole round, not
        // only the absorb: user 7 stays silent, so the missing set and
        // the survivors' `Adjustment` envelopes (each routed to — and
        // subtracted on — its sender's owning shard) are covered too.
        let p = params();
        let silent = 7u32;
        let stream: Vec<Envelope> = reports(p, 1)
            .into_iter()
            .filter(|env| env.sender != NodeId::Client(silent))
            .collect();
        let adjustments: Vec<Envelope> = (0..10u32)
            .filter(|&u| u != silent)
            .map(|user| {
                let cells = (0..p.num_cells() as u32).map(|c| c * 31 + user).collect();
                Envelope::new(
                    NodeId::Client(user),
                    1,
                    Message::Adjustment {
                        user,
                        round: 1,
                        cells,
                    },
                )
            })
            .collect();
        let baseline: Vec<Envelope> = stream.iter().chain(&adjustments).cloned().collect();
        let (answers, missing, base_view) = serial_walk(10, &baseline);
        assert!(answers.iter().all(|r| matches!(r, Ok(None))));
        assert_eq!(missing, vec![silent]);

        for shards in [1u32, 2, 3, 4] {
            let mut c = cluster(ShardMap::uniform(shards), 10);
            AggregationBackend::open_round(&mut c, 1);
            let results = c.absorb_batch(stream.clone(), 1);
            assert!(results.iter().all(|r| matches!(r, Ok(None))));
            assert_eq!(
                AggregationBackend::missing_clients(&mut c).unwrap(),
                vec![silent]
            );
            for env in adjustments.iter().cloned() {
                assert_eq!(AggregationBackend::on_envelope(&mut c, env), Ok(None));
            }
            let view = AggregationBackend::finalize(&mut c).unwrap();
            assert_eq!(view, base_view, "shards={shards}");
            assert_eq!(view.sorted_estimates(), base_view.sorted_estimates());
            assert_eq!(
                view.users_threshold().to_bits(),
                base_view.users_threshold().to_bits()
            );
        }
    }

    #[test]
    fn hostile_stream_absorb_matches_serial_single_backend_walk() {
        let stream = hostile_stream(params());
        let (serial_results, _, serial_view) = serial_walk(6, &stream);

        for shards in [1u32, 2, 4] {
            let mut c = cluster(ShardMap::uniform(shards), 6);
            AggregationBackend::open_round(&mut c, 1);
            let results = c.absorb_batch(stream.clone(), 1);
            assert_eq!(results, serial_results, "shards={shards}");
            let view = AggregationBackend::finalize(&mut c).unwrap();
            assert_eq!(view, serial_view, "shards={shards}");
            assert_eq!(
                view.sorted_estimates(),
                serial_view.sorted_estimates(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn cluster_missing_set_is_the_union_of_owned_ranges() {
        let p = params();
        let mut c = cluster(ShardMap::uniform(3), 9);
        AggregationBackend::open_round(&mut c, 1);
        for u in [0u32, 2, 5, 8] {
            AggregationBackend::on_envelope(&mut c, report_env(p, u, 1, &[u as u64])).unwrap();
        }
        assert_eq!(
            AggregationBackend::missing_clients(&mut c).unwrap(),
            vec![1, 3, 4, 6, 7],
            "sorted union across shards, exactly the non-reporters"
        );
    }

    #[test]
    fn wrong_shard_delivery_rejected_without_state_change() {
        let p = params();
        let mut c = cluster(ShardMap::uniform(2), 4);
        AggregationBackend::open_round(&mut c, 1);
        let env = report_env(p, 1, 1, &[7]);
        let owner = c.map().owner_of(1);
        let wrong = 1 - owner;
        assert_eq!(
            c.deliver_to_shard(wrong, env.clone()),
            Err(RoundError::WrongShard { owner, got: wrong })
        );
        // The mis-delivery left no trace: the report still lands once.
        assert_eq!(c.deliver_to_shard(owner, env.clone()), Ok(None));
        // A byte-identical re-delivery is a duplicate like any other.
        assert_eq!(
            c.deliver_to_shard(owner, env),
            Err(RoundError::DuplicateReport(1))
        );
        // So is a *conflicting* one — same user and round, different
        // content.
        assert_eq!(
            c.deliver_to_shard(owner, report_env(p, 1, 1, &[8])),
            Err(RoundError::DuplicateReport(1))
        );
        assert_eq!(
            RoundError::WrongShard { owner, got: wrong }.error_code(),
            error_code::WRONG_SHARD
        );
    }

    #[test]
    fn control_plane_envelopes_are_not_data_plane() {
        let env = Envelope::new(
            NodeId::Backend,
            7,
            Message::MissingClients {
                round: 7,
                users: vec![1, 2],
            },
        );
        assert_eq!(data_plane_user(&env), None);
        assert!(!is_data_plane(&env));
        assert_eq!(route_user(&env), 0, "control traffic has no key-space home");
    }

    #[test]
    fn replayed_absorbed_envelope_is_refused_without_state_change() {
        // An envelope that was already absorbed and then arrives again,
        // in a later delivery, is the shard's duplicate to refuse: no
        // second `Absorbed` record, no second absorption, and the round
        // is the one a single delivery makes.
        let p = params();
        let mut c = cluster(ShardMap::uniform(2), 4);
        AggregationBackend::open_round(&mut c, 1);
        let env = report_env(p, 1, 1, &[7]);
        let owner = c.map().owner_of(1);
        assert_eq!(c.deliver_to_shard(owner, env.clone()), Ok(None));
        let depth = c.log().depth();

        assert_eq!(
            c.deliver_to_shard(owner, env.clone()),
            Err(RoundError::DuplicateReport(1)),
            "a cross-batch replay is a duplicate"
        );
        assert_eq!(c.log().depth(), depth, "no second Absorbed record");
        let (_, _, single) = serial_walk(4, &[env]);
        assert_eq!(AggregationBackend::finalize(&mut c).unwrap(), single);
    }

    #[test]
    fn in_batch_duplicates_keep_duplicate_report_semantics() {
        // Two byte-identical reports inside *one* batch are a client
        // bug, not a replay: the second must still answer
        // `DuplicateReport`, exactly as a bare `RoundState` would.
        let p = params();
        let env = report_env(p, 1, 1, &[7]);
        let mut c = cluster(ShardMap::uniform(2), 4);
        AggregationBackend::open_round(&mut c, 1);
        let results = c.absorb_batch(vec![env.clone(), env.clone()], 1);
        assert_eq!(results[0], Ok(None));
        assert_eq!(results[1], Err(RoundError::DuplicateReport(1)));
        // A later batch re-delivering the same envelope gets the same
        // answer, and the report stays absorbed once.
        let replays = c.absorb_batch(vec![env], 1);
        assert_eq!(replays, vec![Err(RoundError::DuplicateReport(1))]);
        assert_eq!(c.log().depth(), 1);
    }

    #[test]
    fn crashed_shard_answers_wrong_shard() {
        // Between `crash_shard` and `restart_shard` the shard's key
        // range has no state to absorb into: a typed rejection.
        let p = params();
        let mut c = cluster(ShardMap::uniform(2), 10);
        AggregationBackend::open_round(&mut c, 1);
        c.crash_shard(0);
        let answers = c.absorb_batch(reports(p, 1), 1);
        let dead = Err(RoundError::WrongShard { owner: 0, got: 0 });
        assert_eq!(answers.iter().filter(|r| **r == dead).count(), 5);
        assert_eq!(answers.iter().filter(|r| **r == Ok(None)).count(), 5);
    }

    #[test]
    fn cold_restart_replays_checkpoint_and_suffix() {
        let p = params();
        let stream = reports(p, 1);
        let (_, _, base_view) = serial_walk(10, &stream);

        let mut c = cluster(ShardMap::uniform(2), 10);
        AggregationBackend::open_round(&mut c, 1);
        // Absorb half, snapshot (truncating the log), absorb the rest:
        // the restart must stitch checkpoint + suffix back together.
        let (first, rest) = stream.split_at(5);
        for env in first.iter().cloned() {
            AggregationBackend::on_envelope(&mut c, env).unwrap();
        }
        c.snapshot();
        assert_eq!(c.log().depth(), 0, "snapshot truncates absorbed records");
        for env in rest.iter().cloned() {
            AggregationBackend::on_envelope(&mut c, env).unwrap();
        }

        // Kill shard 0 cold and bring it back from durable state only.
        c.crash_shard(0);
        let replayed = c.restart_shard(0);
        assert!(replayed > 0, "the post-snapshot suffix is replayed");
        // Replay appends nothing, so a double restart is idempotent.
        let depth = c.log().depth();
        c.crash_shard(0);
        assert_eq!(c.restart_shard(0), replayed);
        assert_eq!(c.log().depth(), depth, "restart replay journals nothing");

        assert_eq!(
            AggregationBackend::missing_clients(&mut c).unwrap(),
            Vec::<u32>::new()
        );
        let view = AggregationBackend::finalize(&mut c).unwrap();
        assert_eq!(view, base_view, "restart is invisible in the outcome");
        assert_eq!(c.log().depth(), 0, "finalize seals and truncates the round");
    }

    #[test]
    fn scripted_failover_replays_in_flight_and_absorbed_state() {
        // A scripted sever anywhere in the report stream: the shard's
        // in-flight reports are re-sent on a fresh link, its state never
        // moves, and the round is the bare `RoundState` walk's.
        let p = params();
        let stream = reports(p, 1);
        let (_, _, base_view) = serial_walk(10, &stream);

        // Shard 1 of 3 owns users 1, 4 and 7.
        for (after_sends, resent) in [(0usize, 0u64), (3, 1), (7, 2)] {
            let failure = ShardKill {
                shard: 1,
                after_sends,
            };
            let mut bus = RoutingBus::in_proc(ShardMap::uniform(3), Some(failure));
            bus.on_phase(RoundPhase::Open);
            bus.on_phase(RoundPhase::Reports);
            for env in stream.clone() {
                bus.send(NodeId::Backend, env).unwrap();
            }
            assert_eq!(bus.take_metrics().unwrap().replayed, resent);
            let (envs, corrupt) = bus.drain(NodeId::Backend);
            assert_eq!(corrupt, 0);
            assert_eq!(envs.len(), stream.len(), "every report arrives once");
            let label = format!("after_sends={after_sends}");
            let mut b = cluster(ShardMap::uniform(3), 10);
            AggregationBackend::open_round(&mut b, 1);
            let results = b.absorb_batch(envs, 1);
            assert!(results.iter().all(|r| *r == Ok(None)), "{label}");
            assert_eq!(
                AggregationBackend::missing_clients(&mut b).unwrap(),
                Vec::<u32>::new(),
                "{label}"
            );
            assert!(
                b.shards.iter().all(|s| matches!(s, Some(Some(_)))),
                "{label}: every shard is still present at finalize"
            );
            let view = AggregationBackend::finalize(&mut b).unwrap();
            assert_eq!(view, base_view, "{label}");
        }
    }

    #[test]
    fn sever_after_a_drain_re_sends_nothing() {
        // A drained batch is absorbed, then the same shard's uplink is
        // severed within the same phase. The drain handed those
        // envelopes out, so the fresh link re-sends none of them: each
        // report arrives once and is absorbed once.
        let p = params();
        let stream = reports(p, 1);
        let (_, _, base_view) = serial_walk(10, &stream);
        let (first, rest) = stream.split_at(5);

        // Shard 0 of 2 owns users 0, 2, 4, 6 and 8; the sixth send
        // severs it after users 0, 2 and 4 were drained and absorbed.
        let failure = ShardKill {
            shard: 0,
            after_sends: first.len(),
        };
        let mut bus = RoutingBus::in_proc(ShardMap::uniform(2), Some(failure));
        let mut c = cluster(ShardMap::uniform(2), 10);
        AggregationBackend::open_round(&mut c, 1);
        bus.on_phase(RoundPhase::Open);
        bus.on_phase(RoundPhase::Reports);
        for env in first.iter().cloned() {
            bus.send(NodeId::Backend, env).unwrap();
        }
        let (envs, _) = bus.drain(NodeId::Backend);
        assert!(c.absorb_batch(envs, 1).iter().all(|r| *r == Ok(None)));

        for env in rest.iter().cloned() {
            bus.send(NodeId::Backend, env).unwrap();
        }
        assert_eq!(bus.take_metrics().unwrap().replayed, 0);
        let (envs, _) = bus.drain(NodeId::Backend);
        assert_eq!(envs.len(), rest.len(), "every report arrives once");
        let answers = c.absorb_batch(envs, 1);
        assert!(answers.iter().all(|r| *r == Ok(None)), "{answers:?}");
        let absorbed = c
            .log()
            .records()
            .iter()
            .filter(|r| matches!(r.event, JournalEvent::Absorbed { .. }))
            .count();
        assert_eq!(absorbed, stream.len(), "one Absorbed record per envelope");

        assert_eq!(
            AggregationBackend::missing_clients(&mut c).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(AggregationBackend::finalize(&mut c).unwrap(), base_view);
    }

    /// An uplink that is either dead (every send is `Disconnected`) or
    /// a working in-process link.
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
    fn uplink_transport_error_triggers_the_same_failover() {
        // A genuine TransportError on an uplink takes the scripted
        // sever's path: a fresh link, and the send goes out again on it.
        let p = params();
        let mut made = 0usize;
        let mut bus = RoutingBus::with_links(ShardMap::uniform(2), None, move || {
            made += 1;
            // The first link built is shard 0's uplink.
            if made == 1 {
                Link::Dead
            } else {
                Link::Live(InProcBus::new())
            }
        });
        assert_eq!(bus.map().owner_of(0), 0);
        let report = report_env(p, 0, 1, &[5]);
        bus.send(NodeId::Backend, report.clone()).unwrap();
        let (envs, _) = bus.drain(NodeId::Backend);
        // The report arrives once, and nothing comes before it.
        assert_eq!(envs, vec![report]);
    }

    #[test]
    fn every_link_dead_is_a_transport_error_not_a_panic() {
        let p = params();
        let sever = ShardKill {
            shard: 0,
            after_sends: 0,
        };
        for failure in [None, Some(sever)] {
            let mut bus = RoutingBus::with_links(ShardMap::uniform(2), failure, || Link::Dead);
            assert_eq!(
                bus.send(NodeId::Backend, report_env(p, 0, 1, &[5])),
                Err(TransportError::Disconnected),
                "failure={failure:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn round_state_merge_is_associative_and_commutative(
            (num_users, shard_count, order_seed) in (1u32..24, 1usize..7, any::<u64>())
        ) {
            // Arbitrary per-user reports, partitioned over
            // `shard_count` shards by an arbitrary assignment (shards
            // may end up empty), merged in an arbitrary order with an
            // arbitrary pairwise grouping: the finalized view must be
            // bit-identical to the single-backend view every time.
            let p = params();
            let mut rng = rand::rngs::StdRng::seed_from_u64(order_seed);
            let mapper = AdIdMapper::new(64);
            let policy = ThresholdPolicy::Mean;

            let user_reports: Vec<Envelope> = (0..num_users)
                .map(|u| {
                    let mut env = report_env(p, u, 1, &[]);
                    if let Message::Report { cells, .. } = &mut env.msg {
                        cells.iter_mut().for_each(|c| *c = rng.gen::<u32>());
                    }
                    env
                })
                .collect();
            // What a cluster's finalize does: merge into a fresh state,
            // then the one sweep.
            let finalize = |state: &RoundState| {
                let mut merged = RoundState::open(p, 1);
                merged.merge(state).unwrap();
                assert_eq!(merged.reports(), num_users as usize);
                merged.finalize(&mapper, policy)
            };

            // The single-backend reference: one state, one view.
            let mut all = RoundState::open(p, 1);
            for env in &user_reports {
                all.absorb(env, |_| true).unwrap();
            }
            let reference = finalize(&all);

            // Arbitrary shard assignment (not necessarily contiguous,
            // some shards possibly empty).
            let mut states: Vec<RoundState> =
                (0..shard_count).map(|_| RoundState::open(p, 1)).collect();
            for env in &user_reports {
                let s = rng.gen_range(0..shard_count);
                states[s].absorb(env, |_| true).unwrap();
            }

            // Random pairwise grouping: repeatedly merge one state into
            // another, both chosen arbitrarily — this exercises both
            // orderings and groupings of the fold.
            while states.len() > 1 {
                let a = rng.gen_range(0..states.len());
                let absorbed = states.swap_remove(a);
                let b = rng.gen_range(0..states.len());
                states[b].merge(&absorbed).unwrap();
            }
            let merged = finalize(&states.pop().expect("one state left"));

            prop_assert_eq!(&merged, &reference);
            prop_assert_eq!(merged.sorted_estimates(), reference.sorted_estimates());
            prop_assert_eq!(
                merged.users_threshold().to_bits(),
                reference.users_threshold().to_bits()
            );
        }
    }

    #[test]
    fn round_state_merge_rejects_cross_round_and_overlapping_shards() {
        let p = params();
        let mut m = RoundState::open(p, 1);
        m.merge(&RoundState::open(p, 1)).unwrap();
        assert_eq!(
            m.merge(&RoundState::open(p, 2)),
            Err(RoundError::WrongRound {
                expected: 1,
                got: 2
            })
        );
        let mut state = RoundState::open(p, 1);
        state.absorb(&report_env(p, 4, 1, &[1]), |_| true).unwrap();
        m.merge(&state).unwrap();
        assert_eq!(
            m.merge(&state),
            Err(RoundError::DuplicateReport(4)),
            "a user cannot report through two shards"
        );
        assert_eq!(m.reports(), 1, "a refused merge folds nothing in");
        let other_dims = RoundState::open(CmsParams::new(2, 16, 3), 1);
        assert_eq!(m.merge(&other_dims), Err(RoundError::DimensionMismatch));
    }

    #[test]
    fn rejected_adjustment_is_invisible_with_or_without_a_restart() {
        // Users 0..4 report, user 5 stays silent. User 0 then sends a
        // three-cell adjustment (refused, so never journaled) followed
        // by its genuine one. A shard that crash-restarts between the
        // two is rebuilt from the journal and never saw the bad one; a
        // shard that stayed up did — both must answer and finalize
        // alike, or a crash is visible in the outcome.
        let p = params();
        let adjustment = |user: u32, cells: Vec<u32>| {
            let msg = Message::Adjustment {
                user,
                round: 1,
                cells,
            };
            Envelope::new(NodeId::Client(user), 1, msg)
        };
        let genuine = |user: u32| {
            let cells = (0..p.num_cells() as u32).map(|c| c * 31 + user).collect();
            adjustment(user, cells)
        };
        for shards in [1u32, 2, 4] {
            let run = |restart: bool| {
                let mut c = cluster(ShardMap::uniform(shards), 6);
                AggregationBackend::open_round(&mut c, 1);
                for user in 0..5u32 {
                    let env = report_env(p, user, 1, &[user as u64, 40]);
                    assert_eq!(AggregationBackend::on_envelope(&mut c, env), Ok(None));
                }
                assert_eq!(AggregationBackend::missing_clients(&mut c), Ok(vec![5]));
                let mut replies = vec![c.on_envelope(adjustment(0, vec![7; 3]))];
                if restart {
                    let owner = c.map().owner_of(0);
                    c.crash_shard(owner);
                    c.restart_shard(owner);
                }
                replies.extend((0..5u32).map(|user| c.on_envelope(genuine(user))));
                (replies, AggregationBackend::finalize(&mut c).unwrap())
            };
            let (replies, view) = run(false);
            assert_eq!(replies[0], Err(RoundError::DimensionMismatch));
            assert!(replies[1..].iter().all(|r| *r == Ok(None)), "{replies:?}");
            assert_eq!(run(true), (replies, view), "shards={shards}");
        }
    }

    #[test]
    fn begin_epoch_restricts_the_missing_set_to_the_roster() {
        let p = params();
        let mut c = cluster(ShardMap::uniform(3), 10);
        c.begin_epoch(&BTreeSet::from([0, 2, 4, 6]));
        AggregationBackend::open_round(&mut c, 1);
        for u in [0u32, 2, 4] {
            AggregationBackend::on_envelope(&mut c, report_env(p, u, 1, &[u as u64])).unwrap();
        }
        assert_eq!(
            AggregationBackend::missing_clients(&mut c).unwrap(),
            vec![6],
            "missing means roster minus reported, not cohort minus reported"
        );
    }

    #[test]
    fn the_round_log_holds_only_absorbed_records() {
        // A plain round, then a roster-restricted epoch round: whatever
        // drives the cluster, the round log is exactly what a restart
        // replays — one `Absorbed` record per accepted envelope.
        let p = params();
        let mut c = cluster(ShardMap::uniform(3), 6);
        let only_absorbed = |c: &ClusterBackend, want: usize| {
            let records = c.log().records();
            assert_eq!(records.len(), want);
            assert!(records
                .iter()
                .all(|r| matches!(r.event, JournalEvent::Absorbed { .. })));
        };
        AggregationBackend::open_round(&mut c, 1);
        only_absorbed(&c, 0);
        for u in 0..6u32 {
            AggregationBackend::on_envelope(&mut c, report_env(p, u, 1, &[u as u64])).unwrap();
        }
        only_absorbed(&c, 6);
        AggregationBackend::finalize(&mut c).unwrap();
        only_absorbed(&c, 0);

        c.begin_epoch(&BTreeSet::from([1, 3, 5]));
        AggregationBackend::open_round(&mut c, 2);
        only_absorbed(&c, 0);
        for u in [1u32, 3] {
            AggregationBackend::on_envelope(&mut c, report_env(p, u, 2, &[u as u64])).unwrap();
        }
        assert_eq!(AggregationBackend::missing_clients(&mut c), Ok(vec![5]));
        only_absorbed(&c, 2);
        c.collapse_epoch();
        only_absorbed(&c, 2);
    }

    #[test]
    fn collapse_abandons_the_round_without_corrupting_the_log() {
        let p = params();
        let mut c = cluster(ShardMap::uniform(2), 6);
        c.begin_epoch(&BTreeSet::from([0, 1, 2]));
        AggregationBackend::open_round(&mut c, 1);
        AggregationBackend::on_envelope(&mut c, report_env(p, 0, 1, &[9])).unwrap();
        c.collapse_epoch();
        assert_eq!(
            AggregationBackend::finalize(&mut c),
            Err(RoundError::NoOpenRound),
            "a collapsed round is abandoned, never finalized"
        );
        // The next epoch runs over the same backend to the same view a
        // fresh cluster produces — the abandoned round left no residue.
        c.begin_epoch(&BTreeSet::from([3, 4, 5]));
        AggregationBackend::open_round(&mut c, 2);
        let mut fresh = cluster(ShardMap::uniform(2), 6);
        fresh.begin_epoch(&BTreeSet::from([3, 4, 5]));
        AggregationBackend::open_round(&mut fresh, 2);
        for u in [3u32, 4, 5] {
            let env = report_env(p, u, 2, &[u as u64]);
            AggregationBackend::on_envelope(&mut c, env.clone()).unwrap();
            AggregationBackend::on_envelope(&mut fresh, env).unwrap();
        }
        let view = AggregationBackend::finalize(&mut c).unwrap();
        let reference = AggregationBackend::finalize(&mut fresh).unwrap();
        assert_eq!(view, reference);
    }

    #[test]
    fn restart_across_an_epoch_boundary_replays_to_the_same_state() {
        let p = params();
        let mut c = cluster(ShardMap::uniform(2), 8);
        let mut twin = cluster(ShardMap::uniform(2), 8);

        // Epoch 1 runs to completion on both.
        for backend in [&mut c, &mut twin] {
            backend.begin_epoch(&BTreeSet::from([0, 1, 2, 3]));
            AggregationBackend::open_round(backend, 1);
            for u in [0u32, 1, 2, 3] {
                AggregationBackend::on_envelope(backend, report_env(p, u, 1, &[u as u64])).unwrap();
            }
            AggregationBackend::finalize(backend).unwrap();
        }

        // Epoch 2 churns the roster; one backend loses a shard mid-round.
        let roster2 = BTreeSet::from([1, 2, 3, 5, 7]);
        for backend in [&mut c, &mut twin] {
            backend.begin_epoch(&roster2);
            AggregationBackend::open_round(backend, 2);
            for u in [1u32, 5] {
                AggregationBackend::on_envelope(backend, report_env(p, u, 2, &[u as u64])).unwrap();
            }
        }
        c.crash_shard(0);
        let replayed = c.restart_shard(0);
        assert!(replayed <= 2, "only this round's absorptions replay");
        for backend in [&mut c, &mut twin] {
            for u in [2u32, 3, 7] {
                AggregationBackend::on_envelope(backend, report_env(p, u, 2, &[u as u64])).unwrap();
            }
            assert_eq!(
                AggregationBackend::missing_clients(backend).unwrap(),
                Vec::<u32>::new()
            );
        }
        let view = AggregationBackend::finalize(&mut c).unwrap();
        let reference = AggregationBackend::finalize(&mut twin).unwrap();
        assert_eq!(view, reference, "the crash-restart is invisible");
    }
}
