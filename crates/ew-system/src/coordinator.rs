//! The epoch coordinator: a tick-driven state machine that owns
//! dynamic membership and folds mid-epoch churn into the existing
//! round machinery.
//!
//! Everything before this module assumed a **closed world**: the cohort
//! enrolled once, every round ran over the same clients, and a client
//! that vanished was a transient fault, not a departure. Real
//! populations churn — extensions are installed and removed, laptops
//! sleep through a report window — and the paper's weekly cadence makes
//! the week (an *epoch*) the natural unit of membership. This module
//! adds the missing role service:
//!
//! * The [`Coordinator`] answers envelopes as [`NodeId::Coordinator`]
//!   on the same bus fabric as every other role, and speaks only
//!   membership: clients ask to participate with [`Message::Join`] and
//!   depart cleanly with [`Message::Leave`]. The campaign driver moves
//!   time forward by calling [`Coordinator::tick`] directly, and each
//!   [`EpochEvent`] a tick returns is its cue for the next round step
//!   (`EyewnderSystem::run_epochs_deadline_on`): the coordinator's
//!   phases gate the round, as a Psyche coordinator's state gates its
//!   clients.
//! * Time is a **monotone tick count**: every deadline is expressed in
//!   the caller-supplied `now` of [`Coordinator::tick`], so a campaign
//!   is deterministic and replayable — the same join/leave/tick history
//!   always produces the same epochs. Where ticks come *from* is the
//!   [`Clock`] seam: [`LogicalClock`] (campaign-driven, the default) or
//!   [`VirtualClock`] (test-scripted jittered schedules). Phase
//!   transitions fire at the first tick **at or past** a deadline, so
//!   jittered schedules reach the same transitions as step-by-one
//!   schedules — the property `tests/coordinator_soak.rs` pins.
//! * Membership changes accumulate in ordered **sets** between ticks
//!   and are folded only at the tick boundary, so the state after each
//!   tick is independent of the *delivery order* of joins, leaves and
//!   drops within the window — the property
//!   `tests/churn_soak.rs` pins by shuffling interleavings.
//! * The coordinator's state **is** its [`CoordinatorCheckpoint`]: the
//!   epoch, round, phase and deadline, and four ordered sets — the
//!   roster and the pending joins, leaves and drops. A checkpoint is a
//!   clone of it, and its counters are the [`ChurnMetrics`] it reports.
//!
//! ## The phase machine
//!
//! ```text
//!                 joins ≥ min_clients
//!  WaitingForMembers ───────────────▶ Warmup ───deadline──▶ Reports
//!        ▲  ▲                          │                      │
//!        │  └── roster < min_clients ──┘                      │ deadline
//!        │        (collapse)                                  ▼
//!        │                                                 Recovery
//!        │      roster − dropped < min_clients                │ deadline
//!        ├───────────── (collapse) ◀── Reports                ▼
//!        └────────────── epoch complete ◀────────────────  Finalize
//! ```
//!
//! * **WaitingForMembers** — joins accumulate; once the forming roster
//!   reaches `min_clients` the coordinator opens the next epoch, assigns
//!   its round and starts the warmup countdown.
//! * **Warmup** — the admission window: late leaves still shrink the
//!   roster, and dropping below `min_clients` **regresses** to
//!   `WaitingForMembers` instead of running a round the blinding could
//!   not cancel over.
//! * **Reports** — the roster is frozen; the aggregation round opens
//!   over exactly these members ([`EpochEvent::ReportsOpened`]), and
//!   their reports are due by the deadline. A client that vanishes
//!   mid-phase is [`Coordinator::mark_dropped`] and becomes part of the
//!   round's silent set — the *existing* §6 adjustment/recovery path
//!   absorbs the churn; nothing new is invented for it. If drops push
//!   the effective roster below `min_clients`, the epoch **collapses**:
//!   the round is abandoned (never finalized — a below-threshold view
//!   is cryptographic noise) and the machine regresses to
//!   `WaitingForMembers` with the survivors still enrolled.
//! * **Recovery** — the report deadline has passed
//!   ([`EpochEvent::RecoveryStarted`]): the reports are collected, and
//!   whoever has not reported is named in the `MissingClients` wave and
//!   recovered through the survivors' adjustments.
//! * **Finalize** — recovery's deadline has passed
//!   ([`EpochEvent::FinalizeStarted`]): the round finalizes. The next
//!   tick completes the epoch: survivors (roster minus dropped minus
//!   clean leaves) carry into the next epoch's forming roster, and
//!   pending joins land there too.
//!
//! Joins received in any phase other than `WaitingForMembers` are
//! parked for the **next** epoch — a roster never grows mid-flight.
//!
//! ## Crash-survivability
//!
//! The coordinator is as restartable as the shards it governs: after
//! every tick-boundary mutation [`Coordinator::checkpoint`] emits a
//! [`CoordinatorCheckpoint`], which the driver journals into the
//! cluster's control log, and [`Coordinator::restore`] rebuilds a
//! coordinator from the **latest** one — resuming at the exact phase,
//! deadline and churn sets it died with. Completed epochs additionally
//! leave a post-finalize [`EpochPhase::Grace`] window during which a
//! late report is *parked* for the next epoch (journaled as
//! [`ew_proto::JournalEvent::ReportParked`]) instead of being silently
//! lost, and every
//! [`error_code::EPOCH_CLOSED`] reply carries an [`AdmissionHint`] —
//! which epoch to rejoin and how long to back off.

use crate::telemetry::ChurnMetrics;
use crate::trace;
use ew_proto::{
    error_code, AdmissionHint, CoordinatorCheckpoint, Envelope, EpochPhase, Message, NodeId,
};
use std::collections::BTreeSet;

/// The tick source driving [`Coordinator::tick`]: where `now` comes
/// from. Implementations must be monotone non-decreasing — the
/// coordinator ignores rewinds, but a well-behaved clock never rewinds
/// in the first place.
pub trait Clock {
    /// The next tick instant.
    fn now(&mut self) -> u64;
}

/// The campaign-driven clock: every call advances by exactly one tick.
/// This reproduces the pre-PR-9 `now += 1` driver loops verbatim, which
/// is what keeps refactored campaigns bit-identical to their logical
/// baselines.
#[derive(Debug, Default, Clone)]
pub struct LogicalClock {
    now: u64,
}

impl LogicalClock {
    /// A logical clock starting at tick 0 (first call returns 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// A logical clock resuming at `now` — what a campaign runner hands
    /// a coordinator whose `last_tick` is already past 0, so the clock
    /// never issues ticks the coordinator would ignore as rewinds.
    pub fn starting_at(now: u64) -> Self {
        LogicalClock { now }
    }
}

impl Clock for LogicalClock {
    fn now(&mut self) -> u64 {
        self.now += 1;
        self.now
    }
}

/// A test-scripted clock: each call advances by the next step of the
/// given schedule (steps are clamped to ≥ 1 to stay monotone; an
/// exhausted schedule continues by 1). Deadline scheduling is
/// jitter-insensitive — transitions fire at the first tick at or past
/// the deadline — so any `VirtualClock` schedule must produce the same
/// `EpochOutcome`s as [`LogicalClock`].
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now: u64,
    steps: std::vec::IntoIter<u64>,
}

impl VirtualClock {
    /// A virtual clock starting at tick 0 with the given step schedule.
    pub fn new(steps: Vec<u64>) -> Self {
        VirtualClock {
            now: 0,
            steps: steps.into_iter(),
        }
    }
}

impl Clock for VirtualClock {
    fn now(&mut self) -> u64 {
        self.now += self.steps.next().unwrap_or(1).max(1);
        self.now
    }
}

/// Ticks between admission and the roster freeze.
const WARMUP_TICKS: u64 = 2;
/// Ticks the report window stays open.
const REPORT_TICKS: u64 = 3;
/// Ticks allotted to the recovery exchange.
const RECOVERY_TICKS: u64 = 2;

/// Admission and grace configuration for one epoch, in logical ticks.
/// The other deadlines are fixed: warmup 2, reports 3, recovery 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Minimum roster size for an epoch to form (and to keep running:
    /// dropping below this mid-epoch collapses it).
    pub min_clients: u32,
    /// Ticks the post-finalize grace window stays open for late
    /// reports; 0 disables the window (finalize regresses straight to
    /// `WaitingForMembers`, the pre-PR-9 behaviour).
    pub grace_ticks: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            min_clients: 4,
            grace_ticks: 1,
        }
    }
}

impl EpochConfig {
    /// Returns the config with the given admission threshold.
    ///
    /// # Panics
    /// Panics if `min_clients` is zero — an epoch admits at least one
    /// client (the same invariant [`Coordinator::new`] enforces).
    pub fn with_min_clients(mut self, min_clients: u32) -> Self {
        assert!(min_clients > 0, "an epoch admits at least one client");
        self.min_clients = min_clients;
        self
    }

    /// Returns the config with the given grace window (0 disables it).
    pub fn with_grace_ticks(mut self, grace_ticks: u64) -> Self {
        self.grace_ticks = grace_ticks;
        self
    }
}

/// A phase transition the coordinator surfaced from one tick — the
/// campaign driver's cue to open, drive, abandon or close a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochEvent {
    /// `min_clients` was met: `epoch` formed with the installed roster
    /// and `round` was assigned; warmup is counting down.
    EpochStarted {
        /// The newly formed epoch.
        epoch: u64,
        /// The aggregation round this epoch will drive.
        round: u64,
    },
    /// Warmup elapsed: the roster is frozen and the report window is
    /// open.
    ReportsOpened {
        /// The epoch whose reports are now due.
        epoch: u64,
        /// Its aggregation round.
        round: u64,
    },
    /// The report window closed; the recovery exchange begins.
    RecoveryStarted {
        /// The epoch entering recovery.
        epoch: u64,
        /// Its aggregation round.
        round: u64,
    },
    /// Recovery elapsed; the round is finalizing.
    FinalizeStarted {
        /// The epoch entering finalization.
        epoch: u64,
        /// Its aggregation round.
        round: u64,
    },
    /// The epoch completed: its survivors carry into the next forming
    /// roster.
    EpochCompleted {
        /// The completed epoch.
        epoch: u64,
        /// The round it finalized.
        round: u64,
        /// Members still enrolled after dropped and departing clients
        /// are folded out.
        survivors: Vec<u32>,
    },
    /// The epoch fell below `min_clients` and was abandoned — the
    /// round (if one was open) must not be finalized.
    Collapsed {
        /// The abandoned epoch.
        epoch: u64,
        /// Members still enrolled, carried into the regressed
        /// `WaitingForMembers` state.
        remaining: Vec<u32>,
    },
}

/// The epoch coordinator role service. See the module docs for the
/// phase machine and churn semantics.
#[derive(Debug)]
pub struct Coordinator {
    config: EpochConfig,
    /// The protocol state, exactly as [`Coordinator::checkpoint`]
    /// journals it.
    state: CoordinatorCheckpoint,
    /// The counters [`Coordinator::take_churn_metrics`] drains; its two
    /// gauges are set at the drain. The phase timings are wall-clock
    /// (the window between consecutive accepted ticks belongs to the
    /// phase the earlier tick left installed), so they are never part
    /// of a determinism comparison.
    churn: ChurnMetrics,
    /// The open attribution window: the phase installed by the last
    /// accepted tick and when it was installed.
    wall: Option<(EpochPhase, std::time::Instant)>,
}

/// The slot of `phase` in [`ChurnMetrics::phase_ticks`].
pub fn epoch_phase_index(phase: EpochPhase) -> usize {
    match phase {
        EpochPhase::WaitingForMembers => 0,
        EpochPhase::Warmup => 1,
        EpochPhase::Reports => 2,
        EpochPhase::Recovery => 3,
        EpochPhase::Finalize => 4,
        EpochPhase::Grace => 5,
    }
}

impl Coordinator {
    /// A genesis coordinator: empty roster, epoch 0, waiting for
    /// members.
    ///
    /// # Panics
    /// Panics if `config.min_clients` is zero.
    pub fn new(config: EpochConfig) -> Self {
        assert!(
            config.min_clients > 0,
            "an epoch admits at least one client"
        );
        Coordinator {
            config,
            state: CoordinatorCheckpoint::default(),
            churn: ChurnMetrics::default(),
            wall: None,
        }
    }

    /// The deadline configuration.
    pub fn config(&self) -> EpochConfig {
        self.config
    }

    /// The last logical time [`Coordinator::tick`] accepted.
    pub fn last_tick(&self) -> u64 {
        self.state.last_tick
    }

    /// The current phase.
    pub fn phase(&self) -> EpochPhase {
        self.state.phase
    }

    /// The current epoch (0 = none formed yet).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The aggregation round assigned to the current epoch.
    pub fn round(&self) -> u64 {
        self.state.round
    }

    /// The live roster: forming in `WaitingForMembers`/`Warmup`, frozen
    /// from `ReportsOpened` until the epoch completes or collapses.
    pub fn roster(&self) -> &BTreeSet<u32> {
        &self.state.roster
    }

    /// Joins parked for the next epoch.
    pub fn pending_joins(&self) -> &BTreeSet<u32> {
        &self.state.pending_joins
    }

    /// The current epoch's dropouts — the round's silent set, in
    /// ascending order.
    pub fn dropped(&self) -> Vec<u32> {
        self.state.dropped.iter().copied().collect()
    }

    /// Whether `user` is currently enrolled or pending admission.
    fn is_known(&self, user: u32) -> bool {
        self.state.roster.contains(&user) || self.state.pending_joins.contains(&user)
    }

    /// Registers a join. Idempotent: re-joining while enrolled or
    /// already pending changes nothing. Joins only ever land in the
    /// pending set — the roster itself moves at tick boundaries.
    pub fn register_join(&mut self, user: u32) {
        if !self.state.roster.contains(&user) && self.state.pending_joins.insert(user) {
            self.churn.joins += 1;
        }
    }

    /// Registers a clean departure. While the roster is forming the
    /// next tick folds it out; while frozen the member still owes its
    /// report and adjustment, and departs when the epoch completes.
    pub fn register_leave(&mut self, user: u32) {
        if self.state.pending_leaves.insert(user) {
            self.churn.leaves += 1;
        }
    }

    /// Marks an enrolled member as dropped mid-epoch (the failure
    /// detector's verdict, not a message — failed clients do not
    /// send). The drop folds into the round's silent set at the next
    /// tick; unknown users are ignored.
    pub fn mark_dropped(&mut self, user: u32) {
        if self.state.roster.contains(&user) && self.state.dropped.insert(user) {
            self.churn.drops += 1;
        }
    }

    /// Drops a straggler who blew the report deadline: the deadline
    /// scheduler's verdict rather than the failure detector's, counted
    /// separately (`deadline_drops`) but folded into the **same** §6
    /// silent-set recovery path as [`Coordinator::mark_dropped`] — a
    /// late client never stalls the epoch. Returns whether the user was
    /// actually dropped (enrolled and not already dropped).
    pub fn drop_straggler(&mut self, user: u32) -> bool {
        if self.state.roster.contains(&user) && self.state.dropped.insert(user) {
            self.churn.drops += 1;
            self.churn.deadline_drops += 1;
            trace::instant("deadline_drop", user as u64, self.state.epoch);
            true
        } else {
            false
        }
    }

    /// Whether the post-finalize grace window is currently open.
    pub fn in_grace(&self) -> bool {
        self.state.phase == EpochPhase::Grace
    }

    /// The retry guidance carried in every `EPOCH_CLOSED` reply: the
    /// epoch a rejected client should rejoin, and how many ticks to
    /// back off before the coordinator will plausibly admit it (the
    /// remainder of the current phase, at least one tick).
    pub fn admission_hint(&self) -> AdmissionHint {
        AdmissionHint {
            epoch: self.state.epoch + 1,
            retry_after: self
                .state
                .deadline
                .saturating_sub(self.state.last_tick)
                .max(1),
        }
    }

    /// The coordinator's protocol state, as the control journal keeps
    /// it. Deployment config and telemetry counters are deliberately
    /// excluded — config is supplied at restart, counters restart at
    /// zero (the same discipline as a restarted shard's).
    pub fn checkpoint(&self) -> CoordinatorCheckpoint {
        self.state.clone()
    }

    /// Rebuilds a coordinator from a checkpoint: the restart half of
    /// the crash drill. The restored coordinator resumes at the exact
    /// phase, deadline and churn sets of the checkpoint; its counters
    /// start from zero except `coordinator_restarts`, which records the
    /// restart itself.
    pub fn restore(config: EpochConfig, state: &CoordinatorCheckpoint) -> Self {
        let mut restored = Coordinator::new(config);
        restored.state = state.clone();
        restored.churn.coordinator_restarts = 1;
        trace::instant("coordinator_restore", state.epoch, state.round);
        restored
    }

    /// Advances logical time to `now` and runs at most one phase
    /// transition, returning the event it produced, if any. Non-monotone
    /// calls (`now` below the last tick) are ignored — time never
    /// rewinds.
    ///
    /// All accumulated joins/leaves/drops are folded here, at the tick
    /// boundary, so the post-tick state is independent of their
    /// delivery order within the window.
    pub fn tick(&mut self, now: u64) -> Option<EpochEvent> {
        if now < self.state.last_tick {
            return None;
        }
        let entered = std::time::Instant::now();
        if let Some((phase, opened)) = self.wall.take() {
            self.churn.phase_nanos[epoch_phase_index(phase)] +=
                entered.duration_since(opened).as_nanos() as u64;
        }
        self.state.last_tick = now;
        let slot = epoch_phase_index(self.state.phase);
        self.churn.phase_ticks[slot] += 1;
        trace::instant("coordinator_tick", now, slot as u64);
        let event = self.advance(now);
        self.wall = Some((self.state.phase, std::time::Instant::now()));
        event
    }

    /// The phase-machine body of [`Coordinator::tick`], after the
    /// monotonicity gate and timing bookkeeping have run.
    fn advance(&mut self, now: u64) -> Option<EpochEvent> {
        let min_clients = self.config.min_clients as usize;
        let state = &mut self.state;
        match state.phase {
            EpochPhase::WaitingForMembers => {
                // Fold joins first, leaves second: a user who joined and
                // left inside one window ends up out, regardless of the
                // order the two envelopes arrived in.
                state
                    .roster
                    .extend(std::mem::take(&mut state.pending_joins));
                for user in std::mem::take(&mut state.pending_leaves) {
                    state.roster.remove(&user);
                }
                if state.roster.len() >= min_clients {
                    state.epoch += 1;
                    state.round += 1;
                    state.phase = EpochPhase::Warmup;
                    state.deadline = now + WARMUP_TICKS;
                    return Some(EpochEvent::EpochStarted {
                        epoch: state.epoch,
                        round: state.round,
                    });
                }
                None
            }
            EpochPhase::Warmup => {
                for user in std::mem::take(&mut state.pending_leaves) {
                    state.roster.remove(&user);
                }
                if state.roster.len() < min_clients {
                    return Some(self.collapse());
                }
                if now >= state.deadline {
                    // The roster is frozen from here until the epoch
                    // completes or collapses.
                    state.phase = EpochPhase::Reports;
                    state.deadline = now + REPORT_TICKS;
                    return Some(EpochEvent::ReportsOpened {
                        epoch: state.epoch,
                        round: state.round,
                    });
                }
                None
            }
            EpochPhase::Reports => {
                let effective = state.roster.len() - state.dropped.len();
                if effective < min_clients {
                    // Fold the dropouts out before regressing — they
                    // are gone, not waiting.
                    for user in std::mem::take(&mut state.dropped) {
                        state.roster.remove(&user);
                    }
                    return Some(self.collapse());
                }
                if now >= state.deadline {
                    state.phase = EpochPhase::Recovery;
                    state.deadline = now + RECOVERY_TICKS;
                    return Some(EpochEvent::RecoveryStarted {
                        epoch: state.epoch,
                        round: state.round,
                    });
                }
                None
            }
            EpochPhase::Recovery => {
                if now >= state.deadline {
                    state.phase = EpochPhase::Finalize;
                    return Some(EpochEvent::FinalizeStarted {
                        epoch: state.epoch,
                        round: state.round,
                    });
                }
                None
            }
            EpochPhase::Finalize => {
                for user in std::mem::take(&mut state.dropped) {
                    state.roster.remove(&user);
                }
                for user in std::mem::take(&mut state.pending_leaves) {
                    state.roster.remove(&user);
                }
                self.churn.epochs_completed += 1;
                if self.config.grace_ticks > 0 {
                    // The epoch is complete and its roster immutable,
                    // but late reports can still be parked until the
                    // grace deadline.
                    state.phase = EpochPhase::Grace;
                    state.deadline = now + self.config.grace_ticks;
                } else {
                    state.phase = EpochPhase::WaitingForMembers;
                }
                Some(EpochEvent::EpochCompleted {
                    epoch: state.epoch,
                    round: state.round,
                    survivors: state.roster.iter().copied().collect(),
                })
            }
            EpochPhase::Grace => {
                if now >= state.deadline {
                    state.phase = EpochPhase::WaitingForMembers;
                }
                None
            }
        }
    }

    /// Regresses to `WaitingForMembers` without completing the epoch.
    fn collapse(&mut self) -> EpochEvent {
        self.churn.collapses += 1;
        self.state.phase = EpochPhase::WaitingForMembers;
        EpochEvent::Collapsed {
            epoch: self.state.epoch,
            remaining: self.state.roster.iter().copied().collect(),
        }
    }

    /// Handles one envelope addressed to the coordinator role.
    ///
    /// * [`Message::Join`] / [`Message::Leave`] register churn;
    ///   references to an already-closed epoch are answered with
    ///   [`error_code::EPOCH_CLOSED`], and with
    ///   [`error_code::NOT_ENROLLED`] a join from a user `enrolled`
    ///   denies (no key on the bulletin board) or a leave from a user
    ///   the coordinator never admitted. One whose sender is not the
    ///   user it names is ignored: a client joins or leaves only itself.
    /// * Errors are never answered with errors; anything else gets
    ///   [`error_code::UNSUPPORTED_MESSAGE`].
    pub fn on_envelope(
        &mut self,
        env: &Envelope,
        enrolled: impl Fn(u32) -> bool,
    ) -> Option<Envelope> {
        let reply = |msg| Some(Envelope::new(NodeId::Coordinator, env.round, msg));
        match &env.msg {
            Message::Join { user, .. } | Message::Leave { user, .. }
                if env.sender != NodeId::Client(*user) =>
            {
                None
            }
            Message::Join { user, epoch } => {
                if *epoch < self.state.epoch {
                    return reply(Message::Error {
                        code: error_code::EPOCH_CLOSED,
                        detail: format!(
                            "epoch {epoch} is closed (current is {})",
                            self.state.epoch
                        ),
                        hint: Some(self.admission_hint()),
                    });
                }
                if !enrolled(*user) {
                    return reply(Message::Error {
                        code: error_code::NOT_ENROLLED,
                        detail: format!("user {user} has no key on the bulletin board"),
                        hint: None,
                    });
                }
                self.register_join(*user);
                None
            }
            Message::Leave { user, epoch } => {
                if *epoch < self.state.epoch {
                    return reply(Message::Error {
                        code: error_code::EPOCH_CLOSED,
                        detail: format!(
                            "epoch {epoch} is closed (current is {})",
                            self.state.epoch
                        ),
                        hint: Some(self.admission_hint()),
                    });
                }
                if !self.is_known(*user) {
                    return reply(Message::Error {
                        code: error_code::NOT_ENROLLED,
                        detail: format!("user {user} is not enrolled and not pending"),
                        hint: None,
                    });
                }
                self.register_leave(*user);
                None
            }
            Message::Error { .. } => None,
            other => reply(Message::Error {
                code: error_code::UNSUPPORTED_MESSAGE,
                detail: format!("coordinator cannot handle {}", other.kind()),
                hint: None,
            }),
        }
    }

    /// Drains the churn counters into a [`ChurnMetrics`] observation;
    /// the membership gauges report the current state. Mirrors the
    /// `take_metrics` discipline of the bus and backend.
    pub fn take_churn_metrics(&mut self) -> ChurnMetrics {
        // Close the running attribution window so a drain between ticks
        // still sees the time spent in the current phase, then restart
        // the window from now.
        if let Some((phase, opened)) = self.wall.take() {
            let now = std::time::Instant::now();
            self.churn.phase_nanos[epoch_phase_index(phase)] +=
                now.duration_since(opened).as_nanos() as u64;
            self.wall = Some((phase, now));
        }
        self.churn.members = self.state.roster.len() as u64;
        self.churn.pending_joins = self.state.pending_joins.len() as u64;
        std::mem::take(&mut self.churn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{pump, InProcBus, ServiceBus};

    fn coordinator(min: u32) -> Coordinator {
        Coordinator::new(EpochConfig::default().with_min_clients(min))
    }

    fn join(user: u32, epoch: u64) -> Envelope {
        Envelope::new(NodeId::Client(user), 0, Message::Join { user, epoch })
    }

    fn leave(user: u32, epoch: u64) -> Envelope {
        Envelope::new(NodeId::Client(user), 0, Message::Leave { user, epoch })
    }

    /// Ticks until the coordinator reaches `phase`, with a drift bound.
    fn tick_until(c: &mut Coordinator, from: u64, phase: EpochPhase) -> u64 {
        let mut now = from;
        for _ in 0..32 {
            if c.phase() == phase {
                return now;
            }
            now += 1;
            c.tick(now);
        }
        panic!("phase {phase} not reached from tick {from}");
    }

    #[test]
    fn genesis_is_empty_epoch_zero() {
        let c = coordinator(4);
        assert_eq!(c.phase(), EpochPhase::WaitingForMembers);
        assert_eq!((c.epoch(), c.round(), c.last_tick()), (0, 0, 0));
        assert!(c.roster().is_empty() && c.pending_joins().is_empty());
        assert_eq!(c.checkpoint(), CoordinatorCheckpoint::default());
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn genesis_rejects_zero_threshold() {
        let _ = Coordinator::new(EpochConfig {
            min_clients: 0,
            grace_ticks: 1,
        });
    }

    #[test]
    fn admission_waits_for_min_clients_then_counts_down() {
        let mut c = coordinator(3);
        c.register_join(1);
        c.register_join(2);
        assert!(c.tick(1).is_none(), "below threshold: keep waiting");
        assert_eq!(c.phase(), EpochPhase::WaitingForMembers);
        c.register_join(3);
        let event = c.tick(2);
        assert_eq!(event, Some(EpochEvent::EpochStarted { epoch: 1, round: 1 }));
        assert_eq!(c.phase(), EpochPhase::Warmup);
        assert_eq!(c.roster(), &BTreeSet::from([1, 2, 3]));
        let now = tick_until(&mut c, 2, EpochPhase::Reports);
        assert!(now <= 2 + WARMUP_TICKS + 1);
        // The frozen roster is the one the round runs over.
        assert_eq!(c.roster(), &BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn joins_and_leaves_fold_order_independently() {
        // Same window, both orders: identical post-tick state.
        let mut ab = coordinator(2);
        ab.register_join(7);
        ab.register_leave(7);
        let mut ba = coordinator(2);
        ba.register_leave(7);
        ba.register_join(7);
        ab.tick(1);
        ba.tick(1);
        assert_eq!(ab.roster(), ba.roster());
        assert!(ab.roster().is_empty(), "join+leave in one window = out");
    }

    #[test]
    fn warmup_leave_below_threshold_collapses_back() {
        let mut c = coordinator(3);
        for u in [1, 2, 3] {
            c.register_join(u);
        }
        c.tick(1);
        assert_eq!(c.phase(), EpochPhase::Warmup);
        c.register_leave(2);
        let event = c.tick(2);
        assert_eq!(
            event,
            Some(EpochEvent::Collapsed {
                epoch: 1,
                remaining: vec![1, 3],
            })
        );
        assert_eq!(c.phase(), EpochPhase::WaitingForMembers);
        // A refill re-forms the next epoch.
        c.register_join(4);
        let event = c.tick(3);
        assert_eq!(event, Some(EpochEvent::EpochStarted { epoch: 2, round: 2 }));
        assert_eq!(c.roster(), &BTreeSet::from([1, 3, 4]));
    }

    #[test]
    fn mid_reports_drops_fold_into_the_silent_set() {
        let mut c = coordinator(2);
        for u in [1, 2, 3, 4] {
            c.register_join(u);
        }
        c.tick(1);
        tick_until(&mut c, 1, EpochPhase::Reports);
        c.mark_dropped(3);
        c.mark_dropped(99); // unknown: ignored
        assert_eq!(c.dropped(), vec![3]);
        let now = tick_until(&mut c, 10, EpochPhase::Finalize);
        let event = c.tick(now + 1);
        assert_eq!(
            event,
            Some(EpochEvent::EpochCompleted {
                epoch: 1,
                round: 1,
                survivors: vec![1, 2, 4],
            })
        );
        assert_eq!(c.phase(), EpochPhase::Grace, "grace window opens");
        tick_until(&mut c, now + 1, EpochPhase::WaitingForMembers);
    }

    #[test]
    fn drops_below_min_clients_collapse_without_finalizing() {
        let mut c = coordinator(3);
        for u in [1, 2, 3] {
            c.register_join(u);
        }
        c.tick(1);
        tick_until(&mut c, 1, EpochPhase::Reports);
        c.mark_dropped(1);
        let event = c.tick(20);
        assert_eq!(
            event,
            Some(EpochEvent::Collapsed {
                epoch: 1,
                remaining: vec![2, 3],
            })
        );
        assert_eq!(c.phase(), EpochPhase::WaitingForMembers);
        assert_eq!(c.dropped(), Vec::<u32>::new(), "dropouts folded out");
        let metrics = c.take_churn_metrics();
        assert_eq!(metrics.collapses, 1);
        assert_eq!(metrics.epochs_completed, 0, "a collapse never completes");
    }

    #[test]
    fn joins_during_a_running_epoch_land_in_the_next_one() {
        let mut c = coordinator(2);
        for u in [1, 2] {
            c.register_join(u);
        }
        c.tick(1);
        tick_until(&mut c, 1, EpochPhase::Reports);
        c.register_join(9);
        assert!(!c.roster().contains(&9), "roster is frozen");
        assert!(c.pending_joins().contains(&9));
        let mut now = tick_until(&mut c, 10, EpochPhase::Finalize);
        now += 1;
        c.tick(now); // epoch completes, grace opens
        now = tick_until(&mut c, now, EpochPhase::WaitingForMembers);
        // Next admission folds the parked join in.
        let event = c.tick(now + 1);
        assert_eq!(event, Some(EpochEvent::EpochStarted { epoch: 2, round: 2 }));
        assert_eq!(c.roster(), &BTreeSet::from([1, 2, 9]));
    }

    #[test]
    fn leave_during_reports_is_clean_and_departs_after_the_round() {
        let mut c = coordinator(2);
        for u in [1, 2, 3] {
            c.register_join(u);
        }
        c.tick(1);
        tick_until(&mut c, 1, EpochPhase::Reports);
        c.register_leave(3);
        // Still on the frozen roster — it owes its report and
        // adjustment this round.
        assert!(c.roster().contains(&3));
        assert_eq!(c.dropped(), Vec::<u32>::new(), "a clean leave is no drop");
        let now = tick_until(&mut c, 10, EpochPhase::Finalize);
        let event = c.tick(now + 1);
        assert_eq!(
            event,
            Some(EpochEvent::EpochCompleted {
                epoch: 1,
                round: 1,
                survivors: vec![1, 2],
            })
        );
    }

    #[test]
    fn tick_never_rewinds_and_rejoin_is_idempotent() {
        let mut c = coordinator(2);
        c.register_join(1);
        c.register_join(1);
        c.register_join(2);
        c.tick(5);
        assert_eq!(c.phase(), EpochPhase::Warmup);
        let rewound = c.tick(3);
        assert!(rewound.is_none(), "time never rewinds");
        assert_eq!(c.phase(), EpochPhase::Warmup);
        let metrics = c.take_churn_metrics();
        assert_eq!(metrics.joins, 2, "the double join counted once");
    }

    #[test]
    fn membership_plane_error_replies() {
        let mut c = coordinator(2);
        for u in [1, 2] {
            c.register_join(u);
        }
        c.tick(1);
        assert_eq!(c.epoch(), 1);

        // A leave from a user never admitted: NOT_ENROLLED.
        let reply = c
            .on_envelope(&leave(42, 1), |_| true)
            .expect("explicit reply");
        assert!(matches!(
            reply.msg,
            Message::Error {
                code: error_code::NOT_ENROLLED,
                ..
            }
        ));
        // A join from a user with no key on the bulletin board:
        // NOT_ENROLLED, and never pending.
        let reply = c
            .on_envelope(&join(4_000_000, 1), |u| u < 100)
            .expect("explicit reply");
        assert!(matches!(
            reply.msg,
            Message::Error {
                code: error_code::NOT_ENROLLED,
                ..
            }
        ));
        assert!(c.pending_joins().is_empty());
        // Join/Leave referencing a closed epoch: EPOCH_CLOSED.
        for env in [join(5, 0), leave(1, 0)] {
            let reply = c.on_envelope(&env, |_| true).expect("explicit reply");
            assert!(matches!(
                reply.msg,
                Message::Error {
                    code: error_code::EPOCH_CLOSED,
                    ..
                }
            ));
        }
        // Current-epoch churn is accepted silently.
        assert_eq!(c.on_envelope(&join(5, 1), |_| true), None);
        assert_eq!(c.on_envelope(&leave(1, 1), |_| true), None);
        // Unsupported traffic is rejected explicitly, errors silently.
        let bogus = Envelope::new(
            NodeId::Client(1),
            0,
            Message::UsersQuery { round: 0, ad: 1 },
        );
        let reply = c.on_envelope(&bogus, |_| true).expect("explicit reply");
        assert!(matches!(
            reply.msg,
            Message::Error {
                code: error_code::UNSUPPORTED_MESSAGE,
                ..
            }
        ));
        let err = Envelope::new(
            NodeId::Client(1),
            0,
            Message::Error {
                code: 1,
                detail: String::new(),
                hint: None,
            },
        );
        assert_eq!(c.on_envelope(&err, |_| true), None, "never error-for-error");
    }

    #[test]
    fn epoch_closed_replies_carry_the_admission_hint() {
        let mut c = coordinator(2);
        for u in [1, 2] {
            c.register_join(u);
        }
        c.tick(1);
        assert_eq!(c.epoch(), 1);
        let reply = c
            .on_envelope(&join(5, 0), |_| true)
            .expect("explicit reply");
        match reply.msg {
            Message::Error {
                code: error_code::EPOCH_CLOSED,
                hint: Some(hint),
                ..
            } => {
                assert_eq!(hint.epoch, 2, "rejoin at the next epoch");
                assert!(hint.retry_after >= 1, "backoff is never zero");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn grace_window_opens_after_finalize_and_expires() {
        let mut c = coordinator(2);
        for u in [1, 2] {
            c.register_join(u);
        }
        c.tick(1);
        let now = tick_until(&mut c, 1, EpochPhase::Finalize);
        c.tick(now + 1);
        assert!(c.in_grace());
        // Inside the window the hint points at the successor epoch.
        assert_eq!(c.admission_hint().epoch, 2);
        // The window expires at its deadline, regressing to admission.
        let expired = tick_until(&mut c, now + 1, EpochPhase::WaitingForMembers);
        assert!(expired <= now + 1 + EpochConfig::default().grace_ticks + 1);
        assert!(!c.in_grace());
    }

    #[test]
    fn zero_grace_ticks_disables_the_window() {
        let mut c = Coordinator::new(
            EpochConfig::default()
                .with_min_clients(2)
                .with_grace_ticks(0),
        );
        for u in [1, 2] {
            c.register_join(u);
        }
        c.tick(1);
        let now = tick_until(&mut c, 1, EpochPhase::Finalize);
        c.tick(now + 1);
        assert_eq!(
            c.phase(),
            EpochPhase::WaitingForMembers,
            "no grace: straight back to admission"
        );
    }

    #[test]
    fn deadline_drop_counts_separately_but_folds_into_the_silent_set() {
        let mut c = coordinator(2);
        for u in [1, 2, 3] {
            c.register_join(u);
        }
        c.tick(1);
        tick_until(&mut c, 1, EpochPhase::Reports);
        assert!(c.drop_straggler(3), "straggler blew the report deadline");
        assert!(!c.drop_straggler(3), "already dropped");
        assert!(!c.drop_straggler(99), "unknown user");
        assert_eq!(c.dropped(), vec![3], "same silent set as mark_dropped");
        let metrics = c.take_churn_metrics();
        assert_eq!(metrics.drops, 1);
        assert_eq!(metrics.deadline_drops, 1);
        assert_eq!(metrics.coordinator_restarts, 0);
    }

    #[test]
    fn checkpoint_restore_resumes_at_the_exact_phase() {
        let config = EpochConfig::default().with_min_clients(2);
        let mut c = Coordinator::new(config);
        for u in [1, 2, 3] {
            c.register_join(u);
        }
        c.tick(1);
        let mut now = tick_until(&mut c, 1, EpochPhase::Reports);
        c.mark_dropped(3);
        c.register_join(9); // parks for the next epoch
        c.register_leave(2);

        // Kill the coordinator mid-Reports; restore from its checkpoint.
        let checkpoint = c.checkpoint();
        let mut restored = Coordinator::restore(config, &checkpoint);
        assert_eq!(restored.phase(), c.phase());
        assert_eq!(restored.epoch(), c.epoch());
        assert_eq!(restored.round(), c.round());
        assert_eq!(restored.roster(), c.roster());
        assert_eq!(restored.pending_joins(), c.pending_joins());
        assert_eq!(restored.dropped(), c.dropped());
        assert_eq!(restored.checkpoint(), c.checkpoint());
        assert_eq!(restored.last_tick(), c.last_tick());

        // Restore is idempotent: restoring the restored checkpoint is a
        // fixpoint (the MidReplay discipline of restart_shard).
        let again = Coordinator::restore(config, &restored.checkpoint());
        assert_eq!(again.checkpoint(), restored.checkpoint());

        // Both coordinators now tick identically to the epoch's end.
        loop {
            now += 1;
            let a = c.tick(now);
            let b = restored.tick(now);
            assert_eq!(a, b, "restored coordinator diverged at tick {now}");
            if c.phase() == EpochPhase::WaitingForMembers {
                break;
            }
        }
        let metrics = restored.take_churn_metrics();
        assert_eq!(metrics.coordinator_restarts, 1, "the restart is counted");
    }

    #[test]
    fn clocks_are_monotone_and_logical_steps_by_one() {
        let mut logical = LogicalClock::new();
        assert_eq!(logical.now(), 1);
        assert_eq!(logical.now(), 2);
        let mut virt = VirtualClock::new(vec![3, 0, 5]);
        assert_eq!(virt.now(), 3);
        assert_eq!(virt.now(), 4, "zero steps clamp to one");
        assert_eq!(virt.now(), 9);
        assert_eq!(virt.now(), 10, "exhausted schedule continues by one");
    }

    #[test]
    fn jittered_virtual_schedule_matches_the_logical_baseline() {
        // Deadlines fire at the first tick AT OR PAST the deadline, so
        // a jittered schedule walks the same phase sequence as the
        // step-by-one baseline (only tick counts differ, and those are
        // telemetry, not outcome).
        let drive = |clock: &mut dyn Clock| {
            let mut c = coordinator(2);
            for u in [1, 2, 3] {
                c.register_join(u);
            }
            let mut phases = vec![];
            let mut events = vec![];
            for _ in 0..32 {
                let event = c.tick(clock.now());
                if phases.last() != Some(&c.phase()) {
                    phases.push(c.phase());
                }
                events.extend(event);
                if matches!(events.last(), Some(EpochEvent::EpochCompleted { .. }))
                    && c.phase() == EpochPhase::WaitingForMembers
                {
                    break;
                }
            }
            (phases, events)
        };
        let baseline = drive(&mut LogicalClock::new());
        let jittered = drive(&mut VirtualClock::new(vec![2, 1, 4, 1, 3, 2, 5]));
        assert_eq!(baseline.1, jittered.1, "same events under jitter");
        assert_eq!(baseline.0, jittered.0, "same phase walk under jitter");
    }

    #[test]
    fn pump_routes_membership_traffic_over_the_bus() {
        let mut c = coordinator(2);
        let mut bus = InProcBus::new();
        for u in [1u32, 2] {
            bus.send(NodeId::Coordinator, join(u, 0)).unwrap();
        }
        bus.send(NodeId::Coordinator, leave(42, 0)).unwrap();
        let replies = pump(&mut bus, NodeId::Coordinator, |req| {
            c.on_envelope(&req, |_| true)
        });
        assert_eq!(
            replies, 1,
            "joins are silent, the unknown leave is answered"
        );
        for u in [1u32, 2] {
            assert!(bus.drain(NodeId::Client(u)).0.is_empty());
        }
        let (mail, _) = bus.drain(NodeId::Client(42));
        assert_eq!(mail.len(), 1);
        assert!(matches!(
            mail[0].msg,
            Message::Error {
                code: error_code::NOT_ENROLLED,
                ..
            }
        ));
        assert_eq!(mail[0].sender, NodeId::Coordinator);
        assert_eq!(c.pending_joins().len(), 2, "the joins were registered");
    }
}
