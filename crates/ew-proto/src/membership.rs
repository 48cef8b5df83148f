//! The coordinator's versioned membership ledger: who participates in
//! an epoch, and the epoch phase machine their participation moves
//! through.
//!
//! The ledger is versioned: every installed roster is one version above
//! the last, so a journaled ledger is totally ordered. It is journaled
//! only inside the coordinator's [`crate::CoordinatorCheckpoint`], which
//! a restarted coordinator validates through [`Membership::from_wire`].
//! The cluster reads the frozen roster straight from the coordinator;
//! the round log never carries it.

use std::collections::BTreeSet;

/// Upper bound on the member count a decoded ledger will carry, so a
/// hostile journal record cannot force a huge allocation.
pub const MAX_MEMBERS: u32 = 4_000_000;

/// Rejection reasons for malformed or impossible membership ledgers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// `min_clients` of zero admits an empty epoch — never valid.
    ZeroMinClients,
    /// The member list was not strictly ascending (unsorted or
    /// duplicated ids): the canonical wire form is unique.
    Unsorted,
    /// The member count exceeded [`MAX_MEMBERS`].
    TooManyMembers(usize),
    /// A journaled coordinator state carried an unknown phase byte.
    BadPhase(u8),
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::ZeroMinClients => {
                write!(f, "membership ledger with min_clients = 0")
            }
            MembershipError::Unsorted => {
                write!(f, "member list is not strictly ascending")
            }
            MembershipError::TooManyMembers(n) => {
                write!(f, "member count {n} exceeds limit {MAX_MEMBERS}")
            }
            MembershipError::BadPhase(p) => write!(f, "unknown epoch phase byte {p:#04x}"),
        }
    }
}

impl std::error::Error for MembershipError {}

/// The phases of one epoch, in the order the coordinator's tick-driven
/// state machine advances through them.
///
/// `WaitingForMembers` is both the genesis state and the regression
/// target of a below-`min_clients` collapse; the other four mirror the
/// typestate round machine's phases, which is what lets the coordinator
/// drive the existing round without the round code knowing about
/// epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EpochPhase {
    /// Accumulating joins until `min_clients` is met.
    WaitingForMembers,
    /// The admission countdown: the roster is forming and leaves still
    /// shrink it; a drop below `min_clients` regresses to
    /// [`EpochPhase::WaitingForMembers`].
    Warmup,
    /// The roster is frozen and the aggregation round is collecting
    /// reports; dropouts fold into the silent-client set.
    Reports,
    /// The two-round fault-tolerance exchange against the silent set.
    Recovery,
    /// The round's merged view is being finalized.
    Finalize,
    /// The post-finalize grace window: the epoch is complete and its
    /// roster immutable, but a report that blew the deadline can still
    /// be **parked** for the next epoch instead of being silently lost.
    /// Ends at the grace deadline, regressing to
    /// [`EpochPhase::WaitingForMembers`].
    Grace,
}

/// Wire bytes for [`EpochPhase`] (stable; append-only).
mod phase_tag {
    pub(super) const WAITING_FOR_MEMBERS: u8 = 0x00;
    pub(super) const WARMUP: u8 = 0x01;
    pub(super) const REPORTS: u8 = 0x02;
    pub(super) const RECOVERY: u8 = 0x03;
    pub(super) const FINALIZE: u8 = 0x04;
    pub(super) const GRACE: u8 = 0x05;
}

impl EpochPhase {
    /// The phase's wire byte (carried in the journaled coordinator
    /// state).
    pub fn as_wire(self) -> u8 {
        match self {
            EpochPhase::WaitingForMembers => phase_tag::WAITING_FOR_MEMBERS,
            EpochPhase::Warmup => phase_tag::WARMUP,
            EpochPhase::Reports => phase_tag::REPORTS,
            EpochPhase::Recovery => phase_tag::RECOVERY,
            EpochPhase::Finalize => phase_tag::FINALIZE,
            EpochPhase::Grace => phase_tag::GRACE,
        }
    }

    /// Decodes a wire byte; unknown bytes are rejected, not clamped.
    pub fn from_wire(byte: u8) -> Result<Self, MembershipError> {
        match byte {
            phase_tag::WAITING_FOR_MEMBERS => Ok(EpochPhase::WaitingForMembers),
            phase_tag::WARMUP => Ok(EpochPhase::Warmup),
            phase_tag::REPORTS => Ok(EpochPhase::Reports),
            phase_tag::RECOVERY => Ok(EpochPhase::Recovery),
            phase_tag::FINALIZE => Ok(EpochPhase::Finalize),
            phase_tag::GRACE => Ok(EpochPhase::Grace),
            other => Err(MembershipError::BadPhase(other)),
        }
    }
}

impl std::fmt::Display for EpochPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EpochPhase::WaitingForMembers => "waiting-for-members",
            EpochPhase::Warmup => "warmup",
            EpochPhase::Reports => "reports",
            EpochPhase::Recovery => "recovery",
            EpochPhase::Finalize => "finalize",
            EpochPhase::Grace => "grace",
        };
        write!(f, "{name}")
    }
}

/// A versioned snapshot of epoch participation: the user ids admitted
/// to `epoch`, the admission threshold they were admitted under, and
/// the ledger version that stamps every change.
///
/// Members are held strictly ascending and deduplicated — the canonical
/// form both for the journaled encoding (so equal ledgers encode to
/// equal bytes) and for deterministic iteration in the round driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    version: u32,
    epoch: u64,
    min_clients: u32,
    members: Vec<u32>,
}

impl Membership {
    /// The genesis (version 0, epoch 0) ledger: empty, waiting for
    /// members.
    ///
    /// # Panics
    /// Panics if `min_clients` is zero — thresholds are deployment
    /// configuration, not wire input (untrusted ledgers go through
    /// [`Membership::from_wire`]).
    pub fn genesis(min_clients: u32) -> Self {
        assert!(min_clients > 0, "an epoch admits at least one client");
        Membership {
            version: 0,
            epoch: 0,
            min_clients,
            members: Vec::new(),
        }
    }

    /// A successor ledger: the given roster installed for `epoch`, one
    /// version above `self`. This is the only way a local ledger
    /// advances, so versions grow monotonically by construction.
    pub fn successor(&self, epoch: u64, roster: &BTreeSet<u32>) -> Self {
        Membership {
            version: self.version + 1,
            epoch,
            min_clients: self.min_clients,
            members: roster.iter().copied().collect(),
        }
    }

    /// Validates a ledger decoded from a journal record. Rejects
    /// zero thresholds, oversized rosters and non-canonical (unsorted
    /// or duplicated) member lists before anything trusts them.
    pub fn from_wire(
        version: u32,
        epoch: u64,
        min_clients: u32,
        members: Vec<u32>,
    ) -> Result<Self, MembershipError> {
        if min_clients == 0 {
            return Err(MembershipError::ZeroMinClients);
        }
        if members.len() > MAX_MEMBERS as usize {
            return Err(MembershipError::TooManyMembers(members.len()));
        }
        if members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MembershipError::Unsorted);
        }
        Ok(Membership {
            version,
            epoch,
            min_clients,
            members,
        })
    }

    /// The ledger version (bumped by every [`Membership::successor`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The epoch this roster was installed for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The admission threshold.
    pub fn min_clients(&self) -> u32 {
        self.min_clients
    }

    /// The member ids, strictly ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Whether `user` is on this roster.
    pub fn contains(&self, user: u32) -> bool {
        self.members.binary_search(&user).is_ok()
    }

    /// Roster size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the roster is empty (genesis, or everything left).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_empty_version_zero() {
        let m = Membership::genesis(4);
        assert_eq!(m.version(), 0);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.min_clients(), 4);
        assert!(m.is_empty());
        assert!(!m.contains(0));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn genesis_rejects_zero_threshold() {
        let _ = Membership::genesis(0);
    }

    #[test]
    fn successor_bumps_version_and_sorts_roster() {
        let base = Membership::genesis(2);
        let roster: BTreeSet<u32> = [9, 1, 5, 3].into_iter().collect();
        let next = base.successor(1, &roster);
        assert_eq!(next.version(), 1);
        assert_eq!(next.epoch(), 1);
        assert_eq!(next.members(), &[1, 3, 5, 9]);
        assert!(next.contains(5));
        assert!(!next.contains(4));
        assert_eq!(next.len(), 4);
    }

    #[test]
    fn wire_validation_rejects_hostile_ledgers() {
        assert_eq!(
            Membership::from_wire(1, 1, 0, vec![1]),
            Err(MembershipError::ZeroMinClients)
        );
        assert_eq!(
            Membership::from_wire(1, 1, 2, vec![3, 1]),
            Err(MembershipError::Unsorted)
        );
        assert_eq!(
            Membership::from_wire(1, 1, 2, vec![1, 1, 2]),
            Err(MembershipError::Unsorted),
            "duplicates are non-canonical"
        );
        let ok = Membership::from_wire(7, 3, 2, vec![1, 2, 8]).unwrap();
        assert_eq!(ok.version(), 7);
        assert_eq!(ok.epoch(), 3);
        assert_eq!(ok.members(), &[1, 2, 8]);
    }

    #[test]
    fn wire_roundtrip_preserves_the_ledger() {
        let base = Membership::genesis(3);
        let roster: BTreeSet<u32> = (0..20).map(|i| i * 7).collect();
        let m = base.successor(4, &roster);
        let back = Membership::from_wire(
            m.version(),
            m.epoch(),
            m.min_clients(),
            m.members().to_vec(),
        )
        .unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn phase_wire_bytes_roundtrip_and_reject_unknowns() {
        for phase in [
            EpochPhase::WaitingForMembers,
            EpochPhase::Warmup,
            EpochPhase::Reports,
            EpochPhase::Recovery,
            EpochPhase::Finalize,
            EpochPhase::Grace,
        ] {
            assert_eq!(EpochPhase::from_wire(phase.as_wire()).unwrap(), phase);
        }
        assert_eq!(
            EpochPhase::from_wire(0x06),
            Err(MembershipError::BadPhase(0x06))
        );
    }
}
