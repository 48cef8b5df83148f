//! The epoch phase machine's phases and their wire bytes.
//!
//! The coordinator's membership is its
//! [`crate::CoordinatorCheckpoint`]: the live roster and the pending
//! joins, leaves and drops, each a set, journaled with the phase byte
//! defined here. The cluster reads the frozen roster straight from the
//! coordinator; the round log never carries it.

use crate::codec::CodecError;

/// The phases of one epoch, in the order the coordinator's tick-driven
/// state machine advances through them.
///
/// `WaitingForMembers` is both the genesis state and the regression
/// target of a below-`min_clients` collapse; the other four mirror the
/// typestate round machine's phases, which is what lets the coordinator
/// drive the existing round without the round code knowing about
/// epochs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EpochPhase {
    /// Accumulating joins until `min_clients` is met.
    #[default]
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
    pub fn from_wire(byte: u8) -> Result<Self, CodecError> {
        match byte {
            phase_tag::WAITING_FOR_MEMBERS => Ok(EpochPhase::WaitingForMembers),
            phase_tag::WARMUP => Ok(EpochPhase::Warmup),
            phase_tag::REPORTS => Ok(EpochPhase::Reports),
            phase_tag::RECOVERY => Ok(EpochPhase::Recovery),
            phase_tag::FINALIZE => Ok(EpochPhase::Finalize),
            phase_tag::GRACE => Ok(EpochPhase::Grace),
            other => Err(CodecError::BadTag(other)),
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(EpochPhase::from_wire(0x06), Err(CodecError::BadTag(0x06)));
    }
}
