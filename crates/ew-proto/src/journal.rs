//! The event-sourced round journal: the wire-stable record types that
//! make cluster crash-restart replayable.
//!
//! PR 5 grew two ad-hoc replay logs (the routing bus's in-flight
//! journal and the cluster backend's absorbed-envelope journal) whose
//! exactly-once guarantee rested on driver discipline. This module is
//! the shared mechanism that replaces both: every state transition of a
//! clustered round is a sequence-numbered [`JournalRecord`] appended to
//! one log, and cold restart, duplicate suppression and audit replay
//! all read the same records.
//!
//! ## Record kinds
//!
//! * [`JournalEvent::Absorbed`] — a data-plane envelope (report or
//!   adjustment) was **successfully** absorbed by a shard. Rejected
//!   envelopes are never journaled, so replaying the log can never
//!   re-deliver a duplicate.
//! * [`JournalEvent::MapInstalled`] — the round's shard map, the first
//!   record at round open (a map never changes mid-round).
//! * [`JournalEvent::RoundFinalized`] — the round's merged view was
//!   finalized; everything at or below this sequence number is dead
//!   weight and safe to truncate.
//!
//! ## Wire format
//!
//! Records encode with the same explicit little-endian codec discipline
//! as [`crate::message::Message`]: one leading tag byte per event, all
//! integers LE, variable fields length-prefixed, truncation and
//! trailing bytes rejected. The record tag space is append-only and
//! private to the journal (it never shares a byte stream with message
//! tags; [`JournalEvent::Absorbed`] embeds a full [`Envelope`] as a
//! length-prefixed byte field).

use crate::codec::{get_bytes, get_u32, get_u32_vec, get_u64, get_u8, put_bytes, CodecError};
use crate::envelope::Envelope;
use bytes::BufMut;

/// Journal record tags (stable; append-only).
mod record_tag {
    pub const ABSORBED: u8 = 0x01;
    pub const MAP_INSTALLED: u8 = 0x02;
    // 0x03 (the shard adoption marker of mid-round reassignment) is
    // retired, never reassigned: `BadTag`.
    pub const ROUND_FINALIZED: u8 = 0x04;
    pub const EPOCH_OPENED: u8 = 0x05;
    pub const MEMBERSHIP_INSTALLED: u8 = 0x06;
    pub const EPOCH_COLLAPSED: u8 = 0x07;
    pub const COORDINATOR_STATE: u8 = 0x08;
    pub const REPORT_PARKED: u8 = 0x09;
}

/// One event-sourced state transition of a clustered aggregation round.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A data-plane envelope was successfully absorbed by `shard`.
    ///
    /// This is appended **after** the shard accepted the envelope, so an
    /// `Absorbed` record is a proof of absorption: replaying it into a
    /// fresh shard instance reproduces the absorbed state, and an
    /// envelope with a matching record is never delivered again.
    Absorbed {
        /// The shard that absorbed the envelope.
        shard: u32,
        /// The absorbed envelope, verbatim.
        envelope: Envelope,
    },
    /// The shard map the round routes by, journaled at round open.
    MapInstalled {
        /// The installed map version.
        version: u32,
        /// One past the highest addressable shard id.
        shard_ids: u32,
        /// The slot-ownership ring of the installed map.
        owners: Vec<u32>,
    },
    /// The round was finalized; records at or below this sequence
    /// number can be truncated.
    RoundFinalized {
        /// The finalized aggregation round.
        round: u64,
    },
    /// An epoch entered its `Reports` phase: the coordinator froze the
    /// roster and opened the aggregation round over it. A restart that
    /// replays past this record rebuilds the epoch's enrollment before
    /// re-absorbing reports, so crash-restart works across an epoch
    /// boundary.
    EpochOpened {
        /// The opened epoch.
        epoch: u64,
        /// The aggregation round the epoch drives.
        round: u64,
        /// The membership ledger version the roster was frozen under.
        version: u32,
        /// The frozen roster, ascending.
        members: Vec<u32>,
    },
    /// A membership ledger became current (a successor installed at
    /// admission or at the roster freeze).
    MembershipInstalled {
        /// The installed ledger version.
        version: u32,
        /// The epoch the ledger was installed for.
        epoch: u64,
        /// The admission threshold.
        min_clients: u32,
        /// The ledger's member ids, ascending.
        members: Vec<u32>,
    },
    /// An epoch fell below `min_clients` mid-flight and regressed to
    /// `WaitingForMembers`; the round it drove was abandoned **without**
    /// finalizing, and everything the epoch journaled above the last
    /// snapshot is dead weight.
    EpochCollapsed {
        /// The collapsed epoch.
        epoch: u64,
        /// The members still present when the epoch collapsed.
        remaining: Vec<u32>,
    },
    /// A checkpoint of the coordinator's mutable state, appended after
    /// every tick-boundary mutation. The **latest** such record is the
    /// whole restore story: unlike shard replay (which folds a suffix of
    /// `Absorbed` records), restoring a coordinator only needs the most
    /// recent checkpoint, so a restarted coordinator resumes at the
    /// exact phase it died in. Deployment configuration (tick budgets,
    /// `min_clients` policy) and telemetry counters are deliberately
    /// **not** part of the checkpoint — config is supplied at restart,
    /// counters restart from zero like every other node's.
    CoordinatorState {
        /// The coordinator's current epoch.
        epoch: u64,
        /// The aggregation round the epoch drives.
        round: u64,
        /// The current phase, as its [`crate::EpochPhase`] wire byte.
        phase: u8,
        /// The installed membership ledger's version.
        version: u32,
        /// The epoch the installed ledger was stamped for.
        ledger_epoch: u64,
        /// The installed ledger's admission threshold.
        min_clients: u32,
        /// The installed ledger's member ids, ascending.
        members: Vec<u32>,
        /// The live roster (admitted, not yet left/dropped), ascending.
        roster: Vec<u32>,
        /// Joins parked for the next admission, ascending.
        pending_joins: Vec<u32>,
        /// Leaves parked for the next tick boundary, ascending.
        pending_leaves: Vec<u32>,
        /// Members dropped mid-epoch (the §6 silent set), ascending.
        dropped: Vec<u32>,
        /// The tick at which the current phase times out.
        deadline: u64,
        /// The last tick instant the coordinator observed.
        last_tick: u64,
    },
    /// A report arrived after its epoch finalized but inside the grace
    /// window, and was parked for the next epoch instead of being lost.
    /// Journaling the verbatim envelope means parked reports survive a
    /// coordinator restart exactly like absorbed envelopes survive a
    /// shard restart.
    ReportParked {
        /// The (closed) epoch the report was addressed to.
        epoch: u64,
        /// The aggregation round that epoch drove.
        round: u64,
        /// The late report envelope, verbatim.
        envelope: Envelope,
    },
}

impl JournalEvent {
    /// A short, stable name for the event kind (diagnostics only).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Absorbed { .. } => "Absorbed",
            JournalEvent::MapInstalled { .. } => "MapInstalled",
            JournalEvent::RoundFinalized { .. } => "RoundFinalized",
            JournalEvent::EpochOpened { .. } => "EpochOpened",
            JournalEvent::MembershipInstalled { .. } => "MembershipInstalled",
            JournalEvent::EpochCollapsed { .. } => "EpochCollapsed",
            JournalEvent::CoordinatorState { .. } => "CoordinatorState",
            JournalEvent::ReportParked { .. } => "ReportParked",
        }
    }
}

/// One sequence-numbered journal entry: the unit of append, replay and
/// truncation. Sequence numbers are assigned by the log, start at 1 and
/// only ever grow within a round (0 is the "nothing absorbed yet"
/// watermark).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The log-assigned sequence number (1-based; strictly increasing).
    pub seq: u64,
    /// The recorded state transition.
    pub event: JournalEvent,
}

impl JournalRecord {
    /// Encodes to a payload (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.put_u64_le(self.seq);
        match &self.event {
            JournalEvent::Absorbed { shard, envelope } => {
                buf.put_u8(record_tag::ABSORBED);
                buf.put_u32_le(*shard);
                put_bytes(&mut buf, &envelope.encode());
            }
            JournalEvent::MapInstalled {
                version,
                shard_ids,
                owners,
            } => {
                buf.put_u8(record_tag::MAP_INSTALLED);
                buf.put_u32_le(*version);
                buf.put_u32_le(*shard_ids);
                crate::codec::put_u32_vec(&mut buf, owners);
            }
            JournalEvent::RoundFinalized { round } => {
                buf.put_u8(record_tag::ROUND_FINALIZED);
                buf.put_u64_le(*round);
            }
            JournalEvent::EpochOpened {
                epoch,
                round,
                version,
                members,
            } => {
                buf.put_u8(record_tag::EPOCH_OPENED);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*round);
                buf.put_u32_le(*version);
                crate::codec::put_u32_vec(&mut buf, members);
            }
            JournalEvent::MembershipInstalled {
                version,
                epoch,
                min_clients,
                members,
            } => {
                buf.put_u8(record_tag::MEMBERSHIP_INSTALLED);
                buf.put_u32_le(*version);
                buf.put_u64_le(*epoch);
                buf.put_u32_le(*min_clients);
                crate::codec::put_u32_vec(&mut buf, members);
            }
            JournalEvent::EpochCollapsed { epoch, remaining } => {
                buf.put_u8(record_tag::EPOCH_COLLAPSED);
                buf.put_u64_le(*epoch);
                crate::codec::put_u32_vec(&mut buf, remaining);
            }
            JournalEvent::CoordinatorState {
                epoch,
                round,
                phase,
                version,
                ledger_epoch,
                min_clients,
                members,
                roster,
                pending_joins,
                pending_leaves,
                dropped,
                deadline,
                last_tick,
            } => {
                buf.put_u8(record_tag::COORDINATOR_STATE);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*round);
                buf.put_u8(*phase);
                buf.put_u32_le(*version);
                buf.put_u64_le(*ledger_epoch);
                buf.put_u32_le(*min_clients);
                crate::codec::put_u32_vec(&mut buf, members);
                crate::codec::put_u32_vec(&mut buf, roster);
                crate::codec::put_u32_vec(&mut buf, pending_joins);
                crate::codec::put_u32_vec(&mut buf, pending_leaves);
                crate::codec::put_u32_vec(&mut buf, dropped);
                buf.put_u64_le(*deadline);
                buf.put_u64_le(*last_tick);
            }
            JournalEvent::ReportParked {
                epoch,
                round,
                envelope,
            } => {
                buf.put_u8(record_tag::REPORT_PARKED);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*round);
                put_bytes(&mut buf, &envelope.encode());
            }
        }
        buf
    }

    /// Decodes from a payload. Trailing bytes are rejected as
    /// corruption, like every other codec in this crate.
    pub fn decode(mut payload: &[u8]) -> Result<Self, CodecError> {
        let buf = &mut payload;
        let seq = get_u64(buf)?;
        let t = get_u8(buf)?;
        let event = match t {
            record_tag::ABSORBED => {
                let shard = get_u32(buf)?;
                let raw = get_bytes(buf)?;
                JournalEvent::Absorbed {
                    shard,
                    envelope: Envelope::decode(&raw)?,
                }
            }
            record_tag::MAP_INSTALLED => JournalEvent::MapInstalled {
                version: get_u32(buf)?,
                shard_ids: get_u32(buf)?,
                owners: get_u32_vec(buf)?,
            },
            record_tag::ROUND_FINALIZED => JournalEvent::RoundFinalized {
                round: get_u64(buf)?,
            },
            record_tag::EPOCH_OPENED => JournalEvent::EpochOpened {
                epoch: get_u64(buf)?,
                round: get_u64(buf)?,
                version: get_u32(buf)?,
                members: get_u32_vec(buf)?,
            },
            record_tag::MEMBERSHIP_INSTALLED => JournalEvent::MembershipInstalled {
                version: get_u32(buf)?,
                epoch: get_u64(buf)?,
                min_clients: get_u32(buf)?,
                members: get_u32_vec(buf)?,
            },
            record_tag::EPOCH_COLLAPSED => JournalEvent::EpochCollapsed {
                epoch: get_u64(buf)?,
                remaining: get_u32_vec(buf)?,
            },
            record_tag::COORDINATOR_STATE => {
                let epoch = get_u64(buf)?;
                let round = get_u64(buf)?;
                let phase = get_u8(buf)?;
                // The phase byte is the EpochPhase wire space; unknown
                // bytes are corruption, rejected like a bad tag.
                if crate::membership::EpochPhase::from_wire(phase).is_err() {
                    return Err(CodecError::BadTag(phase));
                }
                JournalEvent::CoordinatorState {
                    epoch,
                    round,
                    phase,
                    version: get_u32(buf)?,
                    ledger_epoch: get_u64(buf)?,
                    min_clients: get_u32(buf)?,
                    members: get_u32_vec(buf)?,
                    roster: get_u32_vec(buf)?,
                    pending_joins: get_u32_vec(buf)?,
                    pending_leaves: get_u32_vec(buf)?,
                    dropped: get_u32_vec(buf)?,
                    deadline: get_u64(buf)?,
                    last_tick: get_u64(buf)?,
                }
            }
            record_tag::REPORT_PARKED => {
                let epoch = get_u64(buf)?;
                let round = get_u64(buf)?;
                let raw = get_bytes(buf)?;
                JournalEvent::ReportParked {
                    epoch,
                    round,
                    envelope: Envelope::decode(&raw)?,
                }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        if !payload.is_empty() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(JournalRecord { seq, event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::NodeId;
    use crate::message::Message;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord {
                seq: 1,
                event: JournalEvent::Absorbed {
                    shard: 2,
                    envelope: Envelope::new(
                        NodeId::Client(7),
                        3,
                        Message::Report {
                            user: 7,
                            round: 3,
                            depth: 2,
                            width: 4,
                            seed: 9,
                            cells: vec![1, 2, 3, 4, 5, 6, 7, 8],
                        },
                    ),
                },
            },
            JournalRecord {
                seq: 2,
                event: JournalEvent::Absorbed {
                    shard: 0,
                    envelope: Envelope::new(
                        NodeId::Client(4),
                        3,
                        Message::Adjustment {
                            user: 4,
                            round: 3,
                            cells: vec![9; 8],
                        },
                    ),
                },
            },
            JournalRecord {
                seq: 3,
                event: JournalEvent::MapInstalled {
                    version: 1,
                    shard_ids: 4,
                    owners: vec![0, 1, 3, 0, 1, 3, 0, 1],
                },
            },
            JournalRecord {
                seq: u64::MAX,
                event: JournalEvent::RoundFinalized { round: u64::MAX },
            },
            JournalRecord {
                seq: 5,
                event: JournalEvent::EpochOpened {
                    epoch: 2,
                    round: 14,
                    version: 6,
                    members: vec![1, 4, 7, 9],
                },
            },
            JournalRecord {
                seq: 6,
                event: JournalEvent::MembershipInstalled {
                    version: 6,
                    epoch: 2,
                    min_clients: 3,
                    members: vec![1, 4, 7, 9],
                },
            },
            JournalRecord {
                seq: 7,
                event: JournalEvent::EpochCollapsed {
                    epoch: 2,
                    remaining: vec![1, 9],
                },
            },
            JournalRecord {
                seq: 8,
                event: JournalEvent::CoordinatorState {
                    epoch: 3,
                    round: 15,
                    phase: 0x02,
                    version: 7,
                    ledger_epoch: 3,
                    min_clients: 3,
                    members: vec![1, 4, 7, 9],
                    roster: vec![1, 4, 9],
                    pending_joins: vec![11],
                    pending_leaves: vec![],
                    dropped: vec![7],
                    deadline: 42,
                    last_tick: 40,
                },
            },
            JournalRecord {
                seq: 9,
                event: JournalEvent::ReportParked {
                    epoch: 3,
                    round: 15,
                    envelope: Envelope::new(
                        NodeId::Client(9),
                        15,
                        Message::Report {
                            user: 9,
                            round: 15,
                            depth: 2,
                            width: 4,
                            seed: 3,
                            cells: vec![8, 7, 6, 5, 4, 3, 2, 1],
                        },
                    ),
                },
            },
        ]
    }

    #[test]
    fn coordinator_state_rejects_unknown_phase_byte() {
        let rec = JournalRecord {
            seq: 1,
            event: JournalEvent::CoordinatorState {
                epoch: 1,
                round: 1,
                phase: 0x00,
                version: 1,
                ledger_epoch: 1,
                min_clients: 1,
                members: vec![],
                roster: vec![],
                pending_joins: vec![],
                pending_leaves: vec![],
                dropped: vec![],
                deadline: 0,
                last_tick: 0,
            },
        };
        let mut encoded = rec.encode();
        // seq u64 | tag u8 | epoch u64 | round u64 | phase u8
        encoded[8 + 1 + 8 + 8] = 0x77;
        assert_eq!(
            JournalRecord::decode(&encoded),
            Err(CodecError::BadTag(0x77))
        );
    }

    #[test]
    fn roundtrip_every_record_kind() {
        for rec in samples() {
            let encoded = rec.encode();
            assert_eq!(JournalRecord::decode(&encoded).unwrap(), rec);
        }
    }

    #[test]
    fn bad_record_tag_rejected() {
        let mut buf = Vec::new();
        bytes::BufMut::put_u64_le(&mut buf, 9);
        buf.push(0xAB);
        assert_eq!(JournalRecord::decode(&buf), Err(CodecError::BadTag(0xAB)));
    }

    #[test]
    fn retired_record_tags_decode_to_bad_tag() {
        // The shard adoption marker's exact old layout (seq, tag, dead
        // shard, map version), well-formed everywhere but the tag.
        let mut buf = Vec::new();
        bytes::BufMut::put_u64_le(&mut buf, 4);
        buf.push(0x03);
        bytes::BufMut::put_u32_le(&mut buf, 2);
        bytes::BufMut::put_u32_le(&mut buf, 1);
        assert_eq!(JournalRecord::decode(&buf), Err(CodecError::BadTag(0x03)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for rec in samples() {
            let encoded = rec.encode();
            for cut in 0..encoded.len() {
                assert!(
                    JournalRecord::decode(&encoded[..cut]).is_err(),
                    "prefix of length {cut} decoded unexpectedly"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = samples()[3].encode();
        encoded.push(0);
        assert!(JournalRecord::decode(&encoded).is_err());
    }

    #[test]
    fn absorbed_envelope_corruption_surfaces_as_codec_error() {
        // The embedded envelope is length-prefixed; corrupting its
        // version byte must fail the decode of the whole record.
        let mut encoded = samples()[0].encode();
        // seq u64 | tag u8 | shard u32 | len u32 | envelope bytes...
        let env_start = 8 + 1 + 4 + 4;
        encoded[env_start] = 0x05; // not a known envelope version
        assert_eq!(
            JournalRecord::decode(&encoded),
            Err(CodecError::BadVersion(0x05))
        );
    }
}
