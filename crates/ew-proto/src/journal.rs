//! The round journal's wire-stable record types: what a restarted shard
//! or coordinator reads back.
//!
//! A journal is a sequence of [`JournalRecord`]s, numbered by the log
//! that appends them. Every kind here has a reader:
//!
//! * [`JournalEvent::Absorbed`] — a data-plane envelope (report or
//!   adjustment) was **successfully** absorbed by a shard. A restarted
//!   shard re-absorbs its `Absorbed` suffix. Rejected envelopes are
//!   never journaled, so replaying the log can never re-deliver a
//!   duplicate.
//! * [`JournalEvent::CoordinatorState`] — a [`CoordinatorCheckpoint`];
//!   a restarted coordinator resumes from the latest one.
//! * [`JournalEvent::ReportParked`] — a late report parked inside the
//!   grace window; the next epoch folds it in.
//!
//! ## Wire format
//!
//! Records encode with the same explicit little-endian codec discipline
//! as [`crate::message::Message`]: one leading tag byte per event, all
//! integers LE, variable fields length-prefixed, truncation and
//! trailing bytes rejected. The record tag space is append-only and
//! private to the journal (it never shares a byte stream with message
//! tags; an embedded [`Envelope`] is a length-prefixed byte field).

use crate::codec::{
    get_bytes, get_u32, get_u32_vec, get_u64, get_u8, put_bytes, put_u32_vec, CodecError,
};
use crate::envelope::Envelope;
use bytes::BufMut;

/// Journal record tags (stable; append-only).
mod record_tag {
    pub(super) const ABSORBED: u8 = 0x01;
    // 0x02 (the round's shard map), 0x03 (the shard adoption marker of
    // mid-round reassignment), 0x04 (round finalized), 0x05 (epoch
    // opened), 0x06 (membership installed) and 0x07 (epoch collapsed)
    // were written and never read back. They are retired, never
    // reassigned: `BadTag`.
    pub(super) const COORDINATOR_STATE: u8 = 0x08;
    pub(super) const REPORT_PARKED: u8 = 0x09;
}

/// A checkpoint of the coordinator's mutable state, journaled after
/// every tick-boundary mutation. Restoring a coordinator needs only the
/// latest one, so a restarted coordinator resumes at the exact phase it
/// died in. Deployment configuration (tick budgets, `min_clients`
/// policy) and telemetry counters are deliberately **not** part of it:
/// config is supplied at restart, and counters restart from zero like
/// every other node's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatorCheckpoint {
    /// The coordinator's current epoch.
    pub epoch: u64,
    /// The aggregation round the epoch drives.
    pub round: u64,
    /// The current phase, as its [`crate::EpochPhase`] wire byte.
    pub phase: u8,
    /// The installed membership ledger's version.
    pub version: u32,
    /// The epoch the installed ledger was stamped for.
    pub ledger_epoch: u64,
    /// The installed ledger's admission threshold.
    pub min_clients: u32,
    /// The installed ledger's member ids, ascending.
    pub members: Vec<u32>,
    /// The live roster (admitted, not yet left/dropped), ascending.
    pub roster: Vec<u32>,
    /// Joins parked for the next admission, ascending.
    pub pending_joins: Vec<u32>,
    /// Leaves parked for the next tick boundary, ascending.
    pub pending_leaves: Vec<u32>,
    /// Members dropped mid-epoch (the §6 silent set), ascending.
    pub dropped: Vec<u32>,
    /// The tick at which the current phase times out.
    pub deadline: u64,
    /// The last tick instant the coordinator observed.
    pub last_tick: u64,
}

/// One journaled state transition.
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
    /// A checkpoint of the coordinator's mutable state. Unlike shard
    /// replay, which folds a suffix of `Absorbed` records, restoring a
    /// coordinator reads only the most recent checkpoint.
    CoordinatorState(CoordinatorCheckpoint),
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
            JournalEvent::CoordinatorState(state) => {
                buf.put_u8(record_tag::COORDINATOR_STATE);
                buf.put_u64_le(state.epoch);
                buf.put_u64_le(state.round);
                buf.put_u8(state.phase);
                buf.put_u32_le(state.version);
                buf.put_u64_le(state.ledger_epoch);
                buf.put_u32_le(state.min_clients);
                put_u32_vec(&mut buf, &state.members);
                put_u32_vec(&mut buf, &state.roster);
                put_u32_vec(&mut buf, &state.pending_joins);
                put_u32_vec(&mut buf, &state.pending_leaves);
                put_u32_vec(&mut buf, &state.dropped);
                buf.put_u64_le(state.deadline);
                buf.put_u64_le(state.last_tick);
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
            record_tag::COORDINATOR_STATE => {
                let epoch = get_u64(buf)?;
                let round = get_u64(buf)?;
                let phase = get_u8(buf)?;
                // The phase byte is the EpochPhase wire space; unknown
                // bytes are corruption, rejected like a bad tag.
                if crate::membership::EpochPhase::from_wire(phase).is_err() {
                    return Err(CodecError::BadTag(phase));
                }
                JournalEvent::CoordinatorState(CoordinatorCheckpoint {
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
                })
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
                seq: 8,
                event: JournalEvent::CoordinatorState(CoordinatorCheckpoint {
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
                }),
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

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn surviving_record_encodings_are_unchanged() {
        // (length, CRC-32) of each sample's encoding as the eight-kind
        // codec wrote it: retiring the other kinds moved no byte.
        let golden = [
            (96, 0x2281_ccc6),
            (80, 0xd4de_ac0d),
            (114, 0x0b17_a943),
            (108, 0x0a61_1172),
        ];
        for (rec, (len, crc)) in samples().iter().zip(golden) {
            let encoded = rec.encode();
            assert_eq!(encoded.len(), len, "seq {}", rec.seq);
            assert_eq!(crate::crc32::crc32(&encoded), crc, "seq {}", rec.seq);
        }
    }

    #[test]
    fn coordinator_state_rejects_unknown_phase_byte() {
        let rec = JournalRecord {
            seq: 1,
            event: JournalEvent::CoordinatorState(CoordinatorCheckpoint {
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
            }),
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
        // Each retired kind in its exact old layout, well-formed
        // everywhere but the tag: the shard map (version, shard ids,
        // slot ring), the adoption marker (dead shard, map version),
        // round finalized (round), epoch opened (epoch, round, version,
        // members), membership installed (version, epoch, min_clients,
        // members) and epoch collapsed (epoch, remaining).
        let retired = [
            (0x02, "0300000000000000020100000004000000080000000000000001000000030000000000000001000000030000000000000001000000"),
            (0x03, "0400000000000000030200000001000000"),
            (0x04, "ffffffffffffffff04ffffffffffffffff"),
            (0x05, "05000000000000000502000000000000000e00000000000000060000000400000001000000040000000700000009000000"),
            (0x06, "060000000000000006060000000200000000000000030000000400000001000000040000000700000009000000"),
            (0x07, "0700000000000000070200000000000000020000000100000009000000"),
        ];
        for (tag, hex) in retired {
            let buf = from_hex(hex);
            assert_eq!(buf[8], tag);
            assert_eq!(JournalRecord::decode(&buf), Err(CodecError::BadTag(tag)));
        }
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
