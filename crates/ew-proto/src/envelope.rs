//! The versioned envelope every node-to-node message travels in.
//!
//! The role services of the system layer (`ew-system::node`) never call
//! each other directly — their whole interaction surface is an
//! [`Envelope`] carrying one [`Message`], stamped with the protocol
//! version, the aggregation round it belongs to and the sending node.
//!
//! ## Versioning rules
//!
//! * [`ENVELOPE_VERSION`] is bumped **only** for incompatible layout
//!   changes of the envelope header itself. Message evolution does not
//!   bump it: message tags (and [`Message::Error`] codes) are
//!   append-only, so a new message kind is a same-version change that
//!   old peers reject per-message with [`CodecError::BadTag`].
//! * A decoder rejects any version it does not know
//!   ([`CodecError::BadVersion`]) without attempting to parse the rest —
//!   the header layout after the version byte is owned by that version.
//! * The version byte is first on the wire so even a future
//!   incompatible header stays detectable.

use crate::codec::{get_u32, get_u64, get_u8, CodecError};
use crate::message::Message;
use bytes::BufMut;

/// The envelope layout version this build speaks.
///
/// Versions live in `0xE0..=0xFF`, disjoint from the append-only
/// [`Message`] tag space (which grows upward from `0x01`), so a bare
/// message frame can never masquerade as an envelope — its leading tag
/// byte fails the version gate structurally, not by luck of the
/// following bytes.
pub const ENVELOPE_VERSION: u8 = 0xE1;

/// Envelope header size: version, sender tag, sender id, round.
const HEADER_LEN: usize = 1 + 1 + 4 + 8;

/// The node roles of the paper's Figure 1 (plus the simulator's epoch
/// coordinator), as wire-addressable identities. `Client` carries the
/// user id; the servers are singletons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// A browser-extension client (user id).
    Client(u32),
    /// The aggregation backend.
    Backend,
    /// The OPRF front-end.
    Oprf,
    /// The epoch coordinator role service (owns the tick-driven epoch
    /// state machine and the versioned membership ledger).
    Coordinator,
}

/// Sender tags (stable; append-only). A singleton server's id field is
/// always 0, and any other id is rejected as `BadTag` of its sender
/// tag, so every accepted envelope re-encodes to its own bytes.
mod sender_tag {
    pub(super) const CLIENT: u8 = 0x01;
    pub(super) const BACKEND: u8 = 0x02;
    pub(super) const OPRF: u8 = 0x03;
    // 0x04 (the telemetry sidecar; telemetry is read in process) is
    // retired, never reassigned: it decodes to `BadTag`.
    pub(super) const COORDINATOR: u8 = 0x05;
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Client(id) => write!(f, "client:{id}"),
            NodeId::Backend => write!(f, "backend"),
            NodeId::Oprf => write!(f, "oprf-server"),
            NodeId::Coordinator => write!(f, "coordinator"),
        }
    }
}

/// One routed protocol message: the only thing the role services of
/// `ew-system::node` exchange, on any transport.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Envelope layout version ([`ENVELOPE_VERSION`] for locally built
    /// envelopes; decoding rejects anything else).
    pub version: u8,
    /// The aggregation round this message belongs to (0 for traffic
    /// outside any round, e.g. OPRF mapping or ad-hoc audits).
    pub round: u64,
    /// The sending node.
    pub sender: NodeId,
    /// The payload.
    pub msg: Message,
}

impl Envelope {
    /// Builds a current-version envelope.
    pub fn new(sender: NodeId, round: u64, msg: Message) -> Self {
        Envelope {
            version: ENVELOPE_VERSION,
            round,
            sender,
            msg,
        }
    }

    /// Encodes header + payload (no framing).
    ///
    /// ```text
    /// +------------+-------------+----------------+-----------+----------------+
    /// | version u8 | sender tag  | sender id u32  | round u64 | Message payload|
    /// +------------+-------------+----------------+-----------+----------------+
    /// ```
    ///
    /// `sender id` is the user id for clients and 0 for the singleton
    /// servers (always present, so the header is fixed-size).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Room for the encoding (see [`Message::encoded_len_hint`]).
    pub(crate) fn encoded_len_hint(&self) -> usize {
        HEADER_LEN + self.msg.encoded_len_hint()
    }

    /// Appends header + payload to `buf`, the message straight after
    /// the header with no intermediate copy. Room for the whole encoding
    /// is reserved first, so `buf` grows at most once: [`Self::encode`]
    /// starts from an empty buffer, which doubling would reallocate
    /// several times for one report and leave freed chunks behind.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len_hint());
        buf.put_u8(self.version);
        match self.sender {
            NodeId::Client(id) => {
                buf.put_u8(sender_tag::CLIENT);
                buf.put_u32_le(id);
            }
            NodeId::Backend => {
                buf.put_u8(sender_tag::BACKEND);
                buf.put_u32_le(0);
            }
            NodeId::Oprf => {
                buf.put_u8(sender_tag::OPRF);
                buf.put_u32_le(0);
            }
            NodeId::Coordinator => {
                buf.put_u8(sender_tag::COORDINATOR);
                buf.put_u32_le(0);
            }
        }
        buf.put_u64_le(self.round);
        self.msg.encode_into(buf);
    }

    /// Decodes header + payload. Unknown versions and sender tags are
    /// rejected before the payload is touched; trailing bytes are
    /// rejected by the message codec.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut buf = payload;
        let version = get_u8(&mut buf)?;
        if version != ENVELOPE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let tag = get_u8(&mut buf)?;
        let id = get_u32(&mut buf)?;
        let sender = match (tag, id) {
            (sender_tag::CLIENT, id) => NodeId::Client(id),
            (sender_tag::BACKEND, 0) => NodeId::Backend,
            (sender_tag::OPRF, 0) => NodeId::Oprf,
            (sender_tag::COORDINATOR, 0) => NodeId::Coordinator,
            (other, _) => return Err(CodecError::BadTag(other)),
        };
        let round = get_u64(&mut buf)?;
        let msg = Message::decode(buf)?;
        Ok(Envelope {
            version,
            round,
            sender,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Envelope> {
        vec![
            Envelope::new(
                NodeId::Client(7),
                3,
                Message::UsersQuery { round: 3, ad: 99 },
            ),
            Envelope::new(
                NodeId::Backend,
                3,
                Message::UsersReply {
                    round: 3,
                    ad: 99,
                    estimate: 4,
                },
            ),
            Envelope::new(
                NodeId::Oprf,
                0,
                Message::Error {
                    code: crate::message::error_code::OUT_OF_RANGE,
                    detail: "element ≥ N".to_string(),
                    hint: None,
                },
            ),
            Envelope::new(NodeId::Client(19), 6, Message::Join { user: 19, epoch: 2 }),
            Envelope::new(
                NodeId::Coordinator,
                6,
                Message::Error {
                    code: crate::message::error_code::NOT_ENROLLED,
                    detail: "user 19 is not enrolled".to_string(),
                    hint: None,
                },
            ),
            Envelope::new(
                NodeId::Client(u32::MAX),
                u64::MAX,
                Message::Report {
                    user: u32::MAX,
                    round: u64::MAX,
                    depth: 2,
                    width: 4,
                    seed: 1,
                    cells: vec![0, 1, 2, 3, 4, 5, 6, 7],
                },
            ),
        ]
    }

    #[test]
    fn roundtrip_every_sender_kind() {
        for env in samples() {
            let encoded = env.encode();
            assert_eq!(Envelope::decode(&encoded).unwrap(), env);
        }
    }

    #[test]
    fn encode_into_reserves_the_whole_encoding_up_front() {
        // A report of 5 × 2 048 cells: grown by doubling, an empty
        // buffer would end at 68 KB after four reallocations.
        let report = Envelope::new(
            NodeId::Client(3),
            9,
            Message::Report {
                user: 3,
                round: 9,
                depth: 5,
                width: 2048,
                seed: 1,
                cells: vec![7; 5 * 2048],
            },
        );
        let mut buf = Vec::new();
        report.encode_into(&mut buf);
        assert_eq!(buf.capacity(), report.encoded_len_hint());
        // A cleared buffer is reused as it is.
        let capacity = buf.capacity();
        buf.clear();
        report.encode_into(&mut buf);
        assert_eq!(buf.capacity(), capacity);
        assert_eq!(buf, report.encode());
    }

    #[test]
    fn unknown_version_rejected_before_payload() {
        let mut encoded = samples()[0].encode();
        encoded[0] = ENVELOPE_VERSION + 1;
        assert_eq!(
            Envelope::decode(&encoded),
            Err(CodecError::BadVersion(ENVELOPE_VERSION + 1))
        );
        // Even with a garbage payload after the header: version first.
        let garbage = [9u8, 0xAA, 0xBB];
        assert_eq!(Envelope::decode(&garbage), Err(CodecError::BadVersion(9)));
    }

    #[test]
    fn unknown_sender_tag_rejected() {
        let mut encoded = samples()[0].encode();
        encoded[1] = 0x7F;
        assert_eq!(Envelope::decode(&encoded), Err(CodecError::BadTag(0x7F)));
    }

    #[test]
    fn retired_sender_tag_decodes_to_bad_tag() {
        // 0x04 was the telemetry sidecar's tag: retired, never reassigned.
        let mut encoded = samples()[0].encode();
        encoded[1] = 0x04;
        assert_eq!(Envelope::decode(&encoded), Err(CodecError::BadTag(0x04)));
    }

    #[test]
    fn singleton_sender_with_an_id_is_rejected() {
        // A server's id field is always 0: an envelope that decoded with
        // any other id would re-encode to different bytes.
        for (sample, tag) in [(1, 0x02), (2, 0x03), (4, 0x05)] {
            let mut encoded = samples()[sample].encode();
            assert_eq!(encoded[1], tag);
            encoded[2] = 7;
            assert_eq!(Envelope::decode(&encoded), Err(CodecError::BadTag(tag)));
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for env in samples() {
            let encoded = env.encode();
            for cut in 0..encoded.len() {
                assert!(
                    Envelope::decode(&encoded[..cut]).is_err(),
                    "prefix of length {cut} decoded unexpectedly"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = samples()[0].encode();
        encoded.push(0);
        assert!(Envelope::decode(&encoded).is_err());
    }
}
