//! The protocol messages exchanged by clients, the backend and the
//! oprf-server (the arrows of the paper's Figure 1, plus the two-round
//! fault-tolerance exchange of §6).

use crate::codec::{
    get_bytes, get_bytes_list, get_f64, get_string, get_u32, get_u32_vec, get_u64, get_u8,
    put_bytes, put_bytes_list, put_string, put_u32_vec, CodecError,
};
use bytes::BufMut;

/// Well-known [`Message::Error`] codes. Codes are append-only, like wire
/// tags; `detail` is free-form human-readable context.
pub mod error_code {
    /// The receiving node does not serve this message type.
    pub const UNSUPPORTED_MESSAGE: u32 = 1;
    /// A request element was outside the valid range (e.g. a blinded
    /// OPRF element not below the RSA modulus), or a request carried
    /// more elements than the node serves in one batch.
    pub const OUT_OF_RANGE: u32 = 2;
    // 3 (malformed OPRF shard header) is retired, never reassigned.
    /// The node cannot answer yet (e.g. a `#Users` query before any
    /// round has been finalized).
    pub const NOT_READY: u32 = 4;
    /// A report or adjustment reached a cluster shard that does not own
    /// its sender's key range under the current shard map.
    pub const WRONG_SHARD: u32 = 5;
    // 6 (stale shard map) is retired, never reassigned.
    /// A report envelope was rejected by round validation (duplicate,
    /// unknown user, wrong round, mismatched dimensions or header) —
    /// the explicit reply that replaces silently dropping it.
    pub const REJECTED_REPORT: u32 = 7;
    // 8 (malformed shard map) is retired, never reassigned.
    /// A membership-plane request named a user the coordinator's roster
    /// does not carry (e.g. a `Leave` for a client that never joined).
    pub const NOT_ENROLLED: u32 = 9;
    /// A membership-plane request referenced an epoch the coordinator
    /// has already finalized or collapsed — the epoch is closed and its
    /// roster immutable.
    pub const EPOCH_CLOSED: u32 = 10;
    // 11 (stale membership broadcast) is retired, never reassigned.
}

/// Structured retry guidance carried by an
/// [`error_code::EPOCH_CLOSED`] reply — the append-only extension of
/// the error payload that turns "your epoch is closed" from a dead end
/// into an admission pointer. `detail` stays free-form and is never
/// parsed; peers that want to rejoin read this structure instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionHint {
    /// The epoch the sender should cite when it retries (the
    /// coordinator's current epoch — a `Join` citing it parks the
    /// sender for the next admission).
    pub epoch: u64,
    /// Suggested backoff before retrying, in logical ticks: the
    /// coordinator's estimate of when the next fold point (phase
    /// deadline or admission tick) comes around.
    pub retry_after: u64,
}

/// All protocol messages. Group elements travel as big-endian byte
/// strings (the crypto layer's canonical serialization).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → backend bulletin board: enrolment, publishing the DH
    /// public key used for blinding agreements.
    PublishKey {
        /// Sender's user id.
        user: u32,
        /// Serialized DH public key.
        public_key: Vec<u8>,
    },
    /// Client → oprf-server: a whole batch of blinded elements in one
    /// message (the weekly wake-up maps every new ad URL at once; one
    /// message amortizes framing and lets the server keep its CRT
    /// context hot).
    OprfBatchRequest {
        /// Client-chosen correlation id.
        request_id: u64,
        /// Blinded elements, in order.
        blinded: Vec<Vec<u8>>,
    },
    /// oprf-server → client: the signed batch, positionally matching
    /// the request.
    OprfBatchResponse {
        /// Echoed correlation id.
        request_id: u64,
        /// `(blinded_i)^d mod N` for each request element.
        elements: Vec<Vec<u8>>,
    },
    /// Client → backend: the weekly blinded CMS report.
    Report {
        /// Sender's user id.
        user: u32,
        /// Aggregation round (week index).
        round: u64,
        /// Sketch depth (rows).
        depth: u32,
        /// Sketch width (columns).
        width: u32,
        /// Shared hash seed of the sketch.
        seed: u64,
        /// Blinded cells, row-major.
        cells: Vec<u32>,
    },
    /// Backend → clients: the recovery round's list of clients whose
    /// reports never arrived.
    MissingClients {
        /// Aggregation round.
        round: u64,
        /// Missing user ids.
        users: Vec<u32>,
    },
    /// Client → backend: the recovery adjustment vector (the sender's
    /// residual blinding against the missing set).
    Adjustment {
        /// Sender's user id.
        user: u32,
        /// Aggregation round.
        round: u64,
        /// Adjustment cells.
        cells: Vec<u32>,
    },
    /// Backend → clients: the computed global threshold (Figure 1,
    /// arrow 5).
    ThresholdBroadcast {
        /// Aggregation round.
        round: u64,
        /// `Users_th` for the round.
        users_threshold: f64,
    },
    /// Client → backend: ask for the `#Users` estimate of one ad ID
    /// (issued when the user audits an ad in real time).
    UsersQuery {
        /// Aggregation round to query.
        round: u64,
        /// Ad identifier in `[0, |A|)`.
        ad: u64,
    },
    /// Backend → client: the estimate.
    UsersReply {
        /// Echoed round.
        round: u64,
        /// Echoed ad id.
        ad: u64,
        /// CMS estimate of `#Users(ad)`.
        estimate: u32,
    },
    /// Client → coordinator: ask to participate in the aggregation.
    /// Joins received mid-epoch land in the **next** epoch's pending
    /// set; the sender learns it was admitted when that epoch's frozen
    /// roster reaches it.
    Join {
        /// The joining user id.
        user: u32,
        /// The epoch the sender believes is current (0 when it has
        /// never been admitted; a closed epoch is answered with
        /// [`error_code::EPOCH_CLOSED`]).
        epoch: u64,
    },
    /// Client → coordinator: an orderly departure. Leaves during
    /// `Warmup` shrink the forming roster immediately; leaves during
    /// `Reports` fold the sender into the round's silent-client
    /// recovery path instead of aborting the epoch.
    Leave {
        /// The departing user id.
        user: u32,
        /// The epoch the sender believes is current.
        epoch: u64,
    },
    /// Any node → peer: an explicit rejection, so peers can distinguish
    /// "the network dropped my request" from "the service refused it".
    /// Nodes never reply to an `Error` with another `Error` (that would
    /// ping-pong forever).
    Error {
        /// One of the [`error_code`] constants.
        code: u32,
        /// Human-readable context (never parsed by peers).
        detail: String,
        /// Structured retry guidance, carried by
        /// [`error_code::EPOCH_CLOSED`] replies so a late joiner or a
        /// straggler whose report missed the deadline knows which epoch
        /// to retry against and how long to back off. Absent on every
        /// other rejection.
        hint: Option<AdmissionHint>,
    },
}

/// Wire tags (stable; append-only).
mod tag {
    pub(super) const PUBLISH_KEY: u8 = 0x01;
    // 0x02 / 0x03 (the per-ad OPRF request / response; a single ad is
    // a batch of one) are retired, never reassigned: `BadTag`.
    pub(super) const REPORT: u8 = 0x04;
    pub(super) const MISSING_CLIENTS: u8 = 0x05;
    pub(super) const ADJUSTMENT: u8 = 0x06;
    pub(super) const THRESHOLD_BROADCAST: u8 = 0x07;
    pub(super) const USERS_QUERY: u8 = 0x08;
    pub(super) const USERS_REPLY: u8 = 0x09;
    pub(super) const OPRF_BATCH_REQUEST: u8 = 0x0A;
    pub(super) const OPRF_BATCH_RESPONSE: u8 = 0x0B;
    // 0x0C / 0x0D (the OPRF shard request / response no node ever
    // sent) are retired, never reassigned: they decode to `BadTag`.
    pub(super) const ERROR: u8 = 0x0E;
    // 0x0F (the mid-round shard-map update; a map no longer changes
    // while a round is open) is retired, never reassigned: `BadTag`.
    // 0x10 / 0x11 (the telemetry query / reply; telemetry is read in
    // process) are retired, never reassigned: `BadTag`.
    pub(super) const JOIN: u8 = 0x12;
    pub(super) const LEAVE: u8 = 0x13;
    // 0x14 / 0x15 (the coordinator's tick and epoch-state broadcast;
    // the driver ticks it by direct call) are retired, never
    // reassigned: `BadTag`.
}

impl Message {
    /// A short, stable name for the message kind (for diagnostics and
    /// [`Message::Error`] details — never parsed).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::PublishKey { .. } => "PublishKey",
            Message::OprfBatchRequest { .. } => "OprfBatchRequest",
            Message::OprfBatchResponse { .. } => "OprfBatchResponse",
            Message::Report { .. } => "Report",
            Message::MissingClients { .. } => "MissingClients",
            Message::Adjustment { .. } => "Adjustment",
            Message::ThresholdBroadcast { .. } => "ThresholdBroadcast",
            Message::UsersQuery { .. } => "UsersQuery",
            Message::UsersReply { .. } => "UsersReply",
            Message::Join { .. } => "Join",
            Message::Leave { .. } => "Leave",
            Message::Error { .. } => "Error",
        }
    }

    /// Encodes to a payload (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len_hint());
        self.encode_into(&mut buf);
        buf
    }

    /// Room for the encoding: the variable-length bulk (sketch cells,
    /// OPRF elements) exactly, the fixed fields generously.
    pub(crate) fn encoded_len_hint(&self) -> usize {
        64 + match self {
            Message::Report { cells, .. } | Message::Adjustment { cells, .. } => 4 * cells.len(),
            Message::OprfBatchRequest {
                blinded: elements, ..
            }
            | Message::OprfBatchResponse { elements, .. } => {
                elements.iter().map(|e| 4 + e.len()).sum()
            }
            _ => 0,
        }
    }

    /// Appends the payload encoding to `buf` (the envelope and the frame
    /// are built around it in the same buffer).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::PublishKey { user, public_key } => {
                buf.put_u8(tag::PUBLISH_KEY);
                buf.put_u32_le(*user);
                put_bytes(buf, public_key);
            }
            Message::OprfBatchRequest {
                request_id,
                blinded,
            } => {
                buf.put_u8(tag::OPRF_BATCH_REQUEST);
                buf.put_u64_le(*request_id);
                put_bytes_list(buf, blinded);
            }
            Message::OprfBatchResponse {
                request_id,
                elements,
            } => {
                buf.put_u8(tag::OPRF_BATCH_RESPONSE);
                buf.put_u64_le(*request_id);
                put_bytes_list(buf, elements);
            }
            Message::Report {
                user,
                round,
                depth,
                width,
                seed,
                cells,
            } => {
                buf.put_u8(tag::REPORT);
                buf.put_u32_le(*user);
                buf.put_u64_le(*round);
                buf.put_u32_le(*depth);
                buf.put_u32_le(*width);
                buf.put_u64_le(*seed);
                put_u32_vec(buf, cells);
            }
            Message::MissingClients { round, users } => {
                buf.put_u8(tag::MISSING_CLIENTS);
                buf.put_u64_le(*round);
                put_u32_vec(buf, users);
            }
            Message::Adjustment { user, round, cells } => {
                buf.put_u8(tag::ADJUSTMENT);
                buf.put_u32_le(*user);
                buf.put_u64_le(*round);
                put_u32_vec(buf, cells);
            }
            Message::ThresholdBroadcast {
                round,
                users_threshold,
            } => {
                buf.put_u8(tag::THRESHOLD_BROADCAST);
                buf.put_u64_le(*round);
                buf.put_u64_le(users_threshold.to_bits());
            }
            Message::UsersQuery { round, ad } => {
                buf.put_u8(tag::USERS_QUERY);
                buf.put_u64_le(*round);
                buf.put_u64_le(*ad);
            }
            Message::UsersReply {
                round,
                ad,
                estimate,
            } => {
                buf.put_u8(tag::USERS_REPLY);
                buf.put_u64_le(*round);
                buf.put_u64_le(*ad);
                buf.put_u32_le(*estimate);
            }
            Message::Join { user, epoch } => {
                buf.put_u8(tag::JOIN);
                buf.put_u32_le(*user);
                buf.put_u64_le(*epoch);
            }
            Message::Leave { user, epoch } => {
                buf.put_u8(tag::LEAVE);
                buf.put_u32_le(*user);
                buf.put_u64_le(*epoch);
            }
            Message::Error { code, detail, hint } => {
                buf.put_u8(tag::ERROR);
                buf.put_u32_le(*code);
                put_string(buf, detail);
                match hint {
                    None => buf.put_u8(0),
                    Some(AdmissionHint { epoch, retry_after }) => {
                        buf.put_u8(1);
                        buf.put_u64_le(*epoch);
                        buf.put_u64_le(*retry_after);
                    }
                }
            }
        }
    }

    /// Decodes from a payload. Trailing bytes are rejected as
    /// corruption.
    pub fn decode(mut payload: &[u8]) -> Result<Self, CodecError> {
        let buf = &mut payload;
        let t = get_u8(buf)?;
        let msg = match t {
            tag::PUBLISH_KEY => Message::PublishKey {
                user: get_u32(buf)?,
                public_key: get_bytes(buf)?,
            },
            tag::OPRF_BATCH_REQUEST => Message::OprfBatchRequest {
                request_id: get_u64(buf)?,
                blinded: get_bytes_list(buf)?,
            },
            tag::OPRF_BATCH_RESPONSE => Message::OprfBatchResponse {
                request_id: get_u64(buf)?,
                elements: get_bytes_list(buf)?,
            },
            tag::REPORT => Message::Report {
                user: get_u32(buf)?,
                round: get_u64(buf)?,
                depth: get_u32(buf)?,
                width: get_u32(buf)?,
                seed: get_u64(buf)?,
                cells: get_u32_vec(buf)?,
            },
            tag::MISSING_CLIENTS => Message::MissingClients {
                round: get_u64(buf)?,
                users: get_u32_vec(buf)?,
            },
            tag::ADJUSTMENT => Message::Adjustment {
                user: get_u32(buf)?,
                round: get_u64(buf)?,
                cells: get_u32_vec(buf)?,
            },
            tag::THRESHOLD_BROADCAST => Message::ThresholdBroadcast {
                round: get_u64(buf)?,
                users_threshold: get_f64(buf)?,
            },
            tag::USERS_QUERY => Message::UsersQuery {
                round: get_u64(buf)?,
                ad: get_u64(buf)?,
            },
            tag::USERS_REPLY => Message::UsersReply {
                round: get_u64(buf)?,
                ad: get_u64(buf)?,
                estimate: get_u32(buf)?,
            },
            tag::JOIN => Message::Join {
                user: get_u32(buf)?,
                epoch: get_u64(buf)?,
            },
            tag::LEAVE => Message::Leave {
                user: get_u32(buf)?,
                epoch: get_u64(buf)?,
            },
            tag::ERROR => {
                let code = get_u32(buf)?;
                let detail = get_string(buf)?;
                let hint = match get_u8(buf)? {
                    0 => None,
                    1 => Some(AdmissionHint {
                        epoch: get_u64(buf)?,
                        retry_after: get_u64(buf)?,
                    }),
                    other => return Err(CodecError::BadTag(other)),
                };
                Message::Error { code, detail, hint }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        if !payload.is_empty() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::PublishKey {
                user: 7,
                public_key: vec![1, 2, 3, 4],
            },
            Message::OprfBatchRequest {
                request_id: 43,
                blinded: vec![vec![0x11; 16], vec![], vec![0x22; 3]],
            },
            Message::OprfBatchResponse {
                request_id: 43,
                elements: vec![vec![0x33; 16], vec![0x44; 16]],
            },
            Message::Report {
                user: 3,
                round: 12,
                depth: 4,
                width: 100,
                seed: 99,
                cells: (0..400).collect(),
            },
            Message::MissingClients {
                round: 12,
                users: vec![1, 5, 9],
            },
            Message::Adjustment {
                user: 3,
                round: 12,
                cells: vec![7; 400],
            },
            Message::ThresholdBroadcast {
                round: 12,
                users_threshold: 2.62,
            },
            Message::UsersQuery { round: 12, ad: 555 },
            Message::UsersReply {
                round: 12,
                ad: 555,
                estimate: 9,
            },
            Message::Join { user: 19, epoch: 2 },
            Message::Leave { user: 19, epoch: 3 },
            Message::Error {
                code: error_code::OUT_OF_RANGE,
                detail: "blinded element ≥ modulus".to_string(),
                hint: None,
            },
            Message::Error {
                code: error_code::UNSUPPORTED_MESSAGE,
                detail: String::new(),
                hint: None,
            },
            Message::Error {
                code: error_code::EPOCH_CLOSED,
                detail: "epoch 3 is closed (current is 4)".to_string(),
                hint: Some(AdmissionHint {
                    epoch: 4,
                    retry_after: 2,
                }),
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for msg in samples() {
            let encoded = msg.encode();
            let decoded = Message::decode(&encoded).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(Message::decode(&[0xAA]), Err(CodecError::BadTag(0xAA)));
    }

    #[test]
    fn retired_tags_decode_to_bad_tag() {
        // The retired frames' exact old layout, well-formed everywhere
        // but the tag — bare and enveloped (so an `Endpoint` counts such
        // a frame as corrupt and never delivers it).
        for retired in [0x02u8, 0x03, 0x0C, 0x0D, 0x0F, 0x10, 0x11, 0x14, 0x15] {
            let mut payload = vec![retired];
            match retired {
                0x02 | 0x03 => {
                    // The per-ad request / response: id, one element.
                    payload.put_u64_le(44);
                    put_bytes(&mut payload, &[0x55; 16]);
                }
                0x0C | 0x0D => {
                    // The OPRF shard request / response: id, index,
                    // count, elements.
                    payload.put_u64_le(44);
                    payload.put_u32_le(1);
                    payload.put_u32_le(3);
                    put_bytes_list(&mut payload, &[vec![0x55; 16], vec![0x66; 16]]);
                }
                0x0F => {
                    // The shard-map update: version, shard_ids, owners.
                    payload.put_u32_le(1);
                    payload.put_u32_le(4);
                    put_u32_vec(&mut payload, &[0, 1, 3, 0, 1, 3, 0, 1]);
                }
                0x10 | 0x14 => {
                    // The telemetry query (round) / the tick (now).
                    payload.put_u64_le(12);
                }
                0x11 => {
                    // The telemetry reply: round and six counters, the
                    // round-phase column, three counters, the
                    // epoch-phase column, an empty histogram list.
                    for v in [12u64, 400, 12, 3, 17, 380, 64] {
                        payload.put_u64_le(v);
                    }
                    payload.put_u32_le(4);
                    for v in [10u64, 2_000_000, 300, 7] {
                        payload.put_u64_le(v);
                    }
                    for v in [2u64, 5, 1] {
                        payload.put_u64_le(v);
                    }
                    payload.put_u32_le(6);
                    for v in 1..=6u64 {
                        payload.put_u64_le(v);
                    }
                    payload.put_u32_le(0);
                }
                _ => {
                    // The epoch-state broadcast: epoch, phase, round,
                    // version, min_clients, members.
                    payload.put_u64_le(3);
                    payload.put_u8(2);
                    payload.put_u64_le(12);
                    payload.put_u32_le(5);
                    payload.put_u32_le(8);
                    put_u32_vec(&mut payload, &[1, 3, 5, 9, 19]);
                }
            }
            assert_eq!(Message::decode(&payload), Err(CodecError::BadTag(retired)));

            let probe = Message::Leave { user: 7, epoch: 0 };
            let header = crate::Envelope::new(crate::NodeId::Client(7), 12, probe.clone());
            let mut enveloped = header.encode();
            enveloped.truncate(enveloped.len() - probe.encode().len());
            enveloped.extend_from_slice(&payload);
            let decoded = crate::Envelope::decode(&enveloped);
            assert_eq!(decoded, Err(CodecError::BadTag(retired)));
        }
    }

    #[test]
    fn empty_payload_rejected() {
        assert_eq!(Message::decode(&[]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = Message::UsersQuery { round: 1, ad: 2 }.encode();
        encoded.push(0);
        assert!(Message::decode(&encoded).is_err());
    }

    #[test]
    fn trailing_bytes_are_corruption_on_every_kind() {
        // No kind tolerates a tail: every byte after the last known
        // field fails the decode.
        for msg in samples() {
            let mut extended = msg.encode();
            extended.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
            assert_eq!(
                Message::decode(&extended),
                Err(CodecError::UnexpectedEof),
                "{}: trailing bytes are corruption",
                msg.kind()
            );
        }
    }

    #[test]
    fn error_reply_roundtrips_and_rejects_bad_utf8() {
        let msg = Message::Error {
            code: error_code::OUT_OF_RANGE,
            detail: "batch 7: element out of range".to_string(),
            hint: None,
        };
        let encoded = msg.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), msg);

        // A corrupted detail that is no longer UTF-8 must be a clean
        // decode error, not a panic or lossy garbage.
        let mut bad = Message::Error {
            code: 1,
            detail: "ab".to_string(),
            hint: None,
        }
        .encode();
        let n = bad.len() - 2; // last two bytes: corrupted char + hint flag
        bad[n] = 0xFF; // invalid UTF-8 continuation byte
        assert_eq!(Message::decode(&bad), Err(CodecError::BadString));
    }

    #[test]
    fn epoch_closed_hint_roundtrips_and_rejects_bad_flag() {
        // The admission hint is the PR 9 append-only extension of the
        // error payload: EPOCH_CLOSED replies carry the epoch to retry
        // against plus backoff guidance, everything else says "no hint".
        let hinted = Message::Error {
            code: error_code::EPOCH_CLOSED,
            detail: "epoch 7 is closed (current is 9)".to_string(),
            hint: Some(AdmissionHint {
                epoch: 9,
                retry_after: 3,
            }),
        };
        assert_eq!(Message::decode(&hinted.encode()).unwrap(), hinted);

        // The presence byte admits exactly 0 and 1; anything else is
        // corruption, not a silent default.
        let mut encoded = Message::Error {
            code: error_code::EPOCH_CLOSED,
            detail: String::new(),
            hint: None,
        }
        .encode();
        let n = encoded.len();
        encoded[n - 1] = 0x02;
        assert_eq!(Message::decode(&encoded), Err(CodecError::BadTag(0x02)));
    }

    #[test]
    fn cluster_errors_roundtrip() {
        // The cluster error codes peers answer mis-routed and rejected
        // traffic with.
        for code in [error_code::WRONG_SHARD, error_code::REJECTED_REPORT] {
            let err = Message::Error {
                code,
                detail: format!("cluster rejection {code}"),
                hint: None,
            };
            assert_eq!(Message::decode(&err.encode()).unwrap(), err);
        }
    }

    #[test]
    fn membership_plane_errors_roundtrip() {
        // The two membership rejections peers answer churn traffic
        // with, as full `Message::Error` replies (codes are append-only:
        // 9 and 10 extend the registry, retired 11 is never reused).
        for code in [error_code::NOT_ENROLLED, error_code::EPOCH_CLOSED] {
            let err = Message::Error {
                code,
                detail: format!("membership rejection {code}"),
                hint: None,
            };
            assert_eq!(Message::decode(&err.encode()).unwrap(), err);
        }
        assert_eq!(error_code::NOT_ENROLLED, 9);
        assert_eq!(error_code::EPOCH_CLOSED, 10);
    }

    #[test]
    fn truncation_rejected_everywhere() {
        // Any strict prefix of a valid encoding must fail to decode.
        for msg in samples() {
            let encoded = msg.encode();
            for cut in 0..encoded.len() {
                assert!(
                    Message::decode(&encoded[..cut]).is_err(),
                    "prefix of length {cut} decoded unexpectedly"
                );
            }
        }
    }
}
