//! A mutation corpus over `Envelope::decode`, the bytes every node reads
//! off the wire: one small sample of each `Message` kind, in an envelope
//! from each kind of sender, is mutated by every single-bit flip, every
//! truncation, every `u32` length prefix set to `u32::MAX`,
//! `MAX_FIELD_LEN + 1` and one past the bytes that remain, all 256
//! values of the message tag and all 256 values of the sender tag —
//! the retired message tags `0x02`, `0x03`, `0x0C`, `0x0D`, `0x0F`,
//! `0x10`, `0x11`, `0x14`, `0x15` and the retired sender tag `0x04`
//! among them. For every mutant:
//!
//! * decoding does not panic, and a reject is a typed `CodecError`;
//! * an accepted mutant re-encodes to exactly its input bytes — the
//!   codec is canonical, so one envelope has one encoding;
//! * one decode allocates at most twice its input, plus 64 bytes.
//!
//! The counting allocator and [`Tally`] live in `corpus/mod.rs`, shared
//! with the journal record corpus. The sketch report carries 2 × 32
//! cells, not a benchmark world's 5 × 1 024: every bit of it is
//! flipped. A decode copies each variable-length field out once; the
//! largest ratio is an OPRF batch's, whose element list grows by
//! doubling: 115 bytes (four 24-byte element headers, then the
//! elements) for the 58-byte request.

mod corpus;

use corpus::Tally;
use ew_proto::codec::{CodecError, MAX_FIELD_LEN};
use ew_proto::message::{error_code, AdmissionHint};
use ew_proto::{Envelope, Message, NodeId};

/// The sender tag follows the version byte.
const SENDER_TAG_AT: usize = 1;
/// The message tag follows the 14-byte envelope header.
const MESSAGE_TAG_AT: usize = 14;
/// The sender tags this build decodes: client, backend, OPRF server,
/// coordinator.
const LIVE_SENDER_TAGS: [u8; 4] = [0x01, 0x02, 0x03, 0x05];
/// The message tags this build decodes.
const LIVE_MESSAGE_TAGS: [u8; 12] = [
    0x01, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0E, 0x12, 0x13,
];

/// One sample envelope and its `u32` length prefixes, each as the byte
/// offset of the prefix and the length it announces.
struct Sample {
    envelope: Envelope,
    prefixes: &'static [(usize, u32)],
}

fn samples() -> Vec<Sample> {
    let sample = |sender, round, msg, prefixes| Sample {
        envelope: Envelope::new(sender, round, msg),
        prefixes,
    };
    vec![
        sample(
            NodeId::Client(7),
            0,
            Message::PublishKey {
                user: 7,
                public_key: vec![0xAB; 16],
            },
            &[(19, 16)],
        ),
        sample(
            NodeId::Client(7),
            0,
            Message::OprfBatchRequest {
                request_id: 43,
                blinded: vec![vec![0x11; 16], vec![], vec![0x22; 3]],
            },
            // The element count, then each element's length.
            &[(23, 3), (27, 16), (47, 0), (51, 3)],
        ),
        sample(
            NodeId::Oprf,
            0,
            Message::OprfBatchResponse {
                request_id: 43,
                elements: vec![vec![0x33; 16], vec![0x44; 16]],
            },
            &[(23, 2), (27, 16), (47, 16)],
        ),
        sample(
            NodeId::Client(3),
            12,
            Message::Report {
                user: 3,
                round: 12,
                depth: 2,
                width: 32,
                seed: 99,
                cells: (0..64).map(|i| i * 0x0101_0101).collect(),
            },
            &[(43, 64)],
        ),
        sample(
            NodeId::Backend,
            12,
            Message::MissingClients {
                round: 12,
                users: vec![1, 5, 9],
            },
            &[(23, 3)],
        ),
        sample(
            NodeId::Client(3),
            12,
            Message::Adjustment {
                user: 3,
                round: 12,
                cells: (0..64).map(|i| !i).collect(),
            },
            &[(27, 64)],
        ),
        sample(
            NodeId::Backend,
            12,
            Message::ThresholdBroadcast {
                round: 12,
                users_threshold: 2.62,
            },
            &[],
        ),
        sample(
            NodeId::Client(5),
            12,
            Message::UsersQuery { round: 12, ad: 555 },
            &[],
        ),
        sample(
            NodeId::Backend,
            12,
            Message::UsersReply {
                round: 12,
                ad: 555,
                estimate: 9,
            },
            &[],
        ),
        sample(
            NodeId::Client(19),
            0,
            Message::Join { user: 19, epoch: 2 },
            &[],
        ),
        sample(
            NodeId::Client(19),
            0,
            Message::Leave { user: 19, epoch: 3 },
            &[],
        ),
        sample(
            NodeId::Coordinator,
            0,
            Message::Error {
                code: error_code::EPOCH_CLOSED,
                detail: "epoch 3 is closed".to_string(),
                hint: Some(AdmissionHint {
                    epoch: 4,
                    retry_after: 2,
                }),
            },
            &[(19, 17)],
        ),
    ]
}

/// A short name for a sample in assertion messages.
fn name(envelope: &Envelope) -> String {
    format!("{} from {}", envelope.msg.kind(), envelope.sender)
}

#[test]
fn samples_cover_every_kind_and_their_prefixes_are_where_the_corpus_says() {
    let samples = samples();
    let mut kinds: Vec<&str> = samples.iter().map(|s| s.envelope.msg.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds.len(),
        LIVE_MESSAGE_TAGS.len(),
        "a sample of every kind"
    );
    assert_eq!(kinds.len(), samples.len(), "one sample per kind");
    for sample in &samples {
        let bytes = sample.envelope.encode();
        let what = name(&sample.envelope);
        assert_eq!(Envelope::decode(&bytes).as_ref(), Ok(&sample.envelope));
        assert!(
            LIVE_SENDER_TAGS.contains(&bytes[SENDER_TAG_AT])
                && LIVE_MESSAGE_TAGS.contains(&bytes[MESSAGE_TAG_AT]),
            "{what}: tags"
        );
        for &(at, len) in sample.prefixes {
            let field = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            assert_eq!(field, len, "{what}: prefix at {at}");
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected_or_canonical() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.envelope.encode();
        for bit in 0..8 * bytes.len() {
            let mut mutant = bytes.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            let what = format!("{} bit {bit}", name(&sample.envelope));
            if let Ok(envelope) = tally.decode::<Envelope>(&mutant, &what) {
                assert_ne!(envelope, sample.envelope, "{what}: a flip went unnoticed");
            }
        }
    }
    // Flips in ids, rounds and cells are well-formed envelopes; flips in
    // the version, tags and lengths are not.
    assert!(tally.accepted > 0 && tally.rejected > 0);
}

#[test]
fn every_truncation_is_rejected() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.envelope.encode();
        for cut in 0..bytes.len() {
            let what = format!("{} cut at {cut}", name(&sample.envelope));
            assert!(
                tally.decode::<Envelope>(&bytes[..cut], &what).is_err(),
                "{what}"
            );
        }
    }
    assert_eq!(tally.accepted, 0);
}

#[test]
fn inflated_length_prefixes_are_rejected() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.envelope.encode();
        for &(at, _) in sample.prefixes {
            let remaining = (bytes.len() - at - 4) as u32;
            for len in [u32::MAX, MAX_FIELD_LEN as u32 + 1, remaining + 1] {
                let mut mutant = bytes.clone();
                mutant[at..at + 4].copy_from_slice(&len.to_le_bytes());
                let what = format!("{} prefix at {at} set to {len}", name(&sample.envelope));
                let verdict = tally.decode::<Envelope>(&mutant, &what);
                assert!(
                    matches!(
                        verdict,
                        Err(CodecError::FieldTooLarge(_) | CodecError::UnexpectedEof)
                    ),
                    "{what}: {verdict:?}"
                );
            }
        }
    }
    assert_eq!(tally.accepted, 0);
}

#[test]
fn an_element_count_the_bytes_only_just_hold_reserves_nothing_unread() {
    // Regression: the OPRF batch decoder used to reserve a vector header
    // for every element its count announced before reading any, 24
    // bytes per 4 bytes of input, so a count raised as far as the bytes
    // allow allocated past the bound (187 bytes for a 58-byte request).
    let mut tally = Tally::default();
    let batches = samples().into_iter().filter(|sample| {
        matches!(
            sample.envelope.msg,
            Message::OprfBatchRequest { .. } | Message::OprfBatchResponse { .. }
        )
    });
    for sample in batches {
        let bytes = sample.envelope.encode();
        let (at, _) = sample.prefixes[0];
        let count = (bytes.len() - at - 4) as u32 / 4;
        let mut mutant = bytes.clone();
        mutant[at..at + 4].copy_from_slice(&count.to_le_bytes());
        let what = format!("{} count set to {count}", name(&sample.envelope));
        let verdict = tally.decode::<Envelope>(&mutant, &what);
        assert_eq!(verdict, Err(CodecError::UnexpectedEof), "{what}");
    }
    assert_eq!(tally.rejected, 2);
}

#[test]
fn every_message_tag_but_the_sample_s_own_is_rejected_or_another_kind() {
    let mut tally = Tally::default();
    let mut other_kinds = 0;
    for sample in samples() {
        let bytes = sample.envelope.encode();
        for tag in 0..=u8::MAX {
            let mut mutant = bytes.clone();
            mutant[MESSAGE_TAG_AT] = tag;
            let what = format!("{} message tag {tag:#04x}", name(&sample.envelope));
            let verdict = tally.decode::<Envelope>(&mutant, &what);
            if tag == bytes[MESSAGE_TAG_AT] {
                assert_eq!(verdict.as_ref(), Ok(&sample.envelope), "{what}");
            } else if !LIVE_MESSAGE_TAGS.contains(&tag) {
                // Unknown and retired tags alike.
                assert_eq!(verdict, Err(CodecError::BadTag(tag)), "{what}");
            } else if let Ok(envelope) = verdict {
                // The payload also parses as another live kind (`Join`
                // and `Leave` share a layout, a short payload reads as
                // an empty OPRF batch): the tag is all that tells them
                // apart, and the re-encode matched.
                assert_ne!(envelope.msg.kind(), sample.envelope.msg.kind(), "{what}");
                other_kinds += 1;
            }
        }
    }
    assert!(other_kinds > 0);
    assert_eq!(tally.accepted, samples().len() + other_kinds);
}

#[test]
fn every_sender_tag_but_the_sample_s_own_is_rejected_or_another_sender() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.envelope.encode();
        for tag in 0..=u8::MAX {
            let mut mutant = bytes.clone();
            mutant[SENDER_TAG_AT] = tag;
            let what = format!("{} sender tag {tag:#04x}", name(&sample.envelope));
            match tally.decode::<Envelope>(&mutant, &what) {
                Ok(envelope) if tag == bytes[SENDER_TAG_AT] => {
                    assert_eq!(envelope, sample.envelope, "{what}")
                }
                // A server's id field is 0, which a client may carry;
                // a client's id is a server's `BadTag`.
                Ok(envelope) => {
                    assert!(
                        sample.envelope.sender != envelope.sender
                            && envelope.msg == sample.envelope.msg
                            && !matches!(sample.envelope.sender, NodeId::Client(_)),
                        "{what}: {envelope:?}"
                    )
                }
                // Unknown and retired tags, `0x04` included, and a
                // server tag over a client's id.
                Err(error) => assert_eq!(error, CodecError::BadTag(tag), "{what}"),
            }
        }
    }
    // Each of the five server-sent samples reads as each of the other
    // three live senders.
    assert_eq!(tally.accepted, samples().len() + 5 * 3);
}
