//! A mutation corpus over `JournalRecord::decode`, the bytes a restart
//! reads. Every sample record of each surviving kind is mutated by
//! every single-bit flip, every truncation, every `u32` length prefix
//! set to `u32::MAX`, `MAX_FIELD_LEN + 1` and one past the bytes that
//! remain, and all 256 values of the record tag. For every mutant:
//!
//! * decoding does not panic, and a reject is a typed `CodecError`;
//! * an accepted mutant re-encodes to exactly its input bytes — the
//!   codec is canonical, so one record has one encoding;
//! * one decode allocates at most [`ALLOC_BYTES_PER_INPUT_BYTE`] bytes
//!   per input byte, plus [`ALLOC_SLACK`].
//!
//! A coordinator checkpoint carries four id sets, each a strictly
//! ascending list. An unsorted list and a duplicated list, in each of
//! the four, must come back from the record decoder as
//! `CodecError::NotAscending`.
//!
//! The counting allocator and [`Tally`] live in `corpus/mod.rs`, shared
//! with the envelope corpus. A decode copies an embedded envelope out
//! of the record once and decodes its cells into a vector once: 111
//! bytes for the 96-byte report record. A coordinator state inserts
//! each set's ids straight into its B-tree, one 56-byte leaf per
//! non-empty set: 168 bytes for the 82-byte sample and no more for any
//! of its bit flips, this corpus's largest ratio, inside the bound only
//! through its fixed `ALLOC_SLACK`.

mod corpus;

use corpus::Tally;
use ew_proto::codec::{put_u32_vec, CodecError, MAX_FIELD_LEN};
use ew_proto::{
    CoordinatorCheckpoint, Envelope, EpochPhase, JournalEvent, JournalRecord, Message, NodeId,
};
use std::collections::BTreeSet;

/// The record tag byte follows the `u64` sequence number.
const TAG_AT: usize = 8;

/// One sample record and its `u32` length prefixes, each as the byte
/// offset of the prefix and the length it announces.
struct Sample {
    record: JournalRecord,
    prefixes: &'static [(usize, u32)],
}

fn report(user: u32, round: u64, seed: u64, cells: Vec<u32>) -> Envelope {
    let msg = Message::Report {
        user,
        round,
        depth: 2,
        width: 4,
        seed,
        cells,
    };
    Envelope::new(NodeId::Client(user), round, msg)
}

fn samples() -> Vec<Sample> {
    let adjustment = Message::Adjustment {
        user: 4,
        round: 3,
        cells: vec![9; 8],
    };
    vec![
        Sample {
            record: JournalRecord {
                seq: 1,
                event: JournalEvent::Absorbed {
                    shard: 2,
                    envelope: report(7, 3, 9, (1..=8).collect()),
                },
            },
            // The envelope's bytes, then its report's cells.
            prefixes: &[(13, 79), (60, 8)],
        },
        Sample {
            record: JournalRecord {
                seq: 2,
                event: JournalEvent::Absorbed {
                    shard: 0,
                    envelope: Envelope::new(NodeId::Client(4), 3, adjustment),
                },
            },
            prefixes: &[(13, 63), (44, 8)],
        },
        Sample {
            record: JournalRecord {
                seq: 8,
                event: JournalEvent::CoordinatorState(CoordinatorCheckpoint {
                    epoch: 3,
                    round: 15,
                    phase: EpochPhase::Reports,
                    deadline: 42,
                    last_tick: 40,
                    roster: BTreeSet::from([1, 4, 7, 9]),
                    pending_joins: BTreeSet::from([11]),
                    pending_leaves: BTreeSet::new(),
                    dropped: BTreeSet::from([7]),
                }),
            },
            // roster, pending joins, pending leaves, dropped.
            prefixes: &[(42, 4), (62, 1), (70, 0), (74, 1)],
        },
        Sample {
            record: JournalRecord {
                seq: 9,
                event: JournalEvent::ReportParked {
                    epoch: 3,
                    round: 15,
                    envelope: report(9, 15, 3, (1..=8).rev().collect()),
                },
            },
            prefixes: &[(25, 79), (72, 8)],
        },
    ]
}

#[test]
fn samples_decode_and_their_prefixes_are_where_the_corpus_says() {
    for sample in samples() {
        let bytes = sample.record.encode();
        assert_eq!(JournalRecord::decode(&bytes).as_ref(), Ok(&sample.record));
        for &(at, len) in sample.prefixes {
            let field = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            assert_eq!(field, len, "seq {}: prefix at {at}", sample.record.seq);
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected_or_canonical() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.record.encode();
        for bit in 0..8 * bytes.len() {
            let mut mutant = bytes.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            let what = format!("seq {} bit {bit}", sample.record.seq);
            if let Ok(record) = tally.decode::<JournalRecord>(&mutant, &what) {
                assert_ne!(record, sample.record, "{what}: a flip went unnoticed");
            }
        }
    }
    // Flips in sequence numbers, ids and cells are well-formed records;
    // flips in tags, versions and lengths are not.
    assert!(tally.accepted > 0 && tally.rejected > 0);
}

#[test]
fn every_truncation_is_rejected() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.record.encode();
        for cut in 0..bytes.len() {
            let what = format!("seq {} cut at {cut}", sample.record.seq);
            assert!(
                tally.decode::<JournalRecord>(&bytes[..cut], &what).is_err(),
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
        let bytes = sample.record.encode();
        for &(at, _) in sample.prefixes {
            let remaining = (bytes.len() - at - 4) as u32;
            for len in [u32::MAX, MAX_FIELD_LEN as u32 + 1, remaining + 1] {
                let mut mutant = bytes.clone();
                mutant[at..at + 4].copy_from_slice(&len.to_le_bytes());
                let what = format!("seq {} prefix at {at} set to {len}", sample.record.seq);
                let verdict = tally.decode::<JournalRecord>(&mutant, &what);
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
fn every_record_tag_but_the_sample_s_own_is_rejected() {
    let mut tally = Tally::default();
    for sample in samples() {
        let bytes = sample.record.encode();
        for tag in 0..=u8::MAX {
            let mut mutant = bytes.clone();
            mutant[TAG_AT] = tag;
            let what = format!("seq {} tag {tag:#04x}", sample.record.seq);
            let verdict = tally.decode::<JournalRecord>(&mutant, &what);
            if tag == bytes[TAG_AT] {
                assert_eq!(verdict.as_ref(), Ok(&sample.record), "{what}");
            } else if ![0x01, 0x09, 0x0A].contains(&tag) {
                // Unknown and retired tags alike, `0x02`–`0x08` included.
                assert_eq!(verdict, Err(CodecError::BadTag(tag)), "{what}");
            } else {
                assert!(verdict.is_err(), "{what}: read as another kind");
            }
        }
    }
    assert_eq!(tally.accepted, 4);
}

/// A coordinator-state record whose four sets are written as the given
/// raw lists, in the codec's order: roster, pending joins, pending
/// leaves, dropped.
fn checkpoint_with_lists(lists: [&[u32]; 4]) -> Vec<u8> {
    let empty = JournalRecord {
        seq: 8,
        event: JournalEvent::CoordinatorState(CoordinatorCheckpoint {
            epoch: 3,
            round: 15,
            ..CoordinatorCheckpoint::default()
        }),
    };
    let mut bytes = empty.encode();
    // The four empty sets are the record's last sixteen bytes.
    bytes.truncate(bytes.len() - 16);
    for list in lists {
        put_u32_vec(&mut bytes, list);
    }
    bytes
}

#[test]
fn unsorted_or_duplicated_sets_are_refused_by_the_codec() {
    let valid: [&[u32]; 4] = [&[1, 4, 7, 9], &[11, 12], &[4], &[7, 9]];
    let bytes = checkpoint_with_lists(valid);
    let Ok(record) = JournalRecord::decode(&bytes) else {
        panic!("ascending lists decode");
    };
    assert_eq!(record.encode(), bytes, "and re-encode to their own bytes");
    for set in 0..4 {
        for (what, ids) in [("unsorted", [4, 1, 7, 9]), ("duplicated", [1, 4, 4, 9])] {
            let mut lists = valid;
            lists[set] = &ids;
            assert_eq!(
                JournalRecord::decode(&checkpoint_with_lists(lists)),
                Err(CodecError::NotAscending),
                "set {set}: {what}"
            );
        }
    }
}
