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
//! Same counting-global-allocator scheme as the `alloc_free` suites of
//! `ew-bigint` and `ew-crypto`, counting bytes rather than calls; it
//! lives in this dedicated test binary so no other suite runs under it.

use ew_proto::codec::{CodecError, MAX_FIELD_LEN};
use ew_proto::{CoordinatorCheckpoint, Envelope, JournalEvent, JournalRecord, Message, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes this thread asks the allocator for; a `realloc`
/// counts its whole new size.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A decode copies an embedded envelope out of the record once and
/// decodes its cells into a vector once: 111 bytes for the 96-byte
/// report record, the corpus's largest ratio. Twice the input bounds it
/// with room to spare.
const ALLOC_BYTES_PER_INPUT_BYTE: usize = 2;

/// Fixed allowance per decode for the small, length-independent
/// vectors (empty id lists, the error paths).
const ALLOC_SLACK: usize = 64;

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
            // members, roster, pending joins, pending leaves, dropped.
            prefixes: &[(42, 4), (62, 3), (78, 1), (86, 0), (90, 1)],
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

/// What the corpus saw: mutants accepted and rejected.
#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

impl Tally {
    /// Decodes one mutant under every assertion of the module docs and
    /// returns the decoder's verdict.
    fn decode(&mut self, input: &[u8], what: &str) -> Result<JournalRecord, CodecError> {
        let before = ALLOCATED.with(Cell::get);
        let outcome = std::panic::catch_unwind(|| JournalRecord::decode(input));
        let allocated = ALLOCATED.with(Cell::get) - before;
        let verdict = outcome.unwrap_or_else(|_| panic!("{what}: decode panicked"));
        let bound = ALLOC_BYTES_PER_INPUT_BYTE * input.len() + ALLOC_SLACK;
        assert!(
            allocated <= bound,
            "{what}: a {}-byte input allocated {allocated} bytes (bound {bound})",
            input.len()
        );
        match &verdict {
            Ok(record) => {
                assert_eq!(
                    record.encode(),
                    input,
                    "{what}: accepted bytes that re-encode differently"
                );
                self.accepted += 1;
            }
            Err(_) => self.rejected += 1,
        }
        verdict
    }
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
            if let Ok(record) = tally.decode(&mutant, &what) {
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
            assert!(tally.decode(&bytes[..cut], &what).is_err(), "{what}");
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
                let verdict = tally.decode(&mutant, &what);
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
            let verdict = tally.decode(&mutant, &what);
            if tag == bytes[TAG_AT] {
                assert_eq!(verdict.as_ref(), Ok(&sample.record), "{what}");
            } else if ![0x01, 0x08, 0x09].contains(&tag) {
                // Unknown and retired tags alike, `0x02`–`0x07` included.
                assert_eq!(verdict, Err(CodecError::BadTag(tag)), "{what}");
            } else {
                assert!(verdict.is_err(), "{what}: read as another kind");
            }
        }
    }
    assert_eq!(tally.accepted, 4);
}
