//! A mutation corpus over `FrameDecoder`, the stream reader in front of
//! every envelope a node takes off a link. The input is one stream of
//! three `encode_frame` frames (a 2 × 32-cell report, an adjustment and
//! a missing-clients list), mutated by every single-bit flip, every
//! truncation, each frame's `u32` length set to `u32::MAX`,
//! `MAX_FRAME_PAYLOAD + 1` and one past the end of the stream, and each
//! frame's magic corrupted. Every mutant is fed three ways — whole, one
//! byte at a time, and in seeded random chunks — draining the decoder
//! after every chunk. For every mutant:
//!
//! * decoding does not panic, and the three feedings see the same
//!   results;
//! * every payload handed out is byte-equal to an original payload, in
//!   stream order, none twice;
//! * every intact frame the damage does not cover is still handed out:
//!   the frames before the damaged one, and those after it that start
//!   past the extent its (possibly damaged) header announces;
//! * the decoder never buffers more than it was fed, retains nothing
//!   it handed out, and allocates at most
//!   [`ALLOC_BYTES_PER_STREAM_BYTE`] bytes per input byte plus
//!   [`ALLOC_SLACK`].
//!
//! The counting allocator lives in `corpus/mod.rs`, shared with the
//! journal record and envelope corpora.

mod corpus;

use corpus::allocated_by;
use ew_proto::framing::{encode_frame, MAX_FRAME_PAYLOAD};
use ew_proto::{Envelope, FrameDecoder, FrameError, Message, NodeId, MAGIC};

/// Magic (2) and length (4).
const HEADER_LEN: usize = 6;
/// The CRC-32 trailer.
const TRAILER_LEN: usize = 4;
/// Bytes the decoder may allocate per stream byte. Its buffer grows by
/// doubling and each payload is copied out once: the largest ratio,
/// 4.5 ×, is the intact stream fed one byte at a time.
const ALLOC_BYTES_PER_STREAM_BYTE: usize = 5;
/// Fixed allowance per stream: the result vectors' first allocations.
const ALLOC_SLACK: usize = 256;

/// The sample stream: three frames back to back.
struct Stream {
    bytes: Vec<u8>,
    payloads: Vec<Vec<u8>>,
    /// Where each frame starts, and the stream's length last.
    starts: Vec<usize>,
}

fn stream() -> Stream {
    let envelopes = [
        Envelope::new(
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
        ),
        Envelope::new(
            NodeId::Client(5),
            12,
            Message::Adjustment {
                user: 5,
                round: 12,
                cells: (0..16).map(|i| !i).collect(),
            },
        ),
        Envelope::new(
            NodeId::Backend,
            12,
            Message::MissingClients {
                round: 12,
                users: vec![1, 5, 9],
            },
        ),
    ];
    let payloads: Vec<Vec<u8>> = envelopes.iter().map(Envelope::encode).collect();
    let (mut bytes, mut starts) = (Vec::new(), Vec::new());
    for payload in &payloads {
        starts.push(bytes.len());
        bytes.extend_from_slice(&encode_frame(payload));
    }
    starts.push(bytes.len());
    Stream {
        bytes,
        payloads,
        starts,
    }
}

/// How a stream reaches the decoder.
#[derive(Clone, Copy, Debug)]
enum Feed {
    Whole,
    Bytes,
    /// Chunks of 1–37 bytes drawn from an LCG with this seed.
    Random(u64),
}

const FEEDS: [Feed; 3] = [Feed::Whole, Feed::Bytes, Feed::Random(0xF2A3)];

/// What the decoder made of a stream.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every result before the decoder asked for more bytes after the
    /// last chunk.
    results: Vec<Result<Vec<u8>, FrameError>>,
    /// Bytes still buffered at the end.
    buffered: usize,
}

fn chunks(bytes: &[u8], feed: Feed) -> Vec<&[u8]> {
    match feed {
        Feed::Whole => vec![bytes],
        Feed::Bytes => bytes.chunks(1).collect(),
        Feed::Random(mut x) => {
            let mut out = Vec::new();
            let mut rest = bytes;
            while !rest.is_empty() {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let take = ((x >> 33) as usize % 37 + 1).min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                out.push(chunk);
                rest = tail;
            }
            out
        }
    }
}

/// Feeds `bytes` to a fresh decoder, checking the buffer and allocation
/// bounds on the way.
fn run(bytes: &[u8], feed: Feed, what: &str) -> Outcome {
    let chunks = chunks(bytes, feed);
    let decode = || {
        let mut dec = FrameDecoder::new();
        let (mut results, mut fed) = (Vec::new(), 0);
        for chunk in chunks {
            dec.extend(chunk);
            fed += chunk.len();
            while let Some(result) = dec.next_frame().transpose() {
                results.push(result);
            }
            assert!(dec.buffered() <= fed, "{what}: buffered past what was fed");
        }
        Outcome {
            results,
            buffered: dec.buffered(),
        }
    };
    let (outcome, allocated) = allocated_by(|| std::panic::catch_unwind(decode));
    let outcome = outcome.unwrap_or_else(|_| panic!("{what} ({feed:?}): the decoder panicked"));
    let bound = ALLOC_BYTES_PER_STREAM_BYTE * bytes.len() + ALLOC_SLACK;
    assert!(
        allocated <= bound,
        "{what} ({feed:?}): a {}-byte stream allocated {allocated} bytes (bound {bound})",
        bytes.len()
    );
    outcome
}

/// Runs `mutant` under every feeding and checks what all mutants
/// share; returns the indices of the sample frames handed out.
fn check(sample: &Stream, mutant: &[u8], what: &str) -> (Vec<usize>, Outcome) {
    let outcome = run(mutant, Feed::Whole, what);
    for feed in &FEEDS[1..] {
        assert_eq!(
            run(mutant, *feed, what),
            outcome,
            "{what}: {feed:?} differs from whole"
        );
    }
    let yielded: Vec<usize> = outcome
        .results
        .iter()
        .filter_map(|result| result.as_ref().ok())
        .map(|payload| {
            sample
                .payloads
                .iter()
                .position(|original| original == payload)
                .unwrap_or_else(|| panic!("{what}: handed out a payload never sent"))
        })
        .collect();
    assert!(
        yielded.windows(2).all(|w| w[0] < w[1]),
        "{what}: payloads out of order or twice: {yielded:?}"
    );
    // What was handed out is gone from the buffer.
    if let Some(&last) = yielded.last() {
        assert!(
            outcome.buffered <= mutant.len() - sample.starts[last + 1],
            "{what}: kept bytes it handed out"
        );
    }
    (yielded, outcome)
}

/// The frames of `sample` that must survive damage to frame `k` of
/// `mutant`: those before it, and those after it that start at or past
/// the extent its header announces (just past the magic when the
/// length is over the limit; the next frame when the magic is gone).
fn survivors(sample: &Stream, mutant: &[u8], k: usize) -> Vec<usize> {
    let start = sample.starts[k];
    let resume = if mutant[start..start + 2] != MAGIC.to_le_bytes() {
        sample.starts[k + 1]
    } else {
        let len = u32::from_le_bytes(mutant[start + 2..start + 6].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            start + 2
        } else {
            start + HEADER_LEN + len + TRAILER_LEN
        }
    };
    (0..sample.payloads.len())
        .filter(|&j| j < k || (j > k && sample.starts[j] >= resume))
        .collect()
}

/// The frame that holds byte `at`.
fn frame_of(sample: &Stream, at: usize) -> usize {
    sample.starts.iter().rposition(|&s| s <= at).unwrap()
}

#[test]
fn the_sample_stream_decodes_and_resyncs_only_at_frame_starts() {
    let sample = stream();
    let (yielded, outcome) = check(&sample, &sample.bytes, "intact");
    assert_eq!(yielded, [0, 1, 2]);
    assert_eq!(outcome.results.len(), 3);
    assert_eq!(outcome.buffered, 0);
    // No magic inside a payload or a trailer: a resync lands on a frame
    // boundary, which is what `survivors` assumes.
    let magics: Vec<usize> = sample
        .bytes
        .windows(2)
        .enumerate()
        .filter(|(_, w)| *w == MAGIC.to_le_bytes())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(magics, sample.starts[..3]);
}

#[test]
fn every_single_bit_flip_drops_only_its_frame() {
    let sample = stream();
    let mut checksum_rejects = 0;
    for bit in 0..8 * sample.bytes.len() {
        let mut mutant = sample.bytes.clone();
        mutant[bit / 8] ^= 1 << (bit % 8);
        let k = frame_of(&sample, bit / 8);
        let what = format!("bit {bit} (frame {k})");
        let (yielded, outcome) = check(&sample, &mutant, &what);
        assert!(
            !yielded.contains(&k),
            "{what}: the damaged frame was handed out"
        );
        for j in survivors(&sample, &mutant, k) {
            assert!(yielded.contains(&j), "{what}: intact frame {j} was lost");
        }
        if bit / 8 >= sample.starts[k] + HEADER_LEN {
            // Past the header the frame is read where it lies and its
            // checksum fails: exactly one reject, every other frame.
            let errors: Vec<_> = outcome.results.iter().filter(|r| r.is_err()).collect();
            assert_eq!(errors, [&Err(FrameError::BadChecksum)], "{what}");
            assert_eq!(yielded.len(), 2, "{what}");
            checksum_rejects += 1;
        }
    }
    assert!(checksum_rejects > 0);
}

#[test]
fn every_truncation_hands_out_exactly_the_whole_frames() {
    let sample = stream();
    for cut in 0..sample.bytes.len() {
        let what = format!("cut at {cut}");
        let (yielded, outcome) = check(&sample, &sample.bytes[..cut], &what);
        let whole: Vec<usize> = (0..3).filter(|&j| sample.starts[j + 1] <= cut).collect();
        assert_eq!(yielded, whole, "{what}");
        assert_eq!(outcome.results.len(), whole.len(), "{what}: no rejects");
        let consumed = sample.starts[whole.len()];
        assert_eq!(
            outcome.buffered,
            cut - consumed,
            "{what}: waits on the partial frame"
        );
    }
}

#[test]
fn inflated_lengths_are_rejected_or_waited_on() {
    let sample = stream();
    for k in 0..3 {
        let at = sample.starts[k] + 2;
        let past_end = (sample.bytes.len() - at - 4 - TRAILER_LEN + 1) as u32;
        for len in [u32::MAX, MAX_FRAME_PAYLOAD as u32 + 1, past_end] {
            let mut mutant = sample.bytes.clone();
            mutant[at..at + 4].copy_from_slice(&len.to_le_bytes());
            let what = format!("frame {k} length set to {len}");
            let (yielded, outcome) = check(&sample, &mutant, &what);
            assert_eq!(yielded, survivors(&sample, &mutant, k), "{what}");
            if len == past_end {
                // The frame runs past the stream: the decoder waits on
                // it, holding the rest of the stream and no more.
                assert!(outcome.results.iter().all(Result::is_ok), "{what}");
                assert_eq!(outcome.buffered, mutant.len() - sample.starts[k], "{what}");
            } else {
                assert!(
                    outcome
                        .results
                        .contains(&Err(FrameError::Oversize(len as usize))),
                    "{what}: {:?}",
                    outcome.results
                );
                assert!(outcome.buffered <= 1, "{what}: at most half a magic left");
            }
        }
    }
}

#[test]
fn a_corrupted_magic_skips_only_its_frame() {
    let sample = stream();
    for k in 0..3 {
        let at = sample.starts[k];
        let mut mutant = sample.bytes.clone();
        mutant[at..at + 2].copy_from_slice(&(!MAGIC).to_le_bytes());
        let what = format!("frame {k} magic corrupted");
        let (yielded, outcome) = check(&sample, &mutant, &what);
        let others: Vec<usize> = (0..3).filter(|&j| j != k).collect();
        assert_eq!(yielded, others, "{what}");
        assert!(
            outcome.results.iter().all(Result::is_ok),
            "{what}: skipped silently"
        );
    }
}
