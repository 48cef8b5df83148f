//! Property tests for the wire layer: arbitrary messages round-trip
//! through codec + framing, under any fragmentation, and corruption is
//! always either detected or yields a structurally valid message.

use crate::envelope::{Envelope, NodeId};
use crate::framing::{encode_frame, FrameDecoder};
use crate::message::{AdmissionHint, Message};
use crate::transport::channel_pair;
use proptest::prelude::*;

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(user, public_key)| Message::PublishKey { user, public_key }),
        (
            any::<u64>(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8)
        )
            .prop_map(|(request_id, blinded)| Message::OprfBatchRequest {
                request_id,
                blinded
            }),
        (
            any::<u64>(),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..8)
        )
            .prop_map(|(request_id, elements)| Message::OprfBatchResponse {
                request_id,
                elements
            }),
        (
            any::<u32>(),
            any::<u64>(),
            1u32..32,
            1u32..64,
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..256)
        )
            .prop_map(|(user, round, depth, width, seed, cells)| Message::Report {
                user,
                round,
                depth,
                width,
                seed,
                cells
            }),
        (any::<u64>(), proptest::collection::vec(any::<u32>(), 0..32))
            .prop_map(|(round, users)| Message::MissingClients { round, users }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..256)
        )
            .prop_map(|(user, round, cells)| Message::Adjustment { user, round, cells }),
        (any::<u64>(), any::<f64>()).prop_map(|(round, users_threshold)| {
            Message::ThresholdBroadcast {
                round,
                users_threshold,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(round, ad)| Message::UsersQuery { round, ad }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(round, ad, estimate)| {
            Message::UsersReply {
                round,
                ad,
                estimate,
            }
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(user, epoch)| Message::Join { user, epoch }),
        (any::<u32>(), any::<u64>()).prop_map(|(user, epoch)| Message::Leave { user, epoch }),
        (
            any::<u32>(),
            proptest::collection::vec(0x20u8..0x7F, 0..40),
            prop_oneof![
                Just(None),
                (any::<u64>(), any::<u64>())
                    .prop_map(|(epoch, retry_after)| Some(AdmissionHint { epoch, retry_after })),
            ]
        )
            .prop_map(|(code, detail, hint)| Message::Error {
                code,
                detail: String::from_utf8(detail).expect("printable ASCII"),
                hint,
            }),
    ]
}

fn arb_sender() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        any::<u32>().prop_map(NodeId::Client),
        Just(NodeId::Backend),
        Just(NodeId::Oprf),
        Just(NodeId::Coordinator),
    ]
}

proptest! {
    #[test]
    fn codec_roundtrip(msg in arb_message()) {
        // NaN thresholds don't compare equal; normalize for comparison.
        let decoded = Message::decode(&msg.encode()).unwrap();
        match (&msg, &decoded) {
            (
                Message::ThresholdBroadcast { round: r1, users_threshold: t1 },
                Message::ThresholdBroadcast { round: r2, users_threshold: t2 },
            ) => {
                prop_assert_eq!(r1, r2);
                prop_assert_eq!(t1.to_bits(), t2.to_bits());
            }
            _ => prop_assert_eq!(&decoded, &msg),
        }
    }

    #[test]
    fn trailing_bytes_never_decode(
        msg in arb_message(),
        tail in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        // Every kind is corruption-strict: no tail, of any length or
        // content, decodes.
        let mut encoded = msg.encode();
        encoded.extend_from_slice(&tail);
        prop_assert!(Message::decode(&encoded).is_err());
    }

    #[test]
    fn endpoint_puts_the_plain_frame_on_the_link(
        msg in arb_message(),
        sender in arb_sender(),
        round in any::<u64>(),
    ) {
        // The single-buffer send path writes byte for byte what framing
        // the finished encoding would.
        let env = Envelope::new(sender, round, msg);
        let (mut a, mut b) = channel_pair(None);
        a.send_envelope(&env).unwrap();
        prop_assert_eq!(b.recv_raw(), Some(encode_frame(&env.encode())));
        prop_assert_eq!(b.recv_raw(), None);
    }

    #[test]
    fn framing_roundtrip_any_fragmentation(
        msg in arb_message(),
        chunk in 1usize..97,
    ) {
        let frame = encode_frame(&msg.encode());
        let mut dec = FrameDecoder::new();
        let mut out = None;
        for piece in frame.chunks(chunk) {
            dec.extend(piece);
            if let Ok(Some(payload)) = dec.next_frame() {
                out = Some(payload);
            }
        }
        let payload = out.expect("frame must complete");
        prop_assert_eq!(payload, msg.encode());
    }

    #[test]
    fn multiple_frames_in_one_buffer(msgs in proptest::collection::vec(arb_message(), 1..5)) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(&m.encode()));
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        let mut count = 0;
        while let Ok(Some(_)) = dec.next_frame() {
            count += 1;
        }
        prop_assert_eq!(count, msgs.len());
    }

    #[test]
    fn single_bit_corruption_never_panics_or_misdecodes_silently(
        msg in arb_message(),
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let mut frame = encode_frame(&msg.encode());
        let idx = ((frame.len() - 1) as f64 * byte_frac) as usize;
        frame[idx] ^= 1 << bit;
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        // Any outcome except a panic is acceptable; a payload that comes
        // back clean must checksum-match, i.e. the flip was in header
        // padding that resynced to a valid frame (impossible for a
        // single frame) or in the *length/magic* region causing resync.
        if let Ok(Some(payload)) = dec.next_frame() {
            // If a payload decodes, it must decode as *some* valid
            // message or error out cleanly — never panic.
            let _ = Message::decode(&payload);
        }
    }

    #[test]
    fn decoder_survives_arbitrary_noise(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = FrameDecoder::new();
        dec.extend(&noise);
        for _ in 0..8 {
            let _ = dec.next_frame();
        }
        // And a real frame afterwards still gets through eventually
        // (possibly after resync errors).
        let msg = Message::UsersQuery { round: 1, ad: 2 };
        dec.extend(&encode_frame(&msg.encode()));
        let mut found = false;
        for _ in 0..16 {
            if let Ok(Some(payload)) = dec.next_frame() {
                if Message::decode(&payload) == Ok(msg.clone()) {
                    found = true;
                    break;
                }
            }
        }
        prop_assert!(found, "valid frame after noise must decode");
    }
}
