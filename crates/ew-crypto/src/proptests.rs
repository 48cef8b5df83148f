//! Property tests across the crypto layer: blinding cancellation for
//! arbitrary cohorts/rounds, OPRF correctness over arbitrary inputs,
//! and hash-to-group range discipline.
//!
//! Cohorts use a fixed small DH group and a fixed RSA key (generated
//! once) so the properties, not key generation, dominate runtime.

use crate::blinding::{apply_blinding, BlindingGenerator, BlindingParams};
use crate::dh::DhKeyPair;
use crate::directory::KeyDirectory;
use crate::group::ModpGroup;
use crate::oprf::{hash_to_zn, OprfClient, OprfServerKey};
use crate::rsa::RsaKeyPair;
use ew_bigint::{random_below, UBig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn shared_group() -> &'static ModpGroup {
    static GROUP: OnceLock<ModpGroup> = OnceLock::new();
    GROUP.get_or_init(|| ModpGroup::generate(&mut StdRng::seed_from_u64(1000), 48))
}

fn shared_oprf() -> &'static OprfServerKey {
    static KEY: OnceLock<OprfServerKey> = OnceLock::new();
    KEY.get_or_init(|| OprfServerKey::generate(&mut StdRng::seed_from_u64(1001), 96))
}

/// A small pool of RSA keys of assorted sizes, generated once; the CRT
/// differential property samples across all of them.
fn shared_rsa_keys() -> &'static [RsaKeyPair] {
    static KEYS: OnceLock<Vec<RsaKeyPair>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(1002);
        [64usize, 96, 128, 192]
            .into_iter()
            .map(|bits| RsaKeyPair::generate(&mut rng, bits))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blindings_cancel_for_any_cohort(
        n in 2u32..7,
        round in any::<u64>(),
        cells in 1usize..40,
        seed in any::<u64>(),
    ) {
        let group = shared_group();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir = KeyDirectory::new(group.element_len());
        let pairs: Vec<DhKeyPair> = (0..n)
            .map(|id| {
                let kp = DhKeyPair::generate(group, &mut rng);
                dir.publish(id, kp.public().clone());
                kp
            })
            .collect();
        let mut sum = vec![0u32; cells];
        for (i, kp) in pairs.iter().enumerate() {
            let g = BlindingGenerator::new(group, i as u32, kp, &dir);
            apply_blinding(
                &mut sum,
                &g.blinding_vector(BlindingParams { round, num_cells: cells }),
            );
        }
        prop_assert!(sum.iter().all(|&c| c == 0));
    }

    #[test]
    fn adjustments_equal_pairwise_residue(
        round in any::<u64>(),
        cells in 1usize..20,
        seed in any::<u64>(),
    ) {
        // For a 3-cohort where client 2 goes missing, the sum of the
        // reporting clients' blindings equals the sum of their
        // adjustments against {2}.
        let group = shared_group();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir = KeyDirectory::new(group.element_len());
        let pairs: Vec<DhKeyPair> = (0..3u32)
            .map(|id| {
                let kp = DhKeyPair::generate(group, &mut rng);
                dir.publish(id, kp.public().clone());
                kp
            })
            .collect();
        let params = BlindingParams { round, num_cells: cells };
        let gens: Vec<BlindingGenerator> = pairs
            .iter()
            .enumerate()
            .map(|(i, kp)| BlindingGenerator::new(group, i as u32, kp, &dir))
            .collect();
        let mut blind_sum = vec![0u32; cells];
        let mut adj_sum = vec![0u32; cells];
        for g in &gens[..2] {
            apply_blinding(&mut blind_sum, &g.blinding_vector(params));
            apply_blinding(&mut adj_sum, &g.adjustment_vector(params, &[2]));
        }
        prop_assert_eq!(blind_sum, adj_sum);
    }

    #[test]
    fn oprf_roundtrip_any_input(input in proptest::collection::vec(any::<u8>(), 0..128), seed in any::<u64>()) {
        let server = shared_oprf();
        let client = OprfClient::new(server.public().clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let pending = client.blind(&mut rng, &input).unwrap();
        let resp = server.evaluate_blinded(&pending.blinded).unwrap();
        prop_assert_eq!(
            client.finalize(&pending, &resp).unwrap(),
            server.evaluate_direct(&input)
        );
    }

    #[test]
    fn crt_private_op_matches_plain_modpow(key_idx in 0usize..4, seed in any::<u64>()) {
        // The CRT fast path (two half-width Montgomery exponentiations
        // + Garner) must agree with x^d mod N computed directly, for
        // random keys and inputs including the degenerate corners.
        let key = &shared_rsa_keys()[key_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_below(&mut rng, &key.public().n);
        prop_assert_eq!(key.private_op(&x), key.private_op_no_crt(&x));
        prop_assert_eq!(key.private_op(&UBig::zero()), UBig::zero());
        prop_assert_eq!(key.private_op(&UBig::one()), UBig::one());
    }

    #[test]
    fn batch_blinding_equals_single_blinding_protocol(
        count in 1usize..6,
        seed in any::<u64>(),
    ) {
        // blind_batch must produce pendings that unblind to the same
        // PRF outputs the one-at-a-time protocol yields.
        let server = shared_oprf();
        let client = OprfClient::new(server.public().clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<Vec<u8>> = (0..count)
            .map(|i| format!("ad-{seed}-{i}").into_bytes())
            .collect();
        let input_refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let pendings = client.blind_batch(&mut rng, &input_refs).unwrap();
        let responses = server
            .evaluate_blinded_batch(
                &pendings.iter().map(|p| p.blinded.clone()).collect::<Vec<_>>(),
            )
            .unwrap();
        for ((input, pending), response) in inputs.iter().zip(&pendings).zip(&responses) {
            prop_assert_eq!(
                client.finalize(pending, response).unwrap(),
                server.evaluate_direct(input)
            );
        }
    }

    #[test]
    fn hash_to_zn_always_in_range(input in proptest::collection::vec(any::<u8>(), 0..64)) {
        let server = shared_oprf();
        let h = hash_to_zn(&input, server.public());
        prop_assert!(h < server.public().n);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        use crate::sha256::Sha256;
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_from_midstates_equals_rfc_2104_for_any_key_and_message(
        key in proptest::collection::vec(any::<u8>(), 0..300),
        message in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // Keys on both sides of the 64-byte block (a MODP-2048 secret is
        // 256 bytes, hashed first) and messages on both sides of the
        // 55-byte one-block tail, against RFC 2104 spelled out.
        use crate::hmac::HmacKey;
        use crate::sha256::Sha256;
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&Sha256::digest(&key));
        } else {
            key_block[..key.len()].copy_from_slice(&key);
        }
        let pad = |byte: u8| key_block.map(|k| k ^ byte);
        let inner = Sha256::digest_parts(&[&pad(0x36), &message]);
        let want = Sha256::digest_parts(&[&pad(0x5c), &inner]);
        prop_assert_eq!(HmacKey::new(&key).mac(&message), want);
    }

    #[test]
    fn sha256_lanes_equal_scalar_for_any_length(
        len in 0usize..300,
        seed in any::<u64>(),
    ) {
        // Eight distinct messages of one random length (covering both
        // one- and two-block padding tails) through the 8- and 4-lane
        // compressors versus the scalar hasher.
        use crate::sha256::{digest_lanes, Sha256};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<Vec<u8>> = (0..8).map(|_| (0..len).map(|_| rng.gen()).collect()).collect();
        let refs8: [&[u8]; 8] = std::array::from_fn(|l| msgs[l].as_slice());
        let refs4: [&[u8]; 4] = std::array::from_fn(|l| msgs[l].as_slice());
        let got8 = digest_lanes::<8>(&refs8);
        let got4 = digest_lanes::<4>(&refs4);
        for l in 0..8 {
            prop_assert_eq!(got8[l], Sha256::digest(&msgs[l]));
        }
        for l in 0..4 {
            prop_assert_eq!(got4[l], Sha256::digest(&msgs[l]));
        }
    }

    #[test]
    fn keystream_equals_aes_ctr_blocks_for_any_key_and_length(
        key in proptest::collection::vec(any::<u32>(), 8..9),
        len in 0usize..1100,
        negate in any::<bool>(),
    ) {
        // Whatever tier the dispatch picks on this CPU: cell m gains (or
        // loses) LE word m % 4 of AES-256 of le128(m / 4), on the
        // portable block function.
        use crate::keystream::{add_keystream, aes256_block};
        let key: [u32; 8] = key.try_into().unwrap();
        let mut got = vec![0x5A5A_5A5Au32; len];
        add_keystream(&key, negate, &mut got);
        for (m, cell) in got.iter().enumerate() {
            let word = aes256_block(&key, [(m / 4) as u32, 0, 0, 0])[m % 4];
            let want = if negate {
                0x5A5A_5A5Au32.wrapping_sub(word)
            } else {
                0x5A5A_5A5Au32.wrapping_add(word)
            };
            prop_assert_eq!(*cell, want, "cell {}", m);
        }
    }

    #[test]
    fn cached_blinding_streams_equal_cold_for_any_round_schedule(
        rounds in proptest::collection::vec((any::<u64>(), 1usize..50), 1..6),
        seed in any::<u64>(),
    ) {
        // Any sequence of (round, num_cells) requests — repeats, revisited
        // rounds and growing cell counts — through one generator with the
        // accepted-and-ignored cache knob set matches a plain generator:
        // nothing a derivation leaves behind is observable in the next.
        let group = shared_group();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir = KeyDirectory::new(group.element_len());
        let pairs: Vec<DhKeyPair> = (0..3u32)
            .map(|id| {
                let kp = DhKeyPair::generate(group, &mut rng);
                dir.publish(id, kp.public().clone());
                kp
            })
            .collect();
        let cold = BlindingGenerator::new(group, 0, &pairs[0], &dir);
        let mut warm = BlindingGenerator::new(group, 0, &pairs[0], &dir);
        warm.enable_cache(2);
        for &(round, num_cells) in &rounds {
            let params = BlindingParams { round, num_cells };
            prop_assert_eq!(cold.blinding_vector(params), warm.blinding_vector(params));
            prop_assert_eq!(
                cold.adjustment_vector(params, &[2]),
                warm.adjustment_vector(params, &[2])
            );
        }
    }
}
