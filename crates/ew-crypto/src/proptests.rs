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

/// Counter-mode expansion straight from its definition:
/// `T_first || T_{first+1} || …` with `T_i = HMAC(key, info || be32(i))`,
/// truncated to `len`.
fn per_counter_hmac(key: &[u8], info: &[u8], first: u32, len: usize) -> Vec<u8> {
    let mut want = Vec::with_capacity(len + 32);
    let mut counter = first;
    while want.len() < len {
        let mut msg = info.to_vec();
        msg.extend_from_slice(&counter.to_be_bytes());
        want.extend_from_slice(&crate::hmac::hmac_sha256(key, &msg));
        counter = counter.wrapping_add(1);
    }
    want.truncate(len);
    want
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
    fn hmac_expand_equals_per_counter_hmac(
        key in proptest::collection::vec(any::<u8>(), 0..80),
        info in proptest::collection::vec(any::<u8>(), 0..70),
        len in 0usize..600,
    ) {
        // The laned/midstate expansion against the definition: for any
        // key and info (spanning the single-block fast path and the
        // long-info fallback) and any length (spanning lane remainders
        // and truncated tails), out = T_0 || T_1 || … truncated.
        let got = crate::hmac::hmac_expand(&key, &info, len);
        prop_assert_eq!(got, per_counter_hmac(&key, &info, 0, len));
    }

    #[test]
    fn hmac_expand_tiers_agree_at_any_first_counter(
        key in proptest::collection::vec(any::<u8>(), 0..201),
        info in proptest::collection::vec(any::<u8>(), 0..81),
        len in 0usize..2049,
        first in any::<u32>(),
    ) {
        // Whatever tier the dispatch picks on this CPU, the plain tier
        // (what every other CPU runs) and the definition agree, from
        // any starting counter. `len` is at most 64 blocks.
        use crate::hmac::{expand_portable, hmac_expand_multi_at, HmacKey, LANE_INFO_MAX};
        let first = first.min(u32::MAX - 63);
        let hkey = HmacKey::new(&key);
        let mut got = vec![0u8; len];
        hmac_expand_multi_at(&hkey, &info, first, &mut got);
        if info.len() <= LANE_INFO_MAX {
            let mut plain = vec![0u8; len];
            expand_portable(&hkey, &info, first, &mut plain);
            prop_assert_eq!(&plain, &got);
        }
        prop_assert_eq!(got, per_counter_hmac(&key, &info, first, len));
    }

    #[test]
    fn cached_blinding_streams_equal_cold_for_any_round_schedule(
        rounds in proptest::collection::vec((any::<u64>(), 1usize..50), 1..6),
        seed in any::<u64>(),
    ) {
        // Any sequence of (round, num_cells) requests — including
        // repeats that hit the cache and growing cell counts that
        // extend streams in place — matches a cache-less generator.
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
