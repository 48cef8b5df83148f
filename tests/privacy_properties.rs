//! Privacy-property tests across the crypto/sketch boundary: individual
//! reports reveal nothing, blindings cancel exactly, the OPRF hides its
//! input, and the recovery round never resurrects individual data.

use eyewnder::bigint::UBig;
use eyewnder::crypto::blinding::{BlindingGenerator, BlindingParams};
use eyewnder::crypto::dh::DhKeyPair;
use eyewnder::crypto::directory::KeyDirectory;
use eyewnder::crypto::group::ModpGroup;
use eyewnder::crypto::oprf::{OprfClient, OprfServerKey};
use eyewnder::sketch::{BlindedSketch, CmsParams, CountMinSketch, SketchAccumulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cohort(n: u32, seed: u64) -> (ModpGroup, Vec<BlindingGenerator>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = ModpGroup::generate(&mut rng, 64);
    let mut dir = KeyDirectory::new(group.element_len());
    let pairs: Vec<DhKeyPair> = (0..n)
        .map(|id| {
            let kp = DhKeyPair::generate(&group, &mut rng);
            dir.publish(id, kp.public().clone());
            kp
        })
        .collect();
    let gens = pairs
        .iter()
        .enumerate()
        .map(|(i, kp)| BlindingGenerator::new(&group, i as u32, kp, &dir))
        .collect();
    (group, gens)
}

#[test]
fn single_report_looks_unrelated_to_its_cleartext() {
    let (_g, gens) = cohort(8, 1);
    let params = CmsParams::new(3, 128, 5);

    // Two very different browsing weeks...
    let mut heavy = CountMinSketch::new(params);
    for ad in 0..200u64 {
        heavy.update(ad);
    }
    let light = CountMinSketch::new(params); // nothing at all

    // ...produce blinded reports that are both "random-looking":
    let b_heavy = BlindedSketch::from_sketch(heavy.clone(), &gens[0], 1);
    let b_light = BlindedSketch::from_sketch(light.clone(), &gens[0], 1);

    let nonzero =
        |cells: &[u32]| cells.iter().filter(|&&c| c != 0).count() as f64 / cells.len() as f64;
    // Even the *empty* report is almost entirely non-zero cells.
    assert!(nonzero(b_light.cells()) > 0.95);
    assert!(nonzero(b_heavy.cells()) > 0.95);
    // And neither equals its cleartext.
    assert_ne!(b_heavy.cells(), heavy.cells());
    assert_ne!(b_light.cells(), light.cells());
}

#[test]
fn aggregate_recovers_exactly_what_merge_would() {
    let (_g, gens) = cohort(6, 2);
    let params = CmsParams::new(4, 64, 9);
    let round = 4;

    let mut clear = CountMinSketch::new(params);
    let mut acc = SketchAccumulator::new(params);
    for (i, g) in gens.iter().enumerate() {
        let mut s = CountMinSketch::new(params);
        for ad in 0..(10 + i as u64) {
            s.update(ad * 3);
        }
        clear.merge(&s);
        acc.add(&BlindedSketch::from_sketch(s, g, round));
    }
    assert_eq!(acc.finalize(0).cells(), clear.cells());
}

#[test]
fn recovery_only_cancels_blinding_never_reveals_more() {
    let (_g, gens) = cohort(5, 3);
    let params = CmsParams::new(2, 32, 1);
    let round = 9;
    let missing = [4u32];

    // Missing client 4 had data; it must NOT appear in the recovered
    // aggregate (its report never arrived — recovery only fixes the
    // blinding algebra).
    let mut clear_reporting = CountMinSketch::new(params);
    let mut acc = SketchAccumulator::new(params);
    for (i, g) in gens.iter().enumerate().take(4) {
        let mut s = CountMinSketch::new(params);
        s.update(i as u64);
        clear_reporting.merge(&s);
        acc.add(&BlindedSketch::from_sketch(s, g, round));
    }
    let bp = BlindingParams {
        round,
        num_cells: params.num_cells(),
    };
    for g in gens.iter().take(4) {
        acc.subtract_adjustment(&g.adjustment_vector(bp, &missing));
    }
    let recovered = acc.finalize(0);
    assert_eq!(recovered.cells(), clear_reporting.cells());
    // Client 4's ad (id 4) was never reported; exact zero in aggregate.
    assert_eq!(recovered.query(4), 0);
}

#[test]
fn oprf_requests_for_same_url_are_unlinkable() {
    let mut rng = StdRng::seed_from_u64(4);
    let server = OprfServerKey::generate(&mut rng, 128);
    let client = OprfClient::new(server.public().clone());
    let url = b"https://adnet.example/sensitive-health-ad";

    let p1 = client.blind(&mut rng, url).unwrap();
    let p2 = client.blind(&mut rng, url).unwrap();
    // What the server sees differs every time...
    assert_ne!(p1.blinded, p2.blinded);
    // ...yet the client derives the same stable ad ID.
    let r1 = server.evaluate_blinded(&p1.blinded).unwrap();
    let r2 = server.evaluate_blinded(&p2.blinded).unwrap();
    assert_eq!(
        client.finalize(&p1, &r1).unwrap(),
        client.finalize(&p2, &r2).unwrap()
    );
}

#[test]
fn backend_without_oprf_key_cannot_map_urls() {
    // The backend knows (N, e) but not d: the only public way to get an
    // ad's ID requires the oprf-server's participation. Verify that the
    // honest mapping differs from what a curious backend could compute
    // on its own with only public parameters (hash + public op).
    let mut rng = StdRng::seed_from_u64(5);
    let server = OprfServerKey::generate(&mut rng, 128);
    let url = b"https://adnet.example/creative/1";

    let honest = server.evaluate_direct(url);
    // Curious-backend attempt: G(H(x)^e) using only public material.
    let h = eyewnder::crypto::oprf::hash_to_zn(url, server.public());
    let guess_element = h.modpow(&server.public().e, &server.public().n);
    let guess = eyewnder::crypto::oprf::output_hash(&guess_element, server.public());
    assert_ne!(honest, guess);
}

#[test]
fn blinding_depends_on_round_preventing_replay_correlation() {
    let (_g, gens) = cohort(3, 6);
    let params = CmsParams::new(2, 16, 2);
    let sketch = CountMinSketch::new(params);
    let week1 = BlindedSketch::from_sketch(sketch.clone(), &gens[0], 1);
    let week2 = BlindedSketch::from_sketch(sketch, &gens[0], 2);
    // Same (empty) data, different rounds: reports must not repeat.
    assert_ne!(week1.cells(), week2.cells());
}

#[test]
fn directory_withdrawal_changes_future_blinding_cohort() {
    let mut rng = StdRng::seed_from_u64(7);
    let group = ModpGroup::generate(&mut rng, 64);
    let mut dir = KeyDirectory::new(group.element_len());
    let pairs: Vec<DhKeyPair> = (0..4)
        .map(|id| {
            let kp = DhKeyPair::generate(&group, &mut rng);
            dir.publish(id, kp.public().clone());
            kp
        })
        .collect();
    let with_all = BlindingGenerator::new(&group, 0, &pairs[0], &dir);
    dir.withdraw(3);
    let without_3 = BlindingGenerator::new(&group, 0, &pairs[0], &dir);
    assert_eq!(with_all.peer_count(), 3);
    assert_eq!(without_3.peer_count(), 2);
    let bp = BlindingParams {
        round: 1,
        num_cells: 8,
    };
    assert_ne!(with_all.blinding_vector(bp), without_3.blinding_vector(bp));
}

#[test]
fn public_keys_on_the_board_are_group_elements() {
    let mut rng = StdRng::seed_from_u64(8);
    let group = ModpGroup::generate(&mut rng, 64);
    for _ in 0..10 {
        let kp = DhKeyPair::generate(&group, &mut rng);
        assert!(kp.public() < group.modulus());
        assert!(kp.public() > &UBig::one());
        // Member of the order-q subgroup: y^q == 1.
        assert_eq!(group.pow(kp.public(), group.order()), UBig::one());
    }
}
