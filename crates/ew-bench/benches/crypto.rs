//! Criterion benchmarks for the cryptographic substrate: the §7.1
//! latency claims (OPRF mapping < 500 ms, weekly blinding derivation)
//! plus the primitives underneath them.

use criterion::{black_box, criterion_group, Criterion};
use ew_bigint::{random_below, random_odd_bits, MontgomeryCtx};
use ew_crypto::blinding::{BlindingGenerator, BlindingParams};
use ew_crypto::dh::DhKeyPair;
use ew_crypto::directory::KeyDirectory;
use ew_crypto::group::ModpGroup;
use ew_crypto::hmac::hmac_sha256;
use ew_crypto::oprf::{OprfClient, OprfServerKey};
use ew_crypto::sha256::Sha256;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xABu8; 1024];
    c.bench_function("sha256_1KiB", |b| {
        b.iter(|| black_box(Sha256::digest(black_box(&data))))
    });
}

fn bench_hmac(c: &mut Criterion) {
    let key = [0x42u8; 32];
    let msg = vec![0x17u8; 256];
    c.bench_function("hmac_sha256_256B", |b| {
        b.iter(|| black_box(hmac_sha256(black_box(&key), black_box(&msg))))
    });
}

fn bench_modpow(c: &mut Criterion) {
    // The raw lever under everything else: Montgomery vs. the generic
    // multiply-then-long-divide ladder, at both deployment widths.
    let mut rng = StdRng::seed_from_u64(7);
    for bits in [1024usize, 2048] {
        let m = random_odd_bits(&mut rng, bits);
        let base = random_below(&mut rng, &m);
        let exp = random_below(&mut rng, &m);
        let ctx = MontgomeryCtx::new(&m);
        let mut group = c.benchmark_group(format!("modpow_{bits}"));
        group.sample_size(20);
        group.bench_function("montgomery", |b| {
            b.iter(|| black_box(ctx.modpow(black_box(&base), black_box(&exp))))
        });
        group.bench_function("generic", |b| {
            b.iter(|| black_box(base.modpow_generic(black_box(&exp), &m)))
        });
        group.finish();
    }
}

fn bench_oprf_batch(c: &mut Criterion) {
    // The weekly wake-up: 32 distinct new ad URLs mapped in one batch
    // (one shared blinding inversion, hot server CRT context).
    let mut rng = StdRng::seed_from_u64(8);
    let server = OprfServerKey::generate(&mut rng, 2048);
    let client = OprfClient::new(server.public().clone());
    let urls: Vec<Vec<u8>> = (0..32)
        .map(|i| format!("https://adnet.example/creative/{i:08x}").into_bytes())
        .collect();
    let url_refs: Vec<&[u8]> = urls.iter().map(|u| u.as_slice()).collect();
    let mut group = c.benchmark_group("oprf_batch_32");
    group.sample_size(10);
    group.bench_function("rsa_2048", |b| {
        b.iter(|| {
            let pendings = client.blind_batch(&mut rng, &url_refs).expect("blindable");
            let blinded: Vec<_> = pendings.iter().map(|p| p.blinded.clone()).collect();
            let responses = server.evaluate_blinded_batch(&blinded).expect("valid");
            for (pending, resp) in pendings.iter().zip(&responses) {
                black_box(client.finalize(pending, resp).expect("unblinds"));
            }
        })
    });
    group.finish();
}

fn bench_oprf_roundtrip(c: &mut Criterion) {
    // The §7.1 claim: URL -> ad-ID mapping always under 500 ms.
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("oprf_roundtrip");
    group.sample_size(20);
    for bits in [512usize, 1024, 2048] {
        let server = OprfServerKey::generate(&mut rng, bits);
        let client = OprfClient::new(server.public().clone());
        let url = b"https://adnet3.example/creative/00bada55";
        group.bench_function(format!("rsa_{bits}"), |b| {
            b.iter(|| {
                let pending = client.blind(&mut rng, url).expect("blindable");
                let resp = server.evaluate_blinded(&pending.blinded).expect("valid");
                black_box(client.finalize(&pending, &resp).expect("unblinds"))
            })
        });
    }
    group.finish();
}

fn bench_dh_modp2048(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let group_2048 = ModpGroup::modp_2048();
    let mut group = c.benchmark_group("dh");
    group.sample_size(20);
    group.bench_function("keygen_modp2048", |b| {
        b.iter(|| black_box(DhKeyPair::generate(&group_2048, &mut rng)))
    });
    let alice = DhKeyPair::generate(&group_2048, &mut rng);
    let bob = DhKeyPair::generate(&group_2048, &mut rng);
    group.bench_function("shared_secret_modp2048", |b| {
        b.iter(|| black_box(alice.shared_secret(&group_2048, bob.public())))
    });
    group.finish();
}

fn bench_blinding_vector(c: &mut Criterion) {
    // Per-round blinding derivation for a 100-peer cohort and the
    // paper's 5k-cell sketch (pure hashing; DH setup amortized out).
    let mut rng = StdRng::seed_from_u64(3);
    let group_small = ModpGroup::generate(&mut rng, 64);
    let mut dir = KeyDirectory::new(group_small.element_len());
    let mut pairs = Vec::new();
    for id in 0..100u32 {
        let kp = DhKeyPair::generate(&group_small, &mut rng);
        dir.publish(id, kp.public().clone());
        pairs.push(kp);
    }
    let generator = BlindingGenerator::new(&group_small, 0, &pairs[0], &dir);
    let mut group = c.benchmark_group("blinding");
    group.sample_size(20);
    group.bench_function("vector_100peers_5000cells", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            black_box(generator.blinding_vector(BlindingParams {
                round,
                num_cells: 5_000,
            }))
        })
    });
    group.finish();
}

fn bench_sha256_multilane(c: &mut Criterion) {
    // The lane dividend in isolation: eight independent 128-byte
    // messages hashed one at a time vs. interleaved 8-wide. The laned
    // path is what the blinding expansion rides on.
    let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i.wrapping_mul(37); 128]).collect();
    let refs: [&[u8]; 8] = std::array::from_fn(|i| msgs[i].as_slice());
    let mut group = c.benchmark_group("sha256_multilane");
    group.bench_function("scalar_8x128B", |b| {
        b.iter(|| {
            for m in &refs {
                black_box(Sha256::digest(black_box(m)));
            }
        })
    });
    group.bench_function("lanes8_8x128B", |b| {
        b.iter(|| black_box(ew_crypto::sha256::digest_lanes(black_box(&refs))))
    });
    group.finish();
}

fn bench_blinding_multiweek(c: &mut Criterion) {
    // The multi-week client workload: each iteration runs two weekly
    // rounds of (report blinding + recovery adjustment for a 10%
    // dropout) over fresh round numbers. "warm" retains streams in the
    // per-generator cache, so the adjustment rederivation and any
    // same-round reuse hit cached bytes; "cold" recomputes everything.
    let mut rng = StdRng::seed_from_u64(4);
    let group_small = ModpGroup::generate(&mut rng, 64);
    let mut dir = KeyDirectory::new(group_small.element_len());
    let mut pairs = Vec::new();
    for id in 0..100u32 {
        let kp = DhKeyPair::generate(&group_small, &mut rng);
        dir.publish(id, kp.public().clone());
        pairs.push(kp);
    }
    let missing = [3u32, 11, 17, 28, 42, 55, 61, 76, 83, 97];
    let mut group = c.benchmark_group("blinding_multiweek");
    group.sample_size(20);
    for (name, cache_rounds) in [("cold", 0usize), ("warm", 2)] {
        let mut generator = BlindingGenerator::new(&group_small, 0, &pairs[0], &dir);
        generator.enable_cache(cache_rounds);
        let mut blinding = Vec::new();
        let mut adjustment = Vec::new();
        group.bench_function(name, |b| {
            let mut round = 0u64;
            b.iter(|| {
                for _ in 0..2 {
                    round += 1;
                    let params = BlindingParams {
                        round,
                        num_cells: 5_000,
                    };
                    generator.blinding_vector_into(params, &mut blinding);
                    generator.adjustment_vector_into(params, &missing, &mut adjustment);
                    black_box((&blinding, &adjustment));
                }
            })
        });
    }
    group.finish();
}

fn bench_blinding_churn(c: &mut Criterion) {
    // The multi-week workload under membership churn: every week 10 of
    // the 100 peers rotate out of the roster and 10 new ones rotate in.
    // "churn_resync" keeps one long-lived generator and incrementally
    // syncs it to each week's directory — only the joiners pay DH and
    // HMAC-midstate setup, survivors keep their cached streams.
    // "churn_rebuild" reconstructs the generator from scratch each week
    // (the pre-coordinator world: 100 shared-secret derivations), so
    // the gap between the two is what epoch-aware sync buys.
    let mut rng = StdRng::seed_from_u64(5);
    let group_small = ModpGroup::generate(&mut rng, 64);
    let me = DhKeyPair::generate(&group_small, &mut rng);
    let pool: Vec<DhKeyPair> = (0..110)
        .map(|_| DhKeyPair::generate(&group_small, &mut rng))
        .collect();
    // One directory per distinct rotation position (the 10-peer shift
    // over a 110-peer pool cycles after 11 weeks).
    let dirs: Vec<KeyDirectory> = (0..11usize)
        .map(|w| {
            let mut dir = KeyDirectory::new(group_small.element_len());
            dir.publish(0, me.public().clone());
            for k in 0..100usize {
                let id = (w * 10 + k) % pool.len();
                dir.publish(id as u32 + 1, pool[id].public().clone());
            }
            dir
        })
        .collect();

    let missing = [7u32, 23, 41, 59, 88];
    let mut group = c.benchmark_group("blinding_multiweek");
    group.sample_size(20);

    {
        let mut generator = BlindingGenerator::new(&group_small, 0, &me, &dirs[0]);
        generator.enable_cache(2);
        let mut blinding = Vec::new();
        let mut adjustment = Vec::new();
        let mut week = 0u64;
        group.bench_function("churn_resync", |b| {
            b.iter(|| {
                for _ in 0..2 {
                    week += 1;
                    let dir = &dirs[week as usize % dirs.len()];
                    black_box(generator.sync_directory(&group_small, &me, dir));
                    let params = BlindingParams {
                        round: week,
                        num_cells: 5_000,
                    };
                    generator.blinding_vector_into(params, &mut blinding);
                    generator.adjustment_vector_into(params, &missing, &mut adjustment);
                    black_box((&blinding, &adjustment));
                }
            })
        });
    }
    {
        let mut blinding = Vec::new();
        let mut adjustment = Vec::new();
        let mut week = 0u64;
        group.bench_function("churn_rebuild", |b| {
            b.iter(|| {
                for _ in 0..2 {
                    week += 1;
                    let dir = &dirs[week as usize % dirs.len()];
                    let generator = BlindingGenerator::new(&group_small, 0, &me, dir);
                    let params = BlindingParams {
                        round: week,
                        num_cells: 5_000,
                    };
                    generator.blinding_vector_into(params, &mut blinding);
                    generator.adjustment_vector_into(params, &missing, &mut adjustment);
                    black_box((&blinding, &adjustment));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_modpow,
    bench_oprf_roundtrip,
    bench_oprf_batch,
    bench_dh_modp2048,
    bench_blinding_vector,
    bench_sha256_multilane,
    bench_blinding_multiweek,
    bench_blinding_churn
);

fn main() {
    // The blinding/multilane rows depend on which instantiation of the
    // SHA-256 lane kernel this CPU gets; say so before any number.
    println!("blinding hash tier: {}", ew_crypto::hmac::expansion_tier());
    benches();
}
