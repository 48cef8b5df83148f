//! Isolated probes of each substrate crate's public functions, at the
//! sizes the workload's world uses. They run beside the decorated
//! cycles of a traced run and give the per-layer rows that spans around
//! role boundaries cannot: what one `modpow`, one HMAC block, one journal
//! append costs on this machine, in this build.
//!
//! Every probe reports the fastest of a few fixed-size batches: the work
//! is deterministic, so the fastest batch is the one the machine
//! disturbed least.

use crate::stages::Runner;
use crate::world::{ENROLL_PEERS, KEY_SEED, PEER_ID_BASE, URLS_PER_BATCH};
use ew_bigint::{random_below, random_bits, UBig};
use ew_core::{Detector, DetectorConfig, GlobalView, UserCounters};
use ew_crypto::blinding::{BlindingGenerator, BlindingParams};
use ew_crypto::dh::DhKeyPair;
use ew_crypto::group::ModpGroup;
use ew_crypto::hmac::hmac_sha256;
use ew_crypto::oprf::OprfClient;
use ew_crypto::sha256::{digest_lanes, Sha256};
use ew_proto::crc32::crc32;
use ew_proto::framing::{encode_frame, FrameDecoder};
use ew_proto::{channel_pair, Envelope, JournalEvent, JournalRecord, Message, NodeId};
use ew_sketch::{BlindedSketch, CountMinSketch, SketchAccumulator};
use ew_system::journal::RoundLog;
use ew_system::node::ClientNode;
use ew_system::{Coordinator, EpochConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call: the fastest of `batches` batches of `calls`.
fn best_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let started = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// Like [`best_ns`] for calls that consume an input: `prepare` runs
/// outside the clock, once per call.
fn best_ns_with<T>(batches: usize, mut prepare: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let input = prepare();
        let started = Instant::now();
        f(input);
        best = best.min(started.elapsed().as_nanos() as f64);
    }
    best
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (ns * 1e-9)
}

/// What [`calibration_ms`] takes on a quiet run of the machine this
/// benchmark was written on. Timings are reported at that speed.
pub const CALIBRATION_REFERENCE_MS: f64 = 6.0;

/// Iterations of eight rounds each in one [`calibration_ms`] call.
const CALIBRATION_ITERATIONS: u32 = 200_000;

/// One SHA-256-shaped round on named registers: a four-word message
/// schedule step, then the compression step. The caller rotates the
/// names, so no value ever moves.
macro_rules! calibration_round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $near:ident, $far:ident, $k:expr) => {
        $w = $w
            .wrapping_add($near.rotate_right(7) ^ $near.rotate_right(18) ^ ($near >> 3))
            .wrapping_add($far.rotate_right(17) ^ $far.rotate_right(19) ^ ($far >> 10));
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// The fixed register-only kernel behind `harness.calib_ms`: 1.6 million
/// SHA-256-shaped rounds over eight state words and a four-word message
/// schedule, twelve values that never leave the registers. It is the
/// harness's own code — no change to the program can move it — and it is
/// throughput-bound like the program's hot loops, so whatever slows those
/// down on a shared machine (a busy sibling hardware thread, mostly)
/// slows it down about as much. A latency-bound chain would not: a
/// xorshift chain tried first moved 5 % over minutes in which a round
/// moved 40 %.
///
/// Never inlined, a long unrolled body and no indexed memory: an earlier
/// kernel that indexed a sixteen-word schedule on the stack took 4.1 ms
/// in one build of this package and 6.0 ms in the next, and every
/// normalised timing moved with it. Run side by side over twelve minutes
/// in which the machine's speed drifted by 15 %, both kernels followed
/// the stages' p10s with a correlation of 0.9 or better.
#[inline(never)]
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h]: [u32; 8] = black_box([
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ]);
    let [mut w0, mut w1, mut w2, mut w3]: [u32; 4] =
        black_box([0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5]);
    for _ in 0..CALIBRATION_ITERATIONS {
        calibration_round!(a, b, c, d, e, f, g, h, w0, w1, w3, 0x3956_c25b);
        calibration_round!(h, a, b, c, d, e, f, g, w1, w2, w0, 0x59f1_11f1);
        calibration_round!(g, h, a, b, c, d, e, f, w2, w3, w1, 0x923f_82a4);
        calibration_round!(f, g, h, a, b, c, d, e, w3, w0, w2, 0xab1c_5ed5);
        calibration_round!(e, f, g, h, a, b, c, d, w0, w1, w3, 0xd807_aa98);
        calibration_round!(d, e, f, g, h, a, b, c, w1, w2, w0, 0x1283_5b01);
        calibration_round!(c, d, e, f, g, h, a, b, w2, w3, w1, 0x2431_85be);
        calibration_round!(b, c, d, e, f, g, h, a, w3, w0, w2, 0x550c_7dc3);
    }
    black_box([a, b, c, d, e, f, g, h, w0, w1, w2, w3]);
    started.elapsed().as_secs_f64() * 1e3
}

/// `ew-bigint.*`: always at 2048 bits (RFC 3526 group 14), whatever the
/// world's key size — these are the rows `enroll_ms` and `map_ad_ms` of
/// `client_journey_2048` decompose into.
fn bigint(out: &mut Vec<(&'static str, f64)>) {
    let group = ModpGroup::modp_2048();
    let ctx = group.ctx();
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let base = random_below(&mut rng, group.modulus());
    let other = random_below(&mut rng, group.modulus());
    let exp = random_bits(&mut rng, 2047);
    out.push((
        "ew-bigint.modpow_2048_us",
        best_ns(5, 3, || {
            black_box(ctx.modpow(black_box(&base), &exp));
        }) / 1e3,
    ));
    out.push((
        "ew-bigint.mulmod_2048_ns",
        best_ns(5, 2_000, || {
            black_box(ctx.mulmod(black_box(&base), &other));
        }),
    ));
    out.push((
        "ew-bigint.fixed_base_pow_us",
        best_ns(5, 6, || {
            black_box(group.pow_g(black_box(&exp)));
        }) / 1e3,
    ));
    let values: Vec<UBig> = (0..URLS_PER_BATCH)
        .map(|_| random_below(&mut rng, group.modulus()))
        .collect();
    out.push((
        "ew-bigint.batch_inv_32_us",
        best_ns(5, 3, || {
            black_box(ctx.batch_inv(black_box(&values)));
        }) / 1e3,
    ));
}

/// `ew-crypto.dh.*` and `ew-crypto.blinding.setup_ms`, in the world's
/// group against the world's 24-peer directory.
fn dh(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let world = &runner.world;
    let (batches, calls) = if world.shape.paper_crypto {
        (4, 2)
    } else {
        (5, 200)
    };
    let mut rng = StdRng::seed_from_u64(world.seed);
    out.push((
        "ew-crypto.dh.keygen_us",
        best_ns(batches, calls, || {
            black_box(DhKeyPair::generate(&world.group, &mut rng));
        }) / 1e3,
    ));
    let pair = DhKeyPair::generate(&world.group, &mut rng);
    let peer = world
        .peers
        .get(PEER_ID_BASE)
        .expect("the peer directory is never empty");
    out.push((
        "ew-crypto.dh.shared_secret_us",
        best_ns(batches, calls, || {
            black_box(pair.shared_secret(&world.group, black_box(peer)));
        }) / 1e3,
    ));
    out.push((
        "ew-crypto.blinding.setup_ms",
        best_ns(3, calls.div_ceil(8), || {
            black_box(BlindingGenerator::new(
                &world.group,
                PEER_ID_BASE + ENROLL_PEERS,
                &pair,
                &world.peers,
            ));
        }) / 1e6,
    ));
}

/// The OPRF's three steps and the server's envelope handler, per ad of a
/// 32-URL batch, at the world's RSA size.
fn oprf(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let world = &runner.world;
    let service = &world.oprf;
    let client = OprfClient::new(service.public().clone());
    let mut rng = StdRng::seed_from_u64(world.seed);
    let urls: Vec<String> = (0..URLS_PER_BATCH)
        .map(|i| format!("https://probe.example/creative/{:x}-{i:x}", world.seed))
        .collect();
    let inputs: Vec<&[u8]> = urls.iter().map(String::as_bytes).collect();
    let per_ad = |ns: f64| ns / 1e3 / URLS_PER_BATCH as f64;
    let calls = if world.shape.paper_crypto { 1 } else { 20 };

    out.push((
        "ew-crypto.oprf.blind_us_per_ad",
        per_ad(best_ns(4, calls, || {
            black_box(
                client
                    .blind_batch(&mut rng, black_box(&inputs))
                    .expect("valid modulus"),
            );
        })),
    ));
    let pending = client
        .blind_batch(&mut rng, &inputs)
        .expect("valid modulus");
    let blinded: Vec<UBig> = pending.iter().map(|p| p.blinded.clone()).collect();
    out.push((
        "ew-crypto.oprf.evaluate_us_per_ad",
        per_ad(best_ns(4, calls, || {
            black_box(
                service
                    .evaluate_batch(black_box(&blinded))
                    .expect("reduced elements"),
            );
        })),
    ));
    let responses = service.evaluate_batch(&blinded).expect("reduced elements");
    out.push((
        "ew-crypto.oprf.finalize_us_per_ad",
        per_ad(best_ns(4, calls * 4, || {
            for (p, r) in pending.iter().zip(&responses) {
                black_box(client.finalize(p, black_box(r)).expect("response in range"));
            }
        })),
    ));
    let request = Message::OprfBatchRequest {
        request_id: 1,
        blinded: blinded.iter().map(UBig::to_bytes_be).collect(),
    };
    out.push((
        "ew-system.oprf_server.handle_batch_us_per_ad",
        per_ad(best_ns(4, calls, || {
            black_box(service.handle(black_box(&request)));
        })),
    ));
}

/// The blinding layer at the world's cell count against 24 peers: a cold
/// full vector, a warm adjustment over two missing peers, an incremental
/// directory sync — and the hash primitives underneath.
fn blinding(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let world = &runner.world;
    let cells = world.spec.params.num_cells();
    let mut rng = StdRng::seed_from_u64(world.seed);
    let pair = DhKeyPair::generate(&world.group, &mut rng);
    let me = PEER_ID_BASE + ENROLL_PEERS;
    let cold = BlindingGenerator::new(&world.group, me, &pair, &world.peers);
    let mut round = 0u64;
    let mut vector = Vec::new();
    out.push((
        "ew-crypto.blinding.vector_ns_per_peer_cell",
        best_ns(5, 2, || {
            round += 1;
            cold.blinding_vector_into(
                BlindingParams {
                    round,
                    num_cells: cells,
                },
                &mut vector,
            );
            black_box(&vector);
        }) / (ENROLL_PEERS as usize * cells) as f64,
    ));

    let mut warm = cold.clone();
    warm.enable_cache(2);
    let params = BlindingParams {
        round: 1,
        num_cells: cells,
    };
    black_box(warm.blinding_vector(params));
    let missing = [PEER_ID_BASE, PEER_ID_BASE + 1];
    out.push((
        "ew-crypto.blinding.adjustment_ns_per_peer_cell",
        best_ns(5, 8, || {
            warm.adjustment_vector_into(params, black_box(&missing), &mut vector);
            black_box(&vector);
        }) / (missing.len() * cells) as f64,
    ));

    // Two peers leave, two join: the per-epoch churn of `churn_campaign`.
    let mut next = world.peers.clone();
    for (gone, new) in missing.iter().zip([me + 1, me + 2]) {
        next.withdraw(*gone);
        next.publish(
            new,
            DhKeyPair::generate(&world.group, &mut rng).public().clone(),
        );
    }
    let batches = if world.shape.paper_crypto { 3 } else { 20 };
    out.push((
        "ew-crypto.blinding.sync_us_per_peer",
        best_ns_with(
            batches,
            || warm.clone(),
            |mut generator| {
                black_box(generator.sync_directory(&world.group, &pair, &next));
            },
        ) / 1e3
            / missing.len() as f64,
    ));

    let key = [0x5Au8; 32];
    let message = [0xA5u8; 256];
    out.push((
        "ew-crypto.hmac.hmac_256B_ns",
        best_ns(5, 2_000, || {
            black_box(hmac_sha256(black_box(&key), &message));
        }),
    ));
    let block = vec![0x3Cu8; 64 << 10];
    out.push((
        "ew-crypto.sha256.mb_per_s",
        mb_per_s(
            block.len(),
            best_ns(5, 8, || {
                black_box(Sha256::digest(black_box(&block)));
            }),
        ),
    ));
    let lane = &block[..8 << 10];
    let lanes: [&[u8]; 8] = [lane; 8];
    out.push((
        "ew-crypto.sha256.lanes8_mb_per_s",
        mb_per_s(
            8 * lane.len(),
            best_ns(5, 8, || {
                black_box(digest_lanes(black_box(&lanes)));
            }),
        ),
    ));
}

/// `ew-system.client.adjustment_ms`: a cohort client's recovery reply for
/// two missing peers, right after it built that round's report.
fn client(runner: &mut Runner, out: &mut Vec<(&'static str, f64)>) {
    let round = runner.fresh_round();
    let world = &runner.world;
    let client = world.clients.last().expect("the cohort is never empty");
    black_box(client.report_envelope(world.spec.params, round));
    out.push((
        "ew-system.client.adjustment_ms",
        best_ns(5, 4, || {
            black_box(client.adjustment(world.spec.params, round, black_box(&[0, 1])));
        }) / 1e6,
    ));
}

/// The sketch layer at the world's dimensions.
fn sketch(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let params = runner.world.spec.params;
    let cells = params.num_cells();
    let mut sketch = CountMinSketch::new(params);
    let mut item = 0u64;
    out.push((
        "ew-sketch.cms.update_ns",
        best_ns(5, 20_000, || {
            item += 1;
            sketch.update(black_box(item));
        }),
    ));
    out.push((
        "ew-sketch.cms.query_ns",
        best_ns(5, 20_000, || {
            item += 1;
            black_box(sketch.query(black_box(item)));
        }),
    ));
    let report = BlindedSketch::from_raw(params, (0..cells as u32).collect());
    let mut accumulator = SketchAccumulator::new(params);
    out.push((
        "ew-sketch.accumulator.add_ns_per_cell",
        best_ns(5, 64, || {
            accumulator.add(black_box(&report));
        }) / cells as f64,
    ));
    let other = accumulator.clone();
    out.push((
        "ew-sketch.accumulator.merge_ns_per_cell",
        best_ns(5, 64, || {
            accumulator.merge(black_box(&other));
        }) / cells as f64,
    ));
}

/// Codec, framing, checksum, transport and journal-record encoding, on
/// one of the world's recorded report envelopes.
fn proto(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let report = &runner.world.recorded.reports[0];
    out.push((
        "ew-proto.envelope.encode_us",
        best_ns(5, 32, || {
            black_box(black_box(report).encode());
        }) / 1e3,
    ));
    let payload = report.encode();
    out.push((
        "ew-proto.envelope.decode_us",
        best_ns(5, 32, || {
            black_box(Envelope::decode(black_box(&payload)).expect("own encoding"));
        }) / 1e3,
    ));
    out.push((
        "ew-proto.framing.encode_frame_us",
        best_ns(5, 32, || {
            black_box(encode_frame(black_box(&payload)));
        }) / 1e3,
    ));
    let frame = encode_frame(&payload);
    out.push((
        "ew-proto.framing.decode_frame_us",
        best_ns(5, 32, || {
            let mut decoder = FrameDecoder::new();
            decoder.extend(black_box(&frame));
            black_box(decoder.next_frame().expect("own frame"));
        }) / 1e3,
    ));
    out.push((
        "ew-proto.crc32.mb_per_s",
        mb_per_s(
            payload.len(),
            best_ns(5, 32, || {
                black_box(crc32(black_box(&payload)));
            }),
        ),
    ));
    let (mut left, mut right) = channel_pair(None);
    out.push((
        "ew-proto.transport.roundtrip_us",
        best_ns(5, 32, || {
            left.send_envelope(black_box(report)).expect("peer alive");
            black_box(right.try_recv_envelope().expect("clean link"));
        }) / 1e3,
    ));
    let record = JournalRecord {
        seq: 1,
        event: JournalEvent::Absorbed {
            shard: 0,
            envelope: report.clone(),
        },
    };
    out.push((
        "ew-proto.journal.record_encode_us",
        best_ns(5, 32, || {
            black_box(black_box(&record).encode());
        }) / 1e3,
    ));
}

/// The round log on the world's recorded report wave: appending it,
/// replaying one shard's share, snapshotting it away.
fn journal(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let world = &runner.world;
    let reports = &world.recorded.reports;
    let wave = || -> Vec<JournalEvent> {
        reports
            .iter()
            .map(|envelope| JournalEvent::Absorbed {
                shard: match envelope.sender {
                    NodeId::Client(id) => world.spec.map.owner_of(id),
                    _ => 0,
                },
                envelope: envelope.clone(),
            })
            .collect()
    };
    let mut log = RoundLog::new();
    out.push((
        "ew-system.journal.append_us",
        best_ns_with(5, wave, |events| {
            log.open();
            for event in events {
                log.append(event);
            }
        }) / 1e3
            / reports.len() as f64,
    ));
    out.push((
        "ew-system.journal.replay_for_shard_us",
        best_ns(5, 4, || {
            black_box(log.replay_for_shard(black_box(0)));
        }) / 1e3,
    ));
    out.push((
        "ew-system.journal.snapshot_us",
        best_ns_with(
            5,
            || {
                let mut log = RoundLog::new();
                for event in wave() {
                    log.append(event);
                }
                log
            },
            |mut log| {
                log.snapshot(Vec::new());
                black_box(log.depth());
            },
        ) / 1e3,
    ));
}

/// The epoch coordinator alone, over the world's campaign roster: one
/// tick of the epoch walk, one checkpoint, one restore.
fn coordinator(runner: &Runner, out: &mut Vec<(&'static str, f64)>) {
    let shape = runner.world.shape.campaign;
    let config = EpochConfig::default()
        .with_min_clients(crate::world::CAMPAIGN_MIN_CLIENTS)
        .with_grace_ticks(crate::world::CAMPAIGN_GRACE_TICKS);
    let fresh = || {
        let mut coordinator = Coordinator::new(config);
        for user in 0..shape.roster {
            coordinator.register_join(user);
        }
        coordinator
    };
    // Twelve ticks walk one whole epoch (admission, warmup, reports,
    // recovery, finalize, grace) under the default deadlines.
    const TICKS: u64 = 12;
    out.push((
        "ew-system.coordinator.tick_us",
        best_ns_with(20, fresh, |mut coordinator| {
            for now in 1..=TICKS {
                black_box(coordinator.tick(now));
            }
        }) / 1e3
            / TICKS as f64,
    ));
    let mut coordinator = fresh();
    coordinator.tick(1);
    out.push((
        "ew-system.coordinator.checkpoint_us",
        best_ns(5, 200, || {
            black_box(coordinator.checkpoint());
        }) / 1e3,
    ));
    let checkpoint = coordinator.checkpoint();
    out.push((
        "ew-system.coordinator.restore_us",
        best_ns(5, 200, || {
            black_box(Coordinator::restore(config, black_box(&checkpoint)));
        }) / 1e3,
    ));
}

/// The detector and the view builder behind `audit_us` and the finalize
/// sweep.
fn core(runner: &mut Runner, out: &mut Vec<(&'static str, f64)>) {
    let roster = runner.roster.clone();
    let view = runner.refs.view(&roster).clone();
    let detector = Detector::new(DetectorConfig::default());
    let mut counters = UserCounters::new();
    let ads: Vec<u64> = view
        .sorted_estimates()
        .iter()
        .map(|&(ad, _)| ad)
        .take(64)
        .collect();
    for (i, &ad) in ads.iter().enumerate() {
        for domain in 0..=(i % 5) as u64 {
            counters.observe(ad, domain);
        }
    }
    let mut next = 0usize;
    out.push((
        "ew-core.detector.classify_ns",
        best_ns(5, 4_000, || {
            next = (next + 1) % ads.len();
            black_box(detector.classify(&counters, black_box(ads[next]), &view));
        }),
    ));
    let estimates = view.sorted_estimates();
    out.push((
        "ew-core.global.from_estimates_us",
        best_ns(5, 8, || {
            black_box(GlobalView::from_estimates(
                black_box(&estimates).iter().copied(),
                view.policy(),
            ));
        }) / 1e3,
    ));
}

/// Runs every probe against the runner's world.
pub fn run_all(runner: &mut Runner) -> Vec<(&'static str, f64)> {
    let mut out = Vec::with_capacity(48);
    bigint(&mut out);
    dh(runner, &mut out);
    oprf(runner, &mut out);
    blinding(runner, &mut out);
    client(runner, &mut out);
    sketch(runner, &mut out);
    proto(runner, &mut out);
    journal(runner, &mut out);
    coordinator(runner, &mut out);
    core(runner, &mut out);
    out
}
