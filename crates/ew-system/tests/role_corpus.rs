//! A mutation corpus over the roles' wire handlers, `Client::on_envelope`,
//! `OprfService::on_envelope`, `ClusterBackend`'s
//! `AggregationBackend::on_envelope` and `Coordinator::on_envelope`: the
//! envelope corpus's mutations — every single-bit flip, every
//! truncation, three inflated values per `u32` length prefix, all 256
//! message tags and all 256 sender tags — applied to sample envelopes,
//! and every mutant that decodes handed to the role. The samples are a
//! `MissingClients` from the backend (what a client answers), an
//! `OprfBatchRequest` (what the OPRF service answers), a `Report` and an
//! `Adjustment` (what the backend absorbs), and a `Join` and a `Leave`
//! (what the coordinator registers). For every mutant:
//!
//! * decoding obeys the envelope corpus's rules (`corpus::Tally`);
//! * the role does not panic;
//! * its reply is `None`, the expected reply in full — the adjustment
//!   for exactly the peers the notice names, checked against the peers'
//!   own halves of each pairwise term, or a batch response each of whose
//!   elements the public key maps back to its request element — or a
//!   `Message::Error` with a live code (a backend's `RoundError` is
//!   answered with its `error_code`);
//! * the backend and the coordinator change their state exactly as the
//!   mutant says, or, when they refuse or ignore it, not at all;
//! * the client allocates at most twice the input, plus 4 bytes per
//!   sketch cell (an adjustment legitimately allocates its cells), plus
//!   64 bytes. The OPRF service allocates per element whatever the
//!   element's own length (≈ 220 bytes at RSA-128, so a batch of empty
//!   elements costs ≈ 53 × its bytes): it may allocate twice the input,
//!   plus 16 × `element_len` per element, plus 64 bytes. The backend
//!   and the coordinator may allocate twice the input plus 2 KiB: an
//!   accepted report or adjustment is journaled (the first one into
//!   empty structures), an accepted join or leave is a set entry, a
//!   refusal is a short error.
//!
//! The client's semantic cases — a notice from the wrong sender, from
//! another round, naming the client itself, naming a peer twice, naming
//! unknown ids, naming nobody, or sent to a client that never enrolled —
//! and one recorded finding (a notice naming every peer unblinds the
//! client's report) have tests of their own, and so has the OPRF
//! service's batch cap: a batch one element over it is refused within
//! the bound of an answer that converts nothing, and one at it is
//! served. The counting allocator and `Tally` are `ew-proto`'s, shared
//! through `#[path]`; the allocator is process-global, so this corpus
//! is a test binary of its own.

#[path = "../../ew-proto/tests/corpus/mod.rs"]
mod corpus;

use corpus::{allocated_by, Tally};
use ew_bigint::UBig;
use ew_core::ThresholdPolicy;
use ew_crypto::{KeyDirectory, ModpGroup};
use ew_proto::codec::MAX_FIELD_LEN;
use ew_proto::message::error_code;
use ew_proto::{
    CoordinatorCheckpoint, Envelope, EpochPhase, JournalEvent, JournalRecord, Message, NodeId,
    ShardMap,
};
use ew_sketch::{CmsParams, CountMinSketch};
use ew_system::{
    AdIdMapper, AggregationBackend, Client, ClientNode, ClusterBackend, Coordinator, EpochConfig,
    OprfFrontend, OprfService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The sender tag follows the version byte.
const SENDER_TAG_AT: usize = 1;
/// The message tag follows the 14-byte envelope header.
const MESSAGE_TAG_AT: usize = 14;

/// The client under test and its enrolled peers.
const CLIENT: u32 = 3;
const PEERS: [u32; 4] = [1, 5, 7, 9];
/// The round the samples name.
const ROUND: u64 = 12;
/// The epoch the coordinator under test is in.
const EPOCH: u64 = 1;
/// Shards of the backend under test.
const SHARDS: u32 = 4;
/// What the backend and the coordinator may allocate per answer beyond
/// twice the input. A fresh backend's first absorption grows its round
/// log and reported set from empty.
const SERVER_SLACK: usize = 2048;

/// The most elements the OPRF service evaluates in one batch
/// (`oprf_server::MAX_BATCH`, crate-private, mirrored here: the cap test
/// fails if the two differ).
const OPRF_BATCH_CAP: usize = 1024;

/// The error codes this build sends.
const LIVE_ERROR_CODES: [u32; 7] = [
    error_code::UNSUPPORTED_MESSAGE,
    error_code::OUT_OF_RANGE,
    error_code::NOT_READY,
    error_code::WRONG_SHARD,
    error_code::REJECTED_REPORT,
    error_code::NOT_ENROLLED,
    error_code::EPOCH_CLOSED,
];

/// A small world: the client, its peers (every one enrolled against the
/// same directory), a client with the same id that never enrolled, and
/// an OPRF service.
struct World {
    params: CmsParams,
    client: Client,
    peers: Vec<Client>,
    unenrolled: Client,
    oprf: OprfService,
}

fn world() -> World {
    let mut rng = StdRng::seed_from_u64(0xC0_4B05);
    let group = ModpGroup::generate(&mut rng, 64);
    let oprf = OprfService::generate(&mut rng, 128);
    let mapper = AdIdMapper::new(1 << 16);
    let new = |id| Client::new(id, &group, oprf.public().clone(), mapper, 7);
    let mut client = new(CLIENT);
    let mut peers: Vec<Client> = PEERS.into_iter().map(new).collect();
    let mut directory = KeyDirectory::new(group.element_len());
    for c in peers.iter().chain([&client]) {
        directory.publish(c.id(), c.public_key().clone());
    }
    client.setup_blinding(&group, &directory);
    for peer in &mut peers {
        peer.setup_blinding(&group, &directory);
    }
    World {
        params: CmsParams::new(2, 32, 1),
        client,
        peers,
        unenrolled: new(CLIENT),
        oprf,
    }
}

impl World {
    /// The client's adjustment for `users` at `round`, from the other
    /// end of each pair: a peer's adjustment for the client alone is its
    /// half of their pairwise term, and the client's half is its
    /// negation. Each enrolled peer counts once, however often `users`
    /// names it; every other id counts nothing.
    fn expected_adjustment(&self, round: u64, users: &[u32]) -> Vec<u32> {
        let mut cells = vec![0u32; self.params.num_cells()];
        for peer in self.peers.iter().filter(|p| users.contains(&p.id())) {
            let theirs = peer.adjustment(self.params, round, &[CLIENT]);
            for (c, t) in cells.iter_mut().zip(theirs) {
                *c = c.wrapping_sub(t);
            }
        }
        cells
    }

    /// The client's full answer to `env`: an adjustment for a backend's
    /// notice about the envelope's own round, nothing for anything else.
    fn expected_client_reply(&self, env: &Envelope) -> Option<Envelope> {
        match &env.msg {
            Message::MissingClients { round, users }
                if env.sender == NodeId::Backend && env.round == *round =>
            {
                Some(adjustment(*round, self.expected_adjustment(*round, users)))
            }
            _ => None,
        }
    }
}

/// The client's `Adjustment` envelope for `round`.
fn adjustment(round: u64, cells: Vec<u32>) -> Envelope {
    Envelope::new(
        NodeId::Client(CLIENT),
        round,
        Message::Adjustment {
            user: CLIENT,
            round,
            cells,
        },
    )
}

/// The backend's notice that `users` are missing from round `round`.
fn notice(round: u64, users: Vec<u32>) -> Envelope {
    Envelope::new(
        NodeId::Backend,
        round,
        Message::MissingClients { round, users },
    )
}

/// A sample envelope and its `u32` length prefixes, each as the byte
/// offset of the prefix and the length it announces.
struct Sample {
    envelope: Envelope,
    prefixes: &'static [(usize, u32)],
}

fn client_sample() -> Sample {
    // Names three of the four peers, so the answer is not the whole
    // blinding vector (see the finding below).
    Sample {
        envelope: notice(ROUND, vec![1, 5, 9]),
        prefixes: &[(23, 3)],
    }
}

fn oprf_sample() -> Sample {
    Sample {
        envelope: Envelope::new(
            NodeId::Client(7),
            0,
            Message::OprfBatchRequest {
                request_id: 43,
                blinded: vec![vec![0x11; 16], vec![], vec![0x22; 3]],
            },
        ),
        // The element count, then each element's length.
        prefixes: &[(23, 3), (27, 16), (47, 0), (51, 3)],
    }
}

/// The sketch cells of the backend samples: any values absorb.
fn sample_cells() -> Vec<u32> {
    (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect()
}

fn report_sample() -> Sample {
    Sample {
        envelope: Envelope::new(
            NodeId::Client(CLIENT),
            ROUND,
            Message::Report {
                user: CLIENT,
                round: ROUND,
                depth: 2,
                width: 32,
                seed: 1,
                cells: sample_cells(),
            },
        ),
        prefixes: &[(43, 64)],
    }
}

fn adjustment_sample() -> Sample {
    Sample {
        envelope: adjustment(ROUND, sample_cells()),
        prefixes: &[(27, 64)],
    }
}

fn join_sample() -> Sample {
    Sample {
        envelope: Envelope::new(
            NodeId::Client(CLIENT),
            0,
            Message::Join {
                user: CLIENT,
                epoch: EPOCH,
            },
        ),
        prefixes: &[],
    }
}

fn leave_sample() -> Sample {
    Sample {
        envelope: Envelope::new(
            NodeId::Client(5),
            ROUND,
            Message::Leave {
                user: 5,
                epoch: EPOCH,
            },
        ),
        prefixes: &[],
    }
}

/// Every mutant of a sample, each with a name for assertion messages.
fn mutants(sample: &Sample) -> Vec<(String, Vec<u8>)> {
    let bytes = sample.envelope.encode();
    let mut out = Vec::new();
    for bit in 0..8 * bytes.len() {
        let mut mutant = bytes.clone();
        mutant[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bit {bit}"), mutant));
    }
    for cut in 0..bytes.len() {
        out.push((format!("cut at {cut}"), bytes[..cut].to_vec()));
    }
    for &(at, _) in sample.prefixes {
        let remaining = (bytes.len() - at - 4) as u32;
        for len in [u32::MAX, MAX_FIELD_LEN as u32 + 1, remaining + 1] {
            let mut mutant = bytes.clone();
            mutant[at..at + 4].copy_from_slice(&len.to_le_bytes());
            out.push((format!("prefix at {at} set to {len}"), mutant));
        }
    }
    for (at, field) in [(MESSAGE_TAG_AT, "message"), (SENDER_TAG_AT, "sender")] {
        for tag in 0..=u8::MAX {
            let mut mutant = bytes.clone();
            mutant[at] = tag;
            out.push((format!("{field} tag {tag:#04x}"), mutant));
        }
    }
    out
}

/// What a role did with one envelope.
#[derive(Debug, PartialEq)]
enum Answer {
    Silent,
    /// A `Message::Error` with a live code.
    Error,
    Reply(Envelope),
}

/// Hands an envelope to `role` and checks the rules every role obeys: it
/// does not panic, it allocates at most `bound` bytes, and an error it
/// answers with carries a live code.
fn answer(bound: usize, what: &str, role: impl FnOnce() -> Option<Envelope>) -> Answer {
    let (outcome, allocated) = allocated_by(|| catch_unwind(AssertUnwindSafe(role)));
    let reply = outcome.unwrap_or_else(|_| panic!("{what}: the role panicked"));
    assert!(
        allocated <= bound,
        "{what}: allocated {allocated} bytes (bound {bound})"
    );
    match reply {
        None => Answer::Silent,
        Some(Envelope {
            msg: Message::Error { code, .. },
            ..
        }) => {
            assert!(
                LIVE_ERROR_CODES.contains(&code),
                "{what}: error code {code}"
            );
            Answer::Error
        }
        Some(reply) => Answer::Reply(reply),
    }
}

#[test]
fn samples_decode_and_their_prefixes_are_where_the_corpus_says() {
    for sample in [
        client_sample(),
        oprf_sample(),
        report_sample(),
        adjustment_sample(),
        join_sample(),
        leave_sample(),
    ] {
        let bytes = sample.envelope.encode();
        assert_eq!(Envelope::decode(&bytes).as_ref(), Ok(&sample.envelope));
        for &(at, len) in sample.prefixes {
            let field = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            assert_eq!(field, len, "{}: prefix at {at}", sample.envelope.msg.kind());
        }
    }
}

#[test]
fn every_client_mutant_is_ignored_or_answered_with_its_exact_adjustment() {
    let world = world();
    let mut tally = Tally::default();
    let mut answered = 0;
    for (what, input) in mutants(&client_sample()) {
        let Ok(env) = tally.decode::<Envelope>(&input, &what) else {
            continue;
        };
        let bound = 2 * input.len() + 4 * world.params.num_cells() + 64;
        let want = world.expected_client_reply(&env);
        answered += usize::from(want.is_some());
        assert_eq!(
            answer(bound, &what, || world
                .client
                .on_envelope(world.params, &env)),
            want.map_or(Answer::Silent, Answer::Reply),
            "{what}"
        );
        // A client that never enrolled has no blinding to adjust.
        assert_eq!(
            answer(bound, &what, || world
                .unenrolled
                .on_envelope(world.params, &env)),
            Answer::Silent,
            "{what}, unenrolled"
        );
    }
    // Flips in the listed ids are answered (another missing set); flips
    // in either round, and other senders and kinds, are not.
    assert!(answered > 1 && answered < tally.accepted);
    assert!(tally.rejected > 0);
}

#[test]
fn every_oprf_mutant_is_answered_with_its_evaluation_or_a_typed_error() {
    let world = world();
    let public = world.oprf.public().clone();
    let element_len = public.element_len();
    let in_range = |x: &[u8]| UBig::from_bytes_be(x) < public.n;
    // Sizes the thread's bigint scratch, as the first batch of a running
    // service would.
    world.oprf.on_envelope(oprf_sample().envelope);
    let mut tally = Tally::default();
    let (mut evaluated, mut refused) = (0, 0);
    for (what, input) in mutants(&oprf_sample()) {
        let Ok(env) = tally.decode::<Envelope>(&input, &what) else {
            continue;
        };
        // The reply legitimately allocates per element whatever the
        // element's own length: its parsed value, both CRT halves, the
        // recombined value and the padded response, with their headers.
        let request = match &env.msg {
            Message::OprfBatchRequest {
                request_id,
                blinded,
            } => Some((*request_id, blinded.clone())),
            _ => None,
        };
        let elements = request.as_ref().map_or(0, |(_, blinded)| blinded.len());
        let bound = 2 * input.len() + 16 * element_len * elements + 64;
        let (round, is_error) = (env.round, matches!(env.msg, Message::Error { .. }));
        let got = answer(bound, &what, || world.oprf.on_envelope(env));
        match request {
            // An in-range batch is evaluated: each element raised to `e`
            // is its request element.
            Some((request_id, blinded)) if blinded.iter().all(|x| in_range(x)) => {
                let Answer::Reply(reply) = got else {
                    panic!("{what}: {got:?}");
                };
                let Message::OprfBatchResponse {
                    request_id: id,
                    elements,
                } = reply.msg
                else {
                    panic!("{what}: {:?}", reply.msg);
                };
                assert_eq!(
                    (reply.sender, reply.round, id),
                    (NodeId::Oprf, round, request_id)
                );
                assert_eq!(elements.len(), blinded.len(), "{what}");
                for (y, x) in elements.iter().zip(&blinded) {
                    assert_eq!(y.len(), element_len, "{what}");
                    let y = UBig::from_bytes_be(y);
                    assert_eq!(y.modpow(&public.e, &public.n), UBig::from_bytes_be(x));
                }
                evaluated += 1;
            }
            // Out of range, or another kind: refused.
            _ if !is_error => {
                assert_eq!(got, Answer::Error, "{what}");
                refused += 1;
            }
            // An incoming `Error` goes unanswered.
            _ => assert_eq!(got, Answer::Silent, "{what}"),
        }
    }
    assert!(evaluated > 1 && refused > 0);
    assert_eq!(evaluated + refused, tally.accepted);
    assert!(tally.rejected > 0);
}

#[test]
fn an_oprf_batch_over_the_cap_is_refused_before_any_element_is_converted() {
    let world = world();
    let element_len = world.oprf.public().element_len();
    // Sizes the thread's bigint scratch, as in the corpus above.
    world.oprf.on_envelope(oprf_sample().envelope);
    let batch = |len| {
        let msg = Message::OprfBatchRequest {
            request_id: 44,
            blinded: vec![Vec::new(); len],
        };
        let env = Envelope::new(NodeId::Client(7), 0, msg);
        (env.encode().len(), env)
    };
    // Empty elements cost the service ≈ 53 × their bytes once converted:
    // refused over the cap, the batch stays inside the corpus's bound
    // for an answer that converts no element.
    let (input, over) = batch(OPRF_BATCH_CAP + 1);
    assert_eq!(
        answer(2 * input + 64, "cap + 1", || world.oprf.on_envelope(over)),
        Answer::Error
    );
    assert_eq!(world.oprf.requests_served(), 3, "only the warm-up batch");
    let (input, at_cap) = batch(OPRF_BATCH_CAP);
    let bound = 2 * input + 16 * element_len * OPRF_BATCH_CAP + 64;
    let Answer::Reply(reply) = answer(bound, "cap", || world.oprf.on_envelope(at_cap)) else {
        panic!("a batch at the cap is served");
    };
    assert!(matches!(
        reply.msg,
        Message::OprfBatchResponse { ref elements, .. } if elements.len() == OPRF_BATCH_CAP
    ));
}

#[test]
fn a_client_answers_only_the_backend_about_the_notice_s_own_round() {
    let world = world();
    let on = |env: Envelope| world.client.on_envelope(world.params, &env);
    let users = vec![1, 5];
    for sender in [
        NodeId::Client(1),
        NodeId::Client(CLIENT),
        NodeId::Oprf,
        NodeId::Coordinator,
    ] {
        let env = Envelope::new(
            sender,
            ROUND,
            Message::MissingClients {
                round: ROUND,
                users: users.clone(),
            },
        );
        assert_eq!(on(env), None, "a notice from {sender}");
    }
    let mismatched = Envelope::new(
        NodeId::Backend,
        ROUND + 1,
        Message::MissingClients {
            round: ROUND,
            users: users.clone(),
        },
    );
    assert_eq!(on(mismatched), None, "envelope and notice rounds differ");
    assert_eq!(
        on(notice(ROUND, users.clone())),
        Some(adjustment(ROUND, world.expected_adjustment(ROUND, &users)))
    );
}

#[test]
fn a_client_adjusts_for_the_deduplicated_set_of_known_peers_it_is_told_of() {
    let world = world();
    let on = |users: Vec<u32>| {
        world
            .client
            .on_envelope(world.params, &notice(ROUND, users))
    };
    let for_peers =
        |peers: &[u32]| Some(adjustment(ROUND, world.expected_adjustment(ROUND, peers)));
    // Its own id, a peer named three times, ids nobody enrolled.
    assert_eq!(on(vec![CLIENT, 5]), for_peers(&[5]));
    assert_eq!(on(vec![5, 9, 5, 5]), for_peers(&[5, 9]));
    assert_eq!(on(vec![5, 42, u32::MAX]), for_peers(&[5]));
    assert_eq!(on(vec![9, 1]), on(vec![1, 9]), "order does not matter");
    // Nobody missing: the adjustment of the empty set, all zero.
    let zeros = Some(adjustment(ROUND, vec![0; world.params.num_cells()]));
    assert_eq!(on(vec![]), zeros);
    assert_eq!(on(vec![CLIENT, 42]), zeros);
    // The oracle is the other end of each pair; check it once directly.
    assert_ne!(for_peers(&[5]), zeros);
}

#[test]
fn a_client_that_never_enrolled_ignores_a_missing_clients_notice() {
    let world = world();
    assert!(!world.unenrolled.blinding_ready());
    for users in [vec![], vec![1, 5, 9], PEERS.to_vec()] {
        assert_eq!(
            world
                .unenrolled
                .on_envelope(world.params, &notice(ROUND, users)),
            None
        );
    }
}

/// A four-shard cluster with the client and its peers enrolled, round
/// `ROUND` open, and `absorbed` already taken in.
fn backend(world: &World, absorbed: &[Envelope]) -> ClusterBackend {
    let mut backend = ClusterBackend::new(
        ShardMap::uniform(SHARDS),
        8,
        world.params,
        AdIdMapper::new(1 << 16),
        ThresholdPolicy::Mean,
    );
    for c in world.peers.iter().chain([&world.client]) {
        backend.enroll(c.id(), c.public_key().clone());
    }
    backend.open_round(ROUND);
    for env in absorbed {
        assert_eq!(backend.on_envelope(env.clone()), Ok(None));
    }
    backend
}

/// Whether a backend that has absorbed the reports of `reported` (and
/// no adjustment) takes `env` in: its header names the payload's user
/// and round, its shape is the cohort's, its round is the open one, and
/// a report comes from an enrolled user not yet reported, an
/// adjustment from a user that reported.
fn backend_absorbs(world: &World, reported: &[u32], env: &Envelope) -> bool {
    let params = world.params;
    let enrolled = |user: &u32| *user == CLIENT || PEERS.contains(user);
    let (user, round, cells, fits) = match &env.msg {
        Message::Report {
            user,
            round,
            depth,
            width,
            seed,
            cells,
        } => (
            user,
            round,
            cells,
            (*depth as usize, *width as usize, *seed)
                == (params.depth, params.width, params.hash_seed)
                && enrolled(user)
                && !reported.contains(user),
        ),
        Message::Adjustment { user, round, cells } => (user, round, cells, reported.contains(user)),
        _ => return false,
    };
    fits && env.sender == NodeId::Client(*user)
        && env.round == *round
        && *round == ROUND
        && cells.len() == params.num_cells()
}

/// Hands every decoded mutant of `sample` to a fresh backend that has
/// absorbed `absorbed` (reports of `reported`), and checks the answer
/// and the round log against [`backend_absorbs`]. Returns how many
/// mutants were absorbed and how many refused.
fn backend_corpus(
    world: &World,
    sample: Sample,
    absorbed: &[Envelope],
    reported: &[u32],
) -> (usize, usize) {
    let mut tally = Tally::default();
    let (mut taken, mut refused) = (0, 0);
    for (what, input) in mutants(&sample) {
        let Ok(env) = tally.decode::<Envelope>(&input, &what) else {
            continue;
        };
        let mut backend = backend(world, absorbed);
        let mut log = backend.log().records().to_vec();
        let absorbs = backend_absorbs(world, reported, &env);
        let want = if absorbs || matches!(env.msg, Message::Error { .. }) {
            Answer::Silent
        } else {
            Answer::Error
        };
        if absorbs {
            let NodeId::Client(user) = env.sender else {
                unreachable!("only a client's report or adjustment absorbs")
            };
            log.push(JournalRecord {
                seq: backend.log().last_seq() + 1,
                event: JournalEvent::Absorbed {
                    shard: user % SHARDS,
                    envelope: env.clone(),
                },
            });
        }
        // A refusal is answered with its code, as the round driver does.
        let bound = 2 * input.len() + SERVER_SLACK;
        let got = answer(bound, &what, || match backend.on_envelope(env) {
            Ok(reply) => reply,
            Err(e) => Some(Envelope::new(
                NodeId::Backend,
                ROUND,
                Message::Error {
                    code: e.error_code(),
                    detail: String::new(),
                    hint: None,
                },
            )),
        });
        assert_eq!(got, want, "{what}");
        assert_eq!(backend.log().records(), log, "{what}: the round log");
        taken += usize::from(absorbs);
        refused += usize::from(got == Answer::Error);
    }
    assert!(tally.rejected > 0);
    (taken, refused)
}

#[test]
fn every_report_mutant_is_absorbed_exactly_when_it_is_a_valid_report() {
    let world = world();
    let (taken, refused) = backend_corpus(&world, report_sample(), &[], &[]);
    // Flips in the cells are absorbed; flips in the header are not.
    assert!(taken > 1 && refused > 0);
    // A taken report leaves its sender alone out of the missing set.
    let mut backend = backend(&world, &[report_sample().envelope]);
    assert_eq!(backend.missing_clients(), Ok(PEERS.to_vec()));
}

#[test]
fn every_adjustment_mutant_is_absorbed_exactly_when_its_sender_reported() {
    let world = world();
    let report = report_sample().envelope;
    let (taken, refused) = backend_corpus(&world, adjustment_sample(), &[report], &[CLIENT]);
    assert!(taken > 1 && refused > 0);
}

/// A coordinator in epoch `EPOCH`'s warm-up: the peers are its roster,
/// nobody is pending.
fn coordinator() -> Coordinator {
    let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(2));
    for peer in PEERS {
        coordinator.register_join(peer);
    }
    coordinator.tick(1);
    assert_eq!(
        (coordinator.epoch(), coordinator.phase()),
        (EPOCH, EpochPhase::Warmup)
    );
    coordinator
}

/// The bulletin board the coordinator checks a join against: the client
/// and its peers have keys on it, nobody else does.
fn on_board(user: u32) -> bool {
    user == CLIENT || PEERS.contains(&user)
}

/// The coordinator's answer to `env` and its checkpoint afterwards: a
/// join or a leave for the current epoch from the user it names is
/// registered (a join only from a user on the board, a leave only from
/// a known user), one for a closed epoch is refused, one its sender does
/// not name is ignored; an `Error` is ignored, anything else refused.
fn expected_coordinator(
    before: &CoordinatorCheckpoint,
    env: &Envelope,
) -> (Answer, CoordinatorCheckpoint) {
    let mut after = before.clone();
    let insert = |set: &mut Vec<u32>, user: u32| {
        set.push(user);
        set.sort_unstable();
        set.dedup();
    };
    let answer = match &env.msg {
        Message::Join { user, .. } | Message::Leave { user, .. }
            if env.sender != NodeId::Client(*user) =>
        {
            Answer::Silent
        }
        Message::Join { epoch, .. } | Message::Leave { epoch, .. } if *epoch < before.epoch => {
            Answer::Error
        }
        Message::Join { user, .. } if !on_board(*user) => Answer::Error,
        Message::Join { user, .. } => {
            if !before.roster.contains(user) {
                insert(&mut after.pending_joins, *user);
            }
            Answer::Silent
        }
        Message::Leave { user, .. } => {
            if before.roster.contains(user) || before.pending_joins.contains(user) {
                insert(&mut after.pending_leaves, *user);
                Answer::Silent
            } else {
                Answer::Error
            }
        }
        Message::Error { .. } => Answer::Silent,
        _ => Answer::Error,
    };
    (answer, after)
}

#[test]
fn every_join_and_leave_mutant_is_registered_refused_or_ignored_as_the_epoch_says() {
    let before = coordinator().checkpoint();
    let mut tally = Tally::default();
    let (mut registered, mut refused) = (0, 0);
    for sample in [join_sample(), leave_sample()] {
        for (what, input) in mutants(&sample) {
            let Ok(env) = tally.decode::<Envelope>(&input, &what) else {
                continue;
            };
            let (want, state) = expected_coordinator(&before, &env);
            let mut coordinator = coordinator();
            let bound = 2 * input.len() + SERVER_SLACK;
            let got = answer(bound, &what, || coordinator.on_envelope(&env, on_board));
            assert_eq!(got, want, "{what}");
            assert_eq!(coordinator.checkpoint(), state, "{what}: the state");
            registered += usize::from(state != before);
            refused += usize::from(got == Answer::Error);
        }
    }
    // The samples themselves and flips in their unused high epoch bits
    // are registered; a flip to epoch 0 and other kinds are refused.
    assert!(registered > 2 && refused > 0);
    assert!(tally.rejected > 0);
}

#[test]
fn the_coordinator_ignores_a_join_or_leave_its_sender_does_not_name() {
    let mut coordinator = coordinator();
    let before = coordinator.checkpoint();
    for msg in [
        Message::Join {
            user: CLIENT,
            epoch: EPOCH,
        },
        Message::Leave {
            user: 5,
            epoch: EPOCH,
        },
    ] {
        for sender in [NodeId::Client(7), NodeId::Backend, NodeId::Oprf] {
            let env = Envelope::new(sender, ROUND, msg.clone());
            assert_eq!(coordinator.on_envelope(&env, on_board), None, "{sender}");
        }
    }
    assert_eq!(
        coordinator.checkpoint(),
        before,
        "no spoofed churn registered"
    );
}

/// A finding, recorded and not fixed: the refusal policy is a protocol
/// decision (ROADMAP item 3). A backend-sender `MissingClients` for round
/// `r` that names every peer gets the client's whole blinding vector for
/// `r` as its answer, and that vector unblinds the client's round-`r`
/// report: whoever sent the notice reads the client's clear sketch.
#[test]
fn a_missing_set_naming_every_peer_unblinds_the_client_s_report() {
    let mut world = world();
    for ad in [4, 8, 15, 16, 23, 42] {
        world.client.observe(ad, ad + 100);
    }
    let report = world.client.report_envelope(world.params, ROUND);
    let Message::Report { cells: blinded, .. } = report.msg else {
        panic!("a report envelope carries a report");
    };
    let reply = world
        .client
        .on_envelope(world.params, &notice(ROUND, PEERS.to_vec()))
        .expect("a notice from the backend is answered");
    let Message::Adjustment { cells: whole, .. } = reply.msg else {
        panic!("the answer is an adjustment");
    };
    let unblinded: Vec<u32> = blinded
        .iter()
        .zip(&whole)
        .map(|(b, w)| b.wrapping_sub(*w))
        .collect();
    let mut clear = CountMinSketch::new(world.params);
    for ad in [4, 8, 15, 16, 23, 42] {
        clear.update(ad);
    }
    assert_eq!(unblinded, clear.cells(), "the report, unblinded");
    // With one peer left out, the same subtraction is still blinded.
    let partial = world
        .client
        .on_envelope(world.params, &notice(ROUND, vec![1, 5, 9]))
        .expect("answered");
    let Message::Adjustment { cells: partial, .. } = partial.msg else {
        panic!("the answer is an adjustment");
    };
    assert!(blinded
        .iter()
        .zip(&partial)
        .map(|(b, p)| b.wrapping_sub(*p))
        .ne(clear.cells().iter().copied()));
}
