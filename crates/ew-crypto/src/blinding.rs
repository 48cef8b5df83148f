//! Kursawe-style additive random shares of zero (PETS'11), the blinding
//! layer of the paper's privacy-preserving aggregation (§6).
//!
//! At round `s`, user `u_i` blinds the `m`-th sketch cell with
//!
//! ```text
//! b_i[m] = Σ_{j≠i} H(y_j^{x_i} || m || s) · (-1)^{i>j}
//! ```
//!
//! Because the pairwise shared secret `y_j^{x_i} = y_i^{x_j}` is symmetric
//! and the signs are antisymmetric, `Σ_i b_i[m] = 0`: the server that sums
//! every blinded sketch recovers the exact aggregate while each individual
//! report is uniformly random.
//!
//! Arithmetic is in `Z_{2^32}` (wrapping `u32`), matching the paper's
//! 4-byte CMS cells.
//!
//! ## Fault tolerance
//!
//! If a set `M` of users never reports, the pairwise terms between
//! reporting users still cancel, but each reporting user `i` leaves the
//! residue `Σ_{j∈M} c_{ij}` in the aggregate. The paper's two-round
//! recovery has the server broadcast `M` and each reporting client answer
//! with exactly that residue — [`BlindingGenerator::adjustment_vector`] —
//! which the server subtracts to restore a clean aggregate.
//!
//! ## Derivation
//!
//! `H` may be any PRF keyed by the pairwise secret; this one has two
//! levels. Per peer the generator holds the [`HmacKey`] midstates of the
//! secret `s_ij = y_j^{x_i}`, computed once at enrolment. Per round, one
//! MAC per pair derives that pair's stream key, and the key's AES-256
//! counter-mode keystream ([`crate::keystream`]) supplies one word per
//! cell:
//!
//! ```text
//! k_ij    = HMAC-SHA256(s_ij, "eyewnder/blinding/v3" ‖ be64(s))
//! c_ij[m] = LE word m % 4 of AES-256_{k_ij}(le128(m / 4))
//! ```
//!
//! The 32 MAC bytes are the AES-256 key, and the block index is the
//! whole counter: the nonce is zero, which is safe because a key serves
//! one pair in one round. Both ends of a pair derive the same `k_ij`, so
//! the terms still cancel. Each keystream is added into the output (or
//! subtracted from it) as it is computed: there is no per-peer buffer,
//! nothing is kept across rounds, a generator is plain `Clone` data,
//! and a derivation into an output with capacity allocates nothing.
//!
//! The label's version marks a protocol change. `v1` named a
//! counter-mode HMAC expansion and `v2` a ChaCha20 keystream; each
//! blinds differently, so a cohort cannot mix them. Aggregates, and
//! everything computed from them, do not change, because the blinding
//! cancels either way.

use crate::dh::DhKeyPair;
use crate::directory::{KeyDirectory, UserId};
use crate::group::ModpGroup;
use crate::hmac::HmacKey;
use crate::keystream::add_keystream;
use ew_bigint::UBig;
use std::collections::BTreeMap;

/// Per-round parameters for blinding derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlindingParams {
    /// Aggregation round (the paper uses one round per week).
    pub round: u64,
    /// Number of cells to blind (CMS width × depth).
    pub num_cells: usize,
}

/// Domain-separation label of the per-(pair, round) stream key.
const BLIND_LABEL: &[u8] = b"eyewnder/blinding/v3";

/// The MAC input of one round's stream keys: label ‖ be64(round).
fn stream_info(round: u64) -> [u8; BLIND_LABEL.len() + 8] {
    let mut info = [0u8; BLIND_LABEL.len() + 8];
    info[..BLIND_LABEL.len()].copy_from_slice(BLIND_LABEL);
    info[BLIND_LABEL.len()..].copy_from_slice(&round.to_be_bytes());
    info
}

/// One pair's AES-256 key for the round `info` names: the MAC as eight
/// little-endian words.
fn stream_key(secret: &HmacKey, info: &[u8]) -> [u32; 8] {
    let mac = secret.mac(info);
    std::array::from_fn(|i| u32::from_le_bytes(mac[i * 4..i * 4 + 4].try_into().expect("4 bytes")))
}

/// Holds one user's pairwise shared secrets and derives blinding vectors.
#[derive(Debug, Clone)]
pub struct BlindingGenerator {
    user: UserId,
    /// Peer id → HMAC midstates of the shared secret `y_peer^{x_self}`.
    shared: BTreeMap<UserId, HmacKey>,
}

impl BlindingGenerator {
    /// Precomputes shared secrets with every *other* user in `directory`.
    ///
    /// The expensive part (one modular exponentiation per peer, all
    /// under this user's secret exponent and therefore run as one
    /// batch) happens once per cohort; per-round derivation afterwards
    /// is one MAC per peer plus the keystream. This mirrors the paper's
    /// note that key agreement is "carried out once per week ... in the
    /// background". Enrolment is [`Self::sync_directory`] from an empty
    /// peer set.
    pub fn new(
        group: &ModpGroup,
        user: UserId,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
    ) -> Self {
        let mut generator = BlindingGenerator {
            user,
            shared: BTreeMap::new(),
        };
        generator.sync_directory(group, keypair, directory);
        generator
    }

    /// Re-agrees with a changed directory **incrementally**: computes
    /// shared secrets only for peers that joined (one batch, in id
    /// order — [`DhKeyPair::shared_secrets`]) and drops departed peers.
    ///
    /// Surviving peers keep their [`HmacKey`] midstates, which is what
    /// makes multi-epoch campaigns cheap: under f% churn only f% of the
    /// cohort pays the modular exponentiation again. The result is
    /// bit-identical to rebuilding from scratch against the same
    /// directory.
    ///
    /// Returns `(added, removed)` peer counts.
    pub fn sync_directory(
        &mut self,
        group: &ModpGroup,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
    ) -> (usize, usize) {
        let before = self.shared.len();
        self.shared.retain(|&peer, _| directory.get(peer).is_some());
        let removed = before - self.shared.len();
        // Joiners in id order, agreed with as one batch.
        let (joined, publics): (Vec<UserId>, Vec<UBig>) = directory
            .iter()
            .filter(|&(peer, _)| peer != self.user && !self.shared.contains_key(&peer))
            .map(|(peer, public)| (peer, public.clone()))
            .unzip();
        let secrets = keypair.shared_secrets(group, &publics);
        for (&peer, secret) in joined.iter().zip(&secrets) {
            self.shared.insert(peer, HmacKey::new(secret));
        }
        (joined.len(), removed)
    }

    /// The id of the user this generator belongs to.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The peer ids this generator shares secrets with, ascending.
    pub fn peers(&self) -> impl Iterator<Item = UserId> + '_ {
        self.shared.keys().copied()
    }

    /// Number of peers this generator shares secrets with.
    pub fn peer_count(&self) -> usize {
        self.shared.len()
    }

    /// Accepted and ignored: derivations keep nothing across rounds, so
    /// there is no stream cache to size. Kept so callers written against
    /// the cached derivation still compile; outcomes are the same for
    /// every `retain_rounds`.
    pub fn enable_cache(&mut self, _retain_rounds: usize) {}

    /// The blinding vector `b_i` for this round: one `u32` per cell.
    pub fn blinding_vector(&self, params: BlindingParams) -> Vec<u32> {
        let mut out = Vec::new();
        self.blinding_vector_into(params, &mut out);
        out
    }

    /// Allocation-aware [`blinding_vector`](Self::blinding_vector):
    /// reuses `out`'s capacity.
    pub fn blinding_vector_into(&self, params: BlindingParams, out: &mut Vec<u32>) {
        zeroed(out, params.num_cells);
        self.blind_in_place(params.round, out);
    }

    /// Adds this round's blinding vector onto `cells` (one cell per
    /// blinded sketch cell), wrapping: a report blinded in place, with no
    /// vector of its own.
    pub fn blind_in_place(&self, round: u64, cells: &mut [u32]) {
        self.add_signed(round, |_peer| true, cells);
    }

    /// The recovery adjustment `Σ_{j ∈ missing} c_{ij}`: what this user
    /// contributed "against" the missing peers. The server subtracts
    /// these from the aggregate of received reports.
    pub fn adjustment_vector(&self, params: BlindingParams, missing: &[UserId]) -> Vec<u32> {
        let mut out = Vec::new();
        self.adjustment_vector_into(params, missing, &mut out);
        out
    }

    /// Allocation-aware [`adjustment_vector`](Self::adjustment_vector):
    /// reuses `out`'s capacity.
    pub fn adjustment_vector_into(
        &self,
        params: BlindingParams,
        missing: &[UserId],
        out: &mut Vec<u32>,
    ) {
        zeroed(out, params.num_cells);
        self.add_signed(params.round, |peer| missing.contains(&peer), out);
    }

    /// Shared worker: adds the signed keystream of every peer selected by
    /// `include` onto `cells`.
    fn add_signed(&self, round: u64, include: impl Fn(UserId) -> bool, cells: &mut [u32]) {
        let info = stream_info(round);
        for (&peer, secret) in &self.shared {
            if include(peer) {
                add_keystream(&stream_key(secret, &info), self.user > peer, cells);
            }
        }
    }
}

/// Resets `out` to `len` zero cells, keeping its capacity.
fn zeroed(out: &mut Vec<u32>, len: usize) {
    out.clear();
    out.resize(len, 0);
}

/// Adds a blinding (or adjustment) vector onto raw cells, wrapping.
pub fn apply_blinding(cells: &mut [u32], blinding: &[u32]) {
    assert_eq!(cells.len(), blinding.len(), "cell-count mismatch");
    for (c, b) in cells.iter_mut().zip(blinding) {
        *c = c.wrapping_add(*b);
    }
}

/// Subtracts a vector from an aggregate, wrapping (server-side recovery).
pub fn subtract_vector(cells: &mut [u32], v: &[u32]) {
    assert_eq!(cells.len(), v.len(), "cell-count mismatch");
    for (c, b) in cells.iter_mut().zip(v) {
        *c = c.wrapping_sub(*b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a cohort of `n` users over a small test group.
    fn cohort(n: u32, seed: u64) -> (ModpGroup, Vec<DhKeyPair>, KeyDirectory) {
        let mut rng = StdRng::seed_from_u64(seed);
        let group = ModpGroup::generate(&mut rng, 64);
        let mut dir = KeyDirectory::new(group.element_len());
        let mut pairs = Vec::new();
        for id in 0..n {
            let kp = DhKeyPair::generate(&group, &mut rng);
            dir.publish(id, kp.public().clone());
            pairs.push(kp);
        }
        (group, pairs, dir)
    }

    fn generators(
        group: &ModpGroup,
        pairs: &[DhKeyPair],
        dir: &KeyDirectory,
    ) -> Vec<BlindingGenerator> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, kp)| BlindingGenerator::new(group, i as u32, kp, dir))
            .collect()
    }

    /// The generator the one-peer-at-a-time enrolment built: a
    /// [`DhKeyPair::shared_secret`] per directory entry other than the
    /// user's own.
    fn per_peer_oracle(
        group: &ModpGroup,
        user: UserId,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
    ) -> BlindingGenerator {
        let shared = directory
            .iter()
            .filter(|&(peer, _)| peer != user)
            .map(|(peer, public)| (peer, HmacKey::new(&keypair.shared_secret(group, public))))
            .collect();
        BlindingGenerator { user, shared }
    }

    #[test]
    fn batched_enrolment_equals_per_peer_agreement() {
        // `new` and `sync_directory` agree with all joiners in one
        // many-bases exponentiation; the blinding vectors must be
        // bit-equal to agreeing peer by peer, through every shape of
        // directory change, on a toy group and on MODP-2048.
        const USER: UserId = 3;
        let mut rng = StdRng::seed_from_u64(112);
        let toy = ModpGroup::generate(&mut rng, 64);
        let modp = ModpGroup::modp_2048();
        // `None` draws secrets as keygen does (`random_exponent`: all of
        // a toy q, 256 bits at MODP-2048); `Some(bits)` forces a secret
        // of exactly that width.
        for (group, secret_bits) in [
            (&toy, None),
            (&modp, None),
            // Past the generator table (the `pow_g` fallback) and through
            // the long-exponent lane schedule. The debug profile's lane
            // body is slow: just past the table there, the subgroup's
            // full width under optimisation.
            (&modp, Some(if cfg!(debug_assertions) { 260 } else { 2046 })),
        ] {
            let population: Vec<DhKeyPair> = (0..40)
                .map(|_| match secret_bits {
                    None => DhKeyPair::generate(group, &mut rng),
                    Some(bits) => {
                        DhKeyPair::from_secret(group, ew_bigint::random_bits(&mut rng, bits))
                    }
                })
                .collect();
            let me = &population[USER as usize];
            let dir_of = |members: &[u32]| {
                let mut dir = KeyDirectory::new(group.element_len());
                for &id in members {
                    dir.publish(id, population[id as usize].public().clone());
                }
                dir
            };
            let params = BlindingParams {
                round: 9,
                num_cells: 21,
            };
            let check = |generator: &BlindingGenerator, dir: &KeyDirectory, what: &str| {
                let oracle = per_peer_oracle(group, USER, me, dir);
                assert_eq!(
                    generator.peers().collect::<Vec<_>>(),
                    oracle.peers().collect::<Vec<_>>(),
                    "{what}: peer set"
                );
                assert_eq!(
                    generator.blinding_vector(params),
                    oracle.blinding_vector(params),
                    "{what}: blinding vector"
                );
            };

            // Fresh enrolments: nobody, only the user itself, one peer,
            // and a directory (containing the user) that fills a pass.
            let everyone: Vec<u32> = (0..20).collect();
            for members in [&[][..], &[USER], &[USER, 7], &[7], &everyone] {
                let dir = dir_of(members);
                let fresh = BlindingGenerator::new(group, USER, me, &dir);
                check(&fresh, &dir, &format!("new over {members:?}"));
            }

            // One generator through joins and leaves: a few joiners
            // (scalar loop), a lane pass worth of joiners, everybody
            // leaving, everybody back.
            let steps: [Vec<u32>; 5] = [
                (0..16).collect(),
                (0..20).filter(|id| ![2, 5].contains(id)).collect(),
                (10..40).collect(),
                vec![USER],
                (0..40).collect(),
            ];
            let mut synced = BlindingGenerator::new(group, USER, me, &dir_of(&steps[0]));
            for (i, members) in steps.iter().enumerate().skip(1) {
                let dir = dir_of(members);
                let before: Vec<UserId> = synced.peers().collect();
                let (added, removed) = synced.sync_directory(group, me, &dir);
                let peers = members.iter().filter(|&&id| id != USER);
                assert_eq!(
                    added,
                    peers.clone().filter(|id| !before.contains(id)).count()
                );
                assert_eq!(
                    removed,
                    before.iter().filter(|id| !members.contains(id)).count()
                );
                check(&synced, &dir, &format!("sync step {i}"));
            }
        }
    }

    #[test]
    fn blindings_sum_to_zero() {
        let (group, pairs, dir) = cohort(5, 100);
        let gens = generators(&group, &pairs, &dir);
        let params = BlindingParams {
            round: 3,
            num_cells: 17,
        };
        let mut sum = vec![0u32; params.num_cells];
        for g in &gens {
            apply_blinding(&mut sum, &g.blinding_vector(params));
        }
        assert!(sum.iter().all(|&c| c == 0), "shares of zero must cancel");
    }

    #[test]
    fn blinded_aggregate_equals_cleartext_aggregate() {
        let (group, pairs, dir) = cohort(4, 101);
        let gens = generators(&group, &pairs, &dir);
        let params = BlindingParams {
            round: 1,
            num_cells: 8,
        };
        let mut rng = StdRng::seed_from_u64(999);
        use rand::Rng;
        let data: Vec<Vec<u32>> = (0..4)
            .map(|_| (0..8).map(|_| rng.gen_range(0..1000u32)).collect())
            .collect();

        let mut clear = vec![0u32; 8];
        let mut blinded = vec![0u32; 8];
        for (i, g) in gens.iter().enumerate() {
            let mut report = data[i].clone();
            apply_blinding(&mut clear, &data[i]);
            apply_blinding(&mut report, &g.blinding_vector(params));
            apply_blinding(&mut blinded, &report);
        }
        assert_eq!(clear, blinded);
    }

    #[test]
    fn rounds_are_independent() {
        let (group, pairs, dir) = cohort(3, 102);
        let gens = generators(&group, &pairs, &dir);
        let p1 = BlindingParams {
            round: 1,
            num_cells: 4,
        };
        let p2 = BlindingParams {
            round: 2,
            num_cells: 4,
        };
        assert_ne!(gens[0].blinding_vector(p1), gens[0].blinding_vector(p2));
    }

    #[test]
    fn individual_blinding_nonzero() {
        let (group, pairs, dir) = cohort(3, 103);
        let gens = generators(&group, &pairs, &dir);
        let params = BlindingParams {
            round: 7,
            num_cells: 16,
        };
        // A single user's blinding must look random, not zero.
        assert!(gens[0].blinding_vector(params).iter().any(|&c| c != 0));
    }

    #[test]
    fn missing_client_recovery() {
        let (group, pairs, dir) = cohort(6, 104);
        let gens = generators(&group, &pairs, &dir);
        let params = BlindingParams {
            round: 5,
            num_cells: 10,
        };
        let missing: Vec<UserId> = vec![2, 4];
        let reporting: Vec<usize> = vec![0, 1, 3, 5];

        // Server sums reports only from reporting clients (cells all zero
        // so the residue is exactly the uncancelled blinding).
        let mut agg = vec![0u32; params.num_cells];
        for &i in &reporting {
            apply_blinding(&mut agg, &gens[i].blinding_vector(params));
        }
        assert!(agg.iter().any(|&c| c != 0), "missing clients leave residue");

        // Round 2: reporting clients send adjustments; server subtracts.
        for &i in &reporting {
            subtract_vector(&mut agg, &gens[i].adjustment_vector(params, &missing));
        }
        assert!(agg.iter().all(|&c| c == 0), "recovery must cancel residue");
    }

    #[test]
    fn adjustment_for_nobody_is_zero() {
        let (group, pairs, dir) = cohort(3, 105);
        let gens = generators(&group, &pairs, &dir);
        let params = BlindingParams {
            round: 1,
            num_cells: 5,
        };
        assert!(gens[1]
            .adjustment_vector(params, &[])
            .iter()
            .all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "cell-count mismatch")]
    fn apply_blinding_length_mismatch_panics() {
        let mut cells = vec![0u32; 3];
        apply_blinding(&mut cells, &[1, 2]);
    }

    #[test]
    fn cached_rounds_match_cold_derivation() {
        // The accepted-and-ignored cache knob is unobservable: generators
        // with it set derive what plain ones do, round after round, for
        // growing cell counts, derived twice, for adjustments, and for an
        // earlier round re-derived after later ones.
        let (group, pairs, dir) = cohort(5, 106);
        let cold = generators(&group, &pairs, &dir);
        let mut warm = generators(&group, &pairs, &dir);
        for g in &mut warm {
            g.enable_cache(2);
        }

        let missing: Vec<UserId> = vec![1, 3];
        let params = |round: u64| BlindingParams {
            round,
            num_cells: 13 + 11 * round as usize,
        };
        for round in 1..=4u64 {
            for (c, w) in cold.iter().zip(&warm) {
                assert_eq!(
                    c.blinding_vector(params(round)),
                    w.blinding_vector(params(round)),
                    "round {round}"
                );
                assert_eq!(
                    c.blinding_vector(params(round)),
                    w.blinding_vector(params(round)),
                    "round {round} (derived again)"
                );
                assert_eq!(
                    c.adjustment_vector(params(round), &missing),
                    w.adjustment_vector(params(round), &missing),
                    "round {round} adjustment"
                );
            }
        }
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(
                c.blinding_vector(params(1)),
                w.blinding_vector(params(1)),
                "round 1 after round 4"
            );
        }
    }

    #[test]
    fn blinding_vector_matches_its_definition() {
        // b_i[m] = Σ_j ±AES-256_{k_ij}(le128(m / 4))[m % 4] with k_ij =
        // HMAC(s_ij, label ‖ be64(round)), rebuilt here from the pairwise
        // secrets, `hmac_sha256` and the portable block function, for
        // cell counts around a block and a VAES pass.
        let (group, pairs, dir) = cohort(4, 106);
        let me = 2u32;
        let generator = BlindingGenerator::new(&group, me, &pairs[me as usize], &dir);
        for (round, num_cells) in [(1u64, 1usize), (7, 16), (9, 17), (u64::MAX, 300)] {
            let mut info = b"eyewnder/blinding/v3".to_vec();
            info.extend_from_slice(&round.to_be_bytes());
            let mut want = vec![0u32; num_cells];
            for (peer, public) in dir.iter().filter(|&(peer, _)| peer != me) {
                let secret = pairs[me as usize].shared_secret(&group, public);
                let mac = crate::hmac::hmac_sha256(&secret, &info);
                let key: [u32; 8] = std::array::from_fn(|i| {
                    u32::from_le_bytes(mac[i * 4..i * 4 + 4].try_into().unwrap())
                });
                for (m, cell) in want.iter_mut().enumerate() {
                    let word =
                        crate::keystream::aes256_block(&key, [(m / 4) as u32, 0, 0, 0])[m % 4];
                    *cell = if me > peer {
                        cell.wrapping_sub(word)
                    } else {
                        cell.wrapping_add(word)
                    };
                }
            }
            let params = BlindingParams { round, num_cells };
            assert_eq!(generator.blinding_vector(params), want, "round {round}");
        }
    }

    #[test]
    fn blinding_in_place_adds_the_blinding_vector() {
        let (group, pairs, dir) = cohort(5, 107);
        let g = BlindingGenerator::new(&group, 1, &pairs[1], &dir);
        let params = BlindingParams {
            round: 4,
            num_cells: 40,
        };
        let cells: Vec<u32> = (0..40).map(|i| i * 3 + 1).collect();
        let mut in_place = cells.clone();
        g.blind_in_place(params.round, &mut in_place);
        let mut applied = cells;
        apply_blinding(&mut applied, &g.blinding_vector(params));
        assert_eq!(in_place, applied);
    }

    #[test]
    fn blindings_cancel_under_peer_churn_with_caches() {
        // Membership changes between rounds: generators are rebuilt
        // against each directory generation (fresh pairwise graph), and
        // the cancellation property must hold per generation — with the
        // accepted-and-ignored cache knob set, and deriving twice.
        let mut rng = StdRng::seed_from_u64(108);
        let group = ModpGroup::generate(&mut rng, 64);
        let all: Vec<DhKeyPair> = (0..7)
            .map(|_| DhKeyPair::generate(&group, &mut rng))
            .collect();

        // Round → member ids (join at round 2, leave at round 3).
        let memberships: [&[u32]; 3] = [&[0, 1, 2, 3, 4], &[0, 1, 2, 3, 4, 5, 6], &[0, 2, 4, 5, 6]];
        for (round, members) in memberships.iter().enumerate() {
            let mut dir = KeyDirectory::new(group.element_len());
            for &id in *members {
                dir.publish(id, all[id as usize].public().clone());
            }
            let params = BlindingParams {
                round: round as u64 + 1,
                num_cells: 9,
            };
            let mut sum = vec![0u32; params.num_cells];
            for &id in *members {
                let mut g = BlindingGenerator::new(&group, id, &all[id as usize], &dir);
                g.enable_cache(2);
                g.blinding_vector(params);
                apply_blinding(&mut sum, &g.blinding_vector(params));
            }
            assert!(
                sum.iter().all(|&c| c == 0),
                "round {round}: churned cohort must still cancel"
            );
        }
    }

    #[test]
    fn sync_directory_matches_fresh_rebuild() {
        // An incrementally synced generator must be indistinguishable
        // from one rebuilt from scratch against the same directory —
        // the property that lets the coordinator churn the population
        // without touching surviving pairwise state.
        let mut rng = StdRng::seed_from_u64(110);
        let group = ModpGroup::generate(&mut rng, 64);
        let all: Vec<DhKeyPair> = (0..8)
            .map(|_| DhKeyPair::generate(&group, &mut rng))
            .collect();
        let dir_for = |members: &[u32]| {
            let mut dir = KeyDirectory::new(group.element_len());
            for &id in members {
                dir.publish(id, all[id as usize].public().clone());
            }
            dir
        };

        let epochs: [&[u32]; 3] = [&[0, 1, 2, 3, 4], &[0, 1, 3, 4, 6, 7], &[0, 3, 5, 6, 7]];
        let dir0 = dir_for(epochs[0]);
        let mut synced = BlindingGenerator::new(&group, 0, &all[0], &dir0);
        for (i, members) in epochs.iter().enumerate() {
            let dir = dir_for(members);
            if i > 0 {
                let (added, removed) = synced.sync_directory(&group, &all[0], &dir);
                assert!(added > 0 && removed > 0, "epoch {i} churns both ways");
            }
            let fresh = BlindingGenerator::new(&group, 0, &all[0], &dir);
            let params = BlindingParams {
                round: i as u64 + 1,
                num_cells: 11,
            };
            assert_eq!(
                synced.blinding_vector(params),
                fresh.blinding_vector(params),
                "epoch {i}: synced ≡ rebuilt"
            );
            assert_eq!(
                synced.peers().collect::<Vec<_>>(),
                fresh.peers().collect::<Vec<_>>(),
                "epoch {i}: peer sets agree"
            );
        }
    }

    #[test]
    fn sync_directory_evicts_departed_streams_eagerly() {
        let (group, pairs, dir) = cohort(5, 111);
        let mut g = BlindingGenerator::new(&group, 0, &pairs[0], &dir);
        g.enable_cache(4);
        let params = BlindingParams {
            round: 1,
            num_cells: 6,
        };
        g.blinding_vector(params);
        assert_eq!(g.peer_count(), 4, "one pairwise key per peer");

        // Peers 2 and 4 depart; their pairwise keys must leave now, and
        // the very next derivation must no longer include them.
        let mut shrunk = KeyDirectory::new(group.element_len());
        for id in [0u32, 1, 3] {
            shrunk.publish(id, pairs[id as usize].public().clone());
        }
        let (added, removed) = g.sync_directory(&group, &pairs[0], &shrunk);
        assert_eq!((added, removed), (0, 2));
        assert_eq!(g.peer_count(), 2);
        assert_eq!(
            g.peers().collect::<Vec<_>>(),
            [1, 3],
            "departed peers evicted"
        );
        let fresh = BlindingGenerator::new(&group, 0, &pairs[0], &shrunk);
        assert_eq!(g.blinding_vector(params), fresh.blinding_vector(params));

        // A no-op sync changes nothing.
        assert_eq!(g.sync_directory(&group, &pairs[0], &shrunk), (0, 0));
        assert_eq!(g.peer_count(), 2);
    }

    #[test]
    fn stream_extension_is_prefix_consistent() {
        // Cell m's term depends on m alone, so a longer vector extends a
        // shorter one: growing the sketch never re-blinds earlier cells.
        let (group, pairs, dir) = cohort(4, 112);
        let g = BlindingGenerator::new(&group, 3, &pairs[3], &dir);
        let at = |num_cells| {
            g.blinding_vector(BlindingParams {
                round: 9,
                num_cells,
            })
        };
        let long = at(1000);
        for short in [1usize, 15, 16, 17, 255, 256, 257] {
            assert_eq!(at(short)[..], long[..short], "{short} cells");
        }
    }

    #[test]
    fn generator_is_sync_and_clonable() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BlindingGenerator>();

        let (group, pairs, dir) = cohort(3, 109);
        let g = BlindingGenerator::new(&group, 0, &pairs[0], &dir);
        let params = BlindingParams {
            round: 1,
            num_cells: 5,
        };
        let v = g.blinding_vector(params);
        let clone = g.clone();
        assert_eq!(clone.blinding_vector(params), v);
    }
}
