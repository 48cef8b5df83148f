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
//! ## Derivation pipeline
//!
//! Per peer the generator holds a cached-midstate [`HmacKey`] (the
//! pairwise secret never changes), and per `(peer, round)` the cell
//! stream is a [`BlindingStream`]: counter-mode HMAC blocks expanded
//! through the multi-lane SHA-256 path and extendable in place when the
//! cell count grows. An optional cross-round cache
//! ([`BlindingGenerator::enable_cache`]) keeps the most recent rounds'
//! streams so the recovery round — and repeated derivations in
//! multi-week campaigns — reuse bytes instead of rehashing them. The
//! cache is behind a `Mutex`, so generators stay `Sync` and the sharded
//! parallel round can keep calling `blinding_vector` through `&self`.
//! Cached and cold derivations are bit-identical (counter blocks are
//! position-independent), which the determinism suites pin end to end.

use crate::dh::DhKeyPair;
use crate::directory::{KeyDirectory, UserId};
use crate::group::ModpGroup;
use crate::hmac::{hmac_expand_multi, hmac_expand_multi_at, HmacKey};
use ew_bigint::UBig;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-round parameters for blinding derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlindingParams {
    /// Aggregation round (the paper uses one round per week).
    pub round: u64,
    /// Number of cells to blind (CMS width × depth).
    pub num_cells: usize,
}

/// Domain-separation label for the per-pair cell stream.
const BLIND_LABEL: &[u8] = b"eyewnder/blinding/v1";

/// `info` bytes for one (pair, round) stream: label ‖ be64(round).
const INFO_LEN: usize = BLIND_LABEL.len() + 8;

fn stream_info(round: u64) -> [u8; INFO_LEN] {
    let mut info = [0u8; INFO_LEN];
    info[..BLIND_LABEL.len()].copy_from_slice(BLIND_LABEL);
    info[BLIND_LABEL.len()..].copy_from_slice(&round.to_be_bytes());
    info
}

/// One pair's per-round cell stream, derived lazily and extendable in
/// place.
///
/// Bytes are materialized in whole 32-byte HMAC counter blocks; growing
/// a stream expands only the missing tail (counter blocks are
/// independent), so the result is bit-identical to a from-scratch
/// derivation at the larger length.
#[derive(Clone, Debug)]
pub struct BlindingStream {
    key: HmacKey,
    info: [u8; INFO_LEN],
    bytes: Vec<u8>,
}

impl BlindingStream {
    /// A fresh, empty stream for `(key, round)`.
    pub fn new(key: &HmacKey, round: u64) -> Self {
        BlindingStream {
            key: key.clone(),
            info: stream_info(round),
            bytes: Vec::new(),
        }
    }

    /// Returns at least `len` stream bytes, deriving the missing tail.
    pub fn bytes(&mut self, len: usize) -> &[u8] {
        if self.bytes.len() < len {
            let want = len.div_ceil(32) * 32;
            let have_blocks = self.bytes.len() / 32;
            self.bytes.resize(want, 0);
            hmac_expand_multi_at(
                &self.key,
                &self.info,
                have_blocks as u32,
                &mut self.bytes[have_blocks * 32..],
            );
        }
        &self.bytes[..len]
    }

    /// Bytes materialized so far (always a multiple of 32).
    pub fn derived_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Mutable derivation state: a reusable scratch stream for cold
/// derivations plus the optional cross-round cache.
#[derive(Debug)]
struct GenState {
    /// Cold-path scratch: reused across peers so the hot loop never
    /// allocates once it has warmed up to the round's stream length.
    scratch: Vec<u8>,
    cache: Option<StreamCache>,
}

/// Cross-round stream cache, keyed by `(round, peer)` so whole rounds
/// evict with a range removal.
#[derive(Debug, Clone)]
struct StreamCache {
    retain_rounds: usize,
    streams: BTreeMap<(u64, UserId), BlindingStream>,
    /// Byte buffers harvested from evicted streams, recycled into new
    /// ones so steady-state round turnover stops allocating.
    pool: Vec<Vec<u8>>,
}

impl StreamCache {
    /// Drops entire rounds, oldest first, until at most `retain_rounds`
    /// distinct rounds remain; evicted buffers land in the pool.
    fn evict(&mut self) {
        loop {
            let mut rounds = 0usize;
            let mut last = None;
            for &(round, _) in self.streams.keys() {
                if last != Some(round) {
                    rounds += 1;
                    last = Some(round);
                }
            }
            if rounds <= self.retain_rounds {
                return;
            }
            let oldest = self
                .streams
                .keys()
                .next()
                .map(|&(round, _)| round)
                .expect("rounds > retain ≥ 1 implies entries");
            let newer = self.streams.split_off(&(oldest + 1, UserId::MIN));
            for (_, stream) in std::mem::replace(&mut self.streams, newer) {
                self.pool.push(stream.bytes);
            }
        }
    }

    /// Drops every cached stream belonging to `peer`, across all
    /// retained rounds; evicted buffers land in the pool. This is the
    /// eager eviction for a departed peer — its streams would never be
    /// requested again, but without this they would squat in the cache
    /// until their rounds age out.
    fn evict_peer(&mut self, peer: UserId) {
        let gone: Vec<(u64, UserId)> = self
            .streams
            .keys()
            .filter(|&&(_, p)| p == peer)
            .copied()
            .collect();
        for key in gone {
            if let Some(stream) = self.streams.remove(&key) {
                self.pool.push(stream.bytes);
            }
        }
    }

    /// The stream for `(round, peer)`, created from a pooled buffer on
    /// a miss.
    fn stream(&mut self, round: u64, peer: UserId, key: &HmacKey) -> &mut BlindingStream {
        let StreamCache { streams, pool, .. } = self;
        streams.entry((round, peer)).or_insert_with(|| {
            let mut stream = BlindingStream::new(key, round);
            if let Some(mut buf) = pool.pop() {
                buf.clear();
                stream.bytes = buf;
            }
            stream
        })
    }
}

/// Holds one user's pairwise shared secrets and derives blinding vectors.
pub struct BlindingGenerator {
    user: UserId,
    /// Peer id → HMAC midstates of the shared secret `y_peer^{x_self}`.
    shared: BTreeMap<UserId, HmacKey>,
    state: Mutex<GenState>,
}

impl std::fmt::Debug for BlindingGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlindingGenerator")
            .field("user", &self.user)
            .field("peers", &self.shared.len())
            .field("cache_enabled", &self.cache_enabled())
            .finish()
    }
}

impl Clone for BlindingGenerator {
    fn clone(&self) -> Self {
        let state = self.state.lock().expect("blinding state poisoned");
        BlindingGenerator {
            user: self.user,
            shared: self.shared.clone(),
            state: Mutex::new(GenState {
                scratch: Vec::new(),
                cache: state.cache.clone(),
            }),
        }
    }
}

impl BlindingGenerator {
    /// Precomputes shared secrets with every *other* user in `directory`.
    ///
    /// The expensive part (one modular exponentiation per peer, all
    /// under this user's secret exponent and therefore run as one
    /// batch) happens once per cohort; per-round derivation afterwards
    /// is pure hashing. This mirrors the paper's note that key
    /// agreement is "carried out once per week ... in the background".
    /// Enrolment is [`Self::sync_directory`] from an empty peer set.
    pub fn new(
        group: &ModpGroup,
        user: UserId,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
    ) -> Self {
        let mut generator = BlindingGenerator {
            user,
            shared: BTreeMap::new(),
            state: Mutex::new(GenState {
                scratch: Vec::new(),
                cache: None,
            }),
        };
        generator.sync_directory(group, keypair, directory);
        generator
    }

    /// Re-agrees with a changed directory **incrementally**: computes
    /// shared secrets only for peers that joined (one batch, in id
    /// order — [`DhKeyPair::shared_secrets`]), and drops departed
    /// peers — including their cached streams, evicted eagerly so a
    /// churning population cannot grow the cache with dead entries.
    ///
    /// Surviving peers keep their [`HmacKey`] midstates and any cached
    /// round streams, which is what makes multi-epoch campaigns cheap:
    /// under f% churn only f% of the cohort pays the modular
    /// exponentiation again. The result is bit-identical to rebuilding
    /// from scratch against the same directory (streams are pure
    /// functions of the immutable pairwise secret).
    ///
    /// Returns `(added, removed)` peer counts.
    pub fn sync_directory(
        &mut self,
        group: &ModpGroup,
        keypair: &DhKeyPair,
        directory: &KeyDirectory,
    ) -> (usize, usize) {
        let mut removed = 0usize;
        let departed: Vec<UserId> = self
            .shared
            .keys()
            .copied()
            .filter(|&p| directory.get(p).is_none())
            .collect();
        let state = self.state.get_mut().expect("blinding state poisoned");
        for peer in departed {
            self.shared.remove(&peer);
            if let Some(cache) = state.cache.as_mut() {
                cache.evict_peer(peer);
            }
            removed += 1;
        }
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

    /// Turns on the cross-round stream cache, retaining the
    /// `retain_rounds` most recent rounds' streams (`0` disables).
    ///
    /// Invalidation rules: streams never go stale — a `(peer, round)`
    /// stream is a pure function of the immutable pairwise secret — so
    /// eviction is purely a memory bound, dropping whole rounds oldest
    /// first once more than `retain_rounds` distinct rounds are held.
    pub fn enable_cache(&mut self, retain_rounds: usize) {
        let state = self.state.get_mut().expect("blinding state poisoned");
        state.cache = if retain_rounds == 0 {
            None
        } else {
            Some(StreamCache {
                retain_rounds,
                streams: BTreeMap::new(),
                pool: Vec::new(),
            })
        };
    }

    /// Whether the cross-round stream cache is on.
    pub fn cache_enabled(&self) -> bool {
        self.state
            .lock()
            .expect("blinding state poisoned")
            .cache
            .is_some()
    }

    /// Number of `(peer, round)` streams currently cached.
    pub fn cached_streams(&self) -> usize {
        self.state
            .lock()
            .expect("blinding state poisoned")
            .cache
            .as_ref()
            .map_or(0, |c| c.streams.len())
    }

    /// The blinding vector `b_i` for this round: one `u32` per cell.
    pub fn blinding_vector(&self, params: BlindingParams) -> Vec<u32> {
        let mut out = Vec::new();
        self.blinding_vector_into(params, &mut out);
        out
    }

    /// Allocation-aware [`blinding_vector`](Self::blinding_vector):
    /// reuses `out`'s capacity.
    pub fn blinding_vector_into(&self, params: BlindingParams, out: &mut Vec<u32>) {
        self.signed_sum_into(params, |_peer| true, out);
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
        self.signed_sum_into(params, |peer| missing.contains(&peer), out);
    }

    /// Shared worker: sums signed per-peer streams over peers selected by
    /// `include`.
    fn signed_sum_into<F: Fn(UserId) -> bool>(
        &self,
        params: BlindingParams,
        include: F,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        out.resize(params.num_cells, 0);
        let len = params.num_cells * 4;
        let mut guard = self.state.lock().expect("blinding state poisoned");
        let GenState { scratch, cache } = &mut *guard;
        for (&peer, key) in &self.shared {
            if !include(peer) {
                continue;
            }
            let positive = self.user > peer;
            match cache {
                Some(c) => {
                    let stream = c.stream(params.round, peer, key);
                    accumulate(out, stream.bytes(len), positive);
                }
                None => {
                    if scratch.len() < len {
                        scratch.resize(len.div_ceil(32) * 32, 0);
                    }
                    hmac_expand_multi(key, &stream_info(params.round), &mut scratch[..len]);
                    accumulate(out, &scratch[..len], positive);
                }
            }
        }
        if let Some(c) = cache {
            c.evict();
        }
    }
}

/// Folds a signed per-peer stream into the accumulator, wrapping.
fn accumulate(acc: &mut [u32], stream: &[u8], positive: bool) {
    debug_assert_eq!(stream.len(), acc.len() * 4);
    for (cell, chunk) in acc.iter_mut().zip(stream.chunks_exact(4)) {
        let v = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        *cell = if positive {
            cell.wrapping_add(v)
        } else {
            cell.wrapping_sub(v)
        };
    }
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
        BlindingGenerator {
            user,
            shared,
            state: Mutex::new(GenState {
                scratch: Vec::new(),
                cache: None,
            }),
        }
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
        for (group, secret_bits) in [
            (&toy, 63),
            // The debug profile's lane body is slow: a short secret
            // there, the subgroup's full width under optimisation.
            (
                &ModpGroup::modp_2048(),
                if cfg!(debug_assertions) { 80 } else { 2046 },
            ),
        ] {
            let population: Vec<DhKeyPair> = (0..40)
                .map(|_| {
                    let mut secret = ew_bigint::random_bits(&mut rng, secret_bits);
                    secret.set_bit(secret_bits - 1);
                    DhKeyPair::from_secret(group, secret)
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
            synced.enable_cache(2);
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
        let (group, pairs, dir) = cohort(5, 106);
        let cold = generators(&group, &pairs, &dir);
        let mut warm = generators(&group, &pairs, &dir);
        for g in &mut warm {
            g.enable_cache(2);
        }

        let missing: Vec<UserId> = vec![1, 3];
        for round in 1..=4u64 {
            // Growing cell count exercises in-place stream extension.
            let params = BlindingParams {
                round,
                num_cells: 13 + 11 * round as usize,
            };
            for (c, w) in cold.iter().zip(&warm) {
                assert_eq!(
                    c.blinding_vector(params),
                    w.blinding_vector(params),
                    "round {round}"
                );
                // Derive twice: the second hit is served from cache.
                assert_eq!(
                    c.blinding_vector(params),
                    w.blinding_vector(params),
                    "round {round} (cache hit)"
                );
                assert_eq!(
                    c.adjustment_vector(params, &missing),
                    w.adjustment_vector(params, &missing),
                    "round {round} adjustment"
                );
            }
        }
        // 2 retained rounds × 4 peers each.
        assert_eq!(warm[0].cached_streams(), 8);
    }

    #[test]
    fn cache_retains_only_recent_rounds() {
        let (group, pairs, dir) = cohort(3, 107);
        let mut gens = generators(&group, &pairs, &dir);
        gens[0].enable_cache(1);
        let p = |round| BlindingParams {
            round,
            num_cells: 6,
        };
        let v1 = gens[0].blinding_vector(p(1));
        assert_eq!(gens[0].cached_streams(), 2, "round 1 cached (2 peers)");
        gens[0].blinding_vector(p(2));
        assert_eq!(gens[0].cached_streams(), 2, "round 1 evicted for round 2");
        // Re-deriving an evicted round still matches.
        assert_eq!(gens[0].blinding_vector(p(1)), v1);
        // Disabling drops the cache but not correctness.
        gens[0].enable_cache(0);
        assert!(!gens[0].cache_enabled());
        assert_eq!(gens[0].blinding_vector(p(1)), v1);
    }

    #[test]
    fn blindings_cancel_under_peer_churn_with_caches() {
        // Membership changes between rounds: generators are rebuilt
        // against each directory generation (fresh pairwise graph), and
        // the cancellation property must hold per generation even with
        // every cache enabled and old-round streams still resident.
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
                // Warm the cache, then take the cached derivation.
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
        synced.enable_cache(2);
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
        assert_eq!(g.cached_streams(), 4, "one stream per peer");

        // Peers 2 and 4 depart; their streams must leave the cache now,
        // not when round 1 ages out.
        let mut shrunk = KeyDirectory::new(group.element_len());
        for id in [0u32, 1, 3] {
            shrunk.publish(id, pairs[id as usize].public().clone());
        }
        let (added, removed) = g.sync_directory(&group, &pairs[0], &shrunk);
        assert_eq!((added, removed), (0, 2));
        assert_eq!(g.peer_count(), 2);
        assert_eq!(g.cached_streams(), 2, "departed peers' streams evicted");

        // A no-op sync changes nothing.
        assert_eq!(g.sync_directory(&group, &pairs[0], &shrunk), (0, 0));
        assert_eq!(g.cached_streams(), 2);
    }

    #[test]
    fn stream_extension_is_prefix_consistent() {
        let key = HmacKey::new(b"pairwise");
        let mut grown = BlindingStream::new(&key, 9);
        let mut cold = BlindingStream::new(&key, 9);
        let short = grown.bytes(40).to_vec();
        assert_eq!(grown.derived_len(), 64, "whole 32-byte blocks");
        let long = grown.bytes(200).to_vec();
        assert_eq!(&long[..40], &short[..]);
        assert_eq!(cold.bytes(200), &long[..]);
    }

    #[test]
    fn generator_is_sync_and_clonable() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BlindingGenerator>();

        let (group, pairs, dir) = cohort(3, 109);
        let mut g = BlindingGenerator::new(&group, 0, &pairs[0], &dir);
        g.enable_cache(2);
        let params = BlindingParams {
            round: 1,
            num_cells: 5,
        };
        let v = g.blinding_vector(params);
        let clone = g.clone();
        assert!(clone.cache_enabled(), "clone keeps cache config");
        assert_eq!(clone.blinding_vector(params), v);
    }
}
