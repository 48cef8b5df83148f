//! RSA-based Oblivious Pseudo-Random Function (Jarecki–Liu, TCC'09), as
//! adopted by the paper (§6) to map ad URLs to compact ad identifiers
//! without the backend or the oprf-server learning the mapping jointly.
//!
//! Definition: `F(k, x) = G(H(x)^d mod N)` where
//! * `H : {0,1}* → Z_N` hashes arbitrary strings into the RSA group,
//! * `d` is the oprf-server's private RSA exponent, and
//! * `G : Z_N → {0,1}^l` is an output hash.
//!
//! Protocol (one round trip):
//! 1. client picks random `r`, sends `x' = H(x) · r^e mod N`;
//! 2. server answers `y' = (x')^d mod N`;
//! 3. client unblinds `y = y' · r^{-1} = H(x)^d` and outputs `G(y)`.
//!
//! Blindness follows from `r^e` being uniform; one-more-unforgeability
//! from the one-more-RSA assumption. The ad ID used by the sketch layer
//! is `G(y)` truncated/reduced into `[0, |A|)` by the caller.
//!
//! ## Sharing & determinism
//!
//! Server-side evaluation is read-only over the key, so one key serves
//! any number of callers by reference; a batch itself is evaluated on
//! one thread ([`OprfServerKey::evaluate_blinded_batch`] — its two CRT
//! halves each as one many-bases exponentiation), with the
//! all-or-nothing range check running up front. Client-side batch
//! blinding costs one modular inversion per batch, whatever its length
//! (pinned by the `ops_trace` test `batch_blinding_uses_one_inversion`).

use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha256::Sha256;
use ew_bigint::{random_range, MontElem, MontgomeryCtx, UBig};
use rand::RngCore;

/// Length in bytes of the OPRF output `G(y)`.
pub const OPRF_OUTPUT_LEN: usize = 32;

/// Domain-separation tags for the two hashes.
const H_TAG: &[u8] = b"eyewnder/oprf/H/v1";
const G_TAG: &[u8] = b"eyewnder/oprf/G/v1";

/// Errors the OPRF protocol can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OprfError {
    /// A received group element was not in `[0, N)`.
    ElementOutOfRange,
    /// The blinding factor was not invertible (gcd(r, N) != 1 — would
    /// imply factoring N; practically unreachable, but handled).
    BlindingNotInvertible,
}

impl std::fmt::Display for OprfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OprfError::ElementOutOfRange => write!(f, "group element out of range"),
            OprfError::BlindingNotInvertible => write!(f, "blinding factor not invertible"),
        }
    }
}

impl std::error::Error for OprfError {}

/// Hash arbitrary bytes into `Z_N` (counter-mode SHA-256, reduced mod N).
///
/// We expand to `element_len + 16` bytes before reducing so the modular
/// bias is below 2^-128 — indistinguishable from uniform for our purposes.
pub fn hash_to_zn(input: &[u8], public: &RsaPublicKey) -> UBig {
    let target = public.element_len() + 16;
    let mut bytes = Vec::with_capacity(target);
    let mut counter: u32 = 0;
    while bytes.len() < target {
        bytes.extend_from_slice(&Sha256::digest_parts(&[
            H_TAG,
            &counter.to_be_bytes(),
            input,
        ]));
        counter += 1;
    }
    bytes.truncate(target);
    UBig::from_bytes_be(&bytes).rem_ref(&public.n)
}

/// Output hash `G : Z_N → {0,1}^l`.
pub fn output_hash(y: &UBig, public: &RsaPublicKey) -> [u8; OPRF_OUTPUT_LEN] {
    let serialized = y.to_bytes_be_padded(public.element_len());
    Sha256::digest_parts(&[G_TAG, &serialized])
}

/// The oprf-server's key material (wraps an RSA key pair).
#[derive(Debug, Clone)]
pub struct OprfServerKey {
    key: RsaKeyPair,
}

impl OprfServerKey {
    /// Generates a fresh server key with an RSA modulus of `bits` bits.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        OprfServerKey {
            key: RsaKeyPair::generate(rng, bits),
        }
    }

    /// The public parameters `(N, e)` clients need.
    pub fn public(&self) -> &RsaPublicKey {
        self.key.public()
    }

    /// Server side of the protocol: "sign" a blinded request.
    ///
    /// The server is oblivious: `blinded` is uniformly random in `Z_N`
    /// from its point of view.
    pub fn evaluate_blinded(&self, blinded: &UBig) -> Result<UBig, OprfError> {
        if blinded >= &self.key.public().n {
            return Err(OprfError::ElementOutOfRange);
        }
        Ok(self.key.private_op(blinded))
    }

    /// Batch variant of [`Self::evaluate_blinded`]: validates every
    /// element up front (all-or-nothing, so a hostile element cannot
    /// burn server time on the rest of the batch), then signs the batch
    /// on the key's cached CRT/Montgomery fast path, each CRT half as
    /// one many-bases exponentiation
    /// ([`RsaKeyPair::private_op_many`]).
    pub fn evaluate_blinded_batch(&self, blinded: &[UBig]) -> Result<Vec<UBig>, OprfError> {
        if blinded.iter().any(|b| b >= &self.key.public().n) {
            return Err(OprfError::ElementOutOfRange);
        }
        Ok(self.key.private_op_many(blinded))
    }

    /// Non-oblivious evaluation `F(k, x)` — ground truth for tests and
    /// for the crawler, which owns its own inputs anyway.
    pub fn evaluate_direct(&self, input: &[u8]) -> [u8; OPRF_OUTPUT_LEN] {
        let h = hash_to_zn(input, self.key.public());
        let y = self.key.private_op(&h);
        output_hash(&y, self.key.public())
    }
}

/// A pending blinded request: what the client must remember between
/// sending `x'` and receiving `y'`.
#[derive(Debug, Clone)]
pub struct PendingRequest {
    /// `r^{-1} mod N` in **Montgomery form**, so unblinding the
    /// response (`y'·r^{-1}`) costs a single CIOS pass
    /// (`CIOS(y', r̂^{-1}) = y'·r^{-1} mod N`).
    r_inv: MontElem,
    /// The blinded element sent to the server.
    pub blinded: UBig,
}

/// Client side of the OPRF protocol.
///
/// Construction caches a [`MontgomeryCtx`] for `N`, so every blinding
/// and unblinding multiply/exponentiation is division-free; batch
/// blinding ([`Self::blind_batch`]) additionally shares one modular
/// inversion across the whole batch. Blinding runs in the Montgomery
/// domain end to end (one conversion in per element, the domain exit
/// fused into the final product), and the unblinding factor is stored
/// in Montgomery form so [`Self::finalize`] is a single CIOS pass.
#[derive(Debug, Clone)]
pub struct OprfClient {
    public: RsaPublicKey,
    /// Cached Montgomery context for `N`.
    ctx: MontgomeryCtx,
}

impl OprfClient {
    /// Creates a client for a server with the given public key.
    pub fn new(public: RsaPublicKey) -> Self {
        let ctx = MontgomeryCtx::new(&public.n);
        OprfClient { public, ctx }
    }

    /// The server public key this client targets.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Step 1: blind `input`, producing the request to send and the
    /// secret unblinding state.
    ///
    /// The whole computation runs in the Montgomery domain: `r` is
    /// converted once, `r^e` stays in form, and the blinding product
    /// `H(x)·r^e` exits the domain fused into its final multiply —
    /// no per-operation conversion round-trips.
    pub fn blind<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        input: &[u8],
    ) -> Result<PendingRequest, OprfError> {
        let h = hash_to_zn(input, &self.public);
        // r uniform in [2, N): retry until invertible (always, for valid N).
        for _ in 0..16 {
            let r = random_range(rng, &UBig::two(), &self.public.n);
            let Some(r_inv) = r.modinv(&self.public.n) else {
                continue;
            };
            let r_e = self.ctx.modpow_mont(&self.ctx.to_mont(&r), &self.public.e);
            let blinded = self.ctx.mont_mul_mixed(&h, &r_e);
            return Ok(PendingRequest {
                r_inv: self.ctx.to_mont(&r_inv),
                blinded,
            });
        }
        Err(OprfError::BlindingNotInvertible)
    }

    /// Batch blinding: blinds every input with **one** modular
    /// inversion total (Montgomery's batch-inversion trick — the
    /// blinding factors' inverses come from a single extended GCD plus
    /// `3(n−1)` multiplications) instead of one inversion per input.
    ///
    /// The weekly client wake-up maps every new ad URL it saw in one
    /// go; this amortizes the per-request setup exactly where the paper
    /// counts its "once per (unique) ad" overhead.
    pub fn blind_batch<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        inputs: &[&[u8]],
    ) -> Result<Vec<PendingRequest>, OprfError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        // Retry whole-batch on the (factoring-hard) event that some r
        // shares a factor with N.
        for _ in 0..16 {
            let rs: Vec<UBig> = (0..inputs.len())
                .map(|_| random_range(rng, &UBig::two(), &self.public.n))
                .collect();
            let Some(r_invs) = self.ctx.batch_inv(&rs) else {
                continue;
            };
            return Ok(inputs
                .iter()
                .zip(rs.iter().zip(r_invs))
                .map(|(input, (r, r_inv))| {
                    let h = hash_to_zn(input, &self.public);
                    let r_e = self.ctx.modpow_mont(&self.ctx.to_mont(r), &self.public.e);
                    let blinded = self.ctx.mont_mul_mixed(&h, &r_e);
                    PendingRequest {
                        r_inv: self.ctx.to_mont(&r_inv),
                        blinded,
                    }
                })
                .collect());
        }
        Err(OprfError::BlindingNotInvertible)
    }

    /// Step 3: unblind the server's response and produce `F(k, x)`.
    ///
    /// The RSA relation `unblinded^e == H(x)` is *not* checked (the
    /// pending request does not retain `H(x)`), so a server that
    /// answers with the wrong element goes unnoticed.
    pub fn finalize(
        &self,
        pending: &PendingRequest,
        response: &UBig,
    ) -> Result<[u8; OPRF_OUTPUT_LEN], OprfError> {
        if response >= &self.public.n {
            return Err(OprfError::ElementOutOfRange);
        }
        let y = self.ctx.mont_mul_mixed(response, &pending.r_inv);
        Ok(output_hash(&y, &self.public))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (OprfServerKey, OprfClient, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let server = OprfServerKey::generate(&mut rng, 128);
        let client = OprfClient::new(server.public().clone());
        (server, client, rng)
    }

    #[test]
    fn oblivious_matches_direct() {
        let (server, client, mut rng) = setup(30);
        for input in [&b"https://ads.example/creative/1"[..], b"", b"x"] {
            let pending = client.blind(&mut rng, input).unwrap();
            let response = server.evaluate_blinded(&pending.blinded).unwrap();
            let out = client.finalize(&pending, &response).unwrap();
            assert_eq!(out, server.evaluate_direct(input));
        }
    }

    #[test]
    fn deterministic_per_input() {
        let (server, client, mut rng) = setup(33);
        let input = b"same ad, different blinding";
        let p1 = client.blind(&mut rng, input).unwrap();
        let p2 = client.blind(&mut rng, input).unwrap();
        // Different blinded requests (server can't link)...
        assert_ne!(p1.blinded, p2.blinded);
        // ...same final PRF output.
        let r1 = server.evaluate_blinded(&p1.blinded).unwrap();
        let r2 = server.evaluate_blinded(&p2.blinded).unwrap();
        assert_eq!(
            client.finalize(&p1, &r1).unwrap(),
            client.finalize(&p2, &r2).unwrap()
        );
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        let (server, _, _) = setup(34);
        assert_ne!(
            server.evaluate_direct(b"https://a.example/1"),
            server.evaluate_direct(b"https://a.example/2")
        );
    }

    #[test]
    fn server_rejects_out_of_range() {
        let (server, _, _) = setup(35);
        let too_big = server.public().n.add_ref(&UBig::one());
        assert_eq!(
            server.evaluate_blinded(&too_big),
            Err(OprfError::ElementOutOfRange)
        );
    }

    #[test]
    fn different_keys_different_prf() {
        let mut rng = StdRng::seed_from_u64(36);
        let s1 = OprfServerKey::generate(&mut rng, 128);
        let s2 = OprfServerKey::generate(&mut rng, 128);
        assert_ne!(
            s1.evaluate_direct(b"https://x.example"),
            s2.evaluate_direct(b"https://x.example")
        );
    }

    #[test]
    fn batch_matches_single_protocol() {
        let (server, client, mut rng) = setup(38);
        let urls: Vec<&[u8]> = vec![
            b"https://ads.example/a",
            b"https://ads.example/b",
            b"",
            b"https://ads.example/c?i=9",
        ];
        let pendings = client.blind_batch(&mut rng, &urls).unwrap();
        assert_eq!(pendings.len(), urls.len());
        let blinded: Vec<UBig> = pendings.iter().map(|p| p.blinded.clone()).collect();
        let responses = server.evaluate_blinded_batch(&blinded).unwrap();
        for ((url, pending), response) in urls.iter().zip(&pendings).zip(&responses) {
            let out = client.finalize(pending, response).unwrap();
            assert_eq!(out, server.evaluate_direct(url), "url mismatch");
        }
    }

    #[test]
    fn batch_blinding_uses_one_inversion() {
        let (_, client, mut rng) = setup(39);
        for len in [1usize, 4, 32] {
            let urls: Vec<Vec<u8>> = (0..len)
                .map(|i| format!("https://ads.example/{i}").into_bytes())
                .collect();
            let url_refs: Vec<&[u8]> = urls.iter().map(|u| u.as_slice()).collect();
            let before = ew_bigint::ops_trace::modinv_calls();
            client.blind_batch(&mut rng, &url_refs).unwrap();
            assert_eq!(
                ew_bigint::ops_trace::modinv_calls() - before,
                1,
                "len={len}: one inversion regardless of batch size"
            );
        }
    }

    #[test]
    fn batch_empty_is_empty() {
        let (_, client, mut rng) = setup(40);
        assert!(client.blind_batch(&mut rng, &[]).unwrap().is_empty());
    }

    #[test]
    fn batch_evaluation_equals_single_requests() {
        // The batch runs each CRT half as one many-bases exponentiation
        // (a lane pass for 24 elements, the scalar loop for a short
        // tail); every response must be the single-request one, on both
        // sides of a full pass and at the paper's key size.
        let mut rng = StdRng::seed_from_u64(45);
        for bits in [512usize, 2048] {
            let server = OprfServerKey::generate(&mut rng, bits);
            let n = &server.public().n;
            let blinded: Vec<UBig> = (0..33)
                .map(|_| ew_bigint::random_below(&mut rng, n))
                .collect();
            let single: Vec<UBig> = blinded
                .iter()
                .map(|b| server.evaluate_blinded(b).unwrap())
                .collect();
            for len in [0usize, 1, 31, 32, 33] {
                assert_eq!(
                    server.evaluate_blinded_batch(&blinded[..len]).unwrap(),
                    single[..len],
                    "RSA-{bits}, batch of {len}"
                );
            }
        }
    }

    #[test]
    fn batch_evaluate_rejects_any_out_of_range() {
        let (server, client, mut rng) = setup(41);
        let pending = client.blind(&mut rng, b"ok").unwrap();
        let too_big = server.public().n.add_ref(&UBig::one());
        let before = ew_bigint::ops_trace::mont_mul_calls();
        assert_eq!(
            server.evaluate_blinded_batch(&[pending.blinded.clone(), too_big.clone()]),
            Err(OprfError::ElementOutOfRange),
            "one bad element poisons the whole batch"
        );
        // Also when the valid prefix alone would fill a lane pass.
        let mut long = vec![pending.blinded.clone(); 32];
        long.push(too_big);
        assert_eq!(
            server.evaluate_blinded_batch(&long),
            Err(OprfError::ElementOutOfRange)
        );
        assert_eq!(
            ew_bigint::ops_trace::mont_mul_calls(),
            before,
            "rejected before any private op ran on the valid element"
        );
    }

    #[test]
    fn hash_to_zn_in_range() {
        let (server, _, _) = setup(37);
        for i in 0..50u32 {
            let h = hash_to_zn(&i.to_be_bytes(), server.public());
            assert!(h < server.public().n);
        }
    }
}
