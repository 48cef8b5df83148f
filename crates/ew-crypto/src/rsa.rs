//! RSA key generation and raw operations for the oblivious PRF server.
//!
//! The oprf-server of the paper holds an RSA triple `(N, d, e)` with
//! `N = p·q` and `e·d ≡ 1 (mod φ(N))`; it publishes `(N, e)` and keeps
//! `d` private (§6, "OPRF" paragraph).
//!
//! ## Performance
//!
//! The private operation is the server's per-request cost and the
//! paper's §7.1 latency bottleneck, so it runs on the CRT fast path:
//! keygen stores `(p, q, d_p = d mod p−1, d_q = d mod q−1,
//! q⁻¹ mod p)` and `private_op` performs two half-width Montgomery
//! exponentiations plus a Garner recombination — about 4× fewer word
//! multiplications than one full-width exponentiation, on top of the
//! Montgomery savings themselves. The per-prime and per-modulus
//! [`MontgomeryCtx`]s are cached in the key, so repeated evaluations
//! (`evaluate_blinded` on millions of requests) never re-derive
//! constants; exponentiation scratch comes from `ew-bigint`'s
//! persistent per-thread arena, so steady-state evaluation allocates
//! only its results. A batch of requests ([`RsaKeyPair::private_op_many`])
//! shares its exponents, so each CRT half runs as one
//! [`MontgomeryCtx::modpow_many`] — many bases side by side in vector
//! lanes where the CPU has them. The Garner coefficient `q⁻¹ mod p` is cached **in
//! Montgomery form**, which turns the recombination multiply into a
//! single CIOS pass (`CIOS(diff, q̂⁻¹) = diff·q⁻¹ mod p`).

use ew_bigint::{gen_prime, MontElem, MontgomeryCtx, UBig};
use rand::RngCore;

/// Public half of an RSA key: `(N, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus `N = p·q`.
    pub n: UBig,
    /// Public exponent `e` (65537 by default).
    pub e: UBig,
}

impl RsaPublicKey {
    /// Size of the modulus in bits; tests check key generation's
    /// modulus size with it.
    #[cfg(test)]
    fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Serialized size of one `Z_N` element in bytes.
    pub fn element_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }
}

/// CRT secret material: the factors of `N` plus the reduced private
/// exponents and the Garner coefficient, with cached Montgomery
/// contexts for both primes.
#[derive(Debug, Clone)]
struct CrtKey {
    /// First prime factor.
    p: UBig,
    /// Second prime factor.
    q: UBig,
    /// `d mod (p-1)`.
    d_p: UBig,
    /// `d mod (q-1)`.
    d_q: UBig,
    /// `q^{-1} mod p` (Garner's recombination coefficient), cached in
    /// Montgomery form so the recombination multiply is one CIOS pass.
    q_inv_mont: MontElem,
    /// Montgomery context for `p`.
    ctx_p: MontgomeryCtx,
    /// Montgomery context for `q`.
    ctx_q: MontgomeryCtx,
}

impl CrtKey {
    /// Garner's recombination of `m_p = x^{d_p} mod p` and
    /// `m_q = x^{d_q} mod q`: `m_q + q·(q⁻¹·(m_p − m_q) mod p)`, the
    /// multiply by the cached Montgomery-form `q⁻¹` being one CIOS
    /// pass.
    fn garner(&self, m_p: UBig, m_q: UBig) -> UBig {
        let diff = m_p.submod(&m_q, &self.p);
        let h = self.ctx_p.mont_mul_mixed(&diff, &self.q_inv_mont);
        m_q.add_ref(&h.mul_ref(&self.q))
    }
}

/// Full RSA key pair held by the oprf-server.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    /// Private exponent `d` (kept for the non-CRT reference path).
    d: UBig,
    /// CRT fast-path material.
    crt: CrtKey,
    /// Montgomery context for `N`, for the non-CRT reference path.
    ctx_n: MontgomeryCtx,
}

/// Standard public exponent 2^16 + 1.
const DEFAULT_E: u64 = 65_537;

impl RsaKeyPair {
    /// Generates a fresh key with a modulus of (approximately) `bits`
    /// bits: two random primes of `bits/2` bits each.
    ///
    /// Primes are regenerated if `gcd(e, φ) != 1` or if `p == q`
    /// (vanishingly unlikely but cheap to guard).
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 32, "modulus too small to be meaningful");
        let e = UBig::from_u64(DEFAULT_E);
        loop {
            let p = gen_prime(rng, bits / 2);
            let q = gen_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let one = UBig::one();
            let p1 = p.sub_ref(&one);
            let q1 = q.sub_ref(&one);
            let phi = p1.mul_ref(&q1);
            let Some(d) = e.modinv(&phi) else {
                continue;
            };
            let Some(q_inv) = q.modinv(&p) else {
                // p == q is excluded above, so q is always invertible;
                // defensive regardless.
                continue;
            };
            let n = p.mul_ref(&q);
            let ctx_p = MontgomeryCtx::new(&p);
            let crt = CrtKey {
                d_p: d.rem_ref(&p1),
                d_q: d.rem_ref(&q1),
                q_inv_mont: ctx_p.to_mont(&q_inv),
                ctx_q: MontgomeryCtx::new(&q),
                ctx_p,
                p,
                q,
            };
            let ctx_n = MontgomeryCtx::new(&n);
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
                crt,
                ctx_n,
            };
        }
    }

    /// The public `(N, e)`.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA private operation `x^d mod N` — the oprf-server's
    /// "sign" — on the CRT fast path: `m_p = x^{d_p} mod p`,
    /// `m_q = x^{d_q} mod q`, recombined via Garner as
    /// `m_q + q·(q_inv·(m_p − m_q) mod p)`. The Garner multiply uses
    /// the cached Montgomery-form `q⁻¹`, so it costs a single CIOS
    /// pass instead of a full `mulmod` round-trip.
    pub fn private_op(&self, x: &UBig) -> UBig {
        let crt = &self.crt;
        crt.garner(crt.ctx_p.modpow(x, &crt.d_p), crt.ctx_q.modpow(x, &crt.d_q))
    }

    /// [`Self::private_op`] on a whole batch. Every element is raised
    /// to the same `d_p` modulo `p` and the same `d_q` modulo `q`, so
    /// each CRT half is one [`MontgomeryCtx::modpow_many`] batch; the
    /// Garner step stays per element. Element `i` equals
    /// `private_op(&xs[i])`.
    pub fn private_op_many(&self, xs: &[UBig]) -> Vec<UBig> {
        let crt = &self.crt;
        let m_ps = crt.ctx_p.modpow_many(xs, &crt.d_p);
        let m_qs = crt.ctx_q.modpow_many(xs, &crt.d_q);
        m_ps.into_iter()
            .zip(m_qs)
            .map(|(m_p, m_q)| crt.garner(m_p, m_q))
            .collect()
    }

    /// Reference (non-CRT) private operation: one full-width
    /// exponentiation by `d`. Kept for differential testing of the CRT
    /// path.
    pub fn private_op_no_crt(&self, x: &UBig) -> UBig {
        self.ctx_n.modpow(x, &self.d)
    }

    /// Raw RSA public operation `x^e mod N`; tests check the private
    /// operation against it.
    #[cfg(test)]
    fn public_op(&self, x: &UBig) -> UBig {
        self.ctx_n.modpow(x, &self.public.e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_bigint::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn private_undoes_public() {
        let mut rng = StdRng::seed_from_u64(20);
        let key = RsaKeyPair::generate(&mut rng, 128);
        for _ in 0..10 {
            let x = random_below(&mut rng, &key.public().n);
            assert_eq!(key.private_op(&key.public_op(&x)), x);
            assert_eq!(key.public_op(&key.private_op(&x)), x);
        }
    }

    #[test]
    fn crt_matches_full_width() {
        let mut rng = StdRng::seed_from_u64(24);
        for bits in [64usize, 128, 256] {
            let key = RsaKeyPair::generate(&mut rng, bits);
            for _ in 0..5 {
                let x = random_below(&mut rng, &key.public().n);
                assert_eq!(key.private_op(&x), key.private_op_no_crt(&x), "bits={bits}");
            }
        }
    }

    #[test]
    fn crt_handles_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(25);
        let key = RsaKeyPair::generate(&mut rng, 128);
        assert_eq!(key.private_op(&UBig::zero()), UBig::zero());
        assert_eq!(key.private_op(&UBig::one()), UBig::one());
    }

    #[test]
    fn modulus_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(21);
        for bits in [64usize, 96, 128] {
            let key = RsaKeyPair::generate(&mut rng, bits);
            // p, q have bits/2 bits each with top bits forced, so the
            // product has bits or bits-1... with forced top bits it is
            // exactly `bits` or `bits - 1`.
            let got = key.public().modulus_bits();
            assert!(got == bits || got == bits - 1, "bits={bits} got={got}");
        }
    }

    #[test]
    fn default_exponent_is_65537() {
        let mut rng = StdRng::seed_from_u64(22);
        let key = RsaKeyPair::generate(&mut rng, 64);
        assert_eq!(key.public().e, UBig::from_u64(65_537));
    }

    #[test]
    fn distinct_keys_per_invocation() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = RsaKeyPair::generate(&mut rng, 64);
        let b = RsaKeyPair::generate(&mut rng, 64);
        assert_ne!(a.public().n, b.public().n);
    }
}
