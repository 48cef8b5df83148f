//! Multiplicative groups modulo a safe prime, used for the Diffie–Hellman
//! agreements behind the Kursawe blinding construction.
//!
//! The paper assumes "a cyclic group G of order q where Computational
//! Diffie-Hellman is hard". We provide the standard RFC 3526 2048-bit
//! MODP group for deployment-scale parameters, plus generated
//! safe-prime groups of arbitrary size so the test suite stays fast.
//!
//! ## Exponent width
//!
//! Private exponents are `EXPONENT_BITS` = 256 bits wide, not the
//! width of the subgroup order `q` (2 047 bits at MODP-2048). A
//! safe-prime group at security strength *s* needs a 2·*s*-bit
//! exponent, and MODP-2048 has *s* ≈ 112: RFC 7919 §5.2, NIST SP
//! 800-56A Rev. 3 §5.6.1.1.4 and the strength table of RFC 3526 §8 all
//! size the exponent that way, and van Oorschot & Wiener (EUROCRYPT '96)
//! show why 2·*s* is the floor (a λ-method on the exponent costs
//! 2^(bits/2)). `q` is prime, so a short exponent leaks nothing through
//! a small subgroup. Every exponentiation by a secret — keygen's
//! [`ModpGroup::pow_g`] and enrolment's `y_j^{x_i}` — walks an eighth of
//! the bits it would at full width. Groups whose `q` is no wider than
//! `EXPONENT_BITS` (the generated test groups) keep drawing from all of
//! `[1, q)`.

use ew_bigint::{gen_safe_prime, random_range, FixedBaseTable, MontgomeryCtx, UBig};
use rand::RngCore;
use std::sync::Arc;

/// Width in bits of a private exponent drawn by
/// [`ModpGroup::random_exponent`]: twice the 128-bit strength target,
/// which covers MODP-2048's ≈ 112 bits. A 2·*s*-bit exponent is what
/// RFC 7919 §5.2, NIST SP 800-56A Rev. 3 §5.6.1.1.4 and RFC 3526 §8
/// prescribe for a safe-prime group of strength *s*; van Oorschot &
/// Wiener (EUROCRYPT '96) give the 2·*s* floor. The generator table is
/// sized to it.
const EXPONENT_BITS: usize = 256;

/// A multiplicative group `Z_p^*` restricted to the prime-order subgroup
/// of quadratic residues, for a safe prime `p = 2q + 1`.
///
/// The generator is chosen as a quadratic residue so the subgroup it
/// generates has prime order `q`, which makes exponent arithmetic clean.
///
/// Construction precomputes a shared [`MontgomeryCtx`] for `p` (every
/// [`Self::pow`] is division-free) and a [`FixedBaseTable`] for the
/// generator, so [`Self::pow_g`] — the key-generation hot path run once
/// per user in a cohort — costs one multiply per exponent nibble and no
/// squarings. Both are behind `Arc`s: cloning a group is cheap and all
/// clones share the tables.
#[derive(Debug, Clone)]
pub struct ModpGroup {
    /// Safe prime modulus `p`.
    p: Arc<UBig>,
    /// Subgroup order `q = (p-1)/2`.
    q: Arc<UBig>,
    /// Generator of the order-`q` subgroup.
    g: Arc<UBig>,
    /// Montgomery context for `p`, shared by all exponentiations.
    ctx: Arc<MontgomeryCtx>,
    /// Fixed-base window table for `g`, covering the exponents
    /// [`Self::random_exponent`] draws.
    g_table: Arc<FixedBaseTable>,
}

/// RFC 3526 group 14 (2048-bit MODP), hex from the RFC.
const MODP_2048_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B",
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9",
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510",
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
);

impl ModpGroup {
    /// The 2048-bit MODP group from RFC 3526 (group id 14), generator 2.
    ///
    /// `2` generates the order-`q` subgroup in this group because
    /// `p ≡ 7 (mod 8)` makes 2 a quadratic residue.
    pub fn modp_2048() -> Self {
        Self::from_safe_prime(
            UBig::from_hex(MODP_2048_HEX).expect("RFC constant parses"),
            UBig::two(),
        )
    }

    /// Builds a group from a known safe prime and a candidate generator.
    ///
    /// The candidate is squared, which guarantees landing in the
    /// order-`q` quadratic-residue subgroup regardless of the input
    /// (as long as the square is not 1).
    fn from_safe_prime(p: UBig, candidate: UBig) -> Self {
        let q = p.sub_ref(&UBig::one()).shr_bits(1);
        let g = candidate.mulmod(&candidate, &p);
        assert!(!g.is_one() && !g.is_zero(), "degenerate generator");
        let ctx = Arc::new(MontgomeryCtx::new(&p));
        // The table covers what `random_exponent` draws — at most
        // EXPONENT_BITS bits, fewer when q is narrower — and shares the
        // group's context rather than copying it. A wider exponent
        // falls back to `modpow`.
        let exp_bits = q.bit_len().min(EXPONENT_BITS);
        let g_table = FixedBaseTable::new(Arc::clone(&ctx), &g, exp_bits);
        ModpGroup {
            p: Arc::new(p),
            q: Arc::new(q),
            g: Arc::new(g),
            ctx,
            g_table: Arc::new(g_table),
        }
    }

    /// Generates a fresh safe-prime group of `bits` bits — intended for
    /// tests where 2048-bit exponentiations would dominate runtime.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        let p = gen_safe_prime(rng, bits);
        Self::from_safe_prime(p, UBig::two())
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &UBig {
        &self.p
    }

    /// The subgroup order `q`.
    pub fn order(&self) -> &UBig {
        &self.q
    }

    /// The subgroup generator.
    pub fn generator(&self) -> &UBig {
        &self.g
    }

    /// Size of a serialized group element in bytes.
    pub fn element_len(&self) -> usize {
        self.p.bit_len().div_ceil(8)
    }

    /// The shared Montgomery context for `p`.
    pub fn ctx(&self) -> &MontgomeryCtx {
        &self.ctx
    }

    /// `g^exp mod p` through the precomputed fixed-base table.
    pub fn pow_g(&self, exp: &UBig) -> UBig {
        self.g_table.pow(exp)
    }

    /// `base^exp mod p` through the shared Montgomery context.
    pub fn pow(&self, base: &UBig, exp: &UBig) -> UBig {
        self.ctx.modpow(base, exp)
    }

    /// `base^exp mod p` for a whole batch under one exponent — element
    /// `i` is [`Self::pow`]`(&bases[i], exp)`, computed for many bases
    /// side by side where the CPU allows
    /// ([`MontgomeryCtx::modpow_many`]).
    pub fn pow_many(&self, bases: &[UBig], exp: &UBig) -> Vec<UBig> {
        self.ctx.modpow_many(bases, exp)
    }

    /// `a·b mod p` through the shared Montgomery context (operands must
    /// be reduced).
    pub fn mul(&self, a: &UBig, b: &UBig) -> UBig {
        self.ctx.mulmod(a, b)
    }

    /// Uniformly random private exponent: in `[1, 2^EXPONENT_BITS)` when
    /// `q` is wider than `EXPONENT_BITS`, in `[1, q)` otherwise (the
    /// small generated groups, whose draws stay what they always were).
    pub fn random_exponent<R: RngCore + ?Sized>(&self, rng: &mut R) -> UBig {
        if self.q.bit_len() > EXPONENT_BITS {
            random_range(rng, &UBig::one(), &UBig::one().shl_bits(EXPONENT_BITS))
        } else {
            random_range(rng, &UBig::one(), &self.q)
        }
    }

    /// Serializes a group element, left-padded to [`Self::element_len`].
    pub fn serialize_element(&self, el: &UBig) -> Vec<u8> {
        el.to_bytes_be_padded(self.element_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modp_2048_parameters() {
        let grp = ModpGroup::modp_2048();
        assert_eq!(grp.modulus().bit_len(), 2048);
        assert_eq!(grp.element_len(), 256);
        // g = 4 (2 squared) has order q: g^q == 1.
        assert_eq!(grp.pow_g(grp.order()), UBig::one());
    }

    #[test]
    fn generated_group_has_expected_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let grp = ModpGroup::generate(&mut rng, 64);
        assert_eq!(grp.modulus().bit_len(), 64);
        assert_eq!(grp.pow_g(grp.order()), UBig::one());
        // Order is prime and (p-1)/2.
        let expected_q = grp.modulus().sub_ref(&UBig::one()).shr_bits(1);
        assert_eq!(grp.order(), &expected_q);
    }

    #[test]
    fn dh_commutes() {
        let mut rng = StdRng::seed_from_u64(2);
        let grp = ModpGroup::generate(&mut rng, 64);
        let a = grp.random_exponent(&mut rng);
        let b = grp.random_exponent(&mut rng);
        let ga = grp.pow_g(&a);
        let gb = grp.pow_g(&b);
        assert_eq!(grp.pow(&gb, &a), grp.pow(&ga, &b));
    }

    #[test]
    fn random_exponent_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let grp = ModpGroup::generate(&mut rng, 48);
        for _ in 0..50 {
            let e = grp.random_exponent(&mut rng);
            assert!(!e.is_zero());
            assert!(&e < grp.order());
        }
    }

    #[test]
    fn modp_2048_exponents_are_exponent_bits_wide() {
        let grp = ModpGroup::modp_2048();
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<UBig> = (0..1000).map(|_| grp.random_exponent(&mut rng)).collect();
        for e in &draws {
            assert!(!e.is_zero());
            assert!(e.bit_len() <= EXPONENT_BITS, "{} bits", e.bit_len());
        }
        // Uniform below 2^256: the top bit is a fair coin.
        let top = draws.iter().filter(|e| e.bit(EXPONENT_BITS - 1)).count();
        assert!((400..=600).contains(&top), "bit 255 set in {top} of 1000");
        // The table covers every drawn exponent; a wider one (q itself)
        // takes the modpow fallback, checked in `modp_2048_parameters`.
        for e in &draws[..3] {
            assert_eq!(grp.pow_g(e), grp.pow(grp.generator(), e));
        }
    }

    #[test]
    fn narrow_group_draws_exactly_as_over_the_whole_order() {
        // A q no wider than EXPONENT_BITS keeps the full-range draw, word
        // for word, so every world built on a generated group is
        // unchanged by the width cap.
        let grp = ModpGroup::generate(&mut StdRng::seed_from_u64(8), 64);
        let mut capped = StdRng::seed_from_u64(9);
        let mut full = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(
                grp.random_exponent(&mut capped),
                random_range(&mut full, &UBig::one(), grp.order())
            );
        }
        assert_eq!(capped.next_u64(), full.next_u64(), "same words consumed");
    }

    #[test]
    fn fixed_base_and_ctx_match_generic_ladder() {
        let mut rng = StdRng::seed_from_u64(5);
        let grp = ModpGroup::generate(&mut rng, 64);
        for _ in 0..20 {
            let e = grp.random_exponent(&mut rng);
            let expected = grp.generator().modpow_generic(&e, grp.modulus());
            assert_eq!(grp.pow_g(&e), expected, "fixed-base table");
            assert_eq!(grp.pow(grp.generator(), &e), expected, "shared ctx");
        }
    }

    #[test]
    fn group_mul_matches_plain() {
        let mut rng = StdRng::seed_from_u64(6);
        let grp = ModpGroup::generate(&mut rng, 64);
        let a = grp.pow_g(&grp.random_exponent(&mut rng));
        let b = grp.pow_g(&grp.random_exponent(&mut rng));
        assert_eq!(grp.mul(&a, &b), a.mulmod(&b, grp.modulus()));
    }

    #[test]
    fn element_serialization_fixed_len() {
        let mut rng = StdRng::seed_from_u64(4);
        let grp = ModpGroup::generate(&mut rng, 61);
        let el = grp.pow_g(&grp.random_exponent(&mut rng));
        let bytes = grp.serialize_element(&el);
        assert_eq!(bytes.len(), grp.element_len());
        assert_eq!(UBig::from_bytes_be(&bytes), el);
    }
}
