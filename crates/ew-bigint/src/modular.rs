//! Modular arithmetic: exponentiation, inversion, extended GCD.
//!
//! [`UBig::modpow`] dispatches by modulus parity: odd moduli (every RSA
//! and safe-prime modulus in the protocol) take the division-free
//! Montgomery path of [`crate::MontgomeryCtx`]; even moduli fall back to
//! the generic square-and-multiply ladder, kept public as
//! [`UBig::modpow_generic`] for differential testing. Inversion gets the
//! same treatment: odd moduli use a division-free binary extended GCD,
//! the general case keeps the signed extended Euclid.

use crate::montgomery::MontgomeryCtx;
use crate::ops_trace;
use crate::ubig::UBig;

impl UBig {
    /// `(self - other) mod m`, where both operands are first reduced mod `m`.
    pub fn submod(&self, other: &UBig, m: &UBig) -> UBig {
        let a = self.rem_ref(m);
        let b = other.rem_ref(m);
        if a >= b {
            a.sub_ref(&b)
        } else {
            a.add_ref(m).sub_ref(&b)
        }
    }

    /// `(self * other) mod m`.
    pub fn mulmod(&self, other: &UBig, m: &UBig) -> UBig {
        self.mul_ref(other).rem_ref(m)
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli (the RSA/DH case) dispatch to a fixed-window
    /// Montgomery ladder — no division after the per-call context
    /// setup; callers on a hot loop should hold a
    /// [`crate::MontgomeryCtx`] and call [`crate::MontgomeryCtx::modpow`]
    /// directly to amortize even that. Even moduli use the generic
    /// ladder.
    ///
    /// # Panics
    /// Panics if `m` is zero. `m == 1` yields zero.
    pub fn modpow(&self, exp: &UBig, m: &UBig) -> UBig {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return UBig::zero();
        }
        if m.is_odd() {
            return MontgomeryCtx::new(m).modpow(self, exp);
        }
        self.modpow_generic(exp, m)
    }

    /// `self^exp mod m` via the generic 4-bit fixed-window ladder
    /// (multiply + long-divide per step). Works for any modulus; kept
    /// public as the reference implementation the Montgomery path is
    /// differentially tested against.
    ///
    /// # Panics
    /// Panics if `m` is zero. `m == 1` yields zero.
    pub fn modpow_generic(&self, exp: &UBig, m: &UBig) -> UBig {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return UBig::zero();
        }
        if exp.is_zero() {
            return UBig::one();
        }
        let base = self.rem_ref(m);
        if base.is_zero() {
            return UBig::zero();
        }

        // Precompute base^0..base^15.
        let mut table = Vec::with_capacity(16);
        table.push(UBig::one());
        for i in 1..16 {
            let prev: &UBig = &table[i - 1];
            table.push(prev.mulmod(&base, m));
        }

        let bits = exp.bit_len();
        // Process the exponent in 4-bit windows, most significant first.
        let windows = bits.div_ceil(4);
        let mut acc = UBig::one();
        for w in (0..windows).rev() {
            for _ in 0..4 {
                acc = acc.mulmod(&acc, m);
            }
            let mut nibble = 0usize;
            for b in 0..4 {
                let bit_index = w * 4 + (3 - b);
                nibble <<= 1;
                if exp.bit(bit_index) {
                    nibble |= 1;
                }
            }
            if nibble != 0 {
                acc = acc.mulmod(&table[nibble], m);
            }
        }
        acc
    }

    /// Multiplicative inverse of `self` modulo `m`, if it exists
    /// (i.e. `gcd(self, m) == 1`).
    ///
    /// Odd moduli use a division-free binary extended GCD; the general
    /// case runs the signed extended Euclid ([`ext_gcd`]).
    pub fn modinv(&self, m: &UBig) -> Option<UBig> {
        ops_trace::record_modinv();
        if m.is_zero() {
            return None;
        }
        let a = self.rem_ref(m);
        if a.is_zero() {
            return if m.is_one() { Some(UBig::zero()) } else { None };
        }
        if m.is_odd() {
            return modinv_odd(&a, m);
        }
        let (g, x, _) = ext_gcd(&a, m);
        if !g.is_one() {
            return None;
        }
        Some(x)
    }
}

/// `a - b mod m` for operands already reduced into `[0, m)` — a compare
/// and at most one add/sub, no division.
fn sub_mod_reduced(a: &UBig, b: &UBig, m: &UBig) -> UBig {
    if a >= b {
        a.sub_ref(b)
    } else {
        a.add_ref(m).sub_ref(b)
    }
}

/// Binary extended GCD inverse for **odd** `m > 1` and `a` in `[1, m)`.
///
/// The classic binary inversion algorithm (HAC 14.61 shape): strip
/// factors of two from the working values with shifts — using that `m`
/// odd makes `x/2 mod m` computable as `(x + m) / 2` when `x` is odd —
/// and subtract the smaller from the larger, mirroring every step on
/// the Bézout coefficients. No `divrem` anywhere.
fn modinv_odd(a: &UBig, m: &UBig) -> Option<UBig> {
    debug_assert!(m.is_odd() && !m.is_one());
    debug_assert!(!a.is_zero() && a < m);
    let mut u = a.clone();
    let mut v = m.clone();
    // Invariants: x1·a ≡ u (mod m), x2·a ≡ v (mod m), both in [0, m).
    let mut x1 = UBig::one();
    let mut x2 = UBig::zero();

    while !u.is_one() && !v.is_one() {
        while u.is_even() {
            u = u.shr_bits(1);
            x1 = (if x1.is_even() { x1 } else { x1.add_ref(m) }).shr_bits(1);
        }
        while v.is_even() {
            v = v.shr_bits(1);
            x2 = (if x2.is_even() { x2 } else { x2.add_ref(m) }).shr_bits(1);
        }
        if u >= v {
            u = u.sub_ref(&v);
            x1 = sub_mod_reduced(&x1, &x2, m);
        } else {
            v = v.sub_ref(&u);
            x2 = sub_mod_reduced(&x2, &x1, m);
        }
        if u.is_zero() || v.is_zero() {
            // gcd(a, m) > 1: the odd cores collided before reaching 1.
            return None;
        }
    }

    Some(if u.is_one() { x1 } else { x2 })
}

/// Extended Euclidean algorithm over naturals.
///
/// Returns `(g, x, y)` with `g = gcd(a, b)` and the Bézout identity
/// `a*x ≡ g (mod b)` and `b*y ≡ g (mod a)`; `x` is reduced into `[0, b)`
/// and `y` into `[0, a)` (so it can be used directly as a modular inverse
/// when `g == 1`). `a` and `b` must not both be zero.
///
/// Internally tracks signed Bézout coefficients as (magnitude, sign) pairs
/// to stay within unsigned big-integer arithmetic.
pub fn ext_gcd(a: &UBig, b: &UBig) -> (UBig, UBig, UBig) {
    assert!(!(a.is_zero() && b.is_zero()), "ext_gcd(0, 0) is undefined");
    // Signed value = (magnitude, negative?)
    type S = (UBig, bool);

    fn s_sub(lhs: &S, rhs: &S) -> S {
        // lhs - rhs
        match (lhs.1, rhs.1) {
            (false, true) => (lhs.0.add_ref(&rhs.0), false),
            (true, false) => (lhs.0.add_ref(&rhs.0), true),
            (false, false) => {
                if lhs.0 >= rhs.0 {
                    (lhs.0.sub_ref(&rhs.0), false)
                } else {
                    (rhs.0.sub_ref(&lhs.0), true)
                }
            }
            (true, true) => {
                if rhs.0 >= lhs.0 {
                    (rhs.0.sub_ref(&lhs.0), false)
                } else {
                    (lhs.0.sub_ref(&rhs.0), true)
                }
            }
        }
    }

    fn s_mul(lhs: &S, k: &UBig) -> S {
        (lhs.0.mul_ref(k), lhs.1 && !lhs.0.is_zero())
    }

    let mut old_r = a.clone();
    let mut r = b.clone();
    let mut old_s: S = (UBig::one(), false);
    let mut s: S = (UBig::zero(), false);
    let mut old_t: S = (UBig::zero(), false);
    let mut t: S = (UBig::one(), false);

    while !r.is_zero() {
        let (q, rem) = old_r.divrem(&r);
        old_r = std::mem::replace(&mut r, rem);
        let new_s = s_sub(&old_s, &s_mul(&s, &q));
        old_s = std::mem::replace(&mut s, new_s);
        let new_t = s_sub(&old_t, &s_mul(&t, &q));
        old_t = std::mem::replace(&mut t, new_t);
    }

    // Reduce the signed coefficient into the canonical non-negative range.
    fn reduce(coef: S, modulus: &UBig) -> UBig {
        if modulus.is_zero() {
            // Degenerate: the other input was zero; coefficient is 0 or 1.
            return coef.0;
        }
        let mag = coef.0.rem_ref(modulus);
        if coef.1 && !mag.is_zero() {
            modulus.sub_ref(&mag)
        } else {
            mag
        }
    }

    let x = reduce(old_s, b);
    let y = reduce(old_t, a);
    (old_r, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    #[test]
    fn modpow_fermat() {
        // a^(p-1) = 1 mod p for prime p, a not divisible by p.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(n(a).modpow(&n(1_000_000_006), &p), UBig::one());
        }
    }

    #[test]
    fn modpow_matches_naive_small() {
        let m = n(9973);
        for base in [0u64, 1, 2, 17, 9972] {
            for exp in [0u64, 1, 2, 3, 19, 64, 65, 100] {
                let mut naive = 1u64;
                for _ in 0..exp {
                    naive = naive * base % 9973;
                }
                assert_eq!(
                    n(base).modpow(&n(exp), &m),
                    n(naive),
                    "base={base} exp={exp}"
                );
            }
        }
    }

    #[test]
    fn modpow_modulus_one() {
        assert_eq!(n(5).modpow(&n(10), &UBig::one()), UBig::zero());
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn modpow_zero_modulus_panics() {
        n(5).modpow(&n(10), &UBig::zero());
    }

    #[test]
    fn modpow_large_exponent() {
        // 2^(2^70) mod 101 has period dividing 100 in the exponent;
        // 2^70 mod 100 = 24 -> answer = 2^24 mod 101.
        let exp = &UBig::one() << 70;
        let expected = n(2).modpow(&n(24), &n(101));
        assert_eq!(n(2).modpow(&exp, &n(101)), expected);
    }

    #[test]
    fn ext_gcd_bezout() {
        let a = n(240);
        let b = n(46);
        let (g, x, y) = ext_gcd(&a, &b);
        assert_eq!(g, n(2));
        // a*x mod b == g mod b, b*y mod a == g mod a
        assert_eq!(a.mulmod(&x, &b), g.rem_ref(&b));
        assert_eq!(b.mulmod(&y, &a), g.rem_ref(&a));
    }

    #[test]
    fn modinv_small_field() {
        let p = n(97);
        for a in 1..97u64 {
            let inv = n(a).modinv(&p).expect("prime field inverse exists");
            assert_eq!(n(a).mulmod(&inv, &p), UBig::one(), "a={a}");
        }
    }

    #[test]
    fn modinv_nonexistent() {
        assert_eq!(n(6).modinv(&n(9)), None);
        assert_eq!(n(0).modinv(&n(7)), None);
    }

    #[test]
    fn modinv_rsa_style() {
        // e*d = 1 mod phi for the classic (p,q)=(61,53), phi=3120, e=17.
        let phi = n(3120);
        let d = n(17).modinv(&phi).unwrap();
        assert_eq!(d, n(2753));
    }

    #[test]
    fn submod_wraps() {
        assert_eq!(n(3).submod(&n(5), &n(7)), n(5));
        assert_eq!(n(5).submod(&n(3), &n(7)), n(2));
        assert_eq!(n(12).submod(&n(26), &n(7)), n(0));
    }
}
