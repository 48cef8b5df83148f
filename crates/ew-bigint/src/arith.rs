//! Addition, subtraction, multiplication and shifts for [`UBig`].
//!
//! Multiplication is schoolbook `O(n^2)` below [`KARATSUBA_THRESHOLD`]
//! limbs and a single-level Karatsuba split above it. For the operand
//! sizes this project touches (≤ 4096-bit RSA moduli, i.e. 64 limbs) the
//! split keeps modular exponentiation comfortably fast without the
//! complexity of Toom-Cook or FFT multiplication.

use crate::ubig::UBig;
use std::ops::{Add, Mul, Shl, Shr, Sub};

/// Operand size (in limbs) above which Karatsuba multiplication is used.
pub(crate) const KARATSUBA_THRESHOLD: usize = 24;

impl UBig {
    /// `self + other`.
    pub fn add_ref(&self, other: &UBig) -> UBig {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(longer.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.limbs.len() {
            let a = longer.limbs[i];
            let b = shorter.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self` (unsigned underflow).
    pub fn sub_ref(&self, other: &UBig) -> UBig {
        self.checked_sub(other).expect("UBig subtraction underflow")
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0, "ordering check above precludes borrow");
        let mut r = UBig { limbs: out };
        r.normalize();
        Some(r)
    }

    /// `self * other`.
    pub fn mul_ref(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        if self.limb_count().min(other.limb_count()) >= KARATSUBA_THRESHOLD {
            return karatsuba(self, other);
        }
        schoolbook(self, other)
    }

    /// `self * m` for a machine word `m`.
    pub fn mul_u64(&self, m: u64) -> UBig {
        if m == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &limb in &self.limbs {
            let prod = limb as u128 * m as u128 + carry;
            out.push(prod as u64);
            carry = prod >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// `self << bits`.
    pub fn shl_bits(&self, bits: usize) -> UBig {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// `self >> bits` (shifting everything out yields zero).
    pub fn shr_bits(&self, bits: usize) -> UBig {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map(|&n| n << (64 - bit_shift)).unwrap_or(0);
                out.push(lo | hi);
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }
}

/// Schoolbook long multiplication with `u128` partial products.
fn schoolbook(a: &UBig, b: &UBig) -> UBig {
    let mut out = vec![0u64; a.limbs.len() + b.limbs.len()];
    for (i, &ai) in a.limbs.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.limbs.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.limbs.len();
        while carry > 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    let mut r = UBig { limbs: out };
    r.normalize();
    r
}

/// One Karatsuba level: splits at half the shorter operand, recursing via
/// `mul_ref` so deep operands keep splitting.
fn karatsuba(a: &UBig, b: &UBig) -> UBig {
    let split = a.limb_count().min(b.limb_count()) / 2;
    let (a0, a1) = split_at_limb(a, split);
    let (b0, b1) = split_at_limb(b, split);
    let z0 = a0.mul_ref(&b0);
    let z2 = a1.mul_ref(&b1);
    let z1 = a0
        .add_ref(&a1)
        .mul_ref(&b0.add_ref(&b1))
        .sub_ref(&z0)
        .sub_ref(&z2);
    z2.shl_bits(2 * split * 64)
        .add_ref(&z1.shl_bits(split * 64))
        .add_ref(&z0)
}

fn split_at_limb(v: &UBig, at: usize) -> (UBig, UBig) {
    if at >= v.limbs.len() {
        return (v.clone(), UBig::zero());
    }
    let mut lo = UBig {
        limbs: v.limbs[..at].to_vec(),
    };
    lo.normalize();
    let mut hi = UBig {
        limbs: v.limbs[at..].to_vec(),
    };
    hi.normalize();
    (lo, hi)
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl $trait<&UBig> for &UBig {
            type Output = UBig;
            fn $method(self, rhs: &UBig) -> UBig {
                self.$inner(rhs)
            }
        }
        impl $trait<UBig> for UBig {
            type Output = UBig;
            fn $method(self, rhs: UBig) -> UBig {
                (&self).$inner(&rhs)
            }
        }
        impl $trait<&UBig> for UBig {
            type Output = UBig;
            fn $method(self, rhs: &UBig) -> UBig {
                (&self).$inner(rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Sub, sub, sub_ref);
forward_binop!(Mul, mul, mul_ref);

impl Shl<usize> for &UBig {
    type Output = UBig;
    fn shl(self, bits: usize) -> UBig {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &UBig {
    type Output = UBig;
    fn shr(self, bits: usize) -> UBig {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    #[test]
    fn add_with_carry_chain() {
        let a = UBig::from_u128(u128::MAX);
        let b = UBig::one();
        let sum = a.add_ref(&b);
        assert_eq!(sum, &UBig::one() << 128);
    }

    #[test]
    fn sub_exact_and_underflow() {
        assert_eq!(n(10).sub_ref(&n(4)), n(6));
        assert_eq!(n(10).checked_sub(&n(11)), None);
        let big = &UBig::one() << 128;
        assert_eq!(big.sub_ref(&UBig::one()), UBig::from_u128(u128::MAX));
    }

    #[test]
    fn schoolbook_known_product() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = n(u64::MAX);
        let expected = (&UBig::one() << 128)
            .sub_ref(&(&UBig::one() << 65))
            .add_ref(&UBig::one());
        assert_eq!(a.mul_ref(&a), expected);
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = UBig::from_hex("123456789abcdef0123456789").unwrap();
        assert_eq!(a.mul_ref(&UBig::zero()), UBig::zero());
        assert_eq!(a.mul_ref(&UBig::one()), a);
    }

    #[test]
    fn mul_u64_matches_general_mul() {
        let a = UBig::from_hex("ffeeddccbbaa99887766554433221100aabbcc").unwrap();
        assert_eq!(a.mul_u64(12345), a.mul_ref(&n(12345)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Construct operands wide enough to trigger the Karatsuba path.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..KARATSUBA_THRESHOLD + 5 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
            limbs_a.push(x);
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
            limbs_b.push(x);
        }
        let a = UBig { limbs: limbs_a };
        let b = UBig { limbs: limbs_b };
        assert_eq!(karatsuba(&a, &b), schoolbook(&a, &b));
    }

    #[test]
    fn shifts_inverse() {
        let a = UBig::from_hex("deadbeefcafebabe1234").unwrap();
        assert_eq!(a.shl_bits(77).shr_bits(77), a);
        assert_eq!(a.shr_bits(200), UBig::zero());
        assert_eq!(a.shl_bits(0), a);
    }

    #[test]
    fn shl_multiplies_by_power_of_two() {
        assert_eq!(n(3).shl_bits(5), n(96));
        assert_eq!(n(1).shl_bits(64), UBig { limbs: vec![0, 1] });
    }

    #[test]
    fn operator_forms_agree() {
        let a = n(1000);
        let b = n(24);
        assert_eq!(&a + &b, n(1024));
        assert_eq!(&a - &b, n(976));
        assert_eq!(&a * &b, n(24000));
        assert_eq!(a.clone() + b.clone(), n(1024));
    }
}
