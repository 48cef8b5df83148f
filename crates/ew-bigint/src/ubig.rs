//! The [`UBig`] type: representation, construction, conversion, ordering
//! and bit-level accessors.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with the invariant that the
/// most-significant limb is non-zero (zero is the empty limb vector).
/// All public constructors and arithmetic maintain this normalization.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct UBig {
    pub(crate) limbs: Vec<u64>,
}

/// Error returned when parsing a [`UBig`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUBigError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// The offending character.
    pub character: char,
}

impl fmt::Display for ParseUBigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid digit {:?} at position {}",
            self.character, self.position
        )
    }
}

impl std::error::Error for ParseUBigError {}

impl UBig {
    /// The value `0`.
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// The value `2`.
    pub fn two() -> Self {
        UBig { limbs: vec![2] }
    }

    /// Builds a `UBig` from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }

    /// Builds a `UBig` from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = UBig {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// Builds a `UBig` from big-endian bytes. Leading zero bytes are fine.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut out = UBig { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the top limb only.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes left-padded with zeros to `len`.
    ///
    /// # Panics
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "value needs {} bytes, asked to fit in {}",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Result<Self, ParseUBigError> {
        let mut nibbles = Vec::with_capacity(s.len());
        for (pos, ch) in s.char_indices() {
            if ch == '_' || ch.is_whitespace() {
                continue;
            }
            let d = ch.to_digit(16).ok_or(ParseUBigError {
                position: pos,
                character: ch,
            })?;
            nibbles.push(d as u8);
        }
        let mut bytes = Vec::with_capacity(nibbles.len() / 2 + 1);
        // If odd count, the first nibble is the high nibble of a lone byte.
        let mut iter = nibbles.iter();
        if nibbles.len() % 2 == 1 {
            bytes.push(*iter.next().expect("non-empty by modulo check"));
        }
        while let (Some(hi), Some(lo)) = (iter.next(), iter.next()) {
            bytes.push((hi << 4) | lo);
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Parses a decimal string.
    pub fn from_dec(s: &str) -> Result<Self, ParseUBigError> {
        let mut acc = UBig::zero();
        let ten = UBig::from_u64(10);
        let mut saw_digit = false;
        for (pos, ch) in s.char_indices() {
            if ch == '_' {
                continue;
            }
            let d = ch.to_digit(10).ok_or(ParseUBigError {
                position: pos,
                character: ch,
            })?;
            saw_digit = true;
            acc = &(&acc * &ten) + &UBig::from_u64(d as u64);
        }
        if !saw_digit {
            return Err(ParseUBigError {
                position: 0,
                character: '\0',
            });
        }
        Ok(acc)
    }

    /// Lowercase hexadecimal rendering without prefix (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the lowest bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the lowest bit is set.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (LSB is bit 0). Out-of-range bits are 0.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        let off = i % 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits; tests read
    /// [`Self::from_u128`] back through it.
    #[cfg(test)]
    fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    /// Number of limbs (internal measure, used by arithmetic heuristics).
    pub(crate) fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Drops high zero limbs to restore the representation invariant.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig(0x{})", self.to_hex())
    }
}

impl fmt::Display for UBig {
    /// Decimal rendering (repeated division by 10^19 per chunk).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, c) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{c}"));
            } else {
                s.push_str(&format!("{c:019}"));
            }
        }
        write!(f, "{s}")
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        UBig::from_u64(v)
    }
}

impl From<u32> for UBig {
    fn from(v: u32) -> Self {
        UBig::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized_empty() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::zero().bit_len(), 0);
        assert_eq!(UBig::from_u64(0), UBig::zero());
    }

    #[test]
    fn roundtrip_bytes_be() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![0xff; 9],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0],
            (1..=32).collect(),
        ];
        for case in cases {
            let v = UBig::from_bytes_be(&case);
            let back = v.to_bytes_be();
            // Leading zeros are dropped, so compare values not byte-strings.
            assert_eq!(UBig::from_bytes_be(&back), v);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(
            UBig::from_bytes_be(&[0, 0, 0, 5]),
            UBig::from_bytes_be(&[5])
        );
    }

    #[test]
    fn padded_serialization() {
        let v = UBig::from_u64(0x0102);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "asked to fit")]
    fn padded_serialization_too_small_panics() {
        UBig::from_u64(0x010203).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        let v = UBig::from_hex("deadbeef0123456789abcdef").unwrap();
        assert_eq!(v.to_hex(), "deadbeef0123456789abcdef");
        assert_eq!(UBig::from_hex("0").unwrap(), UBig::zero());
        assert_eq!(UBig::from_hex("f").unwrap(), UBig::from_u64(15));
    }

    #[test]
    fn hex_rejects_bad_digit() {
        let err = UBig::from_hex("12g4").unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.character, 'g');
    }

    #[test]
    fn dec_parse_and_display() {
        let v = UBig::from_dec("340282366920938463463374607431768211456").unwrap(); // 2^128
        assert_eq!(v, &UBig::one() << 128);
        assert_eq!(format!("{v}"), "340282366920938463463374607431768211456");
        assert_eq!(format!("{}", UBig::zero()), "0");
    }

    #[test]
    fn bit_len_and_bits() {
        let v = UBig::from_u64(0b1011);
        assert_eq!(v.bit_len(), 4);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3));
        assert!(!v.bit(400));
        let big = &UBig::one() << 200;
        assert_eq!(big.bit_len(), 201);
        assert!(big.bit(200));
    }

    #[test]
    fn set_bit_grows() {
        let mut v = UBig::zero();
        v.set_bit(130);
        assert_eq!(v, &UBig::one() << 130);
    }

    #[test]
    fn ordering() {
        let a = UBig::from_u64(5);
        let b = &UBig::one() << 64;
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn parity() {
        assert!(UBig::zero().is_even());
        assert!(UBig::one().is_odd());
        assert!(UBig::from_u64(2).is_even());
    }

    #[test]
    fn u128_roundtrip() {
        let v = u128::MAX - 12345;
        assert_eq!(UBig::from_u128(v).to_u128(), Some(v));
        assert_eq!(UBig::from_u128(7).to_u64(), Some(7));
        assert_eq!((&UBig::one() << 130).to_u128(), None);
    }
}
