//! Pairwise-independent row hash functions for the sketches.
//!
//! Each row `j` uses a universal hash `h_j(x) = ((a_j·x + b_j) mod p) mod w`
//! over the Mersenne prime `p = 2^61 − 1`, with `(a_j, b_j)` derived
//! deterministically from the shared sketch seed via SHA-256 so every
//! cohort member builds *identical* hash functions from `CmsParams`.

use ew_crypto::sha256::Sha256;

/// The Mersenne prime 2^61 − 1.
const P61: u128 = (1u128 << 61) - 1;
/// [`P61`] in the word the reduced hash lives in.
const P: u64 = P61 as u64;

/// One row's `(a, b)` coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowHash {
    a: u64,
    b: u64,
}

impl RowHash {
    /// Derives row `row`'s coefficients from the sketch seed.
    pub fn derive(seed: u64, row: usize) -> Self {
        let digest = Sha256::digest_parts(&[
            b"eyewnder/sketch/rowhash/v1",
            &seed.to_be_bytes(),
            &(row as u64).to_be_bytes(),
        ]);
        let a = u64::from_be_bytes(digest[0..8].try_into().expect("8 bytes")) % (P - 1) + 1;
        let b = u64::from_be_bytes(digest[8..16].try_into().expect("8 bytes")) % P;
        RowHash { a, b }
    }

    /// `(a·item + b) mod p`, by shift-and-add folding (`2^61 ≡ 1 (mod p)`
    /// ⇒ fold the high bits onto the low) instead of a 128-bit division.
    #[inline]
    fn reduce(&self, item: u64) -> u64 {
        let v = self.a as u128 * item as u128 + self.b as u128; // < 2^125
        let folded = (v & P61) + (v >> 61); // ≡ v, < 2^64 + 2^61
        let r = ((folded & P61) + (folded >> 61)) as u64; // ≡ v, ≤ p + 16
        if r >= P {
            r - P
        } else {
            r
        }
    }

    /// Maps a 64-bit item to a column in `[0, width)`.
    ///
    /// This runs once per row for every CMS update — the per-impression
    /// hot loop — so the reduction modulo the Mersenne prime is folded
    /// and only the final `% width` remains a real (64-bit) division.
    #[inline]
    pub fn column(&self, item: u64, width: usize) -> usize {
        debug_assert!(width >= 1);
        (self.reduce(item) % width as u64) as usize
    }

    /// The columns of `L` consecutive items starting at `first`, ready
    /// to be stepped `L` items at a time without multiplying or dividing
    /// again (the server's sweep over the enumerable ad-ID space).
    ///
    /// # Panics
    /// Panics if `width` exceeds 2^31 (the wire carries a width as a
    /// `u32`; half that range keeps a column plus a step inside one).
    #[inline(always)]
    pub(crate) fn lanes<const L: usize>(&self, first: u64, width: usize) -> ColumnLanes<L> {
        assert!((1..=1 << 31).contains(&width), "sketch width out of range");
        let width = width as u32;
        let modulo = |x: u64| (x % width as u64) as u32;
        // Lane k holds item `first + k` and moves by L items per step:
        // its hash moves by `a·L mod p`.
        let hash_step = RowHash { a: self.a, b: 0 }.reduce(L as u64);
        let col_step = modulo(hash_step);
        let hash: [u64; L] = std::array::from_fn(|k| self.reduce(first.wrapping_add(k as u64)));
        ColumnLanes {
            hash,
            col: hash.map(modulo),
            hash_step,
            wraps_from: P - hash_step,
            col_step,
            // A hash that wraps past p lands `p mod width` columns short.
            col_step_wrapped: modulo((col_step + width) as u64 - P % width as u64),
            width,
        }
    }
}

#[cfg(test)]
impl RowHash {
    /// A row with hand-picked coefficients (adversarial corners).
    pub(crate) fn from_coefficients(a: u64, b: u64) -> Self {
        assert!((1..P).contains(&a) && b < P, "coefficients out of range");
        RowHash { a, b }
    }
}

/// `L` arithmetic progressions `h(i + L) = h(i) + a·L (mod p)` with
/// their columns `h mod width` carried alongside: one add and one
/// conditional subtract each per step, for any width.
#[derive(Debug, Clone)]
pub(crate) struct ColumnLanes<const L: usize> {
    hash: [u64; L],
    col: [u32; L],
    hash_step: u64,
    /// `p − hash_step`: a hash at or above it wraps on its next step.
    wraps_from: u64,
    col_step: u32,
    col_step_wrapped: u32,
    width: u32,
}

impl<const L: usize> ColumnLanes<L> {
    /// The current column of each lane, every one `< width`.
    #[inline(always)]
    pub(crate) fn columns(&self) -> &[u32; L] {
        &self.col
    }

    /// Moves every lane `L` items on.
    #[inline(always)]
    pub(crate) fn step(&mut self) {
        for k in 0..L {
            let wraps = self.hash[k] >= self.wraps_from;
            self.hash[k] += self.hash_step;
            if wraps {
                self.hash[k] -= P;
            }
            let step = if wraps {
                self.col_step_wrapped
            } else {
                self.col_step
            };
            let col = self.col[k] + step; // < 2·width ≤ 2^32
            self.col[k] = if col >= self.width {
                col - self.width
            } else {
                col
            };
        }
    }
}

/// Reference reduction by the `%` operator — kept (test-only) as the
/// ground truth the folded fast path must match bit for bit.
#[cfg(test)]
fn column_by_division(h: &RowHash, item: u64, width: usize) -> usize {
    let v = (h.a as u128 * item as u128 + h.b as u128) % P61;
    (v % width as u128) as usize
}

/// Folds arbitrary bytes (e.g. a 32-byte OPRF output or an ad URL) into
/// the 64-bit item domain used by the sketches.
pub fn fold_item(bytes: &[u8]) -> u64 {
    if bytes.len() == 32 {
        // 32-byte inputs are OPRF outputs: already uniform, take a prefix.
        u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes"))
    } else {
        // Anything else (URLs share long prefixes) gets hashed first.
        let digest = Sha256::digest_parts(&[b"eyewnder/sketch/fold/v1", bytes]);
        u64::from_be_bytes(digest[0..8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(RowHash::derive(7, 3), RowHash::derive(7, 3));
        assert_ne!(RowHash::derive(7, 3), RowHash::derive(7, 4));
        assert_ne!(RowHash::derive(7, 3), RowHash::derive(8, 3));
    }

    #[test]
    fn columns_in_range() {
        let h = RowHash::derive(1, 0);
        for item in 0..1000u64 {
            assert!(h.column(item, 37) < 37);
        }
        assert_eq!(h.column(12345, 1), 0);
    }

    #[test]
    fn folded_reduction_is_bit_identical_to_division() {
        // Derived rows plus adversarial coefficient corners; every
        // (item, width) must agree exactly with the `%` formula.
        let mut hashes: Vec<RowHash> = (0..8).map(|r| RowHash::derive(123, r)).collect();
        hashes.extend([
            RowHash { a: 1, b: 0 },
            RowHash {
                a: 1,
                b: (P61 as u64) - 1,
            },
            RowHash {
                a: (P61 as u64) - 1,
                b: (P61 as u64) - 1,
            },
        ]);
        let items = [
            0u64,
            1,
            2,
            (1 << 61) - 2,
            (1 << 61) - 1,
            1 << 61,
            u64::MAX - 1,
            u64::MAX,
            0x9e37_79b9_7f4a_7c15,
        ];
        for h in &hashes {
            for &item in &items {
                for width in [1usize, 2, 37, 64, 2719, usize::MAX >> 1] {
                    assert_eq!(
                        h.column(item, width),
                        column_by_division(h, item, width),
                        "a={} b={} item={item} width={width}",
                        h.a,
                        h.b
                    );
                }
            }
        }
        // And a broad pseudo-random sweep.
        let mut x = 0x0123_4567_89ab_cdefu64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x9E37);
            let h = RowHash::derive(x, (x % 13) as usize);
            assert_eq!(
                h.column(x, 1 + (x % 5000) as usize),
                column_by_division(&h, x, 1 + (x % 5000) as usize)
            );
        }
    }

    #[test]
    fn rows_spread_items() {
        // Different rows should disagree on at least some items
        // (pairwise independence sanity check, not a strict proof).
        let h0 = RowHash::derive(99, 0);
        let h1 = RowHash::derive(99, 1);
        let disagreements = (0..1000u64)
            .filter(|&i| h0.column(i, 101) != h1.column(i, 101))
            .count();
        assert!(
            disagreements > 900,
            "rows nearly identical: {disagreements}"
        );
    }

    #[test]
    fn distribution_roughly_uniform() {
        let h = RowHash::derive(5, 2);
        let width = 64usize;
        let mut buckets = vec![0usize; width];
        let n = 64_000u64;
        for i in 0..n {
            buckets[h.column(i.wrapping_mul(0x9e3779b97f4a7c15), width)] += 1;
        }
        let expected = n as usize / width;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                b > expected / 2 && b < expected * 2,
                "bucket {i} count {b} far from {expected}"
            );
        }
    }

    #[test]
    fn fold_item_distinguishes() {
        assert_ne!(fold_item(b"a"), fold_item(b"b"));
        assert_ne!(fold_item(&[0u8; 32]), fold_item(&[1u8; 32]));
        // URLs sharing a long prefix must still fold apart.
        assert_ne!(
            fold_item(b"https://ads.example/creative/1"),
            fold_item(b"https://ads.example/creative/2")
        );
        // Exactly-32-byte inputs (PRF outputs) take their leading 8 bytes.
        let mut prf_out = [0xabu8; 32];
        prf_out[0] = 0x01;
        assert_eq!(
            fold_item(&prf_out),
            u64::from_be_bytes(prf_out[0..8].try_into().unwrap())
        );
    }
}
