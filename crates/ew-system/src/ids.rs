//! Ad-URL → ad-ID mapping (§6): "We map the URL of an ad [to an] ID in
//! `[1, |A|]` by means of a pseudo-random function", where `|A|` is an
//! *over-estimate* of the number of distinct ads, chosen large enough to
//! keep the collision rate low while staying enumerable by the server.

use ew_core::AdKey;
use ew_crypto::oprf::OPRF_OUTPUT_LEN;
use std::ops::Range;

/// Maps OPRF outputs into the enumerable ad-ID space `[0, capacity)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdIdMapper {
    capacity: u64,
}

impl AdIdMapper {
    /// Mapper with the given ID-space capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "need a non-empty ID space");
        AdIdMapper { capacity }
    }

    /// Over-provisioned capacity for an expected number of distinct ads:
    /// 16× over-estimate keeps the birthday-collision rate per pair at
    /// `1/(16·T)` — per the paper, "we have to (over)estimate |A| in
    /// order to minimize collisions". Tests size the ID space with it.
    #[cfg(test)]
    fn for_expected_ads(expected: u64) -> Self {
        Self::new((expected.max(1)).saturating_mul(16))
    }

    /// Size of the enumerable space (what the server iterates).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Reduces a full OPRF output to an ad ID.
    pub fn to_ad_id(&self, oprf_output: &[u8; OPRF_OUTPUT_LEN]) -> AdKey {
        let wide = u128::from_be_bytes(oprf_output[0..16].try_into().expect("16 bytes"));
        (wide % self.capacity as u128) as AdKey
    }

    /// The whole enumerable ID space, in order (server-side `#Users`
    /// queries) — a range, so the sweep can step through it.
    pub fn all_ids(&self) -> Range<AdKey> {
        0..self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_in_range() {
        let m = AdIdMapper::new(1000);
        for i in 0..200u8 {
            let mut out = [0u8; OPRF_OUTPUT_LEN];
            out[0] = i;
            out[31] = i.wrapping_mul(37);
            assert!(m.to_ad_id(&out) < 1000);
        }
    }

    #[test]
    fn deterministic() {
        let m = AdIdMapper::new(1 << 17);
        let out = [0x5Au8; OPRF_OUTPUT_LEN];
        assert_eq!(m.to_ad_id(&out), m.to_ad_id(&out));
    }

    #[test]
    fn over_provisioning() {
        let m = AdIdMapper::for_expected_ads(10_000);
        assert_eq!(m.capacity(), 160_000);
        assert_eq!(m.all_ids().count(), 160_000);
    }

    #[test]
    fn low_collision_rate_at_16x() {
        // Hash 2000 distinct pseudo-outputs into a 16x space and verify
        // the collision count stays tiny (birthday bound ~ n^2 / 2C).
        let n = 2_000u64;
        let m = AdIdMapper::for_expected_ads(n);
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for i in 0..n {
            let mut out = [0u8; OPRF_OUTPUT_LEN];
            out[0..8].copy_from_slice(&(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_be_bytes());
            out[8..16].copy_from_slice(&(i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)).to_be_bytes());
            if !seen.insert(m.to_ad_id(&out)) {
                collisions += 1;
            }
        }
        // Expected ~ n/32 = 62; assert well below 5x that.
        assert!(collisions < 300, "collisions={collisions}");
    }

    #[test]
    #[should_panic(expected = "non-empty ID space")]
    fn zero_capacity_rejected() {
        AdIdMapper::new(0);
    }
}
