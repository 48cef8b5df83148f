//! HMAC-SHA256 (RFC 2104), with the key's midstates computed once.
//!
//! The blinding derivation MACs one short message per pair per round
//! under a pairwise key that never changes (the stream key
//! `HMAC(s_ij, label ‖ be64(round))`, see [`crate::blinding`]), so
//! [`HmacKey`] caches the SHA-256 states after the ipad and opad blocks:
//! each MAC then costs the message and digest compressions only. Those go
//! to the SHA-256 compression directly, padding built in place: a short
//! message is one inner and one outer block, two compressions on the
//! CPU's SHA extensions where it has them. RFC 4231 vectors and a
//! from-scratch differential pin [`HmacKey::mac`] ≡ [`hmac_sha256`].

use crate::sha256::{self, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// An HMAC-SHA256 key with precomputed ipad/opad midstates.
///
/// Constructing the key costs the usual two key-block compressions;
/// every subsequent [`mac`](Self::mac) then skips them — for a short
/// message under a long-lived key (the pairwise blinding secrets), half
/// the compressions.
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Midstates are key material: don't leak them into logs.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Derives the midstates from raw key bytes (hashing first when the
    /// key exceeds the block size, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner = sha256::INIT;
        sha256::compress_blocks(&mut inner, &[ipad]);
        let mut outer = sha256::INIT;
        sha256::compress_blocks(&mut outer, &[opad]);
        HmacKey { inner, outer }
    }

    /// `HMAC-SHA256(key, message)` from the cached midstates. A message
    /// of up to 55 bytes (the stream key's 28-byte `label ‖ be64(round)`)
    /// pads into one inner block, and the inner digest into one outer
    /// block, so its MAC is two one-block compressions.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let inner = sha256::resume(self.inner, BLOCK_LEN as u64, message);
        sha256::resume(self.outer, BLOCK_LEN as u64, &inner)
    }
}

/// `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// HMAC computed the pre-midstate way, as the differential oracle.
    fn hmac_naive(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let inner = Sha256::digest_parts(&[&ipad, message]);
        Sha256::digest_parts(&[&opad, &inner])
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let digest = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&digest),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let digest = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&digest),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let digest = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&digest),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_test_case_4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            to_hex(&hmac_sha256(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: key longer than the block size is hashed first.
        let key = [0xaau8; 131];
        let digest = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&digest),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_long_key_and_data() {
        // Test case 7: both key and data exceed the block size.
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            to_hex(&hmac_sha256(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn cached_midstates_match_naive_hmac() {
        // The RFC 4231 corpus plus edge-size keys, via both the
        // midstate path and the from-scratch oracle.
        let cases: [(&[u8], &[u8]); 6] = [
            (&[0x0bu8; 20], b"Hi There"),
            (b"Jefe", b"what do ya want for nothing?"),
            (&[0xaau8; 131], b"hash the key first"),
            (&[0x42u8; 64], b"key exactly one block"),
            (&[0x42u8; 65], b"key one byte over"),
            (b"", b""),
        ];
        for (key, msg) in cases {
            let cached = HmacKey::new(key);
            assert_eq!(
                cached.mac(msg),
                hmac_naive(key, msg),
                "key len {}",
                key.len()
            );
            // Reuse: a second mac from the same midstates is identical.
            assert_eq!(cached.mac(msg), hmac_naive(key, msg));
        }
    }
}
