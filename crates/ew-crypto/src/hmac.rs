//! HMAC-SHA256 (RFC 2104) and a counter-mode expansion helper used to
//! derive arbitrary-length pseudo-random byte strings from shared DH
//! secrets (the `H(y^x || m || s)` step of the blinding construction).
//!
//! ## The expansion hot path
//!
//! Blinding derivation expands the *same pairwise key* into thousands
//! of 32-byte counter blocks per round, so the naive cost model — four
//! compressions per block (ipad, message, opad, digest) — is mostly
//! waste:
//!
//! * [`HmacKey`] caches the SHA-256 midstates after the ipad and opad
//!   blocks. The pairwise secret never changes, so those two
//!   compressions are paid once per peer instead of once per counter
//!   block — halving the steady-state work.
//! * [`hmac_expand_multi`] runs the two remaining compressions for 8
//!   or 16 *independent* counters at once through the word-level lane
//!   kernel `sha256::compress_lanes`, provided `info` is short enough
//!   that `info || be32(counter)` plus padding fits a single block
//!   (`info.len() ≤ 51`; the blinding label + round is 28 bytes). The
//!   padded inner block is parsed to words once per stream and
//!   broadcast; per group only the counter word(s) change, the inner
//!   state lanes are copied as words into the outer block, and bytes
//!   are produced only when writing the output. Longer infos fall back
//!   to the scalar midstate path.
//! * That one body (`expand_words::<L>`) is compiled three times —
//!   AVX-512 (F+VL) × 16 lanes, AVX2 × 8, and a plain × 8 that is the
//!   only one on non-x86-64 targets — and [`hmac_expand_multi_at`]
//!   picks one per call from `is_x86_feature_detected!`: no build flag,
//!   no knob. [`expansion_tier`] reports the pick. The body stays safe
//!   rust without intrinsics; only the call into the wrapper whose CPU
//!   features were just detected is not (see [`crate::sha256`]).
//!
//! All layers and tiers are bit-identical to
//! [`hmac_sha256`]/[`hmac_expand`] — pinned by the RFC 4231 suite, a
//! per-tier differential test and differential proptests.

use crate::sha256::{self, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Longest `info` for which `info || be32(counter)` still fits one
/// padded SHA-256 block (1 byte 0x80 + 8-byte length ⇒ 55 payload
/// bytes), enabling the multi-lane fast path.
pub(crate) const LANE_INFO_MAX: usize = 55 - 4;

/// An HMAC-SHA256 key with precomputed ipad/opad midstates.
///
/// Constructing the key costs the usual two key-block compressions;
/// every subsequent [`mac`](Self::mac) then skips them. For
/// counter-mode expansion over a long-lived key (the pairwise blinding
/// secrets) this halves the compression count.
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
        sha256::compress_block(&mut inner, &ipad);
        let mut outer = sha256::INIT;
        sha256::compress_block(&mut outer, &opad);
        HmacKey { inner, outer }
    }

    /// `HMAC-SHA256(key, message)` from the cached midstates.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = sha256::resume(self.inner, BLOCK_LEN as u64);
        h.update(message);
        let inner_digest = h.finalize();
        let mut h = sha256::resume(self.outer, BLOCK_LEN as u64);
        h.update(&inner_digest);
        h.finalize()
    }
}

/// `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// Expands `(key, info)` into `len` pseudo-random bytes via counter-mode
/// HMAC: `T_i = HMAC(key, info || be32(i))`, concatenated and truncated.
pub fn hmac_expand(key: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    hmac_expand_into(key, info, &mut out);
    out
}

/// Allocation-aware [`hmac_expand`]: fills `out` in place.
pub fn hmac_expand_into(key: &[u8], info: &[u8], out: &mut [u8]) {
    hmac_expand_multi(&HmacKey::new(key), info, out);
}

/// Counter-mode expansion from cached midstates, multi-lane where the
/// message is single-block: fills `out` with
/// `HMAC(key, info || be32(0)) || HMAC(key, info || be32(1)) || …`
/// truncated to `out.len()`.
///
/// Equivalent to [`hmac_expand`] with the same key bytes; this is the
/// blinding hot loop's entry point (allocation-free on the fast path).
pub fn hmac_expand_multi(key: &HmacKey, info: &[u8], out: &mut [u8]) {
    hmac_expand_multi_at(key, info, 0, out);
}

/// [`hmac_expand_multi`] starting at counter block `first`: fills `out`
/// with `T_first || T_{first+1} || …` truncated to `out.len()`.
///
/// This is the incremental-extension primitive: a stream derived for
/// `n` blocks grows to `m > n` blocks by expanding `first = n` into the
/// tail, yielding bytes identical to a from-scratch `m`-block
/// expansion (counter blocks are independent).
#[allow(unsafe_code)]
pub fn hmac_expand_multi_at(key: &HmacKey, info: &[u8], first: u32, out: &mut [u8]) {
    if out.is_empty() {
        return;
    }
    let blocks = out.len().div_ceil(DIGEST_LEN);
    assert!(
        (first as usize)
            .checked_add(blocks - 1)
            .is_some_and(|last| last <= u32::MAX as usize),
        "expansion too large"
    );

    if info.len() > LANE_INFO_MAX {
        return expand_scalar(key, info, first, out);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: avx512f and avx512vl were detected on this CPU on the line above.
            return unsafe { expand_avx512(key, info, first, out) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 was detected on this CPU on the line above.
            return unsafe { expand_avx2(key, info, first, out) };
        }
    }
    expand_portable(key, info, first, out)
}

/// Which instantiation of the lane kernel [`hmac_expand_multi_at`] runs
/// on this CPU, as `"<isa>/<lanes>"`: `"avx512/16"`, `"avx2/8"` or
/// `"portable/8"`. A read-only report for benchmark headers — it cannot
/// be set.
pub fn expansion_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            return "avx512/16";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2/8";
        }
    }
    "portable/8"
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
pub(crate) fn expand_avx512(key: &HmacKey, info: &[u8], first: u32, out: &mut [u8]) {
    expand_words::<16>(key, info, first, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn expand_avx2(key: &HmacKey, info: &[u8], first: u32, out: &mut [u8]) {
    expand_words::<8>(key, info, first, out)
}

pub(crate) fn expand_portable(key: &HmacKey, info: &[u8], first: u32, out: &mut [u8]) {
    expand_words::<8>(key, info, first, out)
}

/// Fast path: `info || be32(counter)` fits one padded block, so each
/// `T_i` is exactly one inner + one outer compression, `L` independent
/// counters per pass, words end to end. A short last group is one more
/// full-width pass whose surplus lanes are discarded. No heap
/// allocation. `#[inline(always)]`: the body takes the target features
/// of the tier wrapper it is instantiated in.
#[inline(always)]
fn expand_words<const L: usize>(key: &HmacKey, info: &[u8], first: u32, out: &mut [u8]) {
    debug_assert!(info.len() <= LANE_INFO_MAX, "single-block infos only");
    // Inner block: info, counter placeholder, then SHA-256 padding for
    // a (BLOCK_LEN + info.len() + 4)-byte message — parsed to words
    // once and broadcast to every lane.
    let mut tmpl = [0u8; BLOCK_LEN];
    tmpl[..info.len()].copy_from_slice(info);
    tmpl[info.len() + 4] = 0x80;
    tmpl[56..64].copy_from_slice(&(((BLOCK_LEN + info.len() + 4) as u64) * 8).to_be_bytes());
    let mut inner = [[0u32; L]; 16];
    for (i, w) in inner.iter_mut().enumerate() {
        *w = [u32::from_be_bytes(tmpl[i * 4..i * 4 + 4].try_into().expect("4 bytes")); L];
    }
    // The counter sits at byte `info.len()`: in word `at` when aligned,
    // else split over `at` and `at + 1` (≤ 13, as info.len() ≤ 51).
    let (at, shift) = (info.len() / 4, 8 * (info.len() % 4) as u32);
    let (hi_tmpl, lo_tmpl) = (inner[at][0], inner[at + 1][0]);

    // Outer block: the inner digest, then padding for a 96-byte message.
    let mut outer = [[0u32; L]; 16];
    outer[8] = [0x8000_0000; L];
    outer[15] = [((BLOCK_LEN + DIGEST_LEN) * 8) as u32; L];

    for (g, group) in out.chunks_mut(L * DIGEST_LEN).enumerate() {
        // The group's first counter is at most the last block's, which
        // the caller bounded; surplus lanes past it may wrap and are
        // never written.
        let base = first + (g * L) as u32;
        let (hi, lo) = inner[at..at + 2].split_at_mut(1);
        for (l, (hi, lo)) in hi[0].iter_mut().zip(&mut lo[0]).enumerate() {
            let c = (base.wrapping_add(l as u32) as u64) << (32 - shift);
            *hi = hi_tmpl | (c >> 32) as u32;
            *lo = lo_tmpl | c as u32;
        }
        let mut state = key.inner.map(|w| [w; L]);
        sha256::compress_lanes(&mut state, &inner);
        outer[..8].copy_from_slice(&state);
        let mut state = key.outer.map(|w| [w; L]);
        sha256::compress_lanes(&mut state, &outer);

        for (l, chunk) in group.chunks_mut(DIGEST_LEN).enumerate() {
            let mut t = [0u8; DIGEST_LEN];
            for (i, word) in state.iter().enumerate() {
                t[i * 4..i * 4 + 4].copy_from_slice(&word[l].to_be_bytes());
            }
            write_block(chunk, &t);
        }
    }
}

/// Slow path for long infos: scalar midstate HMAC per counter. One
/// transient message buffer for the whole expansion.
fn expand_scalar(key: &HmacKey, info: &[u8], first: u32, out: &mut [u8]) {
    let mut msg = Vec::with_capacity(info.len() + 4);
    msg.extend_from_slice(info);
    msg.extend_from_slice(&[0u8; 4]);
    for (i, chunk) in out.chunks_mut(DIGEST_LEN).enumerate() {
        // `first + i` is at most the last block's counter, which the caller bounded.
        msg[info.len()..].copy_from_slice(&(first + i as u32).to_be_bytes());
        write_block(chunk, &key.mac(&msg));
    }
}

fn write_block(chunk: &mut [u8], t: &[u8; DIGEST_LEN]) {
    let n = chunk.len();
    chunk.copy_from_slice(&t[..n]);
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

    /// The pre-PR6 expansion, kept as the differential oracle.
    fn expand_naive(key: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        expand_naive_at(key, info, 0, len)
    }

    fn expand_naive_at(key: &[u8], info: &[u8], first: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + DIGEST_LEN);
        let mut counter = first;
        while out.len() < len {
            let mut msg = Vec::with_capacity(info.len() + 4);
            msg.extend_from_slice(info);
            msg.extend_from_slice(&counter.to_be_bytes());
            out.extend_from_slice(&hmac_naive(key, &msg));
            counter = counter.wrapping_add(1);
        }
        out.truncate(len);
        out
    }

    type TierFn = fn(&HmacKey, &[u8], u32, &mut [u8]);

    /// Every instantiation this host can run, narrowest first, called
    /// directly rather than through the dispatch.
    #[allow(unsafe_code)]
    fn host_tiers() -> Vec<(&'static str, TierFn)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut tiers: Vec<(&'static str, TierFn)> = vec![("portable/8", expand_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: only pushed (so only callable) once avx2 was detected above.
                tiers.push(("avx2/8", |k, i, f, o| unsafe { expand_avx2(k, i, f, o) }));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                // SAFETY: only pushed once avx512f and avx512vl were detected above.
                tiers.push(("avx512/16", |k, i, f, o| unsafe {
                    expand_avx512(k, i, f, o)
                }));
            }
        }
        tiers
    }

    #[test]
    fn every_host_tier_matches_naive_oracle() {
        // All four counter alignments (info.len() % 4), the longest
        // single-block info, lane remainders and truncated tails at both
        // widths, and counters with the top bit set.
        const LENS: [usize; 15] = [
            0, 1, 31, 32, 33, 255, 256, 257, 480, 511, 512, 513, 544, 1000, 40_960,
        ];
        let tiers = host_tiers();
        let names: Vec<&str> = tiers.iter().map(|t| t.0).collect();
        println!(
            "expansion tiers exercised: {names:?}; dispatch picks {}",
            expansion_tier()
        );
        assert_eq!(
            expansion_tier(),
            *names.last().unwrap(),
            "dispatch runs the widest tier"
        );

        let key_bytes = b"pairwise-secret";
        let key = HmacKey::new(key_bytes);
        let info: Vec<u8> = (0..LANE_INFO_MAX as u8)
            .map(|i| i.wrapping_mul(73) ^ 0xa5)
            .collect();
        let mut out = vec![0u8; 40_960];
        for info_len in 0..=LANE_INFO_MAX {
            let info = &info[..info_len];
            for first in [0u32, 3, 1 << 31] {
                // Counter blocks are independent, so one oracle run at
                // the longest length holds every shorter one as a prefix.
                let want = expand_naive_at(key_bytes, info, first, 40_960);
                for &(name, tier) in &tiers {
                    for len in LENS {
                        out[..len].fill(0);
                        tier(&key, info, first, &mut out[..len]);
                        assert!(
                            out[..len] == want[..len],
                            "tier={name} info_len={info_len} first={first} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expansion_ending_at_the_last_counter_matches_per_counter_mac() {
        // Stepping past counter u32::MAX after the last block must not
        // overflow (it panicked in debug builds), on either path.
        let key = HmacKey::new(b"edge-key");
        for info_len in [4usize, 28, 30, 80] {
            let info = vec![0x3cu8; info_len];
            for blocks in [1u32, 21] {
                let first = u32::MAX - (blocks - 1);
                let mut out = vec![0u8; blocks as usize * DIGEST_LEN];
                hmac_expand_multi_at(&key, &info, first, &mut out);
                for (i, t) in out.chunks(DIGEST_LEN).enumerate() {
                    let mut msg = info.clone();
                    msg.extend_from_slice(&(first + i as u32).to_be_bytes());
                    assert_eq!(t, key.mac(&msg), "info_len={info_len} counter={first}+{i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "expansion too large")]
    fn expansion_past_the_last_counter_is_refused() {
        let mut out = [0u8; 22 * DIGEST_LEN];
        hmac_expand_multi_at(&HmacKey::new(b"edge-key"), b"info", u32::MAX - 20, &mut out);
    }

    #[test]
    fn expand_lengths() {
        for len in [0usize, 1, 31, 32, 33, 100, 256] {
            assert_eq!(hmac_expand(b"key", b"info", len).len(), len);
        }
    }

    #[test]
    fn expand_prefix_consistent() {
        let long = hmac_expand(b"key", b"info", 100);
        let short = hmac_expand(b"key", b"info", 40);
        assert_eq!(&long[..40], &short[..]);
    }

    #[test]
    fn expand_domain_separated() {
        assert_ne!(hmac_expand(b"k1", b"i", 32), hmac_expand(b"k2", b"i", 32));
        assert_ne!(hmac_expand(b"k", b"i1", 32), hmac_expand(b"k", b"i2", 32));
    }

    #[test]
    fn laned_expand_matches_naive_across_lane_remainders() {
        // Output lengths chosen to exercise every lane grouping: full
        // 8-groups, a 4-group remainder, scalar stragglers, and a
        // truncated final block.
        let key = b"pairwise-secret";
        let info = b"eyewnder/blinding/v1\x00\x00\x00\x00\x00\x00\x00\x2a";
        for len in [
            0usize, 1, 31, 32, 33, 127, 128, 129, 160, 255, 256, 257, 384, 400, 512, 1000,
        ] {
            assert_eq!(
                hmac_expand(key, info, len),
                expand_naive(key, info, len),
                "len={len}"
            );
        }
    }

    #[test]
    fn long_info_falls_back_to_scalar_and_matches() {
        // info too long for the single-block fast path (> 51 bytes).
        let info = [0x5au8; 80];
        for len in [32usize, 100, 300] {
            assert_eq!(
                hmac_expand(b"key", &info, len),
                expand_naive(b"key", &info, len),
                "len={len}"
            );
        }
        // Boundary: the longest single-block info and one byte past it.
        for info_len in [LANE_INFO_MAX, LANE_INFO_MAX + 1] {
            let info = vec![0x17u8; info_len];
            assert_eq!(
                hmac_expand(b"key", &info, 320),
                expand_naive(b"key", &info, 320),
                "info_len={info_len}"
            );
        }
    }

    #[test]
    fn expand_at_counter_extends_streams_incrementally() {
        let key = HmacKey::new(b"stream-key");
        let info = b"blinding/info";
        let full = hmac_expand(b"stream-key", info, 512);
        // Derive [0, 96) then extend [96, 512) from counter 3.
        let mut grown = vec![0u8; 512];
        hmac_expand_multi(&key, info, &mut grown[..96]);
        hmac_expand_multi_at(&key, info, 3, &mut grown[96..]);
        assert_eq!(grown, full);
    }

    #[test]
    fn expand_into_matches_allocating_variant() {
        let mut buf = [0u8; 300];
        hmac_expand_into(b"key", b"info", &mut buf);
        assert_eq!(&buf[..], &hmac_expand(b"key", b"info", 300)[..]);
    }
}
