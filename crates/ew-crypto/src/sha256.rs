//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used throughout the protocol: under the HMAC that keys each blinding
//! stream, as the hash-to-`Z_N` map of the OPRF, and as the outer hash
//! `G` that turns OPRF group elements into fixed-length ad identifiers.
//!
//! ## Tiers
//!
//! Every compression goes through one entry, `compress_blocks`, which
//! folds a run of 64-byte blocks into a state on one of two bodies:
//!
//! * `sha-ni/1`, the x86 SHA extensions (`sha` + `sse4.1`), written with
//!   `core::arch` intrinsics after Intel's reference design. The state
//!   stays in two registers across all of a call's blocks.
//! * `scalar/1`, the portable FIPS 180-4 loop, one block at a time: the
//!   only body compiled off x86-64, and the oracle the other is tested
//!   against.
//!
//! `compress_blocks` picks a tier per call with one feature test,
//! `Tier::detected` (`is_x86_feature_detected!`), which [`sha256_tier`]
//! and the tier tests read too; there is no build flag, feature or
//! environment switch. [`Sha256::update`] hands all its whole blocks to
//! one call and the padding goes to another, so a digest of up to 55
//! bytes past a block boundary is one call of one block. Both tiers are
//! bit-identical, which a per-tier differential test, the NIST vectors
//! and RFC 4231 pin.
//!
//! [`digest_lanes`] hashes `L` equal-length inputs one after another:
//! no program path hashes in lanes, and it stays only because the
//! benchmark's `ew-crypto.sha256.lanes8_mb_per_s` probe names it.

/// Incremental SHA-256 hasher.
///
/// ```
/// use ew_crypto::sha256::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(d: &[u8]) -> String { d.iter().map(|b| format!("{b:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

/// SHA-256 digest length in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: INIT,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// One-shot convenience: `SHA-256(data)`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        resume(INIT, 0, data)
    }

    /// Convenience for hashing several segments without concatenating.
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks)
    }

    /// Finishes and returns the digest, consuming internal state.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finalize_with(compress_blocks)
    }

    /// [`update`](Self::update) on the compression `compress`: the
    /// buffered block once it fills, then every whole block left in
    /// `data` in one call.
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[[u8; 64]])) {
        self.len = self
            .len
            .checked_add(data.len() as u64)
            .expect("message longer than 2^64 bytes");
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`finalize`](Self::finalize) on the compression `compress`.
    fn finalize_with(self, compress: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> [u8; DIGEST_LEN] {
        let absorbed = self.len - self.buf_len as u64;
        resume_with(self.state, absorbed, &self.buf[..self.buf_len], compress)
    }
}

/// Bytes per compression block.
const BLOCK_LEN: usize = 64;

/// The SHA-256 initial hash value, for callers building midstates
/// (HMAC ipad/opad caching in [`crate::hmac`]).
pub(crate) const INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Finishes a hash from a captured compression state: `state` has
/// absorbed the first `absorbed` message bytes (a multiple of 64), and
/// `message` is the rest. Used by the HMAC midstate cache to skip
/// re-compressing the padded-key block on every call.
///
/// The whole blocks of `message` go to one compression call and its tail
/// with the padding to another, so a message of up to 55 bytes costs one
/// call of one block.
pub(crate) fn resume(state: [u32; 8], absorbed: u64, message: &[u8]) -> [u8; DIGEST_LEN] {
    resume_with(state, absorbed, message, compress_blocks)
}

/// [`resume`] on the compression `compress`.
fn resume_with(
    mut state: [u32; 8],
    absorbed: u64,
    message: &[u8],
    compress: impl Fn(&mut [u32; 8], &[[u8; 64]]),
) -> [u8; DIGEST_LEN] {
    debug_assert_eq!(
        absorbed % BLOCK_LEN as u64,
        0,
        "midstates sit on block boundaries"
    );
    let (blocks, tail) = message.as_chunks::<BLOCK_LEN>();
    if !blocks.is_empty() {
        compress(&mut state, blocks);
    }
    // Padding: the tail, 0x80, zeros, then the 8-byte big-endian bit
    // length, in one block when the tail leaves room for the 9 bytes and
    // in two otherwise.
    let bit_len = (absorbed + message.len() as u64).wrapping_mul(8);
    let mut padded = [[0u8; BLOCK_LEN]; 2];
    let n = if tail.len() < BLOCK_LEN - 8 { 1 } else { 2 };
    let bytes = padded.as_flattened_mut();
    bytes[..tail.len()].copy_from_slice(tail);
    bytes[tail.len()] = 0x80;
    bytes[n * BLOCK_LEN - 8..n * BLOCK_LEN].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &padded[..n]);

    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Folds `blocks` into `state`, in order, on the widest body this CPU
/// runs. Every compression in the crate goes through here.
#[allow(unsafe_code)]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    match Tier::detected() {
        // SAFETY: `Tier::detected` found sha and sse4.1 on this CPU.
        #[cfg(target_arch = "x86_64")]
        Tier::ShaNi => unsafe { sha_ni::compress(state, blocks) },
        Tier::Scalar => scalar(state, blocks),
    }
}

/// Which body `compress_blocks` runs on this CPU: `"sha-ni/1"` or
/// `"scalar/1"` (both compress one block at a time). A read-only report
/// for telemetry — it cannot be set.
pub fn sha256_tier() -> &'static str {
    Tier::detected().name()
}

/// The compression's bodies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Tier {
    /// The widest tier this CPU runs: the one feature test behind
    /// `compress_blocks`, [`sha256_tier`] and the tier tests.
    fn detected() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
            return Tier::ShaNi;
        }
        Tier::Scalar
    }

    /// The name [`sha256_tier`] reports.
    fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar/1",
            #[cfg(target_arch = "x86_64")]
            Tier::ShaNi => "sha-ni/1",
        }
    }
}

/// The portable tier: one scalar compression per block.
fn scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        scalar_block(state, block);
    }
}

/// One scalar compression round (FIPS 180-4 §6.2.2): folds `block` into
/// `state` in place.
fn scalar_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA extensions body, after Intel's reference design (Gulley et
/// al., "Intel SHA Extensions", 2013). The state is two registers, ABEF
/// and CDGH (lanes high to low), for the whole run of blocks; each
/// `sha256rnds2` does two rounds, and `sha256msg1`/`sha256msg2` extend
/// the message schedule four words at a time. Every fn takes the tier's
/// target features, so the intrinsics are safe calls.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Folds `blocks` into `state`, in order.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (quads, _) = block.as_chunks::<16>();
            // `w` holds message words 4i..4i + 16, lowest lane first.
            let mut w = [
                load(&quads[0]),
                load(&quads[1]),
                load(&quads[2]),
                load(&quads[3]),
            ];
            for i in 0..16 {
                let k = _mm_set_epi32(
                    K[4 * i + 3] as i32,
                    K[4 * i + 2] as i32,
                    K[4 * i + 1] as i32,
                    K[4 * i] as i32,
                );
                let wk = _mm_add_epi32(w[0], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // Words 4i + 16..4i + 20, while the rounds still need them.
                let next = if i < 12 {
                    _mm_sha256msg2_epu32(
                        _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[0], w[1]),
                            _mm_alignr_epi8::<4>(w[3], w[2]),
                        ),
                        w[3],
                    )
                } else {
                    w[0]
                };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
    }

    /// Four big-endian message words: one little-endian 128-bit load,
    /// then `pshufb` reverses the bytes of each word.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    #[inline]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), swap)
    }
}

/// One-shot digest of `L` equal-length messages, each exactly
/// [`Sha256::digest`] of its input.
///
/// All inputs must share one length; panics otherwise.
pub fn digest_lanes<const L: usize>(inputs: &[&[u8]; L]) -> [[u8; DIGEST_LEN]; L] {
    let len = inputs[0].len();
    assert!(
        inputs.iter().all(|m| m.len() == len),
        "digest_lanes requires equal-length inputs"
    );
    inputs.map(Sha256::digest)
}

/// Hex rendering of a digest, handy in tests and logs.
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn digest_parts_is_concatenation() {
        assert_eq!(
            Sha256::digest_parts(&[b"hello, ", b"world"]),
            Sha256::digest(b"hello, world")
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56-byte padding split and block size.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Just ensure determinism and incremental equivalence.
            let mut h2 = Sha256::new();
            h2.update(&data[..len / 2]);
            h2.update(&data[len / 2..]);
            assert_eq!(h.finalize(), h2.finalize(), "len={len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }

    #[test]
    fn lanes_match_scalar_on_nist_vectors() {
        // Same vector in every lane, for each NIST short vector.
        for msg in [
            &b""[..],
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        ] {
            let want = Sha256::digest(msg);
            let got8 = digest_lanes::<8>(&[msg; 8]);
            let got4 = digest_lanes::<4>(&[msg; 4]);
            assert!(got8.iter().all(|d| *d == want), "8-lane, len={}", msg.len());
            assert!(got4.iter().all(|d| *d == want), "4-lane, len={}", msg.len());
        }
    }

    #[test]
    fn lanes_match_scalar_with_distinct_inputs_across_padding_boundaries() {
        // Distinct per-lane content at every padding-sensitive length:
        // short, exactly 55/56 (padding split), 64 (block), and multi-block.
        for len in [0usize, 1, 31, 55, 56, 63, 64, 65, 119, 128, 200] {
            let msgs: Vec<Vec<u8>> = (0..8u8)
                .map(|l| {
                    (0..len)
                        .map(|i| (i as u8).wrapping_mul(l + 1) ^ l)
                        .collect()
                })
                .collect();
            let refs: [&[u8]; 8] = std::array::from_fn(|l| msgs[l].as_slice());
            let got = digest_lanes::<8>(&refs);
            for l in 0..8 {
                assert_eq!(got[l], Sha256::digest(&msgs[l]), "len={len} lane={l}");
            }
        }
    }

    #[test]
    fn resume_matches_streaming() {
        // Fold one block, capture, resume, finish the rest.
        let data: Vec<u8> = (0..150u8).collect();
        let mut state = INIT;
        compress_blocks(&mut state, &[data[..64].try_into().unwrap()]);
        assert_eq!(resume(state, 64, &data[64..]), Sha256::digest(&data));
    }

    type TierFn = fn(&mut [u32; 8], &[[u8; 64]]);

    /// Every tier this host can run, narrowest first, called directly
    /// rather than through the dispatch.
    #[allow(unsafe_code)]
    fn host_tiers() -> Vec<(&'static str, TierFn)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut tiers: Vec<(&'static str, TierFn)> = vec![(Tier::Scalar.name(), scalar)];
        #[cfg(target_arch = "x86_64")]
        if Tier::detected() == Tier::ShaNi {
            // SAFETY: only pushed (so only callable) once sha and sse4.1
            // were detected.
            tiers.push((Tier::ShaNi.name(), |s, b| unsafe { sha_ni::compress(s, b) }));
        }
        tiers
    }

    /// `len` bytes of a splitmix64 stream.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// `SHA-256(data)` on `tier`, fed to the hasher `chunk` bytes at a time.
    fn digest_on(tier: TierFn, data: &[u8], chunk: usize) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for part in data.chunks(chunk.max(1)) {
            h.update_with(part, tier);
        }
        h.finalize_with(tier)
    }

    /// `HMAC-SHA256(key, message)` (RFC 2104) on `tier`.
    fn hmac_on(tier: TierFn, key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&digest_on(tier, key, key.len()));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| key_block.map(|k| k ^ byte);
        let inner = digest_on(tier, &[&pad(0x36)[..], message].concat(), BLOCK_LEN);
        digest_on(tier, &[&pad(0x5c)[..], &inner].concat(), BLOCK_LEN)
    }

    #[test]
    fn every_host_tier_matches_scalar() {
        let tiers = host_tiers();
        let names: Vec<&str> = tiers.iter().map(|t| t.0).collect();
        println!(
            "sha256 tiers exercised: {names:?}; dispatch picks {}",
            sha256_tier()
        );
        assert_eq!(
            sha256_tier(),
            *names.last().unwrap(),
            "dispatch runs the widest tier"
        );

        // Every length to five blocks, fed whole and in pieces that do
        // and do not line up with the blocks and the 55/56 padding split.
        let data = noise(1, 320);
        for len in 0..=320 {
            let msg = &data[..len];
            let want = digest_on(scalar, msg, len);
            for &(name, tier) in &tiers {
                for chunk in [len, 1, 7, 55, 56, 64, 65, 128] {
                    assert_eq!(
                        digest_on(tier, msg, chunk),
                        want,
                        "tier={name} len={len} chunk={chunk}"
                    );
                }
                assert_eq!(
                    resume_with(INIT, 0, msg, tier),
                    want,
                    "tier={name} len={len}"
                );
            }
            assert_eq!(Sha256::digest(msg), want, "dispatch len={len}");
        }

        // Runs of 1–8 blocks folded into random midstates, and a message
        // of up to nine blocks finished through `resume` from each.
        for seed in 0..64u64 {
            let words = noise(seed, 32);
            let start: [u32; 8] = std::array::from_fn(|i| {
                u32::from_le_bytes(words[4 * i..4 * i + 4].try_into().unwrap())
            });
            let bytes = noise(seed + 1_000, 8 * BLOCK_LEN + 63);
            let (blocks, _) = bytes.as_chunks::<BLOCK_LEN>();
            let blocks = &blocks[..1 + seed as usize % 8];
            let mut want = start;
            for block in blocks {
                scalar_block(&mut want, block);
            }
            let msg = &bytes[..(seed as usize * 37) % bytes.len()];
            let absorbed = BLOCK_LEN as u64 * (1 + seed % 3);
            let want_digest = resume_with(start, absorbed, msg, scalar);
            for &(name, tier) in &tiers {
                let mut got = start;
                tier(&mut got, blocks);
                assert_eq!(got, want, "tier={name} blocks={}", blocks.len());
                assert_eq!(
                    resume_with(start, absorbed, msg, tier),
                    want_digest,
                    "tier={name} resume len={}",
                    msg.len()
                );
            }
            assert_eq!(resume(start, absorbed, msg), want_digest, "dispatch resume");
        }

        // The NIST vectors and RFC 4231 test cases 1–4, 6 and 7.
        let nist: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        let million_a = vec![b'a'; 1_000_000];
        let rfc4231: [(Vec<u8>, &[u8], &str); 6] = [
            (
                vec![0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (0x01..=0x19).collect(),
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for &(name, tier) in &tiers {
            for (msg, hex) in nist {
                assert_eq!(to_hex(&digest_on(tier, msg, msg.len())), hex, "{name}");
            }
            assert_eq!(
                to_hex(&digest_on(tier, &million_a, 4_096)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
            for (key, msg, hex) in &rfc4231 {
                assert_eq!(to_hex(&hmac_on(tier, key, msg)), *hex, "{name}");
            }
        }
    }
}
