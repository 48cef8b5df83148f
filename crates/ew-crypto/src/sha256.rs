//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used throughout the protocol as `H` in blinding-factor derivation, as
//! the hash-to-`Z_N` map of the OPRF, and as the outer hash `G` that turns
//! OPRF group elements into fixed-length ad identifiers.
//!
//! ## Multi-lane compression
//!
//! The blinding hot loop hashes thousands of *independent* one-block
//! messages per round (HMAC counter-mode streams — see
//! [`crate::hmac`]), so besides the incremental scalar hasher this
//! module has one block-parallel kernel, `compress_lanes::<L>`: it
//! advances `L` independent states by one block each, with state and
//! message held as words indexed `[word][lane]`. Every working variable
//! is a `[u32; L]` lane array and every operation is elementwise — safe
//! rust, no vendor intrinsics; the compiler turns the lane loops into
//! whatever vector ISA the *enclosing function* is compiled for.
//!
//! That ISA is chosen per CPU, not per build. The kernel is
//! `#[inline(always)]` and is instantiated three times, inside thin
//! wrappers: `#[target_feature(enable = "avx512f,avx512vl")]` (16 lanes
//! in the HMAC expansion; one-instruction rotates and ternary logic),
//! `#[target_feature(enable = "avx2")]` (8 lanes) and a plain one
//! (8 lanes; SSE2 on baseline x86-64, NEON on aarch64 — the only one
//! compiled off x86-64). The public entry points — [`digest_lanes`]
//! here, [`crate::hmac::hmac_expand_multi_at`] for the hot loop — pick
//! a wrapper with `is_x86_feature_detected!` on each call (a cached
//! flag read); there is no build flag, feature or environment switch.
//! The crate is `#![deny(unsafe_code)]`; the allowance is on exactly
//! those two entry points, for the call into the wrapper whose features
//! were just detected. Intrinsics were measured and rejected: a SHA-NI
//! path was slower than the safe 16-lane instantiation (see
//! ARCHITECTURE.md).
//!
//! Outputs are **bit-identical** to the scalar path on every tier by
//! construction (same round function, differently scheduled); the
//! differential tests and proptests pin it.

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
    buf: [u8; 64],
    buf_len: usize,
}

/// SHA-256 digest length in bytes.
pub const DIGEST_LEN: usize = 32;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

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
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: `SHA-256(data)`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
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
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self
            .len
            .checked_add(data.len() as u64)
            .expect("message longer than 2^64 bytes");
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("split_at(64)"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes and returns the digest, consuming internal state.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_padding_byte();
        while self.buf_len != 56 {
            self.update_zero_byte();
        }
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bit_len.to_be_bytes());
        self.buf[56..64].copy_from_slice(&tail);
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding_byte(&mut self) {
        self.buf[self.buf_len] = 0x80;
        self.buf_len += 1;
        if self.buf_len == 64 {
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
    }

    fn update_zero_byte(&mut self) {
        self.buf[self.buf_len] = 0;
        self.buf_len += 1;
        if self.buf_len == 64 {
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.state, block);
    }
}

/// The SHA-256 initial hash value, for callers building midstates
/// (HMAC ipad/opad caching in [`crate::hmac`]).
pub(crate) const INIT: [u32; 8] = H0;

/// Resumes hashing from a captured compression state.
///
/// `len` is the number of message bytes already folded into `state`
/// (must be a multiple of 64). Used by the HMAC midstate cache to skip
/// re-compressing the padded-key block on every call.
pub(crate) fn resume(state: [u32; 8], len: u64) -> Sha256 {
    debug_assert_eq!(len % 64, 0, "midstates sit on block boundaries");
    Sha256 {
        state,
        len,
        buf: [0u8; 64],
        buf_len: 0,
    }
}

/// One scalar compression round: folds `block` into `state` in place.
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
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

/// Block-parallel compression: advances lane `l` of `state` by lane `l`
/// of `block`, for all `L` lanes at once. Both are indexed
/// `[word][lane]`; each lane computes exactly [`compress_block`].
///
/// `#[inline(always)]` so the body is compiled with the target features
/// of whichever tier wrapper it lands in (see the module docs).
#[inline(always)]
pub(crate) fn compress_lanes<const L: usize>(state: &mut [[u32; L]; 8], block: &[[u32; L]; 16]) {
    let mut w = [[0u32; L]; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let (lo, hi) = w.split_at_mut(i);
        let wi = &mut hi[0];
        for l in 0..L {
            let x = lo[i - 15][l];
            let y = lo[i - 2][l];
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            wi[l] = lo[i - 16][l]
                .wrapping_add(s0)
                .wrapping_add(lo[i - 7][l])
                .wrapping_add(s1);
        }
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        for l in 0..L {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            let t1 = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i][l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            let t2 = s0.wrapping_add(maj);
            h[l] = g[l];
            g[l] = f[l];
            f[l] = e[l];
            e[l] = d[l].wrapping_add(t1);
            d[l] = c[l];
            c[l] = b[l];
            b[l] = a[l];
            a[l] = t1.wrapping_add(t2);
        }
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for l in 0..L {
            word[l] = word[l].wrapping_add(v[l]);
        }
    }
}

/// One-shot multi-lane digest of `L` equal-length messages.
///
/// All inputs must share one length (lanes advance in lockstep through
/// the same block count); panics otherwise. Bit-identical to calling
/// [`Sha256::digest`] on each input. Runs the widest instantiation of
/// the lane kernel the CPU supports (see the module docs).
#[allow(unsafe_code)]
pub fn digest_lanes<const L: usize>(inputs: &[&[u8]; L]) -> [[u8; DIGEST_LEN]; L] {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: avx512f and avx512vl were detected on this CPU on the line above.
            return unsafe { digest_lanes_avx512(inputs) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 was detected on this CPU on the line above.
            return unsafe { digest_lanes_avx2(inputs) };
        }
    }
    digest_lanes_words(inputs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn digest_lanes_avx512<const L: usize>(inputs: &[&[u8]; L]) -> [[u8; DIGEST_LEN]; L] {
    digest_lanes_words(inputs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn digest_lanes_avx2<const L: usize>(inputs: &[&[u8]; L]) -> [[u8; DIGEST_LEN]; L] {
    digest_lanes_words(inputs)
}

/// [`compress_lanes`] over per-lane byte blocks: the transpose to
/// `[word][lane]` at [`digest_lanes`]' edge.
#[inline(always)]
fn compress_byte_blocks<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[[u8; 64]; L]) {
    let mut w = [[0u32; L]; 16];
    for (i, wi) in w.iter_mut().enumerate() {
        for l in 0..L {
            wi[l] = u32::from_be_bytes(blocks[l][i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
    }
    compress_lanes(state, &w);
}

/// The one body of [`digest_lanes`], compiled once per tier.
#[inline(always)]
fn digest_lanes_words<const L: usize>(inputs: &[&[u8]; L]) -> [[u8; DIGEST_LEN]; L] {
    let len = inputs[0].len();
    assert!(
        inputs.iter().all(|m| m.len() == len),
        "digest_lanes requires equal-length inputs"
    );
    let mut state = H0.map(|h| [h; L]);
    let mut blocks = [[0u8; 64]; L];
    let full = len / 64;
    for blk in 0..full {
        for l in 0..L {
            blocks[l].copy_from_slice(&inputs[l][blk * 64..blk * 64 + 64]);
        }
        compress_byte_blocks(&mut state, &blocks);
    }

    // Padding: 0x80, zeros, 8-byte bit length — spills into a second
    // block when fewer than 9 bytes of the last block remain.
    let rem = len - full * 64;
    let bit_len = (len as u64).wrapping_mul(8).to_be_bytes();
    for l in 0..L {
        blocks[l] = [0u8; 64];
        blocks[l][..rem].copy_from_slice(&inputs[l][full * 64..]);
        blocks[l][rem] = 0x80;
        if rem < 56 {
            blocks[l][56..64].copy_from_slice(&bit_len);
        }
    }
    compress_byte_blocks(&mut state, &blocks);
    if rem >= 56 {
        let mut tail = [[0u8; 64]; L];
        for t in tail.iter_mut() {
            t[56..64].copy_from_slice(&bit_len);
        }
        compress_byte_blocks(&mut state, &tail);
    }

    let mut out = [[0u8; DIGEST_LEN]; L];
    for l in 0..L {
        for (i, word) in state.iter().enumerate() {
            out[l][i * 4..i * 4 + 4].copy_from_slice(&word[l].to_be_bytes());
        }
    }
    out
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
    fn compress_lanes_matches_scalar_compress() {
        fn check<const L: usize>() {
            let blocks: [[u8; 64]; L] = std::array::from_fn(|l| {
                std::array::from_fn(|i| (i as u8).wrapping_add((l as u8).wrapping_mul(37)))
            });
            // Distinct per-lane start states too: lane l has already
            // absorbed its neighbour's block.
            let mut scalar = [H0; L];
            for l in 0..L {
                compress_block(&mut scalar[l], &blocks[(l + 1) % L]);
            }
            let mut state: [[u32; L]; 8] =
                std::array::from_fn(|i| std::array::from_fn(|l| scalar[l][i]));
            compress_byte_blocks(&mut state, &blocks);
            for l in 0..L {
                compress_block(&mut scalar[l], &blocks[l]);
                let lane: [u32; 8] = std::array::from_fn(|i| state[i][l]);
                assert_eq!(lane, scalar[l], "L={L} lane={l}");
            }
        }
        check::<1>();
        check::<4>();
        check::<8>();
        check::<16>();
    }

    #[test]
    fn resume_matches_streaming() {
        // Fold one block scalar-style, capture, resume, finish the rest.
        let data: Vec<u8> = (0..150u8).collect();
        let mut state = H0;
        let first: &[u8; 64] = data[..64].try_into().unwrap();
        compress_block(&mut state, first);
        let mut resumed = resume(state, 64);
        resumed.update(&data[64..]);
        assert_eq!(resumed.finalize(), Sha256::digest(&data));
    }
}
