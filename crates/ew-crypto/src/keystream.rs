//! The AES-256 counter-mode keystream (FIPS 197, NIST SP 800-38A),
//! added straight into `u32` cells — the expansion half of the blinding
//! derivation (see [`crate::blinding`]).
//!
//! The key is the 32 little-endian bytes of the eight key words. Cell
//! `m` of `out` receives little-endian word `m % 4` of
//! `AES-256_k(le128(m / 4))`: block `n` encrypts the 16-byte
//! little-endian encoding of `n`, so the block index is the whole
//! counter and the nonce is zero. The zero nonce is safe because every
//! caller keys one stream per (pair, round) and never reuses a key.
//!
//! ## Tiers
//!
//! Blocks are independent, so the hardware tiers keep several in flight
//! and each encrypted block lands in its four cells as one vector add,
//! with no transpose: a block's 32-bit lanes already are its cells.
//!
//! * `vaes/32` (`avx512f` + `vaes` + `aes`): eight `zmm` registers of
//!   four blocks each, one `vaesenc` per register per round, the round
//!   keys broadcast to all four 128-bit lanes.
//! * `aes-ni/8` (`aes` + `sse2`): eight `xmm` blocks, one `aesenc` each
//!   per round.
//! * `portable/1`: FIPS 197 one block at a time, in the four-table form
//!   (FIPS 197 §5 folded into 32-bit table lookups, as in Daemen and
//!   Rijmen's reference). The tables are computed at compile time from
//!   the GF(2⁸) inverse and the affine map, never typed in. Lookups are
//!   indexed by secret bytes, which the crate's "not constant-time"
//!   disclaimer covers; the hardware tiers' instructions are
//!   constant-time. This tier is the oracle the others are tested
//!   against and the only one compiled off x86-64.
//!
//! Both hardware tiers expand the key with `aeskeygenassist`. Their
//! intrinsics are safe calls inside `#[target_feature]` fns: cells are
//! read with `_mm512_set_epi32` or as `u64` pairs and written back as
//! `u64` pairs, with no raw pointers. Both walk the cells with one
//! helper, `in_groups`: a short last group runs in a stack copy that is
//! copied back, so nothing is allocated.
//!
//! `add_keystream` picks a tier per call with one feature test,
//! `Tier::detected` (`is_x86_feature_detected!`), which
//! [`keystream_tier`] and the tier tests read too, so the reported tier
//! is the dispatched one; there is no build flag, feature or environment
//! switch. Every tier is bit-identical to the portable block function,
//! which a per-tier differential test and the FIPS 197 C.3 vector pin.

/// AES-256 rounds (FIPS 197 §5, `Nr` for `Nk = 8`).
const ROUNDS: usize = 14;

/// Cells (keystream words) per AES block.
const BLOCK_WORDS: usize = 4;

/// Adds the AES-256-CTR keystream of `key` (the key's 32 LE bytes;
/// block `n` encrypts `le128(n)`, `n` from 0) into `out`, one keystream
/// word per cell, wrapping — or subtracts it when `negate` is set.
///
/// # Panics
/// Panics if `out` needs more than 2³² blocks.
#[allow(unsafe_code)]
pub(crate) fn add_keystream(key: &[u32; 8], negate: bool, out: &mut [u32]) {
    assert!(
        out.len().div_ceil(BLOCK_WORDS) as u64 <= 1 << 32,
        "keystream too long"
    );
    match Tier::detected() {
        // SAFETY: `Tier::detected` found avx512f, vaes and aes on this CPU.
        #[cfg(target_arch = "x86_64")]
        Tier::Vaes => unsafe { vaes::add(key, negate, out) },
        // SAFETY: `Tier::detected` found aes and sse2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        Tier::AesNi => unsafe { aes_ni::add(key, negate, out) },
        Tier::Portable => portable::add(key, negate, out),
    }
}

/// Which body `add_keystream` runs on this CPU, as `"<isa>/<blocks in
/// flight>"`: `"vaes/32"`, `"aes-ni/8"` or `"portable/1"`. A read-only
/// report for benchmark headers and telemetry — it cannot be set.
pub fn keystream_tier() -> &'static str {
    Tier::detected().name()
}

/// The keystream's bodies, narrowest first. Each x86-64 tier's features
/// include the narrower one's: rustc's `avx512f` implies `sse2`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    AesNi,
    #[cfg(target_arch = "x86_64")]
    Vaes,
}

impl Tier {
    /// The widest tier this CPU runs: the one feature test behind
    /// `add_keystream`, [`keystream_tier`] and the tier tests.
    fn detected() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2") {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vaes") {
                return Tier::Vaes;
            }
            return Tier::AesNi;
        }
        Tier::Portable
    }

    /// `"<isa>/<blocks in flight>"`, as [`keystream_tier`] reports it.
    fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable/1",
            #[cfg(target_arch = "x86_64")]
            Tier::AesNi => "aes-ni/8",
            #[cfg(target_arch = "x86_64")]
            Tier::Vaes => "vaes/32",
        }
    }
}

/// Runs `add_group` over `out` a group of `GROUP` cells at a time,
/// with each group's first block index: whole groups in place, and a
/// short last group in a stack copy that is copied back, so nothing is
/// allocated. `#[inline(always)]`: it compiles into the calling tier's
/// `#[target_feature]` body, whose closure takes the tier's features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn in_groups<const GROUP: usize>(
    out: &mut [u32],
    mut add_group: impl FnMut(u64, &mut [u32; GROUP]),
) {
    let blocks = (GROUP / BLOCK_WORDS) as u64;
    let (groups, tail) = out.as_chunks_mut::<GROUP>();
    for (g, group) in (0u64..).zip(groups.iter_mut()) {
        add_group(g * blocks, group);
    }
    if !tail.is_empty() {
        let mut buf = [0u32; GROUP];
        buf[..tail.len()].copy_from_slice(tail);
        add_group(groups.len() as u64 * blocks, &mut buf);
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

/// The AES-NI body, and the key expansion both hardware tiers share.
#[cfg(target_arch = "x86_64")]
mod aes_ni {
    use super::{BLOCK_WORDS, ROUNDS};
    use std::arch::x86_64::*;

    /// Blocks in flight per pass.
    const BLOCKS: usize = 8;

    /// Cells per pass.
    const GROUP: usize = BLOCKS * BLOCK_WORDS;

    /// Four cells in one register, lane `i` = `s[i]`.
    #[target_feature(enable = "aes,sse2")]
    #[inline]
    pub(super) fn load(s: &[u32; 4]) -> __m128i {
        let pair = |i: usize| (u64::from(s[i + 1]) << 32 | u64::from(s[i])) as i64;
        _mm_set_epi64x(pair(2), pair(0))
    }

    /// `v`'s four lanes back into cells, lane `i` to `s[i]`.
    #[target_feature(enable = "aes,sse2")]
    #[inline]
    pub(super) fn store(s: &mut [u32; 4], v: __m128i) {
        let pairs = [
            _mm_cvtsi128_si64(v) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64,
        ];
        for (cells, pair) in s.chunks_exact_mut(2).zip(pairs) {
            cells[0] = pair as u32;
            cells[1] = (pair >> 32) as u32;
        }
    }

    /// `a ^ (a << 32) ^ (a << 64) ^ (a << 96)`: each word of a round
    /// key xored with every word below it (FIPS 197 §5.2's running xor).
    #[target_feature(enable = "aes,sse2")]
    #[inline]
    fn prefix_xor(a: __m128i) -> __m128i {
        let a = _mm_xor_si128(a, _mm_slli_si128::<4>(a));
        let a = _mm_xor_si128(a, _mm_slli_si128::<4>(a));
        _mm_xor_si128(a, _mm_slli_si128::<4>(a))
    }

    /// The AES-256 key schedule (FIPS 197 §5.2). An even round key
    /// takes `RotWord(SubWord(w)) ^ Rcon` of the odd key before it
    /// (`aeskeygenassist` dword 3), an odd one `SubWord(w)` of the even
    /// key before it (dword 2).
    #[target_feature(enable = "aes,sse2")]
    #[inline]
    pub(super) fn expand_key(key: &[u32; 8]) -> [__m128i; ROUNDS + 1] {
        let even = |prev: __m128i, assist: __m128i| {
            _mm_xor_si128(prefix_xor(prev), _mm_shuffle_epi32::<0xff>(assist))
        };
        let odd = |prev: __m128i, assist: __m128i| {
            _mm_xor_si128(prefix_xor(prev), _mm_shuffle_epi32::<0xaa>(assist))
        };
        let mut rk = [_mm_setzero_si128(); ROUNDS + 1];
        rk[0] = load(&[key[0], key[1], key[2], key[3]]);
        rk[1] = load(&[key[4], key[5], key[6], key[7]]);
        rk[2] = even(rk[0], _mm_aeskeygenassist_si128::<0x01>(rk[1]));
        rk[3] = odd(rk[1], _mm_aeskeygenassist_si128::<0>(rk[2]));
        rk[4] = even(rk[2], _mm_aeskeygenassist_si128::<0x02>(rk[3]));
        rk[5] = odd(rk[3], _mm_aeskeygenassist_si128::<0>(rk[4]));
        rk[6] = even(rk[4], _mm_aeskeygenassist_si128::<0x04>(rk[5]));
        rk[7] = odd(rk[5], _mm_aeskeygenassist_si128::<0>(rk[6]));
        rk[8] = even(rk[6], _mm_aeskeygenassist_si128::<0x08>(rk[7]));
        rk[9] = odd(rk[7], _mm_aeskeygenassist_si128::<0>(rk[8]));
        rk[10] = even(rk[8], _mm_aeskeygenassist_si128::<0x10>(rk[9]));
        rk[11] = odd(rk[9], _mm_aeskeygenassist_si128::<0>(rk[10]));
        rk[12] = even(rk[10], _mm_aeskeygenassist_si128::<0x20>(rk[11]));
        rk[13] = odd(rk[11], _mm_aeskeygenassist_si128::<0>(rk[12]));
        rk[14] = even(rk[12], _mm_aeskeygenassist_si128::<0x40>(rk[13]));
        rk
    }

    /// AES-256 of every block in `x`, round by round across the blocks.
    #[target_feature(enable = "aes,sse2")]
    #[inline]
    pub(super) fn encrypt<const N: usize>(
        rk: &[__m128i; ROUNDS + 1],
        mut x: [__m128i; N],
    ) -> [__m128i; N] {
        for b in &mut x {
            *b = _mm_xor_si128(*b, rk[0]);
        }
        for k in &rk[1..ROUNDS] {
            for b in &mut x {
                *b = _mm_aesenc_si128(*b, *k);
            }
        }
        for b in &mut x {
            *b = _mm_aesenclast_si128(*b, rk[ROUNDS]);
        }
        x
    }

    /// Blocks `first..first + 8`, added into 32 cells. `mask` is all
    /// ones to subtract: `(k ^ m) - m` is `-k` then, `k` otherwise.
    #[target_feature(enable = "aes,sse2")]
    #[inline]
    fn add_group(rk: &[__m128i; ROUNDS + 1], first: u64, mask: __m128i, cells: &mut [u32; GROUP]) {
        let mut x = [_mm_setzero_si128(); BLOCKS];
        for (n, b) in (first..).zip(&mut x) {
            *b = _mm_set_epi64x(0, n as i64);
        }
        let x = encrypt(rk, x);
        for (block, k) in cells.as_chunks_mut::<BLOCK_WORDS>().0.iter_mut().zip(x) {
            let k = _mm_sub_epi32(_mm_xor_si128(k, mask), mask);
            store(block, _mm_add_epi32(load(block), k));
        }
    }

    /// `add_keystream` on AES-NI.
    #[target_feature(enable = "aes,sse2")]
    pub(super) fn add(key: &[u32; 8], negate: bool, out: &mut [u32]) {
        let rk = expand_key(key);
        let mask = _mm_set1_epi32(-(negate as i32));
        super::in_groups(out, |first, cells| add_group(&rk, first, mask, cells));
    }
}

/// The VAES body: the AES-NI design at four blocks per register, eight
/// registers in flight, on the AES-NI key schedule.
#[cfg(target_arch = "x86_64")]
mod vaes {
    use super::{aes_ni, BLOCK_WORDS, ROUNDS};
    use std::arch::x86_64::*;

    /// Registers in flight per pass.
    const REGS: usize = 8;

    /// Blocks per pass: four per register.
    const BLOCKS: usize = 4 * REGS;

    /// Cells per pass.
    const GROUP: usize = BLOCKS * BLOCK_WORDS;

    /// Sixteen cells in one register, lane `i` = `s[i]`.
    #[target_feature(enable = "avx512f,vaes,aes")]
    #[inline]
    pub(super) fn load(s: &[u32; 16]) -> __m512i {
        let s = s.map(|c| c as i32);
        _mm512_set_epi32(
            s[15], s[14], s[13], s[12], s[11], s[10], s[9], s[8], s[7], s[6], s[5], s[4], s[3],
            s[2], s[1], s[0],
        )
    }

    /// `v`'s sixteen lanes back into cells, lane `i` to `s[i]`.
    #[target_feature(enable = "avx512f,vaes,aes")]
    #[inline]
    pub(super) fn store(s: &mut [u32; 16], v: __m512i) {
        let (lo, hi) = (
            _mm512_extracti64x4_epi64::<0>(v),
            _mm512_extracti64x4_epi64::<1>(v),
        );
        let pairs = [
            _mm256_extract_epi64::<0>(lo) as u64,
            _mm256_extract_epi64::<1>(lo) as u64,
            _mm256_extract_epi64::<2>(lo) as u64,
            _mm256_extract_epi64::<3>(lo) as u64,
            _mm256_extract_epi64::<0>(hi) as u64,
            _mm256_extract_epi64::<1>(hi) as u64,
            _mm256_extract_epi64::<2>(hi) as u64,
            _mm256_extract_epi64::<3>(hi) as u64,
        ];
        for (cells, pair) in s.chunks_exact_mut(2).zip(pairs) {
            cells[0] = pair as u32;
            cells[1] = (pair >> 32) as u32;
        }
    }

    /// The AES-NI schedule, each round key in all four 128-bit lanes.
    #[target_feature(enable = "avx512f,vaes,aes")]
    #[inline]
    pub(super) fn expand_key(key: &[u32; 8]) -> [__m512i; ROUNDS + 1] {
        aes_ni::expand_key(key).map(|k| _mm512_broadcast_i32x4(k))
    }

    /// AES-256 of every 128-bit lane of every register in `x`, round by
    /// round across the registers.
    #[target_feature(enable = "avx512f,vaes,aes")]
    #[inline]
    pub(super) fn encrypt<const N: usize>(
        rk: &[__m512i; ROUNDS + 1],
        mut x: [__m512i; N],
    ) -> [__m512i; N] {
        for b in &mut x {
            *b = _mm512_xor_si512(*b, rk[0]);
        }
        for k in &rk[1..ROUNDS] {
            for b in &mut x {
                *b = _mm512_aesenc_epi128(*b, *k);
            }
        }
        for b in &mut x {
            *b = _mm512_aesenclast_epi128(*b, rk[ROUNDS]);
        }
        x
    }

    /// Blocks `first..first + 32`, added into 128 cells; `mask` as in
    /// the AES-NI body.
    #[target_feature(enable = "avx512f,vaes,aes")]
    #[inline]
    fn add_group(rk: &[__m512i; ROUNDS + 1], first: u64, mask: __m512i, cells: &mut [u32; GROUP]) {
        let step = _mm512_set_epi64(0, 4, 0, 4, 0, 4, 0, 4);
        let n = first as i64;
        let mut counters = _mm512_set_epi64(0, n + 3, 0, n + 2, 0, n + 1, 0, n);
        let mut x = [_mm512_setzero_si512(); REGS];
        for b in &mut x {
            *b = counters;
            counters = _mm512_add_epi64(counters, step);
        }
        let x = encrypt(rk, x);
        for (row, k) in cells.as_chunks_mut::<16>().0.iter_mut().zip(x) {
            let k = _mm512_sub_epi32(_mm512_xor_si512(k, mask), mask);
            store(row, _mm512_add_epi32(load(row), k));
        }
    }

    /// `add_keystream` on VAES.
    #[target_feature(enable = "avx512f,vaes,aes")]
    pub(super) fn add(key: &[u32; 8], negate: bool, out: &mut [u32]) {
        let rk = expand_key(key);
        let mask = _mm512_set1_epi32(-(negate as i32));
        super::in_groups(out, |first, cells| add_group(&rk, first, mask, cells));
    }
}

/// FIPS 197 in safe Rust, one block at a time. A state column is a
/// `u32` whose byte `r` (little-endian) is row `r`, so the block's LE
/// words are its columns and its keystream cells.
mod portable {
    use super::{BLOCK_WORDS, ROUNDS};

    /// Multiplication by `x` in GF(2⁸) modulo `x⁸ + x⁴ + x³ + x + 1`.
    const fn xtime(b: u8) -> u8 {
        (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
    }

    /// Multiplication in GF(2⁸), shift and add.
    const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        p
    }

    /// The S-box (FIPS 197 §5.1.1): the inverse `x²⁵⁴` (0 maps to 0),
    /// then the affine map `b ^ rotl(b, 1..=4) ^ 0x63`.
    const SBOX: [u8; 256] = {
        let mut sbox = [0u8; 256];
        let mut x = 0;
        while x < 256 {
            // x^254 = x^2 · x^4 · … · x^128.
            let (mut inv, mut square) = (1u8, x as u8);
            let mut i = 0;
            while i < 7 {
                square = gf_mul(square, square);
                inv = gf_mul(inv, square);
                i += 1;
            }
            sbox[x] = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
            x += 1;
        }
        sbox
    };

    /// `TE[r][b]`: SubBytes then MixColumns of byte `b` in row `r`, as
    /// the column it contributes. Row 0's is `(2s, s, s, 3s)` for
    /// `s = SBOX[b]`; row `r`'s is that rotated by `r` bytes.
    static TE: [[u32; 256]; 4] = {
        let mut te = [[0u32; 256]; 4];
        let mut b = 0;
        while b < 256 {
            let s = SBOX[b];
            let t = u32::from_le_bytes([xtime(s), s, s, xtime(s) ^ s]);
            let mut r = 0;
            while r < 4 {
                te[r][b] = t.rotate_left(8 * r as u32);
                r += 1;
            }
            b += 1;
        }
        te
    };

    /// Byte `r` (row `r`) of a column, as a table index.
    fn row(column: u32, r: usize) -> usize {
        (column >> (8 * r)) as u8 as usize
    }

    /// SubWord: the S-box on each byte.
    fn sub_word(w: u32) -> u32 {
        u32::from_le_bytes(w.to_le_bytes().map(|b| SBOX[b as usize]))
    }

    /// The AES-256 key schedule (FIPS 197 §5.2), as `ROUNDS + 1` round
    /// keys of four columns. RotWord is a right rotation of the
    /// little-endian word.
    pub(super) fn expand_key(key: &[u32; 8]) -> [[u32; 4]; ROUNDS + 1] {
        let mut w = [[0u32; 4]; ROUNDS + 1];
        let words = w.as_flattened_mut();
        words[..8].copy_from_slice(key);
        let mut rcon = 1u8;
        for i in 8..words.len() {
            let mut t = words[i - 1];
            if i % 8 == 0 {
                t = sub_word(t.rotate_right(8)) ^ rcon as u32;
                rcon = xtime(rcon);
            } else if i % 8 == 4 {
                t = sub_word(t);
            }
            words[i] = words[i - 8] ^ t;
        }
        w
    }

    /// One block (four columns) through AES-256: ShiftRows folded into
    /// which column each row's byte is read from.
    pub(super) fn encrypt(rk: &[[u32; 4]; ROUNDS + 1], block: [u32; 4]) -> [u32; 4] {
        let mut s: [u32; 4] = std::array::from_fn(|c| block[c] ^ rk[0][c]);
        for k in &rk[1..ROUNDS] {
            s = std::array::from_fn(|c| {
                TE[0][row(s[c], 0)]
                    ^ TE[1][row(s[(c + 1) % 4], 1)]
                    ^ TE[2][row(s[(c + 2) % 4], 2)]
                    ^ TE[3][row(s[(c + 3) % 4], 3)]
                    ^ k[c]
            });
        }
        std::array::from_fn(|c| {
            let bytes: [u8; 4] = std::array::from_fn(|r| SBOX[row(s[(c + r) % 4], r)]);
            u32::from_le_bytes(bytes) ^ rk[ROUNDS][c]
        })
    }

    /// `add_keystream` one block at a time; a short last block adds its
    /// first words only.
    pub(super) fn add(key: &[u32; 8], negate: bool, out: &mut [u32]) {
        let rk = expand_key(key);
        for (n, cells) in (0u64..).zip(out.chunks_mut(BLOCK_WORDS)) {
            let k = encrypt(&rk, [n as u32, (n >> 32) as u32, 0, 0]);
            for (cell, k) in cells.iter_mut().zip(k) {
                *cell = if negate {
                    cell.wrapping_sub(k)
                } else {
                    cell.wrapping_add(k)
                };
            }
        }
    }
}

/// AES-256 of one block on the portable tier, key and block as LE
/// words: the oracle the tiers and the blinding derivation are tested
/// against.
#[cfg(test)]
pub(crate) fn aes256_block(key: &[u32; 8], block: [u32; 4]) -> [u32; 4] {
    portable::encrypt(&portable::expand_key(key), block)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Little-endian words of a byte string.
    fn le_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
        std::array::from_fn(|i| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap()))
    }

    type TierFn = fn(&[u32; 8], bool, &mut [u32]);
    type BlockFn = fn(&[u32; 8], [u32; 4]) -> [u32; 4];

    /// Every tier this host can run, narrowest first, each as its
    /// keystream fn and its one-block AES-256, called directly rather
    /// than through the dispatch.
    #[allow(unsafe_code)]
    fn host_tiers() -> Vec<(&'static str, TierFn, BlockFn)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut tiers: Vec<(&'static str, TierFn, BlockFn)> =
            vec![(Tier::Portable.name(), portable::add, aes256_block)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::*;

            #[target_feature(enable = "aes,sse2")]
            fn aes_ni_block(key: &[u32; 8], block: [u32; 4]) -> [u32; 4] {
                let [x] = aes_ni::encrypt(&aes_ni::expand_key(key), [aes_ni::load(&block)]);
                let mut out = [0; 4];
                aes_ni::store(&mut out, x);
                out
            }

            #[target_feature(enable = "avx512f,vaes,aes")]
            fn vaes_block(key: &[u32; 8], block: [u32; 4]) -> [u32; 4] {
                let x = _mm512_broadcast_i32x4(aes_ni::load(&block));
                let [x] = vaes::encrypt(&vaes::expand_key(key), [x]);
                let mut out = [0; 16];
                vaes::store(&mut out, x);
                assert!(out.as_chunks::<4>().0.iter().all(|lane| *lane == out[..4]));
                out[..4].try_into().unwrap()
            }

            let widest = Tier::detected();
            if widest >= Tier::AesNi {
                // SAFETY: only pushed (so only callable) once aes and
                // sse2 were detected.
                tiers.push((
                    Tier::AesNi.name(),
                    |k, n, o| unsafe { aes_ni::add(k, n, o) },
                    |k, b| unsafe { aes_ni_block(k, b) },
                ));
            }
            if widest == Tier::Vaes {
                // SAFETY: only pushed once avx512f, vaes and aes were
                // detected.
                tiers.push((
                    Tier::Vaes.name(),
                    |k, n, o| unsafe { vaes::add(k, n, o) },
                    |k, b| unsafe { vaes_block(k, b) },
                ));
            }
        }
        tiers
    }

    #[test]
    fn fips197_c3_vector_on_every_host_tier() {
        // FIPS 197 Appendix C.3 (AES-256): key 00 01 … 1f.
        let key = le_words::<8>(&(0..32).collect::<Vec<u8>>());
        let plain = le_words::<4>(&[
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        let cipher = le_words::<4>(&[
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ]);
        for (name, _, block) in host_tiers() {
            assert_eq!(block(&key, plain), cipher, "tier={name}");
        }
    }

    #[test]
    fn every_host_tier_matches_scalar_oracle() {
        // Empty, a single cell, around a block, the VAES tier's 128-cell
        // pass and its doubles, a truncated tail, and the benchmark's 5 ×
        // 2048 cells; then every length to four whole VAES passes, so
        // every residue of a short last pass goes through each hardware
        // body's stack copy. Both signs, onto non-zero cells.
        const CELLS: [usize; 10] = [0, 1, 15, 16, 17, 255, 256, 257, 1000, 10_240];
        let tiers = host_tiers();
        let names: Vec<&str> = tiers.iter().map(|t| t.0).collect();
        println!(
            "keystream tiers exercised: {names:?}; dispatch picks {}",
            keystream_tier()
        );
        assert_eq!(
            keystream_tier(),
            *names.last().unwrap(),
            "dispatch runs the widest tier"
        );

        let key: [u32; 8] = std::array::from_fn(|i| 0x9E37_79B9u32.wrapping_mul(i as u32 + 1));
        let stream: Vec<u32> = (0..2560u32)
            .flat_map(|n| aes256_block(&key, [n, 0, 0, 0]))
            .collect();
        let cells: Vec<u32> = (0..10_240u32)
            .map(|i| i.wrapping_mul(0x85EB_CA6B))
            .collect();
        for &(name, tier, _) in &tiers {
            for len in CELLS.into_iter().chain(0..=512) {
                for negate in [false, true] {
                    let mut got = cells[..len].to_vec();
                    tier(&key, negate, &mut got);
                    let want: Vec<u32> = cells[..len]
                        .iter()
                        .zip(&stream)
                        .map(|(c, k)| {
                            if negate {
                                c.wrapping_sub(*k)
                            } else {
                                c.wrapping_add(*k)
                            }
                        })
                        .collect();
                    assert!(got == want, "tier={name} cells={len} negate={negate}");
                }
            }
        }
    }

    #[test]
    fn adding_then_subtracting_cancels() {
        let key = [7u32, 1, 4, 1, 5, 9, 2, 6];
        let mut cells: Vec<u32> = (0..333).collect();
        add_keystream(&key, false, &mut cells);
        assert_ne!(cells, (0..333).collect::<Vec<u32>>());
        add_keystream(&key, true, &mut cells);
        assert_eq!(cells, (0..333).collect::<Vec<u32>>());
    }
}
