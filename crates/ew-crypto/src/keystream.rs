//! The ChaCha20 keystream (RFC 8439 §2.3–2.4), added straight into
//! `u32` cells — the expansion half of the blinding derivation (see
//! [`crate::blinding`]).
//!
//! Cell `m` of `out` receives keystream word `m`: word `m % 16` of block
//! `m / 16`, blocks numbered from counter 0 under an all-zero nonce. That
//! is RFC 8439's own order, so the output is exactly the RFC keystream
//! read as little-endian words. The zero nonce is safe because every
//! caller keys one stream per (pair, round) and never reuses a key.
//!
//! ## Lanes
//!
//! Blocks are independent, so every tier computes 16 consecutive blocks
//! at once with the state held as words indexed `[word][lane]` (lane `l`
//! is block `base + l`), then transposes the 16 × 16 words to cell order
//! on their way into the output. There are two bodies.
//!
//! * `add_lanes::<L>` is safe Rust without intrinsics: every operation
//!   is an elementwise add, xor or rotate over a `[u32; L]`, which the
//!   compiler turns into whatever vector ISA the enclosing function is
//!   compiled for. It is `#[inline(always)]` and instantiated twice:
//!   under `avx2`, and plain (SSE2 on baseline x86-64, NEON on aarch64 —
//!   the only body compiled off x86-64). Both are 16 lanes wide: at 8
//!   lanes the compiler leaves the rounds scalar (about 3 × slower under
//!   `avx2` and 1.5–2 × under SSE2; see ARCHITECTURE.md). A short last
//!   group is one more full-width pass whose surplus lanes are
//!   discarded.
//! * The `avx512f,avx512vl` tier has a body of its own, written with
//!   `core::arch` intrinsics as safe calls inside `#[target_feature]`
//!   fns. The rounds are the same `vpaddd`/`vpxord`/`vprold` the generic
//!   body compiles to; the reason is the transpose. From the generic
//!   body LLVM emits 64 `vpgatherqd` per pass, about a third of the
//!   kernel's time. Here it is 16 `unpack{lo,hi}_epi32`, 16
//!   `unpack{lo,hi}_epi64` and 32 `shuffle_i32x4` in registers, and
//!   each block is added into its 16 cells with one load and one store.
//!   A short last group runs in a 256-word stack copy that is copied
//!   back, so nothing is allocated.
//!
//! `add_keystream` picks a tier per call with one feature test,
//! `Tier::detected` (`is_x86_feature_detected!`), which
//! [`keystream_tier`] and the tier tests read too, so the reported tier
//! is the dispatched one; there is no build flag, feature or environment
//! switch.
//!
//! Every tier is bit-identical to the scalar RFC block function, which a
//! per-tier differential test and the RFC 8439 §2.3.2 vector pin.

/// `"expand 32-byte k"` as four little-endian words (RFC 8439 §2.3).
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Cells (keystream words) per ChaCha20 block.
const BLOCK_WORDS: usize = 16;

/// Adds the ChaCha20 keystream of `key` (nonce zero, block counter from
/// 0) into `out`, one keystream word per cell, wrapping — or subtracts
/// it when `negate` is set.
///
/// # Panics
/// Panics if `out` needs more than 2³² blocks (the counter is 32 bits).
#[allow(unsafe_code)]
pub(crate) fn add_keystream(key: &[u32; 8], negate: bool, out: &mut [u32]) {
    assert!(
        out.len().div_ceil(BLOCK_WORDS) as u64 <= 1 << 32,
        "keystream too long"
    );
    match Tier::detected() {
        // SAFETY: `Tier::detected` found avx512f and avx512vl on this CPU.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512::add(key, negate, out) },
        // SAFETY: `Tier::detected` found avx2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { add_avx2(key, negate, out) },
        Tier::Portable => add_portable(key, negate, out),
    }
}

/// Which body of the lane kernel `add_keystream` runs on this
/// CPU, as `"<isa>/<lanes>"`: `"avx512/16"`, `"avx2/16"` or
/// `"portable/16"`. A read-only report for benchmark headers and
/// telemetry — it cannot be set.
pub fn keystream_tier() -> &'static str {
    Tier::detected().name()
}

/// The keystream's bodies, narrowest first. Each x86-64 tier's features
/// include the narrower one's: rustc's `avx512f` implies `avx2`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The widest tier this CPU runs: the one feature test behind
    /// `add_keystream`, [`keystream_tier`] and the tier tests.
    fn detected() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                return Tier::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Tier::Avx2;
            }
        }
        Tier::Portable
    }

    /// `"<isa>/<lanes>"`, as [`keystream_tier`] reports it.
    fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable/16",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2/16",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512/16",
        }
    }
}

/// The AVX-512 body: the same design as `add_lanes::<16>` — lane `l` of
/// word `w` is word `w` of block `16g + l` — written with intrinsics so
/// that the transpose to cell order is 64 register shuffles rather than
/// the gathers LLVM emits for the generic body. Every fn takes the tier's
/// target features, so the intrinsics are safe calls and the helpers
/// inline into `add_group`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BLOCK_WORDS, SIGMA};
    use std::arch::x86_64::*;

    /// Cells per pass: sixteen blocks.
    const GROUP: usize = 16 * BLOCK_WORDS;

    /// `_mm512_shuffle_i32x4` picks: 128-bit lanes 0 and 2 of each
    /// operand, or lanes 1 and 3.
    const EVEN: i32 = 0b10_00_10_00;
    const ODD: i32 = 0b11_01_11_01;

    /// Sixteen cells in one register, lane `i` = `s[i]`.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn load(s: &[u32; 16]) -> __m512i {
        let s = s.map(|c| c as i32);
        _mm512_set_epi32(
            s[15], s[14], s[13], s[12], s[11], s[10], s[9], s[8], s[7], s[6], s[5], s[4], s[3],
            s[2], s[1], s[0],
        )
    }

    /// `v`'s sixteen lanes back into cells, lane `i` to `s[i]`.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn store(s: &mut [u32; 16], v: __m512i) {
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

    /// One ChaCha quarter round on four state words, every lane at once.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn quarter_round(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// `x[w]` lane `l` (word `w` of block `l`) to `x[l]` lane `w` (block
    /// `l`'s words in RFC order). The 32-bit and 64-bit unpacks transpose
    /// each 128-bit lane's 4 × 4 words: afterwards `x[4i + j]` holds, in
    /// its 128-bit lane `q`, words `4i..4i + 4` of block `4q + j`. Two
    /// levels of `shuffle_i32x4` then transpose the 4 × 4 grid of 128-bit
    /// lanes among `x[j]`, `x[4 + j]`, `x[8 + j]` and `x[12 + j]`.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn transpose(x: [__m512i; 16]) -> [__m512i; 16] {
        let mut a = x;
        for i in 0..8 {
            a[2 * i] = _mm512_unpacklo_epi32(x[2 * i], x[2 * i + 1]);
            a[2 * i + 1] = _mm512_unpackhi_epi32(x[2 * i], x[2 * i + 1]);
        }
        let mut b = a;
        for i in 0..4 {
            let w = 4 * i;
            b[w] = _mm512_unpacklo_epi64(a[w], a[w + 2]);
            b[w + 1] = _mm512_unpackhi_epi64(a[w], a[w + 2]);
            b[w + 2] = _mm512_unpacklo_epi64(a[w + 1], a[w + 3]);
            b[w + 3] = _mm512_unpackhi_epi64(a[w + 1], a[w + 3]);
        }
        let mut rows = b;
        for j in 0..4 {
            let (p, q, r, s) = (b[j], b[4 + j], b[8 + j], b[12 + j]);
            let (pq_even, pq_odd) = (
                _mm512_shuffle_i32x4::<EVEN>(p, q),
                _mm512_shuffle_i32x4::<ODD>(p, q),
            );
            let (rs_even, rs_odd) = (
                _mm512_shuffle_i32x4::<EVEN>(r, s),
                _mm512_shuffle_i32x4::<ODD>(r, s),
            );
            rows[j] = _mm512_shuffle_i32x4::<EVEN>(pq_even, rs_even);
            rows[4 + j] = _mm512_shuffle_i32x4::<EVEN>(pq_odd, rs_odd);
            rows[8 + j] = _mm512_shuffle_i32x4::<ODD>(pq_even, rs_even);
            rows[12 + j] = _mm512_shuffle_i32x4::<ODD>(pq_odd, rs_odd);
        }
        rows
    }

    /// Sixteen blocks from counter `base`, added into 256 cells.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn add_group(init: &[__m512i; 16], base: u32, mask: __m512i, cells: &mut [u32; GROUP]) {
        let mut init = *init;
        init[12] = _mm512_add_epi32(
            _mm512_set1_epi32(base as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        let mut x = init;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        // Feed-forward and sign, then block order.
        for (xw, iw) in x.iter_mut().zip(&init) {
            *xw = _mm512_sub_epi32(_mm512_xor_si512(_mm512_add_epi32(*xw, *iw), mask), mask);
        }
        let rows = transpose(x);
        for (block, row) in cells.as_chunks_mut::<BLOCK_WORDS>().0.iter_mut().zip(rows) {
            store(block, _mm512_add_epi32(load(block), row));
        }
    }

    /// `add_keystream` on AVX-512: whole groups in place, and a short
    /// last group through a stack copy, so nothing is allocated.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn add(key: &[u32; 8], negate: bool, out: &mut [u32]) {
        let mask = _mm512_set1_epi32(if negate { -1 } else { 0 });
        // Words 12..16 (counter and nonce) start at zero; `add_group`
        // sets the counter.
        let mut init = [_mm512_setzero_si512(); 16];
        for (w, &c) in SIGMA.iter().chain(key).enumerate() {
            init[w] = _mm512_set1_epi32(c as i32);
        }
        // A group's first counter is at most the last block's, which the
        // caller bounded; surplus lanes past it may wrap and are never
        // written back.
        let (groups, tail) = out.as_chunks_mut::<GROUP>();
        for (g, group) in groups.iter_mut().enumerate() {
            add_group(&init, (g * 16) as u32, mask, group);
        }
        if !tail.is_empty() {
            let mut buf = [0u32; GROUP];
            buf[..tail.len()].copy_from_slice(tail);
            add_group(&init, (groups.len() * 16) as u32, mask, &mut buf);
            tail.copy_from_slice(&buf[..tail.len()]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_avx2(key: &[u32; 8], negate: bool, out: &mut [u32]) {
    add_lanes::<16>(key, negate, out)
}

fn add_portable(key: &[u32; 8], negate: bool, out: &mut [u32]) {
    add_lanes::<16>(key, negate, out)
}

/// One ChaCha quarter round on four state words, every lane at once.
#[inline(always)]
fn quarter_round<const L: usize>(
    a: &mut [u32; L],
    b: &mut [u32; L],
    c: &mut [u32; L],
    d: &mut [u32; L],
) {
    for l in 0..L {
        a[l] = a[l].wrapping_add(b[l]);
        d[l] = (d[l] ^ a[l]).rotate_left(16);
        c[l] = c[l].wrapping_add(d[l]);
        b[l] = (b[l] ^ c[l]).rotate_left(12);
        a[l] = a[l].wrapping_add(b[l]);
        d[l] = (d[l] ^ a[l]).rotate_left(8);
        c[l] = c[l].wrapping_add(d[l]);
        b[l] = (b[l] ^ c[l]).rotate_left(7);
    }
}

/// The generic body of `add_keystream`, compiled for the `avx2` and
/// portable tiers: `L` blocks per pass, 20 rounds, feed-forward, then
/// each block's words folded into its 16 cells. Negation is two's
/// complement under a mask (`(k ^ m) - m`), so both signs run the same
/// straight-line code. No heap allocation. `#[inline(always)]`: the
/// body takes the target features of the tier wrapper it is
/// instantiated in.
#[inline(always)]
fn add_lanes<const L: usize>(key: &[u32; 8], negate: bool, out: &mut [u32]) {
    let mask = if negate { u32::MAX } else { 0 };
    let mut init = [[0u32; L]; 16];
    for (w, &c) in SIGMA.iter().chain(key).enumerate() {
        init[w] = [c; L];
    }
    // Words 13..16, the nonce, stay zero.
    for (g, group) in out.chunks_mut(BLOCK_WORDS * L).enumerate() {
        // The group's first counter is at most the last block's, which
        // the caller bounded; surplus lanes past it may wrap and are
        // never written.
        let base = (g * L) as u32;
        for (l, counter) in init[12].iter_mut().enumerate() {
            *counter = base.wrapping_add(l as u32);
        }
        // Sixteen named words rather than one indexed array, so that
        // every word stays in its own vector register through the rounds.
        #[rustfmt::skip]
        let [
            mut x0, mut x1, mut x2, mut x3, mut x4, mut x5, mut x6, mut x7,
            mut x8, mut x9, mut x10, mut x11, mut x12, mut x13, mut x14, mut x15,
        ] = init;
        for _ in 0..10 {
            quarter_round(&mut x0, &mut x4, &mut x8, &mut x12);
            quarter_round(&mut x1, &mut x5, &mut x9, &mut x13);
            quarter_round(&mut x2, &mut x6, &mut x10, &mut x14);
            quarter_round(&mut x3, &mut x7, &mut x11, &mut x15);
            quarter_round(&mut x0, &mut x5, &mut x10, &mut x15);
            quarter_round(&mut x1, &mut x6, &mut x11, &mut x12);
            quarter_round(&mut x2, &mut x7, &mut x8, &mut x13);
            quarter_round(&mut x3, &mut x4, &mut x9, &mut x14);
        }
        let x = [
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15,
        ];
        // Feed-forward and transpose to block order in one pass.
        let mut blocks = [[0u32; BLOCK_WORDS]; L];
        for (w, (xw, iw)) in x.iter().zip(&init).enumerate() {
            for l in 0..L {
                blocks[l][w] = xw[l].wrapping_add(iw[l]) ^ mask;
            }
        }
        for (cell, k) in group.iter_mut().zip(blocks.as_flattened()) {
            *cell = cell.wrapping_add(k.wrapping_sub(mask));
        }
    }
}

/// The RFC 8439 §2.3 block function, one block at a time: the oracle the
/// lane tiers are tested against.
#[cfg(test)]
pub(crate) fn chacha20_block(key: &[u32; 8], counter: u32, nonce: &[u32; 3]) -> [u32; 16] {
    let mut init = [0u32; 16];
    init[..4].copy_from_slice(&SIGMA);
    init[4..12].copy_from_slice(key);
    init[12] = counter;
    init[13..].copy_from_slice(nonce);
    let mut x = init;
    let mut qr = |a: usize, b: usize, c: usize, d: usize| {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    };
    for _ in 0..10 {
        qr(0, 4, 8, 12);
        qr(1, 5, 9, 13);
        qr(2, 6, 10, 14);
        qr(3, 7, 11, 15);
        qr(0, 5, 10, 15);
        qr(1, 6, 11, 12);
        qr(2, 7, 8, 13);
        qr(3, 4, 9, 14);
    }
    std::array::from_fn(|i| x[i].wrapping_add(init[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Little-endian words of a byte string, as RFC 8439 §2.3 reads its
    /// key and nonce.
    fn le_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
        std::array::from_fn(|i| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap()))
    }

    #[test]
    fn rfc8439_block_function_test_vector() {
        // RFC 8439 §2.3.2: key 00 01 … 1f, nonce 00 00 00 09 00 00 00 4a
        // 00 00 00 00, block count 1 — the serialized state after the
        // feed-forward.
        let key_bytes: Vec<u8> = (0..32).collect();
        let key = le_words::<8>(&key_bytes);
        let nonce = le_words::<3>(&[0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        let want: [u32; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, //
            0xc7f4d1c7, 0x0368c033, 0x9aaa2204, 0x4e6cd4c3, //
            0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, //
            0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2,
        ];
        assert_eq!(chacha20_block(&key, 1, &nonce), want);
    }

    type TierFn = fn(&[u32; 8], bool, &mut [u32]);

    /// Every tier this host can run, narrowest first, called
    /// directly rather than through the dispatch.
    #[allow(unsafe_code)]
    fn host_tiers() -> Vec<(&'static str, TierFn)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut tiers: Vec<(&'static str, TierFn)> = vec![(Tier::Portable.name(), add_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            let widest = Tier::detected();
            if widest >= Tier::Avx2 {
                // SAFETY: only pushed (so only callable) once avx2 was
                // detected, directly or as part of avx512f.
                tiers.push((Tier::Avx2.name(), |k, n, o| unsafe { add_avx2(k, n, o) }));
            }
            if widest == Tier::Avx512 {
                // SAFETY: only pushed once avx512f and avx512vl were detected.
                tiers.push((Tier::Avx512.name(), |k, n, o| unsafe {
                    avx512::add(k, n, o)
                }));
            }
        }
        tiers
    }

    #[test]
    fn every_host_tier_matches_scalar_oracle() {
        // Empty, a single cell, one word short of / exactly / one past a
        // block and a 16-block group, a truncated tail, and the
        // benchmark's 5 × 2048 cells; then every length to two whole
        // 16-block groups, so every residue of a short last group goes
        // through the AVX-512 body's stack copy. Both signs, onto
        // non-zero cells.
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
        let stream: Vec<u32> = (0..640u32)
            .flat_map(|b| chacha20_block(&key, b, &[0; 3]))
            .collect();
        let cells: Vec<u32> = (0..10_240u32)
            .map(|i| i.wrapping_mul(0x85EB_CA6B))
            .collect();
        for &(name, tier) in &tiers {
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
