//! CRC-32 (IEEE 802.3 / zlib polynomial, reflected). Guards every frame
//! payload against in-flight corruption.
//!
//! ## Tiers
//!
//! * **`clmul/64`** — on x86-64 with `pclmulqdq` and `sse4.1`, inputs of
//!   64 bytes or more are folded 64 bytes per step by carry-less
//!   multiplication (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction", Intel 2009; the constants
//!   are those of Linux's `crc32-pclmul_asm.S`): four 128-bit
//!   accumulators folded in parallel, folded into one, reduced to 64 and
//!   then 32 bits, and Barrett-reduced. The last < 16 bytes go through
//!   the tables below.
//! * **`sliced/16`** — everywhere else, and for short inputs: a table
//!   walk sixteen bytes per step (slicing: Kounavis & Berry, Intel 2005).
//!
//! [`crc32`] picks a tier per call with `is_x86_feature_detected!`, and
//! [`crc32_tier`] reports the pick; the `every_host_tier` test prints it
//! (`cargo test --release -p ew-proto every_host_tier -- --nocapture`).
//! There is no build flag, feature or environment switch. Every tier
//! computes the same function, so a checksum never depends on the CPU
//! that took it: per-tier differential tests pin both against the
//! byte-at-a-time loop.

/// The reflected polynomial 0xEDB88320.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded into the checksum per step of the table walk.
const SLICE: usize = 16;

/// `TABLES[k][b]` is the checksum contribution of byte `b` followed by
/// `k` zero bytes; `TABLES[0]` is the classic byte-at-a-time table.
/// Const-evaluated at compile time.
const TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte into the running (pre-inverted) checksum.
fn step_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::detected() {
        // SAFETY: pclmulqdq and sse4.1 were detected on this CPU on the line above.
        #[allow(unsafe_code)]
        let crc = unsafe { clmul::crc32(data) };
        return crc;
    }
    !update_sliced(!0, data)
}

/// Folds `data` into the running (pre-inverted) checksum sixteen bytes
/// per step, then byte by byte.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut slices = data.chunks_exact(SLICE);
    for slice in &mut slices {
        let slice: &[u8; SLICE] = slice.try_into().expect("exact chunk");
        // The running checksum only touches the first four bytes; after
        // that all sixteen lookups are independent of one another.
        let head = u32::from_le_bytes([slice[0], slice[1], slice[2], slice[3]]) ^ crc;
        let mut folded = 0u32;
        for (i, &byte) in head.to_le_bytes().iter().chain(&slice[4..]).enumerate() {
            folded ^= TABLES[SLICE - 1 - i][byte as usize];
        }
        crc = folded;
    }
    for &byte in slices.remainder() {
        crc = step_byte(crc, byte);
    }
    crc
}

/// The `clmul/64` tier: folding by carry-less multiplication.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::update_sliced;
    use std::arch::x86_64::*;

    /// Bytes folded per step, and the shortest input the kernel takes.
    pub(super) const MIN_LEN: usize = 64;

    /// Folding constants `x^k mod P(x)`, bit-reflected: (R1, R2) move an
    /// accumulator 64 bytes forward, (R3, R4) 16 bytes, R5 folds 64 → 32
    /// bits.
    const R1: i64 = 0x1_5444_2bd4;
    const R2: i64 = 0x1_c6e4_1596;
    const R3: i64 = 0x1_7519_97d0;
    const R4: i64 = 0x0_ccaa_009e;
    const R5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial P′ (reflected, with its x³² term)
    /// and μ = ⌊x⁶⁴ / P(x)⌋, reflected.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The CRC-32 of `data` (at least [`MIN_LEN`] bytes): every whole
    /// 16-byte block folded by carry-less multiplication, the rest through
    /// the tables. Call it only once [`detected`] holds: on a CPU without
    /// the features its instructions are undefined behaviour.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(data: &[u8]) -> u32 {
        let (blocks, tail) = data.split_at(data.len() / 16 * 16);
        let mut chunks = blocks.chunks_exact(MIN_LEN);
        let first = chunks.next().expect("at least one 64-byte chunk");
        let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&first[16 * i..16 * i + 16]));
        // The initial (all-ones) checksum enters through the first word.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!0));

        // Four independent accumulators, each folded 64 bytes forward.
        let k1k2 = _mm_set_epi64x(R2, R1);
        for chunk in &mut chunks {
            for (lane, block) in lanes.iter_mut().zip(chunk.chunks_exact(16)) {
                *lane = fold(*lane, k1k2, load(block));
            }
        }

        // Into one accumulator, then any 16-byte blocks left over.
        let k3k4 = _mm_set_epi64x(R4, R3);
        let mut acc = fold(lanes[0], k3k4, lanes[1]);
        acc = fold(acc, k3k4, lanes[2]);
        acc = fold(acc, k3k4, lanes[3]);
        for block in chunks.remainder().chunks_exact(16) {
            acc = fold(acc, k3k4, load(block));
        }

        // 128 → 64 bits (the low half times R4), then 64 → 32 (the low
        // word times R5).
        let acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, R5)),
        );

        // Barrett: T1 = low32(acc) · μ, T2 = low32(T1) · P′; the checksum
        // is the second word of acc ⊕ T2.
        let poly_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        !update_sliced(crc, tail)
    }

    /// `acc` folded forward by `keys` (low half × low key, high half ×
    /// high key), plus the next block.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn fold(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// Sixteen bytes, little-endian, as one 128-bit lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let word = |half: &[u8]| u64::from_le_bytes(half.try_into().expect("8 bytes")) as i64;
        _mm_set_epi64x(word(hi), word(lo))
    }
}

/// Which tier [`crc32`] runs on this CPU for inputs of 64 bytes or more:
/// `"clmul/64"` or `"sliced/16"`. A read-only report for telemetry — it
/// cannot be set; the tier tests check the dispatch against it.
pub fn crc32_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        return "clmul/64";
    }
    "sliced/16"
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for the folding kernel (zlib's values): one 64-byte
        // fold plus a tail, and many folds plus 16-byte blocks.
        assert_eq!(crc32(&b"123456789".repeat(8)), 0x8811_A440);
        assert_eq!(crc32(&b"123456789".repeat(128)), 0x03BC_50AC);
    }

    /// The byte-at-a-time loop every tier must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFF, |crc, &b| step_byte(crc, b))
    }

    /// The table walk alone.
    fn crc32_sliced(data: &[u8]) -> u32 {
        !update_sliced(!0, data)
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buffer = noise(41_017 + 16);
        for start in 0..16 {
            // The bytewise checksum of each prefix, one byte at a time.
            let mut running = 0xFFFF_FFFF;
            for len in 0..=1_024 {
                let data = &buffer[start..start + len];
                let want = !running;
                assert_eq!(crc32_sliced(data), want, "sliced start={start} len={len}");
                assert_eq!(crc32(data), want, "dispatch start={start} len={len}");
                running = step_byte(running, buffer[start + len]);
            }
            // One report frame's payload at each of the two report sizes
            // (5 x 1 024 and 5 x 2 048 cells, enveloped).
            for len in [20_537, 41_017] {
                let frame = &buffer[start..start + len];
                let want = crc32_bytewise(frame);
                assert_eq!(crc32_sliced(frame), want, "sliced start={start} len={len}");
                assert_eq!(crc32(frame), want, "dispatch start={start} len={len}");
            }
        }
    }

    type TierFn = fn(&[u8]) -> u32;

    /// Every tier this host can run, called directly rather than through
    /// the dispatch.
    #[allow(unsafe_code)]
    fn host_tiers() -> Vec<(&'static str, TierFn)> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut tiers: Vec<(&'static str, TierFn)> = vec![("sliced/16", crc32_sliced)];
        #[cfg(target_arch = "x86_64")]
        if clmul::detected() {
            // SAFETY: only pushed (so only callable) once pclmulqdq and
            // sse4.1 were detected above; shorter inputs than the kernel
            // takes go to the tables, as in the dispatch.
            tiers.push(("clmul/64", |data| {
                if data.len() >= clmul::MIN_LEN {
                    unsafe { clmul::crc32(data) }
                } else {
                    crc32_sliced(data)
                }
            }));
        }
        tiers
    }

    #[test]
    fn every_host_tier() {
        let tiers = host_tiers();
        let names: Vec<&str> = tiers.iter().map(|t| t.0).collect();
        println!(
            "crc32 tiers exercised: {names:?}; dispatch picks {}",
            crc32_tier()
        );
        assert_eq!(
            crc32_tier(),
            *names.last().unwrap(),
            "dispatch runs the widest tier"
        );
        let buffer = noise(41_017);
        for &(name, tier) in &tiers {
            assert_eq!(tier(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(tier(&b"123456789".repeat(8)), 0x8811_A440, "{name}");
            for len in [64, 79, 80, 127, 128, 129, 1_000, 20_537, 41_017] {
                let data = &buffer[..len];
                assert_eq!(tier(data), crc32_bytewise(data), "{name} len={len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"eyewnder report payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit}");
            }
        }
    }

    proptest! {
        #[test]
        fn dispatch_equals_sliced_on_any_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..64 * 1024),
        ) {
            prop_assert_eq!(crc32(&data), crc32_sliced(&data));
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }
}
