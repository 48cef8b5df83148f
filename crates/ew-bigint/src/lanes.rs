//! Lane-interleaved Montgomery arithmetic: many bases, one exponent,
//! one modulus — the engine behind [`MontgomeryCtx::modpow_many`].
//!
//! Diffie–Hellman enrolment raises every public key on the bulletin
//! board to the *same* secret exponent, and the OPRF server raises a
//! whole batch of blinded elements to the same CRT exponents. The
//! scalar engine in [`crate::montgomery`] already runs one such
//! exponentiation at about 1.3 cycles per 64-bit word multiply; what is
//! left is the vector unit, used the way `ew-crypto` uses it for
//! SHA-256: independent problems side by side in lanes.
//!
//! ## Layout
//!
//! A value is held in radix 2⁵² — `nl = ⌈(bits + 2) / 52⌉` limbs, each
//! in a `u64` (40 at 2 048 bits, 20 at 1 024) — and [`LANES`] values
//! are stored **limb-major**: row `j` of a buffer is one 64-byte-aligned
//! [`LaneRow`] holding limb `j` of every lane. One step of the word loop
//! is then the same instruction on whole rows — AVX-512 IFMA's
//! `vpmadd52luq` / `vpmadd52huq` (the low and high 52 bits of a
//! 52 × 52-bit product, added to a 64-bit accumulator) over three
//! 512-bit vectors — with no shuffles and no cross-lane traffic. The
//! exponent is shared, so the window schedule ([`WindowOp`], recoded
//! once per batch by the scalar engine's own recoder) and every table
//! look-up are the same for all lanes. This is the layout and the
//! almost-Montgomery step of Gueron & Krasnov, "Accelerating Big
//! Integer Arithmetic Using Intel IFMA Extensions" (ARITH 2016), with
//! the 24 lanes holding 24 independent problems.
//!
//! ## No conditional subtraction: `R = 2^(52·nl) > 4n`
//!
//! The two spare bits make `R > 4n`. For operands `a, b < 2n` one
//! Montgomery step returns `(a·b + m·n) / R` with `m < R`, which is
//! below `(4n² + R·n) / R = n·(4n/R + 1) < 2n`: values stay below `2n`
//! through the whole ladder without ever being compared with `n`. The
//! last step multiplies by the plain integer 1, which gives
//! `(a + m·n) / R < 2n/R + n`, i.e. at most `n`; each lane is made
//! canonical by one subtraction on its way out.
//!
//! ## Lazy carries and the `nl ≤ 1 023` bound
//!
//! 52-bit limbs in 64-bit slots leave 12 spare bits, so a row step adds
//! the low halves of `a[j]·b_i` and `m·n[j]` and the high halves of
//! `a[j−1]·b_i` and `m·n[j−1]` into its column **without carrying
//! between limbs**; one carry sweep per multiplication normalises the
//! result into 52-bit limbs, which is what the next multiplication's
//! IFMA inputs must be (the instruction reads only the low 52 bits of
//! its factors). A column collects at most `2·nl` operand halves,
//! `2·nl` reduction halves and one carry from the column below, each of
//! them under 2⁵², so it stays under `(4·nl + 1)·2⁵²`, which is below
//! 2⁶⁴ exactly when `nl ≤ 1 023` ([`MAX_LANE_LIMBS`], moduli up to
//! 53 194 bits — every width the protocol has, 4 096-bit moduli
//! included). The vector adds wrap silently, so the tests that run the
//! saturated modulus at the widest admitted width are the check of
//! that bound.
//!
//! ## Tiers and gates
//!
//! The kernel is written with `core::arch` IFMA intrinsics inside
//! `#[target_feature(enable = "avx512f,avx512ifma")]` fns, as safe
//! Rust: [`kernel`] hands it out when `is_x86_feature_detected!` finds
//! both features, and [`lane_tier`] reports the pick. The only `unsafe`
//! in this crate is the call from `pow_rows` into that kernel, directly
//! under the detection that justifies it.
//!
//! There is one tier. Without IFMA — CPUs without AVX-512, and AVX-512
//! CPUs without IFMA (Skylake-SP, Cascade Lake) — **`modpow_many` is the
//! scalar loop**. On the latter that is a cost: the radix-2²⁸
//! `vpmuludq` body this kernel replaced ran there at 0.40–0.47 × of the
//! scalar loop's time per base, which they no longer get. Four
//! 32 × 32-bit lanes under AVX2 measured 0.9–1.2 × (the scalar loop has
//! a native 64 × 64 → 128 `mul`), so AVX2 never had a tier. Per base, a
//! full IFMA pass is 0.06–0.14 × of the scalar loop. Two more gates,
//! both constants, send work back to the scalar loop: moduli over
//! [`MAX_LANE_LIMBS`] limbs (the bound above), and a chunk of fewer
//! than [`MIN_LANE_BATCH`] bases (a pass costs the same whether its
//! lanes are full or idle). There is no gate for narrow moduli.
//!
//! ## Loads, stores and the footprint
//!
//! Rows are read with `_mm512_set_epi64` over one eight-lane third and
//! written back with `_mm512_extracti64x4_epi64` and
//! `_mm256_extract_epi64`. Both are safe calls (no raw pointer), and
//! `--emit asm` shows each compiles to a single `vmovdqa64` load or
//! store. In the row loop `vpmadd52luq` / `vpmadd52huq` take the operand
//! row straight from memory, and each modulus limb is broadcast once
//! (`vpbroadcastq` from memory) for all three vectors. The 64-byte
//! alignment of [`LaneRow`] keeps every 512-bit access inside one cache
//! line.
//!
//! A step accumulates in an `nl`-row window that slides down one limb
//! per step, and leaves its swept result *in that window*; the ladder
//! then trades window and accumulator. The two buffers — 15 KB at
//! 2 048 bits — stay in L1 beside the table entry streaming through,
//! and the whole arena is 20·nl rows (154 KB at 2 048 bits).
//!
//! Squares are `mont_mul(a, a)`. The doubled-triangle square of the
//! radix-2²⁸ body does not carry over (`2·a[i]` no longer fits the
//! 52-bit multiplier input), and a product-then-reduce square — each
//! cross product once, columns doubled, then `nl` reduction steps: ¾ of
//! the multiplies — measured no faster than `mont_mul(a, a)` (a 2 048-bit
//! pass 1.45–2.35 ms against 1.38–2.06 ms with a 256-bit exponent):
//! its rows do two multiplies per load and store where `mont_mul`'s do
//! four.
//!
//! [`MontgomeryCtx::modpow_many`]: crate::MontgomeryCtx::modpow_many

use crate::montgomery::WindowOp;
use crate::ubig::UBig;

/// Bases per pass: three 512-bit vectors per limb row. Eight lanes
/// (one vector) left the row step dominated by its loop overhead;
/// twenty-four amortise it and happen to be the paper's enrolment
/// batch in the benchmark.
pub(crate) const LANES: usize = 24;

/// Bits per lane limb: the width of an IFMA multiplier input.
const LIMB_BITS: usize = 52;

/// Mask of one lane limb.
const LIMB_MASK: u64 = (1 << LIMB_BITS) - 1;

/// Widest modulus, in lane limbs, whose lazy column sums fit 64 bits
/// (see the module docs).
pub(crate) const MAX_LANE_LIMBS: usize = 1023;

/// Fewest bases worth a pass. A pass costs the same with 1 or 24 live
/// lanes: measured at 2.3–3.3 scalar exponentiations from 1 024 to
/// 4 096 bits (1.5–2.4 from 64 to 512), so from 5 bases on it wins at
/// every width with room for a bad day, and below that the chunk takes
/// the scalar loop. The ratio does not depend on the exponent's length
/// (2.6–3.1 at a 2 048-bit modulus with a 256-bit exponent, 2.6 with a
/// 2 046-bit one). The 8-element remainder of a 32-element OPRF batch
/// is a pass of its own.
pub(crate) const MIN_LANE_BATCH: usize = 5;

/// Rows of lane scratch per lane limb: window, accumulator, staging,
/// the batch's bases / results, and the 16-entry odd-power table.
const SCRATCH_ROWS_PER_LIMB: usize = 4 + 16;

/// Limb `j` of every lane, as three eight-lane thirds, aligned so each
/// third is one cache line (and one 512-bit vector).
#[repr(align(64))]
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneRow([[u64; 8]; LANES / 8]);

impl LaneRow {
    const ZERO: LaneRow = LaneRow::splat(0);

    /// The same limb in every lane.
    const fn splat(limb: u64) -> Self {
        LaneRow([[limb; 8]; LANES / 8])
    }

    /// Limb of lane `lane`.
    fn lane(&self, lane: usize) -> u64 {
        self.0[lane / 8][lane % 8]
    }

    /// Sets the limb of lane `lane`.
    fn set_lane(&mut self, lane: usize, limb: u64) {
        self.0[lane / 8][lane % 8] = limb;
    }
}

/// What the lane engine precomputes per modulus, held beside the
/// 64-bit constants in [`crate::MontgomeryCtx`]. Off x86-64 nothing runs
/// the kernel that reads the reduction constants.
#[derive(Clone, Debug)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct LaneModulus {
    /// The modulus in 52-bit limbs.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁵²`.
    n0inv: u64,
    /// `R² mod n` for `R = 2^(52·nl)`, in 52-bit limbs.
    r2: Vec<u64>,
}

impl LaneModulus {
    /// Constants for the odd modulus `n`, or `None` when it is too wide
    /// for the lazy accumulators. One remainder.
    pub(crate) fn new(n: &UBig) -> Option<Self> {
        let nl = (n.bit_len() + 2).div_ceil(LIMB_BITS);
        if nl > MAX_LANE_LIMBS {
            return None;
        }
        let split = |v: &UBig| (0..nl).map(|j| limb(&v.limbs, j)).collect::<Vec<u64>>();
        let n_limbs = split(n);
        // Newton–Hensel: 3 correct bits double per step, 5 steps > 52.
        let mut inv = n_limbs[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n_limbs[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n_limbs[0].wrapping_mul(inv) & LIMB_MASK, 1);
        let r2 = (&UBig::one() << (2 * LIMB_BITS * nl)).rem_ref(n);
        Some(LaneModulus {
            n0inv: inv.wrapping_neg() & LIMB_MASK,
            r2: split(&r2),
            n: n_limbs,
        })
    }

    /// Lane limbs per value.
    pub(crate) fn limbs(&self) -> usize {
        self.n.len()
    }

    /// Rows of [`LaneRow`] scratch [`pow_rows`] needs for this modulus.
    pub(crate) fn scratch_rows(&self) -> usize {
        SCRATCH_ROWS_PER_LIMB * self.limbs()
    }
}

/// Grows `rows` to cover `md` (never shrinks — the arena rule).
pub(crate) fn ensure_rows(rows: &mut Vec<LaneRow>, md: &LaneModulus) {
    if rows.len() < md.scratch_rows() {
        rows.resize(md.scratch_rows(), LaneRow::ZERO);
    }
}

/// The `j`-th 52-bit limb of a little-endian 64-bit limb string.
fn limb(limbs: &[u64], j: usize) -> u64 {
    let (word, off) = (j * LIMB_BITS / 64, j * LIMB_BITS % 64);
    let lo = limbs.get(word).map_or(0, |&w| w >> off);
    let hi = if off > 64 - LIMB_BITS {
        limbs.get(word + 1).map_or(0, |&w| w << (64 - off))
    } else {
        0
    };
    (lo | hi) & LIMB_MASK
}

/// Writes `v` (below `R`) into lane `lane` of the batch's base rows. An
/// idle lane is loaded with zero: it computes `0^exp` and is never read.
pub(crate) fn load_lane(md: &LaneModulus, rows: &mut [LaneRow], lane: usize, v: &UBig) {
    for (j, row) in rows[..md.limbs()].iter_mut().enumerate() {
        row.set_lane(lane, limb(&v.limbs, j));
    }
}

/// Packs lane `lane` of the result rows into `out` (64-bit limbs, as
/// wide as the modulus). The value is at most `n`, so it fits.
pub(crate) fn store_lane(md: &LaneModulus, rows: &[LaneRow], lane: usize, out: &mut [u64]) {
    out.fill(0);
    for (j, row) in rows[..md.limbs()].iter().enumerate() {
        let v = row.lane(lane);
        let (word, off) = (j * LIMB_BITS / 64, j * LIMB_BITS % 64);
        if word < out.len() {
            out[word] |= v << off;
        }
        if off > 64 - LIMB_BITS && word + 1 < out.len() {
            out[word + 1] |= v >> (64 - off);
        }
    }
}

/// Which engine
/// [`MontgomeryCtx::modpow_many`](crate::MontgomeryCtx::modpow_many)
/// runs on this CPU, as `"<isa>/<lanes>"`: `"ifma/24"`, or `"scalar/1"`
/// when the batch entry point is the scalar loop (every CPU without
/// AVX-512 F + IFMA — see the module docs of `lanes.rs` for why no
/// other ISA has a tier). A read-only report for benchmark headers — it
/// cannot be set.
pub fn lane_tier() -> &'static str {
    if accelerated() {
        "ifma/24"
    } else {
        "scalar/1"
    }
}

/// Whether this CPU runs the lane kernel.
pub(crate) fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A lane kernel: runs the window schedule `ops` over the bases in
/// `rows[..nl]` (each below `2n`, 52-bit limbs), leaving each lane's
/// result (at most `n`) in the same rows. `rows` provides
/// [`LaneModulus::scratch_rows`].
pub(crate) type LaneKernel = fn(&LaneModulus, &[WindowOp], &mut [LaneRow]);

/// The lane kernel, on a CPU that runs it; `None` means the batch is the
/// scalar loop.
pub(crate) fn kernel() -> Option<LaneKernel> {
    #[cfg(target_arch = "x86_64")]
    if accelerated() {
        return Some(pow_rows);
    }
    None
}

/// The dispatch into the IFMA kernel.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn pow_rows(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
        // SAFETY: avx512f and avx512ifma were detected on this CPU on the line above.
        return unsafe { ifma::pow_rows(md, ops, rows) };
    }
    unreachable!("`kernel()` hands the lane kernel out only on an AVX-512 IFMA CPU")
}

/// The radix-2⁵² kernel: every fn takes the IFMA target features, so
/// the intrinsics are safe calls and the helpers inline into its
/// `pow_rows`.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{LaneModulus, LaneRow, WindowOp, LIMB_BITS, LIMB_MASK};
    use std::arch::x86_64::*;

    /// One limb row in registers.
    type Row = [__m512i; 3];

    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn load(row: &LaneRow) -> Row {
        let third = |r: &[u64; 8]| {
            let r = r.map(|limb| limb as i64);
            _mm512_set_epi64(r[7], r[6], r[5], r[4], r[3], r[2], r[1], r[0])
        };
        [third(&row.0[0]), third(&row.0[1]), third(&row.0[2])]
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn store(row: &mut LaneRow, v: Row) {
        for (r, v) in row.0.iter_mut().zip(v) {
            let (lo, hi) = (
                _mm512_extracti64x4_epi64::<0>(v),
                _mm512_extracti64x4_epi64::<1>(v),
            );
            *r = [
                _mm256_extract_epi64::<0>(lo) as u64,
                _mm256_extract_epi64::<1>(lo) as u64,
                _mm256_extract_epi64::<2>(lo) as u64,
                _mm256_extract_epi64::<3>(lo) as u64,
                _mm256_extract_epi64::<0>(hi) as u64,
                _mm256_extract_epi64::<1>(hi) as u64,
                _mm256_extract_epi64::<2>(hi) as u64,
                _mm256_extract_epi64::<3>(hi) as u64,
            ];
        }
    }

    /// Sliding-window exponentiation of every lane by the shared
    /// schedule — the same steps, in the same order, as the scalar
    /// `pow_sliding`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow_rows(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {
        let nl = md.limbs();
        let (io, rest) = rows[..md.scratch_rows()].split_at_mut(nl);
        let (mut w, rest) = rest.split_at_mut(nl);
        let (mut acc, rest) = rest.split_at_mut(nl);
        let (tmp, table) = rest.split_at_mut(nl);

        // Into Montgomery form: table[0] = base · R² / R.
        for (row, &limb) in tmp.iter_mut().zip(&md.r2) {
            *row = LaneRow::splat(limb);
        }
        mont_mul(md, io, tmp, w);
        table[..nl].copy_from_slice(w);
        // tmp = base², the stride between consecutive odd powers.
        mont_mul(md, &table[..nl], &table[..nl], w);
        tmp.copy_from_slice(w);
        for i in 1..16 {
            mont_mul(md, &table[(i - 1) * nl..i * nl], tmp, w);
            table[i * nl..(i + 1) * nl].copy_from_slice(w);
        }

        let power = |digit: u8| {
            let d = (digit as usize - 1) / 2;
            d * nl..(d + 1) * nl
        };
        // The first window's digit seeds the accumulator directly. From
        // here on a step leaves its result in the window and the two
        // buffers trade places: the ladder lives in 2·nl rows.
        acc.copy_from_slice(&table[power(ops[0].digit)]);
        for op in &ops[1..] {
            for _ in 0..op.squares {
                mont_mul(md, acc, acc, w);
                std::mem::swap(&mut acc, &mut w);
            }
            if op.digit != 0 {
                mont_mul(md, acc, &table[power(op.digit)], w);
                std::mem::swap(&mut acc, &mut w);
            }
        }

        // Out of Montgomery form: one step against the plain integer 1.
        tmp.fill(LaneRow::ZERO);
        tmp[0] = LaneRow::splat(1);
        mont_mul(md, acc, tmp, w);
        io.copy_from_slice(w);
    }

    /// `w = a·b·R⁻¹` in every lane (operands and result below `2n`,
    /// 52-bit limbs). `w` is the `nl`-row column window: after step `i`
    /// it holds columns `i+1 ..= i+nl` of `a·b + m·n`, and after the
    /// last step, swept, the result.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn mont_mul(md: &LaneModulus, a: &[LaneRow], b: &[LaneRow], w: &mut [LaneRow]) {
        let (n, nl) = (&md.n[..], md.limbs());
        let (a, w) = (&a[..nl], &mut w[..nl]);
        let zero = _mm512_setzero_si512();
        let n0inv = _mm512_set1_epi64(md.n0inv as i64);
        w.fill(LaneRow::ZERO);
        for bi in &b[..nl] {
            let bi = load(bi);
            // The head: column i is finished but for a[0]·b_i and
            // m·n[0]; m clears its low 52 bits, the rest carries up.
            let (a0, w0, n0) = (load(&a[0]), load(&w[0]), _mm512_set1_epi64(n[0] as i64));
            let (mut m, mut carry) = ([zero; 3], [zero; 3]);
            for k in 0..3 {
                let t = _mm512_madd52lo_epu64(w0[k], a0[k], bi[k]);
                m[k] = _mm512_madd52lo_epu64(zero, t, n0inv);
                carry[k] =
                    _mm512_srli_epi64::<{ LIMB_BITS as u32 }>(_mm512_madd52lo_epu64(t, m[k], n0));
            }
            // w[j-1] = w[j] + lo(a[j]·b_i + m·n[j]) + hi(a[j-1]·b_i + m·n[j-1]):
            // the fused row step, sliding the window down one limb.
            for j in 1..nl {
                let (lo, hi) = w.split_at_mut(j);
                let (src, aj, ap) = (load(&hi[0]), load(&a[j]), load(&a[j - 1]));
                let (nj, np) = (
                    _mm512_set1_epi64(n[j] as i64),
                    _mm512_set1_epi64(n[j - 1] as i64),
                );
                let mut row = src;
                for k in 0..3 {
                    let mut v = _mm512_madd52lo_epu64(src[k], aj[k], bi[k]);
                    v = _mm512_madd52lo_epu64(v, m[k], nj);
                    v = _mm512_madd52hi_epu64(v, ap[k], bi[k]);
                    row[k] = _mm512_madd52hi_epu64(v, m[k], np);
                }
                if j == 1 {
                    for k in 0..3 {
                        row[k] = _mm512_add_epi64(row[k], carry[k]);
                    }
                }
                store(&mut lo[j - 1], row);
            }
            // The top row is new: only the high halves of the top limbs.
            let (ap, np) = (load(&a[nl - 1]), _mm512_set1_epi64(n[nl - 1] as i64));
            let mut top = if nl == 1 { carry } else { [zero; 3] };
            for k in 0..3 {
                let v = _mm512_madd52hi_epu64(top[k], ap[k], bi[k]);
                top[k] = _mm512_madd52hi_epu64(v, m[k], np);
            }
            store(&mut w[nl - 1], top);
        }
        sweep(w);
    }

    /// The one carry sweep of a multiplication: normalises the window,
    /// in place, into 52-bit limbs. The value is below `2n < R/2`, so
    /// nothing carries out.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn sweep(w: &mut [LaneRow]) {
        let mask = _mm512_set1_epi64(LIMB_MASK as i64);
        let mut carry = [_mm512_setzero_si512(); 3];
        for row in w {
            let mut v = load(row);
            for k in 0..3 {
                let sum = _mm512_add_epi64(v[k], carry[k]);
                v[k] = _mm512_and_si512(sum, mask);
                carry[k] = _mm512_srli_epi64::<{ LIMB_BITS as u32 }>(sum);
            }
            store(row, v);
        }
        debug_assert!(
            carry.iter().all(|&c| _mm512_test_epi64_mask(c, c) == 0),
            "product below 2n fits nl limbs"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_split_and_pack_round_trip() {
        let v = UBig::from_hex("f123456789abcdef0fedcba987654321aa55aa55deadbeef").unwrap();
        let n = (&UBig::one() << 200).add_ref(&UBig::one());
        let md = LaneModulus::new(&n).unwrap();
        assert_eq!(md.limbs(), (201 + 2usize).div_ceil(52));
        let mut rows = vec![LaneRow::ZERO; md.limbs()];
        load_lane(&md, &mut rows, 5, &v);
        assert!(rows
            .iter()
            .all(|r| r.lane(5) <= LIMB_MASK && r.lane(4) == 0));
        let mut out = vec![0u64; 4];
        store_lane(&md, &rows, 5, &mut out);
        assert_eq!(out[..3], v.limbs[..]);
        assert_eq!(out[3], 0);
        load_lane(&md, &mut rows, 5, &UBig::zero());
        assert!(rows.iter().all(|r| r.0 == LaneRow::ZERO.0));
    }

    #[test]
    fn width_gate_is_the_accumulator_bound() {
        // (4·nl + 1) terms under 2⁵² each stay below 2⁶⁴ at 1 023 limbs
        // and not at 1 024.
        let column = |nl: u128| (4 * nl + 1) * ((1 << LIMB_BITS) - 1);
        assert!(column(MAX_LANE_LIMBS as u128) < 1 << 64);
        assert!(column(MAX_LANE_LIMBS as u128 + 1) >= 1 << 64);
        let odd_bits = |bits: usize| (&UBig::one() << (bits - 1)).add_ref(&UBig::one());
        assert_eq!(LaneModulus::new(&odd_bits(4096)).unwrap().limbs(), 79);
        assert_eq!(LaneModulus::new(&odd_bits(53_194)).unwrap().limbs(), 1023);
        assert!(LaneModulus::new(&odd_bits(53_195)).is_none());
    }

    #[test]
    fn saturated_limbs_fit_the_accumulators() {
        // The worst case of the column bound: the modulus
        // 2^(52·nl − 2) − 1 (every limb 2⁵² − 1, the top one as full as
        // R > 4n allows) and the operand 2n − 1 in every lane. A pass's
        // first step multiplies the loaded bases by `r2`; with `r2` set
        // to 2n − 1 as well, that step is the saturated product, and a
        // one-window schedule (the exponent 1) then only builds the
        // table and leaves the form, so the pass returns a·b·R⁻², which
        // is checked against the definition, `out·R² ≡ a·b (mod n)`.
        // An overflowed column would wrap and miss it. The widest case
        // takes a minute in the debug profile, where every intrinsic is
        // a call; the release run covers it.
        println!("lane tier exercised: {}", lane_tier());
        let Some(kernel) = kernel() else {
            return;
        };
        let ops = [WindowOp {
            squares: 0,
            digit: 1,
        }];
        let widest = (!cfg!(debug_assertions)).then_some(MAX_LANE_LIMBS);
        for nl in [1usize, 2, 20, 40, 60, 80].into_iter().chain(widest) {
            let bits = LIMB_BITS * nl - 2;
            let n = (&UBig::one() << bits).sub_ref(&UBig::one());
            let mut md = LaneModulus::new(&n).unwrap();
            assert_eq!(md.limbs(), nl);
            assert!(md.n[..nl - 1].iter().all(|&limb| limb == LIMB_MASK));
            let a_val = n.add_ref(&n).sub_ref(&UBig::one());
            md.r2 = (0..nl).map(|j| limb(&a_val.limbs, j)).collect();
            let mut rows = Vec::new();
            ensure_rows(&mut rows, &md);
            for lane in 0..LANES {
                load_lane(&md, &mut rows, lane, &a_val);
            }
            kernel(&md, &ops, &mut rows);
            let want = a_val.mul_ref(&a_val).rem_ref(&n);
            let mut packed = vec![0u64; (LIMB_BITS * nl).div_ceil(64)];
            for lane in [0, 7, 8, LANES - 1] {
                store_lane(&md, &rows, lane, &mut packed);
                let mut out = UBig {
                    limbs: packed.clone(),
                };
                out.normalize();
                assert!(out <= n, "nl={nl}: the pass leaves at most n");
                assert_eq!(
                    out.shl_bits(2 * LIMB_BITS * nl).rem_ref(&n),
                    want,
                    "nl={nl}"
                );
            }
        }
    }

    #[test]
    fn lane_tier_names_the_dispatch() {
        assert_eq!(lane_tier() == "ifma/24", accelerated());
        assert_eq!(kernel().is_some(), accelerated());
        assert!(["ifma/24", "scalar/1"].contains(&lane_tier()));
    }
}
