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
//! A value is held in radix 2²⁸ — `nl = ⌈(bits + 2) / 28⌉` limbs, each
//! in a `u64` — and [`LANES`] values are stored **limb-major**: row `j`
//! of a buffer is one 64-byte-aligned [`LaneRow`] holding limb `j` of
//! every lane. One step of the word loop is then the same instruction
//! on whole rows (`vpmuludq`, `vpaddq` over three 512-bit vectors), with
//! no shuffles and no cross-lane traffic. The exponent is shared, so
//! the window schedule ([`WindowOp`], recoded once per batch by the
//! scalar engine's own recoder) and every table look-up are the same
//! for all lanes.
//!
//! ## No conditional subtraction: `R = 2^(28·nl) > 4n`
//!
//! The two spare bits make `R > 4n`. For operands `a, b < 2n` one
//! Montgomery step returns `(a·b + m·n) / R` with `m < R`, which is
//! below `(4n² + R·n) / R = n·(4n/R + 1) < 2n`: values stay below `2n`
//! through the whole ladder without ever being compared with `n`. The
//! last step multiplies by the plain integer 1, which gives
//! `(a + m·n) / R < 2n/R + n`, i.e. at most `n`; each lane is made
//! canonical by one subtraction on its way out.
//!
//! ## Lazy carries and the `nl ≤ 127` bound
//!
//! 28-bit limbs in 64-bit slots leave 8 spare bits per product, so a
//! row step adds `a[j]·b_i + m·n[j]` into its column **without carrying
//! between limbs**; one carry sweep per multiplication normalises the
//! result. A column collects at most `nl` operand products, `nl`
//! reduction products and one carry from the column below, each of
//! them under 2⁵⁶, so it stays under `(2·nl + 1)·2⁵⁶`, which is at most
//! 2⁶⁴ exactly when `nl ≤ 127` ([`MAX_LANE_LIMBS`], moduli up to 3 554
//! bits). Debug builds keep overflow checks on, so the test suite
//! running the worst-case all-ones vector is the check of that bound.
//!
//! ## Tiers and gates
//!
//! The body is safe Rust without intrinsics, `#[inline(always)]` into
//! a `#[target_feature(enable = "avx512f,avx512vl")]` wrapper and a
//! plain one, picked per call from `is_x86_feature_detected!`;
//! [`lane_tier`] reports the pick. The only `unsafe` in this crate is
//! that one call into the wrapper whose features were just detected.
//!
//! Only AVX-512 wins: four lanes of 32 × 32 → 64 under AVX2 measured
//! 0.9–1.2 × the scalar loop's time (which has a native 64 × 64 → 128
//! `mul`), so **without AVX-512 `modpow_many` is the scalar loop** and
//! the plain instantiation exists for the tests (and to keep the body
//! compiling off x86-64). Two more gates, both constants, send work
//! back to the scalar loop: moduli over [`MAX_LANE_LIMBS`] limbs (the
//! bound above), and a chunk of fewer than [`MIN_LANE_BATCH`] bases (a
//! pass costs the same whether its lanes are full or idle). There is
//! no gate for narrow moduli: per base, a full pass measured 0.14 × of
//! the scalar loop at 64 bits (3 limbs), 0.28 × at 256, 0.39 × at 512
//! and 0.40–0.47 × from 1 024 to 3 072.
//!
//! ## Keeping the lane loop the vectorised one
//!
//! Every loop nest here is "for each limb row, for each lane". The lane
//! loop has a constant trip count of 24; when LLVM's early full-unroll
//! pass flattens it (it does for the smaller bodies), the loop
//! vectoriser is left looking at the *limb* loop and vectorises that
//! with stride-24 gathers and scatters — measured 2–3 × slower than
//! scalar. [`limb_fence`] closes that door: it emits no instruction,
//! but a loop containing it cannot be vectorised, so the lanes are
//! vectorised either by the loop vectoriser (lane loop intact) or by
//! the SLP pass (lane loop unrolled). With it the row steps compile to
//! the ideal `vpmuludq mem / vpmuludq {bcast} / vpaddq / vpaddq /
//! vmovdqa64` per vector (checked with `--emit asm`). The 64-byte
//! alignment of [`LaneRow`] matters as much: unaligned, every 512-bit
//! access straddles two cache lines and the multiply ran 1.4 × slower.
//!
//! So does the footprint. A step accumulates in an `nl`-row window
//! that slides down one limb per step, and leaves its swept result
//! *in that window*; the ladder then trades window and accumulator.
//! Two buffers — 28 KB at 2 048 bits — stay in a 48 KB L1 beside the
//! table entry streaming through; with a separate output buffer (three
//! in rotation, 43 KB) the same code measured 0.52 × of the scalar loop
//! per base at 2 048 bits instead of 0.40 ×.
//!
//! [`MontgomeryCtx::modpow_many`]: crate::MontgomeryCtx::modpow_many

use crate::montgomery::WindowOp;
use crate::ubig::UBig;

/// Bases per pass: three 512-bit vectors per limb row. Eight lanes
/// (one vector) left the row step dominated by its loop overhead;
/// twenty-four amortise it and happen to be the paper's enrolment
/// batch in the benchmark.
pub(crate) const LANES: usize = 24;

/// Bits per lane limb.
const LIMB_BITS: usize = 28;

/// Mask of one lane limb.
const LIMB_MASK: u64 = (1 << LIMB_BITS) - 1;

/// Widest modulus, in lane limbs, whose lazy column sums fit 64 bits
/// (see the module docs).
pub(crate) const MAX_LANE_LIMBS: usize = 127;

/// Fewest bases worth a pass. A pass costs the same with 1 or 24 live
/// lanes: measured at 9–11 scalar exponentiations from 512 to 3 072
/// bits (3 at 64 bits, 7 at 256), so from 14 bases on it wins at every
/// width with room for a bad day, and below that the chunk takes the
/// scalar loop. The ratio does not depend on the exponent's length: at
/// a 2 048-bit modulus a pass is 9.1–9.3 scalar exponentiations with a
/// 256-bit exponent and 8.9–9.0 with a 2 046-bit one.
pub(crate) const MIN_LANE_BATCH: usize = 14;

/// Rows of lane scratch per lane limb: window, accumulator, staging,
/// the batch's bases / results, and the 16-entry odd-power table.
const SCRATCH_ROWS_PER_LIMB: usize = 4 + 16;

/// Limb `j` of every lane, aligned so each 512-bit third is one cache
/// line.
#[repr(align(64))]
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneRow([u64; LANES]);

impl LaneRow {
    const ZERO: LaneRow = LaneRow([0; LANES]);
}

/// What the lane engine precomputes per modulus, held beside the
/// 64-bit constants in [`crate::MontgomeryCtx`].
#[derive(Clone, Debug)]
pub(crate) struct LaneModulus {
    /// The modulus in 28-bit limbs.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2²⁸`.
    n0inv: u64,
    /// `R² mod n` for `R = 2^(28·nl)`, in 28-bit limbs.
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
        let split = |v: &UBig| (0..nl).map(|j| limb28(&v.limbs, j)).collect::<Vec<u64>>();
        let n_limbs = split(n);
        // Newton–Hensel: 3 correct bits double per step, 5 steps > 28.
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

    /// The constants the row steps use.
    fn reduction(&self) -> Reduction<'_> {
        Reduction {
            n: &self.n,
            n0inv: self.n0inv,
        }
    }

    /// Rows of [`LaneRow`] scratch [`pow_rows`] needs for this modulus.
    pub(crate) fn scratch_rows(&self) -> usize {
        SCRATCH_ROWS_PER_LIMB * self.limbs()
    }
}

/// The modulus as the row steps see it — passed by value, so the limb
/// loops keep it in registers across [`limb_fence`] instead of
/// reloading it through a reference.
#[derive(Clone, Copy)]
struct Reduction<'a> {
    /// The modulus in 28-bit limbs.
    n: &'a [u64],
    /// `-n⁻¹ mod 2²⁸`.
    n0inv: u64,
}

/// Grows `rows` to cover `md` (never shrinks — the arena rule).
pub(crate) fn ensure_rows(rows: &mut Vec<LaneRow>, md: &LaneModulus) {
    if rows.len() < md.scratch_rows() {
        rows.resize(md.scratch_rows(), LaneRow::ZERO);
    }
}

/// The `j`-th 28-bit limb of a little-endian 64-bit limb string.
fn limb28(limbs: &[u64], j: usize) -> u64 {
    let (word, off) = (j * LIMB_BITS / 64, j * LIMB_BITS % 64);
    let lo = limbs.get(word).map_or(0, |&w| w >> off);
    let hi = if off > 64 - LIMB_BITS {
        limbs.get(word + 1).map_or(0, |&w| w << (64 - off))
    } else {
        0
    };
    (lo | hi) & LIMB_MASK
}

/// Writes `v` (reduced) into lane `lane` of the batch's base rows. An
/// idle lane is loaded with zero: it computes `0^exp` and is never read.
pub(crate) fn load_lane(md: &LaneModulus, rows: &mut [LaneRow], lane: usize, v: &UBig) {
    for (j, row) in rows[..md.limbs()].iter_mut().enumerate() {
        row.0[lane] = limb28(&v.limbs, j);
    }
}

/// Packs lane `lane` of the result rows into `out` (64-bit limbs, as
/// wide as the modulus). The value is at most `n`, so it fits.
pub(crate) fn store_lane(md: &LaneModulus, rows: &[LaneRow], lane: usize, out: &mut [u64]) {
    out.fill(0);
    for (j, row) in rows[..md.limbs()].iter().enumerate() {
        let v = row.0[lane];
        let (word, off) = (j * LIMB_BITS / 64, j * LIMB_BITS % 64);
        if word < out.len() {
            out[word] |= v << off;
        }
        if off > 64 - LIMB_BITS && word + 1 < out.len() {
            out[word + 1] |= v >> (64 - off);
        }
    }
}

/// Which instantiation of the lane kernel
/// [`MontgomeryCtx::modpow_many`](crate::MontgomeryCtx::modpow_many)
/// runs on this CPU, as `"<isa>/<lanes>"`: `"avx512/24"`, or
/// `"scalar/1"` when the batch entry point is the scalar loop (every
/// CPU without AVX-512 F+VL — see the module docs of `lanes.rs` for
/// why AVX2 has no tier). A read-only report for benchmark headers — it
/// cannot be set.
pub fn lane_tier() -> &'static str {
    if accelerated() {
        "avx512/24"
    } else {
        "scalar/1"
    }
}

/// Whether this CPU has a lane tier that beats the scalar loop.
pub(crate) fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A lane kernel: runs the window schedule `ops` over the bases in
/// `rows[..nl]`, leaving each lane's result (at most `n`, 28-bit limbs)
/// in the same rows. `rows` provides [`LaneModulus::scratch_rows`].
pub(crate) type LaneKernel = fn(&LaneModulus, &[WindowOp], &mut [LaneRow]);

/// The kernel on the widest instantiation this CPU supports.
#[allow(unsafe_code)]
pub(crate) fn pow_rows(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: avx512f and avx512vl were detected on this CPU on the line above.
            return unsafe { pow_rows_avx512(md, ops, rows) };
        }
    }
    pow_rows_portable(md, ops, rows)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn pow_rows_avx512(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {
    pow_rows_body(md, ops, rows)
}

/// The body without target features — never picked over the scalar
/// loop (it loses to it); the tests run it on every host.
pub(crate) fn pow_rows_portable(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {
    pow_rows_body(md, ops, rows)
}

/// Sliding-window exponentiation of every lane by the shared schedule
/// — the same steps, in the same order, as the scalar `pow_sliding`.
/// `#[inline(always)]`: the body takes the target features of the
/// wrapper it is instantiated in.
#[inline(always)]
fn pow_rows_body(md: &LaneModulus, ops: &[WindowOp], rows: &mut [LaneRow]) {
    let (rd, nl) = (md.reduction(), md.limbs());
    let (io, rest) = rows[..md.scratch_rows()].split_at_mut(nl);
    let (mut w, rest) = rest.split_at_mut(nl);
    let (mut acc, rest) = rest.split_at_mut(nl);
    let (tmp, table) = rest.split_at_mut(nl);

    // Into Montgomery form: table[0] = base · R² / R.
    for (row, &limb) in tmp.iter_mut().zip(&md.r2) {
        *row = LaneRow([limb; LANES]);
    }
    mont_mul(rd, io, tmp, w);
    table[..nl].copy_from_slice(w);
    // tmp = base², the stride between consecutive odd powers.
    mont_sq(rd, &table[..nl], w);
    tmp.copy_from_slice(w);
    for i in 1..16 {
        mont_mul(rd, &table[(i - 1) * nl..i * nl], tmp, w);
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
            mont_sq(rd, acc, w);
            std::mem::swap(&mut acc, &mut w);
        }
        if op.digit != 0 {
            mont_mul(rd, acc, &table[power(op.digit)], w);
            std::mem::swap(&mut acc, &mut w);
        }
    }

    // Out of Montgomery form: one step against the plain integer 1.
    tmp.fill(LaneRow::ZERO);
    tmp[0] = LaneRow([1; LANES]);
    mont_mul(rd, acc, tmp, w);
    io.copy_from_slice(w);
}

/// `32 × 32 → 64` on the low halves — written so that it lowers to
/// `vpmuludq`.
#[inline(always)]
fn mul_lo(x: u64, y: u64) -> u64 {
    (x as u32 as u64) * (y as u32 as u64)
}

/// Marks the end of one limb row's work. Emits no instruction; its
/// only effect is that the enclosing limb loop is opaque to the loop
/// vectoriser, which would otherwise pick that loop (with gathers)
/// over the lane loop — see the module docs.
#[inline(always)]
fn limb_fence() {
    std::hint::black_box(());
}

/// The head of a reduction step: from the finished column `t`, the
/// multiplier `m` that clears its low limb and the carry it leaves for
/// the next column.
#[inline(always)]
fn reduce_head(rd: Reduction<'_>, t: &LaneRow, m: &mut LaneRow, carry: &mut LaneRow) {
    let n0 = rd.n[0];
    for l in 0..LANES {
        m.0[l] = mul_lo(t.0[l], rd.n0inv) & LIMB_MASK;
        carry.0[l] = (t.0[l] + mul_lo(m.0[l], n0)) >> LIMB_BITS;
    }
}

/// `w[j-1] = w[j] + a[j]·x + m·n[j]` for `j` in `from..nl`: the
/// two-product row step, sliding the window down one limb as it goes.
#[inline(always)]
fn fused_rows(
    rd: Reduction<'_>,
    w: &mut [LaneRow],
    a: &[LaneRow],
    x: &LaneRow,
    m: &LaneRow,
    from: usize,
) {
    for j in from..rd.n.len() {
        let (lo, hi) = w.split_at_mut(j);
        let (dst, src, aj, nj) = (&mut lo[j - 1], &hi[0], &a[j], rd.n[j]);
        for l in 0..LANES {
            dst.0[l] = src.0[l] + mul_lo(aj.0[l], x.0[l]) + mul_lo(m.0[l], nj);
        }
        limb_fence();
    }
}

/// `w[j-1] = w[j] + m·n[j]` for `j` in `1..to`: the reduction-only row
/// step below a square's triangle.
#[inline(always)]
fn reduce_rows(rd: Reduction<'_>, w: &mut [LaneRow], m: &LaneRow, to: usize) {
    for j in 1..to {
        let (lo, hi) = w.split_at_mut(j);
        let (dst, src, nj) = (&mut lo[j - 1], &hi[0], rd.n[j]);
        for l in 0..LANES {
            dst.0[l] = src.0[l] + mul_lo(m.0[l], nj);
        }
        limb_fence();
    }
}

/// Closes a step: the top row leaves the window empty, the carry of
/// the consumed column lands on the new bottom row.
#[inline(always)]
fn shift_in(w: &mut [LaneRow], carry: &LaneRow) {
    let top = w.len() - 1;
    w[top] = LaneRow::ZERO;
    for l in 0..LANES {
        w[0].0[l] += carry.0[l];
    }
}

/// The one carry sweep of a multiplication: normalises the window, in
/// place, into 28-bit limbs. The value is below `2n < R/2`, so nothing
/// carries out.
#[inline(always)]
fn sweep(w: &mut [LaneRow]) {
    let mut carry = LaneRow::ZERO;
    for col in w {
        for l in 0..LANES {
            let v = col.0[l] + carry.0[l];
            col.0[l] = v & LIMB_MASK;
            carry.0[l] = v >> LIMB_BITS;
        }
    }
    debug_assert_eq!(carry.0, [0; LANES], "product below 2n fits nl limbs");
}

/// `w = a·b·R⁻¹` in every lane (operands and result below `2n`,
/// 28-bit limbs). `w` is the `nl`-row column window: after step `i` it
/// holds columns `i+1 ..= i+nl` of `a·b + m·n`, and after the last
/// step, swept, the result.
#[inline(always)]
fn mont_mul(rd: Reduction<'_>, a: &[LaneRow], b: &[LaneRow], w: &mut [LaneRow]) {
    let nl = rd.n.len();
    let (a, w) = (&a[..nl], &mut w[..nl]);
    w.fill(LaneRow::ZERO);
    let (mut t, mut m, mut carry) = (LaneRow::ZERO, LaneRow::ZERO, LaneRow::ZERO);
    for bi in &b[..nl] {
        // A local copy: the fence would otherwise reload it per row.
        let bi = *bi;
        for l in 0..LANES {
            t.0[l] = w[0].0[l] + mul_lo(a[0].0[l], bi.0[l]);
        }
        reduce_head(rd, &t, &mut m, &mut carry);
        fused_rows(rd, w, a, &bi, &m, 1);
        shift_in(w, &carry);
    }
    sweep(w);
}

/// `w = a²·R⁻¹` in every lane: each cross product once, doubled
/// (`2·a[i] < 2²⁹` still fits the 32-bit multiplier input), so a step
/// is `i` one-product rows and `nl − 1 − i` two-product rows —
/// `1.5·nl²` lane multiplies against `2·nl²` for [`mont_mul`].
#[inline(always)]
fn mont_sq(rd: Reduction<'_>, a: &[LaneRow], w: &mut [LaneRow]) {
    let nl = rd.n.len();
    let (a, w) = (&a[..nl], &mut w[..nl]);
    w.fill(LaneRow::ZERO);
    let (mut twice, mut m, mut carry) = (LaneRow::ZERO, LaneRow::ZERO, LaneRow::ZERO);
    for i in 0..nl {
        // Window row i is column 2i: the diagonal term.
        for l in 0..LANES {
            let ai = a[i].0[l];
            w[i].0[l] += mul_lo(ai, ai);
            twice.0[l] = ai << 1;
        }
        let t = w[0];
        reduce_head(rd, &t, &mut m, &mut carry);
        reduce_rows(rd, w, &m, i + 1);
        fused_rows(rd, w, a, &twice, &m, i + 1);
        shift_in(w, &carry);
    }
    sweep(w);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_split_and_pack_round_trip() {
        let v = UBig::from_hex("f123456789abcdef0fedcba987654321aa55aa55deadbeef").unwrap();
        let n = (&UBig::one() << 200).add_ref(&UBig::one());
        let md = LaneModulus::new(&n).unwrap();
        assert_eq!(md.limbs(), (201 + 2usize).div_ceil(28));
        let mut rows = vec![LaneRow::ZERO; md.limbs()];
        load_lane(&md, &mut rows, 5, &v);
        assert!(rows.iter().all(|r| r.0[5] <= LIMB_MASK && r.0[4] == 0));
        let mut out = vec![0u64; 4];
        store_lane(&md, &rows, 5, &mut out);
        assert_eq!(out[..3], v.limbs[..]);
        assert_eq!(out[3], 0);
        load_lane(&md, &mut rows, 5, &UBig::zero());
        assert!(rows.iter().all(|r| r.0 == [0; LANES]));
    }

    #[test]
    fn width_gate_is_the_accumulator_bound() {
        // (2·nl + 1) terms under 2⁵⁶ each fit 64 bits at 127 limbs and
        // not at 128.
        let column = |nl: u128| (2 * nl + 1) << (2 * LIMB_BITS);
        assert!(column(MAX_LANE_LIMBS as u128) <= 1 << 64);
        assert!(column(MAX_LANE_LIMBS as u128 + 1) > 1 << 64);
        let odd_bits = |bits: usize| (&UBig::one() << (bits - 1)).add_ref(&UBig::one());
        assert_eq!(LaneModulus::new(&odd_bits(3554)).unwrap().limbs(), 127);
        assert!(LaneModulus::new(&odd_bits(3555)).is_none());
        assert!(LaneModulus::new(&odd_bits(4096)).is_none());
    }

    #[test]
    fn saturated_limbs_fit_the_accumulators() {
        // The worst case of the column bound, one step at a time: the
        // modulus 2^(28·nl − 2) − 1 (every limb 2²⁸ − 1, the top one
        // as full as R > 4n allows) and the operand 2n − 1 in every
        // lane. Overflow checks are on in debug builds; the result is
        // checked against the definition, `out·R ≡ a·b (mod n)`.
        for nl in [1usize, 3, 37, 74, 110, MAX_LANE_LIMBS] {
            let bits = LIMB_BITS * nl - 2;
            let n = (&UBig::one() << bits).sub_ref(&UBig::one());
            let md = LaneModulus::new(&n).unwrap();
            assert_eq!(md.limbs(), nl);
            assert!(md.n[..nl - 1].iter().all(|&limb| limb == LIMB_MASK));
            let a_val = n.add_ref(&n).sub_ref(&UBig::one());
            let mut a = vec![LaneRow::ZERO; nl];
            for lane in 0..LANES {
                load_lane(&md, &mut a, lane, &a_val);
            }
            let (mut product, mut square) = (a.clone(), a.clone());
            mont_mul(md.reduction(), &a, &a, &mut product);
            mont_sq(md.reduction(), &a, &mut square);
            let want = a_val.mul_ref(&a_val).rem_ref(&n);
            let mut packed = vec![0u64; (LIMB_BITS * nl).div_ceil(64)];
            for rows in [&product, &square] {
                for lane in [0, 7, 8, LANES - 1] {
                    store_lane(&md, rows, lane, &mut packed);
                    let mut out = UBig {
                        limbs: packed.clone(),
                    };
                    out.normalize();
                    assert!(out < n.add_ref(&n), "nl={nl}: a step stays below 2n");
                    assert_eq!(out.shl_bits(LIMB_BITS * nl).rem_ref(&n), want, "nl={nl}");
                }
            }
        }
    }

    #[test]
    fn lane_tier_names_the_dispatch() {
        assert_eq!(lane_tier() == "avx512/24", accelerated());
        assert!(["avx512/24", "scalar/1"].contains(&lane_tier()));
    }
}
