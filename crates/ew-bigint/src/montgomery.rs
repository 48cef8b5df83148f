//! Montgomery-form modular arithmetic for odd moduli.
//!
//! The protocol's hot path is modular exponentiation over 1024–2048-bit
//! odd moduli (RSA blind signatures, MODP Diffie–Hellman). The generic
//! ladder in [`crate::UBig::modpow_generic`] pays a full multiply *and*
//! a Knuth division per square-and-multiply step. Montgomery reduction
//! replaces the division with a second multiply-accumulate pass that
//! only needs single-word arithmetic: with `R = 2^(64k)` and
//! `n' = -n^{-1} mod 2^64`, the fused CIOS (Coarsely Integrated Operand
//! Scanning) loop computes `a·b·R^{-1} mod n` in `2k² + k` word
//! multiplications, **zero** divisions, and a *single* pass over the
//! accumulator per operand word (the multiply-accumulate and the
//! reduction step share one loop, halving loads/stores in the hottest
//! loop of the codebase). Squarings — four of every five ladder steps —
//! take a dedicated path (square the operand with the triangle trick,
//! then one reduction sweep) at `≈1.5k²` word multiplications.
//!
//! ## Sliding-window exponentiation
//!
//! [`MontgomeryCtx::modpow`] recodes the exponent **once, up front**
//! into 5-bit sliding windows over *odd* digits: a table of the 16 odd
//! powers `base^1, base^3, …, base^31` (one squaring plus 15 multiplies
//! to build) and one multiply per window. Because windows slide — they
//! always end on a set bit — a `b`-bit exponent needs `≈b/6`
//! multiplies on average versus `≈(15/16)·b/4` for the classic 4-bit
//! fixed-window ladder: ~20% fewer multiplies per exponent, with half
//! the table-build work. The 4-bit fixed-window ladder is kept as the
//! test-only `modpow_fixed_window`, purely as a differential reference;
//! the `ops_trace` regression tests pin the sliding-window multiply
//! count strictly below it.
//!
//! ## The scratch arena and allocation-free steady state
//!
//! Every operation here works on plain `&[u64]` limb windows carved out
//! of a [`MontScratch`] arena. The arena's buffers grow monotonically
//! and are never shrunk, so once a thread has exercised a modulus width
//! the hot operations — `modpow_into`, `mulmod_into`, the batched
//! inversion walk — perform **zero heap allocations** (pinned by the
//! counting-allocator test in `tests/alloc_free.rs`). Convenience
//! entry points that return a fresh [`UBig`] (`modpow`, `mulmod`, …)
//! borrow a **persistent per-thread arena** instead of allocating
//! scratch, costing exactly one allocation: the result.
//!
//! Ownership rules for the arena:
//!
//! * A [`MontScratch`] may be used with any number of contexts and any
//!   mix of widths — it sizes itself to the largest modulus it has
//!   seen.
//! * Public entry points acquire the thread-local arena (or take one by
//!   `&mut`) exactly once and never re-enter; nothing in this module
//!   calls back into user code while holding it.
//! * The arena holds no secret-dependent state a caller could observe;
//!   it is plain uninitialized-between-calls workspace.
//!
//! ## Many bases under one exponent
//!
//! [`MontgomeryCtx::modpow_many`] is the batch entry point for the
//! shape enrolment and the OPRF server have — one exponent, one
//! modulus, many bases. It recodes the exponent once and, on a CPU
//! with AVX-512 IFMA, runs 24 bases at a time through the
//! lane-interleaved engine in [`crate::lanes`] (radix-2⁵² limbs stored
//! `[limb][lane]`, one `vpmadd52luq`/`vpmadd52huq` row step per limb,
//! `R > 4n` so no step needs a conditional subtraction, lazy carries
//! bounded by `nl ≤ 1 023` limbs); that module's docs carry the layout,
//! the two arguments, the gates and why no other ISA has a tier.
//! Everything else — a CPU without IFMA, a modulus over 53 194 bits, a
//! chunk of fewer than 5 bases — is a loop over
//! [`MontgomeryCtx::modpow_into`], and either way the results are the
//! canonical residues `modpow` returns. The lane rows live in the same
//! [`MontScratch`] arena.
//!
//! ## Montgomery-domain pipelines
//!
//! [`MontElem`] is a value held in Montgomery form (`v·R mod n`).
//! Protocol layers that chain several modular operations (the OPRF's
//! blind → evaluate → unblind) convert **once in and once out** instead
//! of round-tripping per operation: [`MontgomeryCtx::to_mont`],
//! [`MontgomeryCtx::modpow_mont`] and [`MontgomeryCtx::mont_mul_elem`]
//! stay in the domain, and [`MontgomeryCtx::mont_mul_mixed`] exploits
//! `CIOS(a, b·R) = a·b mod n` to fuse a plain×Montgomery product and
//! the domain exit into a *single* CIOS pass — the OPRF unblinding and
//! the RSA-CRT Garner step each cost one pass this way.
//!
//! A [`MontgomeryCtx`] precomputes everything that depends only on the
//! modulus (`n'`, `R mod n`, `R² mod n`, and `R² mod n` once more for
//! the lane engine's radix — one division each at setup),
//! so a cached context amortizes to nothing across the millions of
//! exponentiations a deployed oprf-server performs. For the
//! fixed-generator case (DH `g^x`), [`FixedBaseTable`] trades ~2 MB of
//! precomputed powers for an exponentiation with **no squarings at
//! all** — one multiply per non-zero exponent nibble.
//!
//! After setup, none of the operations here touch
//! [`crate::UBig::divrem`] (as long as operands are already reduced);
//! the differential proptests pin that property via [`crate::ops_trace`].

use crate::lanes::{self, LaneKernel, LaneModulus, LaneRow, LANES};
use crate::ops_trace;
use crate::ubig::UBig;
use std::cell::RefCell;
use std::sync::Arc;

/// One recoded window of an exponent: `squares` squarings followed by a
/// multiply with the odd power `base^digit` (`digit == 0` encodes
/// trailing squarings with no multiply).
#[derive(Clone, Copy, Debug)]
pub(crate) struct WindowOp {
    pub(crate) squares: u32,
    pub(crate) digit: u8,
}

/// Reusable workspace for Montgomery operations.
///
/// Buffers grow monotonically to the largest modulus width used and are
/// never shrunk, so steady-state operations through an arena allocate
/// nothing. See the module docs for the ownership rules.
#[derive(Debug, Default)]
pub struct MontScratch {
    /// CIOS multiply / squaring / reduction scratch (`2k + 2` limbs).
    t: Vec<u64>,
    /// Flat odd-power (or nibble-power) window table (`16·k` limbs).
    table: Vec<u64>,
    /// Exponentiation accumulator (`k` limbs).
    acc: Vec<u64>,
    /// Staging / output buffer (`k` limbs).
    tmp: Vec<u64>,
    /// Montgomerized base / second staging buffer (`k` limbs).
    base: Vec<u64>,
    /// Flat variable-length element store (batch inversion walk).
    flex: Vec<u64>,
    /// Recoded exponent windows.
    ops: Vec<WindowOp>,
    /// Lane-engine rows ([`MontgomeryCtx::modpow_many`]): window,
    /// accumulators and the `[digit][limb][lane]` odd-power table,
    /// sized by the first batch that takes the lane path.
    lanes: Vec<LaneRow>,
}

impl MontScratch {
    /// An empty arena; buffers are sized lazily by first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every fixed buffer to cover a `k`-limb modulus.
    fn ensure(&mut self, k: usize) {
        if self.t.len() < sq_scratch_len(k) {
            self.t.resize(sq_scratch_len(k), 0);
            self.table.resize(16 * k, 0);
            self.acc.resize(k, 0);
            self.tmp.resize(k, 0);
            self.base.resize(k, 0);
        }
    }
}

/// Scratch limbs for a `k`-limb modulus: at least the `2k + 1` that
/// `mont_sq` uses, the `2k`-limb square and the reduction's carry limb.
fn sq_scratch_len(k: usize) -> usize {
    2 * k + 2
}

thread_local! {
    /// The persistent per-thread arena behind the convenience entry
    /// points (`modpow`, `mulmod`, the `MontElem` operations): each
    /// thread that exponentiates — an RSA-CRT worker, a blinding
    /// shard — warms its own workspace once and reuses it for every
    /// subsequent call.
    static SCRATCH: RefCell<MontScratch> = RefCell::new(MontScratch::new());
}

/// Runs `f` with the thread-local arena. Falls back to a fresh arena on
/// (programmer-error) re-entrancy instead of panicking.
fn with_scratch<R>(f: impl FnOnce(&mut MontScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut MontScratch::new()),
    })
}

/// A value in Montgomery form (`v·R mod n`) for the context that
/// produced it.
///
/// Elements are plain limb buffers; they carry no back-reference to
/// their context, so callers must hand them back to the same modulus
/// (debug builds assert the width matches). Produced by
/// [`MontgomeryCtx::to_mont`] / [`MontgomeryCtx::modpow_mont`] /
/// [`MontgomeryCtx::mont_mul_elem`], consumed by
/// [`MontgomeryCtx::mont_mul_mixed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontElem {
    limbs: Vec<u64>,
}

impl MontElem {
    /// Whether this element is the zero residue.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }
}

/// Precomputed constants for Montgomery arithmetic modulo a fixed odd
/// modulus `n > 1`.
///
/// Cheap to clone relative to one exponentiation; build once per key /
/// group and share (e.g. behind an `Arc`).
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus.
    n: UBig,
    /// `n`'s limbs padded to exactly `k` words.
    n_limbs: Vec<u64>,
    /// Limb count `k` (so `R = 2^(64k)`).
    k: usize,
    /// `-n^{-1} mod 2^64` (Dussé–Kaliski word inverse).
    n0inv: u64,
    /// `R mod n` — the Montgomery representation of 1.
    r1: Vec<u64>,
    /// `R² mod n` — multiplier for converting into Montgomery form.
    r2: Vec<u64>,
    /// The same constants in 52-bit limbs for the lane engine behind
    /// [`Self::modpow_many`]; `None` when `n` is too wide for it.
    lane: Option<LaneModulus>,
}

impl MontgomeryCtx {
    /// Builds a context for the odd modulus `n > 1`.
    ///
    /// Performs the only divisions this module ever needs (three
    /// remainders: `R mod n` and `R² mod n`, and `R² mod n` again for
    /// the lane engine's `R = 2^(52·nl)`).
    ///
    /// # Panics
    /// Panics if `n` is even or `n <= 1`.
    pub fn new(n: &UBig) -> Self {
        assert!(n.is_odd(), "Montgomery arithmetic requires an odd modulus");
        assert!(!n.is_one(), "modulus must exceed 1");
        let k = n.limb_count();
        let mut n_limbs = n.limbs.clone();
        n_limbs.resize(k, 0);
        let n0inv = word_inverse(n_limbs[0]).wrapping_neg();
        let r1 = pad_limbs(&(&UBig::one() << (64 * k)).rem_ref(n), k);
        let r2 = pad_limbs(&(&UBig::one() << (128 * k)).rem_ref(n), k);
        MontgomeryCtx {
            n: n.clone(),
            n_limbs,
            k,
            n0inv,
            r1,
            r2,
            lane: LaneModulus::new(n),
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &UBig {
        &self.n
    }

    /// `base^exp mod n` via 5-bit sliding-window recoding entirely in
    /// Montgomery form — see the module docs. Scratch comes from the
    /// persistent per-thread arena, so a steady-state call allocates
    /// only the returned result.
    ///
    /// `base` is reduced modulo `n` first if necessary (the only
    /// possible division, skipped whenever `base < n`).
    pub fn modpow(&self, base: &UBig, exp: &UBig) -> UBig {
        with_scratch(|s| {
            let mut out = UBig::zero();
            self.modpow_into(base, exp, s, &mut out);
            out
        })
    }

    /// [`Self::modpow`] with caller-provided scratch and output: the
    /// fully allocation-free form (given `base < n` and a warm arena).
    pub fn modpow_into(&self, base: &UBig, exp: &UBig, s: &mut MontScratch, out: &mut UBig) {
        if exp.is_zero() {
            set_limbs(out, &[1]);
            return;
        }
        let reduced;
        let base = if base >= &self.n {
            reduced = base.rem_ref(&self.n);
            &reduced
        } else {
            base
        };
        if base.is_zero() {
            set_limbs(out, &[]);
            return;
        }
        let k = self.k;
        s.ensure(k);
        let MontScratch {
            t,
            table,
            acc,
            tmp,
            base: base_buf,
            ops,
            ..
        } = s;
        pad_into(base, &mut base_buf[..k]);
        // Into Montgomery form.
        self.mont_mul(base_buf, &self.r2, t, tmp);
        std::mem::swap(base_buf, tmp);
        self.pow_sliding(exp, t, table, acc, tmp, base_buf, ops);
        // Leave Montgomery form with a bare reduction sweep.
        self.mont_redc(&acc[..k], t, tmp);
        set_limbs(out, &tmp[..k]);
    }

    /// `base^exp mod n` for every base of a batch under **one**
    /// exponent — the shape of Diffie–Hellman enrolment (`y_j^{x_i}`
    /// for the whole directory) and of the OPRF server's CRT halves.
    /// Element `i` of the result is exactly `self.modpow(&bases[i],
    /// exp)`: the canonical residue, with the same treatment of a zero
    /// exponent, a zero base and a base `≥ n` (reduced first — the only
    /// possible division).
    ///
    /// On a CPU with AVX-512 IFMA the batch runs 24 bases at a time
    /// through the lane-interleaved engine (see the `lanes.rs` module
    /// docs): the exponent is recoded once, and every Montgomery step is
    /// one pass over all lanes. Two constants send work to the
    /// scalar loop instead — a modulus too wide for the lane
    /// accumulators, and a chunk with too few bases to fill enough
    /// lanes; without IFMA the whole batch is the scalar loop
    /// ([`crate::lane_tier`] says which). Scratch is the
    /// per-thread arena: a warm call allocates only its results.
    pub fn modpow_many(&self, bases: &[UBig], exp: &UBig) -> Vec<UBig> {
        self.modpow_many_with(bases, exp, lanes::kernel(), lanes::MIN_LANE_BATCH)
    }

    /// [`Self::modpow_many`] with its two run-time choices spelled out:
    /// the lane kernel (`None`: scalar loop) and the fewest bases worth
    /// a lane pass. The tests come in here to run either instantiation
    /// at any width and batch length.
    pub(crate) fn modpow_many_with(
        &self,
        bases: &[UBig],
        exp: &UBig,
        kernel: Option<LaneKernel>,
        min_batch: usize,
    ) -> Vec<UBig> {
        with_scratch(|s| {
            let lane = match (&self.lane, kernel) {
                (Some(md), Some(kernel)) if !exp.is_zero() && bases.len() >= min_batch => {
                    s.ensure(self.k);
                    lanes::ensure_rows(&mut s.lanes, md);
                    recode_exponent(exp, &mut s.ops);
                    Some((md, kernel))
                }
                _ => None,
            };
            let mut out = Vec::with_capacity(bases.len());
            for chunk in bases.chunks(LANES) {
                match lane {
                    Some((md, kernel)) if chunk.len() >= min_batch => {
                        self.pow_lanes(md, kernel, chunk, s, &mut out)
                    }
                    _ => {
                        for base in chunk {
                            let mut power = UBig::zero();
                            self.modpow_into(base, exp, s, &mut power);
                            out.push(power);
                        }
                    }
                }
            }
            out
        })
    }

    /// One lane pass: `chunk` (at most [`LANES`] bases) raised to the
    /// schedule already recoded in `s.ops`, results appended to `out`.
    fn pow_lanes(
        &self,
        md: &LaneModulus,
        kernel: LaneKernel,
        chunk: &[UBig],
        s: &mut MontScratch,
        out: &mut Vec<UBig>,
    ) {
        let k = self.k;
        let MontScratch {
            t,
            tmp,
            ops,
            lanes: rows,
            ..
        } = s;
        let idle = UBig::zero();
        for lane in 0..LANES {
            match chunk.get(lane) {
                Some(base) if base >= &self.n => {
                    lanes::load_lane(md, rows, lane, &base.rem_ref(&self.n))
                }
                Some(base) => lanes::load_lane(md, rows, lane, base),
                None => lanes::load_lane(md, rows, lane, &idle),
            }
        }
        kernel(md, ops, rows);
        // The scalar schedule, once per live lane: into form, base²,
        // 15 table entries, the windows, out of form.
        let steps: u64 = ops[1..]
            .iter()
            .map(|op| op.squares as u64 + (op.digit != 0) as u64)
            .sum();
        ops_trace::record_mont_muls((steps + 18) * chunk.len() as u64);
        for lane in 0..chunk.len() {
            // A lane leaves the engine at most n; one subtraction makes
            // it canonical.
            lanes::store_lane(md, rows, lane, &mut t[..k]);
            t[k] = 0;
            conditional_sub(&t[..k + 1], &self.n_limbs, tmp);
            out.push(to_ubig(&tmp[..k]));
        }
    }

    /// Sliding-window core: `acc = base_buf^exp`, all in Montgomery
    /// form. `exp` must be non-zero.
    #[allow(clippy::too_many_arguments)]
    fn pow_sliding(
        &self,
        exp: &UBig,
        t: &mut [u64],
        table: &mut [u64],
        acc: &mut Vec<u64>,
        tmp: &mut Vec<u64>,
        base_buf: &[u64],
        ops: &mut Vec<WindowOp>,
    ) {
        let k = self.k;
        // Odd-power table: table[i] = base^(2i+1) in Montgomery form.
        table[..k].copy_from_slice(&base_buf[..k]);
        // tmp = base² — the stride between consecutive odd powers.
        self.mont_sq(base_buf, t, tmp);
        for i in 1..16 {
            let (lo, hi) = table.split_at_mut(i * k);
            self.mont_mul(&lo[(i - 1) * k..], tmp, t, &mut hi[..k]);
        }
        recode_exponent(exp, ops);
        // The first window's digit seeds the accumulator directly
        // (its squarings would only square 1).
        let first = ops[0];
        debug_assert!(first.digit != 0, "exponent is non-zero");
        let d = (first.digit as usize - 1) / 2;
        acc[..k].copy_from_slice(&table[d * k..d * k + k]);
        for op in &ops[1..] {
            for _ in 0..op.squares {
                self.mont_sq(acc, t, tmp);
                std::mem::swap(acc, tmp);
            }
            if op.digit != 0 {
                let d = (op.digit as usize - 1) / 2;
                self.mont_mul(acc, &table[d * k..d * k + k], t, tmp);
                std::mem::swap(acc, tmp);
            }
        }
    }

    /// `base^exp mod n` via the classic 4-bit **fixed**-window ladder —
    /// the PR 1 reference path, kept for differential testing against
    /// the sliding-window recoding (and for the `ops_trace` regression
    /// pinning the sliding window's multiply count strictly lower).
    #[cfg(test)]
    pub(crate) fn modpow_fixed_window(&self, base: &UBig, exp: &UBig) -> UBig {
        if exp.is_zero() {
            return UBig::one();
        }
        let base = if base >= &self.n {
            base.rem_ref(&self.n)
        } else {
            base.clone()
        };
        if base.is_zero() {
            return UBig::zero();
        }
        with_scratch(|s| {
            let k = self.k;
            s.ensure(k);
            let MontScratch {
                t,
                table,
                acc,
                tmp,
                base: base_buf,
                ..
            } = s;
            pad_into(&base, &mut base_buf[..k]);
            // table[0] = 1, table[i] = base^i, all in Montgomery form.
            table[..k].copy_from_slice(&self.r1);
            self.mont_mul(base_buf, &self.r2, t, tmp);
            table[k..2 * k].copy_from_slice(&tmp[..k]);
            for i in 2..16 {
                let (lo, hi) = table.split_at_mut(i * k);
                self.mont_mul(&lo[(i - 1) * k..], &lo[k..2 * k], t, &mut hi[..k]);
            }
            let windows = exp.bit_len().div_ceil(4);
            acc[..k].copy_from_slice(&self.r1);
            for w in (0..windows).rev() {
                for _ in 0..4 {
                    self.mont_sq(acc, t, tmp);
                    std::mem::swap(acc, tmp);
                }
                let nibble = exp_nibble(exp, w);
                if nibble != 0 {
                    self.mont_mul(acc, &table[nibble * k..nibble * k + k], t, tmp);
                    std::mem::swap(acc, tmp);
                }
            }
            self.mont_redc(&acc[..k], t, tmp);
            to_ubig(&tmp[..k])
        })
    }

    /// `a·b mod n` through two CIOS passes (into and out of Montgomery
    /// form in one go) — division-free, for callers holding a context.
    /// Scratch comes from the persistent per-thread arena.
    ///
    /// Operands must already be reduced (`< n`).
    pub fn mulmod(&self, a: &UBig, b: &UBig) -> UBig {
        with_scratch(|s| {
            let mut out = UBig::zero();
            self.mulmod_into(a, b, s, &mut out);
            out
        })
    }

    /// [`Self::mulmod`] with caller-provided scratch and output — the
    /// allocation-free form for callers multiplying in a loop
    /// (batch inversion, blinding).
    ///
    /// Operands must already be reduced (`< n`).
    pub fn mulmod_into(&self, a: &UBig, b: &UBig, s: &mut MontScratch, out: &mut UBig) {
        debug_assert!(a < &self.n && b < &self.n, "operands must be reduced");
        let k = self.k;
        s.ensure(k);
        let MontScratch {
            t,
            acc,
            tmp,
            base: base_buf,
            ..
        } = s;
        pad_into(a, &mut acc[..k]);
        pad_into(b, &mut base_buf[..k]);
        // (a·b·R^{-1}) · R² · R^{-1} = a·b mod n.
        self.mont_mul(acc, base_buf, t, tmp);
        self.mont_mul(tmp, &self.r2, t, acc);
        set_limbs(out, &acc[..k]);
    }

    /// Converts `v` (reduced, `< n`) into Montgomery form.
    pub fn to_mont(&self, v: &UBig) -> MontElem {
        debug_assert!(v < &self.n, "operand must be reduced");
        with_scratch(|s| {
            let k = self.k;
            s.ensure(k);
            let MontScratch { t, acc, tmp, .. } = s;
            pad_into(v, &mut acc[..k]);
            self.mont_mul(acc, &self.r2, t, tmp);
            MontElem {
                limbs: tmp[..k].to_vec(),
            }
        })
    }

    /// Converts a Montgomery-form element back to a plain value — one
    /// bare reduction sweep. Tests observe the Montgomery domain through
    /// it; the program leaves the domain by [`Self::mont_mul_mixed`].
    /// (`pub` only to keep clippy's `from_*` naming rule off it.)
    #[cfg(test)]
    pub fn from_mont(&self, e: &MontElem) -> UBig {
        debug_assert_eq!(e.limbs.len(), self.k, "element from another context");
        with_scratch(|s| {
            s.ensure(self.k);
            let MontScratch { t, tmp, .. } = s;
            self.mont_redc(&e.limbs, t, tmp);
            to_ubig(&tmp[..self.k])
        })
    }

    /// The Montgomery form of 1 (`R mod n`).
    fn one_mont(&self) -> MontElem {
        MontElem {
            limbs: self.r1.clone(),
        }
    }

    /// Montgomery-domain product: both operands and the result stay in
    /// Montgomery form (one CIOS pass).
    pub fn mont_mul_elem(&self, a: &MontElem, b: &MontElem) -> MontElem {
        debug_assert_eq!(a.limbs.len(), self.k, "element from another context");
        debug_assert_eq!(b.limbs.len(), self.k, "element from another context");
        with_scratch(|s| {
            s.ensure(self.k);
            let MontScratch { t, tmp, .. } = s;
            self.mont_mul(&a.limbs, &b.limbs, t, tmp);
            MontElem {
                limbs: tmp[..self.k].to_vec(),
            }
        })
    }

    /// Mixed product `plain · m mod n` in a **single** CIOS pass:
    /// `CIOS(plain, m̂) = plain·m·R·R^{-1} = plain·m mod n`. The cheap
    /// way out of a Montgomery-domain pipeline — the OPRF unblinding
    /// multiply and the RSA-CRT Garner step each cost exactly one pass.
    ///
    /// `plain` must be reduced (`< n`).
    pub fn mont_mul_mixed(&self, plain: &UBig, m: &MontElem) -> UBig {
        debug_assert!(plain < &self.n, "operand must be reduced");
        debug_assert_eq!(m.limbs.len(), self.k, "element from another context");
        with_scratch(|s| {
            let k = self.k;
            s.ensure(k);
            let MontScratch { t, acc, tmp, .. } = s;
            pad_into(plain, &mut acc[..k]);
            self.mont_mul(acc, &m.limbs, t, tmp);
            to_ubig(&tmp[..k])
        })
    }

    /// Sliding-window exponentiation that **stays in the Montgomery
    /// domain**: `base` is already in Montgomery form and so is the
    /// result, so chained pipelines pay no per-operation conversions.
    pub fn modpow_mont(&self, base: &MontElem, exp: &UBig) -> MontElem {
        debug_assert_eq!(base.limbs.len(), self.k, "element from another context");
        if exp.is_zero() {
            return self.one_mont();
        }
        if base.is_zero() {
            return MontElem {
                limbs: vec![0; self.k],
            };
        }
        with_scratch(|s| {
            let k = self.k;
            s.ensure(k);
            let MontScratch {
                t,
                table,
                acc,
                tmp,
                ops,
                ..
            } = s;
            self.pow_sliding(exp, t, table, acc, tmp, &base.limbs, ops);
            MontElem {
                limbs: acc[..k].to_vec(),
            }
        })
    }

    /// Batch modular inversion (Montgomery's trick): inverts every
    /// element of `values` with **one** extended-GCD inversion, running
    /// the prefix-product walk wholly in the Montgomery domain (`≈4len`
    /// CIOS passes instead of `6len` plain `mulmod`s).
    ///
    /// Returns `None` if any element is zero or shares a factor with
    /// `n` (in which case nothing is invertible to report). Elements
    /// must already be reduced (`< n`).
    pub fn batch_inv(&self, values: &[UBig]) -> Option<Vec<UBig>> {
        if values.is_empty() {
            return Some(Vec::new());
        }
        let k = self.k;
        let len = values.len();
        with_scratch(|s| {
            s.ensure(k);
            if s.flex.len() < 2 * len * k {
                s.flex.resize(2 * len * k, 0);
            }
            let MontScratch {
                t,
                acc,
                tmp,
                base: base_buf,
                flex,
                ..
            } = s;
            // Layout: flex[i·k..] = v̂ᵢ, flex[(len+i)·k..] = p̂ᵢ where
            // pᵢ = v₀·v₁⋯vᵢ, everything in Montgomery form.
            for (i, v) in values.iter().enumerate() {
                debug_assert!(v < &self.n, "operands must be reduced");
                pad_into(v, &mut acc[..k]);
                self.mont_mul(acc, &self.r2, t, &mut flex[i * k..(i + 1) * k]);
            }
            flex.copy_within(..k, len * k);
            for i in 1..len {
                let (lo, hi) = flex.split_at_mut((len + i) * k);
                self.mont_mul(&lo[(len + i - 1) * k..], &lo[i * k..(i + 1) * k], t, hi);
            }
            // One inversion of the total product...
            self.mont_redc(&flex[(2 * len - 1) * k..2 * len * k], t, tmp);
            let product = to_ubig(&tmp[..k]);
            let inv = product.modinv(&self.n)?;
            // ...converted back in, then walked backwards to recover
            // the individual inverses.
            pad_into(&inv, &mut tmp[..k]);
            self.mont_mul(tmp, &self.r2, t, acc);
            let mut out = vec![UBig::zero(); len];
            for i in (1..len).rev() {
                // acc = (v₀⋯vᵢ)⁻¹; times p̂ᵢ₋₁ gives vᵢ⁻¹ (in form).
                self.mont_mul(acc, &flex[(len + i - 1) * k..(len + i) * k], t, tmp);
                self.mont_redc(&tmp[..k], t, base_buf);
                out[i] = to_ubig(&base_buf[..k]);
                self.mont_mul(acc, &flex[i * k..(i + 1) * k], t, tmp);
                std::mem::swap(acc, tmp);
            }
            self.mont_redc(&acc[..k], t, base_buf);
            out[0] = to_ubig(&base_buf[..k]);
            Some(out)
        })
    }

    /// One fused CIOS Montgomery multiplication: `out = a·b·R^{-1} mod n`.
    ///
    /// The multiply-accumulate and the reduction run in a **single**
    /// pass per word of `b` (one load and one store of the accumulator
    /// per inner step, versus two in the textbook two-loop layout).
    ///
    /// `a`, `b` are `k`-limb little-endian buffers holding values `< n`;
    /// `out` receives `k` limbs; `scratch` must provide `k+1` limbs.
    fn mont_mul(&self, a: &[u64], b: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        ops_trace::record_mont_mul();
        let k = self.k;
        // Exact-length reslices let the optimizer drop bounds checks in
        // the word loops below.
        let n = &self.n_limbs[..k];
        let a = &a[..k];
        let b = &b[..k];
        let t = &mut scratch[..k + 1];
        t.fill(0);

        for &bi in b {
            let bi = bi as u128;
            // First column decides m: (t + a·bi + m·n) ≡ 0 mod 2^64.
            let s = t[0] as u128 + a[0] as u128 * bi;
            let m = (s as u64).wrapping_mul(self.n0inv) as u128;
            let s2 = (s as u64) as u128 + m * n[0] as u128;
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = (s >> 64) as u64;
            let mut carry_m = (s2 >> 64) as u64;
            // Fused pass: accumulate a·bi and m·n, dividing by 2^64 as
            // we go (limb j lands in slot j-1). Two carry chains keep
            // every intermediate within u128.
            for j in 1..k {
                let s = t[j] as u128 + a[j] as u128 * bi + carry_a as u128;
                carry_a = (s >> 64) as u64;
                let s2 = (s as u64) as u128 + m * n[j] as u128 + carry_m as u128;
                carry_m = (s2 >> 64) as u64;
                t[j - 1] = s2 as u64;
            }
            let s = t[k] as u128 + carry_a as u128 + carry_m as u128;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }

        // t < 2n; one conditional subtraction restores t < n.
        conditional_sub(t, n, out);
    }

    /// Dedicated Montgomery squaring: `out = a²·R^{-1} mod n`.
    ///
    /// Computes the full 2k-limb square by the schoolbook triangle
    /// (`≈1.5k²` word multiplies versus the `2k²` of [`Self::mont_mul`])
    /// and then runs one reduction sweep. Squarings dominate every
    /// exponentiation, so this is the single hottest loop in the crypto
    /// stack.
    ///
    /// `scratch` must provide at least [`sq_scratch_len`]`(k)` limbs.
    fn mont_sq(&self, a: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        ops_trace::record_mont_mul();
        let k = self.k;
        let n = &self.n_limbs[..k];
        let a = &a[..k];
        // p holds the full product then the reduction tail; one extra
        // limb for the final carry.
        let p = &mut scratch[..2 * k + 1];
        sqr_schoolbook(a, &mut p[..2 * k]);
        p[2 * k] = 0;

        // Montgomery reduction sweep (paired rows, see `reduce_sweep`).
        reduce_sweep(p, n, self.n0inv);

        // Result is p[k..2k] with a possible top bit in p[2k].
        let (_, hi) = p.split_at(k);
        conditional_sub(hi, n, out);
    }

    /// Bare Montgomery reduction: `out = a·R^{-1} mod n` for a `k`-limb
    /// `a` — the cheap exit from the Montgomery domain (`k² + k` word
    /// multiplies, about half a full multiply by 1).
    ///
    /// `scratch` must provide at least `2k+1` limbs.
    fn mont_redc(&self, a: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        ops_trace::record_mont_mul();
        let k = self.k;
        let n = &self.n_limbs[..k];
        let a = &a[..k];
        let p = &mut scratch[..2 * k + 1];
        p[..k].copy_from_slice(a);
        p[k..].fill(0);
        reduce_sweep(p, n, self.n0inv);
        let (_, hi) = p.split_at(k);
        conditional_sub(hi, n, out);
    }
}

/// Recodes `exp` (non-zero) into 5-bit sliding windows over odd digits,
/// most-significant window first. Done **once** per exponentiation —
/// the evaluation loop never re-scans exponent bits.
fn recode_exponent(exp: &UBig, ops: &mut Vec<WindowOp>) {
    ops.clear();
    let bits = exp.bit_len();
    debug_assert!(bits > 0, "exponent must be non-zero");
    let mut i = bits as isize - 1;
    let mut squares: u32 = 0;
    while i >= 0 {
        if !exp.bit(i as usize) {
            squares += 1;
            i -= 1;
            continue;
        }
        // Window [j..=i], at most 5 bits, shrunk so it ends on a set
        // bit — the digit is always odd.
        let mut j = (i - 4).max(0);
        while !exp.bit(j as usize) {
            j += 1;
        }
        let mut digit: u8 = 0;
        let mut b = i;
        while b >= j {
            digit = (digit << 1) | exp.bit(b as usize) as u8;
            b -= 1;
        }
        ops.push(WindowOp {
            squares: squares + (i - j + 1) as u32,
            digit,
        });
        squares = 0;
        i = j - 1;
    }
    if squares > 0 {
        ops.push(WindowOp { squares, digit: 0 });
    }
}

/// Fixed-base exponentiation table: all powers `base^(j·16^i)` in
/// Montgomery form, so `base^exp` needs **no squarings** — just one
/// Montgomery multiply per non-zero nibble of the exponent.
///
/// Sized by `max_exp_bits`; for 256-bit private exponents in a 2048-bit
/// group this is 64 windows × 15 entries × 256 bytes ≈ 240 KB (960
/// multiplies to build), built once per (group, generator) and reused
/// for every key generation in the cohort. Exponents longer than the
/// table fall back to [`MontgomeryCtx::modpow`].
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    ctx: Arc<MontgomeryCtx>,
    base: UBig,
    /// `rows[i][j]` = Montgomery form of `base^((j+1)·16^i)`.
    rows: Vec<Vec<Vec<u64>>>,
    max_exp_bits: usize,
}

impl FixedBaseTable {
    /// Precomputes the window table for `base` (reduced mod `ctx`'s
    /// modulus) covering exponents up to `max_exp_bits` bits. The
    /// context is shared, not copied — table and callers see one set
    /// of precomputed constants.
    pub fn new(ctx: Arc<MontgomeryCtx>, base: &UBig, max_exp_bits: usize) -> Self {
        let k = ctx.k;
        let base = if base >= &ctx.n {
            base.rem_ref(&ctx.n)
        } else {
            base.clone()
        };
        let windows = max_exp_bits.div_ceil(4).max(1);
        // Sized for mont_sq, not just the CIOS multiply.
        let mut scratch = vec![0u64; sq_scratch_len(k)];
        // cur = Montgomery form of base^(16^i).
        let mut cur = vec![0u64; k];
        ctx.mont_mul(&pad_limbs(&base, k), &ctx.r2, &mut scratch, &mut cur);
        let mut rows = Vec::with_capacity(windows);
        for _ in 0..windows {
            let mut row = Vec::with_capacity(15);
            row.push(cur.clone());
            for j in 1..15 {
                let mut next = vec![0u64; k];
                ctx.mont_mul(&row[j - 1], &cur, &mut scratch, &mut next);
                row.push(next);
            }
            // base^(16^(i+1)) = (base^(8·16^i))².
            let mut next_cur = vec![0u64; k];
            ctx.mont_sq(&row[7], &mut scratch, &mut next_cur);
            cur = next_cur;
            rows.push(row);
        }
        FixedBaseTable {
            ctx,
            base,
            rows,
            max_exp_bits,
        }
    }

    /// The base this table exponentiates.
    pub fn base(&self) -> &UBig {
        &self.base
    }

    /// The modulus context this table is bound to.
    pub fn ctx(&self) -> &MontgomeryCtx {
        &self.ctx
    }

    /// `base^exp mod n` — one Montgomery multiply per non-zero nibble
    /// of `exp`, zero squarings, zero divisions. Scratch comes from the
    /// persistent per-thread arena (only the result is allocated).
    pub fn pow(&self, exp: &UBig) -> UBig {
        if exp.is_zero() {
            return UBig::one();
        }
        if exp.bit_len() > self.max_exp_bits {
            // Exponent outside the precomputed range: generic path.
            return self.ctx.modpow(&self.base, exp);
        }
        if self.base.is_zero() {
            return UBig::zero();
        }
        with_scratch(|s| {
            let k = self.ctx.k;
            s.ensure(k);
            let MontScratch { t, acc, tmp, .. } = s;
            acc[..k].copy_from_slice(&self.ctx.r1);
            let windows = exp.bit_len().div_ceil(4);
            for (w, row) in self.rows.iter().enumerate().take(windows) {
                let nibble = exp_nibble(exp, w);
                if nibble != 0 {
                    self.ctx.mont_mul(acc, &row[nibble - 1], t, tmp);
                    std::mem::swap(acc, tmp);
                }
            }
            self.ctx.mont_redc(&acc[..k], t, tmp);
            to_ubig(&tmp[..k])
        })
    }
}

/// The `w`-th 4-bit window of `exp`, least-significant window first.
fn exp_nibble(exp: &UBig, w: usize) -> usize {
    let mut nibble = 0usize;
    for b in 0..4 {
        let bit_index = w * 4 + (3 - b);
        nibble <<= 1;
        if exp.bit(bit_index) {
            nibble |= 1;
        }
    }
    nibble
}

/// Full `2k`-limb square of `a` into `p` by the schoolbook triangle:
/// each cross product `a[i]·a[j]` (`j > i`) computed once, doubled in a
/// shift pass that also adds the diagonal `a[i]²` terms.
///
/// Rows are processed in pairs (rows `i` and `i+1` interleaved in one
/// fused loop with independent carry chains), halving the serial
/// carry-chain latency exactly like the paired reduction sweep.
///
/// `p.len()` must be exactly `2·a.len()`; the square fits it exactly
/// (`a² < 2^(128k)`), so no carry ever escapes.
fn sqr_schoolbook(a: &[u64], p: &mut [u64]) {
    let k = a.len();
    debug_assert_eq!(p.len(), 2 * k);
    p.fill(0);

    let mut i = 0;
    while i + 1 < k {
        let ai = a[i] as u128;
        let ai1 = a[i + 1] as u128;
        if i + 3 <= k {
            // Head: positions 2i+1 and 2i+2 belong to row i alone
            // (row i+1 starts at 2i+3).
            let s = p[2 * i + 1] as u128 + ai * a[i + 1] as u128;
            p[2 * i + 1] = s as u64;
            let mut c1 = (s >> 64) as u64;
            let s = p[2 * i + 2] as u128 + ai * a[i + 2] as u128 + c1 as u128;
            p[2 * i + 2] = s as u64;
            c1 = (s >> 64) as u64;
            let mut c2: u64 = 0;
            // Fused body: row i contributes a[pos-i], row i+1
            // contributes a[pos-i-1], both at position pos.
            for pos in 2 * i + 3..i + k {
                let s = p[pos] as u128 + ai * a[pos - i] as u128 + c1 as u128;
                c1 = (s >> 64) as u64;
                let s2 = (s as u64) as u128 + ai1 * a[pos - i - 1] as u128 + c2 as u128;
                c2 = (s2 >> 64) as u64;
                p[pos] = s2 as u64;
            }
            // Tail at position i+k: row i+1's last product plus
            // both carries (two u128 steps keep sums in range);
            // the combined overflow ripples from i+k+1 (almost
            // always one step). Partial cross sums stay below
            // 2^(128k-1), so the ripple never leaves p.
            let s = p[i + k] as u128 + ai1 * a[k - 1] as u128 + c2 as u128;
            let s2 = (s as u64) as u128 + c1 as u128;
            p[i + k] = s2 as u64;
            let mut carry = (s >> 64) + (s2 >> 64);
            let mut pos = i + k + 1;
            while carry > 0 {
                let t = p[pos] as u128 + carry;
                p[pos] = t as u64;
                carry = t >> 64;
                pos += 1;
            }
        } else {
            // i == k-2: row i has the single product a[k-2]·a[k-1]
            // at position 2k-3 and row i+1 is empty.
            let s = p[2 * k - 3] as u128 + ai * a[k - 1] as u128;
            p[2 * k - 3] = s as u64;
            let mut carry = s >> 64;
            let mut pos = 2 * k - 2;
            while carry > 0 {
                let t = p[pos] as u128 + carry;
                p[pos] = t as u64;
                carry = t >> 64;
                pos += 1;
            }
        }
        i += 2;
    }
    // Odd k leaves row k-1, which has no cross products.

    // Double the cross products and add the diagonal a[i]² terms in
    // a single pass (two limbs per i).
    let mut msb: u64 = 0;
    let mut carry: u64 = 0;
    for i in 0..k {
        let sq = a[i] as u128 * a[i] as u128;
        let d0 = p[2 * i];
        let s = (((d0 << 1) | msb) as u128) + (sq as u64) as u128 + carry as u128;
        p[2 * i] = s as u64;
        let d1 = p[2 * i + 1];
        let s2 = (((d1 << 1) | (d0 >> 63)) as u128) + ((sq >> 64) as u64) as u128 + (s >> 64);
        p[2 * i + 1] = s2 as u64;
        msb = d1 >> 63;
        carry = (s2 >> 64) as u64;
    }
    debug_assert_eq!(msb + carry, 0, "a² fits exactly 2k limbs");
}

/// The Montgomery reduction sweep shared by the squaring path and the
/// bare reduction: clears the `k` low limbs of `p` (length `2k+1`) by
/// adding multiples of `n`, leaving `p[k..=2k]` holding the reduced
/// value (still `< 2n`, for the caller's conditional subtraction).
///
/// Rows are processed **in pairs**: the two rows' multiply-accumulate
/// chains interleave in one fused loop (like the fused CIOS multiply),
/// so the serial carry chain that otherwise bounds the sweep's latency
/// is halved. Every intermediate stays provably inside `u128`; the
/// pair's combined tail carry is absorbed with a short (almost always
/// one-step) ripple.
fn reduce_sweep(p: &mut [u64], n: &[u64], n0inv: u64) {
    let k = n.len();
    debug_assert_eq!(p.len(), 2 * k + 1);
    if k < 2 {
        // Single-limb modulus: one plain row.
        let m = p[0].wrapping_mul(n0inv) as u128;
        let s = p[0] as u128 + m * n[0] as u128;
        let s2 = p[1] as u128 + (s >> 64);
        p[1] = s2 as u64;
        p[2] += (s2 >> 64) as u64;
        return;
    }
    let mut i = 0;
    while i + 1 < k {
        // Head: clear limbs i and i+1, deriving both row multipliers.
        let m1 = p[i].wrapping_mul(n0inv) as u128;
        let s = p[i] as u128 + m1 * n[0] as u128;
        debug_assert_eq!(s as u64, 0);
        let c1 = (s >> 64) as u64;
        let s = p[i + 1] as u128 + m1 * n[1] as u128 + c1 as u128;
        let t1 = s as u64;
        let mut c1 = (s >> 64) as u64;
        let m2 = t1.wrapping_mul(n0inv) as u128;
        let s = t1 as u128 + m2 * n[0] as u128;
        debug_assert_eq!(s as u64, 0);
        let mut c2 = (s >> 64) as u64;
        // Fused body: row i applies n[j], row i+1 applies n[j-1], both
        // at position i+j — one load/store per position, two
        // independent multiply chains.
        for j in 2..k {
            let s = p[i + j] as u128 + m1 * n[j] as u128 + c1 as u128;
            c1 = (s >> 64) as u64;
            let s2 = (s as u64) as u128 + m2 * n[j - 1] as u128 + c2 as u128;
            c2 = (s2 >> 64) as u64;
            p[i + j] = s2 as u64;
        }
        // Tail at position i+k: row i+1's top limb product plus both
        // running carries (two u128 steps keep every sum in range).
        let s = p[i + k] as u128 + m2 * n[k - 1] as u128 + c2 as u128;
        let s2 = (s as u64) as u128 + c1 as u128;
        p[i + k] = s2 as u64;
        // Combined carry for position i+k+1 — may exceed 64 bits by a
        // hair, so it rides in u128 through the absorb loop.
        let mut carry = (s >> 64) + (s2 >> 64);
        let mut pos = i + k + 1;
        while carry > 0 {
            let s = p[pos] as u128 + carry;
            p[pos] = s as u64;
            carry = s >> 64;
            pos += 1;
        }
        i += 2;
    }
    if i < k {
        // Odd row count: one classic single row for the last limb.
        let m = p[i].wrapping_mul(n0inv) as u128;
        let mut carry: u64 = 0;
        for (pj, &nj) in p[i..i + k].iter_mut().zip(n) {
            let s = *pj as u128 + m * nj as u128 + carry as u128;
            *pj = s as u64;
            carry = (s >> 64) as u64;
        }
        let mut carry = carry as u128;
        let mut pos = i + k;
        while carry > 0 {
            let s = p[pos] as u128 + carry;
            p[pos] = s as u64;
            carry = s >> 64;
            pos += 1;
        }
    }
}

/// `out = t mod n` given `t < 2n`, where `t` carries one extra limb
/// beyond `n`'s `k`: a compare and at most one subtraction.
fn conditional_sub(t: &[u64], n: &[u64], out: &mut [u64]) {
    let k = n.len();
    debug_assert_eq!(t.len(), k + 1);
    debug_assert!(out.len() >= k);
    let out = &mut out[..k];
    let needs_sub = t[k] != 0 || ge_limbs(&t[..k], n);
    if needs_sub {
        let mut borrow: u64 = 0;
        for j in 0..k {
            let (d1, b1) = t[j].overflowing_sub(n[j]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[j] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
    } else {
        out.copy_from_slice(&t[..k]);
    }
}

/// `x^{-1} mod 2^64` for odd `x`, by Newton–Hensel lifting (each step
/// doubles the number of correct low bits; 6 steps from 3 bits > 64).
fn word_inverse(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // 3 correct bits: x·x ≡ 1 (mod 8) for odd x.
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// `a >= b` over equal-length little-endian limb slices.
fn ge_limbs(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for j in (0..a.len()).rev() {
        if a[j] != b[j] {
            return a[j] > b[j];
        }
    }
    true
}

/// Limbs of `v` zero-padded to exactly `k` words (allocating form, for
/// one-time setup paths).
fn pad_limbs(v: &UBig, k: usize) -> Vec<u64> {
    debug_assert!(v.limb_count() <= k);
    let mut out = v.limbs.clone();
    out.resize(k, 0);
    out
}

/// Writes `v`'s limbs into `buf`, zero-padded — the allocation-free
/// staging step.
fn pad_into(v: &UBig, buf: &mut [u64]) {
    debug_assert!(v.limb_count() <= buf.len());
    buf[..v.limbs.len()].copy_from_slice(&v.limbs);
    buf[v.limbs.len()..].fill(0);
}

/// Normalized [`UBig`] from a padded limb buffer (allocates the result).
fn to_ubig(limbs: &[u64]) -> UBig {
    let mut v = UBig {
        limbs: limbs.to_vec(),
    };
    v.normalize();
    v
}

/// Overwrites `out` with the given limbs, reusing its buffer.
fn set_limbs(out: &mut UBig, limbs: &[u64]) {
    out.limbs.clear();
    out.limbs.extend_from_slice(limbs);
    out.normalize();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_below, random_odd_bits};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(v: u64) -> UBig {
        UBig::from_u64(v)
    }

    #[test]
    fn word_inverse_odd_values() {
        for x in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            assert_eq!(x.wrapping_mul(word_inverse(x)), 1, "x={x}");
        }
    }

    #[test]
    fn modpow_matches_generic_small() {
        let m = n(1_000_003); // odd prime
        let ctx = MontgomeryCtx::new(&m);
        for base in [0u64, 1, 2, 12345, 1_000_002] {
            for exp in [0u64, 1, 2, 3, 65_537, u64::MAX] {
                assert_eq!(
                    ctx.modpow(&n(base), &n(exp)),
                    n(base).modpow_generic(&n(exp), &m),
                    "base={base} exp={exp}"
                );
                assert_eq!(
                    ctx.modpow_fixed_window(&n(base), &n(exp)),
                    n(base).modpow_generic(&n(exp), &m),
                    "fixed window: base={base} exp={exp}"
                );
            }
        }
    }

    #[test]
    fn modpow_matches_generic_multi_limb() {
        let mut rng = StdRng::seed_from_u64(77);
        for bits in [65usize, 128, 192, 512] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            for _ in 0..5 {
                let base = random_below(&mut rng, &m);
                let exp = random_below(&mut rng, &m);
                assert_eq!(
                    ctx.modpow(&base, &exp),
                    base.modpow_generic(&exp, &m),
                    "bits={bits}"
                );
                assert_eq!(
                    ctx.modpow_fixed_window(&base, &exp),
                    base.modpow_generic(&exp, &m),
                    "fixed window: bits={bits}"
                );
            }
        }
    }

    #[test]
    fn modpow_reduces_oversized_base() {
        let m = n(10_007);
        let ctx = MontgomeryCtx::new(&m);
        let big_base = n(10_007 * 3 + 17);
        assert_eq!(
            ctx.modpow(&big_base, &n(12)),
            n(17).modpow_generic(&n(12), &m)
        );
        assert_eq!(
            ctx.modpow_fixed_window(&big_base, &n(12)),
            n(17).modpow_generic(&n(12), &m)
        );
    }

    #[test]
    fn fermat_little_theorem() {
        let p = n(1_000_000_007);
        let ctx = MontgomeryCtx::new(&p);
        for a in [2u64, 3, 999_999_999] {
            assert_eq!(ctx.modpow(&n(a), &n(1_000_000_006)), UBig::one());
        }
    }

    #[test]
    fn modpow_into_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(90);
        let m = random_odd_bits(&mut rng, 256);
        let ctx = MontgomeryCtx::new(&m);
        let mut scratch = MontScratch::new();
        let mut out = UBig::zero();
        for _ in 0..8 {
            let base = random_below(&mut rng, &m);
            let exp = random_below(&mut rng, &m);
            ctx.modpow_into(&base, &exp, &mut scratch, &mut out);
            assert_eq!(out, base.modpow_generic(&exp, &m));
        }
        // Degenerate shapes through the same scratch and output.
        ctx.modpow_into(&n(5), &UBig::zero(), &mut scratch, &mut out);
        assert_eq!(out, UBig::one());
        ctx.modpow_into(&UBig::zero(), &n(5), &mut scratch, &mut out);
        assert_eq!(out, UBig::zero());
    }

    #[test]
    fn one_scratch_serves_many_widths() {
        let mut rng = StdRng::seed_from_u64(91);
        let mut scratch = MontScratch::new();
        let mut out = UBig::zero();
        for bits in [64usize, 512, 128, 1024, 65] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            let base = random_below(&mut rng, &m);
            let exp = random_below(&mut rng, &m);
            ctx.modpow_into(&base, &exp, &mut scratch, &mut out);
            assert_eq!(out, base.modpow_generic(&exp, &m), "bits={bits}");
            let mut prod = UBig::zero();
            ctx.mulmod_into(&base, &exp, &mut scratch, &mut prod);
            assert_eq!(prod, base.mulmod(&exp, &m), "bits={bits}");
        }
    }

    #[test]
    fn sliding_window_uses_fewer_multiplies_than_fixed_window() {
        // The PR 4 acceptance regression: for a pinned 2048-bit
        // exponent the sliding-window recoding must perform strictly
        // fewer Montgomery multiplications (squarings + multiplies +
        // reductions all count) than the 4-bit fixed-window ladder.
        let mut rng = StdRng::seed_from_u64(92);
        let m = random_odd_bits(&mut rng, 2048);
        let base = random_below(&mut rng, &m);
        let mut exp = random_below(&mut rng, &m);
        exp.set_bit(2047);
        assert_eq!(exp.bit_len(), 2048, "exponent must exercise full width");
        let ctx = MontgomeryCtx::new(&m);

        let before = ops_trace::mont_mul_calls();
        let sliding = ctx.modpow(&base, &exp);
        let sliding_count = ops_trace::mont_mul_calls() - before;

        let before = ops_trace::mont_mul_calls();
        let fixed = ctx.modpow_fixed_window(&base, &exp);
        let fixed_count = ops_trace::mont_mul_calls() - before;

        assert_eq!(sliding, fixed, "paths must agree bit for bit");
        assert_eq!(
            sliding,
            base.modpow_generic(&exp, &m),
            "2048-bit differential against the generic ladder"
        );
        assert!(
            sliding_count < fixed_count,
            "sliding window must multiply strictly less: {sliding_count} vs {fixed_count}"
        );
        // The recoding buys roughly (1/4 - 1/6)·bits multiplies; be
        // loose but meaningful: at least 100 fewer for 2048 bits.
        assert!(
            fixed_count - sliding_count >= 100,
            "expected a substantive saving, got {sliding_count} vs {fixed_count}"
        );
    }

    #[test]
    fn mulmod_matches_plain() {
        let mut rng = StdRng::seed_from_u64(78);
        let m = random_odd_bits(&mut rng, 256);
        let ctx = MontgomeryCtx::new(&m);
        for _ in 0..20 {
            let a = random_below(&mut rng, &m);
            let b = random_below(&mut rng, &m);
            assert_eq!(ctx.mulmod(&a, &b), a.mulmod(&b, &m));
        }
    }

    #[test]
    fn mont_domain_round_trip_and_products() {
        let mut rng = StdRng::seed_from_u64(93);
        for bits in [64usize, 192, 320] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            let a = random_below(&mut rng, &m);
            let b = random_below(&mut rng, &m);
            let a_m = ctx.to_mont(&a);
            let b_m = ctx.to_mont(&b);
            assert_eq!(ctx.from_mont(&a_m), a, "round trip");
            assert_eq!(
                ctx.from_mont(&ctx.mont_mul_elem(&a_m, &b_m)),
                a.mulmod(&b, &m),
                "in-domain product"
            );
            assert_eq!(
                ctx.mont_mul_mixed(&a, &b_m),
                a.mulmod(&b, &m),
                "single-pass mixed product"
            );
            assert_eq!(ctx.from_mont(&ctx.one_mont()), UBig::one());
        }
    }

    #[test]
    fn modpow_mont_stays_in_domain() {
        let mut rng = StdRng::seed_from_u64(94);
        let m = random_odd_bits(&mut rng, 256);
        let ctx = MontgomeryCtx::new(&m);
        let base = random_below(&mut rng, &m);
        let exp = random_below(&mut rng, &m);
        let base_m = ctx.to_mont(&base);
        let pow_m = ctx.modpow_mont(&base_m, &exp);
        assert_eq!(ctx.from_mont(&pow_m), base.modpow_generic(&exp, &m));
        // Degenerate exponents.
        assert_eq!(
            ctx.from_mont(&ctx.modpow_mont(&base_m, &UBig::zero())),
            UBig::one()
        );
        assert_eq!(ctx.from_mont(&ctx.modpow_mont(&base_m, &UBig::one())), base);
        // Zero base.
        let zero_m = ctx.to_mont(&UBig::zero());
        assert!(zero_m.is_zero());
        assert!(ctx.modpow_mont(&zero_m, &exp).is_zero());
    }

    #[test]
    fn no_divrem_after_setup() {
        let mut rng = StdRng::seed_from_u64(79);
        let m = random_odd_bits(&mut rng, 256);
        let base = random_below(&mut rng, &m);
        let exp = random_below(&mut rng, &m);
        let ctx = MontgomeryCtx::new(&m);
        let table = FixedBaseTable::new(Arc::new(ctx.clone()), &base, 256);
        let before = ops_trace::divrem_calls();
        let _ = ctx.modpow(&base, &exp);
        let _ = ctx.modpow_fixed_window(&base, &exp);
        let _ = ctx.mulmod(&base, &exp);
        let _ = table.pow(&exp);
        let b_m = ctx.to_mont(&base);
        let _ = ctx.modpow_mont(&b_m, &exp);
        let _ = ctx.mont_mul_mixed(&exp, &b_m);
        let _ = ctx.from_mont(&b_m);
        assert_eq!(
            ops_trace::divrem_calls(),
            before,
            "Montgomery path must not divide after context setup"
        );
    }

    #[test]
    fn fixed_base_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(82);
        for bits in [64usize, 192, 320] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            let base = random_below(&mut rng, &m);
            let table = FixedBaseTable::new(Arc::new(ctx.clone()), &base, bits);
            for _ in 0..8 {
                let exp = random_below(&mut rng, &m);
                assert_eq!(table.pow(&exp), ctx.modpow(&base, &exp), "bits={bits}");
            }
            assert_eq!(table.pow(&UBig::zero()), UBig::one());
            assert_eq!(table.pow(&UBig::one()), base);
        }
    }

    #[test]
    fn fixed_base_oversized_exponent_falls_back() {
        let m = n(1_000_003);
        let ctx = MontgomeryCtx::new(&m);
        let table = FixedBaseTable::new(Arc::new(ctx.clone()), &n(5), 16);
        let big_exp = &UBig::one() << 40;
        assert_eq!(table.pow(&big_exp), ctx.modpow(&n(5), &big_exp));
    }

    #[test]
    fn batch_inv_matches_individual() {
        let mut rng = StdRng::seed_from_u64(80);
        let m = random_odd_bits(&mut rng, 128);
        let ctx = MontgomeryCtx::new(&m);
        let values: Vec<UBig> = (0..9)
            .map(|_| loop {
                let v = random_below(&mut rng, &m);
                if !v.is_zero() && v.gcd(&m).is_one() {
                    break v;
                }
            })
            .collect();
        let inverses = ctx.batch_inv(&values).expect("all invertible");
        for (v, inv) in values.iter().zip(&inverses) {
            assert_eq!(v.mulmod(inv, &m), UBig::one());
        }
    }

    #[test]
    fn batch_inv_uses_one_modinv() {
        let mut rng = StdRng::seed_from_u64(81);
        let p = crate::gen_prime(&mut rng, 96);
        let ctx = MontgomeryCtx::new(&p);
        for len in [1usize, 2, 7, 32] {
            let values: Vec<UBig> = (1..=len as u64).map(|i| n(i * 3 + 1)).collect();
            let before = ops_trace::modinv_calls();
            ctx.batch_inv(&values).expect("prime modulus");
            assert_eq!(
                ops_trace::modinv_calls() - before,
                1,
                "len={len}: exactly one inversion regardless of batch size"
            );
        }
    }

    #[test]
    fn batch_inv_rejects_non_invertible() {
        let m = n(9); // odd, composite
        let ctx = MontgomeryCtx::new(&m);
        assert!(ctx.batch_inv(&[n(2), n(3)]).is_none(), "3 divides 9");
        assert!(
            ctx.batch_inv(&[n(2), UBig::zero()]).is_none(),
            "zero element"
        );
        assert_eq!(ctx.batch_inv(&[]), Some(Vec::new()));
    }

    #[test]
    fn recoded_digits_are_odd_and_reconstruct_the_exponent() {
        let mut rng = StdRng::seed_from_u64(95);
        let mut ops = Vec::new();
        for bits in [1usize, 5, 64, 200] {
            for _ in 0..10 {
                let exp = {
                    let mut e = random_below(&mut rng, &(&UBig::one() << bits));
                    if e.is_zero() {
                        e = UBig::one();
                    }
                    e
                };
                recode_exponent(&exp, &mut ops);
                // Replay the recoding over plain integers (mod nothing):
                // value = Σ windows as the evaluation loop applies them.
                let mut value = UBig::zero();
                for op in &ops {
                    for _ in 0..op.squares {
                        value = value.shl_bits(1);
                    }
                    if op.digit != 0 {
                        assert_eq!(op.digit % 2, 1, "digits must be odd");
                        assert!(op.digit < 32, "digits must fit 5 bits");
                        value = value.add_ref(&UBig::from_u64(op.digit as u64));
                    }
                }
                assert_eq!(value, exp, "recoding must reconstruct the exponent");
            }
        }
    }

    #[test]
    fn modpow_above_karatsuba_threshold_matches_generic() {
        // End-to-end: sliding-window exponentiation over 4032/4096/4160-
        // bit moduli (63, 64 and an odd 65 limbs, twice the protocol's
        // widest modulus: the squaring triangle's paired rows and
        // carry ripples at widths the 2048-bit keys never reach)
        // against the division-based ladder. Short-ish exponents keep
        // the generic oracle affordable in debug builds.
        let mut rng = StdRng::seed_from_u64(0x4A7B);
        for bits in [4032usize, 4096, 4160] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            let base = random_below(&mut rng, &m);
            for exp_bits in [1usize, 64, 160] {
                let mut exp = random_below(&mut rng, &(&UBig::one() << exp_bits));
                if exp.is_zero() {
                    exp = UBig::one();
                }
                assert_eq!(
                    ctx.modpow(&base, &exp),
                    base.modpow_generic(&exp, &m),
                    "bits={bits} exp_bits={exp_bits}"
                );
            }
        }
    }

    #[test]
    fn fixed_base_table_works_above_karatsuba_threshold() {
        // FixedBaseTable::new sizes its own scratch and calls mont_sq
        // directly; that scratch must cover mont_sq at a 64-limb
        // modulus, twice the protocol's widest.
        let mut rng = StdRng::seed_from_u64(0x4A7C);
        let m = random_odd_bits(&mut rng, 4096);
        let ctx = MontgomeryCtx::new(&m);
        let base = random_below(&mut rng, &m);
        let table = FixedBaseTable::new(Arc::new(ctx), &base, 64);
        let exp = UBig::from_u64(0xDEAD_BEEF_1234_5678);
        assert_eq!(table.pow(&exp), base.modpow_generic(&exp, &m));
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        MontgomeryCtx::new(&n(100));
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn modulus_one_rejected() {
        MontgomeryCtx::new(&UBig::one());
    }
}

#[cfg(test)]
mod lane_tests {
    //! `modpow_many` against per-base `modpow`: edge semantics, every
    //! instantiation of the lane engine, the accumulator bound at every
    //! width, the gates, and the `ops_trace` contracts.

    use super::*;
    use crate::random::{random_below, random_bits, random_odd_bits};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The scalar loop and the lane kernel, forced on for batches of any
    /// length. On a CPU without AVX-512 IFMA the second engine is the
    /// scalar loop again.
    fn engines() -> [(&'static str, Option<LaneKernel>); 2] {
        [("scalar loop", None), ("lanes", lanes::kernel())]
    }

    /// `modpow_many` under every engine, and through the public entry
    /// with its gates, against per-base `modpow`.
    fn assert_batch_matches(ctx: &MontgomeryCtx, bases: &[UBig], exp: &UBig, what: &str) {
        let want: Vec<UBig> = bases.iter().map(|b| ctx.modpow(b, exp)).collect();
        for (name, kernel) in engines() {
            assert_eq!(
                ctx.modpow_many_with(bases, exp, kernel, 1),
                want,
                "{what}: {name}, batch of {}",
                bases.len()
            );
        }
        assert_eq!(ctx.modpow_many(bases, exp), want, "{what}: public entry");
    }

    /// Exponent widths the debug profile can afford: its intrinsics are
    /// calls, not instructions.
    fn exp_bits(bits: usize) -> usize {
        if cfg!(debug_assertions) {
            bits.min(96)
        } else {
            bits
        }
    }

    #[test]
    fn edge_semantics_are_the_scalar_engines() {
        let mut rng = StdRng::seed_from_u64(0x1A9E);
        let moduli = [
            UBig::from_u64(1_000_003), // one lane limb
            random_odd_bits(&mut rng, 61),
            random_odd_bits(&mut rng, 64), // one 64-bit limb, two lane limbs
            random_odd_bits(&mut rng, 65),
            random_odd_bits(&mut rng, 521),
        ];
        for m in &moduli {
            let ctx = MontgomeryCtx::new(m);
            let special = [
                UBig::zero(),
                UBig::one(),
                m.sub_ref(&UBig::one()),
                m.clone(),                     // ≥ n: reduces to 0
                m.add_ref(&UBig::from_u64(5)), // ≥ n: reduces to 5
                m.mul_ref(&UBig::from_u64(3)).add_ref(&UBig::from_u64(17)), // several times n
            ];
            let exps = [
                UBig::zero(),
                UBig::one(),
                UBig::two(),
                random_bits(&mut rng, 40),
                m.sub_ref(&UBig::one()).shr_bits(1),
            ];
            // Idle lanes on either side of a full pass must not leak.
            for len in [0usize, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1] {
                let bases: Vec<UBig> = (0..len)
                    .map(|i| match special.get(i % 9) {
                        Some(v) => v.clone(),
                        None => random_below(&mut rng, m),
                    })
                    .collect();
                for exp in &exps {
                    let what = format!("{} bits, exp {} bits", m.bit_len(), exp.bit_len());
                    assert_batch_matches(&ctx, &bases, exp, &what);
                }
            }
        }
    }

    #[test]
    fn every_host_tier_matches_modpow() {
        // One full pass plus a ragged one through the lane kernel at the
        // two widths the protocol uses (RSA-2048's CRT halves, MODP-2048).
        // Without AVX-512 IFMA there is no kernel to run: the line below
        // says which case this host was.
        println!("lane tier exercised: {}", lanes::lane_tier());
        let mut rng = StdRng::seed_from_u64(0x71E2);
        for bits in [1024usize, 2048] {
            let m = random_odd_bits(&mut rng, bits);
            let ctx = MontgomeryCtx::new(&m);
            let bases: Vec<UBig> = (0..LANES + 3).map(|_| random_below(&mut rng, &m)).collect();
            let mut exp = random_bits(&mut rng, exp_bits(bits));
            exp.set_bit(exp_bits(bits) - 1);
            assert_batch_matches(&ctx, &bases, &exp, &format!("{bits} bits"));
        }
    }

    #[test]
    fn lazy_accumulators_hold_at_every_width() {
        // The column bound end to end: saturated bases (n − 1,
        // 2^(bits−1) − 1 and friends) under a saturated modulus, at every
        // protocol width. An overflowed column wraps and shows up as a
        // wrong power.
        let mut rng = StdRng::seed_from_u64(0xACC5);
        for bits in [64usize, 1024, 1536, 2048, 3072, 4096] {
            let all_ones = (&UBig::one() << bits).sub_ref(&UBig::one());
            for m in [all_ones.clone(), random_odd_bits(&mut rng, bits)] {
                let ctx = MontgomeryCtx::new(&m);
                let mut bases = vec![
                    m.sub_ref(&UBig::one()),
                    m.sub_ref(&UBig::two()),
                    all_ones.shr_bits(1),
                    all_ones.shr_bits(2),
                ];
                bases.resize_with(LANES, || random_below(&mut rng, &m));
                let mut exp = random_bits(&mut rng, exp_bits(bits).min(48));
                exp.set_bit(0);
                let want: Vec<UBig> = bases.iter().map(|b| ctx.modpow(b, &exp)).collect();
                for (name, kernel) in &engines()[1..] {
                    assert_eq!(
                        ctx.modpow_many_with(&bases, &exp, *kernel, 1),
                        want,
                        "{bits} bits: {name}"
                    );
                }
            }
        }
    }

    /// Lane rows the calling thread's arena holds after `f` ran on a
    /// fresh thread — zero means no batch took the lane path.
    fn lane_rows_after(f: impl FnOnce() + Send + 'static) -> usize {
        std::thread::spawn(move || {
            f();
            SCRATCH.with(|s| s.borrow().lanes.len())
        })
        .join()
        .expect("worker panicked")
    }

    #[test]
    fn wide_moduli_and_short_batches_take_the_scalar_loop() {
        let mut rng = StdRng::seed_from_u64(0x6A7E);
        // 4 096 bits is 79 lane limbs: a lane batch.
        let m = random_odd_bits(&mut rng, 4096);
        let ctx = MontgomeryCtx::new(&m);
        let bases: Vec<UBig> = (0..LANES).map(|_| random_below(&mut rng, &m)).collect();
        let md_rows = ctx.lane.as_ref().expect("4096 bits fits").scratch_rows();
        let rows = lane_rows_after(move || {
            let exp = UBig::from_u64(3);
            let want: Vec<UBig> = bases.iter().map(|b| ctx.modpow(b, &exp)).collect();
            assert_eq!(ctx.modpow_many(&bases, &exp), want);
        });
        assert_eq!(rows, if lanes::accelerated() { md_rows } else { 0 });

        // 53 195 bits is 1 024 lane limbs: over the accumulator bound.
        let wide = (&UBig::one() << 53_194).add_ref(&UBig::one());
        let ctx_wide = MontgomeryCtx::new(&wide);
        assert!(ctx_wide.lane.is_none());
        let bases: Vec<UBig> = (0..lanes::MIN_LANE_BATCH)
            .map(|_| random_below(&mut rng, &wide))
            .collect();
        let exp = UBig::from_u64(3);
        let want: Vec<UBig> = bases.iter().map(|b| ctx_wide.modpow(b, &exp)).collect();
        for (name, kernel) in engines() {
            assert_eq!(
                ctx_wide.modpow_many_with(&bases, &exp, kernel, 1),
                want,
                "{name}"
            );
        }
        assert_eq!(
            lane_rows_after(move || {
                ctx_wide.modpow_many(&bases, &exp);
            }),
            0,
            "a batch past the limb bound must not touch the lane arena"
        );

        // A modulus the lanes do take, one base short of a pass.
        let m = random_odd_bits(&mut rng, 256);
        let bases: Vec<UBig> = (0..LANES + lanes::MIN_LANE_BATCH)
            .map(|_| random_below(&mut rng, &m))
            .collect();
        let exp = random_bits(&mut rng, 64);
        for (len, expect_lanes) in [
            (lanes::MIN_LANE_BATCH - 1, false),
            (lanes::MIN_LANE_BATCH, true),
            (LANES + lanes::MIN_LANE_BATCH - 1, true),
        ] {
            let (ctx, bases, exp) = (MontgomeryCtx::new(&m), bases[..len].to_vec(), exp.clone());
            let md_rows = ctx.lane.as_ref().expect("256 bits fits").scratch_rows();
            let rows = lane_rows_after(move || {
                let want: Vec<UBig> = bases.iter().map(|b| ctx.modpow(b, &exp)).collect();
                assert_eq!(ctx.modpow_many(&bases, &exp), want);
            });
            let expected = if expect_lanes && lanes::accelerated() {
                md_rows
            } else {
                0
            };
            assert_eq!(rows, expected, "batch of {len}");
        }
    }

    #[test]
    fn batch_divides_nothing_and_counts_the_scalar_schedule() {
        let mut rng = StdRng::seed_from_u64(0x0B5C);
        let m = random_odd_bits(&mut rng, 521);
        let ctx = MontgomeryCtx::new(&m);
        let exp = random_bits(&mut rng, 300);
        let bases: Vec<UBig> = (0..LANES + 5).map(|_| random_below(&mut rng, &m)).collect();

        let before = ops_trace::mont_mul_calls();
        let _ = ctx.modpow(&bases[0], &exp);
        let per_base = ops_trace::mont_mul_calls() - before;
        assert!(per_base > 300, "the schedule squares once per exponent bit");

        for (name, kernel) in engines() {
            let (div, inv, mul) = (
                ops_trace::divrem_calls(),
                ops_trace::modinv_calls(),
                ops_trace::mont_mul_calls(),
            );
            let _ = ctx.modpow_many_with(&bases, &exp, kernel, 1);
            assert_eq!(ops_trace::divrem_calls(), div, "{name}: no division");
            assert_eq!(ops_trace::modinv_calls(), inv, "{name}: no inversion");
            assert_eq!(
                ops_trace::mont_mul_calls() - mul,
                per_base * bases.len() as u64,
                "{name}: B × the scalar schedule's Montgomery steps"
            );
        }
    }
}
