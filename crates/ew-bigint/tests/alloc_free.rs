//! The zero-allocation acceptance criterion of the Montgomery engine:
//! steady-state `modpow_into` / `mulmod_into` calls (warm scratch
//! arena, reduced operands, warm output buffer) must perform **zero**
//! heap allocations, and the thread-local-arena conveniences
//! (`modpow`, `mulmod`) at most one — the returned result.
//!
//! Verified with a counting global allocator: a thin wrapper around
//! [`std::alloc::System`] that tallies allocations (and reallocations)
//! per thread. The wrapper lives in this dedicated integration-test
//! binary so no other test suite runs under it.

use ew_bigint::{random_below, random_odd_bits, MontScratch, MontgomeryCtx, UBig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations; `realloc` counts too (a growing
/// buffer is exactly the failure this test exists to catch).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Runs `f` and returns how many allocations it performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let result = f();
    (allocations() - before, result)
}

#[test]
fn steady_state_modpow_and_mulmod_allocate_nothing() {
    // 4096 bits crosses the Karatsuba squaring threshold: its recursion
    // workspace must come out of the warmed arena, not fresh Vecs.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    for bits in [256usize, 1024, 2048, 4096] {
        let m = random_odd_bits(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m);
        let base = random_below(&mut rng, &m);
        let exp = random_below(&mut rng, &m);
        let other = random_below(&mut rng, &m);

        let mut scratch = MontScratch::new();
        let mut out = UBig::zero();
        // Warm-up: sizes the arena and the output buffer for this width.
        ctx.modpow_into(&base, &exp, &mut scratch, &mut out);
        ctx.mulmod_into(&base, &other, &mut scratch, &mut out);

        // Steady state: zero heap allocations, repeatedly.
        for i in 0..3 {
            let (allocs, _) = count_allocs(|| ctx.modpow_into(&base, &exp, &mut scratch, &mut out));
            assert_eq!(
                allocs, 0,
                "bits={bits} iter={i}: steady-state modpow_into must not allocate"
            );
            assert_eq!(out, base.modpow_generic(&exp, &m), "and must stay correct");

            let (allocs, _) =
                count_allocs(|| ctx.mulmod_into(&base, &other, &mut scratch, &mut out));
            assert_eq!(
                allocs, 0,
                "bits={bits} iter={i}: steady-state mulmod_into must not allocate"
            );
            assert_eq!(out, base.mulmod(&other, &m), "and must stay correct");
        }
    }
}

#[test]
fn thread_local_conveniences_allocate_only_the_result() {
    let mut rng = StdRng::seed_from_u64(0xA110D);
    let m = random_odd_bits(&mut rng, 1024);
    let ctx = MontgomeryCtx::new(&m);
    let base = random_below(&mut rng, &m);
    let exp = random_below(&mut rng, &m);

    // Warm the per-thread arena.
    let _ = ctx.modpow(&base, &exp);
    let _ = ctx.mulmod(&base, &exp);

    let (allocs, got) = count_allocs(|| ctx.modpow(&base, &exp));
    assert!(
        allocs <= 1,
        "warm modpow may allocate only its result, measured {allocs}"
    );
    assert_eq!(got, base.modpow_generic(&exp, &m));

    let (allocs, got) = count_allocs(|| ctx.mulmod(&base, &exp));
    assert!(
        allocs <= 1,
        "warm mulmod may allocate only its result, measured {allocs}"
    );
    assert_eq!(got, base.mulmod(&exp, &m));
}

#[test]
fn scratch_arena_grows_monotonically_across_widths() {
    // Visiting a smaller modulus after a larger one must not shrink or
    // reallocate the arena: the 2048-bit warm-up covers every smaller
    // width.
    let mut rng = StdRng::seed_from_u64(0xA110E);
    let big = random_odd_bits(&mut rng, 2048);
    let small = random_odd_bits(&mut rng, 256);
    let ctx_big = MontgomeryCtx::new(&big);
    let ctx_small = MontgomeryCtx::new(&small);
    let base_big = random_below(&mut rng, &big);
    let base_small = random_below(&mut rng, &small);
    let exp_small = random_below(&mut rng, &small);

    let mut scratch = MontScratch::new();
    let mut out = UBig::zero();
    ctx_big.modpow_into(&base_big, &base_big, &mut scratch, &mut out);

    let (allocs, _) =
        count_allocs(|| ctx_small.modpow_into(&base_small, &exp_small, &mut scratch, &mut out));
    assert_eq!(allocs, 0, "smaller width reuses the warmed arena");
    assert_eq!(out, base_small.modpow_generic(&exp_small, &small));
}

#[test]
fn warm_modpow_many_allocates_only_its_results() {
    // One full lane pass plus a ragged tail, lanes or the scalar loop
    // by its length (on a CPU without AVX-512 IFMA all of it is the
    // scalar loop, and the line printed says so): either way a warm call
    // allocates the result vector and one limb buffer per result —
    // table, window and accumulators live in the per-thread arena.
    let mut rng = StdRng::seed_from_u64(0xA110F);
    let m = random_odd_bits(&mut rng, 1024);
    let ctx = MontgomeryCtx::new(&m);
    let bases: Vec<UBig> = (0..30).map(|_| random_below(&mut rng, &m)).collect();
    let exp = UBig::from_u64(0xF00D_FACE_CAFE_BEEF);
    println!("lane tier exercised: {}", ew_bigint::lane_tier());

    let _ = ctx.modpow_many(&bases, &exp);
    for len in [30usize, 24, 14, 5, 3, 0] {
        let (allocs, got) = count_allocs(|| ctx.modpow_many(&bases[..len], &exp));
        assert!(
            allocs <= len as u64 + 1,
            "warm batch of {len} may allocate only its results, measured {allocs}"
        );
        for (base, power) in bases.iter().zip(&got) {
            assert_eq!(power, &base.modpow_generic(&exp, &m));
        }
    }
}
