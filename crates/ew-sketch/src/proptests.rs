//! Property tests for the sketch layer: the CMS lower-bound invariant,
//! merge linearity, and blinded-aggregation round trips.

use crate::blinded::{BlindedSketch, SketchAccumulator};
use crate::cms::{host_tiers, sweep_tier, CountMinSketch, SweepFn};
use crate::exact::ExactCounter;
use crate::hashing::RowHash;
use crate::params::CmsParams;
use proptest::prelude::*;
use std::ops::Range;

fn small_params() -> impl Strategy<Value = CmsParams> {
    (1usize..6, 4usize..64, any::<u64>()).prop_map(|(d, w, seed)| CmsParams::new(d, w, seed))
}

/// Widths the range sweep is checked at: degenerate, tiny, odd, the
/// benchmark worlds' powers of two, the paper's §7.1 width and one more
/// `from_error_bounds` width.
fn sweep_widths() -> [usize; 7] {
    let sized = CmsParams::from_error_bounds(0.01, 0.01, 1_000, 0).width;
    [1, 2, 37, 1_024, 2_048, 2_719, sized]
}

/// Shares of zero cells the range sweep is checked at, in sixteenths:
/// none, half, all but one in sixteen (with several rows, mostly whole
/// sixteen-lane groups without a live item, and isolated live ones),
/// and all.
const ZERO_SIXTEENTHS: [u32; 4] = [0, 8, 15, 16];

/// Distinct pseudo-random cells, so a wrong column shows, about
/// `zero_sixteenths` sixteenths of them zeroed.
fn noise_cells(n: usize, mut x: u64, zero_sixteenths: u32) -> Vec<u32> {
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cell = (x >> 32) as u32;
            if cell >> 28 < zero_sixteenths {
                0
            } else {
                cell
            }
        })
        .collect()
}

/// What `query_range` must emit: every id whose `query(id)` is positive,
/// in order, with it.
fn point_queries(cms: &CountMinSketch, ids: Range<u64>) -> Vec<(u64, u32)> {
    ids.map(|id| (id, cms.query(id)))
        .filter(|&(_, estimate)| estimate > 0)
        .collect()
}

/// What one sweep emits, flattened to `(id, estimate)` pairs.
fn swept(sweep: SweepFn, cms: &CountMinSketch, ids: Range<u64>) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    sweep(cms, ids, &mut |first, offsets, estimates| {
        assert_eq!(offsets.len(), estimates.len());
        out.extend(
            offsets
                .iter()
                .zip(estimates)
                .map(|(&offset, &estimate)| (first + offset as u64, estimate)),
        )
    });
    out
}

/// The dispatched sweep, then every tier this host runs called directly.
fn sweeps() -> Vec<(&'static str, SweepFn)> {
    let dispatched: SweepFn = |cms, ids, emit| cms.query_range(ids, emit);
    let mut sweeps = vec![("dispatched", dispatched)];
    sweeps.extend(host_tiers());
    sweeps
}

#[test]
fn query_range_dispatches_to_the_widest_host_tier() {
    let names: Vec<&str> = host_tiers().iter().map(|t| t.0).collect();
    println!(
        "sweep tiers exercised: {names:?}; dispatch picks {}",
        sweep_tier()
    );
    assert_eq!(
        sweep_tier(),
        *names.last().unwrap(),
        "dispatch runs the widest tier"
    );
}

#[test]
fn query_range_equals_point_queries_at_the_row_hash_corners() {
    const P: u64 = (1 << 61) - 1;
    // Never wraps; wraps on the first step; steps backwards by one;
    // wraps on all but every (p/3)-th step.
    let rows = vec![
        RowHash::from_coefficients(1, 0),
        RowHash::from_coefficients(1, P - 1),
        RowHash::from_coefficients(P - 1, P - 1),
        RowHash::from_coefficients(P - 3, 5),
    ];
    for (width, zeros) in sweep_widths()
        .into_iter()
        .flat_map(|width| ZERO_SIXTEENTHS.map(|zeros| (width, zeros)))
    {
        let cells = noise_cells(rows.len() * width, width as u64, zeros);
        let cms = CountMinSketch::with_rows(width, rows.clone(), cells);
        for ids in [
            0..9_000,
            1..9,
            4_095..4_097,
            5..5,
            // Items crossing the prime, and the end of the item space.
            P - 700..P + 700,
            u64::MAX - 1_500..u64::MAX,
        ] {
            let want = point_queries(&cms, ids.clone());
            for (tier, sweep) in sweeps() {
                assert_eq!(
                    swept(sweep, &cms, ids.clone()),
                    want,
                    "tier={tier} width={width} zeros={zeros}/16 ids={ids:?}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn query_range_equals_point_queries(
        seed in any::<u64>(),
        depth in 1usize..9,
        width in 0usize..7,
        start in prop_oneof![Just(0u64), 0u64..5_000, any::<u64>()],
        len in prop_oneof![Just(0u64), 1u64..40, 1u64..9_000],
        zeros in 0usize..4,
    ) {
        let params = CmsParams::new(depth, sweep_widths()[width], seed);
        let cells = noise_cells(params.num_cells(), seed ^ 0x5EED, ZERO_SIXTEENTHS[zeros]);
        let cms = CountMinSketch::from_cells(params, cells, 0);
        let start = start.min(u64::MAX - len);
        let ids = start..start + len;
        let want = point_queries(&cms, ids.clone());
        for (tier, sweep) in sweeps() {
            prop_assert_eq!(swept(sweep, &cms, ids.clone()), want.clone(), "tier={}", tier);
        }
    }

    #[test]
    fn cms_never_underestimates(
        params in small_params(),
        items in proptest::collection::vec(0u64..50, 0..300),
    ) {
        let mut cms = CountMinSketch::new(params);
        let mut exact = ExactCounter::new();
        for &i in &items {
            cms.update(i);
            exact.update(i);
        }
        for (item, count) in exact.iter() {
            prop_assert!(cms.query(item) as u64 >= count);
        }
        prop_assert_eq!(cms.insertions(), items.len() as u64);
    }

    #[test]
    fn cms_row_sums_equal_insertions(
        params in small_params(),
        items in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        // Each insertion adds exactly 1 to every row.
        let mut cms = CountMinSketch::new(params);
        for &i in &items {
            cms.update(i);
        }
        for r in 0..params.depth {
            let row_sum: u64 = cms.cells()
                [r * params.width..(r + 1) * params.width]
                .iter()
                .map(|&c| c as u64)
                .sum();
            prop_assert_eq!(row_sum, items.len() as u64);
        }
    }

    #[test]
    fn merge_equals_combined_stream(
        params in small_params(),
        xs in proptest::collection::vec(0u64..100, 0..100),
        ys in proptest::collection::vec(0u64..100, 0..100),
    ) {
        let mut merged = CountMinSketch::new(params);
        let mut a = CountMinSketch::new(params);
        let mut b = CountMinSketch::new(params);
        for &x in &xs {
            a.update(x);
            merged.update(x);
        }
        for &y in &ys {
            b.update(y);
            merged.update(y);
        }
        a.merge(&b);
        prop_assert_eq!(a.cells(), merged.cells());
    }

    #[test]
    fn accumulator_without_blinding_is_cellwise_sum(
        params in small_params(),
        streams in proptest::collection::vec(
            proptest::collection::vec(0u64..40, 0..50), 1..5),
    ) {
        // Raw (unblinded) reports: the accumulator must equal merge().
        let mut acc = SketchAccumulator::new(params);
        let mut merged = CountMinSketch::new(params);
        let mut total = 0u64;
        for stream in &streams {
            let mut s = CountMinSketch::new(params);
            for &i in stream {
                s.update(i);
            }
            total += s.insertions();
            merged.merge(&s);
            acc.add(&BlindedSketch::from_raw(params, s.cells().to_vec()));
        }
        let agg = acc.finalize(total);
        prop_assert_eq!(agg.cells(), merged.cells());
    }

    #[test]
    fn query_monotone_in_updates(params in small_params(), item in 0u64..1000) {
        let mut cms = CountMinSketch::new(params);
        let mut last = cms.query(item);
        for _ in 0..5 {
            cms.update(item);
            let now = cms.query(item);
            prop_assert!(now > last, "each update raises the estimate");
            last = now;
        }
    }
}
