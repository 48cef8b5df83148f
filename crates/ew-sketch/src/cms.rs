//! The count-min sketch (Cormode–Muthukrishnan, J. Algorithms 2005).

use crate::hashing::{fold_item, RowHash};
use crate::params::CmsParams;
use std::ops::Range;

/// Items each row of [`CountMinSketch::query_range`] steps at once on
/// the portable tier. Two lanes' state and the sweep's constants fit
/// the registers of a baseline x86-64; four spill.
const SWEEP_LANES: usize = 2;
/// Items per row-major pass of [`CountMinSketch::query_range`]: the
/// running minima of one block (16 KB) stay in L1 while every row
/// visits them, and the lanes are set up once per row per block. A
/// multiple of every tier's lanes.
const SWEEP_BLOCK: usize = 4096;

/// A count-min sketch over 64-bit items with 4-byte (u32) cells.
///
/// Cells saturate rather than wrap on local updates — a single client
/// never legitimately counts near `u32::MAX`, and saturating keeps the
/// "never under-estimate within u32 range" invariant intact. (The
/// *blinded* wire form in [`crate::blinded`] wraps instead, because
/// blinding arithmetic lives in `Z_{2^32}`.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    params: CmsParams,
    rows: Vec<RowHash>,
    /// Row-major cells: `cells[row * width + col]`.
    cells: Vec<u32>,
    /// Total number of insertions (`N` in the error bound).
    insertions: u64,
}

impl CountMinSketch {
    /// Empty sketch with the given dimensions.
    pub fn new(params: CmsParams) -> Self {
        let rows = (0..params.depth)
            .map(|r| RowHash::derive(params.hash_seed, r))
            .collect();
        CountMinSketch {
            params,
            rows,
            cells: vec![0u32; params.num_cells()],
            insertions: 0,
        }
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CmsParams {
        self.params
    }

    /// Raw cells, row-major. This is what gets blinded and shipped.
    pub fn cells(&self) -> &[u32] {
        &self.cells
    }

    /// Consumes the sketch, yielding its row-major cells without a copy
    /// (what [`crate::blinded::BlindedSketch::from_sketch`] blinds in
    /// place).
    pub fn into_cells(self) -> Vec<u32> {
        self.cells
    }

    /// Rebuilds a sketch from raw cells (e.g. an unblinded aggregate),
    /// so the standard `query` API works on server-side aggregates.
    ///
    /// `insertions` is the caller's best estimate of the total count
    /// (what [`Self::insertions`] reports).
    pub fn from_cells(params: CmsParams, cells: Vec<u32>, insertions: u64) -> Self {
        assert_eq!(cells.len(), params.num_cells(), "cell count mismatch");
        let rows = (0..params.depth)
            .map(|r| RowHash::derive(params.hash_seed, r))
            .collect();
        CountMinSketch {
            params,
            rows,
            cells,
            insertions,
        }
    }

    /// A sketch over hand-picked row hashes instead of derived ones.
    #[cfg(test)]
    pub(crate) fn with_rows(width: usize, rows: Vec<RowHash>, cells: Vec<u32>) -> Self {
        let params = CmsParams::new(rows.len(), width, 0);
        assert_eq!(cells.len(), params.num_cells(), "cell count mismatch");
        CountMinSketch {
            params,
            rows,
            cells,
            insertions: 0,
        }
    }

    /// Total insertions so far.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// `X.update(x)`: adds one occurrence of `item`.
    pub fn update(&mut self, item: u64) {
        self.update_by(item, 1);
    }

    /// Adds `count` occurrences of `item`.
    pub fn update_by(&mut self, item: u64, count: u32) {
        let width = self.params.width;
        for (r, row) in self.rows.iter().enumerate() {
            let idx = r * width + row.column(item, width);
            self.cells[idx] = self.cells[idx].saturating_add(count);
        }
        self.insertions += count as u64;
    }

    /// Convenience: update with an arbitrary byte identifier (folded).
    pub fn update_bytes(&mut self, item: &[u8]) {
        self.update(fold_item(item));
    }

    /// `X.query(x)`: the frequency estimate `min_j X[j, h_j(x)]`.
    ///
    /// Guarantees (for an unblinded, non-overflowed sketch):
    /// `true <= estimate` always, and `estimate <= true + ε·N` with
    /// probability `1 − δ` for the `(ε, δ)` the sketch was sized for.
    pub fn query(&self, item: u64) -> u32 {
        let width = self.params.width;
        self.rows
            .iter()
            .enumerate()
            .map(|(r, row)| self.cells[r * width + row.column(item, width)])
            .min()
            .expect("depth >= 1")
    }

    /// [`Self::query`] for every item of `ids`, keeping the positive
    /// estimates only — the server's sweep over the enumerable ad-ID
    /// space (§4.1), most of which no client reported. They are handed
    /// to `emit` a block of consecutive items at a time, in order, each
    /// block with its first item: the live items' offsets from it,
    /// ascending, and their estimates beside them.
    ///
    /// Consecutive items make each row hash an arithmetic progression
    /// modulo 2^61 − 1, so after one real hash per lane the sweep only
    /// adds and conditionally subtracts: no multiply, no division, for
    /// any width. A block of items is walked row-major, each row
    /// `min`-ing its cell into the block's running estimates, and the
    /// positive ones are then compacted to the block's front. On x86-64
    /// with AVX-512 a row steps sixteen lanes at once and the compaction
    /// tests and compresses sixteen at once; the CPU is asked once per
    /// call, and every tier emits the same estimates.
    pub fn query_range(&self, ids: Range<u64>, mut emit: impl FnMut(u64, &[u32], &[u32])) {
        #[cfg(target_arch = "x86_64")]
        if wide::detected() {
            // SAFETY: avx512f and avx512vl were detected on this CPU on the line above.
            #[allow(unsafe_code)]
            let sweep_block = |cms: &Self, first, n, block: &mut Block| unsafe {
                wide::sweep_block(cms, first, n, block)
            };
            return self.sweep(ids, &mut emit, sweep_block);
        }
        self.sweep(ids, &mut emit, sweep_block)
    }

    /// The block loop of [`Self::query_range`] over one tier's block
    /// sweep, which leaves a block's live estimates and their offsets at
    /// the front of [`Block`] and returns how many there are.
    fn sweep(
        &self,
        ids: Range<u64>,
        mut emit: impl FnMut(u64, &[u32], &[u32]),
        mut sweep_block: impl FnMut(&Self, u64, usize, &mut Block) -> usize,
    ) {
        let mut block = Block {
            estimates: [0; SWEEP_BLOCK],
            offsets: [0; SWEEP_BLOCK],
        };
        let mut first = ids.start;
        while first < ids.end {
            let n = (ids.end - first).min(SWEEP_BLOCK as u64) as usize;
            let live = sweep_block(self, first, n, &mut block);
            emit(first, &block.offsets[..live], &block.estimates[..live]);
            first += n as u64;
        }
    }

    /// The running minima of the items `first..` into `estimates`, whose
    /// length is a whole number of `row_sweep`'s lane groups: every row
    /// `min`s its cells in.
    #[inline(always)]
    fn minima(
        &self,
        first: u64,
        estimates: &mut [u32],
        mut row_sweep: impl FnMut(&RowHash, &[u32], u64, &mut [u32]),
    ) {
        estimates.fill(u32::MAX);
        let width = self.params.width;
        for (row, cells) in self.rows.iter().zip(self.cells.chunks_exact(width)) {
            row_sweep(row, cells, first, estimates);
        }
    }

    /// Byte-identifier variant of [`Self::query`].
    pub fn query_bytes(&self, item: &[u8]) -> u32 {
        self.query(fold_item(item))
    }

    /// Cell-wise merge of another sketch with identical parameters.
    ///
    /// # Panics
    /// Panics if dimensions or hash seeds differ.
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(self.params, other.params, "merging incompatible sketches");
        for (c, o) in self.cells.iter_mut().zip(&other.cells) {
            *c = c.saturating_add(*o);
        }
        self.insertions += other.insertions;
    }

    /// The additive error `ε·N` implied by the current fill, where `ε`
    /// is reconstructed from the width (`ε = e / w`). Tests check the
    /// sketch's `(ε, δ)` guarantee against it.
    #[cfg(test)]
    fn error_bound(&self) -> f64 {
        let epsilon = std::f64::consts::E / self.params.width as f64;
        epsilon * self.insertions as f64
    }

    /// Resets all cells (new aggregation window).
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.insertions = 0;
    }
}

/// One block of [`CountMinSketch::query_range`]: the running minima,
/// compacted in place to the live estimates, and the offsets of those.
struct Block {
    estimates: [u32; SWEEP_BLOCK],
    offsets: [u32; SWEEP_BLOCK],
}

/// The portable block sweep: the minima of the `n` items `first..`, two
/// lanes at a time, then every positive one moved to the front with its
/// offset. Whether an item is live is as good as random, so every one is
/// written and the index only bumps past a live one: no branch.
fn sweep_block(cms: &CountMinSketch, first: u64, n: usize, block: &mut Block) -> usize {
    // Whole lane groups only; the surplus lanes of the last group are
    // computed and dropped.
    cms.minima(
        first,
        &mut block.estimates[..n.next_multiple_of(SWEEP_LANES)],
        sweep_row,
    );
    let mut live = 0;
    for offset in 0..n {
        let estimate = block.estimates[offset];
        block.estimates[live] = estimate;
        block.offsets[live] = offset as u32;
        live += usize::from(estimate > 0);
    }
    live
}

/// The portable row sweep: `min`s the cell in `cells` (one row) of each
/// of the items `first..` into `estimates`, two lanes at a time.
fn sweep_row(row: &RowHash, cells: &[u32], first: u64, estimates: &mut [u32]) {
    let mut lanes = row.lanes::<SWEEP_LANES>(first, cells.len());
    for group in estimates.chunks_exact_mut(SWEEP_LANES) {
        for (estimate, &col) in group.iter_mut().zip(lanes.columns()) {
            *estimate = (*estimate).min(cells[col as usize]);
        }
        lanes.step();
    }
}

/// The AVX-512 block sweep: sixteen lanes, their hashes in two registers
/// and their columns in one, the cells gathered sixteen at a time, and
/// the live estimates compressed sixteen at a time.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{Block, CountMinSketch};
    use crate::hashing::RowHash;
    use std::arch::x86_64::*;

    /// Items [`sweep_row`] steps and [`sweep_block`] compacts at once.
    const LANES: usize = 16;

    /// Whether this CPU runs [`sweep_block`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
    }

    /// [`super::sweep_block`] sixteen lanes at a time. After the last row
    /// each group of sixteen estimates is tested once; a group with a
    /// live lane is compressed, estimates and offsets alike, and stored
    /// whole at the live front, which never passes the group just read.
    ///
    /// # Safety
    /// Call it only once [`detected`] holds: on a CPU without the
    /// features its instructions are undefined behaviour.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) fn sweep_block(
        cms: &CountMinSketch,
        first: u64,
        n: usize,
        block: &mut Block,
    ) -> usize {
        cms.minima(
            first,
            &mut block.estimates[..n.next_multiple_of(LANES)],
            |row, cells, first, estimates| sweep_row(row, cells, first, estimates),
        );
        let mut live = 0;
        let mut offsets = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for start in (0..n).step_by(LANES) {
            let estimates = load(&block.estimates[start..start + LANES]);
            // The surplus lanes of a ragged last group are no items.
            let items = u16::MAX >> (LANES - (n - start).min(LANES));
            let positive = _mm512_mask_test_epi32_mask(items, estimates, estimates);
            if positive != 0 {
                let front = live..live + LANES;
                let kept = _mm512_maskz_compress_epi32(positive, estimates);
                store(&mut block.estimates[front.clone()], kept);
                let kept = _mm512_maskz_compress_epi32(positive, offsets);
                store(&mut block.offsets[front], kept);
                live += positive.count_ones() as usize;
            }
            offsets = _mm512_add_epi32(offsets, _mm512_set1_epi32(LANES as i32));
        }
        live
    }

    /// [`super::sweep_row`] sixteen lanes at a time.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn sweep_row(row: &RowHash, cells: &[u32], first: u64, estimates: &mut [u32]) {
        let mut lanes = row.lanes::<LANES>(first, cells.len());
        // Every column is below the width already; the clamp says so to
        // the compiler, which drops the bounds check and gathers.
        let last = cells.len() - 1;
        for group in estimates.chunks_exact_mut(LANES) {
            for (estimate, &col) in group.iter_mut().zip(lanes.columns()) {
                *estimate = (*estimate).min(cells[(col as usize).min(last)]);
            }
            lanes.step();
        }
    }

    /// Sixteen estimates in one register, lane `i` = `s[i]`.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn load(s: &[u32]) -> __m512i {
        let s: &[u32; LANES] = s.try_into().expect("sixteen lanes");
        let s = s.map(|c| c as i32);
        _mm512_set_epi32(
            s[15], s[14], s[13], s[12], s[11], s[10], s[9], s[8], s[7], s[6], s[5], s[4], s[3],
            s[2], s[1], s[0],
        )
    }

    /// `v`'s sixteen lanes back into memory, lane `i` to `s[i]`.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    fn store(s: &mut [u32], v: __m512i) {
        let s: &mut [u32; LANES] = s.try_into().expect("sixteen lanes");
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
}

/// One tier's whole sweep: [`CountMinSketch::query_range`] with the
/// tier fixed instead of dispatched.
#[cfg(test)]
pub(crate) type SweepFn = fn(&CountMinSketch, Range<u64>, &mut Emit);

/// What a sweep hands each block to: its first item, the live offsets
/// and their estimates.
#[cfg(test)]
pub(crate) type Emit<'a> = dyn FnMut(u64, &[u32], &[u32]) + 'a;

/// Which tier [`CountMinSketch::query_range`] dispatches to on this
/// CPU: `"avx512/16"` or `"portable/2"`. A read-only report for
/// telemetry — it cannot be set.
pub fn sweep_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if wide::detected() {
        return "avx512/16";
    }
    "portable/2"
}

/// Every tier this host can run, narrowest first, each called directly
/// rather than through the dispatch.
#[cfg(test)]
#[allow(unsafe_code)]
pub(crate) fn host_tiers() -> Vec<(&'static str, SweepFn)> {
    fn portable(cms: &CountMinSketch, ids: Range<u64>, emit: &mut Emit) {
        cms.sweep(ids, emit, sweep_block)
    }
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut tiers: Vec<(&'static str, SweepFn)> = vec![("portable/2", portable)];
    #[cfg(target_arch = "x86_64")]
    if wide::detected() {
        fn avx512(cms: &CountMinSketch, ids: Range<u64>, emit: &mut Emit) {
            cms.sweep(ids, emit, |cms, first, n, block| {
                // SAFETY: only pushed (so only callable) once avx512f and
                // avx512vl were detected above.
                unsafe { wide::sweep_block(cms, first, n, block) }
            })
        }
        tiers.push(("avx512/16", avx512));
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CmsParams {
        CmsParams::new(5, 256, 42)
    }

    #[test]
    fn exact_when_sparse() {
        let mut cms = CountMinSketch::new(params());
        for (item, count) in [(1u64, 3u32), (2, 7), (999, 1)] {
            for _ in 0..count {
                cms.update(item);
            }
        }
        assert_eq!(cms.query(1), 3);
        assert_eq!(cms.query(2), 7);
        assert_eq!(cms.query(999), 1);
        assert_eq!(cms.insertions(), 11);
    }

    #[test]
    fn never_underestimates() {
        let mut cms = CountMinSketch::new(CmsParams::new(4, 32, 7));
        let mut truth = std::collections::HashMap::new();
        // Overload a tiny sketch to force collisions.
        for i in 0..500u64 {
            let item = i % 97;
            cms.update(item);
            *truth.entry(item).or_insert(0u32) += 1;
        }
        for (&item, &count) in &truth {
            assert!(cms.query(item) >= count, "item {item}");
        }
    }

    #[test]
    fn unseen_item_usually_zero_when_sparse() {
        let mut cms = CountMinSketch::new(params());
        cms.update(1);
        cms.update(2);
        // With 5 rows of 256 columns and 2 items, a fixed third item
        // colliding in all 5 rows is essentially impossible.
        assert_eq!(cms.query(31337), 0);
    }

    #[test]
    fn update_by_equals_repeated_update() {
        let mut a = CountMinSketch::new(params());
        let mut b = CountMinSketch::new(params());
        a.update_by(5, 9);
        for _ in 0..9 {
            b.update(5);
        }
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn merge_is_additive() {
        let mut a = CountMinSketch::new(params());
        let mut b = CountMinSketch::new(params());
        a.update_by(1, 2);
        b.update_by(1, 3);
        b.update_by(7, 1);
        a.merge(&b);
        assert_eq!(a.query(1), 5);
        assert_eq!(a.query(7), 1);
        assert_eq!(a.insertions(), 6);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_incompatible_panics() {
        let mut a = CountMinSketch::new(CmsParams::new(4, 32, 7));
        let b = CountMinSketch::new(CmsParams::new(4, 32, 8));
        a.merge(&b);
    }

    #[test]
    fn from_cells_roundtrip() {
        let mut cms = CountMinSketch::new(params());
        cms.update_by(11, 4);
        let rebuilt =
            CountMinSketch::from_cells(cms.params(), cms.cells().to_vec(), cms.insertions());
        assert_eq!(rebuilt.query(11), 4);
    }

    #[test]
    fn bytes_api_consistent() {
        let mut cms = CountMinSketch::new(params());
        cms.update_bytes(b"https://ads.example/1");
        cms.update_bytes(b"https://ads.example/1");
        assert_eq!(cms.query_bytes(b"https://ads.example/1"), 2);
        assert_eq!(cms.query_bytes(b"https://ads.example/2"), 0);
    }

    #[test]
    fn error_bound_within_spec_mostly() {
        // Statistical check of the (eps, delta) guarantee on a
        // deliberately loaded sketch.
        let p = CmsParams::from_error_bounds(0.01, 0.01, 2000, 3);
        let mut cms = CountMinSketch::new(p);
        for i in 0..2000u64 {
            cms.update(i);
        }
        let bound = cms.error_bound().ceil() as u32;
        let violations = (0..2000u64).filter(|&i| cms.query(i) > 1 + bound).count();
        // delta = 1% of 2000 = 20 expected; allow generous slack.
        assert!(violations <= 60, "violations={violations}");
    }

    #[test]
    fn clear_resets() {
        let mut cms = CountMinSketch::new(params());
        cms.update(1);
        cms.clear();
        assert_eq!(cms.query(1), 0);
        assert_eq!(cms.insertions(), 0);
    }
}
