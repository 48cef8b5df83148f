//! Blinded sketch reports and the server-side accumulator.
//!
//! The wire form of a client's weekly report is its CMS cells plus the
//! Kursawe blinding vector, all in `Z_{2^32}` (wrapping). The server adds
//! every report cell-wise; when all enrolled clients report, the blinding
//! terms cancel and the accumulator holds the exact cell-wise sum of the
//! cleartext sketches.

use crate::cms::CountMinSketch;
use crate::params::CmsParams;
use ew_crypto::blinding::{subtract_vector, BlindingGenerator};

/// A blinded count-min sketch as shipped to the backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindedSketch {
    params: CmsParams,
    cells: Vec<u32>,
}

impl BlindedSketch {
    /// Blinds `sketch` with the user's blinding vector for `round`,
    /// added straight into its own cells: the report takes the sketch's
    /// cell vector, so a caller that keeps the sketch passes a clone.
    pub fn from_sketch(sketch: CountMinSketch, generator: &BlindingGenerator, round: u64) -> Self {
        let params = sketch.params();
        let mut cells = sketch.into_cells();
        generator.blind_in_place(round, &mut cells);
        BlindedSketch { params, cells }
    }

    /// Wraps raw wire cells (used by the codec on the receive path).
    pub fn from_raw(params: CmsParams, cells: Vec<u32>) -> Self {
        assert_eq!(cells.len(), params.num_cells(), "cell count mismatch");
        BlindedSketch { params, cells }
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CmsParams {
        self.params
    }

    /// The (blinded) cells.
    pub fn cells(&self) -> &[u32] {
        &self.cells
    }

    /// Consumes the report, yielding its cells without a copy (the
    /// encode path of the wire `Report` message).
    pub fn into_cells(self) -> Vec<u32> {
        self.cells
    }

    /// Serialized size in bytes (what travels on the wire).
    pub fn size_bytes(&self) -> usize {
        self.params.size_bytes()
    }
}

/// Server-side cell-wise accumulator over blinded reports.
#[derive(Debug, Clone)]
pub struct SketchAccumulator {
    params: CmsParams,
    cells: Vec<u32>,
    reports: usize,
}

impl SketchAccumulator {
    /// Empty accumulator for one aggregation round.
    pub fn new(params: CmsParams) -> Self {
        SketchAccumulator {
            params,
            cells: vec![0u32; params.num_cells()],
            reports: 0,
        }
    }

    /// Adds one blinded report.
    ///
    /// # Panics
    /// Panics if the report's dimensions don't match.
    pub fn add(&mut self, report: &BlindedSketch) {
        assert_eq!(self.params, report.params, "report dimension mismatch");
        self.add_cells(&report.cells);
    }

    /// Adds one blinded report given as its raw wire cells (the absorb
    /// path borrows them straight from the `Report` message).
    ///
    /// # Panics
    /// Panics if `cells` is not exactly one cell per accumulator cell.
    pub fn add_cells(&mut self, cells: &[u32]) {
        assert_eq!(self.cells.len(), cells.len(), "report dimension mismatch");
        for (c, r) in self.cells.iter_mut().zip(cells) {
            *c = c.wrapping_add(*r);
        }
        self.reports += 1;
    }

    /// Applies a recovery adjustment (subtracts the residues reported by
    /// surviving clients for a set of missing clients, §6
    /// "Fault-tolerance").
    pub fn subtract_adjustment(&mut self, adjustment: &[u32]) {
        subtract_vector(&mut self.cells, adjustment);
    }

    /// Folds another accumulator into this one (cell-wise wrapping add,
    /// report counts summed).
    ///
    /// Addition in `Z_{2^32}` is associative and commutative, so a round
    /// aggregated as per-shard partial accumulators merged in any order
    /// is **bit-identical** to the same reports added one by one — the
    /// determinism guarantee the parallel round pipeline relies on.
    ///
    /// # Panics
    /// Panics if the accumulators' dimensions don't match.
    pub fn merge(&mut self, other: &SketchAccumulator) {
        assert_eq!(self.params, other.params, "report dimension mismatch");
        for (c, o) in self.cells.iter_mut().zip(&other.cells) {
            *c = c.wrapping_add(*o);
        }
        self.reports += other.reports;
    }

    /// Number of reports folded in so far.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// The sketch dimensions this accumulator was opened with.
    pub fn params(&self) -> CmsParams {
        self.params
    }

    /// Finalizes into a queryable aggregate sketch.
    ///
    /// Correct only once every enrolled client's report (and any recovery
    /// adjustments) have been folded in — otherwise cells are random.
    /// `insertions` is the caller's estimate of total insert volume
    /// (only used for error-bound reporting).
    pub fn finalize(self, insertions: u64) -> CountMinSketch {
        CountMinSketch::from_cells(self.params, self.cells, insertions)
    }

    /// Read-only view of the current (possibly still blinded) cells.
    pub fn cells(&self) -> &[u32] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_crypto::blinding::BlindingParams;
    use ew_crypto::dh::DhKeyPair;
    use ew_crypto::directory::KeyDirectory;
    use ew_crypto::group::ModpGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// N clients, each with a DH pair and blinding generator.
    fn cohort(n: u32, seed: u64) -> Vec<BlindingGenerator> {
        let mut rng = StdRng::seed_from_u64(seed);
        let group = ModpGroup::generate(&mut rng, 64);
        let mut dir = KeyDirectory::new(group.element_len());
        let pairs: Vec<DhKeyPair> = (0..n)
            .map(|id| {
                let kp = DhKeyPair::generate(&group, &mut rng);
                dir.publish(id, kp.public().clone());
                kp
            })
            .collect();
        pairs
            .iter()
            .enumerate()
            .map(|(i, kp)| BlindingGenerator::new(&group, i as u32, kp, &dir))
            .collect()
    }

    #[test]
    fn full_cohort_aggregate_equals_cleartext() {
        let gens = cohort(4, 200);
        let params = CmsParams::new(3, 64, 9);
        let round = 12;

        let mut clear_total = CountMinSketch::new(params);
        let mut acc = SketchAccumulator::new(params);
        for (i, g) in gens.iter().enumerate() {
            let mut sketch = CountMinSketch::new(params);
            // Each client saw ads {i, i+1, 100}.
            sketch.update(i as u64);
            sketch.update(i as u64 + 1);
            sketch.update(100);
            clear_total.merge(&sketch);
            acc.add(&BlindedSketch::from_sketch(sketch, g, round));
        }
        assert_eq!(acc.reports(), 4);
        let agg = acc.finalize(clear_total.insertions());
        assert_eq!(agg.cells(), clear_total.cells());
        assert_eq!(agg.query(100), 4);
    }

    #[test]
    fn partial_cohort_is_garbage_until_adjusted() {
        let gens = cohort(5, 201);
        let params = CmsParams::new(2, 32, 9);
        let round = 3;
        let missing = [4u32];

        let mut clear_total = CountMinSketch::new(params);
        let mut acc = SketchAccumulator::new(params);
        for (i, g) in gens.iter().enumerate().take(4) {
            let mut sketch = CountMinSketch::new(params);
            sketch.update(7);
            sketch.update(i as u64);
            clear_total.merge(&sketch);
            acc.add(&BlindedSketch::from_sketch(sketch, g, round));
        }
        // Residue present before recovery.
        assert_ne!(acc.cells(), clear_total.cells());

        let bp = BlindingParams {
            round,
            num_cells: params.num_cells(),
        };
        for g in gens.iter().take(4) {
            acc.subtract_adjustment(&g.adjustment_vector(bp, &missing));
        }
        let agg = acc.finalize(clear_total.insertions());
        assert_eq!(agg.cells(), clear_total.cells());
        assert_eq!(agg.query(7), 4);
    }

    #[test]
    fn single_report_is_uniformly_blinded() {
        let gens = cohort(2, 202);
        let params = CmsParams::new(2, 16, 1);
        let mut sketch = CountMinSketch::new(params);
        sketch.update(3);
        let blinded = BlindedSketch::from_sketch(sketch.clone(), &gens[0], 1);
        // The blinded report must differ from the cleartext sketch.
        assert_ne!(blinded.cells(), sketch.cells());
    }

    #[test]
    fn size_accounting() {
        let params = CmsParams::new(17, 2719, 0);
        let b = BlindedSketch::from_raw(params, vec![0u32; params.num_cells()]);
        assert_eq!((b.size_bytes() as f64 / 1000.0).round() as usize, 185);
    }

    #[test]
    fn sharded_merge_equals_sequential_accumulation() {
        let gens = cohort(6, 203);
        let params = CmsParams::new(3, 32, 4);
        let round = 8;
        let reports: Vec<BlindedSketch> = gens
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut sketch = CountMinSketch::new(params);
                sketch.update(i as u64);
                sketch.update(55);
                BlindedSketch::from_sketch(sketch, g, round)
            })
            .collect();

        let mut sequential = SketchAccumulator::new(params);
        for r in &reports {
            sequential.add(r);
        }

        // Shard the reports unevenly, accumulate per shard, merge in
        // reverse shard order: the result must still be bit-identical.
        for shards in [vec![2usize, 4], vec![1, 2, 3], vec![6], vec![5, 1]] {
            let mut partials = Vec::new();
            let mut start = 0;
            for len in shards {
                let mut acc = SketchAccumulator::new(params);
                for r in &reports[start..start + len] {
                    acc.add(r);
                }
                partials.push(acc);
                start += len;
            }
            let mut merged = SketchAccumulator::new(params);
            for p in partials.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(merged.cells(), sequential.cells());
            assert_eq!(merged.reports(), sequential.reports());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn accumulator_rejects_mismatched_merge() {
        let mut acc = SketchAccumulator::new(CmsParams::new(2, 16, 1));
        let other = SketchAccumulator::new(CmsParams::new(2, 16, 2));
        acc.merge(&other);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn accumulator_rejects_mismatched_report() {
        let mut acc = SketchAccumulator::new(CmsParams::new(2, 16, 1));
        let other = BlindedSketch::from_raw(CmsParams::new(2, 16, 2), vec![0u32; 32]);
        acc.add(&other);
    }
}
