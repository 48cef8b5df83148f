//! Telemetry: makes the replay path **observable rather than
//! trusted**.
//!
//! The unified round log (`crate::journal`) closes the double-replay
//! window by mechanism, but a guarantee nobody can watch is a guarantee
//! that erodes. Every round drains the bus, the backend and the
//! oprf-server into a [`ReplayMetrics`] observation, and the
//! coordinator into a [`ChurnMetrics`] one; the [`TelemetryService`]
//! folds them into lifetime totals. It lives in process: a driver
//! reads it through `EyewnderSystem::telemetry()`.
//!
//! The counters are deliberately split by kind:
//!
//! * **monotone counters** (`routed`, `replayed`, `truncated`) accumulate across observations — they answer "how
//!   much replay machinery actually ran?",
//! * **gauges** (`journal_depth`) report the latest observation — they
//!   answer "is the log bounded right now?",
//! * **high-water marks** (`queue_depth`) keep the maximum — they
//!   answer "how deep did the mailboxes ever get?",
//! * **timings** (the churn plane's epoch-phase `phase_nanos`) are
//!   wall-clock and accumulate; they are intentionally excluded from
//!   every determinism comparison (two bit-identical rounds will never
//!   have bit-identical clocks),
//! * **histograms** ([`Hist64`]) are merge-able log-linear latency
//!   distributions, eight buckets per power of two — their sums answer
//!   "how much?" (a round phase's busy nanoseconds are its histogram's
//!   sum), the buckets answer "how is it distributed?" with p50/p90/p99
//!   estimators. Like the timings, they ride outside every determinism
//!   comparison.
//!
//! Snapshots leave the process two ways, both rendered from one scalar
//! table and [`ReplayMetrics::hists`]: JSON lines appended to the file
//! named by `EW_TELEMETRY_JSON`, and a Prometheus-style text exposition
//! — see [`TelemetrySnapshot`].

use crate::node::RoundPhase;
use std::fmt::Write as _;

/// The position of `phase` in the [`ReplayMetrics::phase_hist`] row.
pub fn phase_index(phase: RoundPhase) -> usize {
    match phase {
        RoundPhase::Open => 0,
        RoundPhase::Reports => 1,
        RoundPhase::Recovery => 2,
        RoundPhase::Finalize => 3,
    }
}

/// Sub-buckets per power of two, as a bit count: each octave
/// `[2^e, 2^(e+1))` is split into `2^SUB_BITS` equal buckets.
const SUB_BITS: u32 = 3;

/// Buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Buckets in all: one per value below `SUB_BUCKETS`, then
/// `SUB_BUCKETS` for each octave from `2^SUB_BITS` to `2^63`.
const HIST_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// A fixed-bucket log-linear histogram over `u64` samples: the values
/// below 8 have a bucket each, and every power-of-two octave above is
/// split into eight equal sub-buckets (496 buckets cover all of `u64`).
/// Merging is element-wise addition — associative and commutative, the
/// same contract as `SketchAccumulator::merge` — so per-shard and
/// per-round histograms fold into campaign totals in any order.
///
/// Quantile estimates resolve to the **upper bound** of the bucket the
/// rank lands in: a conservative (never under-reported) latency bound
/// at most 12.5 % above the true quantile — a bucket is an eighth of
/// its octave wide. Bucket counts are `u32` (2 KB of buckets per
/// histogram) and saturate like the totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist64 {
    buckets: [u32; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Hist64 {
    fn default() -> Self {
        Hist64 {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Hist64 {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist64::default()
    }

    /// The bucket `value` lands in: `value` itself below 8; above, the
    /// octave `e = floor(log2(value))` and the next three bits below
    /// its leading one pick bucket `8·(e − 2) + sub`.
    pub fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) as usize - SUB_BUCKETS;
        SUB_BUCKETS * (octave - SUB_BITS + 1) as usize + sub
    }

    /// The largest value bucket `index` can hold.
    fn bucket_upper_bound(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        if index >= HIST_BUCKETS {
            return u64::MAX;
        }
        let shift = (index / SUB_BUCKETS - 1) as u32;
        let lower = ((SUB_BUCKETS + index % SUB_BUCKETS) as u64) << shift;
        lower + ((1u64 << shift) - 1)
    }

    /// Records one sample. Bucket counts, count and sum saturate
    /// instead of wrapping — a pinned histogram reads as "at least this
    /// much", never as a freshly reset one.
    pub fn record(&mut self, value: u64) {
        let slot = Self::bucket_of(value);
        self.buckets[slot] = self.buckets[slot].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds `other` in: element-wise bucket addition (associative and
    /// commutative).
    pub fn merge(&mut self, other: &Hist64) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine = mine.saturating_add(theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper bound of
    /// the bucket holding the rank-⌈q·count⌉ sample. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(u64::from(n));
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One observation (or accumulated view) of the replay path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayMetrics {
    /// Data-plane envelopes routed to a shard uplink.
    pub routed: u64,
    /// Envelopes re-delivered from a journal (in-flight re-sends after
    /// an uplink sever, or cold-restart replay).
    pub replayed: u64,
    /// Always 0: no delivery is suppressed, because a shard refuses
    /// every duplicate report or adjustment as `DuplicateReport`. Kept
    /// because `benchmark/src/run.rs` reads it; neither export prints it.
    pub deduped: u64,
    /// Round-log records above the snapshot watermark (gauge).
    pub journal_depth: u64,
    /// Round-log records dropped by watermark truncation.
    pub truncated: u64,
    /// Deepest drained backend mailbox seen (high-water mark).
    pub queue_depth: u64,
    /// Late reports parked during a grace window instead of dropped.
    pub late_reports_parked: u64,
    /// Round-phase latency distributions (nanoseconds per round),
    /// indexed by [`phase_index`]; a phase's busy nanoseconds are its
    /// histogram's [`Hist64::sum`]. Wall-clock: never part of
    /// determinism checks.
    pub phase_hist: [Hist64; 4],
    /// Absorb-batch service-time distribution (one sample per batch).
    pub absorb_hist: Hist64,
    /// OPRF batch service-time distribution.
    pub oprf_hist: Hist64,
    /// Journal replay duration distribution (uplink re-link + cold
    /// restart).
    pub replay_hist: Hist64,
}

impl ReplayMetrics {
    /// Folds `other` into `self` with per-kind semantics: counters and
    /// histograms add, gauges take the newer value, high-water marks
    /// max.
    pub fn merge(&mut self, other: &ReplayMetrics) {
        self.routed += other.routed;
        self.replayed += other.replayed;
        self.deduped += other.deduped;
        self.journal_depth = other.journal_depth;
        self.truncated += other.truncated;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.late_reports_parked += other.late_reports_parked;
        for (mine, theirs) in self.phase_hist.iter_mut().zip(&other.phase_hist) {
            mine.merge(theirs);
        }
        self.absorb_hist.merge(&other.absorb_hist);
        self.oprf_hist.merge(&other.oprf_hist);
        self.replay_hist.merge(&other.replay_hist);
    }

    /// Every histogram family with its export name, in export order.
    pub fn hists(&self) -> [(&'static str, &Hist64); 7] {
        [
            ("phase_open", &self.phase_hist[0]),
            ("phase_reports", &self.phase_hist[1]),
            ("phase_recovery", &self.phase_hist[2]),
            ("phase_finalize", &self.phase_hist[3]),
            ("absorb", &self.absorb_hist),
            ("oprf_batch", &self.oprf_hist),
            ("replay", &self.replay_hist),
        ]
    }
}

/// One observation (or accumulated view) of the membership plane — the
/// coordinator's counterpart to [`ReplayMetrics`], read through the
/// driver's [`TelemetryService::churn`] accessor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnMetrics {
    /// Live roster size at observation time (gauge).
    pub members: u64,
    /// Joins parked for the next epoch at observation time (gauge).
    pub pending_joins: u64,
    /// Distinct join registrations (counter).
    pub joins: u64,
    /// Distinct clean-leave registrations (counter).
    pub leaves: u64,
    /// Distinct mid-epoch dropouts (counter).
    pub drops: u64,
    /// Epochs that ran to completion (counter).
    pub epochs_completed: u64,
    /// Below-`min_clients` collapses (counter).
    pub collapses: u64,
    /// Stragglers dropped by the deadline scheduler (counter; a subset
    /// of `drops`).
    pub deadline_drops: u64,
    /// Coordinator crash-restarts survived (counter).
    pub coordinator_restarts: u64,
    /// Logical ticks spent per epoch phase, indexed by
    /// [`crate::coordinator::epoch_phase_index`] (counters).
    pub phase_ticks: [u64; 6],
    /// Wall-clock nanoseconds spent per epoch phase, indexed like
    /// `phase_ticks` — epochs are timed, not just ticked. Excluded
    /// from determinism checks like every timing.
    pub phase_nanos: [u64; 6],
}

impl ChurnMetrics {
    /// Folds `other` into `self`: counters and timings add, gauges take
    /// the newer observation — the same per-kind discipline as
    /// [`ReplayMetrics::merge`].
    pub fn merge(&mut self, other: &ChurnMetrics) {
        self.members = other.members;
        self.pending_joins = other.pending_joins;
        self.joins += other.joins;
        self.leaves += other.leaves;
        self.drops += other.drops;
        self.epochs_completed += other.epochs_completed;
        self.collapses += other.collapses;
        self.deadline_drops += other.deadline_drops;
        self.coordinator_restarts += other.coordinator_restarts;
        for (mine, theirs) in self.phase_ticks.iter_mut().zip(other.phase_ticks) {
            *mine += theirs;
        }
        for (mine, theirs) in self.phase_nanos.iter_mut().zip(other.phase_nanos) {
            *mine += theirs;
        }
    }
}

/// The kernels picked per CPU at run time, as `(engine, tier)`: the
/// blinding keystream ([`ew_crypto::keystream::keystream_tier`]), the
/// many-bases modpow ([`ew_bigint::lane_tier`]), the SHA-256 compression
/// ([`ew_crypto::sha256::sha256_tier`]), the frame and log CRC-32
/// ([`ew_proto::crc32::crc32_tier`]) and the finalize sweep
/// ([`ew_sketch::cms::sweep_tier`]). Read at export time — they explain
/// a 2–10× cost gap between hosts, and belong to the host, not to any
/// snapshot or protocol state.
fn engine_tiers() -> [(&'static str, &'static str); 5] {
    [
        ("keystream", ew_crypto::keystream::keystream_tier()),
        ("modpow_lanes", ew_bigint::lane_tier()),
        ("sha256", ew_crypto::sha256::sha256_tier()),
        ("crc32", ew_proto::crc32::crc32_tier()),
        ("cms_sweep", ew_sketch::cms::sweep_tier()),
    ]
}

/// How a scalar folds, and so how the Prometheus text names and types
/// it: a counter is `ew_<name>_total`, a gauge `ew_<name>` and a
/// high-water mark `ew_<name>_high_water` (typed as a gauge). The JSON
/// lines print the bare name.
#[derive(Debug, Clone, Copy)]
enum Fold {
    Counter,
    Gauge,
    HighWater,
}

/// A point-in-time copy of everything the telemetry service knows,
/// with the two export serializers: JSON lines (the shape
/// `EW_TELEMETRY_JSON` archives) and a Prometheus-style text
/// exposition.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Lifetime replay-path totals.
    pub totals: ReplayMetrics,
    /// Lifetime membership-plane view.
    pub churn: ChurnMetrics,
}

impl TelemetrySnapshot {
    /// Every scalar both exports print, in export order.
    fn scalars(&self) -> [(&'static str, Fold, u64); 15] {
        let (t, c) = (&self.totals, &self.churn);
        [
            ("routed", Fold::Counter, t.routed),
            ("replayed", Fold::Counter, t.replayed),
            ("journal_depth", Fold::Gauge, t.journal_depth),
            ("truncated", Fold::Counter, t.truncated),
            ("queue_depth", Fold::HighWater, t.queue_depth),
            ("late_reports_parked", Fold::Counter, t.late_reports_parked),
            ("deadline_drops", Fold::Counter, c.deadline_drops),
            (
                "coordinator_restarts",
                Fold::Counter,
                c.coordinator_restarts,
            ),
            ("members", Fold::Gauge, c.members),
            ("pending_joins", Fold::Gauge, c.pending_joins),
            ("joins", Fold::Counter, c.joins),
            ("leaves", Fold::Counter, c.leaves),
            ("drops", Fold::Counter, c.drops),
            ("epochs_completed", Fold::Counter, c.epochs_completed),
            ("collapses", Fold::Counter, c.collapses),
        ]
    }

    /// The snapshot as JSON lines: one `{"metric": …, "value": …}` line
    /// per scalar, one `{"hist": …, "count": …, "p50": …}` line per
    /// histogram family and one `{"engine": …, "tier": …}` line per
    /// CPU-dispatched kernel (see `engine_tiers`), each carrying the
    /// caller's `scope` label.
    pub fn to_json_lines(&self, scope: &str) -> String {
        let mut out = String::new();
        for (name, _, value) in self.scalars() {
            let _ = writeln!(
                out,
                "{{\"scope\": \"{scope}\", \"metric\": \"{name}\", \"value\": {value}}}"
            );
        }
        for (i, nanos) in self.churn.phase_nanos.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"scope\": \"{scope}\", \"metric\": \"epoch_phase_nanos\", \"phase\": {i}, \"value\": {nanos}}}"
            );
        }
        for (name, hist) in self.totals.hists() {
            let _ = writeln!(
                out,
                "{{\"scope\": \"{scope}\", \"hist\": \"{name}\", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                hist.count(),
                hist.sum(),
                hist.p50(),
                hist.p90(),
                hist.p99(),
            );
        }
        for (engine, tier) in engine_tiers() {
            let _ = writeln!(
                out,
                "{{\"scope\": \"{scope}\", \"engine\": \"{engine}\", \"tier\": \"{tier}\"}}"
            );
        }
        out
    }

    /// The snapshot as a Prometheus-style text exposition: counters and
    /// gauges as plain families, histograms as summaries with
    /// `quantile` labels plus `_sum`/`_count`, and the CPU-dispatched
    /// kernels (see `engine_tiers`) as one `ew_engine_info` line each.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, fold, value) in self.scalars() {
            let (suffix, kind) = match fold {
                Fold::Counter => ("_total", "counter"),
                Fold::Gauge => ("", "gauge"),
                Fold::HighWater => ("_high_water", "gauge"),
            };
            let _ = writeln!(
                out,
                "# TYPE ew_{name}{suffix} {kind}\new_{name}{suffix} {value}"
            );
        }
        let _ = writeln!(out, "# TYPE ew_epoch_phase_nanos counter");
        for (i, nanos) in self.churn.phase_nanos.iter().enumerate() {
            let _ = writeln!(out, "ew_epoch_phase_nanos{{phase=\"{i}\"}} {nanos}");
        }
        for (name, hist) in self.totals.hists() {
            let _ = writeln!(out, "# TYPE ew_{name}_nanos summary");
            for (q, v) in [(0.5, hist.p50()), (0.9, hist.p90()), (0.99, hist.p99())] {
                let _ = writeln!(out, "ew_{name}_nanos{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "ew_{name}_nanos_sum {}", hist.sum());
            let _ = writeln!(out, "ew_{name}_nanos_count {}", hist.count());
        }
        let _ = writeln!(out, "# TYPE ew_engine_info gauge");
        for (engine, tier) in engine_tiers() {
            let _ = writeln!(
                out,
                "ew_engine_info{{engine=\"{engine}\",tier=\"{tier}\"}} 1"
            );
        }
        out
    }

    /// Appends the JSON-lines rendering to the file named by the
    /// `EW_TELEMETRY_JSON` environment variable. A no-op when the
    /// variable is unset; IO errors are swallowed — telemetry export
    /// never fails a run.
    pub fn export_json_env(&self, scope: &str) {
        let Ok(path) = std::env::var("EW_TELEMETRY_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = f.write_all(self.to_json_lines(scope).as_bytes());
        }
    }
}

/// The telemetry service: folds [`ReplayMetrics`] observations into
/// lifetime totals and tracks the membership plane's [`ChurnMetrics`].
#[derive(Debug, Default)]
pub struct TelemetryService {
    totals: ReplayMetrics,
    churn: ChurnMetrics,
}

impl TelemetryService {
    /// An empty service.
    pub fn new() -> Self {
        TelemetryService::default()
    }

    /// Folds one observation into the lifetime totals.
    pub fn observe(&mut self, metrics: &ReplayMetrics) {
        self.totals.merge(metrics);
    }

    /// The lifetime totals across every observed round.
    pub fn totals(&self) -> ReplayMetrics {
        self.totals
    }

    /// Folds one membership-plane observation (typically the
    /// coordinator's drained `take_churn_metrics`) into the lifetime
    /// churn view.
    pub fn observe_churn(&mut self, metrics: &ChurnMetrics) {
        self.churn.merge(metrics);
    }

    /// Folds an OPRF batch service-time histogram (the oprf-server's
    /// drained accounting) into the lifetime totals.
    pub fn observe_oprf(&mut self, hist: &Hist64) {
        self.totals.oprf_hist.merge(hist);
    }

    /// The accumulated membership-plane view: gauges reflect the latest
    /// observation, counters the campaign lifetime.
    pub fn churn(&self) -> ChurnMetrics {
        self.churn
    }

    /// A point-in-time copy of everything the service knows, ready for
    /// export.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            totals: self.totals,
            churn: self.churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(routed: u64) -> ReplayMetrics {
        ReplayMetrics {
            routed,
            replayed: 1,
            deduped: 2,
            journal_depth: 5,
            truncated: 3,
            queue_depth: routed,
            late_reports_parked: 1,
            ..ReplayMetrics::default()
        }
    }

    #[test]
    fn merge_respects_counter_kinds() {
        let mut acc = sample(4);
        acc.phase_hist[0].record(10);
        let mut other = ReplayMetrics {
            routed: 6,
            replayed: 1,
            deduped: 0,
            journal_depth: 2,
            truncated: 1,
            queue_depth: 1,
            late_reports_parked: 2,
            ..ReplayMetrics::default()
        };
        other.phase_hist[0].record(1);
        acc.merge(&other);
        assert_eq!(acc.routed, 10); // counter: adds
        assert_eq!(acc.journal_depth, 2); // gauge: latest wins
        assert_eq!(acc.queue_depth, 4); // high-water: max
        assert_eq!(acc.late_reports_parked, 3); // counter: adds
        assert_eq!(acc.phase_hist[0].sum(), 11); // timing: adds
    }

    #[test]
    fn hist_buckets_quantiles_and_merge() {
        let mut h = Hist64::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram reports 0");
        for v in [0u64, 1, 2, 3, 100, 1000, 1000, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 3106);
        assert_eq!(Hist64::bucket_of(0), 0);
        assert_eq!(Hist64::bucket_of(1), 1);
        assert_eq!(Hist64::bucket_of(7), 7);
        assert_eq!(Hist64::bucket_of(8), 8);
        assert_eq!(Hist64::bucket_of(15), 15);
        assert_eq!(Hist64::bucket_of(16), 16);
        // 1000 is in the octave [512, 1024), sub-bucket (1000 >> 6) − 8 = 7.
        assert_eq!(Hist64::bucket_of(1000), 8 * 7 + 7);
        assert_eq!(Hist64::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(Hist64::bucket_upper_bound(0), 0);
        assert_eq!(Hist64::bucket_upper_bound(15), 15);
        assert_eq!(Hist64::bucket_upper_bound(16), 17);
        assert_eq!(Hist64::bucket_upper_bound(8 * 7 + 7), 1023);
        assert_eq!(Hist64::bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
        // Rank 4 of 8 is the 3, which has a bucket of its own.
        assert_eq!(h.p50(), 3);
        // Rank 8 of 8 is one of the 1000s → upper bound 1023.
        assert_eq!(h.p99(), 1023);
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());

        let mut a = Hist64::new();
        a.record(5);
        let mut b = Hist64::new();
        b.record(700);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.count(), 2);
        assert_eq!(ab.sum(), 705);
    }

    #[test]
    fn every_bucket_is_the_values_that_land_in_it() {
        // Bucket edges: the upper bound of one bucket is one below the
        // lower bound of the next, and both land where they say.
        for index in 0..HIST_BUCKETS {
            let upper = Hist64::bucket_upper_bound(index);
            assert_eq!(Hist64::bucket_of(upper), index, "upper edge of {index}");
            if index + 1 < HIST_BUCKETS {
                assert_eq!(
                    Hist64::bucket_of(upper + 1),
                    index + 1,
                    "lower edge of {}",
                    index + 1
                );
            }
        }
    }

    #[test]
    fn saturating_accounting_never_wraps() {
        let mut h = Hist64::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum pins instead of wrapping");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn churn_merge_respects_counter_kinds() {
        let mut svc = TelemetryService::new();
        svc.observe_churn(&ChurnMetrics {
            members: 10,
            pending_joins: 2,
            joins: 12,
            leaves: 1,
            drops: 1,
            epochs_completed: 1,
            collapses: 0,
            deadline_drops: 1,
            coordinator_restarts: 0,
            phase_ticks: [3, 2, 3, 2, 1, 1],
            phase_nanos: [10, 10, 10, 10, 10, 10],
        });
        svc.observe_churn(&ChurnMetrics {
            members: 9,
            pending_joins: 0,
            joins: 1,
            leaves: 2,
            drops: 0,
            epochs_completed: 1,
            collapses: 1,
            deadline_drops: 0,
            coordinator_restarts: 1,
            phase_ticks: [1, 1, 1, 1, 1, 0],
            phase_nanos: [1, 2, 3, 4, 5, 6],
        });
        let churn = svc.churn();
        assert_eq!(churn.members, 9, "gauge: latest wins");
        assert_eq!(churn.pending_joins, 0, "gauge: latest wins");
        assert_eq!(churn.joins, 13); // counter: adds
        assert_eq!(churn.leaves, 3);
        assert_eq!(churn.drops, 1);
        assert_eq!(churn.epochs_completed, 2);
        assert_eq!(churn.collapses, 1);
        assert_eq!(churn.deadline_drops, 1);
        assert_eq!(churn.coordinator_restarts, 1);
        assert_eq!(churn.phase_ticks, [4, 3, 4, 3, 2, 1]);
        assert_eq!(churn.phase_nanos, [11, 12, 13, 14, 15, 16], "timing: adds");
        // Both exports read the deadline and restart counters and the
        // epoch-phase wall clock from the churn view.
        let snap = svc.snapshot();
        let json = snap.to_json_lines("churn");
        assert!(json.contains("\"metric\": \"deadline_drops\", \"value\": 1}"));
        assert!(json.contains("\"metric\": \"coordinator_restarts\", \"value\": 1}"));
        let prom = snap.to_prometheus_text();
        assert!(prom.contains("ew_deadline_drops_total 1\n"));
        assert!(prom.contains("ew_coordinator_restarts_total 1\n"));
        for (phase, nanos) in (11..=16).enumerate() {
            assert!(json.contains(&format!(
                "\"metric\": \"epoch_phase_nanos\", \"phase\": {phase}, \"value\": {nanos}}}"
            )));
            assert!(prom.contains(&format!(
                "ew_epoch_phase_nanos{{phase=\"{phase}\"}} {nanos}\n"
            )));
        }
    }

    /// A fixed snapshot: every scalar non-zero, every histogram family
    /// with samples, and the churn plane's epoch-phase wall clock.
    fn golden_snapshot() -> TelemetrySnapshot {
        let mut m = ReplayMetrics {
            routed: 24,
            replayed: 3,
            deduped: 7,
            journal_depth: 5,
            truncated: 17,
            queue_depth: 9,
            late_reports_parked: 2,
            ..ReplayMetrics::default()
        };
        for (i, hist) in m.phase_hist.iter_mut().enumerate() {
            hist.record(1_000 * (i as u64 + 1));
            hist.record(40_000 + i as u64);
        }
        m.absorb_hist.record(1500);
        m.absorb_hist.record(3000);
        m.replay_hist.record(70_000);
        let mut svc = TelemetryService::new();
        svc.observe(&m);
        let mut oprf = Hist64::new();
        oprf.record(250_000);
        svc.observe_oprf(&oprf);
        svc.observe_churn(&ChurnMetrics {
            members: 18,
            pending_joins: 2,
            joins: 21,
            leaves: 1,
            drops: 3,
            epochs_completed: 3,
            collapses: 1,
            deadline_drops: 2,
            coordinator_restarts: 1,
            phase_ticks: [3, 2, 3, 2, 1, 1],
            phase_nanos: [11, 12, 13, 14, 15, 16],
        });
        svc.snapshot()
    }

    #[test]
    fn snapshot_serializes_json_lines_and_prometheus() {
        let snap = golden_snapshot();
        let json = snap.to_json_lines("golden");
        let prom = snap.to_prometheus_text();
        // Engine lines name the host's CPU tiers, so the golden texts
        // leave them out; the loop below checks them per tier.
        let host_free = |text: &str, engine: &str| -> String {
            text.lines()
                .filter(|line| !line.contains(engine))
                .map(|line| format!("{line}\n"))
                .collect()
        };
        assert_eq!(host_free(&json, "\"engine\": "), GOLDEN_JSON);
        assert_eq!(host_free(&prom, "ew_engine_info{"), GOLDEN_PROMETHEUS);

        // One engine line per CPU-dispatched kernel, in both exports.
        for (engine, tier) in [
            ("keystream", ew_crypto::keystream::keystream_tier()),
            ("modpow_lanes", ew_bigint::lane_tier()),
            ("sha256", ew_crypto::sha256::sha256_tier()),
            ("crc32", ew_proto::crc32::crc32_tier()),
            ("cms_sweep", ew_sketch::cms::sweep_tier()),
        ] {
            assert!(json.contains(&format!("\"engine\": \"{engine}\", \"tier\": \"{tier}\"")));
            assert!(prom.contains(&format!(
                "ew_engine_info{{engine=\"{engine}\",tier=\"{tier}\"}} 1"
            )));
        }
        assert_eq!(json.matches("\"engine\"").count(), 5);
        assert_eq!(prom.matches("ew_engine_info{").count(), 5);
    }

    /// `to_json_lines("golden")` of [`golden_snapshot`], engine lines
    /// left out.
    const GOLDEN_JSON: &str = r#"{"scope": "golden", "metric": "routed", "value": 24}
{"scope": "golden", "metric": "replayed", "value": 3}
{"scope": "golden", "metric": "journal_depth", "value": 5}
{"scope": "golden", "metric": "truncated", "value": 17}
{"scope": "golden", "metric": "queue_depth", "value": 9}
{"scope": "golden", "metric": "late_reports_parked", "value": 2}
{"scope": "golden", "metric": "deadline_drops", "value": 2}
{"scope": "golden", "metric": "coordinator_restarts", "value": 1}
{"scope": "golden", "metric": "members", "value": 18}
{"scope": "golden", "metric": "pending_joins", "value": 2}
{"scope": "golden", "metric": "joins", "value": 21}
{"scope": "golden", "metric": "leaves", "value": 1}
{"scope": "golden", "metric": "drops", "value": 3}
{"scope": "golden", "metric": "epochs_completed", "value": 3}
{"scope": "golden", "metric": "collapses", "value": 1}
{"scope": "golden", "metric": "epoch_phase_nanos", "phase": 0, "value": 11}
{"scope": "golden", "metric": "epoch_phase_nanos", "phase": 1, "value": 12}
{"scope": "golden", "metric": "epoch_phase_nanos", "phase": 2, "value": 13}
{"scope": "golden", "metric": "epoch_phase_nanos", "phase": 3, "value": 14}
{"scope": "golden", "metric": "epoch_phase_nanos", "phase": 4, "value": 15}
{"scope": "golden", "metric": "epoch_phase_nanos", "phase": 5, "value": 16}
{"scope": "golden", "hist": "phase_open", "count": 2, "sum": 41000, "p50": 1023, "p90": 40959, "p99": 40959}
{"scope": "golden", "hist": "phase_reports", "count": 2, "sum": 42001, "p50": 2047, "p90": 40959, "p99": 40959}
{"scope": "golden", "hist": "phase_recovery", "count": 2, "sum": 43002, "p50": 3071, "p90": 40959, "p99": 40959}
{"scope": "golden", "hist": "phase_finalize", "count": 2, "sum": 44003, "p50": 4095, "p90": 40959, "p99": 40959}
{"scope": "golden", "hist": "absorb", "count": 2, "sum": 4500, "p50": 1535, "p90": 3071, "p99": 3071}
{"scope": "golden", "hist": "oprf_batch", "count": 1, "sum": 250000, "p50": 262143, "p90": 262143, "p99": 262143}
{"scope": "golden", "hist": "replay", "count": 1, "sum": 70000, "p50": 73727, "p90": 73727, "p99": 73727}
"#;
    /// `to_prometheus_text()` of [`golden_snapshot`], engine lines left
    /// out.
    const GOLDEN_PROMETHEUS: &str = r#"# TYPE ew_routed_total counter
ew_routed_total 24
# TYPE ew_replayed_total counter
ew_replayed_total 3
# TYPE ew_journal_depth gauge
ew_journal_depth 5
# TYPE ew_truncated_total counter
ew_truncated_total 17
# TYPE ew_queue_depth_high_water gauge
ew_queue_depth_high_water 9
# TYPE ew_late_reports_parked_total counter
ew_late_reports_parked_total 2
# TYPE ew_deadline_drops_total counter
ew_deadline_drops_total 2
# TYPE ew_coordinator_restarts_total counter
ew_coordinator_restarts_total 1
# TYPE ew_members gauge
ew_members 18
# TYPE ew_pending_joins gauge
ew_pending_joins 2
# TYPE ew_joins_total counter
ew_joins_total 21
# TYPE ew_leaves_total counter
ew_leaves_total 1
# TYPE ew_drops_total counter
ew_drops_total 3
# TYPE ew_epochs_completed_total counter
ew_epochs_completed_total 3
# TYPE ew_collapses_total counter
ew_collapses_total 1
# TYPE ew_epoch_phase_nanos counter
ew_epoch_phase_nanos{phase="0"} 11
ew_epoch_phase_nanos{phase="1"} 12
ew_epoch_phase_nanos{phase="2"} 13
ew_epoch_phase_nanos{phase="3"} 14
ew_epoch_phase_nanos{phase="4"} 15
ew_epoch_phase_nanos{phase="5"} 16
# TYPE ew_phase_open_nanos summary
ew_phase_open_nanos{quantile="0.5"} 1023
ew_phase_open_nanos{quantile="0.9"} 40959
ew_phase_open_nanos{quantile="0.99"} 40959
ew_phase_open_nanos_sum 41000
ew_phase_open_nanos_count 2
# TYPE ew_phase_reports_nanos summary
ew_phase_reports_nanos{quantile="0.5"} 2047
ew_phase_reports_nanos{quantile="0.9"} 40959
ew_phase_reports_nanos{quantile="0.99"} 40959
ew_phase_reports_nanos_sum 42001
ew_phase_reports_nanos_count 2
# TYPE ew_phase_recovery_nanos summary
ew_phase_recovery_nanos{quantile="0.5"} 3071
ew_phase_recovery_nanos{quantile="0.9"} 40959
ew_phase_recovery_nanos{quantile="0.99"} 40959
ew_phase_recovery_nanos_sum 43002
ew_phase_recovery_nanos_count 2
# TYPE ew_phase_finalize_nanos summary
ew_phase_finalize_nanos{quantile="0.5"} 4095
ew_phase_finalize_nanos{quantile="0.9"} 40959
ew_phase_finalize_nanos{quantile="0.99"} 40959
ew_phase_finalize_nanos_sum 44003
ew_phase_finalize_nanos_count 2
# TYPE ew_absorb_nanos summary
ew_absorb_nanos{quantile="0.5"} 1535
ew_absorb_nanos{quantile="0.9"} 3071
ew_absorb_nanos{quantile="0.99"} 3071
ew_absorb_nanos_sum 4500
ew_absorb_nanos_count 2
# TYPE ew_oprf_batch_nanos summary
ew_oprf_batch_nanos{quantile="0.5"} 262143
ew_oprf_batch_nanos{quantile="0.9"} 262143
ew_oprf_batch_nanos{quantile="0.99"} 262143
ew_oprf_batch_nanos_sum 250000
ew_oprf_batch_nanos_count 1
# TYPE ew_replay_nanos summary
ew_replay_nanos{quantile="0.5"} 73727
ew_replay_nanos{quantile="0.9"} 73727
ew_replay_nanos{quantile="0.99"} 73727
ew_replay_nanos_sum 70000
ew_replay_nanos_count 1
# TYPE ew_engine_info gauge
"#;
}
