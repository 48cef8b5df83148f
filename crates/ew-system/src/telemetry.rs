//! Telemetry: makes the replay path **observable rather than
//! trusted**.
//!
//! The unified round log (`crate::journal`) closes the double-replay
//! window by mechanism, but a guarantee nobody can watch is a guarantee
//! that erodes. Every round drains the bus, the backend and the
//! oprf-server into a [`ReplayMetrics`] observation, and the
//! coordinator into a [`ChurnMetrics`] one; the [`TelemetryService`]
//! folds them into per-round rows and lifetime totals. It lives in
//! process: a driver reads it through `EyewnderSystem::telemetry()`.
//!
//! The counters are deliberately split by kind:
//!
//! * **monotone counters** (`routed`, `replayed`, `truncated`) accumulate across observations — they answer "how
//!   much replay machinery actually ran?",
//! * **gauges** (`journal_depth`) report the latest observation — they
//!   answer "is the log bounded right now?",
//! * **high-water marks** (`queue_depth`) keep the maximum — they
//!   answer "how deep did the mailboxes ever get?",
//! * **timings** (`phase_nanos`, and the churn plane's epoch-phase
//!   `phase_nanos`) are wall-clock and accumulate; they are
//!   intentionally excluded from every determinism comparison (two
//!   bit-identical rounds will never have bit-identical clocks),
//! * **histograms** ([`Hist64`]) are merge-able log-linear latency
//!   distributions, eight buckets per power of two — sums answer "how
//!   much?", the histograms answer "how is it distributed?" with
//!   p50/p90/p99 estimators. Like the
//!   timings, they ride outside every determinism comparison.
//!
//! Snapshots leave the process two ways: JSON lines appended to the
//! file named by `EW_TELEMETRY_JSON`, and a Prometheus-style text
//! exposition — see [`TelemetrySnapshot`].

use crate::node::RoundPhase;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The position of `phase` in the [`ReplayMetrics::phase_nanos`] row.
pub fn phase_index(phase: RoundPhase) -> usize {
    match phase {
        RoundPhase::Open => 0,
        RoundPhase::Reports => 1,
        RoundPhase::Recovery => 2,
        RoundPhase::Finalize => 3,
    }
}

/// Export keys for the histogram families a [`ReplayMetrics`] snapshot
/// carries: [`ReplayMetrics::hist`] looks a family up by kind, and
/// [`label`](hist_kind::label) names it in both exports. They are not
/// wire identifiers.
pub mod hist_kind {
    /// Round phase `Open` latency (nanoseconds per round).
    pub(super) const PHASE_OPEN: u8 = 0;
    /// Round phase `Reports` latency.
    pub(super) const PHASE_REPORTS: u8 = 1;
    /// Round phase `Recovery` latency.
    pub(super) const PHASE_RECOVERY: u8 = 2;
    /// Round phase `Finalize` latency.
    pub(super) const PHASE_FINALIZE: u8 = 3;
    /// Absorb-batch service time: one sample per absorbed batch.
    pub(super) const ABSORB: u8 = 4;
    /// OPRF batch service time (per blind-evaluated batch).
    pub(super) const OPRF_BATCH: u8 = 5;
    /// Journal replay duration (uplink re-link or cold restart).
    pub(super) const REPLAY: u8 = 6;

    /// Every kind, in export order.
    pub const ALL: [u8; 7] = [
        PHASE_OPEN,
        PHASE_REPORTS,
        PHASE_RECOVERY,
        PHASE_FINALIZE,
        ABSORB,
        OPRF_BATCH,
        REPLAY,
    ];

    /// Human label for `kind` (unknown kinds render as `"unknown"`).
    pub fn label(kind: u8) -> &'static str {
        match kind {
            PHASE_OPEN => "phase_open",
            PHASE_REPORTS => "phase_reports",
            PHASE_RECOVERY => "phase_recovery",
            PHASE_FINALIZE => "phase_finalize",
            ABSORB => "absorb",
            OPRF_BATCH => "oprf_batch",
            REPLAY => "replay",
            _ => "unknown",
        }
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
/// its octave wide. Bucket counts are `u32` (2 KB of buckets in all:
/// the telemetry keeps up to [`MAX_ROUND_ROWS`] rows of seven
/// histograms each) and saturate like the totals.
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
    /// Cumulative busy nanoseconds per round phase, indexed by
    /// [`phase_index`]. Wall-clock: never part of determinism checks.
    pub phase_nanos: [u64; 4],
    /// Round-phase latency distributions (nanoseconds per round),
    /// indexed by [`phase_index`].
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
    /// Folds `other` into `self` with per-kind semantics: counters,
    /// timings and histograms add, gauges take the newer value,
    /// high-water marks max.
    pub fn merge(&mut self, other: &ReplayMetrics) {
        self.routed += other.routed;
        self.replayed += other.replayed;
        self.deduped += other.deduped;
        self.journal_depth = other.journal_depth;
        self.truncated += other.truncated;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.late_reports_parked += other.late_reports_parked;
        for (mine, theirs) in self.phase_nanos.iter_mut().zip(other.phase_nanos) {
            *mine += theirs;
        }
        for (mine, theirs) in self.phase_hist.iter_mut().zip(&other.phase_hist) {
            mine.merge(theirs);
        }
        self.absorb_hist.merge(&other.absorb_hist);
        self.oprf_hist.merge(&other.oprf_hist);
        self.replay_hist.merge(&other.replay_hist);
    }

    /// The histogram family `kind` names, if this snapshot carries it.
    pub fn hist(&self, kind: u8) -> Option<&Hist64> {
        match kind {
            hist_kind::PHASE_OPEN => Some(&self.phase_hist[0]),
            hist_kind::PHASE_REPORTS => Some(&self.phase_hist[1]),
            hist_kind::PHASE_RECOVERY => Some(&self.phase_hist[2]),
            hist_kind::PHASE_FINALIZE => Some(&self.phase_hist[3]),
            hist_kind::ABSORB => Some(&self.absorb_hist),
            hist_kind::OPRF_BATCH => Some(&self.oprf_hist),
            hist_kind::REPLAY => Some(&self.replay_hist),
            _ => None,
        }
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

/// How many per-round rows [`TelemetryService`] retains before
/// evicting the oldest — bounds a long campaign's memory the same way
/// the ring bounds the flight recorder.
pub const MAX_ROUND_ROWS: usize = 64;

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
    /// The retained per-round rows, ascending by round.
    pub rounds: Vec<(u64, ReplayMetrics)>,
}

impl TelemetrySnapshot {
    /// The snapshot as JSON lines: one `{"metric": …, "value": …}` line
    /// per scalar, one `{"hist": …, "count": …, "p50": …}` line per
    /// histogram family and one `{"engine": …, "tier": …}` line per
    /// CPU-dispatched kernel (see `engine_tiers`), each carrying the
    /// caller's `scope` label.
    pub fn to_json_lines(&self, scope: &str) -> String {
        let mut out = String::new();
        let scalars: [(&str, u64); 15] = [
            ("routed", self.totals.routed),
            ("replayed", self.totals.replayed),
            ("journal_depth", self.totals.journal_depth),
            ("truncated", self.totals.truncated),
            ("queue_depth", self.totals.queue_depth),
            ("late_reports_parked", self.totals.late_reports_parked),
            ("deadline_drops", self.churn.deadline_drops),
            ("coordinator_restarts", self.churn.coordinator_restarts),
            ("members", self.churn.members),
            ("pending_joins", self.churn.pending_joins),
            ("joins", self.churn.joins),
            ("leaves", self.churn.leaves),
            ("drops", self.churn.drops),
            ("epochs_completed", self.churn.epochs_completed),
            ("collapses", self.churn.collapses),
        ];
        for (name, value) in scalars {
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
        for kind in hist_kind::ALL {
            let hist = self.totals.hist(kind).expect("ALL names only known kinds");
            let _ = writeln!(
                out,
                "{{\"scope\": \"{scope}\", \"hist\": \"{}\", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                hist_kind::label(kind),
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
        let counter = |out: &mut String, name: &str, value: u64| {
            let _ = writeln!(out, "# TYPE ew_{name} counter\new_{name} {value}");
        };
        let gauge = |out: &mut String, name: &str, value: u64| {
            let _ = writeln!(out, "# TYPE ew_{name} gauge\new_{name} {value}");
        };
        counter(&mut out, "routed_total", self.totals.routed);
        counter(&mut out, "replayed_total", self.totals.replayed);
        gauge(&mut out, "journal_depth", self.totals.journal_depth);
        counter(&mut out, "truncated_total", self.totals.truncated);
        gauge(&mut out, "queue_depth_high_water", self.totals.queue_depth);
        counter(
            &mut out,
            "late_reports_parked_total",
            self.totals.late_reports_parked,
        );
        counter(&mut out, "deadline_drops_total", self.churn.deadline_drops);
        counter(
            &mut out,
            "coordinator_restarts_total",
            self.churn.coordinator_restarts,
        );
        gauge(&mut out, "members", self.churn.members);
        gauge(&mut out, "pending_joins", self.churn.pending_joins);
        counter(&mut out, "joins_total", self.churn.joins);
        counter(&mut out, "leaves_total", self.churn.leaves);
        counter(&mut out, "drops_total", self.churn.drops);
        counter(
            &mut out,
            "epochs_completed_total",
            self.churn.epochs_completed,
        );
        counter(&mut out, "collapses_total", self.churn.collapses);
        let _ = writeln!(out, "# TYPE ew_epoch_phase_nanos counter");
        for (i, nanos) in self.churn.phase_nanos.iter().enumerate() {
            let _ = writeln!(out, "ew_epoch_phase_nanos{{phase=\"{i}\"}} {nanos}");
        }
        for kind in hist_kind::ALL {
            let hist = self.totals.hist(kind).expect("ALL names only known kinds");
            let label = hist_kind::label(kind);
            let _ = writeln!(out, "# TYPE ew_{label}_nanos summary");
            for (q, v) in [(0.5, hist.p50()), (0.9, hist.p90()), (0.99, hist.p99())] {
                let _ = writeln!(out, "ew_{label}_nanos{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "ew_{label}_nanos_sum {}", hist.sum());
            let _ = writeln!(out, "ew_{label}_nanos_count {}", hist.count());
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

/// The telemetry service: accumulates [`ReplayMetrics`] observations
/// per round (and as lifetime totals) and tracks the membership plane's
/// [`ChurnMetrics`]. Retains at most [`MAX_ROUND_ROWS`] per-round rows —
/// older rounds evict, their contribution surviving in the lifetime
/// totals.
#[derive(Debug, Default)]
pub struct TelemetryService {
    totals: ReplayMetrics,
    rounds: BTreeMap<u64, ReplayMetrics>,
    churn: ChurnMetrics,
}

impl TelemetryService {
    /// An empty service.
    pub fn new() -> Self {
        TelemetryService::default()
    }

    /// Folds one observation into `round`'s row and the lifetime
    /// totals, evicting the oldest row beyond [`MAX_ROUND_ROWS`].
    pub fn observe(&mut self, round: u64, metrics: &ReplayMetrics) {
        self.rounds.entry(round).or_default().merge(metrics);
        self.totals.merge(metrics);
        while self.rounds.len() > MAX_ROUND_ROWS {
            let oldest = *self.rounds.keys().next().expect("non-empty map");
            self.rounds.remove(&oldest);
        }
    }

    /// The lifetime totals across every observed round.
    pub fn totals(&self) -> ReplayMetrics {
        self.totals
    }

    /// The accumulated snapshot for one round, if still retained.
    pub fn round_metrics(&self, round: u64) -> Option<ReplayMetrics> {
        self.rounds.get(&round).copied()
    }

    /// How many per-round rows are currently retained.
    pub fn retained_rounds(&self) -> usize {
        self.rounds.len()
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
            rounds: self.rounds.iter().map(|(&r, &m)| (r, m)).collect(),
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
            phase_nanos: [10, 20, 30, 40],
            ..ReplayMetrics::default()
        }
    }

    #[test]
    fn merge_respects_counter_kinds() {
        let mut acc = sample(4);
        acc.merge(&ReplayMetrics {
            routed: 6,
            replayed: 1,
            deduped: 0,
            journal_depth: 2,
            truncated: 1,
            queue_depth: 1,
            late_reports_parked: 2,
            phase_nanos: [1, 1, 1, 1],
            ..ReplayMetrics::default()
        });
        assert_eq!(acc.routed, 10); // counter: adds
        assert_eq!(acc.journal_depth, 2); // gauge: latest wins
        assert_eq!(acc.queue_depth, 4); // high-water: max
        assert_eq!(acc.late_reports_parked, 3); // counter: adds
        assert_eq!(acc.phase_nanos, [11, 21, 31, 41]); // timing: adds
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
    fn observe_keeps_round_rows_and_lifetime_totals() {
        let mut svc = TelemetryService::new();
        svc.observe(7, &sample(4));
        svc.observe(7, &sample(6));
        svc.observe(8, &sample(1));

        let row = svc.round_metrics(7).expect("round 7 observed");
        assert_eq!(row.routed, 10);
        assert_eq!(row.queue_depth, 6);
        assert_eq!(svc.totals().routed, 11);
        assert!(svc.round_metrics(9).is_none(), "never-observed round");
    }

    #[test]
    fn round_rows_evict_oldest_beyond_the_cap() {
        let mut svc = TelemetryService::new();
        for round in 1..=(MAX_ROUND_ROWS as u64 + 10) {
            svc.observe(round, &sample(1));
        }
        assert_eq!(svc.retained_rounds(), MAX_ROUND_ROWS);
        assert!(svc.round_metrics(1).is_none(), "oldest rows evicted");
        assert!(svc.round_metrics(MAX_ROUND_ROWS as u64 + 10).is_some());
        // Evicted rounds still count in the lifetime totals.
        assert_eq!(svc.totals().routed, MAX_ROUND_ROWS as u64 + 10);
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

    #[test]
    fn snapshot_serializes_json_lines_and_prometheus() {
        let mut svc = TelemetryService::new();
        let mut m = sample(4);
        m.absorb_hist.record(1500);
        m.absorb_hist.record(3000);
        svc.observe(1, &m);
        let snap = svc.snapshot();

        let json = snap.to_json_lines("unit_test");
        assert!(json.lines().count() >= 15 + 6 + hist_kind::ALL.len());
        assert!(json.contains("\"metric\": \"routed\", \"value\": 4"));
        assert!(json.contains("\"hist\": \"absorb\", \"count\": 2"));
        assert!(json.contains("\"scope\": \"unit_test\""));
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }

        let prom = snap.to_prometheus_text();
        assert!(prom.contains("ew_routed_total 4"));
        assert!(prom.contains("# TYPE ew_absorb_nanos summary"));
        assert!(prom.contains("ew_absorb_nanos_count 2"));
        // 3000 is in [2816, 3072), an eighth of the octave [2048, 4096).
        assert!(prom.contains("ew_absorb_nanos{quantile=\"0.99\"} 3071"));
        assert!(prom.contains("ew_epoch_phase_nanos{phase=\"5\"}"));

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
}
