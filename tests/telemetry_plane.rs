//! Property coverage for the observability plane: histogram algebra
//! and metric-merge semantics. Telemetry is read in process, so none of
//! it has a wire form.
//!
//! * **Merge algebra** — `Hist64::merge` is associative *and*
//!   commutative (it is a per-bucket sum); `ReplayMetrics::merge` and
//!   `ChurnMetrics::merge` are associative, and commutative modulo
//!   their gauge fields (`journal_depth`, `members`, `pending_joins`
//!   are latest-wins by design).
//! * **Quantile bounds** — a bucketed quantile never understates:
//!   `quantile(q)` is an upper bound on the true q-quantile and at most
//!   12.5 % above it (eight buckets per power of two).

use proptest::prelude::*;

use eyewnder::system::{ChurnMetrics, Hist64, ReplayMetrics};

/// A bounded counter value: large enough to exercise wide buckets,
/// small enough that chains of `+=` merges cannot overflow in debug.
fn counter() -> impl Strategy<Value = u64> {
    0u64..(1 << 40)
}

fn hist() -> impl Strategy<Value = Hist64> {
    proptest::collection::vec(any::<u64>(), 0..24).prop_map(|samples| {
        let mut h = Hist64::new();
        for s in samples {
            h.record(s);
        }
        h
    })
}

fn replay_metrics() -> impl Strategy<Value = ReplayMetrics> {
    // 7 scalar counters as one flat draw (the proptest shim caps tuples
    // at arity 6), plus the 7 histogram families.
    (
        proptest::collection::vec(counter(), 7..8),
        proptest::collection::vec(hist(), 7..8),
    )
        .prop_map(|(v, h)| ReplayMetrics {
            routed: v[0],
            replayed: v[1],
            deduped: v[2],
            journal_depth: v[3],
            truncated: v[4],
            queue_depth: v[5],
            late_reports_parked: v[6],
            phase_hist: [h[0], h[1], h[2], h[3]],
            absorb_hist: h[4],
            oprf_hist: h[5],
            replay_hist: h[6],
        })
}

fn churn_metrics() -> impl Strategy<Value = ChurnMetrics> {
    // 9 scalars + 6 phase ticks + 6 phase nanos, flat for the same
    // tuple-arity reason.
    proptest::collection::vec(counter(), 21..22).prop_map(|v| {
        let mut metrics = ChurnMetrics {
            members: v[0],
            pending_joins: v[1],
            joins: v[2],
            leaves: v[3],
            drops: v[4],
            epochs_completed: v[5],
            collapses: v[6],
            deadline_drops: v[7],
            coordinator_restarts: v[8],
            ..ChurnMetrics::default()
        };
        metrics.phase_ticks.copy_from_slice(&v[9..15]);
        metrics.phase_nanos.copy_from_slice(&v[15..21]);
        metrics
    })
}

fn merged_replay(a: &ReplayMetrics, b: &ReplayMetrics) -> ReplayMetrics {
    let mut out = *a;
    out.merge(b);
    out
}

fn merged_churn(a: &ChurnMetrics, b: &ChurnMetrics) -> ChurnMetrics {
    let mut out = *a;
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn hist_merge_is_associative_and_commutative(a in hist(), b in hist(), c in hist()) {
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);

        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc, "associativity");

        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    fn hist_quantiles_bound_the_samples(samples in proptest::collection::vec(any::<u64>(), 1..64)) {
        let mut h = Hist64::new();
        for &s in &samples {
            h.record(s);
        }
        let max = *samples.iter().max().expect("non-empty");
        // The p99 upper bound covers the largest sample but never
        // overshoots its bucket: at most (2 * max + 1) saturating.
        prop_assert!(h.quantile(1.0) >= max);
        prop_assert!(h.quantile(1.0) <= max.saturating_mul(2).saturating_add(1));
        // Quantiles are monotone in q.
        prop_assert!(h.p50() <= h.p90());
        prop_assert!(h.p90() <= h.p99());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    #[test]
    fn hist_quantiles_are_within_an_eighth_of_the_truth(
        samples in proptest::collection::vec(any::<u64>().prop_map(|v| v >> (v % 64)), 1..64),
        q in 0.0f64..1.0,
    ) {
        let mut h = Hist64::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [q, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let truth = sorted[rank - 1] as u128;
            let estimate = h.quantile(q) as u128;
            prop_assert!(estimate >= truth, "q={} never understates", q);
            prop_assert!(8 * estimate <= 9 * truth, "q={}: {} for {}", q, estimate, truth);
        }
    }

    #[test]
    fn replay_merge_is_associative(a in replay_metrics(), b in replay_metrics(), c in replay_metrics()) {
        let left = merged_replay(&merged_replay(&a, &b), &c);
        let right = merged_replay(&a, &merged_replay(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn replay_merge_is_commutative_modulo_gauges(a in replay_metrics(), b in replay_metrics()) {
        let mut ab = merged_replay(&a, &b);
        let mut ba = merged_replay(&b, &a);
        // journal_depth is a latest-wins gauge — the one field where
        // argument order is *supposed* to matter.
        prop_assert_eq!(ab.journal_depth, b.journal_depth);
        prop_assert_eq!(ba.journal_depth, a.journal_depth);
        ab.journal_depth = 0;
        ba.journal_depth = 0;
        prop_assert_eq!(ab, ba, "everything but the gauge commutes");
    }

    #[test]
    fn churn_merge_is_associative(a in churn_metrics(), b in churn_metrics(), c in churn_metrics()) {
        let left = merged_churn(&merged_churn(&a, &b), &c);
        let right = merged_churn(&a, &merged_churn(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn churn_merge_is_commutative_modulo_gauges(a in churn_metrics(), b in churn_metrics()) {
        let mut ab = merged_churn(&a, &b);
        let mut ba = merged_churn(&b, &a);
        prop_assert_eq!(ab.members, b.members);
        prop_assert_eq!(ab.pending_joins, b.pending_joins);
        ab.members = 0;
        ba.members = 0;
        ab.pending_joins = 0;
        ba.pending_joins = 0;
        prop_assert_eq!(ab, ba, "everything but the gauges commutes");
    }
}
