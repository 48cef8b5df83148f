//! Names, units and directions of every workload and metric. The same
//! tables are written in `BENCHMARK.json` at the repository root; a unit
//! test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric as `BENCHMARK.json` declares it. `bound` is the share of
/// the parent's median an end-to-end metric may worsen by; per-layer
/// metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system pays. Every workload reports every one.
pub const END_TO_END: [MetricSpec; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_ms", "ms", Lower, 0.15),
    e2e("aggregate_ms", "ms", Lower, 0.15),
    e2e("shard_restart_ms", "ms", Lower, 0.25),
    e2e("enroll_ms", "ms", Lower, 0.15),
    e2e("map_ad_ms", "ms", Lower, 0.15),
    e2e("report_build_ms", "ms", Lower, 0.15),
    e2e("audit_us", "us", Lower, 0.15),
    e2e("campaign_ms", "ms", Lower, 0.15),
    e2e("wire_bytes_per_report", "B", Lower, 0.001),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("ok_share", "ratio", Higher, 0.001),
];

/// The timing metrics among [`END_TO_END`], in cycle order: the ones a
/// run collects samples for and reports the p10 of.
pub const TIMED: [&str; 8] = [
    "enroll_ms",
    "map_ad_ms",
    "report_build_ms",
    "audit_us",
    "round_ms",
    "aggregate_ms",
    "shard_restart_ms",
    "campaign_ms",
];

/// The per-layer rows of the six epoch phases, in the program's
/// `epoch_phase_index` order.
pub const EPOCH_PHASE_ROWS: [&str; 6] = [
    "ew-system.coordinator.epoch_phase_ms.waiting",
    "ew-system.coordinator.epoch_phase_ms.warmup",
    "ew-system.coordinator.epoch_phase_ms.reports",
    "ew-system.coordinator.epoch_phase_ms.recovery",
    "ew-system.coordinator.epoch_phase_ms.finalize",
    "ew-system.coordinator.epoch_phase_ms.grace",
];

/// The seed used when none is given, and a second one no shape was tuned
/// on: a claim made with the first must also hold on the second.
pub const DEFAULT_SEED: u64 = 16;
pub const HELD_OUT_SEED: u64 = 2019;
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Single layers, named `<module>.<metric>`.
pub const PER_LAYER: [MetricSpec; 72] = [
    layer("ew-bigint.modpow_2048_us", "us", Lower),
    layer("ew-bigint.mulmod_2048_ns", "ns", Lower),
    layer("ew-bigint.fixed_base_pow_us", "us", Lower),
    layer("ew-bigint.batch_inv_32_us", "us", Lower),
    layer("ew-crypto.dh.keygen_us", "us", Lower),
    layer("ew-crypto.dh.shared_secret_us", "us", Lower),
    layer("ew-crypto.blinding.setup_ms", "ms", Lower),
    layer("ew-crypto.oprf.blind_us_per_ad", "us", Lower),
    layer("ew-crypto.oprf.evaluate_us_per_ad", "us", Lower),
    layer("ew-crypto.oprf.finalize_us_per_ad", "us", Lower),
    layer("ew-system.oprf_server.handle_batch_us_per_ad", "us", Lower),
    layer("ew-system.oprf_server.requests_served", "count", Lower),
    layer("ew-crypto.blinding.vector_ns_per_peer_cell", "ns", Lower),
    layer(
        "ew-crypto.blinding.adjustment_ns_per_peer_cell",
        "ns",
        Lower,
    ),
    layer("ew-crypto.blinding.sync_us_per_peer", "us", Lower),
    layer("ew-crypto.hmac.hmac_256B_ns", "ns", Lower),
    layer("ew-crypto.sha256.mb_per_s", "MB/s", Higher),
    layer("ew-crypto.sha256.lanes8_mb_per_s", "MB/s", Higher),
    layer("ew-system.client.report_envelope_ms", "ms", Lower),
    layer("ew-system.client.adjustment_ms", "ms", Lower),
    layer("ew-sketch.cms.update_ns", "ns", Lower),
    layer("ew-sketch.cms.query_ns", "ns", Lower),
    layer("ew-sketch.accumulator.add_ns_per_cell", "ns", Lower),
    layer("ew-sketch.accumulator.merge_ns_per_cell", "ns", Lower),
    layer("ew-proto.envelope.encode_us", "us", Lower),
    layer("ew-proto.envelope.decode_us", "us", Lower),
    layer("ew-proto.framing.encode_frame_us", "us", Lower),
    layer("ew-proto.framing.decode_frame_us", "us", Lower),
    layer("ew-proto.crc32.mb_per_s", "MB/s", Higher),
    layer("ew-proto.transport.roundtrip_us", "us", Lower),
    layer("ew-proto.journal.record_encode_us", "us", Lower),
    layer("ew-system.node.phase_open_ms", "ms", Lower),
    layer("ew-system.node.phase_reports_ms", "ms", Lower),
    layer("ew-system.node.phase_recovery_ms", "ms", Lower),
    layer("ew-system.node.phase_finalize_ms", "ms", Lower),
    layer("ew-system.node.phase_open_self_ms", "ms", Lower),
    layer("ew-system.node.phase_reports_self_ms", "ms", Lower),
    layer("ew-system.node.phase_recovery_self_ms", "ms", Lower),
    layer("ew-system.node.phase_finalize_self_ms", "ms", Lower),
    layer("ew-system.node.bus_send_ms", "ms", Lower),
    layer("ew-system.node.bus_drain_ms", "ms", Lower),
    layer("ew-system.node.bus_envelopes", "count", Lower),
    layer("ew-system.node.t2_speedup", "ratio", Lower),
    layer("ew-system.cluster.new_cluster_ms", "ms", Lower),
    layer("ew-system.cluster.absorb_batch_ms", "ms", Lower),
    layer("ew-system.cluster.on_envelope_ms", "ms", Lower),
    layer("ew-system.cluster.finalize_ms", "ms", Lower),
    layer("ew-system.cluster.restart_shard_ms", "ms", Lower),
    layer("ew-system.cluster.routed", "count", Lower),
    layer("ew-system.cluster.replayed", "count", Lower),
    layer("ew-system.cluster.deduped", "count", Lower),
    layer("ew-system.cluster.queue_depth", "count", Lower),
    layer("ew-system.journal.append_us", "us", Lower),
    layer("ew-system.journal.replay_for_shard_us", "us", Lower),
    layer("ew-system.journal.snapshot_us", "us", Lower),
    layer("ew-system.journal.depth", "count", Lower),
    layer("ew-system.journal.truncated", "count", Lower),
    layer("ew-system.coordinator.tick_us", "us", Lower),
    layer("ew-system.coordinator.checkpoint_us", "us", Lower),
    layer("ew-system.coordinator.restore_us", "us", Lower),
    layer("ew-system.coordinator.epoch_phase_ms.waiting", "ms", Lower),
    layer("ew-system.coordinator.epoch_phase_ms.warmup", "ms", Lower),
    layer("ew-system.coordinator.epoch_phase_ms.reports", "ms", Lower),
    layer("ew-system.coordinator.epoch_phase_ms.recovery", "ms", Lower),
    layer("ew-system.coordinator.epoch_phase_ms.finalize", "ms", Lower),
    layer("ew-system.coordinator.epoch_phase_ms.grace", "ms", Lower),
    layer("ew-system.coordinator.control_log_depth", "count", Lower),
    layer("ew-core.detector.classify_ns", "ns", Lower),
    layer("ew-core.global.from_estimates_us", "us", Lower),
    layer("harness.attributed_share", "ratio", Higher),
    layer("harness.trace_overhead_share", "ratio", Lower),
    layer("harness.calib_ms", "ms", Lower),
];

/// Why each workload exists, as `BENCHMARK.json` records it.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "steady_inproc",
        "25-client Table 1 slice, 5x2048 sketch, toy keys, 4 in-proc shards: client-side blinding (HMAC/SHA-256) does ~96% of round_ms; codec, journal and bigint almost none",
    ),
    (
        "aggregate_wire",
        "32 recorded clients replayed over a lossy framed wire into 4 shards, each crash-restarted: blinding does nothing; codec, CRC, journal, dedupe, absorb/merge and the finalize sweep do it all",
    ),
    (
        "client_journey_2048",
        "one new client's week at MODP-2048 / RSA-2048: Montgomery modpow dominates enroll_ms (variable-base DH) and map_ad_ms (RSA-CRT + batch inversion), two uses a bigint change can trade off",
    ),
    (
        "churn_campaign",
        "3-epoch open-world campaign, 20-member rosters, drops, joins and a coordinator crash-restart per epoch: the only path through the coordinator, sync_blinding and warm-cache adjustments",
    ),
];

/// The spec of a metric by name, from either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for name in TIMED.into_iter().chain(EPOCH_PHASE_ROWS) {
            assert!(metric(name).is_some(), "{name}");
        }
    }

    #[test]
    fn workloads_are_the_shapes() {
        let shapes: Vec<&str> = crate::world::SHAPES.iter().map(|s| s.name).collect();
        let listed: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(shapes, listed);
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mine = |table: &[MetricSpec]| -> Vec<(String, String, String, Option<f64>)> {
            table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), mine(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), mine(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let text = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_string();
                (text("name"), text("why"))
            })
            .collect();
        let listed: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, listed);
        let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
        assert_eq!(paths, [Value::Str("benchmark".to_string())]);
        let seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(seconds, Some(RUN_SECONDS as f64));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
