//! Per-layer metrics read off the recorded spans.
//!
//! Every decorated stage opens one root span (`round`, `aggregate`,
//! `campaign`); everything the decorators record during it hangs below.
//! A layer's row is the time of its spans under one kind of root, per
//! root — so `ew-system.node.*` describes one decorated round and
//! `ew-system.cluster.*` one decorated aggregation replay.

use crate::trace::{self_times, Span, NO_PARENT};

/// Spans with their self times and the root each belongs to.
#[derive(Debug)]
pub struct SpanStats<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
    /// Index of each span's outermost ancestor (itself for a root).
    roots: Vec<u32>,
}

impl<'a> SpanStats<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        // A parent is always recorded before its children.
        let mut roots: Vec<u32> = Vec::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            roots.push(if span.parent == NO_PARENT {
                i as u32
            } else {
                roots[span.parent as usize]
            });
        }
        SpanStats {
            spans,
            selfs: self_times(spans),
            roots,
        }
    }

    /// Root spans named `stage`.
    pub fn stages(&self, stage: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == stage)
            .count()
    }

    /// `(calls, total ms, self ms)` of the spans named `name` below roots
    /// named `stage`, summed over all such roots.
    pub fn under(&self, stage: &str, name: &str) -> (u64, f64, f64) {
        let mut out = (0, 0.0, 0.0);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name && self.spans[self.roots[i] as usize].name == stage {
                out.0 += 1;
                out.1 += span.duration_ns() as f64 / 1e6;
                out.2 += self.selfs[i] as f64 / 1e6;
            }
        }
        out
    }

    /// Mean total ms per `stage` root of the spans named `name`.
    pub fn per_stage_ms(&self, stage: &str, name: &str) -> f64 {
        self.under(stage, name).1 / self.stages(stage).max(1) as f64
    }

    /// Mean self ms per `stage` root of the spans named `name`.
    pub fn per_stage_self_ms(&self, stage: &str, name: &str) -> f64 {
        self.under(stage, name).2 / self.stages(stage).max(1) as f64
    }

    /// Mean ms per call of the spans named `name` below `stage` roots.
    pub fn per_call_ms(&self, stage: &str, name: &str) -> f64 {
        let (calls, total, _) = self.under(stage, name);
        total / calls.max(1) as f64
    }

    /// Share of the `stages` roots' wall time that decorator spans
    /// cover: everything except the self time of the root and phase
    /// spans, which is the round machine's own code between role calls
    /// (and the harness's own bookkeeping).
    pub fn attributed_share(&self, stages: &[&str]) -> f64 {
        let (mut wall, mut own) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            let root = &self.spans[self.roots[i] as usize];
            if !stages.contains(&root.name) {
                continue;
            }
            if span.parent == NO_PARENT {
                wall += span.duration_ns();
                own += self.selfs[i];
            } else if span.name.starts_with("phase.") {
                own += self.selfs[i];
            }
        }
        if wall == 0 {
            return 0.0;
        }
        1.0 - own as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn rows_are_per_root_and_shares_exclude_machine_self_time() {
        let ms = 1_000_000;
        let spans = vec![
            // A decorated round: 100 ms, of which 90 ms in decorators.
            span("round", 0, 100 * ms, NO_PARENT),
            span("phase.reports", 0, 80 * ms, 0),
            span("client.report_envelope", 0, 30 * ms, 1),
            span("client.report_envelope", 30 * ms, 70 * ms, 1),
            span("backend.absorb_batch", 72 * ms, 78 * ms, 1),
            span("phase.finalize", 80 * ms, 100 * ms, 0),
            span("backend.finalize", 84 * ms, 98 * ms, 5),
            // An aggregation replay with the same span names.
            span("aggregate", 200 * ms, 210 * ms, NO_PARENT),
            span("phase.reports", 200 * ms, 208 * ms, 7),
            span("backend.absorb_batch", 201 * ms, 207 * ms, 8),
        ];
        let stats = SpanStats::new(&spans);
        assert_eq!(stats.stages("round"), 1);
        assert_eq!(
            stats.under("round", "client.report_envelope"),
            (2, 70.0, 70.0)
        );
        assert_eq!(stats.per_call_ms("round", "client.report_envelope"), 35.0);
        assert_eq!(stats.per_stage_ms("round", "backend.absorb_batch"), 6.0);
        assert_eq!(stats.per_stage_ms("aggregate", "backend.absorb_batch"), 6.0);
        assert_eq!(stats.per_stage_ms("round", "phase.reports"), 80.0);
        assert_eq!(stats.per_stage_self_ms("round", "phase.reports"), 4.0);
        assert_eq!(stats.per_stage_self_ms("round", "phase.finalize"), 6.0);
        // round: root self 0, phases self 4 + 6 → 90 % attributed.
        assert!((stats.attributed_share(&["round"]) - 0.90).abs() < 1e-12);
        // aggregate: root self 2, phase self 2 → 60 %.
        assert!((stats.attributed_share(&["aggregate"]) - 0.60).abs() < 1e-12);
        assert_eq!(stats.attributed_share(&["campaign"]), 0.0);
    }
}
