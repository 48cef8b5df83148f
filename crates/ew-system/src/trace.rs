//! Flight-recorder tracing: a bounded ring of structured events behind
//! a near-zero-cost seam.
//!
//! The round machine, coordinator and cluster emit *spans* (phase
//! open/close with parent linkage) and *instants* (one-shot marks:
//! a deadline drop, a shard crash, a journal replay) into a
//! thread-local [`TraceRecorder`]. The recorder is **off by default**:
//! every instrumentation point costs one thread-local lookup and an
//! `Option` check when disabled, and call sites sit at phase and fault
//! granularity — never per-cell or per-envelope — which is what the
//! ≤ 1% disabled-overhead budget on a clustered round rests on.
//!
//! ## Determinism
//!
//! Events carry **logical** sequence numbers assigned by the recorder,
//! not wall-clock timestamps, and recording never feeds back into
//! protocol state — every determinism and parity suite is bit-identical
//! with tracing on or off. Payload slots `a`/`b` carry logical values
//! (round, epoch, counts), never durations.
//!
//! ## Why thread-local
//!
//! A round runs on its driver's thread, so every event of it lands in
//! that thread's recorder (timings go into histograms via
//! [`crate::telemetry`] instead). A thread-local recorder therefore
//! needs no locks, and the
//! serial-test lane's thread-local ops-trace counters set the
//! precedent. Enable with [`enable`], harvest with [`drain`], and turn
//! off with [`disable`].

use std::cell::RefCell;
use std::collections::VecDeque;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span began; `span` names it, `parent` links the enclosing one.
    SpanOpen,
    /// The span `span` ended.
    SpanClose,
    /// A one-shot mark inside the current span.
    Instant,
}

/// One flight-recorder event. `seq` is a logical, recorder-monotone
/// sequence number — causality, not wall-clock. `a`/`b` are
/// label-specific payloads (round, epoch, counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical sequence number, monotone per recorder.
    pub seq: u64,
    /// Span open/close or instant.
    pub kind: TraceEventKind,
    /// The span this event names (opens/closes), or for an instant the
    /// span it belongs to (0 = top level).
    pub span: u32,
    /// The enclosing span at emission time (0 = top level).
    pub parent: u32,
    /// Static label: `"round_open"`, `"coordinator_restart"`, ….
    pub label: &'static str,
    /// First label-specific payload.
    pub a: u64,
    /// Second label-specific payload.
    pub b: u64,
}

/// The flight recorder: a bounded ring of [`TraceEvent`]s. When full,
/// the **oldest** events are overwritten — the recorder always holds
/// the most recent window, which is the one a post-mortem wants.
#[derive(Debug)]
pub struct TraceRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    seq: u64,
    next_span: u32,
    stack: Vec<u32>,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            seq: 0,
            next_span: 0,
            stack: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, kind: TraceEventKind, span: u32, label: &'static str, a: u64, b: u64) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.seq += 1;
        self.ring.push_back(TraceEvent {
            seq: self.seq,
            kind,
            span,
            parent: self.stack.last().copied().unwrap_or(0),
            label,
            a,
            b,
        });
    }

    /// Opens a span and returns its id; the span becomes the parent of
    /// everything recorded until the matching [`TraceRecorder::close`].
    pub fn open(&mut self, label: &'static str, a: u64, b: u64) -> u32 {
        self.next_span += 1;
        let id = self.next_span;
        self.push(TraceEventKind::SpanOpen, id, label, a, b);
        self.stack.push(id);
        id
    }

    /// Closes span `id`. Closing out of order unwinds the stack to the
    /// named span (a crash drill can abandon inner spans).
    pub fn close(&mut self, id: u32, label: &'static str) {
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
        self.push(TraceEventKind::SpanClose, id, label, 0, 0);
    }

    /// Records a one-shot mark inside the current span.
    pub fn instant(&mut self, label: &'static str, a: u64, b: u64) {
        let span = self.stack.last().copied().unwrap_or(0);
        self.push(TraceEventKind::Instant, span, label, a, b);
    }

    /// Events evicted by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

thread_local! {
    static RECORDER: RefCell<Option<TraceRecorder>> = const { RefCell::new(None) };
}

/// Turns the flight recorder on for this thread with the given ring
/// capacity, replacing (and discarding) any previous recorder.
pub fn enable(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(TraceRecorder::new(capacity)));
}

/// Turns the flight recorder off for this thread, returning it (and
/// its retained window) if one was on.
pub fn disable() -> Option<TraceRecorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Takes the retained window, leaving the recorder on but empty.
pub fn drain() -> Vec<TraceEvent> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|t| t.ring.drain(..).collect())
            .unwrap_or_default()
    })
}

/// Records an instant event. A no-op (one thread-local lookup) when
/// disabled.
pub fn instant(label: &'static str, a: u64, b: u64) {
    RECORDER.with(|r| {
        if let Some(t) = r.borrow_mut().as_mut() {
            t.instant(label, a, b);
        }
    });
}

/// Opens a span closed by the returned guard's `Drop`. A no-op guard
/// when disabled.
pub fn span(label: &'static str, a: u64, b: u64) -> SpanGuard {
    let id = RECORDER.with(|r| r.borrow_mut().as_mut().map(|t| t.open(label, a, b)));
    SpanGuard { id, label }
}

/// RAII guard for [`span`]: closes the span when dropped. Holds no
/// reference into the recorder, so spans can outlive arbitrary borrows.
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u32>,
    label: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            RECORDER.with(|r| {
                if let Some(t) = r.borrow_mut().as_mut() {
                    t.close(id, self.label);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceRecorder {
        /// The retained window, oldest first.
        fn events(&self) -> Vec<TraceEvent> {
            self.ring.iter().copied().collect()
        }
    }

    /// Whether this thread's recorder is on; tests check the seam's
    /// enable/disable pair with it.
    fn is_enabled() -> bool {
        RECORDER.with(|r| r.borrow().is_some())
    }

    #[test]
    fn spans_nest_and_instants_inherit_the_open_parent() {
        let mut t = TraceRecorder::new(16);
        let outer = t.open("outer", 1, 0);
        let inner = t.open("inner", 2, 0);
        t.instant("mark", 3, 4);
        t.close(inner, "inner");
        t.instant("after", 5, 6);
        t.close(outer, "outer");

        let ev = t.events();
        assert_eq!(ev.len(), 6);
        assert_eq!(ev[0].kind, TraceEventKind::SpanOpen);
        assert_eq!(ev[0].parent, 0, "outer opens at top level");
        assert_eq!(ev[1].parent, outer, "inner nests under outer");
        assert_eq!(ev[2].parent, inner, "instant inherits the open span");
        assert_eq!(ev[2].a, 3);
        assert_eq!(ev[2].b, 4);
        assert_eq!(ev[4].parent, outer, "after inner closes, outer rules");
        let seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq is monotone");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = TraceRecorder::new(3);
        for i in 0..5 {
            t.instant("tick", i, 0);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(
            ev.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "the most recent window survives"
        );
    }

    #[test]
    fn out_of_order_close_unwinds_to_the_named_span() {
        let mut t = TraceRecorder::new(16);
        let outer = t.open("outer", 0, 0);
        let _inner = t.open("inner", 0, 0);
        // A crash drill abandons `inner`; closing `outer` must not
        // leave the stack pointing at a dead span.
        t.close(outer, "outer");
        t.instant("post", 0, 0);
        let ev = t.events();
        assert_eq!(ev.last().unwrap().parent, 0, "stack fully unwound");
    }

    #[test]
    fn thread_local_seam_costs_nothing_when_disabled() {
        disable();
        assert!(!is_enabled());
        {
            let guard = span("phase", 1, 2);
            assert_eq!(guard.id, None);
            instant("mark", 0, 0);
        }
        assert!(drain().is_empty());

        enable(8);
        assert!(is_enabled());
        {
            let _g = span("phase", 1, 2);
            instant("mark", 9, 9);
        }
        let ev = drain();
        assert_eq!(ev.len(), 3, "open, instant, close");
        assert_eq!(ev[1].label, "mark");
        assert_eq!(ev[1].parent, ev[0].span);
        assert!(drain().is_empty(), "drain empties but keeps recording");
        assert!(is_enabled());
        instant("after", 0, 0);
        let rec = disable().expect("recorder returned");
        assert_eq!(rec.capacity, 8);
        assert_eq!(rec.events().len(), 1, "drained recorder kept recording");
        assert!(!is_enabled());
    }
}
