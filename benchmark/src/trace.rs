//! The benchmark-side span recorder behind the `Timed` decorators.
//!
//! Spans are recorded around calls into the program, never inside it:
//! name, start, end, the span that was open when this one started, and
//! the round id the spans of one request share. They live in a buffer
//! allocated before the traced run and are written out when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The round (or campaign iteration) this span belongs to.
    pub round: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
    round: u64,
    /// Spans refused because the buffer was full.
    dropped: u64,
}

/// The recorder. `ClientNode` methods take `&self` and the round machine
/// wants `Sync` clients, so the state sits behind a mutex; the traced
/// run is single-threaded and the lock is never contended.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    capacity: usize,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            self.tracer.close(index);
        }
    }
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans; later spans are
    /// counted as dropped, never reallocated into.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            capacity,
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(16),
                counts: BTreeMap::new(),
                round: 0,
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer lock never poisoned")
    }

    /// Sets the identifier stamped on every span opened from now on.
    pub fn set_round(&self, round: u64) {
        self.lock().round = round;
    }

    /// Opens a span under whichever span is open now.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut inner = self.lock();
        if inner.spans.len() == self.capacity {
            inner.dropped += 1;
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let index = inner.spans.len() as u32;
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        let round = inner.round;
        inner.open.push(index);
        // Read the clock last, so the bookkeeping above is the parent's.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    fn close(&self, index: u32) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        inner.spans[index as usize].end_ns = end_ns;
        // Guards drop innermost first; anything else is a harness bug.
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(index), "spans close in LIFO order");
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_insert(0) += n;
    }

    /// The value of counter `name` (0 if never counted).
    #[cfg(test)]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counts.get(name).copied().unwrap_or(0)
    }

    /// A copy of every closed span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Spans refused for lack of buffer.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Writes spans (with self times) and counters as one JSON document.
    pub fn dump_json(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let inner = self.lock();
        let selfs = self_times(&inner.spans);
        let mut out = String::with_capacity(inner.spans.len() * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"unit\": \"ns\", \"dropped\": {}, \"counts\": {{",
            crate::json::escape(workload),
            inner.dropped
        );
        for (i, (name, value)) in inner.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, (span, self_ns)) in inner.spans.iter().zip(&selfs).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"round\": {}, \"self\": {self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.round
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent == NO_PARENT {
            continue;
        }
        let parent = &spans[span.parent as usize];
        let start = span.start_ns.max(parent.start_ns);
        let end = span.end_ns.min(parent.end_ns);
        if start < end {
            children[span.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut cover)| span.duration_ns() - union_len(&mut cover))
        .collect()
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
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
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // phase [0,100) ⊃ absorb [10,60) ⊃ shard [20,40); phase ⊃ send [70,80)
        let spans = vec![
            span("phase", 0, 100, NO_PARENT),
            span("absorb", 10, 60, 0),
            span("shard", 20, 40, 1),
            span("send", 70, 80, 0),
        ];
        // The grandchild is the child's to subtract, not the phase's.
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10]);
    }

    #[test]
    fn partial_and_overlapping_child_cover_is_clipped_and_counted_once() {
        let spans = vec![
            span("parent", 100, 200, NO_PARENT),
            // Starts before the parent: only [100,120) counts.
            span("early", 90, 120, 0),
            // Overlaps `early` on [110,120): the union is [100,150).
            span("overlap", 110, 150, 0),
            // Runs past the parent's end: only [190,200) counts.
            span("late", 190, 230, 0),
            // Entirely outside: contributes nothing.
            span("outside", 300, 400, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
    }

    #[test]
    fn recorder_links_parents_counts_and_respects_capacity() {
        let tracer = Tracer::new(3);
        tracer.set_round(7);
        {
            let _phase = tracer.span("phase");
            {
                let _child = tracer.span("child");
                tracer.count("envelopes", 2);
            }
            let _second = tracer.span("child");
            let _refused = tracer.span("one-too-many");
        }
        tracer.count("envelopes", 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(tracer.dropped(), 1);
        assert_eq!(tracer.counter("envelopes"), 5);
        // Leaves: all of their time is their own.
        assert_eq!(
            self_times(&spans)[1..],
            [spans[1].duration_ns(), spans[2].duration_ns()]
        );
    }

    #[test]
    fn dump_is_valid_json() {
        let tracer = Tracer::new(8);
        {
            let _a = tracer.span("a");
            let _b = tracer.span("b");
        }
        tracer.count("n", 1);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        tracer.dump_json("test", &path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            doc.get("counts")
                .and_then(|c| c.get("n"))
                .and_then(|n| n.as_f64()),
            Some(1.0)
        );
    }
}
