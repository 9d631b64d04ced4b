//! In-memory span recorder and per-layer self-time accounting.
//!
//! Every call into a layer is wrapped in a span: layer, name, start, end,
//! the span that caused it, the thread it ran on and the scenario group it
//! belongs to. Spans stay in memory (one buffer per thread, flushed into
//! the shared [`Trace`] when the thread's [`Recorder`] drops) and are
//! written out once the run ends.
//!
//! Calls too frequent to span one by one (daemon selections, monitor
//! predicates) are folded into one *aggregate* child per measured run:
//! its length is the summed busy time of those calls.
//!
//! A layer's self time is its spans' length minus the length of their
//! same-thread children. A span whose children run on other threads (the
//! executor waiting on its workers) is a wait: its self time is idle, not
//! work, and counts toward neither busy time nor any layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the trace's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u64,
    /// The span that caused this one (possibly on another thread).
    pub parent: Option<u64>,
    /// Scenario group the work belongs to (0 for campaign-wide work).
    pub group: u64,
    /// Recording thread (0 is the driving thread).
    pub thread: usize,
    /// Layer, named after the module that owns the timed call.
    pub layer: &'static str,
    /// The timed call.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Whether `end - start` is the summed time of many short calls rather
    /// than one interval.
    pub aggregate: bool,
}

impl Span {
    /// Length of the span.
    #[must_use]
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Named exact counts, kept next to the spans of the layer that does the
/// work.
pub type Counts = BTreeMap<&'static str, u64>;

/// The shared sink every thread's recorder flushes into.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicUsize,
    sink: Mutex<(Vec<Span>, Counts)>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicUsize::new(0),
            sink: Mutex::default(),
        }
    }

    /// A recorder for a new thread (the first recorder is thread 0). Its
    /// outermost spans are children of `parent`.
    #[must_use]
    pub fn recorder(&self, parent: Option<u64>) -> Recorder<'_> {
        Recorder {
            trace: self,
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            group: 0,
            root: parent,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Counts::new(),
        }
    }

    /// Every flushed span (sorted by id) and the summed counts.
    #[must_use]
    pub fn finish(self) -> (Vec<Span>, Counts) {
        let (mut spans, counts) = self.sink.into_inner().expect("no recorder panicked");
        spans.sort_by_key(|s| s.id);
        (spans, counts)
    }
}

/// Per-thread span stack and counters.
pub struct Recorder<'t> {
    trace: &'t Trace,
    thread: usize,
    group: u64,
    root: Option<u64>,
    stack: Vec<(u64, &'static str, &'static str, Duration)>,
    spans: Vec<Span>,
    counts: Counts,
}

impl Recorder<'_> {
    fn now(&self) -> Duration {
        self.trace.epoch.elapsed()
    }

    /// The innermost open span (or the recorder's parent when none is
    /// open).
    #[must_use]
    pub fn current(&self) -> Option<u64> {
        self.stack.last().map(|s| s.0).or(self.root)
    }

    /// Tags the spans opened from now on with scenario group `group`.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> u64 {
        let id = self.trace.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        self.stack.push((id, layer, name, start));
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the caller's pairing).
    pub fn close(&mut self) {
        let (id, layer, name, start) = self.stack.pop().expect("close without open");
        let end = self.now();
        let parent = self.current();
        self.spans.push(Span {
            id,
            parent,
            group: self.group,
            thread: self.thread,
            layer,
            name,
            start,
            end,
            aggregate: false,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(layer, name);
        let out = f();
        self.close();
        out
    }

    /// Records `busy` as an aggregate child of the innermost open span.
    pub fn aggregate(&mut self, layer: &'static str, name: &'static str, busy: Duration) {
        let id = self.trace.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.stack.last().map_or_else(|| self.now(), |s| s.3);
        self.spans.push(Span {
            id,
            parent: self.current(),
            group: self.group,
            thread: self.thread,
            layer,
            name,
            start,
            end: start + busy,
            aggregate: true,
        });
    }

    /// Adds `n` to the named count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        // A recorder dropped while unwinding has nothing worth keeping,
        // and a poisoned sink means the trace is already lost.
        if let Ok(mut sink) = self.trace.sink.lock() {
            sink.0.append(&mut self.spans);
            for (k, v) in std::mem::take(&mut self.counts) {
                *sink.1.entry(k).or_default() += v;
            }
        }
    }
}

/// Time accounting derived from a finished trace.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Self seconds per layer (waits excluded).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Total span seconds per (layer, name).
    pub total_s: BTreeMap<(&'static str, &'static str), f64>,
    /// Thread-seconds of work: every thread's root spans minus waits.
    pub busy_s: f64,
    /// Thread-seconds the driving threads spent waiting on workers.
    pub wait_s: f64,
}

impl Breakdown {
    /// Accounts `spans` (see the module docs for the rules).
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let thread_of: BTreeMap<u64, usize> = spans.iter().map(|s| (s.id, s.thread)).collect();
        let mut same_thread_children: BTreeMap<u64, f64> = BTreeMap::new();
        let mut waits: BTreeMap<u64, bool> = BTreeMap::new();
        let mut out = Self::default();
        for s in spans {
            let len = s.len().as_secs_f64();
            *out.total_s.entry((s.layer, s.name)).or_default() += len;
            match s.parent.and_then(|p| thread_of.get(&p).map(|&t| (p, t))) {
                Some((p, t)) if t == s.thread => {
                    *same_thread_children.entry(p).or_default() += len;
                }
                Some((p, _)) => {
                    waits.insert(p, true);
                    out.busy_s += len;
                }
                None => out.busy_s += len,
            }
        }
        for s in spans {
            let own = (s.len().as_secs_f64()
                - same_thread_children.get(&s.id).copied().unwrap_or(0.0))
            .max(0.0);
            if waits.contains_key(&s.id) {
                out.wait_s += own;
            } else {
                *out.self_s.entry(s.layer).or_default() += own;
            }
        }
        out.busy_s -= out.wait_s;
        out
    }

    /// Self seconds of `layer` (0 when it never ran).
    #[must_use]
    pub fn layer(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }

    /// Total seconds of the `(layer, name)` spans (0 when none ran).
    #[must_use]
    pub fn total(&self, layer: &str, name: &str) -> f64 {
        self.total_s.get(&(layer, name)).copied().unwrap_or(0.0)
    }
}

/// Renders spans as one JSON object per line.
#[must_use]
pub fn spans_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"group\":{},\"thread\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"aggregate\":{}}}\n",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.group,
            s.thread,
            s.layer,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.aggregate
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        thread: usize,
        layer: &'static str,
        a: u64,
        b: u64,
    ) -> Span {
        Span {
            id,
            parent,
            group: 0,
            thread,
            layer,
            name: "x",
            start: Duration::from_secs(a),
            end: Duration::from_secs(b),
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_and_waits_are_not_work() {
        let spans = vec![
            span(1, None, 0, "root", 0, 10),
            span(2, Some(1), 0, "exec", 1, 9),
            span(3, Some(2), 1, "worker", 1, 8),
            span(4, Some(3), 1, "engine", 2, 7),
            span(5, Some(1), 0, "report", 9, 10),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.layer("root"), 1.0);
        assert_eq!(b.layer("exec"), 0.0, "a wait is no layer's work");
        assert_eq!(b.wait_s, 8.0);
        assert_eq!(b.layer("worker"), 2.0);
        assert_eq!(b.layer("engine"), 5.0);
        assert_eq!(b.layer("report"), 1.0);
        assert_eq!(b.busy_s, 10.0 + 7.0 - 8.0);
    }
}
