//! In-memory span recording for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it and the id
//! of the request (a repetition or a daemon job) it belongs to. Spans are
//! recorded by the benchmark itself around each call it makes into a
//! layer's public API, kept in memory, and written out when the run ends.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Repetition of the workload the span belongs to.
    pub rep: u32,
    /// Request the span belongs to: the repetition index, or the job's
    /// position in the corpus on the served workload.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans of one thread. Each client thread owns its own tracer;
/// [`merge`] joins them at the end of the run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            rep: 0,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span of this tracer.
    pub fn span<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(SpanRec {
                id,
                parent: self.stack.borrow().last().copied(),
                name,
                rep: self.rep,
                job,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let result = f();
        self.stack.borrow_mut().pop();
        let end = self.ns(Instant::now());
        self.spans.borrow_mut()[id].end_ns = end;
        result
    }

    /// Records a span observed from outside (start and end already known)
    /// as a child of the innermost open span.
    pub fn record(&self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(SpanRec {
            id,
            parent: self.stack.borrow().last().copied(),
            name,
            rep: self.rep,
            job,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.into_inner()
    }
}

/// Joins the spans of several tracers, renumbering ids so they stay unique.
pub fn merge(parts: Vec<Vec<SpanRec>>) -> Vec<SpanRec> {
    let mut out = Vec::new();
    for part in parts {
        let offset = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one span never overlap (each tracer is one thread),
/// so the covered part is the sum of their durations.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Self time in seconds per (repetition, span name).
pub fn self_seconds_by_rep(spans: &[SpanRec]) -> BTreeMap<(u32, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry((span.rep, span.name)).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// The per-repetition self-time samples of spans named `name`, one per
/// repetition in `reps` (a repetition without such a span contributes 0).
pub fn samples(
    by_rep: &BTreeMap<(u32, &'static str), f64>,
    reps: &[u32],
    name: &'static str,
) -> Vec<f64> {
    reps.iter()
        .map(|&rep| by_rep.get(&(rep, name)).copied().unwrap_or(0.0))
        .collect()
}

/// One JSON object per line, in id order.
pub fn to_json_lines(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rep\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, parent, span.name, span.rep, span.job, span.start_ns, span.end_ns, self_ns
        );
    }
    out
}
