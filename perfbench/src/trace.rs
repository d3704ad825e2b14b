//! Spans and counters recorded from outside the library.
//!
//! A span brackets one public call into a layer; it carries the layer
//! name, start and end (ns since the run's epoch) and the id of the op
//! that made the call. Spans stay in memory and are written out once, at
//! the end of a traced run. Counters are plain sums keyed by metric name;
//! adding to them costs a map lookup, so they are kept in untraced phases
//! too, while the extra library calls some counters need (`lang.tokens`)
//! run only when tracing is on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans (when enabled) and counters of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records counters only.
    pub fn off(epoch: Instant) -> Tracer {
        Tracer { epoch, enabled: false, op: 0, spans: Vec::new(), counts: BTreeMap::new() }
    }

    /// A tracer that records spans and counters.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer { enabled: true, ..Tracer::off(epoch) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attributes the following spans to op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` as one call into `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            op: self.op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Records an interval measured by the caller (client-side serve
    /// timings, where the call and its measurement interleave).
    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span { layer, op: self.op, start_ns: self.ns(start), end_ns: self.ns(end) };
            self.spans.push(span);
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counts.entry(counter).or_insert(0.0) += v;
    }

    pub fn max(&mut self, counter: &'static str, v: f64) {
        let e = self.counts.entry(counter).or_insert(0.0);
        *e = e.max(v);
    }

    pub fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    /// Total time inside spans of `layer`.
    pub fn busy(&self, layer: &str) -> Duration {
        let ns: u64 =
            self.spans.iter().filter(|s| s.layer == layer).map(|s| s.end_ns - s.start_ns).sum();
        Duration::from_nanos(ns)
    }

    /// Spans of `layer`.
    pub fn spans_of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"layer\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
