//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer, with the span
//! that caused it as its parent. One [`Recorder`] holds the spans of one
//! operation, so they share that operation's identity. Layer metrics are
//! self times (a span's duration minus its children's), so the layers of
//! one operation add up to the part of it that spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `interpret.kernel`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` at the operation's top level.
    pub parent: Option<usize>,
    /// Seconds from the recorder's creation to the span's start.
    pub start: f64,
    /// Duration in seconds.
    pub secs: f64,
}

/// Spans of one traced operation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            secs: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[idx];
        span.secs = self.origin.elapsed().as_secs_f64() - span.start;
        out
    }

    /// Records a child of the open span whose duration the program
    /// measured itself (e.g. a store flush inside an ingest call).
    pub fn child(&mut self, name: &'static str, secs: f64) {
        let parent = self.open.last().copied();
        let start = parent.map_or(0.0, |p| self.spans[p].start);
        self.spans.push(Span {
            name,
            parent,
            start,
            secs,
        });
    }

    /// The recorded spans, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds covered by top-level spans.
    pub fn covered_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.secs)
            .sum()
    }

    /// Self time per span name in milliseconds, summed over the spans of
    /// that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_secs) {
            *out.entry(s.name).or_insert(0.0) += (s.secs - c).max(0.0) * 1e3;
        }
        out
    }
}

/// Totals of one span name (under one parent name) over many operations.
#[derive(Debug, Default, Clone)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in milliseconds.
    pub total_ms: f64,
    /// Summed self time in milliseconds.
    pub self_ms: f64,
}

/// Aggregates span trees of many operations by `(parent name, name)`.
#[derive(Debug, Default)]
pub struct SpanTable {
    rows: BTreeMap<(&'static str, &'static str), SpanTotal>,
    ops: u64,
}

impl SpanTable {
    /// Adds one operation's spans.
    pub fn add(&mut self, rec: &Recorder) {
        self.ops += 1;
        let spans = rec.spans();
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs;
            }
        }
        for (s, c) in spans.iter().zip(child_secs) {
            let parent = s.parent.map_or("op", |p| spans[p].name);
            let row = self.rows.entry((parent, s.name)).or_default();
            row.count += 1;
            row.total_ms += s.secs * 1e3;
            row.self_ms += (s.secs - c).max(0.0) * 1e3;
        }
    }

    /// A fixed-width text table, one line per `(parent, name)`, with
    /// per-operation averages.
    pub fn render(&self) -> String {
        let ops = self.ops.max(1) as f64;
        let mut out = format!(
            "{:<22} {:<22} {:>10} {:>12} {:>12}\n",
            "parent", "span", "calls/op", "total ms/op", "self ms/op"
        );
        for ((parent, name), t) in &self.rows {
            out.push_str(&format!(
                "{:<22} {:<22} {:>10.1} {:>12.3} {:>12.3}\n",
                parent,
                name,
                t.count as f64 / ops,
                t.total_ms / ops,
                t.self_ms / ops
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("outer", |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.child("inner", 0.001);
        });
        let ms = rec.self_ms();
        let outer_total = rec.spans()[0].secs * 1e3;
        assert!((ms["outer"] + ms["inner"] - outer_total).abs() < 1e-9);
        assert!((ms["inner"] - 1.0).abs() < 1e-9);
        assert!((rec.covered_secs() - rec.spans()[0].secs).abs() < 1e-12);
    }
}
