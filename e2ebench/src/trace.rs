//! In-memory spans recorded around calls into the program's layers.
//!
//! A [`Tracer`] belongs to one thread. Spans nest through an explicit
//! stack, stay in memory while the run measures, and are summarised once
//! it ends. A layer's figure is its spans' self time: each span's duration
//! minus the part its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(SpanRecord {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<SpanRecord> {
        assert!(self.open.borrow().is_empty(), "spans still open");
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans).
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Span totals by name over one tracer's spans (indices in `parent`
/// refer to the same slice).
pub fn summarize(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

/// Merges span totals of several tracers (e.g. one per client thread).
pub fn merge(
    into: &mut BTreeMap<&'static str, SpanTotals>,
    from: &BTreeMap<&'static str, SpanTotals>,
) {
    for (name, t) in from {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("job", || {
            spin(200_000);
            t.span("layer", || spin(300_000));
            t.span("layer", || spin(300_000));
        });
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let sum = summarize(&spans);
        let job = sum["job"];
        let layer = sum["layer"];
        assert_eq!(layer.count, 2);
        assert_eq!(layer.self_ns, layer.total_ns);
        assert_eq!(job.self_ns, job.total_ns - layer.total_ns);
        assert!(job.self_ns >= 200_000);
    }
}
