//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call
//! (name, key, start, end, parent) and kept in memory until the run ends.
//! The untraced run never constructs a [`Tracer`]: every wrapped call goes
//! through [`traced`], which costs one `Option` check when tracing is off.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was built.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `shard.sweep`.
    pub name: &'static str,
    /// Logical key: solve index, batch id or request id.
    pub key: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans into a growable in-memory buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, key: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            key,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by direct children), all in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.ms();
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ms) {
            let row = table.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.ms();
            row.2 += span.ms() - children;
        }
        table
    }
}

/// Runs `f` inside a span called `name` when `tracer` is on, bare when it
/// is off. `f` receives the tracer back so nested calls record children.
pub fn traced<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    key: u64,
    f: impl FnOnce(&mut Option<Tracer>) -> T,
) -> T {
    let Some(t) = tracer.as_mut() else {
        return f(tracer);
    };
    let id = t.open(name, key);
    let out = f(tracer);
    tracer
        .as_mut()
        .expect("the tracer outlives its spans")
        .close(id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tracer = Some(Tracer::new());
        traced(&mut tracer, "outer", 1, |t| {
            traced(t, "inner", 2, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = tracer.unwrap();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let table = t.self_times();
        let (n, total, own) = table["outer"];
        assert_eq!(n, 1);
        assert!(
            own < total,
            "the child's time is not the parent's self time"
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut tracer = None;
        assert_eq!(traced(&mut tracer, "x", 0, |_| 7), 7);
        assert!(tracer.is_none());
    }
}
