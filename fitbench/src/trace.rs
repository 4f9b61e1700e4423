//! In-memory spans recorded around calls into the library's public API.
//!
//! The traced run opens a span before a call and closes it after, so every
//! span is one call into one layer; nesting follows the call structure of
//! the benchmark (a campaign span holds its runner set-up, trial and control
//! spans). Spans are kept in memory and written out when the run ends. A
//! span's *self time* is its duration minus the part of its interval that its
//! child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A single-threaded span recorder. A disabled tracer records nothing, so
/// the same phase code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in milliseconds, of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Total self time, in milliseconds, of every span named `name`.
    pub fn total_self_ms(&self, name: &str) -> f64 {
        let own = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the covered union is 10..40, not 20 + 20.
            span("b", 20, 40, Some(0)),
            // Grandchild: counts against `b`, never against `root` directly.
            span("c", 22, 28, Some(2)),
            // Runs past its parent's end: only the part inside is covered.
            span("d", 90, 120, Some(0)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 10, 20, 20 - 6, 6, 30]
        );
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times_ns(&[span("x", 5, 9, None)]), vec![4]);
        assert!(self_times_ns(&[]).is_empty());
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer");
        tracer.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("inner", || ());
        tracer.exit(outer);
        assert_eq!(tracer.count("inner"), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.total_ms("inner") >= 2.0);
        let total = tracer.total_ms("outer");
        let own = tracer.total_self_ms("outer");
        assert!((total - own - tracer.total_ms("inner")).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.enter("x");
        tracer.exit(id);
        assert_eq!(tracer.span("y", || 3), 3);
        assert!(tracer.spans().is_empty());
    }
}
