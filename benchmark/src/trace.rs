//! In-memory span tracing around the benchmark's calls into the library.
//!
//! A span records the name of the public call it wraps, an id tying it to
//! one query, step or round, its start and end, and the span that was open
//! when it began (its parent). Spans stay in memory and are written out
//! once, when the run ends. Calls run on the benchmark's own thread, so
//! children always nest inside their parent and a span's self time is its
//! duration minus the sum of its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `serve.answer.rank`.
    pub name: &'static str,
    /// The query, step or round this call served.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when enabled, records each as a [`Span`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`; timing works either
    /// way.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, returning its result and its wall time in nanoseconds;
    /// records a span named `name` when enabled. Spans opened inside `f`
    /// (through the tracer it receives) become its children.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, elapsed_ns(t0));
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = elapsed_ns(self.epoch);
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = elapsed_ns(self.epoch);
        self.spans[idx].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// [`timed`](Self::timed) without the duration.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.timed(name, id, f).0
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the duration of direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Writes the spans as JSON lines (`name`, `id`, `parent`, `start_ns`,
    /// `end_ns`, `self_ns`), creating the parent directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                concat!(
                    "{{\"name\":\"{}\",\"id\":{},\"parent\":{},",
                    "\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}"
                ),
                s.name, s.id, parent, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_subtracts_them() {
        let mut tr = Tracer::new(true);
        let ((), outer) = tr.timed("outer", 0, |tr| {
            for i in 0..3 {
                tr.span("inner", i, |_| std::hint::black_box((0..10_000u64).sum::<u64>()));
            }
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].duration_ns(), outer);
        for s in &spans[1..] {
            assert_eq!(s.parent, Some(0));
            assert!(s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns);
        }
        let selfs = tr.self_ns();
        let inner: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(selfs[0], outer - inner);
        assert_eq!(selfs[1..].iter().sum::<u64>(), inner, "leaves are all self time");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, _ns) = tr.timed("x", 1, |tr| tr.span("y", 2, |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
