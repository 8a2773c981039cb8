//! In-memory spans around the benchmark's calls into each layer, written
//! out as JSON lines when the run ends.
//!
//! A span covers one call into a layer as seen from the benchmark: a name,
//! start and end (nanoseconds since the run's origin), the span that caused
//! it, and the request or cohort id it belongs to. A span's self time is
//! its duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `http.assign` or `crowd.cohort`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request, visit or cohort id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread. Disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer timing from `origin`; `enabled = false` makes every call a
    /// no-op.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; it becomes the parent of spans recorded until the
    /// matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    /// Close the span `handle` opened by [`Tracer::enter`].
    pub fn exit(&mut self, handle: Option<usize>) {
        let Some(h) = handle else { return };
        self.spans[h].end_ns = self.ns(Instant::now());
        if let Some(pos) = self.stack.iter().rposition(|&s| s == h) {
            self.stack.truncate(pos);
        }
    }

    /// Record a finished span under the innermost open one.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            id,
        });
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Concatenate span lists from several tracers sharing one origin,
/// re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Total self time, in seconds, of the spans named `name`.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    summarize(spans).get(name).map_or(0.0, |e| e.2 as f64 / 1e9)
}

/// Write one JSON object per span to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"self_ns\":{own}}}",
            s.name, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("cohort", 0, 100, None),
            span("solve", 10, 30, Some(0)),
            span("solve", 25, 40, Some(0)),
            span("solve", 90, 120, Some(0)),
        ];
        // Children cover [10, 40) and [90, 100) of the parent.
        assert_eq!(self_times(&spans), vec![60, 20, 15, 30]);
        let sum = summarize(&spans);
        assert_eq!(sum["solve"], (3, 65, 65));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let h = t.enter("x", 1);
        t.record("y", 1, Instant::now(), Instant::now());
        t.exit(h);
        assert!(t.take().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("p", 0, 10, None), span("c", 1, 2, Some(0))];
        let b = vec![span("p", 0, 10, None), span("c", 1, 2, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
    }
}
