//! In-memory spans recorded around calls into each layer's public
//! functions, written out when the run ends.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! request it served. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of spans that serve no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lp.gram_solve`.
    pub name: &'static str,
    /// Start, ns after the trace origin.
    pub start_ns: u64,
    /// End, ns after the trace origin.
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// The request served, or [`NO_REQUEST`].
    pub request: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span recorder. Not shared between threads: each thread records into
/// its own and [`Trace::absorb`] merges them at the end.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty trace on the same clock, for another thread.
    pub fn fork(&self) -> Trace {
        Trace::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn start(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as one span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Trace, usize) -> T,
    ) -> T {
        let id = self.start(name, request, parent);
        let value = f(self, id);
        self.end(id);
        value
    }

    /// Appends another thread's spans (same origin), re-indexing parents.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time in ns of every span: its duration minus the union of its
    /// children's intervals, clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.end_ns.saturating_sub(span.start_ns) - covered
            })
            .collect()
    }

    /// Total self time in ms of all spans named `name`, per request id, in
    /// order of first appearance.
    pub fn self_ms_by_request(&self, name: &str) -> Vec<(u64, f64)> {
        let self_ns = self.self_ns();
        let mut out: Vec<(u64, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            if span.name != name {
                continue;
            }
            match out.iter_mut().find(|(r, _)| *r == span.request) {
                Some(entry) => entry.1 += own as f64 / 1e6,
                None => out.push((span.request, own as f64 / 1e6)),
            }
        }
        out
    }

    /// Total duration in ms of all spans named `name`, per request id.
    pub fn total_ms_by_request(&self, name: &str) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            match out.iter_mut().find(|(r, _)| *r == span.request) {
                Some(entry) => entry.1 += span.ms(),
                None => out.push((span.request, span.ms())),
            }
        }
        out
    }

    /// Writes every span with its self time as one JSON document: a name
    /// table, then one `[id, name, start_ns, end_ns, self_ns, parent,
    /// request]` row per span (`-1` for no parent or request).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&str> = Vec::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut rows = Vec::with_capacity(self.spans.len());
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(k) => k,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let request = if s.request == NO_REQUEST {
                -1
            } else {
                s.request as i64
            };
            rows.push(format!(
                "[{i},{name},{},{},{own},{parent},{request}]",
                s.start_ns, s.end_ns
            ));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(
            out,
            "{{\"columns\": [\"id\",\"name\",\"start_ns\",\"end_ns\",\"self_ns\",\"parent\",\"request\"],"
        )?;
        writeln!(out, "\"names\": [{}],", names.join(","))?;
        writeln!(out, "\"spans\": [\n{}\n]}}", rows.join(",\n"))?;
        out.flush()
    }
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut trace = Trace::new(Instant::now());
        trace.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        // Children cover [10, 60] and [90, 100] of the root.
        assert_eq!(trace.self_ns(), vec![40, 22, 30, 30, 8]);
    }

    #[test]
    fn absorbed_traces_keep_their_parents() {
        let origin = Instant::now();
        let mut main = Trace::new(origin);
        main.span("x", 1, None, |_, _| {});
        let mut other = Trace::new(origin);
        other.span("y", 2, None, |t, id| t.span("z", 2, Some(id), |_, _| {}));
        main.absorb(other);
        assert_eq!(main.spans()[2].name, "z");
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}
