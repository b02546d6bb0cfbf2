//! In-memory spans around the benchmark's calls into each layer's public
//! functions. Nothing inside the program is instrumented: a span covers
//! one call made from this benchmark, and its parent is the operation the
//! call belongs to. Spans are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// 0 for a root span, else the id (index + 1) of the parent.
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id - 1].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn duration_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id - 1];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per root span named `name`: its duration minus the time its child
    /// spans cover, in ms (children of one parent never overlap here).
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let child = covered.get(&(i + 1)).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
