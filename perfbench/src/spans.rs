//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer was created),
//! an optional parent span and the id of the request or pass it belongs
//! to. Spans stay in memory and are written out as JSON lines when the
//! run ends. A span's self time is its duration minus the durations of
//! its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Self time, total time and call count of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    pub total_ns: u64,
    /// Signed: a logical child timed in a separate call (see
    /// `serve`) can outlast its parent by noise.
    pub self_ns: i64,
    pub calls: u64,
}

impl LayerTotal {
    /// Mean self time per call in microseconds; 0 without calls.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Run `f` as a span named `name` when there is a tracer, else just run
/// it. Returns the span's id, when traced, with `f`'s result.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> R,
) -> (Option<SpanId>, R) {
    match tracer {
        Some(t) => {
            let (id, r) = t.span(name, parent, request, |_, _| f());
            (Some(id), r)
        }
        None => (None, f()),
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
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
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a new span and return the span's id with `f`'s
    /// result. `f` gets the tracer and the new span's id, to open
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> (SpanId, R) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let r = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        (id, r)
    }

    /// Self time, total time and calls per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += (s.end_ns - s.start_ns) as i64 - child as i64;
            t.calls += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .map_err(err)?;
        }
        w.flush().map_err(err)
    }
}
