//! In-memory spans for the traced run.
//!
//! The program carries no tracing of its own: the benchmark records a span
//! around each of its own calls into a layer. Spans stay in memory and are
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
pub struct Span {
    /// Layer name, e.g. `serve.protocol.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (operation) this span belongs to.
    pub req: u64,
}

/// A traced run's recorder, the enclosing span, and the request id; `None`
/// when the run is untraced.
pub type Traced<'a> = Option<(&'a mut Tracer, usize, u64)>;

/// Time `f`, under a span named `name` when traced.
pub fn timed<T>(tr: &mut Traced<'_>, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let sid = tr
        .as_mut()
        .map(|(t, parent, req)| t.open(name, Some(*parent), *req));
    let t0 = Instant::now();
    let v = f();
    let d = t0.elapsed();
    if let (Some((t, _, _)), Some(sid)) = (tr.as_mut(), sid) {
        t.close(sid);
    }
    (v, d)
}

/// A span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as a span; return its result and the span's length in µs.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        (out, self.us(id))
    }

    /// Duration of span `id` in µs.
    pub fn us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Mean duration in µs of the spans named `name` (0 when there are
    /// none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total_ns) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            total_ns as f64 / n as f64 / 1e3
        }
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
