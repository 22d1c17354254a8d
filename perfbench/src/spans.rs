//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced run opens a span around every timed public call, recording its
//! name, start, end, parent span and the id of the run or request line it
//! belongs to; the spans are written out once, when the run ends. An
//! untraced recorder never reads the clock: `open` returns `None` and
//! `close(None)` does nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `platform.build`.
    pub name: &'static str,
    /// The run or request line the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
}

/// Records spans when enabled; free when not.
#[derive(Debug)]
pub struct Spans {
    epoch: Option<Instant>,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Spans {
    /// A recorder; `enabled = false` gives the clock-free stub.
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: enabled.then(Instant::now),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Sets the run or request-line id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(epoch: Instant) -> u64 {
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let epoch = self.epoch?;
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: Self::now_ns(epoch),
            end_ns: 0,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes a span opened by [`Spans::open`]; spans close innermost first.
    pub fn close(&mut self, id: SpanId) {
        let (Some(epoch), Some(index)) = (self.epoch, id) else {
            return;
        };
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = Self::now_ns(epoch);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in seconds of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
