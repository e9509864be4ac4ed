//! Spans recorded from outside the crates: one around each public call
//! the benchmark makes into a layer. Spans stay in memory while the
//! workload runs and are written out as JSONL when it ends.
//!
//! The benchmark is single-threaded, so the span that caused a span is
//! simply the one open when it started; a stack of open spans gives every
//! record its parent.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// `<layer>.<call>`; the layer prefix is what attribution groups by.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    /// Whether this is a traced pass at all.
    tracing: bool,
    /// Whether spans are being recorded right now.
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// The untraced pass: `span` calls straight through and keeps nothing.
    pub fn off() -> Self {
        Self {
            tracing: false,
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Self { tracing: true, on: true, ..Self::off() }
    }

    /// Stops recording until [`resume`](Self::resume): the traced pass
    /// runs its untraced iterations through the same tracer.
    pub fn pause(&mut self) {
        self.on = false;
    }

    /// Records again, if this is a traced pass.
    pub fn resume(&mut self) {
        self.on = self.tracing;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. `f` gets the tracer back so
    /// the calls it makes nest under this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every finished span called `name`, in the
    /// order they ran.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn dump(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let row = Value::obj([
                ("id", Value::Int(s.id as i64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Int(p as i64))),
                ("name", Value::str(s.name)),
                ("workload", Value::str(workload)),
                ("start_ns", Value::Int(s.start_ns as i64)),
                ("end_ns", Value::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{row}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::on();
        let got =
            t.span("outer.call", |t| t.span("inner.call", |_| 7) + t.span("inner.call", |_| 1));
        assert_eq!(got, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns, "a parent ends after its children");
        assert_eq!(t.seconds_of("inner.call").len(), 2);
    }

    #[test]
    fn a_paused_tracer_records_nothing_until_resumed() {
        let mut t = Tracer::on();
        t.pause();
        t.span("a.b", |_| ());
        t.resume();
        t.span("c.d", |_| ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].name, "c.d");
        let mut off = Tracer::off();
        off.resume();
        off.span("a.b", |_| ());
        assert!(off.spans().is_empty(), "resuming an untraced pass does not start one");
    }

    #[test]
    fn an_untraced_pass_keeps_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a.b", |t| t.span("c.d", |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
