//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's side of each layer boundary, kept in memory, and written as
//! one JSON file when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval: `{id, name, layer, start_ns, end_ns, parent}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder.
    pub id: u32,
    /// What ran (`op`, `call`, `check`, `idle`).
    pub name: &'static str,
    /// The rung (public entry point) the op was sent to.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Enclosing span, or [`NO_PARENT`].
    pub parent: u32,
}

/// Counters sampled at a rung boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// The rung the sample closes.
    pub layer: &'static str,
    /// When, on the recorder's clock.
    pub at_ns: u64,
    /// `(counter name, value)` pairs.
    pub values: Vec<(&'static str, f64)>,
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<CounterSample>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            layer,
            start_ns,
            end_ns,
            parent,
        });
        id
    }

    /// Sets the end of span `id`, for a parent recorded before its children.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records one op as a parent span with its two children: the call into
    /// the layer and the oracle check that follows it.
    pub fn record_op(&mut self, layer: &'static str, start_ns: u64, call_end_ns: u64, end_ns: u64) {
        let op = self.record("op", layer, start_ns, end_ns, NO_PARENT);
        self.record("call", layer, start_ns, call_end_ns, op);
        self.record("check", layer, call_end_ns, end_ns, op);
    }

    /// Records counters at a rung boundary.
    pub fn sample(&mut self, layer: &'static str, values: Vec<(&'static str, f64)>) {
        let at_ns = self.now_ns();
        self.counters.push(CounterSample {
            layer,
            at_ns,
            values,
        });
    }

    /// All spans, in recording order.
    #[cfg(test)]
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `{"header": …, "counters": […], "spans": […]}` to `path`.
    /// `header` is a ready-made JSON object.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        writeln!(out, "{{\"header\": {header},\n\"counters\": [")?;
        for (i, c) in self.counters.iter().enumerate() {
            line.clear();
            let _ = write!(line, "{{\"layer\":\"{}\",\"at_ns\":{}", c.layer, c.at_ns);
            for (name, value) in &c.values {
                let _ = write!(line, ",\"{name}\":{value}");
            }
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            writeln!(out, "{line}}}{sep}")?;
        }
        writeln!(out, "],\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.id, s.name, s.layer, s.start_ns, s.end_ns
            );
            if s.parent == NO_PARENT {
                line.push_str("null}");
            } else {
                let _ = write!(line, "{}}}", s.parent);
            }
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(out, "{line}{sep}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_spans_nest_under_their_op() {
        let mut t = Tracer::new();
        t.record_op("core.engine", 100, 160, 200);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (100, 160));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (160, 200));
    }

    #[test]
    fn json_file_lists_every_span_and_counter() {
        let mut t = Tracer::new();
        t.record_op("cracking.cracker", 1, 2, 3);
        t.sample("cracking.cracker", vec![("pieces", 4.0)]);
        let dir = std::env::temp_dir().join(format!("holistic-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.test.json");
        t.write_json(&path, "{\"workload\":\"test\"}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.matches("\"start_ns\"").count(), 3);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"pieces\":4"));
        assert!(text.contains("\"workload\":\"test\""));
    }
}
