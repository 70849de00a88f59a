//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each public call — this
//! issue adds no instrumentation inside the crates under test. They are
//! kept in memory while the run measures and written once, at exit.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`ROOT`] marks "no parent".
pub type SpanId = u32;

/// Parent of a top-level span.
pub const ROOT: SpanId = u32::MAX;

/// Op id of a span that covers a whole phase rather than one operation.
const NO_OP: u64 = u64::MAX;

/// Per-op spans written per parent; the file states how many were recorded.
const OP_SPANS_WRITTEN_PER_PARENT: usize = 2_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    /// Index of the operation within its workload's input; spans of one
    /// operation share it across rungs.
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`close`](Self::close) stamps its end.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span { name, parent, op: NO_OP, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Records a finished per-operation span from two [`now`](Self::now)
    /// stamps.
    pub fn record_op(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span { name, parent, op, start_ns, end_ns });
    }

    /// Writes every phase span and the first [`OP_SPANS_WRITTEN_PER_PARENT`]
    /// per-op spans under each parent as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let op_spans = self.spans.iter().filter(|s| s.op != NO_OP).count();
        writeln!(out, "{{")?;
        writeln!(out, "  \"workload\": \"{workload}\",")?;
        writeln!(out, "  \"seed\": {seed},")?;
        writeln!(out, "  \"time_unit\": \"ns since tracer epoch\",")?;
        writeln!(out, "  \"spans_recorded\": {},", self.spans.len())?;
        writeln!(out, "  \"op_spans_recorded\": {op_spans},")?;
        writeln!(out, "  \"op_spans_written_per_parent\": {OP_SPANS_WRITTEN_PER_PARENT},")?;
        writeln!(out, "  \"spans\": [")?;
        let mut written_under = vec![0usize; self.spans.len()];
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.op != NO_OP {
                let under = &mut written_under[s.parent as usize];
                if *under >= OP_SPANS_WRITTEN_PER_PARENT {
                    continue;
                }
                *under += 1;
            }
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            let op = if s.op == NO_OP { "null".to_string() } else { s.op.to_string() };
            write!(
                out,
                "    {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {op}, \
                 \"start\": {}, \"end\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "\n  ]\n}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let rung = t.open("rung", ROOT);
        for op in 0..3 {
            let a = t.now();
            let b = t.now();
            t.record_op("op", rung, op, a, b);
        }
        assert!(t.close(rung) >= 0.0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/spans-test-{}", std::process::id()));
        let path = dir.join("trace_test.json");
        t.write_json(&path, "test", 7).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"op_spans_recorded\": 3"));
        assert!(text.contains("\"name\": \"rung\", \"parent\": null, \"op\": null"));
        assert!(text.contains("\"name\": \"op\", \"parent\": 0, \"op\": 2"));
    }
}
