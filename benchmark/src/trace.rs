//! Spans around façade calls, recorded by the benchmark itself.
//!
//! A traced run wraps every `submit`, `drain`, `apply_updates`, `wait`,
//! `load_graph` and `load_walker` in a span and samples the public
//! counters at the same boundaries. Spans stay in memory and are written
//! as JSON lines when the run ends. An untraced run carries a disabled
//! tracer whose calls do nothing.

use crate::json::Json;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one op share its id.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span: pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Open {
    /// For use as the `parent` of a child span.
    pub fn id(self) -> Option<usize> {
        self.0
    }
}

/// Counter values sampled at one op boundary.
#[derive(Clone, Debug)]
struct Sample {
    op_id: u64,
    at_ns: u64,
    counters: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    /// Whether this run records at all (`--trace 1`).
    enabled: bool,
    /// Whether the current op is recorded: a traced run switches this off
    /// on alternate stretches of ops to measure its own overhead.
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    samples: Vec<Sample>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            active: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Switches recording for the coming ops; stays off on a disabled
    /// tracer. Returns whether recording is now on.
    pub fn set_active(&mut self, on: bool) -> bool {
        self.active = self.enabled && on;
        self.active
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: Option<usize>) -> Open {
        if !self.active {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records counter values at an op boundary; `read` runs only when the
    /// current op is traced.
    pub fn sample(&mut self, op_id: u64, read: impl FnOnce() -> Vec<(&'static str, f64)>) {
        if self.active {
            let at_ns = self.now_ns();
            self.samples.push(Sample {
                op_id,
                at_ns,
                counters: read(),
            });
        }
    }

    /// Writes spans, then counter samples, one JSON object per line.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("span", Json::from(i as u64)),
                ("name", Json::str(s.name)),
                ("op_id", Json::from(s.op_id)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            writeln!(out, "{}", line.line())?;
        }
        for s in &self.samples {
            let line = Json::obj([
                ("op_id", Json::from(s.op_id)),
                ("at_ns", Json::from(s.at_ns)),
                (
                    "counters",
                    Json::obj(s.counters.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                ),
            ]);
            writeln!(out, "{}", line.line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert!(!t.set_active(true));
        let open = t.begin("drain", 1, None);
        t.end(open);
        t.sample(1, || panic!("counters must not be read when disabled"));
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 7, None);
        let child = t.begin("drain", 7, op.id());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(op);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[0].op_id, t.spans[1].op_id), (7, 7));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.spans[1].end_ns - t.spans[1].start_ns >= 2_000_000);
    }

    #[test]
    fn inactive_stretches_are_skipped_and_the_file_parses() {
        let mut t = Tracer::new(true);
        t.set_active(false);
        let skipped = t.begin("drain", 1, None);
        t.end(skipped);
        t.set_active(true);
        let kept = t.begin("drain", 2, None);
        t.end(kept);
        t.sample(2, || vec![("launch_seconds", 0.5)]);
        assert_eq!(t.spans.len(), 1);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("name").and_then(Json::as_str), Some("drain"));
        assert_eq!(
            lines[1]
                .get("counters")
                .and_then(|c| c.get("launch_seconds"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
