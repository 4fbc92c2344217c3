//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: every span starts and
//! ends in benchmark code (the twin's host and transport, the reactor's
//! timing transport, the client's fabric calls).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. Spans of one engine round share `round`; spans
/// outside any round carry 0.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: calls, wall time, and self time (wall time minus the
/// time covered by child spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rounds: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            rounds: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. A span named `round` starts a new engine round; every
    /// other span belongs to the round of its parent (0 outside rounds).
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let round = if name == "round" {
            self.rounds += 1;
            self.rounds
        } else if parent == NO_PARENT {
            0
        } else {
            self.spans[parent as usize].round
        };
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, round });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans end in LIFO order");
    }

    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.ns();
            a.self_ns += s.ns().saturating_sub(child);
        }
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        out.flush()
    }
}

/// A scoped span over a shared tracer; a `None` tracer records nothing.
pub fn timed<T>(tracer: Option<&RefCell<Tracer>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.borrow_mut().begin(name);
            let out = f();
            t.borrow_mut().end(id);
            out
        }
    }
}
