//! In-memory spans around calls into each crate's public functions.
//!
//! A span names the layer call (`topodb.snapshot`, `relations.classify`,
//! ...), the request it belongs to and its parent span, so a layer's self
//! time is its duration minus its children's. With tracing off,
//! [`Spans::time`] only calls through. The spans are written out once the
//! run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    /// Index in the log.
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    request: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, origin: Instant) -> Spans {
        Spans {
            on,
            origin,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new request: later spans share its identifier.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            id: idx,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            let end = self.origin.elapsed().as_nanos() as u64;
            let span = &mut self.spans[idx];
            span.dur_ns = end - span.start_ns;
            self.open.pop();
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Durations of every span with this name, in seconds.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Write the spans as tab-separated lines: name, request, id, parent
    /// id, start and duration in nanoseconds.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\trequest\tid\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.id, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
