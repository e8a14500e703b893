//! In-memory span recorder for the traced run.
//!
//! One span per call the harness makes into the system: every client
//! call (connect, hello, load, slice) and every in-process call into a
//! layer's public functions. Spans carry a name, start and end (µs since
//! the recorder was created), the parent span and the request id, stay
//! in memory, and are written out as JSON lines when the run ends. With
//! tracing off the recorder keeps nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub request: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span { id, parent, name, start_us: us(start), end_us: us(end), request };
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(span);
        id
    }

    /// Opens a span whose id children can name as their parent before it
    /// ends; close it with [`Self::close`].
    pub fn open(&self) -> (u64, Instant) {
        let id = if self.enabled { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        (id, Instant::now())
    }

    pub fn close(&self, opened: (u64, Instant), name: &'static str, parent: u64) {
        if !self.enabled {
            return;
        }
        let (id, start) = opened;
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(Instant::now()),
            request: 0,
        };
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(span);
    }

    /// Times `f` as one span (always timed; recorded only when tracing).
    pub fn time<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, parent, 0, start, end);
        (r, end - start)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us, s.request
            )?;
        }
        out.flush()
    }
}
